"""modhilb: desk-scale numerics for monomially modulated discrete Hilbert transforms.

Subpackages:

- farey     Farey neighbours, Dirichlet approximation, the X_j sets; every
            rational an integer pair (p, q) in lowest terms
- weyl      complete Weyl/Gauss sums and their identities
- osc       bump families, oscillatory quadrature, H_j, the symbol G and
            its stationary-phase split
- spectral  finite-signal engine: DFT multipliers, the square function,
            the maximal operator, the TT* factor, variation, oscillation
- circle    circle-method approximants, the error E_j, the sup outside X_j
- bench     experiments declared by their signatures, reproducible reports
"""

__version__ = "0.1.0"
