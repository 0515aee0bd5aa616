"""modhilb: desk-scale numerics for monomially modulated discrete Hilbert transforms.

Subpackages:

- farey     Farey neighbours, Dirichlet approximation, the X_j sets; every
            rational an integer pair (p, q) in lowest terms
- weyl      complete Weyl/Gauss sums and their identities
- osc       bump families, oscillatory quadrature, stationary phase,
            the square function
- spectral  finite-signal engine: DFT multipliers, the maximal operator,
            the TT* frequency factor, variation and oscillation functionals
- circle    circle-method approximants and error-decay harnesses
- bench     experiments declared by their signatures, reproducible reports
"""

__version__ = "0.1.0"
