"""Spans and counters around the public functions of modhilb's layers.

A Tracer wraps each counted public function where its callers look it
up (circle imports H_j, multiplier_Mj, xset_contains, dft and idft by
name), records a span per call, and derives each function's self time:
its span's duration minus the time its child spans cover.  It also
counts work at the same boundaries: quadrature nodes, FFT points and
modulation parameters.  Nothing under src/ changes; leaving the Tracer's
context restores every original attribute.

Import this module only after checkout.use_checkout_source().
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from modhilb import circle, farey, osc, spectral, weyl


_XSET_CONTAINS = farey.xset_contains


def _count_fft(counts, args):
    counts["spectral.fft.points"] += len(args[0])


def _count_carleson(counts, args):
    counts["spectral.lambdas"] += len(args[1].points)


def _count_oscillation(counts, args):
    counts["spectral.lambdas"] += len(args[1]) * (args[2] + 1)


def _count_restricted(counts, args):
    # recomputed from the inputs, outside the span, with the unwrapped
    # membership test: the count must not depend on how the library
    # filters the grid
    _, j, grid, p = args[:4]
    xs = p.xset(j)
    kept = sum(not _XSET_CONTAINS(lam, xs) for lam in grid.points)
    counts["circle.restricted_sup_outside_Xj.lambdas_in"] += len(grid.points)
    counts["circle.restricted_sup_outside_Xj.lambdas_kept"] += kept
    counts["spectral.lambdas"] += kept


# span name -> (places where callers look the function up, work counter)
SPANS = {
    "osc.G_hat_direct": ([(osc, "G_hat_direct")], None),
    "osc.stationary_phase_split": ([(osc, "stationary_phase_split")], None),
    "osc.H_j": ([(osc, "H_j"), (circle, "H_j")], None),
    "osc.oscillatory_quadrature": ([(osc, "oscillatory_quadrature")], None),
    "spectral.carleson_apply": ([(spectral, "carleson_apply")], _count_carleson),
    "spectral.oscillation_sum": ([(spectral, "oscillation_sum")],
                                 _count_oscillation),
    "spectral.multiplier_Mj": ([(spectral, "multiplier_Mj"),
                                (circle, "multiplier_Mj")], None),
    "spectral.fft": ([(spectral, "dft"), (spectral, "idft"), (circle, "dft"),
                      (circle, "idft")], _count_fft),
    "circle.restricted_sup_outside_Xj": ([(circle, "restricted_sup_outside_Xj")],
                                         _count_restricted),
    "circle.error_Ej": ([(circle, "error_Ej")], None),
    "circle.L_j": ([(circle, "L_j")], None),
    "farey.xset_contains": ([(farey, "xset_contains"),
                             (circle, "xset_contains")], None),
    "weyl.complete_weyl_sum": ([(weyl, "complete_weyl_sum")], None),
}
OSC_ENTRY = ("osc.G_hat_direct", "osc.stationary_phase_split", "osc.H_j")
# layers whose self time is the modulation loop: kernel build, phase
# reduction and the pointwise sup, with FFTs and X_j tests as children
MODULATION_LOOPS = ("spectral.carleson_apply", "spectral.oscillation_sum",
                    "circle.restricted_sup_outside_Xj")


class Tracer:
    """Install with `with Tracer() as tr:`; read tr.metrics(ops) afterwards."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.top_s = 0.0          # time inside outermost spans
        self._stack = []          # [span name, seconds covered by children]
        self._saved = []
        self._last_error = None

    def _wrap(self, name, fn, counter):
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counter(counts, args)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except osc.QuadratureError as exc:
                # one failure propagates through several osc spans
                if exc is not self._last_error:
                    self._last_error = exc
                    counts["osc.quadrature_errors"] += 1
                raise
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    self.top_s += dur

        return wrapper

    def _psi_counter(self, psi):
        # quadrature evaluates the amplitude psi once per node, on every
        # path including the stacked split that bypasses
        # oscillatory_quadrature; psi calls from kernel builders sit
        # inside spectral spans and are not nodes
        stack, counts = self._stack, self.counts

        @functools.wraps(psi)
        def counted(fam, t):
            if stack and stack[-1][0].startswith("osc."):
                counts["osc.quad_nodes"] += np.size(t)
            return psi(fam, t)

        return counted

    def __enter__(self):
        for name, (places, counter) in SPANS.items():
            for module, attr in places:
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, counter))
        psi = osc.BumpFamily.psi
        self._saved.append((osc.BumpFamily, "psi", psi))
        osc.BumpFamily.psi = self._psi_counter(psi)
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    def metrics(self, n_ops: int) -> dict:
        """Per-layer metrics, as (value, unit); counts and times are per op."""
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = (self.calls[name] / n_ops, "count/op")
            key = "spectral.fft.s" if name == "spectral.fft" else f"{name}.self_s"
            out[key] = (self.self_s[name] / n_ops, "s/op")
        for key in ("osc.quad_nodes", "osc.quadrature_errors",
                    "spectral.fft.points", "spectral.lambdas",
                    "circle.restricted_sup_outside_Xj.lambdas_in",
                    "circle.restricted_sup_outside_Xj.lambdas_kept"):
            out[key] = (self.counts[key] / n_ops, "count/op")
        integrals = sum(self.calls[name] for name in OSC_ENTRY)
        out["osc.nodes_per_integral"] = (
            self.counts["osc.quad_nodes"] / integrals if integrals else 0.0,
            "count")
        lambdas = self.counts["spectral.lambdas"]
        loop_s = (sum(self.self_s[name] for name in MODULATION_LOOPS)
                  + self.self_s["spectral.fft"])
        out["spectral.s_per_lambda"] = (loop_s / lambdas if lambdas else 0.0, "s")
        return out
