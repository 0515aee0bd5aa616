"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checkout import ROOT, use_checkout_source  # noqa: E402

use_checkout_source()

import run  # noqa: E402
import workloads  # noqa: E402
from modhilb import circle, osc, spectral  # noqa: E402
from spans import SPANS, Tracer  # noqa: E402


def sample_ops():
    """The cheapest ops of every kind, covering every code path a check sees.

    The first two stationary-phase ops of each kind at l = 9 cover both
    signs of xi, so for d = 3 both the rootless and the two-root split.
    """
    sp = [op for op in workloads.stationary_phase_ops(5, 1) if op.ctx.l == 9]
    sp = [op for d in (2, 3) for op in [o for o in sp if o.ctx.d == d][:2]]
    return (sp + workloads.modulated_fft_ops(5, 1)
            + workloads.major_arcs_ops(5, 1)[:4])


OPS = sample_ops()
RESULTS = [op.run() for op in OPS]


def test_traced_ops_are_bit_identical_and_tracer_restores_functions():
    originals = {(m.__name__, a): getattr(m, a)
                 for places, _ in SPANS.values() for m, a in places}
    psi = osc.BumpFamily.psi
    with Tracer() as tracer:
        traced = [op.run() for op in OPS]
    for op, plain, res in zip(OPS, RESULTS, traced):
        assert workloads.result_digest(plain) == workloads.result_digest(res), op.label
    for (module, attr), fn in originals.items():
        assert getattr(sys.modules[module], attr) is fn
    assert osc.BumpFamily.psi is psi
    assert tracer.calls["osc.stationary_phase_split"] == 4
    assert tracer.calls["circle.restricted_sup_outside_Xj"] == 2
    assert tracer.calls["weyl.complete_weyl_sum"] == 2
    assert tracer.counts["osc.quad_nodes"] > 0


def test_tracer_counts_modulation_work():
    carleson, restricted = OPS[5], OPS[6]
    with Tracer() as tracer:
        carleson.run()
        restricted.run()
    kept = sum(not circle.xset_contains(lam, restricted.p.xset(j))
               for j in (6, 12) for lam in restricted.grid.points)
    m = tracer.metrics(2)
    assert m["circle.restricted_sup_outside_Xj.lambdas_in"][0] == 256
    assert m["spectral.lambdas"][0] == (32 + kept) / 2
    # one forward transform of the signal per call, then one pair per lambda
    assert tracer.calls["spectral.fft"] == 3 + 2 * (32 + kept)
    assert tracer.top_s > 0.0


def _perturbed(op, result):
    if isinstance(op, workloads.StationaryPhaseOp):
        return (result[0] + 1e-6,) + result[1:]
    if isinstance(op, workloads.RestrictedSupOp):
        return result[::-1]
    if isinstance(op, workloads.CarlesonOp):
        values = result.values.copy()
        values[op.sample_x[0]] += 1e-6
        return spectral.Signal(result.offset, values)
    if isinstance(op, workloads.OscillationSumOp):
        return result * (1.0 + 1e-6)
    if isinstance(op, workloads.MajorBoxOp):
        return result[:2] + (result[2] + 1e-5,)
    return complex(math.nan, 0.0)


@pytest.mark.parametrize("index", range(len(OPS)), ids=[op.label for op in OPS])
def test_check_accepts_result_and_rejects_perturbed_one(index):
    op, result = OPS[index], RESULTS[index]
    assert op.check(result)
    assert not op.check(_perturbed(op, result))


def test_error_ej_check_rejects_large_values():
    op = next(op for op in OPS if isinstance(op, workloads.ErrorEjOp))
    assert not op.check(1.5 + 0j)


def test_every_fft_op_is_unaliased_and_the_aliased_ring_is_rejected():
    for wl in workloads.WORKLOADS.values():
        workloads.check_rings(wl.make_ops(1, 2))
    op = next(op for op in OPS if isinstance(op, workloads.RestrictedSupOp))
    # acceptance 10 applies M_12, radius 8192, on a 4096-point ring
    aliased = workloads.RestrictedSupOp(op.f, op.grid, 6, 12, op.p, 4096)
    with pytest.raises(ValueError, match="exceeds ring size"):
        workloads.check_rings([aliased])


def test_inputs_follow_the_seed():
    def key(ops):
        return [(op.xi, op.ctx.lam) for op in ops]

    sp = workloads.stationary_phase_ops
    assert key(sp(3, 2)) == key(sp(3, 2))
    assert key(sp(3, 2)) != key(sp(4, 2))
    mf = workloads.modulated_fft_ops
    assert np.array_equal(mf(3, 1)[2].f.values, mf(3, 1)[2].f.values)
    assert not np.array_equal(mf(3, 1)[2].f.values, mf(4, 1)[2].f.values)


def test_exact_phase_reduction_matches_fractions():
    from fractions import Fraction

    rng = np.random.default_rng(0)
    lams = rng.uniform(0.0, 1.0, 5)
    m = np.arange(-4096, 4097, 97)
    got = workloads.frac_lam_msq(lams, m)
    for i, lam in enumerate(lams):
        for k, mk in enumerate(m):
            exact = Fraction(lam) * mk * mk
            assert abs(got[i, k] - float(exact - math.floor(exact))) <= 2.0 ** -52


def test_tail_latency_keeps_ten_ops_beyond_it():
    lat = [float(i) for i in range(36)]
    assert run.tail_latency(lat, 72) == 25.0   # rank 26 of 36: ten beyond
    with pytest.raises(ValueError):
        run.tail_latency(lat[:20], 72)
    for wl in workloads.WORKLOADS.values():
        n = wl.min_rounds * wl.round_size
        run.tail_latency(list(range(n)), wl.tail_percentile)


def test_run_fails_without_the_library_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "major-arcs", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_every_restricted_grid_reaches_outside_x6():
    for op in workloads.modulated_fft_ops(3, 12)[2::4]:
        x6 = op.p.xset(6)
        assert not all(circle.xset_contains(lam, x6) for lam in op.grid.points)
