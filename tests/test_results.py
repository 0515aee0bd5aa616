"""The results ledger: every experiment at its defaults against its
committed CSV in tests/results/.

A change that moves a reported number re-records the CSV in the same
change (`PYTHONPATH=src python tests/test_results.py`), so the diff
shows the moved cells.
"""

import csv
import json
import math
import re
from pathlib import Path

from modhilb.bench import EXPERIMENTS, ExperimentConfig, run

RESULTS = Path(__file__).parent / "results"

# the seed of each randomized experiment; the others take none
SEEDS = {"major-arc-error": 7, "ej-decay": 3, "xj-restricted": 11,
         "stationary-phase": 2, "square-function": 1, "ttstar": 0,
         "ergodic": 9}

# absolute floor for float cells, for cells that are differences of
# nearly equal quantities (round-off residues, sup errors, quadrature
# reconstruction errors); other cells agree to a relative 1e-9
FLOORS = {
    "weyl-scan": 1e-14,
    "hua-fit": 0.0,
    "kernel-identity": 1e-12,
    # below the ~1e-14 moves a change of phase reduction makes in the
    # sup errors near 1e-13 at j >= 12
    "major-arc-error": 1e-15,
    "ej-decay": 1e-12,
    "xj-restricted": 0.0,
    "carleson": 1e-12,
    "stationary-phase": 1e-13,
    "square-function": 0.0,
    "ttstar": 0.0,
    "ergodic": 0.0,
    "variation": 1e-13,
}

_INT = re.compile(r"-?\d+")


def _record(name: str, out_dir) -> bool:
    params = {"seed": SEEDS[name]} if name in SEEDS else {}
    return run(ExperimentConfig(name, params, str(out_dir))).passed


def _rows(path: Path) -> list[list[str]]:
    return list(csv.reader(path.read_text().splitlines()))


def _cell_moved(got: str, want: str, floor: float) -> bool:
    if _INT.fullmatch(want):
        return got != want
    try:
        want_f = float(want)
    except ValueError:
        return got != want
    try:
        got_f = float(got)
    except ValueError:
        return True
    return not math.isclose(got_f, want_f, rel_tol=1e-9, abs_tol=floor)


def test_ledger_matches_committed_results(tmp_path):
    assert set(FLOORS) == set(EXPERIMENTS)
    moved = []
    for name in EXPERIMENTS:
        _record(name, tmp_path)
        summary = json.loads((tmp_path / f"{name}.summary.json").read_text())
        assert summary["pass"] is True, name
        got = _rows(tmp_path / f"{name}.csv")
        want = _rows(RESULTS / f"{name}.csv")
        assert got[0] == want[0], f"{name}: header {got[0]} != {want[0]}"
        assert len(got) == len(want), f"{name}: {len(got) - 1} rows, " \
                                      f"committed {len(want) - 1}"
        for i, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
            for col, g, w in zip(want[0], g_row, w_row):
                if _cell_moved(g, w, FLOORS[name]):
                    moved.append(f"{name}.csv row {i} column {col}: "
                                 f"{g} != committed {w}")
    assert not moved, "\n".join(moved)


if __name__ == "__main__":
    # re-record the ledger
    for name in EXPERIMENTS:
        print(name, "pass" if _record(name, RESULTS) else "FAIL")
    for path in RESULTS.glob("*.summary.json"):
        path.unlink()
