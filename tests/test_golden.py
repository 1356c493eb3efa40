"""The committed experiment curves, regenerated and compared column by column.

Runs the eight invocations of scripts/run_experiment_sweeps.py and holds
each CSV to its copy under results/experiment/: the angle and success
probability to 1e-10, the concurrence to 1e-8 and the text columns exactly
(the tolerances perfbench/README.md documents for its golden check).  Bytes
need not match, since stacked linear algebra may move the 12th digit.
"""

import csv
import pathlib

import pytest

from entweave.cli import main

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results" / "experiment"

ATOL = {"angle": 1e-10, "success_prob": 1e-10, "concurrence": 1e-8}


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("preset", ["ideal", "measured"])
@pytest.mark.parametrize("map_name, vary", [
    ("mprime", "theta"), ("m1", "theta"), ("m2", "phi"), ("identity", "theta"),
])
def test_experiment_sweep_matches_committed_csv(tmp_path, capsys, preset,
                                                map_name, vary):
    assert main(["--out", str(tmp_path), "experiment", "--map", map_name,
                 "--preset", preset, "--vary", vary, "--steps", "361"]) == 0
    name = f"experiment_{map_name}_{preset}_{vary}.csv"
    got, want = _rows(tmp_path / name), _rows(RESULTS / preset / name)
    assert len(got) == len(want) == 361
    assert list(got[0]) == list(want[0])
    for g, w in zip(got, want):
        for column, value in w.items():
            if column in ATOL:
                assert abs(float(g[column]) - float(value)) <= ATOL[column], column
            else:
                assert g[column] == value
