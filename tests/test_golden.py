"""The committed curves, regenerated and compared column by column.

Runs the eight invocations of scripts/run_experiment_sweeps.py and holds
each CSV to its copy under results/experiment/: the angle and success
probability to 1e-10, the concurrence to 1e-8 and the text columns exactly
(the tolerances perfbench/README.md documents for its golden check).  Bytes
need not match, since stacked linear algebra may move the 12th digit.

Runs the three invocations of scripts/run_continuous_curves.py, holds the
breaking lengths they print line for line, and holds all sixteen CSVs under
results/continuous/ the same way as the sweeps: ``x`` to 1e-10,
``concurrence`` and ``pre_clamp`` to 1e-8, ``label`` exactly.  The n*
switched curves get the same 1e-8, tighter than the 1.2e-4 perfbench
allows them: their slices are cut from the single-line breaking length,
and that wider tolerance exists for a change to the length search, which
moves them on purpose.  Such a change regenerates results/continuous/
(ROADMAP item 1).
"""

import csv
import pathlib

import pytest

from entweave.cli import main

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results" / "experiment"
CONTINUOUS = RESULTS.parent / "continuous"

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


CONTINUOUS_ATOL = {"x": 1e-10, "concurrence": 1e-8, "pre_clamp": 1e-8}

_DRIVEN = ["--omega", "1.5", "--eps", "1.0", "--n", "1", "2", "4", "8", "16",
           "--x-max", "6.0", "--steps", "241"]


# the breaking lengths the three runs print, line for line: the paper's
# numbers, not only its curves.  Each is the root correctly rounded, and the
# switched lines are cut from the single length as printed
_LENGTHS = {
    "ad": ["single: eb_length 1.7739 (xtol 0.0001)",
           "n1: eb_length 1.7739 (xtol 0.0001)",
           "n2: eb_length 2.8994 (xtol 0.0001)",
           "n4: eb_length 5.7357 (xtol 0.0001)",
           "n8: eb_length 8.6436 (xtol 0.0001)",
           "n16: eb_length 11.5237 (xtol 0.0001)",
           "limit: unbounded (searched up to 20)"],
    "pd": ["single: eb_length 0.8956 (xtol 0.0001)",
           "n1: eb_length 0.8956 (xtol 0.0001)",
           "n2: eb_length 1.1316 (xtol 0.0001)",
           "n4: eb_length 1.5210 (xtol 0.0001)",
           "n8: eb_length 2.0104 (xtol 0.0001)",
           "n16: eb_length 2.5651 (xtol 0.0001)",
           "limit: undecided from 16.6355 (searched up to 20)"],
    "undriven": ["single: unbounded (searched up to 20)",
                 "limit: unbounded (searched up to 20)"],
}


@pytest.mark.parametrize("subdir, args", [
    ("ad", ["--family", "ad", *_DRIVEN]),
    ("pd", ["--family", "pd", *_DRIVEN]),
    ("undriven", ["--family", "ad", "--omega", "0.0", "--x-max", "6.0",
                  "--steps", "241"]),
])
def test_continuous_curves_match_committed_csv(tmp_path, capsys, subdir, args):
    assert main(["--out", str(tmp_path), "continuous", *args]) == 0
    assert capsys.readouterr().out.splitlines() == _LENGTHS[subdir]
    want_files = sorted(p.name for p in (CONTINUOUS / subdir).glob("*.csv"))
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == want_files
    assert len(want_files) == (2 if subdir == "undriven" else 7)
    for name in want_files:
        got, want = _rows(tmp_path / name), _rows(CONTINUOUS / subdir / name)
        assert len(got) == len(want) == 241, name
        assert list(got[0]) == list(want[0]) == [*CONTINUOUS_ATOL, "label"]
        for g, w in zip(got, want):
            for column, atol in CONTINUOUS_ATOL.items():
                assert abs(float(g[column]) - float(w[column])) <= atol, (name, column)
            assert g["label"] == w["label"], name
