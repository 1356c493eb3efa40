"""The committed curves, replayed from their own manifests and compared
column by column.

Each committed manifest is replayed as scripts/regenerate.py does: its argv
(``cli._argv``) must parse back to its parameters, and the rerun's manifest
must equal it byte for byte (parameters, outputs, notes, counts, version).

The eight experiment sweeps hold each CSV to its copy under
results/experiment/: the angle and success probability to 1e-10, the
concurrence to 1e-8 and the text columns exactly (the tolerances
perfbench/README.md documents for its golden check).  Bytes need not match,
since stacked linear algebra may move the 12th digit.

The three continuous runs hold the breaking lengths they print line for
line, and all sixteen CSVs under results/continuous/ the same way: ``x`` to
1e-10, ``concurrence`` and ``pre_clamp`` to 1e-8, ``label`` exactly.  The n*
switched curves get the same 1e-8, tighter than the 1.2e-4 perfbench allows
them: their slices are cut from the single-line breaking length, and that
wider tolerance exists for a change to the length search, which moves them
on purpose.  Such a change regenerates results/continuous/.
"""

import csv
import json
import pathlib

import pytest

from entweave.cli import _PARSER, _argv, main

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"
EXPERIMENT = sorted((RESULTS / "experiment").glob("*/*_manifest.json"))
CONTINUOUS = sorted((RESULTS / "continuous").glob("*/*_manifest.json"))

ATOL = {"angle": 1e-10, "success_prob": 1e-10, "concurrence": 1e-8}


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _replay(manifest, out_dir):
    """Rerun a committed manifest into ``out_dir`` from the argv that parses
    back to its command and parameters, and return it; the fresh manifest
    must equal it."""
    recipe = json.loads(manifest.read_text())
    argv = _argv(recipe)
    assert vars(_PARSER.parse_args(argv)) == {
        **recipe["parameters"], "command": recipe["command"], "out": "."}
    assert main(["--out", str(out_dir), *argv]) == 0
    assert (out_dir / manifest.name).read_bytes() == manifest.read_bytes()
    return recipe


def test_results_hold_three_continuous_and_eight_experiment_manifests():
    assert (len(CONTINUOUS), len(EXPERIMENT)) == (3, 8)


@pytest.mark.parametrize("manifest", EXPERIMENT, ids=lambda p: "{map}-{vary}-{preset}".format(
    **json.loads(p.read_text())["parameters"]))
def test_experiment_sweep_matches_committed_csv(tmp_path, capsys, manifest):
    (name,) = _replay(manifest, tmp_path)["outputs"]
    got, want = _rows(tmp_path / name), _rows(manifest.parent / name)
    assert len(got) == len(want) == 361
    assert list(got[0]) == list(want[0])
    for g, w in zip(got, want):
        for column, value in w.items():
            if column in ATOL:
                assert abs(float(g[column]) - float(value)) <= ATOL[column], column
            else:
                assert g[column] == value


CONTINUOUS_ATOL = {"x": 1e-10, "concurrence": 1e-8, "pre_clamp": 1e-8}


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


@pytest.mark.parametrize("manifest", CONTINUOUS, ids=lambda p: p.parent.name)
def test_continuous_curves_match_committed_csv(tmp_path, capsys, manifest):
    subdir = manifest.parent.name
    _replay(manifest, tmp_path)
    assert capsys.readouterr().out.splitlines() == _LENGTHS[subdir]
    want_files = sorted(p.name for p in manifest.parent.glob("*.csv"))
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == want_files
    assert len(want_files) == (2 if subdir == "undriven" else 7)
    for name in want_files:
        got, want = _rows(tmp_path / name), _rows(manifest.parent / name)
        assert len(got) == len(want) == 241, name
        assert list(got[0]) == list(want[0]) == [*CONTINUOUS_ATOL, "label"]
        for g, w in zip(got, want):
            for column, atol in CONTINUOUS_ATOL.items():
                assert abs(float(g[column]) - float(w[column])) <= atol, (name, column)
            assert g["label"] == w["label"], name
