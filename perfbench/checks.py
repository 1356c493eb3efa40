"""Correctness checks run on the outputs of every benchmark invocation.

Two kinds, both counted in ``fail_ratio``:

* the golden check compares each regenerator-default invocation's CSVs with
  the committed ``results/**/*.csv``, numerically and column by column;
* the invariant checks hold for every input, seeded ones included.

Every tolerance is a named constant below and is printed with each result.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np

# README: "concurrence is computed through a Hermitian similarity with ~1e-8
# accuracy".  Used for every concurrence-valued quantity that does not depend
# on a search result.
CONCURRENCE_ATOL = 1e-8
# Concurrence against an exact value.  It is l1 - l2 - l3 - l4, each l the
# square root of an eigenvalue in [0, 1] that LAPACK returns to about machine
# epsilon, so an eigenvalue that is exactly 0 (every Choi state of rank < 4)
# comes back as sqrt(eps) = 1.5e-8 -- the README's "~1e-8".  One sqrt(eps)
# for each of the four roots.  Misses of the 1e-8 figure itself are counted
# and reported beside the verdicts (closed_form_summary), not as failures.
EXACT_CONCURRENCE_ATOL = 4 * float(np.sqrt(np.finfo(float).eps))
# Coordinates (x, angle) come from linspace and success probabilities from a
# trace; both are exact up to roundoff (TOL.structural in entweave.qmath).
STRUCTURAL_ATOL = 1e-10
# The n* switched-line curves are cut from the single-line eb_length, which is
# only accurate to its 1e-4 xtol.  tests/test_continuous.py freezes breaking
# lengths to 2e-4; moving the single-line length by +-2e-4 moves the default
# n* curves by at most 1.12e-4 (derive_tolerances.py), rounded up here.
SWITCHED_ATOL = 1.2e-4
# Profiles along CP-divisible lines never increase; each of two neighbouring
# values carries the documented concurrence error.
MONOTONE_ATOL = 2 * CONCURRENCE_ATOL

TOLERANCES = {
    "golden.concurrence_atol": CONCURRENCE_ATOL,
    "golden.switched_line_atol": SWITCHED_ATOL,
    "golden.coordinate_atol": STRUCTURAL_ATOL,
    "golden.success_prob_atol": STRUCTURAL_ATOL,
    "invariant.concurrence_max": 1.0 + CONCURRENCE_ATOL,
    "invariant.success_prob_max": 1.0 + STRUCTURAL_ATOL,
    "invariant.profile_increase_atol": MONOTONE_ATOL,
    "invariant.closed_form_atol": EXACT_CONCURRENCE_ATOL,
    "report.closed_form_miss_atol": CONCURRENCE_ATOL,
}

_TEXT_COLUMNS = ("label", "preset", "map_label")


def read_csv(path: Path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [r[i] for r in body] for i, name in enumerate(header)}


def load_golden(results_dir: Path, golden_refs) -> dict[str, dict[str, dict]]:
    """Committed CSVs keyed by reference, then by file name.

    A reference is a ``results/`` directory (all of its CSVs are expected)
    or a single CSV file under it.
    """
    golden = {}
    for rel in sorted(set(golden_refs)):
        path = results_dir / rel
        files = [path] if path.suffix == ".csv" else sorted(path.glob("*.csv"))
        if not all(f.is_file() for f in files) or not files:
            raise FileNotFoundError(f"committed results missing: {path}")
        golden[rel] = {f.name: read_csv(f) for f in files}
    return golden


_SWITCHED_CSV = re.compile(r"continuous_\w+_n\d+\.csv")


def _column_atol(column: str, csv_name: str) -> float:
    if column in ("x", "angle", "success_prob"):
        return STRUCTURAL_ATOL
    if _SWITCHED_CSV.fullmatch(csv_name):
        return SWITCHED_ATOL
    return CONCURRENCE_ATOL


def compare_golden(produced: dict[str, dict], expected: dict[str, dict]) -> list[str]:
    """Mismatches between produced and committed CSVs, as messages."""
    errors = []
    if sorted(produced) != sorted(expected):
        errors.append(f"golden: produced {sorted(produced)}, "
                      f"committed {sorted(expected)}")
    for name in sorted(set(produced) & set(expected)):
        got, want = produced[name], expected[name]
        if list(got) != list(want):
            errors.append(f"golden {name}: columns {list(got)} != {list(want)}")
            continue
        for col in want:
            if len(got[col]) != len(want[col]):
                errors.append(f"golden {name}: {len(got[col])} rows, "
                              f"committed {len(want[col])}")
                break
            if col in _TEXT_COLUMNS:
                if got[col] != want[col]:
                    errors.append(f"golden {name}.{col}: text differs")
                continue
            diff = np.max(np.abs(np.array(got[col], dtype=float)
                                 - np.array(want[col], dtype=float)))
            atol = _column_atol(col, name)
            if not diff <= atol:
                errors.append(f"golden {name}.{col}: max |diff| {diff:.3e} "
                              f"> {atol:.1e}")
    return errors


def _concurrence_range(values, where: str) -> list[str]:
    v = np.asarray(values, dtype=float)
    if v.size and not (v.min() >= 0.0 and v.max() <= 1.0 + CONCURRENCE_ATOL):
        return [f"{where}: concurrence outside [0, 1]: "
                f"[{v.min():.12g}, {v.max():.12g}]"]
    return []


def check_continuous(csvs: dict[str, dict], physical: bool) -> list[str]:
    errors = []
    for name, cols in sorted(csvs.items()):
        c = np.array(cols["concurrence"], dtype=float)
        errors += _concurrence_range(c, name)
        if physical and c.size > 1:
            rise = float(np.max(np.diff(c)))
            if rise > MONOTONE_ATOL:
                errors.append(f"{name}: profile increases by {rise:.3e} "
                              f"on a CP-divisible line")
    return errors


def check_experiment(csvs: dict[str, dict]) -> list[str]:
    errors = []
    for name, cols in sorted(csvs.items()):
        errors += _concurrence_range(cols["concurrence"], name)
        s = np.array(cols["success_prob"], dtype=float)
        if not (s.min() > 0.0 and s.max() <= 1.0 + STRUCTURAL_ATOL):
            errors.append(f"{name}: success probability outside (0, 1]: "
                          f"[{s.min():.12g}, {s.max():.12g}]")
    return errors


def check_discrete(report: dict, closed_form: float | None) -> tuple[list[str], float | None]:
    """Check messages, and the closed-form error when there is a closed form."""
    errors = []
    for key in ("P", "Q", "sequence"):
        r = report[key]
        errors += _concurrence_range([r["choi_concurrence"]], f"report {key}")
        if r["is_eb"] != (r["eb_order"] == 1):
            errors.append(f"report {key}: is_eb {r['is_eb']} but eb_order "
                          f"{r['eb_order']}")
    if closed_form is None:
        return errors, None
    got = report["sequence"]["choi_concurrence"]
    err = abs(got - closed_form)
    if not err <= EXACT_CONCURRENCE_ATOL:
        errors.append(f"alternating word {report['sequence']['word']}: Choi "
                      f"concurrence {got!r}, closed form {closed_form!r}, "
                      f"|diff| {err:.3e}")
    return errors, err


def check_invocation(inv, rc: int, out_dir: Path,
                     golden: dict) -> tuple[list[str], float | None]:
    """Every check that applies to one finished invocation: the messages
    (empty if it passed) and the closed-form error, if the call has one."""
    if rc != 0:
        return [f"exit code {rc}"], None
    if inv.kind == "discrete":
        report = json.loads((out_dir / "discrete_report.json").read_text())
        return check_discrete(report, inv.closed_form)
    csvs = {p.name: read_csv(p) for p in sorted(out_dir.glob("*.csv"))}
    if not csvs:
        return ["no CSV output"], None
    if inv.kind == "continuous":
        errors = check_continuous(csvs, inv.physical)
    else:
        errors = check_experiment(csvs)
    if inv.golden is not None:
        errors += compare_golden(csvs, golden[inv.golden])
    return errors, None


def closed_form_summary(errs: list[float]) -> dict:
    """The closed-form errors of one pass: how many calls had a closed form,
    the largest error and how many missed the README's 1e-8."""
    return {"checked": len(errs),
            "max_abs_err": max(errs, default=0.0),
            "misses_1e-8": sum(1 for e in errs if not e <= CONCURRENCE_ATOL)}
