"""Self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/test_selftest.py -q

Asserts that every metric of BENCHMARK.json is emitted with its unit, that
deterministic counts repeat exactly between two traced runs at one seed,
that the written spans nest properly, and that self times sum to no more
than the wall time of the traced calls.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import SpanStats  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 7


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def _emitted(result) -> dict[str, str]:
    return {name: unit for name, (_, unit) in result["metrics"].items()}


def test_workload_names_match():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_generation_is_seeded():
    for w in workloads.WORKLOADS:
        assert workloads.generate(w, SEED) == workloads.generate(w, SEED)
        assert workloads.generate(w, SEED) != workloads.generate(w, SEED + 1)


def test_tail_has_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0


def test_closed_form_tolerance():
    report = {key: {"choi_concurrence": 0.5, "is_eb": False, "eb_order": 2,
                    "word": "PQ"} for key in ("P", "Q", "sequence")}
    # within sqrt(eps) per root: passes, but misses the README's 1e-8
    errors, err = checks.check_discrete(report, 0.5 + 1.5e-8)
    assert errors == [] and err == pytest.approx(1.5e-8)
    assert checks.closed_form_summary([err, 0.0]) == {
        "checked": 2, "max_abs_err": err, "misses_1e-8": 1}
    errors, _ = checks.check_discrete(report, 0.5 + 1e-6)
    assert len(errors) == 1 and "closed form" in errors[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics(workload):
    result = run.run_workload(workload, SEED, 0.0, trace=False, tiny=True)
    assert _emitted(result) == _units("end_to_end")
    assert all(v > 0 for v, _ in result["metrics"].values())
    # a warm-up pass over the tiny set and one measured pass
    assert result["record"]["deterministic"]["attempted"] == 2 * len(
        workloads.generate(workload, SEED, tiny=True))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runs(workload):
    first, second = (run.run_workload(workload, SEED, 0.0, trace=True, tiny=True)
                     for _ in range(2))
    assert _emitted(first) == _units("per_layer")
    counts = [r["record"]["deterministic"]["layer_counts"] for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == len(workloads.generate(workload, SEED, tiny=True))

    # both runs write the same spans file; it holds the second run's spans
    stats = SpanStats.load(run.ROOT / second["record"]["spans_path"])
    assert stats.nesting_errors() == []
    assert len(stats.duration) > counts[0]["cli.main.calls"]
    assert stats.self_time.min() >= -1e-9
    traced_wall = second["record"]["timing"]["traced_pass_s"]
    assert stats.self_time.sum() <= traced_wall
