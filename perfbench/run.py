#!/usr/bin/env python3
"""The entweave benchmark: end-to-end and per-layer metrics of one workload.

    python3 perfbench/run.py --workload lines --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file.  Every invocation drives ``entweave.cli.main`` in this
process, writes into a temporary directory under ``perfbench/_runs/`` and
has its outputs checked (checks.py) before the directory is removed.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The full
record, with the reproducibility fields, goes to ``perfbench/_runs/``.
README.md lists the metrics, the workloads and why each exists.
"""

from __future__ import annotations

import os

# One thread for the whole process, BLAS included; must precede numpy.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / "results"
RUNS = HERE / "_runs"

SETUP_REPEATS = 9
TAIL_BEYOND = 10

# Host-speed reference: a small fixed kernel of the kinds of work the program
# spends its time in -- LAPACK and ufunc calls on 4x4 matrices, and plain
# interpreter work.  While a pass runs, HostSpeed times it every
# SAMPLE_INTERVAL_S.  Each stretch of a call up to a sample is rescaled by
# (REFERENCE_S / (mean kernel time of the samples within SMOOTH_S of that
# one)) ** HOST_EXPONENT, i.e. to the speed at which the kernel takes
# REFERENCE_S: its median time in the faster of the two states seen on the
# 2-core x86-64 VM the benchmark was written on.  README.md explains why.
REFERENCE_S = 0.35e-3
# The program slows more than the kernel when the host is slow: with the
# kernel's speed alone, rescaled run_s still rose as (kernel slowdown)^0.15
# to ^0.22 over 30 runs of the three workloads (README.md).  Each speed
# factor is raised to this power to take that out.
HOST_EXPONENT = 1.15
SAMPLE_INTERVAL_S = 0.025
SMOOTH_S = 0.5
_REFERENCE_ROUNDS = 4
_REFERENCE_MATRIX = (lambda g: g + g.conj().T)(
    np.random.default_rng(0).normal(size=(4, 4))
    + 1j * np.random.default_rng(1).normal(size=(4, 4)))


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing sources or golden results)."""


def _import_program():
    if not (SRC / "entweave" / "__init__.py").is_file():
        raise BenchmarkError(f"no entweave sources under {SRC}")
    if not RESULTS.is_dir():
        raise BenchmarkError(f"no committed results under {RESULTS}")
    sys.path.insert(0, str(SRC))
    import entweave.cli
    if not Path(entweave.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"entweave imported from {entweave.__file__}, not {SRC}")
    return entweave.cli


# ------------------------------------------------------------------ passes


def reference_time() -> float:
    """Wall time of the host-speed reference kernel."""
    t0 = perf_counter()
    for _ in range(_REFERENCE_ROUNDS):
        w, v = np.linalg.eigh(_REFERENCE_MATRIX)
        b = (v * w) @ v.conj().T
        np.kron(b[:2, :2], b[2:, 2:]).trace()
        sum(i * i % 7 for i in range(700))
    return perf_counter() - t0


class HostSpeed:
    """Samples the host's speed during a pass.

    While installed, a SIGALRM every SAMPLE_INTERVAL_S times the reference
    kernel.  The handler runs in the process's one thread, between the
    bytecodes of whatever it interrupted, so a sample inside a call adds its
    kernel time to that call's wall time; ``rescale`` leaves it out.  One
    sample of a 0.35 ms kernel is noisy, and 1 / (kernel time) exaggerates
    the noise, so each sample's speed is the mean kernel time of its
    neighbours within SMOOTH_S.
    """

    def __init__(self):
        self.end: list[float] = []      # when each sample finished
        self.kernel: list[float] = []   # its kernel time
        self.factor = np.empty(0)       # (REFERENCE_S / smoothed kernel time) ** HOST_EXPONENT

    def sample(self, *_signal) -> None:
        kernel = reference_time()
        self.end.append(perf_counter())
        self.kernel.append(kernel)

    @contextlib.contextmanager
    def installed(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()   # so every call has a sample after it
            end = np.array(self.end)
            total = np.concatenate([[0.0], np.cumsum(self.kernel)])
            lo = np.searchsorted(end, end - SMOOTH_S, "left")
            hi = np.searchsorted(end, end + SMOOTH_S, "right")
            self.factor = (REFERENCE_S * (hi - lo) / (total[hi] - total[lo])) ** HOST_EXPONENT

    def rescale(self, start: float, stop: float) -> float:
        """Seconds of [start, stop] at the reference speed: each stretch up to
        a sample counts at the speed measured around that sample."""
        scaled, t = 0.0, start
        for i in range(bisect.bisect_right(self.end, start), len(self.end)):
            end, kernel, factor = self.end[i], self.kernel[i], self.factor[i]
            if end - kernel >= stop:
                return scaled + (stop - t) * factor
            scaled += max(0.0, end - kernel - t) * factor
            t = end
        raise ValueError("no host-speed sample after the call")


def invoke(cli_main, inv, out_dir: Path) -> tuple[int | str, float, float]:
    """One ``cli.main`` call with its console output captured; returns the
    exit code and the call's start and end on the ``perf_counter`` clock."""
    sink = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli_main(["--out", str(out_dir), *inv.argv])
    except SystemExit as exc:   # argparse rejecting the arguments
        rc = exc.code
    except Exception:  # noqa: BLE001 -- a crash is a failed invocation
        rc = "raised\n" + traceback.format_exc(limit=-3)
    return rc, start, perf_counter()


@dataclass
class Pass:
    """One pass over a workload's invocations."""

    kind: str                         # warm-up, measured or traced
    invocations: list                 # what the pass ran
    raw: list[float]                  # wall seconds of each cli.main call
    scaled: list[float]               # the same at the reference host speed
    failures: dict[int, list[str]]    # invocation index -> check messages
    closed_form_err: list[float]      # |concurrence - closed form| per call that has one
    speed: HostSpeed | None = None    # the host's speed during the pass


def run_pass(kind: str, cli_main, invocations, golden, work: Path, tracer=None) -> Pass:
    """Run every invocation once.  Garbage collection, the checks and the
    clean-up happen outside the timed calls."""
    import checks
    p = Pass(kind, invocations, [], [], {}, [])
    speed = HostSpeed()
    spans = []
    with speed.installed():
        for i, inv in enumerate(invocations):
            out_dir = Path(tempfile.mkdtemp(dir=work))
            if tracer is not None:
                tracer.current_invocation = i
            gc.collect()   # every call starts from the same collector state
            rc, start, stop = invoke(cli_main, inv, out_dir)
            spans.append((start, stop))
            try:
                errors, closed_form_err = checks.check_invocation(inv, rc, out_dir, golden)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                errors = [f"unreadable output: {type(exc).__name__}: {exc}"]
                closed_form_err = None
            shutil.rmtree(out_dir)
            if errors:
                p.failures[i] = errors
            if closed_form_err is not None:
                p.closed_form_err.append(closed_form_err)
    p.raw = [stop - start for start, stop in spans]
    p.scaled = [speed.rescale(start, stop) for start, stop in spans]
    p.speed = speed
    return p


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, measured inside each
    (setup_probe.py): (raw wall seconds, seconds at the reference speed)."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, check=True, timeout=120)
        elapsed, kernel = map(float, out.stdout.split())
        raw.append(elapsed)
        scaled.append(elapsed * (REFERENCE_S / kernel) ** HOST_EXPONENT)
    return raw, scaled


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def timings(passes: list[Pass], field: str) -> dict[str, float]:
    """run_s and the latency percentiles of the measured passes."""
    calls = [getattr(p, field) for p in passes]
    pooled = [t for c in calls for t in c]
    tail_s, tail_pct = tail(pooled)
    return {
        "run_s": statistics.median(sum(c) for c in calls),
        "invocation_p50_s": statistics.median(pooled),
        "invocation_tail_s": tail_s,
        "invocation_tail_percentile": tail_pct,
        "latency_samples": len(pooled),
    }


def measured_passes(workload: str, seconds: float) -> int:
    """Measured passes of a run: fixed per workload and ``--seconds``, never
    by the host's or the program's speed, so every run pools the same number
    of latency samples and reports the same tail percentile."""
    import workloads
    return max(1, round(workloads.PASSES_PER_10_S[workload] * seconds / 10))


# ------------------------------------------------------------------ record


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(seed: int) -> dict:
    import scipy
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads_set": BLAS_THREADS,
        "git_commit": _git_commit(),
        "machine": platform.machine(),
        "reference_s": REFERENCE_S,
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


# -------------------------------------------------------------------- main


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Measure one workload; ``tiny`` shrinks it for the self-test."""
    cli = _import_program()
    import checks
    import workloads
    invocations = workloads.generate(workload, seed, tiny=tiny)
    # the tiny set runs every kind of call once, so first-call costs (lazy
    # imports, allocator growth) fall outside the measured passes
    warm_up = workloads.generate(workload, seed, tiny=True)
    golden = checks.load_golden(RESULTS, [i.golden for i in invocations + warm_up
                                          if i.golden])
    RUNS.mkdir(exist_ok=True)
    stem = f"{workload}{'-tiny' if tiny else ''}-seed{seed}-trace{int(trace)}"
    timing: dict = {}
    with tempfile.TemporaryDirectory(dir=RUNS, prefix=f"{stem}-") as work:
        work = Path(work)

        def one_pass(kind, tracer=None, calls=invocations):
            return run_pass(kind, cli.main, calls, golden, work, tracer)

        if not trace:
            timing["setup_raw_s"], timing["setup_scaled_s"] = measure_setup(workload, seed)
        passes = [one_pass("warm-up", calls=warm_up)]
        for _ in range(measured_passes(workload, seconds)):
            passes.append(one_pass("measured"))
        measured = passes[1:]
        timing["measured_passes"] = len(measured)
        timing["scaled"] = timings(measured, "scaled")
        timing["raw"] = timings(measured, "raw")
        timing["measured_latencies_s"] = {"raw": [p.raw for p in measured],
                                          "scaled": [p.scaled for p in measured]}
        if trace:
            from spans import SpanStats, Tracer, layer_metrics
            tracer = Tracer()
            # The tracer's lists grow to millions of entries; frozen, they stay
            # out of the gc.collect() before each call, which would otherwise
            # walk them hundreds of times.
            gc.freeze()
            try:
                with tracer.installed():
                    passes.append(one_pass("traced", tracer))
            finally:
                gc.unfreeze()
            traced = passes[-1]
            timing["traced_pass_s"] = sum(traced.scaled)
            timing["traced_pass_raw_s"] = sum(traced.raw)
            arrays = tracer.arrays(traced.speed.rescale)
            layers = layer_metrics(SpanStats(tracer.names, arrays))
            layers["trace.overhead_s"] = (timing["traced_pass_s"] - timing["scaled"]["run_s"],
                                          "s")
            tracer.save(RUNS / f"{stem}-spans.npz", arrays)
    attempted = sum(len(p.raw) for p in passes)
    failures = [(p.kind, i, p.invocations[i].argv, errs)
                for p in passes for i, errs in sorted(p.failures.items())]
    # the program is deterministic, so every pass has the same errors
    closed_form = checks.closed_form_summary(passes[-1].closed_form_err)
    if trace:
        metrics = layers
        metrics["entanglement.concurrence.closed_form_max_err"] = (
            closed_form["max_abs_err"], "abs")
        metrics["entanglement.concurrence.closed_form_misses_1e-8"] = (
            closed_form["misses_1e-8"], "count")
    else:
        t = timing["scaled"]
        metrics = {
            "setup_s": (statistics.median(timing["setup_scaled_s"]), "s"),
            "run_s": (t["run_s"], "s"),
            "invocation_p50_s": (t["invocation_p50_s"], "s"),
            "invocation_tail_s": (t["invocation_tail_s"], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
    counts = {k: v for k, (v, unit) in metrics.items() if unit in ("count", "ratio")}
    record = {
        "workload": workload,
        "trace": int(trace),
        "environment": environment(seed),
        "deterministic": {
            "invocations_per_pass": len(invocations),
            "warm_up_invocations": len(warm_up),
            "golden_checked_per_pass": sum(1 for i in invocations if i.golden),
            "closed_form_checked_per_pass": sum(1 for i in invocations
                                                if i.closed_form is not None),
            "tolerances": checks.TOLERANCES,
            "closed_form": closed_form,
            "attempted": attempted,
            "failed": len(failures),
            "fail_ratio": len(failures) / attempted,
            "failures": [{"pass": kind, "invocation": i, "argv": argv, "errors": errs}
                         for kind, i, argv, errs in failures],
            "layer_counts": counts,
        },
        "timing": timing,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k not in counts},
        "path": str((RUNS / f"{stem}.json").relative_to(ROOT)),
    }
    if trace:
        record["spans_path"] = str((RUNS / f"{stem}-spans.npz").relative_to(ROOT))
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return {"record": record, "metrics": metrics}


def report(result: dict) -> None:
    rec = result["record"]
    det, timing, env = rec["deterministic"], rec["timing"], rec["environment"]
    print(f"workload {rec['workload']}  seed {env['seed']}  trace {rec['trace']}  "
          f"commit {env['git_commit'][:12]}  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}  nproc {env['nproc']}  "
          f"BLAS threads 1")
    print(f"  invocations/pass {det['invocations_per_pass']}  attempted "
          f"{det['attempted']}  failed {det['failed']}  "
          f"fail_ratio {det['fail_ratio']:.6g} ratio")
    for f in det["failures"][:20]:
        print(f"  FAIL {f['pass']} #{f['invocation']}: {'; '.join(f['errors'])}")
    print("  tolerances " + json.dumps(det["tolerances"]))
    cf = det["closed_form"]
    if cf["checked"]:
        print(f"  closed-form words {cf['checked']}/pass  max |diff| "
              f"{cf['max_abs_err']:.3e}  misses of the README's 1e-8: "
              f"{cf['misses_1e-8']}")
    scaled, raw = timing["scaled"], timing["raw"]
    setup_raw = (f"setup_s {statistics.median(timing['setup_raw_s']):.6g} s, "
                 if "setup_raw_s" in timing else "")
    print(f"  times at reference host speed ({REFERENCE_S:g} s kernel); raw wall: "
          f"{setup_raw}run_s {raw['run_s']:.6g} s, p50 {raw['invocation_p50_s']:.6g} s, "
          f"tail {raw['invocation_tail_s']:.6g} s")
    print(f"  tail = p{scaled['invocation_tail_percentile']:.4g} of "
          f"{scaled['latency_samples']} latency samples")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:44s} {_fmt(value):>14s} {unit}")
    print(f"  record: {rec['path']}")


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in its own interpreter."""
    import workloads
    summary, rc = {}, 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                rc = proc.returncode
                continue
            summary[f"{workload}/trace{trace}"] = json.loads(
                proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return rc


def main(argv=None) -> int:
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measuring time at the reference host speed; sets the "
                         "number of measured passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, int(args.seconds))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    report(result)
    det = result["record"]["deterministic"]
    print(json.dumps({
        "correct": det["failed"] == 0,
        "attempted": det["attempted"],
        "failed": det["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
