"""Command-line front end: reproduce every curve and verdict as CSV/JSON.

Three subcommands:

* ``discrete``   -- damping/dephasing channel pairs, sequence verdicts, orders
* ``continuous`` -- switched-generator concurrence profiles and thresholds
* ``experiment`` -- interferometer-bench sweeps, ideal or measured elements

The bench is described by a map name and an element preset only.  Each
subcommand computes all its outputs before ``main`` writes any; the manifest,
recording every parsed argument as resolved (defaults filled in), is written
last.  A run that exits 2 or 3 writes nothing, and each file is written whole
or not at all: to a temporary file in ``--out``, then renamed into place.  A
write that fails (``--out`` names a file, the disk is full) exits 4 with one
line naming the file, leaving only the files written whole before it.
Identical invocations produce byte-identical CSVs.

Exit codes: 0 success, 2 validation error, 3 numerical failure, 4 failed write.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import __version__
from .channels import (
    QuantumChannel,
    ToleranceConflict,
    Unbounded,
    Undecided,
    _MAX_ORDER,
    _orders_and_margins,
    ad_channel,
    compose_signal_chain,
    pd_channel,
)
from .continuous import (
    SwitchedLine,
    average_liouvillian,
    concurrence_profile,
    eb_length,
    rotating_ad_liouvillian,
    rotating_pd_liouvillian,
)
from .optics import (
    ZeroSuccessProbability,
    identity_setup,
    m1_setup,
    m2_setup,
    mprime_setup,
    sweep,
)
from .qmath import (
    SIGMA_X,
    SIGMA_Z,
    NotUnitary,
    OutOfRange,
    is_unitary,
    sandwich_superop,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_WRITE = 4


class ParseError(ValueError):
    """Malformed sequence string or unitary descriptor."""


_NUMERICAL = (ToleranceConflict, ZeroSuccessProbability)


class Run(NamedTuple):
    """What a subcommand computed; nothing of it is on disk yet."""

    outputs: dict[str, str]  # file name -> text, in writing order
    manifest_name: str       # written last
    notes: Sequence[str] = ()
    counts: dict[str, int] = {}  # work the core calls report, into the manifest


def _write_file(path: Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path`` and rename it into
    place, so a write that fails midway leaves no partial file.  An
    ``OSError`` names ``path``, not the temporary file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, newline="")
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            exc.filename = str(path)
        raise


def _write(args, run: Run, started: float) -> None:
    """Create ``--out``, write every output, then the manifest, whose
    parameters are the parsed ``args`` as the subcommand resolved them."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in run.outputs.items():
        _write_file(out_dir / name, text)
    parameters = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
    manifest = {
        "command": args.command, "parameters": {**parameters, "out": str(out_dir)},
        "outputs": list(run.outputs), "version": __version__,
        "wall_time_s": round(time.monotonic() - started, 3),
        "notes": list(run.notes), "counts": dict(run.counts),
    }
    _write_file(out_dir / run.manifest_name,
                json.dumps(manifest, sort_keys=True, indent=2) + "\n")


PROFILE_HEADER = ("x", "concurrence", "pre_clamp", "label")
SWEEP_HEADER = ("angle", "concurrence", "success_prob", "preset", "map_label")


def _csv_text(header, rows, *tags: str) -> str:
    """CSV text: numeric cells to 12 significant digits, ``tags`` appended to
    every row, '\\n' line endings.  The tags are fixed labels, preset and
    map names, which need no quoting."""
    fmt = ",".join(["%.12g"] * (len(header) - len(tags)) + ["%s"] * len(tags))
    lines = [",".join(header), *(fmt % (*row, *tags) for row in rows)]
    return "\n".join(lines) + "\n"


def _unitary_from_string(text: str) -> np.ndarray:
    named = {
        "x": SIGMA_X,
        "z": SIGMA_Z,
        "zx-diag": (SIGMA_Z - SIGMA_X) / math.sqrt(2.0),
    }
    if text in named:
        return named[text]
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"--unitary {text!r} is neither a name "
                         f"(x, z, zx-diag) nor JSON: {exc}") from None
    try:
        m = np.array([[complex(*e) if isinstance(e, (list, tuple)) else complex(e)
                       for e in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"--unitary: cannot read a 2x2 matrix from {text!r}: "
                         f"{exc}") from None
    if m.shape != (2, 2):
        raise ParseError(f"--unitary must be 2x2, got shape {m.shape}")
    if not is_unitary(m):
        raise NotUnitary(f"--unitary {text!r} is not unitary within tolerance")
    return m


def _parse_sequence(text: str) -> str:
    seq = text.strip().upper()
    if not seq or any(ch not in "PQ" for ch in seq):
        raise ParseError(f"--sequence {text!r} must be a nonempty word over P/Q")
    return seq


# ---------------------------------------------------------------- discrete


def _channel_report(label: str, order: int | Unbounded | Undecided, margin: float) -> dict:
    # the verdict of is_eb(c) is "order 1", so the first power is scored once;
    # the bracket holds the first power that does not certainly transmit and
    # the first that certainly breaks, null where none does up to --max-order
    if isinstance(order, int):
        bracket = [order, order]
    elif isinstance(order, Undecided):
        bracket = [order.first, order.last]
    else:
        bracket = [None, None]
    return {
        "label": label,
        "is_eb": order == 1,
        "margin": margin,
        "choi_concurrence": max(0.0, margin),
        "eb_order": order if isinstance(order, int) else str(order),
        "eb_bracket": bracket,
    }


def _in_unit_interval(flag: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise OutOfRange(f"{flag} must lie in [0, 1], got {value}")


def _validate_discrete(args) -> tuple[np.ndarray, str | None]:
    """Check every argument; return the parsed unitary and sequence."""
    _in_unit_interval("--eta", args.eta)
    if args.pd is not None:
        _in_unit_interval("--pd", args.pd)
    if not 1 <= args.max_order <= _MAX_ORDER:
        raise OutOfRange(f"--max-order must lie in [1, 2**52], got {args.max_order}")
    seq = _parse_sequence(args.sequence) if args.sequence is not None else None
    return _unitary_from_string(args.unitary), seq


def cmd_discrete(args) -> Run:
    u_mat, seq = _validate_discrete(args)
    if args.pd is not None:
        base = pd_channel(args.pd)
        base_label = f"pd({args.pd:g})"
    else:
        base = ad_channel(args.eta)
        base_label = f"ad({args.eta:g})"
    # the parser checked u_mat is unitary; P meets it first, Q meets it last
    u = sandwich_superop(u_mat, u_mat)
    phi = QuantumChannel(base.superop @ u)
    psi = QuantumChannel(u.conj().T @ base.superop)
    channels = [phi, psi]
    if seq:
        channels.append(compose_signal_chain([phi if ch == "P" else psi for ch in seq]))
    # P, Q and the word are scored together, one stack of powers per round
    scored, choi_states, rounds = _orders_and_margins(channels, args.max_order)
    report = {
        "base": base_label,
        "unitary": args.unitary,
        "P": _channel_report("P", *scored[0]),
        "Q": _channel_report("Q", *scored[1]),
    }
    if seq:
        report["sequence"] = {"word": seq,
                              **{k: v for k, v in _channel_report(seq, *scored[2]).items()
                                 if k != "label"}}
    for key in ("P", "Q", "sequence")[:len(scored)]:
        r = report[key]
        name = f"sequence {seq}" if key == "sequence" else key
        print(f"{name}: is_eb={r['is_eb']} "
              f"concurrence={r['choi_concurrence']:.12g} order={r['eb_order']}")
    report_text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return Run({"discrete_report.json": report_text}, "discrete_manifest.json",
               counts={"choi_states_scored": choi_states, "scoring_rounds": rounds})


# -------------------------------------------------------------- continuous


# Tolerance of every breaking-length search: a length is the root correctly
# rounded to a multiple of EB_XTOL, so printed to the decimals of EB_XTOL it
# shows the root's correct digits, and the switched lines are cut from the
# single length as printed.
EB_XTOL = 1e-4
_EB_DECIMALS = math.ceil(-math.log10(EB_XTOL))


def _validate_continuous(args) -> None:
    bad_n = [n for n in args.n if n < 1]
    if bad_n:
        raise OutOfRange(f"--n: slice counts must be at least 1, got {bad_n}")
    if not math.isfinite(args.omega):
        raise OutOfRange(f"--omega must be finite, got {args.omega}")
    if not (math.isfinite(args.eps) and args.eps >= 0.0):
        raise OutOfRange(f"--eps must be finite and nonnegative, got {args.eps}")
    if not (math.isfinite(args.x_max) and args.x_max > 0.0):
        raise OutOfRange(f"--x-max must be finite and positive, got {args.x_max}")
    if args.steps < 2:
        raise OutOfRange(f"--steps must be at least 2, got {args.steps}")


def _line(source, args) -> tuple[list, float | Unbounded | Undecided, str]:
    """Profile and breaking length of one line, with the length as printed;
    the search runs to ``max(--x-max, 20)``."""
    points = concurrence_profile(source, args.x_max, args.steps)
    threshold = eb_length(source, max(args.x_max, 20.0), EB_XTOL)
    if isinstance(threshold, float):
        return points, threshold, (f"eb_length {threshold:.{_EB_DECIMALS}f} "
                                   f"(xtol {EB_XTOL:g})")
    if isinstance(threshold, Undecided):
        return points, threshold, f"{threshold:.{_EB_DECIMALS}f}"
    return points, threshold, str(threshold)


def cmd_continuous(args) -> Run:
    _validate_continuous(args)
    if args.family == "ad":
        g1 = rotating_ad_liouvillian(1, args.omega, args.eps)
        g2 = rotating_ad_liouvillian(2, args.omega, args.eps)
    else:
        g1 = rotating_pd_liouvillian(1, args.omega, args.eps)
        g2 = rotating_pd_liouvillian(2, args.omega, args.eps)
    # built before any line is scored, so a mean that overflows is refused
    # before any work
    mean = average_liouvillian(g1, g2)
    lines = {"single": _line(g1, args)}
    single = lines["single"][1]
    if isinstance(single, float):
        for n in dict.fromkeys(args.n):  # each distinct count once, in order
            line = SwitchedLine(g1, g2, single / n)
            lines[f"n{n}"] = _line(line, args)
    lines["limit"] = _line(mean, args)

    outputs, notes = {}, []
    for label, (points, threshold, text) in lines.items():
        if label == "single" and not isinstance(threshold, float):
            notes.append("switched lines skipped: no finite "
                         "single-channel threshold to slice")
        outputs[f"continuous_{args.family}_{label}.csv"] = _csv_text(
            PROFILE_HEADER, points, label)
        print(f"{label}: {text}")
    return Run(outputs, "continuous_manifest.json", notes)


# -------------------------------------------------------------- experiment


_SETUPS = {
    "mprime": lambda a: mprime_setup(a.eta1, a.eta2, theta=a.theta, phi=a.phi,
                                     preset=a.preset, w=a.W,
                                     source_phase=a.source_phase),
    "m1": lambda a: m1_setup(a.eta2, theta=a.theta, preset=a.preset, w=a.W,
                             source_phase=a.source_phase),
    "m2": lambda a: m2_setup(a.eta1, phi=a.phi, preset=a.preset, w=a.W,
                             source_phase=a.source_phase),
    "identity": lambda a: identity_setup(preset=a.preset, w=a.W,
                                         source_phase=a.source_phase),
}

_DEFAULT_VARY = {"mprime": "theta", "m1": "theta", "m2": "phi",
                 "identity": "theta"}


def _summarize(points) -> list[str]:
    lines = []
    cs = [p.concurrence for p in points]
    for i in range(1, len(points) - 1):
        if cs[i] > cs[i - 1] and cs[i] >= cs[i + 1] and cs[i] > 1e-9:
            lines.append(f"peak at {points[i].angle:+.6f}: "
                         f"concurrence {cs[i]:.6g}")
    zero = sum(1 for c in cs if c <= 1e-9)
    lines.append(f"zero-concurrence points: {zero} of {len(points)}")
    return lines


def _validate_experiment(args) -> None:
    if args.steps < 2:
        raise OutOfRange(f"--steps must be at least 2, got {args.steps}")
    for flag, value in (("--W", args.W), ("--eta1", args.eta1),
                        ("--eta2", args.eta2)):
        _in_unit_interval(flag, value)
    for flag, value in (("--theta", args.theta), ("--phi", args.phi),
                        ("--source-phase", args.source_phase),
                        ("--range", args.range[0]), ("--range", args.range[1])):
        if not math.isfinite(value):
            raise OutOfRange(f"{flag} must be finite, got {value}")


def cmd_experiment(args) -> Run:
    args.vary = args.vary or _DEFAULT_VARY[args.map]
    _validate_experiment(args)
    lo, hi = args.range
    points = sweep(_SETUPS[args.map](args), args.vary, lo, hi, args.steps)
    for line in _summarize(points):
        print(line)
    stem = f"experiment_{args.map}_{args.preset}_{args.vary}"
    csv_text = _csv_text(SWEEP_HEADER, points, args.preset, args.map)
    return Run({f"{stem}.csv": csv_text}, f"{stem}_manifest.json")


# ------------------------------------------------------------------ parser


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="entweave",
        description="Qubit-channel cut-and-paste toolkit: discrete algebra, "
                    "switched generators, interferometer bench.")
    top.add_argument("--out", default=".", help="output directory")
    sub = top.add_subparsers(dest="command", required=True)

    d = sub.add_parser("discrete", help="channel pairs and sequence verdicts")
    d.add_argument("--eta", type=float, default=0.3,
                   help="damping parameter of the base channel")
    d.add_argument("--pd", type=float, default=None, metavar="P",
                   help="use the dephasing channel with this parameter instead")
    d.add_argument("--unitary", default="x",
                   help="x, z, zx-diag, or a JSON 2x2 matrix")
    d.add_argument("--sequence", default=None,
                   help="word over P/Q, leftmost applied first")
    d.add_argument("--max-order", type=int, default=16)

    c = sub.add_parser("continuous", help="switched-generator profiles")
    c.add_argument("--family", choices=("ad", "pd"), required=True)
    c.add_argument("--omega", type=float, default=1.5, help="rotation rate")
    c.add_argument("--eps", type=float, default=1.0, help="dissipation rate")
    c.add_argument("--n", type=int, nargs="+", default=(1, 2, 4, 8, 16),
                   help="slice counts for the switched lines")
    c.add_argument("--x-max", type=float, default=6.0)
    c.add_argument("--steps", type=int, default=241)

    e = sub.add_parser("experiment", help="interferometer-bench sweeps")
    e.add_argument("--map", choices=tuple(_SETUPS), default="mprime")
    e.add_argument("--preset", choices=("ideal", "measured"), default="ideal")
    e.add_argument("--vary", choices=("theta", "phi"), default=None)
    e.add_argument("--range", type=float, nargs=2,
                   default=(-math.pi / 2, math.pi / 2),
                   help="swept interval in radians (default -pi/2 pi/2)")
    e.add_argument("--steps", type=int, default=361)
    e.add_argument("--W", type=float, default=0.96, help="Werner parameter")
    e.add_argument("--eta1", type=float, default=0.3)
    e.add_argument("--eta2", type=float, default=0.3)
    e.add_argument("--theta", type=float, default=math.pi / 4, help="(default pi/4)")
    e.add_argument("--phi", type=float, default=math.pi / 4, help="(default pi/4)")
    e.add_argument("--source-phase", type=float, default=math.pi, help="(default pi)")
    return top


# built once: parse_args leaves the parser untouched, and no default is
# mutable, so no call can see another's arguments
_PARSER = _build_parser()


def main(argv=None) -> int:
    started = time.monotonic()
    args = _PARSER.parse_args(argv)
    handlers = {"discrete": cmd_discrete, "continuous": cmd_continuous,
                "experiment": cmd_experiment}
    try:
        run = handlers[args.command](args)
    except _NUMERICAL as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        _write(args, run, started)
    except OSError as exc:
        print(f"write failure: {exc.filename}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_WRITE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
