"""Command-line front end: reproduce every curve and verdict as CSV/JSON.

Three subcommands:

* ``discrete``   -- damping/dephasing channel pairs, sequence verdicts, orders
* ``continuous`` -- switched-generator concurrence profiles and thresholds
* ``experiment`` -- interferometer-bench sweeps, ideal or measured elements

The bench is described by a map name and an element preset only: the command
line is the one layer that names element sets by text, and ``--preset`` takes
its choices and its lookup from ``_ELEMENTS``, which maps ``ideal`` and
``measured`` to ``optics.IDEAL`` and ``optics.MEASURED``.  Each flag's
argparse type holds its range, so the parser refuses a value out of it; only
``--unitary`` and limits on computed values are refused later, with one
``invalid input:`` line.  Each subcommand computes all its outputs before
``main`` writes any, and writes the manifest, the run's one record, last: every
parsed argument but ``--out`` as resolved (defaults filled in), the outputs,
notes, counts and version, and no clock, so identical invocations write
byte-identical files.  A ``discrete`` run writes only its manifest,
``discrete_report.json``, with the verdicts added.  A run that exits 2 or 3
writes nothing, and each file is written whole or not at all: to a temporary
file in ``--out``, then renamed into place.  A write that fails (``--out``
names a file, the disk is full) exits 4 with one line naming the file, leaving
only the files written whole before it.  A manifest is one line of JSON, keys
sorted and no indent, so that CPython's C encoder writes it (an indent selects
its Python one).

Exit codes: 0 success, 2 validation error, 3 numerical failure, 4 failed write.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .channels import (
    ToleranceConflict,
    Unbounded,
    Undecided,
    _MAX_ORDER,
    _orders_and_margins,
    ad_channel,
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
    IDEAL,
    MAX_PLATE_ANGLE,
    MEASURED,
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
    is_unitary,
    sandwich_superop,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_WRITE = 4


_NUMERICAL = (ToleranceConflict, ZeroSuccessProbability)


class Run(NamedTuple):
    """What a subcommand computed; nothing of it is on disk yet."""

    outputs: dict[str, str]  # file name -> text, in writing order
    manifest_name: str       # written last
    record: dict = {}        # merged into the manifest: notes, counts, verdicts


# the flags of open(path, "w"); O_BINARY, where it exists, writes the bytes
# untranslated, as newline="" did
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def _write_file(out_dir: str, name: str, text: str) -> None:
    """Write ``text`` to a temporary file in ``out_dir`` and rename it to
    ``name``, so a write that fails midway leaves no partial file.  An
    ``OSError`` names the target file, not the temporary one."""
    tmp = os.path.join(out_dir, f".{name}.{os.getpid()}.tmp")
    try:
        fd = os.open(tmp, _WRITE_FLAGS, 0o666)
        try:
            data = memoryview(text.encode())
            while data:  # os.write may take fewer bytes than it is given
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, os.path.join(out_dir, name))
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        if isinstance(exc, OSError):  # spelled as pathlib does: no "./"
            exc.filename = str(Path(out_dir, name))
        raise


def _write(args, run: Run) -> None:
    """Make ``--out`` if it is missing, write every output, then the
    manifest: its parameters are the parsed ``args`` but ``--out`` as the
    subcommand resolved them, and ``run.record`` is merged in last."""
    out_dir = str(Path(args.out))  # "" is "."
    if not os.path.isdir(out_dir):
        os.makedirs(out_dir, exist_ok=True)
    for name, text in run.outputs.items():
        _write_file(out_dir, name, text)
    manifest = {
        "command": args.command, "outputs": list(run.outputs), "version": __version__,
        "parameters": {k: v for k, v in vars(args).items() if k not in ("command", "out")},
        "notes": [], "counts": {}, **run.record,
    }
    _write_file(out_dir, run.manifest_name,
                json.dumps(manifest, sort_keys=True) + "\n")


PROFILE_HEADER = ("x", "concurrence", "pre_clamp", "label")
SWEEP_HEADER = ("angle", "concurrence", "success_prob", "preset", "map_label")


def _csv_text(header, rows, *tags: str) -> str:
    """CSV text: each row a tuple of numbers, its cells to 12 significant
    digits, ``tags`` appended to every row, '\\n' line endings.  The tags
    are fixed labels, preset and map names, which need no quoting."""
    fmt = ",".join(["%.12g"] * (len(header) - len(tags))
                   + [tag.replace("%", "%%") for tag in tags])
    lines = [",".join(header), *(fmt % row for row in rows)]
    return "\n".join(lines) + "\n"


def _number_parts(entry) -> list:
    """A JSON matrix entry, a number or a ``[re, im]`` pair of numbers, as
    the arguments of ``complex``; anything else, a boolean or a string
    among them, is a ``TypeError``."""
    parts = entry if isinstance(entry, list) and len(entry) == 2 else [entry]
    if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in parts):
        raise TypeError(f"entry {json.dumps(entry)} is not a number "
                        f"or a [re, im] pair of numbers")
    return parts


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
        raise ValueError(f"--unitary {text!r} is neither a name "
                         f"(x, z, zx-diag) nor JSON: {exc}") from None
    try:
        m = np.array([[complex(*_number_parts(e)) for e in row] for row in rows])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"--unitary: cannot read a 2x2 matrix from {text!r}: "
                         f"{exc}") from None
    if m.shape != (2, 2):
        raise ValueError(f"--unitary must be 2x2, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"--unitary {text!r} has non-finite entries")
    if not is_unitary(m):
        raise NotUnitary(f"--unitary {text!r} is not unitary within tolerance")
    return m


# ---------------------------------------------------------------- discrete


def _channel_report(order: int | Unbounded | Undecided, margin: float) -> dict:
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
        "is_eb": order == 1,
        "margin": margin,
        "choi_concurrence": max(0.0, margin),
        "eb_order": order if isinstance(order, int) else str(order),
        "eb_bracket": bracket,
    }


def cmd_discrete(args) -> Run:
    u_mat, seq = _unitary_from_string(args.unitary), args.sequence
    if args.pd is not None:
        base = pd_channel(args.pd)
        base_label = f"pd({args.pd:g})"
    else:
        base = ad_channel(args.eta)
        base_label = f"ad({args.eta:g})"
    # the base and u_mat were checked where they entered, so P, Q and the word,
    # their products, are scored as formed; P meets u first, Q meets it last
    u = sandwich_superop(u_mat, u_mat)
    letters = {"P": base.superop @ u, "Q": u.conj().T @ base.superop}
    superops = [letters["P"], letters["Q"]]
    if seq:  # the product in signal order, as compose_signal_chain takes it
        word = letters[seq[0]]
        for ch in seq[1:]:
            word = letters[ch] @ word
        superops.append(word)
    # P, Q and the word are scored together, one stack of powers per round
    scored, choi_states, rounds = _orders_and_margins(np.stack(superops), args.max_order)
    report = {
        "base": base_label,
        "counts": {"choi_states_scored": choi_states, "scoring_rounds": rounds},
        "P": {"label": "P", **_channel_report(*scored[0])},
        "Q": {"label": "Q", **_channel_report(*scored[1])},
    }
    if seq:
        report["sequence"] = {"word": seq, **_channel_report(*scored[2])}
    for key in ("P", "Q", "sequence")[:len(scored)]:
        r = report[key]
        name = f"sequence {seq}" if key == "sequence" else key
        print(f"{name}: is_eb={r['is_eb']} "
              f"concurrence={r['choi_concurrence']:.12g} order={r['eb_order']}")
    return Run({}, "discrete_report.json", report)


# -------------------------------------------------------------- continuous


# Tolerance of every breaking-length search: a length is the root correctly
# rounded to a multiple of EB_XTOL, so printed to the decimals of EB_XTOL it
# shows the root's correct digits, and the switched lines are cut from the
# single length as printed.
EB_XTOL = 1e-4
_EB_DECIMALS = math.ceil(-math.log10(EB_XTOL))


def _line(source, args) -> tuple[list, float | Unbounded | Undecided, str]:
    """Profile and breaking length of one line, with the length as printed;
    the search runs to ``max(--x-max, 20)`` and places its first stack from
    the profile."""
    points = concurrence_profile(source, args.x_max, args.steps)
    threshold = eb_length(source, max(args.x_max, 20.0), EB_XTOL, points)
    if isinstance(threshold, float):
        return points, threshold, (f"eb_length {threshold:.{_EB_DECIMALS}f} "
                                   f"(xtol {EB_XTOL:g})")
    if isinstance(threshold, Undecided):
        return points, threshold, f"{threshold:.{_EB_DECIMALS}f}"
    return points, threshold, str(threshold)


_FAMILIES = {"ad": rotating_ad_liouvillian, "pd": rotating_pd_liouvillian}


def cmd_continuous(args) -> Run:
    g1, g2 = (_FAMILIES[args.family](k, args.omega, args.eps) for k in (1, 2))
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
    return Run(outputs, "continuous_manifest.json", {"notes": notes})


# -------------------------------------------------------------- experiment


# the one place element sets are named by text: --preset's choices and lookup
_ELEMENTS = {"ideal": IDEAL, "measured": MEASURED}

_SETUPS = {
    "mprime": lambda a: mprime_setup(a.eta1, a.eta2, theta=a.theta, phi=a.phi,
                                     elements=_ELEMENTS[a.preset], w=a.W,
                                     source_phase=a.source_phase),
    "m1": lambda a: m1_setup(a.eta2, theta=a.theta, elements=_ELEMENTS[a.preset],
                             w=a.W, source_phase=a.source_phase),
    "m2": lambda a: m2_setup(a.eta1, phi=a.phi, elements=_ELEMENTS[a.preset],
                             w=a.W, source_phase=a.source_phase),
    "identity": lambda a: identity_setup(elements=_ELEMENTS[a.preset], w=a.W,
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


def cmd_experiment(args) -> Run:
    args.vary = args.vary or _DEFAULT_VARY[args.map]
    lo, hi = args.range
    points = sweep(_SETUPS[args.map](args), args.vary, lo, hi, args.steps)
    for line in _summarize(points):
        print(line)
    stem = f"experiment_{args.map}_{args.preset}_{args.vary}"
    csv_text = _csv_text(SWEEP_HEADER, points, args.preset, args.map)
    return Run({f"{stem}.csv": csv_text}, f"{stem}_manifest.json")


# ------------------------------------------------------------------ parser


def _parse_sequence(text: str) -> str:
    seq = text.strip().upper()
    if not seq or any(ch not in "PQ" for ch in seq):
        raise argparse.ArgumentTypeError(f"must be a nonempty word over P/Q, got {text!r}")
    return seq


def _within(kind, lo, hi, must: str):
    """An argparse type: text read by ``kind``, refused unless within [lo, hi]
    (NaN never is); it takes ``kind``'s name for argparse's "invalid int value"."""
    def convert(text: str):
        value = kind(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must {must}, got {value}")
        return value
    convert.__name__ = kind.__name__
    return convert


_unit = _within(float, 0.0, 1.0, "lie in [0, 1]")
_finite = _within(float, -sys.float_info.max, sys.float_info.max, "be finite")
_nonnegative = _within(float, 0.0, sys.float_info.max, "be finite and nonnegative")
_positive = _within(float, math.ulp(0.0), sys.float_info.max, "be finite and positive")
# twice a plate angle is the argument of the plate's cosine and sine
_plate_angle = _within(float, -MAX_PLATE_ANGLE, MAX_PLATE_ANGLE,
                       f"be at most {MAX_PLATE_ANGLE:.6g} in magnitude, "
                       f"so that twice it is finite")
_max_order = _within(int, 1, _MAX_ORDER, "lie in [1, 2**52]")
_slices = _within(int, 1, math.inf, "be at least 1")
_steps = _within(int, 2, math.inf, "be at least 2")  # a grid has both ends


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="entweave",
        description="Qubit-channel cut-and-paste toolkit: discrete algebra, "
                    "switched generators, interferometer bench.")
    top.add_argument("--out", default=".", help="output directory")
    sub = top.add_subparsers(dest="command", required=True)

    d = sub.add_parser("discrete", help="channel pairs and sequence verdicts")
    d.add_argument("--eta", type=_unit, default=0.3,
                   help="damping parameter of the base channel")
    d.add_argument("--pd", type=_unit, default=None, metavar="P",
                   help="use the dephasing channel with this parameter instead")
    d.add_argument("--unitary", default="x",
                   help="x, z, zx-diag, or a JSON 2x2 matrix")
    d.add_argument("--sequence", type=_parse_sequence, default=None,
                   help="word over P/Q, leftmost applied first")
    d.add_argument("--max-order", type=_max_order, default=16)

    c = sub.add_parser("continuous", help="switched-generator profiles")
    c.add_argument("--family", choices=tuple(_FAMILIES), required=True)
    c.add_argument("--omega", type=_finite, default=1.5, help="rotation rate")
    c.add_argument("--eps", type=_nonnegative, default=1.0, help="dissipation rate")
    c.add_argument("--n", type=_slices, nargs="+", default=(1, 2, 4, 8, 16),
                   help="slice counts for the switched lines")
    c.add_argument("--x-max", type=_positive, default=6.0)
    c.add_argument("--steps", type=_steps, default=241)

    e = sub.add_parser("experiment", help="interferometer-bench sweeps")
    e.add_argument("--map", choices=tuple(_SETUPS), default="mprime")
    e.add_argument("--preset", choices=tuple(_ELEMENTS), default="ideal")
    e.add_argument("--vary", choices=("theta", "phi"), default=None)
    e.add_argument("--range", type=_plate_angle, nargs=2,
                   default=(-math.pi / 2, math.pi / 2),
                   help="swept interval in radians (default -pi/2 pi/2)")
    e.add_argument("--steps", type=_steps, default=361)
    e.add_argument("--W", type=_unit, default=0.96, help="Werner parameter")
    e.add_argument("--eta1", type=_unit, default=0.3)
    e.add_argument("--eta2", type=_unit, default=0.3)
    e.add_argument("--theta", type=_plate_angle, default=math.pi / 4, help="(default pi/4)")
    e.add_argument("--phi", type=_plate_angle, default=math.pi / 4, help="(default pi/4)")
    e.add_argument("--source-phase", type=_finite, default=math.pi, help="(default pi)")
    return top


# built once: parse_args leaves the parser untouched, and no default is
# mutable, so no call can see another's arguments
_PARSER = _build_parser()


def main(argv=None) -> int:
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
        _write(args, run)
    except OSError as exc:
        print(f"write failure: {exc.filename}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_WRITE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
