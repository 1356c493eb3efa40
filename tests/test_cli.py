"""End-to-end CLI runs: exit codes, artifacts, and byte determinism."""

import argparse
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import entweave
from entweave import cli
from entweave.channels import Unbounded, eb_order, unitary_channel
from entweave.cli import PROFILE_HEADER, main
from entweave.continuous import ProfilePoint
from entweave.qmath import SIGMA_Z, OutOfRange
from entweave.optics import BeamSplitterParams, DifElements, IDEAL, identity_setup
from dataclasses import replace


def run_cli(tmp_path, *args):
    return subprocess.run(
        [sys.executable, "-m", "entweave.cli", "--out", str(tmp_path), *args],
        capture_output=True, text=True)


def _exit_code(argv):
    """What ``main(argv)`` returns, or the code of the ``SystemExit`` it
    raises: the parser refuses a flag value by exiting, the subcommands by
    returning."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_discrete_report_and_manifest(tmp_path):
    # the report is the run's one file and its manifest
    r = run_cli(tmp_path, "discrete", "--eta", "0.3", "--unitary", "x",
                "--sequence", "QPQP")
    assert r.returncode == 0, r.stderr
    assert "sequence QPQP" in r.stdout
    assert [p.name for p in tmp_path.iterdir()] == ["discrete_report.json"]
    report = json.loads((tmp_path / "discrete_report.json").read_text())
    assert set(report) == {"P", "Q", "sequence", "base", "command", "parameters",
                           "outputs", "notes", "counts", "version"}
    assert report["P"]["eb_order"] == 2
    assert report["Q"]["eb_order"] == 2
    assert not report["sequence"]["is_eb"]
    assert math.isclose(report["sequence"]["choi_concurrence"], 0.09,
                        abs_tol=1e-9)
    assert report["base"] == "ad(0.3)" and report["command"] == "discrete"
    assert report["outputs"] == [] and report["notes"] == []
    assert report["parameters"]["sequence"] == "QPQP"
    # the word is ad(0.3^4): its Choi state's partial transpose has
    # lambda_min -0.0081^n / 2, inside the rounding band from n = 8 on
    assert "sequence QPQP: is_eb=False concurrence=0.09 " \
        "order=undecided from 8 (searched up to 16)" in r.stdout
    assert [report[k]["eb_bracket"] for k in ("P", "Q", "sequence")] == [
        [2, 2], [2, 2], [8, None]]
    # one round of powers 1-4, 8 and 16 (the default --max-order) of P, Q
    # and the word; the word then scores the 3 powers between 4 and 8 in a
    # second round
    assert report["counts"] == {"choi_states_scored": 21, "scoring_rounds": 2}


def test_manifest_records_every_parsed_argument(tmp_path):
    # the manifest's parameters are exactly the subcommand's parser
    # destinations, as resolved: the map's swept angle filled in.  --out is
    # not one: the manifest lies in it
    subparsers = next(a for a in cli._PARSER._actions
                      if isinstance(a, argparse._SubParsersAction))
    runs = {
        "discrete": (["--sequence", "QP"], "discrete_report.json"),
        "continuous": (["--family", "ad", "--n", "2", "--x-max", "1",
                        "--steps", "5"], "continuous_manifest.json"),
        "experiment": (["--map", "m2", "--steps", "5",
                        "--phi", "0.5", "--range", "-1.5", "1.5"],
                       "experiment_m2_ideal_phi_manifest.json"),
    }
    for command, (args, name) in runs.items():
        out = tmp_path / command
        assert main(["--out", str(out), command, *args]) == 0
        params = json.loads((out / name).read_text())["parameters"]
        dests = {a.dest for a in subparsers.choices[command]._actions}
        assert set(params) == dests - {"help"}
    assert params["vary"] == "phi"
    assert params["phi"] == 0.5
    assert params["range"] == [-1.5, 1.5]
    assert params["theta"] == math.pi / 4


def test_parser_defaults_are_immutable():
    # main reuses one parser, so a list default one call mutated would be
    # seen by the next
    from entweave.cli import _PARSER
    for argv in (["discrete"], ["continuous", "--family", "ad"], ["experiment"]):
        for value in vars(_PARSER.parse_args(argv)).values():
            assert isinstance(value, (type(None), bool, int, float, str, tuple))


def test_discrete_blocked_sequence_breaks(tmp_path):
    r = run_cli(tmp_path, "discrete", "--sequence", "QQPP")
    assert r.returncode == 0
    report = json.loads((tmp_path / "discrete_report.json").read_text())
    assert report["sequence"]["is_eb"]


def test_discrete_deep_orders(tmp_path, capsys):
    # P and Q are pd(0.999) up to a unitary, and the word pd(0.999^3): none
    # ever breaks, and the partial transpose's lambda_min, -q^n / 2, enters
    # the rounding band n eps / 2 at the first n with q^n < n eps.  One round
    # of powers 1-4 and the squares up to 64, then one square per round up to
    # --max-order (no power certainly breaks), beside at most 64 powers per
    # round inside the bracket of the first undecided power
    assert main(["--out", str(tmp_path), "discrete", "--pd", "0.999",
                 "--max-order", "1000000", "--sequence", "PQQ"]) == 0
    orders = [line.rsplit("order=", 1)[1] for line in capsys.readouterr().out.splitlines()]
    eps = np.finfo(float).eps
    firsts = [next(n for n in itertools.count(1) if q ** n < n * eps)
              for q in (0.999, 0.999 ** 3)]
    assert firsts == [25870, 8976]
    assert orders == [f"undecided from {n} (searched up to 1e+06)"
                      for n in (25870, 25870, 8976)]
    report = json.loads((tmp_path / "discrete_report.json").read_text())
    assert report["counts"] == {"choi_states_scored": 451, "scoring_rounds": 15}


def test_max_order_past_2_52_is_refused(tmp_path, capsys):
    # past 2**52 powers n eps >= 1, so the band n eps lambda_max reaches
    # lambda_max and no power could be decided: refused before any work
    out = tmp_path / "out"
    assert _exit_code(["--out", str(out), "discrete", "--eta", "1", "--unitary", "z",
                       "--max-order", "100000000000000000000"]) == 2
    assert "--max-order" in capsys.readouterr().err
    assert not out.exists()
    z = unitary_channel(SIGMA_Z)
    with pytest.raises(OutOfRange):
        eb_order(z, 2 ** 52 + 1)
    assert eb_order(z, 2 ** 52) == Unbounded(2.0 ** 52)


def test_unitary_json_matrix(tmp_path):
    mat = json.dumps([[0.0, 1.0], [1.0, 0.0]])
    r = run_cli(tmp_path, "discrete", "--unitary", mat)
    assert r.returncode == 0
    report = json.loads((tmp_path / "discrete_report.json").read_text())
    assert report["P"]["eb_order"] == 2


def test_validation_exit_codes(tmp_path):
    assert run_cli(tmp_path, "discrete", "--eta", "1.4").returncode == 2
    assert run_cli(tmp_path, "discrete", "--sequence", "QXP").returncode == 2
    assert run_cli(tmp_path, "discrete", "--unitary", "[[1,0]]").returncode == 2
    r = run_cli(tmp_path, "discrete", "--unitary", "[[1,0],[0,2]]")
    assert r.returncode == 2  # not unitary
    assert run_cli(tmp_path, "nonsense").returncode == 2  # argparse error


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    # no command-line input darkens the bench, so the identity map is
    # swapped for one whose output splitter passes no light
    dark = DifElements(BeamSplitterParams(0.0, 0.0), IDEAL.pbs)
    monkeypatch.setitem(cli._SETUPS, "identity",
                        lambda a: replace(identity_setup(), elements=dark))
    out = tmp_path / "out"
    rc = main(["--out", str(out), "experiment", "--map", "identity",
               "--steps", "3"])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_continuous_outputs(tmp_path):
    r = run_cli(tmp_path, "continuous", "--family", "pd", "--n", "2",
                "--x-max", "1.0", "--steps", "11")
    assert r.returncode == 0, r.stderr
    # criterion 4's independent reference; the printed length is within xtol
    line = next(s for s in r.stdout.splitlines() if s.startswith("single:"))
    printed = float(line.split()[2])
    assert math.isclose(printed, 0.8955968176, abs_tol=2e-4)
    assert "(xtol 0.0001)" in line
    for name in ("continuous_pd_single.csv", "continuous_pd_n2.csv",
                 "continuous_pd_limit.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "x,concurrence,pre_clamp,label"
        assert len(lines) == 12
    manifest = json.loads((tmp_path / "continuous_manifest.json").read_text())
    assert manifest["parameters"]["family"] == "pd"
    assert len(manifest["outputs"]) == 3


def test_repeated_slice_counts_are_scored_once(tmp_path, capsys, monkeypatch):
    # --n 2 2 4 builds and scores the n2 line once, then n4; the manifest
    # keeps --n as given
    from entweave.continuous import SwitchedLine
    lines = []

    def recording(*args):
        lines.append(SwitchedLine(*args))
        return lines[-1]

    monkeypatch.setattr(cli, "SwitchedLine", recording)
    rc = main(["--out", str(tmp_path), "continuous", "--family", "ad",
               "--n", "2", "2", "4", "--x-max", "1.0", "--steps", "5"])
    assert rc == 0, capsys.readouterr().err
    assert len(lines) == 2
    assert [line.slice_len * n for line, n in zip(lines, (2, 4))] == [
        lines[0].slice_len * 2] * 2
    out = capsys.readouterr().out.splitlines()
    assert [row.split(":")[0] for row in out] == ["single", "n2", "n4", "limit"]
    manifest = json.loads((tmp_path / "continuous_manifest.json").read_text())
    assert manifest["parameters"]["n"] == [2, 2, 4]
    assert manifest["outputs"] == [f"continuous_ad_{label}.csv"
                                   for label in ("single", "n2", "n4", "limit")]


@pytest.mark.parametrize("bad", [
    ("--n", "0"), ("--n", "2", "-1"), ("--omega", "inf"), ("--omega", "nan"),
    ("--eps", "nan"), ("--eps", "-0.5"), ("--eps", "inf"), ("--x-max", "0"),
    ("--x-max", "-1"), ("--x-max", "inf"), ("--steps", "1"),
])
def test_continuous_validation_writes_nothing(tmp_path, capsys, bad):
    out = tmp_path / "out"
    rc = _exit_code(["--out", str(out), "continuous", "--family", "pd", *bad])
    assert rc == 2
    assert bad[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", [
    ("discrete", "--eta", "1.4"), ("discrete", "--eta", "nan"),
    ("discrete", "--pd", "-0.1"), ("discrete", "--pd", "inf"),
    ("discrete", "--max-order", "0"), ("discrete", "--sequence", "QXP"),
    ("discrete", "--unitary", "nope"), ("discrete", "--unitary", "[[1,0]]"),
    ("discrete", "--unitary", "[[1,0],[0,2]]"), ("discrete", "--sequence", ""),
    ("experiment", "--steps", "0"), ("experiment", "--steps", "1"),
    ("experiment", "--W", "nan"), ("experiment", "--W", "1.2"),
    ("experiment", "--eta1", "-0.1"), ("experiment", "--eta2", "inf"),
    ("experiment", "--theta", "inf"), ("experiment", "--phi", "nan"),
    ("experiment", "--source-phase", "inf"),
    ("experiment", "--range", "0", "nan"), ("experiment", "--range", "inf", "1"),
])
def test_discrete_experiment_validation_writes_nothing(tmp_path, capsys, bad):
    out = tmp_path / "out"
    rc = _exit_code(["--out", str(out), *bad])
    assert rc == 2
    assert bad[1] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad, flag, got", [
    (("--range", "0", "1e308"), "--range", "1e+308"),
    (("--range", "1e308", "0"), "--range", "1e+308"),
    (("--theta", "1e308", "--vary", "phi"), "--theta", "1e+308"),
    (("--phi=-1e308",), "--phi", "-1e+308"),
])
def test_experiment_overflowing_plate_angle_is_refused(tmp_path, capsys,
                                                      monkeypatch, bad, flag,
                                                      got):
    # finite, but twice the angle, the argument of the plate's cos and sin,
    # overflows: refused by the parser naming the flag, before any plate is
    # formed
    from entweave import optics
    formed = []
    monkeypatch.setattr(optics, "hwp", lambda xi: formed.append(xi))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = _exit_code(["--out", str(out), "experiment", "--steps", "3", *bad])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: entweave experiment")
    assert err.splitlines()[-1] == (
        f"entweave experiment: error: argument {flag}: must be at most "
        f"8.98847e+307 in magnitude, so that twice it is finite, got {got}")
    assert not out.exists()
    assert formed == []


# each flag's last accepted value, and the next one out, on either side of
# its range; the largest plate angle is MAX_PLATE_ANGLE as Python prints it
# (8.98846567431158e307 rounds to 2**1023, the next double above it)
_EDGES_IN = [
    ("discrete", "--eta", "0"), ("discrete", "--eta", "1"),
    ("discrete", "--max-order", "4503599627370496"),
    ("continuous", "--eps", "-0.0"), ("continuous", "--steps", "2"),
    ("continuous", "--n", "1"),
    ("experiment", "--theta", "8.988465674311579e+307"),
    ("experiment", "--theta", "-8.988465674311579e+307"),
]
_EDGES_OUT = [
    ("discrete", "--eta", "1.0000000000000002"),
    ("discrete", "--max-order", "4503599627370497"),
    ("continuous", "--eps", "-5e-324"), ("continuous", "--x-max", "0"),
    ("continuous", "--steps", "1"), ("continuous", "--n", "0"),
    ("experiment", "--theta", "8.98846567431158e307"),
]
_REQUIRED = {"discrete": [], "continuous": ["--family", "ad"], "experiment": []}


@pytest.mark.parametrize("command, flag, text", _EDGES_IN)
def test_range_edges_parse_as_read(command, flag, text):
    # an accepted edge is the value float or int reads from the text, the
    # sign of -0.0 included
    args = cli._PARSER.parse_args([command, *_REQUIRED[command], f"{flag}={text}"])
    value = getattr(args, flag[2:].replace("-", "_"))
    value = value[0] if flag == "--n" else value
    expected = (int if flag in ("--max-order", "--steps", "--n") else float)(text)
    assert (type(value), repr(value)) == (type(expected), repr(expected))


@pytest.mark.parametrize("command, flag, text", _EDGES_OUT)
def test_range_edges_refused_by_the_parser(tmp_path, capsys, monkeypatch,
                                           command, flag, text):
    # the next value out exits 2 in the parser, naming the flag: no
    # subcommand runs and nothing is written
    ran = []
    for name in ("cmd_discrete", "cmd_continuous", "cmd_experiment"):
        monkeypatch.setattr(cli, name, lambda args, name=name: ran.append(name))
    out = tmp_path / "out"
    assert _exit_code(["--out", str(out), command, *_REQUIRED[command],
                       f"{flag}={text}"]) == 2
    assert f"error: argument {flag}: must " in capsys.readouterr().err
    assert ran == []
    assert not out.exists()


@pytest.mark.parametrize("flag, text, kind", [
    ("--steps", "abc", "int"), ("--eta", "x", "float")])
def test_unreadable_flag_values_keep_argparse_messages(capsys, flag, text, kind):
    command = "continuous" if flag == "--steps" else "discrete"
    assert _exit_code([command, *_REQUIRED[command], flag, text]) == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"error: argument {flag}: invalid {kind} value: '{text}'")


def test_sequence_is_recorded_as_read(tmp_path):
    # the report records the word the run scored, stripped and upper-cased
    assert main(["--out", str(tmp_path), "discrete", "--sequence", " qp "]) == 0
    report = json.loads((tmp_path / "discrete_report.json").read_text())
    assert report["parameters"]["sequence"] == "QP"
    assert report["sequence"]["word"] == "QP"


def test_continuous_refuses_inexact_slice_counts(tmp_path, capsys):
    # 1e20 slices per line would wrap the int64 slice index and print a
    # wrong, finite breaking length for the n-line
    out_dir = tmp_path / "out"
    rc = main(["--out", str(out_dir), "continuous", "--family", "ad",
               "--n", str(10 ** 20), "--steps", "5", "--x-max", "1"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert "slices" in err and "2**53" in err
    assert f"n{10 ** 20}:" not in out
    # the single line was computed before the refusal, but nothing is written
    assert not out_dir.exists()


@pytest.mark.parametrize("omega", ["1.5", "0.125"])
def test_continuous_overflowing_exponential_is_refused(tmp_path, capsys, omega):
    # at omega = 0.125 the AD generator is defective and its exponentials take
    # the Pade fallback; at 1.5 they come from the eigendecomposition
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["--out", str(out_dir), "continuous", "--family", "ad",
                   "--omega", omega, "--x-max", "1e300", "--steps", "3"])
    assert rc == 2
    assert "exponential at length 5e+299 is not finite" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("family", ["ad", "pd"])
def test_continuous_overflowing_generator_is_refused_first(tmp_path, capsys,
                                                           monkeypatch, family):
    # at eps = 1e308 the AD pair is finite but its sum, and so the mean
    # generator, overflows; the PD generators overflow themselves.  Either is
    # refused before any line is scored, with one line and no warning
    from entweave import continuous
    scored = []
    monkeypatch.setattr(continuous, "propagation_superop",
                        lambda *args: scored.append(args))
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["--out", str(out_dir), "continuous", "--family", family,
                   "--eps", "1e308", "--steps", "3", "--n", "2"])
    assert rc == 2
    assert capsys.readouterr().err == ("invalid input: generator has "
                                       "non-finite entries\n")
    assert not out_dir.exists()
    assert scored == []


def _mp_choi_pre_clamp(line, x: float) -> float:
    """Pre-clamp concurrence of a switched line's Choi state at ``x``, in
    mpmath at 50 digits: the same whole slices ``k`` and float tail as the
    package's propagator cuts ``x`` into, the slice exponentials and the
    pair's power by squaring in 50 digits, the Choi state divided by its
    trace, and Wootters' ``l``s from the eigenvalues of
    ``rho (sigma_y x sigma_y) rho^* (sigma_y x sigma_y)``."""
    import mpmath
    import numpy as np

    with mpmath.workdps(50):
        def mp(m):
            return mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row]
                                  for row in m])

        s = mpmath.mpf(line.slice_len)
        k = math.floor(x / line.slice_len)
        even = mpmath.expm(mp(line.gen_even.generator) * s)
        pair = mpmath.expm(mp(line.gen_odd.generator) * s) * even
        total, e = mpmath.eye(4), k // 2
        while e:
            if e & 1:
                total = pair * total
            pair, e = pair * pair, e >> 1
        gen = line.gen_even
        if k % 2:
            total, gen = even * total, line.gen_odd
        tail = mpmath.mpf(x - k * line.slice_len)
        total = mpmath.expm(mp(gen.generator) * tail) * total
        choi = mpmath.matrix(4, 4)
        for i, a, j, b in np.ndindex(2, 2, 2, 2):
            # superop[i + 2 j, a + 2 b] is Choi entry [(i, a), (j, b)]
            choi[2 * i + a, 2 * j + b] = total[i + 2 * j, a + 2 * b]
        tr = sum(choi[i, i] for i in range(4))
        rho = choi / tr
        yy = mp(np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]]))
        flipped = yy * rho.apply(mpmath.conj) * yy
        eigs = mpmath.eig(rho * flipped, left=False, right=False)
        ls = sorted((mpmath.sqrt(max(mpmath.re(w), 0)) for w in eigs), reverse=True)
        return float(ls[0] - ls[1] - ls[2] - ls[3])


def test_far_switched_line_is_scored(tmp_path, capsys, monkeypatch):
    # far along a switched line the propagated Choi matrix's trace drifts
    # (by about 2e-10 relative at x = 1e5 on the n = 16 AD line, past the
    # 1e-10 of the structural checks); the scorer divides the trace out, so
    # the run is scored, and its last n16 row agrees with a 50-digit
    # propagator of the same line
    from entweave.continuous import SwitchedLine
    lines = []

    def recording(*args):
        lines.append(SwitchedLine(*args))
        return lines[-1]

    monkeypatch.setattr(cli, "SwitchedLine", recording)
    out_dir = tmp_path / "out"
    rc = main(["--out", str(out_dir), "continuous", "--family", "ad",
               "--n", "16", "--x-max", "1e5", "--steps", "3"])
    assert rc == 0, capsys.readouterr().err
    rows = (out_dir / "continuous_ad_n16.csv").read_text().splitlines()
    x, _, pre, label = rows[-1].split(",")
    assert (float(x), label) == (1e5, "n16")
    (line,) = lines
    assert abs(float(pre) - _mp_choi_pre_clamp(line, 1e5)) <= 1e-12


def test_deep_unitary_powers_are_scored(tmp_path):
    # a dephasing of p = 1 is the identity, so P and Q are unitary and never
    # break; their powers up to 1e6 drift in trace by rounding, which the
    # scorer divides out instead of refusing the run as invalid input
    r = run_cli(tmp_path, "discrete", "--pd", "1", "--unitary",
                "[[0.6, 0.8], [-0.8, 0.6]]", "--max-order", "1000000")
    assert r.returncode == 0, r.stderr
    for key in ("P", "Q"):
        assert (f"{key}: is_eb=False concurrence=1 "
                f"order=unbounded (searched up to 1e+06)") in r.stdout
    # with a Haar unitary the word's Choi state at power 2**23 has an
    # eigenvalue of -1.038e-9, its own rounding (about n eps); a power of a
    # channel is scored as formed, not refused at the -TOL.psd floor
    haar = ("[[[-0.0879725591047269, -0.9617692147428922], "
            "[0.14882553570345786, 0.21239530677485413]], "
            "[[-0.22590764854072487, -0.12738343985073536], "
            "[-0.96576353421945, 0.00632372948122201]]]")
    r = run_cli(tmp_path, "discrete", "--eta", "1", "--unitary", haar,
                "--sequence", "PPP", "--max-order", "10000000")
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""
    for key in ("P", "Q", "sequence PPP"):
        assert (f"{key}: is_eb=False concurrence=1 "
                f"order=unbounded (searched up to 1e+07)") in r.stdout.splitlines()


def test_vanished_trace_is_refused(tmp_path, capsys):
    # at x = 5e19 the single PD line's propagator underflows: the Choi
    # matrix's trace is 0, so there is no state to normalize, and the run is
    # refused with one line naming the length, without a floating-point
    # warning and without writing anything
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["--out", str(out_dir), "continuous", "--family", "pd",
                   "--n", "2", "--x-max", "1e20", "--steps", "3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith(" at x = 5e+19\n")
    assert "state trace 0 has vanished" in err
    assert not out_dir.exists()


def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, capsys):
    # the second file's write stops halfway with an OSError, as on a full
    # disk: the run exits 4 with one line naming that file, the first file
    # stays whole, and nothing of the second, no temporary file and no
    # manifest is left
    args = ["continuous", "--family", "ad", "--n", "1", "--x-max", "1",
            "--steps", "5"]
    real_open, real_write = os.open, os.write
    opened = []

    def recording_open(path, *rest):
        opened.append(path)
        return real_open(path, *rest)

    def half_then_fail(fd, data):
        if len(opened) == 2:
            real_write(fd, data[:len(data) // 2])
            raise OSError(28, "No space left on device")
        return real_write(fd, data)

    monkeypatch.setattr(os, "open", recording_open)
    monkeypatch.setattr(os, "write", half_then_fail)
    out_dir = tmp_path / "out"
    assert main(["--out", str(out_dir), *args]) == 4
    monkeypatch.undo()
    second = out_dir / "continuous_ad_n1.csv"
    err = capsys.readouterr().err
    assert err == f"write failure: {second}: No space left on device\n"
    first = "continuous_ad_single.csv"
    assert [p.name for p in out_dir.iterdir()] == [first]
    assert main(["--out", str(tmp_path / "whole"), *args]) == 0
    assert (out_dir / first).read_bytes() == (tmp_path / "whole" / first).read_bytes()
    # --out names an existing file: the verdicts print, nothing is written
    # and the file is untouched
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    capsys.readouterr()
    assert main(["--out", str(taken), "discrete"]) == 4
    out, err = capsys.readouterr()
    assert out.startswith("P: is_eb=False")
    assert err == f"write failure: {taken}: File exists\n"
    assert taken.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "taken", "whole"]


def test_failed_rename_leaves_no_temporary_file(tmp_path, monkeypatch, capsys):
    # the report's rename into place fails: the run exits 4 naming the
    # target, and no file, temporary or whole, is left
    def refuse(src, dst):
        raise OSError(13, "Permission denied", src, None, dst)

    monkeypatch.setattr(os, "replace", refuse)
    out_dir = tmp_path / "out"
    assert main(["--out", str(out_dir), "discrete"]) == 4
    err = capsys.readouterr().err
    assert err == (f"write failure: {out_dir / 'discrete_report.json'}: "
                   f"Permission denied\n")
    assert list(out_dir.iterdir()) == []


def _outputs(out_dir):
    """Every file's bytes, by name."""
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


RUNS = (["discrete", "--sequence", "QP"],
        ["continuous", "--family", "ad", "--n", "2", "--x-max", "1", "--steps", "9"],
        ["experiment", "--map", "m2", "--steps", "9"])

# the files each of RUNS writes, the manifest last
WRITTEN = {"discrete": ["discrete_report.json"],
           "continuous": ["continuous_ad_single.csv", "continuous_ad_n2.csv",
                          "continuous_ad_limit.csv", "continuous_manifest.json"],
           "experiment": ["experiment_m2_ideal_phi.csv",
                          "experiment_m2_ideal_phi_manifest.json"]}


@pytest.mark.parametrize("argv", RUNS, ids=lambda argv: argv[0])
def test_short_writes_still_write_every_byte(tmp_path, monkeypatch, argv):
    # os.write may write fewer bytes than it is given; with at most three a
    # call every file still comes out whole
    real_write = os.write
    assert main(["--out", str(tmp_path / "whole"), *argv]) == 0
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:3]))
    assert main(["--out", str(tmp_path / "short"), *argv]) == 0
    monkeypatch.undo()
    whole = _outputs(tmp_path / "whole")
    assert sorted(whole) == sorted(WRITTEN[argv[0]])
    assert _outputs(tmp_path / "short") == whole


@pytest.mark.parametrize("out", [".", "", "sub/", "nested/deeper/out"])
def test_out_forms(tmp_path, monkeypatch, out):
    # the working directory, its empty name, a trailing slash and a nested
    # directory not yet made: each run writes there, and the manifest, which
    # lies in the directory, does not name it
    monkeypatch.chdir(tmp_path)
    assert main(["--out", out, "experiment", "--map", "m1", "--steps", "3"]) == 0
    written = Path(out)
    assert {p.name for p in written.iterdir()} >= {
        "experiment_m1_ideal_theta.csv", "experiment_m1_ideal_theta_manifest.json"}
    manifest = json.loads((written / "experiment_m1_ideal_theta_manifest.json").read_text())
    assert "out" not in manifest["parameters"]


_FLOATS = st.floats(allow_nan=True, allow_infinity=True, width=64)


@given(st.integers(0, 3).flatmap(lambda tags: st.tuples(
    st.lists(st.text(st.sampled_from("ab%sd.-_1"), max_size=5),
             min_size=tags, max_size=tags),
    st.lists(st.tuples(_FLOATS, _FLOATS, _FLOATS), max_size=4))))
@example((["%s", "100%"], [(0.1, -1e300, 5e-324)]))
def test_csv_text_matches_the_per_row_formula(tags_and_rows):
    # one format that holds the tags gives the text of one format applied to
    # each row with its tags appended
    tags, rows = tags_and_rows
    rows = [ProfilePoint(*row) for row in rows]
    header = (*PROFILE_HEADER[:3], *(f"t{i}" for i in range(len(tags))))
    fmt = ",".join(["%.12g"] * 3 + ["%s"] * len(tags))
    expected = "\n".join([",".join(header), *(fmt % (*row, *tags) for row in rows)]) + "\n"
    assert cli._csv_text(header, rows, *tags) == expected


def test_runs_import_no_scipy(tmp_path):
    # scipy and mpmath are the test suite's oracles only: a fresh process that
    # runs every subcommand, the Pade fallback included (omega = 0.125), never
    # loads them
    src = Path(entweave.__file__).resolve().parent.parent
    code = f"""
import sys
sys.path.insert(0, {str(src)!r})
from entweave.cli import main
out = {str(tmp_path)!r}
assert main(["--out", out + "/d", "discrete"]) == 0
assert main(["--out", out + "/c", "continuous", "--family", "ad", "--omega",
             "0.125", "--n", "2", "--x-max", "1", "--steps", "5"]) == 0
assert main(["--out", out + "/e", "experiment", "--steps", "5"]) == 0
print(sorted(m for m in sys.modules
             if m.partition(".")[0] in ("scipy", "mpmath")))
"""
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "[]"
    assert {p.name for p in tmp_path.iterdir()} == {"d", "c", "e"}


def test_continuous_undriven_skips_switched(tmp_path):
    r = run_cli(tmp_path, "continuous", "--family", "ad", "--omega", "0",
                "--n", "2", "--x-max", "1.0", "--steps", "5")
    assert r.returncode == 0
    assert "unbounded" in r.stdout
    assert not (tmp_path / "continuous_ad_n2.csv").exists()
    manifest = json.loads((tmp_path / "continuous_manifest.json").read_text())
    assert any("skipped" in note for note in manifest["notes"])


def test_continuous_byte_determinism(tmp_path):
    # two identical runs of each subcommand, in two processes, write the same
    # bytes in every file, manifests included: no file holds a clock
    for argv in RUNS:
        a, b = tmp_path / argv[0] / "a", tmp_path / argv[0] / "b"
        a.mkdir(parents=True), b.mkdir()
        for d in (a, b):
            assert run_cli(d, *argv).returncode == 0
        assert list(_outputs(a)) == sorted(WRITTEN[argv[0]])
        assert _outputs(a) == _outputs(b)


@pytest.mark.parametrize("argv", RUNS, ids=lambda argv: argv[0])
def test_json_outputs_are_one_line_from_the_c_encoder(tmp_path, argv):
    # manifests are json.dumps(obj, sort_keys=True) without an indent, which
    # CPython encodes in C: one line each
    assert main(["--out", str(tmp_path), *argv]) == 0
    written = sorted(p.name for p in tmp_path.glob("*.json"))
    assert written == [WRITTEN[argv[0]][-1]]
    for name in written:
        text = (tmp_path / name).read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
        assert text.count("\n") == 1


@pytest.mark.parametrize("unitary, reason", [
    ("[[Infinity,0],[0,1]]", "has non-finite entries"),
    ("[[1e400,0],[0,1]]", "has non-finite entries"),
    ("[[NaN,0],[0,1]]", "has non-finite entries"),
    ("[[1e200,0],[0,1]]", "is not unitary within tolerance"),
    ("[[true,false],[false,true]]", "entry true is not a number or a [re, im] pair of numbers"),
    ('[["1","0"],["0","1"]]', 'entry "1" is not a number or a [re, im] pair of numbers'),
    ("[[[1],0],[0,1]]", "entry [1] is not a number or a [re, im] pair of numbers"),
    ("[[1" + "0" * 400 + ",0],[0,1]]", "int too large to convert to float"),
], ids=["Infinity", "1e400", "NaN", "1e200", "booleans", "strings", "one-part", "huge-int"])
def test_discrete_unreadable_unitary_is_refused(tmp_path, capsys, unitary, reason):
    # refused naming --unitary, with no floating-point warning before it
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["--out", str(out), "discrete", "--unitary", unitary, "--sequence", "PQ"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: --unitary") and err.count("\n") == 1
    assert reason in err
    assert not out.exists()


def test_unitary_pairs_and_real_entries_are_read_alike(tmp_path, capsys):
    printed = []
    for unitary in ("[[0,1],[1,0]]", "[[[0,0],[1,0]],[[1,0],[0,0]]]"):
        assert main(["--out", str(tmp_path), "discrete", "--unitary", unitary]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


def test_experiment_sweep_csv(tmp_path):
    r = run_cli(tmp_path, "experiment", "--map", "m1", "--steps", "9")
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "experiment_m1_ideal_theta.csv").read_text().splitlines()
    assert lines[0] == "angle,concurrence,success_prob,preset,map_label"
    assert len(lines) == 10
    assert "zero-concurrence points" in r.stdout
    manifest = json.loads(
        (tmp_path / "experiment_m1_ideal_theta_manifest.json").read_text())
    assert manifest["parameters"]["vary"] == "theta"
    assert manifest["parameters"]["steps"] == 9


def test_experiment_m2_defaults_to_phi(tmp_path):
    r = run_cli(tmp_path, "experiment", "--map", "m2", "--steps", "5")
    assert r.returncode == 0
    assert (tmp_path / "experiment_m2_ideal_phi.csv").exists()


def test_experiment_rejects_monte_carlo_flags(tmp_path, capsys):
    # the phase average is exact, so there is no sampled mode to select; the
    # bench is named by --map and --preset only, so no setup document; and
    # every line is physical, so no dephasing sign to flip; angles are
    # radians only, and the order is read from the report, so neither a unit
    # switch nor a bare-order print
    out = tmp_path / "out"
    cases = (("experiment", "--omega-samples", "25"), ("experiment", "--seed", "3"),
             ("experiment", "--setup-json", "setup.json"),
             ("continuous", "--dephasing-sign", "growing"),
             ("experiment", "--degrees"), ("discrete", "--order-of", "P"))
    required = {"experiment": [], "continuous": ["--family", "pd"], "discrete": []}
    for command, flag, *value in cases:
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(out), command, *required[command], flag, *value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()
    for command in required:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out
        assert not [flag for c, flag, *_ in cases if c == command and flag in usage]


def test_discrete_validates_only_the_base_channel(tmp_path, monkeypatch):
    # the base is checked where it enters and the unitary by the parser;
    # P, Q and the word are products of the two, scored as formed
    from entweave.channels import (QuantumChannel, ad_channel, compose,
                                   is_eb, unitary_channel)
    from entweave.qmath import SIGMA_X, SIGMA_Z

    u = (SIGMA_Z - SIGMA_X) / math.sqrt(2.0)
    base = ad_channel(0.3)
    margins = [is_eb(compose(unitary_channel(u), base)).margin,
               is_eb(compose(base, unitary_channel(u.conj().T))).margin]
    calls = []
    true_post_init = QuantumChannel.__post_init__

    def counting(self):
        calls.append(self.superop.shape)
        true_post_init(self)

    monkeypatch.setattr(QuantumChannel, "__post_init__", counting)
    for extra in ((), ("--sequence", "QPQPPQ")):
        calls.clear()
        assert main(["--out", str(tmp_path), "discrete", "--eta", "0.3",
                     "--unitary", "zx-diag", *extra]) == 0
        assert len(calls) == 1
        report = json.loads((tmp_path / "discrete_report.json").read_text())
        assert [report[k]["margin"] for k in "PQ"] == margins


def test_discrete_scores_products_as_validated_channels_do(tmp_path):
    # P, Q and the word are formed as raw products and scored unchecked; the
    # reference builds each as a validated QuantumChannel through compose and
    # compose_signal_chain and asks eb_order and is_eb
    from conftest import haar_unitary
    from entweave.channels import (Undecided, ad_channel, compose, compose_signal_chain,
                                   is_eb, pd_channel)

    haar = haar_unitary(2, np.random.default_rng(44))
    haar_json = json.dumps([[[z.real, z.imag] for z in row.tolist()] for row in haar])
    seen = set()
    for (flag, value), unitary in itertools.product(
            (("--eta", "0.3"), ("--pd", "0.9")), ("x", "z", "zx-diag", haar_json)):
        base = (ad_channel if flag == "--eta" else pd_channel)(float(value))
        u_mat = cli._unitary_from_string(unitary)
        p = compose(unitary_channel(u_mat), base)
        q = compose(base, unitary_channel(u_mat.conj().T))
        for word in ("Q", "PQPQ", "QPQPPQ"):
            assert main(["--out", str(tmp_path), "discrete", flag, value, "--unitary", unitary,
                         "--sequence", word, "--max-order", "64"]) == 0
            report = json.loads((tmp_path / "discrete_report.json").read_text())
            chain = compose_signal_chain([p if ch == "P" else q for ch in word])
            for key, c in (("P", p), ("Q", q), ("sequence", chain)):
                order = eb_order(c, 64)
                seen.add(type(order))
                bracket = ([order, order] if isinstance(order, int) else
                           [order.first, order.last] if isinstance(order, Undecided)
                           else [None, None])
                r = report[key]
                assert r["eb_order"] == (order if isinstance(order, int) else str(order))
                assert r["eb_bracket"] == bracket
                assert r["margin"] == is_eb(c).margin
    assert seen == {int, Undecided, Unbounded}


def test_a_unitary_accepted_where_it_enters_is_not_refused_later(tmp_path):
    # is_unitary holds U^dag U to I entrywise within 1e-10, and a channel's
    # trace_preserving flag holds its Gram matrix to I within 1e-10; the two
    # are not nested, so Q of this accepted near-unitary misses the flag by
    # rounding.  The unitary is checked where it enters and its products are
    # scored as formed, so the run is scored, not refused as losing trace
    from entweave.channels import QuantumChannel, ad_channel
    from entweave.qmath import is_unitary, sandwich_superop

    text = json.dumps([[[-0.8310412590752871, -0.4006355834474667],
                        [-0.2310850457572566, 0.3089680513054866]],
                       [[-0.3441091334341125, -0.17450059981085517],
                        [0.5673000659007599, -0.7275363084647833]]])
    u_mat = cli._unitary_from_string(text)
    assert is_unitary(u_mat)
    u = sandwich_superop(u_mat, u_mat)
    assert not QuantumChannel(u.conj().T @ ad_channel(0.3).superop).trace_preserving
    assert main(["--out", str(tmp_path), "discrete", "--unitary", text,
                 "--sequence", "PQ"]) == 0
    report = json.loads((tmp_path / "discrete_report.json").read_text())
    assert [report[k]["eb_order"] for k in ("P", "Q")] == [5, 5]
