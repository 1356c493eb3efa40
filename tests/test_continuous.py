"""Switched-generator propagation: closed forms, frozen thresholds, Trotter."""

import importlib.util
import math
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entweave import cli, continuous, qmath
from entweave.channels import (
    NotCompletelyPositive,
    QuantumChannel,
    Unbounded,
    Undecided,
    ad_channel,
    pd_channel,
    superop_distance,
)
from entweave.continuous import (
    SwitchedLine,
    average_liouvillian,
    concurrence_profile,
    eb_length,
    propagation_superop,
    rotating_ad_liouvillian,
    rotating_pd_liouvillian,
    switched_line,
    trotter_gap,
)
from entweave.entanglement import concurrence
from entweave.qmath import (
    EIG_COND_BOUND,
    SIGMA_Z,
    OutOfRange,
    Spectral,
    projector,
)

from conftest import SINGLET, on_first_qubit, refusal


AD1 = rotating_ad_liouvillian(1, 1.5, 1.0)
AD2 = rotating_ad_liouvillian(2, 1.5, 1.0)
PD1 = rotating_pd_liouvillian(1, 1.5, 1.0)
PD2 = rotating_pd_liouvillian(2, 1.5, 1.0)

# PD1's drive with the dephasing part's sign flipped, as a raw generator
# matrix: trace and Hermiticity preserving but not of Lindblad form, so
# ``Liouvillian`` refuses it; its evolved probe would leave the state cone at
# once, its lowest eigenvalue -x
NON_CP = (rotating_pd_liouvillian(1, 1.5, 0.0).generator
          - (np.kron(SIGMA_Z, SIGMA_Z) - np.eye(4)))


def test_generators_preserve_trace():
    for g in (AD1, AD2, PD1, PD2):
        # column-stacking TP condition: vec(I)^dag L = 0
        tp = np.eye(2).flatten(order="F") @ g.generator
        assert np.max(np.abs(tp)) < 1e-12


def test_generators_match_their_kron_forms():
    # the generators are formed through sandwich_superop, the package's one
    # way to form a superoperator, and equal the kron forms they replaced
    # entry for entry (kron(h.T, I) is sandwich_superop(I, h^dag)), for
    # random drives and jump operators scaled from 1e-300 to 1e300
    rng = np.random.default_rng(37)
    eye = np.eye(2, dtype=complex)

    def kron_hamiltonian(h):
        return -1.0j * (np.kron(eye, h) - np.kron(h.T, eye))

    def kron_dissipator(jump):
        jj = jump.conj().T @ jump
        return np.kron(jump.conj(), jump) - 0.5 * (np.kron(eye, jj) + np.kron(jj.T, eye))

    for _ in range(500):
        h, jump = rng.normal(size=(2, 2, 2, 2)) @ [1.0, 1.0j]
        h, jump = h * 10.0 ** rng.uniform(-300, 300), jump * 10.0 ** rng.uniform(-150, 150)
        assert np.array_equal(continuous._hamiltonian_superop(h), kron_hamiltonian(h))
        assert np.array_equal(continuous._dissipator_superop(jump), kron_dissipator(jump))
    for omega, eps in ((1.5, 1.0), (0.0, 0.37), (-2.0, 1e-3)):
        drive = kron_hamiltonian(omega * qmath.SIGMA_X)
        ad = drive + eps * kron_dissipator(qmath.LOWERING)
        pd = drive + eps * (np.kron(SIGMA_Z, SIGMA_Z) - np.eye(4))
        assert np.array_equal(rotating_ad_liouvillian(1, omega, eps).generator, ad)
        assert np.array_equal(rotating_pd_liouvillian(1, omega, eps).generator, pd)


def test_drive_sign_flips_between_slots():
    drift = AD1.generator + AD2.generator
    undriven = rotating_ad_liouvillian(1, 0.0, 1.0).generator
    assert np.allclose(drift / 2.0, undriven)


def test_undriven_closed_forms():
    # no drive: the semigroup is exactly the discrete family at eta = e^{-eps x}
    g = rotating_ad_liouvillian(1, 0.0, 1.0)
    for x in (0.0, 0.3, 1.7):
        d = superop_distance(QuantumChannel(propagation_superop(g, x)),
                             ad_channel(math.exp(-x)))
        assert d < 1e-12
    h = rotating_pd_liouvillian(1, 0.0, 1.0)
    for x in (0.0, 0.5, 2.2):
        d = superop_distance(QuantumChannel(propagation_superop(h, x)),
                             pd_channel(math.exp(-2.0 * x)))
        assert d < 1e-12


def test_undriven_profiles_match_family_concurrence():
    pts = concurrence_profile(rotating_ad_liouvillian(1, 0.0, 1.0), 4.0, 17)
    for p in pts:
        assert math.isclose(p.concurrence, math.exp(-p.x / 2.0), abs_tol=1e-7)
    pts = concurrence_profile(rotating_pd_liouvillian(1, 0.0, 1.0), 2.0, 9)
    for p in pts:
        assert math.isclose(p.concurrence, math.exp(-2.0 * p.x), abs_tol=1e-7)


def _lowest_scaled_eigenvalue(generator) -> tuple[float, float]:
    """Reference for the Lindblad-form test: the lowest eigenvalue of the
    generator's Choi matrix, scaled to unit largest real or imaginary part
    (the largest entry, for every generator here), on the complement
    of (|00> + |11>)/sqrt(2), from the projector onto it (the projected
    matrix has one more eigenvalue, 0, on the state itself, which is dropped
    by its eigenvector); and the scale."""
    choi = qmath.choi_matrices(np.asarray(generator))
    parts = np.stack((choi.real, choi.imag))
    scale = np.abs(parts).max() or 1.0
    parts /= scale
    omega = qmath.maximally_entangled()
    off = np.eye(4) - np.outer(omega, omega.conj())
    w, v = np.linalg.eigh(off @ (parts[0] + 1j * parts[1]) @ off)
    return float(w[np.abs(v.conj().T @ omega) < 0.5].min()), float(scale)


def test_non_lindblad_generator_is_refused_before_it_is_factored(monkeypatch):
    # NON_CP's evolved probe leaves the state cone at once: its lowest
    # eigenvalue is about -x, below -TOL.psd from x = 1e-9 on.  The generator
    # is refused where it enters, before it is factored, so no profile or
    # search ever scores such a state
    singlet = projector(SINGLET)
    for x in (2e-9, 1e-6):
        out = on_first_qubit(scipy.linalg.expm(NON_CP * x), singlet)
        assert math.isclose(np.linalg.eigvalsh(out)[0], -x, rel_tol=1e-5)
    assert _lowest_scaled_eigenvalue(NON_CP) == pytest.approx((-1.0, 2.0), abs=1e-15)
    factored = _count_calls(monkeypatch, continuous, "Spectral")
    with pytest.raises(NotCompletelyPositive,
                       match="^generator is not of Lindblad form: its scaled Choi "
                             "matrix has eigenvalue -1.000e\\+00 off the maximally "
                             "entangled state$"):
        continuous.Liouvillian(NON_CP)
    assert factored == []


@pytest.mark.parametrize("family", ["ad", "pd"])
@pytest.mark.parametrize("scale", [1e-318, 1e-300, 1e-9, 1.0, 1e9, 1e300])
def test_negative_rates_are_refused_at_any_scale(monkeypatch, family, scale):
    # a negative damping or dephasing rate beside the drive, the whole
    # generator scaled from a subnormal 1e-318 to 1e300: the scaled Choi
    # matrix, and so the verdict, does not depend on the scale.  Refused
    # before it is factored, without a floating-point warning
    dissipator = (continuous._dissipator_superop(qmath.LOWERING) if family == "ad"
                  else np.kron(SIGMA_Z, SIGMA_Z) - np.eye(4))
    drive = continuous._hamiltonian_superop(1.5 * qmath.SIGMA_X)
    factored = _count_calls(monkeypatch, continuous, "Spectral")
    for rate in (-1.0, -1e-3):
        gen = scale * (drive + rate * dissipator)
        assert _lowest_scaled_eigenvalue(gen)[0] < -1e-4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotCompletelyPositive, match="not of Lindblad form"):
                continuous.Liouvillian(gen)
    assert factored == []


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((rotating_ad_liouvillian, rotating_pd_liouvillian)),
       st.floats(-1e300, 1e300), st.floats(0.0, 1e308))
@example(rotating_ad_liouvillian, 1e300, 1e308)
@example(rotating_pd_liouvillian, -1e300, 0.0)
@example(rotating_pd_liouvillian, 1.5, 1e-300)
# subnormal rates: rounding eps / 2 and the mean's halving moves the scaled
# eigenvalue by -1.5e-7 and -3.5e-6, about half a subnormal over the scale
@example(rotating_ad_liouvillian, 2.2312404543645706e-242, 1.608299e-317)
@example(rotating_ad_liouvillian, -1.7811210306330523e-158, 7.10175e-319)
def test_every_generator_the_cli_builds_is_of_lindblad_form(family, omega, eps):
    # both members of a pair and their mean, at any finite drive up to 1e300
    # and any rate up to 1e308: each is built, or refused only for an entry
    # that overflows, never as not of Lindblad form, and without a warning.
    # The scaled eigenvalue is at rounding level: eps relative, or the
    # smallest subnormal absolute once the entries are subnormal (over 10,000
    # random pairs, at least -3.3e-16, or one smallest subnormal)
    built = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for make in (lambda: family(1, omega, eps), lambda: family(2, omega, eps),
                     lambda: average_liouvillian(*built)):
            try:
                built.append(make())
            except ValueError as exc:
                assert str(exc) == "generator has non-finite entries"
                break
    for gen in built:
        low, scale = _lowest_scaled_eigenvalue(gen.generator)
        assert low >= -max(1e-15, 2.0 * np.finfo(float).smallest_subnormal / scale)


def test_single_channel_thresholds_frozen():
    # frozen from a bisection at xtol 1e-4 on the rotating lines, Omega=1.5,
    # eps=1; any search within its xtol / 2 agrees to 2e-4
    assert math.isclose(eb_length(AD1, 6.0), 1.7739453125, abs_tol=2e-4)
    assert math.isclose(eb_length(PD1, 6.0), 0.8955859375, abs_tol=2e-4)


def _cell(x: float, xtol: float = 1e-4) -> float:
    """``x`` rounded to a multiple of ``xtol``, in eb_length's arithmetic."""
    return float(math.floor(x / xtol + 0.5) * xtol)


def _undriven_edge(line, rate: float) -> float:
    """Where lambda_min(rho^Gamma) = -e^(-rate x)/2 of an undriven line meets
    the band 16 c eps lambda_max of a Liouvillian (lambda_max = 1/2, c its
    exponential's cond(V)): e^(-rate x) = 16 c 2**-52."""
    return (52.0 * math.log(2.0) - math.log(continuous._LINE_BAND * line.spectral.cond)) / rate


def test_pure_lines_never_break():
    # the undriven lines never break, but their Choi states approach the
    # separable boundary: lambda_min(rho^Gamma) is -e^(-x)/2 on the AD line
    # and -e^(-2x)/2 on the PD line, and the float value matches it to the
    # last digit out to x = 50.  Both are undecided from where it meets the
    # band, and unbounded before that.  The PD generator is normal, c = 1;
    # the AD one has cond(V) = 1 + sqrt(2)
    assert continuous._LINE_BAND == 16.0
    xs = np.linspace(0.0, 50.0, 101)
    for make, rate, cond, edge in ((rotating_ad_liouvillian, 1.0, 1.0 + math.sqrt(2.0), 32.3897),
                                   (rotating_pd_liouvillian, 2.0, 1.0, 16.6355)):
        line = make(1, 0.0, 1.0)
        assert line.spectral.cond == pytest.approx(cond, rel=1e-14)
        low = [p.low for p in continuous._verdicts(line, xs)]
        np.testing.assert_allclose(low, -np.exp(-rate * xs) / 2.0, rtol=4e-16, atol=0.0)
        assert _cell(_undriven_edge(line, rate)) == pytest.approx(edge, abs=1e-12)
        assert eb_length(line, 50.0) == Undecided(_cell(_undriven_edge(line, rate)), None, 50.0)
        assert eb_length(line, edge - 1e-3) == Unbounded(edge - 1e-3)


def test_a_root_just_below_the_bound_is_found():
    # the concurrence floor of 1e-9 called this line unbounded: its
    # pre-clamp value at r + 1e-9 is -3.6e-10, while lambda_min(rho^Gamma)
    # there is 1.7e-10, some 1900 bands above zero
    r = 1.7739296349313415
    assert eb_length(AD1, r + 1e-9) == 1.7739
    assert eb_length(AD1, r + 1e-10) == 1.7739


def test_no_length_is_placed_in_the_first_cell():
    # cell 0 = [0, xtol/2] rounds to 0, the identity map's length: a bracket
    # inside it places its midpoint; one that reaches past xtol/2 is never
    # rounded down to 0, not even at the ulp stop
    assert continuous._rounded(0.0, 4e-5, 1e-4) == 2e-5
    assert continuous._rounded(1e-5, 2e-5, 1e-4) == 0.5 * (1e-5 + 2e-5)
    assert continuous._rounded(4e-5, 6e-5, 1e-4) is None
    assert continuous._rounded(5e-5 - 1e-20, 5e-5 + 1e-20, 1e-4) == 1e-4
    assert continuous._rounded(0.7e-4, 1.4e-4, 1e-4) == 1e-4


def test_a_root_inside_the_first_cell_is_a_positive_length(tmp_path, capsys):
    # rates 1e5 times AD1's move its root to r / 1e5, below xtol/2: the
    # search answers a length within xtol / 4 of it, never 0, and the
    # command line slices its n-lines from that length
    r = 1.7739296349313415
    got = eb_length(rotating_ad_liouvillian(1, 1.5e5, 1e5), 20.0)
    assert isinstance(got, float) and 0.0 < got
    assert abs(got - r / 1e5) <= 1e-4 / 4
    assert cli.main(["--out", str(tmp_path), "continuous", "--family", "ad",
                     "--omega", "1.5e5", "--eps", "1e5", "--n", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["single: eb_length 0.0000 (xtol 0.0001)",
                       "n2: eb_length 0.0000 (xtol 0.0001)"]


def test_underflowing_limit_line_never_prints_a_length(tmp_path, capsys):
    # at eps = 40 the PD limit line's lambda_min, -e^(-80 x)/2, underflows to
    # 0 near x = 9.3, where a search on its sign alone placed a root (9.3004);
    # against the band it is undecided from (52 ln2 - ln 16) / 80
    assert cli.main(["--out", str(tmp_path), "continuous", "--family", "pd",
                     "--eps", "40", "--n", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    edge = _undriven_edge(rotating_pd_liouvillian(1, 0.0, 40.0), 80.0)
    assert out[-1] == f"limit: undecided from {edge:.4f} (searched up to 20)"
    assert out[-1] == "limit: undecided from 0.4159 (searched up to 20)"


def test_eb_length_takes_no_concurrence(monkeypatch):
    # lengths are judged by the partial-transpose verdict alone
    scores = _count_calls(monkeypatch, continuous, "_scores")
    for source in (AD1, SwitchedLine(AD1, AD2, 0.4), average_liouvillian(PD1, PD2)):
        eb_length(source, 20.0)
    assert scores == []


def test_switched_thresholds_frozen():
    # slices carved from the printed single-channel length 1.75
    expect = {1: 1.7750390625, 2: 3.2333984375, 4: 5.6933984375,
              8: 8.7327734375}
    for n, val in expect.items():
        line = SwitchedLine(AD1, AD2, 1.75 / n)
        assert math.isclose(eb_length(line, 12.0), val, abs_tol=2e-4)
    vals = [expect[n] for n in (1, 2, 4, 8)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    pd4 = SwitchedLine(PD1, PD2, 0.85 / 4)
    assert math.isclose(eb_length(pd4, 8.0), 1.537578125, abs_tol=2e-4)


def _scan_eb_length(source, x_hi: float, xtol: float = 1e-4,
                    spacing: float = 0.02):
    """Reference search: scan a grid of the given spacing for the first
    pre-clamp concurrence below -1e-9, then bisect the bracket from the
    last positive value before it down to xtol."""
    floor = 1e-9  # below which a pre-clamp value counts as past the root
    singlet = projector(SINGLET)

    def f(x):
        out = on_first_qubit(propagation_superop(source, x), singlet)
        return concurrence(0.5 * (out + out.conj().T)).pre_clamp

    xs = np.linspace(0.0, x_hi, int(np.ceil(x_hi / spacing)) + 1)
    lo = 0.0
    for hi in xs[1:]:
        value = f(hi)
        if value < -floor:
            break
        # a slowly falling curve can sit in [-floor, 0] for a grid step or
        # more past its root, which then lies before this point
        if value > 0.0:
            lo = hi
    else:
        return Unbounded(x_hi)
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def _verdict_edges(line, x_hi: float, spacing: float = 0.25,
                   xtol: float = 1e-10) -> list:
    """Reference edges of an undecided line: for each of "does not certainly
    transmit" and "certainly breaks", scan ``_verdicts`` one length at a time
    on a grid of the given spacing for the first length that reads it, then
    bisect down to xtol; None when x_hi does not read it."""
    def reads(x, past):
        return continuous._verdicts(line, np.array([x]))[0].verdict >= past

    xs = np.linspace(0.0, x_hi, int(np.ceil(x_hi / spacing)) + 1)
    edges = []
    for past in (0, 1):
        hi = next((x for x in xs if reads(x, past)), None)
        if hi is None:
            edges.append(None)
            continue
        lo = xs[np.searchsorted(xs, hi) - 1]
        while hi - lo > xtol:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if reads(mid, past) else (mid, hi)
        edges.append(0.5 * (lo + hi))
    return edges


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(("ad", "pd")), st.floats(0.0, 3.0), st.floats(0.2, 2.0),
       st.sampled_from((1, 2, 4, 8, 16)))
def test_physical_lines_break_once(family, omega, eps, n):
    # eb_length decides from the verdict at x_hi alone and brackets on its
    # first grid sign change; that rests on CP-divisibility, under which the
    # concurrence never rises along a physical line
    gen = rotating_ad_liouvillian if family == "ad" else rotating_pd_liouvillian
    line = switched_line(gen(1, omega, eps), gen(2, omega, eps), 1.0, n)
    x_hi = 3.0
    pts = concurrence_profile(line, x_hi, 61)
    assert max(b.concurrence - a.concurrence
               for a, b in zip(pts, pts[1:])) <= 2e-8
    # the xtol contract against a reference search a million times finer,
    # and the cost: one stacked evaluation for a line that never breaks, at
    # most seven for one that does: the grid across [0, 3], a second grid,
    # then at worst a missed window and a grid, twice (bisection to 1e-4
    # took 17)
    ref = _scan_eb_length(line, x_hi, xtol=1e-10)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_calls(mp, continuous, "propagation_superop")
        got = eb_length(line, x_hi)
    if isinstance(ref, Unbounded):
        assert got == ref and len(calls) == 1
    else:
        assert isinstance(got, float)
        assert abs(got - ref) <= 1e-4 / 2
        assert len(calls) <= 7


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(("ad", "pd")), st.floats(0.0, 3.0), st.floats(0.2, 2.0),
       st.sampled_from((1, 2, 4, 8, 16)), st.sampled_from((1e-4, 1e-7, 1e-10, 1e-15)),
       st.sampled_from(("ad", "pd")), st.floats(0.0, 3.0), st.floats(0.2, 2.0))
@example("ad", 1.5, 1.0, 4, 1e-4, "pd", 1.5, 1.0)
def test_a_profile_never_changes_the_answer(family, omega, eps, n, xtol, other,
                                            other_omega, other_eps):
    # the profile only places lengths: with the line's own profile, another
    # line's, or a malformed one, eb_length answers exactly as without one,
    # Unbounded and Undecided included
    def line(family, omega, eps):
        gen = rotating_ad_liouvillian if family == "ad" else rotating_pd_liouvillian
        return switched_line(gen(1, omega, eps), gen(2, omega, eps), 1.0, n)

    source, x_hi = line(family, omega, eps), 3.0
    own = concurrence_profile(source, 2.5, 61)
    j = next((i for i, p in enumerate(own) if p.pre_clamp <= 0.0), len(own) - 1)
    profiles = [
        own,
        concurrence_profile(line(other, other_omega, other_eps), 2.5, 61),
        own[::-1],
        [p._replace(pre_clamp=math.nan) if i == j - 1 else p for i, p in enumerate(own)],
        concurrence_profile(source, 2.0 * x_hi, 61),
        [p._replace(x=p.x + 0.3) for p in own],
        own[j:j + 1],
        [],
    ]
    want = eb_length(source, x_hi, xtol)
    for profile in profiles:
        assert eb_length(source, x_hi, xtol, profile) == want


def test_searches_take_at_most_six_evaluations(monkeypatch):
    # the regenerator's lines at x_hi = 20, where bisection to 1e-4 took 20
    # evaluations a search: a grid across [0, x_hi] with both ends, a second
    # grid and a window, and a grid and a window more when the first window
    # misses.  The AD limit line, which never breaks, costs the first stack;
    # the PD one is undecided from (52 ln2 - ln 16) / 2, found in three
    calls = _count_calls(monkeypatch, continuous, "propagation_superop")
    for g1, g2, costs, limit in (
            (AD1, AD2, [3, 3, 3, 5, 5, 4, 1], Unbounded(20.0)),
            (PD1, PD2, [3, 3, 3, 5, 5, 5, 3], Undecided(16.6355, None, 20.0))):
        calls.clear()
        single = eb_length(g1, 20.0)
        counts = [len(calls)]
        for n in (1, 2, 4, 8, 16):
            calls.clear()
            assert isinstance(eb_length(SwitchedLine(g1, g2, single / n), 20.0), float)
            counts.append(len(calls))
        calls.clear()
        assert eb_length(average_liouvillian(g1, g2), 20.0) == limit
        assert counts + [len(calls)] == costs
        assert max(costs) <= 6


def test_tiny_xtol_search_stops_at_float_resolution(monkeypatch):
    # bisection to xtol 1e-300 never ended: its bracket stalled at two
    # adjacent floats; the search now stops a few ulps from each edge.  No
    # cell is that fine, and the lengths within the band's reach of the
    # 40-digit root, about 1e-14 either side, are undecided
    root = 1.7739296349313415
    calls = _count_calls(monkeypatch, continuous, "propagation_superop", cap=64)
    got = eb_length(AD1, 6.0, xtol=1e-300)
    assert isinstance(got, Undecided) and got.searched_up_to == 6.0
    assert got.first < root < got.last and got.last - got.first < 4e-14
    assert len(calls) <= 64


def _line_costs(monkeypatch, out, *args: str) -> list:
    """Run ``continuous`` with ``args`` into ``out`` and return, for each
    line in the order scored, its stacks (calls of ``propagation_superop``)
    and its unrounded breaking length."""
    calls = _count_calls(monkeypatch, continuous, "propagation_superop")
    costs, line = [], cli._line

    def counted(source, args):
        before = len(calls)
        _, threshold, _ = result = line(source, args)
        costs.append((len(calls) - before, threshold))
        return result

    monkeypatch.setattr(cli, "_line", counted)
    assert cli.main(["--out", str(out), "continuous", *args]) == 0
    return costs


@pytest.mark.parametrize("family, stacks, limit", [
    ("ad", [2, 2, 2, 2, 6, 5, 2], Unbounded(20.0)),
    ("pd", [2, 2, 2, 2, 2, 3, 4], Undecided(16.6355, None, 20.0))],
    ids=["ad", "pd"])
def test_cli_lines_search_from_their_profiles(tmp_path, monkeypatch, family, stacks,
                                              limit):
    # the README's runs: each line costs its profile's one stack of 241
    # lengths and the search's own stacks, to x_hi = 20.  A line that breaks
    # inside --x-max 6 takes one search stack placed from its profile, more
    # when a slice boundary beside the root sends that stack's window past it
    # (PD n16, boundary 2.5748, root 2.5651: two).  A line whose root lies
    # past --x-max (AD n8 and n16: five and four) and the limit lines search
    # as without a profile; one that x_hi shows never breaks takes one.  The
    # switched lines are cut from the single length as printed
    costs = _line_costs(monkeypatch, tmp_path, "--family", family)
    assert [n for n, _ in costs] == stacks
    assert all(isinstance(length, float) for _, length in costs[:-1])
    assert costs[-1][1] == limit


def test_no_benchmark_line_costs_more_with_its_profile(tmp_path, monkeypatch):
    # every line of the benchmark's lines pass at seed 8, searched as the
    # command line searches it, from its profile, and again without one:
    # the same answer, at no more stacks
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    calls = _count_calls(monkeypatch, continuous, "propagation_superop")
    searches, search = [], cli.eb_length

    def counted(*args):
        before = len(calls)
        answer = search(*args)
        searches.append((args, answer, len(calls) - before))
        return answer

    monkeypatch.setattr(cli, "eb_length", counted)
    for i, inv in enumerate(workloads.generate("lines", 8)):
        assert cli.main(["--out", str(tmp_path / str(i)), *inv.argv]) == 0
    assert len(searches) == 32
    for (source, x_hi, xtol, profile), answer, stacks in searches:
        calls.clear()
        assert eb_length(source, x_hi, xtol) == answer
        assert stacks <= len(calls)


def test_kinked_line_costs_at_most_six_stacks(tmp_path, monkeypatch):
    # a seeded benchmark line whose n = 16 root, 11.430, lies past --x-max
    # with the slice boundary 11.408 inside its last grid bracket; the kink
    # sends the interpolated window past the root, and the grid that follows
    # the miss holds every line to six stacks, profile included
    omega, eps = 1.6479586046784864, 0.9673254419617582
    costs = _line_costs(monkeypatch, tmp_path, "--family", "ad", "--omega",
                        repr(omega), "--eps", repr(eps), "--n", "4", "16",
                        "--steps", "61")
    assert len(costs) == 4
    assert all(stacks <= 6 for stacks, _ in costs), costs
    single, n16 = costs[0][1], costs[2][1]
    line = SwitchedLine(rotating_ad_liouvillian(1, omega, eps),
                        rotating_ad_liouvillian(2, omega, eps), single / 16)
    ref = _scan_eb_length(line, 20.0, xtol=1e-10, spacing=0.25)
    assert abs(n16 - ref) <= cli.EB_XTOL / 2


def test_cli_undriven_run_scores_two_stacks(tmp_path, monkeypatch):
    # two stacks a line: the profile's, and the search's first, whose x_hi
    # certainly transmits (lambda_min -e^(-20)/2)
    costs = _line_costs(monkeypatch, tmp_path, "--family", "ad", "--omega", "0")
    assert costs == [(2, Unbounded(20.0)), (2, Unbounded(20.0))]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(("ad", "pd")), st.floats(0.0, 3.0), st.floats(0.2, 2.0),
       st.sampled_from((1, 2, 4, 16)), st.floats(0.3, 30.0),
       st.sampled_from((3, 61, 241)))
@example("ad", 1.5, 1.0, 16, 25.0, 1500)
@example("pd", 0.0, 1.0, 1, 21.0, 1500)
@example("pd", 0.0, 1.0, 1, 6.0, 1500)
# the root, 7.9826, lies a grid step before the reference scan's first
# point below -1e-9, 8.25: the pre-clamp value at 8.0 is -3.4e-10
@example("pd", 6.103515625e-05, 1.171875, 1, 1.0, 3)
# weakly driven: undecided from 13.2374, breaks by 13.4577
@example("ad", 0.015625, 2.0, 4, 1.0, 3)
def test_cli_search_from_the_profile_keeps_xtol(family, omega, eps, n, x_max,
                                                steps):
    # the length the command line prints for a line, searched to x_hi =
    # max(--x-max, 20) apart from its profile, against a reference search a
    # million times finer, on a coarse scan, as every physical line changes
    # sign once.  A line that never breaks is unbounded, at one stack beyond
    # its profile, when x_hi certainly transmits.  Undecided lengths are
    # those where lambda_min(rho^Gamma) lies inside the band, as on an
    # undriven line past (52 ln2 - ln 16c) / rate, or a weakly driven one
    # whose lambda_min stays within the band for up to 0.22 past its root
    # (the n = 4 example): they must hold the reference root, and each edge
    # lies within a cell of where a verdict scan, one length at a time,
    # first reads it.  Not within half a cell: there lambda_min - band rises
    # 4e-12 a unit, and the stacked and lone verdicts differ by 4e-17, so
    # the crossing, 13.45764 alone, falls on the cell edge 13.45765 stacked
    gen = rotating_ad_liouvillian if family == "ad" else rotating_pd_liouvillian
    line = switched_line(gen(1, omega, eps), gen(2, omega, eps), 1.0, n)
    args = cli._PARSER.parse_args(["continuous", "--family", family,
                                   "--x-max", repr(x_max), "--steps", str(steps)])
    x_hi = max(x_max, 20.0)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_calls(mp, continuous, "propagation_superop")
        points, got, _ = cli._line(line, args)
    assert len(points) == steps
    ref = _scan_eb_length(line, x_hi, xtol=1e-10, spacing=0.25)
    half = cli.EB_XTOL / 2
    if isinstance(got, Undecided):
        assert got.searched_up_to == x_hi and got.first < (got.last or x_hi)
        if not isinstance(ref, Unbounded):
            assert got.first - half <= ref <= (got.last or x_hi) + half
        first, last = _verdict_edges(line, x_hi)
        assert abs(got.first - first) <= 3 * half
        assert (got.last is None) == (last is None)
        assert got.last is None or abs(got.last - last) <= 3 * half
    elif isinstance(ref, Unbounded):
        assert got == ref
        assert len(calls) == math.ceil(steps / continuous._STACK_POINTS) + 1
    else:
        assert isinstance(got, float)
        assert abs(got - ref) <= half


def _oracle_superop(source, x) -> mpmath.matrix:
    """The line's propagator from 0 to ``x`` in mpmath alone, at the
    caller's precision: the exponential of each generator, and for a
    switched line the whole-slice pair's power by squaring."""
    def exp(gen, length):
        g = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in gen.generator])
        return mpmath.expm(g * length)

    if not isinstance(source, SwitchedLine):
        return exp(source, x)
    s = mpmath.mpf(source.slice_len)
    k = int(mpmath.floor(x / s))
    even = exp(source.gen_even, s)
    total, square, e = mpmath.eye(4), exp(source.gen_odd, s) * even, k // 2
    while e:
        if e & 1:
            total = square * total
        square, e = square * square, e >> 1
    if k % 2:
        total = even * total
    return exp(source.gen_odd if k % 2 else source.gen_even, x - k * s) * total


def _oracle_partial_transpose(s) -> mpmath.matrix:
    """The partial transpose of the singlet's image under the column-stacking
    superoperator ``s`` (vec(X)[i + 2 j] = X[i, j]) on the first qubit."""
    c = [[0, 1 / mpmath.sqrt(2)], [-1 / mpmath.sqrt(2), 0]]  # amplitudes c[a][b]
    pt = mpmath.matrix(4, 4)
    for i, i2, b, b2 in np.ndindex(2, 2, 2, 2):
        # (map (x) id)(|psi><psi|) at (i b, i2 b2), transposed on b
        pt[2 * i + b2, 2 * i2 + b] = sum(s[i + 2 * i2, a + 2 * a2] * c[a][b] * c[a2][b2]
                                         for a in range(2) for a2 in range(2))
    return pt


def _oracle_eb_length(gen, guess: float) -> mpmath.mpf:
    """The single line's breaking length to 40 digits, in mpmath alone: the
    root of the determinant of the partial transpose, which is negative
    exactly when two qubits are entangled (Augusiak, Demianowicz &
    Horodecki, PRA 77, 030301(R), 2008)."""
    with mpmath.workdps(40):
        return mpmath.findroot(
            lambda x: mpmath.re(mpmath.det(_oracle_partial_transpose(_oracle_superop(gen, x)))),
            mpmath.mpf(guess))


@pytest.mark.parametrize("gen, oracle", [
    (AD1, "1.7739296349313415183"), (PD1, "0.89559681755138097008")],
    ids=["ad", "pd"])
def test_single_lengths_match_a_40_digit_oracle(gen, oracle):
    # the oracle shares nothing with numpy's eig, the verdict or the search;
    # its roots to 20 digits are pinned beside it.  The search returns the
    # root correctly rounded, at the command line's 1e-4 and at 1e-12, and
    # the printed digits are the root's
    root = _oracle_eb_length(gen, eb_length(gen, 6.0))
    assert mpmath.nstr(root, 20) == oracle
    assert eb_length(gen, 6.0, xtol=1e-12) == _cell(float(root), 1e-12)
    family = "ad" if gen is AD1 else "pd"
    args = cli._PARSER.parse_args(["continuous", "--family", family])
    _, length, text = cli._line(gen, args)
    assert length == _cell(float(root))
    assert text.split()[1] == mpmath.nstr(root, 5)


def test_line_verdicts_hold_a_40_digit_oracle():
    # lambda_min(rho^Gamma) of the float Choi states within half the band of
    # its 40-digit value: on the README's lines at their roots and past them,
    # and next to the AD exceptional point omega = 1/8, at cond(V) 994 (off
    # by 417 eps lambda_max, 0.42 c), and on the Pade path at the point
    # itself (3.75 eps lambda_max, c = 1), the largest errors measured
    near = rotating_ad_liouvillian(1, 0.125 - 5e-7, 1.0)
    at = rotating_ad_liouvillian(1, 0.125, 1.0)
    assert 990.0 < near.spectral.cond < EIG_COND_BOUND and at.spectral.factors is None
    cases = [(SwitchedLine(AD1, AD2, 1.7739 / 2), [0.3, 2.8994]),
             (SwitchedLine(PD1, PD2, 0.8956 / 4), [1.521, 6.0]),
             (SwitchedLine(PD1, PD2, 0.8956 / 16), [2.5651, 19.9]),
             (SwitchedLine(AD1, AD2, 1.7739 / 16), [11.5237, 19.9]),
             (near, [0.25]), (at, [0.79])]
    for source, xs in cases:
        for x, sample in zip(xs, continuous._verdicts(source, np.array(xs))):
            with mpmath.workdps(40):
                pt = _oracle_partial_transpose(_oracle_superop(source, mpmath.mpf(x)))
                pt = pt / sum(pt[i, i] for i in range(4))
                low = min(mpmath.re(w) for w in mpmath.eighe((pt + pt.H) / 2, eigvals_only=True))
            assert abs(sample.low - float(low)) <= 0.5 * sample.band, (source, x)


def _reference_superop(source, x: float) -> np.ndarray:
    """Per-point propagator from scipy exponentials and numpy matrix powers."""
    if not isinstance(source, SwitchedLine):
        return scipy.linalg.expm(source.generator * x)
    s = source.slice_len
    even = scipy.linalg.expm(source.gen_even.generator * s)
    pair = scipy.linalg.expm(source.gen_odd.generator * s) @ even
    k = int(np.floor(x / s))
    frac = x - k * s
    total = np.linalg.matrix_power(pair, k // 2)
    if k % 2:
        total = even @ total
    if frac > 0.0:
        gen = source.gen_odd if k % 2 else source.gen_even
        total = scipy.linalg.expm(gen.generator * frac) @ total
    return total


@pytest.mark.parametrize("seed", [3, 4])
def test_stacked_propagation_matches_per_point_reference(seed):
    rng = np.random.default_rng(seed)
    omega, eps = rng.uniform(0.5, 2.5), rng.uniform(0.3, 1.5)
    ad = [rotating_ad_liouvillian(j, omega, eps) for j in (1, 2)]
    pd = [rotating_pd_liouvillian(j, omega, eps) for j in (1, 2)]
    s = rng.uniform(0.05, 0.5)
    bounds = s * np.concatenate([np.arange(12), np.arange(390, 401)])
    xs = np.concatenate([[0.0], bounds, bounds[1:] - 1e-9, bounds + 1e-9,
                         rng.uniform(0.0, 12 * s, 20),
                         rng.uniform(0.0, 400 * s, 20)])
    sources = [SwitchedLine(*ad, s), SwitchedLine(*pd, s), ad[0], pd[0],
               average_liouvillian(*ad), average_liouvillian(*pd),
               rotating_pd_liouvillian(1, 0.0, eps)]
    for source in sources:
        stack = propagation_superop(source, xs)
        assert stack.shape == (len(xs), 4, 4)
        for x, got in zip(xs, stack):
            np.testing.assert_allclose(got, _reference_superop(source, x),
                                       rtol=0.0, atol=1e-12)
        one = propagation_superop(source, float(xs[-1]))
        assert one.shape == (4, 4)
        np.testing.assert_array_equal(one, stack[-1])


def _slice_pairs():
    """Mirrored slice pairs, and doubled ones near the exceptional points,
    where cond(V) of the pair reaches 7e2."""
    for family, exceptional in ((rotating_ad_liouvillian, 1.0 / 8.0),
                                (rotating_pd_liouvillian, 1.0 / 2.0)):
        for omega in (0.3, 1.5, 2.5):
            for s in (0.05, 0.2, 0.9):
                yield SwitchedLine(family(1, omega, 1.0), family(2, omega, 1.0), s)
        for d in (1e-6, 1e-5, 1e-3):
            g = family(1, exceptional + d, 1.0)
            yield SwitchedLine(g, g, 0.2)


def test_spectral_powers_match_matrix_power():
    conds = []
    for line in _slice_pairs():
        if line.pair.factors is None:
            continue   # the PD pair at a distance of 1e-6 takes the fallback
        conds.append(np.linalg.cond(line.pair.factors[1]))
        # the error grows linearly in the exponent (README): past 5000 the
        # bound is 4e-15 per power
        for exponents, atol in ((np.arange(301), 1e-12),
                                (np.array([1000, 2500, 5000]), 2e-11),
                                (np.array([10 ** 4]), 4e-11),
                                (np.array([10 ** 5]), 4e-10)):
            got = line.pair.power(exponents)
            for e, m in zip(exponents, got):
                np.testing.assert_allclose(
                    m, np.linalg.matrix_power(line.pair.matrix, int(e)),
                    rtol=0.0, atol=atol)
    assert len(conds) == 23 and 6e2 < max(conds) < EIG_COND_BOUND


def test_defective_pair_takes_matrix_power_fallback(monkeypatch):
    # at omega = 1/8, eps = 1 the AD generator is defective, and so is the
    # pair exp(2 L s) of a line that repeats it
    g = rotating_ad_liouvillian(1, 1.0 / 8.0, 1.0)
    line = SwitchedLine(g, g, 0.15)
    assert line.pair.factors is None
    powers = _count_calls(monkeypatch, qmath.np.linalg, "matrix_power")
    xs = np.concatenate([0.15 * np.arange(41), np.linspace(0.0, 6.0, 31)])
    stack = propagation_superop(line, xs)
    # one matrix_power per distinct whole-pair count, 0 to 20
    assert len(powers) == 21
    for x, got in zip(xs, stack):
        np.testing.assert_allclose(got, _reference_superop(line, x),
                                   rtol=0.0, atol=1e-12)


def test_slice_counts_past_exact_float_range_are_refused(monkeypatch):
    # 1e20 slices would wrap the int64 slice index and give every point the
    # identity as its whole-slice power
    powers = _count_calls(monkeypatch, qmath.Spectral, "power")
    line = switched_line(AD1, AD2, 1.6, 10 ** 20)
    with pytest.raises(OutOfRange, match="6.25e\\+19 slices"):
        propagation_superop(line, np.array([0.0, 0.5, 1.0]))
    with pytest.raises(OutOfRange, match="slices"):
        concurrence_profile(line, 1.0, 5)
    assert powers == []
    with pytest.raises(OutOfRange, match="slices"):
        eb_length(line, 1.0)
    # 2**53 is the last exact float slice index: refused at it, run below it
    edge = SwitchedLine(AD1, AD2, 2.0 ** -53)
    with pytest.raises(OutOfRange, match="slices"):
        propagation_superop(edge, 1.0)
    assert np.all(np.isfinite(propagation_superop(edge, np.nextafter(1.0, 0.0))))


def test_small_non_normal_exponents_match_scipy():
    # a non-normal generator times a small length is still non-normal; the
    # normal-matrix shortcut would drop the Schur factor's upper triangle
    for gen in (AD1, PD1):
        m = gen.generator * 1e-6
        np.testing.assert_allclose(Spectral(m).exp([1.0])[0], scipy.linalg.expm(m),
                                   rtol=0.0, atol=1e-14)
    s = 0.1 - 4e-7   # x = 0.1 lies 4e-7 into the second slice
    line = SwitchedLine(AD1, AD2, s)
    want = (scipy.linalg.expm(AD2.generator * (0.1 - s))
            @ scipy.linalg.expm(AD1.generator * s))
    np.testing.assert_allclose(propagation_superop(line, 0.1), want,
                               rtol=0.0, atol=1e-14)


def _count_calls(monkeypatch, module, name: str, cap: int | None = None) -> list:
    """Replace ``module.name`` by a wrapper that records each call, and
    raises once there are more than ``cap`` of them."""
    calls, inner = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        if cap is not None and len(calls) > cap:
            raise RuntimeError(f"more than {cap} calls of {name}")
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("family,exceptional", [
    (rotating_ad_liouvillian, 1.0 / 8.0), (rotating_pd_liouvillian, 1.0 / 2.0)])
def test_exponential_matches_scipy_across_exceptional_points(monkeypatch,
                                                             family,
                                                             exceptional):
    # at eps = 1 the driven AD generator is defective at omega = 1/8 and the
    # driven PD one at omega = 1/2; near them the eigenvector matrix is
    # ill-conditioned and the exponential must fall back to the Pade one
    xs = np.concatenate([[0.0, 1e-8, 1e-6], np.linspace(0.0, 20.0, 81)])
    reference = scipy.linalg.expm
    pade_calls = _count_calls(monkeypatch, qmath, "_pade_expm")
    for d in (0.0, 1e-10, 1e-6, 1e-3, 0.1):
        gen = family(1, exceptional + d, 1.0)
        pade_calls.clear()
        stack = propagation_superop(gen, xs)
        for x, got in zip(xs, stack):
            np.testing.assert_allclose(got, reference(gen.generator * x),
                                       rtol=0.0, atol=1e-12)
        if d == 0.0:
            assert gen.spectral.factors is None and len(pade_calls) == 1
        if d >= 1e-3:
            assert gen.spectral.factors is not None and not pade_calls


def test_pade_fallback_matches_scipy_on_a_mixed_stack():
    # random non-normal matrices, shifted so that the exponentials stay
    # bounded, at 1-norms that need no scaling (0, 1, 5) and 10 squarings
    # (2800 > theta_13 * 2**9); the exponential's own condition grows with
    # the norm, so past that the two methods part by more than 1e-12
    rng = np.random.default_rng(17)
    stack = []
    for d in (2, 2, 4, 4):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        w = np.linalg.eigvals(m)
        m = m - w[np.argmax(w.real)] * np.eye(d)
        assert np.abs(m @ m.conj().T - m.conj().T @ m).max() > 0.1
        for norm in (0.0, 1.0, 5.0, 2800.0):
            stack.append(np.zeros((4, 4), dtype=complex))
            stack[-1][:d, :d] = m * norm / np.abs(m).sum(axis=0).max()
    stack = np.array(stack)
    norms = np.abs(stack).sum(axis=-2).max(axis=-1)
    assert norms.min() == 0.0 and norms.max() > 2 ** 9 * qmath._THETA_13
    assert np.sum(norms <= qmath._THETA_13) == 12
    np.testing.assert_allclose(qmath._pade_expm(stack), scipy.linalg.expm(stack),
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("omega", [1.5, 1.0 / 8.0])
def test_overflowing_exponential_is_out_of_range(omega):
    # the AD generator's trace-preserving eigenvalue is 0 only to rounding, so
    # a length of 1e300 overflows: through the eigendecomposition at omega =
    # 1.5 and through the Pade fallback at the exceptional point 1/8
    spectral = rotating_ad_liouvillian(1, omega, 1.0).spectral
    assert (spectral.factors is None) == (omega == 1.0 / 8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange, match="length 1e\\+300 is not finite"):
            spectral.exp([0.0, 1.0, 1e300])
        assert np.all(np.isfinite(spectral.exp([0.0, 1.0, 20.0])))


def test_searches_and_profiles_refactor_nothing(monkeypatch):
    # every factorization happens when a generator or line is built; a
    # search or a profile only multiplies the stored factors
    sources = [AD1, SwitchedLine(AD1, AD2, 0.4), average_liouvillian(AD1, AD2),
               SwitchedLine(PD1, PD2, 0.2)]
    eigs = _count_calls(monkeypatch, qmath.np.linalg, "eig")
    expms = _count_calls(monkeypatch, qmath, "_pade_expm")
    powers = _count_calls(monkeypatch, qmath.np.linalg, "matrix_power")
    for source in sources:
        eb_length(source, 12.0)
        concurrence_profile(source, 6.0, 241)
    assert eigs == [] and expms == [] and powers == []


def test_profiles_eigendecompose_each_stack_once(monkeypatch):
    # one eigh per stack of at most 1024 points, for the concurrence alone:
    # the line's states are scored as formed, with no positivity check of
    # their own
    line = SwitchedLine(AD1, AD2, 0.3)
    eighs = _count_calls(monkeypatch, qmath.np.linalg, "eigh")
    eigvalshs = _count_calls(monkeypatch, qmath.np.linalg, "eigvalsh")
    assert len(concurrence_profile(line, 2.0, 3000)) == 3000
    assert [np.shape(a[0])[0] for a in eighs] == [1024, 1024, 952]
    assert eigvalshs == []


def test_liouvillian_rejects_non_finite_generator():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="generator"):
            continuous.Liouvillian(np.full((4, 4), bad))
    with pytest.raises(ValueError, match="non-finite"):
        Spectral(np.array([[0.0, np.nan], [0.0, 0.0]])).exp([1.0])


def test_liouvillian_rejects_a_generator_that_breaks_hermiticity(monkeypatch):
    # a term 0.3j at entry [2, 0] leaves the trace row alone, so the
    # generator still preserves trace, but it maps Hermitian states to
    # non-Hermitian ones; it is refused before it is factored, where the
    # scorer's Hermitian part would otherwise hide it behind a breaking
    # length (1.7737)
    bad = AD1.generator.copy()
    bad[2, 0] += 0.3j
    factored = _count_calls(monkeypatch, continuous, "Spectral")
    with pytest.raises(qmath.NonHermitian, match="does not preserve Hermiticity"):
        continuous.Liouvillian(bad)
    assert factored == []
    continuous.Liouvillian(AD1.generator)
    assert len(factored) == 1


def test_liouvillian_trace_row_is_held_to_1e_8():
    # c times the identity superoperator keeps Hermiticity and adds c to the
    # trace row <<I| L, rows 0 and 3; off the maximally entangled state its
    # Choi matrix vanishes, so only the trace check sees it
    for c in (5e-9, -5e-9):
        continuous.Liouvillian(AD1.generator + c * np.eye(4))
    for c in (2e-8, -2e-8):
        with pytest.raises(ValueError) as refused:
            continuous.Liouvillian(AD1.generator + c * np.eye(4))
        assert type(refused.value) is ValueError
        assert str(refused.value) == "generator does not preserve trace"


def test_rotating_generators_reject_non_finite_rates():
    for family in (rotating_ad_liouvillian, rotating_pd_liouvillian):
        for omega in (np.inf, -np.inf, np.nan):
            with pytest.raises(OutOfRange, match="omega"):
                family(1, omega, 1.0)
        for eps in (np.nan, np.inf, -1.0):
            with pytest.raises(OutOfRange, match="eps"):
                family(1, 1.5, eps)


def test_generator_index_and_profile_steps_are_refused():
    # a switched pair has generators 1 and 2 only; a profile has both ends
    assert refusal(rotating_ad_liouvillian, 3, 1.5, 1.0) == (
        OutOfRange, "generator index must be 1 or 2")
    assert refusal(concurrence_profile, AD1, 1.0, steps=1) == (
        OutOfRange, "need at least two profile points")


def test_switched_line_rejects_non_finite_slices():
    for bad in (np.nan, np.inf, 0.0):
        with pytest.raises(OutOfRange, match="slice length"):
            SwitchedLine(AD1, AD2, bad)
        with pytest.raises(OutOfRange, match="total length"):
            switched_line(AD1, AD2, bad, 4)


@pytest.mark.parametrize("n", [2.0, 2.5])
def test_a_slice_count_that_is_not_an_integer_is_refused(n):
    assert refusal(switched_line, AD1, AD2, 6.0, n) == (
        TypeError, "'float' object cannot be interpreted as an integer")
    assert switched_line(AD1, AD2, 6.0, np.int64(2)).slice_len == 3.0


def test_eb_length_rejects_non_finite_bounds():
    for bad in (np.nan, np.inf, 0.0):
        with pytest.raises(OutOfRange, match="x_hi"):
            eb_length(AD1, bad)
        with pytest.raises(OutOfRange, match="xtol"):
            eb_length(AD1, 6.0, xtol=bad)


def test_propagation_rejects_non_finite_lengths():
    line = SwitchedLine(AD1, AD2, 0.4)
    for source in (AD1, line):
        for bad in (np.nan, np.inf, -1.0):
            with pytest.raises(OutOfRange, match="propagation length"):
                propagation_superop(source, bad)
            with pytest.raises(OutOfRange, match="propagation length"):
                propagation_superop(source, np.array([0.5, bad]))
        with pytest.raises(OutOfRange, match="propagation length"):
            concurrence_profile(source, np.nan, 5)


def test_profile_stacks_match_one_stack(monkeypatch):
    sizes = []
    inner = continuous.propagation_superop

    def recording(source, x):
        sizes.append(np.size(x))
        return inner(source, x)

    monkeypatch.setattr(continuous, "propagation_superop", recording)
    line = SwitchedLine(AD1, AD2, 0.3)
    stacked = concurrence_profile(line, 2.0, 3000)
    assert max(sizes) == 1024
    monkeypatch.setattr(continuous, "_STACK_POINTS", 4096)
    whole = concurrence_profile(line, 2.0, 3000)
    assert max(sizes) == 3000
    assert len(stacked) == len(whole) == 3000
    np.testing.assert_allclose(np.array(stacked), np.array(whole), rtol=0.0,
                               atol=1e-15)


def test_switched_line_factory():
    line = switched_line(AD1, AD2, 6.0, 8)
    assert math.isclose(line.slice_len, 0.75)
    with pytest.raises(OutOfRange):
        switched_line(AD1, AD2, 6.0, 0)


def test_switched_propagator_piecewise_structure():
    line = SwitchedLine(AD1, AD2, 0.4)
    # inside the first slice: pure gen_even evolution
    assert np.allclose(propagation_superop(line, 0.25),
                       propagation_superop(AD1, 0.25))
    # one full slice plus a fraction of the second
    lhs = propagation_superop(line, 0.55)
    rhs = propagation_superop(AD2, 0.15) @ propagation_superop(AD1, 0.4)
    assert np.allclose(lhs, rhs)
    # equal generators collapse to the single-generator semigroup
    same = SwitchedLine(AD1, AD1, 0.3)
    assert np.allclose(propagation_superop(same, 1.1),
                       propagation_superop(AD1, 1.1))


def test_switched_channel_is_cptp():
    line = SwitchedLine(AD1, AD2, 0.875)
    for x in (0.0, 0.4, 2.3):
        c = QuantumChannel(propagation_superop(line, x))
        assert c.trace_preserving


def test_average_liouvillian_cancels_drive():
    avg = average_liouvillian(AD1, AD2)
    assert np.allclose(avg.generator,
                       rotating_ad_liouvillian(1, 0.0, 1.0).generator)


def test_trotter_gap_commuting_is_zero():
    g = rotating_ad_liouvillian(1, 0.0, 1.0)
    line = SwitchedLine(g, g, 0.5)
    assert trotter_gap(line, 4.0) < 1e-12


def test_trotter_gap_frozen_and_halving():
    assert math.isclose(trotter_gap(switched_line(AD1, AD2, 4.0, 64), 4.0),
                        0.0926348630696073, abs_tol=1e-9)
    gaps = [trotter_gap(switched_line(AD1, AD2, 4.0, n), 4.0)
            for n in (16, 32, 64, 128, 256)]
    for a, b in zip(gaps, gaps[1:]):
        assert 0.45 < b / a < 0.55


def test_fine_switching_tracks_mean_line():
    line = switched_line(AD1, AD2, 6.0, 64)
    xs = np.linspace(0.0, 6.0, 61)
    pts = concurrence_profile(line, 6.0, 61)
    sup = max(abs(p.pre_clamp - math.exp(-x / 2.0)) for p, x in zip(pts, xs))
    assert math.isclose(sup, 0.0032087486288194522, abs_tol=1e-9)
    assert sup < 0.02


def test_eb_length_guards():
    with pytest.raises(OutOfRange):
        eb_length(AD1, -1.0)


def test_profile_csv_determinism(tmp_path):
    # the command line writes each profile as this text
    from entweave.cli import PROFILE_HEADER, _csv_text

    pts = concurrence_profile(AD1, 1.0, 5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (p1, p2):
        path.write_text(_csv_text(PROFILE_HEADER, pts, "single"), newline="")
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "x,concurrence,pre_clamp,label"
    assert len(lines) == 6


def test_generators_and_lines_compare_by_identity():
    a = rotating_ad_liouvillian(1, 1.5, 1.0)
    b = rotating_ad_liouvillian(1, 1.5, 1.0)
    line = switched_line(a, rotating_pd_liouvillian(2, 1.5, 1.0), 2.0, 4)
    twin = switched_line(a, rotating_pd_liouvillian(2, 1.5, 1.0), 2.0, 4)
    assert a == a and a != b
    assert line == line and line != twin
    assert len({a, b, a, line, twin, line}) == 4
    assert hash(a) == hash(a) and hash(line) == hash(line)


def test_channels_states_and_exponentials_compare_by_identity():
    # their array fields would make a generated __eq__ ambiguous and the
    # objects unhashable, as for Liouvillian above
    for make in (lambda: ad_channel(0.5), lambda: qmath.Spectral(np.zeros((2, 2)))):
        a, b = make(), make()
        assert a == a and a != b
        assert len({a, b, a}) == 2 and hash(a) == hash(a)
