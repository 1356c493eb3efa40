"""Switched-generator propagation: closed forms, frozen thresholds, Trotter."""

import math
import warnings

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
    TOL,
    OutOfRange,
    Spectral,
    unvec,
    vec,
)
from entweave.states import matrix_of, singlet_state


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


def _on_first_qubit(superop, rho):
    """Reference (map (x) id)(rho), one 2x2 block at a time, as
    tests/test_optics.py's _reference_point does:
    (map (x) id)(sum rho_yz (x) |y><z|) = sum map(rho_yz) (x) |y><z|."""
    blocks = np.asarray(rho).reshape(2, 2, 2, 2)
    out = np.zeros((4, 4), dtype=complex)
    for y in range(2):
        for z in range(2):
            e = np.zeros((2, 2))
            e[y, z] = 1.0
            out += np.kron(unvec(superop @ vec(blocks[:, y, :, z])), e)
    return out


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
    singlet = matrix_of(singlet_state())
    for x in (2e-9, 1e-6):
        out = _on_first_qubit(scipy.linalg.expm(NON_CP * x), singlet)
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


def test_pure_lines_never_break():
    res = eb_length(rotating_ad_liouvillian(1, 0.0, 1.0), 50.0)
    assert isinstance(res, Unbounded)
    assert res.searched_up_to == 50.0
    assert isinstance(eb_length(rotating_pd_liouvillian(1, 0.0, 1.0), 20.0),
                      Unbounded)


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
    pre-clamp concurrence below -TOL.eb, then bisect the bracket from the
    last positive value before it down to xtol."""
    singlet = matrix_of(singlet_state())

    def f(x):
        out = _on_first_qubit(propagation_superop(source, x), singlet)
        return concurrence(0.5 * (out + out.conj().T)).pre_clamp

    xs = np.linspace(0.0, x_hi, int(np.ceil(x_hi / spacing)) + 1)
    lo = 0.0
    for hi in xs[1:]:
        value = f(hi)
        if value < -TOL.eb:
            break
        # a slowly falling curve can sit in [-TOL.eb, 0] for a grid step or
        # more past its root, which then lies before this point
        if value > 0.0:
            lo = hi
    else:
        return Unbounded(x_hi)
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(("ad", "pd")), st.floats(0.0, 3.0), st.floats(0.2, 2.0),
       st.sampled_from((1, 2, 4, 8, 16)))
def test_physical_lines_break_once(family, omega, eps, n):
    # eb_length decides from f(x_hi) alone and brackets on its first grid
    # sign change; that rests on CP-divisibility, under which the
    # concurrence never rises along a physical line
    gen = rotating_ad_liouvillian if family == "ad" else rotating_pd_liouvillian
    line = switched_line(gen(1, omega, eps), gen(2, omega, eps), 1.0, n)
    x_hi = 3.0
    pts = concurrence_profile(line, x_hi, 61)
    assert max(b.concurrence - a.concurrence
               for a, b in zip(pts, pts[1:])) <= 2e-8
    # the xtol contract against a reference search a million times finer,
    # and the cost: one stacked evaluation for a line that never breaks, at
    # most seven for one that does: [0, 3], two grids, then at worst a
    # missed window and a grid, twice (bisection to 1e-4 took 17)
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


def test_searches_take_at_most_six_evaluations(monkeypatch):
    # the regenerator's lines at x_hi = 20, where bisection to 1e-4 took 20
    # evaluations a search: two grids, then windows and grids, 4 to 6 stacks;
    # a line that never breaks costs the one stacked evaluation of [0, x_hi]
    calls = _count_calls(monkeypatch, continuous, "propagation_superop")
    for g1, g2 in ((AD1, AD2), (PD1, PD2)):
        calls.clear()
        single = eb_length(g1, 20.0)
        counts = [len(calls)]
        for n in (1, 2, 4, 8, 16):
            calls.clear()
            assert isinstance(eb_length(SwitchedLine(g1, g2, single / n), 20.0),
                              float)
            counts.append(len(calls))
        assert max(counts) <= 6, counts
        calls.clear()
        assert isinstance(eb_length(average_liouvillian(g1, g2), 20.0), Unbounded)
        assert len(calls) == 1


def test_tiny_xtol_search_stops_at_float_resolution(monkeypatch):
    # bisection to xtol 1e-300 never ended: its bracket stalled at two
    # adjacent floats; the search now stops a few ulps from the root
    ref = _scan_eb_length(AD1, 6.0, xtol=1e-12)
    calls = _count_calls(monkeypatch, continuous, "propagation_superop", cap=64)
    got = eb_length(AD1, 6.0, xtol=1e-300)
    assert isinstance(got, float) and abs(got - ref) <= 1e-12
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


@pytest.mark.parametrize("family", ["ad", "pd"])
def test_cli_lines_search_from_their_profiles(tmp_path, monkeypatch, family):
    # the README's runs: the search starts from the profile's 241 lengths,
    # scored in one stack with x_hi = 20, so a line costs that stack and at
    # most four more, and the limit line, which never breaks, that stack alone
    costs = _line_costs(monkeypatch, tmp_path, "--family", family)
    assert len(costs) == 7
    assert all(1 <= stacks <= 5 for stacks, _ in costs), costs
    assert all(isinstance(length, float) for _, length in costs[:-1])
    assert costs[-1] == (1, Unbounded(20.0))


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
    costs = _line_costs(monkeypatch, tmp_path, "--family", "ad", "--omega", "0")
    assert costs == [(1, Unbounded(20.0)), (1, Unbounded(20.0))]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(("ad", "pd")), st.floats(0.0, 3.0), st.floats(0.2, 2.0),
       st.sampled_from((1, 2, 4, 16)), st.floats(0.3, 30.0),
       st.sampled_from((3, 61, 241)))
@example("ad", 1.5, 1.0, 16, 25.0, 1500)
@example("pd", 0.0, 1.0, 1, 21.0, 1500)
@example("pd", 0.0, 1.0, 1, 6.0, 1500)
# the root, 7.9826, lies a grid step before the reference scan's first
# point below -TOL.eb, 8.25: the pre-clamp value at 8.0 is -3.4e-10
@example("pd", 6.103515625e-05, 1.171875, 1, 1.0, 3)
def test_cli_search_from_the_profile_keeps_xtol(family, omega, eps, n, x_max,
                                                steps):
    # the length the command line finds from a line's profile, with x_hi
    # = max(--x-max, 20) scored in the profile's last stack, against a
    # reference search a million times finer, on a coarse scan, as every
    # physical line changes sign once; a line that never breaks costs its
    # profile's stacks alone
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
    if isinstance(ref, Unbounded):
        assert got == ref
        assert len(calls) == math.ceil(steps / continuous._STACK_POINTS)
    else:
        assert isinstance(got, float)
        assert abs(got - ref) <= cli.EB_XTOL / 2


def _oracle_eb_length(gen, guess: float) -> mpmath.mpf:
    """The single line's breaking length to 40 digits, in mpmath alone: the
    exponential of the generator, the singlet's image under the map on the
    first qubit, and the root of the determinant of its partial transpose,
    which is negative exactly when two qubits are entangled (Augusiak,
    Demianowicz & Horodecki, PRA 77, 030301(R), 2008)."""
    with mpmath.workdps(40):
        g = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row]
                           for row in gen.generator])
        # the singlet's amplitudes c[a][b], a on the first qubit
        c = [[0, 1 / mpmath.sqrt(2)], [-1 / mpmath.sqrt(2), 0]]

        def det_pt(x):
            s = mpmath.expm(g * x)   # column-stacking: vec(X)[i + 2 j] = X[i, j]
            pt = mpmath.matrix(4, 4)
            for i, i2, b, b2 in np.ndindex(2, 2, 2, 2):
                # (map (x) id)(|psi><psi|) at (i b, i2 b2), transposed on b
                pt[2 * i + b2, 2 * i2 + b] = sum(
                    s[i + 2 * i2, a + 2 * a2] * c[a][b] * c[a2][b2]
                    for a in range(2) for a2 in range(2))
            return mpmath.re(mpmath.det(pt))

        return mpmath.findroot(det_pt, mpmath.mpf(guess))


@pytest.mark.parametrize("gen, oracle", [
    (AD1, "1.7739296349313415183"), (PD1, "0.89559681755138097008")],
    ids=["ad", "pd"])
def test_single_lengths_match_a_40_digit_oracle(gen, oracle):
    # the oracle shares nothing with numpy's eig, the concurrence or the
    # search; its roots to 20 digits are pinned beside it
    root = _oracle_eb_length(gen, eb_length(gen, 6.0))
    assert mpmath.nstr(root, 20) == oracle
    assert abs(eb_length(gen, 6.0, xtol=1e-13) - root) <= 1e-12
    family = "ad" if gen is AD1 else "pd"
    args = cli._PARSER.parse_args(["continuous", "--family", family])
    _, length, text = cli._line(gen, args)
    assert abs(length - root) <= cli.EB_XTOL / 2
    assert abs(float(text.split()[1]) - root) <= cli.EB_XTOL


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


def test_rotating_generators_reject_non_finite_rates():
    for family in (rotating_ad_liouvillian, rotating_pd_liouvillian):
        for omega in (np.inf, -np.inf, np.nan):
            with pytest.raises(OutOfRange, match="omega"):
                family(1, omega, 1.0)
        for eps in (np.nan, np.inf, -1.0):
            with pytest.raises(OutOfRange, match="eps"):
                family(1, 1.5, eps)


def test_switched_line_rejects_non_finite_slices():
    for bad in (np.nan, np.inf, 0.0):
        with pytest.raises(OutOfRange, match="slice length"):
            SwitchedLine(AD1, AD2, bad)
        with pytest.raises(OutOfRange, match="total length"):
            switched_line(AD1, AD2, bad, 4)


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
    for make in (lambda: ad_channel(0.5), singlet_state,
                 lambda: qmath.Spectral(np.zeros((2, 2)))):
        a, b = make(), make()
        assert a == a and a != b
        assert len({a, b, a}) == 2 and hash(a) == hash(a)
