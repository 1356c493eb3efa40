"""Interferometer bench: ideal closure onto damping, measured-element effects."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from entweave import optics
from entweave.channels import (
    QuantumChannel,
    _gram,
    ad_channel,
    compose_signal_chain,
    superop_distance,
    unitary_channel,
)
from entweave.entanglement import concurrence
from entweave.optics import (
    IDEAL,
    MEASURED,
    ElementInconsistent,
    OpticalSetup,
    ZeroSuccessProbability,
    alpha_for_eta,
    dif_map,
    hwp,
    identity_setup,
    m1_setup,
    m2_setup,
    mprime_setup,
    run_point,
    setup_map,
    source_state,
    sweep,
)
from entweave.qmath import OutOfRange, is_unitary, partial_trace, sandwich_superop
from entweave.states import validate_density

from conftest import on_first_qubit, refusal


HALF_PI = math.pi / 2


def _closed_form_peak(eta_total: float, w: float) -> float:
    # Werner input through a bare damping of transmission eta_total:
    # an X state, so the concurrence has a closed form
    coh = w * math.sqrt(eta_total) / 2.0
    p00 = w * (1.0 - eta_total) / 2.0 + (1.0 - w) * (2.0 - eta_total) / 4.0
    p11 = (1.0 - w) * eta_total / 4.0
    return 2.0 * max(0.0, coh - math.sqrt(p00 * p11))


def test_plate_matrix_properties():
    for xi in (0.0, 0.3, HALF_PI, 1.2):
        m = hwp(xi)
        assert is_unitary(m)
        assert np.allclose(m, m.conj().T)          # half-wave: involution
        assert np.allclose(hwp(xi + HALF_PI), -m)  # period pi/2 up to sign
    assert np.allclose(hwp(0.0), np.diag([1.0, -1.0]))


@pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 4), (2, 1, 3)])
def test_stacked_plates_equal_scalar_plates(rng, shape):
    xi = rng.uniform(-10.0, 10.0, size=shape)
    stack = hwp(xi)
    assert stack.shape == shape + (2, 2)
    for idx in np.ndindex(shape):
        assert (stack[idx] == hwp(float(xi[idx]))).all()


def test_alpha_for_eta_anchors():
    assert math.isclose(alpha_for_eta(1.0), HALF_PI, abs_tol=1e-12)
    assert math.isclose(alpha_for_eta(0.0), math.pi / 4, abs_tol=1e-12)
    assert math.isclose(alpha_for_eta(0.3), 1.0752180335793005, abs_tol=1e-12)
    with pytest.raises(OutOfRange):
        alpha_for_eta(1.3)


def test_element_validation():
    with pytest.raises(ElementInconsistent):
        replace(IDEAL, T=0.7, R=0.5)       # T + R > 1
    with pytest.raises(ElementInconsistent):
        replace(IDEAL, T=-0.1)


@pytest.mark.parametrize("field", ["T", "R", "T_H", "R_H", "T_V", "R_V"])
def test_nan_element_parameter_is_refused(field):
    # NaN fails every comparison, so a check not written for it lets it pass
    with pytest.raises(ElementInconsistent, match=f"{field[0]} = nan.*must be finite"):
        replace(IDEAL, **{field: math.nan})


@pytest.mark.parametrize("value", ["x", None, "0.5"])
@pytest.mark.parametrize("field", ["T", "R", "T_H", "R_H", "T_V", "R_V"])
def test_element_parameter_that_is_not_a_number_is_refused(field, value):
    # refused where the record is built, not when a bench first reads it
    with pytest.raises(TypeError, match="must be real number"):
        replace(IDEAL, **{field: value})


def _kron_dif_branches(alpha, el):
    """Reference (main, arm) of one DIF: the loop traced in the pol (x) path
    basis (path 0 = a, 1 = b) with 4x4 kron products, the signal entering
    on path a and the return pass through the inverse splitter."""
    def split(t, r, conj):
        ph = -1.0j if conj else 1.0j
        return np.array([[math.sqrt(t), ph * math.sqrt(r)],
                         [ph * math.sqrt(r), math.sqrt(t)]])

    def pbs(conj):
        return (np.kron(np.diag([1.0, 0.0]), split(el.T_H, el.R_H, conj))
                + np.kron(np.diag([0.0, 1.0]), split(el.T_V, el.R_V, conj)))

    loop = (np.kron(hwp(0.0), np.diag([1.0, 0.0]))
            + np.kron(hwp(alpha), np.diag([0.0, 1.0])))
    embed = np.kron(np.eye(2), np.array([[1.0], [0.0]]))
    stage = pbs(True) @ loop @ pbs(False) @ embed
    return (1.0j * math.sqrt(el.R) * stage[0::2],
            math.sqrt(el.T) * stage[1::2])


def test_dif_branches_match_kron_model(rng):
    # path couplings (c_a, c_b) folded into the output splitter as
    # (T c_b, R c_a): (0.9, 0.7) on the measured elements, (0.8, 0.6) on ideal
    lossy = replace(MEASURED, T=0.48 * 0.7, R=0.44 * 0.9)
    leaky = replace(IDEAL, T=0.5 * 0.6, R=0.5 * 0.8)
    for el in (IDEAL, MEASURED, lossy, leaky):
        for alpha in rng.uniform(-math.pi, math.pi, size=100):
            got = optics._dif_branches(alpha, el)
            for branch, ref in zip(got, _kron_dif_branches(alpha, el)):
                assert np.max(np.abs(branch - ref)) <= 1e-15


def test_ideal_dif_closes_onto_damping():
    for eta in (0.1, 0.2, 0.3, 0.5, 0.7, 0.9):
        ch = dif_map(alpha_for_eta(eta))
        assert superop_distance(ch.normalized(), ad_channel(eta)) < 1e-10
        gram = _gram(ch.superop)
        assert np.allclose(gram, np.eye(2) / 2.0, atol=1e-12)  # success 1/2


def test_ideal_identity_chain():
    c, succ = run_point(identity_setup())
    assert math.isclose(c, 0.94, abs_tol=1e-9)       # (3W - 1)/2 at W = 0.96
    assert math.isclose(succ, 0.125, abs_tol=1e-12)  # three half-losses


def test_mprime_peak_matches_closed_form():
    c, succ = run_point(mprime_setup())
    eta_total = (0.3 * 0.3) ** 2
    assert math.isclose(c, _closed_form_peak(eta_total, 0.96), abs_tol=1e-9)
    assert math.isclose(c, 0.07372269571241581, abs_tol=1e-12)
    assert math.isclose(succ, 0.125, abs_tol=1e-12)


def test_bench_matches_channel_algebra_at_peak():
    # the composed bench at theta = phi = pi/4 against the bare algebra chain
    u = unitary_channel(hwp(math.pi / 4))
    for setup, chain in (
        (mprime_setup(),
         [ad_channel(0.3), u, u, ad_channel(0.09), u, u, ad_channel(0.3)]),
        (m1_setup(),
         [u, ad_channel(0.3), u, ad_channel(0.3)]),
        (m2_setup(),
         [ad_channel(0.3), u, ad_channel(0.3), u]),
    ):
        total, _ = setup_map(setup)
        ref = compose_signal_chain(chain)
        assert superop_distance(total.normalized(), ref) < 1e-9


def test_m1_zero_plateau_and_center():
    at = lambda th: run_point(m1_setup(theta=th))[0]
    assert at(math.pi / 4) <= 1e-9
    assert at(-math.pi / 4) <= 1e-9
    assert math.isclose(at(0.0), _closed_form_peak(0.09, 0.96), abs_tol=1e-9)


def test_ideal_m1_m2_coincide():
    p1 = sweep(m1_setup(), "theta", -HALF_PI, HALF_PI, 61)
    p2 = sweep(m2_setup(), "phi", -HALF_PI, HALF_PI, 61)
    for a, b in zip(p1, p2):
        assert math.isclose(a.concurrence, b.concurrence, abs_tol=1e-12)


def test_measured_single_dif_transmission():
    ch = dif_map(HALF_PI, MEASURED)
    gram = _gram(ch.superop)
    succ = float(np.trace(gram).real / 2.0)  # on the maximally mixed input
    assert math.isclose(succ, 0.413918335, abs_tol=1e-9)
    assert 0.25 <= succ <= 0.42


def test_measured_identity_chain_frozen():
    c, succ = run_point(identity_setup(elements=MEASURED))
    assert math.isclose(c, 0.7047542750447778, abs_tol=1e-9)
    assert math.isclose(succ, 0.07117840508122039, abs_tol=1e-9)
    # concurrence degradation per DIF against the ideal baseline 0.94
    per_dif = 1.0 - (c / 0.94) ** (1.0 / 3.0)
    assert per_dif >= 0.013


def test_measured_mprime_peak_doublet():
    pts = sweep(mprime_setup(elements=MEASURED), "theta", -HALF_PI, HALF_PI, 361)
    cs = [p.concurrence for p in pts]
    peaks = [(pts[i].angle, cs[i]) for i in range(1, 360)
             if cs[i] > cs[i - 1] and cs[i] >= cs[i + 1] and cs[i] > 1e-9]
    assert len(peaks) == 4
    heights = sorted(c for _, c in peaks)
    assert math.isclose(heights[0], 0.03992062674487855, abs_tol=1e-9)
    assert math.isclose(heights[-1], 0.04095152500536525, abs_tol=1e-9)
    # unequal heights within each half-period, yet exact pi/2 translates:
    # hwp(theta + pi/2) = -hwp(theta) makes the bench periodic in theta
    assert heights[-1] - heights[0] > 1e-3
    a = run_point(mprime_setup(0.3, 0.3, theta=0.31, elements=MEASURED))[0]
    b = run_point(mprime_setup(0.3, 0.3, theta=0.31 + HALF_PI,
                               elements=MEASURED))[0]
    assert math.isclose(a, b, abs_tol=1e-12)


def test_measured_m1_m2_split():
    p1 = sweep(m1_setup(elements=MEASURED), "theta", -HALF_PI, HALF_PI, 181)
    p2 = sweep(m2_setup(elements=MEASURED), "phi", -HALF_PI, HALF_PI, 181)
    gap = max(abs(a.concurrence - b.concurrence) for a, b in zip(p1, p2))
    assert math.isclose(gap, 0.1030525434118771, abs_tol=1e-9)
    z1 = sum(1 for p in p1 if p.concurrence <= 1e-9)
    z2 = sum(1 for p in p2 if p.concurrence <= 1e-9)
    assert (z1, z2) == (78, 104)  # unequal zero plateaus
    assert math.isclose(p1[90].concurrence, 0.1624973754229532, abs_tol=1e-9)
    assert math.isclose(p2[90].concurrence, 0.1533548529035786, abs_tol=1e-9)


def test_monte_carlo_phase_average(rng):
    # N seeded draws of the output phase, as the Kraus operators
    # (main + e^{i omega} arm) / sqrt(N), give dif_map plus the cross terms
    # z S(arm, main) + conj(z) S(main, arm) of their mean phase factor z: an
    # exact identity, so averaging the phase exactly (z = 0) leaves dif_map
    alpha = alpha_for_eta(0.3)
    lossy = replace(MEASURED, T=0.48 * 0.7, R=0.44 * 0.9)
    for el in (IDEAL, MEASURED, lossy):
        main, arm = optics._dif_branches(alpha, el)
        phases = np.exp(1.0j * rng.uniform(0.0, 2.0 * math.pi, size=200))
        sampled = QuantumChannel.from_kraus(
            [(main + ph * arm) / math.sqrt(phases.size) for ph in phases])
        z = phases.mean()
        expect = (dif_map(alpha, el).superop
                  + z * sandwich_superop(arm, main)
                  + z.conj() * sandwich_superop(main, arm))
        assert superop_distance(sampled, expect) < 1e-12


def test_source_state_options():
    rho = source_state(identity_setup())
    assert math.isclose(concurrence(rho).value, 0.94, abs_tol=1e-12)
    # verdicts cannot depend on the unpinned pair phase
    for phase in (0.0, 1.0, math.pi):
        c, _ = run_point(identity_setup(source_phase=phase))
        assert math.isclose(c, 0.94, abs_tol=1e-9)
    # the phase is a local unitary on the untouched qubit, so a whole
    # measured-element sweep, concurrence and success, is unchanged by it
    sweeps = [sweep(mprime_setup(elements=MEASURED, source_phase=phase),
                    "theta", -HALF_PI, HALF_PI, 61)
              for phase in (0.0, 1.0, math.pi)]
    for pts in sweeps[:2]:
        for p, q in zip(pts, sweeps[2]):
            assert abs(p.concurrence - q.concurrence) <= 1e-12
            assert abs(p.success_prob - q.success_prob) <= 1e-12
    assert max(p.concurrence for p in sweeps[2]) > 0.0


@pytest.mark.parametrize("w", [0.0, 1.0 / 3.0, 0.5, 0.96, 1.0])
@pytest.mark.parametrize("phase", [0.0, 1.0, math.pi, 1e300])
def test_formed_source_state_is_a_werner_state(w, phase):
    # the input is formed from checked parameters and not validated again:
    # it must still be a state, maximally mixed on each side, of the Werner
    # concurrence
    rho = source_state(identity_setup(w=w, source_phase=phase))
    validate_density(rho)
    for keep in (0, 1):
        assert np.max(np.abs(partial_trace(rho, keep) - np.eye(2) / 2.0)) <= 1e-15
    expect = max(0.0, (3.0 * w - 1.0) / 2.0)
    assert abs(concurrence(rho).value - expect) <= 1e-12


def test_setup_validation():
    with pytest.raises(OutOfRange):
        OpticalSetup(0.1, 0.1, math.inf)
    # finite, but twice the angle overflows in hwp's cos and sin
    for name in ("alpha1", "theta", "phi"):
        with pytest.raises(OutOfRange, match=f"{name} = -1e\\+308 exceeds"):
            replace(mprime_setup(), **{name: -1e308})
    with pytest.raises(OutOfRange):
        mprime_setup(w=1.3)
    with pytest.raises(ElementInconsistent):  # one element set serves all DIFs
        OpticalSetup(0.1, 0.1, 0.1, elements=(IDEAL, IDEAL, IDEAL))


def test_nan_source_phase_and_one_sweep_step_are_refused():
    # NaN fails every comparison; a sweep grid has both ends
    assert refusal(replace, mprime_setup(), source_phase=math.nan) == (
        OutOfRange, "source_phase is not finite")
    assert refusal(sweep, m1_setup(), "theta", -1.0, 1.0, 1) == (
        OutOfRange, "need at least two sweep steps")


def test_zero_success_raises():
    dark = replace(IDEAL, T=0.0, R=0.0)
    s = identity_setup()
    s = OpticalSetup(s.alpha1, s.alpha21, s.alpha2, theta=None, phi=None,
                     elements=dark)
    with pytest.raises(ZeroSuccessProbability):
        run_point(s)


def test_sweep_grid_and_csv(tmp_path):
    pts = sweep(m1_setup(), "theta", -1.0, 1.0, 5)
    assert [round(p.angle, 10) for p in pts] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    with pytest.raises(OutOfRange):
        sweep(m1_setup(), "gamma", -1.0, 1.0, 5)
    # the command line writes each sweep as this text
    from entweave.cli import SWEEP_HEADER, _csv_text

    path, path2 = tmp_path / "s.csv", tmp_path / "s2.csv"
    for p in (path, path2):
        p.write_text(_csv_text(SWEEP_HEADER, pts, "ideal", "m1"), newline="")
    lines = path.read_text().splitlines()
    assert lines[0] == "angle,concurrence,success_prob,preset,map_label"
    assert len(lines) == 6
    assert path.read_bytes() == path2.read_bytes()


def _reference_point(s):
    """Per-point bench from the public channel algebra: DIF channels and
    plate channels composed in signal order, applied to the first qubit of
    the Werner input by the block reference ``on_first_qubit``."""
    out = on_first_qubit(_reference_map(s).superop, source_state(s))
    succ = float(np.trace(out).real)
    rho = out / succ
    return concurrence(0.5 * (rho + rho.conj().T)).value, succ


def _reference_map(s):
    plates = [unitary_channel(hwp(xi)) for xi in (s.phi, s.theta) if xi is not None]
    return compose_signal_chain([dif_map(s.alpha1, s.elements), *plates,
                                 dif_map(s.alpha21, s.elements), *plates,
                                 dif_map(s.alpha2, s.elements)])


@pytest.mark.parametrize("elements", [IDEAL, MEASURED], ids=["ideal", "measured"])
@pytest.mark.parametrize("make, vary", [
    (mprime_setup, "theta"), (m1_setup, "theta"), (m2_setup, "phi"),
    (identity_setup, "theta"), (m1_setup, "phi"), (m2_setup, "theta"),
])
def test_stacked_sweep_matches_channel_algebra(make, vary, elements):
    s = make(elements=elements)
    pts = sweep(s, vary, -HALF_PI, HALF_PI, 61)
    assert len(pts) == 61
    # a removed plate (None) stays removed: every point is the plate-free bench
    present = getattr(s, vary) is not None
    for p in pts:
        c, succ = _reference_point(replace(s, **{vary: p.angle}) if present else s)
        assert abs(p.concurrence - c) <= 1e-12
        assert abs(p.success_prob - succ) <= 1e-12


@pytest.mark.parametrize("steps", [61, optics._STACK_POINTS + 3])
@pytest.mark.parametrize("vary", ["theta", "phi"])
@pytest.mark.parametrize("elements", [IDEAL, MEASURED], ids=["ideal", "measured"])
def test_sweep_points_equal_run_point_exactly(elements, vary, steps):
    # a stack of angles and a single setting are the same arithmetic
    for make in (mprime_setup, m1_setup, m2_setup, identity_setup):
        s = make(elements=elements)
        present = getattr(s, vary) is not None
        for p in sweep(s, vary, -HALF_PI, HALF_PI, steps):
            c, succ = run_point(replace(s, **{vary: p.angle}) if present else s)
            assert (p.concurrence, p.success_prob) == (c, succ)


@pytest.mark.parametrize("elements", [IDEAL, MEASURED], ids=["ideal", "measured"])
@pytest.mark.parametrize("make, vary, flat", [
    (identity_setup, "theta", True), (identity_setup, "phi", True),
    (m1_setup, "phi", True), (m2_setup, "theta", True),
    (mprime_setup, "theta", False), (m1_setup, "theta", False),
    (m2_setup, "phi", False),
])
def test_sweep_over_absent_plate_scores_one_map(monkeypatch, elements, make,
                                                vary, flat):
    scored, score = [], optics._scores

    def spy(rho):
        scored.append(rho.shape)
        return score(rho)

    monkeypatch.setattr(optics, "_scores", spy)
    steps = optics._STACK_POINTS + 3
    pts = sweep(make(elements=elements), vary, -HALF_PI, HALF_PI, steps)
    assert scored == [(1 if flat else n, 4, 4) for n in (optics._STACK_POINTS, 3)]
    assert len(pts) == steps
    if flat:
        assert len({(p.concurrence, p.success_prob) for p in pts}) == 1


def test_overflowing_sweep_is_refused_before_any_plate(monkeypatch):
    formed = []
    monkeypatch.setattr(optics, "hwp", lambda xi: formed.append(xi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lo, hi in ((0.0, 1e308), (-1e308, 0.0), (-1e308, 1e308)):
            with pytest.raises(OutOfRange, match="theta = .* exceeds"):
                sweep(mprime_setup(), "theta", lo, hi, 5)
    assert formed == []


def test_dark_sweep_raises_with_label():
    dark = replace(IDEAL, T=0.0, R=0.0)
    s = replace(identity_setup(), elements=dark)
    with pytest.raises(ZeroSuccessProbability, match="identity"):
        sweep(s, "theta", -1.0, 1.0, 5)
    with pytest.raises(OutOfRange, match="theta is not finite"):
        sweep(identity_setup(), "theta", 0.0, math.nan, 5)
