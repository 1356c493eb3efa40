"""Top-level acceptance gate.

Nine numbered criteria, one test each, each printing a single PASS/FAIL line
(the default ``-rA`` summary shows the lines for passing criteria too).  Every
clause of a criterion is evaluated before the verdict so a failing criterion
still reports which clauses held.  Criteria 4 and 5 check the driven lines
against the generators documented in entweave.continuous: criterion 4 holds
the breaking lengths to an independent master-equation integration, and
criterion 5 asks switched lines carved from those lengths to outlast the two
lines laid end to end.  The externally quoted readouts (1.75, 0.85 and their
doubled extensions at n = 2 and n = 4) are printed beside the faithful values
rather than asserted: these generators cannot produce them (see the comments
on both criteria).
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

from entweave.channels import (
    Unbounded,
    ad_channel,
    choi_state,
    compose,
    compose_signal_chain,
    eb_order,
    is_eb,
    pd_channel,
    superop_distance,
    unitary_channel,
)
from entweave.continuous import (
    SwitchedLine,
    concurrence_profile,
    eb_length,
    rotating_ad_liouvillian,
    rotating_pd_liouvillian,
    switched_line,
    trotter_gap,
)
from entweave.entanglement import concurrence, negativity
from entweave.optics import (
    alpha_for_eta,
    dif_map,
    hwp,
    identity_setup,
    m1_setup,
    m2_setup,
    mprime_setup,
    run_point,
    setup_map,
    sweep,
)
from entweave.qmath import (
    SIGMA_X,
    SIGMA_Z,
    maximally_entangled,
    partial_trace,
    projector,
)

from conftest import random_density


def _verdict(num: int, title: str, clauses: list[tuple[str, bool]]) -> None:
    ok = all(flag for _, flag in clauses)
    failed = [name for name, flag in clauses if not flag]
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {title}"
    if failed:
        line += " -- failed: " + ", ".join(failed)
    print(line)
    assert ok, line


def _interrupted_pair(base, u_mat):
    u = unitary_channel(u_mat)
    u_dag = unitary_channel(u_mat.conj().T)
    return compose(u, base), compose(base, u_dag)


def test_criterion_1_semigroup():
    grid = np.linspace(0.0, 1.0, 10)
    worst_ad = max(superop_distance(compose(ad_channel(a), ad_channel(b)),
                                    ad_channel(a * b))
                   for a in grid for b in grid)
    worst_pd = max(superop_distance(compose(pd_channel(a), pd_channel(b)),
                                    pd_channel(a * b))
                   for a in grid for b in grid)
    _verdict(1, "one-parameter semigroup composition", [
        (f"ad worst {worst_ad:.2e}", worst_ad < 1e-12),
        (f"pd worst {worst_pd:.2e}", worst_pd < 1e-12),
    ])


def test_criterion_2_interrupt_resume_identity():
    phi, psi = _interrupted_pair(ad_channel(0.3), SIGMA_X)
    word = compose_signal_chain([psi, phi, psi, phi])  # operator order PhiPsiPhiPsi
    dist = superop_distance(word, ad_channel(0.3 ** 4))
    c = concurrence(choi_state(word)).value
    _verdict(2, "alternating damping word collapses to the product channel", [
        (f"superop distance {dist:.2e}", dist < 1e-12),
        (f"Choi concurrence {c:.10f}", abs(c - 0.09) < 1e-9),
        ("interrupt factor order 2", eb_order(phi) == 2),
        ("resume factor order 2", eb_order(psi) == 2),
        ("doubled interrupt breaks", is_eb(compose(phi, phi)).eb),
        ("doubled resume breaks", is_eb(compose(psi, psi)).eb),
    ])


def test_criterion_3_dephasing_pair():
    u_mat = (SIGMA_Z - SIGMA_X) / math.sqrt(2.0)
    phi, _ = _interrupted_pair(pd_channel(0.4), u_mat)
    # p sampled above the classification floor p^16 > 1e-9; below it the
    # tolerance-based verdict cannot distinguish tiny positive concurrence
    # from zero (documented in test_channels)
    orders_unbounded = all(isinstance(eb_order(pd_channel(p)), Unbounded)
                           for p in (0.4, 0.7, 0.97))
    _verdict(3, "dephasing with a diagonal reflection breaks at order two", [
        ("interrupted order 2", eb_order(phi) == 2),
        ("bare dephasing never breaks", orders_unbounded),
    ])


# Drive and rate of the driven lines in criteria 4 and 5.
OMEGA, EPS = 1.5, 1.0
# Externally quoted breaking lengths.  No document in the repository sources
# them; each equals the faithful length truncated to a 0.05 grid.
QUOTED_AD_LENGTH, QUOTED_PD_LENGTH = 1.75, 0.85


def _reference_eb_length(family: str) -> float:
    """First length at which the driven line ``j = 1`` breaks entanglement,
    computed without the library's propagators or concurrence.

    Integrates the documented master equation on the maximally entangled
    probe, line on the first qubit: ``H = OMEGA sigma_x`` with either
    ``L = |0><1|`` at rate ``EPS`` (``"ad"``) or ``EPS (sigma_z rho sigma_z -
    rho)`` (``"pd"``).  A qubit map is entanglement breaking exactly when its
    Choi state is separable, which for two qubits is PPT (Horodecki, Shor &
    Ruskai, RMP 15, 629, 2003), so the length is the root of the smallest
    partial-transpose eigenvalue, located by the integrator's event search.
    """
    eye = np.eye(2)
    h = np.kron(OMEGA * np.array([[0, 1], [1, 0]], dtype=complex), eye)
    if family == "ad":
        jump = np.kron(np.array([[0, 1], [0, 0]], dtype=complex), eye)
        jj = jump.conj().T @ jump

        def dissipate(rho):
            return jump @ rho @ jump.conj().T - 0.5 * (jj @ rho + rho @ jj)
    else:
        z = np.kron(np.diag([1.0, -1.0]).astype(complex), eye)

        def dissipate(rho):
            return z @ rho @ z - rho

    def rhs(_, y):
        rho = y.reshape(4, 4)
        return (-1j * (h @ rho - rho @ h) + EPS * dissipate(rho)).ravel()

    def min_pt_eig(_, y):
        pt = y.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        return np.linalg.eigvalsh(pt)[0]

    min_pt_eig.terminal = True
    min_pt_eig.direction = 1
    phi = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0)
    sol = solve_ivp(rhs, (0.0, 6.0), np.outer(phi, phi.conj()).ravel(),
                    method="DOP853", rtol=1e-12, atol=1e-14, events=min_pt_eig)
    assert sol.t_events[0].size, f"{family} reference line unbroken to 6"
    return float(sol.t_events[0][0])


def test_criterion_4_single_line_thresholds():
    # eb_length rounds the root to a multiple of 1e-4, within the 2e-4 bound (the
    # same bound test_continuous.py freezes).  The reference gives 1.7739296
    # (AD) and 0.8955968 (PD); the quoted 1.75 and 0.85 are out of reach of
    # these generators: at eps = 1 the PD length falls from 1.249 at
    # omega = 0.5 towards 0.881 as omega grows (0.8822 at omega = 10).
    ref_ad = _reference_eb_length("ad")
    ref_pd = _reference_eb_length("pd")
    l_ad = eb_length(rotating_ad_liouvillian(1, OMEGA, EPS), 6.0)
    l_pd = eb_length(rotating_pd_liouvillian(1, OMEGA, EPS), 6.0)
    pure = eb_length(rotating_ad_liouvillian(1, 0.0, 1.0), 50.0)
    _verdict(4, f"driven-line breaking lengths match the master-equation "
                f"reference: AD {ref_ad:.4f} (quoted {QUOTED_AD_LENGTH}, gap "
                f"{ref_ad - QUOTED_AD_LENGTH:+.4f}), PD {ref_pd:.4f} (quoted "
                f"{QUOTED_PD_LENGTH}, gap {ref_pd - QUOTED_PD_LENGTH:+.4f})", [
        (f"AD length {l_ad:.6f} = {ref_ad:.6f} +/- 2e-4",
         abs(l_ad - ref_ad) <= 2e-4),
        (f"PD length {l_pd:.6f} = {ref_pd:.6f} +/- 2e-4",
         abs(l_pd - ref_pd) <= 2e-4),
        # lambda_min(rho^Gamma) = -e^(-x)/2 meets the band 16 (1 + sqrt 2)
        # eps lambda_max at 52 ln2 - ln(16 (1 + sqrt 2)): past it double
        # precision cannot tell the line from the separable boundary
        ("undriven line transmits to 32.3897, then undecided to 50",
         f"{pure:.4f}" == "undecided from 32.3897 (searched up to 50)"),
    ])


def test_criterion_5_switched_extension():
    # Two lines, each breaking at l, cut into slices of l/n and interleaved,
    # should outlast the two laid end to end (L_n > 2l).  The quoted clauses
    # ask this at n = 2 for AD and n = 4 for PD, which no drive or rate of
    # these generators meets: L_n/l depends only on omega/eps, and a scan of
    # omega/eps over [0.05, 30] (master-equation reference, eps = 1) peaks at
    # L_2/l = 1.97 for AD (near omega/eps = 0.8) and L_4/l = 1.75 for PD (near
    # 1.0).  At omega/eps = 1.5 the doubling comes at finer switching: AD
    # L_n/l = 1.634, 3.233, 4.873 and PD 1.264, 1.698, 2.245 at n = 2, 4, 8.
    clauses = []
    summary = []
    for family, make, first_expected, quoted_n in (
            ("ad", rotating_ad_liouvillian, 4, 2),
            ("pd", rotating_pd_liouvillian, 8, 4)):
        ell = _reference_eb_length(family)
        g1, g2 = make(1, OMEGA, EPS), make(2, OMEGA, EPS)
        lengths = {}

        def length(n):
            if n not in lengths:
                got = eb_length(SwitchedLine(g1, g2, ell / n),
                                6.0 * ell)
                lengths[n] = math.inf if isinstance(got, Unbounded) else got
            return lengths[n]

        seq = [length(n) for n in (1, 2, 4, 8)]
        first = next((n for n in (1, 2, 4, 8, 16) if length(n) > 2.0 * ell),
                     None)
        tag = family.upper()
        ratios = ", ".join(f"{v / ell:.3f}" for v in seq)
        summary.append(f"{tag} L_n/l {ratios} at n=1,2,4,8, doubles first at "
                       f"n={first} (quoted n={quoted_n})")
        clauses += [
            (f"{tag} n=1 length {seq[0]:.4f} = l {ell:.4f} +/- 2e-4",
             abs(seq[0] - ell) <= 2e-4),
            (f"{tag} L_n > l + 2e-4 for n >= 2",
             all(v > ell + 2e-4 for v in seq[1:])),
            (f"{tag} strictly increasing in n",
             all(a < b for a, b in zip(seq, seq[1:]))),
            (f"{tag} L_n > 2l first at n={first}, expected {first_expected}",
             first == first_expected),
        ]
    _verdict(5, "switching extends the breaking length: " + "; ".join(summary),
             clauses)


def test_criterion_6_fine_switching_limit():
    ad1 = rotating_ad_liouvillian(1, 1.5, 1.0)
    ad2 = rotating_ad_liouvillian(2, 1.5, 1.0)
    line = switched_line(ad1, ad2, 6.0, 64)
    xs = np.linspace(0.0, 6.0, 61)
    pts = concurrence_profile(line, 6.0, 61)
    sup = max(abs(p.pre_clamp - math.exp(-x / 2.0)) for p, x in zip(pts, xs))
    gaps = [trotter_gap(switched_line(ad1, ad2, 4.0, n), 4.0)
            for n in (16, 32, 64, 128, 256)]
    halving = all(0.3 < b / a < 0.7 for a, b in zip(gaps, gaps[1:]))
    _verdict(6, "dense switching converges to the mean line", [
        (f"profile sup gap {sup:.4f} < 0.02", sup < 0.02),
        ("propagator gap halves per doubling", halving),
    ])


def test_criterion_7_bench_against_algebra():
    u = unitary_channel(hwp(math.pi / 4))
    chains = {
        "mprime": (mprime_setup(),
                   [ad_channel(0.3), u, u, ad_channel(0.09), u, u,
                    ad_channel(0.3)]),
        "m1": (m1_setup(), [u, ad_channel(0.3), u, ad_channel(0.3)]),
        "m2": (m2_setup(), [ad_channel(0.3), u, ad_channel(0.3), u]),
    }
    clauses = []
    for name, (setup, chain) in chains.items():
        total, _ = setup_map(setup)
        d = superop_distance(total.normalized(), compose_signal_chain(chain))
        clauses.append((f"{name} distance {d:.2e}", d < 1e-9))
    worst = max(superop_distance(dif_map(alpha_for_eta(e)).normalized(),
                                 ad_channel(e))
                for e in np.arange(0.1, 0.95, 0.1))
    clauses.append((f"single-stage closure worst {worst:.2e}", worst < 1e-10))
    _verdict(7, "optical bench reproduces the channel algebra", clauses)


def test_criterion_8_experiment_curves():
    pi4 = math.pi / 4
    m1_at = lambda th: run_point(m1_setup(theta=th))[0]
    ideal = sweep(mprime_setup(), "theta", -math.pi / 2, math.pi / 2, 361)
    cs = [p.concurrence for p in ideal]
    peak_angles = [round(ideal[i].angle, 9) for i in range(1, 360)
                   if cs[i] > cs[i - 1] and cs[i] >= cs[i + 1] and cs[i] > 1e-9]
    peak_ok = peak_angles == [round(-pi4, 9), round(pi4, 9)]
    w = 0.96
    eta_t = 0.0081
    coh = w * math.sqrt(eta_t) / 2.0
    p00 = w * (1 - eta_t) / 2.0 + (1 - w) * (2 - eta_t) / 4.0
    p11 = (1 - w) * eta_t / 4.0
    closed = 2.0 * max(0.0, coh - math.sqrt(p00 * p11))
    peak_val = max(cs)
    meas = sweep(mprime_setup(preset="measured"), "theta",
                 -math.pi / 2, math.pi / 2, 361)
    mc = [p.concurrence for p in meas]
    heights = sorted(mc[i] for i in range(1, 360)
                     if mc[i] > mc[i - 1] and mc[i] >= mc[i + 1]
                     and mc[i] > 1e-9)
    unequal = bool(heights) and heights[-1] - heights[0] > 1e-3
    c_meas = run_point(identity_setup(preset="measured"))[0]
    per_dif = 1.0 - (c_meas / 0.94) ** (1.0 / 3.0)
    _verdict(8, "sweep features: plateaus, peak placement, element asymmetry", [
        ("m1 zero at +pi/4", m1_at(pi4) <= 1e-9),
        ("m1 zero at -pi/4", m1_at(-pi4) <= 1e-9),
        ("m1 positive at 0", m1_at(0.0) > 1e-6),
        (f"restored peaks exactly at +/-pi/4 {peak_angles}", peak_ok),
        (f"peak {peak_val:.8f} vs closed form {closed:.8f}",
         abs(peak_val - closed) < 1e-6),
        (f"measured peak heights unequal "
         f"[{heights[0]:.6f}, {heights[-1]:.6f}]", unequal),
        (f"measured degradation {per_dif:.3f}/stage >= 1.3%", per_dif >= 0.013),
    ])


def test_criterion_9_measure_sanity(rng):
    agree = True
    for _ in range(500):
        rho = random_density(4, rng, rank=int(rng.integers(1, 5)))
        c = concurrence(rho).value
        n = negativity(rho)
        if (c > 1e-7) != (n > 1e-7):
            # borderline states may straddle the tolerance; require a real split
            if max(c, n) > 1e-6:
                agree = False
    omega_ok = abs(concurrence(projector(maximally_entangled())).value - 1.0) < 1e-12
    mixed_ok = concurrence(np.eye(4) / 4.0).value == 0.0
    cptp = []
    for ch in (ad_channel(0.3), pd_channel(0.4),
               compose(ad_channel(0.5), unitary_channel(SIGMA_X))):
        choi = choi_state(ch)
        w = np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))
        marg = partial_trace(choi, keep=1)  # trace out the output slot
        cptp.append(w.min() > -1e-10
                    and np.allclose(marg, np.eye(2) / 2.0, atol=1e-10)
                    and abs(np.trace(choi).real - 1.0) < 1e-10)
    _verdict(9, "measure cross-checks and channel structure", [
        ("verdict agreement on 500 random states", agree),
        ("maximally entangled concurrence 1", omega_ok),
        ("maximally mixed concurrence 0", mixed_ok),
        ("Choi states are normalized CPTP duals", all(cptp)),
    ])
