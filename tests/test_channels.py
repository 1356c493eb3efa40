"""Channel algebra: superoperator/Kraus/Choi consistency and EB verdicts."""

import ast
import importlib
import inspect
import math
import pkgutil
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entweave
from entweave.channels import (
    NotCompletelyPositive,
    _OrderSearch,
    _gram,
    _orders_and_margins,
    _ppt_verdicts,
    _top_eigenvalue,
    QuantumChannel,
    ToleranceConflict,
    Unbounded,
    Undecided,
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
from entweave.continuous import Liouvillian
from entweave.entanglement import concurrence
from entweave.optics import alpha_for_eta, dif_map
from entweave.qmath import (
    SIGMA_X,
    SIGMA_Z,
    TOL,
    DimensionMismatch,
    OutOfRange,
    choi_matrices,
    maximally_entangled,
    partial_transpose,
    projector,
    sandwich_superop,
    superop_of_choi,
    unvec,
    vec,
)
from entweave.states import validate_density

from conftest import haar_unitary, random_channel, random_density, random_kraus

unit = st.floats(min_value=0.0, max_value=1.0)


def _restored_pair(eta=0.3, u_mat=SIGMA_X):
    u = unitary_channel(u_mat)
    u_dag = unitary_channel(u_mat.conj().T)
    base = ad_channel(eta)
    return compose(u, base), compose(base, u_dag)  # interrupt, resume


def test_basic_channel_shapes():
    c = ad_channel(0.3)
    assert c.trace_preserving
    assert np.linalg.matrix_rank(choi_matrices(c.superop)) == 2  # two Kraus operators
    assert c.superop.shape == (4, 4)


def test_validation_guards():
    with pytest.raises(OutOfRange):
        ad_channel(-0.1)
    with pytest.raises(OutOfRange):
        pd_channel(1.5)
    with pytest.raises(DimensionMismatch):
        QuantumChannel.from_kraus(())
    # Kraus set with gram above identity amplifies trace
    with pytest.raises(ValueError):
        QuantumChannel.from_kraus((np.eye(2) * 1.1,))
    # every map is a qubit map and every scored state a two-qubit state:
    # anything else is refused where it enters, naming its shape
    widen = np.zeros((3, 2), dtype=complex)
    widen[:2, :2] = np.eye(2)  # a qubit embedded in a qutrit
    stack = np.broadcast_to(np.eye(9, dtype=complex), (5, 9, 9))
    for refused, shape in (
            (lambda: QuantumChannel(np.eye(9)), "(9, 9)"),
            (lambda: QuantumChannel.from_kraus((widen,)), "(3, 2)"),
            (lambda: Liouvillian(np.zeros((9, 9))), "(9, 9)"),
            (lambda: choi_matrices(stack), "(5, 9, 9)"),
            (lambda: superop_of_choi(stack), "(5, 9, 9)"),
            (lambda: partial_transpose(stack), "(5, 9, 9)"),
            (lambda: concurrence(np.eye(3) / 3.0), "(3, 3)")):
        with pytest.raises(DimensionMismatch, match=re.escape(shape)):
            refused()


def test_superop_matches_kraus_action(rng):
    kraus = random_kraus(2, 3, rng)
    c = QuantumChannel.from_kraus(kraus)
    rho = random_density(2, rng)
    direct = sum(k @ rho @ k.conj().T for k in kraus)
    assert np.allclose(unvec(c.superop @ vec(rho)), direct)


@settings(max_examples=50, deadline=None)
@given(unit, unit)
def test_ad_semigroup(a, b):
    d = superop_distance(compose(ad_channel(a), ad_channel(b)), ad_channel(a * b))
    assert d < 1e-12


@settings(max_examples=50, deadline=None)
@given(unit, unit)
def test_pd_semigroup(a, b):
    d = superop_distance(compose(pd_channel(a), pd_channel(b)), pd_channel(a * b))
    assert d < 1e-12


def test_choi_concurrence_closed_forms():
    # AD: sqrt(eta); PD: p
    for eta in (0.0, 0.09, 0.3, 0.77, 1.0):
        c = concurrence(choi_state(ad_channel(eta))).value
        assert math.isclose(c, math.sqrt(eta), abs_tol=1e-8)
    for p in (0.0, 0.4, 0.9, 1.0):
        c = concurrence(choi_state(pd_channel(p))).value
        assert math.isclose(c, p, abs_tol=1e-8)


def test_choi_of_identity_is_maximally_entangled():
    choi = choi_state(QuantumChannel.from_kraus((np.eye(2),)))
    v = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert np.allclose(choi, np.outer(v, v))


def test_choi_superop_roundtrip(rng):
    c = random_channel(2, 4, rng)
    rebuilt = QuantumChannel(c.superop)
    assert superop_distance(c, rebuilt) < 1e-12
    assert np.linalg.matrix_rank(choi_matrices(rebuilt.superop)) == 4  # four Kraus operators


def test_superop_constructor_rejects_non_cp_and_amplifying():
    # the transpose map is positive but not completely positive
    t = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2))
            e[i, j] = 1.0
            t[:, i + 2 * j] = e.T.flatten(order="F")
    with pytest.raises(NotCompletelyPositive):
        QuantumChannel(t)
    # completely positive, but the Gram matrix is 1.21 times the identity
    with pytest.raises(ValueError, match="amplifies trace"):
        QuantumChannel(1.21 * np.eye(4))
    with pytest.raises(DimensionMismatch):
        QuantumChannel(np.eye(4)[:3])


def _choi_of(choi: np.ndarray) -> np.ndarray:
    """The superoperator of an unnormalized Choi matrix."""
    return superop_of_choi(np.asarray(choi, dtype=complex))


_AD = ad_channel(0.3).superop


@pytest.mark.parametrize("superop, error, message", [
    (np.zeros((4, 4, 1)), DimensionMismatch, "expected a matrix, got shape (4, 4, 1)"),
    (np.eye(3), DimensionMismatch, "shape (3, 3) does not end in the qubit shape (4, 4)"),
    (_choi_of(np.eye(4) + np.triu(np.ones((4, 4)), 1) * 1e-7), NotCompletelyPositive,
     "Choi matrix is not Hermitian"),
    (_choi_of(np.diag([1.0, 0.0, 0.0, -2e-9])), NotCompletelyPositive,
     "Choi matrix has negative eigenvalue -2.000e-09"),
    (2 * _AD, ValueError, "map amplifies trace: max eig 2.000000"),
])
def test_channel_refusals_keep_their_class_and_message(superop, error, message):
    with pytest.raises(ValueError) as info:
        QuantumChannel(superop)
    assert type(info.value) is error
    assert str(info.value) == message


def test_trace_preserving_flag():
    assert QuantumChannel(_AD).trace_preserving
    assert not QuantumChannel(0.5 * _AD).trace_preserving


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
def test_non_finite_superoperators_are_refused_as_such(bad):
    # finiteness is checked before the Choi matrix is formed, so neither a
    # wrong reason ("not Hermitian") nor a floating-point warning comes first
    s = _AD.copy()
    s[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            QuantumChannel(s)
    assert type(info.value) is ValueError
    assert str(info.value) == "superoperator has non-finite entries"


def _reference_verdict(s: np.ndarray):
    """What the channel checks gave when each was its own numpy call: the
    refusal class, or else ``trace_preserving``."""
    choi = np.einsum("jiba->iajb", s.reshape(2, 2, 2, 2)).reshape(4, 4)
    if not np.max(np.abs(choi - choi.conj().T)) <= 1e-8:
        return NotCompletelyPositive
    if np.linalg.eigvalsh(choi)[0] < -TOL.psd:
        return NotCompletelyPositive
    gram = unvec(vec(np.eye(2)) @ s).T
    if np.linalg.eigvalsh(gram)[-1] > 1.0 + TOL.psd:
        return ValueError
    return bool(np.max(np.abs(gram - np.eye(2))) <= TOL.structural)


# Gram eigenvalues at and around the two edges the checks draw: 1 + TOL.psd
# (amplifies trace) and |gram - I| = TOL.structural (trace preserving)
_EDGES = (-1e-6, -1e-9, -1e-10, -1e-11, 0.0, 1e-11, 1e-10, 5e-10,
          1e-9 - 1e-12, 1e-9, 1e-9 + 1e-12, 1e-8, 1e-6)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), env=st.integers(1, 4),
       top=st.sampled_from(_EDGES),
       other=st.one_of(st.sampled_from(_EDGES), st.floats(-0.9, 0.0)))
def test_one_pass_checks_match_the_separate_ones(seed, env, top, other):
    # a random trace-preserving map, then a Kraus factor whose Gram matrix
    # has eigenvalues about 1 + top and 1 + other
    rng = np.random.default_rng(seed)
    v = haar_unitary(2, rng)
    a = v @ np.diag(np.sqrt([1.0 + top, 1.0 + other])) @ v.conj().T
    s = sum(sandwich_superop(k @ a, k @ a) for k in random_kraus(2, env, rng))
    gram = _gram(s)
    assert np.array_equal(gram, unvec(vec(np.eye(2)) @ s).T)
    # eigvalsh itself is off by up to about 4.5 eps here, the closed form
    # by about 1 eps, against 40-digit references
    top_eig = _top_eigenvalue(gram[0, 0].real, gram[1, 0], gram[1, 1].real)
    assert abs(top_eig - np.linalg.eigvalsh(gram)[-1]) <= 8 * np.finfo(float).eps
    try:
        verdict = QuantumChannel(s).trace_preserving
    except ValueError as exc:
        verdict = type(exc)
    assert verdict == _reference_verdict(s)


def test_choi_matrix_is_the_e_ij_sum(rng):
    # a qubit channel from a Haar isometry into a qutrit environment
    iso = haar_unitary(6, rng)[:, :2]
    c = QuantumChannel.from_kraus((iso[:2], iso[2:4], iso[4:]))
    expect = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            expect += np.kron(unvec(c.superop @ vec(e)), e)
    assert np.array_equal(choi_matrices(c.superop), expect)


def test_compose_is_associative(rng):
    a, b, c = (random_channel(2, 2, rng) for _ in range(3))
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    assert superop_distance(left, right) < 1e-12


def test_signal_chain_matches_stepwise_action(rng):
    chain = [random_channel(2, 3, rng) for _ in range(4)]
    total = compose_signal_chain(chain)
    rho = random_density(2, rng)
    step = rho
    for c in chain:
        step = unvec(c.superop @ vec(step))
    assert np.allclose(unvec(total.superop @ vec(rho)), step)


def test_unitary_channels_never_break(rng):
    for _ in range(10):
        u = unitary_channel(haar_unitary(2, rng))
        verdict = is_eb(u)
        assert not verdict.eb
        assert math.isclose(verdict.margin, 1.0, abs_tol=1e-7)
        assert isinstance(eb_order(u, 8), Unbounded)


def _depolarizing(lam=0.0):
    """``rho -> lam rho + (1 - lam) I/2``: its n-th power has a Werner Choi
    state of weight ``lam^n``, which breaks once ``lam^n <= 1/3``."""
    paulis = (SIGMA_X, np.array([[0, -1j], [1j, 0]]), SIGMA_Z)
    kraus = (math.sqrt((1.0 + 3.0 * lam) / 4.0) * np.eye(2, dtype=complex),
             *(math.sqrt((1.0 - lam) / 4.0) * m for m in paulis))
    return QuantumChannel.from_kraus(kraus)


def test_fully_depolarizing_is_eb_order_one():
    dep = _depolarizing()
    assert is_eb(dep).eb
    assert eb_order(dep) == 1


def test_channels_on_the_ppt_boundary_are_undecided():
    # ad(0) and pd(0) have lambda_min(rho^Gamma) = 0 exactly: ad(eta) never
    # breaks for eta > 0 and pd(p) for p > 0, and double precision cannot
    # tell the boundary from those channels, so power 1 is already undecided
    for c in (ad_channel(0.0), pd_channel(0.0)):
        assert np.linalg.eigvalsh(partial_transpose(choi_matrices(c.superop) / 2))[0] == 0.0
        assert eb_order(c) == Undecided(1, None, 16.0)
        assert not is_eb(c).eb
    # the fully depolarizing channel's is I/4, far from the boundary
    assert eb_order(_depolarizing()) == 1


def test_interrupted_pair_breaks_at_two():
    phi, psi = _restored_pair()
    for c in (phi, psi):
        assert not is_eb(c).eb
        assert eb_order(c) == 2
        assert is_eb(compose(c, c)).eb


def test_alternating_word_restores_damping():
    phi, psi = _restored_pair()
    word = compose_signal_chain([psi, phi, psi, phi])
    assert superop_distance(word, ad_channel(0.3 ** 4)) < 1e-12
    c = concurrence(choi_state(word)).value
    assert math.isclose(c, 0.09, abs_tol=1e-9)
    assert not is_eb(word).eb
    # while the blocked word is already separable
    blocked = compose_signal_chain([psi, psi, phi, phi])
    assert is_eb(blocked).eb


def test_pd_pair_with_diagonal_reflection():
    u_mat = (SIGMA_Z - SIGMA_X) / math.sqrt(2.0)
    p = compose(unitary_channel(u_mat), pd_channel(0.4))
    assert eb_order(p) == 2
    # a bare dephasing never breaks for p > 0
    for val in (0.4, 0.97):
        assert isinstance(eb_order(pd_channel(val)), Unbounded)


def _eb_order_per_power(c, max_n):
    """Reference: compose the powers one by one and classify each by the
    band, lambda_min of its normalized Choi state's partial transpose against
    delta_n = n eps lambda_max (breaks at or above it, transmits at or below
    -delta_n)."""
    power, first = c.superop, None
    for n in range(1, max_n + 1):
        if n > 1:
            power = c.superop @ power
        rho = choi_matrices(power)
        rho = rho / np.trace(rho)
        w = np.linalg.eigvalsh(partial_transpose(0.5 * (rho + rho.conj().T)))
        band = n * np.finfo(float).eps * w[-1]
        if first is None and w[0] > -band:
            first = n
        if w[0] >= band:
            return n if first == n else Undecided(first, n, float(max_n))
    return Unbounded(float(max_n)) if first is None else Undecided(first, None, float(max_n))


def test_stacked_eb_order_matches_per_power_reference(rng):
    cases = [(ad_channel(0.3), 16), (pd_channel(0.05), 16),
             (pd_channel(0.4), 16),            # never breaks: Unbounded
             (ad_channel(0.55), 80),           # undecided from 54, 0.55^54 < 54 eps
             (pd_channel(0.73), 80),           # 0.73^80 > 80 eps: Unbounded
             (_with_order(70, True), 80),      # order 70, past the square 64
             (_with_order(66, False), 80),     # order 66
             (unitary_channel(haar_unitary(2, rng)), 5)]
    for k in range(24):
        value = float(rng.uniform(0.05, 0.95))
        base = ad_channel(value) if k % 2 else pd_channel(value)
        u_mat = haar_unitary(2, rng)
        u, u_dag = unitary_channel(u_mat), unitary_channel(u_mat.conj().T)
        cases += [(compose(u, base), 12), (compose(base, u_dag), 12)]
    orders = []
    for c, max_n in cases:
        got = eb_order(c, max_n)
        orders.append(got)
        assert got == _eb_order_per_power(c, max_n)
        # the discrete report's one scoring gives is_eb's margin exactly
        assert (_orders_and_margins(np.stack([c.superop]), max_n)[0]
                == [(got, is_eb(c).margin)])
    assert orders[1:7] == [Undecided(12, None, 16.0), Unbounded(16.0),
                           Undecided(54, None, 80.0), Unbounded(80.0), 70, 66]
    assert sum(isinstance(o, Unbounded) for o in orders) >= 3
    assert len({o for o in orders if isinstance(o, int)}) >= 4
    # many channels searched together: rows resolve in different rounds,
    # some past the square 64, and each matches its own reference
    phi, _ = _restored_pair()
    mixed = [_depolarizing(), phi, pd_channel(0.05), _with_order(66, False),
             _with_order(70, True), pd_channel(0.97), ad_channel(0.55)]
    for max_n in (1, 3, 5, 17, 64, 80):
        scored = _orders_and_margins(np.stack([c.superop for c in mixed]), max_n)[0]
        assert len(scored) == len(mixed)
        for c, (order, margin) in zip(mixed, scored):
            assert order == _eb_order_per_power(c, max_n)
            assert margin == is_eb(c).margin
    assert [o for o, _ in scored] == [1, 2, Undecided(12, None, 80.0), 66, 70,
                                      Unbounded(80.0), Undecided(54, None, 80.0)]


def _counting_scores(monkeypatch):
    """The stack shapes every call of ``_ppt_verdicts`` is given."""
    import entweave.channels as channels

    shapes = []
    true_verdicts = channels._ppt_verdicts

    def counting(rho, exps):
        shapes.append(np.shape(rho)[:-2])
        return true_verdicts(rho, exps)

    monkeypatch.setattr(channels, "_ppt_verdicts", counting)
    return shapes


def test_breaking_orders_stop_at_the_stack_that_holds_them(monkeypatch):
    # the first round holds powers 1-4 and the squares 8-64 of every row, so
    # at max 64 it settles them all; past 64 a row that has not broken
    # gallops on, one square per round, and a row that breaks inside its
    # bracket narrows it
    shapes = _counting_scores(monkeypatch)

    phi, psi = _restored_pair()
    blocked = compose_signal_chain([psi, psi, phi, phi])  # breaks at once
    scored, states, rounds = _orders_and_margins(
        np.stack([c.superop for c in [phi, psi, blocked]]), 64)
    assert [o for o, _ in scored] == [2, 2, 1]
    assert shapes == [(24,)] and (states, rounds) == (24, 1)  # 3 x 8, not 3 x 64
    shapes.clear()
    scored, states, rounds = _orders_and_margins(
        np.stack([c.superop for c in [phi, pd_channel(0.97), psi]]), 64)
    assert [o for o, _ in scored] == [2, Unbounded(64.0), 2]
    assert shapes == [(24,)] and (states, rounds) == (24, 1)
    shapes.clear()
    assert _orders_and_margins(np.stack([pd_channel(0.97).superop]), 200)[1:] == (10, 3)
    assert shapes == [(8,), (1,), (1,)]  # 1-4 and 8-64, 128, then 200
    shapes.clear()
    # a channel that breaks at 70: powers 1-4 and 8, ..., 64, then 80 (capped
    # at max_n) closes the bracket and its 15 interior powers find the order
    scored, states, rounds = _orders_and_margins(np.stack([_with_order(70, True).superop]), 80)
    assert scored[0][0] == 70 and (states, rounds) == (24, 3)
    assert shapes == [(8,), (1,), (15,)]
    shapes.clear()
    # the bare ad(0.55) never breaks: undecided from 64 in the first round,
    # so the second holds the 31 powers inside (32, 64), which find the first
    # undecided power, and the gallop's 80
    scored, states, rounds = _orders_and_margins(np.stack([ad_channel(0.55).superop]), 80)
    assert scored[0][0] == Undecided(54, None, 80.0) and (states, rounds) == (40, 2)
    assert shapes == [(8,), (32,)]


def test_each_round_forms_and_scores_its_states_once(monkeypatch):
    # per scoring round: one normalization of its Choi states and one
    # eigvalsh over exactly its N partial transposes, not the states as well
    # (2N).  Power 1's concurrence is read off the first round's rows: one
    # eigh over one state per channel per run
    import entweave.channels as channels

    phi, psi = _restored_pair()
    chans = [phi, psi, pd_channel(0.97), _with_order(70, True)]
    shapes = _counting_scores(monkeypatch)
    calls = {"eigvalsh": [], "eigh": [], "_normalized": []}
    for module, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigh"),
                         (channels, "_normalized")):
        def recording(a, *rest, _inner=getattr(module, name), _name=name):
            calls[_name].append(np.shape(a))
            return _inner(a, *rest)
        monkeypatch.setattr(module, name, recording)
    scored, states, rounds = _orders_and_margins(np.stack([c.superop for c in chans]), 200)
    assert [o for o, _ in scored] == [2, 2, Unbounded(200.0), 70]
    assert calls["_normalized"] == calls["eigvalsh"] == [(*s, 4, 4) for s in shapes]
    assert len(shapes) == rounds and sum(math.prod(s) for s in shapes) == states
    assert calls["eigh"] == [(len(chans), 4, 4)]


def test_the_positivity_floor_is_held_only_where_states_enter():
    # states._checked_psd is called by concurrence and validate_density
    # alone: derived states, powers, line points and bench outputs are
    # scored as formed
    callers = []
    for info in pkgutil.iter_modules(entweave.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"entweave.{info.name}")))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(n, ast.Call) and getattr(n.func, "id",
                                                        getattr(n.func, "attr", None))
                    == "_checked_psd" for n in ast.walk(fn)):
                callers.append((info.name, fn.name))
    assert sorted(callers) == [("entanglement", "concurrence"),
                               ("states", "validate_density")]


def test_an_unbounded_row_costs_one_round_at_max_64(monkeypatch):
    # pd(0.97) never breaks by power 64: powers 1-4, 8, 16, 32 and 64 in one
    # round, 8 Choi states instead of 64
    shapes = _counting_scores(monkeypatch)
    scored, states, rounds = _orders_and_margins(np.stack([pd_channel(0.97).superop]), 64)
    assert scored[0][0] == Unbounded(64.0)
    assert shapes == [(8,)] and (states, rounds) == (8, 1)


def _recording_searches(monkeypatch):
    """Every exponent the search forms, per round: the first round's list
    (:func:`_first_round`) and each later :meth:`_OrderSearch.next_powers`
    that forms any, its pieces joined."""
    import entweave.channels as channels

    formed = []
    true_first_round, true_next_powers = channels._first_round, _OrderSearch.next_powers

    def first_round(superops, max_n):
        exps, powers, squares = true_first_round(superops, max_n)
        formed.append((None, list(exps)))
        return exps, powers, squares

    def next_powers(search, max_n):
        pieces = true_next_powers(search, max_n)
        if pieces:
            formed.append((search, [e for exps, _ in pieces for e in exps]))
        return pieces

    monkeypatch.setattr(channels, "_first_round", first_round)
    monkeypatch.setattr(_OrderSearch, "next_powers", next_powers)
    return formed


def test_gallop_resumes_past_64_one_square_per_round(monkeypatch):
    formed = _recording_searches(monkeypatch)
    scored = _orders_and_margins(np.stack([pd_channel(0.97).superop]), 200)[0]
    assert scored[0][0] == Unbounded(200.0)
    assert [exps for _, exps in formed] == [[1, 2, 3, 4, 8, 16, 32, 64], [128], [200]]
    formed.clear()
    # below 64 the last power of the first round is capped at max_n, a
    # product of the squares, and no later round follows
    scored = _orders_and_margins(np.stack([pd_channel(0.97).superop]), 50)[0]
    assert scored[0][0] == Unbounded(50.0)
    assert [exps for _, exps in formed] == [[1, 2, 3, 4, 8, 16, 32, 50]]


def test_no_formed_power_exceeds_64_or_twice_the_order(monkeypatch):
    # orders 2, 70 and 152, the bare channels, which never break, and the
    # identity, each searched to several max_n: the first round stops at 64
    # (or max_n) and the gallop past it at the first power of two not below
    # the first power that certainly breaks, or at max_n if none does
    formed = _recording_searches(monkeypatch)
    phi, _ = _restored_pair()
    chans = [phi, pd_channel(0.05), pd_channel(0.73), ad_channel(0.55),
             ad_channel(0.76), pd_channel(0.97), pd_channel(0.999), pd_channel(1.0),
             _with_order(70, True), _with_order(152, False)]
    for max_n in (3, 50, 64, 80, 200, 10 ** 6):
        formed.clear()
        scored = _orders_and_margins(np.stack([c.superop for c in chans]), max_n)[0]
        orders = [o for o, _ in scored]
        breaks = [o if isinstance(o, int) else getattr(o, "last", None) for o in orders]
        bound = {c.superop.tobytes(): max_n if b is None else min(max_n, max(64, 2 * b))
                 for c, b in zip(chans, breaks)}
        (first, first_exps), *later = formed
        assert first is None and max(first_exps) == min(max_n, 64)
        for search, exps in later:
            assert max(exps) <= bound[search.squares[0].tobytes()], (max_n, exps)
    assert orders == [2, *(Undecided(n, None, 1e6) for n in (12, 100, 54, 115, 958, 25870)),
                      Unbounded(1e6), 70, 152]


def test_conflict_past_the_order_never_raises(monkeypatch):
    # fake a partial-transpose verdict on one chosen power and see where it
    # counts as a conflict: at power 1 only, the one power whose concurrence
    # is taken.  Past it the verdict decides alone.
    import entweave.channels as channels

    phi, _ = _restored_pair()  # order 2, power 1 entangled
    dep = _depolarizing(0.3)   # order 1, concurrence 0
    weak = pd_channel(1e-5)    # concurrence 1e-5: below the band, above 1e-9
    slow = _with_order(70, True)
    true_verdicts = channels._ppt_verdicts

    def faked_at(c, power, verdict):
        target = choi_matrices(np.linalg.matrix_power(c.superop, power)) / 2.0

        def fake(rho, exps):
            v, low, band = true_verdicts(rho, exps)
            hit = np.abs(rho - target).max(axis=(-2, -1)) < 1e-12
            return np.where(hit, verdict, v), np.where(hit, 0.25 * verdict, low), band
        return fake

    # a faked -lambda_min of 0.25 against a concurrence of 1e-5 conflicts:
    # the negativity never exceeds the concurrence (Verstraete et al., J.
    # Phys. A 34, 10327, 2001)
    for c, power, verdict, order in ((phi, 1, 1, None), (dep, 1, -1, None),
                                     (weak, 1, -1, None), (phi, 1, -1, 2),
                                     (phi, 3, 1, 2), (dep, 2, -1, 1)):
        monkeypatch.setattr(channels, "_ppt_verdicts", faked_at(c, power, verdict))
        if order is None:
            with pytest.raises(ToleranceConflict):
                eb_order(c, 16)
        else:
            assert eb_order(c, 16) == order
    # both rows in the first round, then the slow one alone: a power faked to
    # break moves its order there and raises nothing
    for power in (3, 32, 66):
        monkeypatch.setattr(channels, "_ppt_verdicts", faked_at(slow, power, 1))
        scored = _orders_and_margins(np.stack([c.superop for c in [phi, slow]]), 80)[0]
        assert [o for o, _ in scored] == [2, power]


def test_eb_classification_floor():
    # the Choi state of pd(p)^n has lambda_min(rho^Gamma) = -p^n / 2 and
    # lambda_max 1/2, so its powers are undecided from the first n with
    # p^n < n eps: 12 for p = 0.05.  The concurrence floor of 1e-9 used to
    # call 0.05^7 = 7.8e-10 a break.
    eps = np.finfo(float).eps
    assert eb_order(pd_channel(0.05)) == Undecided(12, None, 16.0)
    assert min(n for n in range(1, 17) if 0.05 ** n < n * eps) == 12
    assert not is_eb(compose(pd_channel(0.05 ** 6), pd_channel(0.05))).eb


def test_eb_monotone_under_post_processing(rng):
    # composing after an EB channel cannot restore entanglement
    phi, psi = _restored_pair()
    eb_word = compose(phi, phi)
    assert is_eb(eb_word).eb
    for _ in range(5):
        post = random_channel(2, 2, rng)
        assert is_eb(compose(eb_word, post)).eb


def test_choi_is_normalized_cptp(rng):
    c = random_channel(2, 3, rng)
    choi = choi_state(c)
    assert math.isclose(np.trace(choi).real, 1.0, abs_tol=1e-10)
    w = np.linalg.eigvalsh(choi)
    assert w.min() > -1e-10
    # Choi positivity survives partial transposition for EB channels only;
    # here just confirm the Choi matrix is choi_state times the input dimension 2
    assert np.allclose(choi_matrices(c.superop), 2.0 * choi)


@pytest.mark.parametrize("verdict", [choi_state, eb_order, is_eb])
def test_maps_that_lose_trace_are_refused(verdict):
    # one double interferometer passes a photon with probability 1/2 whatever
    # its state, so its map halves every trace and has no Choi state of unit
    # trace; each verdict refuses it by name instead of scoring half a state
    lossy = dif_map(alpha_for_eta(0.3))
    for rho in (np.eye(2) / 2, np.diag([1.0, 0.0]), np.diag([0.0, 1.0])):
        assert math.isclose(np.trace(unvec(lossy.superop @ vec(rho))).real, 0.5)
    with pytest.raises(ValueError, match="needs a trace-preserving map"):
        verdict(lossy)


def test_unbounded_reporting():
    u = Unbounded(16)
    assert "16" in str(u)
    order = eb_order(ad_channel(0.9), max_n=4)
    assert isinstance(order, Unbounded)
    assert order.searched_up_to == 4


def test_normalized_requires_proportional_gram():
    phi, _ = _restored_pair()
    assert superop_distance(phi.normalized(), phi) < 1e-12  # already TP
    lossy = QuantumChannel.from_kraus((np.diag([0.5, 0.5]).astype(complex),))
    n = lossy.normalized()
    assert n.trace_preserving
    skew = QuantumChannel.from_kraus((np.diag([0.9, 0.1]).astype(complex),))
    with pytest.raises(ValueError):
        skew.normalized()


def _sandwiched(base, rng):
    """``V o base o U`` for independent seeded Haar unitaries U and V."""
    u, v = haar_unitary(2, rng), haar_unitary(2, rng)
    return compose_signal_chain([unitary_channel(u), base, unitary_channel(v)])


def test_doubled_powers_match_running_products(rng, monkeypatch):
    # record every power the search forms, the first round's, squares and
    # capped powers included, with its exponent, and hold it to the running
    # product
    import entweave.channels as channels

    formed = []
    true_first_round, true_next_powers = channels._first_round, _OrderSearch.next_powers

    def first_round(superops, max_n):
        exps, powers, squares = true_first_round(superops, max_n)
        formed.extend((s, exps, p.copy()) for s, p in zip(superops, powers))
        return exps, powers, squares

    def recording(search, max_n):
        pieces = true_next_powers(search, max_n)
        formed.extend((search.squares[0], exps, powers.copy()) for exps, powers in pieces)
        return pieces

    monkeypatch.setattr(channels, "_first_round", first_round)
    monkeypatch.setattr(_OrderSearch, "next_powers", recording)
    bases = [ad_channel(v) for v in (0.3, 0.55, 0.76, 0.9, 0.999)]
    bases += [pd_channel(v) for v in (0.05, 0.5, 0.97, 1.0)]
    bases += [_with_order(70, True), _with_order(152, False)]
    chans = bases + [_sandwiched(b, rng) for b in bases]
    scored = _orders_and_margins(np.stack([c.superop for c in chans]), 200)[0]
    orders = [o for o, _ in scored]
    # ad(0.55, 0.76, 0.9) and the two that break
    assert orders[1:4] + orders[9:11] == [Undecided(54, None, 200.0),
                                          Undecided(115, None, 200.0),
                                          Unbounded(200.0), 70, 152]
    running = {}
    for superop, exps, powers in formed:
        key = superop.tobytes()
        if key not in running:
            running[key] = [superop]
            while len(running[key]) < 200:
                running[key].append(superop @ running[key][-1])
        for n, power in zip(exps, powers):
            assert np.abs(power - running[key][n - 1]).max() <= 1e-13, n
    assert formed[0][1] == [1, 2, 3, 4, 8, 16, 32, 64]
    strides = {exps.step for _, exps, _ in formed[len(chans):]}
    assert {1, 2} <= strides  # (128, 200) holds more than 64 powers
    assert max(exps[-1] for _, exps, _ in formed) == 200


def test_breaking_orders_match_running_products_on_a_grid(rng):
    grid = [ad_channel(v) for v in (0.05, 0.2, 0.55, 0.7)]
    grid += [*(pd_channel(v) for v in (0.05, 0.3, 0.6, 0.75)), _with_order(70, True)]
    grid += [_sandwiched(c, rng) for c in grid]
    orders = [eb_order(c, 80) for c in grid]
    assert orders == [_eb_order_per_power(c, 80) for c in grid]
    # ad(0.55), pd(0.05) and the one that breaks
    assert orders[2] == Undecided(54, None, 80.0) and orders[4] == Undecided(12, None, 80.0)
    assert orders[8] == 70


def _with_order(n, damping):
    """A channel whose breaking order is ``n``, half a power past the
    crossing and so far outside the rounding band: with ``damping``,
    damping toward the maximally mixed state, ``(ad(eta) + X ad(eta) X) / 2``,
    whose n-th power breaks once ``eta^(n/2) <= sqrt(2) - 1``; else the
    depolarizing channel, which breaks once ``lam^n <= 1/3``."""
    if damping:
        eta = (math.sqrt(2.0) - 1.0) ** (2.0 / (n - 0.5))
        x = unitary_channel(SIGMA_X).superop
        damped = ad_channel(eta).superop
        return QuantumChannel(0.5 * (damped + x @ damped @ x))
    return _depolarizing(3.0 ** (-1.0 / (n - 0.5)))


@pytest.mark.parametrize("damping", [True, False])
def test_orders_at_and_next_to_powers_of_two(damping):
    # the gallop scores 1-4 and the powers of two, so an order on a power
    # of two closes a bracket with it and one just past it opens the next
    for n in (1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65, 128, 129):
        c = _with_order(n, damping)
        assert eb_order(c, 200) == _eb_order_per_power(c, 200) == n


def test_orders_match_the_reference_at_every_max_n(rng):
    # orders at and one past each max_n, where the search must report the
    # order itself and Unbounded(max_n), and two sandwiched channels; the
    # reference is computed once to power 200 and truncated
    chans = [_with_order(n, n % 2 == 0)
             for n in (1, 2, 3, 4, 5, 6, 63, 64, 65, 66, 80, 81, 200, 201)]
    chans += [_sandwiched(ad_channel(0.55), rng), _sandwiched(pd_channel(0.8), rng)]
    reference = [_eb_order_per_power(c, 200) for c in chans]
    for max_n in (1, 2, 3, 5, 63, 64, 65, 80, 200):
        expected = [r if isinstance(r, int) and r <= max_n else Unbounded(float(max_n))
                    for r in reference]
        scored = _orders_and_margins(np.stack([c.superop for c in chans]), max_n)[0]
        assert [o for o, _ in scored] == expected
        assert [eb_order(c, max_n) for c in chans] == expected
    assert reference[:13] == [1, 2, 3, 4, 5, 6, 63, 64, 65, 66, 80, 81, 200]
    assert reference[13] == Unbounded(200.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), damping=st.booleans(),
       value=st.floats(0.05, 0.95), word=st.text("PQ", min_size=1, max_size=6),
       max_n=st.integers(1, 200))
def test_breaking_orders_of_sandwiched_words_match_the_reference(seed, damping, value,
                                                                  word, max_n):
    # P meets the Haar unitary first, Q its inverse last, as on the command
    # line; P, Q and the word are searched together
    u_mat = haar_unitary(2, np.random.default_rng(seed))
    u, u_dag = unitary_channel(u_mat), unitary_channel(u_mat.conj().T)
    base = ad_channel(value) if damping else pd_channel(value)
    p, q = compose(u, base), compose(base, u_dag)
    chans = [p, q, compose_signal_chain([p if ch == "P" else q for ch in word])]
    scored = _orders_and_margins(np.stack([c.superop for c in chans]), max_n)[0]
    assert [o for o, _ in scored] == [_eb_order_per_power(c, max_n) for c in chans]


def test_no_round_holds_more_than_a_stack_of_one_channel(monkeypatch):
    import entweave.channels as channels

    counts = []
    true_next_powers = _OrderSearch.next_powers

    def recording(search, max_n):
        pieces = true_next_powers(search, max_n)
        counts.extend(len(powers) for _, powers in pieces)
        return pieces

    monkeypatch.setattr(_OrderSearch, "next_powers", recording)
    # orders 152, 20713 and 414445: at 10**6 the gallop leaves brackets of
    # 127, 16383 and 262143 interior powers, and a power-of-two stride picks
    # 63 of them per round; at 200 the first closes the bracket (128, 200).
    # The bare channels never break; the bracket of their first undecided
    # power is narrowed the same way
    chans = [_with_order(152, True), _with_order(20713, False), _with_order(414445, True),
             ad_channel(0.76), pd_channel(0.999), ad_channel(0.9999)]
    for max_n, orders in ((200, [152, Unbounded(200.0), Unbounded(200.0),
                                 Undecided(115, None, 200.0), Unbounded(200.0),
                                 Unbounded(200.0)]),
                          (10 ** 6, [152, 20713, 414445, Undecided(115, None, 1e6),
                                     Undecided(25870, None, 1e6),
                                     Undecided(236681, None, 1e6)])):
        counts.clear()
        scored = _orders_and_margins(np.stack([c.superop for c in chans]), max_n)[0]
        assert [o for o, _ in scored] == orders
        assert max(counts) == 63 <= channels._POWER_STACK


# states that enter the package are held to the positivity floor and named
# by flat index; the breaking-order verdict takes derived states, powers of
# channels held to complete positivity when built, and scores them as formed
@pytest.mark.parametrize("kind, error, words", [
    ("negative", ValueError, "negative eigenvalue -2.500e-02"),
])
def test_breaking_scorer_raises_as_validate_density(kind, error, words):
    bell = projector(maximally_entangled())
    bad = {"negative": 1.1 * bell - 0.1 * np.eye(4) / 4.0}[kind]
    assert np.allclose(choi_matrices(superop_of_choi(2.0 * bad)) / 2.0, bad)
    phi, _ = _restored_pair()
    for m, k, flat in ((1, 1, 0), (2, 4, 5), (3, 12, 30)):
        stack = np.array([phi.superop] * (m * k), dtype=complex)
        stack[flat] = superop_of_choi(2.0 * bad)
        stack = stack.reshape(m, k, 4, 4)
        with pytest.raises(error) as reference:
            validate_density(choi_matrices(stack) / 2.0)
        assert words in str(reference.value)
        assert str(reference.value).endswith(f"at stack index {flat}")
        verdicts, _, _ = _ppt_verdicts(choi_matrices(stack) / 2.0, 1)
        assert verdicts.shape == (m, k)


def test_one_validation_policy_for_every_scorer():
    # -5e-9 lies below -TOL.psd = -1e-9, the floor of every state that enters
    bell = projector(maximally_entangled())
    slightly = (1.0 + 2e-8) * bell - 2e-8 * np.eye(4) / 4.0
    assert math.isclose(np.linalg.eigvalsh(slightly)[0], -5e-9, rel_tol=1e-6)
    stack = superop_of_choi(2.0 * slightly)[None, None]
    with pytest.raises(OutOfRange) as direct:
        concurrence(choi_matrices(stack) / 2.0)
    assert str(direct.value) == (
        "density matrix has negative eigenvalue -5.000e-09 at stack index 0")
    with pytest.raises(OutOfRange, match="^density matrix has negative eigenvalue -5.000e-09$"):
        concurrence(slightly)
    with pytest.raises(ValueError, match="^density matrix trace .* is not 1$"):
        concurrence(1.01 * bell)


def test_signal_chain_validates_only_the_product(rng, monkeypatch):
    chain = [random_channel(2, 2, rng) for _ in range(5)]
    folded = chain[0]
    for c in chain[1:]:
        folded = compose(folded, c)
    calls = []
    true_post_init = QuantumChannel.__post_init__

    def counting(self):
        calls.append(1)
        true_post_init(self)

    monkeypatch.setattr(QuantumChannel, "__post_init__", counting)
    for n in (1, 2, 5):
        calls.clear()
        total = compose_signal_chain(chain[:n])
        assert len(calls) == 1
    assert np.array_equal(total.superop, folded.superop)  # bit-equal


def test_signal_chain_checks_every_joint():
    # every channel is a qubit map, so every joint lines up; only an empty
    # chain is refused
    with pytest.raises(DimensionMismatch):
        compose_signal_chain([])
