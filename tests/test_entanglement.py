"""Concurrence and negativity against closed-form oracles."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entweave
from entweave.entanglement import (
    concurrence,
    negativity,
    werner_state,
)
from entweave.qmath import (
    DimensionMismatch,
    NonHermitian,
    OutOfRange,
    maximally_entangled,
    projector,
    singlet,
)
from entweave.states import DensityMatrix, matrix_of, validate_density

from conftest import random_density, random_pure_state


def test_bell_states_are_maximal():
    assert math.isclose(concurrence(projector(maximally_entangled())).value, 1.0,
                        abs_tol=1e-12)
    assert math.isclose(concurrence(projector(singlet())).value, 1.0,
                        abs_tol=1e-12)
    assert math.isclose(negativity(projector(singlet())), 0.5, abs_tol=1e-12)


def test_separable_states_vanish(rng):
    assert concurrence(np.eye(4) / 4.0).value == 0.0
    prod = np.kron(random_density(2, rng), random_density(2, rng))
    assert concurrence(prod).value <= 1e-10
    assert negativity(prod) <= 1e-10


def test_dimension_guard():
    with pytest.raises(DimensionMismatch):
        concurrence(np.eye(2) / 2.0)
    with pytest.raises(DimensionMismatch):
        negativity(np.eye(8) / 8.0)
    # a state is checked for two qubits where it enters, not first when scored
    with pytest.raises(DimensionMismatch, match=r"\(3, 3\)"):
        DensityMatrix(np.eye(3) / 3.0)
    with pytest.raises(DimensionMismatch, match=r"\(2, 2\)"):
        validate_density(np.eye(2) / 2.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_werner_closed_form(w):
    # oracle: C = max(0, (3w - 1)/2) for the isotropic mixture
    c = concurrence(werner_state(w))
    assert math.isclose(c.value, max(0.0, (3.0 * w - 1.0) / 2.0), abs_tol=1e-9)


def test_werner_validation():
    with pytest.raises(OutOfRange):
        werner_state(1.2)


def test_pure_state_oracle(rng):
    # C(|psi>) = 2 |ad - bc| for amplitudes (a, b, c, d)
    for _ in range(25):
        v = random_pure_state(4, rng)
        expect = 2.0 * abs(v[0] * v[3] - v[1] * v[2])
        got = concurrence(projector(v)).value
        assert math.isclose(got, expect, abs_tol=1e-12)


def _x_state(rng):
    # random diagonal + antidiagonal two-qubit state with a closed-form
    # concurrence: 2 max(0, |rho14| - sqrt(rho22 rho33), |rho23| - sqrt(rho11 rho44))
    p = rng.dirichlet(np.ones(4))
    r14 = math.sqrt(p[0] * p[3]) * rng.uniform(0.0, 1.0)
    r23 = math.sqrt(p[1] * p[2]) * rng.uniform(0.0, 1.0)
    ph1, ph2 = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
    m = np.diag(p).astype(complex)
    m[0, 3], m[3, 0] = r14 * ph1, r14 * np.conj(ph1)
    m[1, 2], m[2, 1] = r23 * ph2, r23 * np.conj(ph2)
    expect = 2.0 * max(0.0,
                       r14 - math.sqrt(p[1] * p[2]),
                       r23 - math.sqrt(p[0] * p[3]))
    return m, expect


def test_x_state_closed_form(rng):
    for _ in range(40):
        m, expect = _x_state(rng)
        assert math.isclose(concurrence(m).value, expect, abs_tol=1e-12)


def test_pre_clamp_semantics(rng):
    for _ in range(20):
        c = concurrence(random_density(4, rng))
        assert c.value == max(0.0, c.pre_clamp)
    sep = concurrence(np.eye(4) / 4.0)
    assert sep.pre_clamp < 0.0  # strictly interior to the separable set


def test_verdict_agreement_with_negativity(rng):
    # PPT is exact for two qubits: the two routes must agree on every verdict
    for _ in range(200):
        rho = random_density(4, rng, rank=int(rng.integers(1, 5)))
        c = concurrence(rho).value
        n = negativity(rho)
        if c > 1e-7:
            assert n > 1e-12
        if n > 1e-7:
            assert c > 1e-12


def test_accepts_density_matrix_wrapper():
    dm = werner_state(0.5)
    assert isinstance(dm, DensityMatrix)
    assert concurrence(dm).value == concurrence(matrix_of(dm)).value


def test_stacked_concurrence_matches_single_states(rng):
    stack = np.array([random_density(4, rng, rank=1 + i % 4) for i in range(40)]
                     + [np.eye(4) / 4.0, projector(singlet())])
    c = concurrence(stack)
    assert c.value.shape == c.pre_clamp.shape == (42,)
    for rho, value, pre in zip(stack, c.value, c.pre_clamp):
        single = concurrence(rho)
        assert isinstance(single.value, float)
        assert value == single.value and pre == single.pre_clamp
    grid = concurrence(stack[:40].reshape(5, 8, 4, 4))
    assert np.array_equal(grid.value.ravel(), c.value[:40])


def test_stacked_negativity_matches_single_states(rng):
    stack = np.array([random_density(4, rng, rank=1 + i % 4) for i in range(40)]
                     + [np.eye(4) / 4.0, projector(singlet())])
    n = negativity(stack)
    assert n.shape == (42,)
    assert (n > 1e-3).sum() >= 10 and (n == 0.0).sum() >= 1  # both kinds
    for rho, value in zip(stack, n):
        single = negativity(rho)
        assert isinstance(single, float)
        assert value == single
    grid = negativity(stack[:40].reshape(5, 8, 4, 4))
    assert np.array_equal(grid.ravel(), n[:40])


def test_stacked_validation_names_the_failing_point(rng):
    stack = np.array([random_density(4, rng) for _ in range(3)])
    assert validate_density(stack) is not None
    bad = stack.copy()
    bad[1] *= 1.01
    with pytest.raises(ValueError, match="trace .* at stack index 1"):
        validate_density(bad)
    negative = stack.copy()
    negative[2] = np.diag([1.1, -0.1, 0.0, 0.0])
    with pytest.raises(ValueError, match="negative eigenvalue .* at stack index 2"):
        validate_density(negative)
    with pytest.raises(OutOfRange):
        concurrence(negative)  # its own non-PSD guard, point by point
    bad = stack.copy()
    bad[0, 0, 1] += 1e-6
    with pytest.raises(NonHermitian, match="at stack index 0"):
        validate_density(bad)


def test_measures_reject_non_hermitian_input(rng):
    rho = random_density(4, rng)
    skew = rho.copy()
    skew[0, 3] += 1e-6
    for bad in (skew, np.array([rho, skew, rho])):
        with pytest.raises(NonHermitian):
            concurrence(bad)
        with pytest.raises(NonHermitian):
            negativity(bad)
    # both hold states to the one structural tolerance, 1e-10
    near = rho.copy()
    near[0, 3] += 1e-9
    for measure in (concurrence, negativity):
        with pytest.raises(NonHermitian):
            measure(near)


def test_negativity_validates_as_concurrence_does():
    # a state off unit trace or below the positivity floor is refused by
    # both measures, with the same message, instead of scored
    bell = projector(maximally_entangled())
    cases = ((1.01 * bell, ValueError, "trace 1.0099999999999998 is not 1"),
             (1.1 * bell - 0.1 * np.eye(4) / 4, OutOfRange,
              "negative eigenvalue -2.500e-02"))
    for bad, error, message in cases:
        for measure in (concurrence, negativity):
            with pytest.raises(error, match=message):
                measure(bad)


def test_one_function_eigendecomposes_states():
    # every state is scored by entanglement._scores under one positivity
    # floor; a second eigh anywhere in the package would be a second
    # scoring path that can bypass it
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Attribute) and node.attr == "eigh":
            found.append(where)
        if isinstance(node, ast.ImportFrom):
            found.extend(where for alias in node.names if alias.name == "eigh")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(Path(entweave.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert found == ["entanglement._scores"]


def test_near_rank_deficient_choi_state_is_good_to_1e_12():
    # the word PPQP of a Haar-sandwiched ad(0.459): its Choi state has
    # smallest eigenvalue 1.5e-11, outside the closed forms; the tau form's
    # root eigenvalues cost digits here (measured 5.0e-13 from a 50-digit
    # evaluation of the same float matrix, against 1e-14 on closed forms)
    import mpmath

    from entweave.channels import (ad_channel, choi_matrix, compose,
                                   compose_signal_chain, unitary_channel)

    u = np.array([[-0.9475739293580296 + 0.3178935133470756j,
                   -0.026508802000143324 + 0.018564643528879467j],
                  [-0.022130665977185448 - 0.023613474887093918j,
                   0.8620800922569603 + 0.5057376315456404j]])
    base = ad_channel(0.4590426889875381)
    p = compose(unitary_channel(u), base)
    q = compose(base, unitary_channel(u.conj().T))
    rho = choi_matrix(compose_signal_chain([p, p, q, p]))
    rho = rho / np.trace(rho)
    rho = (rho + rho.conj().T) / 2
    assert 1e-11 < np.linalg.eigvalsh(rho)[0] < 2e-11
    with mpmath.workdps(50):
        r = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in rho])
        yy = mpmath.matrix(np.kron([[0, -1], [1, 0]], [[0, -1], [1, 0]]).tolist())
        flipped = r * yy * r.conjugate() * yy  # yy is -(sigma_y (x) sigma_y)
        roots = sorted((mpmath.sqrt(abs(mpmath.re(e))) for e in mpmath.eig(flipped)[0]),
                       reverse=True)
        exact = float(roots[0] - roots[1] - roots[2] - roots[3])
    assert abs(concurrence(rho).pre_clamp - exact) < 1e-12
