"""Dense complex linear algebra for qubits and qubit pairs.

Everything in this package works on plain ``numpy`` arrays in the
computational basis, with index 0 meaning the horizontal / ground state
``|0> = |H>`` and index 1 meaning ``|1> = |V>``.  Every map acts on one qubit
and every state of a pair is 4x4, so the reshuffles and partial operations
here take 2x2 or ``(..., 4, 4)`` arrays only and refuse any other shape with
:class:`DimensionMismatch`.  Superoperators use the column-stacking
convention: ``vec(A @ rho @ B^dag) = kron(conj(B), A) @ vec(rho)``.  A map
acts on half of a pair one way: the pair is read as the Choi matrix of a map,
and the output is the Choi matrix of the composition (:func:`superop_of_choi`).
The package needs numpy only; scipy is the test suite's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class DimensionMismatch(ValueError):
    """Matrix or tensor-factor dimensions do not line up."""


class NonHermitian(ValueError):
    """A Hermitian matrix was required."""


class NotUnitary(ValueError):
    """A unitary matrix was required."""


class OutOfRange(ValueError):
    """A scalar parameter fell outside its admissible interval."""


@dataclass(frozen=True)
class Tolerances:
    """Central numerical tolerances used across the package."""

    structural: float = 1e-10   # hermiticity / unitarity / trace checks
    compare: float = 1e-9       # numerical equality in comparisons
    psd: float = 1e-9           # most negative eigenvalue tolerated in states
    conflict_band: float = 1e-4  # above this the concurrence and PPT verdicts must agree


TOL = Tolerances()

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# Relaxation operator |0><1|: sends the excited component into the basis
# state 0, which is the damping target throughout the package.
LOWERING = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {m.shape}")
    return m


def dagger(m) -> np.ndarray:
    return as_matrix(m).conj().T


def is_hermitian(m, tol: float = TOL.structural) -> bool:
    """Whether ``m``, or every matrix of a stack ``(..., d, d)``, is Hermitian."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        return False
    return bool(np.max(np.abs(m - m.conj().swapaxes(-1, -2))) <= tol)


def is_unitary(m, tol: float = TOL.structural) -> bool:
    """Whether ``m`` is unitary within ``tol``.  No entry of a unitary exceeds
    1 in modulus, so a matrix with one above ``1 + tol``, or one that is not
    finite, is refused before ``U^dag U`` is formed, which could overflow."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1] or not (np.abs(m) <= 1.0 + tol).all():
        return False
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= tol)


# Largest condition number of the eigenvector matrix at which exponentials and
# powers come from the eigendecomposition; past it, the stacked Pade [13/13]
# exponential (_pade_expm) and numpy's matrix_power.
EIG_COND_BOUND = 1e3

# Pade [13/13] coefficients and the largest 1-norm at which the approximant
# meets double precision unscaled (Higham, SIAM J. Matrix Anal. Appl. 26,
# 1179, 2005, table 2.3 and eq. 2.2).
_THETA_13 = 5.371920351148152
_PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0,
            670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
            16380.0, 182.0, 1.0)


def _pade_expm(a: np.ndarray) -> np.ndarray:
    """Exponential of each matrix of a stack ``(n, d, d)`` by scaling and
    squaring with the [13/13] Pade approximant (Higham 2005).

    Matrix ``i`` is scaled by ``2**-s_i``, ``s_i = max(0, ceil(log2(|A_i|_1 /
    theta_13)))``, all approximants come from one stacked solve, and each is
    squared ``s_i`` times.  A non-finite matrix gives a non-finite result.
    """
    mant, expo = np.frexp(np.abs(a).sum(axis=-2).max(axis=-1) / _THETA_13)
    s = np.maximum(0, expo - (mant == 0.5))   # ceil(log2), 0 for 0, inf and nan
    a = a * (0.5 ** s)[:, None, None]
    b = _PADE_13
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0))):
        more = s > k
        r[more] = r[more] @ r[more]
    return r


@dataclass(frozen=True, eq=False)
class Spectral:
    """The exponentials and integer powers of one fixed matrix, factored once.

    Construction takes ``M = V diag(w) V^-1`` (``numpy.linalg.eig``, unit-norm
    eigenvector columns) and keeps ``factors = (w, V, V^-1)``.  ``exp`` of a
    1-D array of lengths and ``power`` of a 1-D array of nonnegative integers
    give stacks ``(n, d, d)``, each one broadcast product:
    ``V exp(diag(w) x) V^-1`` and ``V diag(w**e) V^-1``.  An exponential's
    error is about ``1e-16 cond(V)`` (Moler & Van Loan, SIAM Rev. 45, 3, 2003,
    method 14); a power's grows linearly with ``e``, as binary powering's
    does.  A matrix with ``cond(V) > EIG_COND_BOUND`` (defective or nearly so,
    as at the drive's exceptional points) has ``factors = None``: exponentials
    then go through a numpy-only scaling-and-squaring Pade [13/13] exponential
    (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005) on the stack of
    ``M * x``, powers through ``numpy.linalg.matrix_power`` once per distinct
    exponent.  An exponential that is not finite on either path raises
    :class:`OutOfRange` naming its length.  Tested: exponentials of the driven
    AD and PD generators 0 to 0.1 from their exceptional points, lengths 0 to
    20, against scipy's ``expm`` (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl.
    31, 970, 2009) to 1e-12 (cond(V) 1.4e8 at the points, which fall back; 7e2
    at 1e-6, error about 1e-13; about 3e-15 at cond(V) 1.4 to 2.4, as in the
    benchmark's lines); the Pade fallback alone against the same oracle to
    1e-12 on random non-normal 2x2 and 4x4 matrices scaled from 0 to past ten
    squarings; powers of AD and PD slice pairs with cond(V) up to 7e2 against
    ``matrix_power`` to 6.4e-14 up to exponent 45, 4.1e-13 up to 300 and
    6.8e-12 at 5000.
    """

    matrix: np.ndarray
    factors: tuple | None = field(init=False, repr=False, compare=False)
    # the scale of an exponential's error: cond(V), or 1 on the Pade path
    cond: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.array(as_matrix(self.matrix))
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch("generator must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("generator has non-finite entries")
        w, v = np.linalg.eig(m)
        cond, factors = float(np.linalg.cond(v)), None
        if cond <= EIG_COND_BOUND:
            factors = (w, v, np.linalg.inv(v))
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "cond", cond if factors else 1.0)

    def exp(self, lengths) -> np.ndarray:
        xs = np.asarray(lengths, dtype=float)
        with np.errstate(all="ignore"):   # an overflow is reported below
            if self.factors is None:
                out = _pade_expm(self.matrix * xs[:, None, None])
            else:
                w, v, v_inv = self.factors
                out = (v * np.exp(np.multiply.outer(xs, w))[:, None, :]) @ v_inv
        finite = np.isfinite(out).all(axis=(-2, -1))
        if not finite.all():
            raise OutOfRange(f"exponential at length {xs[~finite][0]:g} is not finite")
        return out

    def power(self, exponents) -> np.ndarray:
        es = np.asarray(exponents)
        if self.factors is None:
            distinct, where = np.unique(es, return_inverse=True)
            return np.array([np.linalg.matrix_power(self.matrix, e) for e in distinct]
                            ).reshape(-1, *self.matrix.shape)[where]
        w, v, v_inv = self.factors
        return (v * (w ** es[:, None])[:, None, :]) @ v_inv


def _qubit_shaped(m, shape: tuple[int, ...]) -> np.ndarray:
    """``m`` as a complex array whose last axes have the qubit ``shape``
    (``(4,)``, ``(2, 2)`` or ``(4, 4)``), else :class:`DimensionMismatch`
    naming its shape."""
    m = np.asarray(m, dtype=complex)
    if m.shape[-len(shape):] != shape:
        raise DimensionMismatch(
            f"shape {m.shape} does not end in the qubit shape {shape}")
    return m


def partial_trace(m, keep: int) -> np.ndarray:
    """Reduced state of qubit ``keep`` (0 or 1) of a 4x4 two-qubit matrix."""
    t = _qubit_shaped(as_matrix(m), (4, 4)).reshape(2, 2, 2, 2)
    if keep not in (0, 1):
        raise DimensionMismatch(f"keep index {keep} is not a qubit of a pair")
    return np.einsum("arbr->ab" if keep == 0 else "rarb->ab", t)


def partial_transpose(m) -> np.ndarray:
    """Transpose the second qubit of a 4x4 matrix, or of each matrix of a
    stack ``(..., 4, 4)``, leaving the first alone."""
    m = _qubit_shaped(m, (4, 4))
    t = m.reshape(*m.shape[:-2], 2, 2, 2, 2)
    return t.swapaxes(-3, -1).reshape(m.shape)


def sandwich_superop(a, b) -> np.ndarray:
    """Superoperator of ``rho -> a @ rho @ dagger(b)``: ``kron(conj(b), a)``,
    formed as one broadcast product.  Stacks ``(..., r, c)`` of ``a`` and
    ``b`` give the stack of their superoperators."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex).conj()
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionMismatch(f"expected matrices, got shapes {a.shape} and {b.shape}")
    out = b[..., :, None, :, None] * a[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], b.shape[-2] * a.shape[-2],
                       b.shape[-1] * a.shape[-1])


def choi_matrices(superop) -> np.ndarray:
    """Unnormalized Choi matrix ``sum_ab Phi(|a><b|) (x) |a><b|`` (map on the
    first qubit) of a column-stacking qubit superoperator, or of each in a
    stack ``(..., 4, 4)``.

    ``superop[i + 2 j, a + 2 b]`` maps ``|a><b|`` to ``|i><j|``, and is entry
    ``[(i, a), (j, b)]`` of the Choi matrix: an exact reshuffle.
    """
    superop = _qubit_shaped(superop, (4, 4))
    batch = superop.shape[:-2]
    s = superop.reshape(-1, 2, 2, 2, 2)  # axes (k, j, i, b, a) to (k, i, a, j, b)
    return s.transpose(0, 2, 4, 1, 3).reshape(*batch, 4, 4)


def superop_of_choi(choi) -> np.ndarray:
    """Inverse of :func:`choi_matrices`, the opposite axis permutation.

    Every two-qubit ``rho`` is the Choi matrix of one linear qubit map, so
    ``(S (x) id)(rho)`` for any linear qubit map ``S`` is
    ``choi_matrices(S @ superop_of_choi(rho))``.
    """
    choi = _qubit_shaped(choi, (4, 4))
    batch = choi.shape[:-2]
    t = choi.reshape(-1, 2, 2, 2, 2)  # axes (k, i, a, j, b) to (k, j, i, b, a)
    return t.transpose(0, 3, 1, 4, 2).reshape(*batch, 4, 4)


def opnorm(m) -> float:
    """Spectral norm, used as the superoperator distance throughout."""
    return float(np.linalg.norm(as_matrix(m), 2))


def maximally_entangled() -> np.ndarray:
    """(|00> + |11>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    v[3] = 1.0
    return v / np.sqrt(2.0)


def projector(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex).ravel()
    return np.outer(v, v.conj())
