"""Two-qubit entanglement measures: Wootters concurrence and negativity."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .qmath import (
    SIGMA_Y,
    OutOfRange,
    maximally_entangled,
    partial_transpose,
    projector,
)
from .states import _checked_psd, _checked_structure, _first_failure, validate_density


_YY = np.kron(SIGMA_Y, SIGMA_Y)

_EPS = float(np.finfo(float).eps)

# numpy.linalg.matrix_rank's cutoff: eigenvalues at or below this times the
# largest are eigensolver noise
_RANK_CUTOFF = 4.0 * _EPS

_VANISHED_TRACE = 1e-12  # below this, a derived state has nothing to normalize


class ConcurrenceResult(NamedTuple):
    value: float | np.ndarray
    pre_clamp: float | np.ndarray


def concurrence(rho) -> ConcurrenceResult:
    """Wootters concurrence of a two-qubit state, or of a stack of them.

    One state, a 4x4 array, gives floats; a stack, shape ``(..., 4, 4)``,
    gives arrays of its shape without the last two axes, each entry equal to
    the single-state result.  Any other shape raises
    :class:`DimensionMismatch`.

    ``value`` is ``max(0, l1 - l2 - l3 - l4)`` where the ``l``s are the
    descending square roots of the eigenvalues of ``rho @ spin_flip(rho)``.
    They are taken in Wootters' tau form: with ``rho = psi @ psi^dagger``
    (``psi`` the eigenvectors scaled by the root eigenvalues), the ``l``s are
    the singular values of ``psi^T @ (sigma_y x sigma_y) @ psi``.  No square
    root of a computed eigenvalue of that product is taken, and the Werner,
    pure-state and X-state closed forms hold to about 1e-14.  A state near
    rank deficiency but off those forms is good to less: its root
    eigenvalues in ``psi`` carry an error of about ``eps / sqrt(lambda_min)``
    at first order, and less in practice (a Choi state with ``lambda_min``
    1.5e-11 measured 5.0e-13, against 5.8e-11).  Eigenvalues at or below the
    eigensolver's noise, ``4 eps`` times the largest, count as zero (the
    numerical-rank cutoff of ``numpy.linalg.matrix_rank``): the root of a
    noise eigenvalue would otherwise enter ``psi`` at the 1e-8 level and
    move the ``l``s of rank-deficient states, such as the Choi states of
    damping channels, by as much.  ``pre_clamp`` is the signed combination
    before the final clamp, a margin that profiles and ``is_eb`` report past
    the threshold, where ``value`` is zero; verdicts use :func:`_ppt_verdicts`.

    A state passed here is checked as :func:`~entweave.states.validate_density`
    checks it, with its messages; the first failing state of a stack is
    named by its flat index.
    """
    c, low = _scores(_checked_structure(rho))
    _checked_psd(low)
    return c


def _scores(rho: np.ndarray) -> tuple[ConcurrenceResult, np.ndarray]:
    """The one scoring path of two-qubit states: :func:`concurrence` of a
    Hermitian state or stack ``(..., 4, 4)`` and each state's smallest
    eigenvalue, from one ``eigh``.  It checks nothing: :func:`concurrence`
    holds the eigenvalues to ``-TOL.psd``, and a derived state, normalized by
    :func:`_normalized`, is scored as formed.
    """
    w, v = np.linalg.eigh(rho)
    # eigh sorts ascending, so the last eigenvalue is the largest
    kept = np.where(w > _RANK_CUTOFF * w[..., -1:], w, 0.0)
    psi = v * np.sqrt(kept)[..., None, :]
    # .T puts the four values first (scalars for one state, so the arithmetic
    # stays on scalars); the second .T restores the stack's axes
    lam = np.linalg.svd(psi.swapaxes(-1, -2) @ _YY @ psi, compute_uv=False).T
    pre = (lam[0] - lam[1] - lam[2] - lam[3]).T
    if pre.ndim == 0:
        pre = float(pre)
        return ConcurrenceResult(max(0.0, pre), pre), w[..., 0]
    return ConcurrenceResult(np.maximum(pre, 0.0), pre), w[..., 0]


def _normalized(out: np.ndarray, lengths=None) -> np.ndarray:
    """Derived states, the stacked outputs ``(map (x) id)(probe)`` of the
    package's own arithmetic, as they are scored: each divided by its complex
    trace (far along a driven line the trace drifts and its phase grows),
    Hermitian part kept.  Each is a completely positive image of an input
    checked where it entered, so its positivity is not checked again: a
    negative eigenvalue is the arithmetic's rounding.  A trace that is not
    finite or below ``_VANISHED_TRACE`` in magnitude raises ``ValueError``,
    naming the state by its length when ``lengths`` are given."""
    tr = np.trace(out, axis1=-2, axis2=-1)
    if fail := _first_failure(np.isfinite(tr) & (abs(tr) >= _VANISHED_TRACE), lengths):
        raise ValueError(f"state trace {abs(np.ravel(tr)[fail[0]]):.3g} has vanished "
                         f"or is not finite{fail[1]}")
    rho = out / tr[..., None, None]
    return 0.5 * (rho + rho.conj().swapaxes(-1, -2))


def _ppt_verdicts(rho: np.ndarray, scale) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The package's one breaking rule, for channel powers and line lengths:
    the verdict on each map from its Choi state in the stack ``rho`` (as
    :func:`_normalized` gives it, scored as formed), 1 certainly breaks, -1
    certainly transmits, 0 undecided; beside it ``lambda_min`` of each partial
    transpose and the band ``delta = scale * eps * lambda_max``.  Two qubits
    are separable exactly when the partial transpose is positive (Horodecki,
    Horodecki & Horodecki, PLA 223, 1, 1996); an entangled pair's has one
    negative eigenvalue, so ``lambda_min`` is a signed margin."""
    w = np.linalg.eigvalsh(partial_transpose(rho))
    low = w[..., 0]
    band = np.asarray(scale, dtype=float) * _EPS * w[..., -1]
    return (low >= band).astype(int) - (low <= -band), low, band


def negativity(rho) -> float | np.ndarray:
    """Sum of the absolute values of the negative partial-transpose eigenvalues.

    One state, a 4x4 array, gives a float; a stack, shape ``(..., 4, 4)``,
    gives an array of its shape without the last two axes, each entry equal
    to the single-state result.  A state passed here is checked by
    :func:`~entweave.states.validate_density`, as :func:`concurrence` checks
    it.
    """
    # the partial transpose only permutes entries, so it is Hermitian too
    w = np.linalg.eigvalsh(partial_transpose(validate_density(rho)))
    neg = -np.where(w < 0.0, w, 0.0).sum(axis=-1)
    return float(neg) if neg.ndim == 0 else neg


def _werner(w: float, ket: np.ndarray) -> np.ndarray:
    """The isotropic mixture ``w |ket><ket| + (1 - w) I/4`` as formed, for a
    weight ``w`` in [0, 1] and a maximally entangled two-qubit ``ket``,
    neither checked here."""
    return w * projector(ket) + (1.0 - w) * np.eye(4, dtype=complex) / 4.0


def werner_state(w: float) -> np.ndarray:
    """Isotropic mixture ``w |Phi+><Phi+| + (1 - w) I/4`` on
    |Phi+> = (|00> + |11>)/sqrt(2) as a 4x4 array, whose concurrence is
    ``max(0, (3w - 1)/2)``; a weight outside [0, 1] is :class:`OutOfRange`.
    """
    if not 0.0 <= w <= 1.0:
        raise OutOfRange(f"mixing weight {w} outside [0, 1]")
    return _werner(w, maximally_entangled())
