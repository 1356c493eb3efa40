"""Two-qubit entanglement measures: Wootters concurrence and negativity."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .qmath import (
    SIGMA_Y,
    OutOfRange,
    hermitian_eig,
    kron,
    maximally_entangled,
    partial_trace,
    partial_transpose,
    projector,
)
from .states import DensityMatrix, matrix_of


class BadDimension(ValueError):
    """The measure is only defined for two-qubit (4x4) states."""


_YY = kron(SIGMA_Y, SIGMA_Y)


class ConcurrenceResult(NamedTuple):
    value: float
    pre_clamp: float


def _as_two_qubit(rho) -> np.ndarray:
    m = matrix_of(rho)
    if m.shape != (4, 4):
        raise BadDimension(f"need a 4x4 two-qubit state, got {m.shape}")
    return m


def concurrence(rho) -> ConcurrenceResult:
    """Wootters concurrence of a two-qubit state.

    ``value`` is ``max(0, l1 - l2 - l3 - l4)`` where the ``l``s are the
    descending square roots of the eigenvalues of ``rho @ spin_flip(rho)``.
    They are taken in Wootters' tau form: with ``rho = psi @ psi^dagger``
    (``psi`` the eigenvectors scaled by the root eigenvalues), the ``l``s are
    the singular values of ``psi^T @ (sigma_y x sigma_y) @ psi``.  No square
    root of a computed eigenvalue of that product is taken, so nearly pure
    states keep full double precision.  Eigenvalues at or below the
    eigensolver's noise, ``4 eps`` times the largest, count as zero (the
    numerical-rank cutoff of ``numpy.linalg.matrix_rank``): the root of a
    noise eigenvalue would otherwise enter ``psi`` at the 1e-8 level and
    move the ``l``s of rank-deficient states, such as the Choi states of
    damping channels, by as much.  ``pre_clamp`` is the signed combination
    before the final clamp; it is what the entanglement-breaking length
    search bisects on, since ``value`` is identically zero past the
    separability threshold.
    """
    m = _as_two_qubit(rho)
    w, v = hermitian_eig(m)
    if w.min() < -1e-8:
        raise OutOfRange(f"matrix has negative eigenvalue {w.min():.3e}")
    w = np.where(w > 4.0 * np.finfo(float).eps * w.max(), w, 0.0)
    psi = v * np.sqrt(w)
    lam = np.linalg.svd(psi.T @ _YY @ psi, compute_uv=False)
    pre = float(lam[0] - lam[1] - lam[2] - lam[3])
    return ConcurrenceResult(max(0.0, pre), pre)


def negativity(rho) -> float:
    """Sum of the absolute values of the negative partial-transpose eigenvalues."""
    m = _as_two_qubit(rho)
    w, _ = hermitian_eig(partial_transpose(m, (2, 2), 1), tol=1e-8)
    return float(-w[w < 0.0].sum())


def werner_state(w: float, omega: DensityMatrix | None = None) -> DensityMatrix:
    """Isotropic mixture ``w * omega + (1 - w) * I/4``.

    ``omega`` defaults to the projector onto (|00> + |11>)/sqrt(2); any pure
    maximally entangled two-qubit state is accepted.  Concurrence of the
    result is ``max(0, (3w - 1)/2)`` regardless of that choice.
    """
    if not 0.0 <= w <= 1.0:
        raise OutOfRange(f"mixing weight {w} outside [0, 1]")
    if omega is None:
        pure = projector(maximally_entangled(2))
    else:
        pure = _as_two_qubit(omega)
        purity = float(np.trace(pure @ pure).real)
        half = np.eye(2) / 2.0
        marg_a = partial_trace(pure, (2, 2), 0)
        marg_b = partial_trace(pure, (2, 2), 1)
        if (abs(purity - 1.0) > 1e-8
                or np.max(np.abs(marg_a - half)) > 1e-8
                or np.max(np.abs(marg_b - half)) > 1e-8):
            raise ValueError("omega must be pure and maximally entangled")
    return DensityMatrix(w * pure + (1.0 - w) * np.eye(4, dtype=complex) / 4.0)
