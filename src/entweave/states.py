"""Validated density matrices and a few reference two-qubit states."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmath import (
    TOL,
    DimensionMismatch,
    NonHermitian,
    as_matrix,
    projector,
    singlet,
)


def _first_failure(ok) -> tuple[int, str] | None:
    """None if every matrix passes a check, else the flat index of the first
    that fails and the phrase locating it (empty for a single matrix)."""
    if np.ndim(ok) == 0:
        return None if ok else (0, "")
    bad = np.flatnonzero(~ok)
    return (int(bad[0]), f" at stack index {bad[0]}") if bad.size else None


def validated_eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """Check a density matrix, or a stack of them with shape ``(..., d, d)``,
    point by point, and return the ``numpy.linalg.eigh`` the check took.

    Every matrix must be Hermitian and have unit trace to the structural
    tolerance, and no eigenvalue may lie below ``-TOL.psd``.  The first
    matrix that fails raises; within a stack the message gives its flat
    index.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"density matrix must be square, got {m.shape}")
    herm = np.max(np.abs(m - m.conj().swapaxes(-1, -2)), axis=(-2, -1))
    if fail := _first_failure(herm <= TOL.structural):
        raise NonHermitian(f"density matrix is not Hermitian within tolerance{fail[1]}")
    tr = np.trace(m, axis1=-2, axis2=-1)
    if fail := _first_failure(np.abs(tr - 1.0) <= TOL.structural):
        raise ValueError(f"density matrix trace {np.ravel(tr)[fail[0]]} is not 1{fail[1]}")
    w, v = np.linalg.eigh(m)
    if fail := _first_failure(w[..., 0] >= -TOL.psd):
        raise ValueError(f"density matrix has negative eigenvalue "
                         f"{np.ravel(w[..., 0])[fail[0]]:.3e}{fail[1]}")
    return w, v


def validate_density(m) -> np.ndarray:
    """The checks of :func:`validated_eigh`; returns ``m`` as a complex array."""
    m = np.asarray(m, dtype=complex)
    validated_eigh(m)
    return m


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite matrix.

    Construction validates all three properties with
    :func:`validate_density` and freezes the underlying array.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = validate_density(np.array(as_matrix(self.matrix), dtype=complex))
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def matrix_of(rho) -> np.ndarray:
    """Accept a DensityMatrix or a raw array and hand back the array."""
    return as_matrix(getattr(rho, "matrix", rho))


def singlet_state() -> DensityMatrix:
    """Projector onto (|01> - |10>)/sqrt(2)."""
    return DensityMatrix(projector(singlet()))
