"""Entry checks of two-qubit density matrices, plain arrays of shape
``(..., 4, 4)``: the states :func:`~entweave.entanglement.concurrence` and
:func:`~entweave.entanglement.negativity` take are checked here.

A refusal names the failing matrix of a stack by its flat index, or by its
propagation length when the stack lies along a line.
"""

from __future__ import annotations

import numpy as np

from .qmath import (
    TOL,
    NonHermitian,
    OutOfRange,
    _qubit_shaped,
)


def _first_failure(ok, lengths=None) -> tuple[int, str] | None:
    """None if every matrix passes a check, else the flat index of the first
    that fails and the phrase locating it: its propagation length when the
    stack's ``lengths`` are given, else its stack index (empty for a single
    matrix)."""
    if ok.all():
        return None
    bad = int(np.flatnonzero(~ok)[0])
    if lengths is not None:
        return bad, f" at x = {lengths[bad]:.3g}"
    return bad, (f" at stack index {bad}" if ok.ndim else "")


def _checked_structure(m) -> np.ndarray:
    """``m`` as a complex array, once it passes the structural checks of
    :func:`validate_density`; a failure is located as by ``_first_failure``.
    A state is two qubits, so any shape but ``(..., 4, 4)`` raises
    :class:`DimensionMismatch`."""
    m = _qubit_shaped(m, (4, 4))
    herm = abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    if fail := _first_failure(herm <= TOL.structural):
        raise NonHermitian(f"density matrix is not Hermitian within tolerance{fail[1]}")
    tr = m.trace(axis1=-2, axis2=-1)
    if fail := _first_failure(abs(tr - 1.0) <= TOL.structural):
        # the Hermitian check bounds the imaginary part to roundoff
        raise ValueError(f"density matrix trace {np.ravel(tr)[fail[0]].real} "
                         f"is not 1{fail[1]}")
    return m


def _checked_psd(low) -> None:
    """Hold each entering state's smallest eigenvalue ``low`` to ``-TOL.psd``
    (:func:`validate_density`, ``concurrence``): the first state below it
    raises :class:`OutOfRange`, located as by ``_first_failure``."""
    if fail := _first_failure(np.asarray(low) >= -TOL.psd):
        raise OutOfRange(f"density matrix has negative eigenvalue "
                         f"{np.ravel(low)[fail[0]]:.3e}{fail[1]}")


def validate_density(m) -> np.ndarray:
    """Check a two-qubit density matrix, or a stack of them with shape
    ``(..., 4, 4)``, point by point, and return it as a complex array.

    Every matrix must be Hermitian and have unit trace to the structural
    tolerance, and no eigenvalue may lie below ``-TOL.psd``
    (:class:`OutOfRange`).  The first matrix that fails raises; within a
    stack the message gives its flat index.
    """
    m = _checked_structure(m)
    _checked_psd(np.linalg.eigvalsh(m)[..., 0])
    return m
