"""Qubit channels as column-stacking superoperators.

A channel is its superoperator matrix and nothing else: composition is the
matrix product, and the Choi matrix is a reshape of it.  Every channel maps
one qubit to one qubit, so its superoperator is 4x4.  It acts on a state as
``unvec(superop @ vec(rho))`` and on half of a pair by the Choi reshuffle of
``qmath``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .entanglement import _hermitian_negativity, _scores
from .qmath import (
    IDENTITY_2,
    SIGMA_Z,
    TOL,
    DimensionMismatch,
    NotUnitary,
    OutOfRange,
    _qubit_shaped,
    as_matrix,
    choi_matrices,
    is_hermitian,
    is_unitary,
    opnorm,
    sandwich_superop,
    unvec,
    vec,
)
from .states import DensityMatrix, _checked_psd

# Breaking orders are scored in stacks that grow: _FIRST_STACK powers of each
# channel, then three times the powers scored so far, never more than
# _POWER_STACK at a time, so memory stays bounded whatever --max-order asks for
# and a channel that breaks early is not powered far past its order
_FIRST_STACK = 4
_POWER_STACK = 64


class ToleranceConflict(RuntimeError):
    """Concurrence and PPT verdicts disagree beyond the tolerance band."""


class NotCompletelyPositive(ValueError):
    """A superoperator whose Choi matrix is not Hermitian or has a
    significantly negative eigenvalue."""


@dataclass(frozen=True)
class Unbounded:
    """Marker return value: no entanglement-breaking threshold was found

    within the searched range (power count or propagation length).
    """

    searched_up_to: float

    def __str__(self):
        return f"unbounded (searched up to {self.searched_up_to:g})"


class EbVerdict(NamedTuple):
    eb: bool
    margin: float  # signed pre-clamp concurrence of the Choi state


def _frozen(m: np.ndarray) -> np.ndarray:
    m = np.array(m, dtype=complex)
    m.setflags(write=False)
    return m


def _gram(superop: np.ndarray) -> np.ndarray:
    """``sum_k K^dag K`` of a map: ``Tr Phi(rho) = Tr(gram @ rho)``, and
    ``vec(I)^T superop`` is ``vec(gram^T)``."""
    return unvec(vec(np.eye(2)) @ superop).T


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """A completely positive, trace-nonincreasing qubit map, stored as its
    4x4 column-stacking superoperator: ``vec(Phi(rho)) = superop @ vec(rho)``.

    Construction refuses any other shape (:class:`DimensionMismatch`), and
    checks complete positivity (the Choi matrix is Hermitian and has no
    eigenvalue below ``-TOL.psd``, else :class:`NotCompletelyPositive`) and
    that the map does not amplify trace (the Gram matrix
    ``sum_k K^dag K``, read off ``vec(I)^T superop``, has no eigenvalue above
    ``1 + TOL.psd``, else ``ValueError``).  Kraus operators go in through
    :meth:`from_kraus`.
    """

    superop: np.ndarray
    trace_preserving: bool = field(init=False)

    def __post_init__(self):
        s = _frozen(_qubit_shaped(as_matrix(self.superop), (4, 4)))
        choi = choi_matrices(s)
        if not is_hermitian(choi, tol=1e-8):
            raise NotCompletelyPositive("Choi matrix is not Hermitian")
        low = np.linalg.eigvalsh(choi)[0]
        if low < -TOL.psd:
            raise NotCompletelyPositive(f"Choi matrix has negative eigenvalue {low:.3e}")
        gram = _gram(s)
        high = np.linalg.eigvalsh(gram)[-1]
        if high > 1.0 + TOL.psd:
            raise ValueError(f"map amplifies trace: max eig {high:.6f}")
        tp = bool(np.max(np.abs(gram - np.eye(2))) <= TOL.structural)
        object.__setattr__(self, "superop", s)
        object.__setattr__(self, "trace_preserving", tp)

    @classmethod
    def from_kraus(cls, kraus: Sequence[np.ndarray]) -> "QuantumChannel":
        """The map ``rho -> sum_k K rho K^dag`` of 2x2 Kraus operators."""
        ks = [_qubit_shaped(as_matrix(k), (2, 2)) for k in kraus]
        if not ks:
            raise DimensionMismatch("need at least one Kraus operator")
        return cls(sum(sandwich_superop(k, k) for k in ks))

    def normalized(self) -> "QuantumChannel":
        """Rescale a uniformly trace-decreasing map to a trace-preserving one.

        Requires ``sum_k K^dag K`` proportional to the identity; postselected
        maps with state-dependent success probability are rejected.
        """
        gram = _gram(self.superop)
        c = float(np.trace(gram).real) / 2
        if c <= 0.0:
            raise ValueError("cannot normalize the zero map")
        if np.max(np.abs(gram - c * np.eye(2))) > TOL.compare * max(1.0, c):
            raise ValueError("success probability is state dependent; "
                             "normalize per input state instead")
        return QuantumChannel(self.superop / c)


def identity_channel() -> QuantumChannel:
    return QuantumChannel.from_kraus((np.eye(2, dtype=complex),))


def ad_channel(eta: float) -> QuantumChannel:
    """Amplitude damping toward basis state 0 with survival parameter eta.

    Kraus pair ``diag(1, sqrt(eta))`` and ``sqrt(1 - eta) |0><1|``; eta = 1 is
    the identity, eta = 0 maps everything to ``|0><0|``.  The family is a
    semigroup: composing parameters a and b gives parameter a*b.
    """
    if not 0.0 <= eta <= 1.0:
        raise OutOfRange(f"damping parameter {eta} outside [0, 1]")
    k1 = np.array([[1.0, 0.0], [0.0, np.sqrt(eta)]], dtype=complex)
    k2 = np.array([[0.0, np.sqrt(1.0 - eta)], [0.0, 0.0]], dtype=complex)
    return QuantumChannel.from_kraus((k1, k2))


def pd_channel(p: float) -> QuantumChannel:
    """Phase damping: multiplies coherences by p, leaves populations alone.

    Kraus pair ``sqrt((1 + p)/2) I`` and ``sqrt((1 - p)/2) sigma_z``.  Also a
    semigroup in p.
    """
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"dephasing parameter {p} outside [0, 1]")
    k1 = np.sqrt((1.0 + p) / 2.0) * IDENTITY_2
    k2 = np.sqrt((1.0 - p) / 2.0) * SIGMA_Z
    return QuantumChannel.from_kraus((k1, k2))


def unitary_channel(u) -> QuantumChannel:
    u = as_matrix(u)
    if not is_unitary(u):
        raise NotUnitary("matrix is not unitary within tolerance")
    return QuantumChannel.from_kraus((u,))


def choi_matrix(c: QuantumChannel) -> np.ndarray:
    return choi_matrices(c.superop)


def choi_state(c: QuantumChannel) -> DensityMatrix:
    """Choi state ``(Phi (x) id)(|Omega><Omega|)`` with the channel acting on
    the first qubit; valid only for trace-preserving channels."""
    return DensityMatrix(choi_matrix(c) / 2)


def compose(first: QuantumChannel, then: QuantumChannel) -> QuantumChannel:
    """The map ``then o first``: a signal passes through ``first`` first."""
    return compose_signal_chain((first, then))


def compose_signal_chain(chain: Sequence[QuantumChannel]) -> QuantumChannel:
    """Compose a list of channels given in signal order (first applied first),
    multiplying their superoperators and validating only the product."""
    if not chain:
        raise DimensionMismatch("empty channel chain")
    total = chain[0].superop
    for then in chain[1:]:
        total = then.superop @ total
    return QuantumChannel(total)


def superop_distance(a, b) -> float:
    """Spectral-norm distance between two channels or raw superoperators."""
    sa = getattr(a, "superop", a)
    sb = getattr(b, "superop", b)
    return opnorm(np.asarray(sa) - np.asarray(sb))


def _first_breaking(superops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Score a stack ``(m, k, 4, 4)``: ``k`` consecutive powers of each of
    ``m`` trace-preserving qubit channels.

    Returns the index of each row's first entanglement-breaking map (``k`` if
    none is) and the signed pre-clamp concurrences of every Choi state, shape
    ``(m, k)``.  A map up to its row's first breaking index whose concurrence
    and PPT verdicts disagree beyond ``TOL.conflict_band`` raises
    :class:`ToleranceConflict` (the first such map in row order); later maps
    cannot.  Each Choi state is checked and eigendecomposed once.
    """
    choi = choi_matrices(superops) / 2.0
    conc, low = _scores(choi)
    _checked_psd(low)
    neg = _hermitian_negativity(choi)
    eb = conc.value <= TOL.eb
    # the verdicts disagree and the value that disagrees lies outside the band
    conflict = ((eb & (neg > TOL.conflict_band))
                | ((neg <= TOL.eb) & (conc.value > TOL.conflict_band)))
    k = eb.shape[-1]
    first = np.where(eb.any(axis=-1), eb.argmax(axis=-1), k)
    bad = np.argwhere(conflict & (np.arange(k) <= first[:, None]))
    if bad.size:
        i = tuple(bad[0])
        raise ToleranceConflict(
            f"concurrence {conc.value[i]:.3e} vs negativity {neg[i]:.3e}")
    return first, conc.pre_clamp


def is_eb(c: QuantumChannel) -> EbVerdict:
    """Entanglement-breaking test for a trace-preserving qubit channel.

    The verdict is driven by the Wootters concurrence of the Choi state
    (``<= TOL.eb`` means breaking) and cross-checked against the partial
    transpose: for two qubits both criteria are exact, so a disagreement
    outside a small band around zero is numerical pathology and raises
    :class:`ToleranceConflict`.  ``margin`` reports the signed pre-clamp
    concurrence.
    """
    ((order, margin),) = _orders_and_margins([c], 1)
    return EbVerdict(order == 1, margin)


def eb_order(c: QuantumChannel, max_n: int = 16) -> int | Unbounded:
    """Smallest n such that the n-fold self-composition is entanglement
    breaking; ``Unbounded(max_n)`` if no power up to ``max_n`` is.

    The powers ``S, S^2, ...`` of the superoperator are formed by doubling
    and scored in stacks that grow (4, 12, 48, then 64 at a time), with the
    verdict of :func:`is_eb`.  Every power up to the returned order is
    formed, validated and checked for a tolerance conflict; powers past the
    stack that holds the order are not formed.  Monotone by construction:
    once a power is breaking, every later power is.
    """
    return _orders_and_margins([c], max_n)[0][0]


def _orders_and_margins(channels: Sequence[QuantumChannel],
                        max_n: int) -> list[tuple[int | Unbounded, float]]:
    """:func:`eb_order` of every channel, and the margin :func:`is_eb`
    reports for it, taken from the same scoring of its first power.

    The unresolved channels are scored together, one ``(m, k, 4, 4)`` stack
    of their next ``k`` powers per round; a channel drops out once a power
    in its stack breaks.  A stack of ``k`` powers takes about ``log2(k) + 1``
    stacked products: doubling (the next ``j`` powers are the first ``j``
    times ``S^j``), then one product with the power carried from the rounds
    before.  Up to power 200 this agrees with running products to 1e-13.
    """
    if max_n < 1:
        raise OutOfRange("max_n must be at least 1")
    for c in channels:
        if not c.trace_preserving:
            raise ValueError("entanglement-breaking test needs a trace-preserving map")
    supers = np.array([c.superop for c in channels])
    orders: list[int | Unbounded] = [Unbounded(float(max_n))] * len(channels)
    margins: list[float] = []
    live = np.arange(len(channels))
    power = np.broadcast_to(np.eye(4, dtype=complex), supers.shape)
    done = 0
    while live.size and done < max_n:
        k = min(3 * done or _FIRST_STACK, _POWER_STACK, max_n - done)
        powers = supers[live]  # S^1..S^j as one tall (m, 4j, 4) stack per row
        while (j := powers.shape[1] // 4) < k:  # S^(j+i) = S^i S^j for i <= j
            powers = np.hstack((powers, powers[:, :4 * (k - j)] @ powers[:, -4:]))
        powers = (powers @ power).reshape(-1, k, 4, 4)
        first, pre = _first_breaking(powers)
        if not done:
            margins = [float(m) for m in pre[:, 0]]
        for row in np.flatnonzero(first < k):
            orders[live[row]] = done + int(first[row]) + 1
        keep = first == k
        live, power = live[keep], powers[keep, -1]
        done += k
    return list(zip(orders, margins))

