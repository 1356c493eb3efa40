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

from .entanglement import _derived_scores, _hermitian_negativity
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
from .states import DensityMatrix

# Breaking orders are searched by galloping, then narrowing a bracket.  The
# first round holds the first _FIRST_STACK powers of each channel and the
# powers of two up to _POWER_STACK (the last capped at --max-order); past it
# the gallop scores one power of two per round until one breaks, so no power
# past max(_POWER_STACK, twice the order) is formed.  Then at most
# _POWER_STACK powers inside the bracket per round, so a round holds at most
# that many powers of a channel whatever --max-order asks for
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


def _verdicts(superops: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Score a stack ``(..., 4, 4)`` of trace-preserving qubit maps.

    Returns, per map, whether it is entanglement breaking (Choi concurrence
    ``<= TOL.eb``), whether its concurrence and PPT verdicts disagree beyond
    ``TOL.conflict_band``, the signed pre-clamp concurrence and the
    negativity; the caller decides which disagreements count.  Each Choi
    state is scored once by ``entanglement._derived_scores``, which raises as
    :func:`validate_density` does on the first below ``-TOL.psd``.
    """
    conc, choi = _derived_scores(choi_matrices(superops))
    neg = _hermitian_negativity(choi)
    eb = conc.value <= TOL.eb
    # the verdicts disagree and the value that disagrees lies outside the band
    conflict = ((eb & (neg > TOL.conflict_band))
                | ((neg <= TOL.eb) & (conc.value > TOL.conflict_band)))
    return eb, conflict, conc.pre_clamp, neg


def _conflict(pre: float, neg: float) -> ToleranceConflict:
    return ToleranceConflict(f"concurrence {max(0.0, pre):.3e} vs negativity {neg:.3e}")


def _power_grid(step: np.ndarray, count: int, base: np.ndarray | None) -> np.ndarray:
    """``step^j @ base`` for ``j = 1..count`` (``step^j`` without a base),
    formed by doubling: the next ``j`` powers are the first ``j`` times
    ``step^j``, about ``log2(count) + 1`` stacked products in all."""
    powers = step[None]
    while (j := len(powers)) < count:
        powers = np.concatenate((powers, powers[:count - j] @ powers[-1]))
    return powers if base is None else powers @ base


def _from_squares(squares: list[np.ndarray], e: int) -> np.ndarray:
    """``S^e`` from ``squares[j] = S^(2^j)``, one product per further bit."""
    bits = [sq for j, sq in enumerate(squares) if e >> j & 1]
    power = bits[0]
    for sq in bits[1:]:
        power = sq @ power
    return power


def _gallop(squares: list[np.ndarray], lo: int, power: np.ndarray, max_n: int
            ) -> tuple[int, np.ndarray]:
    """The gallop's next exponent past ``lo`` and its power, from ``power =
    S^lo`` (one map or a stack): ``2 lo``, the square ``S^lo @ S^lo``
    appended to ``squares``, or ``max_n`` if nearer, ``S^(max_n - lo) @ S^lo``."""
    stride = min(lo, max_n - lo)
    power = _from_squares(squares, stride) @ power
    if stride == lo:
        squares.append(power)
    return lo + stride, power


def _first_round(superops: np.ndarray, max_n: int
                 ) -> tuple[list[int], np.ndarray, list[np.ndarray]]:
    """The first round of the order search for a stack ``(C, 4, 4)`` of
    maps: its exponents, the powers ``(C, len(exps), 4, 4)`` and the squares
    ``S^(2^j)`` formed.

    Powers 1 to ``_FIRST_STACK`` by :func:`_power_grid`, then the gallop
    (:func:`_gallop`) up to ``min(max_n, _POWER_STACK)``: 8, 16, 32 and 64,
    each formed with the operands a later gallop round would use."""
    count = min(_FIRST_STACK, max_n)
    exps = list(range(1, count + 1))
    powers = list(_power_grid(superops, count, None))
    squares = [p for e, p in zip(exps, powers) if not e & (e - 1)]
    while exps[-1] < min(max_n, _POWER_STACK):
        exp, power = _gallop(squares, exps[-1], powers[-1], max_n)
        exps.append(exp)
        powers.append(power)
    return exps, np.stack(powers, axis=1), squares


@dataclass(eq=False)
class _OrderSearch:
    """One channel's breaking-order search: the bracket between ``lo``, its
    highest power scored that does not break, and ``hi``, its lowest power
    scored that breaks (0 while none has), after the shared first round."""

    superop: np.ndarray
    squares: list[np.ndarray]  # S^(2^j), as many as formed
    lo: int = 0
    hi: int = 0
    base: np.ndarray | None = None  # S^lo, None for lo = 0
    pending: ToleranceConflict | None = None  # power hi's conflict
    margin: float = 0.0  # power 1's signed pre-clamp concurrence

    def next_powers(self, max_n: int) -> tuple[range, np.ndarray]:
        """The exponents of the next powers to score and the powers, after
        the first round (:func:`_first_round`).

        While none breaks, the gallop's next power (:func:`_gallop`); then
        at most ``_POWER_STACK`` powers inside the bracket, a power-of-two
        stride apart."""
        if not self.hi:
            exp, power = _gallop(self.squares, self.lo, self.base, max_n)
            return range(exp, exp + 1), power[None]
        shift = ((self.hi - self.lo - 1) // (_POWER_STACK + 1)).bit_length()
        stride, count = 1 << shift, (self.hi - self.lo - 1) >> shift
        exps = range(self.lo + stride, self.lo + stride * count + 1, stride)
        return exps, _power_grid(self.squares[shift], count, self.base)


def is_eb(c: QuantumChannel) -> EbVerdict:
    """Entanglement-breaking test for a trace-preserving qubit channel.

    The verdict is driven by the Wootters concurrence of the Choi state
    (``<= TOL.eb`` means breaking) and cross-checked against the partial
    transpose: for two qubits both criteria are exact, so a disagreement
    outside a small band around zero is numerical pathology and raises
    :class:`ToleranceConflict`.  ``margin`` reports the signed pre-clamp
    concurrence.  It scores the one Choi state of the channel itself.
    """
    (((order, margin),), *_) = _orders_and_margins([c], 1)
    return EbVerdict(order == 1, margin)


def eb_order(c: QuantumChannel, max_n: int = 16) -> int | Unbounded:
    """Smallest n such that the n-fold self-composition is entanglement
    breaking; ``Unbounded(max_n)`` if no power up to ``max_n`` is.

    The search relies on absorption: once ``S^n`` is breaking, so is every
    later power, since the Choi state of ``S^(n+1)`` is ``S (x) id`` applied
    to that of ``S^n`` and a local channel cannot raise concurrence.  It
    gallops: one first round of powers 1 to 4 and the squares 8, 16, 32 and
    64, then one square per round until a power breaks, each square the
    square of the last and the last capped at ``max_n``.  Then it scores at
    most 64 evenly spaced powers inside the bracket per round, so no power
    past max(64, twice the order), or ``max_n``, is formed.  Every scored
    power gets the verdict of :func:`is_eb` and is validated; those up to
    the returned order are also cross-checked for a tolerance conflict.
    Powers the search skips are not scored at all.
    """
    return _orders_and_margins([c], max_n)[0][0][0]


def _orders_and_margins(channels: Sequence[QuantumChannel], max_n: int
                        ) -> tuple[list[tuple[int | Unbounded, float]], int, int]:
    """:func:`eb_order` of every channel, and the margin :func:`is_eb`
    reports for it, taken from the same scoring of its first power; beside
    them, the number of Choi states scored and of scoring rounds.

    Each round scores one flat stack.  The first holds every channel's
    powers 1 to 4 and squares up to ``min(max_n, 64)``, formed from one
    ``(channels, 4, 4)`` stack (:func:`_first_round`), so at ``max_n = 64``
    a search takes at most two rounds; each later one holds every unresolved
    channel's next powers (:meth:`_OrderSearch.next_powers`).  A scored
    power raises :class:`ToleranceConflict` if it conflicts and does not
    break, or if it is the channel's order; a breaking power that closed a
    bracket the order lies inside does not count.  Up to power 200 every formed power
    agrees with running products to 1e-13.
    """
    if max_n < 1:
        raise OutOfRange("max_n must be at least 1")
    for c in channels:
        if not c.trace_preserving:
            raise ValueError("entanglement-breaking test needs a trace-preserving map")
    exps, stacks, squares = _first_round(np.stack([c.superop for c in channels]), max_n)
    searches = [_OrderSearch(c.superop, [sq[k] for sq in squares])
                for k, c in enumerate(channels)]
    rounds = [(s, exps, stack) for s, stack in zip(searches, stacks)]
    scored = scoring_rounds = 0
    while rounds:
        powers = np.concatenate([p for _, _, p in rounds])
        eb, conflict, pre, neg = _verdicts(powers)
        scored, scoring_rounds = scored + len(powers), scoring_rounds + 1
        eb, conflict = eb.tolist(), conflict.tolist()
        start, live = 0, []
        for s, exps, stack in rounds:
            end = start + len(exps)
            first = next((k for k in range(start, end) if eb[k]), end)
            for k in range(start, first):
                if conflict[k]:
                    raise _conflict(pre[k], neg[k])
            if not s.lo:
                s.margin = float(pre[start])
            if first > start:
                s.lo, s.base = exps[first - start - 1], stack[first - start - 1]
            if first < end:
                s.hi = exps[first - start]
                s.pending = _conflict(pre[first], neg[first]) if conflict[first] else None
            if s.hi == s.lo + 1 and s.pending:
                raise s.pending
            if s.hi > s.lo + 1 or (not s.hi and s.lo < max_n):
                live.append(s)
            start = end
        rounds = [(s, *s.next_powers(max_n)) for s in live]
    return ([(s.hi or Unbounded(float(max_n)), s.margin) for s in searches],
            scored, scoring_rounds)
