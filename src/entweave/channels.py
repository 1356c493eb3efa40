"""Qubit channels as column-stacking superoperators.

A channel is its superoperator matrix and nothing else: composition is the
matrix product, and the Choi matrix is a reshape of it.  Every channel maps
one qubit to one qubit, so its superoperator is 4x4.  It acts on a state as
``unvec(superop @ vec(rho))`` and on half of a pair by the Choi reshuffle of
``qmath``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .entanglement import _normalized, _ppt_verdicts, _scores
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
    is_unitary,
    opnorm,
    sandwich_superop,
)

# Breaking orders are searched by galloping, then narrowing brackets.  The
# first round holds the first _FIRST_STACK powers of each channel and the
# powers of two up to _POWER_STACK (the last capped at --max-order); past it
# the gallop scores one power of two per round until one certainly breaks, so
# no power past max(_POWER_STACK, twice the first that does) is formed.  Then
# at most _POWER_STACK powers inside each bracket per round, so a round holds
# at most that many powers of a channel per bracket whatever --max-order asks
# for
_FIRST_STACK = 4
_POWER_STACK = 64

# The verdict on power n of a channel (entanglement._ppt_verdicts) reads
# lambda_min of the partial transpose of its Choi state against the band
# delta_n = _BAND * n * eps * lambda_max: at or above delta_n the power
# certainly breaks, at or below -delta_n it certainly transmits, in between
# double precision cannot tell.
# delta_n covers forming the power (about eps (1 + log2 n) lambda_max) and the
# input's rounding, which the n-th power carries n times.  Against the exact
# powers of tests/test_exact_orders.py (50 digits) the float lambda_min is
# off by at most 0.75 delta_n at every power 1-64 of every case there, the
# most at power 1 of ad(3/10) under zx-diag; a Haar-conjugated pd(0.2)
# measured 0.42 delta_64 at power 64 against 60-digit powers.
_BAND = 1.0
# past 2**52 powers n eps >= 1, so delta_n >= lambda_max and no power is decided
_MAX_ORDER = 2 ** 52
_HERMITIAN_TOL = 1e-8  # a map's or a generator's Choi matrix, and a generator's trace row


class ToleranceConflict(RuntimeError):
    """Concurrence and PPT verdicts disagree beyond the tolerance band."""


class NotCompletelyPositive(ValueError):
    """A superoperator whose Choi matrix is not Hermitian or has a
    significantly negative eigenvalue, or a generator not of Lindblad form."""


@dataclass(frozen=True)
class Unbounded:
    """Marker return value: every power (:func:`eb_order`) or length
    (``continuous.eb_length``) up to ``searched_up_to`` certainly transmits,
    so no entanglement-breaking threshold was found there."""

    searched_up_to: float

    def __str__(self):
        return f"unbounded (searched up to {self.searched_up_to:g})"


@dataclass(frozen=True)
class Undecided:
    """Marker return value of :func:`eb_order` and ``continuous.eb_length``:
    the powers or lengths from ``first`` on are too close to the separable
    boundary for double precision to decide.  ``last`` is the first that
    certainly breaks, None when none does up to ``searched_up_to``; the
    threshold lies in ``[first, last]``.  A format spec formats both."""

    first: int | float
    last: int | float | None
    searched_up_to: float

    def __format__(self, spec=""):
        if self.last is None:
            return (f"undecided from {self.first:{spec}} "
                    f"(searched up to {self.searched_up_to:g})")
        return f"undecided from {self.first:{spec}}, breaks by {self.last:{spec}}"

    __str__ = __format__


class EbVerdict(NamedTuple):
    eb: bool
    margin: float  # signed pre-clamp concurrence of the Choi state


def _gram(superop: np.ndarray) -> np.ndarray:
    """``sum_k K^dag K`` of a map: ``Tr Phi(rho) = Tr(gram @ rho)``.
    ``vec(I)^T superop``, the sum of rows 0 and 3, is ``vec(gram^T)``, so
    that sum read row by row is ``gram``."""
    return (superop[0] + superop[3]).reshape(2, 2)


def _top_eigenvalue(a: float, b: complex, d: float) -> float:
    """Largest eigenvalue of the Hermitian 2x2 ``[[a, conj(b)], [b, d]]``,
    in closed form from what ``eigvalsh`` reads: the real diagonal and the
    lower triangle."""
    return (a + d) / 2 + math.hypot((a - d) / 2, abs(b))


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """A completely positive, trace-nonincreasing qubit map, stored as its
    4x4 column-stacking superoperator: ``vec(Phi(rho)) = superop @ vec(rho)``.

    Construction copies the superoperator once and checks it in one pass, in
    this order: its shape is 4x4 (else :class:`DimensionMismatch`); its
    entries are finite (else ``ValueError``); it is completely positive, its
    Choi matrix Hermitian within 1e-8 with no eigenvalue below ``-TOL.psd``
    (else :class:`NotCompletelyPositive`); and it does not amplify trace,
    the Gram matrix ``sum_k K^dag K``, read off ``vec(I)^T superop``, having
    no eigenvalue above ``1 + TOL.psd`` (else ``ValueError``).  The Choi
    spectrum is one ``eigvalsh``; the Gram matrix's top eigenvalue is the
    closed form of a Hermitian 2x2, from its diagonal and lower triangle.
    Kraus operators go in through :meth:`from_kraus`.
    """

    superop: np.ndarray
    trace_preserving: bool = field(init=False)

    def __post_init__(self):
        s = np.array(self.superop, dtype=complex)
        if s.shape != (4, 4):
            _qubit_shaped(as_matrix(s), (4, 4))  # raises, naming the shape
        if not np.isfinite(s).all():
            raise ValueError("superoperator has non-finite entries")
        s.setflags(write=False)
        choi = choi_matrices(s)
        if not np.abs(choi - choi.conj().T).max() <= _HERMITIAN_TOL:
            raise NotCompletelyPositive("Choi matrix is not Hermitian")
        low = np.linalg.eigvalsh(choi)[0]
        if low < -TOL.psd:
            raise NotCompletelyPositive(f"Choi matrix has negative eigenvalue {low:.3e}")
        (a, c), (b, d) = _gram(s).tolist()
        high = _top_eigenvalue(a.real, b, d.real)
        if high > 1.0 + TOL.psd:
            raise ValueError(f"map amplifies trace: max eig {high:.6f}")
        tp = max(abs(a - 1), abs(b), abs(c), abs(d - 1)) <= TOL.structural
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


def choi_state(c: QuantumChannel) -> np.ndarray:
    """Choi state ``(Phi (x) id)(|Omega><Omega|)`` as a 4x4 array, with the
    channel acting on the first qubit.  A map that is not trace preserving
    has no Choi state of unit trace, so it raises ``ValueError``."""
    if not c.trace_preserving:
        raise ValueError("Choi state needs a trace-preserving map")
    return choi_matrices(c.superop) / 2


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
    """One channel's breaking-order search after the shared first round:
    its squares and its scored powers, ascending, as ``(exponent, verdict,
    power)`` samples.  An edge's bracket is read off them (:meth:`_edge`)."""

    squares: list[np.ndarray]  # S^(2^j), as many as formed
    samples: list[tuple[int, int, np.ndarray]] = field(default_factory=list)

    def _edge(self, past: int) -> int:
        """Index of the first sample at or past an edge, its verdict
        (:func:`_ppt_verdicts`) at least ``past``: 0 for the first power that
        does not certainly transmit, 1 for the first that certainly breaks;
        ``len(samples)`` when none is.  The sample before it brackets the
        edge from below."""
        for j, sample in enumerate(self.samples):
            if sample[1] >= past:
                return j
        return len(self.samples)

    def next_powers(self, max_n: int) -> list[tuple[range, np.ndarray]]:
        """The next powers to score after the first round
        (:func:`_first_round`), one piece of exponents and powers per
        bracket, in ascending order; none once both edges are found.

        While no power certainly breaks, the gallop's next power
        (:func:`_gallop`); inside a bracket, at most ``_POWER_STACK`` powers
        a power-of-two stride apart.  The lower bracket is narrowed on its
        own only once an undecided power parts it from the upper."""
        lower, upper, n = self._edge(0), self._edge(1), len(self.samples)
        pieces = [self._inside(j) for j in sorted({lower, upper})
                  if 0 < j < n and self.samples[j][0] > self.samples[j - 1][0] + 1]
        if upper == n and (last := self.samples[-1])[0] < max_n:
            exp, power = _gallop(self.squares, last[0], last[2], max_n)
            pieces.append((range(exp, exp + 1), power[None]))
        return pieces

    def _inside(self, j: int) -> tuple[range, np.ndarray]:
        (lo, _, base), hi = self.samples[j - 1], self.samples[j][0]
        shift = ((hi - lo - 1) // (_POWER_STACK + 1)).bit_length()
        stride, count = 1 << shift, (hi - lo - 1) >> shift
        exps = range(lo + stride, lo + stride * count + 1, stride)
        return exps, _power_grid(self.squares[shift], count, base)

    def order(self, max_n: int) -> int | Unbounded | Undecided:
        exps = [e for e, _, _ in self.samples] + [None]  # None where no edge is
        return _answer(exps[self._edge(0)], exps[self._edge(1)], float(max_n))


def _answer(first, last, searched_up_to: float) -> int | float | Unbounded | Undecided:
    """A breaking search's answer from its edges, the first point that does
    not certainly transmit and the first that certainly breaks, each None
    when none does up to ``searched_up_to``: the threshold when they agree,
    else :class:`Unbounded` or :class:`Undecided`.  The order search
    (:meth:`_OrderSearch.order`) and the line search (``continuous._search``)
    both answer through it."""
    if first is None:
        return Unbounded(searched_up_to)
    return first if first == last else Undecided(first, last, searched_up_to)


def is_eb(c: QuantumChannel) -> EbVerdict:
    """Entanglement-breaking test for a trace-preserving qubit channel: ``eb``
    when its Choi state certainly breaks, by the partial-transpose verdict
    of :func:`eb_order` at power 1.  A channel on the PPT boundary, such as
    ``ad_channel(0)``, is undecided and so not ``eb``.  ``margin`` reports
    the signed pre-clamp Wootters concurrence of the Choi state, which
    cross-checks the verdict as :func:`eb_order` describes.
    """
    order, margin = _checked_search(c, 1)
    return EbVerdict(order == 1, margin)


def eb_order(c: QuantumChannel, max_n: int = 16) -> int | Unbounded | Undecided:
    """Smallest n such that the n-fold self-composition certainly breaks
    entanglement; ``Unbounded(max_n)`` if every power up to ``max_n``
    certainly transmits; ``Undecided(first, last, max_n)`` if double
    precision cannot decide the powers from ``first`` on, ``last`` being
    the first power that certainly breaks (None if none does up to
    ``max_n``).  ``max_n`` lies in [1, 2**52], else :class:`OutOfRange`:
    past it ``n eps >= 1`` and no power could be decided.

    Each power is judged by :func:`_ppt_verdicts`: it certainly breaks when
    ``lambda_min`` of its Choi state's partial transpose is at least
    ``delta_n = n eps lambda_max``, certainly transmits when it is at most
    ``-delta_n``, and is undecided in between.  The search relies on
    absorption: the Choi state of ``S^(n+1)`` is ``S (x) id`` applied to that
    of ``S^n``, and a local channel cannot create entanglement, so the
    verdicts read "transmits", then "undecided", then "breaks" along the
    powers.  It gallops: one first round of powers 1 to 4 and the squares
    8, 16, 32 and 64, then one square per round until a power certainly
    breaks, each square the square of the last and the last capped at
    ``max_n``.  Then it scores at most 64 evenly spaced powers inside each
    bracket per round, the bracket of the first power that does not
    certainly transmit and that of the first that certainly breaks, so no
    power past max(64, twice the latter), or ``max_n``, is formed.  An
    edge's bracket is the first scored power at or past it and the scored
    power before it, the rule ``continuous.eb_length`` brackets lengths by,
    and both searches answer through :func:`_answer`.  The
    channel was held to complete positivity when built, and trace
    preservation and ``max_n`` are checked here; its powers are scored as
    formed, power 1 alone cross-checked against its concurrence
    (:func:`_orders_and_margins`).  Powers the search skips are not scored.
    """
    return _checked_search(c, max_n)[0]


def _checked_search(c: QuantumChannel, max_n: int) -> tuple[int | Unbounded | Undecided, float]:
    """Order and margin of one channel as it enters the search: ``max_n`` an
    integer (else ``TypeError``) in [1, 2**52] (else :class:`OutOfRange`),
    trace preserved (else ``ValueError``)."""
    max_n = operator.index(max_n)
    if not 1 <= max_n <= _MAX_ORDER:
        raise OutOfRange(f"max_n must lie in [1, 2**52], got {max_n}")
    if not c.trace_preserving:
        raise ValueError("entanglement-breaking test needs a trace-preserving map")
    return _orders_and_margins(c.superop[None], max_n)[0][0]


def _orders_and_margins(superops: np.ndarray, max_n: int
                        ) -> tuple[list[tuple[int | Unbounded | Undecided, float]], int, int]:
    """:func:`eb_order` of every map of a stack ``(C, 4, 4)``, and the margin
    :func:`is_eb` reports for it, the signed pre-clamp concurrence of its
    first power by ``entanglement._scores``; beside them, the number of Choi
    states scored by the partial-transpose verdict and of scoring rounds.
    It checks nothing: the maps and ``max_n`` were checked where they entered
    (:func:`_checked_search`), or the maps formed as products of checked ones.

    Each round forms and normalizes the Choi states of one flat stack once.
    The first holds every map's powers 1 to 4 and squares up to
    ``min(max_n, 64)``, formed from the stack (:func:`_first_round`), so at
    ``max_n = 64`` a search takes at most two rounds; each later one holds
    every unresolved map's next powers (:meth:`_OrderSearch.next_powers`),
    read off the brackets of the powers scored so far (:meth:`_OrderSearch._edge`).
    Power 1's concurrence is read off the first round's rows, and power 1 of
    each map raises :class:`ToleranceConflict` if it certainly breaks and its
    concurrence is above ``TOL.conflict_band``, or if it certainly transmits
    with ``-lambda_min`` above that band and its concurrence is at or below
    it (the negativity never exceeds the concurrence: Verstraete et al., J.
    Phys. A 34, 10327, 2001).  Up to power 200 every formed power agrees
    with running products to 1e-13.
    """
    exps, stacks, squares = _first_round(superops, max_n)
    searches = [_OrderSearch([sq[k] for sq in squares]) for k in range(len(superops))]
    rounds = [(s, exps, [stack]) for s, stack in zip(searches, stacks)]
    scored = scoring_rounds = 0
    while rounds:
        powers = np.concatenate([p for _, _, blocks in rounds for p in blocks])
        rho = _normalized(choi_matrices(powers))
        scale = _BAND * np.array([e for _, exps, _ in rounds for e in exps], dtype=float)
        verdicts, low, _ = _ppt_verdicts(rho, scale)
        verdicts = verdicts.tolist()
        if not scoring_rounds:  # power 1 of each channel leads its first round
            step = len(rounds[0][1])
            margins = _check_power_one(rho[::step], verdicts[::step], low[::step].tolist())
        scored, scoring_rounds = scored + len(powers), scoring_rounds + 1
        start, live = 0, []
        for s, exps, _ in rounds:
            end = start + len(exps)
            scored_now = zip(exps, verdicts[start:end], powers[start:end])
            s.samples = sorted([*s.samples, *scored_now], key=lambda sample: sample[0])
            if pieces := s.next_powers(max_n):
                live.append((s, [e for r, _ in pieces for e in r], [p for _, p in pieces]))
            start = end
        rounds = live
    return [(s.order(max_n), m) for s, m in zip(searches, margins)], scored, scoring_rounds


def _check_power_one(rho: np.ndarray, verdicts: list[int], lows: list[float]) -> list[float]:
    """The margins of the maps' powers 1 (normalized Choi states ``rho``),
    their signed pre-clamp concurrences, each cross-checked against that
    power's verdict and ``lambda_min(rho^Gamma)``, as :func:`_orders_and_margins` states."""
    conc = _scores(rho)[0]
    for verdict, low, value in zip(verdicts, lows, conc.value.tolist()):
        if ((verdict == 1 and value > TOL.conflict_band)
                or (verdict == -1 and -low > TOL.conflict_band and value <= TOL.conflict_band)):
            raise ToleranceConflict(f"concurrence {value:.3e} vs partial-transpose "
                                    f"eigenvalue {low:.3e}")
    return conc.pre_clamp.tolist()
