"""Continuous propagation under piecewise-switched Lindblad generators.

The generators come in mirrored pairs: a fixed dissipator plus a coherent
drive whose sign flips between the two family members.  A switched line
alternates the pair over equal slices of propagation length; interleaving
finer and finer slices pushes the entanglement-breaking threshold out and
approaches the drive-free dissipative semigroup in the limit.  A line is
scored by its Choi states, as a channel's powers are, so its concurrence
curve and its breaking length belong to the line itself.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from math import inf, isfinite
from typing import NamedTuple, Sequence

import numpy as np

from .channels import _HERMITIAN_TOL, NotCompletelyPositive, Unbounded, Undecided, _answer, _gram
from .entanglement import _EPS, _normalized, _ppt_verdicts, _scores
from .qmath import (
    LOWERING,
    SIGMA_X,
    SIGMA_Z,
    TOL,
    NonHermitian,
    OutOfRange,
    Spectral,
    _qubit_shaped,
    as_matrix,
    choi_matrices,
    dagger,
    is_hermitian,
    maximally_entangled,
    opnorm,
    projector,
    sandwich_superop,
)

# profiles score this many grid points in one stack, so memory stays bounded
# whatever --steps asks for
_STACK_POINTS = 1024

# each round of the breaking-length search scores one stack inside its
# bracket: a grid of this many evenly spaced interior lengths, which narrows
# the bracket 18-fold, or a window (below)
_BRACKET_POINTS = 17

# a window is this many lengths on the edges (k + 1/2) xtol of the rounding
# cells about the interpolated root, so two neighbours that straddle it close
# a bracket inside one cell; tried once the bracket is at most x_hi / 18**2
_WINDOW_POINTS = 16

# A line's verdict at a length in slice k (k = 0 for a Liouvillian) reads
# lambda_min(rho^Gamma) against delta = _LINE_BAND c (k + 1) eps lambda_max:
# k + 1 propagators are multiplied, and c, the line's largest Spectral.cond,
# scales their error.  Against 40-digit mpmath lines the float lambda_min is
# off by at most 3.75 c (k + 1) eps lambda_max (Pade path at the AD exceptional
# point; beside it, at cond(V) 994, 0.42 c): 16 keeps each within delta / 4
_LINE_BAND = 16.0

# the projector off the maximally entangled state (|00> + |11>)/sqrt(2)
_OFF_OMEGA = np.eye(4) - projector(maximally_entangled())


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """A 4x4 column-stacking generator matrix for a qubit master equation;
    any other shape raises :class:`~entweave.qmath.DimensionMismatch`.

    A generator with non-finite entries, or that does not preserve
    Hermiticity (its Choi reshuffle Hermitian to 1e-8, as for a
    ``QuantumChannel``) or trace, is refused before it is factored, and so
    is one not of Lindblad form (:class:`~entweave.channels.NotCompletelyPositive`):
    its Choi matrix, scaled to unit largest real or imaginary part, has an
    eigenvalue below ``-TOL.psd`` off the maximally entangled state
    (conditional complete positivity: Lindblad, CMP 48, 119, 1976; Wolf,
    Eisert, Cubitt & Cirac, PRL 101, 150402, 2008).  Its propagators are then
    channels, and the states a line derives from them are scored as formed.
    ``spectral`` is its :class:`~entweave.qmath.Spectral`, factored once at
    construction, so propagating it never refactors.
    """

    generator: np.ndarray
    spectral: Spectral = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = _qubit_shaped(as_matrix(self.generator), (4, 4))
        if not np.isfinite(g).all():
            raise ValueError("generator has non-finite entries")
        choi = choi_matrices(g)
        if not is_hermitian(choi, tol=_HERMITIAN_TOL):
            raise NonHermitian("generator does not preserve Hermiticity")
        # trace preservation: <<I| L = 0, read off rows 0 and 3 as for a channel
        if np.max(np.abs(_gram(g))) > _HERMITIAN_TOL:
            raise ValueError("generator does not preserve trace")
        # scaled part by part, so neither huge nor subnormal entries overflow;
        # subnormal ones carry an absolute rounding, which the floor allows for
        scale = max(abs(choi.real).max(), abs(choi.imag).max()) or 1.0
        scaled = choi.real / scale + 1j * (choi.imag / scale)
        low = np.linalg.eigvalsh(_OFF_OMEGA @ scaled @ _OFF_OMEGA)[0]
        if low < -max(TOL.psd, 16.0 * np.finfo(float).smallest_subnormal / scale):
            raise NotCompletelyPositive(f"generator is not of Lindblad form: its scaled Choi "
                                        f"matrix has eigenvalue {low:.3e} off the maximally "
                                        f"entangled state")
        spectral = Spectral(g)
        object.__setattr__(self, "generator", spectral.matrix)
        object.__setattr__(self, "spectral", spectral)


@dataclass(frozen=True, eq=False)
class SwitchedLine:
    """Alternate two generators over consecutive slices of equal length.

    Positions ``x`` in slice ``k = floor(x / slice_len)`` evolve under
    ``gen_even`` for even ``k`` and ``gen_odd`` for odd ``k``.  The whole-slice
    propagator ``even = exp(L_even s)`` and ``pair``, the
    :class:`~entweave.qmath.Spectral` of ``exp(L_odd s) even``, are computed
    once, at construction.  Slice counts from ``2**53`` on are refused.
    """

    gen_even: Liouvillian
    gen_odd: Liouvillian
    slice_len: float
    even: np.ndarray = field(init=False, repr=False, compare=False)
    pair: Spectral = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.slice_len < inf:
            raise OutOfRange(f"slice length must be positive and finite, "
                             f"got {self.slice_len}")
        even = self.gen_even.spectral.exp([self.slice_len])[0]
        pair = Spectral(self.gen_odd.spectral.exp([self.slice_len])[0] @ even)
        even.setflags(write=False)
        object.__setattr__(self, "even", even)
        object.__setattr__(self, "pair", pair)


def _hamiltonian_superop(h) -> np.ndarray:
    # rho -> h rho - rho h, each side a sandwich: kron(I, h) and kron(h.T, I)
    h = as_matrix(h)
    eye = np.eye(h.shape[0], dtype=complex)
    return -1.0j * (sandwich_superop(h, eye) - sandwich_superop(eye, dagger(h)))


def _dissipator_superop(jump) -> np.ndarray:
    jump = as_matrix(jump)
    eye = np.eye(jump.shape[0], dtype=complex)
    jj = dagger(jump) @ jump
    return sandwich_superop(jump, jump) - 0.5 * (sandwich_superop(jj, eye)
                                                 + sandwich_superop(eye, dagger(jj)))


def _check_rates(omega: float, eps: float) -> None:
    if not isfinite(omega):
        raise OutOfRange(f"drive omega must be finite, got {omega}")
    if not 0.0 <= eps < inf:
        raise OutOfRange(f"rate eps must be nonnegative and finite, got {eps}")


def _drive(j: int, omega: float) -> np.ndarray:
    if j not in (1, 2):
        raise OutOfRange("generator index must be 1 or 2")
    sign = 1.0 if j == 1 else -1.0
    return sign * omega * SIGMA_X


def _rotating_liouvillian(j: int, omega: float, eps: float, jump) -> Liouvillian:
    _check_rates(omega, eps)
    # a rate past half the largest float overflows the dephasing part, whose
    # diagonal holds -2; the Liouvillian's check on non-finite entries refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        gen = _hamiltonian_superop(_drive(j, omega)) + eps * _dissipator_superop(jump)
    return Liouvillian(gen)


def rotating_ad_liouvillian(j: int, omega: float, eps: float) -> Liouvillian:
    """Amplitude-damping generator with an x-axis drive of sign (-1)^(j+1).

    ``d rho / dx = -i [H_j, rho] + eps (L rho L^dag - {L^dag L, rho}/2)`` with
    ``H_j = (+/-) omega sigma_x`` and ``L = |0><1|``.  With omega = 0 the
    propagator over length x is the damping channel with parameter
    ``exp(-eps x)``.
    """
    return _rotating_liouvillian(j, omega, eps, LOWERING)


def rotating_pd_liouvillian(j: int, omega: float, eps: float) -> Liouvillian:
    """Dephasing generator with the same mirrored x-axis drive.

    The dephasing part is ``eps (sigma_z rho sigma_z - rho)``, under which
    coherences decay as ``exp(-2 eps x)``; with omega = 0 the propagator is the
    phase-damping channel with parameter ``exp(-2 eps x)``.
    """
    return _rotating_liouvillian(j, omega, eps, SIGMA_Z)


def average_liouvillian(a: Liouvillian, b: Liouvillian) -> Liouvillian:
    """Mean generator: the infinitely-fine interleaving limit of a switched pair.

    A mean that overflows is refused by the :class:`Liouvillian` check on
    non-finite entries alone, without floating-point warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = (a.generator + b.generator) / 2.0
    return Liouvillian(mean)


def switched_line(l1: Liouvillian, l2: Liouvillian, total_len: float,
                  n: int) -> SwitchedLine:
    """Cut ``total_len`` into ``n`` equal slices per generator alternation;
    ``n`` is an integer (else ``TypeError``) of at least 1."""
    if operator.index(n) < 1:
        raise OutOfRange("slice count must be at least 1")
    if not 0.0 < total_len < inf:
        raise OutOfRange(f"total length must be positive and finite, got {total_len}")
    return SwitchedLine(l1, l2, total_len / n)


def _switched_superops(line: SwitchedLine, xs: np.ndarray) -> np.ndarray:
    # the first k whole slices multiply to pair^(k // 2), times even when k is
    # odd; the rest of slice k evolves under that slice's generator
    slices = xs / line.slice_len
    if slices.max(initial=0.0) >= 2.0 ** 53:
        raise OutOfRange(f"{slices.max():.3g} slices of {line.slice_len:g}: "
                         f"slice counts from 2**53 on are not exact")
    k = np.floor(slices).astype(int)
    frac = xs - k * line.slice_len
    odd = k % 2 == 1
    total = line.pair.power(k // 2)
    total[odd] = line.even @ total[odd]
    for gen, slot in ((line.gen_even, ~odd), (line.gen_odd, odd)):
        tail = slot & (frac > 0.0)
        if tail.any():
            total[tail] = gen.spectral.exp(frac[tail]) @ total[tail]
    return total


def propagation_superop(source: Liouvillian | SwitchedLine,
                        x: float | np.ndarray) -> np.ndarray:
    """Column-stacking superoperator of evolution from 0 to x.

    A scalar ``x`` gives one matrix; an array of lengths gives the stack of
    their superoperators, shape ``x.shape + (4, 4)``.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all((xs >= 0.0) & (xs < np.inf)):
        raise OutOfRange("propagation length must be nonnegative and finite")
    flat = xs.reshape(-1)
    if isinstance(source, SwitchedLine):
        stack = _switched_superops(source, flat)
    else:
        stack = source.spectral.exp(flat)
    return stack.reshape(xs.shape + stack.shape[-2:])


class ProfilePoint(NamedTuple):
    x: float
    concurrence: float
    pre_clamp: float


def concurrence_profile(source: Liouvillian | SwitchedLine, x_max: float,
                        steps: int) -> list[ProfilePoint]:
    """Concurrence and pre-clamp concurrence of the line's Choi state at
    ``steps`` evenly spaced lengths from 0 to ``x_max``, in stacks of at
    most ``_STACK_POINTS``; :func:`eb_length` judges breaking on its own.
    Each Choi state is divided by its trace, made Hermitian and scored as
    formed (the generators were held to Lindblad form when built); the first
    whose trace has vanished raises, naming its length.
    """
    if steps < 2:
        raise OutOfRange("need at least two profile points")
    xs = np.linspace(0.0, x_max, steps)
    points = []
    for start in range(0, steps, _STACK_POINTS):
        chunk = xs[start:start + _STACK_POINTS]
        c, _ = _scores(_normalized(choi_matrices(propagation_superop(source, chunk)), chunk))
        points += map(ProfilePoint, chunk.tolist(), c.value.tolist(), c.pre_clamp.tolist())
    return points


class _Sample(NamedTuple):
    x: float
    verdict: int  # 1 certainly breaks, -1 certainly transmits, 0 undecided
    low: float    # lambda_min of the partial transpose
    band: float


def _verdicts(source, xs: np.ndarray) -> list[_Sample]:
    """The breaking verdicts on the line's Choi states at the lengths
    ``xs``, scored as one stack, with the band of ``_LINE_BAND``; a state
    whose trace has vanished raises ``ValueError`` naming its length."""
    rho = _normalized(choi_matrices(propagation_superop(source, xs)), xs)
    if isinstance(source, SwitchedLine):
        k = np.floor(xs / source.slice_len)
        c = max(source.pair.cond, source.gen_even.spectral.cond, source.gen_odd.spectral.cond)
    else:
        k, c = 0.0, source.spectral.cond
    verdicts, low, band = _ppt_verdicts(rho, _LINE_BAND * c * (k + 1.0))
    return list(map(_Sample, xs.tolist(), verdicts.tolist(), low.tolist(), band.tolist()))


def _inverse_interpolation(xs: list, fs: list) -> float:
    """The length at which the polynomial ``x(f)`` through the samples
    ``(fs[i], xs[i])`` (Lagrange's form) reaches ``f = 0``; nan when two
    values coincide."""
    if len(set(fs)) < len(fs):
        return float("nan")
    root = 0.0
    for i, (x, f) in enumerate(zip(xs, fs)):
        for k, g in enumerate(fs):
            if k != i:
                x *= g / (g - f)
        root += x
    return root


def _rounded(a: float, b: float, xtol: float) -> float | None:
    """The edge a bracket ``[a, b]`` places: ``k xtol``, ``k >= 1``, once it
    lies in the cell ``[(k - 1/2) xtol, (k + 1/2) xtol]`` or is ``16 eps b``
    wide (the ulp stop); its midpoint in cell 0 (``0`` breaks nothing) or at
    the ulp stop when ``xtol`` is finer; None while the search goes on."""
    ulps = 16.0 * _EPS * b
    if xtol <= ulps:
        return 0.5 * (a + b) if b - a <= ulps else None
    if b <= 0.5 * xtol:
        return 0.5 * (a + b)
    k = max(np.floor(0.5 * (a + b) / xtol + 0.5), 1.0)
    if b - a <= ulps or (k - 0.5) * xtol <= a and b <= (k + 0.5) * xtol:
        return float(k * xtol)
    return None


def _hinted(source, x_hi: float, xtol: float, profile) -> list[_Sample] | None:
    """The first stack placed from a concurrence profile of the line, or None.
    For two qubits the concurrence and lambda_min(rho^Gamma) vanish together
    (Wootters, PRL 80, 2245, 1998), so the first point whose pre-clamp value
    is not positive and the one before it, ``b`` and ``a``, bracket both
    edges.  The stack is ``a``, the window about the root interpolated through
    the four points nearest it (a grid when that falls outside ``(a, b)``),
    ``b`` and ``x_hi`` (whose verdict the search reads as on the grid across
    ``[0, x_hi]``); it is kept if ``a`` certainly transmits and ``b``
    certainly breaks.  None is placed where placement moves an answer: at the
    ulp stop or from cell 0, whose edges are bracket midpoints."""
    j = next((i for i, p in enumerate(profile) if p.pre_clamp <= 0.0), 0)
    a, b = (profile[j - 1].x, profile[j].x) if j else (0.0, 0.0)
    if not 0.5 * xtol <= a < b <= x_hi or xtol <= 16.0 * _EPS * x_hi:
        return None
    near = profile[max(j - 2, 0):j + 2]
    root = _inverse_interpolation([p.x for p in near], [p.pre_clamp for p in near])
    ends = [b, x_hi] if b < x_hi else [b]
    inner = _placed(a, b, root, xtol, a < root < b)
    samples = _verdicts(source, np.concatenate(([a], inner, ends)))
    return samples if samples[0].verdict == -1 and samples[-len(ends)].verdict == 1 else None


def _placed(a: float, b: float, root: float, xtol: float, window: bool) -> np.ndarray:
    """The window of cell edges about ``root`` inside ``(a, b)``, or the grid."""
    if not window:
        return a + (b - a) * (np.arange(1, _BRACKET_POINTS + 1) / (_BRACKET_POINTS + 1))
    offsets = np.arange(_WINDOW_POINTS) - 0.5 * (_WINDOW_POINTS - 1)
    lengths = (np.floor(root / xtol + 0.5) + offsets) * xtol
    return lengths[(lengths > a) & (lengths < b)]


def _search(source, x_hi: float, xtol: float, profile) -> float | Unbounded | Undecided:
    """:func:`eb_length`'s answer from the verdicts (:func:`_verdicts`) alone.
    The first stack is placed from the profile (:func:`_hinted`), which only
    places lengths, or, without one that verifies, is the grid across
    ``[0, x_hi]`` with both ends; then the first length that does not
    certainly transmit and the first that certainly breaks (usually in the
    same bracket, at no cost) are narrowed in turn, a stack a round: a
    window of cell edges about the edge interpolated (inverse Lagrange)
    through the four nearest samples, where ``lambda_min`` crosses
    ``-delta`` (or ``delta``), once the bracket is at most ``x_hi / 18**2``
    wide, holds the estimate and ``xtol > 16 eps b``; else, or after a
    window (a slice boundary's kink may make it miss), a grid.
    :func:`_rounded` places each edge."""
    samples = _hinted(source, x_hi, xtol, profile)
    if samples is None:
        samples = _verdicts(source, np.linspace(0.0, x_hi, _BRACKET_POINTS + 2))
    # the slack absorbs the rounding of the grid lengths, which may leave the
    # second bracket a few ulps wider than x_hi / 18**2
    narrow = x_hi / (_BRACKET_POINTS + 1) ** 2 * (1.0 + 1e-9)
    edges = []
    for past in (0, 1):
        edge, windowed = None, False
        while samples[-1].verdict >= past:
            j = next(i for i, p in enumerate(samples) if p.verdict >= past)
            a, b = samples[j - 1].x, samples[j].x
            if (edge := _rounded(a, b, xtol)) is not None:
                break
            near = samples[max(j - 2, 0):j + 2]
            root = _inverse_interpolation([p.x for p in near],
                                          [p.low + (1 - 2 * past) * p.band for p in near])
            windowed = (not windowed and b - a <= narrow and xtol > 16.0 * _EPS * b
                        and a < root < b)
            samples[j:j] = _verdicts(source, _placed(a, b, root, xtol, windowed))
        edges.append(edge)
    return _answer(*edges, x_hi)


def eb_length(source: Liouvillian | SwitchedLine, x_hi: float, xtol: float = 1e-4,
              profile: Sequence[ProfilePoint] = ()) -> float | Unbounded | Undecided:
    """First propagation length at which the evolved map becomes
    entanglement breaking, judged by the package's one breaking rule
    (:func:`~entweave.entanglement._ppt_verdicts`, band ``_LINE_BAND``) as
    :func:`~entweave.channels.eb_order` judges powers, with its three
    answers: the root correctly rounded to ``k xtol`` when the first length
    that does not certainly transmit and the first that certainly breaks
    lie in one rounding cell ``[(k - 1/2) xtol, (k + 1/2) xtol]``;
    ``Unbounded(x_hi)`` when ``x_hi`` certainly transmits; else
    ``Undecided(first, last, x_hi)``, the edges rounded, ``last`` None when
    ``x_hi`` does not certainly break.  Below ``xtol = 16 eps`` of a length,
    and in cell 0 ``[0, xtol/2]``, the edges are bracket midpoints.
    :func:`_search` takes three stacks on a typical line, five when its
    window misses, one on a line that never breaks.  ``profile``, the line's
    :func:`concurrence_profile`, only places lengths (:func:`_hinted`): a
    line that breaks inside it usually takes one stack, and a wrong, foreign
    or malformed one costs stacks but changes no answer.  It relies on the line
    being CP-divisible (true of every physical generator and switched line
    of them): a separable Choi state stays separable, so the verdicts read
    "transmits", "undecided", "breaks" along the line, and the first sample
    past an edge brackets it.
    """
    if not 0.0 < x_hi < inf:
        raise OutOfRange(f"search bound x_hi must be positive and finite, got {x_hi}")
    if not 0.0 < xtol < inf:
        raise OutOfRange(f"xtol must be positive and finite, got {xtol}")
    return _search(source, float(x_hi), xtol, profile)


def trotter_gap(line: SwitchedLine, x: float) -> float:
    """Superoperator distance between the switched propagation and the mean
    generator propagated over the same length."""
    mean = average_liouvillian(line.gen_even, line.gen_odd)
    return opnorm(propagation_superop(line, x) - propagation_superop(mean, x))
