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

from dataclasses import dataclass, field
from math import inf, isfinite
from typing import NamedTuple

import numpy as np

from .channels import NotCompletelyPositive, Unbounded
from .entanglement import _normalized, _scores
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
    vec,
)

# profiles score this many grid points in one stack, so memory stays bounded
# whatever --steps asks for
_STACK_POINTS = 1024

# each round of the breaking-length search scores one stack inside its
# bracket: a grid of this many evenly spaced interior lengths, which narrows
# the bracket 18-fold, or a window (below)
_BRACKET_POINTS = 17

# a window is this many lengths about xtol apart, centred on the root
# interpolated from the samples around the sign change; it usually holds two
# neighbours that straddle the root.  It is tried once the bracket is at most
# x_hi / 18**2 wide: after two grids from [0, x_hi], at once from the
# regenerator's 241-point profile
_WINDOW_POINTS = 16

_EPS = float(np.finfo(float).eps)

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
        if not is_hermitian(choi, tol=1e-8):
            raise NonHermitian("generator does not preserve Hermiticity")
        # trace preservation: <<I| L = 0
        tr_row = vec(np.eye(2)).conj() @ g
        if np.max(np.abs(tr_row)) > 1e-8:
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
    h = as_matrix(h)
    eye = np.eye(h.shape[0], dtype=complex)
    return -1.0j * (np.kron(eye, h) - np.kron(h.T, eye))


def _dissipator_superop(jump) -> np.ndarray:
    jump = as_matrix(jump)
    eye = np.eye(jump.shape[0], dtype=complex)
    jj = dagger(jump) @ jump
    return np.kron(jump.conj(), jump) - 0.5 * (np.kron(eye, jj) + np.kron(jj.T, eye))


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


def rotating_ad_liouvillian(j: int, omega: float, eps: float) -> Liouvillian:
    """Amplitude-damping generator with an x-axis drive of sign (-1)^(j+1).

    ``d rho / dx = -i [H_j, rho] + eps (L rho L^dag - {L^dag L, rho}/2)`` with
    ``H_j = (+/-) omega sigma_x`` and ``L = |0><1|``.  With omega = 0 the
    propagator over length x is the damping channel with parameter
    ``exp(-eps x)``.
    """
    _check_rates(omega, eps)
    gen = _hamiltonian_superop(_drive(j, omega)) + eps * _dissipator_superop(LOWERING)
    return Liouvillian(gen)


def rotating_pd_liouvillian(j: int, omega: float, eps: float) -> Liouvillian:
    """Dephasing generator with the same mirrored x-axis drive.

    The dephasing part is ``eps (sigma_z rho sigma_z - rho)``, under which
    coherences decay as ``exp(-2 eps x)``; with omega = 0 the propagator is the
    phase-damping channel with parameter ``exp(-2 eps x)``.
    """
    _check_rates(omega, eps)
    sz_part = np.kron(SIGMA_Z, SIGMA_Z) - np.eye(4, dtype=complex)
    # a rate past half the largest float overflows here; the Liouvillian's
    # check on non-finite entries refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        gen = _hamiltonian_superop(_drive(j, omega)) + eps * sz_part
    return Liouvillian(gen)


def average_liouvillian(a: Liouvillian, b: Liouvillian) -> Liouvillian:
    """Mean generator: the infinitely-fine interleaving limit of a switched pair.

    A mean that overflows is refused by the :class:`Liouvillian` check on
    non-finite entries alone, without floating-point warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = (a.generator + b.generator) / 2.0
    return Liouvillian(mean)


def switched_line(l1: Liouvillian, l2: Liouvillian, total_len: float,
                  n: int) -> SwitchedLine:
    """Cut ``total_len`` into ``n`` equal slices per generator alternation."""
    if n < 1:
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


def _scored(source, xs: np.ndarray) -> tuple[list, list]:
    """Concurrence and pre-clamp concurrence at the lengths ``xs``, scored as
    one stack; a refusal names the length."""
    c, _ = _scores(_normalized(choi_matrices(propagation_superop(source, xs)), xs))
    return c.value.tolist(), c.pre_clamp.tolist()


def _profile(source, x_max: float, steps: int,
             x_hi: float | None = None) -> list[ProfilePoint]:
    """The points of ``concurrence_profile(source, x_max, steps)``, and then
    the point at ``x_hi`` when that lies beyond ``x_max``: it joins the last
    stack, so the whole line costs the profile's stacks."""
    if steps < 2:
        raise OutOfRange("need at least two profile points")
    xs = np.linspace(0.0, x_max, steps)
    if x_hi is not None and x_hi > x_max:
        xs = np.append(xs, x_hi)
    points = []
    for start in range(0, steps, _STACK_POINTS):
        end = start + _STACK_POINTS
        chunk = xs[start:end if end < steps else None]
        values, pre = _scored(source, chunk)
        points += map(ProfilePoint, chunk.tolist(), values, pre)
    return points


def concurrence_profile(source: Liouvillian | SwitchedLine, x_max: float,
                        steps: int):
    """Concurrence of the line's Choi state, which decides entanglement
    breaking (Horodecki, Shor & Ruskai, 2003), in stacks of at most
    ``_STACK_POINTS`` lengths.

    Each Choi state is divided by its trace and made Hermitian, and scored
    as formed: the generators were held to Lindblad form when they were
    built.  The first whose trace has vanished raises, naming its length.
    """
    return _profile(source, x_max, steps)


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


def _search(source, xs: list, fs: list, xtol: float) -> float | Unbounded:
    """First root of the pre-clamp concurrence along ``source``, from the
    ascending lengths ``xs``, ``0`` first and ``x_hi`` last, and their scored
    values ``fs``.

    ``Unbounded(x_hi)`` when ``f(x_hi)`` is not below ``-TOL.eb``.  Otherwise
    the first sample at or below zero closes a bracket, and each round scores
    one stack inside it and keeps the first sign change:

    - a window of ``_WINDOW_POINTS`` lengths at most ``xtol`` apart, centred
      on the root interpolated (inverse Lagrange) through the four samples
      nearest the sign change, when the bracket is at most ``x_hi / 18**2``
      wide, the estimate lies inside it, ``xtol`` is coarser than a few ulps
      of the lengths and the round before was not a window;
    - otherwise a grid of ``_BRACKET_POINTS`` evenly spaced interior lengths.

    A window that misses (a slice boundary is a kink that bends the samples)
    is followed by a grid, so every round narrows the bracket.  The search
    stops once the bracket ``[a, b]`` is at most ``max(xtol, 16 eps b)`` wide
    and returns its midpoint: within ``xtol / 2`` of the root, or within a
    few ulps when ``xtol / 2`` is finer than that.  A scored state whose
    trace has vanished raises ``ValueError`` naming its length.
    """
    x_hi = xs[-1]
    if fs[-1] >= -TOL.eb:
        return Unbounded(x_hi)
    # the slack absorbs the rounding of the grid lengths, which may leave the
    # second bracket from [0, x_hi] a few ulps wider than x_hi / 18**2
    narrow = x_hi / (_BRACKET_POINTS + 1) ** 2 * (1.0 + 1e-9)
    fractions = np.arange(1, _BRACKET_POINTS + 1) / (_BRACKET_POINTS + 1)
    offsets = np.arange(_WINDOW_POINTS) - 0.5 * (_WINDOW_POINTS - 1)
    windowed = False
    while True:
        j = next(i for i, f in enumerate(fs) if f <= 0.0)
        a, b = xs[j - 1], xs[j]
        if b - a <= max(xtol, 16.0 * _EPS * b):
            return 0.5 * (a + b)
        # neighbours of a window are at most xtol apart after rounding
        step = xtol - 4.0 * _EPS * (b + 2.0 * xtol)
        near = slice(max(j - 2, 0), j + 2)
        root = _inverse_interpolation(xs[near], fs[near])
        windowed = (not windowed and b - a <= narrow and step > 0.5 * xtol
                    and a < root < b)
        if windowed:
            half = offsets[-1] * step
            lengths = min(max(root, a + half), b - half) + offsets * step
            lengths = lengths[(lengths > a) & (lengths < b)]
        else:
            lengths = a + (b - a) * fractions
        values = _scored(source, lengths)[1]
        xs, fs = [a, *lengths.tolist(), b], [fs[j - 1], *values, fs[j]]


def eb_length(source: Liouvillian | SwitchedLine, x_hi: float,
              xtol: float = 1e-4) -> float | Unbounded:
    """First propagation length at which the evolved map becomes
    entanglement breaking.

    Scores the signed pre-clamp concurrence of the line's Choi state (1 at
    length 0, as in :func:`concurrence_profile`) at 0 and ``x_hi`` in one
    stack, and starts the search from those two values: each round scores
    one stack, a grid of ``_BRACKET_POINTS`` interior lengths across the
    bracket or a window of ``_WINDOW_POINTS`` lengths ``xtol`` apart around
    the interpolated root; a window usually ends the search after two
    grids.  The answer is within ``xtol / 2`` of the threshold (within a few
    ulps when ``xtol`` is finer than that).  The command line starts the
    same search from a line's profile instead.

    The search relies on the line being CP-divisible (``Phi_{x+d} =
    Lambda_d o Phi_x`` with ``Lambda_d`` a channel, true of every physical
    generator and every switched line of them): the Choi state, once
    separable, stays separable, so the pre-clamp sign changes at most once,
    the first sign change on a grid brackets the only root, and the value
    at ``x_hi`` decides whether there is a threshold.  Returns
    ``Unbounded(x_hi)`` when that value is not below ``-TOL.eb``, so that
    exponentially decaying curves are not mistaken for crossings at the
    noise floor; such a line costs the one stacked evaluation.  The
    pre-clamp combination is used because the clamped concurrence is
    identically zero past the threshold.  A generator not of Lindblad form
    never gets here: :class:`Liouvillian` refuses it when it is built.
    """
    if not 0.0 < x_hi < inf:
        raise OutOfRange(f"search bound x_hi must be positive and finite, got {x_hi}")
    if not 0.0 < xtol < inf:
        raise OutOfRange(f"xtol must be positive and finite, got {xtol}")
    xs = [0.0, float(x_hi)]
    return _search(source, xs, _scored(source, np.array(xs))[1], xtol)


def trotter_gap(line: SwitchedLine, x: float) -> float:
    """Superoperator distance between the switched propagation and the mean
    generator propagated over the same length."""
    mean = average_liouvillian(line.gen_even, line.gen_odd)
    return opnorm(propagation_superop(line, x) - propagation_superop(mean, x))
