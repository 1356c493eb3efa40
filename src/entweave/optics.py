"""Polarization-interferometer model of the damping-channel experiment.

Each damping stage is a double interferometer (DIF): a polarizing beam
splitter splits |H> and |V> onto two paths of a loop, half-wave plates rotate
the path-b polarization, the same splitter recombines the loop, and the
horizontal light left on path b picks up a random phase before a final beam
splitter merges everything onto one postselected output port.  Averaging the
random phase removes the cross terms, leaving the sum of the two branches'
superoperators, which for ideal elements is exactly the amplitude-damping
channel.

Three DIFs in series, with half-wave plates between them, act on one half of a
Werner pair; sweeps over the plate angles reproduce the experiment's
concurrence curves for the composed, order-2-breaking, and restored maps.

Element parameters are the measured intensity transmissivities/reflectivities.
The matrices use the raw amplitudes (sqrt(T), i sqrt(R)); this equals the
loss-renormalized unitary scaled by sqrt(1 - loss), so losses reduce success
probability without extra bookkeeping.  The loop's return pass uses the
inverse splitter matrix (reciprocity of a lossless element traversed
backwards), which is what makes the ideal loop close exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import QuantumChannel
from .entanglement import _VANISHED_TRACE, _normalized, _scores, _werner
from .qmath import OutOfRange, choi_matrices, sandwich_superop, superop_of_choi


class ElementInconsistent(ValueError):
    """Optical element parameters violate T + R <= 1 or a range constraint."""


class ZeroSuccessProbability(RuntimeError):
    """Postselection trace vanished; no photons reach the output port."""


_ETOL = 1e-9


def _check_split(t: float, r: float, what: str) -> None:
    """Refuse a splitter's intensity ratios T, R unless both are finite and
    nonnegative with T + R <= 1; NaN fails the first test."""
    if not (math.isfinite(t) and math.isfinite(r) and t >= 0.0 and r >= 0.0):
        raise ElementInconsistent(f"{what}: T = {t} and R = {r} must be finite "
                                  "and nonnegative")
    if t + r > 1.0 + _ETOL:
        raise ElementInconsistent(f"{what}: T + R = {t + r:.4f} exceeds 1")


@dataclass(frozen=True)
class BeamSplitterParams:
    """Measured intensity transmissivity/reflectivity; loss is the remainder."""

    T: float
    R: float

    def __post_init__(self):
        _check_split(self.T, self.R, "beam splitter")


@dataclass(frozen=True)
class PbsParams:
    """Polarizing splitter: independent splitting ratios for H and V."""

    T_H: float
    R_H: float
    T_V: float
    R_V: float

    def __post_init__(self):
        _check_split(self.T_H, self.R_H, "polarizing splitter, H")
        _check_split(self.T_V, self.R_V, "polarizing splitter, V")


@dataclass(frozen=True)
class DifElements:
    """Element set of an interferometer: loop splitter and output splitter.

    A path's loss before the output splitter, such as a fiber's collection
    efficiency, is written into that splitter: path efficiencies (c_a, c_b)
    of paths a and b are the output splitter with T * c_b and R * c_a,
    since path a leaves by reflection and path b by transmission.
    """

    bs: BeamSplitterParams
    pbs: PbsParams


IDEAL = DifElements(BeamSplitterParams(0.5, 0.5), PbsParams(1.0, 0.0, 0.0, 1.0))

# Bench-characterized averages.  The H triple as stated sums to more than 1,
# so only T and R are taken from it, and each element loses 1 - T - R.
MEASURED = DifElements(BeamSplitterParams(0.48, 0.44),
                       PbsParams(0.965, 0.0185, 0.004, 0.948))

_PRESETS = {"ideal": IDEAL, "measured": MEASURED}


def hwp(xi) -> np.ndarray:
    """Half-wave plate at angle xi: [[cos 2xi, sin 2xi], [sin 2xi, -cos 2xi]].

    Real, symmetric, involutive.  hwp(0) = sigma_z, hwp(pi/4) = sigma_x.  An
    array of angles gives the stack of plates, shape ``xi.shape + (2, 2)``.
    """
    two_xi = 2.0 * np.asarray(xi, dtype=float)
    c, s = np.cos(two_xi), np.sin(two_xi)
    out = np.empty(two_xi.shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = c, s, s, -c
    return out


def alpha_for_eta(eta: float) -> float:
    """Plate angle realizing damping parameter eta: arccos(-sqrt(eta)) / 2.

    eta = 1 -> pi/2 (identity stage), eta = 0 -> pi/4 (full damping).
    """
    if not 0.0 <= eta <= 1.0:
        raise OutOfRange(f"damping parameter {eta} outside [0, 1]")
    return math.acos(-math.sqrt(eta)) / 2.0


def _dif_branches(alpha, elements: DifElements) -> tuple[np.ndarray, np.ndarray]:
    """Polarization-space operators of the two output branches, or their
    stacks ``alpha.shape + (2, 2)`` for an array of loop plate angles.

    Returns (main, arm): the postselected port emits main + e^{i omega} arm
    applied to the input polarization state.  Entering on path a, per
    polarization, the splitter sends ``into[y]`` onto path y (a, b) with plate
    ``hwp_y``, and its return pass ``back[x][y]`` leaves path x as
    ``sum_y diag(back[x][y]) @ hwp_y @ diag(into[y])``.
    """
    el = elements
    t = np.sqrt([el.pbs.T_H, el.pbs.T_V])
    r = 1.0j * np.sqrt([el.pbs.R_H, el.pbs.R_V])
    into, back = (t, r), ((t, r.conj()), (r.conj(), t))
    plates = (hwp(0.0), hwp(alpha))
    path_a, path_b = (sum(back[x][y][:, None] * plates[y] * into[y] for y in (0, 1))
                      for x in (0, 1))
    # final splitter, output port fed by reflected a and transmitted b
    main = 1.0j * math.sqrt(el.bs.R) * path_a
    arm = math.sqrt(el.bs.T) * path_b
    return main, arm


def _dif_superop(alpha, elements: DifElements) -> np.ndarray:
    """Superoperator of one DIF averaged over its random output phase: with
    branches (main, arm), ``S_main + S_arm``, since the cross terms vanish.
    An array of loop plate angles gives the stack ``alpha.shape + (4, 4)``."""
    main, arm = _dif_branches(alpha, elements)
    return sandwich_superop(main, main) + sandwich_superop(arm, arm)


def dif_map(alpha: float, elements: DifElements = IDEAL) -> QuantumChannel:
    """Trace-nonincreasing polarization map of one double interferometer,
    averaged over its random output phase (``_dif_superop``).

    With ideal elements the normalized map is exactly the damping channel of
    parameter eta(alpha) given by cos(2 alpha) = -sqrt(eta), at success
    probability 1/2.
    """
    return QuantumChannel(_dif_superop(alpha, elements))


# Largest plate angle in magnitude: hwp takes the cosine and sine of twice
# the angle, and past this the doubled angle overflows to inf.
MAX_PLATE_ANGLE = float(np.finfo(float).max) / 2.0


def _check_plate_angle(name: str, angle: float) -> None:
    """Refuse a plate angle that hwp cannot evaluate: a non-finite one, or
    one whose doubled angle overflows."""
    if not math.isfinite(angle):
        raise OutOfRange(f"{name} is not finite")
    if abs(angle) > MAX_PLATE_ANGLE:
        raise OutOfRange(f"{name} = {angle:g} exceeds {MAX_PLATE_ANGLE:.6g} "
                         "in magnitude, so its doubled angle overflows")


@dataclass(frozen=True)
class OpticalSetup:
    """Angles, elements, and input parameters of the three-DIF bench.

    ``alpha1``, ``alpha21``, ``alpha2`` are the loop plate angles of the three
    DIFs in signal order, all three built from the one element set
    ``elements``; ``phi`` plates sit right after the first and second DIF,
    ``theta`` plates right after the phi plates; an angle of None removes its
    plates.  The input is a Werner pair of weight ``W`` on the ket
    (|HV> + e^{i source_phase}|VH>)/sqrt(2); the experiment does not pin the
    phase, and entanglement verdicts cannot depend on it.  Angles, ``W`` and
    the phase are checked here, where they enter.  ``label`` names the bench
    in a :class:`ZeroSuccessProbability`.
    """

    alpha1: float
    alpha21: float
    alpha2: float
    theta: float | None = math.pi / 4
    phi: float | None = math.pi / 4
    elements: DifElements = IDEAL
    W: float = 0.96
    source_phase: float = math.pi
    label: str = "custom"

    def __post_init__(self):
        plates = [name for name in ("theta", "phi") if getattr(self, name) is not None]
        for name in ("alpha1", "alpha21", "alpha2", *plates):
            _check_plate_angle(name, getattr(self, name))
        if not math.isfinite(self.source_phase):
            raise OutOfRange("source_phase is not finite")
        if not 0.0 <= self.W <= 1.0:
            raise OutOfRange(f"Werner parameter {self.W} outside [0, 1]")
        if not isinstance(self.elements, DifElements):
            raise ElementInconsistent("elements must be one DifElements set")


def resolve_elements(preset: str) -> DifElements:
    """The element set of a preset name."""
    try:
        return _PRESETS[preset.lower()]
    except KeyError:
        raise ElementInconsistent(f"unknown element preset {preset!r}") from None


def mprime_setup(eta1: float = 0.3, eta2: float = 0.3, *,
                 theta: float = math.pi / 4, phi: float = math.pi / 4,
                 preset="ideal", w: float = 0.96,
                 source_phase: float = math.pi) -> OpticalSetup:
    """Restored sequence: three DIFs at alpha(eta1), alpha(eta1 eta2),
    alpha(eta2) with both plate pairs in place."""
    return OpticalSetup(alpha_for_eta(eta1), alpha_for_eta(eta1 * eta2),
                        alpha_for_eta(eta2), theta=theta, phi=phi,
                        elements=resolve_elements(preset), W=w,
                        source_phase=source_phase, label="mprime")


def m1_setup(eta2: float = 0.3, *, theta: float = math.pi / 4,
             preset="ideal", w: float = 0.96,
             source_phase: float = math.pi) -> OpticalSetup:
    """Twice the damping-then-rotation map: first DIF idles (alpha = pi/2),
    phi plates removed."""
    a = alpha_for_eta(eta2)
    return OpticalSetup(math.pi / 2, a, a, theta=theta, phi=None,
                        elements=resolve_elements(preset), W=w,
                        source_phase=source_phase, label="m1")


def m2_setup(eta1: float = 0.3, *, phi: float = math.pi / 4,
             preset="ideal", w: float = 0.96,
             source_phase: float = math.pi) -> OpticalSetup:
    """Twice the rotation-then-damping map: last DIF idles, theta plates
    removed."""
    a = alpha_for_eta(eta1)
    return OpticalSetup(a, a, math.pi / 2, phi=phi, theta=None,
                        elements=resolve_elements(preset), W=w,
                        source_phase=source_phase, label="m2")


def identity_setup(*, preset="ideal", w: float = 0.96,
                   source_phase: float = math.pi) -> OpticalSetup:
    """All three DIFs idle, every external plate removed: the bench's
    do-nothing baseline."""
    return OpticalSetup(math.pi / 2, math.pi / 2, math.pi / 2,
                        theta=None, phi=None,
                        elements=resolve_elements(preset), W=w,
                        source_phase=source_phase, label="identity")


def source_state(s: OpticalSetup) -> np.ndarray:
    """The bench's 4x4 Werner input, formed from the ``W`` and
    ``source_phase`` that :class:`OpticalSetup` has checked."""
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0 / math.sqrt(2.0)
    v[2] = np.exp(1.0j * s.source_phase) / math.sqrt(2.0)
    return _werner(s.W, v)


# Most points in one stack.  A sweep peaks at about 2 KB per point, so this
# bounds its memory near 2 MB, and at 1024 points the per-stack overhead is
# already negligible.
_STACK_POINTS = 1024


def _bench_superops(s: OpticalSetup, theta, phi) -> np.ndarray:
    """Superoperators of the bench at plate angles theta[k], phi[k], shape
    (N, 4, 4), where an angle of None removes its plates.  N is the size of
    the angles of the plates present: a scalar angle holds for every k, so a
    bench whose plates all sit at scalar angles, or that has none, is one map
    (N = 1).

    Signal order: DIF1, [phi plate], [theta plate], DIF2, [phi plate],
    [theta plate], DIF3, each DIF averaged over its random phase
    (``_dif_superop``).  The three DIFs are built as one (3, 4, 4) stack, a
    plate at a scalar angle is one 4x4, and only a plate at an array of
    angles is a stack.
    """
    d1, d2, d3 = _dif_superop(np.array([s.alpha1, s.alpha21, s.alpha2]),
                              s.elements)
    plates = None
    for xi in (phi, theta):
        if xi is not None:
            u = hwp(xi)
            plate = sandwich_superop(u, u)
            plates = plate if plates is None else plate @ plates
    chain = d1
    for dif in (d2, d3):
        if plates is not None:
            chain = plates @ chain
        chain = dif @ chain
    return chain.reshape(-1, 4, 4)


def _score(s: OpticalSetup, superops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Output concurrence and success probability of each bench map in the
    stack on the configured Werner input.

    Applies (map (x) id) to the input by the Choi reshuffle;
    ``_normalized`` renormalizes each output by its postselection trace.
    """
    werner = superop_of_choi(source_state(s))
    out = choi_matrices(superops @ werner)
    succ = np.trace(out, axis1=-2, axis2=-1).real
    dark = succ < _VANISHED_TRACE
    if dark.any():
        raise ZeroSuccessProbability(
            f"postselection trace {succ[dark][0]:.3e} at {s.label}")
    return _scores(_normalized(out))[0].value, succ


def setup_map(s: OpticalSetup) -> tuple[QuantumChannel, float]:
    """Composed polarization map of the bench and its success probability on
    the configured Werner input.

    Each DIF's random phase is independent, so the three two-branch maps
    compose as channels; see _bench_superops for the signal order.
    """
    superop = _bench_superops(s, s.theta, s.phi)[0]
    werner = superop_of_choi(source_state(s))
    out = choi_matrices(superop @ werner)
    return QuantumChannel(superop), float(np.trace(out).real)


def run_point(s: OpticalSetup) -> tuple[float, float]:
    """Output concurrence and success probability at one setting."""
    c, p = _score(s, _bench_superops(s, s.theta, s.phi))
    return float(c[0]), float(p[0])


class SweepPoint(NamedTuple):
    angle: float
    concurrence: float
    success_prob: float


def sweep(s: OpticalSetup, vary: str, lo: float, hi: float,
          steps: int) -> list[SweepPoint]:
    """run_point over a uniform grid of the theta or phi plate angle,
    evaluated a stack of angles at a time (see _STACK_POINTS).

    Only the swept plate is a stack (see _bench_superops).  When the swept
    plate is removed (None), each stack is one map: it is scored once and its
    concurrence and success probability hold for every angle.
    """
    if vary not in ("theta", "phi"):
        raise OutOfRange(f"vary must be 'theta' or 'phi', not {vary!r}")
    if steps < 2:
        raise OutOfRange("need at least two sweep steps")
    # ends within MAX_PLATE_ANGLE keep hi - lo finite, and every grid angle
    # lies between the ends
    for end in (lo, hi):
        _check_plate_angle(vary, end)
    angles = np.linspace(lo, hi, steps)
    plates = {"theta": s.theta, "phi": s.phi}
    c, p = [], []
    for start in range(0, steps, _STACK_POINTS):
        part = angles[start:start + _STACK_POINTS]
        if plates[vary] is not None:  # a removed plate stays removed
            plates[vary] = part
        c_part, p_part = _score(s, _bench_superops(s, **plates))
        c.extend(np.broadcast_to(c_part, part.size).tolist())
        p.extend(np.broadcast_to(p_part, part.size).tolist())
    return [SweepPoint(*row) for row in zip(angles.tolist(), c, p)]

