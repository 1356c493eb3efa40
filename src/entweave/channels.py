"""Qubit channels as Kraus lists with cached superoperators.

A channel stores both representations: the Kraus operators (capped to a
minimal set when compositions would let the list grow) and the column-stacked
superoperator matrix, which composition multiplies exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .entanglement import concurrence, negativity
from .qmath import (
    IDENTITY_2,
    SIGMA_Z,
    TOL,
    DimensionMismatch,
    NotUnitary,
    OutOfRange,
    as_matrix,
    dagger,
    hermitian_eig,
    is_unitary,
    opnorm,
    sandwich_superop,
    unvec,
    vec,
)
from .states import DensityMatrix

# Kraus lists longer than this get re-extracted from the Choi eigendecomposition;
# a qubit channel never needs more than 4 operators.
KRAUS_CAP = 8


class ToleranceConflict(RuntimeError):
    """Concurrence and PPT verdicts disagree beyond the tolerance band."""


class NotCompletelyPositive(ValueError):
    """A superoperator whose Choi matrix has a significantly negative eigenvalue."""


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


@dataclass(frozen=True)
class QuantumChannel:
    """A completely positive, trace-nonincreasing map in Kraus form.

    ``superop`` is the column-stacking matrix of the map; when a channel is
    built by composition the superoperator is the exact matrix product while
    the Kraus list may be re-extracted from the Choi eigendecomposition.
    """

    kraus: tuple[np.ndarray, ...]
    superop: np.ndarray = None
    trace_preserving: bool = field(init=False)

    def __post_init__(self):
        ks = tuple(_frozen(k) for k in self.kraus)
        if not ks:
            raise DimensionMismatch("need at least one Kraus operator")
        out_dim, in_dim = ks[0].shape
        for k in ks:
            if k.shape != (out_dim, in_dim):
                raise DimensionMismatch("Kraus operators must share one shape")
        gram = sum(dagger(k) @ k for k in ks)
        w, _ = hermitian_eig(gram, tol=1e-8)
        if w.max() > 1.0 + TOL.psd:
            raise ValueError(f"Kraus operators amplify trace: max eig {w.max():.6f}")
        tp = bool(np.max(np.abs(gram - np.eye(in_dim))) <= TOL.structural)
        if self.superop is None:
            s = sum(sandwich_superop(k, k) for k in ks)
        else:
            s = as_matrix(self.superop)
            if s.shape != (out_dim * out_dim, in_dim * in_dim):
                raise DimensionMismatch("superoperator shape does not match Kraus shape")
        object.__setattr__(self, "kraus", ks)
        object.__setattr__(self, "superop", _frozen(s))
        object.__setattr__(self, "trace_preserving", tp)

    @property
    def in_dim(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.kraus[0].shape[0]

    def apply(self, rho) -> np.ndarray:
        rho = as_matrix(rho)
        if rho.shape != (self.in_dim, self.in_dim):
            raise DimensionMismatch("state dimension does not match channel input")
        return sum(k @ rho @ dagger(k) for k in self.kraus)

    def normalized(self) -> "QuantumChannel":
        """Rescale a uniformly trace-decreasing map to a trace-preserving one.

        Requires ``sum_k K^dag K`` proportional to the identity; postselected
        maps with state-dependent success probability are rejected.
        """
        gram = sum(dagger(k) @ k for k in self.kraus)
        c = float(np.trace(gram).real) / self.in_dim
        if c <= 0.0:
            raise ValueError("cannot normalize the zero map")
        if np.max(np.abs(gram - c * np.eye(self.in_dim))) > TOL.compare * max(1.0, c):
            raise ValueError("success probability is state dependent; "
                             "normalize per input state instead")
        scale = 1.0 / np.sqrt(c)
        return QuantumChannel(tuple(scale * k for k in self.kraus),
                              superop=self.superop / c)


def identity_channel(d: int = 2) -> QuantumChannel:
    return QuantumChannel((np.eye(d, dtype=complex),))


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
    return QuantumChannel((k1, k2))


def pd_channel(p: float) -> QuantumChannel:
    """Phase damping: multiplies coherences by p, leaves populations alone.

    Kraus pair ``sqrt((1 + p)/2) I`` and ``sqrt((1 - p)/2) sigma_z``.  Also a
    semigroup in p.
    """
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"dephasing parameter {p} outside [0, 1]")
    k1 = np.sqrt((1.0 + p) / 2.0) * IDENTITY_2
    k2 = np.sqrt((1.0 - p) / 2.0) * SIGMA_Z
    return QuantumChannel((k1, k2))


def unitary_channel(u) -> QuantumChannel:
    u = as_matrix(u)
    if not is_unitary(u):
        raise NotUnitary("matrix is not unitary within tolerance")
    return QuantumChannel((u,))


def choi_matrix_from_superop(superop, in_dim: int, out_dim: int) -> np.ndarray:
    """Unnormalized Choi matrix ``sum_ij Phi(E_ij) (x) E_ij`` (map on the
    first factor) of a column-stacking superoperator."""
    superop = as_matrix(superop)
    out = np.zeros((out_dim * in_dim, out_dim * in_dim), dtype=complex)
    for i in range(in_dim):
        for j in range(in_dim):
            e = np.zeros((in_dim, in_dim), dtype=complex)
            e[i, j] = 1.0
            out += np.kron(unvec(superop @ vec(e), out_dim), e)
    return out


def choi_matrix(c: QuantumChannel) -> np.ndarray:
    return choi_matrix_from_superop(c.superop, c.in_dim, c.out_dim)


def choi_state(c: QuantumChannel) -> DensityMatrix:
    """Choi state ``(Phi (x) id)(|Omega><Omega|)`` with the channel acting on
    the first qubit; valid only for trace-preserving channels."""
    return DensityMatrix(choi_matrix(c) / c.in_dim)


def minimal_kraus_from_choi(choi: np.ndarray, out_dim: int, in_dim: int):
    """Extract a minimal Kraus set from an unnormalized Choi matrix."""
    w, v = hermitian_eig(choi, tol=1e-8)
    cutoff = TOL.kraus_cutoff * max(1.0, float(w.max()))
    if w.min() < -TOL.psd:
        raise NotCompletelyPositive(
            f"Choi matrix has negative eigenvalue {w.min():.3e}")
    ks = []
    for lam, col in zip(w, v.T):
        if lam > cutoff:
            ks.append(np.sqrt(lam) * col.reshape(out_dim, in_dim))
    if not ks:
        ks.append(np.zeros((out_dim, in_dim), dtype=complex))
    return tuple(ks)


def channel_from_superop(superop, in_dim: int = 2, out_dim: int = 2) -> QuantumChannel:
    """Build a channel from its column-stacking superoperator matrix."""
    superop = as_matrix(superop)
    choi = choi_matrix_from_superop(superop, in_dim, out_dim)
    return QuantumChannel(minimal_kraus_from_choi(choi, out_dim, in_dim),
                          superop=superop)


def compose(first: QuantumChannel, then: QuantumChannel) -> QuantumChannel:
    """The map ``then o first``: a signal passes through ``first`` first.

    The superoperator is the exact matrix product.  The Kraus list is the list
    of products, re-extracted from the Choi eigendecomposition whenever it
    would exceed the cap.
    """
    if first.out_dim != then.in_dim:
        raise DimensionMismatch(
            f"cannot feed a {first.out_dim}-dim output into a {then.in_dim}-dim input")
    s = then.superop @ first.superop
    if len(first.kraus) * len(then.kraus) > KRAUS_CAP:
        return channel_from_superop(s, first.in_dim, then.out_dim)
    ks = tuple(b @ a for b in then.kraus for a in first.kraus)
    return QuantumChannel(ks, superop=s)


def compose_signal_chain(chain: Sequence[QuantumChannel]) -> QuantumChannel:
    """Compose a list of channels given in signal order (first applied first)."""
    if not chain:
        raise DimensionMismatch("empty channel chain")
    total = chain[0]
    for c in chain[1:]:
        total = compose(total, c)
    return total


def superop_distance(a, b) -> float:
    """Spectral-norm distance between two channels or raw superoperators."""
    sa = getattr(a, "superop", a)
    sb = getattr(b, "superop", b)
    return opnorm(np.asarray(sa) - np.asarray(sb))


def is_eb(c: QuantumChannel, eb_tol: float = TOL.eb) -> EbVerdict:
    """Entanglement-breaking test for a trace-preserving qubit channel.

    The verdict is driven by the Wootters concurrence of the Choi state
    (``<= eb_tol`` means breaking) and cross-checked against the partial
    transpose: for two qubits both criteria are exact, so a disagreement
    outside a small band around zero is numerical pathology and raises
    :class:`ToleranceConflict`.  ``margin`` reports the signed pre-clamp
    concurrence.
    """
    if c.in_dim != 2 or c.out_dim != 2:
        raise DimensionMismatch("entanglement-breaking test is for qubit channels")
    if not c.trace_preserving:
        raise ValueError("entanglement-breaking test needs a trace-preserving map")
    choi = choi_state(c)
    conc = concurrence(choi)
    neg = negativity(choi)
    by_concurrence = conc.value <= eb_tol
    by_ppt = neg <= eb_tol
    if by_concurrence != by_ppt:
        offending = neg if by_concurrence else conc.value
        if offending > TOL.conflict_band:
            raise ToleranceConflict(
                f"concurrence {conc.value:.3e} vs negativity {neg:.3e}")
    return EbVerdict(by_concurrence, conc.pre_clamp)


def eb_order(c: QuantumChannel, max_n: int = 16) -> int | Unbounded:
    """Smallest n such that the n-fold self-composition is entanglement
    breaking; ``Unbounded(max_n)`` if no power up to ``max_n`` is.

    Monotone by construction: once a power is breaking, every later power is.
    """
    if max_n < 1:
        raise OutOfRange("max_n must be at least 1")
    power = c
    for n in range(1, max_n + 1):
        if n > 1:
            power = compose(power, c)
        if is_eb(power).eb:
            return n
    return Unbounded(float(max_n))


def channel_to_json(c: QuantumChannel) -> str:
    """Serialize to JSON: each Kraus entry becomes an ``[re, im]`` pair."""
    doc = {
        "in_dim": c.in_dim,
        "out_dim": c.out_dim,
        "kraus": [[[[float(z.real), float(z.imag)] for z in row] for row in k]
                  for k in c.kraus],
    }
    return json.dumps(doc, sort_keys=True)


def channel_from_json(text: str) -> QuantumChannel:
    doc = json.loads(text)
    try:
        ks = []
        for k in doc["kraus"]:
            ks.append(np.array([[complex(re, im) for re, im in row] for row in k]))
            if ks[-1].shape != (doc["out_dim"], doc["in_dim"]):
                raise DimensionMismatch("Kraus shape disagrees with declared dims")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed channel document: {exc}") from None
    return QuantumChannel(tuple(ks))
