"""Seeded workload generators: each returns the CLI invocations of one pass.

The program only ever receives the generated argument lists.  Categorical
choices (family, preset, unitary kind, word shape) cycle in a fixed order,
so every seed gives the same mix of invocation kinds and the per-pass work
varies little between seeds; the seed draws the continuous parameters.
README.md in this directory explains why each workload exists.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("lines", "sweeps", "algebra")


@dataclass(frozen=True)
class Invocation:
    """One ``entweave.cli.main`` call, minus its ``--out`` directory.

    ``golden`` names the committed ``results/`` directory or CSV file the
    outputs must match (regenerator defaults only).  ``physical`` marks continuous runs
    whose generators are CP-divisible, so their profiles may not increase.
    ``closed_form`` is the exact Choi concurrence of an alternating word of
    even length, when the invocation has one.
    """

    kind: str
    args: tuple[str, ...]
    golden: str | None = None
    physical: bool = False
    closed_form: float | None = None

    @property
    def argv(self) -> list[str]:
        return [self.kind, *self.args]


# The exact argument lists of scripts/run_continuous_curves.py and
# scripts/run_experiment_sweeps.py, whose outputs are committed under results/.
_DEFAULT_LINES = (
    Invocation("continuous", ("--family", "ad", "--omega", "1.5", "--eps", "1.0",
                              "--n", "1", "2", "4", "8", "16",
                              "--x-max", "6.0", "--steps", "241"),
               golden="continuous/ad", physical=True),
    Invocation("continuous", ("--family", "pd", "--omega", "1.5", "--eps", "1.0",
                              "--n", "1", "2", "4", "8", "16",
                              "--x-max", "6.0", "--steps", "241"),
               golden="continuous/pd", physical=True),
    Invocation("continuous", ("--family", "ad", "--omega", "0.0",
                              "--x-max", "6.0", "--steps", "241"),
               golden="continuous/undriven", physical=True),
)

_SWEEP_MAPS = (("mprime", "theta"), ("m1", "theta"), ("m2", "phi"),
               ("identity", "theta"))

_DEFAULT_SWEEPS = tuple(
    Invocation("experiment", ("--map", m, "--preset", preset, "--vary", vary,
                              "--steps", "361"),
               golden=f"experiment/{preset}/experiment_{m}_{preset}_{vary}.csv")
    for preset in ("ideal", "measured") for m, vary in _SWEEP_MAPS)

# Seeded additions per pass, and measured passes per 10 s of --seconds.  At
# --seconds 10 the measured passes take 9-14 s at the reference host speed
# (run.REFERENCE_S), and a whole run 30-45 s on a slow 2-core VM (README.md).
LINES_DRAWS_PER_FAMILY = 2
SWEEP_DRAWS = 24
SWEEP_DRAW_STEPS = 21
ALGEBRA_BLOCKS = 32
ALGEBRA_MAX_ORDER = 64
PASSES_PER_10_S = {"lines": 2, "sweeps": 2, "algebra": 1}

_NAMED_UNITARIES = ("x", "z", "zx-diag")


def _num(v: float) -> str:
    """Shortest text that parses back to exactly ``v``."""
    return repr(float(v))


def _haar_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _unitary_json(u: np.ndarray) -> str:
    return json.dumps([[[float(z.real), float(z.imag)] for z in row] for row in u])


def _lines(rng: np.random.Generator, draws: int) -> list[Invocation]:
    out = list(_DEFAULT_LINES)
    for i in range(2 * draws):
        family = ("ad", "pd")[i % 2]
        omega = rng.uniform(1.3, 1.7)
        eps = rng.uniform(0.85, 1.15)
        out.append(Invocation("continuous", (
            "--family", family, "--omega", _num(omega), "--eps", _num(eps),
            "--n", "4", "16", "--steps", "61"), physical=True))
    return out


def _sweeps(rng: np.random.Generator, draws: int,
            steps: int = SWEEP_DRAW_STEPS) -> list[Invocation]:
    # The seeded sweeps all run the restored sequence (the map with the most
    # stages), so they cost the same and the latency median, which falls
    # among them, does not depend on which maps a seed drew.
    out = list(_DEFAULT_SWEEPS)
    for i in range(draws):
        preset = ("ideal", "measured")[i % 2]
        out.append(Invocation("experiment", (
            "--map", "mprime", "--preset", preset, "--vary", "theta",
            "--steps", str(steps),
            "--eta1", _num(rng.uniform(0.1, 0.9)),
            "--eta2", _num(rng.uniform(0.1, 0.9)),
            "--W", _num(rng.uniform(0.7, 1.0)),
            "--source-phase", _num(rng.uniform(0.0, 2.0 * math.pi)))))
    return out


def _algebra(rng: np.random.Generator, blocks: int) -> list[Invocation]:
    """``blocks`` rounds over every (family, unitary, word shape) category.

    Within a category block ``b`` takes its base-channel value from the
    middle fifth of stratum ``b`` of [0.05, 0.95], and word lengths cycle with
    the block, so every seed has the same mix of values and lengths; the
    seed draws where in the stratum, the letters and the Haar unitaries.
    The latency median sits where invocation cost rises steeply with the
    value, so this keeps it from moving with the seed.
    """
    categories = [(damping, unitary, alternating)
                  for damping in (True, False)
                  for unitary in (*_NAMED_UNITARIES, "haar")
                  for alternating in (True, False)]
    out = []
    for b in range(blocks):
        for c, (damping, unitary, alternating) in enumerate(categories):
            value = float(0.05 + 0.9 * (b + rng.uniform(0.4, 0.6)) / blocks)
            base = ("--eta", _num(value)) if damping else ("--pd", _num(value))
            if unitary == "haar":
                unitary = _unitary_json(_haar_unitary(rng))
            closed_form = None
            if alternating:
                # alternating word of even length k: P and Q collapse
                # pairwise onto the bare base channel applied k times
                k = 2 * (1 + (b + c) % 3)
                first = "PQ"[int(rng.integers(2))]
                word = (first + ("Q" if first == "P" else "P")) * (k // 2)
                closed_form = value ** (k / 2) if damping else value ** k
            else:
                word = "".join("PQ"[j] for j in rng.integers(2, size=1 + (b + c) % 6))
            out.append(Invocation("discrete", (
                *base, "--unitary", unitary, "--sequence", word,
                "--max-order", str(ALGEBRA_MAX_ORDER)),
                closed_form=closed_form))
    return out


def generate(workload: str, seed: int, tiny: bool = False) -> list[Invocation]:
    """Invocations of one pass of ``workload``; identical for identical seeds.

    ``tiny`` keeps one golden-checked default (where the workload has any)
    and two small seeded draws, for the warm-up pass and the self-test.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "lines":
        if tiny:
            return [_DEFAULT_LINES[2], *_lines(rng, 1)[len(_DEFAULT_LINES):]]
        return _lines(rng, LINES_DRAWS_PER_FAMILY)
    if workload == "sweeps":
        if tiny:
            return [_DEFAULT_SWEEPS[3], *_sweeps(rng, 2, steps=9)[len(_DEFAULT_SWEEPS):]]
        return _sweeps(rng, SWEEP_DRAWS)
    if workload == "algebra":
        # every third category of one block: both families, every unitary
        # kind and both word shapes
        return _algebra(rng, 1)[::3] if tiny else _algebra(rng, ALGEBRA_BLOCKS)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
