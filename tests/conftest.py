"""Shared randomness and construction helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from entweave.channels import QuantumChannel

# properties draw the same examples on every run, so a failure reproduces from
# the commit alone and not from a local example database
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure_state(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_density(n: int, rng: np.random.Generator,
                   rank: int | None = None) -> np.ndarray:
    k = rank or n
    g = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_kraus(dim: int, env: int, rng: np.random.Generator) -> tuple:
    """Kraus set of a Haar-random Stinespring isometry with an env-level bath."""
    u = haar_unitary(dim * env, rng)
    iso = u[:, :dim]                      # |psi> -> U(|psi> (x) |0>)
    return tuple(iso[i * dim:(i + 1) * dim, :].copy() for i in range(env))


def random_channel(dim: int, env: int, rng: np.random.Generator) -> QuantumChannel:
    """Haar-random channel with the Kraus set of :func:`random_kraus`."""
    return QuantumChannel.from_kraus(random_kraus(dim, env, rng))
