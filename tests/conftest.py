"""Shared randomness and construction helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from entweave.channels import QuantumChannel
from entweave.qmath import _qubit_shaped, as_matrix

# the pytester fixture, for tests of the suite's own configuration
pytest_plugins = ["pytester"]

# properties draw the same examples on every run, so a failure reproduces from
# the commit alone and not from a local example database
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


# the singlet (|01> - |10>)/sqrt(2)
SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)


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


def refusal(call, *args, **kwargs) -> tuple[type, str]:
    """The class and message of the exception ``call(*args, **kwargs)``
    raises; the test fails if it returns instead."""
    with pytest.raises(Exception) as info:
        call(*args, **kwargs)
    return type(info.value), str(info.value)


def vec(m) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return as_matrix(m).flatten(order="F")


def unvec(v) -> np.ndarray:
    """Inverse of :func:`vec` for a 2x2 matrix."""
    return _qubit_shaped(np.ravel(v), (4,)).reshape((2, 2), order="F")


def on_first_qubit(superop, rho) -> np.ndarray:
    """Reference (map (x) id)(rho) of a 4x4 superoperator on a two-qubit
    state, one 2x2 block at a time, independent of the Choi reshuffle:
    (map (x) id)(sum rho_yz (x) |y><z|) = sum map(rho_yz) (x) |y><z|."""
    blocks = np.asarray(rho).reshape(2, 2, 2, 2)
    out = np.zeros((4, 4), dtype=complex)
    for y in range(2):
        for z in range(2):
            e = np.zeros((2, 2))
            e[y, z] = 1.0
            out += np.kron(unvec(superop @ vec(blocks[:, y, :, z])), e)
    return out
