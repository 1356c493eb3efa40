"""Breaking orders against an exact oracle: rational channel parameters,
superoperator powers in exact arithmetic, and the sign of det(rho^Gamma).

A two-qubit state is entangled exactly when the determinant of its partial
transpose is negative (Augusiak, Demianowicz & Horodecki, PRA 77, 030301(R),
2008), so the oracle's order is the first power whose partially transposed
Choi matrix has det >= 0, with no floating point anywhere.  The parameters
are ad(3/10) and pd(1/5); the powers of their superoperators stay in
Q(sqrt(30)), where the sign of a + b sqrt(30) is decided by comparing a^2
with 30 b^2.  ``sympy.nsimplify`` must not be used: it rounds tiny
determinants to 0, which would read as a break.

The same exact powers, evaluated at 50 digits, hold the float verdict's
lambda_min(rho^Gamma) to its rounding band delta_n = n eps lambda_max.
"""

import math
from functools import lru_cache

import mpmath
import numpy as np
import pytest
import sympy as sp

from entweave.channels import (QuantumChannel, Unbounded, Undecided, _power_grid,
                               _ppt_verdicts, ad_channel, eb_order, pd_channel)
from entweave.entanglement import _normalized
from entweave.qmath import SIGMA_X, SIGMA_Z, choi_matrices, sandwich_superop

_ROOT = sp.sqrt(30)

_UNITARIES = {  # name: (float, exact), as the command line names them
    "x": (SIGMA_X, sp.Matrix([[0, 1], [1, 0]])),
    "z": (SIGMA_Z, sp.Matrix([[1, 0], [0, -1]])),
    "zx-diag": ((SIGMA_Z - SIGMA_X) / np.sqrt(2.0),
                sp.Matrix([[1, -1], [-1, -1]]) / sp.sqrt(2)),
}


def _superop(kraus) -> sp.Matrix:
    """Column-stacking superoperator ``sum_k kron(conj(K), K)``, the
    convention of ``qmath.sandwich_superop``."""
    total = sp.zeros(4, 4)
    for k in kraus:
        total += sp.kronecker_product(k.conjugate(), k)
    return total.applyfunc(sp.expand)


def _exact_base(family: str, param: sp.Rational) -> sp.Matrix:
    """The Kraus pairs of ``channels.ad_channel`` and ``pd_channel``."""
    if family == "ad":
        return _superop([sp.Matrix([[1, 0], [0, sp.sqrt(param)]]),
                         sp.Matrix([[0, sp.sqrt(1 - param)], [0, 0]])])
    return _superop([sp.sqrt((1 + param) / 2) * sp.eye(2),
                     sp.sqrt((1 - param) / 2) * sp.Matrix([[1, 0], [0, -1]])])


def _sign(x) -> int:
    """Exact sign of ``a + b sqrt(30)`` with rational a and b."""
    x = sp.expand(x)
    b = x.coeff(_ROOT)
    a = sp.expand(x - b * _ROOT)
    assert a.is_Rational and b.is_Rational, x
    sa, sb = int(sp.sign(a)), int(sp.sign(b))
    if sa * sb >= 0:  # one term is zero or both have one sign
        return sa or sb
    return sa * int(sp.sign(a * a - 30 * b * b))


def _pt_choi(s: sp.Matrix) -> sp.Matrix:
    # Choi entry [(i, a), (j, b)] is s[i + 2j, a + 2b] (qmath.choi_matrices);
    # transposing the second qubit swaps a and b
    return sp.Matrix(4, 4, lambda r, c: s[r // 2 + 2 * (c // 2), c % 2 + 2 * (r % 2)])


# the deepest power any case asks for
_POWERS = 64


@lru_cache(maxsize=None)
def _exact_powers(family: str, param: str, unitary: str) -> tuple:
    """Powers 1 to ``_POWERS`` of P = base o U and of Q = U^dag o base."""
    base = _exact_base(family, sp.Rational(param))
    u = _superop([_UNITARIES[unitary][1]])
    pair = []
    for s in ((base * u).applyfunc(sp.expand), (u.H * base).applyfunc(sp.expand)):
        powers = [s]
        while len(powers) < _POWERS:
            powers.append((powers[-1] * s).applyfunc(sp.expand))
        pair.append(powers)
    return tuple(pair)


def _exact_order(powers: list, max_n: int) -> int | None:
    """First of ``powers[:max_n]`` whose Choi state is separable (counted
    from 1), or None if none is."""
    return next((n for n, power in enumerate(powers[:max_n], 1)
                 if _sign(_pt_choi(power).det(method="berkowitz")) >= 0), None)


def _oracle_orders(family: str, param: str, unitary: str, max_n: int) -> tuple:
    """Exact orders of P and Q."""
    return tuple(_exact_order(powers, max_n)
                 for powers in _exact_powers(family, param, unitary))


def _float_channels(family: str, param: str, unitary: str) -> tuple:
    """P and Q formed as the command line forms them."""
    base = (ad_channel if family == "ad" else pd_channel)(float(sp.Rational(param)))
    u_mat = _UNITARIES[unitary][0]
    u = sandwich_superop(u_mat, u_mat)
    return (QuantumChannel(base.superop @ u), QuantumChannel(u.conj().T @ base.superop))


def _float_orders(family: str, param: str, unitary: str, max_n: int) -> tuple:
    """``eb_order`` of P and Q."""
    return tuple(eb_order(c, max_n) for c in _float_channels(family, param, unitary))


# (family, parameter, unitary, max_n): the exact order of P and of Q
ORACLE = {
    ("ad", "3/10", "x", 16): 2,
    ("ad", "3/10", "x", 64): 2,
    ("ad", "3/10", "zx-diag", 16): 3,
    ("ad", "3/10", "zx-diag", 64): 3,
    ("ad", "3/10", "z", 16): None,
    ("ad", "3/10", "z", 64): None,
    ("pd", "1/5", "x", 16): None,
    ("pd", "1/5", "x", 64): None,
    ("pd", "1/5", "z", 16): None,
    ("pd", "1/5", "z", 64): None,
    ("pd", "1/5", "zx-diag", 16): 2,
    ("pd", "1/5", "zx-diag", 64): 2,
}
# Under x and z the n-th power is the bare channel's up to a unitary, and
# lambda_min(rho^Gamma) is -0.3^n / 2 (ad) or -0.2^n / 2 (pd) against
# lambda_max 1/2: inside the band from the first n with 0.3^n < n eps (28)
# or 0.2^n < n eps (21).  Every other case is decided exactly.
UNDECIDED = {
    ("ad", "3/10", "z", 64): Undecided(28, None, 64.0),
    ("pd", "1/5", "x", 64): Undecided(21, None, 64.0),
    ("pd", "1/5", "z", 64): Undecided(21, None, 64.0),
}
# the families and unitaries of ORACLE, each to power _POWERS
CHANNELS = sorted({case[:3] for case in ORACLE})


def _case_id(case) -> str:
    return "-".join(map(str, case))


@pytest.mark.parametrize("case", list(ORACLE), ids=_case_id)
def test_exact_oracle_orders(case):
    assert _oracle_orders(*case) == (ORACLE[case],) * 2


@pytest.mark.parametrize("case", list(ORACLE), ids=_case_id)
def test_eb_order_matches_exact_oracle(case):
    max_n, exact = case[-1], ORACLE[case]
    expected = UNDECIDED.get(case, Unbounded(float(max_n)) if exact is None else exact)
    got = _float_orders(*case)
    assert got == (expected,) * 2
    # an undecided answer brackets the oracle's order, and one that never
    # breaks by max_n has no end
    for order in got:
        if isinstance(order, Undecided):
            last = math.inf if order.last is None else order.last
            assert order.first <= (math.inf if exact is None else exact) <= last


@pytest.mark.parametrize("channel", CHANNELS, ids=_case_id)
def test_rounding_band_covers_the_float_margin(channel):
    # lambda_min(rho^Gamma) of every power 1 to 64 of P and Q, float (formed
    # by doubling, as the search forms a bracket's powers) against the exact
    # power at 50 digits: within delta_n, so no power on the wrong side of
    # zero is ever called decided
    with mpmath.workdps(50):
        for c, powers in zip(_float_channels(*channel), _exact_powers(*channel)):
            rho = _normalized(choi_matrices(_power_grid(c.superop, _POWERS, None)))
            _, low, band = _ppt_verdicts(rho, np.arange(1, _POWERS + 1))
            for n, power in enumerate(powers, 1):
                # the Choi matrix of a trace-preserving map has trace 2
                pt = mpmath.matrix(_pt_choi(power).evalf(50).tolist()) / 2
                exact = min(mpmath.eigsy(pt, eigvals_only=True))
                assert abs(low[n - 1] - float(exact)) < band[n - 1], n
