"""entweave: entanglement transmission through interrupted qubit channels.

Layers, bottom up: ``qmath`` (linear-algebra plumbing), ``states`` (the
entry checks of two-qubit states, which are plain ``(..., 4, 4)`` arrays),
``entanglement`` (two-qubit measures), ``channels`` (superoperator algebra
and breaking verdicts), ``continuous`` (switched master-equation lines),
``optics`` (the displaced-interferometer bench), ``cli`` (figure
reproduction).
"""

from .qmath import (
    DimensionMismatch,
    NonHermitian,
    NotUnitary,
    OutOfRange,
    TOL,
    Tolerances,
)
from .entanglement import (
    ConcurrenceResult,
    concurrence,
    negativity,
    werner_state,
)
from .channels import (
    EbVerdict,
    NotCompletelyPositive,
    QuantumChannel,
    ToleranceConflict,
    Unbounded,
    Undecided,
    ad_channel,
    choi_state,
    compose,
    compose_signal_chain,
    eb_order,
    is_eb,
    pd_channel,
    unitary_channel,
)
from .continuous import (
    Liouvillian,
    SwitchedLine,
    average_liouvillian,
    concurrence_profile,
    eb_length,
    rotating_ad_liouvillian,
    rotating_pd_liouvillian,
    switched_line,
    trotter_gap,
)
from .optics import (
    DifElements,
    ElementInconsistent,
    OpticalSetup,
    ZeroSuccessProbability,
    alpha_for_eta,
    dif_map,
    identity_setup,
    m1_setup,
    m2_setup,
    mprime_setup,
    run_point,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ConcurrenceResult",
    "DifElements",
    "DimensionMismatch",
    "EbVerdict",
    "ElementInconsistent",
    "Liouvillian",
    "NonHermitian",
    "NotCompletelyPositive",
    "NotUnitary",
    "OpticalSetup",
    "OutOfRange",
    "QuantumChannel",
    "SwitchedLine",
    "TOL",
    "ToleranceConflict",
    "Tolerances",
    "Unbounded",
    "Undecided",
    "ZeroSuccessProbability",
    "ad_channel",
    "alpha_for_eta",
    "average_liouvillian",
    "choi_state",
    "compose",
    "compose_signal_chain",
    "concurrence",
    "concurrence_profile",
    "dif_map",
    "eb_length",
    "eb_order",
    "identity_setup",
    "is_eb",
    "m1_setup",
    "m2_setup",
    "mprime_setup",
    "negativity",
    "pd_channel",
    "rotating_ad_liouvillian",
    "rotating_pd_liouvillian",
    "run_point",
    "sweep",
    "switched_line",
    "trotter_gap",
    "unitary_channel",
    "werner_state",
]
