"""Age-of-information laboratory for a three-phase cooperative update scheme.

Closed-form average age and its large-n behavior (:mod:`aoilab.analytics`),
reproducible Monte Carlo simulation of the scheme and a turn-taking
baseline (:mod:`aoilab.scheme`, :mod:`aoilab.sampling`), interference
geometry with 9-TDMA scheduling (:mod:`aoilab.geometry`), and an
experiment CLI (:mod:`aoilab.expcli`).
"""

from .analytics import (
    AgeBreakdown,
    OrderStatMoments,
    PhaseMoments,
    asymptotic_age,
    closed_form_age,
    gen_harmonic,
    harmonic,
    order_stat_moments,
    phase_moments,
    round_robin_age,
    scaling_exponent,
)
from .params import SchemeParams
from .sampling import (
    StreamSpec,
    make_stream,
    session_stream,
)
from .scheme import (
    AgeEstimate,
    DeliveryMode,
    MomentSummary,
    SimulationRun,
    Variant,
    estimate_age_moment_formula,
    integrate_age_timeline,
    simulate_coupled_pairs,
    simulate_round_robin,
    simulate_sessions,
)

__all__ = [
    "AgeBreakdown",
    "AgeEstimate",
    "DeliveryMode",
    "MomentSummary",
    "OrderStatMoments",
    "PhaseMoments",
    "SchemeParams",
    "SimulationRun",
    "StreamSpec",
    "Variant",
    "asymptotic_age",
    "closed_form_age",
    "estimate_age_moment_formula",
    "gen_harmonic",
    "harmonic",
    "integrate_age_timeline",
    "make_stream",
    "order_stat_moments",
    "phase_moments",
    "round_robin_age",
    "scaling_exponent",
    "session_stream",
    "simulate_coupled_pairs",
    "simulate_round_robin",
    "simulate_sessions",
]

__version__ = "0.1.0"
