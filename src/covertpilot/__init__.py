"""Pilot/data resource allocation for covert wireless links.

Computes, optimizes, and Monte-Carlo-verifies how a transmitter should
split a finite slot between channel-estimation pilots and data so that
the receiver's effective SINR is maximized while a warden's best
detector stays close to blind guessing.
"""

from .detection import (
    DetectionReport,
    covert_margin,
    covertness_lower_bound,
    kl_divergence,
    kl_divergence_deta,
    min_detection_error,
    optimal_threshold,
)
from .link_model import (
    PowerAllocation,
    SystemConfig,
    effective_sinr,
    sinr,
)
from .optimizer import (
    DesignResult,
    SolverError,
    design,
    np_continuous,
    np_sensitivity,
    np_star,
    solve_rho_star,
)

__version__ = "0.1.0"

__all__ = [
    "DesignResult",
    "DetectionReport",
    "LikelihoodRatioTest",
    "McConfig",
    "McEstimate",
    "PowerAllocation",
    "Radiometer",
    "SolverError",
    "SystemConfig",
    "TrialBudgetError",
    "WillieErrorRates",
    "covert_margin",
    "covertness_lower_bound",
    "design",
    "effective_sinr",
    "kl_divergence",
    "kl_divergence_deta",
    "min_detection_error",
    "np_continuous",
    "np_sensitivity",
    "np_star",
    "optimal_threshold",
    "simulate_bob",
    "simulate_warden",
    "sinr",
    "solve_rho_star",
]

# the Monte Carlo names load their module on first use (PEP 562), so that
# importing the package, as the closed-form commands do, does not
_MONTE_CARLO = {"LikelihoodRatioTest", "McConfig", "McEstimate", "Radiometer",
                "TrialBudgetError", "WillieErrorRates", "simulate_bob", "simulate_warden"}


def __getattr__(name):
    if name in _MONTE_CARLO:
        from . import monte_carlo

        return getattr(monte_carlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_MONTE_CARLO})
