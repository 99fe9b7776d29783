"""The package's public names: what the CLI, the paper's results and the tests use."""

import importlib

import covertpilot

PUBLIC = {
    # warden-side closed forms
    "DetectionReport",
    "covert_margin",
    "covertness_lower_bound",
    "kl_divergence",
    "kl_divergence_deta",
    "min_detection_error",
    "optimal_threshold",
    # link model
    "PowerAllocation",
    "SystemConfig",
    "effective_sinr",
    "effective_sinr_equal_power",
    "sinr",
    # Monte Carlo verification
    "BobEstimationDiagnostics",
    "LikelihoodRatioTest",
    "McConfig",
    "McEstimate",
    "Radiometer",
    "TrialBudgetError",
    "WillieErrorRates",
    "bob_estimation_diagnostics",
    "count_detector_disagreements",
    "simulate_bob_sinr",
    "simulate_willie",
    # design
    "DesignResult",
    "SolverError",
    "design",
    "np_continuous",
    "np_sensitivity",
    "np_star",
    "solve_rho_star",
}

# test-only models that now live in the tests as oracles, or are gone
REMOVED = (
    "sinr_eta",
    "estimation_stats",
    "EstimationStats",
    "detection_report",
    "draw_willie_observation",
    "WillieObservation",
    "segment_energies",
)

MODULES = ("cli", "detection", "link_model", "monte_carlo", "optimizer", "specfun")


def test_all_is_the_expected_set():
    assert len(covertpilot.__all__) == len(PUBLIC) == 30
    assert set(covertpilot.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in covertpilot.__all__:
        assert getattr(covertpilot, name) is not None, name


def test_removed_names_are_gone():
    modules = [covertpilot] + [
        importlib.import_module(f"covertpilot.{name}") for name in MODULES
    ]
    for module in modules:
        for name in REMOVED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
