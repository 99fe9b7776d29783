"""The package's public names: what the CLI, the paper's results and the tests use."""

import dataclasses
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
    "sinr",
    # Monte Carlo verification
    "LikelihoodRatioTest",
    "McConfig",
    "McEstimate",
    "Radiometer",
    "TrialBudgetError",
    "WillieErrorRates",
    "simulate_bob",
    "simulate_warden",
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
    # memos of the Monte Carlo passes, which now run once per call
    "_last_warden",
    "_bob_sums",
    "BobEstimationDiagnostics",
)

MODULES = ("cli", "detection", "link_model", "monte_carlo", "optimizer", "specfun")


def test_all_is_the_expected_set():
    assert len(covertpilot.__all__) == len(PUBLIC) == 26
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


def test_one_sinr_formula():
    # the equal-power closed form is a test oracle now; the CLI keeps a
    # helper of that name over effective_sinr for the benchmark's tracer
    link_model = importlib.import_module("covertpilot.link_model")
    for module in (covertpilot, link_model):
        assert not hasattr(module, "effective_sinr_equal_power"), module.__name__


def test_power_allocation_holds_the_segment_powers():
    fields = [field.name for field in dataclasses.fields(covertpilot.PowerAllocation)]
    assert fields == ["n", "n_p", "rho_p", "rho_d"]
    for name in ("from_powers", "eta", "rho"):
        assert not hasattr(covertpilot.PowerAllocation, name), name
