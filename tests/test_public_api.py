"""The package's public names: what the CLI, the paper's results and the tests use."""

import importlib
import math

import pytest

import covertpilot
from covertpilot import McConfig, PowerAllocation, SystemConfig, TrialBudgetError

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

# names the package resolves on first use, from its Monte Carlo module
LAZY = (
    "LikelihoodRatioTest",
    "McConfig",
    "McEstimate",
    "Radiometer",
    "TrialBudgetError",
    "WillieErrorRates",
    "simulate_bob",
    "simulate_warden",
)


def test_all_is_the_expected_set():
    assert len(covertpilot.__all__) == len(PUBLIC) == 26
    assert set(covertpilot.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in covertpilot.__all__:
        assert getattr(covertpilot, name) is not None, name


def test_monte_carlo_names_are_the_module_objects():
    monte_carlo = importlib.import_module("covertpilot.monte_carlo")
    for name in LAZY:
        assert getattr(covertpilot, name) is getattr(monte_carlo, name), name
    assert set(covertpilot.__all__) <= set(dir(covertpilot))
    with pytest.raises(AttributeError):
        covertpilot.BobResult
    namespace = {}
    exec("from covertpilot import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC
    for name in PUBLIC:
        assert namespace[name] is getattr(covertpilot, name), name


def test_removed_names_are_gone():
    modules = [covertpilot] + [
        importlib.import_module(f"covertpilot.{name}") for name in MODULES
    ]
    for module in modules:
        for name in REMOVED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_one_sinr_formula():
    # the equal-power closed form is a test oracle now; the optimizer keeps
    # a helper of that name over effective_sinr, which the CLI imports
    link_model = importlib.import_module("covertpilot.link_model")
    for module in (covertpilot, link_model):
        assert not hasattr(module, "effective_sinr_equal_power"), module.__name__


def test_power_allocation_holds_the_segment_powers():
    fields = list(covertpilot.PowerAllocation._fields)
    assert fields == ["n", "n_p", "rho_p", "rho_d"]
    for name in ("from_powers", "eta", "rho"):
        assert not hasattr(covertpilot.PowerAllocation, name), name


# (record, valid arguments in field order, field, invalid value, exception)
INVALID = [
    (SystemConfig, (100, 1.0, 1.0, 1.0, 0.1), "n", 1, ValueError),
    (SystemConfig, (100, 1.0, 1.0, 1.0, 0.1), "n", 100.0, ValueError),
    (SystemConfig, (100, 1.0, 1.0, 1.0, 0.1), "lambda_ab", 0.0, ValueError),
    (SystemConfig, (100, 1.0, 1.0, 1.0, 0.1), "sigma_b2", math.inf, ValueError),
    (SystemConfig, (100, 1.0, 1.0, 1.0, 0.1), "sigma_w2", -1.0, ValueError),
    (SystemConfig, (100, 1.0, 1.0, 1.0, 0.1), "epsilon", 1.0, ValueError),
    (PowerAllocation, (100, 20, 0.05, 0.05), "n", 1, ValueError),
    (PowerAllocation, (100, 20, 0.05, 0.05), "n_p", 0, ValueError),
    (PowerAllocation, (100, 20, 0.05, 0.05), "n_p", 100, ValueError),
    (PowerAllocation, (100, 20, 0.05, 0.05), "rho_p", -1.0, ValueError),
    (PowerAllocation, (100, 20, 0.05, 0.05), "rho_d", math.nan, ValueError),
    (McConfig, (1000, 1), "trials", 999, TrialBudgetError),
    (McConfig, (1000, 1), "trials", True, TrialBudgetError),
    (McConfig, (1000, 1), "seed", -1, ValueError),
    (McConfig, (1000, 1), "seed", 2**64, ValueError),
]


class TestValidatedRecords:
    """SystemConfig, PowerAllocation and McConfig check every way they are built."""

    def test_fields_keep_their_order(self):
        assert SystemConfig._fields == ("n", "lambda_ab", "sigma_b2", "sigma_w2", "epsilon")
        assert PowerAllocation._fields == ("n", "n_p", "rho_p", "rho_d")
        assert McConfig._fields == ("trials", "seed")

    @pytest.mark.parametrize("record, args, field, bad, error", INVALID)
    def test_every_construction_path_checks(self, record, args, field, bad, error):
        valid = record(*args)
        assert valid == record(**dict(zip(record._fields, args))) == record._make(args)
        assert type(valid._replace()) is record
        values = [bad if name == field else value for name, value in zip(record._fields, args)]
        with pytest.raises(error):
            record(*values)
        with pytest.raises(error):
            record(**dict(zip(record._fields, values)))
        with pytest.raises(error):
            valid._replace(**{field: bad})
        with pytest.raises(error):
            record._make(values)

    @pytest.mark.parametrize("record, args", [
        (SystemConfig, (100, 1.0, 1.0, 1.0, 0.1)),
        (PowerAllocation, (100, 20, 0.05, 0.05)),
        (McConfig, (1000, 1)),
    ])
    def test_records_are_immutable(self, record, args):
        value = record(*args)
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            value.extra = 1
        assert tuple(value) == args
