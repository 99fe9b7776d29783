"""Tests of the benchmark's own code: python -m pytest perfbench"""

import math
import sys
import types

import pytest
from scipy.optimize import brentq

import inputs
import oracle
import run
import tracer


class TestSelfTime:
    def test_nested_tree(self):
        # root [0,10] > a [1,4] > c [2,3];  root > b [5,7]
        start = [0.0, 1.0, 2.0, 5.0]
        end = [10.0, 4.0, 3.0, 7.0]
        parent = [-1, 0, 1, 0]
        assert tracer.self_times(start, end, parent) == [5.0, 2.0, 1.0, 2.0]

    def test_overlapping_children_are_counted_once(self):
        start = [0.0, 1.0, 3.0, 9.0]
        end = [10.0, 4.0, 6.0, 12.0]  # the last child runs past its parent
        parent = [-1, 0, 0, 0]
        assert tracer.self_times(start, end, parent)[0] == pytest.approx(10.0 - 5.0 - 1.0)

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        assert tracer.percentile(values, 0.5) == 50
        assert tracer.percentile(values, 0.99) == 99
        assert tracer.percentile([], 0.5) is None


def _fake_package(monkeypatch):
    """Modules named like the package's, with a design path of known shape."""
    detection = types.ModuleType("fakecp.detection")
    optimizer = types.ModuleType("fakecp.optimizer")
    cli = types.ModuleType("fakecp.cli")
    detection.reg_lower_gamma = lambda s, x: 0.5
    detection.min_detection_error = lambda: (
        detection.reg_lower_gamma(1, 1) + detection.reg_lower_gamma(1, 2)
    )
    optimizer.min_detection_error = lambda: detection.min_detection_error()

    def solve_rho_star(fail):
        for _ in range(3):
            optimizer.min_detection_error()
        if fail:
            raise ArithmeticError("no root")
        return 1.0

    optimizer.solve_rho_star = solve_rho_star
    cli.main = lambda fail: optimizer.solve_rho_star(fail)
    for module in (detection, optimizer, cli):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return cli


def test_tracer_records_a_span_tree_and_layer_metrics(monkeypatch, tmp_path):
    cli = _fake_package(monkeypatch)
    ticks = iter(range(1000))
    trace = tracer.Tracer(clock=lambda: float(next(ticks)))
    targets = [
        ("fakecp.detection", "reg_lower_gamma", "specfun"),
        ("fakecp.optimizer", "min_detection_error", "detection"),
        ("fakecp.optimizer", "solve_rho_star", "optimizer"),
        ("fakecp.cli", "main", "cli"),
        ("fakecp.cli", "simulate_willie", "monte_carlo"),
    ]
    assert trace.install(targets) == ["cli.simulate_willie"]
    trace.op = 0
    cli.main(False)
    trace.op = 1
    with pytest.raises(ArithmeticError):
        cli.main(True)
    trace.restore()
    path = str(tmp_path / "spans.bin")
    trace.dump(path)
    spans = tracer.Spans.load(path)

    # per op: main, solve, 3 x (detection + 2 specfun)
    assert len(spans) == 2 * (2 + 3 * 3)
    assert spans.missing == ["cli.simulate_willie"]
    metrics = tracer.layer_metrics(spans, oracle_misses=4)
    assert metrics["specfun.calls"] == 12
    assert metrics["detection.calls"] == 6
    assert metrics["optimizer.solves"] == 2
    assert metrics["optimizer.xi_evals_per_solve"] == 3  # the failed solve is left out
    assert metrics["optimizer.oracle_misses"] == 4
    assert metrics["optimizer.solver_errors"] == 0  # ArithmeticError is not SolverError
    # the clock ticks once per reading, so a span's self time is the number
    # of gaps between its start, its children and its end: children + 1
    assert metrics["specfun.self_s"] == 12 * 1
    assert metrics["detection.self_s"] == 6 * 3
    assert metrics["optimizer.self_s"] == 2 * 4
    assert metrics["cli.self_s"] == 2 * 2
    assert metrics["monte_carlo.simulate_willie.trials_per_s"] is None
    # count_detector_disagreements was no target here, so it reads as zero calls
    assert metrics["monte_carlo.warden_passes_per_op"] == 0
    assert metrics["monte_carlo.self_s"] == 0


def _exact_design(n, epsilon, sigma_w2, sigma_b2, lam):
    s = brentq(lambda s: oracle.xi_star(n, s) - (1.0 - epsilon), 1e-9, 10.0, xtol=1e-15)
    rho = s * sigma_w2
    gains = {k: oracle.effective_sinr_equal_power(n, lam, sigma_b2, rho, k) for k in range(1, n)}
    return rho, max(gains, key=gains.get)


class TestDesignOracle:
    INI = "[system]\nn = 100\nepsilon = 0.1\nsigma_b2 = 3 dBm\nsigma_w2 = -20 dBm\nlambda_ab = 0.5\n"

    def csv(self, rho, n_p):
        return f"rho_star,np_star\n{rho!r},{n_p}\n"

    @pytest.fixture(scope="class")
    def design(self):
        return _exact_design(100, 0.1, 10 ** -2.0, 10 ** 0.3, 0.5)

    def test_exact_design_passes(self, design):
        rho, n_p = design
        assert oracle.check("design-grid", self.INI, self.csv(rho, n_p)) is None

    @pytest.mark.parametrize("factor", [1.01, 0.5])
    def test_wrong_power_is_flagged(self, design, factor):
        rho, n_p = design
        assert oracle.check("design-grid", self.INI, self.csv(rho * factor, n_p)) == "oracle_xi"

    @pytest.mark.parametrize("offset", [-1, 1])
    def test_wrong_pilot_count_is_flagged(self, design, offset):
        rho, n_p = design
        assert oracle.check("design-grid", self.INI, self.csv(rho, n_p + offset)) == "oracle_np"

    def test_missing_output_is_a_failure(self):
        assert oracle.check("design-grid", self.INI, None) == "no_output"
        assert oracle.check("design-grid", self.INI, "rho_star\n").startswith("unreadable")


class TestMonteCarloOracle:
    HEADER = "check,simulated,analytic,std_err,z_score,passed,config_hash\n"

    def verify_csv(self, z, disagreements=0):
        return (self.HEADER
                + f"radiometer_xi,{0.5 + z * 0.001!r},0.5,0.001,{z},1,h\n"
                + f"lrt_vs_radiometer_disagreements,{disagreements},0,0,{disagreements},1,h\n")

    def test_verify_rows(self):
        assert oracle.check("mc-verify", "", self.verify_csv(4.9)) is None
        assert oracle.check("mc-verify", "", self.verify_csv(-5.2)) == "oracle_z"
        assert oracle.check("mc-verify", "", self.verify_csv(0.0, 1)) == "oracle_disagreement"

    def test_fig1_rows(self):
        ini = "[system]\nn = 30\n[fig1]\nnp_values = 3, 7\n"
        header = "eta,n_p,xi_lrt,xi_lrt_stderr,kl_bound,config_hash\n"

        def csv(xi):
            return header + "".join(
                f"{0.05 * (i + 1)!r},{n_p},{xi!r},0.001,0.5,h\n"
                for n_p in (3, 7) for i in range(19)
            )

        assert oracle.check("mc-split", ini, csv(0.496)) is None
        assert oracle.check("mc-split", ini, csv(0.494)) == "oracle_kl"
        assert oracle.check("mc-split", ini, csv(0.5).split("\n", 2)[0] + "\n") == "oracle_rows"


class TestInputs:
    @pytest.mark.parametrize("workload", inputs.WORKLOADS + (inputs.SCALE_PROBE,))
    def test_same_seed_same_inputs(self, workload):
        assert inputs.generate(workload, 7, 100) == inputs.generate(workload, 7, 100)
        assert inputs.generate(workload, 7, 100) != inputs.generate(workload, 8, 100)

    @pytest.mark.parametrize("workload, n_max, eps_min, dbm_min, lam_min", [
        ("design-grid", 200_000, 1e-6, -10.0, 1e-2),
        (inputs.SCALE_PROBE, 10**8, 1e-9, -120.0, 1e-3),
    ])
    def test_design_ranges_and_distinct_configs(self, workload, n_max, eps_min, dbm_min,
                                                lam_min):
        specs = inputs.generate(workload, 3)
        systems = [sections["system"] for sections, _ in specs]
        assert len({tuple(s.values()) for s in systems}) == len(systems)
        for s in systems:
            assert 2 <= int(s["n"]) <= n_max
            assert eps_min <= float(s["epsilon"]) <= 0.3
            assert lam_min <= float(s["lambda_ab"]) <= 10.0
            for key in ("sigma_b2", "sigma_w2"):
                assert s[key].endswith(" dBm")
                assert dbm_min <= float(s[key][:-4]) <= 30.0
        assert max(int(s["n"]) for s in systems) > n_max // 10

    def test_each_block_visits_every_stratum_once(self):
        import random

        points = inputs._uniforms(random.Random(1), 2 * inputs.BLOCK, 3)
        for block in (points[: inputs.BLOCK], points[inputs.BLOCK:]):
            for dim in range(3):
                strata = sorted(math.floor(p[dim] * inputs.BLOCK) for p in block)
                assert strata == list(range(inputs.BLOCK))

    def test_monte_carlo_inputs(self):
        for sections, argv in inputs.generate("mc-verify", 5):
            n = int(sections["system"]["n"])
            assert 20 <= n <= 2000
            assert 1 <= int(sections["verify"]["n_p"]) <= n - 1
            assert argv[argv.index("--trials") + 1] == "2000000"
        for sections, _ in inputs.generate("mc-split", 5):
            n = int(sections["system"]["n"])
            a, b = (int(v) for v in sections["fig1"]["np_values"].split(","))
            assert a != b and 1 <= min(a, b) and max(a, b) <= n - 1


def test_times_are_scaled_by_the_bracketing_reference_samples():
    nominal = 2e-3
    sample = {
        "nominal_ref_s": nominal,
        # attempts 0-1 follow a sample at nominal speed, attempt 2 one at
        # half speed, and a closing sample at half speed follows them all
        "refs": [[0, 9.0, nominal], [2, 9.0, 2 * nominal], [3, 9.0, 2 * nominal]],
        # [index, outcome, wall s, CPU s]: only CPU times are scaled
        "records": [[0, "exit0", 7.0, 1.0], [1, "exit0", 7.0, 1.0], [2, "exit0", 7.0, 1.0]],
    }
    assert run._scaled_times(sample) == pytest.approx([1 / 1.5, 1 / 1.5, 0.5])
