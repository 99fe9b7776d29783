"""The benchmark's tracer wraps package names by (module, attribute).

perfbench/tracer.py lists them in TARGETS; a metric whose name no longer
resolves reads null in the benchmark's JSON.  These tests load that list
without editing it and check it against the package.
"""

import importlib
import importlib.util
import os

from covertpilot.cli import EXIT_OK, main

TRACER_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py"
)

# the power solve no longer evaluates the closed-form error probability,
# so the optimizer stopped importing it; TARGETS still names it
GONE = {("covertpilot.optimizer", "min_detection_error")}

def load_tracer():
    spec = importlib.util.spec_from_file_location("covertpilot_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    unresolved = [
        f"{module_name}.{attr}"
        for module_name, attr, _ in load_tracer().TARGETS
        if (module_name, attr) not in GONE
        and not hasattr(importlib.import_module(module_name), attr)
    ]
    assert unresolved == []


def test_verify_calls_every_monte_carlo_name(tmp_path):
    bench = load_tracer()
    tracer = bench.Tracer()
    targets = [t for t in bench.TARGETS if t[0] == "covertpilot.cli" and t[1] in bench.MC_FNS]
    assert len(targets) == len(bench.MC_FNS)
    assert tracer.install(targets) == []
    try:
        out = tmp_path / "verify.csv"
        assert main(["verify", "--trials", "2000", "--out", str(out)]) == EXIT_OK
    finally:
        tracer.restore()
    called = {tracer.names[i] for i in tracer.columns["name"]}
    assert called == {f"cli.{fn}" for fn in bench.MC_FNS}


def test_alpha_and_beta_call_the_traced_kernel(tmp_path):
    # the tracer's whole specfun layer is this one name; sweep and verify
    # must reach it through the module global min_detection_error reads
    bench = load_tracer()
    tracer = bench.Tracer()
    targets = [t for t in bench.TARGETS if t[:2] == ("covertpilot.detection", "reg_lower_gamma")]
    assert len(targets) == 1
    assert tracer.install(targets) == []
    try:
        for argv in (["sweep"], ["verify", "--trials", "2000"]):
            before = len(tracer.columns["name"])
            out = tmp_path / f"{argv[0]}.csv"
            assert main(argv + ["--out", str(out)]) == EXIT_OK
            called = [tracer.names[i] for i in tracer.columns["name"][before:]]
            assert "detection.reg_lower_gamma" in called, argv[0]
    finally:
        tracer.restore()
