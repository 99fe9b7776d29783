"""covertpilot benchmark: three closed-loop workloads with output checks.

    python3 perfbench/run.py --workload design-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a checkout; the package is imported from its
`src/`.  Each workload builds a pool of INI configs from the seed, then
runs its operations through `covertpilot.cli.main` in a fresh process,
one at a time, and checks every output afterwards against the oracle in
`oracle.py`.  An exception escaping `main`, an error exit code and an
oracle miss all count as failed operations; the metrics count only
operations whose output passed.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json: set-up
is the median of several fresh-process imports of `covertpilot.cli`, and
the operations run for --seconds.  --trace 1 runs a fixed number of
operations twice, untraced and traced, checks that both wrote the same
bytes, and reports the per-layer metrics plus the tracing overhead.  It
also runs the scale probe: a fixed pool of designs over the full scale
range, most of which the seed code gets wrong, reported as the
`scale_probe.*` metrics.  The report lines come first; the last line of
output is one JSON object.

End-to-end times are scaled to nominal machine speed (NOMINAL_REF_S);
the report prints the raw wall-clock figures next to them.  Operation
times are process CPU times, scaled by the CPU time of the reference;
import times are wall-clock times, scaled by its wall time.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from typing import Dict, List, Optional, Tuple

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# fresh processes that only time `import covertpilot.cli`, half before
# and half after the loop so the median spans the run; the workload
# process's own import is one more sample
SETUP_PROBES = 10
CHILD_TIMEOUT_S = 80

# Median time of each workload.reference() computation on an uncontended
# core of a 2-vCPU KVM guest on an Intel Xeon host.  Every reported time t
# is scaled to t * nominal / r, with r the reference time measured around
# it, so the figures read as times on that machine at its normal speed.
NOMINAL_REF_S = {"python": 2.6e-3, "numpy": 5.9e-3}

# the reference that does each workload's kind of work; probes, which
# time the import, use the pure-Python one
REFERENCE = {"design-grid": "python", inputs.SCALE_PROBE: "python",
             "mc-verify": "numpy", "mc-split": "numpy"}

# operations per traced run: fixed, so per-layer counts repeat exactly
TRACE_OPS = {"design-grid": 384, "mc-verify": 3, "mc-split": 6}

# Monte Carlo trials the user asks for in one operation
TRIALS_PER_OP = {
    "mc-verify": inputs.VERIFY_TRIALS,
    "mc-split": 2 * 19 * 100_000,  # two pilot counts x 19 eta points x 1e5 trials
}

# layers each workload is expected to call; zero calls in one is reported
ACTIVE_LAYERS = {
    "design-grid": ("specfun", "detection", "optimizer", "link_model", "cli"),
    "mc-verify": ("specfun", "detection", "link_model", "monte_carlo", "cli"),
    "mc-split": ("monte_carlo", "cli"),
}

# failure kinds always listed in the report, seen or not
KNOWN_FAILURES = {
    "design-grid": ("ConvergenceError", "SolverError(exit 3)", "oracle_xi", "oracle_np"),
    inputs.SCALE_PROBE: ("ConvergenceError", "SolverError(exit 3)", "oracle_xi", "oracle_np"),
    "mc-verify": ("oracle_z", "oracle_disagreement"),
    "mc-split": ("oracle_kl", "oracle_rows"),
}

_EXIT_LABELS = {
    "exit2": "ConfigError(exit 2)",
    "exit3": "SolverError(exit 3)",
    "exit4": "TrialBudgetError(exit 4)",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    # an installed package imports from cached bytecode; the warm-up probe
    # writes it into the checkout's src/
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=SRC,
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _run_child(args: List[str]) -> str:
    command = [sys.executable, os.path.join(HERE, "workload.py")] + args
    try:
        done = subprocess.run(
            command, env=_child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process timed out after {CHILD_TIMEOUT_S} s")
    if done.returncode != 0:
        raise BenchError(f"workload process failed ({done.returncode}): {done.stderr.strip()}")
    return done.stdout


def _probe_import() -> float:
    """Import time of a fresh process, scaled to nominal machine speed."""
    probe = json.loads(_run_child(["--probe", SRC]).splitlines()[-1])
    return probe["import_s"] * NOMINAL_REF_S["python"] / probe["ref_s"]


def _scaled_import(run: dict) -> float:
    """The workload process's own import time, scaled by its first reference."""
    return run["import_s"] * run["nominal_ref_s"] / run["refs"][0][1]


def _scaled_times(run: dict) -> List[float]:
    """Each attempt's CPU time at nominal speed.

    The speed comes from the mean CPU time of the reference samples taken
    just before and just after the attempt.
    """
    refs = run["refs"]
    scaled = []
    after = 0
    for attempt, (_, _, _, cpu) in enumerate(run["records"]):
        while refs[after][0] <= attempt:
            after += 1
        ref = 0.5 * (refs[after - 1][2] + refs[after][2])
        scaled.append(cpu * run["nominal_ref_s"] / ref)
    return scaled


def _run_ops(workload: str, workdir: str, name: str, ops: List[inputs.Op],
             seconds: float, count: int, traced: bool) -> dict:
    plan = {
        "src": SRC,
        "reference": REFERENCE[workload],
        "ops": [list(op.argv) for op in ops],
        "outdir": os.path.join(workdir, f"out-{name}"),
        "seconds": seconds,
        "count": count,
        "spans": os.path.join(workdir, f"spans-{name}.bin") if traced else None,
        "result": os.path.join(workdir, f"result-{name}.json"),
    }
    plan_path = os.path.join(workdir, f"plan-{name}.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    _run_child([plan_path])
    with open(plan["result"], "r", encoding="utf-8") as handle:
        result = json.load(handle)
    result["plan"] = plan
    result["nominal_ref_s"] = NOMINAL_REF_S[plan["reference"]]
    return result


def _read(path: str) -> Optional[bytes]:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return None


def _verdicts(workload: str, ops: List[inputs.Op], run: dict) -> List[Optional[str]]:
    """Failure label per attempt, None for a passing one."""
    import oracle

    checked: Dict[int, Optional[str]] = {}
    labels = []
    for index, outcome, *_ in run["records"]:
        # verify exits 1 when its own 3-4 sigma checks trip; the oracle's
        # 5 sigma rule decides instead
        if outcome == "exit0" or (workload == "mc-verify" and outcome == "exit1"):
            if index not in checked:
                data = _read(os.path.join(run["plan"]["outdir"], f"{index}.csv"))
                text = data.decode("utf-8") if data is not None else None
                checked[index] = oracle.check(workload, ops[index].ini, text)
            labels.append(checked[index])
        else:
            labels.append(_EXIT_LABELS.get(outcome, outcome))
    return labels


def _summary(workload: str, run: dict, labels: List[Optional[str]]) -> dict:
    from tracer import percentile

    scaled = _scaled_times(run)
    passing = [t for t, label in zip(scaled, labels) if label is None]
    if not passing:
        raise BenchError(f"no {workload} operation passed; latency is undefined")
    raw = [rec[2] for rec, label in zip(run["records"], labels) if label is None]
    work = len(passing) * TRIALS_PER_OP.get(workload, 1)
    return {
        "attempted": len(labels),
        "failed": len(labels) - len(passing),
        "failures": Counter(label for label in labels if label is not None),
        "passing": len(passing),
        "loop_s": run["loop_s"],
        "busy_s": sum(scaled),
        "goodput_per_s": work / sum(scaled),
        "op_p50_ms": percentile(passing, 0.50) * 1e3,
        "op_p99_ms": percentile(passing, 0.99) * 1e3,
        "raw_goodput_per_s": work / run["loop_s"],
        "raw_op_p50_ms": percentile(raw, 0.50) * 1e3,
        "speed": run["nominal_ref_s"] / statistics.median(r[2] for r in run["refs"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def _failure_text(workload: str, summary: dict) -> str:
    failures = summary["failures"]
    kinds = list(KNOWN_FAILURES[workload]) + sorted(set(failures) - set(KNOWN_FAILURES[workload]))
    parts = ", ".join(f"{kind} {failures[kind]}" for kind in kinds)
    frac = summary["failed"] / summary["attempted"]
    return f"fail_frac {frac:.4f} ({summary['failed']}/{summary['attempted']}: {parts})"


def scale_probe(seed: int, workdir: str) -> Tuple[str, Dict[str, float]]:
    """Run the fixed full-range design pool once and count its failures by kind.

    Its operations are not the workload's: they measure where the program
    is wrong, not how fast it is, so they count only in these metrics.
    """
    workload = inputs.SCALE_PROBE
    ops = inputs.write_pool(workload, seed, os.path.join(workdir, "cfg-probe"))
    run = _run_ops(workload, workdir, "probe", ops, 0, len(ops), traced=False)
    failures = Counter(label for label in _verdicts(workload, ops, run) if label is not None)
    summary = {"failures": failures, "failed": sum(failures.values()), "attempted": len(ops)}
    values = {
        "scale_probe.fail_frac": summary["failed"] / summary["attempted"],
        "scale_probe.convergence_errors": float(failures["ConvergenceError"]),
        "scale_probe.solver_errors": float(failures["SolverError(exit 3)"]),
        "scale_probe.oracle_misses": float(failures["oracle_xi"] + failures["oracle_np"]),
    }
    return f"scale probe: {len(ops)} full-range designs, " + _failure_text(workload, summary), values


def _e2e_lines(workload: str, s: dict, setup: Tuple[float, int]) -> List[str]:
    n = s["passing"]
    raw = f"raw {s['raw_goodput_per_s']:.6g} over {s['loop_s']:.2f} s of wall time"
    if workload == "design-grid":
        rows = [("designs_per_s", s["goodput_per_s"], "1/s", f"{n} passing designs; {raw}"),
                ("design_p50_ms", s["op_p50_ms"], "ms", f"n={n}; raw wall {s['raw_op_p50_ms']:.4g}"),
                ("design_p99_ms", s["op_p99_ms"], "ms", f"n={n}; not gated")]
    else:
        rows = [("trials_per_s", s["goodput_per_s"], "1/s",
                 f"{n} passing ops x {TRIALS_PER_OP[workload]} trials; {raw}"),
                ("op_p50_ms", s["op_p50_ms"], "ms", f"n={n}; raw wall {s['raw_op_p50_ms']:.4g}")]
    rows = [("setup_s", setup[0], "s", f"median of {setup[1]} fresh imports"),
            ("peak_rss_mb", s["peak_rss_mb"], "MB", "ru_maxrss at loop end")] + rows
    lines = [f"  {name:<16} {value:>14.6g} {unit:<4} ({note})" for name, value, unit, note in rows]
    lines.append(f"  machine speed {s['speed']:.3f} x nominal; operation CPU times above are scaled to nominal")
    return lines


def _metric_block(specs: List[dict], values: Dict[str, Optional[float]]) -> dict:
    return {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in specs}


def untraced(workload: str, ops: List[inputs.Op], workdir: str, seconds: float,
             spec: dict) -> Tuple[List[str], dict]:
    _probe_import()  # first import in a checkout compiles bytecode; not a sample
    setups = [_probe_import() for _ in range(SETUP_PROBES // 2)]
    run = _run_ops(workload, workdir, "plain", ops, seconds, 0, traced=False)
    setups.append(_scaled_import(run))
    setups += [_probe_import() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    summary = _summary(workload, run, _verdicts(workload, ops, run))
    setup_s = statistics.median(setups)
    values = dict(summary, setup_s=setup_s)
    lines = [f"{workload}: {summary['attempted']} operations in {summary['loop_s']:.2f} s, "
             + _failure_text(workload, summary)]
    lines += _e2e_lines(workload, summary, (setup_s, len(setups)))
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": _metric_block(spec["end_to_end"], values),
    }
    return lines, result


def traced(workload: str, seed: int, ops: List[inputs.Op], workdir: str,
           spec: dict) -> Tuple[List[str], dict]:
    from tracer import LAYER_OF, Spans, layer_metrics

    count = TRACE_OPS[workload]
    plain = _run_ops(workload, workdir, "plain", ops, 0, count, traced=False)
    traced_run = _run_ops(workload, workdir, "traced", ops, 0, count, traced=True)
    labels = _verdicts(workload, ops, traced_run)
    mismatched = [
        i for i in range(count)
        if _read(os.path.join(plain["plan"]["outdir"], f"{i}.csv"))
        != _read(os.path.join(traced_run["plan"]["outdir"], f"{i}.csv"))
    ]
    oracle_misses = sum(
        1 for (_, outcome, *_), label in zip(traced_run["records"], labels)
        if workload == "design-grid" and outcome == "exit0" and label is not None
    )
    for i in mismatched:
        labels[i] = labels[i] or "traced_bytes_differ"
    spans = Spans.load(traced_run["plan"]["spans"])
    values = layer_metrics(spans, oracle_misses)
    warnings = [f"traced attribute {name} no longer exists; its metrics are null"
                for name in spans.missing]
    s_plain = _summary(workload, plain, _verdicts(workload, ops, plain))
    s_traced = _summary(workload, traced_run, labels)
    values["cli.import_s"] = _scaled_import(traced_run)
    values["cli.numpy_at_import"] = float(traced_run["numpy_at_import"])
    values["trace.slowdown"] = s_traced["busy_s"] / s_plain["busy_s"]
    probe_line, probe_values = scale_probe(seed, workdir)
    values.update(probe_values)

    called = Counter(LAYER_OF[spans.names[n]] for n in spans.name)
    warnings += [f"layer {layer} is active on {workload} but recorded zero calls"
                 for layer in ACTIVE_LAYERS[workload] if not called[layer]]
    if mismatched:
        warnings.append(f"{len(mismatched)} operations wrote different bytes when traced")

    lines = [f"{workload} traced: {count} operations, " + _failure_text(workload, s_traced),
             f"  tracing overhead: {s_plain['busy_s']:.3f} s in main untraced vs "
             f"{s_traced['busy_s']:.3f} s traced ({values['trace.slowdown']:.3f}x); "
             f"goodput_per_s {s_plain['goodput_per_s']:.6g} vs {s_traced['goodput_per_s']:.6g}; "
             f"op_p50_ms {s_plain['op_p50_ms']:.4g} vs {s_traced['op_p50_ms']:.4g}; "
             f"{len(spans)} spans",
             probe_line]
    for item in spec["per_layer"]:
        value = values[item["name"]]
        text = "null" if value is None else f"{value:.6g}"
        lines.append(f"  {item['name']:<52} {text:>14} {item['unit']}")
    lines += [f"  warning: {w}" for w in warnings]
    result = {
        "correct": not mismatched and s_traced["failed"] == 0,
        "attempted": s_traced["attempted"],
        "failed": s_traced["failed"],
        "metrics": _metric_block(spec["per_layer"], values),
    }
    return lines, result


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops = inputs.write_pool(workload, seed, os.path.join(workdir, "cfg"))
        if trace:
            lines, result = traced(workload, seed, ops, workdir, spec)
        else:
            lines, result = untraced(workload, ops, workdir, seconds, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.dirname(workdir))
    print("\n".join(lines), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "covertpilot", "cli.py")):
        print(f"error: no package source at {SRC}/covertpilot", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)

    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), spec)
                   for w in workloads}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    final = results[args.workload] if args.workload != "all" else results
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
