"""One workload's operations, run in a fresh process.

    python3 workload.py PLAN.json

The plan names the package source directory, the CLI argument lists of
the operation pool, the output directory, and either a time budget in
seconds or a fixed operation count.  The process times
`import covertpilot.cli` before anything else, runs the operations one at
a time through `covertpilot.cli.main` (closed loop, one in flight),
optionally under the tracer, and writes a JSON result next to the plan.
With `--probe SRC` it only times the import and the reference, and prints
them.

Nothing here imports scipy, nor numpy before the package: set-up time,
numpy-at-import and peak RSS describe the package alone.  Checking outputs
is the parent's job, after this process has ended.

The machine this runs on is shared, and its speed drifts by up to half
for tens of seconds at a time.  So the process also times a fixed
reference computation between operations, whenever REF_INTERVAL_S
seconds have passed since the last sample, and once after the last
operation; the parent scales every time by the speed those samples show.
The reference does the kind of work the operations do: a pure-Python
loop shaped like the gamma series, or, for the Monte Carlo workloads
(whose operations load numpy anyway), numpy Gamma draws.  Operations and
references are timed both on the wall clock and in process CPU time;
the CPU times leave out the stretches in which the host runs something
else on this vCPU.
"""

import sys
import time
from typing import Tuple

# dense enough that a 5 s stretch of designs has ~50 samples to scale by
REF_INTERVAL_S = 0.1


def _python_loop() -> None:
    s, x = 20000.5, 20000.0
    term = total = 1.0 / s
    for k in range(1, 25000):
        term *= x / (s + k)
        total += term


def _numpy_gamma() -> None:
    import numpy as np

    np.random.Generator(np.random.Philox(7)).gamma(30.0, 1.0, 200_000).sum()


REFERENCES = {"python": _python_loop, "numpy": _numpy_gamma}


def reference(kind: str) -> Tuple[float, float]:
    """Median wall and median CPU time of three runs of the reference computation."""
    work = REFERENCES[kind]
    walls, cpus = [], []
    for _ in range(3):
        start, cpu = time.perf_counter(), time.process_time()
        work()
        cpus.append(time.process_time() - cpu)
        walls.append(time.perf_counter() - start)
    return sorted(walls)[1], sorted(cpus)[1]


def _import_cli():
    leaked = [name for name in ("numpy", "scipy") if name in sys.modules]
    if leaked:
        raise SystemExit(f"import-order guard: {leaked} loaded before covertpilot.cli")
    start = time.perf_counter()
    import covertpilot.cli as cli

    return cli, time.perf_counter() - start, "numpy" in sys.modules


def _check_source(cli, src: str) -> None:
    import os

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"covertpilot was imported from {cli.__file__}, not from {src}")


def _run_ops(cli, plan, tracer):
    import contextlib
    import os

    ops = plan["ops"]
    seconds, count = plan["seconds"], plan["count"]
    records = []
    refs = []  # [attempt index the sample precedes, wall s, CPU s]
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(
        devnull
    ), contextlib.redirect_stderr(devnull):
        loop_start = next_ref = time.perf_counter()
        attempt = 0
        while (attempt < count) if count else (time.perf_counter() - loop_start < seconds):
            if time.perf_counter() >= next_ref:
                refs.append([attempt, *reference(plan["reference"])])
                next_ref = time.perf_counter() + REF_INTERVAL_S
            index = attempt % len(ops)
            argv = ops[index] + ["--out", os.path.join(plan["outdir"], f"{index}.csv")]
            if tracer is not None:
                tracer.op = attempt
            start, cpu = time.perf_counter(), time.process_time()
            try:
                outcome = f"exit{cli.main(argv)}"
            except SystemExit as exc:
                outcome = f"SystemExit({exc.code})"
            except Exception as exc:  # every escape is a counted failure
                outcome = type(exc).__name__
            records.append([index, outcome, time.perf_counter() - start,
                            time.process_time() - cpu])
            attempt += 1
        loop_s = time.perf_counter() - loop_start
        refs.append([attempt, *reference(plan["reference"])])
    return records, refs, loop_s


def main(argv) -> int:
    cli, import_s, numpy_at_import = _import_cli()

    import json
    import os
    import resource

    if argv[0] == "--probe":
        _check_source(cli, argv[1])
        print(json.dumps({"import_s": import_s, "ref_s": reference("python")[0]}))
        return 0

    plan_path = argv[0]
    with open(plan_path, "r", encoding="utf-8") as handle:
        plan = json.load(handle)
    _check_source(cli, plan["src"])
    os.makedirs(plan["outdir"], exist_ok=True)

    tracer = None
    if plan["spans"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    records, refs, loop_s = _run_ops(cli, plan, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.restore()
        tracer.dump(plan["spans"])
    result = {
        "import_s": import_s,
        "numpy_at_import": numpy_at_import,
        "peak_rss_mb": peak_rss_mb,
        "loop_s": loop_s,
        "records": records,
        "refs": refs,
    }
    with open(plan["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
