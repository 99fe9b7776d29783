"""Spans around calls into the package's layers, and their analysis.

The tracer replaces module attributes that the package looks up by global
name at call time with wrappers that record one span per call: name,
start, end, parent span, operation id and the exception type, if any.
Spans stay in flat in-memory arrays and are written to a file when the
run ends.  Monte Carlo calls also record their trial count and seed.

Only the standard library is used: the traced workload process imports
this module and must not load numpy before the package does.
"""

import importlib
import json
import math
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (module, attribute, layer): every name the package resolves at call
# time on the paths the workloads drive
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("covertpilot.detection", "reg_lower_gamma", "specfun"),
    ("covertpilot.optimizer", "min_detection_error", "detection"),
    ("covertpilot.cli", "min_detection_error", "detection"),
    ("covertpilot.cli", "design", "optimizer"),
    ("covertpilot.optimizer", "solve_rho_star", "optimizer"),
    ("covertpilot.optimizer", "np_star", "optimizer"),
    ("covertpilot.optimizer", "effective_sinr", "link_model"),
    ("covertpilot.cli", "sinr", "link_model"),
    ("covertpilot.cli", "effective_sinr_equal_power", "link_model"),
    ("covertpilot.cli", "simulate_willie", "monte_carlo"),
    ("covertpilot.cli", "count_detector_disagreements", "monte_carlo"),
    ("covertpilot.cli", "simulate_bob_sinr", "monte_carlo"),
    ("covertpilot.cli", "bob_estimation_diagnostics", "monte_carlo"),
    ("covertpilot.cli", "main", "cli"),
    ("covertpilot.cli", "resolve_run_config", "cli"),
)

LAYERS = ("specfun", "detection", "optimizer", "link_model", "monte_carlo", "cli")
LAYER_OF = {f"{module.rsplit('.', 1)[-1]}.{attr}": layer for module, attr, layer in TARGETS}

WARDEN_FNS = ("simulate_willie", "count_detector_disagreements")
BOB_FNS = ("simulate_bob_sinr", "bob_estimation_diagnostics")
MC_FNS = WARDEN_FNS + BOB_FNS

_FIELDS = (("name", "i"), ("parent", "i"), ("op", "i"), ("error", "i"),
           ("start", "d"), ("end", "d"))


def _find_mc(args, kwargs):
    mc = kwargs.get("mc")
    if mc is None:
        mc = next((a for a in args if hasattr(a, "trials") and hasattr(a, "seed")), None)
    return mc


class Tracer:
    """Records spans from wrapped module attributes into flat arrays."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self.errors: List[str] = []
        self.columns = {field: array(code) for field, code in _FIELDS}
        self.mc: Dict[int, Tuple[int, int]] = {}  # span -> (trials, seed)
        self.op = -1
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def install(self, targets: Sequence[Tuple[str, str, str]] = TARGETS) -> List[str]:
        """Wrap every target that exists; return the names that do not."""
        for module_name, attr, _ in targets:
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, attr in MC_FNS))
        return self.missing

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, records_mc: bool):
        name_id = len(self.names)
        self.names.append(name)
        cols = self.columns
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            idx = len(cols["start"])
            cols["name"].append(name_id)
            cols["parent"].append(stack[-1] if stack else -1)
            cols["op"].append(self.op)
            cols["error"].append(-1)
            cols["end"].append(0.0)
            if records_mc:
                mc = _find_mc(args, kwargs)
                if mc is not None:
                    self.mc[idx] = (int(mc.trials), int(mc.seed))
            stack.append(idx)
            cols["start"].append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                cols["error"][idx] = self._error_id(type(exc).__name__)
                raise
            finally:
                cols["end"][idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _error_id(self, type_name: str) -> int:
        if type_name not in self.errors:
            self.errors.append(type_name)
        return self.errors.index(type_name)

    def dump(self, path: str) -> None:
        """Write the spans: one JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "errors": self.errors,
            "missing": self.missing,
            "mc": {str(k): v for k, v in self.mc.items()},
            "count": len(self.columns["start"]),
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for field, _ in _FIELDS:
                self.columns[field].tofile(handle)


class Spans:
    """Spans read back from a dump, as parallel lists."""

    def __init__(self, names, errors, missing, mc, columns):
        self.names: List[str] = names
        self.errors: List[str] = errors
        self.missing: List[str] = missing
        self.mc: Dict[int, Tuple[int, int]] = mc
        self.name: List[int] = columns["name"]
        self.parent: List[int] = columns["parent"]
        self.op: List[int] = columns["op"]
        self.error: List[int] = columns["error"]
        self.start: List[float] = columns["start"]
        self.end: List[float] = columns["end"]

    def __len__(self) -> int:
        return len(self.start)

    @classmethod
    def load(cls, path: str) -> "Spans":
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            columns = {}
            for field, code in _FIELDS:
                values = array(code)
                values.fromfile(handle, header["count"])
                columns[field] = values.tolist()
        mc = {int(k): tuple(v) for k, v in header["mc"].items()}
        return cls(header["names"], header["errors"], header["missing"], mc, columns)


def self_times(start: Sequence[float], end: Sequence[float], parent: Sequence[int]) -> List[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for idx, par in enumerate(parent):
        if par >= 0:
            children.setdefault(par, []).append((start[idx], end[idx]))
    result = []
    for idx in range(len(start)):
        lo, hi = start[idx], end[idx]
        covered = 0.0
        reach = lo
        for c_lo, c_hi in sorted(children.get(idx, ())):
            c_lo, c_hi = max(c_lo, reach), min(c_hi, hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                reach = c_hi
        result.append((hi - lo) - covered)
    return result


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile, q in (0, 1]; None for no values."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def _pct(values: List[float], q: float) -> float:
    value = percentile(values, q)
    return 0.0 if value is None else value


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: Spans, oracle_misses: int) -> Dict[str, Optional[float]]:
    """Per-layer metrics of one traced run.

    Every layer gets calls, self_s, call_us_p50, call_us_p99 and errors;
    some layers get more.  A metric whose span names all went missing at
    install time is None; counts and times over zero calls are 0.
    """
    own = self_times(spans.start, spans.end, spans.parent)
    dur = [e - s for s, e in zip(spans.start, spans.end)]
    by_name: Dict[str, List[int]] = {}
    for idx, name_id in enumerate(spans.name):
        by_name.setdefault(spans.names[name_id], []).append(idx)
    missing = set(spans.missing)

    def select(names):
        """Indices of the spans with any of these names; None if all are missing."""
        if all(name in missing for name in names):
            return None
        return [i for name in names for i in by_name.get(name, ())]

    def micros(idx):
        return [dur[i] * 1e6 for i in idx]

    metrics: Dict[str, Optional[float]] = {}

    def put(key, idx, compute):
        metrics[key] = None if idx is None else float(compute(idx))

    for layer in LAYERS:
        idx = select([name for name, owner in LAYER_OF.items() if owner == layer])
        put(f"{layer}.calls", idx, len)
        put(f"{layer}.self_s", idx, lambda ix: sum(own[i] for i in ix))
        put(f"{layer}.call_us_p50", idx, lambda ix: _pct(micros(ix), 0.5))
        put(f"{layer}.call_us_p99", idx, lambda ix: _pct(micros(ix), 0.99))
        put(f"{layer}.errors", idx, lambda ix: sum(spans.error[i] >= 0 for i in ix))

    solves = select(["optimizer.solve_rho_star"])
    put("optimizer.solves", solves, len)
    put("optimizer.solve_ms_p50", solves, lambda ix: _pct(micros(ix), 0.5) / 1e3)
    put("optimizer.solve_ms_p99", solves, lambda ix: _pct(micros(ix), 0.99) / 1e3)
    put("optimizer.solver_errors", solves, lambda ix: sum(
        spans.error[i] >= 0 and spans.errors[spans.error[i]] == "SolverError" for i in ix))
    evals = select([name for name, owner in LAYER_OF.items() if owner == "detection"])
    if solves is not None and evals is not None:
        # over solves that returned: one that raised stopped early
        completed = {i for i in solves if spans.error[i] < 0}
        metrics["optimizer.xi_evals_per_solve"] = _rate(
            sum(spans.parent[i] in completed for i in evals), len(completed))
    else:
        metrics["optimizer.xi_evals_per_solve"] = None
    metrics["optimizer.oracle_misses"] = float(oracle_misses)

    def mc(i):
        return spans.mc.get(i, (0, -1))

    for kind, fns in (("warden", WARDEN_FNS), ("bob", BOB_FNS)):
        put(f"monte_carlo.{kind}_passes_per_op", select([f"cli.{fn}" for fn in fns]),
            lambda ix: _rate(len(ix), len({(spans.op[i], mc(i)[1]) for i in ix})))
    for fn in MC_FNS:
        put(f"monte_carlo.{fn}.trials_per_s", select([f"cli.{fn}"]),
            lambda ix: _rate(sum(mc(i)[0] for i in ix), sum(dur[i] for i in ix)))

    put("cli.resolve_us_p50", select(["cli.resolve_run_config"]),
        lambda ix: _pct(micros(ix), 0.5))
    return metrics
