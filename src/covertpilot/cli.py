"""Command-line front end.

Subcommands reproduce the library's headline results as CSV sweeps:

  design   solve the covert design for one configuration
  fig1     warden error probability and KL bound versus the power split
  fig2     effective SINR versus pilot count at the covertness-limited power
  fig3     optimal pilot count versus the covertness parameter
  sweep    closed-form detection metrics over an average-power grid
  verify   Monte Carlo versus closed-form consistency suite

Configuration files are INI-style: a [system] section for the physical
parameters plus one optional section per subcommand.  `_SECTIONS` gives
each section's keys with their defaults, so all subcommands run with no
config at all, and `_PARSERS` gives each key's parser.  Power keys accept
a `dBm` suffix (linear = 10^(dBm/10), milliwatt reference), which
--units dbm implies for their unsuffixed values.  --seed and --trials
apply only where the section takes `trials` (fig1, verify).
CSV output is deterministic for a fixed (config, seed): comma-separated,
LF line endings, 17 significant digits, and every row carries a hash of
the fully resolved configuration.
"""

import argparse
import configparser
import functools
import hashlib
import math
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from .detection import covertness_lower_bound, kl_divergence, min_detection_error
from .link_model import PowerAllocation, SystemConfig, TrialBudgetError, _check_slot, sinr
from .optimizer import SolverError, _sinr_out_of_range, design, effective_sinr_equal_power

if TYPE_CHECKING:
    from .monte_carlo import BobResult, McEstimate, WardenResult, WillieErrorRates

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_BUDGET = 4

DEFAULT_SEED = 12345

# largest start:stop:step grid a config may ask for
_MAX_GRID_POINTS = 10_000
# most distinct fig1 pilot counts: a warden pass holds two rows of
# CHUNK_TRIALS doubles (256 KiB) per count, 16 MiB at the cap
_MAX_PILOT_COUNTS = 64


class ConfigError(ValueError):
    """Invalid or unknown configuration input; message names the field."""


def dbm_to_linear(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def linear_to_dbm(linear: float) -> float:
    return 10.0 * math.log10(linear)


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _parse_power(key: str, raw: str, units: str) -> float:
    text = raw.strip()
    is_dbm = units == "dbm"
    if text.lower().endswith("dbm"):
        text = text[:-3].strip()
        is_dbm = True
    value = _parse_float(key, raw, text)
    if not is_dbm:
        return value
    try:
        return dbm_to_linear(value)
    except OverflowError:
        raise ConfigError(f"config key '{key}': {raw!r} is out of range")


def _parse_float(key: str, raw: str, text: Optional[str] = None) -> float:
    """The finite number in `text` (default `raw`); messages quote `raw`."""
    try:
        value = float(raw if text is None else text)
    except ValueError:
        raise ConfigError(f"config key '{key}': cannot parse {raw!r} as a number")
    if not math.isfinite(value):
        raise ConfigError(f"config key '{key}': {raw!r} is not a finite number")
    return value


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"config key '{key}': cannot parse {raw!r} as an integer")


def _parse_list(key: str, raw: str, parse_item) -> List:
    items = [item.strip() for item in raw.split(",") if item.strip()]
    if not items:
        raise ConfigError(f"config key '{key}': empty list")
    return [parse_item(key, item) for item in items]


def _parse_grid(key: str, raw: str) -> List[float]:
    """start:stop:step inclusive grid, or a comma list."""
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError(f"config key '{key}': grid must be start:stop:step")
        start, stop, step = (_parse_float(key, p) for p in parts)
        if not (step > 0 and stop >= start):
            raise ConfigError(f"config key '{key}': grid bounds are not increasing")
        intervals = (stop - start) / step
        # refuses a count that overflows to inf as well
        if not intervals < _MAX_GRID_POINTS - 0.5:
            raise ConfigError(
                f"config key '{key}': grid {raw!r} has more than "
                f"{_MAX_GRID_POINTS} points"
            )
        count = int(round(intervals)) + 1
        # each point from the decimal text, so none picks up the step's
        # error; imported here, the closed-form commands read no grid
        from decimal import Decimal

        first, delta = Decimal(parts[0]), Decimal(parts[2])
        return [float(first + i * delta) for i in range(count)]
    return _parse_list(key, raw, _parse_float)


_int_list = functools.partial(_parse_list, parse_item=_parse_int)
_float_list = functools.partial(_parse_list, parse_item=_parse_float)

# key -> parser(key, raw); the power parser alone also reads --units
_PARSERS = {
    "n": _parse_int,
    "lambda_ab": _parse_float,
    "sigma_b2": _parse_power,
    "sigma_w2": _parse_power,
    "epsilon": _parse_float,
    "seed": _parse_int,
    "rho": _parse_power,
    "np_values": _int_list,
    "eta_grid": _parse_grid,
    "trials": _parse_int,
    "epsilon_values": _float_list,
    "epsilon_grid": _parse_grid,
    "n_values": _int_list,
    "rho_min": _parse_power,
    "rho_max": _parse_power,
    "rho_points": _parse_int,
    "n_p": _parse_int,
}

# section -> {key: default}: the keys each section accepts.  Defaults are
# typed and always linear-scale; --units applies only to values read from
# a config file.  Every key but seed in [system] is a SystemConfig field.
# The default grids are written as k/m, the doubles the grid parser gives
# for the text beside them, so that importing the module loads no decimal.
_SECTIONS: Dict[str, Dict[str, object]] = {
    "system": {
        "n": 100,
        "lambda_ab": 1.0,
        "sigma_b2": 1.0,
        "sigma_w2": 1.0,
        "epsilon": 0.1,
        "seed": DEFAULT_SEED,
    },
    "design": {},
    "fig1": {
        "rho": 0.05,
        "np_values": [20, 50],
        "eta_grid": [k / 20 for k in range(1, 20)],  # 0.05:0.95:0.05
        "trials": 100_000,
    },
    "fig2": {"epsilon_values": [0.05, 0.1, 0.2]},
    "fig3": {
        "epsilon_grid": [k / 50 for k in range(1, 16)],  # 0.02:0.30:0.02
        "n_values": [100, 200, 400],
    },
    "sweep": {"rho_min": 0.001, "rho_max": 1.0, "rho_points": 50, "n_p": 20},
    "verify": {"rho": 0.05, "n_p": 20, "trials": 200_000},
}


def resolve_run_config(args, command: str) -> Dict[str, object]:
    """Merge defaults, the config file, and CLI flags into typed values."""
    parser = configparser.ConfigParser()
    path = args.config
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                parser.read_file(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}")
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path!r}: {exc}")
    if parser.defaults():
        raise ConfigError(
            f"config section [{parser.default_section}] is not supported; "
            "put its keys in [system] or a subcommand section"
        )
    # every section's key names are checked, not only the running command's
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown config key '{key}' in section [{section}]")
    # the raw text of both sections this command reads, before any is parsed
    overrides: Dict[str, str] = {}
    for section in ("system", command):
        if not parser.has_section(section):
            continue
        for key in parser.options(section):
            try:
                overrides[key] = parser.get(section, key)
            except configparser.Error as exc:
                # e.g. a bare '%', which interpolation reads as a reference
                raise ConfigError(f"config key '{key}' in section [{section}]: {exc}")

    units = args.units
    resolved: Dict[str, object] = {"command": command, "units": units}
    resolved.update(_SECTIONS["system"])
    resolved.update(_SECTIONS[command])
    for key, raw in overrides.items():
        parse = _PARSERS[key]
        resolved[key] = parse(key, raw, units) if parse is _parse_power else parse(key, raw)

    # the two Monte Carlo flags; [system] seed stays valid in every config file
    for flag in ("seed", "trials"):
        value = getattr(args, flag)
        if value is None:
            continue
        if "trials" not in _SECTIONS[command]:
            raise ConfigError(f"--{flag}: '{command}' runs no Monte Carlo trials")
        resolved[flag] = value
    # McConfig's range, checked for every command
    if not 0 <= resolved["seed"] < 2**64:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {resolved['seed']}")
    return resolved


def system_config(resolved: Dict[str, object], **overrides) -> SystemConfig:
    values = {key: resolved[key] for key in _SECTIONS["system"] if key != "seed"}
    values.update(overrides)
    return SystemConfig(**values)


def config_hash(resolved: Dict[str, object]) -> str:
    lines = []
    for key in sorted(resolved):
        value = resolved[key]
        if isinstance(value, list):
            text = ",".join(_fmt(item) for item in value)
        else:
            text = _fmt(value)
        lines.append(f"{key}={text}")
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return digest[:12]


def _write_csv(out: Optional[str], header: Sequence[str], rows: List[Sequence]) -> None:
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(_fmt(cell) for cell in row) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


# the benchmark's tracer wraps these four readers of a Monte Carlo pass and
# the imported effective_sinr_equal_power, so they stay until the tracer
# drops them (ROADMAP item 1A)
def simulate_willie(warden: "WardenResult") -> "WillieErrorRates":
    return warden.rates[0]


def count_detector_disagreements(warden: "WardenResult") -> int:
    return warden.disagreements


def simulate_bob_sinr(bob: "BobResult") -> "McEstimate":
    return bob.sinr


def bob_estimation_diagnostics(bob: "BobResult") -> "BobResult":
    return bob


def _for_key(key: str, build, *args, **kwargs):
    """build(*args, **kwargs), reporting a ValueError as a fault of config key `key`."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"config key '{key}': {exc}") from None


def _check_points(key: str, field: str, values) -> None:
    """Check each value of a list key that stands in for a SystemConfig field."""
    for value in values:
        # against the default [system], so that only the value can fail
        _for_key(key, system_config, _SECTIONS["system"], **{field: value})


def cmd_design(resolved: Dict[str, object], digest: str):
    cfg = system_config(resolved)
    result = design(cfg)

    rho_text = _fmt(result.rho_star)
    if resolved["units"] == "dbm":
        rho_text += f" ({_fmt(linear_to_dbm(result.rho_star))} dBm)"
    print(f"covert design for n={cfg.n}, epsilon={_fmt(cfg.epsilon)}")
    print(f"  rho_star          {rho_text}")
    print(f"  np_continuous     {_fmt(result.np_continuous)}")
    print(f"  np_star           {result.np_star}")
    print(f"  np_ceil/np_floor  {result.np_ceil}/{result.np_floor}")
    print(f"  gamma_eff_star    {_fmt(result.gamma_eff_star)}")
    print(f"  xi_star_achieved  {_fmt(result.xi_star_achieved)}")
    print(f"  config_hash       {digest}")
    row = [
        cfg.n, cfg.lambda_ab, cfg.sigma_b2, cfg.sigma_w2, cfg.epsilon,
        result.rho_star, result.np_continuous, result.np_star,
        result.np_ceil, result.np_floor, result.gamma_eff_star,
        result.xi_star_achieved,
    ]
    return [row], EXIT_OK


def cmd_fig1(resolved: Dict[str, object], digest: str):
    cfg = system_config(resolved)
    rho = resolved["rho"]
    if not rho >= 0:
        raise ConfigError(f"config key 'rho': must be nonnegative, got {rho}")
    counts = len(set(resolved["np_values"]))
    if counts > _MAX_PILOT_COUNTS:
        raise ConfigError(
            f"config key 'np_values': {counts} distinct pilot counts, "
            f"more than {_MAX_PILOT_COUNTS}"
        )
    # every allocation is built, and so checked, before the pass
    etas, allocs = [], []
    for n_p in resolved["np_values"]:
        _for_key("np_values", _check_slot, cfg.n, n_p)
        for eta in resolved["eta_grid"]:
            etas.append(eta)
            allocs.append(
                _for_key("eta_grid", PowerAllocation.split, n=cfg.n, rho=rho, eta=eta, n_p=n_p)
            )
    # one pass for every row: each pilot count reads its segments from the
    # same slots, so differences across eta and n_p are precise
    from . import monte_carlo

    mc = monte_carlo.McConfig(trials=resolved["trials"], seed=resolved["seed"])
    lrt = monte_carlo.LikelihoodRatioTest()
    wardens = monte_carlo.simulate_warden(cfg, tuple(allocs), mc, (lrt,))
    rows = []
    for eta, alloc, warden in zip(etas, allocs, wardens):
        rates = simulate_willie(warden)
        bound = covertness_lower_bound(kl_divergence(cfg, alloc))
        rows.append([eta, alloc.n_p, rates.xi.value, rates.xi.std_err, bound])
    return rows, EXIT_OK


def cmd_fig2(resolved: Dict[str, object], digest: str):
    _check_points("epsilon_values", "epsilon", resolved["epsilon_values"])
    # one row per pilot count and epsilon, all held until written
    if resolved["n"] - 1 > _MAX_GRID_POINTS:
        raise ConfigError(
            f"config key 'n': fig2 has {resolved['n'] - 1} pilot counts, "
            f"more than {_MAX_GRID_POINTS}"
        )
    rows = []
    for epsilon in resolved["epsilon_values"]:
        cfg = system_config(resolved, epsilon=epsilon)
        result = design(cfg)
        for n_p in range(1, cfg.n):
            gamma = effective_sinr_equal_power(cfg, result.rho_star, n_p)
            rows.append([epsilon, n_p, gamma, int(n_p == result.np_star)])
    return rows, EXIT_OK


def cmd_fig3(resolved: Dict[str, object], digest: str):
    _check_points("n_values", "n", resolved["n_values"])
    _check_points("epsilon_grid", "epsilon", resolved["epsilon_grid"])
    rows = []
    for n in resolved["n_values"]:
        for epsilon in resolved["epsilon_grid"]:
            best = design(system_config(resolved, n=n, epsilon=epsilon)).np_star
            rows.append([epsilon, n, best, best / n])
    return rows, EXIT_OK


def cmd_sweep(resolved: Dict[str, object], digest: str):
    cfg = system_config(resolved)
    n_p = resolved["n_p"]
    _for_key("n_p", _check_slot, cfg.n, n_p)
    lo, hi, points = resolved["rho_min"], resolved["rho_max"], resolved["rho_points"]
    if not (0 < lo < hi) or points < 2:
        raise ConfigError("config keys 'rho_min'/'rho_max'/'rho_points': invalid grid")
    if points > _MAX_GRID_POINTS:
        raise ConfigError(
            f"config key 'rho_points': {points} is more than {_MAX_GRID_POINTS} points"
        )

    rows = []
    for i in range(points):
        rho = lo + (hi - lo) * i / (points - 1)
        try:
            report = min_detection_error(cfg, rho)
        except ValueError as exc:
            raise ConfigError(f"config keys 'rho_min'/'rho_max': {exc}") from None
        gamma = effective_sinr_equal_power(cfg, rho, n_p)
        # Bob's two SNRs overflow their product from about 1e154
        if not math.isfinite(gamma):
            raise _sinr_out_of_range(
                cfg, f"rho = {rho!r}, n_p = {n_p}", f"rho_min = {lo!r} to rho_max = {hi!r}"
            )
        rows.append([
            rho, report.d01, report.xi_lower_bound, report.tau_star,
            report.alpha, report.beta, report.xi_star, gamma,
        ])
    return rows, EXIT_OK


def cmd_verify(resolved: Dict[str, object], digest: str):
    from . import monte_carlo

    cfg = system_config(resolved)
    rho, n_p = resolved["rho"], resolved["n_p"]
    _for_key("n_p", _check_slot, cfg.n, n_p)
    mc = monte_carlo.McConfig(trials=resolved["trials"], seed=resolved["seed"])
    alloc = _for_key("rho", PowerAllocation.equal_power, n=cfg.n, rho=rho, n_p=n_p)
    analytic = _for_key("rho", min_detection_error, cfg, rho)
    detectors = (monte_carlo.Radiometer(threshold=analytic.tau_star),
                 monte_carlo.LikelihoodRatioTest())
    # one pass over each stream; the warden pass evaluates both detectors
    (warden,) = monte_carlo.simulate_warden(cfg, (alloc,), mc, detectors)
    bob = monte_carlo.simulate_bob(cfg, alloc, mc)
    rates = simulate_willie(warden)
    disagreements = count_detector_disagreements(warden)
    bob_sinr = simulate_bob_sinr(bob)
    diag = bob_estimation_diagnostics(bob)

    rows = []

    def add_check(name, simulated, expected, std_err, max_z, checkable=True):
        diff = simulated - expected
        if std_err == 0:
            # a standard error lost to underflow leaves room for no deviation
            z = 0.0 if diff == 0 else math.copysign(math.inf, diff)
        else:
            z = diff / std_err
        # a value or standard error that overflowed or could not be formed fails
        passed = (
            checkable and math.isfinite(simulated) and math.isfinite(std_err) and abs(z) <= max_z
        )
        rows.append([name, simulated, expected, std_err, z, int(passed)])

    def add_rate_check(name, rate, expected):
        # a count proportion never resolves below one trial in T, so a
        # zero count does not make its standard error, and its z, vanish
        add_check(name, rate.value, expected, max(rate.std_err, 1.0 / mc.trials), 3.0)

    add_rate_check("radiometer_alpha", rates.alpha, analytic.alpha)
    add_rate_check("radiometer_beta", rates.beta, analytic.beta)
    add_rate_check("radiometer_xi", rates.xi, analytic.xi_star)
    rows.append([
        "lrt_vs_radiometer_disagreements",
        float(disagreements), 0.0, 0.0, float(disagreements), int(disagreements == 0),
    ])
    gamma = sinr(cfg, alloc)
    # rho > 0 here, so a zero closed-form SINR has underflowed, and an
    # estimate that underflows with it would pass having checked nothing
    add_check("bob_sinr", bob_sinr.value, gamma, bob_sinr.std_err, 4.0, checkable=gamma > 0)
    add_check("bob_orthogonality_re", diag.orth_corr_re.value, 0.0, diag.orth_corr_re.std_err, 4.0)
    add_check("bob_orthogonality_im", diag.orth_corr_im.value, 0.0, diag.orth_corr_im.std_err, 4.0)
    return rows, EXIT_OK if all(row[-1] for row in rows) else EXIT_CHECK_FAILED


# name -> (handler, help, CSV columns).  handler(resolved, digest) returns
# (rows, exit code); main appends the config_hash column and writes the CSV.
_COMMANDS = {
    "design": (cmd_design, "solve one covert design", (
        "n", "lambda_ab", "sigma_b2", "sigma_w2", "epsilon", "rho_star", "np_continuous",
        "np_star", "np_ceil", "np_floor", "gamma_eff_star", "xi_star_achieved")),
    "fig1": (cmd_fig1, "warden error vs power split (CSV)",
             ("eta", "n_p", "xi_lrt", "xi_lrt_stderr", "kl_bound")),
    "fig2": (cmd_fig2, "effective SINR vs pilot count (CSV)",
             ("epsilon", "n_p", "gamma_eff", "analytic_optimum")),
    "fig3": (cmd_fig3, "optimal pilot count vs covertness (CSV)",
             ("epsilon", "n", "np_star", "np_star_over_n")),
    "sweep": (cmd_sweep, "detection metrics vs average power (CSV)", (
        "rho", "d01", "xi_lower_bound", "tau_star", "alpha", "beta", "xi_star", "gamma_eff")),
    "verify": (cmd_verify, "Monte Carlo vs closed-form suite (CSV)",
               ("check", "simulated", "analytic", "std_err", "z_score", "passed")),
}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file path")
    common.add_argument("--out", help="CSV output path (default: stdout)")
    common.add_argument("--seed", type=int, help="Monte Carlo seed, u64 (fig1, verify)")
    common.add_argument(
        "--trials", type=int, help="Monte Carlo trials per point (fig1, verify)"
    )
    common.add_argument(
        "--units",
        choices=("linear", "dbm"),
        default="linear",
        help="interpretation of unsuffixed power values (default: linear)",
    )

    parser = argparse.ArgumentParser(
        prog="covertpilot",
        description="Pilot/data allocation design for covert wireless links",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        handler, _, columns = _COMMANDS[args.command]
        resolved = resolve_run_config(args, args.command)
        digest = config_hash(resolved)
        rows, code = handler(resolved, digest)
        # design prints its summary and writes a CSV only when asked to
        if args.out is not None or args.command != "design":
            _write_csv(args.out, [*columns, "config_hash"], [[*row, digest] for row in rows])
        return code
    except TrialBudgetError as exc:
        print(f"monte carlo budget refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
