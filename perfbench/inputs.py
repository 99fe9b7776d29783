"""Seeded input generators for the three workloads.

Every workload turns its seed into a pool of INI configs and the CLI
argument list of one operation per config.  Only the standard library is
used, so the workload process can import this module before the package
without pulling in numpy.

Draws come in Latin-hypercube blocks: within each block of BLOCK
operations, every input dimension visits each of BLOCK equal strata once,
in a seeded random order.  The marginal law of every input is exactly the
one stated; the blocks only make each time-bounded prefix of the pool
cover the ranges evenly, so runs with different seeds measure the same
mix.
"""

import math
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

BLOCK = 64

VERIFY_TRIALS = 2_000_000

# operations written before timing starts; a loop that outruns its pool
# cycles through it again
POOL_SIZE = {"design-grid": 8192, "mc-verify": 64, "mc-split": 128}

WORKLOADS = tuple(POOL_SIZE)

# fixed-size design pool over the full scale range, run by every traced
# run; not a workload, see _scale_probe
SCALE_PROBE = "scale-probe"
SCALE_PROBE_SIZE = 128


@dataclass(frozen=True)
class Op:
    """One operation: the config text and the CLI arguments that run it."""

    ini: str
    argv: Tuple[str, ...]


def _lhs_block(rng: random.Random, dims: int) -> List[List[float]]:
    """BLOCK points in [0, 1)^dims, one per stratum in every dimension."""
    columns = []
    for _ in range(dims):
        strata = list(range(BLOCK))
        rng.shuffle(strata)
        columns.append([(k + rng.random()) / BLOCK for k in strata])
    return [list(point) for point in zip(*columns)]


def _uniforms(rng: random.Random, count: int, dims: int) -> List[List[float]]:
    points: List[List[float]] = []
    while len(points) < count:
        points.extend(_lhs_block(rng, dims))
    return points[:count]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _log_uniform_int(u: float, lo: int, hi: int) -> int:
    # log-uniform on [lo, hi + 1) then floored, so both ends are reachable
    return min(hi, int(_log_uniform(u, lo, hi + 1)))


def _uniform_int(u: float, lo: int, hi: int) -> int:
    return min(hi, lo + int(u * (hi - lo + 1)))


def _dbm(u: float, lo: float = -120.0, hi: float = 30.0) -> float:
    return lo + (hi - lo) * u


def _ini(sections: Dict[str, Dict[str, str]]) -> str:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
    return "\n".join(lines) + "\n"


def _design_configs(rng: random.Random, count: int, n_max: int, eps_min: float,
                    dbm_min: float, lam_min: float) -> List[Tuple[Dict, Tuple[str, ...]]]:
    specs = []
    for u in _uniforms(rng, count, 5):
        system = {
            "n": str(_log_uniform_int(u[0], 2, n_max)),
            "epsilon": repr(_log_uniform(u[1], eps_min, 0.3)),
            "sigma_b2": f"{_dbm(u[2], dbm_min)!r} dBm",
            "sigma_w2": f"{_dbm(u[3], dbm_min)!r} dBm",
            "lambda_ab": repr(_log_uniform(u[4], lam_min, 10.0)),
        }
        specs.append(({"system": system}, ("design",)))
    return specs


def _design_grid(rng: random.Random, count: int) -> List[Tuple[Dict, Tuple[str, ...]]]:
    """Designs inside the range where the seed code's answers are right.

    Every corner of n <= 1e6, epsilon >= 1e-7, noise >= -20 dBm and
    lambda_ab >= 1e-3 passes the oracle, so this range keeps a margin of
    5x in n, 10x in epsilon and lambda_ab and 10 dB in noise.  Outside it
    the seed code fails; _scale_probe measures that.
    """
    return _design_configs(rng, count, n_max=200_000, eps_min=1e-6, dbm_min=-10.0,
                           lam_min=1e-2)


def _scale_probe(rng: random.Random, count: int) -> List[Tuple[Dict, Tuple[str, ...]]]:
    """Designs over the full scale range: n to 1e8, epsilon to 1e-9, noise to -120 dBm.

    On the seed code most of these fail (ConvergenceError at large n,
    xi misses from the absolute power tolerance at low noise), so they are
    counted as a metric of a fixed pool rather than as timed operations.
    """
    return _design_configs(rng, count, n_max=10**8, eps_min=1e-9, dbm_min=-120.0,
                           lam_min=1e-3)


def _mc_system(u: List[float]) -> Tuple[Dict[str, str], int, float]:
    """n, noise powers and fading shared by both Monte Carlo workloads.

    rho = sigma_w2 * c / sqrt(n) with c in [0.5, 3] keeps the warden's
    alpha and beta away from 0 and 1 at every n.
    """
    n = _log_uniform_int(u[0], 20, 2000)
    sigma_w2_dbm = _dbm(u[1])
    c = 0.5 + 2.5 * u[2]
    rho = 10.0 ** (sigma_w2_dbm / 10.0) * c / math.sqrt(n)
    system = {
        "n": str(n),
        "sigma_b2": f"{_dbm(u[3])!r} dBm",
        "sigma_w2": f"{sigma_w2_dbm!r} dBm",
        "lambda_ab": repr(_log_uniform(u[4], 1e-3, 10.0)),
    }
    return system, n, rho


def _mc_verify(rng: random.Random, count: int) -> List[Tuple[Dict, Tuple[str, ...]]]:
    specs = []
    for u in _uniforms(rng, count, 6):
        system, n, rho = _mc_system(u)
        seed = rng.getrandbits(63)
        sections = {
            "system": system,
            "verify": {"rho": repr(rho), "n_p": str(_uniform_int(u[5], 1, n - 1))},
        }
        argv = ("verify", "--seed", str(seed), "--trials", str(VERIFY_TRIALS))
        specs.append((sections, argv))
    return specs


def _mc_split(rng: random.Random, count: int) -> List[Tuple[Dict, Tuple[str, ...]]]:
    specs = []
    for u in _uniforms(rng, count, 5):
        system, n, rho = _mc_system(u)
        system["seed"] = str(rng.getrandbits(63))
        np_values = rng.sample(range(1, n), 2)
        sections = {
            "system": system,
            "fig1": {"rho": repr(rho), "np_values": f"{np_values[0]}, {np_values[1]}"},
        }
        specs.append((sections, ("fig1",)))
    return specs


_GENERATORS = {
    SCALE_PROBE: _scale_probe,
    "design-grid": _design_grid,
    "mc-verify": _mc_verify,
    "mc-split": _mc_split,
}


def generate(workload: str, seed: int, count: int = 0) -> List[Tuple[Dict, Tuple[str, ...]]]:
    """(INI sections, leading CLI arguments) per operation, from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    size = SCALE_PROBE_SIZE if workload == SCALE_PROBE else POOL_SIZE[workload]
    return _GENERATORS[workload](rng, count or size)


def write_pool(workload: str, seed: int, directory: str) -> List[Op]:
    """Write operation i's config to `directory`/i.ini; return the operations."""
    os.makedirs(directory, exist_ok=True)
    ops = []
    for i, (sections, head) in enumerate(generate(workload, seed)):
        text = _ini(sections)
        config = os.path.join(directory, f"{i}.ini")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(text)
        ops.append(Op(ini=text, argv=head + ("--config", config)))
    return ops
