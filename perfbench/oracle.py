"""Offline checks of every operation's output.

Each check reads the INI the operation was given and the CSV it wrote,
and returns None when the output is right or a short failure label.  The
design check recomputes the warden's minimum detection error from
`scipy.special`, never from the package; the Monte Carlo checks recompute
their statistics from the CSV columns.
"""

import configparser
import math
from typing import Dict, List, Optional

from scipy.special import gammainc, gammaincc

# |xi*(rho*) - (1 - epsilon)| allowed; catches unsafe and over-conservative powers
XI_TOL = 1e-8
# relative margin for the pilot-count check, far above double rounding
# (~1e-15) and far below the neighbour gap at any n <= 1e8 where the
# closed form can tell neighbours apart
SINR_REL_SLACK = 1e-12
# Monte Carlo statistics may sit this many standard errors from their target
Z_MAX = 5.0
# rows per pilot count in the default fig1 eta grid 0.05:0.95:0.05
FIG1_ETA_POINTS = 19


def _config(ini: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    parser.read_string(ini)
    return parser


def _power(raw: str) -> float:
    text = raw.strip()
    if text.lower().endswith("dbm"):
        return 10.0 ** (float(text[:-3]) / 10.0)
    return float(text)


def _rows(csv_text: str) -> List[Dict[str, str]]:
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def xi_star(n: int, s: float) -> float:
    """Warden's minimum detection error at warden SNR s = rho / sigma_w2.

    The optimal radiometer threshold is tau = sigma_w2 (1+s) ln(1+s) / s,
    so alpha = Q(n, n tau / sigma_w2) and beta = P(n, n tau / (rho + sigma_w2)).
    """
    x_h1 = n * math.log1p(s) / s
    return float(gammaincc(n, x_h1 * (1.0 + s)) + gammainc(n, x_h1))


def effective_sinr_equal_power(n: int, lam: float, sigma_b2: float, rho: float, n_p: int) -> float:
    """((n - n_p)/n) lambda^2 rho^2 n_p / (sigma_b2 (sigma_b2 + lambda rho (n_p + 1)))."""
    return ((n - n_p) / n) * (lam * lam * rho * rho * n_p) / (
        sigma_b2 * (sigma_b2 + lam * rho * (n_p + 1))
    )


def check_design(ini: str, csv_text: str) -> Optional[str]:
    system = _config(ini)["system"]
    n = int(system["n"])
    epsilon = float(system["epsilon"])
    sigma_w2 = _power(system["sigma_w2"])
    sigma_b2 = _power(system["sigma_b2"])
    lam = float(system["lambda_ab"])
    (row,) = _rows(csv_text)
    rho = float(row["rho_star"])
    n_p = int(row["np_star"])

    if not (rho > 0 and abs(xi_star(n, rho / sigma_w2) - (1.0 - epsilon)) <= XI_TOL):
        return "oracle_xi"
    if not 1 <= n_p <= n - 1:
        return "oracle_np"
    best = effective_sinr_equal_power(n, lam, sigma_b2, rho, n_p)
    for k in (n_p - 1, n_p + 1):
        if 1 <= k <= n - 1 and effective_sinr_equal_power(
            n, lam, sigma_b2, rho, k
        ) > best * (1.0 + SINR_REL_SLACK):
            return "oracle_np"
    return None


def check_verify(ini: str, csv_text: str) -> Optional[str]:
    rows = _rows(csv_text)
    checks = {row["check"]: row for row in rows}
    disagreements = checks.get("lrt_vs_radiometer_disagreements")
    if disagreements is None or float(disagreements["simulated"]) != 0.0:
        return "oracle_disagreement"
    for row in rows:
        simulated, expected = float(row["simulated"]), float(row["analytic"])
        std_err = float(row["std_err"])
        if std_err > 0:
            within = abs(simulated - expected) <= Z_MAX * std_err
        else:
            within = simulated == expected
        if not within:
            return "oracle_z"
    return None


def check_fig1(ini: str, csv_text: str) -> Optional[str]:
    config = _config(ini)
    np_values = {int(v) for v in config["fig1"]["np_values"].split(",")}
    rows = _rows(csv_text)
    if len(rows) != FIG1_ETA_POINTS * len(np_values) or {
        int(row["n_p"]) for row in rows
    } != np_values:
        return "oracle_rows"
    for row in rows:
        bound = float(row["kl_bound"]) - Z_MAX * float(row["xi_lrt_stderr"])
        if not float(row["xi_lrt"]) >= bound:
            return "oracle_kl"
    return None


CHECKS = {"design-grid": check_design, "scale-probe": check_design,
          "mc-verify": check_verify, "mc-split": check_fig1}


def check(workload: str, ini: str, csv_text: Optional[str]) -> Optional[str]:
    """Failure label for one operation's output, or None if it is right."""
    if not csv_text:
        return "no_output"
    try:
        return CHECKS[workload](ini, csv_text)
    except (KeyError, ValueError, IndexError) as exc:
        return f"unreadable_output({type(exc).__name__})"
