"""Closed forms that tests compare the package against."""


def effective_sinr_closed_form(cfg, rho, n_p):
    """Effective SINR at rho_p == rho_d == rho, written out in one expression.

    ((n - n_p)/n) * lambda^2 rho^2 n_p / (sigma_b2 (sigma_b2 + lambda rho (n_p + 1)))

    Accepts scalars or numpy arrays for rho and n_p, which makes pilot
    sweeps cheap.
    """
    lam = cfg.lambda_ab
    sb2 = cfg.sigma_b2
    n = cfg.n
    return ((n - n_p) / n) * (lam * lam * rho * rho * n_p) / (
        sb2 * (sb2 + lam * rho * (n_p + 1))
    )
