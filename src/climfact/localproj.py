"""Per-horizon least-squares impulse responses with HAC standard errors.

For every horizon h the target is regressed on an intercept, lags 1..p of
the endogenous block, the shock at lags 0..r, and lags of the controls.
The coefficient on the contemporaneous shock is the impulse response at
that horizon. Residuals of multi-horizon projections are serially
correlated by construction, so standard errors use a Newey-West kernel
with bandwidth h+1; forcing bandwidth 0 recovers the classical OLS
standard error exactly.

Targets are estimated one equation at a time; endogenous series enter
only through their lags, never contemporaneously.
"""

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np
import scipy.linalg

from .errors import InsufficientSample, RankDeficientDesign
from .ingest import align


@dataclass(frozen=True)
class LpSpec:
    """Estimation settings for the local-projection battery.

    With lag_selection='aic' the lag pair (p, l) minimizing the Akaike
    criterion on the horizon-0 regression is used for every horizon; with
    'fixed' the maxima p_max/l_max are used as-is. r counts additional
    shock lags beyond the contemporaneous term. When
    contemporaneous_controls is set, controls enter at lag 0 as well.
    """

    h_max: int = 24
    p_max: int = 12
    r: int = 0
    l_max: int = 12
    lag_selection: str = "aic"
    ci_level: float = 0.90
    contemporaneous_controls: bool = False

    def __post_init__(self):
        if self.h_max < 1 or self.p_max < 1 or self.l_max < 1 or self.r < 0:
            raise ValueError("h_max, p_max, l_max must be >= 1 and r >= 0")
        if self.lag_selection not in ("aic", "fixed"):
            raise ValueError("lag_selection must be 'aic' or 'fixed'")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must lie in (0, 1)")


@dataclass(frozen=True)
class HorizonEstimate:
    h: int
    estimate: float
    se: float
    lo: float
    hi: float
    p: int
    l: int
    nobs: int
    resid_sd: float


@dataclass(frozen=True)
class IrfResult:
    """Impulse-response path for one (target, shock) pair."""

    sector: str
    shock_name: str
    horizons: np.ndarray
    estimate: np.ndarray
    se: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    p: int
    l: int
    ci_level: float
    nobs: np.ndarray = field(repr=False, default=None)
    resid_sd: np.ndarray = field(repr=False, default=None)


# -- design construction -------------------------------------------------


def _control_lag_range(spec, l):
    first = 0 if spec.contemporaneous_controls else 1
    return range(first, l + 1)


def _design(y, x, endo, controls, h, p, l, spec, t_start=None):
    """Design matrix, target vector and column labels for one horizon.

    Rows are periods t with every lag available and t+h observed; passing
    t_start pins the first usable period so lag candidates share a common
    estimation window.
    """
    T = len(y)
    need = [p, spec.r]
    if controls is not None and controls.shape[1] > 0:
        need.append(l)
    t0 = max(need) if t_start is None else t_start
    n = T - h - t0
    if n < 1:
        raise InsufficientSample(f"no usable rows at horizon {h}")
    rows = np.arange(t0, T - h)

    cols = [np.ones(n)]
    labels = ["const"]
    for j in range(endo.shape[1]):
        for k in range(1, p + 1):
            cols.append(endo[rows - k, j])
            labels.append(f"endo{j}[-{k}]")
    for i in range(spec.r + 1):
        cols.append(x[rows - i])
        labels.append(f"shock[-{i}]")
    if controls is not None:
        for j in range(controls.shape[1]):
            for k in _control_lag_range(spec, l):
                cols.append(controls[rows - k, j])
                labels.append(f"ctrl{j}[-{k}]")
    X = np.column_stack(cols)
    target = y[rows + h]
    return X, target, labels


def _ols(X, target, labels):
    """Pivoted-QR least squares with an explicit rank check."""
    n, k = X.shape
    if n < 10 + k:
        raise InsufficientSample(
            f"{n} rows cannot support {k} regressors (need >= {10 + k})"
        )
    Q, R, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = np.finfo(float).eps * max(n, k) * (diag.max() if diag.size else 0.0)
    rank = int(np.sum(diag > tol))
    if rank < k:
        offending = [labels[j] for j in sorted(piv[rank:])]
        raise RankDeficientDesign("design matrix is rank deficient", offending)
    coef_piv = scipy.linalg.solve_triangular(R, Q.T @ target)
    beta = np.empty(k)
    beta[piv] = coef_piv
    rinv = scipy.linalg.solve_triangular(R, np.eye(k))
    xtx_inv = np.empty((k, k))
    xtx_inv[np.ix_(piv, piv)] = rinv @ rinv.T
    resid = target - X @ beta
    return beta, resid, xtx_inv


def hac_covariance(X, resid, xtx_inv, bandwidth):
    """Newey-West coefficient covariance with the given lag truncation.

    bandwidth 0 is defined as the classical homoskedastic OLS covariance
    (not the lag-0 robust sandwich), matching the module contract.
    """
    n, k = X.shape
    if bandwidth == 0:
        sigma2 = float(resid @ resid) / (n - k)
        return sigma2 * xtx_inv
    g = X * resid[:, None]
    S = g.T @ g
    for j in range(1, min(bandwidth, n - 1) + 1):
        w = 1.0 - j / (bandwidth + 1.0)
        gamma = g[j:].T @ g[:-j]
        S += w * (gamma + gamma.T)
    return xtx_inv @ S @ xtx_inv


def fit_horizon(y, x, endo, controls, h, spec, p, l, t_start=None):
    """Estimate one horizon; returns the contemporaneous-shock coefficient.

    Inputs are aligned 1-D/2-D arrays over a common monthly axis: y the
    target, x the shock regressor, endo the lagged endogenous block
    (including the target), controls optional.
    """
    X, target, labels = _design(y, x, endo, controls, h, p, l, spec, t_start)
    beta, resid, xtx_inv = _ols(X, target, labels)
    cov = hac_covariance(X, resid, xtx_inv, bandwidth=h + 1)
    j = labels.index("shock[-0]")
    se = math.sqrt(max(cov[j, j], 0.0))
    z = NormalDist().inv_cdf(0.5 + spec.ci_level / 2.0)
    est = float(beta[j])
    n = len(target)
    return HorizonEstimate(
        h=h, estimate=est, se=se, lo=est - z * se, hi=est + z * se,
        p=p, l=l, nobs=n,
        resid_sd=float(np.sqrt(resid @ resid / max(n - X.shape[1], 1))),
    )


def aic_value(n, ssr, k):
    """Akaike criterion n*ln(SSR/n) + 2k; identical fits favor fewer terms."""
    return n * math.log(max(ssr, 1e-300) / n) + 2 * k


def select_lags(y, x, endo, controls, spec):
    """Minimize the Akaike criterion over the (p, l) candidate grid.

    All candidates are scored on the horizon-0 regression over a common
    window trimmed to the largest candidate lag, so criteria compare;
    exact ties fall to the candidate with fewer parameters.
    """
    has_controls = controls is not None and controls.shape[1] > 0
    l_grid = range(1, spec.l_max + 1) if has_controls else [0]
    t_start = max(spec.p_max, spec.r, spec.l_max if has_controls else 0)
    best = None
    for p in range(1, spec.p_max + 1):
        for l in l_grid:
            X, target, labels = _design(
                y, x, endo, controls, 0, p, l, spec, t_start=t_start
            )
            _, resid, _ = _ols(X, target, labels)
            n, k = X.shape
            key = (aic_value(n, float(resid @ resid), k), k, p, l)
            if best is None or key < best[0]:
                best = (key, (p, l))
    return best[1]


def irf(sector, panel, shock, spec=None, extra_endogenous=None, controls=None):
    """Full impulse-response path of one sector to one shock series.

    panel is a SectorPanel, shock a ShockSeries; extra_endogenous and
    controls are optional panels aligned with them. The endogenous block
    is the target column plus the extra endogenous series, all entering
    through lags only.
    """
    if spec is None:
        spec = LpSpec()
    (panel_t, shock_t, extra_t, ctrl_t), _ = align(
        panel, shock, extra_endogenous, controls)

    y = panel_t.column(sector)
    x = shock_t.values
    endo = y[:, None]
    if extra_t is not None:
        endo = np.column_stack([y, extra_t.values])
    ctrl = ctrl_t.values if ctrl_t is not None else None

    if spec.lag_selection == "aic":
        p, l = select_lags(y, x, endo, ctrl, spec)
    else:
        p, l = spec.p_max, (spec.l_max if ctrl is not None else 0)

    estimates = [
        fit_horizon(y, x, endo, ctrl, h, spec, p, l)
        for h in range(spec.h_max + 1)
    ]
    return IrfResult(
        sector=sector,
        shock_name=shock.name,
        horizons=np.arange(spec.h_max + 1),
        estimate=np.array([e.estimate for e in estimates]),
        se=np.array([e.se for e in estimates]),
        lo=np.array([e.lo for e in estimates]),
        hi=np.array([e.hi for e in estimates]),
        p=p, l=l, ci_level=spec.ci_level,
        nobs=np.array([e.nobs for e in estimates]),
        resid_sd=np.array([e.resid_sd for e in estimates]),
    )


@dataclass(frozen=True)
class BatteryResult:
    """IRFs keyed by (sector, variant) plus per-cell failure records."""

    results: dict
    failures: tuple


def run_battery(panel, shocks, spec=None, extra_endogenous=None,
                controls=None, sectors=None):
    """Map irf over sectors x shock variants; failures never abort the run.

    shocks is a mapping variant-name -> ShockSeries. Cells run in panel
    column order then variant insertion order, so output is deterministic.
    """
    if sectors is None:
        sectors = panel.sector_ids
    results = {}
    failures = []
    for sector in sectors:
        for variant in shocks:
            try:
                results[(sector, variant)] = irf(
                    sector, panel, shocks[variant], spec,
                    extra_endogenous=extra_endogenous, controls=controls)
            except Exception as exc:  # recorded per cell, battery continues
                failures.append((sector, variant, type(exc).__name__,
                                 str(exc)))
    return BatteryResult(results=results, failures=tuple(failures))
