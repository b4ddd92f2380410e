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

Every fit is one unpivoted Householder QR, X = QR, with b = Q'y:

* Lag selection. Columns run const, endogenous lags, shock lags 0..r and
  then control lags grouped by lag (lag 0 first when controls enter
  contemporaneously), so for one p the design of every l is a leading
  block of the l_max design's columns and its R is the leading block of
  R. The residual sum of squares of the first m columns is SSR_full plus
  the tail sum of b_i^2 over i >= m, a sum of squares with no
  cancellation. One QR of [X | y] per p scores all l_max candidates: its
  last column holds b and its last diagonal entry is sqrt(SSR_full).
* Horizon fits (Frisch-Waugh-Lovell). With the shock column last, its
  residual on the other regressors is e = R_kk q_k, so the coefficient is
  b_k / R_kk and e'e = R_kk^2. The coefficient's row of (X'X)^-1 X' is
  e'/e'e, so with u the full-model residual and g = e*u the Newey-West
  variance is (gamma_0 + 2 sum_j w_j gamma_j) / (e'e)^2, gamma_j the
  lag-j autocovariance sum of g and w_j = 1 - j/(bandwidth+1). Bandwidth
  0 is the classical sigma^2 / e'e. No k x k inverse is formed.
* Rank. Without pivoting, a column whose |R_ii| is at or below
  eps * max(n, k) * max |R_ii| lies numerically in the span of the
  columns before it; RankDeficientDesign names every such column.
"""

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

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
    estimation window. Columns run const, endo lags (series by series),
    shock lags 0..r, then control lags grouped by lag, so the design of a
    smaller l is a leading block of columns of a larger one.
    """
    T = len(y)
    n_ctrl = 0 if controls is None else controls.shape[1]
    need = [p, spec.r]
    if n_ctrl > 0:
        need.append(l)
    t0 = max(need) if t_start is None else t_start
    n = T - h - t0
    if n < 1:
        raise InsufficientSample(f"no usable rows at horizon {h}")
    rows = np.arange(t0, T - h)[:, None]

    endo_lags = np.arange(1, p + 1)
    shock_lags = np.arange(spec.r + 1)
    blocks = [np.ones((n, 1)),
              endo[rows - endo_lags].transpose(0, 2, 1).reshape(n, -1),
              x[rows - shock_lags]]
    labels = ["const"]
    labels += [f"endo{j}[-{k}]" for j in range(endo.shape[1])
               for k in endo_lags]
    labels += [f"shock[-{i}]" for i in shock_lags]
    if n_ctrl > 0:
        ctrl_lags = np.array(_control_lag_range(spec, l))
        blocks.append(controls[rows - ctrl_lags].reshape(n, -1))
        labels += [f"ctrl{j}[-{k}]" for k in ctrl_lags for j in range(n_ctrl)]
    return np.concatenate(blocks, axis=1), y[rows[:, 0] + h], labels


def _check_sample(n, k):
    if n < 10 + k:
        raise InsufficientSample(
            f"{n} rows cannot support {k} regressors (need >= {10 + k})"
        )


def _check_rank(diag, n, labels):
    """Raise if any |R_ii| of an unpivoted QR is at the rounding floor."""
    tol = np.finfo(float).eps * max(n, len(diag)) * diag.max()
    dependent = diag <= tol
    if dependent.any():
        raise RankDeficientDesign(
            "design matrix is rank deficient",
            [labels[i] for i in np.flatnonzero(dependent)])


def hac_variance(e, resid, k, bandwidth):
    """Newey-West variance of the coefficient whose FWL residual is e.

    e is the coefficient's regressor residualized on the other k-1
    regressors and resid the full-model residual. bandwidth 0 is defined
    as the classical homoskedastic variance sigma^2 / e'e (not the lag-0
    robust sandwich), matching the module contract.
    """
    n = len(resid)
    ete = float(e @ e)
    if bandwidth == 0:
        return float(resid @ resid) / (n - k) / ete
    g = e * resid
    s = float(g @ g)
    for j in range(1, min(bandwidth, n - 1) + 1):
        s += 2.0 * (1.0 - j / (bandwidth + 1.0)) * float(g[j:] @ g[:-j])
    return s / (ete * ete)


def fit_horizon(y, x, endo, controls, h, spec, p, l, t_start=None):
    """Estimate one horizon; returns the contemporaneous-shock coefficient.

    Inputs are aligned 1-D/2-D arrays over a common monthly axis: y the
    target, x the shock regressor, endo the lagged endogenous block
    (including the target), controls optional.
    """
    X, target, labels = _design(y, x, endo, controls, h, p, l, spec, t_start)
    return _fit(X, target, labels, h, spec, p, l)


def _fit(X, target, labels, h, spec, p, l):
    """Horizon-h estimate from its design X and target."""
    n, k = X.shape
    j = labels.index("shock[-0]")
    order = [*range(j), *range(j + 1, k), j]
    _check_sample(n, k)
    Q, R = np.linalg.qr(X[:, order])
    _check_rank(np.abs(np.diagonal(R)), n, [labels[i] for i in order])
    b = Q.T @ target
    resid = target - Q @ b
    r_kk = R[-1, -1]
    est = float(b[-1] / r_kk)
    var = hac_variance(r_kk * Q[:, -1], resid, k, bandwidth=h + 1)
    se = math.sqrt(max(var, 0.0))
    z = NormalDist().inv_cdf(0.5 + spec.ci_level / 2.0)
    return HorizonEstimate(
        h=h, estimate=est, se=se, lo=est - z * se, hi=est + z * se,
        p=p, l=l, nobs=n,
        resid_sd=float(np.sqrt(resid @ resid / max(n - k, 1))),
    )


def aic_value(n, ssr, k):
    """Akaike criterion n*ln(SSR/n) + 2k; identical fits favor fewer terms."""
    return n * math.log(max(ssr, 1e-300) / n) + 2 * k


def select_lags(y, x, endo, controls, spec):
    """Minimize the Akaike criterion over the (p, l) candidate grid.

    All candidates are scored on the horizon-0 regression over a common
    window trimmed to the largest candidate lag, so criteria compare;
    exact ties fall to the candidate with fewer parameters. Candidates
    are checked in (p, l) order and the first one whose sample or rank
    check fails raises, as if each were fitted on its own.
    """
    has_controls = controls is not None and controls.shape[1] > 0
    n_ctrl = controls.shape[1] if has_controls else 0
    l_grid = range(1, spec.l_max + 1) if has_controls else [0]
    t_start = max(spec.p_max, spec.r, spec.l_max if has_controls else 0)
    best = None
    for p in range(1, spec.p_max + 1):
        X, target, labels = _design(
            y, x, endo, controls, 0, p, l_grid[-1], spec, t_start=t_start
        )
        n, k = X.shape
        sizes = [k - n_ctrl * (l_grid[-1] - l) for l in l_grid]
        fitting = [m for m in sizes if n >= 10 + m]
        if fitting:
            m_fit = fitting[-1]
            R = np.linalg.qr(np.column_stack([X[:, :m_fit], target]),
                             mode="r")
            diag = np.abs(np.diagonal(R))[:m_fit]
            # rank loss only grows with l: test the largest candidate, and
            # on failure name the first candidate that loses rank
            try:
                _check_rank(diag, n, labels)
            except RankDeficientDesign:
                for m in fitting:
                    _check_rank(diag[:m], n, labels)
        if len(fitting) < len(sizes):
            _check_sample(n, sizes[len(fitting)])
        # tail[m] = SSR of the first m columns: R[m_fit, m_fit]^2 plus the
        # squares of b_i = R[i, m_fit] for m <= i < m_fit
        tail = np.cumsum(R[::-1, m_fit] ** 2)[::-1]
        for l, m in zip(l_grid, sizes):
            key = (aic_value(n, float(tail[m]), m), m, p, l)
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

    # t0 does not depend on h, so horizon h fits the first n - h rows of
    # the horizon-0 design on the last n - h values of y (_fit's sample
    # check stops the loop while n - h > 0). A fresh copy of the target
    # keeps BLAS's summation order, and so every digit, as fit_horizon's.
    X, _, labels = _design(y, x, endo, ctrl, 0, p, l, spec)
    n = len(X)
    estimates = [_fit(X[:n - h], y[len(y) - n + h:].copy(), labels, h, spec,
                      p, l)
                 for h in range(spec.h_max + 1)]
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
