"""Per-horizon least-squares impulse responses with HAC standard errors.

For every horizon h the target is regressed on an intercept, lags 1..p of
the endogenous block, the shock at lags 0..r, and lags of the controls.
The coefficient on the contemporaneous shock is the impulse response at
that horizon. Residuals of multi-horizon projections are serially
correlated by construction, so standard errors use a Newey-West kernel
with bandwidth h+1.

Targets are estimated one equation at a time; endogenous series enter
only through their lags, never contemporaneously.

Every fit is one unpivoted Householder QR, X = QR, with b = Q'y, and the
fits run in stacks. np.linalg.qr factors each matrix of a stack on its
own, and every later step works matrix by matrix, so a matrix's results
do not depend on what is stacked with it: a one-cell ``irf`` or a
one-horizon ``fit_horizon`` gives the same bits as ``run_battery``.

* Lag selection, one search design per sector. Columns run const,
  endogenous lags, shock lags 0..r and then control lags grouped by lag
  (lag 0 first when controls enter contemporaneously), so for one p the
  design of every l is a leading block of the l_max design's columns and
  its R is the leading block of R. The residual sum of squares of the
  first m columns is SSR_full plus the tail sum of b_i^2 over i >= m, a
  sum of squares with no cancellation. One QR of [X | y] per p scores all
  l_max candidates: its last column holds b and its last diagonal entry
  is sqrt(SSR_full). The (p_max, l_max) design of [X | y] is built once
  for all shock variants of a sector, which differ only in the shock
  columns; each p's design is a column gather of it, and one stacked QR
  per p, one matrix per variant, scores every variant.
* Horizon fits, one stacked QR per cell. t0 does not depend on h, so
  horizon h regresses the target led by h on the first n - h rows of the
  horizon-0 design. Padding both with h zero rows leaves R and the
  coefficients unchanged and gives Q (and so the residuals) zero rows,
  so every horizon is one matrix of one stack shaped like the horizon-0
  design. The stack is sized by the horizons the sample supports, never
  by h_max.
* Frisch-Waugh-Lovell. With the shock column last, its residual on the
  other regressors is e = R_kk q_k, so the coefficient is b_k / R_kk and
  e'e = R_kk^2. The coefficient's row of (X'X)^-1 X' is e'/e'e, so with u
  the full-model residual and g = e*u the Newey-West variance is
  (gamma_0 + 2 sum_j w_j gamma_j) / (e'e)^2, gamma_j the lag-j
  autocovariance sum of g and w_j = 1 - j/(bandwidth+1). No k x k
  inverse is formed.
* Rank. Without pivoting, a column whose |R_ii| is at or below
  eps * max(n, k) * max |R_ii| lies numerically in the span of the
  columns before it; RankDeficientDesign names every such column.
"""

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .errors import (
    ClimfactError,
    InsufficientSample,
    NonConformable,
    RankDeficientDesign,
)
from .ingest import align

# horizons per stacked QR, so a long h_max never builds one huge stack
_HORIZON_CHUNK = 64


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


def _n_ctrl(controls):
    return 0 if controls is None else controls.shape[1]


def _matrix(x, endo, controls, p, l, spec, t0, stop):
    """Regressors of periods t0..stop-1: const, endo lags (series by
    series), shock lags 0..r, then control lags grouped by lag."""
    rows = np.arange(t0, stop)[:, None]
    n = len(rows)
    blocks = [np.ones((n, 1)),
              endo[rows - np.arange(1, p + 1)].transpose(0, 2, 1)
              .reshape(n, -1),
              x[rows - np.arange(spec.r + 1)]]
    if _n_ctrl(controls):
        ctrl_lags = np.array(_control_lag_range(spec, l))
        blocks.append(controls[rows - ctrl_lags].reshape(n, -1))
    return np.concatenate(blocks, axis=1)


def _labels(n_endo, p, l, spec, n_ctrl):
    """Column names of a (p, l) design, in _matrix's order."""
    labels = ["const"]
    labels += [f"endo{j}[-{k}]" for j in range(n_endo)
               for k in range(1, p + 1)]
    labels += [f"shock[-{i}]" for i in range(spec.r + 1)]
    if n_ctrl:
        labels += [f"ctrl{j}[-{k}]" for k in _control_lag_range(spec, l)
                   for j in range(n_ctrl)]
    return labels


def _sample_error(n, k):
    return InsufficientSample(
        f"{n} rows cannot support {k} regressors (need >= {10 + k})")


def _dependent(diag, n):
    """Columns of each unpivoted R whose |R_ii| is at the rounding floor;
    diag is (..., k) and n the design rows of each R."""
    tol = np.finfo(float).eps * np.maximum(n, diag.shape[-1]) \
        * diag.max(axis=-1)
    return diag <= tol[..., None]


def _rank_error(dependent, labels):
    return RankDeficientDesign(
        "design matrix is rank deficient",
        [labels[i] for i in np.flatnonzero(dependent)])


# -- horizon fits --------------------------------------------------------


def _hac(e, resid, bandwidth, rows):
    """Newey-West variances, one per row of e and resid, of which only
    the first ``rows`` entries are data and the rest zero padding."""
    ete = (e * e).sum(axis=1)
    g = e * resid
    s = (g * g).sum(axis=1)
    lags = np.minimum(bandwidth, rows - 1)
    for j in range(1, lags.max(initial=0) + 1):
        # a zero weight adds an exact 0 past a row's own last lag
        w = np.where(j <= lags, 1.0 - j / (bandwidth + 1.0), 0.0)
        s += 2.0 * w * (g[:, j:] * g[:, :-j]).sum(axis=1)
    return s / (ete * ete)


def _fit_design(y, x, endo, controls, spec, p, l, h=0):
    """Horizon-0 design with the shock column moved last, its target, and
    a function naming the columns in that order. Its rows start at the
    first period t0 with every lag observed; raises when no row is left
    at horizon h."""
    t0 = max(p, spec.r, l if _n_ctrl(controls) else 0)
    if len(y) - h - t0 < 1:
        raise InsufficientSample(f"no usable rows at horizon {h}")
    X = _matrix(x, endo, controls, p, l, spec, t0, len(y))
    j = 1 + endo.shape[1] * p
    order = [*range(j), *range(j + 1, X.shape[1]), j]

    def names():
        labels = _labels(endo.shape[1], p, l, spec, _n_ctrl(controls))
        return [labels[i] for i in order]
    return X[:, order], y[t0:], names


def _path(X, target, horizons, spec, names):
    """Rows estimate, se, lo, hi, resid_sd over a range of horizons.

    X is the horizon-0 design with the shock last and target its target.
    Raises the first failure in horizon order, as fitting the horizons
    one by one would.
    """
    n, k = X.shape
    # every horizon from n - 9 - k on fails the sample check
    stop = min(horizons.stop, max(horizons.start, n - 9 - k))
    parts = [_stack_fit(X, target, np.arange(h, min(h + _HORIZON_CHUNK, stop)),
                        spec, names)
             for h in range(horizons.start, stop, _HORIZON_CHUNK)]
    if stop < horizons.stop:
        raise _sample_error(n - stop, k)
    return np.concatenate(parts, axis=1)


def _stack_fit(X, target, hs, spec, names):
    """One stacked QR for horizons hs: horizon h is X's first n - h rows
    and the target led by h, both padded with h zero rows."""
    n, k = X.shape
    rows = n - hs
    keep = np.arange(n) < rows[:, None]
    Q, R = np.linalg.qr(np.where(keep[:, :, None], X, 0.0))
    dependent = _dependent(np.abs(np.diagonal(R, axis1=1, axis2=2)), rows)
    if dependent.any():
        raise _rank_error(dependent[dependent.any(axis=1).argmax()], names())
    led = target[np.minimum(hs[:, None] + np.arange(n), n - 1)]
    y = np.where(keep, led, 0.0)
    b = (y[:, None, :] @ Q)[:, 0]
    resid = y - (Q @ b[:, :, None])[:, :, 0]
    r_kk = R[:, -1, -1]
    est = b[:, -1] / r_kk
    var = _hac(r_kk[:, None] * Q[:, :, -1], resid, hs + 1, rows)
    se = np.sqrt(np.maximum(var, 0.0))
    z = NormalDist().inv_cdf(0.5 + spec.ci_level / 2.0)
    resid_sd = np.sqrt((resid * resid).sum(axis=1) / np.maximum(rows - k, 1))
    return np.array([est, se, est - z * se, est + z * se, resid_sd])


def fit_horizon(y, x, endo, controls, h, spec, p, l):
    """Estimate one horizon; returns the contemporaneous-shock coefficient.

    Inputs are aligned 1-D/2-D arrays over a common monthly axis: y the
    target, x the shock regressor, endo the lagged endogenous block
    (including the target), controls optional.
    """
    X, target, names = _fit_design(y, x, endo, controls, spec, p, l, h)
    est, se, lo, hi, resid_sd = _path(X, target, range(h, h + 1), spec,
                                      names)[:, 0]
    return HorizonEstimate(
        h=h, estimate=float(est), se=float(se), lo=float(lo), hi=float(hi),
        p=p, l=l, nobs=len(target) - h, resid_sd=float(resid_sd))


# -- lag selection -------------------------------------------------------


def aic_value(n, ssr, k):
    """Akaike criterion n*ln(SSR/n) + 2k; identical fits favor fewer terms."""
    return n * math.log(max(ssr, 1e-300) / n) + 2 * k


def _aic(n, ssr, k):
    """aic_value over arrays, bit for bit: math.log, because np.log may
    differ from it in the last place."""
    ratio = np.maximum(ssr, 1e-300) / n
    logs = np.fromiter(map(math.log, ratio.ravel().tolist()), float,
                       ratio.size)
    return n * logs.reshape(ratio.shape) + 2 * k


def select_lags(y, x, endo, controls, spec):
    """Minimize the Akaike criterion over the (p, l) candidate grid.

    All candidates are scored on the horizon-0 regression over a common
    window trimmed to the largest candidate lag, so criteria compare;
    exact ties fall to the candidate with fewer parameters. Candidates
    are checked in (p, l) order and the first one whose sample or rank
    check fails raises, as if each were fitted on its own.

    x may hold one shock per column (T x V). The search then runs once
    for all of them and returns a list with, per column, the chosen
    (p, l) or the error that column's search would have raised.
    """
    xs = np.asarray(x, dtype=float)
    outcomes = _search(y, xs.reshape(len(xs), -1), endo, controls, spec)
    if xs.ndim == 2:
        return outcomes
    if isinstance(outcomes[0], ClimfactError):
        raise outcomes[0]
    return outcomes[0]


def _search(y, xs, endo, controls, spec):
    T, V = xs.shape
    n_endo, n_ctrl = endo.shape[1], _n_ctrl(controls)
    l_grid = range(1, spec.l_max + 1) if n_ctrl else [0]
    t_start = max(spec.p_max, spec.r, l_grid[-1])
    n = T - t_start
    if n < 1:
        return [InsufficientSample("no usable rows at horizon 0")] * V

    # the (p_max, l_max) design of [X | y], one matrix per shock column
    X = _matrix(xs[:, 0], endo, controls, spec.p_max, l_grid[-1], spec,
                t_start, T)
    shock = np.arange(1 + n_endo * spec.p_max, 2 + n_endo * spec.p_max
                      + spec.r)
    ctrl0 = shock[-1] + 1
    D = np.empty((V, n, X.shape[1] + 1))
    D[:, :, :-1] = X
    D[:, :, shock] = xs[np.arange(t_start, T)[:, None]
                        - np.arange(spec.r + 1)].transpose(2, 0, 1)
    D[:, :, -1] = y[t_start:]

    outcomes = [None] * V
    alive = np.arange(V)    # variants whose candidates have all passed
    aic = np.empty((V, spec.p_max, len(l_grid)))
    sizes = np.empty((spec.p_max, len(l_grid)), dtype=int)
    for p in range(1, spec.p_max + 1):
        base = [0, *(1 + j * spec.p_max + i for j in range(n_endo)
                     for i in range(p)), *shock]
        sizes[p - 1] = [len(base) + n_ctrl * len(_control_lag_range(spec, l))
                        for l in l_grid]
        fitting = [m for m in sizes[p - 1] if n >= 10 + m]
        failed = {}
        if fitting:
            m_fit = fitting[-1]
            cols = [*base, *range(ctrl0, ctrl0 + m_fit - len(base)), -1]
            R = np.linalg.qr(D[:, :, cols], mode="r")
            diag = np.abs(np.diagonal(R, axis1=1, axis2=2))[:, :m_fit]
            # rank loss only grows with l: test the largest candidate, and
            # on failure name the first candidate that loses rank
            for i in np.flatnonzero(_dependent(diag, n).any(axis=1)):
                first = next(d for d in (_dependent(diag[i, :m], n)
                                         for m in fitting) if d.any())
                failed[i] = _rank_error(first, _labels(
                    n_endo, p, l_grid[-1], spec, n_ctrl))
        if len(fitting) < len(l_grid):
            short = _sample_error(n, sizes[p - 1, len(fitting)])
            failed.update((i, short) for i in range(len(alive))
                          if i not in failed)
        else:
            # tail[m] = SSR of the first m columns: R[m_fit, m_fit]^2 plus
            # the squares of b_i = R[i, m_fit] for m <= i < m_fit
            tail = np.cumsum(R[:, ::-1, m_fit] ** 2, axis=1)[:, ::-1]
            aic[alive, p - 1] = _aic(n, tail[:, sizes[p - 1]], sizes[p - 1])
        if failed:
            for i, exc in failed.items():
                outcomes[alive[i]] = exc
            keep = [i for i in range(len(alive)) if i not in failed]
            alive, D = alive[keep], D[keep]
            if not len(alive):
                return outcomes

    # the least (aic, k, p, l): among equal aic the fewest terms, then
    # the first candidate in (p, l) order
    keys, k = aic[alive].reshape(len(alive), -1), sizes.ravel()
    low = keys == keys.min(axis=1, keepdims=True)
    fewest = np.where(low, k, k.max()).min(axis=1, keepdims=True)
    for i, best in zip(alive, np.argmax(low & (k == fewest), axis=1)):
        outcomes[i] = (int(best) // len(l_grid) + 1,
                       l_grid[best % len(l_grid)])
    return outcomes


# -- the battery ---------------------------------------------------------


def _check_sectors(panel, sectors):
    unknown = [s for s in sectors if s not in panel.sector_ids]
    if unknown:
        raise NonConformable(f"sector ids {unknown} are not columns of the "
                             f"panel")


def _sector_cells(sector, panel, shocks, spec, extra_endogenous, controls):
    """IrfResult or ClimfactError of each shock for one sector; the shocks
    share one time axis, so the inputs are aligned once."""
    (panel_t, _, extra_t, ctrl_t), window = align(
        panel, shocks[0], extra_endogenous, controls)
    y = panel_t.column(sector)
    xs = np.column_stack([s.slice_window(*window).values for s in shocks])
    endo = y[:, None]
    if extra_t is not None:
        endo = np.column_stack([y, extra_t.values])
    ctrl = ctrl_t.values if ctrl_t is not None else None

    if spec.lag_selection == "aic":
        chosen = select_lags(y, xs, endo, ctrl, spec)
    else:
        chosen = [(spec.p_max, spec.l_max if ctrl is not None else 0)] \
            * len(shocks)
    cells = []
    for shock, x, lags in zip(shocks, xs.T, chosen):
        if isinstance(lags, ClimfactError):
            cells.append(lags)
            continue
        try:
            X, target, names = _fit_design(y, x, endo, ctrl, spec, *lags)
            path = _path(X, target, range(spec.h_max + 1), spec, names)
        except ClimfactError as exc:
            cells.append(exc)
            continue
        horizons = np.arange(spec.h_max + 1)
        cells.append(IrfResult(
            sector=sector, shock_name=shock.name, horizons=horizons,
            estimate=path[0], se=path[1], lo=path[2], hi=path[3],
            p=lags[0], l=lags[1], ci_level=spec.ci_level,
            nobs=len(target) - horizons, resid_sd=path[4]))
    return cells


def irf(sector, panel, shock, spec=None, extra_endogenous=None, controls=None):
    """Full impulse-response path of one sector to one shock series.

    panel is a SectorPanel, shock a ShockSeries; extra_endogenous and
    controls are optional panels aligned with them. The endogenous block
    is the target column plus the extra endogenous series, all entering
    through lags only.
    """
    if spec is None:
        spec = LpSpec()
    _check_sectors(panel, [sector])
    (cell,) = _sector_cells(sector, panel, [shock], spec, extra_endogenous,
                            controls)
    if isinstance(cell, ClimfactError):
        raise cell
    return cell


@dataclass(frozen=True)
class BatteryResult:
    """IRFs keyed by (sector, variant) plus per-cell failure records."""

    results: dict
    failures: tuple


def run_battery(panel, shocks, spec=None, extra_endogenous=None,
                controls=None, sectors=None):
    """irf over sectors x shock variants; a failing cell never aborts it.

    shocks is a mapping variant-name -> ShockSeries. Cells run in sector
    order then variant insertion order, so output is deterministic. Each
    sector's lag search runs once for all variants on one time axis. A
    cell's ClimfactError is recorded in failures; any other exception is
    a fault and propagates. Unknown sector ids raise NonConformable
    before any cell runs.
    """
    if spec is None:
        spec = LpSpec()
    if sectors is None:
        sectors = panel.sector_ids
    _check_sectors(panel, sectors)
    groups = {}
    for variant, shock in shocks.items():
        groups.setdefault((shock.times[0], shock.times[-1]), []).append(
            variant)
    results = {}
    failures = []
    for sector in sectors:
        cells = {}
        for variants in groups.values():
            try:
                found = _sector_cells(sector, panel,
                                      [shocks[v] for v in variants], spec,
                                      extra_endogenous, controls)
            except ClimfactError as exc:
                found = [exc] * len(variants)
            cells.update(zip(variants, found))
        for variant in shocks:
            cell = cells[variant]
            if isinstance(cell, ClimfactError):
                failures.append((sector, variant, type(cell).__name__,
                                 str(cell)))
            else:
                results[(sector, variant)] = cell
    return BatteryResult(results=results, failures=tuple(failures))
