"""Deterministic synthetic fixtures, and the kinds of the synth command.

Real-scale climate and price inputs are too large to ship, so every demo
and acceptance path runs on generated data. The generators are seeded and
exact where a downstream check needs exactness: monthly normals fixtures
reproduce the bundled euro-area reference values to float precision, and
the structural factor model enforces its block orthogonality in sample
(not just in population) so pipeline identities hold at solver tolerance.

The kinds of the synth command live here with every rule on their keys:
``check`` holds them, and ``config.check_rules`` calls it, so a broken
synth section fails every command before any input is read.
"""

import inspect

import numpy as np

from . import climatology as cl
from . import months
from .errors import ConfigError, NonConformableMask
from .grid import SurfaceSeries, _cell_counts, build_domain
from .ingest import SectorPanel

# Euro-area-like monthly normals for the four bundled variables
# (temperature degC, precipitation mm/m2, solar radiation W/m2,
# wind speed m/s), January through December.
EA_MONTHLY_NORMALS = {
    "temperature": (-0.6, 0.2, 3.2, 7.0, 11.7, 15.9,
                    18.1, 17.5, 14.0, 9.3, 4.4, 1.0),
    "precipitation": (1.9, 1.9, 1.7, 1.7, 1.8, 2.0,
                      1.8, 1.9, 2.0, 2.1, 2.4, 2.2),
    "solar_radiation": (49.0, 78.0, 127.0, 180.0, 230.0, 246.0,
                        246.0, 214.0, 156.0, 99.0, 57.0, 42.0),
    "wind_speed": (0.08, 0.08, 0.1, 0.09, 0.09, 0.09,
                   0.08, 0.08, 0.07, 0.09, 0.1, 0.1),
}

# Mean temperature deviation 2001-2021 used as the default shock threshold.
TEMPERATURE_DEVIATION_MEANS = {"EA": 1.30, "DE": 1.33}

# First month of the factor-model and smooth-anomaly fixtures.
_FIXTURE_START = np.datetime64("2001-01", "M")

# (lat_min, lat_max, lon_min, lon_max) of the euro-area-like and
# Germany-like rasters
_EA_BOUNDS = (40.0, 56.0, 0.0, 16.0)
_DE_BOUNDS = (47.0, 55.0, 6.0, 15.0)


def year_axis(y0, y1):
    """Monthly axis covering calendar years y0..y1 inclusive."""
    return months.month_range(f"{y0}-01", f"{y1}-12")


def ea_domain(step=2.0):
    """Small euro-area-like raster for normals fixtures."""
    return build_domain(_EA_BOUNDS, step)


def de_domain(step=0.25):
    """Germany-like raster at the native grid spacing."""
    return build_domain(_DE_BOUNDS, step)


def normals_series(domain, variable, years=cl.DEFAULT_REFERENCE_WINDOW,
                   warming=None):
    """Series whose per-month means over the reference years equal the
    bundled normals exactly.

    Year-to-year variation enters through a spatial pattern times integer
    year offsets that sum to zero over the reference window (and over the
    warming window when a warming level shift is requested), so the
    averaged values cancel to float rounding. The warming window is the
    default threshold window, so a warming shift is its mean deviation.
    """
    normals = np.array(EA_MONTHLY_NORMALS[variable])
    w0, w1 = cl.DEFAULT_THRESHOLD_WINDOW
    times = year_axis(years[0], years[1] if warming is None else w1)
    year = months.years(times)
    month = months.month_numbers(times)

    # offsets are half-integers summing to exactly zero inside each window
    eta = np.zeros(len(times))
    ref = (year >= years[0]) & (year <= years[1])
    eta[ref] = year[ref] - np.unique(year[ref]).mean()
    if warming is not None:
        in_w = (year >= w0) & (year <= w1)
        eta[in_w] = year[in_w] - np.unique(year[in_w]).mean()
        between = (year > years[1]) & (year < w0)
        if between.any():
            eta[between] = year[between] - np.unique(year[between]).mean()

    # a fixed smooth perturbation field, zero-free and deterministic
    pattern = 0.01 * (np.sin(0.7 * domain.lat_centers[:, None])
                      + np.cos(0.5 * domain.lon_centers[None, :]) + 2.5)
    values = normals[month - 1][:, None, None] + pattern[None] * eta[:, None, None]
    if warming is not None:
        offset = np.where(year >= w0, float(warming), 0.0)
        values = values + offset[:, None, None]
    values = np.where(domain.mask[None], values, np.nan)
    return SurfaceSeries(domain, times, values, variable)


def anomaly_scalar_series(mean, window=cl.DEFAULT_THRESHOLD_WINDOW):
    """Scalar anomaly series whose mean over the window equals `mean` to
    float rounding: deviations come in exactly cancelling +/- pairs."""
    times = year_axis(window[0], window[1])
    n = len(times)
    dev = np.zeros(n)
    half = n // 2
    wiggle = 0.5 * (1.0 + np.arange(half) % 7)
    dev[: 2 * half : 2] = wiggle
    dev[1 : 2 * half : 2] = -wiggle
    return cl.ScalarSeries(times, float(mean) + dev, "anomaly")


# -- local-projection fixtures ---------------------------------------------


def var1_simulate(T, phi, b, rng):
    """Simulate W_t = phi W_{t-1} + b x_t + eps_t, x and eps iid N(0, 1)."""
    burn = 100  # periods simulated first and dropped
    phi = np.asarray(phi, dtype=float)
    b = np.asarray(b, dtype=float)
    m = phi.shape[0]
    x = rng.normal(size=T + burn)
    eps = rng.normal(size=(T + burn, m))
    W = np.zeros((T + burn, m))
    for t in range(1, T + burn):
        W[t] = phi @ W[t - 1] + b * x[t] + eps[t]
    return W[burn:], x[burn:]


def var_irf_path(phi, b, h_max):
    """Analytic response of the state to a unit exogenous impulse."""
    phi = np.asarray(phi, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty((h_max + 1, len(b)))
    cur = b.copy()
    for h in range(h_max + 1):
        out[h] = cur
        cur = phi @ cur
    return out


# -- factor-model fixtures ---------------------------------------------------


def _orthonormal(n, k, rng):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q[:, :k], q[:, k:]

def _centered(rng, shape):
    m = rng.normal(size=shape)
    return m - m.mean(axis=0)


def _residualize(block, *bases):
    """Remove the sample projection of block onto the span of the bases."""
    for basis in bases:
        if basis.shape[1] == 0:
            continue
        q, _ = np.linalg.qr(basis)
        block = block - q @ (q.T @ block)
    return block


def exact_factor_model(domain, p, k, T, rng):
    """Structural factor model whose block orthogonality holds in sample.

    k shared factors drive both the panel and the surface series; the
    residual blocks are residualized against the factors (and each other)
    so the sample cross moments vanish to machine precision. On such data
    the reduced two-stage estimation agrees with the full-space canonical
    analysis at solver tolerance, which is exactly what the equivalence
    checks exploit.
    """
    d = domain.n_valid
    if not 1 <= k <= min(p, d):
        raise ValueError(f"k={k} must lie in 1..min(p={p}, cells={d})")
    u, u_perp = _orthonormal(d, k, rng)
    v, v_perp = _orthonormal(p, k, rng)

    f = _centered(rng, (T, k))
    g = _residualize(_centered(rng, (T, d - k)), f)
    e1 = _residualize(_centered(rng, (T, k)), f, g)
    e2 = _residualize(_centered(rng, (T, p - k)), f, g, e1)

    mix = rng.normal(size=(k, k)) + 2.0 * np.eye(k)
    y_shared = f @ mix.T + 0.6 * e1
    y = y_shared @ v.T + e2 @ v_perp.T
    x_hat = f @ u.T + 0.8 * (g @ u_perp.T)

    cube = np.full((T,) + domain.shape, np.nan)
    cube[:, domain.mask] = x_hat / np.sqrt(domain.valid_weights)
    times = _FIXTURE_START + np.arange(T)
    ids = tuple(f"S{j:02d}" for j in range(p))
    return (SectorPanel(times, ids, y),
            SurfaceSeries(domain, times, cube, "x"))


def unit_bump_surface(domain, center, width_deg=2.0):
    """Smooth localized loading surface with unit weighted norm."""
    lat = domain.lat_centers[:, None]
    lon = domain.lon_centers[None, :]
    bump = np.exp(-(((lat - center[0]) / width_deg) ** 2
                    + ((lon - center[1]) / width_deg) ** 2))
    bump = np.where(domain.mask, bump, np.nan)
    w = domain.valid_weights
    scale = np.sqrt(np.sum(w * bump[domain.mask] ** 2))
    return bump / scale


def planted_factor_instance(domain, p, T, rng, snr):
    """Rank-one planted link: one panel column loads on one surface shape.

    X_t = Y_{t,0} * g + noise with the signal-to-noise ratio measured in
    the weighted norm, g a bump at the domain's center. Returns (panel,
    series, g) where g has unit norm.
    """
    g = unit_bump_surface(domain, ((domain.lat_min + domain.lat_max) / 2,
                                   (domain.lon_min + domain.lon_max) / 2))
    y = rng.normal(size=(T, p))
    noise = rng.normal(size=(T,) + domain.shape) / np.sqrt(snr)
    cube = y[:, 0, None, None] * g[None] + np.where(domain.mask, noise, np.nan)
    times = _FIXTURE_START + np.arange(T)
    ids = tuple(f"S{j:02d}" for j in range(p))
    panel = SectorPanel(times, ids, y)
    return panel, SurfaceSeries(domain, times, cube, "planted"), g


def smooth_anomaly_series(domain, T, rng):
    """Random smooth surface series built from six bump modes plus noise."""
    n_modes = 6
    lat = rng.uniform(domain.lat_min, domain.lat_max, n_modes)
    lon = rng.uniform(domain.lon_min, domain.lon_max, n_modes)
    modes = np.stack([
        unit_bump_surface(domain, (lat[r], lon[r]), width_deg=2.5)
        for r in range(n_modes)
    ])
    scores = rng.normal(size=(T, n_modes)) * (1.0 / np.arange(1, n_modes + 1))
    cube = np.einsum("tr,rij->tij", scores, modes)
    cube += 0.1 * rng.normal(size=cube.shape)
    cube = np.where(domain.mask[None], cube, np.nan)
    return SurfaceSeries(domain, _FIXTURE_START + np.arange(T), cube,
                         "temperature_anomaly")


# -- synth kinds: builder(rng, **keys) -> (grids by file stem, sector
# panel or None, manifest "planted" entry or None); a kind reads kind,
# format and its builder's keyword parameters


def _normals(rng, step=2.0, years=cl.DEFAULT_REFERENCE_WINDOW, warming=None):
    domain = ea_domain(step)
    return {variable: normals_series(
        domain, variable, years,
        warming if variable == "temperature" else None)
        for variable in EA_MONTHLY_NORMALS}, None, None


def _planted_lp(rng, step=2.0, sectors=3, months=252):
    """A warmed grid; CP000 loads 0.6 on its own auto-threshold shock."""
    grid = normals_series(ea_domain(step), "temperature",
                          warming=TEMPERATURE_DEVIATION_MEANS["EA"])
    anomalies = cl.anomaly(grid, cl.compute_baseline(grid))
    scalar = cl.regional_mean(anomalies).slice_window(
        *year_axis(*cl.DEFAULT_THRESHOLD_WINDOW)[[0, -1]])
    threshold = cl.default_threshold(scalar)
    shock = cl.make_shocks(scalar, threshold)
    values = rng.normal(size=(months, sectors))
    values[:, 0] += 0.6 * shock.values[:months]
    panel = SectorPanel(shock.times[:months],
                        tuple(f"CP{j:03d}" for j in range(sectors)), values)
    planted = {"sector": "CP000", "coefficient": 0.6, "threshold": threshold}
    return {"temperature": grid}, panel, planted


def _planted_factor(rng, step=1.0, sectors=6, months=252, snr=10.0):
    panel, series, _ = planted_factor_instance(de_domain(step), sectors,
                                               months, rng, snr)
    return {"planted": series}, panel, None


def _fira_demo(rng, step=0.5, sectors=8, months=252):
    """Germany-like: CP002 responds to a surface mode at 53.0 N, 11.5 E."""
    domain = de_domain(step)
    series = smooth_anomaly_series(domain, months, rng)
    g = unit_bump_surface(domain, (53.0, 11.5))
    proj = series.valid_matrix() @ (domain.valid_weights * g[domain.mask])
    y = rng.normal(size=(months, sectors))
    y[:, 2] += 1.5 * proj / max(proj.std(), 1e-12)
    ids = tuple(f"CP{j:03d}" for j in range(sectors))
    panel = SectorPanel(series.times, ids, y)
    return {"temperature_anomaly": series}, panel, None


KINDS = {"normals": _normals, "planted-lp": _planted_lp,
         "planted-factor": _planted_factor, "fira-demo": _fira_demo}

# the bounds each kind's step must tile
_KIND_BOUNDS = {"normals": _EA_BOUNDS, "planted-lp": _EA_BOUNDS,
                "planted-factor": _DE_BOUNDS, "fira-demo": _DE_BOUNDS}

# the most grid and panel values a fixture may hold, 800 MB of float64:
# a key past it is a typo, which would end in a MemoryError or swap
MAX_FIXTURE_VALUES = 10**8


def _fixture_values(kind, cells, keys):
    """Grid cells x months per grid, plus panel months x sectors."""
    w1 = cl.DEFAULT_THRESHOLD_WINDOW[1]
    if kind == "normals":  # one grid per variable, on to w1 when warmed
        first, last = keys["years"]
        last = last if keys["warming"] is None else w1
        return len(EA_MONTHLY_NORMALS) * cells * 12 * (last - first + 1)
    if kind == "planted-lp":  # a warmed grid; the panel is its shock's
        span = 12 * (w1 - cl.DEFAULT_REFERENCE_WINDOW[0] + 1)
        return cells * span + keys["months"] * keys["sectors"]
    return (cells + keys["sectors"]) * keys["months"]


def check(section):
    """Raise a ConfigError naming the key if the synth config section
    asks for a fixture its kind cannot build."""
    kind = section["kind"]
    params = list(inspect.signature(KINDS[kind]).parameters.values())[1:]
    keys = {p.name: section.get(p.name, p.default) for p in params}
    unread = sorted(set(section) - {"kind", "format", *keys})
    if unread:
        raise ConfigError(f"config key synth.{unread[0]} is not read by "
                          f"synth kind {kind!r}")
    if kind == "fira-demo" and keys["sectors"] < 3:
        raise ConfigError(f"config key synth.sectors is {keys['sectors']}, "
                          f"but synth kind 'fira-demo' plants its signal in "
                          f"sector CP002, so it needs at least 3")
    outside = [year for year in keys.get("years", ()) if not 0 <= year <= 9999]
    if outside:
        # a month stamp, and so format A's reader, holds four-digit years
        raise ConfigError(f"config key synth.years holds {outside[0]}, but a "
                          f"month stamp holds a year from 0 to 9999")
    w0, w1 = cl.DEFAULT_THRESHOLD_WINDOW
    shock_months = 12 * (w1 - w0 + 1)
    if kind == "planted-lp" and keys["months"] > shock_months:
        raise ConfigError(f"config key synth.months is {keys['months']}, "
                          f"but synth kind 'planted-lp' builds its panel on "
                          f"the {shock_months} months of its shock, "
                          f"{w0}-{w1}, so it takes at most {shock_months}")
    try:
        n_lat, n_lon = _cell_counts(*_KIND_BOUNDS[kind], keys["step"],
                                    keys["step"])
    except NonConformableMask as exc:
        raise ConfigError(f"config key synth.step: {exc}") from None
    if "warming" in section and keys["years"][1] >= w0:
        # normals_series would shift reference years by the warming, and
        # their monthly means would miss the bundled normals
        raise ConfigError(f"config key synth.years ends in "
                          f"{keys['years'][1]}, but synth.warming shifts "
                          f"every year from {w0} on, so the reference "
                          f"years must end before it")
    if _fixture_values(kind, n_lat * n_lon, keys) > MAX_FIXTURE_VALUES:
        named = [f"synth.{key}" for key in keys
                 if key in section and key != "snr"]
        raise ConfigError(f"config key{'s' * (len(named) > 1)} "
                          f"{', '.join(named)}: synth kind {kind!r} would "
                          f"hold more than {MAX_FIXTURE_VALUES:,} grid and "
                          f"panel values")
