"""Workload definitions and the seeded input generator.

The generator writes every input file itself (format A CSV, format B
binary, sector and control panels, the run configuration) with numpy and
the standard library only. It never calls ``climfact.synth`` or the
``climfact.ingest`` writers, so a change to either can never alter the
inputs a workload measures.

Every field is built so that each of the eight shock variants has events
inside the panel window (the regional anomaly has both signs around a
positive 2001-2021 mean), and it carries three planted signals:

* sector S000 responds to the ``all`` shock with coefficient LP_COEF;
* sector S001 loads on a localized surface mode m_t = f_t + g_t, where
  f_t is slow and g_t is white, so the mode is pinned to lag 0 of a
  lagged design;
* a block of further sectors loads on the slow part f_t more weakly, so
  the FIRA permutation null still finds the mode at long horizons.

The mode has zero cos-latitude mean, so it never moves the regional mean
or the shock threshold.
"""

import json
import struct
from dataclasses import dataclass, field

import numpy as np

FIRST_MONTH = np.datetime64("1950-01", "M")
LAST_MONTH = np.datetime64("2021-12", "M")
PANEL_START = np.datetime64("2001-01", "M")
REFERENCE_WINDOW = (1950, 1980)
THRESHOLD_WINDOW = (2001, 2021)
VARIANTS = ("all", "spring", "summer", "autumn", "winter",
            "positive", "negative", "extreme")
VARIABLE = "temperature"
REGION = "ALL"

LP_SECTOR = "S000"
LP_COEF = 0.3
FACTOR_SECTOR = "S001"
FACTOR_LOADING = 1.0
BLOCK_LOADING = 0.5
BLOCK_SIZE = 10
MODE_AMPLITUDE = 4.0
MODE_WIDTH_DEG = 1.0
MODE_PERIODS = (144, 100)   # months
WARMING = 0.7          # anomaly added linearly from 1981 to the end of 2021
SHOCK_RADIUS_KM = 150.0

DE_BOUNDS = (47.0, 55.0, 6.0, 15.0)
EA_BOUNDS = (40.0, 56.0, 0.0, 16.0)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: input scale, command chain and settings."""

    name: str
    why: str
    stresses: str
    bounds: tuple
    step: float
    grid_format: str           # "csv" (format A) or "binary" (format B)
    n_sectors: int
    commands: tuple
    sections: dict = field(default_factory=dict)

    @property
    def shape(self):
        lat, lon = cell_centers(self.bounds, self.step)
        return len(lat), len(lon)

    @property
    def n_cells(self):
        return self.shape[0] * self.shape[1]

    @property
    def mode_center(self):
        lat_min, lat_max, lon_min, lon_max = self.bounds
        return (0.5 * (lat_min + lat_max), 0.5 * (lon_min + lon_max))

    def lp_sectors(self):
        chosen = self.sections.get("lp", {}).get("sectors", "all")
        return sector_ids(self.n_sectors) if chosen == "all" else tuple(chosen)

    def scale(self):
        """Scale parameters recorded beside every result."""
        n_lat, n_lon = self.shape
        months = int((LAST_MONTH - FIRST_MONTH).astype(int)) + 1
        doc = {"cells": self.n_cells, "grid": f"{n_lat}x{n_lon}",
               "step_deg": self.step, "months": months,
               "grid_format": "A" if self.grid_format == "csv" else "B",
               "sectors": self.n_sectors,
               "panel_months": int((LAST_MONTH - PANEL_START).astype(int)) + 1,
               "commands": list(self.commands)}
        if "lp" in self.commands:
            doc["lp_cells"] = len(self.lp_sectors()) * len(VARIANTS)
        if "fira" in self.commands:
            q, s, l = self.sections["fira"]["lags"]
            doc["fira_design_width"] = ((q + 1) * self.n_cells
                                        + s * self.n_sectors)
        return doc


WORKLOADS = {w.name: w for w in (
    Workload(
        name="chain-csv",
        why="full six-command chain on a format A CSV grid: six parses, "
            "one anomaly grid write and six interpreter start-ups",
        stresses="ingest (format A parse and write) and cli start-up",
        bounds=DE_BOUNDS, step=0.5, grid_format="csv", n_sectors=6,
        commands=("baseline", "anomaly", "shocks", "lp", "factors", "fira"),
        sections={
            "anomaly": {"write_grids": True},
            "lp": {"sectors": [LP_SECTOR, FACTOR_SECTOR], "p_max": 4,
                   "l_max": 2, "h_max": 12},
            "factors": {"variable": VARIABLE},
            "fira": {"variable": VARIABLE, "lags": [0, 0, 0], "h_max": 6},
        },
    ),
    Workload(
        name="lp-battery",
        why="shocks then an 8-sector x 8-variant local-projection battery "
            "with full AIC lag search on a format B grid",
        stresses="localproj (select_lags, fit_horizon) and svgplot",
        bounds=EA_BOUNDS, step=1.0, grid_format="binary", n_sectors=8,
        commands=("shocks", "lp"),
        sections={
            "lp": {"p_max": 12, "l_max": 12, "h_max": 24, "figures": True},
        },
    ),
    Workload(
        name="factor-null",
        why="associated factors and functional IRFs with 99-shuffle "
            "permutation nulls on a 0.25-degree format B grid, 80 sectors",
        stresses="factors.permutation_cutoffs and fira design build",
        bounds=DE_BOUNDS, step=0.25, grid_format="binary", n_sectors=80,
        commands=("factors", "fira"),
        sections={
            "factors": {"variable": VARIABLE, "permutation": {"n": 99}},
            "fira": {"variable": VARIABLE, "lags": [2, 1, 0], "h_max": 12,
                     "permutation": {"n": 99}},
        },
    ),
)}


def sector_ids(n):
    return tuple(f"S{j:03d}" for j in range(n))


# -- the benchmark's own climatology ------------------------------------


def month_axis():
    return np.arange(FIRST_MONTH, LAST_MONTH + np.timedelta64(1, "M"))


def cell_centers(bounds, step):
    lat_min, lat_max, lon_min, lon_max = bounds
    n_lat = int(round((lat_max - lat_min) / step))
    n_lon = int(round((lon_max - lon_min) / step))
    return (lat_min + step * (np.arange(n_lat) + 0.5),
            lon_min + step * (np.arange(n_lon) + 0.5))


def regional_deviation(cube, lat, times):
    """Regional-mean anomaly and default threshold, computed with numpy.

    Per-calendar-month baseline over REFERENCE_WINDOW, cos-latitude
    weighted mean over all cells, threshold = mean over THRESHOLD_WINDOW.
    """
    month = times.astype(np.int64) % 12
    year = times.astype("datetime64[Y]").astype(np.int64) + 1970
    ref = (year >= REFERENCE_WINDOW[0]) & (year <= REFERENCE_WINDOW[1])
    base = np.stack([cube[ref & (month == m)].mean(axis=0)
                     for m in range(12)])
    anom = cube - base[month]
    w = np.repeat(np.cos(np.deg2rad(lat))[:, None], cube.shape[2], axis=1)
    dev = anom.reshape(len(times), -1) @ (w.ravel() / w.sum())
    window = (year >= THRESHOLD_WINDOW[0]) & (year <= THRESHOLD_WINDOW[1])
    return dev, float(dev[window].mean())


# -- generation -----------------------------------------------------------


def _ar1(rng, n, phi):
    """Unit-variance stationary AR(1) path."""
    e = rng.standard_normal(n)
    out = np.empty(n)
    out[0] = e[0]
    scale = np.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        out[t] = phi * out[t - 1] + scale * e[t]
    return out


def make_cube(workload, rng, times):
    """Temperature-like field: seasonal cycle, warming, a regional mode,
    a localized mode and cell noise. Returns (cube, f, g).

    The warming is about half a regional standard deviation over the
    threshold window, so the threshold stays clearly positive while the
    negative and extreme variants still get events in every seed."""
    lat, lon = cell_centers(workload.bounds, workload.step)
    month = times.astype(np.int64) % 12
    year = times.astype("datetime64[Y]").astype(np.int64) + 1970
    clim = (9.0 - 9.0 * np.cos(2 * np.pi * (month + 0.5) / 12))[:, None, None]
    clim = clim - 0.6 * (lat - lat.mean())[None, :, None] \
        + 0.1 * (lon - lon.mean())[None, None, :]
    trend = WARMING * np.clip((year + month / 12.0 - 1981) / 41.0, 0.0, None)
    regional = _ar1(rng, len(times), 0.3)
    # two slow cycles with random phases plus an AR(1) part: the mode stays
    # autocorrelated out to the longest FIRA horizon in every seed
    t = np.arange(len(times))
    phases = rng.uniform(0.0, 2 * np.pi, len(MODE_PERIODS))
    f = sum(np.sin(2 * np.pi * t / period + phase)
            for period, phase in zip(MODE_PERIODS, phases))
    f = f + 0.5 * _ar1(rng, len(times), 0.9)
    g = rng.standard_normal(len(times))
    # unit sample variance over the panel window, whatever the seed, so the
    # planted association has the same strength in every input set
    window = times >= PANEL_START
    f = (f - f[window].mean()) / f[window].std()
    g = (g - g[window].mean()) / g[window].std()
    lat0, lon0 = workload.mode_center
    bump = np.exp(-((lat[:, None] - lat0) ** 2 + (lon[None, :] - lon0) ** 2)
                  / (2 * MODE_WIDTH_DEG ** 2))
    w = np.repeat(np.cos(np.deg2rad(lat))[:, None], len(lon), axis=1)
    bump -= (bump * w).sum() / w.sum()
    noise = rng.normal(0.0, 0.5, (len(times), len(lat), len(lon)))
    cube = (clim + (trend + regional)[:, None, None]
            + MODE_AMPLITUDE * (f + g)[:, None, None] * bump[None] + noise)
    return cube, f, g


def make_panels(workload, rng, shock_all, f, g):
    """Sector panel with the planted responders, plus two controls."""
    ids = sector_ids(workload.n_sectors)
    T = len(f)
    values = 0.5 * rng.standard_normal((T, len(ids)))
    values[:, 0] += LP_COEF * shock_all
    values[:, 1] += FACTOR_LOADING * (f + g)
    values[:, 2:2 + BLOCK_SIZE] += BLOCK_LOADING * f[:, None]
    controls = rng.standard_normal((T, 2))
    return ids, values, controls


def write_format_a(path, times, lat, lon, cube):
    """Grid format A: header time,lat,lon,<name>, one row per cell-month."""
    prefixes = [f"{float(a)!r},{float(b)!r},"
                for a in lat for b in lon]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"time,lat,lon,{VARIABLE}\n")
        for k, t in enumerate(times):
            stamp = f"{t},"
            fh.write("".join(f"{stamp}{p}{v!r}\n" for p, v in
                             zip(prefixes, cube[k].ravel().tolist())))


def write_format_b(path, times, bounds, step, cube):
    """Grid format B: SGF1 header, then per frame a day stamp and cells."""
    n = cube.shape[1] * cube.shape[2]
    frames = np.empty(len(times), dtype=[("day", "<i4"), ("v", "<f8", (n,))])
    frames["day"] = times.astype("datetime64[D]").astype(np.int64)
    frames["v"] = cube.reshape(len(times), n)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4s6dI", b"SGF1", *bounds, step, step,
                             len(times)))
        fh.write(frames.tobytes())


def write_panel(path, times, ids, values):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(("time",) + tuple(ids)) + "\n")
        for t, row in zip(times, values.tolist()):
            fh.write(f"{t}," + ",".join(repr(v) for v in row) + "\n")


def run_config(workload, seed, grid_path, sectors_path, controls_path):
    """Run configuration; input paths are relative to the inputs directory,
    which is the working directory of every command."""
    lat0, lon0 = workload.mode_center
    config = {
        "seed": seed,
        "grids": [{"name": VARIABLE, "path": grid_path}],
        "panels": {"sectors": {"path": sectors_path, "transform": "none"},
                   "controls": {"path": controls_path, "transform": "none"}},
        "regions": [{"name": REGION, "cells": "all"}],
        "baseline": {"reference_window": list(REFERENCE_WINDOW)},
        "shocks": {"variable": VARIABLE, "threshold": "auto",
                   "threshold_window": list(THRESHOLD_WINDOW),
                   "variants": list(VARIANTS)},
    }
    for key, section in workload.sections.items():
        config[key] = dict(section)
    if "fira" in config:
        config["fira"]["shocks"] = [{"magnitude": 1.5, "center": [lat0, lon0],
                                     "radius_km": SHOCK_RADIUS_KM}]
    return config


def generate(workload, seed, directory):
    """Write one workload's inputs for a seed into directory.

    Returns the shock threshold computed from the generated cube, which
    the shocks check compares with the program's."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 20240103])
    times = month_axis()
    lat, lon = cell_centers(workload.bounds, workload.step)
    cube, f, g = make_cube(workload, rng, times)
    dev, threshold = regional_deviation(cube, lat, times)
    panel = times >= PANEL_START
    shock_all = np.where(dev[panel] > threshold, dev[panel], 0.0)
    ids, values, controls = make_panels(workload, rng, shock_all, f[panel],
                                       g[panel])

    if workload.grid_format == "csv":
        grid = directory / f"{VARIABLE}.csv"
        write_format_a(grid, times, lat, lon, cube)
    else:
        grid = directory / f"{VARIABLE}.sgf"
        write_format_b(grid, times, workload.bounds, workload.step, cube)
    sectors = directory / "sectors.csv"
    write_panel(sectors, times[panel], ids, values)
    ctrl = directory / "controls.csv"
    write_panel(ctrl, times[panel], ("Z1", "Z2"), controls)
    doc = run_config(workload, seed, grid.name, sectors.name, ctrl.name)
    (directory / "run.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return threshold
