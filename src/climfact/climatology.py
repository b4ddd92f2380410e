"""Monthly baselines, anomalies, regional averages and threshold shocks.

The baseline of a series is its per-calendar-month cellwise mean over a
reference window (default 1950-1980). Anomalies are deviations from that
baseline. A shock series keeps only the periods whose regional anomaly
clears a threshold and the sign/season/extreme filters; every other
period is an exact zero so regression designs keep a full time axis.
"""

from dataclasses import dataclass, field

import numpy as np

from . import months
from .errors import (
    DataError,
    EmptyRegion,
    InsufficientHistory,
    NonConformable,
    no_overflow,
)
from .grid import SurfaceSeries
from .ingest import format_float, write_csv

DEFAULT_REFERENCE_WINDOW = (1950, 1980)
DEFAULT_THRESHOLD_WINDOW = (2001, 2021)

SIGNS = ("positive", "negative", "both")
SEASONS = ("all", "spring", "summer", "autumn", "winter")


@dataclass(frozen=True, eq=False)
class MonthlyBaseline:
    """Twelve cellwise month means over a reference window."""

    domain: object
    month_means: np.ndarray = field(repr=False)
    reference_window: tuple = DEFAULT_REFERENCE_WINDOW

    def __post_init__(self):
        means = np.asarray(self.month_means, dtype=float)
        if means.shape != (12,) + self.domain.shape:
            raise NonConformable(
                f"baseline shape {means.shape} does not match domain"
            )
        object.__setattr__(self, "month_means", means)


@dataclass(frozen=True, eq=False)
class ScalarSeries(months.MonthlySeries):
    """Plain monthly scalar series (regional means, anomaly averages)."""

    times: np.ndarray
    values: np.ndarray
    name: str = "value"

    def __post_init__(self):
        self._set_axis(self.name, (), NonConformable)


@dataclass(frozen=True)
class ShockConditioning:
    """Sign/season/extreme filters applied on top of the base threshold."""

    sign: str = "positive"
    season: str = "all"
    extreme_multiplier: float = 1.0

    def __post_init__(self):
        if self.sign not in SIGNS:
            raise ValueError(f"sign must be one of {SIGNS}")
        if self.season not in SEASONS:
            raise ValueError(f"season must be one of {SEASONS}")
        if self.extreme_multiplier < 1.0:
            raise ValueError("extreme_multiplier must be >= 1")


@dataclass(frozen=True, eq=False)
class ShockSeries(months.MonthlySeries):
    """Thresholded anomaly series; filtered-out periods are exact zeros."""

    times: np.ndarray
    values: np.ndarray
    threshold: float
    conditioning: ShockConditioning
    name: str = "shock"

    def __post_init__(self):
        self._set_axis("shock series", (), NonConformable)

    @property
    def n_events(self):
        return int(np.count_nonzero(self.values))


# -- operations ----------------------------------------------------------


@no_overflow()
def compute_baseline(series, window=DEFAULT_REFERENCE_WINDOW):
    """Cellwise mean per calendar month over the reference window."""
    year = months.years(series.times)
    in_window = (year >= window[0]) & (year <= window[1])
    if not in_window.any():
        raise InsufficientHistory(
            f"no frames inside reference window {window[0]}-{window[1]}"
        )
    month = months.month_numbers(series.times)
    means = np.empty((12,) + series.domain.shape)
    for m in range(1, 13):
        sel = in_window & (month == m)
        if not sel.any():
            raise InsufficientHistory(
                f"reference window {window[0]}-{window[1]} has no month {m:02d}"
            )
        means[m - 1] = series.values[sel].mean(axis=0)
    return MonthlyBaseline(series.domain, means, tuple(window))


@no_overflow()
def anomaly(series, baseline):
    """Deviation of each frame from its calendar-month baseline."""
    if series.domain is not baseline.domain:
        raise NonConformable("series and baseline live on different domains")
    idx = months.month_numbers(series.times) - 1
    values = series.values - baseline.month_means[idx]
    return SurfaceSeries(series.domain, series.times, values,
                         f"{series.name}_anomaly")


def region_weights(domain, region_mask=None):
    """Valid cells of a region and their weights renormalized to sum to one.

    Returns (cells, w): a boolean raster of the region's valid cells and
    their weights in row-major order, so ``raster[cells] @ w`` is the
    regional mean of a raster. region_mask None means the whole domain.
    """
    if region_mask is None:
        cells = domain.mask
    else:
        region_mask = np.asarray(region_mask, dtype=bool)
        if region_mask.shape != domain.shape:
            raise NonConformable(
                f"region shape {region_mask.shape} does not match grid"
            )
        cells = region_mask & domain.mask
    w = domain.weights[cells]
    total = w.sum()
    if total <= 0:
        raise EmptyRegion("region has no overlap with valid cells")
    return cells, w / total


def regional_mean(series, region_mask=None):
    """Weight-renormalized mean over a region, one value per period."""
    cells, w = region_weights(series.domain, region_mask)
    return ScalarSeries(series.times, series.values[:, cells] @ w,
                        f"{series.name}_regional_mean")


@no_overflow()
def default_threshold(anomaly_series, window=DEFAULT_THRESHOLD_WINDOW):
    """Window mean anomaly, the base shock threshold; DataError if <= 0."""
    year = months.years(anomaly_series.times)
    sel = (year >= window[0]) & (year <= window[1])
    if not sel.any():
        raise InsufficientHistory(
            f"no observations inside threshold window {window[0]}-{window[1]}"
        )
    value = float(anomaly_series.values[sel].mean())
    if value <= 0.0:
        raise DataError(f"auto threshold over {window[0]}-{window[1]} is "
                        f"{value!r}; shocks need a strictly positive "
                        f"threshold")
    return value


def make_shocks(anomaly_series, threshold, conditioning=None, name=None):
    """Zero out every period failing the threshold and conditioning filters.

    A period passes when its deviation strictly exceeds the threshold on
    the conditioned side, its calendar month lies in the requested season,
    and its magnitude reaches threshold * extreme_multiplier.
    """
    if conditioning is None:
        conditioning = ShockConditioning()
    if not threshold > 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    dev = anomaly_series.values
    if conditioning.sign == "positive":
        keep = dev > threshold
    elif conditioning.sign == "negative":
        keep = dev < -threshold
    else:
        keep = np.abs(dev) > threshold
    keep &= np.abs(dev) >= threshold * conditioning.extreme_multiplier
    keep &= months.season_mask(anomaly_series.times, conditioning.season)
    values = np.where(keep, dev, 0.0)
    if name is None:
        bits = [conditioning.sign, conditioning.season]
        if conditioning.extreme_multiplier > 1.0:
            bits.append(f"x{conditioning.extreme_multiplier:g}")
        name = "_".join(bits)
    return ShockSeries(anomaly_series.times, values, float(threshold),
                       conditioning, name)


def shock_variants(anomaly_series, threshold, extreme_multiplier=1.5,
                   variants=("all", "spring", "summer", "autumn", "winter",
                             "positive", "negative", "extreme")):
    """Standard battery of conditioned shock series keyed by variant name.

    'all' and the four seasons use the positive sign; 'extreme' is the
    positive all-season filter with the magnitude multiplier applied.
    """
    table = {}
    for variant in variants:
        if variant in SEASONS:
            cond = ShockConditioning(sign="positive", season=variant)
        elif variant in ("positive", "negative"):
            cond = ShockConditioning(sign=variant, season="all")
        elif variant == "extreme":
            cond = ShockConditioning(sign="positive", season="all",
                                     extreme_multiplier=extreme_multiplier)
        else:
            raise ValueError(f"unknown shock variant {variant!r}")
        table[variant] = make_shocks(anomaly_series, threshold, cond,
                                     name=variant)
    return table


def write_shock_csv(shock, path):
    """Export a shock or any other scalar series as ``time,value``."""
    write_csv(path, ["time", "value"],
              ([str(t), format_float(v)]
               for t, v in zip(shock.times, shock.values)))
