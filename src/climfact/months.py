"""Helpers for strictly-monthly time axes stored as numpy datetime64[M]."""

import dataclasses
import re

import numpy as np

from .errors import IrregularCalendar

SEASONS = {
    "spring": (3, 4, 5),
    "summer": (6, 7, 8),
    "autumn": (9, 10, 11),
    "winter": (12, 1, 2),
}

# numpy alone also reads 'now', 'today', a bare year, a signed or
# five-digit year and a time of day
_STAMP = re.compile(r"[0-9]{4}-[0-9]{2}(-[0-9]{2})?")


def parse_month(text):
    """Parse an ISO-8601 month stamp, 'YYYY-MM' or 'YYYY-MM-DD' with a
    four-digit year, to datetime64[M]; anything else is a ValueError."""
    text = text.strip()
    if not _STAMP.fullmatch(text):
        raise ValueError(f"time {text!r} is not a YYYY-MM or YYYY-MM-DD month")
    return np.datetime64(text, "M")


def month_range(start, end):
    """Inclusive monthly axis from start to end (datetime64[M])."""
    start = np.datetime64(start, "M")
    end = np.datetime64(end, "M")
    return np.arange(start, end + np.timedelta64(1, "M"))


def month_numbers(times):
    """Calendar month 1..12 for each timestamp."""
    times = np.asarray(times, dtype="datetime64[M]")
    return (times.astype(np.int64) % 12) + 1


def years(times):
    """Calendar year for each timestamp."""
    times = np.asarray(times, dtype="datetime64[M]")
    return times.astype("datetime64[Y]").astype(np.int64) + 1970


def check_monthly(times, what="time axis"):
    """Require a strictly increasing, gap-free monthly axis."""
    times = np.asarray(times, dtype="datetime64[M]")
    if times.size == 0:
        raise IrregularCalendar(f"{what} is empty")
    steps = np.diff(times.astype(np.int64))
    if np.any(steps <= 0):
        raise IrregularCalendar(f"{what} is not strictly increasing")
    if np.any(steps != 1):
        missing = int(np.sum(steps - 1))
        raise IrregularCalendar(f"{what} has {missing} missing month(s)")
    return times


def epoch_days(times):
    """Days since 1970-01-01 of the first day of each month."""
    times = np.asarray(times, dtype="datetime64[M]")
    return times.astype("datetime64[D]").astype(np.int64)


def from_epoch_days(days, what):
    """Months from day counts; each day must be the first of its month.
    what names the axis in the error."""
    days = np.asarray(days, dtype=np.int64)
    as_dates = days.astype("datetime64[D]")
    months = as_dates.astype("datetime64[M]")
    if np.any(months.astype("datetime64[D]") != as_dates):
        raise IrregularCalendar(f"{what} has a timestamp that is not the first "
                                f"day of a month")
    return months


def season_mask(times, season):
    """Boolean mask of periods whose calendar month falls in the season."""
    if season == "all":
        return np.ones(len(times), dtype=bool)
    months = month_numbers(times)
    return np.isin(months, SEASONS[season])


class MonthlySeries:
    """Monthly ``times`` axis with float ``values`` running along it.

    Mixin for the frozen series dataclasses (surfaces, scalars, shocks,
    panels). Each calls ``_set_axis`` from ``__post_init__`` and adds only
    its own checks; ``slice_window`` rebuilds through the constructor, so
    a window runs the same checks and keeps every other field.
    """

    def _set_axis(self, what, trailing, error):
        """Validate and store times and values of shape (T,) + trailing."""
        times = check_monthly(np.asarray(self.times, dtype="datetime64[M]"), what)
        values = np.asarray(self.values, dtype=float)
        expected = (len(times),) + trailing
        if values.shape != expected:
            raise error(f"{what} shape {values.shape} does not match {expected}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self):
        return len(self.times)

    def slice_window(self, start, end):
        """Restrict to the inclusive [start, end] month window."""
        sel = (self.times >= start) & (self.times <= end)
        return dataclasses.replace(self, times=self.times[sel],
                                   values=self.values[sel])
