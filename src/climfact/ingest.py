"""File ingestion: gridded climate series, sector/control panels, alignment.

Two grid formats are accepted:

* Format A, "long CSV": header ``time,lat,lon,<name>``, one row per
  cell-month, missing cells simply absent. lat/lon are cell centers.
* Format B, "framed binary": magic ``SGF1``; little-endian header of six
  8-byte floats (lat_min, lat_max, lon_min, lon_max, step_lat, step_lon)
  and a 4-byte unsigned frame count; per frame a 4-byte signed timestamp
  (days since 1970-01-01, first of month) followed by row-major 8-byte
  float cell values, NaN = missing. Rows run south to north, columns west
  to east.

A cell that is missing in any month is masked in every month; nothing is
ever imputed. Panels follow the same rule column-wise: a sector with any
gap in the loaded window is dropped (and reported), never filled.
"""

import csv
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import months
from .errors import (
    AllMasked,
    EmptyIntersection,
    NoSectorsRemain,
    ParseError,
)
from .grid import SurfaceSeries, build_domain

_SGF_MAGIC = b"SGF1"
# A format A lattice may hold at most this many cells per distinct
# (lat, lon) pair in the file, so the dense cube stays within a fixed
# multiple of the data however small an explicit grid step is.
_LATTICE_CELLS_PER_PAIR = 100


# -- panels --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SectorPanel(months.MonthlySeries):
    """Monthly matrix of sectoral price changes, one column per sector."""

    times: np.ndarray
    sector_ids: tuple
    values: np.ndarray = field(repr=False)
    dropped: tuple = ()

    def __post_init__(self):
        self._set_axis("sector panel", (len(self.sector_ids),), ParseError)
        object.__setattr__(self, "sector_ids", tuple(self.sector_ids))
        object.__setattr__(self, "dropped", tuple(self.dropped))

    @property
    def n_sectors(self):
        return len(self.sector_ids)

    def column(self, sector_id):
        return self.values[:, self.sector_ids.index(sector_id)]


@dataclass(frozen=True, eq=False)
class ControlPanel(SectorPanel):
    """Monthly matrix of control series; same completeness rule as sectors."""


# -- gridded input -------------------------------------------------------


def load_gridded(path, variable=None, step=None, weighting="coslat"):
    """Load a gridded series, auto-detecting format A (CSV) or B (binary)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == _SGF_MAGIC:
        return _load_gridded_binary(path, variable, weighting)
    return _load_gridded_csv(path, variable, step, weighting)


def _finish_series(domain_kwargs, times, cube, name, weighting):
    """Apply the masked-anywhere-masked-everywhere rule and build the series."""
    present = np.all(np.isfinite(cube), axis=0)
    if not present.any():
        raise AllMasked("no cell has complete coverage across all months")
    domain = build_domain(mask=present, weighting=weighting, **domain_kwargs)
    cube = np.where(present[None, :, :], cube, np.nan)
    return SurfaceSeries(domain, times, cube, name or "value")


def _infer_axis(centers, axis, step=None):
    centers = np.unique(centers)
    if step is None:
        if len(centers) < 2:
            raise ParseError(
                f"cannot infer {axis} step from a single distinct coordinate; "
                "pass step explicitly"
            )
        step = float(np.min(np.diff(centers)))
    origin = centers[0] - step / 2.0
    with np.errstate(over="ignore"):
        idx = (centers - centers[0]) / step
    if not np.isfinite(idx[-1]):
        raise ParseError(f"{axis} step {step!r} is too small to index")
    if np.any(np.abs(idx - np.round(idx)) > 1e-6):
        raise ParseError(f"{axis} coordinates do not sit on a regular lattice")
    n = int(round(idx[-1])) + 1
    return origin, origin + n * step, step, n


def _load_gridded_csv(path, variable, step, weighting):
    rows = []
    blanks = []        # len(rows) at each skipped blank line
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", path=path, line=1) from None
        if len(header) != 4 or header[0].strip().lower() != "time":
            raise ParseError(
                f"expected header time,lat,lon,<name>, got {header}",
                path=path, line=1,
            )
        name = variable or header[3].strip()
        for lineno, row in enumerate(reader, start=2):
            if not row:
                blanks.append(len(rows))
                continue
            if len(row) != 4:
                raise ParseError(
                    f"expected 4 fields, got {len(row)}", path=path, line=lineno
                )
            try:
                t = months.parse_month(row[0])
                lat = float(row[1])
                lon = float(row[2])
                val = float(row[3])
            except ValueError as exc:
                raise ParseError(str(exc), path=path, line=lineno) from None
            rows.append((t, lat, lon, val))
    if not rows:
        raise ParseError("no data rows", path=path, line=2)

    times = np.array([r[0] for r in rows], dtype="datetime64[M]")
    lats = np.array([r[1] for r in rows])
    lons = np.array([r[2] for r in rows])
    vals = np.array([r[3] for r in rows])

    def line_of(k):
        """File line of data row k, counting the skipped blank lines."""
        return k + 2 + int(np.searchsorted(blanks, k, side="right"))

    finite = np.isfinite(lats) & np.isfinite(lons) & np.isfinite(vals)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ParseError(
            f"non-finite number in row ({lats[k]}, {lons[k]}, {vals[k]}); "
            "a missing cell is an absent row", path=path, line=line_of(k))

    axis = months.check_monthly(np.unique(times), "gridded file")
    step_lat = step_lon = None
    if step is not None:
        step_lat, step_lon = (step, step) if np.isscalar(step) else step
    ulat, ulon = np.unique(lats), np.unique(lons)
    lat_min, lat_max, step_lat, n_lat = _infer_axis(ulat, "latitude", step_lat)
    lon_min, lon_max, step_lon, n_lon = _infer_axis(ulon, "longitude", step_lon)
    n_pairs = np.unique(np.searchsorted(ulat, lats) * len(ulon)
                        + np.searchsorted(ulon, lons)).size
    if n_lat * n_lon > _LATTICE_CELLS_PER_PAIR * n_pairs:
        raise ParseError(
            f"latitude step {step_lat!r} and longitude step {step_lon!r} give "
            f"a {n_lat} x {n_lon} lattice for {n_pairs} distinct (lat, lon) "
            f"pairs, more than {_LATTICE_CELLS_PER_PAIR} lattice cells per "
            "pair", path=path)

    t_idx = np.searchsorted(axis, times)
    i_idx = np.round((lats - (lat_min + step_lat / 2)) / step_lat).astype(int)
    j_idx = np.round((lons - (lon_min + step_lon / 2)) / step_lon).astype(int)
    cube = np.full((len(axis), n_lat, n_lon), np.nan)
    seen = np.zeros(cube.shape, dtype=bool)
    seen[t_idx, i_idx, j_idx] = True
    if np.count_nonzero(seen) < len(vals):
        flat = np.ravel_multi_index((t_idx, i_idx, j_idx), cube.shape)
        repeat = np.ones(len(flat), dtype=bool)
        repeat[np.unique(flat, return_index=True)[1]] = False
        k = int(np.argmax(repeat))
        raise ParseError(
            f"duplicate row for {times[k]} at ({lats[k]}, {lons[k]})",
            path=path,
            line=line_of(k),
        )
    cube[t_idx, i_idx, j_idx] = vals

    kwargs = dict(bounds=(lat_min, lat_max, lon_min, lon_max),
                  step=(step_lat, step_lon))
    return _finish_series(kwargs, axis, cube, name, weighting)


def _load_gridded_binary(path, variable, weighting):
    with open(path, "rb") as fh:
        blob = fh.read()
    header = struct.Struct("<4s6dI")
    if len(blob) < header.size:
        raise ParseError("truncated header", path=path, offset=len(blob))
    magic, lat_min, lat_max, lon_min, lon_max, step_lat, step_lon, n_frames = (
        header.unpack_from(blob, 0)
    )
    if magic != _SGF_MAGIC:
        raise ParseError("bad magic", path=path, offset=0)
    for offset, step in ((36, step_lat), (44, step_lon)):
        if not (math.isfinite(step) and step > 0):
            raise ParseError(f"grid step {step} must be finite and positive",
                             path=path, offset=offset)
    extents = ((lat_max - lat_min) / step_lat, (lon_max - lon_min) / step_lon)
    if not all(math.isfinite(e) and round(e) >= 1 for e in extents):
        raise ParseError("degenerate grid bounds", path=path, offset=4)
    n_lat, n_lon = (int(round(e)) for e in extents)
    frame_bytes = 4 + 8 * n_lat * n_lon
    expected = header.size + n_frames * frame_bytes
    if len(blob) != expected:
        raise ParseError(
            f"expected {expected} bytes for {n_frames} frames, got {len(blob)}",
            path=path, offset=min(len(blob), expected),
        )
    days = np.empty(n_frames, dtype=np.int64)
    cube = np.empty((n_frames, n_lat, n_lon))
    off = header.size
    for k in range(n_frames):
        (day,) = struct.unpack_from("<i", blob, off)
        days[k] = day
        grid = np.frombuffer(blob, dtype="<f8", count=n_lat * n_lon, offset=off + 4)
        cube[k] = grid.reshape(n_lat, n_lon)
        off += frame_bytes
    times = months.check_monthly(months.from_epoch_days(days), "gridded file")
    kwargs = dict(bounds=(lat_min, lat_max, lon_min, lon_max),
                  step=(step_lat, step_lon))
    return _finish_series(kwargs, times, cube, variable, weighting)


# -- gridded output ------------------------------------------------------


def format_float(x):
    """Shortest exact float representation; round-trips bit-identically."""
    return repr(float(x))


def write_csv(path, header, rows):
    """Write a header row and then rows in the one dialect of every CSV
    output: UTF-8, comma separated, minimal quoting, ``\\n`` line ends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_gridded_csv(series, path):
    """Write a SurfaceSeries as format A; masked cells are omitted."""
    domain = series.domain
    lat_c = domain.lat_centers
    lon_c = domain.lon_centers
    ii, jj = np.nonzero(domain.mask)
    write_csv(path, ["time", "lat", "lon", series.name], (
        [str(t), format_float(lat_c[i]), format_float(lon_c[j]),
         format_float(frame[i, j])]
        for t, frame in zip(series.times, series.values)
        for i, j in zip(ii, jj)
    ))


def write_gridded_binary(series, path):
    """Write a SurfaceSeries as format B; masked cells become NaN."""
    domain = series.domain
    header = struct.pack(
        "<4s6dI", _SGF_MAGIC,
        domain.lat_min, domain.lat_max, domain.lon_min, domain.lon_max,
        domain.step_lat, domain.step_lon, len(series),
    )
    days = months.epoch_days(series.times)
    with open(path, "wb") as fh:
        fh.write(header)
        for k in range(len(series)):
            fh.write(struct.pack("<i", int(days[k])))
            fh.write(np.ascontiguousarray(series.values[k], dtype="<f8").tobytes())


def write_surface_csv(surface, path, name="value"):
    """Write one static surface as a single-frame format A file."""
    series = SurfaceSeries(
        surface.domain,
        np.array([np.datetime64("1970-01", "M")]),
        surface.values[None, :, :],
        name,
    )
    write_gridded_csv(series, path)


# -- panels --------------------------------------------------------------


def _read_panel_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", path=path, line=1) from None
        if len(header) < 2:
            raise ParseError("header needs a time column plus at least one id",
                             path=path, line=1)
        ids = tuple(h.strip() for h in header[1:])
        times = []
        values = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, got {len(row)}",
                    path=path, line=lineno,
                )
            try:
                times.append(months.parse_month(row[0]))
            except ValueError as exc:
                raise ParseError(str(exc), path=path, line=lineno) from None
            parsed = []
            for cell in row[1:]:
                cell = cell.strip()
                if cell == "":
                    parsed.append(math.nan)
                else:
                    try:
                        parsed.append(float(cell))
                    except ValueError:
                        raise ParseError(
                            f"bad numeric field {cell!r}", path=path, line=lineno
                        ) from None
            values.append(parsed)
    if not times:
        raise ParseError("no data rows", path=path, line=2)
    return np.array(times, dtype="datetime64[M]"), ids, np.array(values)


def _yoy(values):
    """100 * (level_t / level_{t-12} - 1); the first 12 months are dropped."""
    if values.shape[0] <= 12:
        raise ParseError("year-on-year transform needs more than 12 months")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 100.0 * (values[12:] / values[:-12] - 1.0)
    return out


def _load_panel(path, transform, cls):
    times, ids, values = _read_panel_rows(path)
    order = np.argsort(times)
    times, values = times[order], values[order]
    months.check_monthly(times, "panel")
    zero_level = np.zeros(len(ids), dtype=bool)
    if transform == "yoy":
        zero_level = np.any(values[:-12] == 0.0, axis=0)
        values = _yoy(values)
        times = times[12:]
    elif transform != "none":
        raise ValueError(f"unknown transform {transform!r}")
    complete = np.all(np.isfinite(values), axis=0)
    dropped = tuple(i for i, ok in zip(ids, complete) if not ok)
    if not complete.any():
        reasons = "; ".join(
            f"{i} has a zero level, so its year-on-year change is undefined"
            if zero else f"{i} has gaps" for i, zero in zip(ids, zero_level))
        raise NoSectorsRemain(
            f"all {len(ids)} columns are dropped in {path}: {reasons}")
    kept = tuple(i for i, ok in zip(ids, complete) if ok)
    return cls(times, kept, values[:, complete], dropped)


def load_sector_panel(path, transform="yoy"):
    """Load a sector price panel; gap columns are dropped and reported."""
    return _load_panel(path, transform, SectorPanel)


def load_control_panel(path, transform="yoy"):
    """Load a control panel with the sector completeness rule."""
    return _load_panel(path, transform, ControlPanel)


def write_panel_csv(panel, path, time_label="time"):
    write_csv(path, [time_label, *panel.sector_ids],
              ([str(t), *(format_float(v) for v in row)]
               for t, row in zip(panel.times, panel.values)))


# -- alignment -----------------------------------------------------------


def align(*objs):
    """Truncate every input to the maximal common contiguous window.

    Returns (trimmed objects, (start, end)) with the inputs in order.
    Inputs expose a monthly ``times`` axis and a ``slice_window`` method;
    a None input passes through as None, and at least one must be given.
    """
    present = [o for o in objs if o is not None]
    if not present:
        raise ValueError("align needs at least one input")
    starts = [o.times[0] for o in present]
    ends = [o.times[-1] for o in present]
    start, end = max(starts), min(ends)
    if start > end:
        raise EmptyIntersection(
            f"no common window: starts {[str(s) for s in starts]}, "
            f"ends {[str(e) for e in ends]}"
        )
    return ([None if o is None else o.slice_window(start, end) for o in objs],
            (start, end))
