"""File ingestion: gridded series, panels, region files; window alignment.

Two grid formats are accepted:

* Format A, "long CSV": header ``time,lat,lon,<name>``, one row per
  cell-month, missing cells simply absent. lat/lon are cell centers.
* Format B, "framed binary", all little-endian and packed: the header
  ``_SGF_HEADER`` (magic ``SGF1``; lat_min, lat_max, lon_min, lon_max,
  step_lat, step_lon as 8-byte floats; a 4-byte unsigned frame count),
  then that many ``_sgf_frame`` records: a 4-byte signed timestamp (days
  since 1970-01-01, first of month) and the row-major 8-byte float cell
  values, NaN = missing. Rows run south to north, columns west to east.
  The bounds span a whole number of steps by ``build_domain``'s rule.
  The reader and the writer each take the frame stack as one record array.

A cell that is missing in any month is masked in every month; nothing is
ever imputed. Panels follow the same rule column-wise: a sector with any
gap in the loaded window is dropped, never filled. The dropped ids are
reported in ``SectorPanel.dropped``; on the CLI only the error for an
``lp.sectors`` entry that names one reports them.

A valid format A file is parsed in one C-level ``np.loadtxt`` pass. A
file that pass cannot take as it stands (a malformed row, a quoted
field, a number only Python's ``float`` spells) is read again row by row,
and both give the same series wherever both succeed. That row reader,
the panel reader and the region reader (a ``lat,lon`` header, then one
cell center per row) share ``_csv_rows``: each reads UTF-8 and words
every error with its file and the physical line its row starts on, blank
lines and the line breaks inside quoted fields counted. A panel header
names each column once. The writer formats each cell's ``lat,lon,``
once and writes one joined string per frame.

A format A file is parsed once per content. After a parse succeeds,
``load_gridded`` also writes the series as a format B file, its twin,
under ``$XDG_CACHE_HOME/climfact/grids/`` (``~/.cache/climfact/grids/``
when that is unset or relative). The twin's name holds the sha256 of the
source path and the sha256 of the file's bytes, the grid step, numpy's
version and the source of the modules that parse it, so a later load that
hashes the same bytes with the same code reads the twin in place of
parsing, and any edit, even one that keeps the size and modification
time, parses again. The parse reads the file again, so a file whose size
or modification time moved since its bytes were hashed leaves no twin.
Each source path keeps one twin, the directory is kept within 1 GiB by
deleting the least recently used twins, and a .tmp file a dead writer
left is deleted after an hour. A cache that cannot be read or written is
skipped, and a file that fails to parse leaves no twin. Deleting the
directory is always safe.
"""

import array
import contextlib
import csv
import functools
import hashlib
import math
import os
import struct
import tempfile
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import months
from .errors import (
    AllMasked,
    DataError,
    EmptyIntersection,
    NoSectorsRemain,
    NonConformableMask,
    ParseError,
    first_non_utf8,
)
from .grid import SurfaceSeries, _cell_counts, build_domain

_SGF_MAGIC = b"SGF1"
_SGF_HEADER = struct.Struct("<4s6dI")
# A format A lattice may hold at most this many cells per distinct
# (lat, lon) pair in the file, so the dense cube stays within a fixed
# multiple of the data however small an explicit grid step is.
_LATTICE_CELLS_PER_PAIR = 100
# One format A data row as np.loadtxt parses it. The time text stays an
# object so it is never truncated to a fixed width.
_GRID_ROW = [("t", object), ("lat", "f8"), ("lon", "f8"), ("v", "f8")]
# loadtxt strips these around a number as whitespace; Python's float,
# which the row reader uses, rejects them.
_LOADTXT_BLANKS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# The modules whose code decides what a format A file loads as. Their
# source, with numpy's version, is part of every twin's content key, so an
# edit to any of them makes the twins written before it miss.
_PARSER_SOURCES = tuple(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), name)
    for name in ("ingest.py", "months.py", "grid.py", "errors.py"))
# The twins' directory is kept within this many bytes by deleting the
# least recently used twins; a hit marks its twin used.
_TWIN_CACHE_BYTES = 1 << 30
# A .tmp file in the twins' directory older than this many seconds was
# left by a writer that died, and is deleted.
_STALE_TMP_S = 3600


def _csv_rows(path, check_header):
    """Yield the header of a CSV input, then (file line, fields) of each
    data row, from the physical line it starts on. check_header(header)
    gives None or the message of a ParseError on line 1; a byte that is
    not UTF-8, no header, a field count not the header's and no data row
    (on the line after the header) are ParseErrors too."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, None)
            problem = "empty file" if header is None else check_header(header)
            if problem is not None:
                raise ParseError(problem, path=path, line=1)
            yield header
            n_rows = 0
            after_header = line = reader.line_num + 1
            for row in reader:      # line_num counts the physical lines
                start, line = line, reader.line_num + 1
                if not row:
                    continue
                if len(row) != len(header):
                    raise ParseError(
                        f"expected {len(header)} fields, got {len(row)}",
                        path=path, line=start)
                n_rows += 1
                yield start, row
        except UnicodeDecodeError:
            byte, line = first_non_utf8(path)
            raise ParseError(f"byte {byte:#04x} is not UTF-8", path=path,
                             line=line) from None
    if not n_rows:
        raise ParseError("no data rows", path=path, line=after_header)


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


def _grid_header(header):
    if len(header) != 4 or header[0].strip().lower() != "time":
        return f"expected header time,lat,lon,<name>, got {header}"
    return None


def _load_gridded_csv(path, variable, step, weighting):
    """Format A: the file's twin when one matches its bytes, else the
    loadtxt pass or, on any failure, the row reader."""
    header = next(_csv_rows(path, _grid_header))
    name = variable or header[3].strip()
    keyed = _stamp(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    twin = _twin_path(path, raw, step)
    if twin is not None:
        try:
            series = _load_gridded_binary(twin, name, weighting)
        except (OSError, DataError):
            pass    # no twin yet, or a damaged one: parse
        else:
            with contextlib.suppress(OSError):
                os.utime(twin)      # used now, for the size bound
            return series
    grid = None
    try:
        # no file lines: an error here is discarded, and the row reader
        # below raises it again with its line
        grid = _grid_cube(path, *_parse_grid_body(path, raw), None, step)
    except (ValueError, Warning, ParseError):
        pass
    if grid is None:
        grid = _grid_cube(path, *_read_grid_rows(path), step)
    axis, cube, domain_kwargs = grid
    series = _finish_series(domain_kwargs, axis, cube, name, weighting)
    if twin is not None and _stamp(path) == keyed:
        _write_twin(series, twin)
    return series


def _stamp(path):
    """Size and modification time of path; None when it cannot be read."""
    with contextlib.suppress(OSError):
        info = os.stat(path)
        return info.st_size, info.st_mtime_ns


def _twin_path(path, raw, step):
    """Where the twin of a format A file with bytes raw, loaded with step,
    lives; None when there is no home directory to hold it."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):     # unset, empty or relative: the default
        root = os.path.expanduser("~/.cache")
        if not os.path.isabs(root):
            return None
    try:
        content = hashlib.sha256(_parser_digest())
    except OSError:
        return None     # no source to key by
    source = hashlib.sha256(os.fsencode(os.path.abspath(path))).hexdigest()
    content.update(raw)
    content.update(repr(step).encode())
    return os.path.join(root, "climfact", "grids",
                        f"{source}-{content.hexdigest()}.sgf")


@functools.cache
def _parser_digest():
    """sha256 of numpy's version and of the _PARSER_SOURCES, read once per
    process."""
    digest = hashlib.sha256(np.__version__.encode())
    for source in _PARSER_SOURCES:
        with open(source, "rb") as fh:
            digest.update(fh.read())
    return digest.digest()


def _write_twin(series, twin):
    """Write series as format B at twin, whole or not at all, then sweep
    its directory. A cache that cannot be written is left as it is."""
    folder, base = os.path.split(twin)
    try:
        os.makedirs(folder, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=folder, suffix=".tmp")
        os.close(fd)
        try:
            write_gridded_binary(series, tmp)
            os.replace(tmp, twin)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        _sweep_twins(folder, base)
    except OSError:
        pass


def _sweep_twins(folder, keep):
    """Delete the other twins of keep's source, the .tmp files of dead
    writers, and then the least recently used twins other than keep until
    the twins fit in _TWIN_CACHE_BYTES."""
    source = keep.split("-")[0]
    stale = time.time_ns() - _STALE_TMP_S * 10**9
    others, total = [], 0
    with os.scandir(folder) as entries:
        for entry in entries:
            # another process may delete the same file first
            with contextlib.suppress(FileNotFoundError):
                info = entry.stat()
                if entry.name.endswith(".tmp"):
                    if info.st_mtime_ns < stale:
                        os.unlink(entry.path)
                elif not entry.name.endswith(".sgf"):
                    continue
                elif entry.name != keep and entry.name.startswith(source):
                    os.unlink(entry.path)
                else:
                    total += info.st_size
                    if entry.name != keep:
                        others.append((info.st_mtime_ns, entry.path,
                                       info.st_size))
    for _, path, size in sorted(others):
        if total <= _TWIN_CACHE_BYTES:
            break
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        total -= size


def _parse_grid_body(path, raw):
    """Times, lats, lons and values of a format A body in one loadtxt pass.

    Every field is required, nothing is truncated and no line is taken
    for a comment, so a file that parses here gives the row reader's
    arrays. Anything else raises ValueError or, for an empty body, a
    warning turned into an error. A header whose quoted name runs over
    several lines fails here too: the line that closes the quote holds
    it in its last field, which no number takes. raw is the file's
    bytes."""
    if any(sep in raw for sep in _LOADTXT_BLANKS):
        raise ValueError("information separator in a format A file")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = np.loadtxt(path, dtype=_GRID_ROW, delimiter=",", skiprows=1,
                           comments=None, encoding="utf-8", ndmin=1)
    texts = table["t"].tolist()
    stamps = {text: months.parse_month(text) for text in set(texts)}
    times = np.array([stamps[text] for text in texts], dtype="datetime64[M]")
    return times, table["lat"], table["lon"], table["v"]


def _read_grid_rows(path):
    """Row-by-row format A parse, the reader that words every error with
    its line; also returns each row's file line."""
    rows = _csv_rows(path, _grid_header)
    next(rows)
    times, numbers, lines = [], [], array.array("q")
    for line, (t, lat, lon, val) in rows:
        try:
            times.append(months.parse_month(t))
            numbers.append((float(lat), float(lon), float(val)))
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line=line) from None
        lines.append(line)
    return (np.array(times, dtype="datetime64[M]"),
            *np.array(numbers).T, lines)


def _grid_cube(path, times, lats, lons, vals, lines, step):
    """Check parsed format A rows and fill the dense (time, lat, lon) cube.

    Returns the monthly axis, the cube and the domain's bounds and step.
    lines holds each row's file line for an error to name, or is None."""
    finite = np.isfinite(lats) & np.isfinite(lons) & np.isfinite(vals)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ParseError(
            f"non-finite number in row ({lats[k]}, {lons[k]}, {vals[k]}); "
            "a missing cell is an absent row", path=path,
            line=lines[k] if lines else None)

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
            line=lines[k] if lines else None,
        )
    cube[t_idx, i_idx, j_idx] = vals

    return axis, cube, dict(bounds=(lat_min, lat_max, lon_min, lon_max),
                            step=(step_lat, step_lon))


def _sgf_frame(n_lat, n_lon):
    """One format B frame record of an (n_lat, n_lon) grid; packed, so its
    itemsize is 4 + 8 * n_lat * n_lon."""
    return np.dtype([("day", "<i4"), ("v", "<f8", (n_lat, n_lon))])


def _load_gridded_binary(path, variable, weighting):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _SGF_HEADER.size:
        raise ParseError("truncated header", path=path, offset=len(blob))
    magic, lat_min, lat_max, lon_min, lon_max, step_lat, step_lon, n_frames = (
        _SGF_HEADER.unpack_from(blob, 0)
    )
    if magic != _SGF_MAGIC:
        raise ParseError("bad magic", path=path, offset=0)
    for offset, step in ((36, step_lat), (44, step_lon)):
        if not (math.isfinite(step) and step > 0):
            raise ParseError(f"grid step {step} must be finite and positive",
                             path=path, offset=offset)
    try:    # build_domain's lattice rule; a NaN or infinite extent fails too
        n_lat, n_lon = _cell_counts(lat_min, lat_max, lon_min, lon_max,
                                    step_lat, step_lon)
    except (NonConformableMask, ValueError, OverflowError):
        raise ParseError("degenerate grid bounds", path=path,
                         offset=4) from None
    # the frame size in Python ints: a damaged header may give a grid too
    # large for any dtype, which must still fail as a byte-count mismatch
    expected = _SGF_HEADER.size + n_frames * (4 + 8 * n_lat * n_lon)
    if len(blob) != expected:
        raise ParseError(
            f"expected {expected} bytes for {n_frames} frames, got {len(blob)}",
            path=path, offset=min(len(blob), expected),
        )
    # numpy needs a frame record's itemsize to fit a C int
    if 4 + 8 * n_lat * n_lon > np.iinfo(np.intc).max:
        raise ParseError(f"a {n_lat:.6g} x {n_lon:.6g} grid is too large "
                         f"for one frame record", path=path, offset=4)
    frames = np.frombuffer(blob, _sgf_frame(n_lat, n_lon), count=n_frames,
                           offset=_SGF_HEADER.size)
    times = months.check_monthly(months.from_epoch_days(frames["day"]),
                                 "gridded file")
    kwargs = dict(bounds=(lat_min, lat_max, lon_min, lon_max),
                  step=(step_lat, step_lon))
    # _finish_series copies the cells out of blob
    return _finish_series(kwargs, times, frames["v"], variable, weighting)


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
    """Write a SurfaceSeries as format A; masked cells are omitted.

    The ``lat,lon,`` text of each valid cell is formatted once, and each
    frame is written as one joined string."""
    domain = series.domain
    ii, jj = np.nonzero(domain.mask)
    lat, lon = domain.lat_centers, domain.lon_centers  # each read rebuilds
    cells = [f"{format_float(lat[i])},{format_float(lon[j])},"
             for i, j in zip(ii, jj)]
    write_csv(path, ["time", "lat", "lon", series.name], ())
    with open(path, "a", newline="", encoding="utf-8") as fh:
        for t, frame in zip(series.times, series.values):
            t = str(t)
            values = frame[ii, jj].tolist()
            fh.write("".join([f"{t},{cell}{v!r}\n"
                              for cell, v in zip(cells, values)]))


def write_gridded_binary(series, path):
    """Write a SurfaceSeries as format B; masked cells become NaN."""
    domain = series.domain
    days = months.epoch_days(series.times)
    frames = np.empty(len(series), _sgf_frame(*domain.shape))
    frames["day"] = days
    if np.any(frames["day"] != days):
        raise OverflowError("a month's day count does not fit the 4-byte "
                            "format B timestamp")
    frames["v"] = series.values
    with open(path, "wb") as fh:
        fh.write(_SGF_HEADER.pack(
            _SGF_MAGIC, domain.lat_min, domain.lat_max, domain.lon_min,
            domain.lon_max, domain.step_lat, domain.step_lon, len(series)))
        fh.write(frames)


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


def _panel_header(header):
    if len(header) < 2:
        return "header needs a time column plus at least one id"
    first = {}
    for column, name in enumerate(header[1:], start=2):
        name = name.strip()
        if not name:
            return f"id in column {column} is empty"
        if name in first:
            return (f"id {name!r} in column {column} repeats column "
                    f"{first[name]}")
        first[name] = column
    return None


def _read_panel_rows(path):
    rows = _csv_rows(path, _panel_header)
    ids = tuple(h.strip() for h in next(rows)[1:])
    times = []
    values = []
    for line, row in rows:
        try:
            times.append(months.parse_month(row[0]))
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line=line) from None
        parsed = []
        for cell in row[1:]:
            cell = cell.strip()
            if cell == "":
                parsed.append(math.nan)
            else:
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"bad numeric field {cell!r}", path=path, line=line
                    ) from None
                if not math.isfinite(value):
                    raise ParseError(
                        f"non-finite number {cell!r}; a missing value is "
                        "an empty field", path=path, line=line)
                parsed.append(value)
        values.append(parsed)
    return np.array(times, dtype="datetime64[M]"), ids, np.array(values)


def _load_panel(path, transform, cls):
    times, ids, values = _read_panel_rows(path)
    order = np.argsort(times)
    times, values = times[order], values[order]
    months.check_monthly(times, "panel")
    zero_level = np.zeros(len(ids), dtype=bool)
    if transform == "yoy":
        if len(times) <= 12:
            raise ParseError("year-on-year transform needs more than 12 "
                             "months", path=path)
        zero_level = np.any(values[:-12] == 0.0, axis=0)
        # 100 * (level_t / level_{t-12} - 1); the first 12 months go
        with np.errstate(divide="ignore", invalid="ignore"):
            values = 100.0 * (values[12:] / values[:-12] - 1.0)
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
    """Load a sector price panel; gap columns are dropped, listed in
    ``dropped``."""
    return _load_panel(path, transform, SectorPanel)


def load_control_panel(path, transform="yoy"):
    """Load a control panel with the sector completeness rule."""
    return _load_panel(path, transform, ControlPanel)


def write_panel_csv(panel, path):
    """Write a panel; a non-finite value is written as an empty field,
    the panel format's missing value."""
    write_csv(path, ["time", *panel.sector_ids],
              ([str(t), *(format_float(v) if math.isfinite(v) else ""
                          for v in row)]
               for t, row in zip(panel.times, panel.values)))


# -- regions -------------------------------------------------------------


def _region_header(header):
    if [h.strip().lower() for h in header] != ["lat", "lon"]:
        return "region file needs header lat,lon"
    return None


def load_region_mask(path, domain):
    """Boolean raster over domain of the cells a region file lists: a
    lat,lon header, then one cell center per row."""
    mask = np.zeros(domain.shape, dtype=bool)
    rows = _csv_rows(path, _region_header)
    next(rows)
    for line, row in rows:
        try:
            lat, lon = map(float, row)
        except ValueError:
            raise ParseError(f"region row {row} is not lat,lon",
                             path=path, line=line) from None
        if not (math.isfinite(lat) and math.isfinite(lon)):
            raise ParseError(f"non-finite region cell ({lat}, {lon})",
                             path=path, line=line)
        # the cell whose center lies within 1e-6 of a step of the row
        at = ((lat - domain.lat_min) / domain.step_lat - 0.5,
              (lon - domain.lon_min) / domain.step_lon - 0.5)
        row_i, col_j = round(at[0]), round(at[1])
        if abs(at[0] - row_i) > 1e-6 or abs(at[1] - col_j) > 1e-6:
            raise ParseError(f"region row ({lat}, {lon}) is not a cell "
                             f"center of the grid", path=path, line=line)
        if not (0 <= row_i < domain.n_lat and 0 <= col_j < domain.n_lon):
            raise ParseError(f"region cell ({lat}, {lon}) lies outside "
                             f"the grid", path=path, line=line)
        mask[row_i, col_j] = True
    return mask


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
