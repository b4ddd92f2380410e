"""Format A reader and writer against frozen copies of the row-by-row code.

load_gridded parses a valid format A body in one np.loadtxt pass and
reruns the row reader on anything else, so that reader alone words the
errors. write_gridded_csv writes each frame as one joined string. The
reference functions below are the code both replaced, kept verbatim:
randomized valid files must load bit-identically, every malformed file
must fail with the same exception class and message (line included), and
written files must match byte for byte.
"""

import csv
import errno
import hashlib
import os
import shutil
import sys
import time
import warnings

import numpy as np
import pytest

from climfact import ingest, months
from climfact.errors import ParseError
from climfact.grid import SurfaceSeries, build_domain
from climfact.ingest import (
    format_float,
    load_gridded,
    write_csv,
    write_gridded_csv,
    write_surface_csv,
)

# -- frozen reference: the row-by-row format A reader and writer -----------


def _reference_load(path, variable=None, step=None, weighting="coslat"):
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

    axis = months.check_monthly(np.unique(times), f"gridded file {path}")
    step_lat = step_lon = None
    if step is not None:
        step_lat, step_lon = (step, step) if np.isscalar(step) else step
    ulat, ulon = np.unique(lats), np.unique(lons)
    lat_min, lat_max, step_lat, n_lat = ingest._infer_axis(
        path, ulat, "latitude", step_lat)
    lon_min, lon_max, step_lon, n_lon = ingest._infer_axis(
        path, ulon, "longitude", step_lon)
    n_pairs = np.unique(np.searchsorted(ulat, lats) * len(ulon)
                        + np.searchsorted(ulon, lons)).size
    limit = ingest._LATTICE_CELLS_PER_PAIR
    if n_lat * n_lon > limit * n_pairs:
        raise ParseError(
            f"latitude step {step_lat!r} and longitude step {step_lon!r} give "
            f"a {n_lat} x {n_lon} lattice for {n_pairs} distinct (lat, lon) "
            f"pairs, more than {limit} lattice cells per "
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
    return ingest._finish_series(path, kwargs, axis, cube, name, weighting)


def _reference_write(series, path):
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


# -- helpers ---------------------------------------------------------------


def _outcome(load, path, **kwargs):
    """The loaded series, or the (class, message) of what load raised."""
    try:
        return load(path, **kwargs)
    except Exception as exc:  # the classes themselves are compared
        return type(exc), str(exc)


def _assert_same_series(got, want):
    d, e = got.domain, want.domain
    assert got.name == want.name
    assert got.times.dtype == want.times.dtype
    assert np.array_equal(got.times, want.times)
    assert got.values.tobytes() == want.values.tobytes()
    assert np.array_equal(d.mask, e.mask)
    assert np.array_equal(d.weights, e.weights)
    assert ((d.lat_min, d.lat_max, d.lon_min, d.lon_max, d.step_lat,
             d.step_lon) == (e.lat_min, e.lat_max, e.lon_min, e.lon_max,
                             e.step_lat, e.step_lon))


def _assert_same_outcome(path, **kwargs):
    got = _outcome(load_gridded, path, **kwargs)
    want = _outcome(_reference_load, path, **kwargs)
    if isinstance(want, SurfaceSeries):
        assert isinstance(got, SurfaceSeries), got
        _assert_same_series(got, want)
    else:
        assert got == want
    return want


# -- randomized valid files ------------------------------------------------

# each spells every coordinate of the lattices below exactly
_NUMBER_FORMATS = (repr, "{:.6f}".format, "{:.6e}".format, "{:+g}".format,
                   "{:.12g}".format)


def _random_valid_file(rng, path):
    """A valid format A file of random shape, gaps, order and spelling;
    returns the step argument to load it with."""
    n_lat, n_lon = rng.integers(1, 6, size=2)
    step_lat, step_lon = rng.choice([0.1, 0.25, 0.5, 1.0, 2.5], size=2)
    lat0 = round(float(rng.uniform(-60.0, 60.0)), 1)
    lon0 = round(float(rng.uniform(-20.0, 40.0)), 1)
    lats = lat0 + (np.arange(n_lat) + 0.5) * step_lat
    lons = lon0 + (np.arange(n_lon) + 0.5) * step_lon
    n_months = int(rng.integers(1, 30))
    start = np.datetime64("1950-01", "M") + int(rng.integers(0, 840))
    cells = [(i, j) for i in range(n_lat) for j in range(n_lon)]
    # masked cells: absent in one month, or in every month
    absent = set()
    for c in rng.permutation(len(cells))[:int(rng.integers(0, len(cells)))]:
        months_out = (range(n_months) if rng.random() < 0.3
                      else [int(rng.integers(n_months))])
        absent.update((t, c) for t in months_out)

    fmt = _NUMBER_FORMATS[int(rng.integers(len(_NUMBER_FORMATS)))]
    day = rng.random() < 0.3
    pad = rng.random() < 0.3
    rows = []
    for t in range(n_months):
        stamp = str(start + t) + ("-01" if day else "")
        for c, (i, j) in enumerate(cells):
            if (t, c) in absent:
                continue
            value = rng.normal(scale=10.0 ** rng.integers(-3, 4))
            fields = [stamp, fmt(float(lats[i])), fmt(float(lons[j])),
                      repr(float(value))]
            if pad:
                fields = [f"{' ' * int(rng.integers(3))}{f}"
                          f"{' ' * int(rng.integers(3))}" for f in fields]
            rows.append(",".join(fields))
    if rng.random() < 0.5:
        rows = [rows[k] for k in rng.permutation(len(rows))]
    for _ in range(int(rng.integers(0, 4))):
        rows.insert(int(rng.integers(len(rows) + 1)), "")
    end = "\r\n" if rng.random() < 0.3 else "\n"
    name = "var" if rng.random() < 0.5 else " t2m "
    text = end.join([f"time,lat,lon,{name}", *rows])
    if rng.random() < 0.8:
        text += end
    path.write_bytes(text.encode("utf-8"))

    if n_lat > 1 and n_lon > 1 and rng.random() < 0.5:
        return None
    if step_lat == step_lon and rng.random() < 0.5:
        return float(step_lat)
    return (float(step_lat), float(step_lon))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("draw", range(40))
def test_random_valid_file_loads_as_the_reference(tmp_path, monkeypatch,
                                                  draw):
    rng = np.random.default_rng([draw, 7])
    path = tmp_path / "grid.csv"
    step = _random_valid_file(rng, path)

    def no_row_reader(path):
        raise AssertionError("a valid file reached the row reader")

    want = _reference_load(path, step=step)
    with monkeypatch.context() as patch:
        patch.setattr(ingest, "_read_grid_rows", no_row_reader)
        got = load_gridded(path, step=step)
    _assert_same_series(got, want)


def test_random_files_mask_cells_and_vary_the_step(tmp_path):
    """The draws above reach masked cells and every kind of step."""
    kinds, masked = set(), 0
    for draw in range(40):
        path = tmp_path / f"grid{draw}.csv"
        step = _random_valid_file(np.random.default_rng([draw, 7]), path)
        kinds.add(type(step).__name__)
        series = _reference_load(path, step=step)
        masked += int(series.domain.n_valid < series.domain.mask.size)
    assert kinds == {"NoneType", "float", "tuple"}
    assert masked >= 10


# -- malformed and unusual files -------------------------------------------

# A valid 1 x 2 grid over two months, loaded with step 1.0; each case
# below changes it: name -> (body lines, step).
_BODY = ["2001-01,50.5,8.5,1.5", "2001-01,50.5,9.5,2.5",
         "2001-02,50.5,8.5,3.5", "2001-02,50.5,9.5,4.5"]

_CASES = {
    "time with a suffix": (["2001-01-01xyz,50.5,8.5,1.5", *_BODY[1:]], 1.0),
    "3-field row": ([*_BODY[:2], "2001-02,50.5,8.5", _BODY[3]], 1.0),
    "5-field row": ([*_BODY[:2], "2001-02,50.5,8.5,3.5,5", _BODY[3]], 1.0),
    "trailing comma": ([*_BODY[:3], "2001-02,50.5,9.5,4.5,"], 1.0),
    "comment line": ([*_BODY[:2], "# a comment", *_BODY[2:]], 1.0),
    "comment after a value": ([*_BODY[:3], "2001-02,50.5,9.5,4.5 # x"], 1.0),
    "whitespace-only line": ([*_BODY[:2], "   ", *_BODY[2:]], 1.0),
    "tab-only line": ([*_BODY[:2], "\t", *_BODY[2:]], 1.0),
    "quoted time": (['"2001-01",50.5,8.5,1.5', *_BODY[1:]], 1.0),
    "quoted value": ([*_BODY[:3], '2001-02,50.5,9.5,"4.5"'], 1.0),
    "quoted comma": ([*_BODY[:3], '2001-02,50.5,9.5,"4,5"'], 1.0),
    "quoted header name": ([*_BODY], 1.0),
    "header quoting a data row": ([*_BODY[1:]], 1.0),
    "underscore digits": ([*_BODY[:3], "2001-02,50.5,9.5,1_0"], 1.0),
    "arabic-indic digits": ([*_BODY[:3], "2001-02,50.5,9.5,\u0664"], 1.0),
    "no-break space": ([*_BODY[:3], "2001-02,50.5,9.5,\xa04.5"], 1.0),
    "file separator": ([*_BODY[:3], "2001-02,50.5,9.5,4.5\x1c"], 1.0),
    "group separator": ([*_BODY[:3], "2001-02,50.5,\x1d9.5,4.5"], 1.0),
    "record separator": ([*_BODY[:3], "2001-02,50.5\x1e,9.5,4.5"], 1.0),
    "unit separator": (["2001-01,\x1f50.5,8.5,1.5", *_BODY[1:]], 1.0),
    "nul byte": ([*_BODY[:3], "2001-02,50.5,9.5,4\x00.5"], 1.0),
    "hex value": ([*_BODY[:3], "2001-02,50.5,9.5,0x10"], 1.0),
    "empty value": ([*_BODY[:3], "2001-02,50.5,9.5,"], 1.0),
    "value inf": ([*_BODY[:3], "2001-02,50.5,9.5,inf"], 1.0),
    "value nan": ([*_BODY[:3], "2001-02,50.5,9.5,nan"], 1.0),
    "value overflows": ([*_BODY[:3], "2001-02,50.5,9.5,1e999"], 1.0),
    "latitude -inf": ([*_BODY[:3], "2001-02,-inf,9.5,4.5"], 1.0),
    "bad month": ([*_BODY[:3], "2001-13,50.5,9.5,4.5"], 1.0),
    "short month": ([*_BODY[:3], "2001-2,50.5,9.5,4.5"], 1.0),
    "month stamped now": ([*_BODY[:3], "now,50.5,9.5,4.5"], 1.0),
    "empty month": ([*_BODY[:3], ",50.5,9.5,4.5"], 1.0),
    "missing month": ([*_BODY[:2], "2001-03,50.5,8.5,3.5",
                       "2001-03,50.5,9.5,4.5"], 1.0),
    "off the lattice": ([*_BODY[:3], "2001-02,50.5,9.7,4.5"], 1.0),
    "duplicate row": ([*_BODY, _BODY[1]], 1.0),
    "duplicate after a blank line": ([*_BODY[:2], "", "", *_BODY[2:],
                                      _BODY[0]], 1.0),
    "empty body": ([], 1.0),
    "blank body": (["", "", ""], 1.0),
    "too-small step": ([*_BODY], 0.001),
    "single latitude, no step": ([*_BODY], None),
    "cr line ends": ([*_BODY], 1.0),
    "semicolons": ([line.replace(",", ";") for line in _BODY], 1.0),
}


def _write_case(path, case):
    body, step = _CASES[case]
    header = "time,lat,lon,value"
    if case == "quoted header name":
        header = 'time,lat,lon,"t2m\nmean"'
    elif case == "header quoting a data row":
        header = f'time,lat,lon,"t2m\n{_BODY[0]}\n"'
    end = "\r" if case == "cr line ends" else "\n"
    path.write_bytes(end.join([header, *body, ""]).encode("utf-8"))
    return step


@pytest.mark.parametrize("case", sorted(_CASES))
def test_malformed_file_fails_as_the_reference(tmp_path, case):
    path = tmp_path / "grid.csv"
    step = _write_case(path, case)
    _assert_same_outcome(path, step=step)


def test_corpus_covers_errors_and_row_reader_successes(tmp_path):
    """Most cases fail; a few only the row reader takes (quotes, Python
    float spellings), and the fallback must load those too."""
    loaded = []
    for case in sorted(_CASES):
        path = tmp_path / f"{len(loaded)}.csv"
        step = _write_case(path, case)
        if isinstance(_outcome(_reference_load, path, step=step),
                      SurfaceSeries):
            loaded.append(case)
    assert set(loaded) >= {"quoted time", "quoted value", "underscore digits",
                           "arabic-indic digits", "quoted header name"}
    assert not set(loaded) & {"month stamped now", "empty month"}
    assert len(loaded) <= len(_CASES) - 25


@pytest.mark.parametrize("text", ["now", "today", "2001", "+2001-01",
                                  "12001-01", "2001-01-01T00", "", "  ",
                                  "2001-1", "\u0662001-01", "2001-13"])
def test_parse_month_takes_only_iso_months(text):
    with pytest.raises(ValueError):
        months.parse_month(text)


def test_parse_month_reads_a_month_or_a_day(tmp_path):
    assert months.parse_month(" 2001-02 ") == np.datetime64("2001-02")
    assert months.parse_month("2001-02-28") == np.datetime64("2001-02")
    path = tmp_path / "grid.csv"
    path.write_text("\n".join(["time,lat,lon,value", *_BODY[:3],
                               "now,50.5,9.5,4.5", ""]))
    with pytest.raises(ParseError, match=r"time 'now' is not a YYYY-MM or "
                                         r"YYYY-MM-DD month \(.*, line 5\)"):
        load_gridded(path, step=1.0)


def test_duplicate_after_blank_lines_names_its_file_line(tmp_path):
    path = tmp_path / "grid.csv"
    _write_case(path, "duplicate after a blank line")
    with pytest.raises(ParseError, match=r"grid\.csv, line 8"):
        load_gridded(path, step=1.0)


def test_invalid_utf8_names_the_line(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_bytes("\n".join(["time,lat,lon,value", *_BODY[:3], ""])
                     .encode() + b"2001-02,50.5,9.5,4.5\xff\n")
    with pytest.raises(ParseError,
                       match=r"byte 0xff is not UTF-8 \(.*grid\.csv, line 5\)"):
        load_gridded(path, step=1.0)


def test_blank_lines_raise_no_warning(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("\n".join(["time,lat,lon,value", "", *_BODY, "", ""]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_gridded(path, step=1.0).domain.n_valid == 2


# -- format B twins --------------------------------------------------------


def _twins(cache):
    return sorted(cache.iterdir()) if cache.is_dir() else []


def _count_parses(monkeypatch):
    """Count format A parses; a load that reads a twin makes none."""
    calls = []
    parse = ingest._parse_grid_body

    def counted(path, raw):
        calls.append(path)
        return parse(path, raw)
    monkeypatch.setattr(ingest, "_parse_grid_body", counted)
    return calls


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("draw", range(0, 40, 2))
def test_twin_loads_as_the_parse(tmp_path, monkeypatch, twin_cache, draw):
    rng = np.random.default_rng([draw, 7])
    path = tmp_path / "grid.csv"
    step = _random_valid_file(rng, path)
    calls = _count_parses(monkeypatch)
    parsed = load_gridded(path, step=step)
    (twin,) = _twins(twin_cache)
    source = hashlib.sha256(os.fsencode(path)).hexdigest()
    assert twin.name.startswith(f"{source}-")
    hit = load_gridded(path, step=step)
    _assert_same_series(hit, parsed)
    # the name and weighting are applied on a hit as on a parse
    renamed = load_gridded(path, variable="x", step=step, weighting="uniform")
    _assert_same_series(renamed, _reference_load(
        path, variable="x", step=step, weighting="uniform"))
    assert len(calls) == 1 and _twins(twin_cache) == [twin]


def test_twin_draws_mask_cells_and_vary_the_step(tmp_path):
    """The twin draws reach masked cells and every kind of step."""
    kinds, masked = set(), 0
    for draw in range(0, 40, 2):
        path = tmp_path / f"grid{draw}.csv"
        step = _random_valid_file(np.random.default_rng([draw, 7]), path)
        kinds.add(type(step).__name__)
        series = _reference_load(path, step=step)
        masked += int(series.domain.n_valid < series.domain.mask.size)
    assert kinds == {"NoneType", "float", "tuple"}
    assert masked >= 10


def test_changed_value_of_the_same_size_and_time_misses(tmp_path,
                                                         twin_cache):
    path = tmp_path / "grid.csv"
    path.write_text("\n".join(["time,lat,lon,value", *_BODY, ""]))
    before = os.stat(path)
    assert load_gridded(path, step=1.0).values[1, 0, 1] == 4.5
    (old,) = _twins(twin_cache)
    path.write_text(path.read_text().replace(",4.5", ",5.5"))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert os.stat(path).st_size == before.st_size
    assert load_gridded(path, step=1.0).values[1, 0, 1] == 5.5
    (new,) = _twins(twin_cache)
    assert new != old


def test_file_rewritten_during_the_parse_leaves_no_twin(tmp_path,
                                                        monkeypatch,
                                                        twin_cache):
    path = tmp_path / "grid.csv"
    old = "\n".join(["time,lat,lon,value", *_BODY, ""])
    path.write_text(old)
    parse = ingest._parse_grid_body

    def rewritten(path, raw):
        # the parse reads the path again, which now holds other bytes
        path.write_text(old.replace(",4.5", ",44.5"))
        return parse(path, raw)
    monkeypatch.setattr(ingest, "_parse_grid_body", rewritten)
    assert load_gridded(path, step=1.0).values[1, 0, 1] == 44.5
    assert _twins(twin_cache) == []
    monkeypatch.setattr(ingest, "_parse_grid_body", parse)
    path.write_text(old)
    assert load_gridded(path, step=1.0).values[1, 0, 1] == 4.5


def test_step_is_part_of_the_key(tmp_path, twin_cache):
    path = tmp_path / "grid.csv"
    path.write_text("\n".join(["time,lat,lon,value", *_BODY, ""]))
    wide = load_gridded(path, step=(1.0, 0.5))
    assert load_gridded(path, step=1.0).domain.shape == (1, 2)
    assert load_gridded(path, step=(1.0, 0.5)).domain.shape == \
        wide.domain.shape == (1, 3)


def test_damaged_twin_is_parsed_again_and_rewritten(tmp_path, monkeypatch,
                                                    twin_cache):
    path = tmp_path / "grid.csv"
    path.write_text("\n".join(["time,lat,lon,value", *_BODY, ""]))
    parsed = load_gridded(path, step=1.0)
    (twin,) = _twins(twin_cache)
    whole = twin.read_bytes()
    calls = _count_parses(monkeypatch)
    for damaged in (whole[:-5], whole[:20], b"", b"SGF1" + b"\xff" * 60):
        twin.write_bytes(damaged)
        _assert_same_series(load_gridded(path, step=1.0), parsed)
        assert twin.read_bytes() == whole
    assert len(calls) == 4


@pytest.mark.parametrize("cache", ["read-only", "a file"])
def test_unwritable_cache_loads_and_writes_nothing(tmp_path, monkeypatch,
                                                   twin_cache, cache):
    path = tmp_path / "grid.csv"
    path.write_text("\n".join(["time,lat,lon,value", *_BODY, ""]))
    if cache == "read-only":
        twin_cache.mkdir(parents=True)
        twin_cache.chmod(0o555)

        def refused(**kwargs):
            # what a read-only directory gives, even to a superuser
            raise PermissionError(errno.EACCES, "read-only", kwargs["dir"])
        monkeypatch.setattr(ingest.tempfile, "mkstemp", refused)
    else:
        twin_cache.parent.parent.mkdir()
        twin_cache.parent.write_text("not a directory")
    try:
        for _ in range(2):
            _assert_same_series(load_gridded(path, step=1.0),
                                _reference_load(path, step=1.0))
        assert _twins(twin_cache) == []
    finally:
        if cache == "read-only":
            twin_cache.chmod(0o755)


def test_malformed_file_leaves_no_twin(tmp_path, twin_cache):
    for case in sorted(_CASES):
        path = tmp_path / f"{len(_twins(twin_cache))}-{hash(case)}.csv"
        step = _write_case(path, case)
        first = _outcome(load_gridded, path, step=step)
        if isinstance(first, SurfaceSeries):
            continue
        assert _outcome(load_gridded, path, step=step) == first
        assert not any(t.name.startswith(
            hashlib.sha256(os.fsencode(path)).hexdigest())
            for t in _twins(twin_cache)), case


def test_rewritten_source_keeps_one_twin(tmp_path, twin_cache):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for value in ("4.5", "5.5", "6.5"):
        for path in paths:
            path.write_text("\n".join(["time,lat,lon,value", *_BODY[:3],
                                       f"2001-02,50.5,9.5,{value}", ""]))
            assert load_gridded(path, step=1.0).values[1, 0, 1] == \
                float(value)
        assert len(_twins(twin_cache)) == 2
    assert sorted(t.name[:64] for t in _twins(twin_cache)) == sorted(
        hashlib.sha256(os.fsencode(p)).hexdigest() for p in paths)


def test_relative_cache_home_falls_back_to_the_home_cache(tmp_path,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", "relative")
    path = tmp_path / "grid.csv"
    path.write_text("\n".join(["time,lat,lon,value", *_BODY, ""]))
    load_gridded(path, step=1.0)
    assert not (tmp_path / "relative").exists()
    assert len(_twins(tmp_path / "home" / ".cache" / "climfact" / "grids")) == 1
    # with no absolute home either, nothing is cached
    monkeypatch.setenv("HOME", "home")
    path.write_text(path.read_text().replace(",4.5", ",5.5"))
    assert load_gridded(path, step=1.0).values[1, 0, 1] == 5.5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.csv", "home"]



@pytest.fixture
def parser_sources(tmp_path, monkeypatch):
    """Copies of the sources the twins' key reads, for a test to edit."""
    folder = tmp_path / "parser"
    folder.mkdir()
    copies = [folder / os.path.basename(s) for s in ingest._PARSER_SOURCES]
    for source, copy in zip(ingest._PARSER_SOURCES, copies):
        shutil.copyfile(source, copy)
    monkeypatch.setattr(ingest, "_PARSER_SOURCES", tuple(map(str, copies)))
    ingest._parser_digest.cache_clear()
    yield copies
    ingest._parser_digest.cache_clear()


@pytest.mark.parametrize("edit", ["ingest.py", "months.py", "grid.py",
                                  "errors.py", "numpy"])
def test_edited_parser_misses(tmp_path, monkeypatch, twin_cache,
                              parser_sources, edit):
    path = tmp_path / "grid.csv"
    path.write_text("\n".join(["time,lat,lon,value", *_BODY, ""]))
    calls = _count_parses(monkeypatch)
    parsed = load_gridded(path, step=1.0)
    load_gridded(path, step=1.0)
    (old,) = _twins(twin_cache)
    assert len(calls) == 1
    if edit == "numpy":
        monkeypatch.setattr(np, "__version__", np.__version__ + ".post1")
    else:
        (source,) = [p for p in parser_sources if p.name == edit]
        source.write_bytes(source.read_bytes() + b"\n")
    ingest._parser_digest.cache_clear()     # as a new process would
    _assert_same_series(load_gridded(path, step=1.0), parsed)
    (new,) = _twins(twin_cache)
    assert len(calls) == 2 and new != old


def test_missing_parser_source_caches_nothing(tmp_path, twin_cache,
                                              parser_sources):
    parser_sources[1].unlink()
    ingest._parser_digest.cache_clear()
    path = tmp_path / "grid.csv"
    path.write_text("\n".join(["time,lat,lon,value", *_BODY, ""]))
    for _ in range(2):
        _assert_same_series(load_gridded(path, step=1.0),
                            _reference_load(path, step=1.0))
    assert _twins(twin_cache) == []


def test_parser_sources_cover_the_load_path(tmp_path, twin_cache):
    """Every climfact module a format A load runs, parsing, writing a twin
    or reading one, is in the twins' key."""
    package = os.path.dirname(os.path.abspath(ingest.__file__))
    ran = set()

    def profile(frame, event, arg):
        name = frame.f_code.co_filename
        if name.startswith(package + os.sep):
            ran.add(name)
    loads = []
    for case in ("quoted value", "arabic-indic digits"):
        path = tmp_path / f"{len(loads)}.csv"
        loads.append((path, _write_case(path, case)))
    path = tmp_path / "valid.csv"
    loads.append((path, _random_valid_file(np.random.default_rng(3), path)))
    sys.setprofile(profile)
    try:
        for path, step in loads * 2:    # a parse, then a hit
            load_gridded(path, step=step, weighting="uniform")
    finally:
        sys.setprofile(None)
    assert len(_twins(twin_cache)) == 3
    assert os.path.join(package, "months.py") in ran
    assert ran <= set(ingest._PARSER_SOURCES)


def _same_shape_files(tmp_path, names):
    """Format A files whose twins have one size."""
    paths = []
    for k, name in enumerate(names):
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(["time,lat,lon,value", *_BODY[:3],
                                   f"2001-02,50.5,9.5,{k}.5", ""]))
        paths.append(path)
    return paths


def test_cache_keeps_the_recently_used_twins_within_its_bound(
        tmp_path, monkeypatch, twin_cache):
    a, b, c, d, e = _same_shape_files(tmp_path, "abcde")
    for path in (a, b, c):
        load_gridded(path, step=1.0)
    twins = _twins(twin_cache)
    size = twins[0].stat().st_size
    assert len(twins) == 3 and all(t.stat().st_size == size for t in twins)
    by_source = {}
    for path in (a, b, c):
        source = hashlib.sha256(os.fsencode(path)).hexdigest()
        (by_source[path.stem],) = twin_cache.glob(f"{source}-*")
    for k, stem in enumerate("abc"):     # a used first, c last
        os.utime(by_source[stem], (1000 + k, 1000 + k))
    monkeypatch.setattr(ingest, "_TWIN_CACHE_BYTES", 3 * size)
    calls = _count_parses(monkeypatch)
    load_gridded(a, step=1.0)           # a hit marks a used now
    assert calls == []
    load_gridded(d, step=1.0)           # four twins: b, least used, goes
    assert _twins(twin_cache) == sorted(
        [by_source["a"], by_source["c"], *twin_cache.glob(
            hashlib.sha256(os.fsencode(d)).hexdigest() + "-*")])
    # a twin larger than the bound is still kept, alone
    monkeypatch.setattr(ingest, "_TWIN_CACHE_BYTES", size - 1)
    load_gridded(e, step=1.0)
    (only,) = _twins(twin_cache)
    assert only.name.startswith(hashlib.sha256(os.fsencode(e)).hexdigest())
    assert len(calls) == 2


def test_sweep_deletes_what_dead_writers_left(tmp_path, monkeypatch,
                                             twin_cache):
    """Stale .tmp files go; a fresh one may be another writer's, and files
    that are not twins are neither deleted nor counted."""
    monkeypatch.setattr(ingest, "_TWIN_CACHE_BYTES", 0)
    twin_cache.mkdir(parents=True)
    old, fresh = twin_cache / "tmpold.tmp", twin_cache / "tmpfresh.tmp"
    other = twin_cache / "notes.txt"
    for leftover in (old, fresh, other):
        leftover.write_bytes(b"SGF1")
    hour_ago = time.time() - ingest._STALE_TMP_S - 60
    os.utime(old, (hour_ago, hour_ago))
    os.utime(other, (hour_ago, hour_ago))
    (path,) = _same_shape_files(tmp_path, "a")
    load_gridded(path, step=1.0)
    names = sorted(p.name for p in twin_cache.iterdir())
    assert "tmpold.tmp" not in names
    assert {"tmpfresh.tmp", "notes.txt"} <= set(names) and len(names) == 3

# -- writer ----------------------------------------------------------------


@pytest.mark.parametrize("draw", range(12))
def test_writer_matches_the_reference_bytes(tmp_path, draw):
    rng = np.random.default_rng([draw, 11])
    n_lat, n_lon = rng.integers(1, 7, size=2)
    mask = rng.random((n_lat, n_lon)) < 0.7
    mask.flat[int(rng.integers(mask.size))] = True
    step = float(rng.choice([0.1, 0.25, 0.5, 1.0]))
    lat0 = round(float(rng.uniform(-60.0, 60.0)), 2)
    domain = build_domain((lat0, lat0 + n_lat * step, 5.0,
                           5.0 + n_lon * step), step, mask)
    n_months = int(rng.integers(1, 15))
    times = np.datetime64("1999-11", "M") + np.arange(n_months)
    values = rng.normal(size=(n_months, n_lat, n_lon))
    values *= 10.0 ** rng.integers(-5, 6, size=values.shape)
    values[0, 0, 0] = -0.0
    values = np.where(domain.mask[None], values, np.nan)
    name = 'temp, "2m"' if draw % 3 == 0 else "t2m"
    series = SurfaceSeries(domain, times, values, name)

    write_gridded_csv(series, tmp_path / "new.csv")
    _reference_write(series, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()


def test_surface_writer_quotes_the_name_like_csv(tmp_path, small_domain):
    from climfact.grid import Surface

    surface = Surface(small_domain, np.arange(9.0).reshape(3, 3))
    write_surface_csv(surface, tmp_path / "b.csv", name='b, "1"')
    series = SurfaceSeries(small_domain,
                           np.array([np.datetime64("1970-01", "M")]),
                           surface.values[None], 'b, "1"')
    _reference_write(series, tmp_path / "old.csv")
    data = (tmp_path / "b.csv").read_bytes()
    assert data == (tmp_path / "old.csv").read_bytes()
    assert data.startswith(b'time,lat,lon,"b, ""1"""\n')
