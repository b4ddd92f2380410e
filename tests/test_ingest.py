import struct

import numpy as np
import pytest

from climfact import months
from climfact.errors import (
    AllMasked,
    EmptyIntersection,
    IrregularCalendar,
    NoSectorsRemain,
    ParseError,
)
from climfact.grid import SurfaceSeries, build_domain
from climfact.ingest import (
    SectorPanel,
    _load_gridded_binary,
    align,
    load_control_panel,
    load_gridded,
    load_sector_panel,
    write_gridded_binary,
    write_gridded_csv,
    write_panel_csv,
)


def _demo_series(rng, n_months=5, mask=None):
    domain = build_domain((50.0, 52.0, 8.0, 10.0), 1.0, mask)
    times = np.arange(np.datetime64("2001-01", "M"),
                      np.datetime64("2001-01", "M") + n_months)
    values = rng.normal(size=(n_months,) + domain.shape)
    values = np.where(domain.mask[None], values, np.nan)
    return SurfaceSeries(domain, times, values, "temperature")


def _reference_format_b(series):
    """Format B bytes of series, packed field by field and frame by frame."""
    d = series.domain
    parts = [struct.pack("<4s6dI", b"SGF1", d.lat_min, d.lat_max, d.lon_min,
                         d.lon_max, d.step_lat, d.step_lon, len(series))]
    for day, frame in zip(months.epoch_days(series.times), series.values):
        parts.append(struct.pack("<i", int(day)))
        parts.append(struct.pack(f"<{frame.size}d", *frame.ravel()))
    return b"".join(parts)


class TestGriddedRoundTrip:
    @pytest.mark.parametrize("writer,suffix", [
        (write_gridded_csv, "csv"), (write_gridded_binary, "sgf"),
    ])
    def test_round_trip_is_bit_identical_on_valid_cells(
        self, tmp_path, rng, writer, suffix
    ):
        mask = np.array([[True, False], [True, True]])
        series = _demo_series(rng, mask=mask)
        path = tmp_path / f"series.{suffix}"
        writer(series, path)
        loaded = load_gridded(path, step=1.0)
        assert np.array_equal(loaded.times, series.times)
        assert loaded.domain.n_valid == series.domain.n_valid
        np.testing.assert_array_equal(
            loaded.values[:, loaded.domain.mask],
            series.values[:, series.domain.mask],
        )

    def test_cell_missing_in_one_month_masked_everywhere(self, tmp_path):
        lines = ["time,lat,lon,value"]
        for month in ("2001-01", "2001-02", "2001-03"):
            for lat in (50.5, 51.5):
                for lon in (8.5, 9.5):
                    if month == "2001-02" and lat == 50.5 and lon == 8.5:
                        continue  # that cell gaps in month 2
                    lines.append(f"{month},{lat},{lon},1.0")
        path = tmp_path / "gap.csv"
        path.write_text("\n".join(lines) + "\n")
        series = load_gridded(path)
        assert series.domain.n_valid == 3
        assert not series.domain.mask[0, 0]
        assert np.all(np.isnan(series.values[:, 0, 0]))

    def test_empty_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_gridded(path)

    def test_bad_row_names_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,lat,lon,value\n2001-01,50.5,8.5,notanumber\n")
        with pytest.raises(ParseError, match="line 2"):
            load_gridded(path)

    def test_duplicate_row_names_the_second_line(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "time,lat,lon,value\n"
            "2001-01,50.5,8.5,1\n2001-01,51.5,9.5,1\n\n"
            "2001-02,50.5,8.5,1\n2001-01,51.5,9.5,2\n"
            "2001-02,51.5,9.5,1\n"
        )
        with pytest.raises(ParseError, match=r"dup\.csv, line 6"):
            load_gridded(path)

    def test_missing_month_is_irregular(self, tmp_path):
        path = tmp_path / "gapmonth.csv"
        path.write_text(
            "time,lat,lon,value\n"
            "2001-01,50.5,8.5,1\n2001-01,50.5,9.5,1\n"
            "2001-03,50.5,8.5,1\n2001-03,50.5,9.5,1\n"
        )
        with pytest.raises(IrregularCalendar):
            load_gridded(path)

    def test_every_cell_gapped_somewhere_is_all_masked(self, tmp_path):
        path = tmp_path / "doomed.csv"
        path.write_text(
            "time,lat,lon,value\n"
            "2001-01,50.5,8.5,1\n2001-01,51.5,9.5,1\n"
            "2001-02,50.5,9.5,1\n2001-02,51.5,8.5,1\n"
        )
        with pytest.raises(AllMasked):
            load_gridded(path)

    def test_binary_truncation_is_a_parse_error(self, tmp_path, rng):
        series = _demo_series(rng)
        path = tmp_path / "series.sgf"
        write_gridded_binary(series, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ParseError):
            load_gridded(path)

    def test_binary_midmonth_timestamp_rejected(self, tmp_path, rng):
        import struct

        series = _demo_series(rng)
        path = tmp_path / "series.sgf"
        write_gridded_binary(series, path)
        blob = bytearray(path.read_bytes())
        header_size = struct.calcsize("<4s6dI")
        (day,) = struct.unpack_from("<i", blob, header_size)
        struct.pack_into("<i", blob, header_size, day + 10)  # not month start
        path.write_bytes(bytes(blob))
        with pytest.raises(IrregularCalendar):
            load_gridded(path)


    @pytest.mark.parametrize("case,message,offset", [
        ("bad magic", "bad magic", 0),
        ("short header", "truncated header", 20),
    ])
    def test_binary_header_error_names_its_offset(self, tmp_path, rng, case,
                                                  message, offset):
        path = tmp_path / "series.sgf"
        write_gridded_binary(_demo_series(rng), path)
        blob = path.read_bytes()
        path.write_bytes(b"XGF1" + blob[4:] if case == "bad magic"
                         else blob[:20])
        with pytest.raises(ParseError) as err:
            _load_gridded_binary(path, None, "coslat")
        assert str(err.value) == f"{message} ({path}, offset {offset})"

    @pytest.mark.parametrize("draw", range(12))
    def test_binary_writer_matches_a_per_frame_reference(self, tmp_path,
                                                         draw):
        # masked cells, one or many frames, non-square grids and steps,
        # months before and after 1970
        rng = np.random.default_rng([draw, 12])
        n_lat, n_lon = (int(n) for n in rng.integers(1, 7, size=2))
        step_lat, step_lon = (float(s) for s in rng.choice([0.25, 0.5, 2.0],
                                                            size=2))
        lat_min = float(rng.integers(-60, 60))
        lon_min = float(rng.integers(-170, 170))
        mask = rng.random((n_lat, n_lon)) < 0.7
        mask.flat[rng.integers(mask.size)] = True
        domain = build_domain((lat_min, lat_min + n_lat * step_lat, lon_min,
                               lon_min + n_lon * step_lon),
                              (step_lat, step_lon), mask)
        n_frames = 1 if draw % 3 == 0 else int(rng.integers(2, 40))
        times = (np.datetime64("1950-01", "M") + int(rng.integers(0, 900))
                 + np.arange(n_frames))
        scale = 10.0 ** int(rng.integers(-3, 4))
        noise = scale * rng.normal(size=(n_frames,) + mask.shape)
        values = np.where(mask, noise, np.nan)
        series = SurfaceSeries(domain, times, values, "v")
        path = tmp_path / "series.sgf"
        write_gridded_binary(series, path)
        assert path.read_bytes() == _reference_format_b(series)
        loaded = load_gridded(path)
        assert np.array_equal(loaded.times, series.times)
        assert np.array_equal(loaded.domain.mask, mask)
        assert ((loaded.domain.lat_min, loaded.domain.lat_max,
                 loaded.domain.lon_min, loaded.domain.lon_max,
                 loaded.domain.step_lat, loaded.domain.step_lon)
                == (domain.lat_min, domain.lat_max, domain.lon_min,
                    domain.lon_max, domain.step_lat, domain.step_lon))
        assert loaded.values.tobytes() == series.values.tobytes()

    def test_binary_writer_refuses_a_day_past_the_timestamp(self, tmp_path,
                                                            rng):
        # 10,000,000-01 is about 3.65e9 days after 1970, past "<i4"
        series = _demo_series(rng)
        far = SurfaceSeries(series.domain,
                            np.datetime64("10000000-01", "M") + np.arange(5),
                            series.values, series.name)
        path = tmp_path / "far.sgf"
        with pytest.raises(OverflowError, match="4-byte format B timestamp"):
            write_gridded_binary(far, path)
        assert not path.exists()


class TestSectorPanel:
    def _write(self, tmp_path, header, rows):
        path = tmp_path / "panel.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        return path

    def test_constant_levels_give_zero_yoy(self, tmp_path):
        times = np.arange(np.datetime64("2000-01", "M"),
                          np.datetime64("2002-01", "M"))
        rows = [f"{t},100.0" for t in times]
        panel = load_sector_panel(self._write(tmp_path, "time,CP00", rows))
        assert panel.values.shape == (12, 1)
        assert np.allclose(panel.values, 0.0)

    def test_two_percent_growth_gives_constant_two(self, tmp_path):
        times = np.arange(np.datetime64("2000-01", "M"),
                          np.datetime64("2003-01", "M"))
        rows = [
            f"{t},{100.0 * 1.02 ** (k / 12.0)!r}"
            for k, t in enumerate(times)
        ]
        panel = load_sector_panel(self._write(tmp_path, "time,CP00", rows))
        assert np.allclose(panel.values, 2.0, atol=1e-9)

    def test_late_starting_sector_dropped_others_kept(self, tmp_path):
        times = np.arange(np.datetime64("2000-01", "M"),
                          np.datetime64("2002-07", "M"))
        rows = []
        for k, t in enumerate(times):
            late = "" if k < 18 else "50.0"
            rows.append(f"{t},100.0,{late}")
        panel = load_sector_panel(
            self._write(tmp_path, "time,CP01,CP02", rows)
        )
        assert panel.sector_ids == ("CP01",)
        assert panel.dropped == ("CP02",)

    def test_all_gapped_raises(self, tmp_path):
        times = np.arange(np.datetime64("2000-01", "M"),
                          np.datetime64("2001-06", "M"))
        rows = [f"{t}," for t in times]
        with pytest.raises(NoSectorsRemain):
            load_sector_panel(self._write(tmp_path, "time,CP01", rows))

    def test_zero_level_under_yoy_is_named_apart_from_gaps(self, tmp_path):
        times = np.arange(np.datetime64("2000-01", "M"),
                          np.datetime64("2002-01", "M"))
        alone = [f"{t},{0.0 if k == 3 else 100.0}" for k, t in enumerate(times)]
        panel = load_sector_panel(
            self._write(tmp_path, "time,A,B", [f"{r},101.0" for r in alone]))
        assert panel.sector_ids == ("B",)
        assert panel.dropped == ("A",)
        with pytest.raises(NoSectorsRemain) as err:
            load_sector_panel(self._write(tmp_path, "time,A", alone))
        assert "A has a zero level" in str(err.value)
        assert "gaps" not in str(err.value)
        with pytest.raises(NoSectorsRemain, match="zero level.*; B has gaps"):
            load_sector_panel(
                self._write(tmp_path, "time,A,B", [f"{r}," for r in alone]))

    def test_identical_bytes_identical_panels(self, tmp_path):
        times = np.arange(np.datetime64("2001-01", "M"),
                          np.datetime64("2003-01", "M"))
        rows = [f"{t},{1.5 * k!r},{2.5 - k!r}" for k, t in enumerate(times)]
        path = self._write(tmp_path, "time,A,B", rows)
        first = load_sector_panel(path, transform="none")
        second = load_sector_panel(path, transform="none")
        np.testing.assert_array_equal(first.values, second.values)
        assert first.sector_ids == second.sector_ids
        assert np.array_equal(first.times, second.times)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", " Infinity "])
    def test_non_finite_cell_is_a_parse_error(self, tmp_path, cell):
        times = np.arange(np.datetime64("2001-01", "M"),
                          np.datetime64("2001-05", "M"))
        rows = [f"{t},1.0,{cell if k == 2 else 2.0}"
                for k, t in enumerate(times)]
        with pytest.raises(ParseError,
                           match=r"non-finite.*panel\.csv, line 4"):
            load_sector_panel(self._write(tmp_path, "time,A,B", rows),
                              transform="none")

    def test_written_gap_reads_back_as_a_gap(self, tmp_path):
        times = np.arange(np.datetime64("2001-01", "M"),
                          np.datetime64("2001-05", "M"))
        values = np.array([[1.0, 2.0], [np.nan, 3.0], [4.0, np.inf],
                           [5.0, 6.0]])
        path = tmp_path / "panel.csv"
        write_panel_csv(SectorPanel(times, ("A", "B"), values), path)
        assert path.read_text().splitlines()[2:4] == [
            "2001-02,,3.0", "2001-03,4.0,"]
        with pytest.raises(NoSectorsRemain, match="A has gaps; B has gaps"):
            load_sector_panel(path, transform="none")

    def test_invalid_utf8_names_the_line(self, tmp_path):
        path = self._write(tmp_path, "time,A", ["2001-01,1.0", "2001-02,2.0"])
        path.write_bytes(path.read_bytes().replace(b"2.0", b"2.0\xff"))
        with pytest.raises(ParseError, match=r"byte 0xff.*panel\.csv, line 3"):
            load_sector_panel(path, transform="none")

    def test_no_transform_keeps_levels(self, tmp_path):
        times = np.arange(np.datetime64("2001-01", "M"),
                          np.datetime64("2001-04", "M"))
        rows = [f"{t},{float(k)!r}" for k, t in enumerate(times)]
        panel = load_sector_panel(
            self._write(tmp_path, "time,CP00", rows), transform="none"
        )
        assert np.allclose(panel.values[:, 0], [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("case", [
        "empty file", "one-column header", "wrong field count",
        "non-numeric field", "no data rows", "12 months under yoy",
        "bad field after a two-line header", "no data rows after a two-line "
        "header",
    ])
    def test_malformed_panel_names_the_file(self, tmp_path, case):
        text, message, line = {
            "empty file": ("", "empty file", 1),
            "one-column header": (
                "time\n2001-01\n",
                "header needs a time column plus at least one id", 1),
            "wrong field count": ("time,A\n2001-01,1.0\n2001-02,1.0,2.0\n",
                                  "expected 2 fields, got 3", 3),
            "non-numeric field": ("time,A\n2001-01,1.0\n2001-02,abc\n",
                                  "bad numeric field 'abc'", 3),
            "no data rows": ("time,A\n", "no data rows", 2),
            # a line names the physical line its row starts on
            "bad field after a two-line header": (
                'time,"A\nB"\n2001-01,1.0\n2001-02,x\n',
                "bad numeric field 'x'", 4),
            "no data rows after a two-line header": (
                'time,"A\nB"\n', "no data rows", 3),
            "12 months under yoy": (
                "time,A\n" + "".join(f"2001-{m:02d},1.0\n"
                                     for m in range(1, 13)),
                "year-on-year transform needs more than 12 months", None),
        }[case]
        path = tmp_path / "panel.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            load_sector_panel(path)
        where = f"{path}" if line is None else f"{path}, line {line}"
        assert str(err.value) == f"{message} ({where})"
        assert (err.value.path, err.value.line) == (path, line)

    @pytest.mark.parametrize("loader", [load_sector_panel, load_control_panel])
    @pytest.mark.parametrize("header,message", [
        ("time,A,A,B", "id 'A' in column 3 repeats column 2"),
        ("time,A,B, A ", "id 'A' in column 4 repeats column 2"),
        ("time,A,,B", "id in column 3 is empty"),
        ("time, ", "id in column 2 is empty"),
    ])
    def test_empty_or_repeated_id_names_it(self, tmp_path, loader, header,
                                           message):
        # a repeated id would be estimated twice and read back as its first
        # column; an empty one names no sector
        fields = ",1.0" * header.count(",")
        path = self._write(tmp_path, header,
                           [f"2001-{m:02d}{fields}" for m in range(1, 4)])
        with pytest.raises(ParseError) as err:
            loader(path, transform="none")
        assert str(err.value) == f"{message} ({path}, line 1)"


def _scalar(start, end):
    from climfact.climatology import ScalarSeries

    times = np.arange(np.datetime64(start, "M"),
                      np.datetime64(end, "M") + np.timedelta64(1, "M"))
    return ScalarSeries(times, np.zeros(len(times)))


class TestAlign:
    def test_overlapping_ranges(self):
        a = _scalar("2001-01", "2021-12")
        b = _scalar("2000-01", "2020-12")
        (a2, b2), window = align(a, b)
        assert window == (np.datetime64("2001-01", "M"),
                          np.datetime64("2020-12", "M"))
        assert len(a2) == len(b2) == 240

    def test_disjoint_ranges(self):
        with pytest.raises(EmptyIntersection):
            align(_scalar("2001-01", "2002-12"), _scalar("2010-01", "2011-12"))

    def test_three_staggered_inputs(self):
        trimmed, window = align(
            _scalar("2000-01", "2010-12"),
            _scalar("2002-06", "2012-12"),
            _scalar("2001-03", "2011-06"),
        )
        assert window == (np.datetime64("2002-06", "M"),
                          np.datetime64("2010-12", "M"))
        assert all(len(t) == len(trimmed[0]) for t in trimmed)

    def test_none_passes_through_and_one_input_aligns(self):
        a = _scalar("2001-01", "2002-12")
        b = _scalar("2002-01", "2003-12")
        (a2, none, b2), window = align(a, None, b)
        assert none is None
        assert window == (np.datetime64("2002-01", "M"),
                          np.datetime64("2002-12", "M"))
        assert len(a2) == len(b2) == 12
        (alone,), window = align(a)
        assert window == (a.times[0], a.times[-1])
        np.testing.assert_array_equal(alone.values, a.values)
        with pytest.raises(ValueError):
            align(None)


def _window_cases():
    """One instance of each monthly series type, 24 months from 2001-01,
    with every field off the time axis set away from its default."""
    from climfact.climatology import ScalarSeries, ShockConditioning, ShockSeries
    from climfact.ingest import ControlPanel, SectorPanel

    times = np.datetime64("2001-01", "M") + np.arange(24)
    values = np.arange(24.0)
    domain = build_domain((50.0, 51.0, 8.0, 9.0), 0.5)
    cond = ShockConditioning(sign="negative", season="summer",
                             extreme_multiplier=2.0)
    panel = np.column_stack([values, -values])
    return [
        (SurfaceSeries(domain, times, values[:, None, None]
                       * np.ones(domain.shape), "tmax"),
         {"domain": domain, "name": "tmax"}),
        (ScalarSeries(times, values, "mean"), {"name": "mean"}),
        (ShockSeries(times, values, 1.5, cond, "summer"),
         {"threshold": 1.5, "conditioning": cond, "name": "summer"}),
        (SectorPanel(times, ["A", "B"], panel, ["C"]),
         {"sector_ids": ("A", "B"), "dropped": ("C",)}),
        (ControlPanel(times, ["Z1", "Z2"], panel, ["Z3"]),
         {"sector_ids": ("Z1", "Z2"), "dropped": ("Z3",)}),
    ]


@pytest.mark.parametrize("series,fields", _window_cases(), ids=[
    "SurfaceSeries", "ScalarSeries", "ShockSeries", "SectorPanel",
    "ControlPanel"])
def test_windowing_keeps_type_and_every_field_off_the_time_axis(series,
                                                                 fields):
    start, end = np.datetime64("2001-04", "M"), np.datetime64("2001-09", "M")
    other = _scalar("2001-04", "2001-09")
    for cut in (series.slice_window(start, end), align(series, other)[0][0]):
        assert type(cut) is type(series)
        assert len(cut) == 6
        assert cut.times[0] == start and cut.times[-1] == end
        np.testing.assert_array_equal(cut.values, series.values[3:9])
        for name, value in fields.items():
            got = getattr(cut, name)
            assert got is value if name == "domain" else got == value
