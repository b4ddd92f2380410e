import csv
import dataclasses
import hashlib
import inspect
import json
import os
import re
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from climfact import cli
from climfact import config as cfg
from climfact.climatology import (
    anomaly,
    compute_baseline,
    default_threshold,
    regional_mean,
    shock_variants,
)
from climfact.entry import BLAS_THREAD_VARIABLES
from climfact.errors import ConfigError, RankDeficientDesign
from climfact.factors import two_stage
from climfact.grid import SurfaceSeries, build_domain
from climfact.ingest import (
    SectorPanel,
    format_float,
    load_control_panel,
    load_gridded,
    load_sector_panel,
    write_gridded_binary,
    write_gridded_csv,
    write_panel_csv,
)
from climfact.localproj import LpSpec, irf
from climfact.synth import EA_MONTHLY_NORMALS, KINDS


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def _tree_digest(root):
    """Byte digest over every file in a directory tree, path-ordered."""
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _cli_env(**chosen):
    """Environment for a CLI subprocess: this source tree, and no BLAS
    thread count except the ones given."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {key: value for key, value in os.environ.items()
           if key not in BLAS_THREAD_VARIABLES}
    return dict(env, PYTHONPATH=str(src), **chosen)


@pytest.fixture(scope="module")
def normals_fixture(tmp_path_factory):
    """Synthetic four-variable gridded inputs via the synth subcommand."""
    root = tmp_path_factory.mktemp("normals")
    config = _write_config(root, {
        "seed": 7,
        "output_dir": str(root / "data"),
        "synth": {"kind": "normals", "step": 2.0, "warming": 1.3},
    })
    assert cli.main(["synth", "--config", config, "--quiet"]) == 0
    return root


def _tiny_grid(tmp_path):
    """A 2x2-cell format A grid of ones over 2001-2002 and its config entry."""
    domain = build_domain((50.0, 51.0, 10.0, 11.0), 0.5)
    times = np.datetime64("2001-01", "M") + np.arange(24)
    series = SurfaceSeries(domain, times, np.ones((24,) + domain.shape), "t")
    grid = {"name": "t", "path": str(tmp_path / "grid.csv")}
    write_gridded_csv(series, grid["path"])
    return series, grid


def _spoil_line(path, line):
    """Put a byte that is not UTF-8 at the start of a 1-based line."""
    lines = Path(path).read_bytes().split(b"\n")
    lines[line - 1] = b"\xff" + lines[line - 1]
    Path(path).write_bytes(b"\n".join(lines))


def _huge_panel(data, tmp_path):
    """A copy of data/sectors.csv whose last sector reads 1e200, finite but
    past the float range once squared, in its 30th month."""
    lines = (data / "sectors.csv").read_text().split("\n")
    lines[30] = lines[30].rsplit(",", 1)[0] + ",1e200"
    path = tmp_path / "sectors.csv"
    path.write_text("\n".join(lines))
    return path


def _grid_entries(root):
    return [
        {"name": name, "path": str(root / "data" / f"{name}.csv")}
        for name in EA_MONTHLY_NORMALS
    ]


class TestBaseline:
    def test_summary_matches_bundled_normals(self, normals_fixture, tmp_path):
        config = _write_config(tmp_path, {
            "grids": _grid_entries(normals_fixture),
            "regions": [{"name": "EA", "cells": "all"}],
            "baseline": {"reference_window": [1950, 1980]},
        })
        out = tmp_path / "out"
        code = cli.main(["baseline", "--config", config, "--out", str(out),
                         "--quiet"])
        assert code == 0
        with open(out / "baseline_summary.csv", newline="") as fh:
            rows = {(r["region"], r["variable"]): r
                    for r in csv.DictReader(fh)}
        for variable, expected in EA_MONTHLY_NORMALS.items():
            row = rows[("EA", variable)]
            for m in range(12):
                got = float(row[f"m{m + 1:02d}"])
                assert round(got, 2) == round(expected[m], 2)

    def test_a_region_file_of_every_cell_matches_cells_all(
            self, normals_fixture, tmp_path):
        # 'cells': 'all' reads as the whole domain, with no raster built
        grid = _grid_entries(normals_fixture)[:1]
        domain = load_gridded(grid[0]["path"]).domain
        region = tmp_path / "region.csv"
        region.write_text("lat,lon\n" + "".join(
            f"{format_float(domain.lat_centers[i])},"
            f"{format_float(domain.lon_centers[j])}\n"
            for i, j in zip(*np.nonzero(domain.mask))))
        trees = []
        for name, entry in (("all", {"cells": "all"}),
                            ("file", {"path": str(region)})):
            config = _write_config(tmp_path, {
                "grids": grid, "regions": [{"name": "EA", **entry}],
                "shocks": {"variable": "temperature",
                           "variants": ["all", "summer"]},
            }, f"{name}.json")
            out = tmp_path / name
            for command in ("baseline", "anomaly", "shocks"):
                assert cli.main([command, "--config", config,
                                 "--out", str(out), "--quiet"]) == 0
            trees.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert {"baseline_summary.csv", "anomaly_mean_temperature_EA.csv",
                "shocks_all.csv", "shocks_summer.csv"} <= set(trees[0])
        assert trees[0] == trees[1]

    def test_missing_input_path_is_config_error(self, tmp_path, capsys):
        config = _write_config(tmp_path, {
            "grids": [{"name": "temperature",
                       "path": str(tmp_path / "nope.csv")}],
        })
        code = cli.main(["baseline", "--config", config,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "grids[0].path" in capsys.readouterr().err

    def test_empty_region_is_data_error(self, normals_fixture, tmp_path,
                                        capsys):
        region = tmp_path / "region.csv"
        region.write_text("lat,lon\n")  # header only: empty region
        config = _write_config(tmp_path, {
            "grids": _grid_entries(normals_fixture)[:1],
            "regions": [{"name": "VOID", "path": str(region)}],
        })
        code = cli.main(["baseline", "--config", config,
                         "--out", str(tmp_path / "out")])
        assert code == 3

    @pytest.mark.parametrize("case", [
        "region nan,nan", "region inf,10.25", "sgf step_lat 0.0",
        "sgf step_lat nan", "config step 0", "config step -0.5",
        "config step [0.5, -0.5]", "region 50.25,10.25,99",
        "config step NaN", "config step Infinity", "config step 1e-300",
        "sgf truncated", "grid duplicate row", "grid duplicate name",
        "region 60.25,10.25", "grid value inf", "grid value nan",
        "config step 0.01", "config step 1e-310", "config byte 0xff",
        "grid byte 0xff", "region byte 0xff", "grid stamp now",
        "grid stamp empty", "config lp.h_max 3.0", "config fira.h_max 2.0",
        "config fira.lags [0.0, 0, 0]", "config seed 7.0",
        "region 50.0,10.0", "region 50.49,10.01", "sgf step_lon 0.0",
        "sgf step_lon nan", "sgf bounds degenerate", "sgf one byte too many",
        "sgf empty lat_max 1e300", "sgf empty 3e9 x 3e9",
        "sgf lat extent 1.5 steps",
    ])
    def test_malformed_input_exits_cleanly(self, tmp_path, capsys, case):
        series, grid = _tiny_grid(tmp_path)
        doc = {"grids": [grid], "baseline": {"reference_window": [2001, 2002]}}
        kind, detail = case.split(" ", 1)
        if detail == "byte 0xff":
            if kind == "region":
                (tmp_path / "region.csv").write_text("lat,lon\n50.25,10.25\n")
                doc["regions"] = [{"name": "R",
                                   "path": str(tmp_path / "region.csv")}]
        elif kind == "region":
            (tmp_path / "region.csv").write_text(f"lat,lon\n{detail}\n")
            doc["regions"] = [{"name": "R", "path": str(tmp_path / "region.csv")}]
        elif kind == "sgf":
            grid["path"] = str(tmp_path / "grid.sgf")
            write_gridded_binary(series, grid["path"])
            blob = bytearray(Path(grid["path"]).read_bytes())
            if detail == "truncated":
                del blob[-5:]
            elif detail == "one byte too many":
                blob.append(0)
            elif detail == "bounds degenerate":
                struct.pack_into("<d", blob, 12, 50.0)  # lat_max = lat_min
            elif detail == "lat extent 1.5 steps":
                # rounds to the 2 rows the frames hold, but no step divides
                struct.pack_into("<d", blob, 12, 50.75)
            elif detail.startswith("empty"):
                # no frames, so the byte count matches any grid
                del blob[56:]
                struct.pack_into("<I", blob, 52, 0)
                if detail == "empty lat_max 1e300":
                    struct.pack_into("<d", blob, 12, 1e300)
                else:  # lat_min 50, lon_min 10, both steps 0.5
                    struct.pack_into("<d", blob, 12, 50.0 + 1.5e9)
                    struct.pack_into("<d", blob, 28, 10.0 + 1.5e9)
            else:
                name, value = detail.split()
                offset = {"step_lat": 36, "step_lon": 44}[name]
                struct.pack_into("<d", blob, offset, float(value))
            Path(grid["path"]).write_bytes(bytes(blob))
        elif detail == "duplicate name":
            doc["grids"].append(dict(grid))
        elif kind == "grid":
            lines = Path(grid["path"]).read_text().splitlines(keepends=True)
            if detail == "duplicate row":
                lines.append(lines[1])
            elif detail.startswith("stamp"):
                stamp = "" if detail == "stamp empty" else "now"
                lines[3] = stamp + lines[3][len("2001-01"):]
            else:
                lines[3] = f"{lines[3].rsplit(',', 1)[0]},{detail.split()[1]}\n"
            Path(grid["path"]).write_text("".join(lines))
        elif detail.startswith("step"):
            grid["step"] = json.loads(detail.split(" ", 1)[1])
        else:
            # an integral float where the library needs an int
            key, value = detail.split(" ", 1)
            doc["factors"] = {"variable": "t", "permutation": True}
            doc["lp"] = {}
            doc["fira"] = {"variable": "t", "shocks": [
                {"magnitude": 1.0, "center": [50.5, 10.5],
                 "radius_km": 100.0}]}
            section, _, name = key.rpartition(".")
            (doc[section] if section else doc)[name] = json.loads(value)
        config = _write_config(tmp_path, doc)
        if detail == "byte 0xff":
            _spoil_line({"config": config, "grid": grid["path"],
                         "region": tmp_path / "region.csv"}[kind],
                        {"config": 3, "grid": 4, "region": 2}[kind])
        code = cli.main(["baseline", "--config", config,
                         "--out", str(tmp_path / "out"), "--quiet"])
        err = capsys.readouterr().err
        assert code in (2, 3)
        assert "Traceback" not in err
        expected = {
            "region 50.25,10.25,99": (3, "region.csv, line 2"),
            "config step NaN": (2, "grids[0].step"),
            "config step Infinity": (2, "grids[0].step"),
            "config step 1e-300": (3, "latitude step 1e-300"),
            "grid duplicate name": (2, "grids lists 't' more than once"),
            "grid value inf": (3, "grid.csv, line 4"),
            "grid value nan": (3, "grid.csv, line 4"),
            "config step 0.01": (
                3, "latitude step 0.01 and longitude step 0.01 give a 51 x 51"),
            "config step 1e-310": (3, "latitude step 1e-310"),
            "config byte 0xff": (2, "config.json, line 3: byte 0xff"),
            "grid byte 0xff": (3, "byte 0xff is not UTF-8 (" + grid["path"]
                               + ", line 4)"),
            "region byte 0xff": (3, "region.csv, line 2"),
            "region 60.25,10.25": (3, "region cell (60.25, 10.25) lies "
                                      "outside the grid ("
                                   + str(tmp_path / "region.csv")
                                   + ", line 2)"),
            # a row off every cell center is not the cell that holds it
            **{f"region {row}": (3, "is not a cell center of the grid ("
                                 + str(tmp_path / "region.csv")
                                 + ", line 2)")
               for row in ("50.0,10.0", "50.49,10.01")},
            "grid stamp now": (3, "time 'now' is not a YYYY-MM or YYYY-MM-DD "
                                  "month (" + grid["path"] + ", line 4)"),
            "grid stamp empty": (3, "time '' is not a YYYY-MM or YYYY-MM-DD "
                                    "month (" + grid["path"] + ", line 4)"),
            "config lp.h_max 3.0": (2, "key lp/h_max: 3.0 is not of type"),
            "config fira.h_max 2.0": (2, "key fira/h_max: 2.0 is not of type"),
            "config fira.lags [0.0, 0, 0]": (
                2, "key fira/lags/0: 0.0 is not of type 'integer'"),
            "config seed 7.0": (2, "key seed: 7.0 is not of type 'integer'"),
            # a 2 x 2 grid of 24 frames is 56 + 24 * (4 + 8 * 4) = 920 bytes
            **{f"sgf {damage}": (3, f"{message} ({tmp_path / 'grid.sgf'}, "
                                    f"offset {at})")
               for damage, message, at in (
                   ("step_lat 0.0", "grid step 0.0 must be finite and "
                                    "positive", 36),
                   ("step_lat nan", "grid step nan must be finite and "
                                    "positive", 36),
                   ("step_lon 0.0", "grid step 0.0 must be finite and "
                                    "positive", 44),
                   ("step_lon nan", "grid step nan must be finite and "
                                    "positive", 44),
                   ("bounds degenerate", "degenerate grid bounds", 4),
                   ("lat extent 1.5 steps", "degenerate grid bounds", 4),
                   ("truncated", "expected 920 bytes for 24 frames, got 915",
                    915),
                   ("one byte too many", "expected 920 bytes for 24 frames, "
                                         "got 921", 920),
                   ("empty lat_max 1e300", "a 2e+300 x 2 grid is too large "
                                           "for one frame record", 4),
                   ("empty 3e9 x 3e9", "a 3e+09 x 3e+09 grid is too large "
                                       "for one frame record", 4))},
        }.get(case)
        if expected:
            assert code == expected[0] and expected[1] in err

    @pytest.mark.parametrize("kind", ["config", "grid", "region"])
    def test_a_byte_order_mark_reads_as_no_mark(self, tmp_path, kind):
        # spreadsheet exports start a UTF-8 file with one
        _, grid = _tiny_grid(tmp_path)
        region = tmp_path / "region.csv"
        region.write_text("lat,lon\n50.25,10.25\n")
        config = _write_config(tmp_path, {
            "grids": [grid], "baseline": {"reference_window": [2001, 2002]},
            "regions": [{"name": "R", "path": str(region)}]})

        def run(out):
            assert cli.main(["baseline", "--config", config,
                             "--out", str(out), "--quiet"]) == 0
            return _tree_digest(out)

        plain = run(tmp_path / "plain")
        path = Path({"config": config, "grid": grid["path"],
                     "region": region}[kind])
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert run(tmp_path / "marked") == plain

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = _write_config(tmp_path, {"grids": [], "bogus": 1})
        code = cli.main(["baseline", "--config", config,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "bogus" in capsys.readouterr().err
        # anomaly.region was once accepted and then ignored
        config = _write_config(tmp_path, {
            "grids": [], "anomaly": {"region": "EA"}}, "region.json")
        code = cli.main(["anomaly", "--config", config,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "'region' was unexpected" in capsys.readouterr().err


class TestInputPaths:
    @pytest.mark.parametrize("case,named", [
        ("grid directory", "config key grids[0].path"),
        ("panel directory", "config key panels.sectors.path"),
        ("region directory", "config key regions[0].path"),
        ("region missing", "config key regions[0].path"),
        ("config directory", "--config"),
        ("out is a file", "--out"),
        ("output_dir is a file", "config key output_dir"),
    ])
    def test_unreadable_path_names_its_key_or_flag(self, tmp_path, capsys,
                                                   case, named):
        # directories, not permissions: tests may run as root
        series, grid = _tiny_grid(tmp_path)
        write_panel_csv(SectorPanel(series.times, ("A",), np.ones((24, 1))),
                        tmp_path / "sectors.csv")
        folder = tmp_path / "folder"
        folder.mkdir()
        out = tmp_path / "out"
        doc = {"grids": [grid],
               "baseline": {"reference_window": [2001, 2002]},
               "regions": [{"name": "R", "cells": "all"}],
               "panels": {"sectors": {"path": str(tmp_path / "sectors.csv"),
                                      "transform": "none"}},
               "shocks": {"variable": "t", "threshold": 0.5},
               "lp": {"h_max": 1, "p_max": 1, "l_max": 1}}
        if case == "grid directory":
            grid["path"] = str(folder)
        elif case == "panel directory":
            doc["panels"]["sectors"]["path"] = str(folder)
        elif case.startswith("region"):
            doc["regions"] = [{"name": "R", "path": str(
                folder if case == "region directory"
                else tmp_path / "nope.csv")}]
        elif case.endswith("is a file"):
            out.write_text("")
        if case == "output_dir is a file":
            doc["output_dir"] = str(out)
        config = _write_config(tmp_path, doc)
        argv = ["lp", "--config",
                str(folder) if case == "config directory" else config,
                "--quiet"]
        if case != "output_dir is a file":
            argv += ["--out", str(out)]
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 2, err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["grid", "panel", "region"])
    @pytest.mark.parametrize("case", [
        "empty file", "header only", "blank line before a short row",
        "byte 0xff", "quoted field over two lines before a short row",
    ])
    def test_csv_input_errors_name_file_and_line(self, tmp_path, capsys,
                                                 kind, case):
        # lp reads the grid, then the region file, then the panel, each
        # through the one CSV row reader
        series, grid = _tiny_grid(tmp_path)
        paths = {"grid": Path(grid["path"]),
                 "panel": tmp_path / "sectors.csv",
                 "region": tmp_path / "region.csv"}
        write_panel_csv(SectorPanel(series.times, ("A",), np.ones((24, 1))),
                        paths["panel"])
        paths["region"].write_text("lat,lon\n50.25,10.25\n50.25,10.75\n")
        path = paths[kind]
        lines = path.read_text().splitlines(keepends=True)
        n_fields = lines[0].count(",") + 1
        if case == "empty file":
            path.write_text("")
        elif case == "header only":
            path.write_text(lines[0])
        elif case == "blank line before a short row":
            short = lines[2].split(",")[0]
            path.write_text("".join(lines[:2]) + "\n" + short + "\n")
        elif case.startswith("quoted field"):
            # the first data row's last number ends in a quoted line break
            first, last = lines[1].rstrip("\n").rsplit(",", 1)
            short = lines[2].split(",")[0]
            path.write_text(f'{lines[0]}{first},"{last}\n"\n{short}\n')
        else:
            _spoil_line(path, 3)
        config = _write_config(tmp_path, {
            "grids": [grid],
            "baseline": {"reference_window": [2001, 2002]},
            "regions": [{"name": "R", "path": str(paths["region"])}],
            "panels": {"sectors": {"path": str(paths["panel"]),
                                   "transform": "none"}},
            "shocks": {"variable": "t", "threshold": 0.5},
            "lp": {"h_max": 1, "p_max": 1, "l_max": 1}})
        code = cli.main(["lp", "--config", config,
                         "--out", str(tmp_path / "out"), "--quiet"])
        message, line = {
            "empty file": ("empty file", 1),
            "header only": ("no data rows", 2),
            "blank line before a short row": (
                f"expected {n_fields} fields, got 1", 4),
            "byte 0xff": ("byte 0xff is not UTF-8", 3),
            "quoted field over two lines before a short row": (
                f"expected {n_fields} fields, got 1", 4),
        }[case]
        assert code == 3
        assert capsys.readouterr().err == (
            f"data error: {message} ({path}, line {line})\n")

    @pytest.mark.parametrize("kind,commands", [
        ("panel", ("lp", "factors", "fira")),
        ("grid", ("baseline", "anomaly", "shocks", "lp", "factors", "fira")),
    ])
    def test_a_stray_quote_in_a_large_input_is_a_data_error(
            self, tmp_path, capsys, kind, commands):
        # from an unmatched quote, csv reads the rest of the file as one
        # field, which here runs past the csv module's 131,072-byte limit
        data = tmp_path / "data"
        synth = _write_config(tmp_path, {
            "synth": {"kind": "planted-lp", "sectors": 80}}, "synth.json")
        assert cli.main(["synth", "--config", synth, "--out", str(data),
                         "--quiet"]) == 0
        path = data / ("sectors.csv" if kind == "panel" else "temperature.csv")
        lines = path.read_text().split("\n")
        lines[3] = lines[3].replace(",", ',"', 1)
        path.write_text("\n".join(lines))
        assert len("\n".join(lines[3:]).encode()) > 131072
        config = _write_config(tmp_path, {
            "grids": [{"name": "temperature",
                       "path": str(data / "temperature.csv")}],
            "panels": {"sectors": {"path": str(data / "sectors.csv"),
                                   "transform": "none"}},
            "shocks": {"variable": "temperature"},
            "factors": {"variable": "temperature", "k": 1},
            "fira": {"variable": "temperature", "k": 1, "shocks": [
                {"magnitude": 1.0, "center": [48.0, 8.0],
                 "radius_km": 200.0}]},
        })
        for command in commands:
            code = cli.main([command, "--config", config,
                             "--out", str(tmp_path / command), "--quiet"])
            err = capsys.readouterr().err
            assert (command, code) == (command, 3), err
            assert err.endswith(f"({path}, line 4)\n")
            assert "field limit" in err and "Traceback" not in err

    def test_a_stray_quote_in_a_small_input_is_a_short_row(self, tmp_path,
                                                           capsys):
        # the same mutation, in a file under the csv field limit
        series, grid = _tiny_grid(tmp_path)
        path = Path(grid["path"])
        lines = path.read_text().split("\n")
        lines[3] = lines[3].replace(",", ',"', 1)
        path.write_text("\n".join(lines))
        config = _write_config(tmp_path, {
            "grids": [grid], "baseline": {"reference_window": [2001, 2002]}})
        assert cli.main(["baseline", "--config", config,
                         "--out", str(tmp_path / "out"), "--quiet"]) == 3
        assert capsys.readouterr().err == (
            f"data error: expected 4 fields, got 2 ({path}, line 4)\n")

    def test_region_row_within_a_millionth_of_a_step_is_its_cell(
            self, tmp_path):
        series, grid = _tiny_grid(tmp_path)
        region = tmp_path / "region.csv"
        region.write_text("lat,lon\n50.2500001,10.7499999\n")
        config = _write_config(tmp_path, {
            "grids": [grid], "baseline": {"reference_window": [2001, 2002]},
            "regions": [{"name": "R", "path": str(region)}]})
        out = tmp_path / "out"
        assert cli.main(["baseline", "--config", config,
                         "--out", str(out), "--quiet"]) == 0
        with open(out / "baseline_summary.csv", newline="") as fh:
            assert [r["region"] for r in csv.DictReader(fh)] == ["R"]

    def test_region_with_cells_and_path_is_a_config_error(self, tmp_path,
                                                          capsys):
        series, grid = _tiny_grid(tmp_path)
        config = _write_config(tmp_path, {
            "grids": [grid], "baseline": {"reference_window": [2001, 2002]},
            "regions": [{"name": "R", "cells": "all",
                         "path": str(tmp_path / "nope.csv")}]})
        assert cli.main(["baseline", "--config", config,
                         "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert "config key regions[0]" in capsys.readouterr().err

    def test_a_step_for_a_format_b_grid_is_config_error(self, tmp_path,
                                                         capsys):
        # the file's header sets its step; the key would go unread
        series, grid = _tiny_grid(tmp_path)
        grid["path"] = str(tmp_path / "grid.sgf")
        grid["step"] = 0.37
        write_gridded_binary(series, grid["path"])
        config = _write_config(tmp_path, {
            "grids": [grid], "baseline": {"reference_window": [2001, 2002]}})
        out = tmp_path / "out"
        assert cli.main(["baseline", "--config", config, "--out", str(out),
                         "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"config error: config key grids[0].step: {grid['path']} is "
            f"format B, whose header sets the step; a step of 0.37 would "
            f"not be read\n")
        del grid["step"]
        config = _write_config(tmp_path, {
            "grids": [grid], "baseline": {"reference_window": [2001, 2002]}})
        assert cli.main(["baseline", "--config", config, "--out", str(out),
                         "--quiet"]) == 0

    def test_an_unwritable_output_is_config_error(self, tmp_path, capsys):
        # a directory where synth writes its manifest: open fails on output
        out = tmp_path / "out"
        (out / "synth_manifest.json").mkdir(parents=True)
        config = _write_config(tmp_path, {
            "synth": {"kind": "normals", "step": 4.0}})
        assert cli.main(["synth", "--config", config, "--out", str(out),
                         "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot write "
            f"{str(out / 'synth_manifest.json')!r} (Is a directory)\n")


def _unread_inputs(tmp_path):
    """A config that every command accepts, whose input paths do not
    exist, so a command that passes the config checks exits 2 naming a
    path."""
    return {
        "grids": [{"name": "t", "path": str(tmp_path / "none.csv")}],
        "panels": {"sectors": {"path": str(tmp_path / "none_sectors.csv")}},
        "regions": [{"name": "R", "cells": "all"}],
        "shocks": {"variable": "t", "threshold": "auto",
                   "variants": ["all", "extreme"]},
        "factors": {"variable": "t", "permutation": True},
        "fira": {"variable": "t", "shocks": [
            {"magnitude": 1.0, "center": [50.5, 10.5], "radius_km": 100.0}]},
        "synth": {"kind": "planted-factor", "snr": 2.0},
    }


class TestConfigRules:
    """The rules between keys hold over the whole document, so each one
    fails every command before any input is read or any output made."""

    @pytest.mark.parametrize("rule,edit,message", [
        ("unknown grid", {"shocks": {"variable": "u"}},
         "config names unknown grid variable 'u'"),
        ("unknown anomaly variable", {"anomaly": {"variables": ["t", "u"]}},
         "config names unknown grid variable 'u'"),
        ("repeated grid", {"grids": [{"name": "t", "path": "a.csv"},
                                     {"name": "t", "path": "b.csv"}]},
         "config key grids lists 't' more than once"),
        ("region with cells and path",
         {"regions": [{"name": "R", "cells": "all", "path": "r.csv"}]},
         "config key regions[0] needs exactly one of cells and path"),
        ("region with neither", {"regions": [{"name": "R"}]},
         "config key regions[0] needs exactly one of cells and path"),
        ("unknown shock region", {"shocks": {"region": "XX"}},
         "config names unknown region 'XX'"),
        ("k beside a null", {"factors": {"k": 2}},
         "config keys factors.k and factors.permutation exclude each other"),
        ("fira k beside a null", {"fira": {"k": 1, "permutation": {}}},
         "config keys fira.k and fira.permutation exclude each other"),
        ("control lags without controls", {"fira": {"lags": [0, 0, 1]}},
         "config key fira.lags asks for 1 control lag(s), but "
         "panels.controls is absent"),
        ("window beside a numeric threshold",
         {"shocks": {"threshold": 0.5, "threshold_window": [2001, 2010]}},
         "config key shocks.threshold_window sets the window of the auto "
         "threshold, but shocks.threshold is a number"),
        ("extreme multiplier without extreme",
         {"shocks": {"variants": ["all"], "extreme_multiplier": 2.0}},
         "config key shocks.extreme_multiplier needs 'extreme' in "
         "shocks.variants"),
        ("extreme multiplier on default variants",
         {"shocks": {"variants": None, "extreme_multiplier": 2.0}},
         "config key shocks.extreme_multiplier needs 'extreme' in "
         "shocks.variants"),
        ("synth years outside normals",
         {"synth": {"kind": "planted-lp", "snr": None, "years": [1990, 2000]}},
         "config key synth.years is not read by synth kind 'planted-lp'"),
        ("synth warming outside normals",
         {"synth": {"kind": "fira-demo", "snr": None, "warming": 1.0}},
         "config key synth.warming is not read by synth kind 'fira-demo'"),
        ("synth snr outside planted-factor", {"synth": {"kind": "fira-demo"}},
         "config key synth.snr is not read by synth kind 'fira-demo'"),
        ("synth sectors under normals",
         {"synth": {"kind": "normals", "snr": None, "sectors": 4}},
         "config key synth.sectors is not read by synth kind 'normals'"),
        ("synth months under normals",
         {"synth": {"kind": "normals", "snr": None, "months": 60}},
         "config key synth.months is not read by synth kind 'normals'"),
        ("contemporaneous controls without controls",
         {"lp": {"contemporaneous_controls": True}},
         "config key lp.contemporaneous_controls is true, but "
         "panels.controls is absent"),
        ("tol beside k",
         {"fira": {"k": 2, "tol": 0.5}},
         "config key fira.tol is not read when fira.k is set"),
        ("fira-demo with fewer than 3 sectors",
         {"synth": {"kind": "fira-demo", "snr": None, "sectors": 2}},
         "config key synth.sectors is 2, but synth kind 'fira-demo' plants "
         "its signal in sector CP002, so it needs at least 3"),
        ("reversed reference window",
         {"baseline": {"reference_window": [1980, 1950]}},
         "config key baseline.reference_window starts in 1980, after it "
         "ends in 1950"),
        ("reversed threshold window",
         {"shocks": {"threshold_window": [2021, 2001]}},
         "config key shocks.threshold_window starts in 2021, after it ends "
         "in 2001"),
        ("reversed synth years",
         {"synth": {"kind": "normals", "snr": None, "years": [1990, 1960]}},
         "config key synth.years starts in 1990, after it ends in 1960"),
        ("synth step that does not tile the bounds",
         {"synth": {"kind": "planted-lp", "snr": None, "step": 7.0}},
         "config key synth.step: step 7.0 does not divide the latitude "
         "extent 16.0"),
        ("synth warming over the reference years",
         {"synth": {"kind": "normals", "snr": None, "years": [1990, 2001],
                    "warming": 1.0}},
         "config key synth.years ends in 2001, but synth.warming shifts "
         "every year from 2001 on, so the reference years must end before "
         "it"),
        ("synth step too fine to build",
         {"synth": {"kind": "normals", "snr": None, "step": 0.0001}},
         "config key synth.step: synth kind 'normals' would hold more than "
         "100,000,000 grid and panel values"),
        ("synth sectors too many to build",
         {"synth": {"kind": "planted-lp", "snr": None,
                    "sectors": 2000000000}},
         "config key synth.sectors: synth kind 'planted-lp' would hold more "
         "than 100,000,000 grid and panel values"),
        ("synth months too many to build",
         {"synth": {"kind": "fira-demo", "snr": None, "months": 100000000}},
         "config key synth.months: synth kind 'fira-demo' would hold more "
         "than 100,000,000 grid and panel values"),
        ("synth step too fine to count",
         {"synth": {"kind": "normals", "snr": None, "step": 5e-324}},
         "config key synth.step: step 5e-324 does not divide the latitude "
         "extent 16.0"),
        ("planted-lp months past its shock",
         {"synth": {"kind": "planted-lp", "snr": None, "months": 300}},
         "config key synth.months is 300, but synth kind 'planted-lp' "
         "builds its panel on the 252 months of its shock, 2001-2021, so it "
         "takes at most 252"),
        ("synth years past a four-digit stamp",
         {"synth": {"kind": "normals", "snr": None, "step": 4.0,
                    "years": [9990, 10010]}},
         "config key synth.years holds 10010, but a month stamp holds a year "
         "from 0 to 9999"),
        ("synth years before year 0",
         {"synth": {"kind": "normals", "snr": None, "format": "binary",
                    "years": [-6000000, -5999999]}},
         "config key synth.years holds -6000000, but a month stamp holds a "
         "year from 0 to 9999"),
    ])
    def test_a_broken_rule_fails_every_command_first(self, tmp_path, capsys,
                                                     rule, edit, message):
        doc = _unread_inputs(tmp_path)
        for key, value in edit.items():
            if isinstance(value, dict):
                # merged into the section; None drops the key
                value = {k: v for k, v in {**doc.get(key, {}), **value}.items()
                         if v is not None}
            doc[key] = value
        config = _write_config(tmp_path, doc)
        out = tmp_path / "out"
        for command in cli.COMMANDS:
            code = cli.main([command, "--config", config, "--out", str(out),
                             "--quiet"])
            assert (command, code, capsys.readouterr().err) == (
                command, 2, f"config error: {message}\n")
            assert not out.exists()

    @pytest.mark.parametrize("edit", [
        {"synth": {"kind": "fira-demo", "sectors": 3}},
        {"synth": {"kind": "normals", "years": [1970, 1970]}},
        {"synth": {"kind": "normals", "years": [0, 9999]}},
        {"baseline": {"reference_window": [1980, 1980]},
         "shocks": {"variable": "t", "threshold_window": [2001, 2001]}},
        {"synth": {"kind": "normals", "warming": 1.0}},
        {"synth": {"kind": "normals", "years": [1960, 2000], "warming": 1.0}},
        {"synth": {"kind": "fira-demo", "step": 1.0}},
        {"synth": {"kind": "planted-lp", "months": 252}},
        # 72 cells and 28 sectors over 10**6 months: the bound exactly
        {"synth": {"kind": "planted-factor", "sectors": 28,
                   "months": 1000000}},
    ])
    def test_the_edges_of_the_sector_and_window_rules_pass(self, tmp_path,
                                                          edit):
        doc = {**_unread_inputs(tmp_path), **edit}
        assert cfg.check_rules(doc) is doc

    def test_the_unbroken_config_reaches_the_first_input(self, tmp_path,
                                                         capsys):
        # an absent regions key is one region named ALL
        doc = _unread_inputs(tmp_path)
        del doc["regions"]
        doc["shocks"]["region"] = "ALL"
        config = _write_config(tmp_path, doc)
        for command in set(cli.COMMANDS) - {"synth"}:
            code = cli.main([command, "--config", config,
                             "--out", str(tmp_path / "out"), "--quiet"])
            assert code == 2
            assert capsys.readouterr().err.startswith(
                "config error: config key grids[0].path: cannot read ")

    def test_lp_keys_on_controls_pass_without_controls(self, tmp_path,
                                                       capsys):
        # a false contemporaneous_controls asks for nothing, and l_max
        # is set by configs that also run without controls
        doc = _unread_inputs(tmp_path)
        doc["lp"] = {"contemporaneous_controls": False, "l_max": 3}
        config = _write_config(tmp_path, doc)
        assert cli.main(["lp", "--config", config,
                         "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: config key grids[0].path: cannot read ")

    @pytest.mark.parametrize("command,drop,key", [
        ("baseline", "grids", "grids"),
        ("anomaly", "grids", "grids"),
        ("shocks", "shocks", "shocks"),
        ("lp", "panels", "panels.sectors"),
        ("factors", "factors", "factors"),
        ("fira", "fira", "fira"),
        ("synth", "synth", "synth"),
        ("baseline", "output_dir", "output_dir (or pass --out)"),
    ])
    def test_a_missing_section_fails_before_any_input(self, tmp_path, capsys,
                                                      command, drop, key):
        doc = _unread_inputs(tmp_path)
        if drop == "grids":
            # no section may name a grid the document lacks
            for name in ("grids", "shocks", "factors", "fira"):
                del doc[name]
        elif drop != "output_dir":
            del doc[drop]
        argv = [command, "--config", _write_config(tmp_path, doc), "--quiet"]
        if drop != "output_dir":
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: config is missing required key {key}\n")
        assert not (tmp_path / "out").exists()


class TestAnomaly:
    def test_regional_series_and_optional_grids(self, normals_fixture,
                                                tmp_path):
        config = _write_config(tmp_path, {
            "grids": _grid_entries(normals_fixture)[:1],
            "regions": [{"name": "EA", "cells": "all"}],
            "anomaly": {"variables": ["temperature"], "write_grids": True},
        })
        out = tmp_path / "out"
        assert cli.main(["anomaly", "--config", config, "--out", str(out),
                         "--quiet"]) == 0
        series_csv = out / "anomaly_mean_temperature_EA.csv"
        assert series_csv.exists()
        with open(series_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        # the fixture plants a +1.3 mean deviation over 2001-2021
        recent = [float(r["value"]) for r in rows
                  if r["time"] >= "2001-01"]
        assert abs(np.mean(recent) - 1.3) < 1e-9
        assert (out / "anomaly_temperature.csv").exists()

    def test_each_raw_grid_is_let_go_once_its_anomalies_exist(
            self, normals_fixture, tmp_path, monkeypatch):
        # the command holds each variable's anomalies, never its raw grid
        from climfact import climatology, ingest

        grids, alive = [], []

        def load_gridded(*args, _real=ingest.load_gridded, **kwargs):
            series = _real(*args, **kwargs)
            grids.append(weakref.ref(series))
            return series

        def regional_mean(*args, _real=climatology.regional_mean, **kwargs):
            alive.append(sum(grid() is not None for grid in grids))
            return _real(*args, **kwargs)

        monkeypatch.setattr(ingest, "load_gridded", load_gridded)
        monkeypatch.setattr(climatology, "regional_mean", regional_mean)
        config = _write_config(tmp_path, {
            "grids": _grid_entries(normals_fixture),
            "regions": [{"name": "EA", "cells": "all"}],
        })
        assert cli.main(["anomaly", "--config", config,
                         "--out", str(tmp_path / "out"), "--quiet"]) == 0
        assert len(grids) == len(alive) == 4
        assert max(alive) <= 1


    def test_unknown_variable_is_config_error(self, normals_fixture,
                                              tmp_path, capsys):
        config = _write_config(tmp_path, {
            "grids": _grid_entries(normals_fixture)[:1],
            "anomaly": {"variables": ["temperature", "humidity"]},
        })
        assert cli.main(["anomaly", "--config", config,
                         "--out", str(tmp_path / "out")]) == 2
        assert "'humidity'" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,named", [
        ("regions", [], "config key regions: [] should be non-empty"),
        ("variables", [],
         "config key anomaly/variables: [] should be non-empty"),
        ("regions", [{"name": "EA", "cells": "all"}] * 2,
         "config key regions lists 'EA' more than once"),
        ("variables", ["temperature", "temperature"],
         "config key anomaly.variables lists 'temperature' more than once"),
    ])
    def test_empty_or_repeated_list_exits_cleanly(self, normals_fixture,
                                                  tmp_path, capsys, key,
                                                  value, named):
        # an empty list would fall back to every region or grid; a repeat
        # would collapse into one, or overwrite the first region's files
        doc = {"grids": _grid_entries(normals_fixture)[:1],
               "regions": [{"name": "EA", "cells": "all"}],
               "anomaly": {"variables": ["temperature"]}}
        (doc if key == "regions" else doc["anomaly"])[key] = value
        config = _write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["anomaly", "--config", config, "--out", str(out),
                         "--quiet"]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()


class TestDeterminism:
    def test_rerun_is_byte_identical(self, normals_fixture, tmp_path):
        config_doc = {
            "grids": _grid_entries(normals_fixture)[:1],
            "regions": [{"name": "EA", "cells": "all"}],
            "shocks": {"variable": "temperature", "threshold": "auto",
                       "variants": ["all", "summer", "negative", "extreme"]},
        }
        digests = []
        for run in ("one", "two"):
            config = _write_config(tmp_path, config_doc, f"cfg_{run}.json")
            out = tmp_path / run
            assert cli.main(["shocks", "--config", config, "--out", str(out),
                             "--quiet"]) == 0
            digests.append(_tree_digest(out))
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_synth_rerun_identical(self, tmp_path, kind, fmt):
        # each kind at its default keys, in both formats
        config = _write_config(tmp_path, {
            "synth": {"kind": kind, "format": fmt}})
        digests = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert cli.main(["synth", "--config", config, "--out",
                             str(out), "--quiet"]) == 0
            digests.append(_tree_digest(out))
        assert digests[0] == digests[1]


class TestShocks:
    def test_auto_threshold_and_reports(self, normals_fixture, tmp_path):
        config = _write_config(tmp_path, {
            "grids": _grid_entries(normals_fixture)[:1],
            "shocks": {"variable": "temperature", "threshold": "auto",
                       "variants": ["all", "positive", "negative"]},
        })
        out = tmp_path / "out"
        assert cli.main(["shocks", "--config", config, "--out", str(out),
                         "--quiet"]) == 0
        report = json.loads((out / "shocks_report.json").read_text())
        assert report["threshold"] == pytest.approx(1.30, abs=1e-6)
        assert (out / "shocks_all.csv").exists()
        # positive-filtered events must also appear in the all filter
        assert report["events"]["positive"] == report["events"]["all"]

    def test_omitted_variants_run_all_only(self, normals_fixture, tmp_path):
        # not the eight variants that shock_variants defaults to
        config = _write_config(tmp_path, {
            "grids": _grid_entries(normals_fixture)[:1],
            "shocks": {"variable": "temperature", "threshold": 1.0},
        })
        out = tmp_path / "out"
        assert cli.main(["shocks", "--config", config, "--out", str(out),
                         "--quiet"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "shocks_all.csv", "shocks_report.json"]
        report = json.loads((out / "shocks_report.json").read_text())
        assert list(report["events"]) == ["all"]
        # a numeric threshold reads no window
        assert report["threshold_window"] is None

    def test_nonpositive_auto_threshold_is_data_error(self, tmp_path,
                                                      capsys):
        data = tmp_path / "cooled"
        synth_config = _write_config(tmp_path, {
            "synth": {"kind": "normals", "step": 4.0, "warming": -0.5},
        }, "synth.json")
        assert cli.main(["synth", "--config", synth_config,
                         "--out", str(data), "--quiet"]) == 0
        config = _write_config(tmp_path, {
            "grids": [{"name": "temperature",
                       "path": str(data / "temperature.csv")}],
            "shocks": {"variable": "temperature", "threshold": "auto"},
        })
        code = cli.main(["shocks", "--config", config,
                         "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "2001-2021" in err and "threshold" in err
        assert "Traceback" not in err


# every key each kind's builder reads, away from its default
_SYNTH_KEYS = {
    "normals": {"step": 4.0, "years": [1960, 1990], "warming": 1.0},
    "planted-lp": {"step": 4.0, "sectors": 2, "months": 100},
    "planted-factor": {"step": 0.5, "sectors": 4, "months": 60, "snr": 5.0},
    "fira-demo": {"step": 1.0, "sectors": 5, "months": 80},
}


class TestSynth:
    def test_each_builder_takes_the_keys_its_kind_reads(self):
        from climfact import synth
        from climfact.config import SCHEMA

        schema = SCHEMA["properties"]["synth"]["properties"]
        assert list(synth.KINDS) == schema["kind"]["enum"]
        read = set()
        for kind, builder in synth.KINDS.items():
            rng, *keys = inspect.signature(builder).parameters
            assert set(_SYNTH_KEYS[kind]) == set(keys)
            read.update(keys)
        # the schema takes no key that every kind leaves unread
        assert set(schema) == {"kind", "format", *read}

    @pytest.mark.parametrize("kind", list(_SYNTH_KEYS))
    def test_every_key_a_kind_reads_takes_effect(self, tmp_path, kind):
        from climfact import synth

        keys = _SYNTH_KEYS[kind]
        config = _write_config(tmp_path, {"synth": {"kind": kind, **keys}})
        out = tmp_path / "out"
        assert cli.main(["synth", "--config", config, "--out", str(out),
                         "--quiet"]) == 0
        manifest = json.loads((out / "synth_manifest.json").read_text())
        assert sorted(p.name for p in out.iterdir()) == sorted(
            manifest["files"] + ["synth_manifest.json"])
        grid = load_gridded(out / manifest["files"][0])
        assert grid.domain.step_lat == keys["step"]
        # the bounds synth.check tiles with synth.step
        domain = grid.domain
        assert (domain.lat_min, domain.lat_max, domain.lon_min,
                domain.lon_max) == synth._KIND_BOUNDS[kind]
        if kind == "normals":
            assert str(grid.times[0]) == "1960-01"
            assert str(grid.times[-1]) == "2021-12"  # warming runs to 2021
        else:
            panel = load_sector_panel(out / "sectors.csv", transform="none")
            assert panel.values.shape == (keys["months"], keys["sectors"])

    def test_a_step_that_does_not_tile_the_bounds_is_config_error(
            self, tmp_path, capsys):
        config = _write_config(tmp_path, {
            "synth": {"kind": "planted-lp", "step": 7.0}})
        assert cli.main(["synth", "--config", config,
                         "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "config error: config key synth.step: step 7.0 does not divide "
            "the latitude extent 16.0\n")

    @pytest.mark.parametrize("fmt,suffix", [("csv", "csv"),
                                            ("binary", "sgf")])
    def test_planted_lp_threshold_is_the_shocks_threshold(self, tmp_path,
                                                          fmt, suffix):
        data = tmp_path / "data"
        config = _write_config(tmp_path, {
            "synth": {"kind": "planted-lp", "format": fmt}}, "synth.json")
        assert cli.main(["synth", "--config", config, "--out", str(data),
                         "--quiet"]) == 0
        config = _write_config(tmp_path, {
            "grids": [{"name": "temperature",
                       "path": str(data / f"temperature.{suffix}")}],
            "shocks": {"variable": "temperature"}})
        out = tmp_path / "out"
        assert cli.main(["shocks", "--config", config, "--out", str(out),
                         "--quiet"]) == 0
        manifest = json.loads((data / "synth_manifest.json").read_text())
        report = json.loads((out / "shocks_report.json").read_text())
        assert manifest["planted"]["threshold"] == report["threshold"]


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    root = tmp_path_factory.mktemp("planted_lp")
    config = _write_config(root, {
        "seed": 3,
        "output_dir": str(root / "data"),
        "synth": {"kind": "planted-lp", "step": 2.0, "sectors": 3},
    })
    assert cli.main(["synth", "--config", config, "--quiet"]) == 0
    return root


class TestContext:
    """One context per invocation reads and derives each input once."""

    def test_each_input_is_read_and_derived_once(self, planted, tmp_path,
                                                  monkeypatch):
        from climfact import climatology, ingest

        calls = []
        for module, name in ((ingest, "load_gridded"),
                             (climatology, "compute_baseline")):
            def counted(*args, _real=getattr(module, name), _name=name,
                        **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        data = planted / "data"
        ctx = cli.Context(cfg.load_config(_write_config(tmp_path, {
            "grids": [{"name": "temperature",
                       "path": str(data / "temperature.csv")}],
            "panels": {"sectors": {"path": str(data / "sectors.csv")}},
            "shocks": {"variable": "temperature"},
        })))
        anomalies = ctx.anomalies("temperature")
        assert ctx.shocks().table["all"].n_events > 0
        assert ctx.anomalies("temperature") is anomalies
        ctx.baseline("temperature")
        assert calls == ["load_gridded", "compute_baseline"]
        assert ctx.panel("controls") is None

    def test_a_grid_is_let_go_once_its_anomalies_exist(self, planted):
        # factors and fira hold only the anomalies, as they did before the
        # context kept inputs; the raw grid is as large again
        path = str(planted / "data" / "temperature.csv")
        ctx = cli.Context({"grids": [{"name": "temperature", "path": path}]})
        grid = weakref.ref(ctx.grid("temperature"))
        anomalies = ctx.anomalies("temperature")
        assert grid() is None
        assert ctx.regions(anomalies.domain) == {"ALL": None}

    def test_an_unreadable_grid_names_its_key(self, tmp_path):
        ctx = cli.Context({"grids": [{"name": "t", "path": str(tmp_path)}]})
        with pytest.raises(ConfigError,
                           match=r"^config key grids\[0\]\.path: cannot read"):
            ctx.grid("t")


class TestLp:

    def test_battery_outputs_and_planted_cell(self, planted, tmp_path):
        config = _write_config(tmp_path, {
            "grids": [{"name": "temperature",
                       "path": str(planted / "data" / "temperature.csv")}],
            "panels": {"sectors": {
                "path": str(planted / "data" / "sectors.csv"),
                "transform": "none"}},
            "shocks": {"variable": "temperature", "threshold": "auto",
                       "variants": ["all"]},
            "lp": {"h_max": 6, "p_max": 2, "l_max": 1,
                   "lag_selection": "fixed"},
        })
        out = tmp_path / "out"
        assert cli.main(["lp", "--config", config, "--out", str(out),
                         "--quiet"]) == 0
        files = sorted(p.name for p in out.glob("lp_*.csv"))
        assert files == ["lp_CP000_all.csv", "lp_CP001_all.csv",
                         "lp_CP002_all.csv"]
        assert (out / "failures.csv").exists()
        assert len(list(out.glob("lp_*.svg"))) == 3
        with open(out / "lp_CP000_all.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        h0 = rows[0]
        assert float(h0["lo"]) > 0.0  # planted contemporaneous response
        assert h0["sector"] == "CP000" and int(h0["h"]) == 0

    def test_matching_endogenous_column_is_sector_specific(self, planted,
                                                           tmp_path, rng):
        # counterpart panel: a column matching CP000 plus one shared series;
        # CP001 has no counterpart and must still estimate cleanly
        sectors_csv = planted / "data" / "sectors.csv"
        with open(sectors_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        times = [r[0] for r in rows[1:]]
        extra = tmp_path / "endogenous.csv"
        lines = ["time,CP000,IPX"]
        for t in times:
            lines.append(f"{t},{rng.normal()!r},{rng.normal()!r}")
        extra.write_text("\n".join(lines) + "\n")
        config = _write_config(tmp_path, {
            "grids": [{"name": "temperature",
                       "path": str(planted / "data" / "temperature.csv")}],
            "panels": {
                "sectors": {"path": str(sectors_csv), "transform": "none"},
                "endogenous": {"path": str(extra), "transform": "none"},
            },
            "shocks": {"variable": "temperature", "threshold": "auto",
                       "variants": ["all"]},
            "lp": {"h_max": 2, "p_max": 1, "l_max": 1,
                   "lag_selection": "fixed", "figures": False,
                   "sectors": ["CP000", "CP001"]},
        })
        out = tmp_path / "out"
        assert cli.main(["lp", "--config", config, "--out", str(out),
                         "--quiet"]) == 0
        assert (out / "lp_CP000_all.csv").exists()
        assert (out / "lp_CP001_all.csv").exists()
        assert (out / "failures.csv").read_text().count("\n") == 1

    def test_endogenous_subsets_follow_the_configured_order(self, planted,
                                                            tmp_path, rng):
        # CP000 has a counterpart column, every sector shares IPX; the
        # extreme variant at a huge multiplier has no events, so each of
        # its cells fails
        data = planted / "data"
        panel = load_sector_panel(data / "sectors.csv", transform="none")
        extra_csv = tmp_path / "endogenous.csv"
        write_panel_csv(SectorPanel(panel.times, ("CP000", "IPX"),
                                    rng.normal(size=(len(panel.times), 2))),
                        extra_csv)
        order = ["CP002", "CP001", "CP000"]
        config = _write_config(tmp_path, {
            "grids": [{"name": "temperature",
                       "path": str(data / "temperature.csv")}],
            "panels": {
                "sectors": {"path": str(data / "sectors.csv"),
                            "transform": "none"},
                "endogenous": {"path": str(extra_csv), "transform": "none"},
            },
            "shocks": {"variable": "temperature",
                       "variants": ["all", "extreme"],
                       "extreme_multiplier": 1000.0},
            "lp": {"h_max": 3, "p_max": 2, "l_max": 1, "figures": False,
                   "sectors": order},
        })
        out = tmp_path / "out"
        assert cli.main(["lp", "--config", config, "--out", str(out),
                         "--quiet"]) == 0

        grid = load_gridded(data / "temperature.csv")
        scalar = regional_mean(anomaly(grid, compute_baseline(grid)))
        shocks = shock_variants(scalar, default_threshold(scalar),
                                extreme_multiplier=1000.0,
                                variants=("all", "extreme"))
        extra = load_control_panel(extra_csv, transform="none")
        spec = LpSpec(h_max=3, p_max=2, l_max=1)
        for sector in order:
            ids = ("CP000", "IPX") if sector == "CP000" else ("IPX",)
            subset = SectorPanel(
                extra.times, ids,
                extra.values[:, [extra.sector_ids.index(i) for i in ids]])
            r = irf(sector, panel, shocks["all"], spec,
                    extra_endogenous=subset)
            expected = [[sector, "all", str(h)]
                        + [format_float(v[h])
                           for v in (r.estimate, r.se, r.lo, r.hi)]
                        + [str(r.p), str(r.l)] for h in r.horizons]
            with open(out / f"lp_{sector}_all.csv", newline="") as fh:
                assert list(csv.reader(fh))[1:] == expected
            with pytest.raises(RankDeficientDesign):
                irf(sector, panel, shocks["extreme"], spec,
                    extra_endogenous=subset)
        with open(out / "failures.csv", newline="") as fh:
            failed = [row[:3] for row in list(csv.reader(fh))[1:]]
        assert failed == [[sector, "extreme", "RankDeficientDesign"]
                          for sector in order]

    def test_a_dropped_sectors_column_is_no_shared_series(self, planted,
                                                           tmp_path, rng):
        # CP002 has a gap, so the loader drops it; the endogenous column
        # named CP002 is its counterpart, not a series CP001 shares
        data = planted / "data"
        full = load_sector_panel(data / "sectors.csv", transform="none")
        values = full.values.copy()
        values[5, 2] = np.nan
        sectors_csv = tmp_path / "sectors.csv"
        write_panel_csv(SectorPanel(full.times, full.sector_ids, values),
                        sectors_csv)
        extra_csv = tmp_path / "endogenous.csv"
        write_panel_csv(SectorPanel(full.times, ("CP000", "CP002", "Z"),
                                    rng.normal(size=(len(full.times), 3))),
                        extra_csv)
        config = _write_config(tmp_path, {
            "grids": [{"name": "temperature",
                       "path": str(data / "temperature.csv")}],
            "panels": {
                "sectors": {"path": str(sectors_csv), "transform": "none"},
                "endogenous": {"path": str(extra_csv), "transform": "none"},
            },
            "shocks": {"variable": "temperature", "variants": ["all"]},
            "lp": {"h_max": 3, "p_max": 2, "l_max": 1, "figures": False},
        })
        out = tmp_path / "out"
        assert cli.main(["lp", "--config", config, "--out", str(out),
                         "--quiet"]) == 0

        panel = load_sector_panel(sectors_csv, transform="none")
        assert panel.dropped == ("CP002",)
        grid = load_gridded(data / "temperature.csv")
        scalar = regional_mean(anomaly(grid, compute_baseline(grid)))
        shock = shock_variants(scalar, default_threshold(scalar),
                               variants=("all",))["all"]
        extra = load_control_panel(extra_csv, transform="none")
        for sector, ids in (("CP000", ("CP000", "Z")), ("CP001", ("Z",))):
            subset = SectorPanel(
                extra.times, ids,
                extra.values[:, [extra.sector_ids.index(i) for i in ids]])
            r = irf(sector, panel, shock, LpSpec(h_max=3, p_max=2, l_max=1),
                    extra_endogenous=subset)
            expected = [[sector, "all", str(h)]
                        + [format_float(v[h])
                           for v in (r.estimate, r.se, r.lo, r.hi)]
                        + [str(r.p), str(r.l)] for h in r.horizons]
            with open(out / f"lp_{sector}_all.csv", newline="") as fh:
                assert list(csv.reader(fh))[1:] == expected

    def test_omitted_keys_take_the_lpspec_defaults(self, planted, tmp_path):
        data = planted / "data"
        doc = {
            "grids": [{"name": "temperature",
                       "path": str(data / "temperature.csv")}],
            "panels": {"sectors": {"path": str(data / "sectors.csv"),
                                   "transform": "none"}},
            "shocks": {"variable": "temperature"},
        }
        digests = []
        for name, section in (
                ("omitted", {}),
                ("spelled", {f.name: f.default
                             for f in dataclasses.fields(LpSpec)})):
            config = _write_config(tmp_path, dict(doc, lp=section),
                                   f"{name}.json")
            out = tmp_path / name
            assert cli.main(["lp", "--config", config, "--out", str(out),
                             "--quiet"]) == 0
            digests.append(_tree_digest(out))
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("case", [
        "all-gap panel", "zero level under yoy", "flat auto threshold",
        "inf panel", "panel byte 0xff", "panel stamp now",
        "repeated panel id",
    ])
    def test_malformed_input_exits_cleanly(self, tmp_path, capsys, case):
        series, grid = _tiny_grid(tmp_path)
        values = np.ones((24, 2))
        if case == "all-gap panel":
            values[3, 0] = values[5, 1] = np.nan
        elif case == "zero level under yoy":
            values = np.ones((24, 1))
            values[0, 0] = 0.0
        panel = tmp_path / "sectors.csv"
        write_panel_csv(SectorPanel(series.times, ("A", "B")[:values.shape[1]],
                                    values), panel)
        if case in ("inf panel", "panel stamp now"):
            lines = panel.read_text().splitlines(keepends=True)
            lines[4] = (lines[4].replace(",1.0,", ",inf,") if case == "inf panel"
                        else "now" + lines[4][len("2001-04"):])
            panel.write_text("".join(lines))
        elif case == "panel byte 0xff":
            _spoil_line(panel, 5)
        elif case == "repeated panel id":
            # read as given, it would run A twice and report two rows of it
            panel.write_text(panel.read_text().replace("time,A,B", "time,A,A"))
        threshold = "auto" if case == "flat auto threshold" else 0.5
        config = _write_config(tmp_path, {
            "grids": [grid],
            "baseline": {"reference_window": [2001, 2002]},
            "panels": {"sectors": {"path": str(tmp_path / "sectors.csv")}},
            "shocks": {"variable": "t", "threshold": threshold},
            "lp": {"h_max": 1, "p_max": 1, "l_max": 1},
        })
        code = cli.main(["lp", "--config", config,
                         "--out", str(tmp_path / "out"), "--quiet"])
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err
        assert ("threshold" if case == "flat auto threshold"
                else "sectors.csv") in err
        if case in ("inf panel", "panel byte 0xff", "panel stamp now"):
            assert "sectors.csv, line 5" in err
        if case == "repeated panel id":
            assert "id 'A' in column 3 repeats column 2 (" in err
            assert "sectors.csv, line 1)" in err

    def test_unknown_sector_is_config_error(self, planted, tmp_path):
        config = _write_config(tmp_path, {
            "grids": [{"name": "temperature",
                       "path": str(planted / "data" / "temperature.csv")}],
            "panels": {"sectors": {
                "path": str(planted / "data" / "sectors.csv"),
                "transform": "none"}},
            "shocks": {"variable": "temperature"},
            "lp": {"sectors": ["NOPE"]},
        })
        assert cli.main(["lp", "--config", config,
                         "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("spoil, transform", [
        ("", "none"),      # a gap
        ("0", "yoy"),      # a zero level, whose year-on-year change is inf
    ])
    def test_dropped_sector_is_data_error(self, planted, tmp_path, capsys,
                                          spoil, transform):
        # the loader drops CP001, so the id is known but has no column
        with open(planted / "data" / "sectors.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[3][rows[0].index("CP001")] = spoil
        if transform == "yoy":  # positive levels, so only CP001 drops
            for row in rows[1:]:
                row[1:] = [str(100.0 + float(v)) if v != "0" else v
                           for v in row[1:]]
        path = tmp_path / "spoiled.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        config = _write_config(tmp_path, {
            "grids": [{"name": "temperature",
                       "path": str(planted / "data" / "temperature.csv")}],
            "panels": {"sectors": {"path": str(path),
                                   "transform": transform}},
            "shocks": {"variable": "temperature"},
            "lp": {"sectors": ["CP000", "CP001"]},
        })
        assert cli.main(["lp", "--config", config,
                         "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert (f"data error: config key lp.sectors names ['CP001'], "
                f"dropped from {path}") in err

    @pytest.mark.parametrize("key,value,named", [
        ("lp.sectors", [], "lp/sectors"),
        ("shocks.variants", [], "shocks/variants"),
        ("lp.sectors", ["CP000", "CP001", "CP000"],
         "lp.sectors lists 'CP000'"),
        ("shocks.variants", ["all", "summer", "all"],
         "shocks.variants lists 'all'"),
    ])
    def test_empty_or_repeated_selection_exits_cleanly(self, planted,
                                                       tmp_path, capsys,
                                                       key, value, named):
        # an empty list would run no cell, a repeat a cell twice or once
        doc = {
            "grids": [{"name": "temperature",
                       "path": str(planted / "data" / "temperature.csv")}],
            "panels": {"sectors": {
                "path": str(planted / "data" / "sectors.csv"),
                "transform": "none"}},
            "shocks": {"variable": "temperature"},
            "lp": {"h_max": 2, "p_max": 1, "l_max": 1, "figures": False},
        }
        section, name = key.split(".")
        doc[section][name] = value
        config = _write_config(tmp_path, doc)
        commands = ("shocks", "lp") if section == "shocks" else ("lp",)
        for command in commands:
            out = tmp_path / command
            assert cli.main([command, "--config", config, "--out", str(out),
                             "--quiet"]) == 2
            err = capsys.readouterr().err
            assert named in err and "Traceback" not in err
            assert not out.exists()

    def test_huge_h_max_fails_each_cell_within_a_memory_cap(self, planted,
                                                            tmp_path):
        # the horizon stack is sized by the sample, so h_max = 1e9 fails
        # every cell on its first unsupported horizon without allocating
        # anything h_max long; the cap makes a stack sized by h_max fail
        config = _write_config(tmp_path, {
            "grids": [{"name": "temperature",
                       "path": str(planted / "data" / "temperature.csv")}],
            "panels": {"sectors": {
                "path": str(planted / "data" / "sectors.csv"),
                "transform": "none"}},
            "shocks": {"variable": "temperature", "threshold": 1e-6,
                       "variants": ["all"]},
            "lp": {"h_max": 1_000_000_000, "p_max": 2, "l_max": 1,
                   "figures": False},
        })
        out = tmp_path / "out"

        def cap_memory():
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "climfact.cli", "lp", "--config", config,
             "--out", str(out), "--quiet"],
            # the CLI's own one BLAS thread: OpenBLAS reserves buffers
            # per thread
            env=_cli_env(),
            preexec_fn=cap_memory, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 4, proc.stderr
        assert "Traceback" not in proc.stderr
        with open(out / "failures.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["sector"], r["variant"]) for r in rows] == [
            ("CP000", "all"), ("CP001", "all"), ("CP002", "all")]
        for row in rows:
            assert row["error"] == "InsufficientSample"
            n, k, need = map(int, re.fullmatch(
                r"(\d+) rows cannot support (\d+) regressors "
                r"\(need >= (\d+)\)", row["detail"]).groups())
            assert (n, need) == (9 + k, 10 + k)

    def test_a_panel_value_that_overflows_is_a_numerical_failure(
            self, planted, tmp_path, capsys):
        # the lag search squares it: the command fails, not one cell
        config = _write_config(tmp_path, {
            "grids": [{"name": "temperature",
                       "path": str(planted / "data" / "temperature.csv")}],
            "panels": {"sectors": {
                "path": str(_huge_panel(planted / "data", tmp_path)),
                "transform": "none"}},
            "shocks": {"variable": "temperature"},
            "lp": {"h_max": 2, "p_max": 2, "l_max": 1, "figures": False},
        })
        assert cli.main(["lp", "--config", config,
                         "--out", str(tmp_path / "out"), "--quiet"]) == 4
        assert capsys.readouterr().err == (
            "numerical failure: overflow encountered in square\n")


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    root = tmp_path_factory.mktemp("fira_demo")
    config = _write_config(root, {
        "seed": 5,
        "output_dir": str(root / "data"),
        "synth": {"kind": "fira-demo", "step": 0.5, "months": 120,
                  "sectors": 6},
    })
    assert cli.main(["synth", "--config", config, "--quiet"]) == 0
    return root


class TestFactorsAndFira:

    def _base_config(self, root):
        return {
            "grids": [{"name": "temperature_anomaly",
                       "path": str(root / "data" / "temperature_anomaly.csv")}],
            "panels": {"sectors": {
                "path": str(root / "data" / "sectors.csv"),
                "transform": "none"}},
        }

    def test_factors_outputs(self, demo, tmp_path):
        doc = self._base_config(demo)
        doc["factors"] = {"variable": "temperature_anomaly",
                          "use_anomalies": False, "tol": 0.2}
        config = _write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["factors", "--config", config, "--out", str(out),
                         "--quiet"]) == 0
        report = json.loads((out / "factors_report.json").read_text())
        assert report["k"] >= 1
        assert all(0.0 <= r <= 1.0 + 1e-10 for r in report["rho"])
        with open(out / "factor_loadings.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert (out / "factor_b_1.csv").exists()

    def test_a_constant_sector_leaves_the_diagnostic_too(self, demo,
                                                          tmp_path):
        panel = load_sector_panel(demo / "data" / "sectors.csv",
                                  transform="none")
        ids = panel.sector_ids[:3] + ("FLAT",) + panel.sector_ids[3:]
        values = np.insert(panel.values, 3, 4.2, axis=1)
        write_panel_csv(SectorPanel(panel.times, ids, values),
                        tmp_path / "sectors.csv")
        doc = self._base_config(demo)
        doc["panels"]["sectors"]["path"] = str(tmp_path / "sectors.csv")
        doc["factors"] = {"variable": "temperature_anomaly",
                          "use_anomalies": False}
        config = _write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["factors", "--config", config, "--out",
                         str(out), "--quiet"]) == 0
        with open(out / "factor_loadings.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["sector"] for r in rows] == list(panel.sector_ids)
        report = json.loads((out / "factors_report.json").read_text())
        assert report["dropped"] == ["FLAT"]
        assert len(report["regularity"]["tail_fraction"]) == len(rows)
        assert len(report["regularity"]["flagged"]) == len(rows)

    def test_a_constant_sector_answers_fira_with_zeros(self, demo, tmp_path):
        panel = load_sector_panel(demo / "data" / "sectors.csv",
                                  transform="none")
        write_panel_csv(SectorPanel(
            panel.times, panel.sector_ids + ("FLAT",),
            np.column_stack([panel.values, np.full(len(panel), 0.1)])),
            tmp_path / "sectors.csv")
        doc = self._base_config(demo)
        doc["panels"]["sectors"]["path"] = str(tmp_path / "sectors.csv")
        doc["fira"] = {
            "variable": "temperature_anomaly", "use_anomalies": False,
            "lags": [0, 1, 0], "h_max": 3,
            "shocks": [{"magnitude": 1.5, "center": [53.0, 11.5],
                        "radius_km": 150.0}],
        }
        config = _write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["fira", "--config", config, "--out", str(out),
                         "--quiet"]) == 0
        with open(out / "fira_response_1.csv", newline="") as fh:
            flat = [r for r in csv.DictReader(fh) if r["sector"] == "FLAT"]
        assert [(r["h"], r["response"], r["response_pp"]) for r in flat] == [
            (str(h), "0.0", "0.0") for h in range(4)]
        report = json.loads((out / "fira_report.json").read_text())
        assert report["failures"] == []
        assert report["dropped_per_horizon"] == [["FLAT"]] * 4

    def test_every_horizon_failing_is_exit_4(self, demo, tmp_path, capsys):
        # no singular value clears 5 * r_1, so every horizon fails
        doc = self._base_config(demo)
        doc["fira"] = {
            "variable": "temperature_anomaly", "use_anomalies": False,
            "lags": [0, 0, 0], "h_max": 2, "tol": 5.0,
            "shocks": [{"magnitude": 1.5, "center": [53.0, 11.5],
                        "radius_km": 150.0}],
        }
        config = _write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["fira", "--config", config, "--out", str(out),
                         "--quiet"]) == 4
        assert ("numerical failure: every fira horizon failed; see "
                "fira_report.json") in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["fira_report.json"]
        report = json.loads((out / "fira_report.json").read_text())
        assert [f[:2] for f in report["failures"]] == [
            [h, "ZeroCrossCovariance"] for h in range(3)]
        assert report["k_per_horizon"] == [0, 0, 0]
        assert report["shocks"][0]["magnitude"] == 1.5

    def test_control_lags_without_controls_is_exit_2(self, demo, tmp_path,
                                                     capsys, monkeypatch):
        # build_design would drop the control block without a word
        def no_load(*args, **kwargs):
            raise AssertionError("an input was read")

        monkeypatch.setattr(cli.ingest, "load_gridded", no_load)
        doc = self._base_config(demo)
        doc["fira"] = {
            "variable": "temperature_anomaly", "use_anomalies": False,
            "lags": [0, 0, 2], "h_max": 2,
            "shocks": [{"magnitude": 1.5, "center": [53.0, 11.5],
                        "radius_km": 150.0}],
        }
        config = _write_config(tmp_path, doc)
        assert cli.main(["fira", "--config", config,
                         "--out", str(tmp_path / "out")]) == 2
        assert ("config error: config key fira.lags asks for 2 control "
                "lag(s), but panels.controls is absent"
                ) in capsys.readouterr().err

    def test_fira_report_and_responses(self, demo, tmp_path):
        doc = self._base_config(demo)
        doc["fira"] = {
            "variable": "temperature_anomaly", "use_anomalies": False,
            "lags": [0, 0, 0], "h_max": 3, "tol": 0.2,
            "shocks": [
                {"magnitude": 1.5, "center": [53.0, 11.5],
                 "radius_km": 150.0},
                {"magnitude": 0.0, "center": [53.0, 11.5],
                 "radius_km": 150.0},
            ],
        }
        config = _write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["fira", "--config", config, "--out", str(out),
                         "--quiet"]) == 0
        report = json.loads((out / "fira_report.json").read_text())
        assert report["shocks"][0]["magnitude"] == 1.5
        area = report["shocks"][0]["footprint_area_km2"]
        # demo grid is 0.5 degrees, so quantization is coarser than the
        # native 0.25-degree tolerance
        assert abs(area - np.pi * 150**2) / (np.pi * 150**2) < 0.10
        with open(out / "fira_response_2.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["response"]) == 0.0 for r in rows)
        assert (out / "fira_shock_1.svg").read_text().startswith("<svg")

    def _null_runs(self, demo, tmp_path, section, extra):
        """Output directory of each permutation setting of section."""
        outs = {}
        for name, permutation in (("true", True), ("empty", {}),
                                  ("explicit", {"n": 199, "level": 0.95}),
                                  ("none", False)):
            doc = self._base_config(demo)
            doc[section] = {"variable": "temperature_anomaly",
                            "use_anomalies": False, "tol": 0.01,
                            "permutation": permutation, **extra}
            config = _write_config(tmp_path, doc, f"{name}.json")
            outs[name] = tmp_path / name
            assert cli.main([section, "--config", config, "--out",
                             str(outs[name]), "--quiet"]) == 0
        return outs

    def test_permutation_true_runs_the_default_null(self, demo, tmp_path):
        outs = self._null_runs(demo, tmp_path, "factors", {})
        loadings = {name: (out / "factor_loadings.csv").read_bytes()
                    for name, out in outs.items()}
        assert loadings["true"] == loadings["empty"] == loadings["explicit"]
        reports = {name: json.loads((out / "factors_report.json").read_text())
                   for name, out in outs.items()}
        assert reports["true"] == reports["empty"] == reports["explicit"]
        assert reports["true"]["permutation"] == {"n": 199, "level": 0.95}
        assert reports["none"]["permutation"] is None

    def test_fira_report_records_the_null_that_ran(self, demo, tmp_path):
        outs = self._null_runs(demo, tmp_path, "fira", {
            "h_max": 2, "shocks": [{"magnitude": 1.0, "center": [53.0, 11.5],
                                    "radius_km": 150.0}]})
        trees = {name: _tree_digest(out) for name, out in outs.items()}
        assert trees["true"] == trees["empty"] == trees["explicit"]
        reports = {name: json.loads((out / "fira_report.json").read_text())
                   for name, out in outs.items()}
        assert reports["true"]["permutation"] == {"n": 199, "level": 0.95}
        assert reports["none"]["permutation"] is None

    def test_outputs_do_not_depend_on_the_blas_thread_count(self, demo,
                                                             tmp_path):
        # with no count chosen the CLI pins one thread itself, so a machine
        # with more cores writes the same bytes as a one-thread run
        doc = self._base_config(demo)
        null = {"variable": "temperature_anomaly", "use_anomalies": False,
                "permutation": {"n": 19}}
        doc["factors"] = null
        doc["fira"] = {**null, "lags": [1, 1, 0], "h_max": 3,
                       "shocks": [{"magnitude": 1.5, "center": [53.0, 11.5],
                                   "radius_km": 150.0}]}
        config = _write_config(tmp_path, doc)
        trees = {}
        for name, chosen in (("unset", {}),
                             ("one", {"OPENBLAS_NUM_THREADS": "1"})):
            for command in ("factors", "fira"):
                out = tmp_path / name / command
                proc = subprocess.run(
                    [sys.executable, "-m", "climfact.cli", command,
                     "--config", config, "--out", str(out), "--quiet"],
                    env=_cli_env(**chosen), capture_output=True, text=True,
                    timeout=300)
                assert proc.returncode == 0, proc.stderr
            trees[name] = _tree_digest(tmp_path / name)
        assert trees["unset"] == trees["one"]

    @pytest.mark.parametrize("section", ["factors", "fira"])
    def test_a_null_past_the_shuffle_limit_is_exit_2(self, demo, tmp_path,
                                                      capsys, monkeypatch,
                                                      section):
        from climfact import factors

        def no_null(*args, **kwargs):
            raise AssertionError("the null ran")

        monkeypatch.setattr(factors, "permutation_cutoffs", no_null)
        doc = self._base_config(demo)
        doc[section] = {"variable": "temperature_anomaly",
                        "use_anomalies": False,
                        "permutation": {"n": 10**11}}
        if section == "fira":
            doc[section]["shocks"] = [{"magnitude": 1.0,
                                       "center": [53.0, 11.5],
                                       "radius_km": 150.0}]
        config = _write_config(tmp_path, doc)
        assert cli.main([section, "--config", config,
                         "--out", str(tmp_path / "out")]) == 2
        assert (f"config error: config key {section}/permutation: "
                f"{{'n': 100000000000}} is not valid under any of the given "
                f"schemas") in capsys.readouterr().err

    def test_negative_seed_is_exit_2(self, demo, tmp_path, capsys):
        # the seed comes from the config alone: there is no --seed flag
        doc = self._base_config(demo)
        doc["factors"] = {"variable": "temperature_anomaly",
                          "use_anomalies": False, "permutation": {"n": 9}}
        config = _write_config(tmp_path, doc)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as usage:
            cli.main(["factors", "--config", config, "--seed", "1",
                      "--out", str(out)])
        assert usage.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        doc["seed"] = -1
        config = _write_config(tmp_path, doc)
        assert cli.main(["factors", "--config", config,
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: config key seed: -1 is less than the minimum "
            "of 0\n")
        assert not out.exists()

    def test_omitted_tol_takes_the_engine_default(self, demo, tmp_path):
        default = inspect.signature(two_stage).parameters["tol"].default
        digests = []
        for name, extra in (("omitted", {}), ("spelled", {"tol": default})):
            doc = self._base_config(demo)
            doc["factors"] = dict(variable="temperature_anomaly",
                                  use_anomalies=False, **extra)
            config = _write_config(tmp_path, doc, f"{name}.json")
            out = tmp_path / name
            assert cli.main(["factors", "--config", config, "--out",
                             str(out), "--quiet"]) == 0
            digests.append(_tree_digest(out))
        assert digests[0] == digests[1]

    def test_tiny_tol_on_a_rank_deficient_cross_exits_cleanly(self, tmp_path,
                                                              capsys):
        # 8 sectors against a 4-cell grid: the cross covariance has rank
        # at most 4, and a tiny tol must not keep its numerical zeros
        rng = np.random.default_rng(3)
        T, ids = 60, tuple(f"S{j}" for j in range(8))
        times = np.datetime64("2001-01", "M") + np.arange(T)
        domain = build_domain((50.0, 51.0, 10.0, 11.0), 0.5)
        cube = rng.normal(size=(T,) + domain.shape)
        write_gridded_csv(SurfaceSeries(domain, times, cube, "t"),
                          tmp_path / "grid.csv")
        linked = rng.normal(size=(T, 8))
        linked[:, :4] += 2.0 * cube.reshape(T, -1)
        for name, y in (("linked", linked),
                        ("independent", rng.normal(size=(T, 8)))):
            write_panel_csv(SectorPanel(times, ids, y),
                            tmp_path / f"{name}.csv")
            config = _write_config(tmp_path, {
                "seed": 1,
                "grids": [{"name": "t", "path": str(tmp_path / "grid.csv")}],
                "panels": {"sectors": {"path": str(tmp_path / f"{name}.csv"),
                                       "transform": "none"}},
                "factors": {"variable": "t", "use_anomalies": False,
                            "tol": 1e-300, "permutation": {"n": 9}},
            }, f"{name}.json")
            out = tmp_path / name
            code = cli.main(["factors", "--config", config, "--out",
                             str(out), "--quiet"])
            assert code in (0, 3, 4)
            assert "Traceback" not in capsys.readouterr().err
            if name == "linked":
                assert code == 0
                report = json.loads((out / "factors_report.json").read_text())
                assert 1 <= report["k"] <= 4

    def test_center_outside_domain_is_exit_3(self, demo, tmp_path):
        doc = self._base_config(demo)
        doc["fira"] = {
            "variable": "temperature_anomaly", "use_anomalies": False,
            "lags": [0, 0, 0], "h_max": 1,
            "shocks": [{"magnitude": 1.0, "center": [10.0, 10.0],
                        "radius_km": 100.0}],
        }
        config = _write_config(tmp_path, doc)
        assert cli.main(["fira", "--config", config,
                         "--out", str(tmp_path / "out")]) == 3

    def test_a_shock_off_the_grid_fails_before_any_fit(self, demo, tmp_path,
                                                        capsys, monkeypatch):
        from climfact import fira

        def no_fit(*args, **kwargs):
            raise AssertionError("a horizon was fitted")

        monkeypatch.setattr(fira, "fit_fira", no_fit)
        doc = self._base_config(demo)
        doc["fira"] = {
            "variable": "temperature_anomaly", "use_anomalies": False,
            "lags": [0, 0, 0], "h_max": 1, "permutation": True,
            "shocks": [{"magnitude": 1.0, "center": [10.0, 10.0],
                        "radius_km": 100.0}],
        }
        config = _write_config(tmp_path, doc)
        assert cli.main(["fira", "--config", config,
                         "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (
            "data error: center (10.0, 10.0) outside bounds "
            "[47.0, 55.0] x [6.0, 15.0]\n")

    def test_unbounded_h_max_fails_before_any_fit_within_a_memory_cap(
            self, demo, tmp_path):
        # past the last horizon with any overlap, fira.h_max is a data
        # error before any horizon runs; the cap makes a run that keeps a
        # record per horizon fail
        doc = self._base_config(demo)
        doc["fira"] = {
            "variable": "temperature_anomaly", "use_anomalies": False,
            "lags": [0, 0, 0], "h_max": 1_000_000_000,
            "shocks": [{"magnitude": 1.0, "center": [53.0, 11.5],
                        "radius_km": 150.0}],
        }
        config = _write_config(tmp_path, doc)

        def cap_memory():
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "climfact.cli", "fira", "--config",
             config, "--out", str(tmp_path / "out"), "--quiet"],
            # the CLI's own one BLAS thread: OpenBLAS reserves buffers
            # per thread
            env=_cli_env(),
            preexec_fn=cap_memory, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert re.search(r"h_max 1000000000 is past horizon \d+",
                         proc.stderr)

    def test_a_panel_value_that_overflows_is_a_numerical_failure(
            self, demo, tmp_path, capsys):
        # an overflow at any horizon fails the command, not the horizon
        doc = self._base_config(demo)
        doc["panels"]["sectors"]["path"] = str(
            _huge_panel(demo / "data", tmp_path))
        doc["fira"] = {
            "variable": "temperature_anomaly", "use_anomalies": False,
            "h_max": 2, "shocks": [{"magnitude": 1.0, "center": [53.0, 11.5],
                                    "radius_km": 150.0}],
        }
        config = _write_config(tmp_path, doc)
        assert cli.main(["fira", "--config", config,
                         "--out", str(tmp_path / "out"), "--quiet"]) == 4
        assert capsys.readouterr().err == (
            "numerical failure: overflow encountered in matmul\n")



def _run_strict(command, config, out):
    """One command in its own process, with every warning an error."""
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "climfact.cli", command,
         "--config", config, "--out", str(out), "--quiet"],
        env=_cli_env(), capture_output=True, text=True, timeout=300)


class TestWarningsAsErrors:
    """The package reports through results and errors only, so turning
    every warning into an error changes no exit code."""

    def test_a_nonpositive_auto_threshold_exits_3(self, tmp_path):
        data = tmp_path / "cooled"
        synth_config = _write_config(tmp_path, {
            "synth": {"kind": "normals", "step": 4.0, "warming": -0.5},
        }, "synth.json")
        assert cli.main(["synth", "--config", synth_config,
                         "--out", str(data), "--quiet"]) == 0
        config = _write_config(tmp_path, {
            "grids": [{"name": "temperature",
                       "path": str(data / "temperature.csv")}],
            "shocks": {"variable": "temperature", "threshold": "auto"},
        })
        proc = _run_strict("shocks", config, tmp_path / "out")
        assert proc.returncode == 3, proc.stderr
        assert "2001-2021" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_a_constant_sector_exits_0_and_is_reported(self, demo, tmp_path):
        panel = load_sector_panel(demo / "data" / "sectors.csv",
                                  transform="none")
        write_panel_csv(SectorPanel(
            panel.times, panel.sector_ids + ("FLAT",),
            np.column_stack([panel.values, np.full(len(panel), 4.2)])),
            tmp_path / "sectors.csv")
        config = _write_config(tmp_path, {
            "grids": [{"name": "temperature_anomaly", "path": str(
                demo / "data" / "temperature_anomaly.csv")}],
            "panels": {"sectors": {"path": str(tmp_path / "sectors.csv"),
                                   "transform": "none"}},
            "factors": {"variable": "temperature_anomaly",
                        "use_anomalies": False},
        })
        out = tmp_path / "out"
        proc = _run_strict("factors", config, out)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "factors_report.json").read_text())
        assert report["dropped"] == ["FLAT"]

    def test_valid_runs_exit_0(self, normals_fixture, planted, demo,
                               tmp_path):
        runs = {
            "synth": {"synth": {"kind": "normals", "step": 4.0}},
            "baseline": {"grids": _grid_entries(normals_fixture)},
            "lp": {
                "grids": [{"name": "temperature", "path": str(
                    planted / "data" / "temperature.csv")}],
                "panels": {"sectors": {
                    "path": str(planted / "data" / "sectors.csv"),
                    "transform": "none"}},
                "shocks": {"variable": "temperature", "threshold": "auto"},
                "lp": {"h_max": 6, "p_max": 2, "l_max": 1},
            },
            "fira": {
                "grids": [{"name": "temperature_anomaly", "path": str(
                    demo / "data" / "temperature_anomaly.csv")}],
                "panels": {"sectors": {
                    "path": str(demo / "data" / "sectors.csv"),
                    "transform": "none"}},
                "fira": {"variable": "temperature_anomaly",
                         "use_anomalies": False, "h_max": 2,
                         "shocks": [{"magnitude": 1.5,
                                     "center": [53.0, 11.5],
                                     "radius_km": 150.0}]},
            },
        }
        for command, doc in runs.items():
            config = _write_config(tmp_path, doc, f"{command}.json")
            proc = _run_strict(command, config, tmp_path / command)
            assert (command, proc.returncode, proc.stderr) == (command, 0, "")
        assert (tmp_path / "synth" / "synth_manifest.json").is_file()


def test_no_command_imports_scipy():
    # start-up loads numpy and the modules every command shares; each
    # command imports the rest, and the package exports resolve on use
    # and importing the package leaves the environment alone: only a
    # process started as the CLI sets its BLAS thread count there
    proc = subprocess.run(
        [sys.executable, "-c", "import json, os, sys\n"
         "before = dict(os.environ)\n"
         "import climfact.cli\n"
         "print(json.dumps(sorted(sys.modules)))\n"
         "import climfact\n"
         "from climfact import irf, associated_factors, build_design\n"
         "print(json.dumps(climfact.__all__))\n"
         "print(json.dumps(dict(os.environ) == before))"],
        env=_cli_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, exported, untouched = map(json.loads, proc.stdout.splitlines())
    assert untouched
    lazy = {f"climfact.{m}" for m in ("localproj", "factors", "fira",
                                      "svgplot", "synth")}
    assert not [m for m in loaded if m.startswith(("scipy", "jsonschema"))
                or m in lazy]
    assert exported == [
        "AssociatedFactorSet", "BatteryResult", "CovarianceOperators",
        "FiraResult", "GridDomain", "IrfResult", "LaggedDesign", "LpSpec",
        "MonthlyBaseline", "ResponseResult", "ScalarSeries", "SectorPanel",
        "ShockConditioning", "ShockSeries", "ShockSurface",
        "SpectralDecomposition", "Surface", "SurfaceSeries",
        "align", "anomaly", "associated_factors", "build_design",
        "build_domain", "canonical_correlations", "climatology",
        "compute_baseline", "default_threshold", "errors",
        "estimate_covariances", "factors", "fira", "fit_fira", "fit_horizon",
        "grid", "ingest", "inner_product", "irf", "load_control_panel",
        "load_gridded", "load_sector_panel", "localproj",
        "make_shock_surface", "make_shocks", "months", "norm",
        "regional_mean", "regularity_diagnostic", "respond", "run_battery",
        "select_lags", "shock_variants", "svd_cross", "write_gridded_binary",
        "write_gridded_csv"]


def test_the_nulls_do_not_import_numpy_ma(tmp_path):
    # np.quantile and np.isin load numpy.ma through np.unique, 8 ms a
    # process; a 20-sector fixture takes fira's membership test past the
    # small-array path. (A format A grid still loads it, through
    # load_gridded's np.unique.)
    data = tmp_path / "data"
    assert cli.main(["synth", "--config", _write_config(tmp_path, {"synth": {
        "kind": "planted-factor", "step": 1.0, "sectors": 20, "months": 60,
        "format": "binary"}}, "synth.json"), "--out", str(data),
        "--quiet"]) == 0
    keys = {"variable": "planted", "use_anomalies": False,
            "permutation": {"n": 19}}
    config = _write_config(tmp_path, {
        "grids": [{"name": "planted", "path": str(data / "planted.sgf")}],
        "panels": {"sectors": {"path": str(data / "sectors.csv"),
                               "transform": "none"}},
        "factors": keys,
        "fira": {**keys, "h_max": 2,
                 "shocks": [{"magnitude": 1.0, "center": [51.0, 10.5],
                             "radius_km": 200.0}]},
    })
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n"
         "from climfact import cli\n"
         "for command in ('factors', 'fira'):\n"
         f"    code = cli.main([command, '--config', {config!r}, '--out',\n"
         f"                     {str(tmp_path / 'out')!r}, '--quiet'])\n"
         "    print(command, code, 'numpy.ma' in sys.modules)"],
        env=_cli_env(), capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "factors 0 False\nfira 0 False\n"
    assert (tmp_path / "out" / "fira_response_1.csv").exists()


def test_a_value_that_overflows_is_a_numerical_failure(tmp_path, capsys):
    # finite, but its square is not, so the factors Gram overflows: a
    # numerical failure, not a warning, infinities and a LinAlgError
    data = tmp_path / "data"
    assert cli.main(["synth", "--config", _write_config(tmp_path, {"synth": {
        "kind": "planted-factor"}}, "synth.json"), "--out", str(data),
        "--quiet"]) == 0
    grid = data / "planted.csv"
    lines = grid.read_text().split("\n")
    lines[1] = lines[1].rsplit(",", 1)[0] + ",1e200"
    grid.write_text("\n".join(lines))
    config = _write_config(tmp_path, {
        "grids": [{"name": "planted", "path": str(grid)}],
        "panels": {"sectors": {"path": str(data / "sectors.csv"),
                               "transform": "none"}},
        "factors": {"variable": "planted", "use_anomalies": False}})
    assert cli.main(["factors", "--config", config,
                     "--out", str(tmp_path / "out"), "--quiet"]) == 4
    assert capsys.readouterr().err == (
        "numerical failure: overflow encountered in matmul\n")


_BLAS_THREADS = """
import ctypes, json, os, sys
sys.argv = ["climfact"]
try:
    {start}
except SystemExit:
    pass
try:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({{line.split()[-1] for line in fh
                       if "openblas" in line and ".so" in line}})
except OSError:
    libs = []
threads = set()
for path in libs:
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, symbol):
            getter = getattr(lib, symbol)
            getter.argtypes, getter.restype = [], ctypes.c_int
            threads.add(getter())
            break
print(json.dumps(sorted(threads)))
print(json.dumps(os.environ.get("OMP_NUM_THREADS")))
"""


def _script_entry():
    """The module and function pyproject.toml installs as ``climfact``."""
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    return re.search(r'^\[project\.scripts\]\nclimfact = "([\w.]+):(\w+)"$',
                     pyproject.read_text(), re.M).groups()


class TestBlasThreads:
    """A CLI process runs BLAS on one thread unless the user chose a
    count; the count is read back from the OpenBLAS numpy loaded."""

    def _threads(self, entry, **chosen):
        if entry == "module":
            start = ('import runpy; runpy.run_module("climfact.cli", '
                     'run_name="__main__", alter_sys=True)')
        elif entry == "script":
            start = "from {0} import {1}; sys.exit({1}())".format(
                *_script_entry())
        else:
            # numpy already loaded with its default count, as in a program
            # that imports the CLI and calls main
            start = "from climfact import cli; sys.exit(cli.main())"
        proc = subprocess.run(
            [sys.executable, "-c", _BLAS_THREADS.format(start=start)],
            env=_cli_env(**chosen), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        # the CLI ran, and stopped at its missing arguments
        assert "usage: climfact" in proc.stderr
        threads, omp = map(json.loads, proc.stdout.splitlines())
        # started as the CLI, the process pins before numpy loads, so
        # OpenBLAS starts no worker thread; a library caller's numpy is
        # already loaded, and its environment is left alone
        assert omp == (None if chosen or entry == "library" else "1")
        if not threads:
            pytest.skip("no OpenBLAS thread-count symbol in this process")
        return threads

    @pytest.mark.parametrize("entry", ["module", "script", "library"])
    def test_the_cli_runs_one_blas_thread(self, entry):
        assert self._threads(entry) == [1]

    @pytest.mark.parametrize("entry", ["module", "script", "library"])
    def test_a_user_chosen_count_is_honoured(self, entry):
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("OpenBLAS caps its threads at the cores available")
        assert self._threads(entry, OPENBLAS_NUM_THREADS="2") == [2]
