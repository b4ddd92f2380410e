"""Seeded fuzzing of the batch CLI: whatever the config or input, every
command ends in one of its documented exit codes (0, 2, 3 or 4) and
raises nothing else.

Each case draws its edits from ``random.Random(seed)`` and is one test
id, so a failure names a case that reruns on its own. Every size that
allocates (h_max, p_max, l_max, lags, the null's n) is capped, so no
case needs a memory limit; a synth key past the fixture bound must
exit 2, not build.
"""

import copy
import json
import random

import pytest

from climfact import cli
from climfact.synth import KINDS

_VARIANTS = ["all", "spring", "summer", "autumn", "winter", "positive",
             "negative", "extreme"]


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """Fixture files: a 4-degree planted-lp grid in format A (495 KB) and
    format B, its 3-sector panel, a 2-sector control panel and a region
    file of three cells."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, synth in (
            ("a", {"kind": "planted-lp", "step": 4.0}),
            ("b", {"kind": "planted-lp", "step": 4.0, "format": "binary"}),
            ("c", {"kind": "planted-factor", "sectors": 2})):
        config = root / f"{name}.json"
        config.write_text(json.dumps({"synth": synth}))
        assert cli.main(["synth", "--config", str(config),
                         "--out", str(root / name), "--quiet"]) == 0
    (root / "region.csv").write_text("lat,lon\n42.0,2.0\n46.0,6.0\n"
                                     "50.0,10.0\n")
    return root


def _base(data):
    """A config on which every command exits 0."""
    null = {"n": 9}
    return {
        "seed": 7,
        "grids": [{"name": "temperature",
                   "path": str(data / "b" / "temperature.sgf")}],
        "panels": {
            "sectors": {"path": str(data / "a" / "sectors.csv"),
                        "transform": "none"},
            "controls": {"path": str(data / "c" / "sectors.csv"),
                         "transform": "none"}},
        "regions": [{"name": "ALL", "cells": "all"},
                    {"name": "R", "path": str(data / "region.csv")}],
        "baseline": {"reference_window": [1950, 1980]},
        "anomaly": {"write_grids": False},
        "shocks": {"variable": "temperature",
                   "variants": ["all", "summer", "extreme"]},
        "lp": {"h_max": 4, "p_max": 2, "l_max": 1},
        "factors": {"variable": "temperature", "permutation": null},
        "fira": {"variable": "temperature", "lags": [1, 0, 1], "h_max": 2,
                 "permutation": null,
                 "shocks": [{"magnitude": 1.0, "center": [48.0, 8.0],
                             "radius_km": 300.0}]},
        "synth": {"kind": "planted-lp", "step": 8.0},
    }


def _edges(data):
    """Schema-valid edge values by key path; None removes the key."""
    window = [[1950, 1950], [1980, 1950], [2001, 2021], [1900, 1949],
              [0, 0], [-40, 5], [9999, 10001]]
    factor = {
        "tol": [1e-300, 0.5, 1e300],
        "k": [1, 3, 1000],
        "permutation": [False, {"n": 1}, {"n": 9, "level": 1e-9},
                        {"n": 5, "level": 0.999}, None],
        "use_anomalies": [False],
    }
    return {
        ("seed",): [0, 2**64, 10**40],
        ("grids", 0, "path"): [str(data / "a" / "temperature.csv"),
                               str(data / "none.csv"), str(data)],
        ("grids", 0, "step"): [4.0, [4.0, 4.0], 3.0, 5e-324, 1e300,
                               [4.0, 1e-300]],
        ("grids", 0, "weighting"): ["coslat", "uniform"],
        ("panels", "sectors", "transform"): ["yoy", None],
        ("panels", "controls"): [None],
        ("panels", "endogenous"): [
            {"path": str(data / "c" / "sectors.csv")},
            {"path": str(data / "a" / "sectors.csv"), "transform": "none"}],
        ("regions",): [[{"name": "R", "path": str(data / "region.csv")}],
                       [{"name": "ALL", "cells": "all"}], None],
        ("baseline", "reference_window"): window,
        ("anomaly", "variables"): [["temperature"], ["other"]],
        ("anomaly", "write_grids"): [True, False],
        ("shocks", "region"): ["ALL", "R", "XX"],
        ("shocks", "threshold"): ["auto", 1e-300, 0.25, 1e300],
        ("shocks", "threshold_window"): window,
        ("shocks", "extreme_multiplier"): [1, 3.5, 1e300],
        ("shocks", "variants"): [["all"], ["extreme"],
                                 ["winter", "positive", "negative"],
                                 _VARIANTS],
        ("lp", "h_max"): [1, 6],
        ("lp", "p_max"): [1, 3],
        ("lp", "l_max"): [1, 3],
        ("lp", "r"): [0, 1, 4],
        ("lp", "lag_selection"): ["aic", "fixed"],
        ("lp", "ci_level"): [1e-12, 0.5, 1 - 1e-12],
        ("lp", "contemporaneous_controls"): [True, False],
        ("lp", "sectors"): ["all", ["CP002"], ["CP999"], ["CP000", "CP001"]],
        ("lp", "figures"): [True, False],
        **{("factors", key): values for key, values in factor.items()},
        **{("fira", key): values for key, values in factor.items()},
        ("fira", "lags"): [[0, 0, 0], [2, 1, 0], [0, 2, 2], [2, 2, 2]],
        ("fira", "h_max"): [0, 1, 3],
        ("fira", "standardize"): [True, False],
        ("fira", "shocks", 0, "center"): [[40.0, 0.0], [56.0, 16.0],
                                          [0.0, 0.0], [-90.0, 1e300]],
        ("fira", "shocks", 0, "radius_km"): [1e-300, 1.0, 1e300],
        ("fira", "shocks", 0, "magnitude"): [0.0, -1e300, 1e300],
        ("fira", "shocks", 0, "profile"): ["disk", "cosine-taper"],
        ("synth", "kind"): list(KINDS),
        ("synth", "step"): [16.0, 8.0, 7.0, 1e-4, 1e-300, 5e-324, None],
        ("synth", "years"): [[1950, 1950], [1990, 1960], [1995, 2010],
                             [-5, -4], [2000, 2000]],
        ("synth", "warming"): [0.0, -2.0, 1e300],
        ("synth", "format"): ["csv", "binary"],
        ("synth", "sectors"): [1, 2, 3, 2 * 10**9],
        ("synth", "months"): [24, 25, 10**8],
        ("synth", "snr"): [1e-300, 1.0, 1e300],
    }


def _set(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    if value is None:
        doc.pop(last, None)
    else:
        doc[last] = copy.deepcopy(value)


def _run_every_command(config, out):
    """Each command's exit code, which must be a documented one."""
    codes = {}
    for command in cli.COMMANDS:
        codes[command] = cli.main([command, "--config", str(config),
                                   "--out", str(out / command), "--quiet"])
    assert set(codes.values()) <= {0, 2, 3, 4}, codes
    return codes


def test_the_base_config_runs_every_command(data, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_base(data)))
    assert set(_run_every_command(config, tmp_path).values()) == {0}


@pytest.mark.parametrize("seed", range(60))
def test_a_config_within_the_schema(data, tmp_path, capsys, seed):
    rng = random.Random(seed)
    edges = _edges(data)
    doc = _base(data)
    for path in rng.sample(sorted(edges, key=str), rng.randint(1, 3)):
        _set(doc, path, rng.choice(edges[path]))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    _run_every_command(config, tmp_path)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("seed", range(40))
def test_a_synth_section(data, tmp_path, capsys, seed):
    # kinds and keys mixed at random reach every synth rule, the fixture
    # bound among them; a fixture past it must exit 2, not build
    rng = random.Random(seed)
    edges = {path: values for path, values in _edges(data).items()
             if path[0] == "synth" and path != ("synth", "kind")}
    doc = {"synth": {"kind": rng.choice(list(KINDS))}}
    for path in rng.sample(sorted(edges), rng.randint(1, 3)):
        _set(doc, path, rng.choice(edges[path]))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert cli.main(["synth", "--config", str(config),
                     "--out", str(tmp_path / "out"), "--quiet"]) in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


# the inputs a case may mutate: the file in the fixture, and the config
# entry that names it
_INPUTS = {
    "grid_a": ("a/temperature.csv", ("grids", 0, "path")),
    "grid_b": ("b/temperature.sgf", ("grids", 0, "path")),
    "panel": ("a/sectors.csv", ("panels", "sectors", "path")),
    "region": ("region.csv", ("regions", 1, "path")),
}
_FIELDS = ["", "nan", "inf", "-inf", "1e999", "1e300", "-1.7e308", "x",
           '"', "0", "-0", "1e-320", " 1.0", "2001-13", "1950-01-01",
           "﻿", "CP000"]


def _mutate_lines(raw, rng, first_lines):
    """raw with one line edited, and the byte offset of the edit."""
    lines = raw.split(b"\n")
    i = rng.randrange(first_lines or len(lines))
    j = rng.randrange(len(lines))
    line = lines[i].decode("utf-8")
    op = rng.choice(["delete", "repeat", "swap", "cut", "field", "blank",
                     "extra"])
    if op == "delete":
        del lines[i]
    elif op == "repeat":
        lines.insert(j, lines[i])
        i = min(i, j)
    elif op == "swap":
        lines[i], lines[j] = lines[j], lines[i]
        i = min(i, j)
    elif op == "cut":
        lines[i] = line[:rng.randrange(len(line) + 1)].encode("utf-8")
    elif op == "field":
        fields = line.split(",")
        fields[rng.randrange(len(fields))] = rng.choice(_FIELDS)
        lines[i] = ",".join(fields).encode("utf-8")
    elif op == "blank":
        lines.insert(i, b"")
    else:
        lines[i] += b"," + rng.choice(_FIELDS).encode("utf-8")
    return b"\n".join(lines), len(b"\n".join(lines[:i]))


def _mutate_bytes(raw, rng):
    """raw with one byte flipped, inserted or deleted, or cut short, and
    the byte offset of the edit."""
    at = rng.randrange(len(raw))
    op = rng.choice(["flip", "insert", "delete", "truncate"])
    if op == "flip":
        return raw[:at] + bytes([raw[at] ^ rng.randrange(1, 256)]) \
            + raw[at + 1:], at
    if op == "insert":
        byte = rng.choice([b"\x00", b"\xff", b'"', b"\r", b",", b"\n", b"9"])
        return raw[:at] + byte + raw[at:], at
    if op == "delete":
        return raw[:at] + raw[at + 1:], at
    return raw[:at], at


@pytest.mark.parametrize("seed", range(64))
def test_a_mutated_input(data, tmp_path, capsys, seed):
    rng = random.Random(seed)
    name, key = _INPUTS[sorted(_INPUTS)[seed % len(_INPUTS)]]
    raw = (data / name).read_bytes()
    # every eighth case (a format A grid case) edits one of the grid's
    # first lines, so more than the csv field limit (131,072 bytes)
    # follows it: an unclosed quote there once ended in a traceback
    large = seed % 8 == 0
    if large or (name.endswith(".csv") and rng.random() < 0.5):
        mutated, at = _mutate_lines(raw, rng, 8 if large else None)
    else:
        mutated, at = _mutate_bytes(raw, rng)
    assert not large or len(mutated) - at > 131072
    path = tmp_path / name.replace("/", "_")
    path.write_bytes(mutated)
    doc = _base(data)
    _set(doc, key, str(path))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    _run_every_command(config, tmp_path)
    assert "Traceback" not in capsys.readouterr().err
