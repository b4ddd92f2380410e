"""The traced benchmark's work counters against the engine.

``perfbench/spans.py`` binds the arguments of the functions in its
``COUNTS`` table by name and reads their results to count work, so a
renamed argument or result field fails every traced command. These tests
run each counter on a small fixture.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from climfact import cli, factors, fira, ingest, localproj
from climfact.climatology import ShockConditioning, ShockSeries
from climfact.grid import SurfaceSeries, build_domain

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MONTH0 = np.datetime64("2001-01", "M")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def traced(monkeypatch):
    """(spans module, Recorder) with every TARGETS function instrumented."""
    spans = _load_spans()
    modules = {layer: importlib.import_module(f"climfact.{layer}")
               for layer in spans.TARGETS}
    for layer, names in spans.TARGETS.items():
        for name in names:  # monkeypatch restores what instrument replaces
            monkeypatch.setattr(modules[layer], name,
                                getattr(modules[layer], name))
    recorder = spans.Recorder()
    spans.instrument(recorder, modules)
    return spans, recorder


def _counted(recorder, name):
    return [s[4] for s in recorder.spans if s[0] == name]


def test_permutation_span_counts_the_gram_gemm(traced):
    _, recorder = traced
    rng = np.random.default_rng(5)
    T, p, D, n = 30, 4, 50, 9
    v = rng.normal(size=(T, D))
    y = rng.normal(size=(T, p))
    y[:, 0] += 3.0 * v[:, 0]
    factors.two_stage(y, v, v @ v.T, permutation={"n": n},
                      rng=np.random.default_rng(0))

    counted = _counted(recorder, "factors.permutation_cutoffs")
    assert len(counted) == 1
    assert counted[0]["gflop"] == pytest.approx(n * 2.0 * T * p * T / 1e9,
                                                rel=1e-12)


def test_every_counter_binds_its_function(traced, tmp_path):
    spans, recorder = traced
    rng = np.random.default_rng(7)
    T, p = 60, 3
    times = MONTH0 + np.arange(T)
    domain = build_domain((40.0, 43.0, 5.0, 8.0), 1.0)
    series = SurfaceSeries(domain, times,
                           rng.normal(size=(T,) + domain.shape), "t")
    panel = ingest.SectorPanel(times, ("S0", "S1", "S2"),
                               rng.normal(size=(T, p)))
    controls = ingest.ControlPanel(times, ("Z0",), rng.normal(size=(T, 1)))
    shock = ShockSeries(times, np.where(rng.random(T) < 0.3, 1.0, 0.0), 0.5,
                        ShockConditioning(), "all")

    path = tmp_path / "t.csv"
    ingest.write_gridded_csv(series, path)
    ingest.load_gridded(path)
    spec = localproj.LpSpec(h_max=2, p_max=2, l_max=2)
    localproj.run_battery(panel, {"all": shock}, spec, controls=controls)
    yc, _ = factors.center_columns(panel.values)
    xc, _ = factors.center_columns(factors.hat_matrix(series))
    factors.permutation_cutoffs(yc, xc @ xc.T, 9, 0.9,
                                np.random.default_rng(0),
                                r=np.full(p, np.inf))
    design = fira.build_design(series, lags=(1, 0, 0))
    fira.fit_fira(design, panel, h_max=1, k=1)

    counted = {name: _counted(recorder, name) for name in spans.COUNTS}
    rows = T * domain.n_valid
    assert counted == {
        "ingest.load_gridded": [{"rows": rows}],
        "ingest.write_gridded_csv": [{"rows": rows}],
        "localproj.run_battery": [{"cells": p, "cells_failed": 0}],
        # one lag search per sector, over p_max x l_max with controls
        "localproj.select_lags": [{"aic_candidates": 4}] * p,
        "factors.permutation_cutoffs": [
            {"gflop": pytest.approx(9 * 2.0 * T * p * T / 1e9, rel=1e-12)}],
        "fira.build_design": [
            {"design_mb": (T - 1) * 2 * domain.n_valid * 8 / 1e6}],
        "fira.fit_fira": [{"horizons_failed": 0}],
    }


def test_factors_command_hat_embeds_once(traced, tmp_path):
    """cmd_factors reads the spectrum diagnostic off the factor fit: one
    hat embedding, one Gram eigensystem and no regularity_diagnostic."""
    _, recorder = traced
    rng = np.random.default_rng(11)
    T = 60
    times = MONTH0 + np.arange(T)
    domain = build_domain((40.0, 43.0, 5.0, 8.0), 1.0)
    cube = rng.normal(size=(T,) + domain.shape)
    ingest.write_gridded_csv(SurfaceSeries(domain, times, cube, "t"),
                             tmp_path / "t.csv")
    y = rng.normal(size=(T, 3))
    y[:, 0] += 2.0 * cube[:, 1, 1]
    ingest.write_panel_csv(ingest.SectorPanel(times, ("S0", "S1", "S2"), y),
                           tmp_path / "sectors.csv")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "grids": [{"name": "t", "path": str(tmp_path / "t.csv")}],
        "panels": {"sectors": {"path": str(tmp_path / "sectors.csv"),
                               "transform": "none"}},
        "factors": {"variable": "t", "use_anomalies": False},
    }))
    assert cli.main(["factors", "--config", str(config), "--out",
                     str(tmp_path / "out"), "--quiet"]) == 0

    names = [span[0] for span in recorder.spans]
    assert names.count("factors.associated_factors") == 1
    assert names.count("factors.hat_matrix") == 1
    assert names.count("factors.gram_eigensystem") == 1
    assert names.count("factors.regularity_diagnostic") == 0
