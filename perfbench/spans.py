"""Span recording for the traced run, and the arithmetic on spans.

A Recorder replaces public functions of climfact's modules with wrappers
that record one span per call: name, start, end, parent span and, for a
few functions, work counts read from the arguments or the result. Calls
made through module globals (``irf`` calling ``select_lags``) are caught
too, because the wrapper replaces the module attribute those calls look
up. Spans stay in memory; the launcher writes them when the command ends.
"""

import functools
import inspect
import statistics
import time
from collections import defaultdict

LAYERS = ("cli", "config", "ingest", "climatology", "localproj", "factors",
          "fira", "svgplot")

# Public functions wrapped in each layer; ``cli.main`` is the root span.
TARGETS = {
    "config": ("load_config",),
    "ingest": ("load_gridded", "load_sector_panel", "load_control_panel",
               "write_gridded_csv"),
    "climatology": ("compute_baseline", "anomaly", "regional_mean",
                    "default_threshold", "shock_variants", "write_shock_csv"),
    "localproj": ("run_battery", "irf", "select_lags", "fit_horizon"),
    "factors": ("associated_factors", "regularity_diagnostic",
                "estimate_covariances", "cross_singular_triplets",
                "canonical_correlations", "permutation_cutoffs",
                "hat_matrix", "gram_eigensystem"),
    "fira": ("build_design", "fit_fira", "make_shock_surface", "respond"),
    "svgplot": ("fan_chart", "fira_figure"),
}


def _select_lags_count(args, result):
    controls, spec = args["controls"], args["spec"]
    has_controls = controls is not None and controls.shape[1] > 0
    return {"aic_candidates": spec.p_max * (spec.l_max if has_controls else 1)}


def _permutation_count(args, result):
    T, p = args["yc"].shape
    D = args["xc"].shape[1]
    return {"gflop": args["n_shuffles"] * 2.0 * T * p * D / 1e9}


# Work counts attached to a span: fn(bound arguments, result) -> dict.
COUNTS = {
    "ingest.load_gridded": lambda a, r: {"rows": len(r) * r.domain.n_valid},
    "ingest.write_gridded_csv": lambda a, r: {
        "rows": len(a["series"]) * a["series"].domain.n_valid},
    "localproj.run_battery": lambda a, r: {
        "cells": len(r.results) + len(r.failures),
        "cells_failed": len(r.failures)},
    "localproj.select_lags": _select_lags_count,
    "factors.permutation_cutoffs": _permutation_count,
    "fira.build_design": lambda a, r: {"design_mb": r.matrix.nbytes / 1e6},
    "fira.fit_fira": lambda a, r: {"horizons_failed": len(r.failures)},
}


class Recorder:
    """In-memory span list for one command process."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent, counts]
        self._stack = []

    def call(self, name, fn, args, kwargs, count=None, signature=None):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.monotonic(), None, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.monotonic()
            self._stack.pop()
        if count is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span[4] = count(bound.arguments, result)
        return result

    def wrap(self, name, fn):
        count = COUNTS.get(name)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count, signature)
        return wrapper


def instrument(recorder, modules):
    """Wrap every TARGETS function of the given {layer: module} mapping."""
    for layer, names in TARGETS.items():
        module = modules[layer]
        for name in names:
            setattr(module, name,
                    recorder.wrap(f"{layer}.{name}", getattr(module, name)))


# -- arithmetic -------------------------------------------------------------


def self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for j in sorted(children[i], key=lambda k: spans[k][1]):
            lo, hi = max(spans[j][1], cursor), min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_of(name):
    return name.split(".", 1)[0]


def command_profile(trace, spawned, exited):
    """Totals of one traced command process.

    trace is the launcher's document; spawned/exited are the parent's
    monotonic clock readings around the process.
    """
    spans = trace["spans"]
    selfs = self_times(spans)
    inclusive, calls, counts = defaultdict(float), defaultdict(int), \
        defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, selfs):
        name, start, end, _, extra = span
        inclusive[name] += end - start
        calls[name] += 1
        layer_self[layer_of(name)] += own
        for key, value in (extra or {}).items():
            counts[f"{name}.{key}"] += value
    startup = trace["main_entered"] - spawned
    exit_s = exited - trace["main_exit"]
    return {"wall": exited - spawned, "startup": startup, "exit": exit_s,
            "layer_self": layer_self, "inclusive": inclusive,
            "calls": calls, "counts": counts,
            "accounted": startup + exit_s + sum(selfs)}


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def _incl(*names):
    return lambda p: sum(p["inclusive"].get(n, 0.0) for n in names)


def _calls(*names):
    return lambda p: sum(p["calls"].get(n, 0) for n in names)


def _count(key):
    return lambda p: p["counts"].get(key, 0.0)


def _self(layer):
    return lambda p: p["layer_self"][layer]


# Per-layer metrics: name -> (unit, fn(merged chain profile) -> value).
PER_LAYER = {
    "cli.startup_s": ("s", lambda p: p["startup"]),
    "cli.self_s": ("s", _self("cli")),
    "cli.exit_s": ("s", lambda p: p["exit"]),
    "config.self_s": ("s", _self("config")),
    "ingest.self_s": ("s", _self("ingest")),
    "ingest.load_gridded_s": ("s", _incl("ingest.load_gridded")),
    "ingest.load_gridded_calls": ("count", _calls("ingest.load_gridded")),
    "ingest.grid_rows_per_s": ("1/s", lambda p: _ratio(
        _count("ingest.load_gridded.rows")(p),
        _incl("ingest.load_gridded")(p))),
    "ingest.write_gridded_csv_s": ("s", _incl("ingest.write_gridded_csv")),
    "ingest.write_rows_per_s": ("1/s", lambda p: _ratio(
        _count("ingest.write_gridded_csv.rows")(p),
        _incl("ingest.write_gridded_csv")(p))),
    "ingest.load_panel_s": ("s", _incl("ingest.load_sector_panel",
                                       "ingest.load_control_panel")),
    "climatology.self_s": ("s", _self("climatology")),
    "climatology.compute_baseline_s": ("s", _incl(
        "climatology.compute_baseline")),
    "climatology.compute_baseline_calls": ("count", _calls(
        "climatology.compute_baseline")),
    "climatology.anomaly_s": ("s", _incl("climatology.anomaly")),
    "climatology.regional_mean_s": ("s", _incl("climatology.regional_mean")),
    "climatology.shock_variants_s": ("s", _incl(
        "climatology.shock_variants")),
    "localproj.self_s": ("s", _self("localproj")),
    "localproj.run_battery_s": ("s", _incl("localproj.run_battery")),
    "localproj.select_lags_s": ("s", _incl("localproj.select_lags")),
    "localproj.fit_horizon_s": ("s", _incl("localproj.fit_horizon")),
    "localproj.fit_horizon_calls": ("count", _calls("localproj.fit_horizon")),
    "localproj.cells": ("count", _count("localproj.run_battery.cells")),
    "localproj.cells_failed": ("count", _count(
        "localproj.run_battery.cells_failed")),
    "localproj.cells_per_s": ("1/s", lambda p: _ratio(
        _count("localproj.run_battery.cells")(p),
        _incl("localproj.run_battery")(p))),
    "localproj.aic_candidates": ("count", _count(
        "localproj.select_lags.aic_candidates")),
    "factors.self_s": ("s", _self("factors")),
    "factors.associated_factors_s": ("s", _incl(
        "factors.associated_factors")),
    "factors.regularity_diagnostic_s": ("s", _incl(
        "factors.regularity_diagnostic")),
    "factors.cross_singular_triplets_s": ("s", _incl(
        "factors.cross_singular_triplets")),
    "factors.permutation_cutoffs_s": ("s", _incl(
        "factors.permutation_cutoffs")),
    "factors.permutation_calls": ("count", _calls(
        "factors.permutation_cutoffs")),
    "factors.permutation_gflop": ("GFLOP", _count(
        "factors.permutation_cutoffs.gflop")),
    "factors.hat_matrix_calls": ("count", _calls("factors.hat_matrix")),
    "fira.self_s": ("s", _self("fira")),
    "fira.build_design_s": ("s", _incl("fira.build_design")),
    "fira.design_mb": ("MB", _count("fira.build_design.design_mb")),
    "fira.fit_fira_s": ("s", _incl("fira.fit_fira")),
    "fira.horizons_failed": ("count", _count("fira.fit_fira.horizons_failed")),
    "fira.respond_s": ("s", _incl("fira.respond")),
    "svgplot.self_s": ("s", _self("svgplot")),
    "svgplot.fan_chart_s": ("s", _incl("svgplot.fan_chart")),
    "svgplot.fira_figure_s": ("s", _incl("svgplot.fira_figure")),
    "svgplot.figures": ("count", _calls("svgplot.fan_chart",
                                        "svgplot.fira_figure")),
    "trace.accounted_frac": ("ratio", lambda p: _ratio(p["accounted"],
                                                       p["wall"])),
}


def merge(profiles):
    """Sum the command profiles of one chain into one profile."""
    out = {"wall": 0.0, "startup": 0.0, "exit": 0.0, "accounted": 0.0,
           "layer_self": dict.fromkeys(LAYERS, 0.0),
           "inclusive": defaultdict(float), "calls": defaultdict(int),
           "counts": defaultdict(float)}
    for p in profiles:
        for key in ("wall", "startup", "exit", "accounted"):
            out[key] += p[key]
        for key in ("layer_self", "inclusive", "calls", "counts"):
            for name, value in p[key].items():
                out[key][name] += value
    return out


def layer_metrics(chain_profiles):
    """Median over traced chains of every PER_LAYER metric."""
    merged = [merge(c) for c in chain_profiles]
    return {name: statistics.median(fn(p) for p in merged)
            for name, (_, fn) in PER_LAYER.items()}
