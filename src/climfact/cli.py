"""Batch front-end: ingest, climatology, shocks, projections, factors.

Every subcommand reads one JSON run configuration, performs its stage of
the pipeline, and writes its products into the output directory. Outputs
are deterministic: identical config and inputs produce byte-identical
trees (seeds come from the config's seed key, default 42).

Each command is a stage over one Context, which main builds from the
config, and which reads or derives each input the stage asks for once.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 numerical
failure.

Each command imports the estimation and plotting modules it runs inside
its own body, so a command pays at start-up only for its own work.

A command runs its linear algebra on one BLAS thread unless
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS is set, so its
outputs do not depend on how many cores the machine has.
"""

if __name__ == "__main__":
    # python -m climfact.cli: pin before numpy is first imported, so
    # OpenBLAS never starts a worker thread
    from .entry import one_blas_thread

    one_blas_thread()

import argparse
import collections
import contextlib
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import climatology as cl
from . import config as cfg
from . import ingest
from .entry import one_blas_thread
from .errors import (ClimfactError, ConfigError, DataError, NumericalError,
                     no_overflow)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


# -- small helpers ---------------------------------------------------------


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True,
                  default=lambda o: (o.tolist() if isinstance(o, np.ndarray)
                                     else o.item()))
        fh.write("\n")


def _say(args, message):
    if not args.quiet:
        print(message)


@contextlib.contextmanager
def _named(source, path, action="read"):
    """Turn an OSError on path into a ConfigError naming source, the
    config key or flag that gave the path."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{source}: cannot {action} {str(path)!r} "
                          f"({exc.strerror})") from None


def _out_dir(args, config, needs):
    """Make the output directory once every key in needs is set."""
    out = args.out or config.get("output_dir")
    present = {*config, *(f"panels.{key}" for key in config.get("panels", {}))}
    absent = [key for key in needs if key not in present]
    if not out:
        absent.append("output_dir (or pass --out)")
    if absent:
        raise ConfigError(f"config is missing required key {absent[0]}")
    source = "--out" if args.out else "config key output_dir"
    with _named(source, out, "create directory"):
        Path(out).mkdir(parents=True, exist_ok=True)
    return Path(out)


def _present(section, *keys, **renamed):
    """Keyword arguments from the keys a config section sets.

    An omitted key is left out, so it takes the default of the library
    function it feeds. renamed maps a parameter to a key of another name.
    """
    renamed.update(zip(keys, keys))
    return {param: section[key] for param, key in renamed.items()
            if key in section}


def _once(accessor):
    """Run a Context accessor once per context and arguments."""
    @functools.wraps(accessor)
    def kept(self, *args):
        key = (accessor.__name__, *args)
        if key not in self._kept:
            self._kept[key] = accessor(self, *args)
        return self._kept[key]
    return kept


_Shocks = collections.namedtuple("_Shocks", "threshold window region table")


class Context:
    """The inputs of one invocation, read or derived from its config on
    first use and kept (a raw grid until its anomalies exist). A path is
    read under _named: an unreadable one is a ConfigError naming its key."""

    def __init__(self, config):
        self.config = config
        self.seed = config.get("seed", 42)
        self._kept = {}     # per instance: a test's contexts die with it

    @_once
    def grid(self, name):
        """The one grids[] entry called name."""
        i = [entry["name"] for entry in self.config["grids"]].index(name)
        entry = self.config["grids"][i]
        key = f"config key grids[{i}]"
        with _named(f"{key}.path", entry["path"]):
            try:
                return ingest.load_gridded(
                    entry["path"], variable=name,
                    **_present(entry, "step", "weighting"))
            except ConfigError as exc:  # a step the file's format won't read
                raise ConfigError(f"{key}.step: {exc}") from None

    @_once
    def baseline(self, name):
        return cl.compute_baseline(self.grid(name), **_present(
            self.config.get("baseline", {}), window="reference_window"))

    @_once
    def anomalies(self, name):
        anomalies = cl.anomaly(self.grid(name), self.baseline(name))
        # every later use reads these or the baseline: free the raw grid
        del self._kept["grid", name]
        return anomalies

    @_once
    def regions(self, domain):
        """Region rasters on a grid's domain, by name: None for 'cells':
        'all' (every cell), else the CSV of lat,lon cell centers at path."""
        regions = {}
        for i, entry in enumerate(self.config.get("regions",
                                                  cfg.DEFAULT_REGIONS)):
            path = entry.get("path")
            with _named(f"config key regions[{i}].path", path):
                regions[entry["name"]] = (
                    None if path is None
                    else ingest.load_region_mask(path, domain))
        return regions

    @_once
    def panel(self, key):
        """The panels entry called key, or None when the config has none."""
        entry = self.config.get("panels", {}).get(key)
        if entry is None:
            return None
        with _named(f"config key panels.{key}.path", entry["path"]):
            return ingest.load_sector_panel(entry["path"],
                                            **_present(entry, "transform"))

    @_once
    def shocks(self):
        """Threshold, its window (None for a given threshold), region and
        conditioned shock variants of the shocks config."""
        section = self.config["shocks"]
        anomalies = self.anomalies(section["variable"])
        regions = self.regions(anomalies.domain)
        region = section.get("region", next(iter(regions)))
        scalar = cl.regional_mean(anomalies, regions[region])
        threshold, window = section.get("threshold", "auto"), None
        if threshold == "auto":
            window = section.get("threshold_window",
                                 cl.DEFAULT_THRESHOLD_WINDOW)
            threshold = cl.default_threshold(scalar, window)
        table = cl.shock_variants(scalar, threshold,
                                  variants=section.get("variants", ("all",)),
                                  **_present(section, "extreme_multiplier"))
        return _Shocks(float(threshold), window, region, table)

    @_once
    def factor_inputs(self, key):
        """The surface series of section key (factors or fira), as
        anomalies unless use_anomalies is false, and its filled-in
        permutation-null settings or None."""
        from . import factors as af

        section = self.config[key]
        null = section.get("permutation", False)
        permutation = None if null is False else {
            **af.PERMUTATION_DEFAULTS, **({} if null is True else null)}
        series = (self.anomalies if section.get("use_anomalies", True)
                  else self.grid)(section["variable"])
        return series, permutation


# -- subcommands ------------------------------------------------------------


def cmd_baseline(args, ctx, out):
    grids = {entry["name"]: ctx.grid(entry["name"])
             for entry in ctx.config["grids"]}
    summary_rows = []
    for name, series in grids.items():
        baseline = ctx.baseline(name)
        ingest.write_long_csv(out / f"baseline_{name}.csv",
                              ["month", "lat", "lon", "value"], series.domain,
                              [f"{m:02d}" for m in range(1, 13)],
                              baseline.month_means)
        for region_name, region in ctx.regions(series.domain).items():
            cells, w = cl.region_weights(series.domain, region)
            # one dot per month: a batched (12, n) @ w rounds differently
            summary_rows.append(
                [region_name, name]
                + [ingest.format_float(baseline.month_means[m][cells] @ w)
                   for m in range(12)])
    ingest.write_csv(out / "baseline_summary.csv",
                     ["region", "variable"]
                     + [f"m{m + 1:02d}" for m in range(12)], summary_rows)
    _say(args, f"baseline: {len(grids)} variable(s) -> {out}")


def cmd_anomaly(args, ctx, out):
    section = ctx.config.get("anomaly", {})
    names = section.get("variables") or [e["name"] for e in ctx.config["grids"]]
    for name in names:
        anomalies = ctx.anomalies(name)
        if section.get("write_grids", False):
            ingest.write_gridded_csv(anomalies, out / f"anomaly_{name}.csv")
        for region_name, region in ctx.regions(anomalies.domain).items():
            cl.write_shock_csv(cl.regional_mean(anomalies, region),
                               out / f"anomaly_mean_{name}_{region_name}.csv")
    _say(args, f"anomaly: {len(names)} variable(s) -> {out}")


def cmd_shocks(args, ctx, out):
    threshold, window, region_name, table = ctx.shocks()
    for variant, shock in table.items():
        cl.write_shock_csv(shock, out / f"shocks_{variant}.csv")
    _write_json(out / "shocks_report.json", {
        "threshold": threshold,
        "threshold_window": window and list(window),
        "region": region_name,
        "variable": ctx.config["shocks"]["variable"],
        "events": {variant: shock.n_events for variant, shock in table.items()},
        "seed": ctx.seed,
    })
    _say(args, f"shocks: threshold {threshold:.4g}, "
               f"{sum(s.n_events for s in table.values())} events -> {out}")


def cmd_lp(args, ctx, out):
    from . import localproj as lp
    from . import svgplot

    shock_table = ctx.shocks().table
    panel, extra, controls = (ctx.panel(key) for key in (
        "sectors", "endogenous", "controls"))
    section = ctx.config.get("lp", {})
    sectors = section.get("sectors", "all")
    if sectors == "all":
        sectors = panel.sector_ids
    missing = [s for s in sectors if s not in panel.sector_ids]
    unknown = [s for s in missing if s not in panel.dropped]
    if unknown:
        raise ConfigError(f"config key lp.sectors names unknown ids {unknown}")
    if missing:
        raise DataError(
            f"config key lp.sectors names {missing}, dropped from "
            f"{ctx.config['panels']['sectors']['path']} (a column with a "
            f"gap, or a zero level under the yoy transform)")
    spec = lp.LpSpec(**_present(
        section, *(f.name for f in dataclasses.fields(lp.LpSpec))))

    battery = lp.run_battery(
        panel, shock_table, spec, extra_endogenous=extra, controls=controls,
        sectors=sectors)
    for (sector, variant), result in battery.results.items():
        stem = f"lp_{sector}_{variant}"
        ingest.write_csv(
            out / f"{stem}.csv",
            ["sector", "variant", "h", "estimate", "se", "lo", "hi", "p", "l"],
            ([sector, variant, int(h)]
             + [ingest.format_float(column[h]) for column in (
                 result.estimate, result.se, result.lo, result.hi)]
             + [result.p, result.l] for h in result.horizons))
        if section.get("figures", True):
            svg = svgplot.fan_chart(
                result.horizons, result.estimate, result.lo, result.hi,
                f"{sector} response to {variant} shock "
                f"({int(result.ci_level * 100)}% band)",
            )
            (out / f"{stem}.svg").write_text(svg, encoding="utf-8")

    ingest.write_csv(out / "failures.csv",
                     ["sector", "variant", "error", "detail"],
                     battery.failures)

    _say(args, f"lp: {len(battery.results)} cell(s) ok, "
               f"{len(battery.failures)} failed -> {out}")
    if not battery.results:
        raise NumericalError("every battery cell failed; see failures.csv")


def cmd_factors(args, ctx, out):
    from . import factors as af

    section = ctx.config["factors"]
    series, permutation = ctx.factor_inputs("factors")
    result = af.associated_factors(
        ctx.panel("sectors"), series, **_present(section, "tol", "k"),
        permutation=permutation, rng=np.random.default_rng(ctx.seed),
    )

    ingest.write_csv(
        out / "factor_loadings.csv",
        ["sector"] + [f"a{k + 1}" for k in range(result.k)],
        ([sector] + [ingest.format_float(result.a[k, j])
                     for k in range(result.k)]
         for j, sector in enumerate(result.sector_ids)))
    for k in range(result.k):
        ingest.write_surface_csv(result.b_surface(k),
                                 out / f"factor_b_{k + 1}.csv",
                                 name=f"b{k + 1}")
    _write_json(out / "factors_report.json", {
        "k": result.k,
        "rho": result.rho,
        "singular_values": result.singular_values,
        "variable": section["variable"],
        "regularity": {key: getattr(result.regularity, key) for key in (
            "n_components", "flagged", "tail_fraction")},
        "permutation": permutation,
        "seed": ctx.seed,
        "dropped": result.dropped,
    })
    _say(args, f"factors: K={result.k}, rho_1={result.rho[0]:.4f} -> {out}")


def cmd_fira(args, ctx, out):
    from . import fira as fr
    from . import svgplot

    section = ctx.config["fira"]
    series, permutation = ctx.factor_inputs("fira")
    panel, controls = ctx.panel("sectors"), ctx.panel("controls")
    lags = section.get("lags", [0, 0, 0])
    # a shock off the grid fails before any horizon is fitted
    shocks = [fr.make_shock_surface(
        spec["magnitude"], tuple(spec["center"]), spec["radius_km"],
        series.domain, **_present(spec, "profile"),
    ) for spec in section["shocks"]]

    design = fr.build_design(series, y=panel, z=controls, lags=lags,
                             **_present(section, "standardize"))
    fitted = fr.fit_fira(design, panel,
                         **_present(section, "h_max", "tol", "k"),
                         permutation=permutation,
                         rng=np.random.default_rng(ctx.seed))
    # with no horizon fitted every response is zero, so none is written
    fitted_any = any(e is not None for e in fitted.by_horizon)
    for idx, shock in enumerate(shocks if fitted_any else []):
        response = fr.respond(fitted, shock)
        ingest.write_csv(
            out / f"fira_response_{idx + 1}.csv",
            ["sector", "h", "response", "response_pp"],
            ([sector, int(h),
              ingest.format_float(response.canonical[h, j]),
              ingest.format_float(response.percentage_points[h, j])]
             for j, sector in enumerate(response.sector_ids)
             for h in response.horizons))
        figure = svgplot.fira_figure(
            series.domain, shock.surface.values, response.canonical,
            response.sector_ids, response.horizons,
            f"functional impulse responses: {shock.magnitude:g} shock, "
            f"radius {shock.radius_km:g} km",
        )
        (out / f"fira_shock_{idx + 1}.svg").write_text(figure, encoding="utf-8")

    _write_json(out / "fira_report.json", {
        "variable": section["variable"],
        "lags": lags,
        "horizons": fitted.horizons,
        "k_per_horizon": [e.k if e else 0 for e in fitted.by_horizon],
        "dropped_per_horizon": [e.dropped if e else []
                                for e in fitted.by_horizon],
        "rho_per_horizon": [e.rho if e else [] for e in fitted.by_horizon],
        "failures": [list(f) for f in fitted.failures],
        "permutation": permutation,
        "shocks": [{f.name: getattr(shock, f.name)
                    for f in dataclasses.fields(shock) if f.name != "surface"}
                   for shock in shocks],
        "seed": ctx.seed,
    })
    if not fitted_any:
        raise NumericalError("every fira horizon failed; see fira_report.json")
    _say(args, f"fira: {len(shocks)} shock(s), "
               f"h_max={fitted.horizons[-1]} -> {out}")


def cmd_synth(args, ctx, out):
    from . import synth

    section = ctx.config["synth"]
    kind = section["kind"]
    # check_rules has refused any key the kind does not read
    grids, panel, planted = synth.KINDS[kind](
        np.random.default_rng(ctx.seed),
        **{key: value for key, value in section.items()
           if key not in ("kind", "format")})
    write_grid, suffix = ((ingest.write_gridded_binary, "sgf")
                          if section.get("format") == "binary"
                          else (ingest.write_gridded_csv, "csv"))
    files = {f"{stem}.{suffix}": (write_grid, series)
             for stem, series in grids.items()}
    if panel is not None:
        files["sectors.csv"] = (ingest.write_panel_csv, panel)
    for name, (write, data) in files.items():
        write(data, out / name)
    manifest = {"kind": kind, "seed": ctx.seed, "files": list(files)}
    if planted is not None:
        manifest["planted"] = planted
    _write_json(out / "synth_manifest.json", manifest)
    _say(args, f"synth: {kind} -> {out}")


# -- entry point -------------------------------------------------------------


# each command's body and the keys it reads that have no default, which
# main checks before the body runs
COMMANDS = {
    "baseline": (cmd_baseline, ("grids",)),
    "anomaly": (cmd_anomaly, ("grids",)),
    "shocks": (cmd_shocks, ("grids", "shocks")),
    "lp": (cmd_lp, ("grids", "shocks", "panels.sectors")),
    "factors": (cmd_factors, ("grids", "factors", "panels.sectors")),
    "fira": (cmd_fira, ("grids", "fira", "panels.sectors")),
    "synth": (cmd_synth, ("synth",)),
}


def main(argv=None):
    one_blas_thread()
    parser = argparse.ArgumentParser(
        prog="climfact",
        description="Weather anomalies, threshold shocks, impulse responses "
                    "and associated factors on gridded data.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="run configuration JSON")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    try:
        with _named("--config", args.config):
            config = cfg.load_config(args.config)
        command, needs = COMMANDS[args.command]
        with no_overflow():
            command(args, Context(config), _out_dir(args, config, needs))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # every input path is read under _named, so this is an output
        print(f"config error: cannot write {str(exc.filename)!r} "
              f"({exc.strerror})", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ClimfactError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
