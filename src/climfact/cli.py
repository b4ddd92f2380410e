"""Batch front-end: ingest, climatology, shocks, projections, factors.

Every subcommand reads one JSON run configuration, performs its stage of
the pipeline, and writes its products into the output directory. Outputs
are deterministic: identical config and inputs produce byte-identical
trees (seeds for permutation tests come from the config or --seed).

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 numerical
failure.

Each command imports the estimation and plotting modules it runs inside
its own body, so a command pays at start-up only for its own work.
"""

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import climatology as cl
from . import config as cfg
from . import ingest
from .errors import (
    ClimfactError,
    ConfigError,
    DataError,
    NumericalError,
)

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
    path = Path(out)
    source = "--out" if args.out else "config key output_dir"
    with _named(source, out, "create directory"):
        path.mkdir(parents=True, exist_ok=True)
    return path


def _seed(args, config):
    return args.seed if args.seed is not None else config.get("seed", 42)


def _present(section, *keys, **renamed):
    """Keyword arguments from the keys a config section sets.

    An omitted key is left out, so it takes the default of the library
    function it feeds. renamed maps a parameter to a key of another name.
    """
    renamed.update(zip(keys, keys))
    return {param: section[key] for param, key in renamed.items()
            if key in section}


def _grid(config, name):
    """Load the one grids[] entry called name."""
    i, entry = next((i, entry) for i, entry in enumerate(config["grids"])
                    if entry["name"] == name)
    with _named(f"config key grids[{i}].path", entry["path"]):
        return ingest.load_gridded(entry["path"], variable=name,
                                   **_present(entry, "step", "weighting"))


def _region_mask(domain, i, entry):
    """Boolean raster from regions[i]: 'cells': 'all', or a CSV of the
    lat,lon cell centers in the region."""
    if "cells" in entry:
        return np.ones(domain.shape, dtype=bool)
    with _named(f"config key regions[{i}].path", entry["path"]):
        return ingest.load_region_mask(entry["path"], domain)


def _regions(config, domain):
    entries = config.get("regions", cfg.DEFAULT_REGIONS)
    return {e["name"]: _region_mask(domain, i, e)
            for i, e in enumerate(entries)}


def _load_panel(config, key):
    entry = config.get("panels", {}).get(key)
    if entry is None:
        return None
    loader = (ingest.load_sector_panel if key == "sectors"
              else ingest.load_control_panel)
    with _named(f"config key panels.{key}.path", entry["path"]):
        return loader(entry["path"], **_present(entry, "transform"))


def _baseline(config, series):
    return cl.compute_baseline(series, **_present(
        config.get("baseline", {}), window="reference_window"))


def _anomaly_series(config, series):
    return cl.anomaly(series, _baseline(config, series))


def _factor_inputs(config, name):
    """Section name (factors or fira), its filled-in permutation-null
    settings or None, its surface series, as anomalies unless
    use_anomalies is false, and the sector panel."""
    from . import factors as af

    section = config[name]
    null = section.get("permutation", False)
    permutation = None if null is False else {
        **af.PERMUTATION_DEFAULTS, **({} if null is True else null)}
    series = _grid(config, section["variable"])
    if section.get("use_anomalies", True):
        series = _anomaly_series(config, series)
    panel = _load_panel(config, "sectors")
    return section, permutation, series, panel


def _shock_table(config):
    """Threshold + conditioned shock variants from the shocks config."""
    section = config["shocks"]
    series = _grid(config, section["variable"])
    anomalies = _anomaly_series(config, series)
    regions = _regions(config, series.domain)
    region_name = section.get("region", next(iter(regions)))
    scalar = cl.regional_mean(anomalies, regions[region_name])
    threshold, window = section.get("threshold", "auto"), None
    if threshold == "auto":
        window = section.get("threshold_window", cl.DEFAULT_THRESHOLD_WINDOW)
        threshold = cl.default_threshold(scalar, window)
    table = cl.shock_variants(scalar, threshold,
                              variants=section.get("variants", ("all",)),
                              **_present(section, "extreme_multiplier"))
    return float(threshold), window, region_name, table


# -- subcommands ------------------------------------------------------------


def cmd_baseline(args, config, out):
    grids = {entry["name"]: _grid(config, entry["name"])
             for entry in config["grids"]}
    summary_rows = []
    for name, series in grids.items():
        baseline = _baseline(config, series)
        lat_c, lon_c = series.domain.lat_centers, series.domain.lon_centers
        ii, jj = np.nonzero(series.domain.mask)
        ingest.write_csv(out / f"baseline_{name}.csv",
                         ["month", "lat", "lon", "value"], (
            [f"{m + 1:02d}", ingest.format_float(lat_c[i]),
             ingest.format_float(lon_c[j]), ingest.format_float(grid[i, j])]
            for m, grid in enumerate(baseline.month_means)
            for i, j in zip(ii, jj)
        ))
        for region_name, region in _regions(config, series.domain).items():
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
    return EXIT_OK


def cmd_anomaly(args, config, out):
    section = config.get("anomaly", {})
    names = section.get("variables") or [
        entry["name"] for entry in config["grids"]]
    grids = {name: _grid(config, name) for name in names}
    for name, series in grids.items():
        anomalies = _anomaly_series(config, series)
        if section.get("write_grids", False):
            ingest.write_gridded_csv(anomalies, out / f"anomaly_{name}.csv")
        for region_name, region in _regions(config, series.domain).items():
            cl.write_shock_csv(cl.regional_mean(anomalies, region),
                               out / f"anomaly_mean_{name}_{region_name}.csv")
    _say(args, f"anomaly: {len(grids)} variable(s) -> {out}")
    return EXIT_OK


def cmd_shocks(args, config, out):
    threshold, window, region_name, table = _shock_table(config)
    for variant, shock in table.items():
        cl.write_shock_csv(shock, out / f"shocks_{variant}.csv")
    _write_json(out / "shocks_report.json", {
        "threshold": threshold,
        "threshold_window": window and list(window),
        "region": region_name,
        "variable": config["shocks"]["variable"],
        "events": {variant: shock.n_events for variant, shock in table.items()},
        "seed": _seed(args, config),
    })
    _say(args, f"shocks: threshold {threshold:.4g}, "
               f"{sum(s.n_events for s in table.values())} events -> {out}")
    return EXIT_OK


def _endogenous_subset(extra, panel, sector):
    """Endogenous block for one sector: its matching counterpart column
    (same id, e.g. producer prices at the same code) plus every shared
    series; sectors without a counterpart simply omit it."""
    if extra is None:
        return None
    ids = [i for i in extra.sector_ids
           if i == sector or i not in panel.sector_ids]
    if not ids:
        return None
    cols = [extra.sector_ids.index(i) for i in ids]
    return ingest.ControlPanel(extra.times, tuple(ids),
                               extra.values[:, cols])


def cmd_lp(args, config, out):
    from . import localproj as lp
    from . import svgplot

    *_, shock_table = _shock_table(config)
    panel = _load_panel(config, "sectors")
    extra = _load_panel(config, "endogenous")
    controls = _load_panel(config, "controls")
    section = config.get("lp", {})
    sectors = section.get("sectors", "all")
    if sectors == "all":
        sectors = panel.sector_ids
    else:
        missing = [s for s in sectors if s not in panel.sector_ids]
        unknown = [s for s in missing if s not in panel.dropped]
        if unknown:
            raise ConfigError(f"config key lp.sectors names unknown ids "
                              f"{unknown}")
        if missing:
            raise DataError(
                f"config key lp.sectors names {missing}, dropped from "
                f"{config['panels']['sectors']['path']} (a column with a "
                f"gap, or a zero level under the yoy transform)")
    spec = lp.LpSpec(**_present(
        section, *(f.name for f in dataclasses.fields(lp.LpSpec))))

    results, failures = {}, []
    for sector in sectors:
        battery = lp.run_battery(
            panel, shock_table, spec,
            extra_endogenous=_endogenous_subset(extra, panel, sector),
            controls=controls, sectors=(sector,))
        results.update(battery.results)
        failures.extend(battery.failures)

    for (sector, variant), result in results.items():
        stem = f"lp_{sector}_{variant}"
        ingest.write_csv(
            out / f"{stem}.csv",
            ["sector", "variant", "h", "estimate", "se", "lo", "hi", "p", "l"],
            ([sector, variant, int(h),
              ingest.format_float(result.estimate[h]),
              ingest.format_float(result.se[h]),
              ingest.format_float(result.lo[h]),
              ingest.format_float(result.hi[h]),
              result.p, result.l] for h in result.horizons))
        if section.get("figures", True):
            svg = svgplot.fan_chart(
                result.horizons, result.estimate, result.lo, result.hi,
                f"{sector} response to {variant} shock "
                f"({int(result.ci_level * 100)}% band)",
            )
            (out / f"{stem}.svg").write_text(svg, encoding="utf-8")

    ingest.write_csv(out / "failures.csv",
                     ["sector", "variant", "error", "detail"], failures)

    _say(args, f"lp: {len(results)} cell(s) ok, {len(failures)} failed "
               f"-> {out}")
    if not results:
        raise NumericalError("every battery cell failed; see failures.csv")
    return EXIT_OK


def cmd_factors(args, config, out):
    from . import factors as af

    section, permutation, series, panel = _factor_inputs(config, "factors")
    seed = _seed(args, config)
    result = af.associated_factors(
        panel, series, **_present(section, "tol", "k"),
        permutation=permutation, rng=np.random.default_rng(seed),
    )
    diagnostic = result.regularity

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
        "regularity": {
            "n_components": diagnostic.n_components,
            "flagged": diagnostic.flagged,
            "tail_fraction": diagnostic.tail_fraction,
        },
        "permutation": permutation,
        "seed": seed,
        "dropped": result.dropped,
    })
    _say(args, f"factors: K={result.k}, rho_1={result.rho[0]:.4f} -> {out}")
    return EXIT_OK


def cmd_fira(args, config, out):
    from . import fira as fr
    from . import svgplot

    section, permutation, series, panel = _factor_inputs(config, "fira")
    lags = section.get("lags", [0, 0, 0])
    controls = _load_panel(config, "controls")
    seed = _seed(args, config)

    design = fr.build_design(series, y=panel, z=controls, lags=lags,
                             **_present(section, "standardize"))
    fitted = fr.fit_fira(design, panel,
                         **_present(section, "h_max", "tol", "k"),
                         permutation=permutation,
                         rng=np.random.default_rng(seed))

    shocks = [fr.make_shock_surface(
        spec["magnitude"], tuple(spec["center"]), spec["radius_km"],
        series.domain, **_present(spec, "profile"),
    ) for spec in section["shocks"]]
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
        "rho_per_horizon": [e.rho if e else [] for e in fitted.by_horizon],
        "failures": [list(f) for f in fitted.failures],
        "permutation": permutation,
        "shocks": [{
            "magnitude": shock.magnitude,
            "center": list(shock.center),
            "radius_km": shock.radius_km,
            "profile": shock.profile,
            "footprint_area_km2": shock.footprint_area_km2,
            "n_cells": shock.n_cells,
        } for shock in shocks],
        "seed": seed,
    })
    if not fitted_any:
        raise NumericalError("every fira horizon failed; see "
                             "fira_report.json")
    _say(args, f"fira: {len(shocks)} shock(s), "
               f"h_max={fitted.horizons[-1]} -> {out}")
    return EXIT_OK


def cmd_synth(args, config, out):
    from . import synth

    section = config["synth"]
    kind = section["kind"]
    seed = _seed(args, config)
    rng = np.random.default_rng(seed)
    fmt = section.get("format", "csv")
    manifest = {"kind": kind, "seed": seed, "files": []}

    def write(writer, data, name):
        writer(data, out / name)
        manifest["files"].append(name)

    def write_grid(series, stem):
        if fmt == "binary":
            write(ingest.write_gridded_binary, series, f"{stem}.sgf")
        else:
            write(ingest.write_gridded_csv, series, f"{stem}.csv")

    if kind == "normals":
        domain = synth.ea_domain(**_present(section, "step"))
        warming = section.get("warming")
        for variable in synth.EA_MONTHLY_NORMALS:
            series = synth.normals_series(
                domain, variable, **_present(section, "years"),
                warming=warming if variable == "temperature" else None,
            )
            write_grid(series, variable)
    elif kind == "planted-lp":
        months_n = section.get("months", 252)
        grid = synth.normals_series(
            synth.ea_domain(**_present(section, "step")), "temperature",
            warming=synth.TEMPERATURE_DEVIATION_MEANS["EA"],
        )
        write_grid(grid, "temperature")
        anomalies = cl.anomaly(grid, cl.compute_baseline(grid))
        scalar = cl.regional_mean(anomalies).slice_window(
            np.datetime64("2001-01", "M"), np.datetime64("2021-12", "M"))
        threshold = cl.default_threshold(scalar)
        shock = cl.make_shocks(scalar, threshold)
        p = section.get("sectors", 3)
        t = min(months_n, len(shock))
        values = rng.normal(size=(t, p))
        values[:, 0] += 0.6 * shock.values[:t]
        panel = ingest.SectorPanel(shock.times[:t],
                                   tuple(f"CP{j:03d}" for j in range(p)),
                                   values)
        write(ingest.write_panel_csv, panel, "sectors.csv")
        manifest["planted"] = {"sector": "CP000", "coefficient": 0.6,
                               "threshold": threshold}
    elif kind == "planted-factor":
        domain = synth.de_domain(step=section.get("step", 1.0))
        panel, series, _ = synth.planted_factor_instance(
            domain, p=section.get("sectors", 6),
            T=section.get("months", 252), rng=rng,
            **_present(section, "snr"),
        )
        write_grid(series, "planted")
        write(ingest.write_panel_csv, panel, "sectors.csv")
    elif kind == "fira-demo":
        panel, series, _ = synth.fira_demo_instance(
            rng, **_present(section, "step", p="sectors", T="months"))
        write_grid(series, "temperature_anomaly")
        write(ingest.write_panel_csv, panel, "sectors.csv")
    _write_json(out / "synth_manifest.json", manifest)
    _say(args, f"synth: {kind} -> {out}")
    return EXIT_OK


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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="climfact",
        description="Weather anomalies, threshold shocks, impulse responses "
                    "and associated factors on gridded data.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="run configuration JSON")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="seed override for "
                                                 "permutation tests")
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, "
                              f"got {args.seed}")
        with _named("--config", args.config):
            config = cfg.load_config(args.config)
        command, needs = COMMANDS[args.command]
        return command(args, config, _out_dir(args, config, needs))
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
    except (DataError, ClimfactError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
