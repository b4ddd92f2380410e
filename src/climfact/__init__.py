"""Weather surfaces and sectoral prices: anomalies, threshold shocks,
local-projection impulse responses, associated factors, and functional
impulse-response analysis on gridded data.

The public names below are imported from their submodule on first use,
so ``import climfact.cli`` loads only the modules a command runs.
"""

import importlib

_EXPORTS = {
    "climatology": (
        "MonthlyBaseline",
        "ScalarSeries",
        "ShockConditioning",
        "ShockSeries",
        "anomaly",
        "compute_baseline",
        "default_threshold",
        "make_shocks",
        "regional_mean",
        "shock_variants",
    ),
    "factors": (
        "AssociatedFactorSet",
        "CovarianceOperators",
        "SpectralDecomposition",
        "associated_factors",
        "canonical_correlations",
        "estimate_covariances",
        "regularity_diagnostic",
        "svd_cross",
    ),
    "fira": (
        "FiraResult",
        "LaggedDesign",
        "ResponseResult",
        "ShockSurface",
        "build_design",
        "fit_fira",
        "make_shock_surface",
        "respond",
    ),
    "grid": (
        "GridDomain",
        "Surface",
        "SurfaceSeries",
        "build_domain",
        "inner_product",
        "norm",
    ),
    "ingest": (
        "SectorPanel",
        "align",
        "load_gridded",
        "load_control_panel",
        "load_sector_panel",
        "write_gridded_binary",
        "write_gridded_csv",
    ),
    "localproj": (
        "BatteryResult",
        "IrfResult",
        "LpSpec",
        "fit_horizon",
        "irf",
        "run_battery",
        "select_lags",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}
# __all__ has always listed these submodules beside the exports
_SUBMODULES = (*_EXPORTS, "errors", "months")

__version__ = "0.1.0"

__all__ = sorted([*_SOURCE, *_SUBMODULES])


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__),
                        name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
