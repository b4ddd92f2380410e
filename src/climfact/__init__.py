"""Weather surfaces and sectoral prices: anomalies, threshold shocks,
local-projection impulse responses, associated factors, and functional
impulse-response analysis on gridded data."""

from .climatology import (
    MonthlyBaseline,
    ScalarSeries,
    ShockConditioning,
    ShockSeries,
    anomaly,
    compute_baseline,
    default_threshold,
    make_shocks,
    regional_mean,
    shock_variants,
)
from .factors import (
    AssociatedFactorSet,
    CovarianceOperators,
    SpectralDecomposition,
    associated_factors,
    canonical_correlations,
    estimate_covariances,
    regularity_diagnostic,
    svd_cross,
)
from .fira import (
    FiraResult,
    LaggedDesign,
    ResponseResult,
    ShockSurface,
    build_design,
    fit_fira,
    make_shock_surface,
    respond,
)
from .grid import (
    GridDomain,
    Surface,
    SurfaceSeries,
    build_domain,
    inner_product,
    norm,
)
from .ingest import (
    ControlPanel,
    SectorPanel,
    align,
    load_gridded,
    load_control_panel,
    load_sector_panel,
    write_gridded_binary,
    write_gridded_csv,
)
from .localproj import (
    BatteryResult,
    IrfResult,
    LpSpec,
    fit_horizon,
    irf,
    run_battery,
    select_lags,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
