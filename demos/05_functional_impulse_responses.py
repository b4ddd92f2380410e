"""Responses of a sector panel to a spatially parameterized shock.

The design at each month stacks the contemporaneous anomaly surface (and
optionally its lags plus lagged panels) into one composite element. Per
horizon, associated factors link the panel to the lagged design; a
synthetic shock with chosen magnitude, center and radius is then pushed
through the fitted directions to get per-sector response paths.

Writes demo_output/fira_demo.svg with the shock map and response heatmap.
"""

from pathlib import Path

import numpy as np

from climfact import build_design, fit_fira, make_shock_surface, respond
from climfact.svgplot import fira_figure
from climfact.synth import KINDS

# the fixture `climfact synth` writes for kind fira-demo, at its defaults
rng = np.random.default_rng(5)
grids, panel, _ = KINDS["fira-demo"](rng)
series = grids["temperature_anomaly"]
print(f"panel: {panel.n_sectors} sectors x {len(panel.times)} months; "
      f"grid {series.domain.n_lat} x {series.domain.n_lon}")

design = build_design(series, lags=(0, 0, 0))
fitted = fit_fira(design, panel, h_max=6, tol=0.2)
k_per_h = [e.k if e else 0 for e in fitted.by_horizon]
print(f"components per horizon: {k_per_h}")

# a 1.5-unit shock of 150 km radius centered on the planted loading
shock = make_shock_surface(1.5, (53.0, 11.5), 150.0, series.domain)
print(f"shock footprint: {shock.n_cells} cells, "
      f"{shock.footprint_area_km2:,.0f} km^2 "
      f"(disk area {np.pi * 150**2:,.0f})")

response = respond(fitted, shock)
impact = np.abs(response.canonical).max(axis=0)
ranked = sorted(zip(panel.sector_ids, impact), key=lambda t: -t[1])
print("\nsector  peak |response|")
for sector, value in ranked:
    marker = "  <- planted" if sector == panel.sector_ids[2] else ""
    print(f"{sector:<7} {value:.4f}{marker}")

# location sensitivity: the same shock displaced away from the loading
# projects far more weakly on the leading direction
from climfact.factors import hat_vector

entry = fitted.by_horizon[0]
x0 = fitted.blocks[0]
b1 = entry.b_hat[0, x0.start:x0.stop]
far_shock = make_shock_surface(1.5, (48.5, 13.5), 150.0, series.domain)
near_load = abs(float(b1 @ hat_vector(shock.surface)))
far_load = abs(float(b1 @ hat_vector(far_shock.surface)))
print(f"\nleading-direction projection, shock on loading:  {near_load:.4f}")
print(f"leading-direction projection, shock displaced:   {far_load:.4f}")

out = Path(__file__).parent / "demo_output"
out.mkdir(exist_ok=True)
figure = fira_figure(series.domain, shock.surface.values, response.canonical,
                     panel.sector_ids, fitted.horizons,
                     "response to a localized 1.5-unit anomaly")
(out / "fira_demo.svg").write_text(figure)
print(f"\nwrote {out / 'fira_demo.svg'}")
