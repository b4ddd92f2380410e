"""One rule for arithmetic past the float range: every public function
raises NumericalError, never a RuntimeWarning (warnings are errors here),
and errors.no_overflow is the only code that states the rule."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from climfact.climatology import ShockConditioning, ShockSeries
from climfact.errors import NumericalError, no_overflow
from climfact.factors import (
    associated_factors,
    canonical_correlations,
    estimate_covariances,
    regularity_diagnostic,
    svd_cross,
)
from climfact.fira import build_design, fit_fira, make_shock_surface, respond
from climfact.grid import Surface, SurfaceSeries, inner_product, norm
from climfact.ingest import SectorPanel, load_sector_panel, write_panel_csv
from climfact.localproj import (
    LpSpec,
    fit_horizon,
    irf,
    run_battery,
    select_lags,
)

T = 80
HUGE = 1e200  # finite, but its square is not
MONTHS = np.datetime64("2001-01", "M") + np.arange(T)


def _series(domain, rng, huge=False):
    cube = rng.normal(size=(T,) + domain.shape)
    if huge:
        cube[3, 1, 2] = HUGE
    return SurfaceSeries(domain, MONTHS, cube, "x")


def _panel(rng, huge=False):
    values = rng.normal(size=(T, 3))
    if huge:
        values[4, 1] = HUGE
    return SectorPanel(MONTHS, ("S0", "S1", "S2"), values)


def _shock(rng):
    return ShockSeries(MONTHS, rng.normal(size=T), 0.0, ShockConditioning())


def _huge_rows(rng):
    rows = rng.normal(size=(T, 2))
    rows[6, 0] = HUGE
    return rows


def _level_jump(rng):
    """Load, under the default yoy transform, a panel file whose one
    level goes from 1e-300 to 1e300 a year later."""
    levels = 1.0 + rng.uniform(size=(T, 2))
    levels[0, 1], levels[12, 1] = 1e-300, 1e300
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "levels.csv"
        write_panel_csv(SectorPanel(MONTHS, ("S0", "S1"), levels), path)
        return load_sector_panel(path)


def _respond(domain, rng):
    cube = rng.normal(size=(T,) + domain.shape)
    y = rng.normal(size=(T, 3))
    y[:, 0] += 3.0 * cube[:, domain.mask].mean(axis=1)
    fitted = fit_fira(build_design(SurfaceSeries(domain, MONTHS, cube, "x")),
                      SectorPanel(MONTHS, ("S0", "S1", "S2"), y), h_max=1,
                      tol=1e-6)
    assert all(entry is not None for entry in fitted.by_horizon)
    return respond(fitted, make_shock_surface(1.7e308, (41.5, 6.5), 500.0,
                                              domain))


# each call puts one finite value whose arithmetic passes the float range
# where the function reads it: the panel, the grid or the array it takes
CALLS = {
    "estimate_covariances": ("matmul", lambda d, rng: estimate_covariances(
        _panel(rng, huge=True), _series(d, rng))),
    "svd_cross": ("matmul", lambda d, rng: svd_cross(estimate_covariances(
        _panel(rng), _series(d, rng, huge=True)))),
    "canonical_correlations": ("matmul", lambda d, rng: canonical_correlations(
        _huge_rows(rng), rng.normal(size=(T, 2)))),
    "associated_factors": ("matmul", lambda d, rng: associated_factors(
        _panel(rng, huge=True), _series(d, rng))),
    "regularity_diagnostic": ("matmul", lambda d, rng: regularity_diagnostic(
        _panel(rng, huge=True), _series(d, rng))),
    "build_design": ("square", lambda d, rng: build_design(
        _series(d, rng, huge=True), standardize=True)),
    "fit_fira": ("matmul", lambda d, rng: fit_fira(
        build_design(_series(d, rng)), _panel(rng, huge=True), h_max=2)),
    "respond": ("matmul", _respond),
    "irf": ("square", lambda d, rng: irf(
        "S1", _panel(rng, huge=True), _shock(rng), LpSpec(h_max=3, p_max=2))),
    "run_battery": ("square", lambda d, rng: run_battery(
        _panel(rng, huge=True), {"all": _shock(rng)},
        LpSpec(h_max=3, p_max=2))),
    "select_lags": ("square", lambda d, rng: select_lags(
        _huge_rows(rng)[:, 0], rng.normal(size=T), _huge_rows(rng)[:, :1],
        None, LpSpec(h_max=3, p_max=2))),
    "fit_horizon": ("multiply", lambda d, rng: fit_horizon(
        _huge_rows(rng)[:, 0], rng.normal(size=T), rng.normal(size=(T, 1)),
        None, 1, LpSpec(h_max=3, p_max=2), 1, 0)),
    "load_sector_panel": ("divide", lambda d, rng: _level_jump(rng)),
    "norm": ("square", lambda d, rng: norm(
        Surface(d, np.where(np.eye(3, dtype=bool), HUGE, 1.0)))),
    "inner_product": ("multiply", lambda d, rng: inner_product(
        *[Surface(d, np.where(np.eye(3, dtype=bool), HUGE, 1.0))] * 2)),
}


@pytest.mark.parametrize("name", CALLS)
def test_an_overflow_ends_the_call_as_a_numerical_error(small_domain, rng,
                                                        name):
    # run_battery and fit_fira record a failing cell or horizon and go
    # on; an overflow in one ends the whole call instead
    operation, call = CALLS[name]
    with pytest.raises(NumericalError,
                       match=f"^overflow encountered in {operation}$"):
        call(small_domain, rng)


def test_the_guard_is_a_with_block_and_restores_the_error_state():
    before = np.geterr()
    with pytest.raises(NumericalError,
                       match="^overflow encountered in scalar multiply$"):
        with no_overflow():
            np.float64(HUGE) * HUGE
    assert np.geterr() == before


def test_the_outermost_guard_alone_converts():
    # an inner guard's NumericalError would be caught as one failed item
    @no_overflow()
    def item(x):
        return np.float64(x) * x

    @no_overflow()
    def batch(xs):
        done = []
        for x in xs:
            try:
                done.append(item(x))
            except NumericalError:
                done.append(None)
        return done

    assert item(2.0) == 4.0
    with pytest.raises(NumericalError):
        batch([1.0, HUGE, 3.0])


_RULE = re.compile(r"""over\s*=\s*["']raise["']|FloatingPointError""")


def test_no_module_but_errors_states_the_overflow_rule():
    # ingest's deliberate errstate(over="ignore") and errstate(divide=...,
    # invalid=...) are other rules and stay
    src = Path(__file__).resolve().parent.parent / "src" / "climfact"
    stating = sorted(path.name for path in src.rglob("*.py")
                     if _RULE.search(path.read_text(encoding="utf-8")))
    assert stating == ["errors.py"]
