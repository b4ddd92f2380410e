import itertools
import math
from statistics import NormalDist

import numpy as np
import pytest
import scipy.linalg

from climfact import localproj
from climfact.climatology import ScalarSeries, ShockSeries, ShockConditioning
from climfact.errors import (
    InsufficientSample,
    NonConformable,
    RankDeficientDesign,
)
from climfact.ingest import SectorPanel
from climfact.localproj import (
    LpSpec,
    fit_horizon,
    irf,
    run_battery,
    select_lags,
    aic_value,
)
from climfact.synth import var1_simulate, var_irf_path

PHI = np.array([[0.5, 0.1], [0.0, 0.3]])
B = np.array([1.0, 0.4])


def _shock_series(values, start="2001-01", name="shock"):
    times = np.datetime64(start, "M") + np.arange(len(values))
    return ShockSeries(times, np.asarray(values, dtype=float), 1.0,
                       ShockConditioning(), name)


def _panel(values, start="2001-01"):
    values = np.atleast_2d(values.T).T
    times = np.datetime64(start, "M") + np.arange(values.shape[0])
    ids = tuple(f"S{j}" for j in range(values.shape[1]))
    return SectorPanel(times, ids, values)


# -- frozen reference: the pivoted-QR engine with an explicit (X'X)^-1 ------
# The estimation core before the QR/FWL rewrite, kept verbatim as the
# reference path; the production code must match it on randomized designs.
# Its natural-order designs come from production's _matrix and _labels.


def _design(y, x, endo, controls, h, p, l, spec, t_start=None):
    """Design matrix, target vector and column labels for one horizon.

    Rows are periods t with every lag available and t+h observed; passing
    t_start pins the first usable period so lag candidates share a common
    estimation window. Columns are in natural order: const, endo lags
    (series by series), shock lags 0..r, then control lags grouped by lag.
    """
    n_ctrl = 0 if controls is None else controls.shape[1]
    t0 = max(p, spec.r, l if n_ctrl else 0) if t_start is None else t_start
    if len(y) - h - t0 < 1:
        raise InsufficientSample(f"no usable rows at horizon {h}")
    X = localproj._matrix(x, endo, controls, p, l, spec, t0, len(y) - h)
    return X, y[t0 + h:], localproj._labels(endo.shape[1], p, l, spec,
                                            n_ctrl)


def _ols(X, target, labels):
    """Pivoted-QR least squares with an explicit rank check."""
    n, k = X.shape
    if n < 10 + k:
        raise InsufficientSample(
            f"{n} rows cannot support {k} regressors (need >= {10 + k})"
        )
    Q, R, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = np.finfo(float).eps * max(n, k) * (diag.max() if diag.size else 0.0)
    rank = int(np.sum(diag > tol))
    if rank < k:
        offending = [labels[j] for j in sorted(piv[rank:])]
        raise RankDeficientDesign("design matrix is rank deficient", offending)
    coef_piv = scipy.linalg.solve_triangular(R, Q.T @ target)
    beta = np.empty(k)
    beta[piv] = coef_piv
    rinv = scipy.linalg.solve_triangular(R, np.eye(k))
    xtx_inv = np.empty((k, k))
    xtx_inv[np.ix_(piv, piv)] = rinv @ rinv.T
    resid = target - X @ beta
    return beta, resid, xtx_inv


def hac_covariance(X, resid, xtx_inv, bandwidth):
    """Newey-West coefficient covariance with the given lag truncation.

    bandwidth 0 is defined as the classical homoskedastic OLS covariance
    (not the lag-0 robust sandwich), matching the module contract.
    """
    n, k = X.shape
    if bandwidth == 0:
        sigma2 = float(resid @ resid) / (n - k)
        return sigma2 * xtx_inv
    g = X * resid[:, None]
    S = g.T @ g
    for j in range(1, min(bandwidth, n - 1) + 1):
        w = 1.0 - j / (bandwidth + 1.0)
        gamma = g[j:].T @ g[:-j]
        S += w * (gamma + gamma.T)
    return xtx_inv @ S @ xtx_inv


def _reference_fit(y, x, endo, controls, h, spec, p, l):
    """(estimate, se, lo, hi) of the contemporaneous shock at horizon h."""
    X, target, labels = _design(y, x, endo, controls, h, p, l, spec)
    beta, resid, xtx_inv = _ols(X, target, labels)
    cov = hac_covariance(X, resid, xtx_inv, bandwidth=h + 1)
    j = labels.index("shock[-0]")
    se = math.sqrt(max(cov[j, j], 0.0))
    z = NormalDist().inv_cdf(0.5 + spec.ci_level / 2.0)
    est = float(beta[j])
    return est, se, est - z * se, est + z * se


def _reference_select(y, x, endo, controls, spec):
    """One pivoted-QR fit per (p, l) candidate, scored by AIC."""
    has_controls = controls is not None and controls.shape[1] > 0
    l_grid = range(1, spec.l_max + 1) if has_controls else [0]
    t_start = max(spec.p_max, spec.r, spec.l_max if has_controls else 0)
    best = None
    for p in range(1, spec.p_max + 1):
        for l in l_grid:
            X, target, labels = _design(
                y, x, endo, controls, 0, p, l, spec, t_start=t_start
            )
            _, resid, _ = _ols(X, target, labels)
            n, k = X.shape
            key = (aic_value(n, float(resid @ resid), k), k, p, l)
            if best is None or key < best[0]:
                best = (key, (p, l))
    return best[1]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (InsufficientSample, RankDeficientDesign) as exc:
        return type(exc).__name__, str(exc)


class TestFitHorizon:
    def test_known_coefficient_recovered(self, rng):
        T = 400
        x = rng.normal(size=T)
        y = 0.5 * x + 0.2 * rng.normal(size=T)
        spec = LpSpec(h_max=1, p_max=1, l_max=1)
        est = fit_horizon(y, x, y[:, None], None, 0, spec, p=1, l=0)
        assert abs(est.estimate - 0.5) < 3 * est.se
        assert est.lo < est.estimate < est.hi

    def test_null_design_coverage(self, rng):
        hits = 0
        n_sims = 500
        spec = LpSpec(h_max=1, p_max=1, l_max=1)
        for _ in range(n_sims):
            y = rng.normal(size=120)
            x = rng.normal(size=120)
            est = fit_horizon(y, x, y[:, None], None, 0, spec, p=1, l=0)
            if abs(est.estimate) <= 2 * est.se:
                hits += 1
        assert hits >= 0.90 * n_sims

    def test_insufficient_sample(self, rng):
        y = rng.normal(size=13)
        x = rng.normal(size=13)
        spec = LpSpec(h_max=1, p_max=1, l_max=1)
        with pytest.raises(InsufficientSample):
            fit_horizon(y, x, y[:, None], None, 0, spec, p=1, l=0)

    def test_constant_shock_is_rank_deficient(self, rng):
        y = rng.normal(size=100)
        x = np.ones(100)
        spec = LpSpec(h_max=1, p_max=1, l_max=1)
        with pytest.raises(RankDeficientDesign) as err:
            fit_horizon(y, x, y[:, None], None, 0, spec, p=1, l=0)
        assert any("shock" in c or "const" in c for c in err.value.columns)

    def test_contemporaneous_control_ordering(self, rng):
        # both orderings are supported: controls lagged-only vs entering at
        # lag zero alongside the shock
        T = 300
        z = rng.normal(size=(T, 1))
        x = rng.normal(size=T)
        y = 0.5 * x + 0.8 * z[:, 0] + 0.1 * rng.normal(size=T)
        lagged = LpSpec(h_max=1, p_max=1, l_max=1)
        contemp = LpSpec(h_max=1, p_max=1, l_max=1,
                         contemporaneous_controls=True)
        est_lagged = fit_horizon(y, x, y[:, None], z, 0, lagged, p=1, l=1)
        est_contemp = fit_horizon(y, x, y[:, None], z, 0, contemp, p=1, l=1)
        # with the control absorbed contemporaneously the shock SE shrinks
        assert est_contemp.se < est_lagged.se
        assert abs(est_contemp.estimate - 0.5) < 3 * est_contemp.se

    def test_duplicated_control_names_offender(self, rng):
        y = rng.normal(size=100)
        x = rng.normal(size=100)
        z = rng.normal(size=100)
        controls = np.column_stack([z, z])
        spec = LpSpec(h_max=1, p_max=1, l_max=1)
        with pytest.raises(RankDeficientDesign) as err:
            fit_horizon(y, x, y[:, None], controls, 0, spec, p=1, l=1)
        assert any(c.startswith("ctrl") for c in err.value.columns)

    def test_near_collinear_controls_name_a_control(self, rng):
        # the pair differs only at the rounding floor of the design
        T = 800
        y = rng.normal(size=T)
        x = rng.normal(size=T)
        z = rng.normal(size=T)
        controls = np.column_stack([z, z + 1e-13 * rng.normal(size=T)])
        spec = LpSpec(h_max=1, p_max=1, l_max=1)
        with pytest.raises(RankDeficientDesign) as err:
            fit_horizon(y, x, y[:, None], controls, 0, spec, p=1, l=1)
        assert any(c.startswith("ctrl") for c in err.value.columns)
        for select in (select_lags, _reference_select):
            outcome = _outcome(select, y, x, y[:, None], controls, spec)
            assert outcome[0] == "RankDeficientDesign"


class TestShockLags:
    def test_distributed_lag_coefficients_recovered(self, rng):
        T = 600
        x = rng.normal(size=T)
        y = np.empty(T)
        y[0] = 0.0
        y[1:] = 0.5 * x[1:] + 0.3 * x[:-1]
        y += 0.1 * rng.normal(size=T)
        spec = LpSpec(h_max=1, p_max=1, l_max=1, r=1)
        est = fit_horizon(y, x, y[:, None], None, 0, spec, p=1, l=0)
        # the reported coefficient is the contemporaneous one
        assert abs(est.estimate - 0.5) < 3 * est.se


class TestHac:
    def test_hac_variances_nonnegative(self, rng):
        # the shock column is last in this design, so e = R_kk q_k
        T = 200
        x = rng.normal(size=T)
        y = rng.normal(size=T)
        spec = LpSpec(h_max=1, p_max=1, l_max=1)
        X, target, labels = _design(y, x, y[:, None], None, 0, 1, 0, spec)
        assert labels[-1] == "shock[-0]"
        Q, R = np.linalg.qr(X)
        e = R[-1, -1] * Q[:, -1]
        resid = target - Q @ (Q.T @ target)
        bandwidths = np.array([1, 3, 8, 24])
        var = localproj._hac(np.tile(e, (4, 1)), np.tile(resid, (4, 1)),
                             bandwidths, np.full(4, len(resid)))
        assert (var >= 0.0).all()


class TestFitDesign:
    @pytest.mark.parametrize("seed", range(40))
    def test_equals_the_reference_design_with_the_shock_moved_back(self,
                                                                   seed):
        # production's horizon-0 design is the reference design with the
        # shock column moved last, to the last bit
        rng = np.random.default_rng([seed, 43])
        T = int(rng.integers(20, 60))
        n_endo, n_ctrl = int(rng.integers(1, 4)), int(rng.integers(0, 3))
        p, r = int(rng.integers(1, 6)), int(rng.integers(0, 3))
        l = int(rng.integers(1, 5)) if n_ctrl else 0
        spec = LpSpec(p_max=p, l_max=max(l, 1), r=r,
                      contemporaneous_controls=bool(rng.integers(2)))
        y, x = rng.normal(size=T), rng.normal(size=T)
        endo = np.column_stack([y, rng.normal(size=(T, n_endo - 1))])
        controls = rng.normal(size=(T, n_ctrl)) if n_ctrl else None
        X, target, names = localproj._fit_design(y, x, endo, controls, spec,
                                                 p, l)
        ref, ref_target, labels = _design(y, x, endo, controls, 0, p, l,
                                          spec)
        j = labels.index("shock[-0]")
        back = np.insert(X[:, :-1], j, X[:, -1], axis=1)
        assert back.shape == ref.shape and back.tobytes() == ref.tobytes()
        assert target.tobytes() == ref_target.tobytes()
        assert names() == [*labels[:j], *labels[j + 1:], labels[j]]


class TestSelectLags:
    def test_ar1_selects_one_lag_majority(self, rng):
        spec = LpSpec(h_max=1, p_max=4, l_max=1)
        wins = 0
        n_sims = 200
        for _ in range(n_sims):
            T = 300
            y = np.zeros(T)
            eps = rng.normal(size=T)
            for t in range(1, T):
                y[t] = 0.8 * y[t - 1] + eps[t]
            x = rng.normal(size=T)
            p, _ = select_lags(y, x, y[:, None], None, spec)
            wins += p == 1
        assert wins > n_sims / 2

    def test_white_noise_selects_smallest(self, rng):
        spec = LpSpec(h_max=1, p_max=4, l_max=1)
        wins = 0
        n_sims = 200
        for _ in range(n_sims):
            y = rng.normal(size=250)
            x = rng.normal(size=250)
            p, _ = select_lags(y, x, y[:, None], None, spec)
            wins += p == 1
        assert wins > n_sims / 2

    def test_identical_ssr_prefers_fewer_parameters(self):
        # with equal fits only the penalty term differs
        for ssr in (1e-6, 1.0, 250.0):
            assert aic_value(200, ssr, 3) < aic_value(200, ssr, 4)

    def test_informative_control_lag_selected(self, rng):
        wins = 0
        n_sims = 40
        spec = LpSpec(h_max=1, p_max=2, l_max=3)
        for _ in range(n_sims):
            T = 400
            z = rng.normal(size=(T, 1))
            x = rng.normal(size=T)
            y = np.zeros(T)
            y[2:] = 1.2 * z[:-2, 0]  # control matters at lag 2 only
            y += 0.2 * rng.normal(size=T)
            _, l = select_lags(y, x, y[:, None], z, spec)
            wins += l >= 2
        assert wins >= 0.9 * n_sims


def _random_case(case):
    """A seeded LP problem: AR(2) target, thresholded shock, AR(1) controls."""
    T, n_ctrl, r, contemporaneous = case
    rng = np.random.default_rng([T, n_ctrl, r, contemporaneous, 11])
    x = np.maximum(rng.normal(size=T) - 0.3, 0.0)
    z = np.zeros((T, n_ctrl))
    for t in range(1, T):
        z[t] = 0.6 * z[t - 1] + rng.normal(size=n_ctrl)
    y = rng.normal(size=T) + 0.5 * x
    if n_ctrl:
        y[2:] += 0.4 * z[:-2, 0]
    for t in range(2, T):
        y[t] += 0.5 * y[t - 1] - 0.2 * y[t - 2]
    endo = y[:, None]
    if T % 2 == 0:   # an extra endogenous series on half the cases
        endo = np.column_stack([y, np.cumsum(rng.normal(size=T)) * 0.1])
    spec = LpSpec(h_max=6, p_max=8, l_max=8, r=r,
                  contemporaneous_controls=contemporaneous)
    return y, x, endo, (z if n_ctrl else None), spec


RANDOM_CASES = list(itertools.product((60, 61, 240, 900), (0, 1, 3), (0, 1),
                                      (False, True)))


class TestReferencePath:
    @pytest.mark.parametrize("case", RANDOM_CASES, ids=str)
    def test_matches_the_pivoted_reference(self, case):
        y, x, endo, controls, spec = _random_case(case)
        chosen = _outcome(select_lags, y, x, endo, controls, spec)
        assert chosen == _outcome(_reference_select, y, x, endo, controls,
                                  spec)
        if isinstance(chosen[0], str):
            return
        p, l = chosen
        for h in range(spec.h_max + 1):
            new = fit_horizon(y, x, endo, controls, h, spec, p, l)
            ref = _reference_fit(y, x, endo, controls, h, spec, p, l)
            np.testing.assert_allclose(
                [new.estimate, new.se, new.lo, new.hi], ref, rtol=1e-10)

    def test_cases_cover_both_outcomes(self):
        raised = [isinstance(_outcome(select_lags, *_random_case(c))[0], str)
                  for c in RANDOM_CASES]
        assert 30 <= raised.count(False) < len(RANDOM_CASES)


class TestIrf:
    def test_var_oracle_small(self, rng):
        spec = LpSpec(h_max=6, p_max=1, l_max=1, lag_selection="fixed")
        n_sims, h_max = 20, 6
        truth = var_irf_path(PHI, B, h_max)[:, 0]
        ok = np.zeros((n_sims, h_max + 1), dtype=bool)
        for s in range(n_sims):
            W, x = var1_simulate(2000, PHI, B, rng)
            panel = _panel(W)
            shock = _shock_series(x)
            result = irf("S0", panel, shock, spec,
                         extra_endogenous=_panel(W[:, 1:]))
            ok[s] = np.abs(result.estimate - truth) <= 3 * result.se
        assert ok.mean(axis=0).min() >= 0.80

    def test_sign_flip_negates_exactly(self, rng):
        W, x = var1_simulate(300, PHI, B, rng)
        panel = _panel(W[:, :1])
        spec = LpSpec(h_max=4, p_max=2, l_max=1, lag_selection="fixed")
        plus = irf("S0", panel, _shock_series(x), spec)
        minus = irf("S0", panel, _shock_series(-x), spec)
        np.testing.assert_allclose(minus.estimate, -plus.estimate, atol=1e-10)
        np.testing.assert_allclose(minus.se, plus.se, rtol=1e-10)

    def test_unit_response_invariant_to_shock_scale(self, rng):
        W, x = var1_simulate(300, PHI, B, rng)
        panel = _panel(W[:, :1])
        spec = LpSpec(h_max=3, p_max=2, l_max=1, lag_selection="fixed")
        base = irf("S0", panel, _shock_series(x), spec)
        scaled = irf("S0", panel, _shock_series(5.0 * x), spec)
        np.testing.assert_allclose(scaled.estimate, base.estimate / 5.0,
                                   atol=1e-12)

    def test_ci_contains_point(self, rng):
        W, x = var1_simulate(300, PHI, B, rng)
        result = irf("S0", _panel(W[:, :1]), _shock_series(x),
                     LpSpec(h_max=8, p_max=2, l_max=1))
        assert np.all(result.lo <= result.estimate)
        assert np.all(result.estimate <= result.hi)

    @pytest.mark.parametrize("r,contemporaneous,extra", [
        (0, False, False), (1, True, True), (2, False, True)])
    def test_every_horizon_equals_fit_horizon(self, rng, r, contemporaneous,
                                              extra):
        # irf slices one horizon-0 design; each horizon must equal a
        # fit_horizon call that builds its own design, to the last bit
        W, x = var1_simulate(150, PHI, B, rng)
        controls = _panel(rng.normal(size=(150, 2)))
        spec = LpSpec(h_max=12, p_max=3, l_max=2, r=r,
                      contemporaneous_controls=contemporaneous)
        result = irf("S0", _panel(W[:, :1]), _shock_series(x), spec,
                     extra_endogenous=_panel(W[:, 1:]) if extra else None,
                     controls=controls)
        endo = W if extra else W[:, :1]
        for h in result.horizons:
            one = fit_horizon(W[:, 0], x, endo, controls.values, h, spec,
                              result.p, result.l)
            assert (one.estimate, one.se, one.lo, one.hi, one.nobs,
                    one.resid_sd) == (
                result.estimate[h], result.se[h], result.lo[h], result.hi[h],
                result.nobs[h], result.resid_sd[h])

    def test_first_horizon_past_the_sample_fails_as_fit_horizon(self, rng):
        W, x = var1_simulate(40, PHI, B, rng)
        spec = LpSpec(h_max=39, p_max=1, l_max=1, lag_selection="fixed")
        for h in range(spec.h_max + 1):
            try:
                fit_horizon(W[:, 0], x, W[:, :1], None, h, spec, 1, 0)
            except InsufficientSample as exc:
                expected = str(exc)
                break
        with pytest.raises(InsufficientSample) as info:
            irf("S0", _panel(W[:, :1]), _shock_series(x), spec)
        assert str(info.value) == expected


class TestBattery:
    def test_cardinality(self, rng):
        W, x = var1_simulate(300, PHI, B, rng)
        panel = _panel(np.column_stack([W[:, 0], rng.normal(size=300)]))
        shocks = {"all": _shock_series(x), "positive": _shock_series(
            np.where(x > 0, x, 0.0))}
        battery = run_battery(panel, shocks,
                              LpSpec(h_max=3, p_max=1, l_max=1,
                                     lag_selection="fixed"))
        assert len(battery.results) == 4
        assert battery.failures == ()

    def test_bad_sector_isolated(self, rng):
        W, x = var1_simulate(300, PHI, B, rng)
        panel = _panel(np.column_stack([W[:, 0], np.full(300, 7.0)]))
        shocks = {"all": _shock_series(x)}
        battery = run_battery(panel, shocks,
                              LpSpec(h_max=3, p_max=1, l_max=1,
                                     lag_selection="fixed"))
        assert ("S0", "all") in battery.results
        assert len(battery.failures) == 1
        assert battery.failures[0][:2] == ("S1", "all")

    def test_design_shock_column_identity_across_seasons(self, rng):
        # data-level identity: seasonal shock columns sum to the all-season one
        values = rng.normal(1.0, 1.5, 240)
        times = np.datetime64("2001-01", "M") + np.arange(240)
        from climfact.climatology import shock_variants
        table = shock_variants(ScalarSeries(times, values), 1.0)
        total = sum(table[s].values
                    for s in ("spring", "summer", "autumn", "winter"))
        np.testing.assert_array_equal(total, table["all"].values)


# -- the stacked battery ---------------------------------------------------


def _battery_case(r, contemporaneous):
    """Three sectors, one extra endogenous series, two controls and nine
    shock variants: thresholded, seasonal and signed ones, one that is
    all zero (rank deficient) and one covering the last 14 months only
    (too short for any lag candidate)."""
    T = 150
    rng = np.random.default_rng([r, contemporaneous, 29])
    base = rng.normal(size=T)
    x = np.maximum(base - 0.3, 0.0)
    z = np.zeros((T, 2))
    y = np.zeros((T, 3))
    for t in range(1, T):
        z[t] = 0.6 * z[t - 1] + rng.normal(size=2)
        y[t] = 0.5 * y[t - 1] + 0.4 * x[t] + 0.3 * z[t - 1, 0] \
            + rng.normal(size=3)
    month = np.arange(T) % 12
    variants = {"all": x, "negative": np.maximum(-base - 0.3, 0.0),
                "zero": np.zeros(T)}
    for season, months in (("spring", (2, 3, 4)), ("summer", (5, 6, 7)),
                           ("autumn", (8, 9, 10)), ("winter", (11, 0, 1))):
        variants[season] = np.where(np.isin(month, months), x, 0.0)
    shocks = {name: _shock_series(values, name=name)
              for name, values in variants.items()}
    shocks["short"] = _shock_series(x[-14:], start=str(
        np.datetime64("2001-01", "M") + T - 14), name="short")
    spec = LpSpec(h_max=6, p_max=4, l_max=3, r=r,
                  contemporaneous_controls=contemporaneous)
    extra = _panel(np.cumsum(rng.normal(size=T))[:, None] * 0.1)
    return _panel(y), shocks, extra, _panel(z), spec


class TestStackedBattery:
    @pytest.mark.parametrize("r,contemporaneous",
                             list(itertools.product((0, 1), (False, True))))
    def test_battery_equals_irf_and_the_reference(self, r, contemporaneous):
        panel, shocks, extra, controls, spec = _battery_case(r,
                                                             contemporaneous)
        battery = run_battery(panel, shocks, spec, extra_endogenous=extra,
                              controls=controls)
        failures = []
        for j, sector in enumerate(panel.sector_ids):
            for variant, shock in shocks.items():
                # the arrays irf aligns: every series but "short" spans
                # the whole panel
                rows = slice(-len(shock), None)
                y, ctrl = panel.values[rows, j], controls.values[rows]
                endo = np.column_stack([y, extra.values[rows, 0]])
                reference = _outcome(_reference_select, y, shock.values,
                                     endo, ctrl, spec)
                try:
                    one = irf(sector, panel, shock, spec,
                              extra_endogenous=extra, controls=controls)
                except (InsufficientSample, RankDeficientDesign) as exc:
                    failures.append((sector, variant, type(exc).__name__,
                                     str(exc)))
                    assert reference[0] == type(exc).__name__
                    continue
                got = battery.results[(sector, variant)]
                assert (got.p, got.l) == (one.p, one.l) == reference
                for name in ("horizons", "estimate", "se", "lo", "hi",
                             "nobs", "resid_sd"):
                    assert getattr(got, name).tobytes() == \
                        getattr(one, name).tobytes()
                for h in one.horizons:
                    np.testing.assert_allclose(
                        [one.estimate[h], one.se[h], one.lo[h], one.hi[h]],
                        _reference_fit(y, shock.values, endo, ctrl, h, spec,
                                       one.p, one.l), rtol=1e-10)
                    X, target, labels = _design(y, shock.values, endo, ctrl,
                                                h, one.p, one.l, spec)
                    _, resid, _ = _ols(X, target, labels)
                    assert one.nobs[h] == len(target)
                    np.testing.assert_allclose(
                        one.resid_sd[h],
                        np.sqrt(resid @ resid / (len(target) - X.shape[1])),
                        rtol=1e-10)
        assert battery.failures == tuple(failures)
        assert len(battery.results) + len(failures) == 3 * len(shocks)
        failed = {(s, v): error for s, v, error, _ in failures}
        for sector in panel.sector_ids:
            assert failed[(sector, "zero")] == "RankDeficientDesign"
            assert failed[(sector, "short")] == "InsufficientSample"

    def test_one_search_qr_per_p_and_one_fit_qr_per_cell(self, monkeypatch):
        panel, shocks, extra, controls, spec = _battery_case(1, True)
        calls = []
        qr = np.linalg.qr

        def counting(a, mode="reduced"):
            calls.append((mode, a.shape[0]))
            return qr(a, mode=mode)
        monkeypatch.setattr(np.linalg, "qr", counting)
        battery = run_battery(panel, shocks, spec, extra_endogenous=extra,
                              controls=controls)
        search = [stack for mode, stack in calls if mode == "r"]
        fits = [stack for mode, stack in calls if mode == "reduced"]
        # per sector, p = 1 stacks the seven full-length variants and
        # "zero" fails there; "short" has too few rows for any QR
        assert search == ([7] + [6] * (spec.p_max - 1)) * 3
        assert len(fits) == len(battery.results)
        assert set(fits) == {spec.h_max + 1}


class TestFailureRecording:
    @staticmethod
    def _inputs(rng):
        W, x = var1_simulate(200, PHI, B, rng)
        panel = _panel(np.column_stack([W[:, 0], rng.normal(size=200)]))
        shocks = {"all": _shock_series(x),
                  "zero": _shock_series(np.zeros(200), name="zero")}
        return panel, shocks, LpSpec(h_max=3, p_max=2, l_max=1)

    def test_estimation_failure_is_recorded(self, rng):
        panel, shocks, spec = self._inputs(rng)
        battery = run_battery(panel, shocks, spec)
        assert sorted(battery.results) == [("S0", "all"), ("S1", "all")]
        assert [f[:3] for f in battery.failures] == [
            ("S0", "zero", "RankDeficientDesign"),
            ("S1", "zero", "RankDeficientDesign")]

    def test_engine_fault_propagates(self, rng, monkeypatch):
        panel, shocks, spec = self._inputs(rng)

        def broken(*args, **kwargs):
            raise TypeError("engine fault")
        monkeypatch.setattr(localproj, "_stack_fit", broken)
        with pytest.raises(TypeError, match="engine fault"):
            run_battery(panel, shocks, spec)

    def test_unknown_sector_fails_before_any_cell(self, rng, monkeypatch):
        panel, shocks, spec = self._inputs(rng)
        ran = []
        monkeypatch.setattr(localproj, "_sector_cells",
                            lambda *args: ran.append(args))
        with pytest.raises(NonConformable, match="NOPE"):
            run_battery(panel, shocks, spec, sectors=("S0", "NOPE"))
        with pytest.raises(NonConformable, match="NOPE"):
            irf("NOPE", panel, shocks["all"], spec)
        assert ran == []
