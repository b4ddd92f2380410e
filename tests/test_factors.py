import copy

import numpy as np
import pytest
import scipy.linalg

import climfact.factors as factors_module
from climfact.errors import (
    ClimfactError,
    NumericalError,
    SingularFactorCovariance,
    ZeroCrossCovariance,
)
from climfact.factors import (
    RegularityReport,
    associated_factors,
    canonical_correlations,
    center_columns,
    cross_singular_triplets,
    estimate_covariances,
    gram_eigensystem,
    hat_matrix,
    hat_vector,
    permutation_cutoffs,
    regularity_diagnostic,
    surface_from_hat,
    svd_cross,
    two_stage,
)
from climfact.grid import Surface, SurfaceSeries, build_domain, inner_product
from climfact.ingest import SectorPanel, align
from climfact.synth import exact_factor_model, planted_factor_instance

MONTH0 = np.datetime64("2001-01", "M")


def _panel(values):
    T, p = values.shape
    return SectorPanel(MONTH0 + np.arange(T), tuple(f"S{j}" for j in range(p)),
                       values)


def _series(domain, cube, name="x"):
    cube = np.where(domain.mask[None], cube, np.nan)
    return SurfaceSeries(domain, MONTH0 + np.arange(cube.shape[0]), cube, name)


def direct_cca_oracle(panel, series):
    """Full-space CCA from the correlation operator with explicit inverse
    square roots; the independent check for the two-stage pipeline."""
    Y = panel.values
    X = hat_matrix(series)
    T = Y.shape[0]
    yc = Y - Y.mean(axis=0)
    xc = X - X.mean(axis=0)
    syy = yc.T @ yc / (T - 1)
    sxx = xc.T @ xc / (T - 1)
    syx = yc.T @ xc / (T - 1)

    def inv_sqrt(S):
        vals, vecs = np.linalg.eigh(S)
        return (vecs / np.sqrt(vals)) @ vecs.T

    iy, ix = inv_sqrt(syy), inv_sqrt(sxx)
    U, s, Vt = np.linalg.svd(iy @ syx @ ix)
    return s, iy @ U, ix @ Vt.T


class TestEstimateCovariances:
    def test_constant_panel_gives_zero_operators(self, small_domain, rng):
        T = 30
        y = np.full((T, 2), 3.0)
        cube = rng.normal(size=(T,) + small_domain.shape)
        ops = estimate_covariances(_panel(y), _series(small_domain, cube))
        assert np.allclose(ops.c_y, 0.0)
        assert np.allclose(ops.cross_hat, 0.0)

    def test_rank_one_link_matches_analytic_form(self, small_domain, rng):
        T = 200
        y = rng.normal(size=(T, 2))
        g = rng.normal(size=small_domain.shape)
        cube = y[:, 0, None, None] * g[None]
        ops = estimate_covariances(_panel(y), _series(small_domain, cube))
        var_y0 = np.var(y[:, 0], ddof=1)
        got = ops.cross_hat[0]
        # C_YX(e_0) should equal Var(Y_0) g up to the sample covariance of
        # y0 with itself vs its centered version
        yc = y - y.mean(axis=0)
        expected = (yc[:, 0] @ yc[:, 0]) / (T - 1) * hat_vector(
            Surface(small_domain, g))
        np.testing.assert_allclose(got, expected, atol=1e-12)
        assert np.allclose((yc[:, 0] @ yc[:, 0]) / (T - 1), var_y0)

    def test_brute_force_covariance_oracle(self, small_domain, rng):
        T, p = 17, 3
        y = rng.normal(size=(T, p))
        cube = rng.normal(size=(T,) + small_domain.shape)
        panel, series = _panel(y), _series(small_domain, cube)
        ops = estimate_covariances(panel, series)

        yc = y - y.mean(axis=0)
        w = small_domain.weights
        # naive double loops for C_Y and C_XY(f) on a random f
        for i in range(p):
            for j in range(p):
                expected = sum(yc[t, i] * yc[t, j] for t in range(T)) / (T - 1)
                assert ops.c_y[i, j] == pytest.approx(expected, abs=1e-12)
        fv = rng.normal(size=small_domain.shape)
        f = Surface(small_domain, fv)
        got = ops.cross_hat @ hat_vector(f)  # C_XY(f)
        xc = cube - cube.mean(axis=0)
        for j in range(p):
            expected = 0.0
            for t in range(T):
                ip = float(np.sum(w * np.where(small_domain.mask,
                                               xc[t] * fv, 0.0)))
                expected += ip * yc[t, j]
            expected /= T - 1
            assert got[j] == pytest.approx(expected, abs=1e-12)

    def test_adjoint_identity(self, small_domain, rng):
        # <C_YX(e_j), f> as surfaces is C_XY(f)_j in hat coordinates
        T, p = 40, 3
        panel = _panel(rng.normal(size=(T, p)))
        series = _series(small_domain,
                         rng.normal(size=(T,) + small_domain.shape))
        ops = estimate_covariances(panel, series)
        for _ in range(5):
            f = Surface(small_domain, rng.normal(size=small_domain.shape))
            lhs = np.array([
                inner_product(surface_from_hat(small_domain, ops.cross_hat[j]),
                              f)
                for j in range(p)
            ])
            np.testing.assert_allclose(lhs, ops.cross_hat @ hat_vector(f),
                                       atol=1e-12)


class TestSvdCross:
    def test_beta_surfaces_orthonormal(self, small_domain, rng):
        T, p = 120, 4
        panel = _panel(rng.normal(size=(T, p)))
        series = _series(small_domain,
                         rng.normal(size=(T,) + small_domain.shape))
        ops = estimate_covariances(panel, series)
        dec = svd_cross(ops, tol=1e-6)
        gram = dec.beta_hat.T @ dec.beta_hat
        np.testing.assert_allclose(gram, np.eye(dec.k), atol=1e-8)
        np.testing.assert_allclose(dec.alpha.T @ dec.alpha, np.eye(dec.k),
                                   atol=1e-10)
        assert np.all(np.diff(dec.singular_values) <= 1e-15)

    def test_planted_rank_one_recovery(self, rng):
        domain = build_domain((47.0, 55.0, 6.0, 15.0), 1.0)
        hits = 0
        for _ in range(10):
            panel, series, g = planted_factor_instance(domain, p=4, T=500,
                                                       rng=rng, snr=10.0)
            ops = estimate_covariances(panel, series)
            dec = svd_cross(ops, tol=0.1)
            beta1 = dec.beta_surface(0).values[domain.mask]
            truth = g[domain.mask]
            w = domain.valid_weights
            cos = abs(np.sum(w * beta1 * truth)) / np.sqrt(
                np.sum(w * beta1**2) * np.sum(w * truth**2))
            hits += cos > 0.95
        assert hits >= 9

    def test_independent_data_rejected_by_permutation(self, rng):
        domain = build_domain((50.0, 53.0, 8.0, 11.0), 1.0)
        rejections = 0
        n_sims = 25
        for _ in range(n_sims):
            panel = _panel(rng.normal(size=(200, 3)))
            series = _series(domain, rng.normal(size=(200,) + domain.shape))
            try:
                associated_factors(panel, series,
                                   permutation={"n": 99, "level": 0.95},
                                   rng=rng)
            except ZeroCrossCovariance:
                rejections += 1
        assert rejections >= 0.6 * n_sims

    def test_zero_cross_covariance_error(self, small_domain, rng):
        panel = _panel(np.full((30, 2), 1.5))
        series = _series(small_domain,
                         rng.normal(size=(30,) + small_domain.shape))
        ops = estimate_covariances(panel, series)
        with pytest.raises(ZeroCrossCovariance):
            svd_cross(ops)


def shuffled_cross_cutoffs(yc, xc, n_shuffles, level, rng):
    """Reference null: one p x D shuffled cross covariance and one
    eigensolve per shuffle."""
    T = yc.shape[0]
    k_max = min(yc.shape[1], xc.shape[1], T - 1)
    null = np.empty((n_shuffles, k_max))
    for s in range(n_shuffles):
        perm = rng.permutation(T)
        cross = yc[perm].T @ xc / (T - 1)
        vals = np.linalg.eigvalsh(cross @ cross.T)[::-1]
        null[s] = np.sqrt(np.clip(vals[:k_max], 0.0, None))
    return np.quantile(null, level, axis=0)


class TestPermutationCutoffs:
    """The null takes the centered Gram xc @ xc.T; its leading min(p, D,
    T - 1) quantiles are those of the shuffled p x D cross covariance.
    Given r, it returns only those the keep rule reads."""

    @staticmethod
    def _check_against_reference(rng, T, p, D, n_shuffles):
        for _ in range(3):
            yc, _ = center_columns(rng.normal(size=(T, p)))
            xc, _ = center_columns(rng.normal(size=(T, D))
                                   * rng.uniform(0.1, 10.0, size=D))
            level = float(rng.uniform(0.5, 0.99))
            seed = int(rng.integers(2**32))
            ours, theirs = (np.random.default_rng(seed),
                            np.random.default_rng(seed))
            # an all-clearing r reads every quantile
            got = permutation_cutoffs(yc, xc @ xc.T, n_shuffles, level, ours,
                                      r=np.full(min(p, T - 1), np.inf))
            want = shuffled_cross_cutoffs(yc, xc, n_shuffles, level, theirs)
            rank = min(p, D, T - 1)
            assert got.shape == (min(p, T - 1),)
            np.testing.assert_allclose(got[:rank], want, rtol=1e-10)
            # past the cross covariance's rank only rounding is left
            floor = np.sqrt(T * np.finfo(float).eps) * got[0]
            assert np.all(got[rank:] <= floor)
            # same draws, so a generator shared across calls stays in step
            assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("T, p, D", [
        (60, 5, 12),     # D < T
        (40, 6, 90),     # D > T
        (40, 6, 40),     # D = T
        (30, 29, 50),    # p = T - 1
        (50, 8, 3),      # D < p: the null has D ranks
    ])
    @pytest.mark.parametrize("n_shuffles", [1, 16, 37])
    def test_matches_the_shuffled_cross_reference(self, rng, T, p, D,
                                                  n_shuffles):
        self._check_against_reference(rng, T, p, D, n_shuffles)

    @pytest.mark.parametrize("T, p, D, dup", [
        (60, 5, 12, False),   # D < T
        (40, 6, 90, False),   # D > T
        (50, 8, 3, False),    # D < p
        (40, 1, 30, False),   # p = 1
        (30, 29, 50, False),  # p = T - 1
        (60, 7, 25, True),    # a duplicated sector
    ])
    @pytest.mark.parametrize("n", ["1", "block-1", "block+1", "37"])
    def test_keep_rule_reads_the_components_it_needs(self, rng, T, p, D, dup,
                                                     n):
        block = factors_module._BLOCK
        n_shuffles = {"1": 1, "block-1": block - 1, "block+1": block + 1,
                      "37": 37}[n]
        rank = min(p - dup, D, T - 1)
        for _ in range(2):
            y = rng.normal(size=(T, p))
            if dup:
                y[:, -1] = y[:, 0]
            yc, _ = center_columns(y)
            xc, _ = center_columns(rng.normal(size=(T, D))
                                   * rng.uniform(0.1, 10.0, size=D))
            level = float(rng.uniform(0.5, 0.99))
            seed = int(rng.integers(2**32))
            ours, theirs = (np.random.default_rng(seed),
                            np.random.default_rng(seed))
            want = shuffled_cross_cutoffs(yc, xc, n_shuffles, level,
                                          theirs)[:rank]
            # r clears want up to entry i, which sits 1e-9 above or below
            # its cut; later entries fall either side at random
            i = int(rng.integers(rank))
            side = rng.choice([-1.0, 1.0], size=rank)
            side[:i] = 1.0
            r = want * (1.0 + 1e-9 * side)
            r = r[:int(rng.integers(i + 1, rank + 1))]
            short = r <= want[:len(r)]
            length = int(np.argmax(short)) + 1 if short.any() else len(r)
            got = permutation_cutoffs(yc, xc @ xc.T, n_shuffles, level, ours,
                                      r=r)
            assert len(got) == length
            np.testing.assert_allclose(got, want[:length], rtol=1e-10)
            assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("n_shuffles", [1, 9])
    def test_a_repeated_top_eigenvalue_is_counted_twice(self, rng,
                                                         n_shuffles):
        # yc has orthogonal columns with squared norms 4, 4 and 1, and the
        # Gram is the centering projector, so every shuffle's operator is
        # diag(4, 4, 1); the start vector's Krylov space holds one copy of
        # 4 and breaks down after two steps
        T = 12
        q, _ = np.linalg.qr(center_columns(rng.normal(size=(T, 3)))[0])
        yc = q * np.sqrt([4.0, 4.0, 1.0])
        gc = np.eye(T) - 1.0 / T
        want = np.sqrt([4.0, 4.0, 1.0]) / (T - 1)
        # the last r stops the keep rule at the second component
        for r in (np.full(3, np.inf), np.array([1.0, 1.0, 1.0]),
                  np.array([1.0, 0.01])):
            got = permutation_cutoffs(yc, gc, n_shuffles, 0.9,
                                      np.random.default_rng(3), r=r)
            np.testing.assert_allclose(got, want[:len(r)], rtol=1e-12)

    def test_the_first_block_sets_the_depth_of_every_block(self, rng,
                                                           monkeypatch):
        # r clears the first two cuts threefold and misses the next two
        # as widely, so the first block's quantiles read as deep as those
        # of all shuffles and no block is scored twice
        built = []

        class Counted(factors_module._KrylovBlock):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(factors_module, "_KrylovBlock", Counted)
        T, p, D = 120, 40, 100
        n_shuffles = 2 * factors_module._BLOCK + 1
        yc, _ = center_columns(rng.normal(size=(T, p)))
        xc, _ = center_columns(rng.normal(size=(T, D)))
        want = shuffled_cross_cutoffs(yc, xc, n_shuffles, 0.9,
                                      np.random.default_rng(5))
        r = want[:4] * [3.0, 3.0, 1.0 / 3.0, 1.0 / 3.0]
        got = permutation_cutoffs(yc, xc @ xc.T, n_shuffles, 0.9,
                                  np.random.default_rng(5), r=r)
        np.testing.assert_allclose(got, want[:3], rtol=1e-10)
        assert len(built) == 3

    def test_a_zero_operator_breaks_down_to_zero_cutoffs(self, rng):
        # every Lanczos vector after the start finds the Krylov space
        # exhausted, so each step restarts from a fresh axis
        T, p = 30, 4
        xc, _ = center_columns(rng.normal(size=(T, 6)))
        ours, theirs = np.random.default_rng(1), np.random.default_rng(1)
        for r in (np.full(p, np.inf), np.array([1.0, 0.5])):
            got = permutation_cutoffs(np.zeros((T, p)), xc @ xc.T, 7, 0.9,
                                      ours, r=r)
            np.testing.assert_array_equal(got, np.zeros(len(r)))
            for _ in range(7):
                theirs.permutation(T)
            assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("T, p, D", [(40, 6, 90), (50, 8, 3)])
    def test_block_edges(self, rng, monkeypatch, block, T, p, D):
        monkeypatch.setattr(factors_module, "_BLOCK", block)
        edges = {block - 1, block, block + 1, 2 * block - 1, 2 * block,
                 2 * block + 1}
        for n_shuffles in sorted(edges - {0} | {1, 37}):
            self._check_against_reference(rng, T, p, D, n_shuffles)

    @pytest.mark.parametrize("seed", range(4))
    def test_the_cut_is_numpys_linear_quantile(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(250):
            n, k = int(rng.integers(1, 120)), int(rng.integers(1, 6))
            theta = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-12, 12)
            theta[rng.integers(n)] = 0.0   # clipped, as are the negatives
            if rng.uniform() < 0.2:        # ties across every shuffle
                theta[:] = theta[0]
            level = float(rng.choice([rng.uniform(), 0.5, 0.95, 1 - 1e-12]))
            T = int(rng.integers(2, 300))
            np.testing.assert_array_equal(
                factors_module._null_cut(theta, level, T),
                np.quantile(np.sqrt(np.clip(theta, 0.0, None)) / (T - 1),
                            level, axis=0, method="linear"))


class TestKrylovBlock:
    """Every shuffle's leading Ritz values are the leading eigenvalues of
    its own operator, not only the one a quantile happens to pick."""

    @pytest.mark.parametrize("T, p, D, copies", [
        (60, 5, 12, 0),   # D < T
        (40, 6, 90, 0),   # D > T
        (30, 29, 50, 0),  # p = T - 1
        (60, 7, 25, 2),   # a sector copied twice: a double zero
                          # eigenvalue, so the Krylov space breaks down
        (50, 8, 3, 0),    # D < p: it breaks down after D + 1 steps
    ])
    @pytest.mark.parametrize("need", [1, 2, "all"])
    def test_each_shuffle_matches_its_own_eigensolve(self, rng, T, p, D,
                                                     copies, need):
        m = 9
        need = p if need == "all" else need
        for _ in range(2):
            y = rng.normal(size=(T, p))
            y[:, p - copies:] = y[:, :1]
            yc, _ = center_columns(y)
            xc, _ = center_columns(rng.normal(size=(T, D))
                                   * rng.uniform(0.1, 10.0, size=D))
            gc = xc @ xc.T
            draws = np.random.default_rng(int(rng.integers(2**32)))
            block = factors_module._KrylovBlock(yc, gc, copy.deepcopy(draws),
                                                m)
            got = block.leading(need)
            assert got.shape[0] == m and got.shape[1] >= need
            rank = min(p - copies, D, T - 1)
            for theta in got:
                perm = draws.permutation(T)
                want = np.linalg.eigvalsh(yc[perm].T @ gc @ yc[perm])[::-1]
                want = want[:len(theta)]
                np.testing.assert_allclose(theta[:rank], want[:rank],
                                           rtol=1e-10)
                # past the operator's rank only rounding is left
                np.testing.assert_allclose(theta[rank:], want[rank:],
                                           rtol=0, atol=1e-10 * want[0])

    @staticmethod
    def _against_dense(yc, gc, m, need, seed=7):
        """(block, got, want): the block's leading values after
        leading(need), and as many of each shuffle's leading eigenvalues
        from a dense eigensolve, with a generator in the same state."""
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        block = factors_module._KrylovBlock(yc, gc, ours, m)
        got = block.leading(need)
        assert got.shape[0] == m and got.shape[1] >= need
        T = yc.shape[0]
        want = np.array([
            np.linalg.eigvalsh(yc[perm].T @ gc @ yc[perm])[::-1][:got.shape[1]]
            for perm in (theirs.permutation(T) for _ in range(m))])
        assert ours.bit_generator.state == theirs.bit_generator.state
        return block, got, want

    @staticmethod
    def _cluster(rng, gap):
        """A panel and Gram whose shuffled operators' top three
        eigenvalues lie gap apart, relative to the first. yc has
        orthogonal columns, so under the centering projector every
        operator is diag(lam); a random part of the Gram a tenth of gap
        makes the operators differ across shuffles and keeps the
        cluster."""
        T, p = 120, 40
        q, _ = np.linalg.qr(center_columns(rng.normal(size=(T, p)))[0])
        lam = np.concatenate([1.0 - gap * np.arange(3),
                              np.linspace(0.5, 0.01, p - 3)])
        xc, _ = center_columns(rng.normal(size=(T, 30)))
        return q * np.sqrt(lam), (np.eye(T) - 1.0 / T + 0.1 * gap
                                  * xc @ xc.T / np.linalg.norm(xc, 2) ** 2)

    @pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("need", [2, 3])
    def test_clustered_top_eigenvalues(self, rng, gap, need):
        yc, gc = self._cluster(rng, gap)
        _, got, want = self._against_dense(yc, gc, 9, need)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
    def test_one_read_of_a_cluster_is_known_to_its_width(self, rng, gap):
        # the gap of the quadratic bound comes from the Ritz values: while
        # the iteration has not told the cluster apart, one Ritz value
        # stands for it with a small residual and a wide gap below, so a
        # read of the first value alone is known to within the cluster's
        # width (2 gap); from 1e-6 up the cluster is told apart first
        yc, gc = self._cluster(rng, gap)
        _, got, want = self._against_dense(yc, gc, 9, 1)
        np.testing.assert_allclose(got, want, rtol=1e-10,
                                   atol=2 * gap if gap < 1e-6 else 0.0)

    @pytest.mark.parametrize("need", [1, 2, 3, 4, 5])
    def test_the_lowest_ritz_value_needs_its_residual(self, rng, need):
        # at depth need the need-th Ritz value is the tridiagonal's
        # lowest, with no Ritz value below it to bound its gap; at need 1
        # a bound that ignored this would stop at the first step
        T, p, D = 60, 12, 40
        yc, _ = center_columns(rng.normal(size=(T, p)))
        xc, _ = center_columns(rng.normal(size=(T, D))
                               * rng.uniform(0.1, 10.0, size=D))
        block, got, want = self._against_dense(yc, xc @ xc.T, 9, need)
        np.testing.assert_allclose(got, want, rtol=1e-10)
        assert np.all(block.k > need)

    def test_a_triple_top_eigenvalue_is_counted_thrice(self, rng):
        # every shuffle's operator is diag(4, 4, 4, 2, 1, 0.5): the start
        # vector's Krylov space holds one copy of 4 and breaks down, so
        # each shuffle converges only at k = p
        T = 20
        q, _ = np.linalg.qr(center_columns(rng.normal(size=(T, 6)))[0])
        yc = q * np.sqrt([4.0, 4.0, 4.0, 2.0, 1.0, 0.5])
        _, got, want = self._against_dense(yc, np.eye(T) - 1.0 / T, 5, 3)
        np.testing.assert_allclose(got, want, rtol=1e-10)
        np.testing.assert_allclose(got[:, :3], 4.0, rtol=1e-12)

    def test_a_deeper_read_resumes_each_shuffle(self, rng):
        # the pilot reads two values, then four: each shuffle goes on from
        # its own depth, and ends where a block asked for four at once does
        T, p, D, m = 80, 30, 60, 9
        yc, _ = center_columns(rng.normal(size=(T, p)))
        xc, _ = center_columns(rng.normal(size=(T, D)))
        gc = xc @ xc.T
        block, _, _ = self._against_dense(yc, gc, m, 2)
        depth = block.k.copy()
        resumed = block.leading(4)
        assert np.all(block.k >= depth) and np.any(block.k > depth)
        _, fresh, want = self._against_dense(yc, gc, m, 4)
        np.testing.assert_allclose(resumed[:, :4], fresh[:, :4], rtol=1e-10)
        np.testing.assert_allclose(fresh, want, rtol=1e-10)

    def test_the_work_of_a_seeded_null(self):
        # the shuffle-steps of 99 shuffles reading two values each: a
        # stopping rule that waits longer, or steps converged shuffles,
        # does more (stepping all 99 until every residual is at the
        # tolerance takes 32 steps, 3168 shuffle-steps)
        rng = np.random.default_rng(11)
        T, p, D = 120, 40, 100
        yc, _ = center_columns(rng.normal(size=(T, p)))
        xc, _ = center_columns(rng.normal(size=(T, D)))
        block = factors_module._KrylovBlock(yc, xc @ xc.T,
                                            np.random.default_rng(5), 99)
        block.leading(2)
        assert block.k.sum() == 2334

class TestKOrPermutation:
    def test_two_stage_refuses_both(self, rng):
        y, v = TestRankCap()._rank_three(rng)
        with pytest.raises(ValueError, match="k and permutation exclude"):
            two_stage(y, v, v @ v.T, k=1, permutation={"n": 9},
                      rng=np.random.default_rng(0))

    def test_associated_factors_refuses_both(self, small_domain, rng):
        panel, series = exact_factor_model(small_domain, p=4, k=1, T=40,
                                           rng=rng)
        with pytest.raises(ValueError, match="k and permutation exclude"):
            associated_factors(panel, series, k=1, permutation={},
                               rng=np.random.default_rng(0))


class TestRankCap:
    def _rank_three(self, rng, T=60, p=10):
        v = rng.normal(size=(T, 3))
        y = rng.normal(size=(T, p))
        y[:, :3] += 2.0 * v
        return y, v

    def test_tiny_tol_keeps_only_the_rank(self, rng):
        y, v = self._rank_three(rng)
        yc, _ = center_columns(y)
        vc, _ = center_columns(v)
        r, alpha, beta = cross_singular_triplets(yc, vc, vc @ vc.T,
                                                 tol=1e-300)
        assert len(r) == 3
        np.testing.assert_allclose(beta.T @ beta, np.eye(3), atol=1e-10)

    def test_tiny_tol_with_permutation_cut(self, rng):
        y, v = self._rank_three(rng)
        r, rho, *_ = two_stage(y, v, v @ v.T, tol=1e-300,
                               permutation={"n": 9},
                               rng=np.random.default_rng(0))
        assert 1 <= len(r) <= 3
        assert np.all(rho <= 1.0 + 1e-10)

    def test_duplicate_sector_drops_its_numerical_zero(self, rng):
        # a repeated column leaves p - 1 = 5 components inside the
        # structural bound min(T - 1, D) = 30; the sixth sits at the
        # rounding floor and must not reach the CCA
        T = 80
        v = rng.normal(size=(T, 30))
        y = rng.normal(size=(T, 6))
        y[:, :3] += v[:, :3]
        y[:, 5] = y[:, 4]
        yc, _ = center_columns(y)
        vc, _ = center_columns(v)
        r, _, beta = cross_singular_triplets(yc, vc, vc @ vc.T,
                                             tol=1e-300)
        assert len(r) == 5
        np.testing.assert_allclose(beta.T @ beta, np.eye(5), atol=1e-10)
        r, rho, *_ = two_stage(y, v, v @ v.T, tol=1e-300)
        assert len(r) == 5
        assert np.all(rho <= 1.0 + 1e-10)

    def test_independent_rank_deficient_data_fails_cleanly(self, rng):
        for _ in range(5):
            y, v = rng.normal(size=(60, 10)), rng.normal(size=(60, 3))
            try:
                r, *_ = two_stage(y, v, v @ v.T, tol=1e-300,
                                  permutation={"n": 9}, rng=rng)
            except ClimfactError:
                continue
            assert len(r) <= 3


def reference_two_stage(y, v, tol=0.1, k=None, permutation=None, rng=None):
    """The engine before the shared Gram: an explicit p x D cross
    covariance for the SVD, and a null scored against the centered
    design itself when D <= T and against its Gram eigensystem's scores
    when D > T."""
    yc, _ = center_columns(y)
    vc, _ = center_columns(v)
    T = yc.shape[0]
    cross = yc.T @ vc / (T - 1)
    vals, vecs = np.linalg.eigh(cross @ cross.T)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    r = np.sqrt(np.clip(vals, 0.0, None))
    if r[0] <= 0.0:
        raise ZeroCrossCovariance("cross-covariance is identically zero")
    rank = int(np.sum(vals > len(vals) * np.finfo(float).eps * vals[0]))
    count = min(int(np.sum(r > tol * r[0])) if k is None else k, rank)
    if count < 1:
        raise ZeroCrossCovariance("no component")
    r, alpha = r[:count], vecs[:, :count]
    beta = cross.T @ alpha / r
    if permutation is not None and k is None:
        if vc.shape[1] <= T:
            z = vc
        else:
            gvals, gvecs = np.linalg.eigh(vc @ vc.T)
            gvals, gvecs = gvals[::-1], gvecs[:, ::-1]
            z = gvecs[:, gvals > 0] * np.sqrt(gvals[gvals > 0])
        cut = shuffled_cross_cutoffs(yc, z, permutation.get("n", 199),
                                     permutation.get("level", 0.95), rng)
        above = r > cut[:len(r)]
        keep = int(np.argmin(above)) if not above.all() else len(r)
        if keep == 0:
            raise ZeroCrossCovariance("no component clears the null")
        r, alpha, beta = r[:keep], alpha[:, :keep], beta[:, :keep]
    y_proj, x_proj = y @ alpha, v @ beta
    rho, u, w = canonical_correlations(y_proj, x_proj)
    flips = np.sign((alpha @ u)[np.argmax(np.abs(alpha @ u), axis=0),
                                np.arange(len(r))])
    flips[flips == 0] = 1.0
    return r, rho, (alpha @ u * flips).T, (beta @ w * flips).T


class TestReferenceEngine:
    """two_stage on the double-centered Gram against the p x D cross
    engine it replaced, on both sides of D = T."""

    @pytest.mark.parametrize("T, p, D", [
        (60, 4, 12),     # D < T
        (50, 5, 50),     # D = T
        (40, 6, 150),    # D > T
        (45, 8, 3),      # D < p
    ])
    @pytest.mark.parametrize("permutation", [None, {"n": 19, "level": 0.9}])
    def test_matches_the_cross_covariance_engine(self, rng, T, p, D,
                                                 permutation):
        for _ in range(4):
            v = rng.normal(size=(T, D)) * rng.uniform(0.1, 10.0, size=D)
            v += rng.normal(size=D)  # an uncentered design
            y = rng.normal(size=(T, p))
            link = min(p, D, 2)
            y[:, :link] += 2.0 * v[:, :link] / v[:, :link].std(axis=0)
            seed = int(rng.integers(2**32))
            ours, theirs = (np.random.default_rng(seed),
                            np.random.default_rng(seed))
            try:
                want = reference_two_stage(y, v, tol=0.2,
                                           permutation=permutation,
                                           rng=theirs)
            except ZeroCrossCovariance:
                with pytest.raises(ZeroCrossCovariance):
                    two_stage(y, v, v @ v.T, tol=0.2,
                              permutation=permutation, rng=ours)
            else:
                got = two_stage(y, v, v @ v.T, tol=0.2,
                                permutation=permutation, rng=ours)
                assert len(got[0]) == len(want[0])
                for g, w in zip(got[:4], want):
                    np.testing.assert_allclose(
                        g, w, rtol=1e-10, atol=1e-10 * np.abs(w).max())
            # n_shuffles draws per call, so a shared generator stays in step
            assert ours.bit_generator.state == theirs.bit_generator.state


class TestExtractFactors:
    def test_planted_rank_two_reconstruction(self, rng):
        domain = build_domain((47.0, 55.0, 6.0, 15.0), 1.0)
        T, p = 500, 4
        y = rng.normal(size=(T, p))
        g1 = np.where(domain.mask, rng.normal(size=domain.shape), np.nan)
        g2 = np.where(domain.mask, rng.normal(size=domain.shape), np.nan)
        cube = (y[:, 0, None, None] * g1[None]
                + y[:, 1, None, None] * g2[None]
                + 0.3 * rng.normal(size=(T,) + domain.shape))
        result = associated_factors(_panel(y), _series(domain, cube), k=2)
        assert result.k == 2
        recon = result.x_factors - result.x_factors.mean(axis=0)
        signal = (y[:, :2] - y[:, :2].mean(axis=0))
        # the factors must capture nearly all of the planted signal variance
        coef, *_ = np.linalg.lstsq(recon, signal, rcond=None)
        explained = 1.0 - np.var(signal - recon @ coef) / np.var(signal)
        assert explained >= 0.90


class TestCcaOnFactors:
    def test_perfect_link_gives_unit_correlation(self, rng):
        ytil = rng.normal(size=(100, 1))
        rho, u, v = canonical_correlations(ytil, 2.0 * ytil)
        assert rho[0] == pytest.approx(1.0, abs=1e-10)

    def test_independent_factors_below_permutation_quantile(self, rng):
        T = 2000
        ytil = rng.normal(size=(T, 2))
        xtil = rng.normal(size=(T, 2))
        rho, _, _ = canonical_correlations(ytil, xtil)
        null = []
        for _ in range(199):
            perm = rng.permutation(T)
            null.append(canonical_correlations(ytil[perm], xtil)[0][0])
        assert rho[0] <= np.quantile(null, 0.95) * 1.5

    def test_singular_factor_covariance(self, rng):
        ytil = rng.normal(size=(50, 2))
        ytil[:, 1] = ytil[:, 0]  # perfectly collinear factors
        with pytest.raises(SingularFactorCovariance):
            canonical_correlations(ytil, rng.normal(size=(50, 2)))

    def test_two_stage_matches_direct_oracle(self, rng):
        for trial in range(8):
            p = int(rng.integers(2, 5))
            n_lon = int(rng.integers(2, 4))
            domain = build_domain((50.0, 52.0, 6.0, 6.0 + n_lon), 1.0)
            k = int(rng.integers(1, min(p, domain.n_valid) + 1))
            panel, series = exact_factor_model(domain, p, k, 400, rng)
            result = associated_factors(panel, series, tol=1e-6)
            rho_oracle, a_oracle, b_oracle = direct_cca_oracle(panel, series)
            assert result.k == k
            np.testing.assert_allclose(result.rho, rho_oracle[:k], atol=1e-8)
            assert scipy.linalg.subspace_angles(
                result.a.T, a_oracle[:, :k]).max() < 1e-8
            assert scipy.linalg.subspace_angles(
                result.b_hat.T, b_oracle[:, :k]).max() < 1e-8


class TestPipelineContracts:
    def _random_instance(self, rng, T=80, p=5, n_lon=3):
        domain = build_domain((50.0, 51.0, 6.0, 6.0 + n_lon), 1.0)
        panel = _panel(rng.normal(size=(T, p)))
        series = _series(domain, rng.normal(size=(T,) + domain.shape))
        return domain, panel, series

    def test_residual_uncorrelated_with_factors(self, rng):
        # p > cells so the panel residual after projection is nonzero
        domain, panel, series = self._random_instance(rng)
        result = associated_factors(panel, series, tol=1e-6)
        assert 0 < result.k < panel.values.shape[1]
        recon = result.y_factors @ np.linalg.pinv(result.a.T)
        residual = panel.values - recon
        resid_c = residual - residual.mean(axis=0)
        fact_c = result.x_factors - result.x_factors.mean(axis=0)
        cov = resid_c.T @ fact_c / (len(resid_c) - 1)
        scale = np.std(panel.values) * np.std(result.x_factors)
        assert np.abs(cov).max() / scale < 1e-10

    def test_structural_slope_is_rho_and_errors_orthogonal(self, rng):
        domain, panel, series = self._random_instance(rng)
        result = associated_factors(panel, series, tol=1e-6)
        yf = result.y_factors - result.y_factors.mean(axis=0)
        xf = result.x_factors - result.x_factors.mean(axis=0)
        T = len(yf)
        for k in range(result.k):
            slope = (yf[:, k] @ xf[:, k]) / (xf[:, k] @ xf[:, k])
            assert slope == pytest.approx(result.rho[k], abs=1e-10)
        errors = yf - xf * result.rho
        cross = errors.T @ xf / (T - 1)
        assert np.abs(cross).max() < 1e-10

    def test_unit_variance_and_cross_orthogonality(self, rng):
        domain, panel, series = self._random_instance(rng)
        result = associated_factors(panel, series, tol=1e-6)
        np.testing.assert_allclose(np.var(result.y_factors, axis=0, ddof=1),
                                   1.0, atol=1e-10)
        np.testing.assert_allclose(np.var(result.x_factors, axis=0, ddof=1),
                                   1.0, atol=1e-10)
        yf = result.y_factors - result.y_factors.mean(axis=0)
        xf = result.x_factors - result.x_factors.mean(axis=0)
        T = len(yf)
        cov_y = yf.T @ yf / (T - 1)
        cov_x = xf.T @ xf / (T - 1)
        np.testing.assert_allclose(cov_y, np.eye(result.k), atol=1e-10)
        np.testing.assert_allclose(cov_x, np.eye(result.k), atol=1e-10)

    def test_zero_variance_sector_dropped_with_warning(self, rng):
        domain = build_domain((50.0, 52.0, 6.0, 9.0), 1.0)
        T = 80
        values = rng.normal(size=(T, 4))
        values[:, 2] = 7.0  # constant sector
        # as the loader leaves a panel that had a gap column
        panel = SectorPanel(MONTH0 + np.arange(T), ("S0", "S1", "S2", "S3"),
                            values, dropped=("GAP",))
        series = _series(domain, rng.normal(size=(T,) + domain.shape))
        result = associated_factors(panel, series, tol=1e-6)
        assert "S2" not in result.sector_ids
        assert result.dropped == ("GAP", "S2")
        assert result.a.shape[1] == 3

    def test_a_value_that_overflows_is_a_numerical_error(self, rng):
        # finite, but its square is not, so the centered Gram overflows:
        # a NumericalError, not a warning, infinities and a LinAlgError
        domain = build_domain((47.0, 55.0, 6.0, 15.0), 1.0)
        panel, series, _ = planted_factor_instance(domain, p=4, T=60,
                                                   rng=rng, snr=10.0)
        cube = series.values.copy()
        i, j = np.argwhere(domain.mask)[0]
        cube[3, i, j] = 1e200
        series = SurfaceSeries(domain, series.times, cube, series.name)
        with pytest.raises(NumericalError,
                           match="^overflow encountered in matmul$"):
            associated_factors(panel, series)

    def test_all_sectors_constant_is_singular(self, rng):
        domain = build_domain((50.0, 52.0, 6.0, 9.0), 1.0)
        panel = _panel(np.full((50, 2), 1.0))
        series = _series(domain, rng.normal(size=(50,) + domain.shape))
        with pytest.raises(SingularFactorCovariance):
            associated_factors(panel, series)

    def test_rho_within_unit_interval(self, rng):
        for _ in range(10):
            domain, panel, series = self._random_instance(rng, T=60)
            result = associated_factors(panel, series, tol=1e-6)
            assert np.all(result.rho >= 0.0)
            assert np.all(result.rho <= 1.0 + 1e-10)

    def test_invariance_under_invertible_panel_transform(self, rng):
        # direct CCA level: always invariant
        ytil = rng.normal(size=(300, 3))
        xtil = rng.normal(size=(300, 3))
        rho1, _, _ = canonical_correlations(ytil, xtil)
        G = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        rho2, _, _ = canonical_correlations(ytil @ G.T, xtil)
        np.testing.assert_allclose(rho1, rho2, atol=1e-10)

    def test_pipeline_invariance_with_full_retention(self, rng):
        # retaining every component makes the two-stage pipeline a pure
        # change of basis, so the correlations are transform-invariant
        domain = build_domain((50.0, 52.0, 6.0, 10.0), 1.0)
        T, p = 300, 3
        panel = _panel(rng.normal(size=(T, p)))
        series = _series(domain, rng.normal(size=(T,) + domain.shape))
        base = associated_factors(panel, series, k=p)
        G = rng.normal(size=(p, p)) + 3.0 * np.eye(p)
        transformed = _panel(panel.values @ G.T)
        moved = associated_factors(transformed, series, k=p)
        np.testing.assert_allclose(base.rho, moved.rho, atol=1e-8)


class TestRegularityDiagnostic:
    def _spectrum_instance(self, rng, decay, c_exponent, T=600,
                           n_modes=12, noise=0.02):
        """Surface spectrum lam_i = i^-decay with cross moments c_i =
        i^c_exponent; the panel column weights each mode by c_i/lam_i."""
        domain = build_domain((45.0, 50.0, 0.0, 5.0), 1.0)  # 25 cells
        d = domain.n_valid
        basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
        idx = np.arange(1, n_modes + 1, dtype=float)
        lam = idx ** -decay
        scores = rng.normal(size=(T, n_modes)) * np.sqrt(lam)
        xhat = scores @ basis[:, :n_modes].T
        c = idx ** c_exponent
        y = scores @ (c / lam)[:, None] + noise * rng.normal(size=(T, 1))
        sqrt_w = np.sqrt(domain.valid_weights)
        cube = np.full((T,) + domain.shape, np.nan)
        cube[:, domain.mask] = xhat / sqrt_w
        series = SurfaceSeries(domain, MONTH0 + np.arange(T), cube)
        return _panel(y), series

    def test_single_direction_dependence_plateaus_immediately(self, rng):
        domain = build_domain((45.0, 50.0, 0.0, 5.0), 1.0)
        T = 500
        d = domain.n_valid
        basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
        lam = np.arange(1, 9, dtype=float) ** -1.5
        scores = rng.normal(size=(T, 8)) * np.sqrt(lam)
        xhat = scores @ basis[:, :8].T
        y = scores[:, :1] + 0.01 * rng.normal(size=(T, 1))
        sqrt_w = np.sqrt(domain.valid_weights)
        cube = np.full((T,) + domain.shape, np.nan)
        cube[:, domain.mask] = xhat / sqrt_w
        series = SurfaceSeries(domain, MONTH0 + np.arange(T), cube)
        report = regularity_diagnostic(_panel(y), series)
        sums = report.partial_sums_sq[:, 0]
        assert sums[-1] - sums[0] < 0.2 * sums[-1]
        assert not report.flagged[0]

    def test_fast_decay_plateaus_slow_decay_flagged(self, rng):
        panel, series = self._spectrum_instance(rng, decay=2.0,
                                                c_exponent=-2.0)
        report = regularity_diagnostic(panel, series)
        assert not report.flagged[0]

        panel, series = self._spectrum_instance(rng, decay=2.0,
                                                c_exponent=-1.0)
        report = regularity_diagnostic(panel, series)
        assert report.flagged[0]

    def test_independent_data_terms_shrink_with_sample(self, rng):
        domain = build_domain((45.0, 48.0, 0.0, 3.0), 1.0)
        sums = {}
        for T in (150, 1500):
            panel = _panel(rng.normal(size=(T, 2)))
            series = _series(domain, rng.normal(size=(T,) + domain.shape))
            report = regularity_diagnostic(panel, series)
            sums[T] = report.partial_sums_sq[-1].mean()
        assert sums[1500] < sums[150]

    def test_never_raises_and_reports_both_variants(self, rng):
        domain, panel, series = (None, _panel(rng.normal(size=(40, 2))), None)
        domain = build_domain((45.0, 47.0, 0.0, 2.0), 1.0)
        series = _series(domain, rng.normal(size=(40,) + domain.shape))
        report = regularity_diagnostic(panel, series)
        assert report.partial_sums_sq.shape == report.partial_sums_abs.shape
        assert report.flagged.shape == (2,)


def reference_regularity(panel, series):
    """The diagnostic before it read the factor fit's frame: its own
    alignment, hat embedding and Gram of the centered hat frames, with
    every sector kept, constant ones too."""
    (panel, series), _ = align(panel, series)
    yc, _ = center_columns(panel.values)
    xc, _ = center_columns(hat_matrix(series))
    T = yc.shape[0]
    lam, scores = gram_eigensystem(xc @ xc.T)
    _, psi = np.linalg.eigh(yc.T @ yc / (T - 1))
    psi = psi[:, ::-1]
    yproj = yc @ psi
    c = scores.T @ yproj / (T - 1)         # (n, p)
    terms_sq = c**2 / lam[:, None]
    terms_abs = np.abs(c) / lam[:, None]
    sums_sq = np.cumsum(terms_sq, axis=0)
    sums_abs = np.cumsum(terms_abs, axis=0)
    n = len(lam)
    tail = np.zeros(yc.shape[1])
    if n >= 4:
        half = n // 2
        total = sums_sq[-1]
        grown = total - sums_sq[half - 1]
        nonzero = total > 0
        tail[nonzero] = grown[nonzero] / total[nonzero]
    flagged = tail > 0.25  # over a quarter from the later half
    return RegularityReport(
        eigenvalues=lam, partial_sums_sq=sums_sq, partial_sums_abs=sums_abs,
        flagged=flagged, tail_fraction=tail,
    )


class TestReferenceRegularity:
    """The diagnostic on the factor fit's frame against the one that
    built its own, on both sides of D = T."""

    def _pair(self, rng, domain, T, level, spread, p=5):
        """A surface series of T months that starts a year before the
        panel: a per-cell climatology around level, three latent modes
        and noise, all of scale spread; the panel loads on the modes."""
        n = T + 12
        modes = rng.normal(size=(n, 3)) * spread
        cube = (level + 3.0 * spread * rng.normal(size=domain.shape)
                + np.einsum("tk,kij->tij", modes,
                            rng.normal(size=(3,) + domain.shape))
                + spread * rng.normal(size=(n,) + domain.shape))
        series = _series(domain, cube)
        y = modes[12:] @ rng.normal(size=(3, p)) + rng.normal(size=(T, p))
        return SectorPanel(MONTH0 + 12 + np.arange(T),
                           tuple(f"S{j}" for j in range(p)), y), series

    @pytest.mark.parametrize("step, T", [
        (1.0, 400),   # 25 cells, D < T
        (0.5, 120),   # 288 cells, D > T
    ])
    @pytest.mark.parametrize("level, spread", [
        (0.0, 1.0),     # anomalies
        (280.0, 3.0),   # raw levels in kelvin
    ])
    def test_matches_the_diagnostic_on_its_own_frame(self, rng, step, T,
                                                     level, spread):
        domain = build_domain((45.0, 53.0, 0.0, 9.0), step)
        if step == 1.0:
            domain = build_domain((45.0, 50.0, 0.0, 5.0), step)
        for _ in range(3):
            panel, series = self._pair(rng, domain, T, level, spread)
            want = reference_regularity(panel, series)
            got = regularity_diagnostic(panel, series)
            assert got.n_components == want.n_components
            np.testing.assert_allclose(got.tail_fraction, want.tail_fraction,
                                       rtol=0.0, atol=1e-10)

    def test_a_constant_sector_is_dropped_first(self, rng):
        domain = build_domain((45.0, 50.0, 0.0, 5.0), 1.0)
        for level, spread in ((0.0, 1.0), (280.0, 3.0)):
            panel, series = self._pair(rng, domain, 200, level, spread)
            ids = panel.sector_ids[:2] + ("FLAT",) + panel.sector_ids[2:]
            values = np.insert(panel.values, 2, 4.2, axis=1)
            with_flat = SectorPanel(panel.times, ids, values)
            want = reference_regularity(panel, series)
            got = regularity_diagnostic(with_flat, series)
            assert got.n_components == want.n_components
            np.testing.assert_allclose(got.tail_fraction, want.tail_fraction,
                                       rtol=0.0, atol=1e-10)

    def test_a_sector_constant_only_over_the_window_is_dropped(self, rng):
        # 224 panel months; the grid covers the last 200, over which C is
        # 3.0, so C carries nothing the fit could load on
        domain = build_domain((45.0, 50.0, 0.0, 5.0), 1.0)
        panel, series = self._pair(rng, domain, 224, 0.0, 1.0)
        series = SurfaceSeries(domain, series.times[36:], series.values[36:],
                               series.name)
        values = np.insert(panel.values, 2, 3.0, axis=1)
        values[:24, 2] = rng.normal(size=24)
        ids = panel.sector_ids[:2] + ("C",) + panel.sector_ids[2:]
        got = associated_factors(SectorPanel(panel.times, ids, values),
                                 series, k=2)
        want = associated_factors(panel, series, k=2)
        assert got.sector_ids == want.sector_ids == panel.sector_ids
        assert (got.dropped, want.dropped) == (("C",), ())
        # the dropped panel is a copy laid out apart from the original,
        # so the two fits round apart in the last bits
        np.testing.assert_allclose(got.a, want.a, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got.regularity.tail_fraction,
                                   want.regularity.tail_fraction,
                                   rtol=0.0, atol=1e-10)

    def test_the_fit_carries_the_diagnostic_of_its_frame(self, rng):
        domain = build_domain((45.0, 50.0, 0.0, 5.0), 1.0)
        panel, series = self._pair(rng, domain, 200, 280.0, 3.0)
        values = np.insert(panel.values, 0, 101.7, axis=1)
        panel = SectorPanel(panel.times, ("FLAT",) + panel.sector_ids, values)
        result = associated_factors(panel, series, k=2)
        alone = regularity_diagnostic(panel, series)
        assert result.dropped == ("FLAT",)
        report = result.regularity
        assert report is result.regularity  # computed once
        assert len(report.tail_fraction) == len(result.sector_ids) == 5
        for name in ("eigenvalues", "partial_sums_sq", "partial_sums_abs",
                     "flagged", "tail_fraction"):
            np.testing.assert_array_equal(getattr(report, name),
                                          getattr(alone, name))
