"""Associated factors between a sector panel and a surface time series.

The cross-covariance operator from price space to surface space is
finite-rank (at most p, the number of sectors), so its singular value
decomposition needs no regularization: the p x p Gram matrix of the
operator's coordinate surfaces delivers the price-side directions, and
the surface-side directions follow by applying the operator. Projecting
both datasets onto those directions yields two K-dimensional series; a
conventional canonical correlation analysis on them produces the final
correlations and directions.

All surface algebra runs in "hat" coordinates: valid-cell values scaled
by the square root of the quadrature weights, which turns the weighted
surface inner product into a plain dot product. The surface side enters
the engine only through the T x T Gram of the centered frames: the cross
SVD, the spectrum of the surface covariance operator and the permutation
null's shuffles all read it directly, and only the back-projection of the
surface directions reads the frames. No p x D cross covariance is formed.

The permutation null never forms a shuffled panel or a p x p matrix
either: a Lanczos iteration applies each shuffle's operator to a vector
with gemms over a block of shuffles, and converges only the leading
singular values that the keep rule reads.
"""

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    InsufficientSample,
    SingularFactorCovariance,
    ZeroCrossCovariance,
    no_overflow,
)
from .grid import Surface
from .ingest import align

COND_LIMIT = 1e10
_BLOCK = 100  # null shuffles per Krylov block; bounds its (m, p, p) basis
_RITZ_RTOL = 1e-12  # Ritz residual, relative to theta_1, counted converged
# shuffle count and quantile level of a null whose dict leaves them out
PERMUTATION_DEFAULTS = {"n": 199, "level": 0.95}


# -- hat-space embedding --------------------------------------------------


def hat_matrix(series):
    """(T, n_valid) matrix of valid cells scaled by sqrt weights."""
    return series.valid_matrix() * np.sqrt(series.domain.valid_weights)


def hat_vector(surface):
    """Hat coordinates of one surface."""
    return surface.valid_values * np.sqrt(surface.domain.valid_weights)


def surface_from_hat(domain, hat):
    """Invert the hat embedding; masked cells become NaN."""
    values = np.full(domain.shape, np.nan)
    values[domain.mask] = hat / np.sqrt(domain.valid_weights)
    return Surface(domain, values)


def _fix_signs(alpha, *followers):
    """Make the largest-magnitude entry of each alpha column positive.

    Follower matrices share column order and are flipped in lock-step so
    paired directions stay consistent. Removes the eigenvector sign
    ambiguity and keeps batch outputs byte-reproducible.
    """
    flips = np.sign(alpha[np.argmax(np.abs(alpha), axis=0), np.arange(alpha.shape[1])])
    flips[flips == 0] = 1.0
    return (alpha * flips,) + tuple(f * flips for f in followers)


# -- flat numeric engine (shared with the functional impulse module) ------


def center_columns(m):
    mean = m.mean(axis=0)
    return m - mean, mean


def cross_singular_triplets(yc, v, gc, tol=0.1, k=None):
    """SVD of the sample cross-covariance operator via its p x p Gram form.

    yc (T, p) is the centered panel, v (T, D) the surface rows and gc
    the Gram of their centered rows; the Gram form is yc.T @ gc @ yc /
    (T - 1)**2. Returns (r, alpha, beta): beta columns orthonormal hat
    vectors, alpha orthonormal in R^p, r descending. Components with
    r_k <= tol * r_1 are discarded unless k pins the count. Either way
    the count is capped at the numerical rank, the eigenvalues r_k**2
    above p * eps * r_1**2 (the rounding floor), because dividing by a
    vanishing singular value would fabricate a direction.
    """
    T = yc.shape[0]
    vals, vecs = np.linalg.eigh(yc.T @ (gc @ yc) / (T - 1) ** 2)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    r = np.sqrt(np.clip(vals, 0.0, None))
    if r[0] <= 0.0:
        raise ZeroCrossCovariance("cross-covariance is identically zero")
    rank = int(np.sum(vals > len(vals) * np.finfo(float).eps * vals[0]))
    if k is None:
        k = min(int(np.sum(r > tol * r[0])), rank)
        if k == 0:
            raise ZeroCrossCovariance(
                f"no singular value clears the cutoff {tol} * r_1"
            )
    else:
        k = min(int(k), rank)
        if k < 1:
            raise ZeroCrossCovariance("requested zero components")
    r = r[:k]
    alpha = vecs[:, :k]
    # v needs no centering as yc is centered; v.T @ (...) would copy v
    beta = ((yc @ alpha).T @ v).T / ((T - 1) * r)
    return r, alpha, beta


def _inv_sqrt_psd(s, what):
    vals, vecs = np.linalg.eigh(s)
    floor = np.finfo(float).tiny
    if vals[-1] <= 0.0 or vals[-1] / max(vals[0], floor) > COND_LIMIT:
        raise SingularFactorCovariance(
            f"{what} covariance is numerically singular "
            f"(condition number above {COND_LIMIT:g}); lower K and retry"
        )
    return (vecs / np.sqrt(vals)) @ vecs.T


@no_overflow()
def canonical_correlations(ytil, xtil):
    """Conventional CCA between two K-dimensional series.

    Returns (rho, u, v): rho descending, u/v the weight matrices such that
    the canonical coordinates ytil_c @ u and xtil_c @ v have unit sample
    variance and diagonal cross-correlation rho.
    """
    yc, _ = center_columns(np.asarray(ytil, dtype=float))
    xc, _ = center_columns(np.asarray(xtil, dtype=float))
    T = yc.shape[0]
    syy = yc.T @ yc / (T - 1)
    sxx = xc.T @ xc / (T - 1)
    syx = yc.T @ xc / (T - 1)
    iy = _inv_sqrt_psd(syy, "price-side factor")
    ix = _inv_sqrt_psd(sxx, "surface-side factor")
    um, s, vt = np.linalg.svd(iy @ syx @ ix)
    u = iy @ um
    v = ix @ vt.T
    return s, u, v


def gram_eigensystem(gc):
    """Eigenvalues and scores of the sample surface covariance operator.

    gc is the T x T Gram matrix of the centered hat frames. Returns (lam,
    scores): lam descending with lam_i > 1e-12 * lam_1, scores[t, i]
    the projection of frame t on the i-th eigensurface.
    """
    T = gc.shape[0]
    vals, vecs = np.linalg.eigh(gc)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    keep = vals > 1e-12 * max(vals[0], np.finfo(float).tiny)
    vals, vecs = vals[keep], vecs[:, keep]
    lam = vals / (T - 1)
    scores = vecs * np.sqrt(vals)
    return lam, scores


class _KrylovBlock:
    """Lanczos on the null operators of one block of shuffles at once.

    Shuffle s of the block scores A_s = yc[perm_s].T @ gc @ yc[perm_s],
    applied to one vector per shuffle by three gemms over the shuffles
    still open (yc @ X, a gather by the permutations, gc @ Z, the scatter
    back, yc.T @ V); neither A_s nor the T x (m p) shuffled panel is
    formed. Every shuffle starts from the same fixed vector, keeps its own
    depth, and every step reorthogonalizes against its whole basis twice.
    A Ritz value theta_i of the k-step tridiagonal has converged when its
    error bound is at most _RITZ_RTOL * theta_1: the smaller of its
    residual rho_i = |beta_k s_ki| (s_ki the last entry of its
    eigenvector) and rho_i**2 / delta_i, where delta_i is its distance to
    the neighbouring Ritz values, each less that neighbour's residual.
    The lowest Ritz value, and any with delta_i <= 0, has only rho_i: the
    spectrum below it is unseen. At k = p the Ritz values are A_s's
    eigenvalues. Once some beta_j is at most _RITZ_RTOL * theta_1, the
    Krylov space has (numerically) broken down: it holds an invariant
    subspace, whose eigenvalues are found exactly but need not lead, as
    the rest of R^p can hold larger ones (a second copy of a repeated
    eigenvalue, say). Such a shuffle converges only at k = p, and an
    exact breakdown restarts from a fresh axis. As in all single-vector
    Lanczos, a value can still be missed if the leading ones converge
    before the breakdown shows: a second copy of a repeated eigenvalue,
    or an eigenvector orthogonal to the start. The shuffled operators of
    a real panel have neither. Nor, as a rule, do they have the one case
    that only the bound on delta_i adds: a cluster of eigenvalues so
    narrow that the iteration has not yet told it apart reads as one
    value with a small residual and a wide gap, so a read that ends on it
    is known only to the cluster's width. A shuffle whose values have
    converged leaves the gemms; its state persists, so asking for more
    components resumes it from its own depth.
    """

    def __init__(self, yc, gc, draws, m):
        """Block of m shuffles, drawn by m calls to draws.permutation(T)."""
        T, p = yc.shape
        self.yc, self.gc, self.p = yc, gc, p
        self.perm = np.empty((T, m), dtype=np.intp)
        for s in range(m):
            self.perm[:, s] = draws.permutation(T)
        # basis[s, j] = q_j of shuffle s; rows past its depth stay zero
        self.basis = np.zeros((m, p, p))
        # the fixed start, a pseudo-random unit vector: generic, so no
        # structured eigenvector of the null operators is orthogonal to it
        start = np.random.default_rng(0).standard_normal(p)
        self.basis[:, 0] = start / np.linalg.norm(start)
        self.alpha = np.empty((m, p))
        self.beta = np.zeros((m, p))
        self.k = np.zeros(m, dtype=np.intp)  # each shuffle's depth
        self.theta = [np.empty(0)] * m  # converged leading Ritz values
        self.res = np.full((m, p), np.inf)  # relative bounds, last check

    def _step(self, sel):
        """One Lanczos step on each shuffle of sel short of depth p."""
        sel = sel[self.k[sel] < self.p]
        # flat index into (T, n) arrays: the gather z[t, i] = y[perm[t], i]
        # and the scatter back u[perm[t], i] = w[t, i], for shuffle sel[i]
        at = self.perm[:, sel] * len(sel) + np.arange(len(sel))
        j = self.k[sel]
        q = self.basis[sel, j]
        u = np.empty(at.size)
        u[at] = self.gc @ np.take(self.yc @ q.T, at)
        w = u.reshape(at.shape).T @ self.yc
        self.alpha[sel, j] = np.einsum("sp,sp->s", w, q)
        self.k[sel] = k = j + 1
        go = k < self.p
        sel, k, w = sel[go], k[go], w[go]
        basis = self.basis[sel, :k.max(initial=0)]
        w = _deflate(basis, w)
        first = np.sqrt(np.einsum("sp,sp->s", w, w))
        w = _deflate(basis, w)
        beta = np.sqrt(np.einsum("sp,sp->s", w, w))
        # a second pass that halves w finds it in the span (breakdown):
        # restart from the coordinate axis the basis covers least
        lost = beta <= 0.5 * first
        if lost.any():
            held = basis[lost]
            axis = np.argmin(np.einsum("sjp,sjp->sp", held, held), axis=1)
            w[lost] = _deflate(held, _deflate(held, np.eye(self.p)[axis]))
            beta[lost] = np.sqrt(np.einsum("sp,sp->s", w[lost], w[lost]))
        self.basis[sel, k] = w / beta[:, None]
        self.beta[sel, k - 1] = np.where(lost, 0.0, beta)

    def _ritz(self, sel):
        """Ritz values of shuffles sel, all at one depth, descending, the
        length of each one's converged leading run and each value's error
        bound relative to theta_1."""
        k = self.k[sel[0]]
        t = np.zeros((len(sel), k, k))
        i = np.arange(k)
        t[:, i, i] = self.alpha[sel, :k]
        t[:, i[1:], i[:-1]] = self.beta[sel, :k - 1]
        if k == self.p:
            return (np.linalg.eigvalsh(t)[:, ::-1], np.full(len(sel), k),
                    np.zeros((len(sel), k)))
        theta, vecs = np.linalg.eigh(t)
        theta = theta[:, ::-1]
        rho = self.beta[sel, k - 1, None] * np.abs(vecs[:, -1, ::-1])
        drop = -np.diff(theta, axis=1)  # theta_i - theta_(i+1)
        gap = np.zeros_like(theta)      # the lowest value has none
        gap[:, :-1] = drop - rho[:, 1:]
        gap[:, 1:-1] = np.minimum(gap[:, 1:-1], (drop - rho[:, :-1])[:, :-1])
        # rho**2 / gap where that is below rho, else rho
        rho *= np.divide(rho, gap, out=np.ones_like(rho), where=gap > rho)
        res = rho / np.maximum(theta[:, :1], np.finfo(float).tiny)
        # a beta at the rounding floor: broken down, these need not lead
        broken = (self.beta[sel, :k] <= _RITZ_RTOL * theta[:, :1]).any(axis=1)
        res[broken] = np.inf
        ok = res <= _RITZ_RTOL
        return theta, np.where(ok.all(axis=1), k, np.argmin(ok, axis=1)), res

    def leading(self, need):
        """(m, K) leading Ritz values, K >= need converged on every shuffle.

        After each step only the probe's tridiagonal is solved: the open
        shuffle whose need-th value was least converged when last checked.
        Once it has converged, one batched solve per depth checks every
        open shuffle, and those converged leave the steps that follow.
        """
        open_ = np.array([len(t) < need for t in self.theta])
        while open_.any():
            checked = np.flatnonzero(open_)
            probe = checked[np.argmax(self.res[checked, need - 1])]
            k = self.k[probe]
            if k < need or (k < self.p and self._ritz([probe])[1][0] < need):
                self._step(checked)
                continue
            for depth in set(self.k[checked].tolist()):
                group = checked[self.k[checked] == depth]
                theta, run, self.res[group, :depth] = self._ritz(group)
                for s, th, n in zip(group, theta, run):
                    if n >= need:
                        self.theta[s], open_[s] = th[:n], False
            if open_.any():
                self._step(np.flatnonzero(open_))
        got = min(len(t) for t in self.theta)
        return np.array([t[:got] for t in self.theta])


def _deflate(basis, w):
    """w with each row's components along its basis rows removed."""
    return w - ((basis @ w[:, :, None]).transpose(0, 2, 1) @ basis)[:, 0]


def _null_cut(theta, level, T):
    """level quantile over the shuffles (rows) of the null singular values
    whose squares, times (T - 1)**2, are theta.

    It is np.quantile(..., level, axis=0) bit for bit (method "linear":
    the same order statistics, weight and interpolation), without the
    np.unique call that makes np.quantile import numpy.ma."""
    s = np.sort(np.sqrt(np.clip(theta, 0.0, None)) / (T - 1), axis=0)
    at = (len(s) - 1) * level
    lo = math.floor(at)
    lo, hi = (-1, -1) if at >= len(s) - 1 else (lo, lo + 1)
    t = at - lo
    diff = s[hi] - s[lo]
    return s[hi] - diff * (1 - t) if t >= 0.5 else s[lo] + diff * t


def _reads(r, cut, wanted):
    """How many quantiles two_stage's keep rule reads from cut: up to and
    including the first that r does not clear, or all wanted of them.
    None when r clears every one of fewer than wanted."""
    short = r[:len(cut)] <= cut
    if short.any():
        return int(np.argmax(short)) + 1
    return len(cut) if len(cut) == wanted else None


def permutation_cutoffs(yc, xc, n_shuffles, level, rng=None, *, r):
    """Null singular-value quantiles from time-index shuffles of the panel.

    Each shuffle permutes the rows of the centered panel yc (T, p); the
    level quantile over the shuffles of each singular value of the
    shuffled cross covariance is returned. xc is the T x T centered
    surface Gram (gc in two_stage): yc[perm] is centered, so the squared
    singular values are the eigenvalues of yc[perm].T @ xc @ yc[perm] /
    (T - 1)**2 however wide the surface is. Shuffles are scored _BLOCK at
    a time by a matrix-free Lanczos iteration (_KrylovBlock) that
    converges only the leading values asked for: a shuffle stops, and
    leaves the block's gemms, once each value read has an error bound
    (its residual, or the residual squared over its gap to the other
    Ritz values) of at most _RITZ_RTOL times the largest.

    r is the observed singular values, descending; the call returns
    the quantiles two_stage's keep rule reads: those up to and including
    the first component r does not clear, or len(r) of them. The first
    block sets how deep every block converges: from two components,
    doubling, it goes deeper until the keep rule on its own quantiles
    stops, and every block then converges as many as that rule read.
    Should the quantiles over all shuffles read deeper still, every
    block is re-scored from the same permutations, twice as deep. An r
    of infinities clears every cut, so all min(p, T - 1) are returned
    (past the cross covariance's rank, the rounding floor).

    Draw contract: exactly n_shuffles calls to rng.permutation(T), one
    per shuffle in order; a re-scoring replays them from a copy of the
    generator, so it keeps no permutations. fit_fira passes one
    generator through all its horizons, so every later horizon's draws
    depend on this count.
    """
    if rng is None:
        rng = np.random.default_rng(42)
    T, p = yc.shape
    wanted = min(len(r), p, T - 1)
    need = min(2, wanted)
    start = copy.deepcopy(rng)  # replays the draws for a re-scoring
    draws, pilot = rng, True
    while True:
        theta = []
        for lo in range(0, n_shuffles, _BLOCK):
            block = _KrylovBlock(yc, xc, draws, min(_BLOCK, n_shuffles - lo))
            while pilot and lo == 0:
                first = block.leading(need)[:, :wanted]
                reads = _reads(r, _null_cut(first, level, T), wanted)
                if reads is not None:
                    need = reads
                    break
                need = min(wanted, 2 * first.shape[1])
            theta.append(block.leading(need)[:, :wanted])
            del block  # frees its basis before the next block is built
        got = min(t.shape[1] for t in theta)
        cut = _null_cut(np.concatenate([t[:, :got] for t in theta]), level, T)
        reads = _reads(r, cut, wanted)
        if reads is not None:
            return cut[:reads]
        need, draws, pilot = min(wanted, 2 * got), copy.deepcopy(start), False


def _check_k_or_permutation(k, permutation):
    if k is not None and permutation is not None:  # the null would not run
        raise ValueError("k and permutation exclude each other")


def two_stage(y, v, gram, tol=0.1, k=None, permutation=None, rng=None):
    """Associated factors between the rows of y (T, p) and v (T, D).

    gram is v @ v.T, or the Gram of v's centered rows; double-centered
    once into gc, it drives the cross SVD (cutoff tol * r_1, or k
    components) and the null of the optional permutation cut (dict with
    optional n and level, PERMUTATION_DEFAULTS filling the rest). k and
    permutation exclude each other. CCA on the raw projections y @ alpha
    and v @ beta follows, then the sign fix.
    Returns (r, rho, a, b_hat, y_factors, x_factors): retained singular
    values, canonical correlations, a (K, p), b_hat (K, D) and the
    canonical coordinates of y and v.
    """
    _check_k_or_permutation(k, permutation)
    yc, _ = center_columns(y)
    gc = gram - gram.mean(axis=0)  # H @ gram @ H, H the centering projector
    gc -= gc.mean(axis=1, keepdims=True)
    r, alpha, beta = cross_singular_triplets(yc, v, gc, tol=tol, k=k)
    if permutation is not None:
        null = {**PERMUTATION_DEFAULTS, **permutation}
        cut = permutation_cutoffs(yc, gc, null["n"], null["level"], rng, r=r)
        above = r[:len(cut)] > cut
        keep = int(np.argmin(above)) if not above.all() else len(r)
        if keep == 0:
            raise ZeroCrossCovariance(
                "no component clears the permutation null"
            )
        r, alpha, beta = r[:keep], alpha[:, :keep], beta[:, :keep]
    y_proj = y @ alpha
    x_proj = v @ beta
    rho, u, w = canonical_correlations(y_proj, x_proj)
    a_cols, u, w = _fix_signs(alpha @ u, u, w)
    return r, rho, a_cols.T, (beta @ w).T, y_proj @ u, x_proj @ w


# -- domain-facing types ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class CovarianceOperators:
    """Sample covariance structure of an aligned (panel, surface) pair.

    The surface-to-surface operator is held implicitly through the
    centered hat frames; the cross operator is held as one hat vector per
    sector (its coordinate surfaces).
    """

    sector_ids: tuple
    times: np.ndarray
    domain: object
    c_y: np.ndarray
    cross_hat: np.ndarray = field(repr=False)  # (p, D) rows = C_YX(e_j)
    yc: np.ndarray = field(repr=False)
    xc_hat: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Singular system of the cross-covariance operator."""

    singular_values: np.ndarray
    alpha: np.ndarray           # (p, K) price-side singular vectors
    beta_hat: np.ndarray = field(repr=False)  # (D, K) surface-side, hat coords
    domain: object = None

    @property
    def k(self):
        return len(self.singular_values)

    def beta_surface(self, k):
        return surface_from_hat(self.domain, self.beta_hat[:, k])


@dataclass(frozen=True, eq=False)
class AssociatedFactorSet:
    """Final canonical triplets: correlations and paired directions.

    a[k] is a price-side direction with unit-variance projection; b_hat[k]
    the paired direction in the coordinates of the rows the fit read:
    hat coordinates of a surface for associated_factors (domain is the
    surface's), design coordinates for a functional impulse-response
    horizon (domain is None). y_factors/x_factors are the raw canonical
    coordinates <a_k, Y_t> and <b_k, X_t>; times are the panel months
    fitted, so len(times) is the fit's sample size. regularity is the
    decay diagnostic of the panel and Gram the factors were fitted on,
    computed on first read. dropped names the sectors the fit left out,
    the loader's drops first.
    """

    rho: np.ndarray
    a: np.ndarray               # (K, p)
    b_hat: np.ndarray = field(repr=False)  # (K, D)
    y_factors: np.ndarray = field(repr=False)
    x_factors: np.ndarray = field(repr=False)
    sector_ids: tuple = ()
    times: np.ndarray = None
    domain: object = None
    singular_values: np.ndarray = None
    dropped: tuple = ()
    _frame: tuple = field(default=None, repr=False)  # (panel values, gram)

    @property
    def k(self):
        return len(self.rho)

    def b_surface(self, k):
        return surface_from_hat(self.domain, self.b_hat[k])

    @cached_property
    def regularity(self):
        return _regularity(*self._frame)


# -- operations ------------------------------------------------------------


def _check_sample(panel):
    """The window must exceed p + 1 months."""
    T, p = panel.values.shape
    if T < p + 2:
        raise InsufficientSample(f"need T >= p + 2, got T={T} with p={p}")


def _frame(panel, series):
    """The pair the factors fit, aligned to the window both share, with
    the hat frames x of its series and the Gram of their centered rows.
    Centering first keeps the Gram's rounding at the scale of the frames'
    spread: on levels far from zero, x @ x.T rounds at the scale of their
    mean, which buries the small eigenvalues the regularity diagnostic
    divides by."""
    (panel, series), _ = align(panel, series)
    x = hat_matrix(series)
    xc, _ = center_columns(x)
    return panel, series, x, xc @ xc.T


@no_overflow()
def estimate_covariances(panel, series):
    """Sample covariance operators of an aligned panel/surface pair."""
    (panel, series), _ = align(panel, series)
    _check_sample(panel)
    T = len(panel.times)
    yc, _ = center_columns(panel.values)
    xc, _ = center_columns(hat_matrix(series))
    c_y = yc.T @ yc / (T - 1)
    cross = yc.T @ xc / (T - 1)
    return CovarianceOperators(
        sector_ids=panel.sector_ids, times=panel.times, domain=series.domain,
        c_y=c_y, cross_hat=cross, yc=yc, xc_hat=xc,
    )


@no_overflow()
def svd_cross(operators, tol=0.1, k=None):
    """Singular triplets of the cross operator, cutoff at tol * r_1."""
    xc = operators.xc_hat
    r, alpha, beta = cross_singular_triplets(operators.yc, xc, xc @ xc.T,
                                             tol=tol, k=k)
    return SpectralDecomposition(r, alpha, beta, operators.domain)


def _fit_panel(panel):
    """The panel rule of every factor fit: the sectors constant over its
    rows join its dropped (the price-side covariance must be invertible
    for the final rotation), and T >= p + 2 must hold for the rest."""
    # equal values, tested exactly: the computed variance of a constant
    # column is often a rounding residue above zero
    degenerate = np.ptp(panel.values, axis=0) == 0.0
    # under two months every column is constant: _check_sample raises
    if degenerate.any() and len(panel.times) >= 2:
        ids = np.array(panel.sector_ids, dtype=object)
        if degenerate.all():
            raise SingularFactorCovariance(
                f"every sector is constant over the window: {tuple(ids)}")
        panel = type(panel)(panel.times, ids[~degenerate],
                            panel.values[:, ~degenerate],
                            panel.dropped + tuple(ids[degenerate]))
    _check_sample(panel)
    return panel


def fit_factors(panel, v, gram, domain, *, tol, k, permutation, rng):
    """The fit step of every associated-factor set: the panel rule, then
    two_stage between the panel's rows and the rows v (T, D) whose Gram
    is gram (v @ v.T, or the Gram of v's centered rows). domain is the
    set's: the surface's when v holds its hat frames, else None."""
    panel = _fit_panel(panel)
    r, rho, a, b_hat, y_factors, x_factors = two_stage(
        panel.values, v, gram=gram, tol=tol, k=k,
        permutation=permutation, rng=rng,
    )
    return AssociatedFactorSet(
        rho=rho, a=a, b_hat=b_hat, y_factors=y_factors, x_factors=x_factors,
        sector_ids=panel.sector_ids, times=panel.times, domain=domain,
        singular_values=r, dropped=panel.dropped, _frame=(panel.values, gram),
    )


@no_overflow()
def associated_factors(panel, series, tol=0.1, k=None, permutation=None,
                       rng=None):
    """Full two-stage pipeline: cross SVD, projection, CCA on factors.

    permutation, when given (never beside k), is a dict with keys n
    (shuffles) and level; components whose singular value falls below
    the null quantile are dropped on top of the relative cutoff. The
    set's dropped holds the panel's dropped ids, then its constant ones.
    """
    panel, series, x, gram = _frame(panel, series)
    return fit_factors(panel, x, gram, series.domain, tol=tol, k=k,
                       permutation=permutation, rng=rng)


# -- regularity diagnostic -------------------------------------------------


@dataclass(frozen=True, eq=False)
class RegularityReport:
    """Partial sums probing the summability of inverse-eigenvalue loadings.

    For each price-side eigenvector j the report tracks the partial sums
    over surface eigendirections i of lam_i^{-1} c_ij^2 (squared variant)
    and lam_i^{-1} |c_ij| (absolute variant), where c_ij is the sample
    cross moment between the i-th surface score and the j-th panel score.
    Sums that keep growing instead of plateauing are flagged; the flag is
    advisory and never blocks estimation.
    """

    eigenvalues: np.ndarray
    partial_sums_sq: np.ndarray    # (n_components, p)
    partial_sums_abs: np.ndarray
    flagged: np.ndarray            # (p,) bool, squared variant
    tail_fraction: np.ndarray      # (p,)

    @property
    def n_components(self):
        return len(self.eigenvalues)


@no_overflow()
def regularity_diagnostic(panel, series):
    """Probe whether the cross loadings decay fast enough relative to
    the surface spectrum; diagnostic only. It reads the frame that
    associated_factors fits under the same panel rule: constant sectors
    dropped, and the same errors for a window too short or a panel all
    constant."""
    panel, _, _, gram = _frame(panel, series)
    return _regularity(_fit_panel(panel).values, gram)


def _regularity(y, gram):
    """The diagnostic of panel rows y against the rows whose Gram is
    gram, double-centered here (H @ gram @ H) as in two_stage."""
    yc, _ = center_columns(y)
    T = yc.shape[0]
    gc, _ = center_columns(center_columns(gram)[0].T)
    lam, scores = gram_eigensystem(gc)
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
