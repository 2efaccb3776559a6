"""Augmented permanental kernels on geometric grids and their M-matrix
decompositions.

Given a symmetric positive kernel G on grid points t'_0 = d, t'_j = d +/-
theta^(n+1-j), and two excessive functions f, g, the augmented matrix

    K = [[1,      f(t'_0) ... f(t'_m)],
         [g(t'_0),  G + g f^T        ],
         [  ...                      ]]

has det K = det G and the closed-form inverse A = [[1 + rho, -v^T],
[-r, G^-1]] with r = G^-1 g, v = G^-1 f and rho = v . g = f . r, so K
needs no inverse of its own.  Its lower block G^-1 is symmetric, so the
symmetrized A_sym = [[1 + rho, -h^T], [-h, G^-1]] only replaces the border
pairs by their geometric means h_j = sqrt(r_j v_j).  The Schur complement
of G^-1 in A_sym is the determinant ratio nu = 1 + rho - h G h^T, which
controls how far the non-symmetric law can drift from the symmetric one,
and the comparison kernel has the closed form

    K_isymi = A_sym^-1 = [[1/nu, (G h)^T / nu], [G h / nu, G + a a^T]],

a = G h / sqrt(nu), the covariance of eta + a xi.  Only G is inverted, all
in float64 (_linalg): r, v, h, G h, rho, nu, A and A_sym are pairs hi + lo
of doubles or exact sums, and each entry of K_isymi is rounded once.  The
checks of K_isymi (one Newton correction) and of det K = det G (det(K A))
use exact residuals.  Conditioning is estimated and reported, and singular
Gram matrices are rejected rather than regularized, since jitter would
silently move nu.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import e as _e, exp, floor, fsum, isfinite

import numpy as np

from . import _linalg as la
from .bases import mirror_upper
from .excessive import on_grid

__all__ = [
    "GridSpec",
    "GridError",
    "AugmentedKernel",
    "Decomposition",
    "assemble_kernel",
    "grid_points",
    "decompose",
    "grid_condition_diagnostic",
    "min_kernel_inverse",
    "rowsum_residuals",
    "MAX_GRID_POINTS",
    "SIGN_TOL",
    "offdiag_positive_excess",
]

MAX_GRID_POINTS = 200
_LOGLOG_CAP = exp(-_e)   # largest admissible offset, log log 1/t >= 1
_NEGATIVITY_TOL = 1e-10  # scaled dip of r, v below zero that decompose accepts
SIGN_TOL = 1e-10         # scaled sign excess the M-matrix checks accept
_COND_LIMIT = 1e12       # condition estimate above which G counts as singular


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class GridSpec:
    """Geometric grid d +/- theta^(n+1-j), j = 1..m(n), m(n) = n+1-floor(n^q)."""

    d: float
    theta: float
    n: int
    q: float
    direction: int = 1

    def __post_init__(self):
        if not isfinite(self.d):
            raise GridError("d must be finite")
        if not 0.0 < self.theta < 1.0:
            raise GridError("theta must lie in (0, 1)")
        if not 0.0 < self.q < 1.0:
            raise GridError("q must lie in (0, 1)")
        if self.n < 1:
            raise GridError("n must be a positive integer")
        if self.direction not in (1, -1):
            raise GridError("direction must be +1 or -1")
        if self.m < 1:
            raise GridError("grid has no points: floor(n^q) > n")
        if self.m + 1 > MAX_GRID_POINTS:
            raise GridError(f"grid capped at {MAX_GRID_POINTS} points")
        if self.offsets()[-1] > _LOGLOG_CAP * (1.0 + 1e-12):
            raise GridError(
                f"largest offset {self.offsets()[-1]:.4g} exceeds e^-e; "
                "the iterated logarithm guard fails")

    @property
    def m(self) -> int:
        return self.n + 1 - floor(self.n ** self.q)

    def offsets(self) -> np.ndarray:
        """(t_1, ..., t_m), increasing; t_j = theta^(n+1-j)."""
        j = np.arange(1, self.m + 1)
        return self.theta ** (self.n + 1 - j)

    def points(self) -> np.ndarray:
        """(t'_0, ..., t'_m) with the distinguished point d first."""
        return np.concatenate(([self.d], self.d + self.direction * self.offsets()))


@dataclass
class AugmentedKernel:
    points: np.ndarray
    G: np.ndarray
    fvec: np.ndarray
    gvec: np.ndarray
    K: np.ndarray           # the bordered G + g f^T, each entry rounded once
    K_lo: np.ndarray        # K's low part: K + K_lo is within 2^-106 of it
    G_inv: tuple            # la.inv(G), the pair (hi, lo) of A's lower block
    cond: float


def grid_points(base, grid) -> np.ndarray:
    """Points of a grid: finite, and positive on a positive_domain base."""
    pts = grid.points() if isinstance(grid, GridSpec) else np.asarray(grid, float)
    if not np.all(np.isfinite(pts)):
        raise GridError("grid points must be finite")
    if base.positive_domain and np.any(pts <= 0.0):
        raise GridError("grid touches the forbidden origin of this base")
    return pts


def assemble_kernel(base, f, g, grid) -> AugmentedKernel:
    """Build the augmented matrix for a base kernel and two excessive functions.

    grid may be a GridSpec or an explicit point array whose first entry is
    the distinguished point.  f, g >= 0 on the grid and > 0 at that point,
    except f = g = 0 on the grid, which is the symmetric kernel (nu = 1).
    G with a condition estimate above _COND_LIMIT is refused as singular.
    """
    pts = grid_points(base, grid)
    G = mirror_upper(base.gram(pts, pts))
    if np.any(G <= 0.0):
        raise ValueError("kernel must be strictly positive on the grid square")
    fvec, gvec = on_grid(f, pts), on_grid(g, pts)
    if np.any(fvec < 0.0) or np.any(gvec < 0.0):
        raise ValueError("excessive functions must be nonnegative on the grid")
    if (fvec[0] <= 0.0 or gvec[0] <= 0.0) and (np.any(fvec) or np.any(gvec)):
        raise ValueError("f and g must be positive at the distinguished point")
    G_inv = la.inv(G)
    cond = la.cond1(G, G_inv[0])
    if cond > _COND_LIMIT:
        raise ValueError(f"Gram matrix numerically singular (cond ~ {cond:.3g})")
    K, K_lo = _kernel_pair(G, fvec, gvec)
    return AugmentedKernel(pts, G, fvec, gvec, K, K_lo, G_inv, cond)


def _bordered(corner, row, col, inner) -> np.ndarray:
    """The matrix [[corner, row], [col, inner]]."""
    out = np.empty((len(row) + 1, len(row) + 1))
    out[0, 0], out[0, 1:], out[1:, 0], out[1:, 1:] = corner, row, col, inner
    return out


def _kernel_pair(G, fvec, gvec) -> tuple:
    """K as a pair (hi, lo) within 2^-106 of it, by TwoProduct and TwoSum."""
    p, e = la.two_product(gvec[:, None], fvec[None, :])
    hi, lo = la.pair_add(G, e, p)
    zero = np.zeros_like(fvec)
    return _bordered(1.0, fvec, gvec, hi), _bordered(0.0, zero, zero, lo)


def _refined_solve(s: np.ndarray, X: tuple, b: np.ndarray) -> tuple:
    """G^-1 b as a pair from G's cut s = la.cut((G, None)) and the pair X of
    G^-1, refined once with the exact residual b - G x."""
    sol = X[0] @ b + X[1] @ b
    return la.pair_add(sol, 0.0 * sol, X[0] @ la.residual(s, (sol, None), b))


def _closed_form_inverse(G_inv: tuple, rho: tuple, row: tuple, col: tuple) -> tuple:
    """[[1 + rho, -row], [-col, G^-1]] as a pair (hi, lo) from pairs, the
    inverse of a bordered kernel u + g f^T: decompose's A for (v, r) and
    A_sym for (h, h).  rebirth.partial_rebirth_potential builds the high
    half alone for (mu, u^-1 1), G = u.  fsum rounds the corner's low part
    once."""
    corner = 1.0 + rho[0]
    return (_bordered(corner, -row[0], -col[0], G_inv[0]),
            _bordered(fsum((1.0, *rho, -corner)), -row[1], -col[1], G_inv[1]))


def _det_ratio_error(K: tuple, A: tuple) -> float:
    """|det(K A) - 1| = |det K / det G - 1| from the exact R = I - K A."""
    R = la.residual(la.cut(K), A)
    sign, logdet = la.slogdet(np.eye(len(R)) - R)
    return abs(float(np.expm1(logdet))) if sign > 0 else np.inf


@dataclass
class Decomposition:
    kernel: AugmentedKernel
    r: np.ndarray
    v: np.ndarray
    rho: float
    h: np.ndarray
    nu: float
    a: np.ndarray
    A: np.ndarray                 # K^-1 in closed form from G^-1
    A_sym: np.ndarray             # A with its border pairs replaced by -h
    K_isymi: np.ndarray           # A_sym^-1 in closed form from G and G h
    det_ratio_error: float        # |det K / det G - 1|
    rho_identity_error: float     # |rho - v G r| (scaled)
    block_identity_error: float   # one Newton correction of K_isymi (scaled)
    rv_clipped: float             # largest -r_j v_j set to 0 in h (scaled)

    @property
    def a_is_m_matrix(self) -> bool:
        return (offdiag_positive_excess(self.A) <= SIGN_TOL
                and _entrywise_negative_excess(self.kernel.K) <= SIGN_TOL)

    @property
    def a_sym_is_m_matrix(self) -> bool:
        return (offdiag_positive_excess(self.A_sym) <= SIGN_TOL
                and _entrywise_negative_excess(self.K_isymi) <= SIGN_TOL)


def offdiag_positive_excess(mat: np.ndarray) -> float:
    """Largest off-diagonal entry after scaling rows by the diagonal."""
    scaled = mat / np.abs(np.diag(mat))[:, None]
    d = scaled.diagonal()
    np.fill_diagonal(scaled, d - d)
    return float(np.max(scaled))


def _entrywise_negative_excess(mat: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(mat))))
    return float(-np.min(mat) / scale)


def decompose(ak: AugmentedKernel) -> Decomposition:
    """Invert the augmented kernel in closed form, symmetrize, and re-invert.

    Raises when the border coefficients r, v dip below -_NEGATIVITY_TOL
    (scaled), which is the discrete signature of a non-excessive input.
    Products r_j v_j below zero enter h as 0, and rv_clipped reports the
    largest of them, scaled like that check.
    """
    G, X, f = ak.G, ak.G_inv, ak.fvec
    gf = np.column_stack((ak.gvec, f))
    # G cut once for its two products below, [r v] and G [r h]
    s = la.cut((G, None))
    # [r v] = G^-1 [g f] as pairs: r + r_lo, like each hi + lo below, keeps
    # what rounding drops
    (r, v), (r_lo, v_lo) = (x.T.copy() for x in _refined_solve(s, X, gf))
    if any(np.min(x) < -_NEGATIVITY_TOL * max(1.0, np.max(np.abs(x))) for x in (r, v)):
        raise ValueError("negative border coefficients: input is not excessive "
                         "for this kernel on this grid")
    rho = la.dot(np.concatenate((f, f)), np.concatenate((r, r_lo)))

    rv = r * v
    rv_clipped = max(0.0, -float(np.min(rv))) / max(1.0, float(np.max(np.abs(rv))))
    h = np.sqrt(np.clip(rv, 0.0, None))
    # sqrt(r v) = h + (r v - h^2) / 2h to first order, with exact products
    (p, e), (q, d) = la.two_product(r, v), la.two_product(h, h)
    h_lo = np.divide((p - q) + (e - d) + r * v_lo + r_lo * v, 2.0 * h,
                     out=np.zeros_like(h), where=h > 0.0)
    h, h_lo = la.pair_add(h, 0.0 * h, h_lo)
    # G [r h] as a pair, from one set of exact slice products; G's slices
    # go before the (n + 1)^2 matrices below are made
    x = (np.column_stack((r, h)), np.column_stack((r_lo, h_lo)))
    (Gr, Gh), (Gr_lo, Gh_lo) = (y.T for y in la.product(s, x))
    del s
    vGr = la.dot(np.concatenate((v, v, v_lo)), np.concatenate((Gr, Gr_lo, Gr)))[0]
    rho_identity_error = abs(rho[0] - vGr) / max(1.0, abs(rho[0]))
    nu = la.dot(np.concatenate(([1.0], f, f, h, h, h_lo)),
                np.concatenate(([1.0], r, r_lo, -Gh, -Gh_lo, -Gh)))

    A = _closed_form_inverse(X, rho, (v, v_lo), (r, r_lo))
    # G^-1 is symmetric, so only the border pairs (-v_j, -r_j) need their
    # geometric mean -h_j; the Schur complement of G^-1 in A_sym is nu
    A_sym = _closed_form_inverse(X, rho, (h, h_lo), (h, h_lo))
    # K_isymi = [[1/nu, b^T], [b, G + G h b^T]], b = G h / nu, each entry
    # rounded once from its pairs
    b = la.pair_div((Gh, Gh_lo), nu)
    p, e = la.two_product(Gh[:, None], b[0][None, :])
    e += np.outer(Gh, b[1]) + np.outer(Gh_lo, b[0])
    K_isymi = _bordered(sum(la.pair_div((1.0, 0.0), nu)), b[0] + b[1],
                        b[0] + b[1], la.pair_add(G, e, p)[0])
    # one Newton correction K_isymi (I - A_sym K_isymi), measured, not applied
    correction = np.abs(K_isymi @ la.residual(la.cut(A_sym), (K_isymi, None)))
    block_err = float(np.max(correction)) / max(1.0, float(np.max(np.abs(K_isymi))))
    det_err = _det_ratio_error((ak.K, ak.K_lo), A)
    rho, nu = rho[0], nu[0]
    a = (Gh + Gh_lo) / np.sqrt(max(nu, 1e-300))

    return Decomposition(
        kernel=ak, r=r, v=v, rho=rho, h=h, nu=nu, a=a, A=A[0], A_sym=A_sym[0],
        K_isymi=K_isymi, det_ratio_error=det_err,
        rho_identity_error=rho_identity_error, block_identity_error=block_err,
        rv_clipped=rv_clipped)


def min_kernel_inverse(t) -> np.ndarray:
    """Tridiagonal inverse of the matrix min(t_i, t_j) for increasing t > 0."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or len(t) == 0:
        raise ValueError("need a one-dimensional nonempty grid")
    if t[0] <= 0.0 or np.any(np.diff(t) <= 0.0):
        raise ValueError("grid must be strictly increasing and positive")
    a = 1.0 / np.diff(t, prepend=0.0)
    out = np.diag(a + np.append(a[1:], 0.0))
    i = np.arange(len(t) - 1)
    out[i, i + 1] = out[i + 1, i] = -a[1:]
    return out


def grid_condition_diagnostic(spec: GridSpec, increment_variance) -> float:
    """m(n) * sup over pairs of |t_k - t_j| / sigma^2(|t_k - t_j|).

    Small values indicate the gap-to-variance condition that lets rough
    kernels dispense with flat border functions; kernels with a linear
    increment variance make it grow like m(n).  Reported as a diagnostic
    only, since no finite-n threshold is available.  increment_variance
    takes the array of all pairwise gaps in one call.
    """
    t = np.concatenate(([0.0], spec.offsets()))
    j, k = np.triu_indices(len(t), 1)
    gaps = np.abs(t[k] - t[j])
    return spec.m * float(np.max(gaps / increment_variance(gaps)))


def rowsum_residuals(dec: Decomposition) -> dict:
    """Distance of the border row sums from their leading-order values."""
    G00 = dec.kernel.G[0, 0]
    fd = dec.kernel.fvec[0]
    gd = dec.kernel.gvec[0]
    return {
        "r_sum": abs(float(np.sum(dec.r)) - gd / G00),
        "v_sum": abs(float(np.sum(dec.v)) - fd / G00),
        "rho": abs(dec.rho - fd * gd / G00),
    }
