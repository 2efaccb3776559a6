"""Augmented permanental kernels on geometric grids and their M-matrix
decompositions.

Given a symmetric positive kernel G on grid points t'_0 = d, t'_j = d +/-
theta^(n+1-j), and two excessive functions f, g, the augmented matrix

    K = [[1,      f(t'_0) ... f(t'_m)],
         [g(t'_0),  G + g f^T        ],
         [  ...                      ]]

has det K = det G and the closed-form inverse A = [[1 + rho, -v^T],
[-r, G^-1]] with r = G^-1 g, v = G^-1 f and rho = v . g = f . r, so G is
factored once.  Its lower block G^-1 is symmetric, so the symmetrized
A_sym = [[1 + rho, -h^T], [-h, G^-1]] only replaces the border pairs by their
geometric means h_j = sqrt(r_j v_j).  The Schur complement of G^-1 in A_sym
is the determinant ratio nu = 1 + rho - h G h^T, which controls how far the
non-symmetric law can drift from the symmetric one, and the comparison
kernel has the closed form

    K_isymi = A_sym^-1 = [[1/nu, (G h)^T / nu], [G h / nu, G + a a^T]],

a = G h / sqrt(nu), the covariance of eta + a xi.  So only G and K are
factored.  det K is checked by its own factorization, K_isymi by the size of
one Newton correction.  All factorizations run in extended precision;
conditioning is estimated and reported, and singular Gram matrices are
rejected rather than regularized, since jitter would silently move nu.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import e as _e, exp, floor, isfinite

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
    K: np.ndarray
    K_ld: np.ndarray        # extended-precision assembly used by the algebra
    G_lu: tuple             # la.lu_factor(G), the one factorization of G
    G_inv: np.ndarray       # its refined inverse, the lower block of A
    cond: float


def assemble_kernel(base, f, g, grid, *, cond_limit: float = 1e12) -> AugmentedKernel:
    """Build the augmented matrix for a base kernel and two excessive functions.

    grid may be a GridSpec or an explicit point array whose first entry is
    the distinguished point.  f, g >= 0 on the grid and > 0 at that point,
    except f = g = 0 on the grid, which is the symmetric kernel (nu = 1).
    """
    pts = grid.points() if isinstance(grid, GridSpec) else np.asarray(grid, float)
    if not np.all(np.isfinite(pts)):
        raise GridError("grid points must be finite")
    if getattr(base, "positive_domain", False) and np.any(pts <= 0.0):
        raise GridError("grid touches the forbidden origin of this base")
    G = mirror_upper(base.gram(pts, pts))
    if np.any(G <= 0.0):
        raise ValueError("kernel must be strictly positive on the grid square")
    fvec, gvec = on_grid(f, pts), on_grid(g, pts)
    if np.any(fvec < 0.0) or np.any(gvec < 0.0):
        raise ValueError("excessive functions must be nonnegative on the grid")
    if (fvec[0] <= 0.0 or gvec[0] <= 0.0) and (np.any(fvec) or np.any(gvec)):
        raise ValueError("f and g must be positive at the distinguished point")
    G_ld = np.asarray(G, dtype=la.LD)
    G_lu = la.lu_factor(G_ld)
    G_inv = la.inv(G_ld, G_lu)
    cond = la.cond1(G_ld, G_inv)
    if cond > cond_limit:
        raise ValueError(f"Gram matrix numerically singular (cond ~ {cond:.3g})")
    K_ld = _bordered(1.0, fvec, gvec, G_ld + np.outer(np.asarray(gvec, la.LD),
                                                       np.asarray(fvec, la.LD)))
    K = np.asarray(K_ld, dtype=float)
    return AugmentedKernel(pts, G, fvec, gvec, K, K_ld, G_lu, G_inv, cond)


def _bordered(corner, row, col, inner) -> np.ndarray:
    """The extended-precision matrix [[corner, row], [col, inner]]."""
    out = np.empty((len(row) + 1, len(row) + 1), dtype=la.LD)
    out[0, 0], out[0, 1:], out[1:, 0], out[1:, 1:] = corner, row, col, inner
    return out


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
    off = scaled - np.diag(np.diag(scaled))
    return float(np.max(off))


def _entrywise_negative_excess(mat: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(mat))))
    return float(-np.min(mat) / scale)


def decompose(ak: AugmentedKernel) -> Decomposition:
    """Invert the augmented kernel in closed form, symmetrize, and re-invert.

    Raises when the border coefficients r, v dip below -_NEGATIVITY_TOL
    (scaled), which is the discrete signature of a non-excessive input.
    """
    G = np.asarray(ak.G, dtype=la.LD)
    r = la.lu_solve(ak.G_lu, np.asarray(ak.gvec, dtype=la.LD))
    v = la.lu_solve(ak.G_lu, np.asarray(ak.fvec, dtype=la.LD))
    rho_ld = v @ np.asarray(ak.gvec, dtype=la.LD)
    rho = float(rho_ld)
    tol_r = _NEGATIVITY_TOL * max(1.0, float(np.max(np.abs(r))))
    tol_v = _NEGATIVITY_TOL * max(1.0, float(np.max(np.abs(v))))
    if float(np.min(r)) < -tol_r or float(np.min(v)) < -tol_v:
        raise ValueError("negative border coefficients: input is not excessive "
                         "for this kernel on this grid")
    rho_identity_error = abs(rho - float(v @ (G @ r))) / max(1.0, abs(rho))

    h = np.sqrt(np.clip(r * v, 0.0, None))
    Gh = G @ h
    nu_ld = 1.0 + rho - h @ Gh
    nu = float(nu_ld)
    a = np.asarray(Gh, dtype=la.LD) / np.sqrt(la.LD(max(nu, 1e-300)))

    A = _bordered(1.0 + rho_ld, -v, -r, ak.G_inv)
    # G^-1 is symmetric, so only the border pairs (-v_j, -r_j) need their
    # geometric mean -h_j; the Schur complement of G^-1 in A_sym is nu
    A_sym = _bordered(1.0 + rho_ld, -h, -h, ak.G_inv)
    K_isymi = _bordered(1.0 / nu_ld, Gh / nu_ld, Gh / nu_ld,
                        G + np.outer(Gh, Gh) / nu_ld)
    # one Newton correction K_isymi (I - A_sym K_isymi), measured, not applied
    correction = K_isymi @ (np.eye(len(A_sym), dtype=la.LD) - A_sym @ K_isymi)
    block_err = (float(np.max(np.abs(correction)))
                 / max(1.0, float(np.max(np.abs(K_isymi)))))

    sign_k, log_k = la.slogdet(ak.K_ld)
    sign_g, log_g = la.slogdet(G, ak.G_lu)
    if sign_k <= 0 or sign_g <= 0:
        det_err = np.inf
    else:
        det_err = abs(np.expm1(log_k - log_g))

    return Decomposition(
        kernel=ak,
        r=np.asarray(r, float), v=np.asarray(v, float), rho=rho,
        h=np.asarray(h, float), nu=nu, a=np.asarray(a, float),
        A=np.asarray(A, float), A_sym=np.asarray(A_sym, float),
        K_isymi=np.asarray(K_isymi, float),
        det_ratio_error=float(det_err),
        rho_identity_error=float(rho_identity_error),
        block_identity_error=block_err,
    )


def min_kernel_inverse(t) -> np.ndarray:
    """Tridiagonal inverse of the matrix min(t_i, t_j) for increasing t > 0."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or len(t) == 0:
        raise ValueError("need a one-dimensional nonempty grid")
    if t[0] <= 0.0 or np.any(np.diff(t) <= 0.0):
        raise ValueError("grid must be strictly increasing and positive")
    a = 1.0 / np.diff(t, prepend=0.0)
    off = np.diag(a[1:], 1)
    return np.diag(a + np.append(a[1:], 0.0)) - off - off.T


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
