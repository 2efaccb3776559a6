"""Augmented permanental kernels on geometric grids and their M-matrix
decompositions.

Given a symmetric positive kernel G on grid points t'_0 = d, t'_j = d +/-
theta^(n+1-j), and two excessive functions f, g, the augmented matrix

    K = [[1,      f(t'_0) ... f(t'_m)],
         [g(t'_0),  G + g f^T        ],
         [  ...                      ]]

has det K = det G, inverse A with border rows built from r = G^-1 g and
v = G^-1 f, and a symmetrized comparison kernel obtained by inverting,
symmetrizing the off-diagonal entries geometrically, and inverting again.
The determinant ratio nu = 1 + rho - h G h^T (h_j = sqrt(r_j v_j),
rho = v . g) controls how far the non-symmetric law can drift from the
symmetric one.  All factorizations run in extended precision; conditioning is
estimated and reported, and singular Gram matrices are rejected rather than
regularized, since jitter would silently move nu.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import e as _e, exp, floor

import numpy as np

from . import _linalg as la
from .bases import mirror_upper

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
]

MAX_GRID_POINTS = 200
_LOGLOG_CAP = exp(-_e)   # largest admissible offset, log log 1/t >= 1


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
    cond: float
    degenerate: bool = False


def assemble_kernel(base, f, g, grid, *, allow_degenerate: bool = False,
                    cond_limit: float = 1e12) -> AugmentedKernel:
    """Build the augmented matrix for a base kernel and two excessive functions.

    grid may be a GridSpec or an explicit point array whose first entry is
    the distinguished point.
    """
    pts = grid.points() if isinstance(grid, GridSpec) else np.asarray(grid, float)
    if isinstance(grid, GridSpec) and getattr(base, "positive_domain", False):
        if np.any(pts <= 0.0):
            raise GridError("grid touches the forbidden origin of this base")
    n = len(pts)
    G = mirror_upper(base.gram(pts, pts))
    if np.any(G <= 0.0):
        raise ValueError("kernel must be strictly positive on the grid square")
    fvec = np.array([float(f(p)) for p in pts])
    gvec = np.array([float(g(p)) for p in pts])
    degenerate = False
    if np.all(fvec == 0.0) and np.all(gvec == 0.0):
        if not allow_degenerate:
            raise ValueError("f = g = 0 is a degenerate kernel; "
                             "pass allow_degenerate=True in tests")
        degenerate = True
    else:
        if np.any(fvec < 0.0) or np.any(gvec < 0.0):
            raise ValueError("excessive functions must be nonnegative on the grid")
        if fvec[0] <= 0.0 or gvec[0] <= 0.0:
            raise ValueError("f and g must be positive at the distinguished point")
    G_inv = la.inv(np.asarray(G, dtype=la.LD))
    cond = la.cond1(np.asarray(G, dtype=la.LD), G_inv)
    if cond > cond_limit:
        raise ValueError(f"Gram matrix numerically singular (cond ~ {cond:.3g})")
    K_ld = np.empty((n + 1, n + 1), dtype=la.LD)
    K_ld[0, 0] = 1.0
    K_ld[0, 1:] = fvec
    K_ld[1:, 0] = gvec
    K_ld[1:, 1:] = np.asarray(G, la.LD) + np.outer(np.asarray(gvec, la.LD),
                                                   np.asarray(fvec, la.LD))
    K = np.asarray(K_ld, dtype=float)
    return AugmentedKernel(pts, G, fvec, gvec, K, K_ld, cond, degenerate)


@dataclass
class Decomposition:
    kernel: AugmentedKernel
    r: np.ndarray
    v: np.ndarray
    rho: float
    h: np.ndarray
    nu: float
    a: np.ndarray
    A: np.ndarray
    A_sym: np.ndarray
    K_isymi: np.ndarray
    isymi_block: np.ndarray       # analytic block form of K_isymi
    det_ratio_error: float        # |det K / det G - 1|
    rho_identity_error: float     # |rho - v G r| (scaled)
    block_identity_error: float   # K_isymi vs its analytic block form
    sign_tol: float = 1e-10

    def offdiag_positive_excess(self, mat: np.ndarray) -> float:
        """Largest off-diagonal entry after scaling rows by the diagonal."""
        scaled = mat / np.abs(np.diag(mat))[:, None]
        off = scaled - np.diag(np.diag(scaled))
        return float(np.max(off))

    def entrywise_negative_excess(self, mat: np.ndarray) -> float:
        scale = max(1.0, float(np.max(np.abs(mat))))
        return float(-np.min(mat) / scale)

    @property
    def a_is_m_matrix(self) -> bool:
        return (self.offdiag_positive_excess(self.A) <= self.sign_tol
                and self.entrywise_negative_excess(self.kernel.K) <= self.sign_tol)

    @property
    def a_sym_is_m_matrix(self) -> bool:
        return (self.offdiag_positive_excess(self.A_sym) <= self.sign_tol
                and self.entrywise_negative_excess(self.K_isymi) <= self.sign_tol)


def decompose(ak: AugmentedKernel, *, negativity_tol: float = 1e-10,
              sign_tol: float = 1e-10) -> Decomposition:
    """Invert, symmetrize, and re-invert the augmented kernel.

    Raises when the border coefficients r, v dip below -negativity_tol
    (scaled), which is the discrete signature of a non-excessive input.
    """
    G = np.asarray(ak.G, dtype=la.LD)
    G_lu = la.lu_factor(G)
    r = la.lu_solve(G_lu, np.asarray(ak.gvec, dtype=la.LD))
    v = la.lu_solve(G_lu, np.asarray(ak.fvec, dtype=la.LD))
    rho = float(v @ np.asarray(ak.gvec, dtype=la.LD))
    tol_r = negativity_tol * max(1.0, float(np.max(np.abs(r))))
    tol_v = negativity_tol * max(1.0, float(np.max(np.abs(v))))
    if float(np.min(r)) < -tol_r or float(np.min(v)) < -tol_v:
        raise ValueError("negative border coefficients: input is not excessive "
                         "for this kernel on this grid")
    rho_identity_error = abs(rho - float(v @ (G @ r))) / max(1.0, abs(rho))

    h = np.sqrt(np.clip(r * v, 0.0, None))
    Gh = G @ h
    nu = float(1.0 + rho - h @ Gh)
    a = np.asarray(Gh, dtype=la.LD) / np.sqrt(la.LD(max(nu, 1e-300)))

    K = ak.K_ld
    A = la.inv(K)
    # geometric mean of each off-diagonal pair; A[i, j] A[j, i] commutes, so
    # the result is exactly symmetric
    A_sym = -np.sqrt(np.clip(A * A.T, 0.0, None))
    np.fill_diagonal(A_sym, np.diag(A))
    K_isymi = la.inv(A_sym)

    # the closed block form of K_isymi, written with the border of A itself so
    # that the comparison is free of the float64 assembly rounding of K
    G_a = np.asarray(A_sym[1:, 1:], dtype=la.LD)
    h_a = -np.asarray(A_sym[0, 1:], dtype=la.LD)
    rho_a = A[0, 0] - 1.0
    G_from_a = la.inv(G_a)
    Gh_a = G_from_a @ h_a
    nu_a = la.LD(1.0) + rho_a - h_a @ Gh_a
    block = np.empty_like(K_isymi)
    block[0, 0] = 1.0 / nu_a
    block[0, 1:] = Gh_a / nu_a
    block[1:, 0] = Gh_a / nu_a
    block[1:, 1:] = G_from_a + np.outer(Gh_a, Gh_a) / nu_a
    scale = max(1.0, float(np.max(np.abs(block))))
    block_err = float(np.max(np.abs(K_isymi - block))) / scale

    sign_k, log_k = la.slogdet(K)
    sign_g, log_g = la.slogdet(G)
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
        isymi_block=np.asarray(block, float),
        det_ratio_error=float(det_err),
        rho_identity_error=float(rho_identity_error),
        block_identity_error=block_err,
        sign_tol=sign_tol,
    )


def min_kernel_inverse(t) -> np.ndarray:
    """Tridiagonal inverse of the matrix min(t_i, t_j) for increasing t > 0."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or len(t) == 0:
        raise ValueError("need a one-dimensional nonempty grid")
    if t[0] <= 0.0 or np.any(np.diff(t) <= 0.0):
        raise ValueError("grid must be strictly increasing and positive")
    m = len(t)
    a = np.empty(m)
    a[0] = 1.0 / t[0]
    if m > 1:
        a[1:] = 1.0 / np.diff(t)
    out = np.zeros((m, m))
    for j in range(m):
        out[j, j] = a[j] + (a[j + 1] if j + 1 < m else 0.0)
        if j + 1 < m:
            out[j, j + 1] = out[j + 1, j] = -a[j + 1]
    return out


def grid_condition_diagnostic(spec: GridSpec, increment_variance) -> float:
    """m(n) * sup over pairs of |t_k - t_j| / sigma^2(|t_k - t_j|).

    Small values indicate the gap-to-variance condition that lets rough
    kernels dispense with flat border functions; kernels with a linear
    increment variance make it grow like m(n).  Reported as a diagnostic
    only, since no finite-n threshold is available.
    """
    t = np.concatenate(([0.0], spec.offsets()))
    worst = 0.0
    for j in range(len(t)):
        for k in range(j + 1, len(t)):
            gap = abs(t[k] - t[j])
            worst = max(worst, gap / increment_variance(gap))
    return spec.m * worst


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
