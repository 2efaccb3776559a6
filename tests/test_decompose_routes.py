"""The closed-form decomposition against the inversion route it replaced.

decompose builds A = K^-1 in closed form from the one factorization of G
that assemble_kernel keeps, and K_isymi = A_sym^-1 in closed form from G and
G h, so that only G and K are factored.  The reference below is the earlier
decompose, which factored G again for r and v, inverted K and A_sym
outright, checked the latter against its block form and took log det G
from a fresh factorization; the condition number came from a fresh inverse
of G.  Everything that does not depend on A must equal it bit for bit, and
A and K_isymi must equal the direct inverses of K and A_sym to rounding.
A 50-digit inverse of A_sym checks K_isymi on a deep grid.
"""

from dataclasses import replace

import numpy as np
import pytest

from permlab import (Affine, AtomicPotential, CharExponent, Exp,
                     ExpDecayBase, GridSpec, HitZeroLevyBase, LevyBase,
                     LevyPotential, Pow, PQBase, PQPotential, Prod,
                     ScaleMinBase, ScalePotential, StableHitZeroBase,
                     VBetaBase, VPQBase, assemble_kernel, brownian_unit_base,
                     decompose, sample_isymi_representation)
from permlab import _linalg as la
from permlab.kernel_algebra import Decomposition, _bordered

STABLE = CharExponent.pure_stable(1.5)


def _symmetrized(A):
    """A with each off-diagonal pair replaced by minus its geometric mean."""
    A_sym = -np.sqrt(np.clip(A * A.T, 0.0, None))
    np.fill_diagonal(A_sym, np.diag(A))
    return A_sym


def _inversion_route(ak, negativity_tol=1e-10):
    """decompose as it was before A had a closed form."""
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

    rv = r * v
    rv_clipped = (max(0.0, -float(np.min(rv)))
                  / max(1.0, float(np.max(np.abs(rv)))))
    h = np.sqrt(np.clip(rv, 0.0, None))
    Gh = G @ h
    nu = float(1.0 + rho - h @ Gh)
    a = np.asarray(Gh, dtype=la.LD) / np.sqrt(la.LD(max(nu, 1e-300)))

    K = ak.K_ld
    A = la.inv(K)
    A_sym = _symmetrized(A)
    K_isymi = la.inv(A_sym)

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
        det_ratio_error=float(det_err),
        rho_identity_error=float(rho_identity_error),
        block_identity_error=block_err,
        rv_clipped=rv_clipped,
    )


def _pq_pot():
    return PQPotential(Pow(Affine(1.0, 3.0), 1.5), Exp(Affine(-1.0, 0.0)),
                       beta=0.5)


BASES = {
    "exp_decay": lambda: ExpDecayBase(0.7, 0.3),
    "levy": lambda: LevyBase(LevyPotential(STABLE, beta=1.0)),
    "levy_hit_zero": lambda: HitZeroLevyBase(LevyPotential(STABLE, beta=0.0)),
    "stable_hit_zero": lambda: StableHitZeroBase(0.6),
    "levy_v": lambda: VBetaBase(LevyPotential(STABLE, beta=1.0)),
    "pq": lambda: PQBase(_pq_pot()),
    "vpq": lambda: VPQBase(_pq_pot()),
    "scale": lambda: ScaleMinBase(ScalePotential(
        Prod(Exp(Affine(0.0, 0.0)), Pow(Affine(1.0, 0.0), 1.5)))),
}

UP = GridSpec(d=0.5, theta=0.4, n=12, q=0.5)
DOWN = GridSpec(d=1.0, theta=0.4, n=12, q=0.5, direction=-1)


CASES = ([(family, UP) for family in sorted(BASES)]
         + [("pq", DOWN), ("levy", DOWN), ("zero_pair", DOWN)])


def _kernel(family, spec):
    """The base with f = u(., 0.7) and g = u(., 0.3) + u(., 0.9) / 2.

    Columns of the potential are excessive for every family, and points off
    the grid keep r and v away from unit vectors.
    """
    if family == "zero_pair":
        zero = lambda x: 0.0
        return assemble_kernel(brownian_unit_base(), zero, zero, spec)
    base = BASES[family]()
    f = lambda x: base.kernel(x, 0.7)
    g = lambda x: base.kernel(x, 0.3) + 0.5 * base.kernel(x, 0.9)
    return assemble_kernel(base, f, g, spec)


@pytest.mark.parametrize("family, spec", CASES, ids=[
    f"{family}-{'up' if spec is UP else 'down'}" for family, spec in CASES])
def test_closed_form_equals_the_inversion_route(family, spec):
    ak = _kernel(family, spec)
    dec, ref = decompose(ak), _inversion_route(ak)
    for field in ("nu", "rho", "r", "v", "h", "a", "det_ratio_error",
                  "rho_identity_error", "rv_clipped"):
        assert np.array_equal(getattr(dec, field), getattr(ref, field)), field
    G = np.asarray(ak.G, dtype=la.LD)
    assert ak.cond == la.cond1(G, la.inv(G))
    assert dec.a_is_m_matrix == ref.a_is_m_matrix
    assert dec.a_sym_is_m_matrix == ref.a_sym_is_m_matrix
    direct = np.asarray(la.inv(ak.K_ld), dtype=float)
    scale = float(np.max(np.abs(direct)))
    assert float(np.max(np.abs(dec.A - direct))) <= 1e-12 * scale
    assert dec.block_identity_error <= 1e-10

    # K_isymi against the direct inverse of the A_sym that decompose builds
    # (the reference's A_sym, from la.inv(K), differs by more than 1e-12)
    g, f = (np.asarray(x, dtype=la.LD) for x in (ak.gvec, ak.fvec))
    r, v = la.lu_solve(ak.G_lu, g), la.lu_solve(ak.G_lu, f)
    h = np.sqrt(np.clip(r * v, 0.0, None))
    A_sym = _bordered(1.0 + v @ g, -h, -h, ak.G_inv)
    assert np.array_equal(np.asarray(A_sym, float), dec.A_sym)
    direct = np.asarray(la.inv(A_sym), dtype=float)
    scale = float(np.max(np.abs(direct)))
    assert float(np.max(np.abs(dec.K_isymi - direct))) <= 1e-12 * scale


def test_each_matrix_is_factored_once(monkeypatch):
    factored, inverted = [], []
    real_lu, real_inv = la.lu_factor, la.inv

    def lu_factor(a):
        factored.append(np.shape(a)[0])
        return real_lu(a)

    def inv(a, *args):
        inverted.append(np.shape(a)[0])
        return real_inv(a, *args)

    monkeypatch.setattr(la, "lu_factor", lu_factor)
    monkeypatch.setattr(la, "inv", inv)
    ak = _kernel("exp_decay", UP)
    decompose(ak)
    n = len(ak.points)
    assert factored == [n, n + 1]        # G, K
    assert inverted == [n]               # G


def test_block_identity_error_sees_a_wrong_lower_block_inverse():
    ak = _kernel("exp_decay", UP)
    assert decompose(ak).block_identity_error <= 1e-10
    wrong = replace(ak, G_inv=ak.G_inv * (1.0 + 1e-8))
    assert decompose(wrong).block_identity_error > 1e-10


# 18 points down to 2^-20 below d, cond(G) = 4.3e7.  exp_decay has a
# tridiagonal G^-1, so most entries of the computed one are rounding noise,
# and atoms on grid points make r and v nearly unit vectors
DEEP = GridSpec(d=0.6541, theta=0.5, n=20, q=0.5, direction=-1)
DEEP_ATOMS = [(2, 3, 9), (1, 16, 6)]


def _deep_kernel(atoms):
    base = ExpDecayBase(0.7765, 1.016)
    pts = DEEP.points()
    f = AtomicPotential(base, ((pts[atoms[0]], 0.66), (pts[atoms[1]], 0.26)))
    g = AtomicPotential(base, ((pts[atoms[2]], 0.83),))
    return assemble_kernel(base, f, g, DEEP)


@pytest.mark.parametrize("atoms", DEEP_ATOMS)
def test_k_isymi_matches_a_50_digit_inverse_on_a_deep_grid(atoms):
    mp = pytest.importorskip("mpmath")
    ak = _deep_kernel(atoms)
    assert ak.cond > 1e7
    dec = decompose(ak)
    with mp.workdps(50):
        G_inv = mp.inverse(mp.matrix(ak.G.tolist()))
        r = G_inv * mp.matrix(ak.gvec.tolist())
        v = G_inv * mp.matrix(ak.fvec.tolist())
        n = len(ak.points)
        A_sym = mp.matrix(n + 1, n + 1)
        A_sym[0, 0] = 1 + sum(v[i] * ak.gvec[i] for i in range(n))
        for i in range(n):
            # the same clip of r v at zero as decompose
            A_sym[0, i + 1] = A_sym[i + 1, 0] = -mp.sqrt(max(r[i] * v[i], 0))
            for j in range(n):
                A_sym[i + 1, j + 1] = G_inv[i, j]
        ref = np.array(mp.inverse(A_sym).tolist(), dtype=float)
    scale = float(np.max(np.abs(ref)))
    assert float(np.max(np.abs(dec.K_isymi - ref))) <= 1e-6 * scale


@pytest.mark.parametrize("kernel", [
    lambda: _deep_kernel(DEEP_ATOMS[0]), lambda: _deep_kernel(DEEP_ATOMS[1]),
    lambda: _kernel("pq", UP), lambda: _kernel("levy", UP)],
    ids=["deep-0", "deep-1", "pq-up", "levy-up"])
def test_rv_clipped_reports_what_h_drops(kernel):
    dec = decompose(kernel())
    rv = dec.r * dec.v
    clipped = rv < 0.0
    assert np.all(dec.h[clipped] == 0.0)
    if not clipped.any():
        assert dec.rv_clipped == 0.0
        return
    scale = max(1.0, float(np.max(np.abs(rv))))
    assert dec.rv_clipped == pytest.approx(float(-np.min(rv)) / scale, rel=1e-9)
    assert 0.0 < dec.rv_clipped < 1e-10


@pytest.mark.parametrize("atoms", DEEP_ATOMS)
def test_representation_accepts_a_deep_grid(atoms):
    dec = decompose(_deep_kernel(atoms))
    x = sample_isymi_representation(dec, 1, 1000, seed=3)
    assert x.shape == (1000, len(DEEP.points())) and np.all(x >= 0.0)
