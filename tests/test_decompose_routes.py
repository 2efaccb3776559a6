"""The float64 closed-form decomposition against the longdouble inversion
route it replaced, and against 50-digit solves.

decompose builds A = K^-1 in closed form from the refined inverse of G that
assemble_kernel keeps, and K_isymi = A_sym^-1 in closed form from G and
G h, so that only G is inverted.  The reference below is an earlier
decompose in longdouble (longdouble_oracle): it factored G for r and v,
inverted K and A_sym outright, checked the latter against its block form
and took det K / det G from two more factorizations.  r, v and rho must
agree with it to rounding, and A and K_isymi must equal the direct
inverses of K and A_sym to rounding.  nu, h and a are ill-conditioned where
some r_j v_j is near zero, so there a 50-digit mpmath solve of the same
float64 G decides, and the float64 route must be the closer one; the same
solves pin K_isymi on a deep grid and nu and a on two benchmark grids.
Planted faults show that det_ratio_error sees each part of K and A.
"""

from dataclasses import replace

import numpy as np
import pytest

import longdouble_oracle as ld
from permlab import (Affine, AtomicPotential, CharExponent, Exp,
                     ExpDecayBase, GridSpec, HitZeroLevyBase, LevyBase,
                     LevyPotential, Pow, PQBase, PQPotential, Prod,
                     ScaleMinBase, ScalePotential, StableHitZeroBase,
                     VBetaBase, VPQBase, assemble_kernel, brownian_unit_base,
                     decompose, sample_isymi_representation)
from permlab import _linalg as la
from permlab.cli import base_from_spec
from permlab.excessive import excessive_from_spec
from permlab.kernel_algebra import (Decomposition, _closed_form_inverse,
                                    _det_ratio_error, _kernel_pair)

STABLE = CharExponent.pure_stable(1.5)


def _symmetrized(A):
    """A with each off-diagonal pair replaced by minus its geometric mean."""
    A_sym = -np.sqrt(np.clip(A * A.T, 0.0, None))
    np.fill_diagonal(A_sym, np.diag(A))
    return A_sym


def _inversion_route(ak, negativity_tol=1e-10):
    """decompose as it was before A had a closed form, in longdouble."""
    G = np.asarray(ak.G, dtype=ld.LD)
    G_lu = ld.lu_factor(G)
    r = ld.lu_solve(G_lu, np.asarray(ak.gvec, dtype=ld.LD))
    v = ld.lu_solve(G_lu, np.asarray(ak.fvec, dtype=ld.LD))
    rho = float(v @ np.asarray(ak.gvec, dtype=ld.LD))
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
    a = np.asarray(Gh, dtype=ld.LD) / np.sqrt(ld.LD(max(nu, 1e-300)))

    K = ld.kernel(ak)
    A = ld.inv(K)
    A_sym = _symmetrized(A)
    K_isymi = ld.inv(A_sym)

    G_a = np.asarray(A_sym[1:, 1:], dtype=ld.LD)
    h_a = -np.asarray(A_sym[0, 1:], dtype=ld.LD)
    rho_a = A[0, 0] - 1.0
    G_from_a = ld.inv(G_a)
    Gh_a = G_from_a @ h_a
    nu_a = ld.LD(1.0) + rho_a - h_a @ Gh_a
    block = np.empty_like(K_isymi)
    block[0, 0] = 1.0 / nu_a
    block[0, 1:] = Gh_a / nu_a
    block[1:, 0] = Gh_a / nu_a
    block[1:, 1:] = G_from_a + np.outer(Gh_a, Gh_a) / nu_a
    scale = max(1.0, float(np.max(np.abs(block))))
    block_err = float(np.max(np.abs(K_isymi - block))) / scale

    sign_k, log_k = ld.slogdet(K)
    sign_g, log_g = ld.slogdet(G)
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


def _nu_a_and_k_isymi_50_digits(ak):
    """nu, a and K_isymi of decompose, from a 50-digit solve of the float64
    G, f, g, with the same clip of r v at zero."""
    mp = pytest.importorskip("mpmath")
    n = len(ak.points)
    with mp.workdps(50):
        G = mp.matrix(ak.G.tolist())
        r = mp.lu_solve(G, mp.matrix(ak.gvec.tolist()))
        v = mp.lu_solve(G, mp.matrix(ak.fvec.tolist()))
        rho = mp.fsum(mp.mpf(ak.fvec[i]) * r[i] for i in range(n))
        h = [mp.sqrt(max(r[i] * v[i], 0)) for i in range(n)]
        Gh = [mp.fsum(G[i, j] * h[j] for j in range(n)) for i in range(n)]
        nu = 1 + rho - mp.fsum(h[i] * Gh[i] for i in range(n))
        K = [[1 / nu] + [x / nu for x in Gh]]
        K += [[Gh[i] / nu] + [G[i, j] + Gh[i] * Gh[j] / nu for j in range(n)]
              for i in range(n)]
        return (float(nu), np.array([float(x / mp.sqrt(nu)) for x in Gh]),
                np.array([[float(x) for x in row] for row in K]))


@pytest.mark.parametrize("family, spec", CASES, ids=[
    f"{family}-{'up' if spec is UP else 'down'}" for family, spec in CASES])
def test_closed_form_equals_the_inversion_route(family, spec):
    ak = _kernel(family, spec)
    dec, ref = decompose(ak), _inversion_route(ak)
    for field in ("r", "v"):
        new, old = getattr(dec, field), getattr(ref, field)
        assert np.max(np.abs(new - old)) <= 1e-13 * np.max(np.abs(old)), field
    assert dec.rho == pytest.approx(ref.rho, rel=1e-14)
    nu, a, K_isymi = _nu_a_and_k_isymi_50_digits(ak)
    assert abs(dec.nu - nu) <= max(abs(ref.nu - nu), 2.0 ** -52 * nu)
    # K_isymi is rounded once: within half an ulp of its largest entry
    assert (np.max(np.abs(dec.K_isymi - K_isymi))
            <= 0.5 * np.spacing(np.max(np.abs(K_isymi))))
    scale = max(float(np.max(np.abs(a))), 1e-300)
    assert (np.max(np.abs(dec.a - a))
            <= max(np.max(np.abs(ref.a - a)), 2.0 ** -50 * scale))
    assert dec.det_ratio_error <= 1e-15 and dec.rho_identity_error <= 1e-15
    assert dec.rv_clipped == pytest.approx(ref.rv_clipped, abs=1e-13)
    assert ak.cond == la.cond1(ak.G, la.inv(ak.G)[0])
    assert dec.a_is_m_matrix == ref.a_is_m_matrix
    assert dec.a_sym_is_m_matrix == ref.a_sym_is_m_matrix
    direct = np.asarray(ld.inv(ld.kernel(ak)), dtype=float)
    scale = float(np.max(np.abs(direct)))
    assert float(np.max(np.abs(dec.A - direct))) <= 1e-12 * scale
    assert dec.block_identity_error <= 1e-10

    # K_isymi against the direct inverse of the A_sym that decompose builds
    # (the reference's A_sym, from the inverse of K, differs by more than
    # 1e-12)
    h = (dec.h, np.zeros_like(dec.h))
    A_sym = _closed_form_inverse(ak.G_inv, (dec.rho, 0.0), h, h)
    assert np.array_equal(A_sym[0], dec.A_sym)
    direct = np.asarray(ld.inv(ld.join(A_sym)), dtype=float)
    scale = float(np.max(np.abs(direct)))
    assert float(np.max(np.abs(dec.K_isymi - direct))) <= 1e-12 * scale


def test_each_matrix_is_factored_once(monkeypatch):
    # inv and slogdet each run one LAPACK LU, inside numpy.linalg
    inverted, determined = [], []
    real_inv, real_slogdet = la.inv, la.slogdet

    def inv(a):
        inverted.append(np.shape(a)[0])
        return real_inv(a)

    def slogdet(a):
        determined.append(np.shape(a)[0])
        return real_slogdet(a)

    monkeypatch.setattr(la, "inv", inv)
    monkeypatch.setattr(la, "slogdet", slogdet)
    ak = _kernel("exp_decay", UP)
    decompose(ak)
    n = len(ak.points)
    assert inverted == [n]               # G
    assert determined == [n + 1]         # I - K A, for det(K A)


def test_g_is_cut_once_by_inv_and_once_by_decompose(monkeypatch):
    # one cut of G serves both Newton steps of la.inv, and one more serves
    # decompose's [r v] refinement and both halves of G [r h]
    cut, real = [], la._slices

    def slices(hi, lo, beta):
        cut.append(np.array(hi))
        return real(hi, lo, beta)

    monkeypatch.setattr(la, "_slices", slices)
    for family, spec in CASES:
        cut.clear()
        ak = _kernel(family, spec)
        decompose(ak)
        assert sum(np.array_equal(hi, ak.G) for hi in cut) <= 2, family


def test_block_identity_error_sees_a_wrong_lower_block_inverse():
    ak = _kernel("exp_decay", UP)
    assert decompose(ak).block_identity_error <= 1e-10
    wrong = replace(ak, G_inv=tuple(x * (1.0 + 1e-8) for x in ak.G_inv))
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


# grid-algebra seed-1 jobs 67 and 32 of perfbench: vpq bases with atoms on
# grid points, where the longdouble route's nu was off by 1.0e-9 relative
# (job 67) and its a by 7.0e-2 of max|a| (job 32), because h = sqrt(r v)
# amplified the noise of its solve in near-zero r_j and v_j
def _vpq(a, beta):
    return {"family": "vpq", "beta": beta, "interval": [-2.0, 4.0],
            "p": {"kind": "exp", "arg": {"kind": "affine", "a": a, "b": 0.0}},
            "q": {"kind": "exp", "arg": {"kind": "affine", "a": -a, "b": 0.0}}}


BENCH_JOBS = {
    "grid-algebra-1-67": (
        _vpq(1.171, 0.6856205),
        [[1.4679608013439036, 0.865789]],
        [[1.4679608013439036, 0.576144], [1.4427941537624407, 0.951041]],
        GridSpec(d=1.474, theta=0.8332, n=41, q=0.7380602758458435,
                 direction=-1)),
    "grid-algebra-1-32": (
        _vpq(1.244, 0.773768),
        [[1.5086193817564486, 0.571125], [1.5152661708660164, 0.292616]],
        [[1.5094073673612594, 0.244953]],
        GridSpec(d=1.508, theta=0.6634, n=19, q=0.6843079563879012)),
}


@pytest.mark.parametrize("job", sorted(BENCH_JOBS))
def test_nu_and_a_match_a_50_digit_solve(job):
    base_spec, f_atoms, g_atoms, spec = BENCH_JOBS[job]
    base = base_from_spec(base_spec)
    f, g = (excessive_from_spec({"kind": "atoms", "atoms": atoms}, base)
            for atoms in (f_atoms, g_atoms))
    ak = assemble_kernel(base, f, g, spec)
    dec = decompose(ak)
    nu, a, _ = _nu_a_and_k_isymi_50_digits(ak)
    assert abs(dec.nu - nu) <= 2.0 ** -52 * nu
    assert np.max(np.abs(dec.a - a)) <= 1e-9 * np.max(np.abs(a))


@pytest.mark.parametrize("fault", ["G_inv", "r", "rho", "K"])
def test_det_ratio_error_sees_a_planted_fault(fault):
    ak = _kernel("exp_decay", UP)
    dec = decompose(ak)
    K = _kernel_pair(ak.G, ak.fvec, ak.gvec)
    G_inv, rho, r = ak.G_inv, dec.rho, dec.r

    def det_error():
        pair = lambda x: (x, np.zeros_like(x))
        A = _closed_form_inverse(G_inv, pair(rho), pair(dec.v), pair(r))
        return _det_ratio_error(K, A)

    assert det_error() <= 1e-15
    off = 1.0 + 1e-8
    if fault == "G_inv":
        G_inv = (G_inv[0] * off, G_inv[1] * off)
    elif fault == "r":
        r = r * off
    elif fault == "rho":
        rho = rho * off
    else:
        # det K moves by K_0j's cofactor, -r_j det K, so take the largest
        j = 1 + int(np.argmax(ak.fvec * dec.r))
        K[0][0, j] *= off
    assert det_error() > 1e-10
