"""The acceptance battery: every desk-checkable identity, bound, and trend in
one registry, runnable from the command line or the test suite.

Each criterion is a body returning (passed, details), declared with its
number, name, suite and time limit by @_criterion, which alone times it and
builds its CriterionResult; the suites are read off those declarations.
Nothing here loosens a tolerance to force green.  Monte Carlo criteria use
fixed seeds so the battery is reproducible bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import cos, exp, pi, sin, sqrt

import numpy as np

from . import _linalg as la
from .bases import (ExpDecayBase, LevyBase, ScaleMinBase, StableHitZeroBase,
                    VPQBase, brownian_min_kernel, brownian_unit_base)
from .diffusion import PQPotential, ScalePotential, riesz_reconstruct, wronskian_defect
from .excessive import (AtomicPotential, ConstantExcessive, IndicatorPotential,
                        ScaleConcaveExcessive, make_flat_pair)
from .expressions import Affine, Const, Exp, Pow, Prod, Sum
from .exponents import CharExponent
from .kernel_algebra import (GridError, GridSpec, assemble_kernel, decompose,
                             min_kernel_inverse)
from .potentials import (LevyPotential, check_sigma2_asymptotics,
                         regular_variation_constant)
from .rebirth import (FiniteChain, PartialRebirthModel, ek_identity_check,
                      full_rebirth_potential)
from .sampling import laplace_check, lil_harness, trend_is_nondecreasing

__all__ = ["CriterionResult", "CRITERIA", "run_suite", "SUITES"]


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: str
    elapsed: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.cid:2d} ({self.elapsed:6.2f}s) {self.name}: {self.details}"


CRITERIA = {}     # cid -> criterion, filled by @_criterion


def _criterion(cid: int, name: str, suite: str, limit):
    """Register a body returning (passed, details) as criterion cid, timed;
    one that runs for limit seconds or longer (None: none) is a FAIL."""
    def register(body):
        def criterion() -> CriterionResult:
            t0 = time.perf_counter()
            passed, details = body()
            elapsed = time.perf_counter() - t0
            if limit is not None and elapsed >= limit:
                passed, details = False, f"{details}; past its {limit:g}s limit"
            return CriterionResult(cid, name, bool(passed), details, elapsed)

        criterion.suite = suite
        CRITERIA[cid] = criterion
        return criterion
    return register


# -- 1: closed-form potential cross-check --------------------------------

@_criterion(1, "exponentially killed quadratic potential", "core", limit=1.0)
def criterion_1():
    pot = LevyPotential(CharExponent.gaussian(0.5), beta=0.5)
    worst = 0.0
    for x in (0.0, 0.1, 1.0, 5.0):
        want = exp(-abs(x))
        got = pot.u(x)
        worst = max(worst, abs(got - want) / want)
    return worst <= 1e-6, f"max rel err {worst:.2e}"


# -- 2: normalization constants ------------------------------------------

def _c_constant_oracle(r: float) -> float:
    """Independent quadrature oracle for (4/pi) int sin^2(s/2) s^-r ds.

    The first period uses a dyadically graded mesh because the integrand
    behaves like s^(2-r) at zero; the next 399 use plain Gauss-Legendre, and
    the tail from A = 400 periods is the analytic power part plus an
    integration-by-parts correction whose remainder is O(r * A^(-r-1)).
    """
    nodes, weights = np.polynomial.legendre.leggauss(32)

    def chunk(lo, hi):
        mid = 0.5 * (lo + hi)
        s = mid + 0.5 * (hi - lo) * nodes
        return 0.5 * (hi - lo) * float(weights @ ((1.0 - np.cos(s)) / s ** r))

    width = 2.0 * pi
    edges = width * 2.0 ** np.arange(-48.0, 1.0)
    total = sum(chunk(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]))
    total += edges[0] ** (3.0 - r) / (2.0 * (3.0 - r))   # series head below the mesh
    for k in range(1, 400):
        total += chunk(k * width, (k + 1) * width)
    a = 400 * width
    total += a ** (1.0 - r) / (r - 1.0)          # power part of the tail
    total += sin(a) * a ** (-r) - r * cos(a) * a ** (-r - 1.0)
    return (2.0 / pi) * total


@_criterion(2, "regular-variation constants", "core", limit=None)
def criterion_2():
    errs = []
    c2_err = abs(regular_variation_constant(2.0) - 1.0)
    for r in (1.2, 1.5, 1.9):
        errs.append(abs(regular_variation_constant(r) - _c_constant_oracle(r)))
    return (c2_err <= 1e-8 and max(errs) <= 1e-6,
            f"|C_2 - 1| = {c2_err:.1e}, oracle gap {max(errs):.1e}")


# -- 3: increment-variance asymptotics ------------------------------------

@_criterion(3, "stable increment-variance asymptotics", "core", limit=30.0)
def criterion_3():
    lo, hi = np.inf, -np.inf
    for r in (1.2, 1.5, 1.9):
        for beta in (0.0, 1.0):
            pot = LevyPotential(CharExponent.pure_stable(r), beta=beta)
            (_, ratio), = check_sigma2_asymptotics(pot, [1e-4])
            lo, hi = min(lo, ratio), max(hi, ratio)
    return 0.95 <= lo and hi <= 1.05, f"ratios in [{lo:.5f}, {hi:.5f}]"


# -- 4: randomized matrix identities --------------------------------------

def _random_instance(rng):
    kind = rng.choice(["expdecay", "stable0", "scale", "vpq"])
    if kind == "expdecay":
        base = ExpDecayBase(beta=rng.uniform(0.3, 1.5), C=rng.uniform(0.3, 1.5))
    elif kind == "stable0":
        base = StableHitZeroBase(rho=rng.uniform(0.3, 0.9))
    elif kind == "scale":
        a = rng.uniform(0.5, 2.0)
        c = rng.uniform(0.0, 1.0)
        s = Sum(Affine(a, 0.0), Prod(Const(c), Pow(Affine(1.0, 0.0), 2.0)))
        base = ScaleMinBase(ScalePotential(s))
    else:
        a = rng.uniform(0.7, 1.6)
        pq = PQPotential(Exp(Affine(a, 0.0)), Exp(Affine(-a, 0.0)),
                         beta=0.5 * a * a, interval=(-2.0, 4.0))
        base = VPQBase(pq)
    d = rng.uniform(0.6, 1.6)
    spec = GridSpec(d=d, theta=rng.uniform(0.5, 0.88),
                    n=int(rng.integers(10, 27)), q=rng.uniform(0.4, 0.9))

    def random_excessive():
        roll = rng.random()
        if roll < 0.4:
            locs = d + rng.uniform(-0.3, 0.5, size=2)
            locs = np.abs(locs) + 0.05
            return AtomicPotential(base, tuple((float(l), float(rng.uniform(0.2, 1.0)))
                                               for l in locs))
        if roll < 0.6:
            return ConstantExcessive(float(rng.uniform(0.2, 2.0)))
        if isinstance(base, ScaleMinBase):
            return ScaleConcaveExcessive(base, float(rng.uniform(2.5, 5.0)),
                                         float(d + rng.uniform(0.2, 1.0)))
        locs = np.abs(d + rng.uniform(-0.2, 0.6, size=1)) + 0.05
        return AtomicPotential(base, ((float(locs[0]), float(rng.uniform(0.2, 1.0))),))

    return base, random_excessive(), random_excessive(), spec


@_criterion(4, "randomized kernel decompositions", "core", limit=None)
def criterion_4():
    n_instances = 50
    rng = np.random.default_rng(20240517)
    done = 0
    attempts = 0
    worst = {"det": 0.0, "rho": 0.0, "nu": np.inf}
    failures = []
    while done < n_instances and attempts < 20 * n_instances:
        attempts += 1
        try:
            base, f, g, spec = _random_instance(rng)
            ak = assemble_kernel(base, f, g, spec)
            if ak.cond > 1e7:
                continue
            dec = decompose(ak)
        except (GridError, ValueError):
            continue
        worst["det"] = max(worst["det"], dec.det_ratio_error)
        worst["rho"] = max(worst["rho"], dec.rho_identity_error)
        worst["nu"] = min(worst["nu"], dec.nu)
        if not (dec.det_ratio_error <= 1e-10 and dec.rho_identity_error <= 1e-10
                and dec.a_is_m_matrix and dec.a_sym_is_m_matrix
                and dec.nu >= 1.0 - 1e-10):
            failures.append(attempts)
        done += 1
    return (done == n_instances and not failures,
            f"{done} instances, det err {worst['det']:.1e}, "
            f"rho err {worst['rho']:.1e}, min nu {worst['nu']:.12f}, "
            f"failures {failures}")


# -- 5: tridiagonal inverse of the min kernel ------------------------------

@_criterion(5, "min-kernel tridiagonal inverse", "core", limit=None)
def criterion_5():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 21))
        t = np.cumsum(rng.uniform(0.1, 2.0, size=m)) + rng.uniform(0.1, 2.0)
        tri, G = min_kernel_inverse(t), np.minimum.outer(t, t)
        # I - T G with exact products, so that only T's error shows
        resid = np.max(np.abs(la.residual(la.cut((tri, None)), (G, None))))
        worst = max(worst, float(resid))
    return worst <= 1e-12, f"max |T G - I| = {worst:.2e} over 20 grids"


# -- 6: determinant-ratio limits ------------------------------------------

@_criterion(6, "determinant-ratio limits", "core", limit=None)
def criterion_6():
    base = brownian_min_kernel()
    spec = GridSpec(d=1.0, theta=0.85, n=60, q=0.95)
    dec = decompose(assemble_kernel(base, lambda x: x, ConstantExcessive(1.0), spec))
    slope_gap = abs(dec.nu - 1.5)

    f, g = make_flat_pair(base, 1.0)
    nus = []
    for n in (20, 40, 60):
        spec = GridSpec(d=1.0, theta=0.85, n=n, q=0.95, direction=-1)
        nus.append(decompose(assemble_kernel(base, f, g, spec)).nu)
    flat_ok = (nus[-1] - 1.0 <= 1e-3) and nus[0] >= nus[1] >= nus[2] >= 1.0 - 1e-12
    return (slope_gap <= 0.01 and flat_ok,
            f"|nu - 1.5| = {slope_gap:.2e}; flat-pair nu-1 = "
            + ", ".join(f"{v - 1:.2e}" for v in nus))


# -- 7: Laplace-transform battery ------------------------------------------

@_criterion(7, "permanental Laplace transforms", "mc", limit=60.0)
def criterion_7():
    ou = np.exp(-np.abs(np.subtract.outer([0.0, 0.4, 1.1], [0.0, 0.4, 1.1])))
    mk = 2.0 * np.minimum.outer([0.5, 0.9, 1.4], [0.5, 0.9, 1.4])
    battery = [
        (np.array([[1.0]]), 1, [1.0]),
        (np.array([[1.0]]), 2, [0.7]),
        (np.array([[1.0, 0.5], [0.5, 1.0]]), 3, [1.0, 1.0]),
        (ou, 2, [0.3, 0.5, 0.2]),
        (mk, 1, [0.4, 0.1, 0.9]),
    ]
    zs = []
    for i, (cov, k, s) in enumerate(battery):
        _, _, z = laplace_check(cov, k, s, 1_000_000, seed=1000 + i)
        zs.append(abs(z))
    return max(zs) <= 4.0, f"|z| = {', '.join(f'{z:.2f}' for z in zs)}"


# -- 8: iterated-logarithm trend -------------------------------------------

@_criterion(8, "iterated-logarithm exceedance trend", "mc", limit=None)
def criterion_8():
    base = brownian_unit_base()
    specs = [GridSpec(d=0.0, theta=0.3, n=n, q=0.5) for n in (20, 30, 40)]
    rows = [r for r in lil_harness(base, None, None, specs, k=1, n_paths=2000,
                                   seed=99) if r.epsilon == 0.3]
    lower = [r.freq_lower for r in rows]
    upper = [r.freq_upper for r in rows]
    trend_ok = trend_is_nondecreasing(lower, 2000)
    lower_ok = lower[-1] >= 0.9
    upper_ok = upper[-1] >= 0.9
    return (trend_ok and lower_ok and upper_ok,
            f"lower {', '.join(f'{v:.3f}' for v in lower)} "
            f"(need 0.9 at n=40), upper {upper[-1]:.3f}, "
            f"trend {'ok' if trend_ok else 'broken'}")


# -- shared chains for 9-12 -------------------------------------------------

def _two_state_chain() -> FiniteChain:
    return FiniteChain(np.array([[-1.0, 0.3], [0.3, -0.8]]),
                       np.array([1.0, 1.0]))


def _three_state_chain() -> FiniteChain:
    m = np.array([1.0, 0.8, 1.2])
    rates = np.array([[0.0, 0.4, 0.2], [0.4, 0.0, 0.3], [0.2, 0.3, 0.0]])
    kill = np.array([0.5, 0.3, 0.6])
    Q = rates / m[:, None]
    Q -= np.diag(np.sum(Q, axis=1) + kill)
    return FiniteChain(Q, m)


def _rebirth_cases():
    """(chain, rebirth measure, start state) of criteria 9 and 11."""
    return [(_two_state_chain(), np.array([0.5, 0.0]), 0),
            (_three_state_chain(), np.array([0.2, 0.1, 0.3]), 1)]


@_criterion(9, "occupation-density bookkeeping", "core", limit=None)
def criterion_9():
    worst = 0.0
    for chain, mu, start in _rebirth_cases():
        res = PartialRebirthModel(chain, mu).simulate(start, 20000, seed=31)
        scale = np.maximum(1.0, res.elapsed)
        worst = max(worst, float(np.max(res.occupation_error / scale)))
    return worst <= 1e-12, f"max per-path error {worst:.2e}"


@_criterion(10, "full-rebirth resolvent identities", "core", limit=None)
def criterion_10():
    rng = np.random.default_rng(41)
    worst_mass = 0.0
    worst_decomp = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = rng.uniform(0.5, 1.5, size=n)
        rates = rng.uniform(0.1, 0.8, size=(n, n))
        rates = np.triu(rates, 1)
        rates = rates + rates.T
        alpha = float(rng.uniform(0.2, 1.0))
        p = float(rng.uniform(0.2, 1.0))
        Q = rates / m[:, None]
        Q -= np.diag(np.sum(Q, axis=1))            # conservative part
        base = FiniteChain(Q - alpha * np.eye(n), m)
        u_ap = base.potential(rate=p)              # exponential-kill resolvent
        mu = rng.uniform(0.1, 1.0, size=n)
        mu /= np.sum(mu)
        w = full_rebirth_potential(u_ap, mu, m, p)
        worst_mass = max(worst_mass, float(np.max(np.abs(p * (w @ m) - 1.0))))
        f = u_ap.T @ mu
        direct = u_ap + (alpha / p) * f[None, :]
        worst_decomp = max(worst_decomp, float(np.max(np.abs(w - direct))))
    return (worst_mass <= 1e-12 and worst_decomp <= 1e-12,
            f"mass {worst_mass:.2e}, exponential-kill split "
            f"{worst_decomp:.2e} over 20 chains")


@_criterion(11, "local-time means vs rebirthed potential", "mc", limit=120.0)
def criterion_11():
    n_paths = 100_000
    worst = 0.0
    for chain, mu, start in _rebirth_cases():
        model = PartialRebirthModel(chain, mu)
        ext = model.extension()
        res = model.simulate(start, n_paths, seed=57)
        emp = res.local_times.mean(axis=0)
        se = res.local_times.std(axis=0, ddof=1) / sqrt(n_paths)
        z = np.abs(emp - ext.u_ext[start]) / se
        worst = max(worst, float(np.max(z)))
    return worst <= 4.0, f"max |z| = {worst:.2f} at {n_paths} paths"


@_criterion(12, "local-time isomorphism identity", "mc", limit=None)
def criterion_12():
    one = FiniteChain(np.array([[-1.3]]), np.array([0.7]))
    c = one.potential()[0, 0]
    s = 0.9
    rep1 = ek_identity_check(one, 0, lambda X: np.exp(-s * X[:, 0]),
                             1_000_000, seed=73)
    closed = (1.0 + s * c) ** -1.5
    oracle_z = abs(rep1.lhs - closed) / rep1.lhs_se

    chain = _three_state_chain()
    v = chain.potential()
    box = np.diag(v)

    def box_indicator(X):
        return np.all(X <= box[None, :], axis=1).astype(float)

    rep3 = ek_identity_check(chain, 1, box_indicator, 1_000_000, seed=74)
    return (abs(rep1.z) <= 4.0 and abs(rep3.z) <= 4.0 and oracle_z <= 4.0,
            f"one-state z {rep1.z:.2f} (closed-form gap {oracle_z:.2f}), "
            f"three-state z {rep3.z:.2f}")


@_criterion(13, "generator identity for product kernels", "core", limit=None)
def criterion_13():
    pot = PQPotential(Exp(Affine(1.0, 0.0)), Exp(Affine(-1.0, 0.0)),
                      beta=0.5, interval=(-1.5, 2.5))
    b = Const(1.0)
    center, width = 0.3, 1.2

    def bump(y):
        y = np.asarray(y, dtype=float)
        inside = np.abs(y - center) < width / 2.0
        out = np.where(inside, np.cos(pi * (y - center) / width) ** 2, 0.0)
        return out if out.ndim else float(out)

    grid = np.linspace(-0.5, 1.0, 13)
    rep = wronskian_defect(pot, b, bump,
                           (center - width / 2.0, center + width / 2.0), grid)
    return (rep.sup_residual <= 1e-4 and rep.wronskian_spread <= 1e-10,
            f"sup residual {rep.sup_residual:.2e}, c = {rep.c_pq:.6f}, "
            f"wronskian spread {rep.wronskian_spread:.1e}")


@_criterion(14, "excessive-function constructions", "core", limit=None)
def criterion_14():
    details = []
    ok = True

    # window-potential derivative vanishes at the window midpoint
    for label, pot in [
        ("quadratic", LevyPotential(CharExponent.gaussian(0.5), beta=0.5)),
        ("stable-1.5", LevyPotential(CharExponent.pure_stable(1.5), beta=1.0)),
    ]:
        base = LevyBase(pot)
        f = IndicatorPotential(base, 0.0, 2.0)
        gap = abs(f.derivative(1.0))
        ok = ok and gap <= 1e-8
        details.append(f"{label} midpoint slope {gap:.1e}")

    # concave-cap reconstruction from curvature
    scale = ScalePotential(Affine(1.0, 0.0))
    resid = riesz_reconstruct(scale, 3.0, 1.0, np.linspace(0.1, 1.5, 15))
    riesz_err = float(np.max(np.abs(resid)))
    ok = ok and riesz_err <= 1e-6
    details.append(f"reconstruction residual {riesz_err:.1e}")

    # border coefficients stay nonnegative on flat pairs
    worst_neg = 0.0
    mk = brownian_min_kernel()
    f, g = make_flat_pair(mk, 1.0)
    dec = decompose(assemble_kernel(
        mk, f, g, GridSpec(1.0, 0.85, 40, 0.95, direction=-1)))
    worst_neg = min(worst_neg, float(np.min(dec.r)), float(np.min(dec.v)))
    ou = brownian_unit_base()
    f, g = make_flat_pair(ou, 1.0)
    dec = decompose(assemble_kernel(ou, f, g, GridSpec(1.0, 0.85, 40, 0.95)))
    worst_neg = min(worst_neg, float(np.min(dec.r)), float(np.min(dec.v)))
    ok = ok and worst_neg >= -1e-10
    details.append(f"border coefficient floor {worst_neg:.1e}")
    return ok, "; ".join(details)


SUITES = {suite: tuple(cid for cid in sorted(CRITERIA)
                       if CRITERIA[cid].suite == suite)
          for suite in dict.fromkeys(run.suite for run in CRITERIA.values())}
SUITES["full"] = tuple(sorted(CRITERIA))


def run_suite(suite: str) -> list[CriterionResult]:
    """Run a suite's criteria in order, printing each result line."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {sorted(SUITES)}")
    results = []
    for cid in SUITES[suite]:
        res = CRITERIA[cid]()
        results.append(res)
        print(res.line())
    return results
