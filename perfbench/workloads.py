"""Seeded job generators for the three permlab benchmark workloads.

A workload is a fixed list of jobs drawn from ``--seed``.  Every job is plain
JSON data: a ``kind`` naming how it is run (see ``jobkinds.py``) and a
``spec`` holding the wire-format documents the program receives.  The same
(workload, seed) pair always yields byte-identical JSON.

The mix of kinds and the size of every job are stratified: the seed moves
parameters (exponents, killing rates, grid geometry, chains, sampling seeds)
inside fixed ranges, while the count of each kind and the size class of
each job stay fixed.  That keeps the cost of a workload nearly the same from
seed to seed, so run-to-run spreads measure the program rather than the draw.

A few fixed jobs, the same for every seed, cover the corners of the ranges
where the program is known to fail (see ``_LEVY_EDGE_JOBS`` and
``_GRID_EDGE_JOBS``): there the failures show on every run, so they are
reported without making ``pass_ratio`` depend on the seed.  The seeded jobs
stay clear of those corners.

Inputs are valid by construction, so a rejected job is a failure and not
noise: border functions on quadrature and closed-form bases are atoms placed
on grid points (their grid coefficients are the atom weights), scale bases
get the flat concave pair at the distinguished point, grid geometry is solved
for so that the iterated-logarithm guard and the 200-point cap hold, and
chains are symmetric with positive killing.
"""

from __future__ import annotations

import copy
import json
import math
import random

WORKLOADS = ("levy-quad", "grid-algebra", "monte-carlo")

_LOGLOG_CAP = math.exp(-math.e)   # largest admissible grid offset


def _r(x: float, digits: int = 6) -> float:
    """Round to a few significant digits so specs stay short and exact."""
    return float(f"{x:.{digits}g}")


# -- grids ------------------------------------------------------------------

def geometric_grid(m: int, theta: float) -> tuple[int, float]:
    """(n, q) of a GridSpec with exactly m offsets for ratio theta.

    The largest offset theta^floor(n^q) must stay below e^-e, which fixes the
    smallest admissible k = floor(n^q); n follows from m = n + 1 - k and q is
    placed mid-way inside the interval that floors to k.
    """
    k = math.ceil(math.e / -math.log(theta))
    while theta ** k > _LOGLOG_CAP:
        k += 1
    n = m + k - 1
    q = math.log(k + 0.5) / math.log(n)
    return n, q


def theta_floor(m: int, min_offset: float) -> float:
    """Smallest ratio whose m-offset grid keeps theta^n above min_offset.

    With k = floor(n^q) ~ e / -log(theta) forced by the guard, the smallest
    offset is about exp((m - 1) log(theta) - e); deeper grids are so badly
    conditioned that rounding alone drives border coefficients negative.
    """
    return math.exp((math.log(min_offset) + math.e) / (m - 1))


def grid_points(d: float, theta: float, n: int, q: float,
                direction: int) -> list[float]:
    """The points GridSpec(d, theta, n, q, direction).points() returns,
    computed the same way, so that atoms placed on them hit them exactly."""
    import numpy as np
    m = n + 1 - math.floor(n ** q)
    j = np.arange(1, m + 1)
    pts = np.concatenate(([d], d + direction * theta ** (n + 1 - j)))
    return [float(p) for p in pts]


def _spread(lo: int, hi: int, count: int) -> list[int]:
    """count sizes spaced evenly over [lo, hi]: the same for every seed."""
    if count == 1:
        return [(lo + hi) // 2]
    return [lo + round(i * (hi - lo) / (count - 1)) for i in range(count)]


def _atoms_on(rng: random.Random, pts: list[float], count: int) -> dict:
    idx = rng.sample(range(len(pts)), count)
    return {"kind": "atoms",
            "atoms": [[pts[i], _r(rng.uniform(0.2, 1.0))] for i in sorted(idx)]}


# -- exponents --------------------------------------------------------------

def _psi(rng: random.Random, shape: str, u: float | None = None) -> dict:
    """An exponent of the given shape.  u in [0, 1) places its lowest index,
    which sets most of the quadrature cost; strata of u spread the cost of a
    class of jobs evenly over the range for every seed."""
    if u is None:
        u = rng.random()
    if shape == "stable":
        # indices up to ~1.114 fail at x ~ 1e-4; an edge job covers them
        return {"kind": "stable", "index": _r(1.12 + 0.78 * u, 4)}
    if shape == "mixture":
        return {"kind": "mixture",
                "atoms": [[_r(1.1 + 0.4 * u, 4), _r(rng.uniform(0.3, 1.5), 4)],
                          [_r(rng.uniform(1.5, 1.95), 4), _r(rng.uniform(0.3, 1.5), 4)]]}
    if shape == "gaussian_plus":
        return {"kind": "gaussian_plus", "C": _r(rng.uniform(0.2, 1.0), 4),
                "atoms": [[_r(1.1 + 0.8 * u, 4), _r(rng.uniform(0.2, 1.0), 4)]]}
    if shape == "gaussian":
        return {"kind": "gaussian_plus", "C": _r(rng.uniform(0.2, 1.0), 4),
                "atoms": []}
    raise ValueError(shape)


_PSI_SHAPES = ("stable", "mixture", "gaussian_plus")


def _xs(rng: random.Random, count: int, lo: float = 1e-4, hi: float = 10.0) -> list[float]:
    """Both ends of [lo, hi], where the quadrature is least accurate, and
    count - 2 points between them, one per equal log bin."""
    a, b = math.log10(lo), math.log10(hi)
    width = (b - a) / (count - 2)
    inner = [_r(10 ** (a + (i + rng.random()) * width)) for i in range(count - 2)]
    return [lo] + inner + [hi]


# -- levy-quad ----------------------------------------------------------------

# (offsets per grid, jobs, kernel families) per size class; the sixteen equal
# middle jobs make a plateau of like job times around the 90th percentile
_LEVY_KERNEL_CLASSES = (
    ((5, 9), 30, ("levy", "levy_hit_zero", "levy_v")),
    ((14, 14), 16, ("levy",)),
    ((36, 40), 2, ("levy", "levy_v")),
)
# smallest grid offsets: differences then stay near the 1e-4 end of the
# potential-eval range on Levy grids; closed forms go ten times deeper
_LEVY_MIN_OFFSET = 1e-3
_CLOSED_MIN_OFFSET = 1e-4
_LEVY_POT_JOBS = 66           # one third each of u, sigma2 at beta 0 and beta > 0
_LEVY_POT_POINTS = 6
_U_MAX_X = 3.0
# Fixed jobs at the corners of the ranges.  On the seed code the first and
# the third raise QuadratureError: sigma2 at beta = 0 of pure stable indices
# up to ~1.114 at x <= 2e-4, and u beyond x ~ 6 for a few percent of
# exponents (this one at x = 10); the second shows u at x = 5 and 10 passing.
_LEVY_EDGE_JOBS = (
    {"kind": "pot-sigma2-0", "spec": {
        "psi": {"kind": "stable", "index": 1.1}, "beta": 0.0, "x": [1e-4, 1e-3]}},
    {"kind": "pot-u", "spec": {
        "psi": {"kind": "mixture", "atoms": [[1.3, 0.8], [1.8, 0.6]]},
        "beta": 1.0, "x": [5.0, 10.0]}},
    {"kind": "pot-u", "spec": {
        "psi": {"kind": "gaussian_plus", "C": 0.2073, "atoms": [[1.233, 0.2374]]},
        "beta": 0.5257, "x": [5.0, 10.0]}},
)


def _levy_quad(rng: random.Random) -> list[dict]:
    jobs = []
    strata = list(range(_LEVY_POT_JOBS))
    rng.shuffle(strata)
    for i in range(_LEVY_POT_JOBS):
        kind = ("pot-u", "pot-sigma2-0", "pot-sigma2-b")[i % 3]
        # every fourth job is purely quadratic, the closed-form oracle case
        shape = "gaussian" if (i // 3) % 4 == 0 else _PSI_SHAPES[(i // 3) % 3]
        beta = 0.0 if kind == "pot-sigma2-0" else _r(rng.uniform(0.2, 2.0), 4)
        # u beyond x ~ 6 now and then overruns its absolute budget; the
        # edge jobs cover x = 5 and 10
        hi = _U_MAX_X if kind == "pot-u" else 10.0
        jobs.append({"kind": kind, "spec": {
            "psi": _psi(rng, shape, (strata[i] + rng.random()) / _LEVY_POT_JOBS),
            "beta": beta,
            "x": _xs(rng, _LEVY_POT_POINTS, hi=hi)}})
    for (m_lo, m_hi), count, families in _LEVY_KERNEL_CLASSES:
        strata = list(range(count))
        rng.shuffle(strata)
        for i, (stratum, m) in enumerate(zip(strata, _spread(m_lo, m_hi, count))):
            family = families[i % len(families)]
            shape = _PSI_SHAPES[(i // len(families)) % 3]
            base = {"family": family,
                    "psi": _psi(rng, shape, (stratum + rng.random()) / count)}
            if family != "levy_hit_zero":
                base["beta"] = _r(rng.uniform(0.2, 2.0), 4)
            jobs.append(_kernel_job(rng, base, m, _LEVY_MIN_OFFSET, i))
    return jobs + copy.deepcopy(list(_LEVY_EDGE_JOBS))


def _theta(rng: random.Random, m: int, min_offset: float) -> float:
    lo = theta_floor(m, min_offset)
    return _r(rng.uniform(lo, lo + 0.3 * (1.0 - lo)), 4)


def _kernel_job(rng: random.Random, base: dict, m: int, min_offset: float,
                slot: int, flat: bool = False) -> dict:
    """A kernel-analyze job; the slot fixes direction and atom counts."""
    theta = _theta(rng, m, min_offset)
    n, q = geometric_grid(m, theta)
    d = _r(rng.uniform(0.6, 1.6), 4)
    # scale bases live below the flat point of their concave pair
    direction = -1 if flat else (1, -1)[slot % 2]
    pts = grid_points(d, theta, n, q, direction)
    if flat:
        f = {"kind": "scale_concave", "p": 3.0, "x0": d}
        g = {"kind": "scale_concave", "p": 4.0, "x0": d}
    else:
        f = _atoms_on(rng, pts, 1 + (slot // 2) % 2)
        g = _atoms_on(rng, pts, 1 + (slot // 4) % 2)
    return {"kind": "kernel", "spec": {
        "base": base, "f": f, "g": g,
        "grid": {"d": d, "theta": theta, "n": n, "q": q, "direction": direction}}}


# -- grid-algebra -------------------------------------------------------------

_CLOSED_FAMILIES = ("scale", "stable_hit_zero", "exp_decay", "pq", "vpq")
# A fixed job on a grid whose smallest offset is 1e-8, with atoms on grid
# points.  On the seed code rounding alone drives a border coefficient below
# -1e-10 and ``kernel analyze`` rejects the input (exit 2).  Seeded grids keep
# their smallest offset near 1e-4, where no such rejection was seen.
_GRID_EDGE_JOBS = (
    {"kind": "kernel", "spec": {
        "base": {"family": "exp_decay", "beta": 0.8, "C": 0.6},
        "f": {"kind": "atoms", "atoms": [[1.449125110416521, 0.250485]]},
        "g": {"kind": "atoms", "atoms": [[1.4470000446991358, 0.596348]]},
        "grid": {"d": 1.447, "theta": 0.5988, "n": 35, "q": 0.5264750861319193,
                 "direction": 1}}},
)
_CLOSED_CLASSES = (((9, 30), 80), ((30, 60), 15), ((60, 104), 5))


def _closed_base(rng: random.Random, family: str) -> dict:
    """Closed-form bases drawn the way acceptance criterion 4 draws them."""
    if family == "exp_decay":
        return {"family": "exp_decay", "beta": _r(rng.uniform(0.3, 1.5), 4),
                "C": _r(rng.uniform(0.3, 1.5), 4)}
    if family == "stable_hit_zero":
        return {"family": "stable_hit_zero", "rho": _r(rng.uniform(0.3, 0.9), 4)}
    if family == "scale":
        a, c = _r(rng.uniform(0.5, 2.0), 4), _r(rng.uniform(0.0, 1.0), 4)
        return {"family": "scale", "s": {"kind": "sum", "terms": [
            {"kind": "affine", "a": a, "b": 0.0},
            {"kind": "prod", "factors": [
                {"kind": "const", "value": c},
                {"kind": "pow", "base": {"kind": "affine", "a": 1.0, "b": 0.0},
                 "exponent": 2.0}]}]}}
    a = _r(rng.uniform(0.7, 1.6), 4)
    return {"family": family,
            "p": {"kind": "exp", "arg": {"kind": "affine", "a": a, "b": 0.0}},
            "q": {"kind": "exp", "arg": {"kind": "affine", "a": -a, "b": 0.0}},
            "beta": _r(0.5 * a * a, 8), "interval": [-2.0, 4.0]}


def _grid_algebra(rng: random.Random) -> list[dict]:
    jobs = []
    i = 0
    for (m_lo, m_hi), count in _CLOSED_CLASSES:
        for m in _spread(m_lo, m_hi, count):
            family = _CLOSED_FAMILIES[i % len(_CLOSED_FAMILIES)]
            jobs.append(_kernel_job(rng, _closed_base(rng, family), m,
                                    _CLOSED_MIN_OFFSET, i // len(_CLOSED_FAMILIES),
                                    flat=family == "scale"))
            i += 1
    # the README cap: an explicit 200-point flat-pair grid below x0 on a
    # scale kernel, and a 400-state partially reborn scale diffusion
    s_base = _closed_base(rng, "scale")
    x0 = _r(rng.uniform(0.8, 1.4), 4)
    jobs.append({"kind": "grid-200", "spec": {
        "base": s_base,
        "f": {"kind": "scale_concave", "p": 3.0, "x0": x0},
        "g": {"kind": "scale_concave", "p": 4.0, "x0": x0},
        "x0": x0, "lo": _r(rng.uniform(1e-3, 2e-3), 4),
        "hi": _r(rng.uniform(0.3, 0.5), 4), "points": 200}})
    jobs.append({"kind": "rebirth-400", "spec": {
        "states": 400, "length": 2.0, "c": _r(rng.uniform(0.1, 0.4), 4),
        "x0": _r(rng.uniform(0.8, 1.2), 4), "slope": _r(rng.uniform(0.2, 0.8), 4),
        "mass": _r(rng.uniform(0.5, 0.95), 4)}})
    return jobs + copy.deepcopy(list(_GRID_EDGE_JOBS))


# -- monte-carlo ------------------------------------------------------------

def _chain_model(rng: random.Random, n: int, sub_stochastic_mu: bool = True) -> dict:
    """Symmetric killed generator in the README model format."""
    # narrow ranges: jumps before death, and with them the simulation cost,
    # stay about the same from seed to seed
    m = [_r(rng.uniform(0.8, 1.2), 4) for _ in range(n)]
    rates = [[0.0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            rates[a][b] = rates[b][a] = _r(rng.uniform(0.2, 0.5), 4)
    kill = [_r(rng.uniform(0.3, 0.5), 4) for _ in range(n)]
    gen = [[rates[a][b] / m[a] for b in range(n)] for a in range(n)]
    for a in range(n):
        gen[a][a] = -(sum(gen[a]) + kill[a])
    raw = [rng.uniform(0.1, 1.0) for _ in range(n)]
    total = sum(raw)
    scale = rng.uniform(0.3, 0.9) / total if sub_stochastic_mu else 1.0 / total
    mu = [x * scale for x in raw]
    return {"states": list(range(n)), "m": m, "generator": gen, "mu": mu}


def _lil_config(rng: random.Random, paths: int, m_top: int, borders: bool,
                k: int, family: str) -> dict:
    base = _closed_base(rng, family)
    theta = _theta(rng, m_top, _CLOSED_MIN_OFFSET)
    # three depths sharing theta and q: q puts the shallowest grid exactly at
    # the guard, deeper grids then clear it, and each depth is the first n
    # whose grid has at least its target number of offsets
    targets = [max(4, m_top - step * (m_top // 4)) for step in (2, 1, 0)]
    n, q = geometric_grid(targets[0], theta)
    schedule = []
    for target in targets:
        while n + 1 - math.floor(n ** q) < target:
            n += 1
        schedule.append(n)
    d = _r(rng.uniform(0.6, 1.6), 4)
    direction = -1 if family == "scale" else 1
    cfg = {"base": base, "schedule": schedule,
           "grid": {"d": d, "theta": theta, "q": q, "direction": direction},
           "k": k, "paths": paths, "seed": rng.randrange(1, 2 ** 31)}
    if borders:
        if family == "scale":
            cfg["f"] = {"kind": "scale_concave", "p": 3.0, "x0": d}
            cfg["g"] = {"kind": "scale_concave", "p": 4.0, "x0": d}
        else:   # an atom at d is on every grid of the schedule
            cfg["f"] = {"kind": "atoms", "atoms": [[d, _r(rng.uniform(0.2, 1.0))]]}
            cfg["g"] = {"kind": "atoms", "atoms": [[d, _r(rng.uniform(0.2, 1.0))]]}
    return cfg


def _laplace_spec(rng: random.Random, paths: int, slot: int) -> dict:
    dim, k = 1 + slot % 3, 1 + (slot // 3) % 3
    kind = ("ou", "min")[(slot // 9) % 2]
    pts = sorted(_r(rng.uniform(0.2, 1.5), 4) for _ in range(dim))
    while len(set(pts)) < dim:
        pts = sorted(_r(rng.uniform(0.2, 1.5), 4) for _ in range(dim))
    if kind == "ou":
        cov = [[math.exp(-abs(a - b)) for b in pts] for a in pts]
    else:
        cov = [[2.0 * min(a, b) for b in pts] for a in pts]
    return {"cov": cov, "k": k,
            "s": [_r(rng.uniform(0.1, 1.0), 4) for _ in range(dim)],
            "paths": paths, "seed": rng.randrange(1, 2 ** 31)}


def _monte_carlo(rng: random.Random) -> list[dict]:
    jobs = []
    small = zip(_spread(2000, 4000, 8), _spread(12, 30, 8))
    for i, (paths, m_top) in enumerate(small):          # small lil tables
        jobs.append({"kind": "lil", "spec": _lil_config(
            rng, paths, m_top, borders=i % 2 == 0, k=1 + (i // 2) % 2,
            family=("exp_decay", "scale")[(i // 4) % 2])})
    for i, family in enumerate(("exp_decay", "scale")):  # large lil tables
        jobs.append({"kind": "lil", "spec": _lil_config(
            rng, 100_000, 52, borders=i == 1, k=2, family=family)})
    for i in range(4):                                  # CLI means, z-tested
        jobs.append({"kind": "rebirth-sim", "spec": {
            "model": _chain_model(rng, 2 + i), "paths": 40_000,
            "seed": rng.randrange(1, 2 ** 31), "start": 0}})
    # equal path counts put job_s.p50 inside a plateau of like jobs
    for i in range(44):                                 # bookkeeping identity
        jobs.append({"kind": "partial-sim", "spec": {
            "model": _chain_model(rng, 2 + i % 4), "paths": 10_000,
            "seed": rng.randrange(1, 2 ** 31), "start": 0}})
    for i, paths in enumerate([100_000] * 2 + [10_000] * 22):
        model = _chain_model(rng, 2 + i % 4, sub_stochastic_mu=False)
        jobs.append({"kind": "full-sim", "spec": {
            "model": model, "p": _r(rng.uniform(0.5, 0.8), 4), "paths": paths,
            "z_test": i < 2, "seed": rng.randrange(1, 2 ** 31), "start": 0}})
    for i in range(2):                                  # isomorphism, 1e6 paths
        n = 1 + 2 * i
        jobs.append({"kind": "check-ek", "spec": {
            "model": _chain_model(rng, n), "y": rng.randrange(n),
            "s": _r(rng.uniform(0.3, 1.0), 4), "paths": 1_000_000,
            "seed": rng.randrange(1, 2 ** 31)}})
    # twelve equal Laplace checks of three points and order 2 make a plateau
    # of equal job times around the 90th percentile, so job_s.p90 does not
    # jump between job kinds from seed to seed
    for i in range(12):
        jobs.append({"kind": "laplace", "spec": _laplace_spec(rng, 150_000, 5 + 9 * (i % 2))})
    for i, paths in enumerate(_spread(20_000, 50_000, 4)):
        jobs.append({"kind": "laplace", "spec": _laplace_spec(rng, paths, i)})
    return jobs


_GENERATORS = {"levy-quad": _levy_quad, "grid-algebra": _grid_algebra,
               "monte-carlo": _monte_carlo}


def generate(workload: str, seed: int) -> list[dict]:
    """The job list of a workload for a seed, in the order it is run."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")
    rng = random.Random(f"permlab-bench/{workload}/{int(seed)}")
    jobs = _GENERATORS[workload](rng)
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs


def dumps(jobs: list[dict]) -> str:
    """Canonical JSON of a job list; equal seeds give equal bytes."""
    return json.dumps(jobs, sort_keys=True, separators=(",", ":"))
