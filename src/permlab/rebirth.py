"""Finite-state symmetric chains, rebirthed potentials, local-time simulation,
and the isomorphism check tying local times to chi-square vectors.

Everything here is exact finite linear algebra plus continuous-time jump
simulation.  Local times are occupation times divided by the reference
measure, so that the expected total local time started from x equals the
potential matrix row u(x, .), and summing local time against the measure
recovers elapsed time path by path as a pure bookkeeping identity.

Each of the three simulators is a killed jump chain: the partially reborn
chain, the fully reborn chain killed at rate p, and the h-conditioned chain
of the isomorphism check.  Each builds its holding rates and a table of
cumulative move laws over (states..., exit) and hands them to one vectorized
engine, _jump_rounds.  Each round moves every live path once; a path that
takes the exit dies.  The engine holds the indices and states of the live
paths only, in path order, and drops the dead after each round, so a round
costs the paths still alive, not all of them.  It draws from one Philox
stream in a fixed order: every round, one exponential holding time per live
path, then one uniform per live path (its move).  The move is the number of
state columns of the cumulative table that the uniform exceeds, so the exit
takes all of [0, 1) above the last state column, including the rounding gap
of a row that sums to just below 1.  The two rebirth simulators go through
_jump_chain, which also keeps each path's elapsed time and occupation error;
the conditioned chain needs only its local times and skips that bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from . import _linalg as la
from . import _wire as wire
from .kernel_algebra import SIGN_TOL, offdiag_positive_excess
from .sampling import philox, sample_chi_square

__all__ = [
    "FiniteChain",
    "RebirthExtension",
    "partial_rebirth_potential",
    "full_rebirth_potential",
    "PartialRebirthModel",
    "FullRebirthModel",
    "SimulationResult",
    "EKReport",
    "RoundCapError",
    "ek_identity_check",
    "chain_from_spec",
    "potential_from_spec",
]

_ROUND_CAP = 200_000   # vectorized loop rounds per simulation


class RoundCapError(RuntimeError):
    """Raised when paths are still alive after _ROUND_CAP rounds."""


@dataclass
class FiniteChain:
    """Transient chain given by a killing generator Q and reference measure m.

    Q has nonnegative off-diagonal rates and nonpositive row sums; the row-sum
    deficit is the killing rate.  Symmetry of diag(m) @ Q is required so the
    potential matrix is symmetric.
    """

    Q: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=float)
        self.m = np.asarray(self.m, dtype=float)
        n = self.Q.shape[0]
        if self.Q.shape != (n, n) or self.m.shape != (n,):
            raise ValueError("generator and measure shapes disagree")
        if np.any(self.m <= 0.0):
            raise ValueError("reference measure must be strictly positive")
        off = self.Q - np.diag(np.diag(self.Q))
        if np.any(off < 0.0):
            raise ValueError("off-diagonal rates must be nonnegative")
        if np.any(np.diag(self.Q) >= 0.0):
            raise ValueError("every state needs a positive holding rate")
        rowsum = np.sum(self.Q, axis=1)
        if np.any(rowsum > 1e-12):
            raise ValueError("generator row sums must be nonpositive")
        weighted = self.m[:, None] * self.Q
        if np.max(np.abs(weighted - weighted.T)) > 1e-10 * np.max(np.abs(weighted)):
            raise ValueError("chain is not symmetric with respect to m")

    @property
    def n_states(self) -> int:
        return self.Q.shape[0]

    @property
    def kill_rates(self) -> np.ndarray:
        return -np.sum(self.Q, axis=1)

    def occupation(self, rate: float = 0.0) -> np.ndarray:
        """Expected discounted occupation times (rate*I - Q)^-1."""
        n = self.n_states
        mat = rate * np.eye(n) - self.Q
        return la.inv(mat)[0]

    def potential(self, rate: float = 0.0) -> np.ndarray:
        """Potential density matrix u(x, y) = occupation / m(y); symmetric."""
        if rate == 0.0 and np.all(self.kill_rates <= 1e-14):
            raise ValueError("conservative chain has no 0-potential")
        u = self.occupation(rate) / self.m[None, :]
        return 0.5 * (u + u.T)

    def killed(self, alpha: float) -> "FiniteChain":
        """The same chain killed at an extra exponential rate alpha."""
        return FiniteChain(self.Q - alpha * np.eye(self.n_states), self.m)


@dataclass
class RebirthExtension:
    """Potential of a partially reborn chain on states + return point."""

    u_ext: np.ndarray
    m_ext: np.ndarray
    f: np.ndarray
    mu: np.ndarray
    inverse_m_matrix_ok: bool


def _rebirth_measure(mu) -> tuple[np.ndarray, float]:
    """(mu, its mass) for a rebirth measure, which must be nonnegative."""
    mu = np.asarray(mu, dtype=float)
    if not np.all(mu >= 0.0):
        raise ValueError("rebirth measure must be nonnegative")
    return mu, float(np.sum(mu))


def _probability_measure(mu) -> np.ndarray:
    """The rebirth measure of full rebirth, which must have mass 1."""
    mu, mass = _rebirth_measure(mu)
    if abs(mass - 1.0) > 1e-12:
        raise ValueError("full rebirth needs a probability measure")
    return mu


def partial_rebirth_potential(u: np.ndarray, mu: np.ndarray,
                              m: np.ndarray) -> RebirthExtension:
    """Extend the potential by a return point fed by the measure mu.

    f(y) = sum_x u(x, y) mu(x); the extension has u + f(y) on the base block,
    f(y) along the return-point row, and ones in the return-point column.
    Mass above 1 is accepted for analysis, although no transient process
    realizes it and PartialRebirthModel refuses to simulate it.
    """
    u = np.asarray(u, dtype=float)
    mu, _ = _rebirth_measure(mu)
    m = np.asarray(m, dtype=float)
    n = u.shape[0]
    if np.max(np.abs(u - u.T)) > 1e-10 * np.max(np.abs(u)):
        raise ValueError("potential matrix must be symmetric")
    if np.any(u <= 0.0):
        raise ValueError("potential matrix must be strictly positive")
    f = u.T @ mu
    ext = np.empty((n + 1, n + 1))
    ext[:n, :n] = u + f[None, :]
    ext[n, :n] = f
    ext[:n, n] = 1.0
    ext[n, n] = 1.0
    m_ext = np.concatenate([m, [1.0]])
    # det ext = det u, so the inverse exists for every mass
    a = la.inv(ext)[0]
    inv_ok = offdiag_positive_excess(a) <= SIGN_TOL
    return RebirthExtension(ext, m_ext, f, mu, inv_ok)


def full_rebirth_potential(u_p: np.ndarray, mu: np.ndarray, m: np.ndarray,
                           p: float) -> np.ndarray:
    """Resolvent density of the fully reborn process.

    w(x, y) = u_p(x, y) + (1/p - sum_z u_p(x, z) m(z)) f(y) / ||f||_1 with
    f(y) = sum_x u_p(x, y) mu(x).  Requires p * row-mass < 1 everywhere, and
    the output satisfies p * sum_y w(x, y) m(y) = 1 identically.
    """
    u_p = np.asarray(u_p, dtype=float)
    m = np.asarray(m, dtype=float)
    if p <= 0.0:
        raise ValueError("resolvent rate must be positive")
    mu = _probability_measure(mu)
    row_mass = u_p @ m
    if np.any(p * row_mass >= 1.0):
        raise ValueError("p * potential mass reaches 1: inconsistent base")
    f = u_p.T @ mu
    f_norm = float(f @ m)
    w = u_p + np.outer(1.0 / p - row_mass, f / f_norm)
    return w


_MODEL = "model spec"


def _model_fields(spec: dict) -> tuple[np.ndarray, np.ndarray, dict]:
    """Check the fields of a model spec; return its (m, mu, extras)."""
    if not isinstance(spec, dict):
        raise ValueError(f"{_MODEL} must be a dict")
    required = {"states", "m", "mu"}
    wire.check_fields(spec, required | {"generator", "potential", "p", "alpha"},
                      required, _MODEL)
    if "generator" not in spec and "potential" not in spec:
        raise ValueError("model spec needs a 'generator' or a 'potential'")
    m = wire.array(spec, "m", _MODEL, 1)
    mu = wire.array(spec, "mu", _MODEL, 1)
    if mu.shape != m.shape:
        raise ValueError("model spec fields 'm' and 'mu' need one entry per state")
    extras = {k: wire.number(spec, k, _MODEL) for k in ("p", "alpha") if k in spec}
    return m, mu, extras


def chain_from_spec(spec: dict) -> tuple[FiniteChain, np.ndarray, dict]:
    """Parse the model JSON for simulation: needs a generator.

    The schema also admits a bare potential matrix (see potential_from_spec),
    but holding rates cannot be recovered from it, so simulation commands
    insist on the generator form.
    """
    m, mu, extras = _model_fields(spec)
    if "generator" not in spec:
        raise ValueError("simulation needs a 'generator'; a potential matrix "
                         "alone has no holding rates")
    chain = FiniteChain(wire.array(spec, "generator", _MODEL, 2), m)
    return chain, mu, extras


def potential_from_spec(spec: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """(u, m, mu, extras) from a model given by a generator or a potential."""
    m, mu, extras = _model_fields(spec)
    if "potential" in spec:
        u = wire.array(spec, "potential", _MODEL, 2)
        if u.shape != (len(m), len(m)):
            raise ValueError("model spec field 'potential' must be square "
                             "with one row per entry of 'm'")
        if np.max(np.abs(u - u.T)) > 1e-10 * np.max(np.abs(u)):
            raise ValueError("potential matrix must be symmetric")
        return u, m, mu, extras
    chain = FiniteChain(wire.array(spec, "generator", _MODEL, 2), m)
    return chain.potential(), m, mu, extras


@dataclass
class SimulationResult:
    local_times: np.ndarray      # (paths, states), return point last if any
    elapsed: np.ndarray          # (paths,)
    occupation_error: np.ndarray  # |sum L*m - elapsed| per path
    events: int                  # vectorized loop rounds, not jumps per path


def _cumulative(table: np.ndarray) -> np.ndarray:
    return np.cumsum(table / np.sum(table, axis=1, keepdims=True), axis=1)


def _jump_chain(seed: int, start: int, n_paths: int, hold_rate: np.ndarray,
                cumtable: np.ndarray, m: np.ndarray) -> SimulationResult:
    """Run n_paths copies of a killed jump chain from start; see the module
    docstring.

    Row x of cumtable is the cumulative law of the move out of state x over
    (states..., exit); taking the exit kills a path.
    """
    L, elapsed, rounds = _jump_rounds(seed, start, n_paths, hold_rate, cumtable,
                                      m, True)
    return SimulationResult(L, elapsed, np.abs(L @ m - elapsed), rounds)


def _jump_rounds(seed: int, start: int, n_paths: int, hold_rate: np.ndarray,
                 cumtable: np.ndarray, m: np.ndarray, timed: bool):
    """The engine of every simulator: (local times, elapsed, rounds).

    Elapsed time is kept only when timed, and is None otherwise.  It takes
    no draw, so the local times do not depend on it.
    """
    n_states = len(hold_rate)
    if not 0 <= start < n_states:
        raise ValueError(f"start state {start} is outside 0..{n_states - 1}")
    if n_paths < 1:
        raise ValueError(f"need at least one path, got {n_paths}")
    exit_col = cumtable.shape[1] - 1
    cols = cumtable[:, :exit_col].T.copy()      # the state columns
    rng = philox(seed)
    idx = np.arange(n_paths)                     # the live paths
    s = np.full(n_paths, start, dtype=np.int64)  # and their states
    L = np.zeros((n_paths, n_states))
    flat = L.reshape(-1)
    elapsed = np.zeros(n_paths) if timed else None
    rounds = 0
    while len(idx):
        if rounds >= _ROUND_CAP:
            raise RoundCapError(f"paths did not terminate within {_ROUND_CAP} "
                                f"rounds; {len(idx)} paths alive")
        hold = rng.exponential(1.0, size=len(idx)) / hold_rate[s]
        flat[idx * n_states + s] += hold / m[s]   # each live path once
        if timed:
            elapsed[idx] += hold
        u = rng.random(len(idx))
        nxt = np.zeros(len(idx), dtype=np.int64)
        for col in cols:
            nxt += u > col[s]
        live = nxt != exit_col
        idx, s = idx[live], nxt[live]
        rounds += 1
    return L, elapsed, rounds


@dataclass
class PartialRebirthModel:
    chain: FiniteChain
    mu: np.ndarray

    def __post_init__(self):
        self.mu, mass = _rebirth_measure(self.mu)
        if mass > 1.0 + 1e-12:
            raise ValueError("simulation needs rebirth mass at most 1")

    def extension(self) -> RebirthExtension:
        u = self.chain.potential()
        return partial_rebirth_potential(u, self.mu, self.chain.m)

    def _jump_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(holding rates, cumulative move table, measure) on states + the
        return point n; the table's targets are states..., return, death."""
        chain = self.chain
        n = chain.n_states
        mass = float(np.sum(self.mu))
        hold_rate = np.concatenate([-np.diag(chain.Q), [1.0 + mass]])
        off = chain.Q - np.diag(np.diag(chain.Q))
        table = np.zeros((n + 1, n + 2))
        table[:n, :n] = off / hold_rate[:n, None]
        table[:n, n] = chain.kill_rates / hold_rate[:n]
        table[n, :n] = self.mu / (1.0 + mass)
        table[n, n + 1] = 1.0 / (1.0 + mass)
        return hold_rate, _cumulative(table), np.concatenate([chain.m, [1.0]])

    def simulate(self, x_start: int, n_paths: int, seed: int) -> SimulationResult:
        """Jump-chain simulation with local-time accumulation.

        The chain runs until absorption; at each death of the base chain the
        path visits the return point n, waits an exponential time with rate
        1 + |mu|, and either re-enters with law mu or dies for good.
        x_start may be a state or the return point.
        """
        return _jump_chain(seed, x_start, n_paths, *self._jump_table())


@dataclass
class FullRebirthModel:
    """Chain reborn at law mu whenever it dies, killed at an independent
    exponential rate p.

    The reborn chain has the conservative generator Q + kappa mu^T, with
    kappa the kill rates of Q.  By memorylessness, watching it up to an
    independent rate-p clock is killing it at rate p, so the expected local
    times are the rows of its p-resolvent density, the potential w.
    """

    chain: FiniteChain
    mu: np.ndarray
    p: float

    def __post_init__(self):
        self.mu = _probability_measure(self.mu)
        if self.p <= 0.0:
            raise ValueError("killing rate must be positive")
        if np.all(self.chain.kill_rates <= 1e-14):
            raise ValueError("base chain never dies, so rebirth is vacuous")

    def potential(self) -> np.ndarray:
        """w = inv(p I - Q - kappa mu^T) / m(y), from the base p-potential."""
        u_p = self.chain.potential(rate=self.p)
        return full_rebirth_potential(u_p, self.mu, self.chain.m, self.p)

    def _jump_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(holding rates, cumulative move table, measure) of Q + kappa mu^T
        killed at rate p; the table's targets are states..., exit.

        x moves to y at rate Q(x, y) + kappa(x) mu(y), to x itself too (a
        self-move), and exits at rate p, so x is held at rate p - Q(x, x).
        """
        chain = self.chain
        Q, n = chain.Q, chain.n_states
        rates = Q - np.diag(np.diag(Q)) + np.outer(chain.kill_rates, self.mu)
        table = np.column_stack([rates, np.full(n, self.p)])
        return self.p - np.diag(Q), _cumulative(table), chain.m

    def simulate(self, x_start: int, n_paths: int, seed: int) -> SimulationResult:
        """Local times of the reborn chain up to its rate-p killing."""
        return _jump_chain(seed, x_start, n_paths, *self._jump_table())


@dataclass
class EKReport:
    lhs: float
    rhs: float
    z: float
    lhs_se: float
    rhs_se: float


def _simulate_conditioned(chain: FiniteChain, y: int, n_paths: int,
                          seed: int) -> np.ndarray:
    """Local times of the chain reweighted by its potential column at y.

    Transition probabilities are tilted by h = u(., y); the tilt removes all
    killing except an extra death channel at y itself with rate
    1/(m(y) h(y)), which is the exact finite-state form of the conditioned
    process entering the isomorphism identity.
    """
    n = chain.n_states
    if not 0 <= y < n:
        raise ValueError(f"state y={y} is outside 0..{n - 1}")
    h = chain.potential()[:, y]
    if np.any(h <= 0.0):
        raise ValueError("potential column vanishes: chain not irreducible enough")
    hold_rate = -np.diag(chain.Q)
    off = chain.Q - np.diag(np.diag(chain.Q))
    table = np.zeros((n, n + 1))             # targets: states..., death
    table[:, :n] = off * h[None, :] / (hold_rate * h)[:, None]
    table[y, n] = 1.0 / (chain.m[y] * h[y] * hold_rate[y])
    # no report: the engine keeps no elapsed time
    return _jump_rounds(seed, y, n_paths, hold_rate, _cumulative(table),
                        chain.m, False)[0]


def ek_identity_check(chain: FiniteChain, y: int, F, n_paths: int,
                      seed: int) -> EKReport:
    """Monte Carlo check of the local-time isomorphism on a finite chain.

    Left side: F applied to local times of the conditioned chain plus an
    independent chi-square vector of order 1 with the potential as kernel.
    Right side: F under the chi-square law reweighted by 2 X(y) / u(y, y).
    Both sides use independent streams; the z-score compares the two means.
    """
    if n_paths < 2:
        raise ValueError(f"need at least 2 paths for the standard errors, "
                         f"got {n_paths}")
    if not 0 <= seed <= 2 ** 64 - 3:    # the chi-squares key seed + 1, seed + 2
        raise ValueError(f"seed must lie in 0..2**64 - 3, got {seed}")
    v = chain.potential()
    L = _simulate_conditioned(chain, y, n_paths, seed)
    x_left = sample_chi_square(v, 1, n_paths, seed + 1)
    lhs_samples = np.asarray(F(L + x_left), dtype=float)
    x_right = sample_chi_square(v, 1, n_paths, seed + 2)
    weights = 2.0 * x_right[:, y] / v[y, y]
    rhs_samples = weights * np.asarray(F(x_right), dtype=float)
    lhs = float(np.mean(lhs_samples))
    rhs = float(np.mean(rhs_samples))
    lhs_se = float(np.std(lhs_samples, ddof=1) / sqrt(n_paths))
    rhs_se = float(np.std(rhs_samples, ddof=1) / sqrt(n_paths))
    denom = sqrt(lhs_se ** 2 + rhs_se ** 2)
    z = 0.0 if denom == 0.0 else (lhs - rhs) / denom
    return EKReport(lhs, rhs, z, lhs_se, rhs_se)
