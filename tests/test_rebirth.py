import json

import numpy as np
import pytest

from permlab import (FiniteChain, FullRebirthModel, PartialRebirthModel,
                     chain_from_spec, ek_identity_check, full_rebirth_potential,
                     partial_rebirth_potential, potential_from_spec, rebirth,
                     verify)
from permlab import _linalg as la
from permlab.cli import main
from permlab.kernel_algebra import (SIGN_TOL, _bordered, _refined_solve,
                                    min_kernel_inverse, offdiag_positive_excess)
from permlab.rebirth import EKReport, _potential_inverse


def two_state():
    return FiniteChain(np.array([[-1.0, 0.3], [0.3, -0.8]]),
                       np.array([1.0, 1.0]))


def three_state():
    m = np.array([1.0, 0.8, 1.2])
    rates = np.array([[0.0, 0.4, 0.2], [0.4, 0.0, 0.3], [0.2, 0.3, 0.0]])
    kill = np.array([0.5, 0.3, 0.6])
    Q = rates / m[:, None]
    Q -= np.diag(np.sum(Q, axis=1) + kill)
    return FiniteChain(Q, m)


# -- chain validation --------------------------------------------------------

def test_chain_validation():
    with pytest.raises(ValueError):
        FiniteChain(np.array([[-1.0, 0.5], [0.2, -0.7]]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        FiniteChain(np.array([[-1.0, 2.0], [2.0, -1.0]]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        FiniteChain(np.array([[-1.0, 0.3], [0.3, -0.8]]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        FiniteChain(np.array([[0.0, 0.0], [0.0, -1.0]]), np.array([1.0, 1.0]))


def test_potential_is_symmetric_inverse():
    chain = three_state()
    u = chain.potential()
    assert np.allclose(u, u.T)
    occupied = chain.occupation()
    assert np.allclose(occupied, u * chain.m[None, :])
    # occupation solves (-Q) G = I
    assert np.allclose(-chain.Q @ occupied, np.eye(3), atol=1e-12)


def _asymmetric_chain():
    """A 3-state chain that FiniteChain accepts, as its m Q is asymmetric by
    less than 1e-10 of its largest entry, but whose potential is asymmetric
    by 3.2e-8 of its largest entry: rates and kills spread over decades."""
    rng = np.random.default_rng(73)
    m = 10 ** rng.uniform(-2, 2, 3)
    rates = 10 ** rng.uniform(-3, 3, (3, 3))
    rates = np.triu(rates, 1) + np.triu(rates, 1).T
    rates += (1.0 - np.eye(3)) * rng.uniform(0.0, 5e-11, (3, 3)) * np.max(rates)
    Q = rates / m[:, None]
    Q -= np.diag(np.sum(Q, axis=1) + 10 ** rng.uniform(-4, 0, 3))
    return FiniteChain(Q, m)


def test_a_potential_asymmetric_beyond_the_bound_is_refused():
    chain = _asymmetric_chain()
    u = chain.occupation() / chain.m[None, :]
    gap = np.max(np.abs(u - u.T)) / np.max(np.abs(u))
    assert 1e-8 < gap < 1e-7
    with pytest.raises(ValueError, match="asymmetric by 3.2e-08$"):
        chain.potential()
    with pytest.raises(ValueError, match="potential matrix is asymmetric"):
        chain.potential(rate=0.5)


@pytest.mark.parametrize("command", ["sim", "check-ek"])
def test_rebirth_commands_refuse_an_asymmetric_potential(tmp_path, capsys,
                                                         command):
    chain = _asymmetric_chain()
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"states": [0, 1, 2], "m": chain.m.tolist(),
                                "generator": chain.Q.tolist(),
                                "mu": [0.2, 0.1, 0.3]}))
    with pytest.raises(SystemExit) as err:
        main(["rebirth", command, "--model", str(path), "--paths", "10",
              "--seed", "1"])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert message.startswith("error: potential matrix is asymmetric by ")


def test_conservative_chain_has_no_zero_potential():
    Q = np.array([[-0.5, 0.5], [0.5, -0.5]])
    chain = FiniteChain(Q - 1e-16 * np.eye(2), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        chain.potential()
    assert np.all(np.isfinite(chain.potential(rate=0.3)))


# -- partial rebirth -------------------------------------------------------

def test_partial_rebirth_hand_example():
    u = np.array([[2.0, 1.0], [1.0, 2.0]])
    ext = partial_rebirth_potential(u, np.array([0.5, 0.0]),
                                    np.array([1.0, 1.0]))
    assert np.allclose(ext.f, [1.0, 0.5])
    want = np.array([[3.0, 1.5, 1.0], [2.0, 2.5, 1.0], [1.0, 0.5, 1.0]])
    assert np.allclose(ext.u_ext, want)
    assert ext.inverse_m_matrix_ok
    assert np.allclose(ext.m_ext, [1.0, 1.0, 1.0])


def test_partial_rebirth_zero_measure():
    u = np.array([[2.0, 1.0], [1.0, 2.0]])
    ext = partial_rebirth_potential(u, np.zeros(2), np.ones(2))
    assert np.allclose(ext.f, 0.0)
    # the return point still carries unit mass along its column
    assert np.allclose(ext.u_ext[:2, :2], u)
    assert np.allclose(ext.u_ext[2, :2], 0.0)
    assert np.allclose(ext.u_ext[:, 2], 1.0)


def test_partial_rebirth_flag_is_computed_for_every_mass():
    # the inverse of the extension is [[u^-1, -u^-1 1], [-mu, 1 + mass]], so
    # its sign pattern is that of u^-1 and its row sums whatever the mass
    mu = np.array([0.8, 0.7])
    u = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert partial_rebirth_potential(u, mu, np.ones(2)).inverse_m_matrix_ok
    # u^-1 = [[5, -2], [-2, 1]] has a negative row sum
    u = np.array([[1.0, 2.0], [2.0, 5.0]])
    for scale in (0.0, 0.5, 1.0):
        ext = partial_rebirth_potential(u, scale * mu, np.ones(2))
        assert not ext.inverse_m_matrix_ok


def test_partial_rebirth_scale_diffusion_window_density():
    # discretized hit-zero diffusion with a continuous rebirth density
    # supported below x0: the extended potential row reproduces
    # s(v) ^ s(x0) plus the integral of s against the density
    n = 400
    x0 = 1.0
    edges = np.linspace(0.0, 2.0, n + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]
    s = centers + 0.2 * centers ** 2
    u = np.minimum.outer(s, s)
    dens = np.where(centers <= x0, 1.0 + 0.5 * centers, 0.0)
    mu = dens * width
    mu *= 0.9 / np.sum(mu)          # keep the total mass below one
    ext = partial_rebirth_potential(u, mu, np.full(n, width))
    i_x0 = np.argmin(np.abs(centers - x0))
    i_v = np.argmin(np.abs(centers - 0.4))
    want = min(s[i_v], s[i_x0]) + float(np.sum(np.minimum(s, s[i_x0]) * mu))
    got = ext.u_ext[i_v, i_x0]
    assert got == pytest.approx(want, rel=1e-12)
    integral = float(np.sum(s * mu))   # midpoint rule for int s d(mu)
    assert ext.f[i_x0] == pytest.approx(integral, rel=1e-4)


# -- the closed-form inverse of the extension --------------------------------

def _scale_diffusion(c, x0, slope, mass, n=400):
    """(u, mu, m) of the hit-zero diffusion with scale s = x + c x^2 on n
    cells of [0, 2], reborn with a density 1 + slope x below x0."""
    edges = np.linspace(0.0, 2.0, n + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]
    s = centers + c * centers ** 2
    mu = np.where(centers <= x0, 1.0 + slope * centers, 0.0) * width
    mu *= mass / np.sum(mu)
    return np.minimum.outer(s, s), mu, np.full(n, width)


# three draws of the 400-state job of the grid-algebra benchmark
SCALE_DRAWS = [(0.376, 1.041, 0.5017, 0.6788), (0.3286, 1.106, 0.7071, 0.6721),
               (0.2058, 1.094, 0.4179, 0.6154)]


def _random_model(seed, n, kind):
    """(u, mu, m): the potential of a random chain symmetric with respect to
    m, or a random positive definite matrix with positive entries, whose
    inverse is seldom an M-matrix; mu has a mass between 0 and 1.5."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.5, 2.0, n)
    if kind == "chain":
        rates = rng.uniform(0.05, 1.0, (n, n))
        rates = np.triu(rates, 1) + np.triu(rates, 1).T
        Q = rates / m[:, None]
        Q -= np.diag(np.sum(Q, axis=1) + rng.uniform(0.05, 1.0, n))
        u = FiniteChain(Q, m).potential()
    else:
        b = rng.uniform(0.1, 1.0, (n, n)) + np.eye(n)
        u = b @ b.T
    mu = rng.uniform(0.0, 1.0, n)
    return u, mu * rng.uniform(0.0, 1.5) / np.sum(mu), m


def _count_inv(monkeypatch):
    """Record the row count of every la.inv call."""
    calls, inv = [], la.inv

    def counting(a):
        calls.append(len(a))
        return inv(a)

    monkeypatch.setattr(la, "inv", counting)
    return calls


def _closed_form_and_dense(u, mu, m):
    """(extension, its closed-form inverse with the border last as in
    u_ext, the oracle: the refined dense inverse of u_ext)."""
    ext = partial_rebirth_potential(u, mu, m)
    X, r = _potential_inverse(u)
    A = _bordered(1.0 + float(np.sum(mu)), -mu, -r, X)
    last = np.r_[1:len(A), 0]
    dense = la.inv(ext.u_ext)[0]
    return ext, A[np.ix_(last, last)], dense


def _assert_matches_dense(u, mu, m):
    ext, A, dense = _closed_form_and_dense(u, mu, m)
    assert np.max(np.abs(A - dense)) <= 1e-12 * np.max(np.abs(dense))
    assert np.max(np.abs(la.residual(la.cut((ext.u_ext, None)), (A, None)))) <= 1e-12
    margin = offdiag_positive_excess(dense)
    if abs(margin - SIGN_TOL) > 1e-12:
        assert ext.inverse_m_matrix_ok == (margin <= SIGN_TOL)
    return ext, A, margin


@pytest.mark.parametrize("draw", SCALE_DRAWS)
def test_the_closed_form_matches_the_dense_oracle_on_scale_diffusions(draw):
    _assert_matches_dense(*_scale_diffusion(*draw))


@pytest.mark.parametrize("kind", ["chain", "positive"])
@pytest.mark.parametrize("n", range(2, 9))
def test_the_closed_form_matches_the_dense_oracle_on_small_models(kind, n):
    verdicts = set()
    for seed in range(5):
        ext, _, _ = _assert_matches_dense(*_random_model(100 * n + seed, n, kind))
        verdicts.add(ext.inverse_m_matrix_ok)
    # a chain's u^-1 = diag(m)(-Q) and u^-1 1 = m * kill are M-matrix signs
    if kind == "chain":
        assert verdicts == {True}


@pytest.mark.parametrize("draw", SCALE_DRAWS)
def test_a_scale_diffusion_verdict_does_not_lean_on_the_tolerance(monkeypatch, draw):
    u, mu, m = _scale_diffusion(*draw)
    calls = _count_inv(monkeypatch)
    assert partial_rebirth_potential(u, mu, m).inverse_m_matrix_ok
    assert calls == []        # the tridiagonal: no dense inverse at all
    monkeypatch.undo()
    ext, A, dense_margin = _assert_matches_dense(u, mu, m)
    # the dense route reads rounding noise of about +1e-13 off the band
    assert 0.0 < dense_margin <= SIGN_TOL
    assert offdiag_positive_excess(A) <= 1e-15


def _assert_row_sums_match_the_refined_solve(u, mu, m):
    """The dense route's r = u^-1 1, the row sums of la.inv's pair, against
    the former route's one refined solve, and the verdicts each gives."""
    X = la.inv(u)
    rows = X[0].sum(1) + X[1].sum(1)
    refined = _refined_solve(la.cut((u, None)), X, np.ones((len(u), 1)))[0][:, 0]
    # measured worst: 1.7e-16 of max|X| over the models below
    assert np.max(np.abs(rows - refined)) <= 1e-15 * np.max(np.abs(X[0]))
    verdicts = [offdiag_positive_excess(_bordered(1.0 + float(np.sum(mu)), -mu,
                                                  -r, X[0])) <= SIGN_TOL
                for r in (rows, refined)]
    assert verdicts == [partial_rebirth_potential(u, mu, m).inverse_m_matrix_ok] * 2


@pytest.mark.parametrize("draw", SCALE_DRAWS)
def test_row_sum_r_matches_the_refined_solve_on_scale_diffusions(draw):
    _assert_row_sums_match_the_refined_solve(*_scale_diffusion(*draw))


@pytest.mark.parametrize("kind", ["chain", "positive"])
@pytest.mark.parametrize("n", range(2, 9))
def test_row_sum_r_matches_the_refined_solve_on_small_models(kind, n):
    for seed in range(5):
        _assert_row_sums_match_the_refined_solve(*_random_model(100 * n + seed,
                                                                n, kind))


def test_rebirth_sim_inverts_only_the_chain(monkeypatch, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"states": [0, 1, 2], "m": [1.0, 0.8, 1.2],
                                "generator": three_state().Q.tolist(),
                                "mu": [0.2, 0.1, 0.3]}))
    calls = _count_inv(monkeypatch)
    assert main(["rebirth", "sim", "--model", str(path), "--paths", "200",
                 "--seed", "3", "--out", str(tmp_path / "lt.csv")]) == 0
    assert calls == [3]        # the chain's potential; no verdict is read


def test_criterion_11_inverts_each_chain_once(monkeypatch):
    calls = _count_inv(monkeypatch)
    assert verify.criterion_11().passed
    assert calls == [2, 3]


def test_the_verdict_is_computed_once_on_first_read(monkeypatch):
    calls, inverse = [], _potential_inverse

    def counting(u):
        calls.append(len(u))
        return inverse(u)

    monkeypatch.setattr(rebirth, "_potential_inverse", counting)
    ext = partial_rebirth_potential(three_state().potential(),
                                    np.array([0.2, 0.1, 0.3]), np.ones(3))
    assert calls == []
    assert ext.inverse_m_matrix_ok and ext.inverse_m_matrix_ok
    assert calls == [3]


def test_the_verdict_reads_the_extension_s_own_model():
    u = np.array([[2.0, 1.0], [1.0, 2.0]])
    mu = np.array([0.8, 0.7])
    ext = partial_rebirth_potential(u, mu, np.ones(2))
    # whose verdict is False (test_partial_rebirth_flag_is_computed_for_every_mass)
    u[:] = [[1.0, 2.0], [2.0, 5.0]]
    mu[:] = 0.0
    assert ext.inverse_m_matrix_ok


def test_a_permuted_min_kernel_inverts_as_the_sorted_tridiagonal(monkeypatch):
    rng = np.random.default_rng(7)
    t = np.cumsum(rng.uniform(0.1, 1.0, 9))
    perm = rng.permutation(9)
    back = np.argsort(perm)
    calls = _count_inv(monkeypatch)
    hi, r = _potential_inverse(np.minimum.outer(t[perm], t[perm]))
    assert calls == []
    assert np.array_equal(hi, min_kernel_inverse(t)[np.ix_(perm, perm)])
    # u e_k = t_0 1 at the state k of smallest t
    want = np.zeros(9)
    want[back[0]] = 1.0 / t[0]
    assert np.array_equal(r, want)


def test_a_min_kernel_off_by_one_ulp_takes_the_dense_route(monkeypatch):
    t = np.cumsum(np.random.default_rng(8).uniform(0.1, 1.0, 7))
    u = np.minimum.outer(t, t)
    u[2, 5] = u[5, 2] = np.nextafter(u[2, 5], np.inf)
    calls = _count_inv(monkeypatch)
    hi, _ = _potential_inverse(u)
    assert calls == [7]
    tri = min_kernel_inverse(t)
    assert np.max(np.abs(hi - tri)) <= 1e-12 * np.max(np.abs(tri))
    assert np.count_nonzero(hi) > np.count_nonzero(tri)


def test_a_repeated_state_is_singular():
    t = np.array([0.5, 1.0, 1.0, 2.0])
    # the extension builds; its verdict, read on demand, inverts u
    ext = partial_rebirth_potential(np.minimum.outer(t, t), np.full(4, 0.1),
                                    np.ones(4))
    with pytest.raises(np.linalg.LinAlgError):
        ext.inverse_m_matrix_ok


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_a_min_kernel_with_a_non_finite_state_is_refused(bad):
    t = np.array([0.5, 1.0, bad])
    with pytest.raises(ValueError):
        partial_rebirth_potential(np.minimum.outer(t, t), np.full(3, 0.1),
                                  np.ones(3))


# -- full rebirth -----------------------------------------------------------

def test_full_rebirth_requires_probability_measure():
    chain = two_state()
    u = chain.potential()
    with pytest.raises(ValueError):
        full_rebirth_potential(u, np.array([0.5, 0.2]), chain.m, p=0.5)


@pytest.mark.parametrize("build", [
    lambda chain, mu: full_rebirth_potential(chain.potential(rate=0.5), mu,
                                             chain.m, 0.5),
    lambda chain, mu: FullRebirthModel(chain, mu, 0.5),
    lambda chain, mu: partial_rebirth_potential(chain.potential(), mu, chain.m),
    lambda chain, mu: PartialRebirthModel(chain, mu),
], ids=["full_rebirth_potential", "FullRebirthModel",
        "partial_rebirth_potential", "PartialRebirthModel"])
def test_every_rebirth_rejects_a_signed_measure(build):
    # [1.5, -0.5] sums to 1, but no chain is reborn with negative probability
    with pytest.raises(ValueError, match="nonnegative"):
        build(two_state(), np.array([1.5, -0.5]))


def test_full_rebirth_mass_identity_and_symmetry():
    Q = np.array([[-0.5, 0.5], [0.5, -0.5]])
    m = np.ones(2)
    alpha, p = 0.6, 0.4
    base = FiniteChain(Q - alpha * np.eye(2), m)
    u_ap = base.potential(rate=p)
    w = full_rebirth_potential(u_ap, np.array([0.5, 0.5]), m, p)
    assert np.max(np.abs(p * (w @ m) - 1.0)) <= 1e-12
    # uniform rebirth on a symmetric chain gives a constant feed, so the
    # rebirthed kernel stays symmetric
    assert np.allclose(w, w.T, atol=1e-14)
    w_skew = full_rebirth_potential(u_ap, np.array([0.9, 0.1]), m, p)
    assert not np.allclose(w_skew, w_skew.T, atol=1e-10)


def test_full_rebirth_rejects_inconsistent_base():
    u = np.array([[3.0, 1.0], [1.0, 3.0]])
    with pytest.raises(ValueError):
        full_rebirth_potential(u, np.array([0.5, 0.5]), np.ones(2), p=1.0)


# -- simulation --------------------------------------------------------------

def test_single_state_absorbing():
    chain = FiniteChain(np.array([[-1.0]]), np.array([1.0]))
    model = PartialRebirthModel(chain, np.zeros(1))
    res = model.simulate(0, 50_000, seed=4)
    mean = res.local_times.mean(axis=0)
    se = res.local_times.std(axis=0, ddof=1) / np.sqrt(50_000)
    # state local time is a unit exponential; the return point holds mean one
    assert abs(mean[0] - 1.0) <= 4 * se[0]
    assert abs(mean[1] - 1.0) <= 4 * se[1]
    assert np.max(res.occupation_error) <= 1e-12


def test_two_state_means_match_extension():
    model = PartialRebirthModel(two_state(), np.array([0.5, 0.0]))
    ext = model.extension()
    res = model.simulate(0, 100_000, seed=5)
    emp = res.local_times.mean(axis=0)
    se = res.local_times.std(axis=0, ddof=1) / np.sqrt(100_000)
    assert np.all(np.abs(emp - ext.u_ext[0]) <= 4 * se)


def test_three_state_means_match_extension():
    model = PartialRebirthModel(three_state(), np.array([0.2, 0.1, 0.3]))
    ext = model.extension()
    res = model.simulate(1, 100_000, seed=6)
    emp = res.local_times.mean(axis=0)
    se = res.local_times.std(axis=0, ddof=1) / np.sqrt(100_000)
    assert np.all(np.abs(emp - ext.u_ext[1]) <= 4 * se)
    assert np.max(res.occupation_error / np.maximum(res.elapsed, 1.0)) <= 1e-12


def test_simulation_rejects_supercritical_mass():
    with pytest.raises(ValueError):
        PartialRebirthModel(two_state(), np.array([0.8, 0.7]))


# -- conditioned-chain identity ---------------------------------------------

def test_ek_one_state_closed_form():
    chain = FiniteChain(np.array([[-1.3]]), np.array([0.7]))
    c = chain.potential()[0, 0]
    s = 0.9
    rep = ek_identity_check(chain, 0, lambda X: np.exp(-s * X[:, 0]),
                            100_000, seed=7)
    closed = (1.0 + s * c) ** -1.5
    assert abs(rep.lhs - closed) <= 4 * rep.lhs_se
    assert abs(rep.rhs - closed) <= 4 * rep.rhs_se
    assert abs(rep.z) <= 4.0


def test_ek_constant_functional():
    chain = two_state()
    rep = ek_identity_check(chain, 0, lambda X: np.ones(len(X)), 50_000, seed=8)
    assert rep.lhs == 1.0
    assert abs(rep.rhs - 1.0) <= 4 * rep.rhs_se


def test_ek_three_state_exponential_functional():
    chain = three_state()
    s = np.array([0.4, 0.2, 0.3])
    rep = ek_identity_check(chain, 1, lambda X: np.exp(-X @ s), 200_000, seed=9)
    assert abs(rep.z) <= 4.0


# -- model parsing -----------------------------------------------------------

def test_chain_from_spec():
    spec = {
        "states": ["a", "b"],
        "m": [1.0, 1.0],
        "generator": [[-1.0, 0.3], [0.3, -0.8]],
        "mu": [0.5, 0.0],
        "p": 0.4,
    }
    chain, mu, extras = chain_from_spec(spec)
    assert chain.n_states == 2
    assert np.allclose(mu, [0.5, 0.0])
    assert extras == {"p": 0.4}
    with pytest.raises(ValueError):
        chain_from_spec({**spec, "bogus": 1})
    with pytest.raises(ValueError):
        chain_from_spec({"states": [], "m": [], "mu": []})


@pytest.mark.parametrize("states", [7, "ab", None, [0], [0, 1, 2]])
def test_model_states_are_one_label_per_state(states):
    spec = {"states": states, "m": [1.0, 1.0],
            "generator": [[-1.0, 0.3], [0.3, -0.8]], "mu": [0.5, 0.0]}
    with pytest.raises(ValueError, match="'states'"):
        chain_from_spec(spec)
    with pytest.raises(ValueError, match="'states'"):
        potential_from_spec(spec)
    # labels may be any JSON values
    chain, _, _ = chain_from_spec({**spec, "states": [None, {"x": [1]}]})
    assert chain.n_states == 2


def test_potential_from_spec_accepts_both_forms():
    gen_spec = {
        "states": [0, 1],
        "m": [1.0, 1.0],
        "generator": [[-1.0, 0.3], [0.3, -0.8]],
        "mu": [0.5, 0.0],
    }
    u_gen, m, mu, _ = potential_from_spec(gen_spec)
    pot_spec = {
        "states": [0, 1],
        "m": [1.0, 1.0],
        "potential": u_gen.tolist(),
        "mu": [0.5, 0.0],
    }
    u_pot, _, _, _ = potential_from_spec(pot_spec)
    assert np.allclose(u_gen, u_pot)
    with pytest.raises(ValueError, match="holding rates"):
        chain_from_spec(pot_spec)
    with pytest.raises(ValueError, match="generator"):
        potential_from_spec({"states": [0], "m": [1.0], "mu": [0.0]})


def test_full_rebirth_simulation_matches_resolvent_potential():
    Q = np.array([[-0.5, 0.5], [0.5, -0.5]])
    alpha, p = 0.7, 0.4
    base = FiniteChain(Q - alpha * np.eye(2), np.array([1.0, 1.0]))
    model = FullRebirthModel(base, np.array([0.3, 0.7]), p)
    w = model.potential()
    res = model.simulate(0, 100_000, seed=13)
    emp = res.local_times.mean(axis=0)
    se = res.local_times.std(axis=0, ddof=1) / np.sqrt(100_000)
    assert np.all(np.abs(emp - w[0]) <= 4 * se)
    assert np.max(res.occupation_error) <= 1e-12
    # the killing time at rate p is exponential
    assert np.mean(res.elapsed) == pytest.approx(1.0 / p, abs=0.05)


def random_chain(rng, n):
    m = rng.uniform(0.5, 2.0, n)
    rates = np.triu(rng.uniform(0.0, 1.0, (n, n)), 1)
    Q = (rates + rates.T) / m[:, None]
    Q -= np.diag(np.sum(Q, axis=1) + rng.uniform(0.05, 1.0, n))
    return FiniteChain(Q, m)


def test_full_rebirth_potential_is_that_of_the_killed_reborn_chain():
    # w is the p-potential of Q + kappa mu^T, the chain FullRebirthModel
    # simulates
    rng = np.random.default_rng(17)
    for _ in range(50):
        chain = random_chain(rng, int(rng.integers(1, 6)))
        n = chain.n_states
        mu = rng.dirichlet(np.ones(n))
        p = float(rng.uniform(0.1, 2.0))
        generator = chain.Q + np.outer(chain.kill_rates, mu)
        want = np.linalg.inv(p * np.eye(n) - generator) / chain.m[None, :]
        got = FullRebirthModel(chain, mu, p).potential()
        assert np.max(np.abs(got - want) / want) <= 1e-12


def test_full_rebirth_model_validation():
    chain = two_state()
    with pytest.raises(ValueError):
        FullRebirthModel(chain, np.array([0.5, 0.2]), 0.4)
    with pytest.raises(ValueError):
        FullRebirthModel(chain, np.array([0.5, 0.5]), 0.0)
    conservative = FiniteChain(
        np.array([[-0.5, 0.5], [0.5, -0.5]]) - 1e-16 * np.eye(2),
        np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        FullRebirthModel(conservative, np.array([0.5, 0.5]), 0.4)


# -- reference loops ---------------------------------------------------------
# Per-simulator table builders and loops, kept as oracles.  The engine must
# reproduce _reference_partial, _reference_killed_full and
# _reference_conditioned bit for bit, which the 4-sigma checks above cannot
# see.  _reference_full is the former full-rebirth loop, an exponential clock
# plus a rebirth draw at each death; it is a law oracle for the killed chain.

def _reference_run(table, hold_rate, m, x_start, n_paths, seed):
    """Local times, elapsed, occupation errors and rounds of the jump chain
    whose move law out of x is row x of table; its last column kills."""
    from permlab.sampling import philox
    n_states, dead = len(hold_rate), -1
    table = table / np.sum(table, axis=1, keepdims=True)
    cumtable = np.cumsum(table, axis=1)
    rng = philox(seed)
    state = np.full(n_paths, x_start, dtype=np.int64)
    L = np.zeros((n_paths, n_states))
    elapsed = np.zeros(n_paths)
    alive = state != dead
    events = 0
    while np.any(alive):
        idx = np.nonzero(alive)[0]
        s = state[idx]
        hold = rng.exponential(1.0, size=len(idx)) / hold_rate[s]
        np.add.at(L, (idx, s), hold / m[s])
        elapsed[idx] += hold
        u = rng.random(len(idx))
        nxt = (u[:, None] > cumtable[s]).sum(axis=1)
        state[idx] = np.where(nxt == table.shape[1] - 1, dead, nxt)
        alive = state != dead
        events += 1
    return L, elapsed, np.abs(L @ m - elapsed), events


def _reference_partial(chain, mu, x_start, n_paths, seed):
    n = chain.n_states
    star = n
    mass = float(np.sum(mu))
    hold_rate = np.concatenate([-np.diag(chain.Q), [1.0 + mass]])
    m_ext = np.concatenate([chain.m, [1.0]])
    table = np.zeros((n + 1, n + 2))
    for x in range(n):
        rate = hold_rate[x]
        for y in range(n):
            if y != x:
                table[x, y] = chain.Q[x, y] / rate
        table[x, star] = chain.kill_rates[x] / rate
    table[star, :n] = mu / (1.0 + mass)
    table[star, n + 1] = 1.0 / (1.0 + mass)
    return _reference_run(table, hold_rate, m_ext, x_start, n_paths, seed)


def _reference_killed_full(chain, mu, p, x_start, n_paths, seed):
    # Q + kappa mu^T killed at rate p: rebirth is a move, y = x included
    n = chain.n_states
    table = np.zeros((n, n + 1))
    for x in range(n):
        for y in range(n):
            table[x, y] = chain.kill_rates[x] * mu[y]
            if y != x:
                table[x, y] += chain.Q[x, y]
        table[x, n] = p
    hold_rate = p - np.diag(chain.Q)
    return _reference_run(table, hold_rate, chain.m, x_start, n_paths, seed)


def _reference_full(chain, mu, p, x_start, n_paths, seed):
    from permlab.sampling import philox
    n = chain.n_states
    hold_rate = -np.diag(chain.Q)
    jump = np.zeros((n, n + 1))
    for x in range(n):
        for y in range(n):
            if y != x:
                jump[x, y] = chain.Q[x, y] / hold_rate[x]
        jump[x, n] = chain.kill_rates[x] / hold_rate[x]
    jump /= np.sum(jump, axis=1, keepdims=True)
    cumjump = np.cumsum(jump, axis=1)
    rng = philox(seed)
    clock = rng.exponential(1.0 / p, size=n_paths)
    state = np.full(n_paths, x_start, dtype=np.int64)
    L = np.zeros((n_paths, n))
    elapsed = np.zeros(n_paths)
    alive = np.ones(n_paths, dtype=bool)
    events = 0
    mu_cum = np.cumsum(mu)
    while np.any(alive):
        idx = np.nonzero(alive)[0]
        s = state[idx]
        hold = rng.exponential(1.0, size=len(idx)) / hold_rate[s]
        over = elapsed[idx] + hold > clock[idx]
        hold = np.where(over, clock[idx] - elapsed[idx], hold)
        np.add.at(L, (idx, s), hold / chain.m[s])
        elapsed[idx] += hold
        alive[idx[over]] = False
        live = idx[~over]
        if len(live):
            nxt = (rng.random(len(live))[:, None]
                   > cumjump[state[live]]).sum(axis=1)
            reborn = nxt == n
            if np.any(reborn):
                draws = (rng.random(int(np.sum(reborn)))[:, None]
                         > mu_cum[None, :]).sum(axis=1)
                nxt[reborn] = draws
            state[live] = nxt
        events += 1
    return L, elapsed, np.abs(L @ chain.m - elapsed), events


def _reference_conditioned(chain, y, n_paths, seed):
    from permlab.sampling import philox
    n = chain.n_states
    h = chain.potential()[:, y]
    hold_rate = -np.diag(chain.Q)
    dead = -1
    table = np.zeros((n, n + 1))
    for x in range(n):
        for z_ in range(n):
            if z_ != x:
                table[x, z_] = chain.Q[x, z_] * h[z_] / (hold_rate[x] * h[x])
        if x == y:
            table[x, n] = 1.0 / (chain.m[y] * h[y] * hold_rate[y])
    table = np.clip(table, 0.0, None)
    table /= np.sum(table, axis=1, keepdims=True)
    cumtable = np.cumsum(table, axis=1)
    rng = philox(seed)
    state = np.full(n_paths, y, dtype=np.int64)
    L = np.zeros((n_paths, n))
    alive = state != dead
    while np.any(alive):
        idx = np.nonzero(alive)[0]
        s = state[idx]
        hold = rng.exponential(1.0, size=len(idx)) / hold_rate[s]
        np.add.at(L, (idx, s), hold / chain.m[s])
        nxt = (rng.random(len(idx))[:, None] > cumtable[s]).sum(axis=1)
        state[idx] = np.where(nxt == n, dead, nxt)
        alive = state != dead
    return L


def _assert_same_result(res, want):
    L, elapsed, occ_err, events = want
    assert np.array_equal(res.local_times, L)
    assert np.array_equal(res.elapsed, elapsed)
    assert np.array_equal(res.occupation_error, occ_err)
    assert res.events == events


def killed_pair(alpha=0.7):
    Q = np.array([[-0.5, 0.5], [0.5, -0.5]])
    return FiniteChain(Q - alpha * np.eye(2), np.array([1.0, 1.0]))


@pytest.mark.parametrize("chain, mu, start, seed", [
    (two_state(), np.array([0.5, 0.0]), 0, 5),
    (two_state(), np.array([0.5, 0.0]), 2, 11),       # the return point
    (two_state(), np.zeros(2), 1, 12),                # no rebirth mass
    (three_state(), np.array([0.2, 0.1, 0.3]), 1, 6),
    (three_state(), np.array([0.2, 0.1, 0.3]), 3, 13),
    (three_state(), np.array([0.4, 0.3, 0.3]), 0, 14),  # mass exactly 1
    (FiniteChain(np.array([[-1.0]]), np.array([1.0])), np.zeros(1), 0, 4),
])
def test_partial_simulation_equals_reference_loop(chain, mu, start, seed):
    res = PartialRebirthModel(chain, mu).simulate(start, 20_000, seed)
    _assert_same_result(res, _reference_partial(chain, mu, start, 20_000, seed))


@pytest.mark.parametrize("chain, mu, p, start, paths, seed", [
    (killed_pair(), np.array([0.3, 0.7]), 0.4, 0, 100_000, 13),
    (killed_pair(0.2), np.array([1.0, 0.0]), 0.6, 1, 20_000, 21),
    (three_state(), np.array([0.2, 0.5, 0.3]), 0.5, 2, 20_000, 22),
])
def test_full_simulation_equals_reference_loop(chain, mu, p, start, paths, seed):
    res = FullRebirthModel(chain, mu, p).simulate(start, paths, seed)
    _assert_same_result(res, _reference_killed_full(chain, mu, p, start, paths,
                                                    seed))


@pytest.mark.parametrize("chain, mu, p, start, seed", [
    (killed_pair(), np.array([0.3, 0.7]), 0.4, 0, 41),
    (three_state(), np.array([0.2, 0.5, 0.3]), 0.5, 2, 42),
])
def test_killed_chain_has_the_law_of_the_clocked_loop(chain, mu, p, start, seed):
    # the former loop watched the reborn chain up to a rate-p clock; killing
    # it at rate p must give the same mean local times and elapsed time
    paths = 100_000
    res = FullRebirthModel(chain, mu, p).simulate(start, paths, seed)
    L, elapsed, _, _ = _reference_full(chain, mu, p, start, paths, seed + 100)
    for new, old in ((res.local_times, L), (res.elapsed[:, None], elapsed[:, None])):
        se = np.hypot(new.std(axis=0, ddof=1), old.std(axis=0, ddof=1))
        z = (new.mean(axis=0) - old.mean(axis=0)) / (se / np.sqrt(paths))
        assert np.all(np.abs(z) <= 4.0), z


@pytest.mark.parametrize("chain, y, seed", [
    (FiniteChain(np.array([[-1.3]]), np.array([0.7])), 0, 7),
    (two_state(), 1, 8),
    (three_state(), 0, 9),
    (three_state(), 2, 10),
])
def test_conditioned_simulation_equals_reference_loop(chain, y, seed):
    from permlab.rebirth import _simulate_conditioned
    got = _simulate_conditioned(chain, chain.potential(), y, 20_000, seed)
    assert np.array_equal(got, _reference_conditioned(chain, y, 20_000, seed))


def test_round_cap_stops_the_engine(monkeypatch):
    from permlab import rebirth
    monkeypatch.setattr(rebirth, "_ROUND_CAP", 0)
    with pytest.raises(RuntimeError, match="rounds"):
        PartialRebirthModel(two_state(), np.array([0.5, 0.0])).simulate(0, 10, 1)


@pytest.mark.parametrize("start, paths", [(3, 10), (-1, 10), (0, 0)])
def test_engine_rejects_bad_start_and_path_count(start, paths):
    model = PartialRebirthModel(two_state(), np.array([0.5, 0.0]))
    with pytest.raises(ValueError):
        model.simulate(start, paths, 1)


@pytest.mark.parametrize("y", [2, -1])
def test_conditioned_rejects_state_outside_the_chain(y):
    from permlab.rebirth import _simulate_conditioned
    chain = two_state()
    with pytest.raises(ValueError, match="outside"):
        _simulate_conditioned(chain, chain.potential(), y, 10, 1)


@pytest.mark.parametrize("paths", [1, 0])
def test_ek_check_needs_two_paths_for_its_standard_errors(paths):
    with pytest.raises(ValueError, match="at least 2 paths"):
        ek_identity_check(two_state(), 0, lambda X: np.ones(len(X)), paths, 1)


@pytest.mark.parametrize("seed", [2 ** 64 - 2, 2 ** 64 - 1, -1])
def test_ek_check_refuses_a_seed_before_it_simulates(seed, monkeypatch):
    # the chi-square draws take seed + 1 and seed + 2
    from permlab import rebirth

    def simulate(*args):
        raise AssertionError("simulated before the seed was checked")

    monkeypatch.setattr(rebirth, "_simulate_conditioned", simulate)
    with pytest.raises(ValueError, match="seed"):
        ek_identity_check(two_state(), 0, lambda X: np.ones(len(X)), 10, seed)


def test_ek_check_accepts_the_largest_seed_it_can_key():
    rep = ek_identity_check(two_state(), 0, lambda X: np.ones(len(X)), 10,
                            2 ** 64 - 3)
    assert np.isfinite(rep.z)


# -- the former whole-array isomorphism check, kept as the oracle ------------

def _whole_ek_identity_check(chain, y, F, n_paths, seed):
    """ek_identity_check as it was before it streamed its chi-squares: F
    applied once to every path's vectors on each side."""
    from permlab import rebirth
    from permlab.sampling import sample_chi_square
    v = chain.potential()
    L = rebirth._simulate_conditioned(chain, v, y, n_paths, seed)
    x_left = sample_chi_square(v, 1, n_paths, seed + 1)
    lhs_samples = np.asarray(F(L + x_left), dtype=float)
    x_right = sample_chi_square(v, 1, n_paths, seed + 2)
    weights = 2.0 * x_right[:, y] / v[y, y]
    rhs_samples = weights * np.asarray(F(x_right), dtype=float)
    lhs, rhs = float(np.mean(lhs_samples)), float(np.mean(rhs_samples))
    lhs_se = float(np.std(lhs_samples, ddof=1) / np.sqrt(n_paths))
    rhs_se = float(np.std(rhs_samples, ddof=1) / np.sqrt(n_paths))
    denom = np.sqrt(lhs_se ** 2 + rhs_se ** 2)
    z = 0.0 if denom == 0.0 else float((lhs - rhs) / denom)
    return EKReport(lhs, rhs, z, lhs_se, rhs_se)


def _criterion_12_cases():
    """(chain, y, F) of criterion 12: the one-state chain's Laplace
    functional and the three-state chain's box indicator."""
    from permlab.verify import _three_state_chain
    one = FiniteChain(np.array([[-1.3]]), np.array([0.7]))
    three = _three_state_chain()
    box = np.diag(three.potential())

    def box_indicator(X):
        return np.all(X <= box[None, :], axis=1).astype(float)

    return [(one, 0, lambda X: np.exp(-0.9 * X[:, 0])),
            (three, 1, box_indicator)]


@pytest.mark.parametrize("case", [0, 1])
@pytest.mark.parametrize("n_paths", [2, 5000])
def test_streamed_ek_check_equals_the_whole_array_check(case, n_paths):
    chain, y, F = _criterion_12_cases()[case]
    assert (ek_identity_check(chain, y, F, n_paths, 74)
            == _whole_ek_identity_check(chain, y, F, n_paths, 74))


def test_ek_check_applies_its_functional_to_blocks_of_rows():
    from permlab.sampling import _ROWS
    chain = three_state()
    n_paths, sizes = 2 * _ROWS + 7, []

    def F(X):
        sizes.append(X.shape)
        return np.ones(len(X))

    ek_identity_check(chain, 1, F, n_paths, 5)
    rows = np.array([shape[0] for shape in sizes])
    assert all(shape[1] == 3 for shape in sizes) and np.all(rows <= _ROWS)
    # n_paths rows on each side, the left side's first
    assert n_paths in np.cumsum(rows) and np.sum(rows) == 2 * n_paths


def test_untimed_engine_gives_the_timed_local_times():
    # the conditioned chain skips the elapsed-time bookkeeping; that takes no
    # draw, so the local times and the rounds stay those of the timed route
    from permlab.rebirth import _jump_chain, _jump_rounds
    model = PartialRebirthModel(three_state(), np.array([0.2, 0.1, 0.3]))
    args = (31, 1, 20_000, *model._jump_table())
    timed = _jump_chain(*args)
    L, elapsed, rounds = _jump_rounds(*args, False)
    assert elapsed is None
    assert np.array_equal(L, timed.local_times) and rounds == timed.events


# -- the former mask-based engine, kept as the oracle of the live-path one ----

def _masked_jump_rounds(seed, start, n_paths, hold_rate, cumtable, m, timed):
    """The engine as it was before it kept only the live paths: a mask over
    all n_paths, scanned every round, and a move counted over every column
    of the table, the exit's included."""
    from permlab import rebirth
    n_states = len(hold_rate)
    exit_col = cumtable.shape[1] - 1
    rng = rebirth.philox(seed)
    state = np.full(n_paths, start, dtype=np.int64)
    L = np.zeros((n_paths, n_states))
    elapsed = np.zeros(n_paths) if timed else None
    alive = np.ones(n_paths, dtype=bool)
    rounds = 0
    while np.any(alive):
        if rounds >= rebirth._ROUND_CAP:
            raise RuntimeError(f"paths did not terminate within "
                               f"{rebirth._ROUND_CAP} rounds; "
                               f"{int(np.sum(alive))} paths alive")
        idx = np.nonzero(alive)[0]
        s = state[idx]
        hold = rng.exponential(1.0, size=len(idx)) / hold_rate[s]
        L[idx, s] += hold / m[s]
        if timed:
            elapsed[idx] += hold
        nxt = (rng.random(len(idx))[:, None] > cumtable[s]).sum(axis=1)
        alive[idx[nxt == exit_col]] = False
        state[idx] = nxt
        rounds += 1
    return L, elapsed, rounds


# -- the former whole-round engine, kept as the oracle of the chunked one ----

def _whole_round_jump_rounds(seed, start, n_paths, hold_rate, cumtable, m,
                             timed):
    """The live-path engine as it was before it ran each round in chunks of
    paths: one exponential and one uniform draw over every live path per
    round, int64 states, and the flat offsets of the live rows, their states
    and their indices compacted as separate arrays."""
    from permlab import rebirth
    n_states = len(hold_rate)
    exit_col = cumtable.shape[1] - 1
    first, *cols = cumtable[:, :exit_col].T.copy()
    rng = rebirth.philox(seed)
    L = np.zeros((n_paths, n_states))
    flat = L.reshape(-1)
    rows = np.arange(0, flat.size, n_states)
    s = np.full(n_paths, start, dtype=np.int64)
    idx = np.arange(n_paths) if timed else None
    elapsed = np.zeros(n_paths) if timed else None
    rounds = 0
    while len(rows):
        if rounds >= rebirth._ROUND_CAP:
            raise RuntimeError(f"paths did not terminate within "
                               f"{rebirth._ROUND_CAP} rounds; "
                               f"{len(rows)} paths alive")
        hold = rng.exponential(1.0, size=len(rows))
        hold /= hold_rate[s]
        flat[rows + s] += hold / m[s]
        if timed:
            elapsed[idx] += hold
        u = rng.random(len(rows))
        nxt = np.greater(u, first[s], out=np.empty(len(rows), dtype=np.int64))
        for col in cols:
            nxt += u > col[s]
        live = np.flatnonzero(nxt != exit_col)
        rows, s = rows.take(live), nxt.take(live)
        if timed:
            idx = idx.take(live)
        rounds += 1
    return L, elapsed, rounds


def _chain_of(n_states):
    if n_states == 1:
        return FiniteChain(np.array([[-1.3]]), np.array([0.7]))
    return random_chain(np.random.default_rng(n_states), n_states)


def _engine_call(monkeypatch, table, n_states):
    """(start, hold rates, cumulative table, measure, timed) that the
    simulator named by table hands the engine, on a chain of n_states."""
    from permlab import rebirth
    chain = _chain_of(n_states)
    mu = np.random.default_rng(n_states + 10).dirichlet(np.ones(n_states))
    if table == "partial":      # start at the return point
        return (n_states, *PartialRebirthModel(chain, 0.8 * mu)._jump_table(),
                True)
    if table == "full":
        return (n_states - 1, *FullRebirthModel(chain, mu, 0.5)._jump_table(),
                True)
    seen, engine = [], rebirth._jump_rounds

    def spy(*args):
        seen.append(args)
        return engine(*args)

    monkeypatch.setattr(rebirth, "_jump_rounds", spy)
    rebirth._simulate_conditioned(chain, chain.potential(), n_states // 2, 1,
                                  0)
    monkeypatch.undo()
    return (seen[0][1], *seen[0][3:])


@pytest.mark.parametrize("n_paths", [1, 10_000])
@pytest.mark.parametrize("n_states", [1, 2, 5, 7])
@pytest.mark.parametrize("table", ["partial", "full", "conditioned"])
def test_live_path_engine_equals_the_masked_engine(monkeypatch, table,
                                                   n_states, n_paths):
    from permlab.rebirth import _jump_rounds
    start, *rest = _engine_call(monkeypatch, table, n_states)
    L, elapsed, rounds = _jump_rounds(51, start, n_paths, *rest)
    want_L, want_elapsed, want_rounds = _masked_jump_rounds(51, start,
                                                            n_paths, *rest)
    assert np.array_equal(L, want_L)
    if table == "conditioned":
        assert elapsed is None and want_elapsed is None
    else:
        assert np.array_equal(elapsed, want_elapsed)
    assert rounds == want_rounds


def _assert_same_run(got, want):
    L, elapsed, rounds = got
    want_L, want_elapsed, want_rounds = want
    assert np.array_equal(L, want_L)
    if want_elapsed is None:
        assert elapsed is None
    else:
        assert np.array_equal(elapsed, want_elapsed)
    assert rounds == want_rounds


def _chunk_fates(run, n_paths):
    """Run the engine under a spy on np.flatnonzero, which it calls once per
    chunk of a round's uniform pass: (its run, whole chunks that died,
    chunks whose survivors moved into earlier chunks' slots)."""
    calls, real = [], np.flatnonzero

    def spy(a):
        keep = real(a)
        calls.append((len(a), len(keep)))
        return keep

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "flatnonzero", spy)
        got = run()
    # replay the rounds: each takes chunks until it has seen its live paths
    dead = moved = i = 0
    n_live = n_paths
    while n_live:
        seen = kept = 0
        while seen < n_live:
            size, survivors = calls[i]
            dead += survivors == 0
            moved += 0 < survivors and kept < seen
            seen, kept, i = seen + size, kept + survivors, i + 1
        n_live = kept
    assert i == len(calls)
    return got, dead, moved


@pytest.mark.parametrize("timed", [True, False])
@pytest.mark.parametrize("n_states", [1, 2, 3, 5, 6, 7])
@pytest.mark.parametrize("table", ["partial", "full", "conditioned"])
def test_chunked_engine_equals_the_whole_round_engine(monkeypatch, table,
                                                      n_states, timed):
    # every exponential of a round is drawn before every uniform, chunk by
    # chunk, so the chunks read the stream of the whole-round draws; at
    # chunks of 1 and 3 paths whole chunks die, and the survivors of later
    # chunks are compacted into their slots
    from permlab import rebirth
    start, *rest = _engine_call(monkeypatch, table, n_states)
    rest[-1] = timed
    for chunk in (1, 3, 16):
        monkeypatch.setattr(rebirth, "_CHUNK", chunk)
        dead = moved = 0
        for n_paths in sorted({1, max(1, chunk - 1), chunk, chunk + 1,
                               3 * chunk + 5, 40}):
            got, *fates = _chunk_fates(
                lambda: rebirth._jump_rounds(52, start, n_paths, *rest),
                n_paths)
            dead, moved = dead + fates[0], moved + fates[1]
            _assert_same_run(got, _whole_round_jump_rounds(52, start, n_paths,
                                                           *rest))
        if chunk < 16:
            # the one-state conditioned chain kills every path in its first
            # round, so no survivor is left to move
            one_round = table == "conditioned" and n_states == 1
            assert dead and (moved or one_round)


def test_chunked_engine_equals_the_whole_round_engine_past_two_chunks():
    from permlab import rebirth
    n_paths = 2 * rebirth._CHUNK + 1
    args = (53, 1, n_paths, *PartialRebirthModel(
        three_state(), np.array([0.2, 0.1, 0.3]))._jump_table(), True)
    _assert_same_run(rebirth._jump_rounds(*args),
                     _whole_round_jump_rounds(*args))


def test_round_cap_reports_the_live_count(monkeypatch):
    # after three rounds some of the paths have died; the error counts
    # those still alive, as the masked engine did
    from permlab import rebirth
    monkeypatch.setattr(rebirth, "_ROUND_CAP", 3)
    args = (1, 0, 1000, *PartialRebirthModel(
        two_state(), np.array([0.5, 0.0]))._jump_table(), True)
    with pytest.raises(RuntimeError) as want:
        _masked_jump_rounds(*args)
    with pytest.raises(RuntimeError) as got:
        rebirth._jump_rounds(*args)
    assert str(got.value) == str(want.value)
    alive = int(str(got.value).split("; ")[1].split()[0])
    assert 0 < alive < 1000


def test_path_indices_are_int32_only_while_every_flat_offset_fits():
    from permlab.rebirth import _index_type, _offsets
    assert _index_type(2 ** 31 - 1, 1) is np.int32
    assert _index_type(2 ** 31, 1) is np.intp
    assert _index_type((2 ** 31 - 1) // 6, 6) is np.int32
    assert _index_type((2 ** 31 - 1) // 6 + 1, 6) is np.intp
    # an int32 index times the states would wrap; the offsets are intp
    p = np.array([0, 2 ** 31 - 1], dtype=np.int32)
    off = _offsets(p, 6, np.array([5, 5], dtype=np.intp))
    assert off.dtype == np.intp
    assert off.tolist() == [5, (2 ** 31 - 1) * 6 + 5]


@pytest.mark.parametrize("table", ["partial", "full", "conditioned"])
def test_engine_runs_alike_on_intp_path_indices(monkeypatch, table):
    # the wide indices of more than 2**31 local-time entries, on a small run
    from permlab import rebirth
    start, *rest = _engine_call(monkeypatch, table, 3)
    args = (54, start, 1000, *rest)
    want = rebirth._jump_rounds(*args)
    monkeypatch.setattr(rebirth, "_CHUNK", 7)
    monkeypatch.setattr(rebirth, "_index_type", lambda *shape: np.intp)
    _assert_same_run(rebirth._jump_rounds(*args), want)


class _TopUniforms:
    """A stand-in generator: unit holding draws, and every uniform
    1 - 2^-53, the largest that Generator.random returns."""

    def exponential(self, scale, size):
        return np.full(size, scale)

    def standard_exponential(self, size):
        return np.ones(size)

    def random(self, size):
        return np.full(size, 1.0 - 2.0 ** -53)


def test_the_exit_takes_the_rounding_gap_of_a_row(monkeypatch):
    # seven equal weights sum to 1 - 2^-52 in cumulative order, so the top
    # uniform lies above every column; it must kill the path, where the
    # masked engine counted it past the exit and failed on the next round
    from permlab import rebirth
    cumtable = rebirth._cumulative(np.ones((6, 7)))
    assert np.all(cumtable[:, -1] < 1.0 - 2.0 ** -53)
    monkeypatch.setattr(rebirth, "philox", lambda seed: _TopUniforms())
    args = (1, 2, 4, np.full(6, 2.0), cumtable, np.ones(6), True)
    L, elapsed, rounds = rebirth._jump_rounds(*args)
    assert rounds == 1
    want = np.zeros((4, 6))
    want[:, 2] = 0.5
    assert np.array_equal(L, want)
    assert np.array_equal(elapsed, np.full(4, 0.5))
    with pytest.raises(IndexError):
        _masked_jump_rounds(*args)
