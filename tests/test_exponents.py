import numpy as np
import pytest

from permlab import CharExponent, exponent_from_spec


def test_pure_stable_values():
    psi = CharExponent.pure_stable(1.5)
    assert psi(4.0) == pytest.approx(8.0, abs=1e-14)
    assert psi(0.0) == 0.0
    assert psi(-4.0) == psi(4.0)


def test_mixture_with_endpoint_atom_folds_into_quadratic_part():
    psi = CharExponent.stable_mixture([(1.2, 1.0), (2.0, 1.0)])
    assert psi(1.0) == pytest.approx(2.0, abs=1e-14)
    assert psi.gaussian_coeff == 1.0
    assert psi.atoms == ((1.2, 1.0),)


def test_construction_rejects_bad_atoms():
    with pytest.raises(ValueError):
        CharExponent.stable_mixture([(1.0, 1.0)])
    with pytest.raises(ValueError):
        CharExponent.stable_mixture([(2.1, 1.0)])
    with pytest.raises(ValueError):
        CharExponent.stable_mixture([(1.5, -1.0)])
    with pytest.raises(ValueError):
        CharExponent(atoms=(), gaussian_coeff=0.0)


def test_quadratic_derivatives():
    psi = CharExponent.pure_stable(2.0)
    d1, d2 = psi.derivatives(3.0)
    assert d1 == pytest.approx(6.0)
    assert d2 == pytest.approx(2.0)


def test_stable_derivatives_match_finite_differences():
    psi = CharExponent.pure_stable(1.5)
    d1, d2 = psi.derivatives(1.0)
    assert d1 == pytest.approx(1.5, abs=1e-12)
    assert d2 == pytest.approx(0.75, abs=1e-12)
    h = 1e-6
    fd1 = (psi(1.0 + h) - psi(1.0 - h)) / (2 * h)
    assert fd1 == pytest.approx(d1, rel=1e-6)
    # the second difference needs a wider step to stay above roundoff
    h = 1e-4
    fd2 = (psi(1.0 + h) - 2 * psi(1.0) + psi(1.0 - h)) / h ** 2
    assert fd2 == pytest.approx(d2, rel=1e-5)


def test_derivatives_require_positive_argument():
    psi = CharExponent.pure_stable(1.5)
    with pytest.raises(ValueError):
        psi.derivatives(0.0)
    with pytest.raises(ValueError):
        psi.derivatives(-1.0)


def test_evenness_and_monotonicity_on_log_grid():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n_atoms = rng.integers(1, 4)
        atoms = [(rng.uniform(1.05, 2.0), rng.uniform(0.1, 2.0))
                 for _ in range(n_atoms)]
        psi = CharExponent.gaussian_plus(rng.uniform(0.0, 1.0), atoms)
        lam = np.logspace(-3, 3, 61)
        assert np.allclose(psi(lam), psi(-lam), rtol=0, atol=0)
        assert np.all(np.diff(psi(lam)) > 0)


def test_mixture_derivative_bounds():
    # gamma0 psi <= lam psi' <= gamma1 psi, and the same pattern one order up
    rng = np.random.default_rng(11)
    for _ in range(10):
        atoms = [(rng.uniform(1.1, 1.95), rng.uniform(0.2, 2.0))
                 for _ in range(3)]
        psi = CharExponent.stable_mixture(atoms)
        g0, g1 = psi.support()
        lam = np.logspace(-2, 2, 41)
        d1, d2 = psi.derivatives(lam)
        vals = psi(lam)
        assert np.all(lam * d1 >= g0 * vals * (1 - 1e-12))
        assert np.all(lam * d1 <= g1 * vals * (1 + 1e-12))
        assert np.all(lam ** 2 * d2 >= g0 * (g0 - 1) * vals * (1 - 1e-12))
        assert np.all(lam ** 2 * d2 <= g1 * (g1 - 1) * vals * (1 + 1e-12))


def test_log_derivative_ratio_inside_support():
    psi = CharExponent.stable_mixture([(1.2, 0.7), (1.8, 1.3)])
    lam = 0.7
    d1, _ = psi.derivatives(lam)
    ratio = lam * d1 / psi(lam)
    assert 1.2 <= ratio <= 1.8


def test_bounds_single_atom():
    psi = CharExponent.pure_stable(1.5)
    lower, upper = psi.bounds(0.5, eps=0.1)
    assert upper == pytest.approx(0.5 ** 1.5, abs=1e-15)
    assert lower == pytest.approx(0.5 ** 1.6, abs=1e-15)
    assert lower <= psi(0.5) <= upper


def test_bounds_collapse_at_one():
    psi = CharExponent.stable_mixture([(1.3, 0.4), (1.7, 1.1)])
    lower, upper = psi.bounds(1.0)
    assert lower == pytest.approx(psi.total_mass)
    assert upper == pytest.approx(psi.total_mass)
    assert psi(1.0) == pytest.approx(psi.total_mass)


def test_bounds_sandwich_two_atoms():
    psi = CharExponent.stable_mixture([(1.2, 1.0), (1.8, 1.0)])
    for lam in (0.05, 0.4, 2.0, 35.0):
        lower, upper = psi.bounds(lam, eps=0.05)
        val = psi(lam)
        assert lower <= val * (1 + 1e-12)
        assert val <= upper * (1 + 1e-12)


def test_tail_minorant_is_valid():
    psi = CharExponent.gaussian_plus(0.3, [(1.4, 0.8)])
    c, g = psi.tail_minorant()
    lam = np.logspace(0, 6, 50)
    assert np.all(psi(lam) >= c * lam ** g * (1 - 1e-12))


def test_spec_round_trip_and_rejection():
    for spec, want in (
        ({"kind": "stable", "index": 1.5}, CharExponent.pure_stable(1.5)),
        ({"kind": "mixture", "atoms": [[1.2, 1.0], [1.8, 0.5]]},
         CharExponent.stable_mixture([(1.2, 1.0), (1.8, 0.5)])),
        ({"kind": "gaussian_plus", "C": 0.5, "atoms": [[1.5, 1.0]]},
         CharExponent.gaussian_plus(0.5, [(1.5, 1.0)])),
    ):
        assert exponent_from_spec(spec) == want
    with pytest.raises(ValueError):
        exponent_from_spec({"kind": "stable", "index": 1.5, "extra": 1})
    with pytest.raises(ValueError):
        exponent_from_spec({"kind": "nope"})
    with pytest.raises(ValueError):
        exponent_from_spec({"index": 1.5})
