"""Tests for the six shape estimators and their building blocks."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from sscm.errors import ConvergenceError, NumericError, UnsupportedConfigError
from sscm.mp_law import DiscreteMeasure, _moments_closed, _population_moments
from sscm.shape_estimation import (
    EstimatorKind,
    _gauss_rule,
    estimate_shape,
    expand_spectrum,
    moment_method_psd,
    psi_normalize,
    select_num_atoms,
    shape_to_sigma_eigs,
    sigma_to_shape_eigs,
    tyler_m_estimator,
)
from sscm.sign_geometry import sscm
from sscm.simulation import ModelSpec, generate_sample


class TestPsi:
    def test_trace_normalization(self):
        C = np.diag([1.0, 3.0])
        out = psi_normalize(C)
        assert np.trace(out) == pytest.approx(2.0)

    def test_idempotence(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((5, 5))
        C = M @ M.T
        once = psi_normalize(C)
        np.testing.assert_allclose(psi_normalize(once), once, atol=1e-14)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((4, 4))
        C = M @ M.T
        np.testing.assert_allclose(psi_normalize(C), psi_normalize(42.0 * C), atol=1e-12)


class TestTyler:
    def test_trace_and_symmetry(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((200, 8))
        M, _ = tyler_m_estimator(X)
        assert np.trace(M) == pytest.approx(8.0, abs=1e-9)
        np.testing.assert_allclose(M, M.T, atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((150, 6))
        M1, _ = tyler_m_estimator(X)
        M2, _ = tyler_m_estimator(0.003 * X)
        np.testing.assert_allclose(M1, M2, atol=1e-9)

    def test_radial_invariance(self):
        # multiplying each row by its own positive scalar leaves Tyler fixed
        rng = np.random.default_rng(4)
        X = rng.standard_normal((150, 6))
        r = rng.uniform(0.1, 10.0, size=150)
        M1, _ = tyler_m_estimator(X)
        M2, _ = tyler_m_estimator(r[:, None] * X)
        np.testing.assert_allclose(M1, M2, atol=1e-9)

    def test_gaussian_consistency(self):
        rng = np.random.default_rng(5)
        t = np.array([0.5, 0.5, 1.5, 1.5, 1.0])
        X = rng.standard_normal((4000, 5)) * np.sqrt(t)
        M, _ = tyler_m_estimator(X)
        assert np.linalg.norm(M - np.diag(t)) / np.sqrt(5) < 0.1

    def test_zero_observation_raises(self):
        X = np.random.default_rng(11).standard_normal((50, 5))
        X[7] = 0.0
        with pytest.raises(ValueError, match="nonzero"):
            tyler_m_estimator(X)


def _sample_moments(eigs, k):
    return np.array([np.mean(eigs**j) for j in range(1, k + 1)])


def multistart_objective(eigs, c, m, starts=20):
    """Least scaled moment mismatch over m-atom measures, from many random starts.

    Atom values enter through their logs and weights through softmax logits,
    as in the fit; the starts perturb the sample quantiles.
    """
    beta = _sample_moments(eigs, 2 * m)
    scale = np.maximum(np.abs(beta), 1e-3)

    def resid(theta):
        vals = np.exp(np.minimum(theta[:m], 40.0))
        logits = np.concatenate([theta[m:], [0.0]])
        w = np.exp(logits - logits.max())
        return (np.array(_moments_closed(c, vals, w / w.sum())[: 2 * m]) - beta) / scale

    rng = np.random.default_rng(0)
    log_qs = np.log(np.quantile(eigs, (np.arange(m) + 0.5) / m))
    best = np.inf
    for _ in range(starts):
        x0 = np.concatenate([log_qs + rng.normal(0, 0.7, m), rng.normal(0, 1.0, m - 1)])
        sol = least_squares(resid, x0, method="lm", xtol=1e-14, ftol=1e-14, gtol=1e-14)
        best = min(best, 2.0 * sol.cost)
    return best


@pytest.fixture(scope="module")
def m4_spectra():
    """Trace-normalized SCM, SSCM and Tyler spectra of one contaminated M4 sample.

    The SCM and SSCM spectra have alpha_1 = 1 + 2e-16, so that a single-atom
    start at log(alpha_1) would sit near 0 but not at 0, where MINPACK sets
    the first trust radius differently.
    """
    X = generate_sample(ModelSpec("M4", p=80, n=100, epsilon=0.01, seed=12)).data
    n, p = X.shape
    spectra = {
        "SCM": np.linalg.eigvalsh(psi_normalize(X.T @ X / n)),
        "SSCM": np.linalg.eigvalsh(psi_normalize(sscm(X, center=np.zeros(p)).matrix)),
        "Tyler": np.linalg.eigvalsh(psi_normalize(tyler_m_estimator(X)[0])),
    }
    return spectra, p / n


@st.composite
def atomic_measures(draw):
    """1-3 atoms in [0.1, 32], at least a factor 1.5 apart, weights >= 0.1 before normalizing."""
    m = draw(st.integers(1, 3))
    ratios = draw(st.lists(st.floats(1.5, 4.0), min_size=m - 1, max_size=m - 1))
    values = draw(st.floats(0.1, 2.0)) * np.cumprod([1.0] + ratios)
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=m, max_size=m)))
    return values, weights / weights.sum()


class TestMomentMethod:
    # beta_k carries c^(k-1) alpha_1^k, which the forward substitution cancels,
    # so the rounding error grows with c: over this range it stays below 2e-10
    @settings(max_examples=200, deadline=None)
    @given(atomic_measures(), st.floats(0.01, 2.0))
    def test_exact_inversion_recovers_measure(self, measure, c):
        values, weights = measure
        m = values.size
        beta = _moments_closed(c, values, weights)[: 2 * m - 1]
        start = _gauss_rule(_population_moments(c, beta), m)
        assert start is not None
        np.testing.assert_allclose(start[0], values, rtol=1e-9)
        np.testing.assert_allclose(start[1], weights, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("spectrum", ["SCM", "SSCM", "Tyler"])
    def test_objective_matches_multistart(self, m4_spectra, spectrum, m):
        spectra, c = m4_spectra
        eigs = spectra[spectrum]
        _, objective = moment_method_psd(eigs, c, m, return_objective=True)
        assert objective <= multistart_objective(eigs, c, m) + 1e-8

    def test_no_start_from_a_negative_atom(self):
        # the moments of 0.5 delta_{-0.5} + 0.5 delta_{1.5} have a Gauss rule, with an atom < 0
        alphas = [0.5 * (-0.5) ** k + 0.5 * 1.5**k for k in (1, 2, 3)]
        assert _gauss_rule(alphas, 2) is None

    def test_fallback_when_hankel_is_not_positive_definite(self):
        # three atoms for a two-level spectrum: the 3 x 3 Hankel matrix is singular up to O(c)
        eigs = np.repeat([0.5, 1.5], 50)
        c = 1e-9
        assert _gauss_rule(_population_moments(c, _sample_moments(eigs, 5)), 3) is None
        H, objective = moment_method_psd(eigs, c, 3, return_objective=True)
        np.testing.assert_allclose(H.values, [0.5, 1.5], atol=1e-6)
        np.testing.assert_allclose(H.weights, [0.5, 0.5], atol=1e-6)
        assert objective < 1e-12

    def test_single_atom_mp_recovery(self):
        rng = np.random.default_rng(6)
        n, p = 800, 400
        Z = rng.standard_normal((n, p))
        eigs = np.linalg.eigvalsh(Z.T @ Z / n)
        H = moment_method_psd(eigs, 0.5, 1)
        assert abs(H.values[0] - 1.0) < 0.05
        assert H.weights[0] == pytest.approx(1.0)

    def test_two_atom_recovery_small_c(self):
        eigs = np.repeat([0.5, 1.5], 50)
        H = moment_method_psd(eigs, 1e-9, 2)
        np.testing.assert_allclose(H.values, [0.5, 1.5], atol=1e-6)
        np.testing.assert_allclose(H.weights, [0.5, 0.5], atol=1e-6)

    def test_two_atom_recovery_sscm(self):
        # averaged over seeds: SSCM spectrum of the two-level shape
        from sscm.sign_geometry import sscm
        from sscm.simulation import ModelSpec, generate_sample

        p = n = 400
        vals, wts = [], []
        for seed in range(3):
            X = generate_sample(ModelSpec("M3", p=p, n=n, seed=seed)).data
            eigs = np.linalg.eigvalsh(sscm(X, center=np.zeros(p)).matrix)
            H = moment_method_psd(eigs, 1.0, 2)
            vals.append(H.values)
            wts.append(H.weights)
        np.testing.assert_allclose(np.mean(vals, axis=0), [0.5, 1.5], atol=0.1)
        np.testing.assert_allclose(np.mean(wts, axis=0), [0.5, 0.5], atol=0.1)

    def test_atom_count_validation(self):
        with pytest.raises(ValueError):
            moment_method_psd(np.ones(10), 0.5, 4)

    def test_model_selection_finds_two(self):
        rng = np.random.default_rng(7)
        n, p = 200, 80
        t = np.concatenate([np.full(40, 0.5), np.full(40, 1.5)])
        X = rng.standard_normal((n, p)) * np.sqrt(t)
        eigs = np.linalg.eigvalsh(psi_normalize(X.T @ X / n))
        H = select_num_atoms(eigs, p / n)
        assert len(H.atoms) >= 2


class TestSpectrumPlumbing:
    def test_expand_counts(self):
        H = DiscreteMeasure(((0.5, 0.5), (1.5, 0.5)))
        lam = expand_spectrum(H, 7)
        assert lam.size == 7
        assert np.sum(lam == 0.5) in (3, 4)

    def test_round_trip(self):
        t = np.concatenate([np.full(200, 0.5), np.full(200, 1.5)])
        sig = shape_to_sigma_eigs(t, 4.2)
        back = sigma_to_shape_eigs(sig, 4.2)
        np.testing.assert_allclose(np.sort(back), np.sort(t), atol=1e-12)

    def test_round_trip_generic(self):
        rng = np.random.default_rng(8)
        t = rng.uniform(0.3, 2.0, size=400)
        t *= 400 / t.sum()
        sig = shape_to_sigma_eigs(t, 5.0)
        back = sigma_to_shape_eigs(sig, 5.0)
        np.testing.assert_allclose(np.sort(back), np.sort(t), atol=1e-12)

    @pytest.mark.parametrize("top", [8.2, 8.5])
    def test_no_preimage_raises(self, top):
        # every alpha2 that keeps the roots real gives mean(t^2) < alpha2; at
        # top = 8.5 the largest discriminant rounds below 0 at the lowest alpha2
        sig = np.full(10, 0.2)
        sig[0] = top
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="no shape preimage"):
                sigma_to_shape_eigs(sig, 9.0)


@pytest.fixture(scope="module")
def gaussian_sample():
    rng = np.random.default_rng(9)
    p, n = 40, 100
    t = np.concatenate([np.full(20, 0.5), np.full(20, 1.5)])
    return rng.standard_normal((n, p)) * np.sqrt(t), np.diag(t)


class TestEstimateShape:

    def test_all_six_run_and_normalize(self, gaussian_sample):
        X, T = gaussian_sample
        for kind in range(1, 7):
            rep = estimate_shape(X, kind, reference=T)
            assert np.trace(rep.T_hat) == pytest.approx(40.0, abs=1e-8)
            assert np.min(rep.spectrum) > -1e-10

    def test_corrected_beats_uncorrected(self):
        p, n = 40, 100
        t = np.concatenate([np.full(20, 0.5), np.full(20, 1.5)])
        T = np.diag(t)
        pairs = {1: 2, 3: 4, 5: 6}
        sums = {k: 0.0 for k in range(1, 7)}
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            X = rng.standard_normal((n, p)) * np.sqrt(t)
            for k in range(1, 7):
                sums[k] += estimate_shape(X, k, reference=T).frobenius_to[1]
        for raw, corrected in pairs.items():
            assert sums[corrected] < sums[raw]

    def test_tyler_unavailable_when_p_ge_n(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((30, 40))
        with pytest.raises(UnsupportedConfigError):
            estimate_shape(X, 5)
        # spectrum-corrected SSCM still works in the same regime
        rep = estimate_shape(X, 4)
        assert rep.T_hat.shape == (40, 40)

    def test_kind_enum(self):
        assert EstimatorKind(1) is EstimatorKind.REGULARIZED_SCM
        assert EstimatorKind(6) is EstimatorKind.SPECTRUM_CORRECTED_TYLER
