"""Robust estimators of the shape matrix: trace normalization, Tyler's fixed
point, moment-method spectrum recovery, and the six estimator pipelines."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import brentq, least_squares

from .errors import ConvergenceError, NumericError, UnsupportedConfigError
from .lss_clt import shape_to_sigma_eigs  # noqa: F401  (re-exported)
from .mp_law import DiscreteMeasure, _moments_closed, _population_moments
from .sign_geometry import SampleBatch, sscm

TYLER_TOL = 1e-11  # relative change at which Tyler's sweeps stop
TYLER_MAX_ITER = 500
MAX_ATOMS = 3  # select_num_atoms tries 1..MAX_ATOMS atoms
ATOM_PENALTY = 0.01  # added to its score per atom beyond the first


class EstimatorKind(Enum):
    REGULARIZED_SCM = 1
    SPECTRUM_CORRECTED_SCM = 2
    VISURI_SSCM = 3
    SPECTRUM_CORRECTED_SSCM = 4
    REGULARIZED_TYLER = 5
    SPECTRUM_CORRECTED_TYLER = 6


@dataclass(frozen=True)
class EstimatorReport:
    kind: EstimatorKind
    T_hat: np.ndarray
    spectrum: np.ndarray
    iterations: int = 0
    frobenius_to: tuple | None = None  # (reference_name, distance)


def psi_normalize(C):
    """p C / tr(C): fixes the trace-p convention of shape matrices."""
    C = np.asarray(C, dtype=float)
    t = np.trace(C)
    if t == 0.0:
        raise ValueError("cannot normalize a traceless matrix")
    return C.shape[0] * C / t


def tyler_m_estimator(X):
    """Tyler's M-estimator of scatter, trace-normalized each sweep; p < n only."""
    if isinstance(X, SampleBatch):
        X = X.data
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if p >= n:
        raise UnsupportedConfigError("Tyler's M-estimator requires p < n")
    M = np.eye(p)
    iterations = 0
    for _ in range(TYLER_MAX_ITER):
        iterations += 1
        sol = np.linalg.solve(M, X.T)  # p x n
        quad = np.einsum("ij,ji->i", X, sol)
        if np.any(quad <= 0):
            raise ValueError("observations must be nonzero and M positive definite")
        M_new = (p / n) * (X.T * (1.0 / quad)) @ X
        M_new = psi_normalize(0.5 * (M_new + M_new.T))
        delta = np.linalg.norm(M_new - M) / np.linalg.norm(M)
        M = M_new
        if delta < TYLER_TOL:
            return M, iterations
    raise ConvergenceError("Tyler fixed point did not converge", last_iterate=M, residual=delta)


# atom values are capped at e^40 in size inside the fit, so that the order-6 moments stay finite
_LOG_VALUE_CAP = 40.0


def _gauss_rule(alphas, m):
    """The m-atom measure with moments 1, alpha_1..alpha_{2m-1}, or None if it has no valid one.

    Golub and Welsch (1969): with the Hankel matrices H0 = (alpha_{i+j}) = L L'
    and H1 = (alpha_{i+j+1}), i, j < m, the Jacobi matrix L^-1 H1 L^-T has the
    atoms as eigenvalues and the squared first components of its unit
    eigenvectors as weights, which are therefore positive.  Returns None when
    H0 is not positive definite or an atom is not positive.
    """
    a = np.concatenate([[1.0], alphas])
    idx = np.add.outer(np.arange(m), np.arange(m))
    try:
        L = np.linalg.cholesky(a[idx])
    except np.linalg.LinAlgError:
        return None
    L_inv = np.linalg.inv(L)
    J = L_inv @ a[idx + 1] @ L_inv.T
    vals, V = np.linalg.eigh(0.5 * (J + J.T))
    if not vals[0] > 0:
        return None
    return vals, V[0] ** 2


def moment_method_psd(sample_eigs, c_n, num_atoms, return_objective=False):
    """Recover a small-atom population spectrum from sample eigenvalue moments.

    Fits num_atoms = m atom values and simplex weights (softmax logits) so
    that the limiting-law moments beta_1..beta_{2m} of the candidate measure
    match those of the sample, by Levenberg-Marquardt on the 2m residuals
    scaled by max(|beta_k|, 1e-3).

    The fit starts from the exact inversion.  The population moments
    alpha_1..alpha_{2m-1} follow from the sample moments by forward
    substitution (Bai, Chen and Yao 2010), and their Gauss rule is the m-atom
    measure that matches beta_1..beta_{2m-1} exactly; one fit from there,
    in the atom values, ends the search.  Only when that rule does not exist
    (the Hankel matrix is not positive definite or an atom is <= 0), or its
    fit ends with an atom <= 0, the fit runs instead, in the logs of the
    atom values, from the sample quantiles and four (two when m = 1) random
    perturbations of them, and keeps the best.  Atoms with weight < 0.01 are
    then dropped.  return_objective also returns the sum of squared scaled
    residuals of the fit.
    """
    if num_atoms not in (1, 2, 3):
        raise ValueError("num_atoms must be 1, 2 or 3")
    eigs = np.asarray(sample_eigs, dtype=float)
    m = num_atoms
    k = 2 * m
    beta_hat = np.array([np.mean(eigs**j) for j in range(1, k + 1)])
    scale = np.maximum(np.abs(beta_hat), 1e-3)

    def unpack(theta, log_values):
        if log_values:
            vals = np.exp(np.minimum(theta[:m], _LOG_VALUE_CAP))
        else:
            vals = np.clip(theta[:m], -np.exp(_LOG_VALUE_CAP), np.exp(_LOG_VALUE_CAP))
        logits = np.concatenate([theta[m:], [0.0]])
        w = np.exp(logits - logits.max())
        return vals, w / w.sum()

    def resid(theta, log_values):
        vals, w = unpack(theta, log_values)
        order = np.argsort(vals)
        model = np.array(_moments_closed(c_n, vals[order], w[order])[:k])
        return (model - beta_hat) / scale

    # Starts as (theta_0, atom values as logs, cost that ends the search).  The
    # exact start works in the values: MINPACK's first trust radius is a
    # multiple of |theta_0|, and near log 1 = 0 (m = 1 on a trace-normalized
    # spectrum) the fit would stop at once.  The fallback works in logs, in
    # which an atom can run to 0.
    starts = []
    gauss = _gauss_rule(_population_moments(c_n, beta_hat[: k - 1]), m)
    if gauss is not None:
        vals, w = gauss
        starts.append((np.concatenate([vals, np.log(w[:-1]) - np.log(w[-1])]), False, np.inf))
    log_qs = np.log(np.maximum(np.quantile(eigs, (np.arange(m) + 0.5) / m), 1e-3))
    starts.append((np.concatenate([log_qs, np.zeros(m - 1)]), True, 1e-16))
    rng = np.random.default_rng(12345)
    for _ in range(4 if m > 1 else 2):
        x0 = np.concatenate([log_qs + rng.normal(0, 0.4, m), rng.normal(0, 0.7, m - 1)])
        starts.append((x0, True, 1e-16))
    best = None
    for x0, log_values, enough in starts:
        sol = least_squares(resid, x0, method="lm", xtol=1e-12, ftol=1e-12, args=(log_values,))
        vals, w = unpack(sol.x, log_values)
        if np.all(vals > 0) and (best is None or sol.cost < best[0]):
            best = (sol.cost, vals, w)
        if best is not None and best[0] < enough:
            break
    if best is None:
        raise ConvergenceError("moment matching failed from every start")
    cost, vals, w = best
    keep = w >= 0.01
    if not np.all(keep):
        vals, w = vals[keep], w[keep] / w[keep].sum()
    order = np.argsort(vals)
    H = DiscreteMeasure.from_eigenvalues(vals[order], w[order], merge_tol=1e-8)
    if return_objective:
        return H, float(2.0 * cost)
    return H


def select_num_atoms(sample_eigs, c_n):
    """Pick the atom count with the best penalized moment mismatch.

    Each candidate is fit to its own first 2m moments, but all candidates
    are scored on a common basis (the first 2*MAX_ATOMS relative moment
    mismatches) so that low-order fits pay for what they miss higher up.
    """
    eigs = np.asarray(sample_eigs, dtype=float)
    k = 2 * MAX_ATOMS
    beta_hat = np.array([np.mean(eigs**j) for j in range(1, k + 1)])
    scale = np.maximum(np.abs(beta_hat), 1e-3)
    best = None
    for m in range(1, MAX_ATOMS + 1):
        H, _ = moment_method_psd(eigs, c_n, m, return_objective=True)
        model = np.array(_moments_closed(c_n, H.values, H.weights)[:k])
        score = float(np.sum(((model - beta_hat) / scale) ** 2)) + ATOM_PENALTY * (m - 1)
        if best is None or score < best[0]:
            best = (score, H)
        # a larger candidate pays at least ATOM_PENALTY * m; stop if it cannot win
        if best[0] <= ATOM_PENALTY * m:
            break
    return best[1]


def expand_spectrum(H, p):
    """Expand an atomic measure to p eigenvalues by largest-remainder rounding."""
    vals = H.values
    w = H.weights
    raw = w * p
    counts = np.floor(raw).astype(int)
    short = p - counts.sum()
    if short > 0:
        order = np.argsort(-(raw - counts))
        counts[order[:short]] += 1
    return np.sort(np.repeat(vals, counts))


def sigma_to_shape_eigs(sigma_eigs, tau):
    """Invert shape_to_sigma_eigs in closed form, then rescale to sum p.

    Given alpha2 = mean(t^2), t_i is the small root of k t^2 - b t + sigma_i,
    2 sigma_i / (b + sqrt(b^2 - 4 k sigma_i)), k = (tau-1)/p, b = 1 + k alpha2.
    alpha2 is the one root of the decreasing mean(t(alpha2)^2) - alpha2 on
    the alpha2 >= 0 where every t_i is real; NumericError when there is none.
    """
    sig = np.asarray(sigma_eigs, dtype=float)
    p = sig.size
    if tau < 1.0:
        raise ValueError("tau = E z^4 must be >= 1")
    k = (tau - 1.0) / p

    def shape(alpha2):
        b = 1.0 + k * alpha2
        return 2.0 * sig / (b + np.sqrt(np.maximum(b * b - 4.0 * k * sig, 0.0)))

    def excess(alpha2):
        return float(np.mean(shape(alpha2) ** 2)) - alpha2

    # below lo the discriminant of the largest sigma is negative
    top = k * float(sig.max())
    lo = (2.0 * np.sqrt(top) - 1.0) / k if top > 0.25 else 0.0
    hi = lo + excess(lo)  # t decreases in alpha2, so the excess at hi is <= 0
    if hi < lo:
        raise NumericError("sign-covariance eigenvalues have no shape preimage")
    alpha2 = brentq(excess, lo, hi, xtol=1e-15) if hi > lo else lo
    t = np.maximum(shape(alpha2), 0.0)
    return t * (p / t.sum())


def mad_spectrum(X, U):
    """Squared median absolute deviations of the data rotated into basis U.

    The consistency constant is irrelevant after trace normalization and is
    omitted.
    """
    if isinstance(X, SampleBatch):
        X = X.data
    Y = U.T @ np.asarray(X, dtype=float).T  # p x n
    med = np.median(Y, axis=1, keepdims=True)
    mad = np.median(np.abs(Y - med), axis=1)
    return np.sort(mad**2)


def _corrected_spectrum(eigs_scaled, c_n, p, num_atoms=None):
    """Moment-method population spectrum, expanded to p ascending values."""
    if num_atoms is None:
        H = select_num_atoms(eigs_scaled, c_n)
    else:
        H = moment_method_psd(eigs_scaled, c_n, num_atoms)
    return expand_spectrum(H, p)


def estimate_shape(X, kind, num_atoms=None, tau=3.0, reference=None):
    """One of the six shape estimators; data are assumed centered (known mean).

    Each is a scatter matrix and a rule for its spectrum.  Scatter: the
    trace-normalized SCM (T1, T2), the SSCM about the known centre (T3, T4)
    or trace-normalized Tyler (T5, T6).  Spectrum: kept (T1, T5), or
    replaced in the scatter's eigenbasis by the MAD of the rotated data (T3)
    or the moment-method population spectrum (T2, T4, T6), which for T4 is
    that of sigma and is mapped to the shape by sigma_to_shape_eigs.
    reference, when given, is the true shape matrix used for the Frobenius
    distance in the report.
    """
    if isinstance(X, SampleBatch):
        X = X.data
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    kind = EstimatorKind(kind)
    iterations = 0

    if kind in (EstimatorKind.REGULARIZED_SCM, EstimatorKind.SPECTRUM_CORRECTED_SCM):
        S = psi_normalize((X.T @ X) / n)
    elif kind in (EstimatorKind.VISURI_SSCM, EstimatorKind.SPECTRUM_CORRECTED_SSCM):
        S = sscm(X, center=np.zeros(p)).matrix
    else:
        M, iterations = tyler_m_estimator(X)
        S = psi_normalize(M)

    if kind in (EstimatorKind.REGULARIZED_SCM, EstimatorKind.REGULARIZED_TYLER):
        T_hat = S
    else:
        eigs, U = np.linalg.eigh(S)
        if kind is EstimatorKind.VISURI_SSCM:
            lam = mad_spectrum(X, U)
        else:
            lam = _corrected_spectrum(eigs, p / n, p, num_atoms)
            if kind is EstimatorKind.SPECTRUM_CORRECTED_SSCM:
                lam = np.sort(sigma_to_shape_eigs(lam, tau))
        T_hat = psi_normalize((U * lam) @ U.T)

    T_hat = 0.5 * (T_hat + T_hat.T)
    spectrum = np.sort(np.linalg.eigvalsh(T_hat))
    frobenius_to = None
    if reference is not None:
        dist = float(np.linalg.norm(T_hat - reference))
        frobenius_to = ("reference", dist)
    return EstimatorReport(
        kind=kind,
        T_hat=T_hat,
        spectrum=spectrum,
        iterations=iterations,
        frobenius_to=frobenius_to,
    )
