"""Robust estimators of the shape matrix: trace normalization, Tyler's fixed
point, moment-method spectrum recovery, and the six estimator pipelines."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import least_squares

from .errors import ConvergenceError, SscmError, UnsupportedConfigError
from .lss_clt import shape_to_sigma_eigs  # noqa: F401  (re-exported)
from .mp_law import DiscreteMeasure, _moments_closed
from .sign_geometry import SampleBatch, sscm


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


def tyler_m_estimator(X, tol=1e-11, max_iter=500):
    """Tyler's M-estimator of scatter, trace-normalized each sweep; p < n only."""
    if isinstance(X, SampleBatch):
        X = X.data
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if p >= n:
        raise UnsupportedConfigError("Tyler's M-estimator requires p < n")
    M = np.eye(p)
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        sol = np.linalg.solve(M, X.T)  # p x n
        quad = np.einsum("ij,ji->i", X, sol)
        if np.any(quad <= 0):
            raise ValueError("observations must be nonzero and M positive definite")
        M_new = (p / n) * (X.T * (1.0 / quad)) @ X
        M_new = psi_normalize(0.5 * (M_new + M_new.T))
        delta = np.linalg.norm(M_new - M) / np.linalg.norm(M)
        M = M_new
        if delta < tol:
            return M, iterations
    raise ConvergenceError("Tyler fixed point did not converge", last_iterate=M, residual=delta)


def moment_method_psd(sample_eigs, c_n, num_atoms, return_objective=False):
    """Recover a small-atom population spectrum from sample eigenvalue moments.

    Matches the first 2*num_atoms spectral moments of the sample against the
    limiting-law moments of a candidate atomic measure, by bounded least
    squares over atom positions and simplex weights (multi-start).
    """
    if num_atoms not in (1, 2, 3):
        raise ValueError("num_atoms must be 1, 2 or 3")
    eigs = np.asarray(sample_eigs, dtype=float)
    k = 2 * num_atoms
    beta_hat = np.array([np.mean(eigs**j) for j in range(1, k + 1)])
    scale = np.maximum(np.abs(beta_hat), 1e-3)

    m = num_atoms

    def unpack(theta):
        with np.errstate(over="ignore"):
            vals = np.exp(np.minimum(theta[:m], 40.0))
        logits = np.concatenate([theta[m:], [0.0]])
        w = np.exp(logits - logits.max())
        w = w / w.sum()
        return vals, w

    def resid(theta):
        vals, w = unpack(theta)
        order = np.argsort(vals)
        with np.errstate(over="ignore"):
            model = np.array(_moments_closed(c_n, vals[order], w[order])[:k])
        model = np.nan_to_num(model, nan=1e12, posinf=1e12, neginf=-1e12)
        return (model - beta_hat) / scale

    # quantile-based initial atom positions, plus perturbations
    qs = np.quantile(eigs, (np.arange(m) + 0.5) / m)
    qs = np.maximum(qs, 1e-3)
    inits = [np.concatenate([np.log(qs), np.zeros(m - 1)])]
    rng = np.random.default_rng(12345)
    for _ in range(4 if m > 1 else 2):
        inits.append(
            np.concatenate(
                [np.log(qs) + rng.normal(0, 0.4, m), rng.normal(0, 0.7, m - 1)]
            )
        )
    best = None
    for x0 in inits:
        try:
            sol = least_squares(resid, x0, method="lm", xtol=1e-12, ftol=1e-12)
        except (SscmError, np.linalg.LinAlgError):
            continue
        if best is None or sol.cost < best.cost:
            best = sol
        if best.cost < 1e-16:
            break
    if best is None:
        raise ConvergenceError("moment matching failed from every start")
    vals, w = unpack(best.x)
    keep = w >= 0.01
    if not np.all(keep):
        vals, w = vals[keep], w[keep] / w[keep].sum()
    order = np.argsort(vals)
    H = DiscreteMeasure.from_eigenvalues(vals[order], w[order], merge_tol=1e-8)
    if return_objective:
        return H, float(2.0 * best.cost)
    return H


def select_num_atoms(sample_eigs, c_n, max_atoms=3, penalty=0.01):
    """Pick the atom count with the best penalized moment mismatch.

    Each candidate is fit to its own first 2m moments, but all candidates
    are scored on a common basis (the first 2*max_atoms relative moment
    mismatches) so that low-order fits pay for what they miss higher up.
    """
    eigs = np.asarray(sample_eigs, dtype=float)
    k = 2 * max_atoms
    beta_hat = np.array([np.mean(eigs**j) for j in range(1, k + 1)])
    scale = np.maximum(np.abs(beta_hat), 1e-3)
    best = None
    for m in range(1, max_atoms + 1):
        H, _ = moment_method_psd(eigs, c_n, m, return_objective=True)
        model = np.array(_moments_closed(c_n, H.values, H.weights)[:k])
        score = float(np.sum(((model - beta_hat) / scale) ** 2)) + penalty * (m - 1)
        if best is None or score < best[0]:
            best = (score, H)
        # a larger candidate pays at least penalty * m; stop if it cannot win
        if best[0] <= penalty * m:
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


def sigma_to_shape_eigs(sigma_eigs, tau, p=None, tol=1e-12, max_iter=500):
    """Invert the diagonal eigenvalue correspondence by damped fixed point.

    Solves t_i = sigma_i + (tau-1)/p (t_i^2 - mean(t^2) t_i) starting from
    t = sigma, then rescales the result to sum p.
    """
    sig = np.asarray(sigma_eigs, dtype=float)
    if p is None:
        p = sig.size
    t = sig.copy()
    lam = 0.5
    for _ in range(max_iter):
        a2 = np.mean(t**2)
        t_new = (1 - lam) * t + lam * (sig + (tau - 1.0) / p * (t**2 - a2 * t))
        delta = np.max(np.abs(t_new - t))
        t = t_new
        if delta < tol:
            break
    else:
        raise ConvergenceError("eigenvalue correspondence inversion diverged",
                               last_iterate=t, residual=delta)
    t = np.maximum(t, 0.0)
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


def estimate_shape(X, kind, num_atoms=None, tau=3.0, reference=None,
                   tyler_tol=1e-11, tyler_max_iter=500):
    """One of the six shape estimators; data are assumed centered (known mean).

    reference, when given, is the true shape matrix used for the Frobenius
    distance in the report.
    """
    if isinstance(X, SampleBatch):
        X = X.data
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    kind = EstimatorKind(kind)
    c_n = p / n
    iterations = 0

    if kind is EstimatorKind.REGULARIZED_SCM:
        T_hat = psi_normalize((X.T @ X) / n)
    elif kind is EstimatorKind.SPECTRUM_CORRECTED_SCM:
        S = psi_normalize((X.T @ X) / n)
        eigs, U = np.linalg.eigh(S)
        lam = _corrected_spectrum(eigs, c_n, p, num_atoms)
        T_hat = psi_normalize((U * lam) @ U.T)
    elif kind is EstimatorKind.VISURI_SSCM:
        B = sscm(X, center=np.zeros(p)).matrix
        _, U = np.linalg.eigh(B)
        lam = mad_spectrum(X, U)
        T_hat = psi_normalize((U * lam) @ U.T)
    elif kind is EstimatorKind.SPECTRUM_CORRECTED_SSCM:
        B = sscm(X, center=np.zeros(p)).matrix
        eigs, U = np.linalg.eigh(B)
        sigma_eigs = _corrected_spectrum(eigs, c_n, p, num_atoms)
        lam = np.sort(sigma_to_shape_eigs(sigma_eigs, tau, p))
        T_hat = psi_normalize((U * lam) @ U.T)
    elif kind is EstimatorKind.REGULARIZED_TYLER:
        M, iterations = tyler_m_estimator(X, tol=tyler_tol, max_iter=tyler_max_iter)
        T_hat = psi_normalize(M)
    elif kind is EstimatorKind.SPECTRUM_CORRECTED_TYLER:
        M, iterations = tyler_m_estimator(X, tol=tyler_tol, max_iter=tyler_max_iter)
        eigs, U = np.linalg.eigh(psi_normalize(M))
        lam = _corrected_spectrum(eigs, c_n, p, num_atoms)
        T_hat = psi_normalize((U * lam) @ U.T)
    else:  # pragma: no cover
        raise ValueError(f"unknown estimator kind {kind}")

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
