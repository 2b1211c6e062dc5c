"""Robust estimators of the shape matrix: trace normalization, Tyler's fixed
point, moment-method spectrum recovery, and the six estimator pipelines."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConvergenceError, NumericError, UnsupportedConfigError
from .mp_law import DiscreteMeasure, SpectralModel, _population_moments, _root, lsd_moments
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
    iterations: int = 0  # Tyler's map evaluations (T5, T6); 0 for the others
    frobenius_to: tuple | None = None  # (reference_name, distance)
    num_atoms: int | None = None  # atoms of the corrected spectrum (T2, T4, T6)


def psi_normalize(C):
    """p C / tr(C): fixes the trace-p convention of shape matrices."""
    C = np.asarray(C, dtype=float)
    t = np.trace(C)
    if t == 0.0:
        raise ValueError("cannot normalize a traceless matrix")
    return C.shape[0] * C / t


def tyler_m_estimator(X):
    """Tyler's M-estimator of scatter, normalized to trace p; p < n only.

    Returns (F(M), evaluations) for the first iterate M that one plain sweep
    F(M) = psi((p/n) sum_i x_i x_i' / x_i' M^-1 x_i) changes by less than
    TYLER_TOL relative, and the number of evaluations of F spent.  The plain
    iteration converges linearly (Tyler 1987); SQUAREM, scheme S3 (Varadhan
    and Roland 2008), accelerates it from M = I without moving its fixed
    point.  Each cycle takes two sweeps F(M) and F(F(M)), forms
    r = F(M) - M and v = F(F(M)) - 2 F(M) + M, and steps to
    psi(M - 2 a r + a^2 v) with a = min(-|r|/|v|, -1), or to F(F(M)), which
    is a = -1, when that matrix is not positive definite.  The step is kept
    only if its own sweep changes it by less than F changed M; otherwise the
    cycle resumes from F(F(M)), since unchecked steps can fall into a
    2-cycle.  Every sweep is tested against the tolerance.  Raises
    ValueError on a zero observation and ConvergenceError after
    TYLER_MAX_ITER evaluations.
    """
    if isinstance(X, SampleBatch):
        X = X.data
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if p >= n:
        raise UnsupportedConfigError("Tyler's M-estimator requires p < n")

    def sweep(M):
        sol = np.linalg.solve(M, X.T)  # p x n
        quad = np.einsum("ij,ji->i", X, sol)
        if np.any(quad <= 0):
            raise ValueError("observations must be nonzero and M positive definite")
        M_new = (p / n) * (X.T * (1.0 / quad)) @ X
        return psi_normalize(0.5 * (M_new + M_new.T))

    run = [np.eye(p)]  # a cycle's start and its plain sweeps
    fallback = None  # the previous cycle's F(F(M)) while run[0] is its step
    start_delta = np.inf  # the relative change F made to the previous cycle's start
    for evaluations in range(1, TYLER_MAX_ITER + 1):
        run.append(sweep(run[-1]))
        delta = np.linalg.norm(run[-1] - run[-2]) / np.linalg.norm(run[-2])
        if delta < TYLER_TOL:
            return run[-1], evaluations
        if len(run) == 2:
            if fallback is not None and delta >= start_delta:
                run, fallback = [fallback], None
                continue
            start_delta = delta
        else:
            r = run[1] - run[0]
            v = run[2] - run[1] - r
            a = min(-np.linalg.norm(r) / np.linalg.norm(v), -1.0)
            M = run[0] - 2.0 * a * r + a * a * v
            M = psi_normalize(0.5 * (M + M.T))
            try:
                np.linalg.cholesky(M)
            except np.linalg.LinAlgError:
                run, fallback = [run[2]], None
            else:
                run, fallback = [M], run[2]
    raise ConvergenceError("Tyler fixed point did not converge", last_iterate=run[-1], residual=delta)


def _gauss_rule(alphas, m):
    """The m-atom measure with moments 1, alpha_1..alpha_{2m-1}, or None if it has no valid one.

    Golub and Welsch (1969): with the Hankel matrices H0 = (alpha_{i+j}) = L L'
    and H1 = (alpha_{i+j+1}), i, j < m, the Jacobi matrix L^-1 H1 L^-T has the
    atoms as eigenvalues and the squared first components of its unit
    eigenvectors as weights, which are therefore positive.  Returns None when
    H0 is not positive definite or an atom is not positive.  Entries of
    alphas past alpha_{2m-1} are not read.
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


def _sample_moments(eigs, k):
    """beta_1..beta_k of the sample eigenvalues; ValueError unless their mean is positive."""
    beta = np.array([np.mean(eigs**j) for j in range(1, k + 1)])
    if not beta[0] > 0:
        raise ValueError("sample eigenvalues must have a positive mean")
    return beta


def _drop_light_atoms(rule):
    """The measure of a Gauss rule without its atoms of weight < 0.01, renormalized."""
    vals, w = rule
    keep = w >= 0.01
    return DiscreteMeasure.from_eigenvalues(vals[keep], w[keep], merge_tol=1e-8)


def moment_method_psd(sample_eigs, c_n, num_atoms):
    """Recover a small-atom population spectrum from sample eigenvalue moments.

    The moment method of Bai, Chen and Yao (2010).  The population moments
    alpha_1..alpha_{2m-1} follow from the sample moments beta_1..beta_{2m-1}
    by forward substitution, and their Gauss rule is the m-atom measure
    whose limiting-law moments match beta_1..beta_{2m-1} exactly.  When no
    m-atom rule exists (the Hankel matrix is not positive definite or an
    atom is <= 0), the rule of the largest m' < m that has one is returned;
    m' = 1, delta at alpha_1 = beta_1, needs only beta_1 > 0, which is
    checked.  Atoms with weight < 0.01 are then dropped and the rest
    renormalized.
    """
    if num_atoms not in (1, 2, 3):
        raise ValueError("num_atoms must be 1, 2 or 3")
    beta_hat = _sample_moments(np.asarray(sample_eigs, dtype=float), 2 * num_atoms - 1)
    alphas = _population_moments(c_n, beta_hat)
    rule = next(r for m in range(num_atoms, 0, -1) if (r := _gauss_rule(alphas, m)) is not None)
    return _drop_light_atoms(rule)


def select_num_atoms(sample_eigs, c_n):
    """Pick the atom count with the best penalized moment mismatch.

    Each candidate m is the Gauss rule of its own first 2m - 1 moments, as
    moment_method_psd(eigs, c_n, m) returns it, but all candidates are
    scored on a common basis (the first 2*MAX_ATOMS relative moment
    mismatches) so that low-order fits pay for what they miss higher up.
    The population moments alpha_k depend on beta_1..beta_k only, so one
    forward substitution serves every candidate.  A candidate m with no
    rule of its own is skipped; m = 1 always has one.
    """
    k = 2 * MAX_ATOMS
    beta_hat = _sample_moments(np.asarray(sample_eigs, dtype=float), k)
    scale = np.maximum(np.abs(beta_hat), 1e-3)
    alphas = _population_moments(c_n, beta_hat[: k - 1])
    best = None
    for m in range(1, MAX_ATOMS + 1):
        rule = _gauss_rule(alphas, m)
        if rule is None:
            continue  # moment_method_psd would return a smaller candidate's rule
        H = _drop_light_atoms(rule)
        model = np.array(lsd_moments(SpectralModel(c_n, H), k))
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

    def excess(alpha2):  # and its derivative, as k t^2 - b t + sigma = 0 gives dt/dalpha2 = k t / (2 k t - b)
        t = shape(alpha2)
        slope = 2.0 * k * t**2 / (2.0 * k * t - (1.0 + k * alpha2))
        return float(np.mean(t**2)) - alpha2, float(np.mean(slope)) - 1.0

    # below lo the discriminant of the largest sigma is negative
    top = k * float(sig.max())
    lo = (2.0 * np.sqrt(top) - 1.0) / k if top > 0.25 else 0.0
    hi = float(np.mean(shape(lo) ** 2))  # t decreases in alpha2, so the excess at hi is <= 0
    if hi < lo:
        raise NumericError("sign-covariance eigenvalues have no shape preimage")
    alpha2 = _root(excess, lo, hi) if hi > lo else lo
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


def estimate_shape(X, kind, num_atoms=None, tau=3.0, reference=None):
    """One of the six shape estimators; data are assumed centered (known mean).

    Each is a scatter matrix and a rule for its spectrum.  Scatter: the
    trace-normalized SCM (T1, T2), the SSCM about the known centre (T3, T4)
    or trace-normalized Tyler (T5, T6).  Spectrum: kept (T1, T5), or
    replaced in the scatter's eigenbasis by the MAD of the rotated data (T3)
    or the moment-method population spectrum (T2, T4, T6), which for T4 is
    that of sigma and is mapped to the shape by sigma_to_shape_eigs.
    reference, when given, is the true shape matrix used for the Frobenius
    distance in the report.  For T2, T4 and T6 the report also gives the
    atom count of the corrected spectrum.
    """
    if isinstance(X, SampleBatch):
        X = X.data
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    kind = EstimatorKind(kind)
    iterations = 0
    atoms = None

    if kind in (EstimatorKind.REGULARIZED_SCM, EstimatorKind.SPECTRUM_CORRECTED_SCM):
        S = psi_normalize((X.T @ X) / n)
    elif kind in (EstimatorKind.VISURI_SSCM, EstimatorKind.SPECTRUM_CORRECTED_SSCM):
        S = sscm(X, center=np.zeros(p)).matrix
    else:
        S, iterations = tyler_m_estimator(X)

    if kind in (EstimatorKind.REGULARIZED_SCM, EstimatorKind.REGULARIZED_TYLER):
        T_hat = S
    else:
        eigs, U = np.linalg.eigh(S)
        if kind is EstimatorKind.VISURI_SSCM:
            lam = mad_spectrum(X, U)
        else:
            if num_atoms is None:
                H = select_num_atoms(eigs, p / n)
            else:
                H = moment_method_psd(eigs, p / n, num_atoms)
            atoms = len(H.atoms)
            lam = expand_spectrum(H, p)
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
        num_atoms=atoms,
    )
