"""Spatial signs, the sample spatial median, and sample spatial-sign covariance matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

DEFAULT_MEDIAN_TOL = 1e-10
DEFAULT_MEDIAN_MAX_ITER = 500


@dataclass(frozen=True)
class SampleBatch:
    """n observations of dimension p, one observation per row."""

    data: np.ndarray

    def __post_init__(self):
        data = np.atleast_2d(np.asarray(self.data, dtype=float))
        if data.ndim != 2:
            raise ValueError("data must be a 2-d array")
        if data.shape[0] < 2:
            raise ValueError("need at least two observations")
        if not np.all(np.isfinite(data)):
            raise ValueError("data must be finite")
        object.__setattr__(self, "data", data)

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def p(self):
        return self.data.shape[1]

    @classmethod
    def from_csv(cls, path, header=False):
        data = np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)
        return cls(data)

    def to_csv(self, path):
        np.savetxt(path, self.data, delimiter=",", fmt="%.17g")


@dataclass(frozen=True)
class SpatialMedianResult:
    median: np.ndarray
    iterations: int
    residual_norm: float


@dataclass(frozen=True)
class SscmMatrix:
    """Scaled sample SSCM (p/n) sum of outer products of centered signs."""

    matrix: np.ndarray
    scaled: bool
    centered_by: str  # "SampleSpatialMedian" or "KnownMean"
    degenerate_rows: int = 0
    median_result: SpatialMedianResult | None = None

    @property
    def p(self):
        return self.matrix.shape[0]


def spatial_sign(v):
    """v / ||v|| for nonzero v, the zero vector otherwise."""
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("input must be finite")
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return np.zeros_like(v)
    return v / norm


def spatial_signs(X):
    """Row-wise spatial signs of a matrix; zero rows map to zero."""
    X = np.asarray(X, dtype=float)
    norms = np.linalg.norm(X, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    return X / safe[:, None]


def _median_objective(X, mu):
    return float(np.sum(np.linalg.norm(X - mu, axis=1)))


def _median_gradient(X, mu):
    """Gradient of the objective over non-coincident points; Vardi-Zhang bookkeeping."""
    diff = X - mu
    d = np.linalg.norm(diff, axis=1)
    hit = d < 1e-12
    dd = np.where(hit, 1.0, d)
    grad = -np.sum(diff[~hit] / dd[~hit, None], axis=0)
    return grad, d, hit


def spatial_median(X, tol=DEFAULT_MEDIAN_TOL, max_iter=DEFAULT_MEDIAN_MAX_ITER):
    """Sample spatial median: the point where centered spatial signs sum to zero.

    Modified Weiszfeld iteration with the Vardi-Zhang correction when an
    iterate coincides with a data point, followed by damped Newton polishing
    once the basin is reached.  The objective sum ||x_j - mu|| never
    increases along the iteration.
    """
    if isinstance(X, SampleBatch):
        X = X.data
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if np.allclose(X, X[0]):
        raise ValueError("observations must not be all identical")
    mu = np.median(X, axis=0)
    obj = _median_objective(X, mu)
    iterations = 0

    def residual(mu):
        return float(np.linalg.norm(np.mean(spatial_signs(X - mu), axis=0)))

    for _ in range(max_iter):
        iterations += 1
        grad, d, hit = _median_gradient(X, mu)
        n_hit = int(hit.sum())
        weights = 1.0 / np.where(hit, np.inf, d)
        wsum = weights.sum()
        t_step = np.sum(X * weights[:, None], axis=0) / wsum
        if n_hit:
            gn = np.linalg.norm(grad)
            if gn <= n_hit:
                # a data point is the minimizer; the sign-sum equation has no
                # exact root there, so report the achieved residual
                mu = X[hit][0]
                return SpatialMedianResult(
                    median=mu, iterations=iterations, residual_norm=residual(mu)
                )
            lam = min(1.0, n_hit / gn)
            cand = (1.0 - lam) * t_step + lam * mu
        else:
            cand = t_step
        # Newton polish once Weiszfeld has localized the solution; accepted on
        # residual decrease (the objective is flat to rounding there)
        if not n_hit and residual(mu) < 1e-4:
            diff = X - mu
            u = diff / d[:, None]
            hess = wsum * np.eye(p) - (u / d[:, None]).T @ u
            try:
                step = np.linalg.solve(hess, -grad)
                newton = mu + step
                if residual(newton) < residual(cand):
                    cand = newton
            except np.linalg.LinAlgError:
                pass
        cand_obj = _median_objective(X, cand)
        if cand_obj <= obj * (1.0 + 1e-14):
            mu, obj = cand, min(obj, cand_obj)
        res = residual(mu)
        if res <= tol:
            return SpatialMedianResult(median=mu, iterations=iterations, residual_norm=res)
    res = residual(mu)
    if res <= tol:
        return SpatialMedianResult(median=mu, iterations=iterations, residual_norm=res)
    raise ConvergenceError(
        "spatial median did not reach tolerance",
        last_iterate=mu,
        residual=res,
    )


def sscm(X, center="estimate", tol=DEFAULT_MEDIAN_TOL, max_iter=DEFAULT_MEDIAN_MAX_ITER):
    """Sample SSCM B = (p/n) sum s(x_j - center) s(x_j - center)'.

    center: "estimate" fits the spatial median; a vector uses a known mean.
    """
    if isinstance(X, SampleBatch):
        X = X.data
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    med_result = None
    if isinstance(center, str):
        if center != "estimate":
            raise ValueError("center must be 'estimate' or a vector")
        med_result = spatial_median(X, tol=tol, max_iter=max_iter)
        mu = med_result.median
        centered_by = "SampleSpatialMedian"
    else:
        mu = np.asarray(center, dtype=float)
        centered_by = "KnownMean"
    diff = X - mu
    norms = np.linalg.norm(diff, axis=1)
    degenerate = int(np.sum(norms == 0.0))
    n_eff = n - degenerate
    if n_eff == 0:
        raise ValueError("all rows coincide with the centering point")
    S = spatial_signs(diff)
    B = (p / n_eff) * (S.T @ S)
    B = 0.5 * (B + B.T)
    return SscmMatrix(
        matrix=B,
        scaled=True,
        centered_by=centered_by,
        degenerate_rows=degenerate,
        median_result=med_result,
    )


def estimate_rw(X, mu):
    """Plug-in estimate of E(w^-2)/E^2(w^-1) from centered norms.

    Relies on ||A z||^2 / p -> 1, so sqrt(p)/||x_j - mu|| estimates 1/w_j.
    Always >= 1 by Cauchy-Schwarz.
    """
    if isinstance(X, SampleBatch):
        X = X.data
    X = np.asarray(X, dtype=float)
    mu = np.asarray(mu, dtype=float)
    d = np.linalg.norm(X - mu, axis=1)
    if np.any(d == 0.0):
        raise ValueError("degenerate observation coincides with the center")
    inv = np.sqrt(X.shape[1]) / d
    return float(np.mean(inv**2) / np.mean(inv) ** 2)
