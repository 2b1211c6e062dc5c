"""Spatial signs, the sample spatial median, and sample spatial-sign covariance matrices."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
    def from_csv(cls, path):
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        return cls(data)

    def to_csv(self, path):
        np.savetxt(path, self.data, delimiter=",", fmt="%.17g")


@dataclass(frozen=True)
class SpatialMedianResult:
    median: np.ndarray
    iterations: int
    residual_norm: float
    newton_steps: int = 0  # Newton candidates accepted as the iterate


@dataclass(frozen=True)
class SscmMatrix:
    """Scaled sample SSCM (p/n) sum of outer products of centered signs."""

    matrix: np.ndarray
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


class _Point(NamedTuple):
    """One pass over the data at a candidate mu."""

    mu: np.ndarray
    d: np.ndarray  # ||x_j - mu||
    signs: np.ndarray  # (x_j - mu) / d_j, zero rows where d_j = 0
    ssum: np.ndarray  # sum_j signs_j
    obj: float  # sum_j d_j
    residual: float  # ||mean_j signs_j||


def _evaluate(X, mu):
    diff = X - mu
    d = np.linalg.norm(diff, axis=1)
    signs = diff / np.where(d == 0.0, 1.0, d)[:, None]
    ssum = signs.sum(axis=0)
    return _Point(mu, d, signs, ssum, float(d.sum()), float(np.linalg.norm(ssum / len(d))))


def _newton_step(signs, d, r):
    """Solve H step = r, H = a I - V'U the objective's Hessian off the data
    (U = signs, V = signs / d, a = sum 1/d).  For p > n, by Woodbury in n
    dimensions: step = (r + V'(a I_n - U V')^{-1} U r) / a.
    """
    n, p = signs.shape
    V = signs / d[:, None]
    a = np.sum(1.0 / d)
    if p <= n:
        return np.linalg.solve(a * np.eye(p) - V.T @ signs, r)
    return (r + V.T @ np.linalg.solve(a * np.eye(n) - signs @ V.T, signs @ r)) / a


def _spatial_median(X):
    """spatial_median of a float array, with the evaluation at the median."""
    if np.allclose(X, X[0]):
        raise ValueError("observations must not be all identical")
    cur = _evaluate(X, np.median(X, axis=0))
    obj, newton_steps = cur.obj, 0
    for iterations in range(1, DEFAULT_MEDIAN_MAX_ITER + 1):
        hit = cur.d < 1e-12
        n_hit = int(hit.sum())
        weights = 1.0 / np.where(hit, np.inf, cur.d)
        t_step = weights @ X / weights.sum()
        newton = None
        if n_hit:
            gn = np.linalg.norm(cur.signs[~hit].sum(axis=0))
            if gn <= n_hit:
                # a data point is the minimizer; the sign-sum equation has no
                # exact root there, so report the achieved residual
                end = _evaluate(X, X[hit][0])
                return SpatialMedianResult(end.mu, iterations, end.residual, newton_steps), end
            lam = min(1.0, n_hit / gn)
            cand = _evaluate(X, (1.0 - lam) * t_step + lam * cur.mu)
        else:
            cand = _evaluate(X, t_step)
            # Newton polish once Weiszfeld has localized the solution; accepted
            # on residual decrease (the objective is flat to rounding there)
            if cur.residual < 1e-4:
                try:
                    newton = _evaluate(X, cur.mu + _newton_step(cur.signs, cur.d, cur.ssum))
                    cand = newton if newton.residual < cand.residual else cand
                except np.linalg.LinAlgError:
                    pass
        if cand.obj <= obj * (1.0 + 1e-14):
            cur, obj = cand, min(obj, cand.obj)
            newton_steps += cand is newton
        if cur.residual <= DEFAULT_MEDIAN_TOL:
            return SpatialMedianResult(cur.mu, iterations, cur.residual, newton_steps), cur
    raise ConvergenceError("spatial median did not reach tolerance",
                           last_iterate=cur.mu, residual=cur.residual)


def spatial_median(X):
    """Sample spatial median: the point where centered spatial signs sum to zero.

    Modified Weiszfeld iteration with the Vardi-Zhang correction when an
    iterate coincides with a data point, followed by damped Newton polishing
    once the basin is reached, to ||mean sign|| <= DEFAULT_MEDIAN_TOL.  The
    objective sum ||x_j - mu|| never increases along the iteration.  Each
    point is evaluated once, in one pass over the data; the Newton step is
    solved in min(n, p) dimensions.
    """
    if isinstance(X, SampleBatch):
        X = X.data
    return _spatial_median(np.asarray(X, dtype=float))[0]


def sscm(X, center="estimate"):
    """Sample SSCM B = (p/n) sum s(x_j - center) s(x_j - center)'.

    center: "estimate" fits the spatial median, reusing its signs; a vector is a known mean.
    """
    if isinstance(X, SampleBatch):
        X = X.data
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    med_result = None
    if isinstance(center, str):
        if center != "estimate":
            raise ValueError("center must be 'estimate' or a vector")
        med_result, point = _spatial_median(X)
        centered_by = "SampleSpatialMedian"
    else:
        point = _evaluate(X, np.asarray(center, dtype=float))
        centered_by = "KnownMean"
    degenerate = int(np.sum(point.d == 0.0))
    n_eff = n - degenerate
    if n_eff == 0:
        raise ValueError("all rows coincide with the centering point")
    B = (p / n_eff) * (point.signs.T @ point.signs)
    B = 0.5 * (B + B.T)
    return SscmMatrix(
        matrix=B,
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
