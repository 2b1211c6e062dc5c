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
    hessian_products: int = 0  # H v products spent by the Newton steps' conjugate gradients


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


def _coordinatewise_median(X):
    """np.median(X, axis=0) bit for bit, from a sort: at n <= 200 rows, 4-5 times
    faster than np.median's partition.

    Raises ValueError when np.allclose(X, X[0]), decided from each column's
    extremes: rounding is monotone, so the largest |x_ij - x_0j| is at one of them.
    """
    S = np.sort(X, axis=0)
    if np.all(np.maximum(S[-1] - X[0], X[0] - S[0]) <= 1e-8 + 1e-5 * np.abs(X[0])):
        raise ValueError("observations must not be all identical")
    return 0.5 * (S[(len(X) - 1) // 2] + S[len(X) // 2])


def _newton_step(signs, d, r, target):
    """Conjugate gradients on H step = r, H = a I - U' diag(1/d) U the objective's
    Hessian off the data (U = signs, a = sum 1/d), until CG's updated residual
    r - H step has norm <= target.

    Each product H v = a v - U'((U v) / d) is two passes over U.  H / a is I minus
    a matrix of trace 1, so in high dimension a few products suffice.  H has at
    most min(n, p) + 1 distinct eigenvalues, which caps the products; past the
    cap, or at a curvature v'Hv not above 1e-10 a ||v||^2, the step is None: for
    p = 1, H = 0, and for collinear signs H r = 0, so rounding alone decides
    the sign of v'Hv.  Returns (step, products).
    """
    a = np.sum(1.0 / d)
    step = np.zeros_like(r)
    res = r.copy()  # r - H step
    v = r
    rr = res @ res
    for products in range(1, min(signs.shape) + 2):
        hv = a * v - signs.T @ ((signs @ v) / d)
        curv = v @ hv
        if not curv > 1e-10 * a * (v @ v):
            return None, products
        alpha = rr / curv
        step += alpha * v
        res -= alpha * hv
        rr_next = res @ res
        if rr_next <= target * target:
            return step, products
        v = res + (rr_next / rr) * v
        rr = rr_next
    return None, products


def _spatial_median(X):
    """spatial_median of a float array, with the evaluation at the median."""
    # The Newton point's residual is predicted to be ||r - H step|| / n.  At 1e-4
    # of the tolerance the median is within 1e-13 relative of an exact solve; a
    # tenth of it saves about one H v product but moves the median by ~1e-10.
    target = 1e-4 * len(X) * DEFAULT_MEDIAN_TOL
    cur = _evaluate(X, _coordinatewise_median(X))
    obj, newton_steps, products = cur.obj, 0, 0
    for iterations in range(1, DEFAULT_MEDIAN_MAX_ITER + 1):
        hit = cur.d < 1e-12
        n_hit = int(hit.sum())
        weights = 1.0 / np.where(hit, np.inf, cur.d)
        newton = None
        if n_hit:
            gn = np.linalg.norm(cur.signs[~hit].sum(axis=0))
            if gn <= n_hit:
                # a data point is the minimizer; the sign-sum equation has no
                # exact root there, so report the achieved residual
                end = _evaluate(X, X[hit][0])
                return SpatialMedianResult(end.mu, iterations, end.residual, newton_steps, products), end
            lam = min(1.0, n_hit / gn)
            cand = _evaluate(X, (1.0 - lam) * (weights @ X / weights.sum()) + lam * cur.mu)
        else:
            # Newton polish once Weiszfeld has localized the solution, kept on
            # residual decrease (the objective is flat to rounding there); the
            # Weiszfeld point is computed only when the Newton point is not kept
            if cur.residual < 1e-4:
                step, k = _newton_step(cur.signs, cur.d, cur.ssum, target)
                products += k
                if step is not None:
                    newton = _evaluate(X, cur.mu + step)
            if newton is not None and newton.residual < cur.residual and newton.obj <= obj * (1.0 + 1e-14):
                cand = newton
            else:
                cand = _evaluate(X, weights @ X / weights.sum())
        if cand.obj <= obj * (1.0 + 1e-14):
            cur, obj = cand, min(obj, cand.obj)
            newton_steps += cand is newton
        if cur.residual <= DEFAULT_MEDIAN_TOL:
            return SpatialMedianResult(cur.mu, iterations, cur.residual, newton_steps, products), cur
    # Weiszfeld nears a data-point minimizer of multiplicity m only at rate ||R|| / m,
    # R the other signs' sum there: certify the data point nearest the last iterate
    end = _evaluate(X, X[np.argmin(cur.d)])
    hit = end.d < 1e-12
    if np.linalg.norm(end.signs[~hit].sum(axis=0)) <= hit.sum():
        return SpatialMedianResult(end.mu, iterations, end.residual, newton_steps, products), end
    raise ConvergenceError("spatial median did not reach tolerance",
                           last_iterate=cur.mu, residual=cur.residual)


def spatial_median(X):
    """Sample spatial median: the point where centered spatial signs sum to zero.

    Modified Weiszfeld iteration with the Vardi-Zhang correction when an
    iterate coincides with a data point, followed by Newton polishing once
    ||mean sign|| < 1e-4, to ||mean sign|| <= DEFAULT_MEDIAN_TOL.  The Newton
    step is solved matrix-free by conjugate gradients on the Hessian, stopped
    once the linear model predicts a residual of 1e-4 of the tolerance; a
    Newton point is kept only if it lowers the residual, otherwise Weiszfeld
    steps.  The objective sum ||x_j - mu|| never increases along the
    iteration, and each point is evaluated once, in one pass over the data.
    If the iterations run out, the data point nearest the last iterate is
    returned when it passes the Vardi-Zhang certificate; otherwise
    ConvergenceError is raised.
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
