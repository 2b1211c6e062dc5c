"""Monte Carlo harness: data generators and the two benchmark experiments.

Five sampling models are provided.  The first three are elliptical-type
models x = w * T^{1/2} z with different shape matrices T, scalar radial
factors w, and innovation laws z; the last two are contaminated normal
mixtures with a fixed number of large-amplitude outliers per sample.

The QQ experiment records the normalized trace-power statistics of the
spatial-sign covariance matrix per replicate; the shape benchmark averages
Frobenius distances of the six shape estimators over replications.  Both
return their result rows; the command line formats and writes them.

All randomness flows through a counter-based generator (Philox) keyed by
(seed, stream): each replicate draws from its own substream, so a
replicate's sample does not depend on how many replicates run or in which
order.  The experiments run their replicates serially; NumPy's BLAS
already spreads each one's linear algebra over the cores.
"""

import dataclasses
import math

import numpy as np

from .errors import SscmError, UnsupportedConfigError
from .lss_clt import ShapeContext, beta_centering, beta_moments_normal
from .shape_estimation import estimate_shape
from .sign_geometry import SampleBatch, sscm

MODEL_IDS = ("M1", "M2", "M3", "M4", "M5")

# paper-scale defaults per model
_DEFAULT_PN = {
    "M1": (400, 200),
    "M2": (400, 800),
    "M3": (400, 400),
    "M4": (200, 100),
    "M5": (200, 100),
}

P_GRID_DEFAULT = (2, 40, 80, 120, 160, 200)
N_BENCHMARK_DEFAULT = 100


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    """Sampling model identifier plus its dimension/contamination knobs."""

    id: str
    p: int = None
    n: int = None
    epsilon: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.id not in MODEL_IDS:
            raise ValueError(f"unknown model id {self.id!r}")
        dp, dn = _DEFAULT_PN[self.id]
        if self.p is None:
            object.__setattr__(self, "p", dp)
        if self.n is None:
            object.__setattr__(self, "n", dn)
        if self.p < 1 or self.n < 1:
            raise ValueError("p and n must be positive")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")
        if self.epsilon > 0.0 and self.id not in ("M4", "M5"):
            raise ValueError("epsilon applies to models M4 and M5 only")
        if self.id in ("M3", "M4", "M5") and self.p % 2:
            raise ValueError(f"model {self.id} requires even p")


def _rng(seed, stream):
    """Substream `stream` of the counter-based generator keyed by `seed`."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), int(stream)])))


def model_root(spec):
    """The model's mixing matrix A, whose shape T = A A' has trace p.

    A is the 1-d diagonal sqrt(t) for M1 (t = 1) and for the two-block
    M3-M5 (t = 1/2 on the first half, 3/2 on the second).  For M2 it is the
    dense T^{1/2} of T = (I + vv')/(1 + 1/p): sqrt(2) along the unit vector
    v drawn from substream 0 of the seed, so every replicate shares it.
    """
    p = spec.p
    if spec.id == "M1":
        return np.ones(p)
    if spec.id == "M2":
        v = _rng(spec.seed, 0).standard_normal(p)
        v /= np.linalg.norm(v)
        return (np.eye(p) + (math.sqrt(2.0) - 1.0) * np.outer(v, v)) / math.sqrt(1.0 + 1.0 / p)
    return np.sqrt(np.repeat([0.5, 1.5], p // 2))


def model_shape(spec):
    """Population shape matrix T = A A' (trace p) of the model, as a dense array."""
    A = model_root(spec)
    A = np.diag(A) if A.ndim == 1 else A
    return A @ A.T


def generate_sample(spec, replicate=0):
    """Draw one n x p sample from the model; replicate keys the substream."""
    g = _rng(spec.seed, replicate + 1)
    p, n = spec.p, spec.n
    A = model_root(spec)
    if spec.id == "M1":
        # z = chi^2_2 / 2 - 1 = Exp(1) - 1; w constant, A identity
        X = g.exponential(1.0, size=(n, p)) - 1.0
    elif spec.id == "M2":
        Y = g.standard_normal((n, p)) @ A
        w = np.where(g.random(n) < 0.5, 1.0, 0.2)
        X = w[:, None] * Y
    elif spec.id == "M3":
        # standardized Gamma(5, 2): mean 5/2, sd sqrt(5)/2
        Z = (2.0 / math.sqrt(5.0)) * (g.gamma(5.0, 0.5, size=(n, p)) - 2.5)
        w = g.beta(4.0, 2.0, size=n)
        X = w[:, None] * (Z * A)
    else:  # M4 / M5 contaminated normal, fixed outlier count
        n_out = int(math.floor(n * spec.epsilon))
        X = g.standard_normal((n, p)) * A
        if n_out:
            # outliers have shape 16 T (M4) or 16 T with the blocks swapped (M5)
            X[:n_out] = g.standard_normal((n_out, p)) * (4.0 * (A if spec.id == "M4" else A[::-1]))
    return SampleBatch(X)


# (tau, r_w) of the models that have a CLT context
_CLT_TAU_RW = {"M1": (9.0, 1.0), "M2": (3.0, 13.0 / 9.0), "M3": (4.2, 1.2)}


def model_context(spec):
    """CLT shape context matching the model's (A, tau, r_w) at its size (p, n)."""
    if spec.id not in _CLT_TAU_RW:
        raise UnsupportedConfigError(f"no CLT context for model {spec.id}")
    return ShapeContext.from_matrix(model_root(spec), spec.n, *_CLT_TAU_RW[spec.id])


def run_qq_experiment(spec, reps, tau=None):
    """Normalized trace-power statistics of the SSCM, one row per replicate.

    Returns rows (replicate, beta2_hat, beta3_hat, z2, z3) for replicates
    0, ..., reps - 1; ValueError unless reps >= 1.  `tau` overrides the
    model's fourth moment in the normalization (used to probe its effect);
    the population sign covariance and its spectrum follow at that tau.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if spec.id not in ("M1", "M2", "M3"):
        raise UnsupportedConfigError("QQ experiment covers models M1-M3 only")
    ctx = model_context(spec)
    if tau is not None:
        ctx = dataclasses.replace(ctx, tau=float(tau))
    beta2, beta3 = beta_centering(ctx)
    approx = beta_moments_normal(ctx)
    mu = approx.mean
    sd = np.sqrt(np.diag(approx.covariance))

    p = spec.p
    rows = []
    for r in range(reps):
        B = sscm(generate_sample(spec, replicate=r)).matrix
        B2 = B @ B
        b2 = float(np.trace(B2)) / p
        b3 = float(np.sum(B2 * B.T)) / p
        z2 = (p * (b2 - beta2) - mu[0]) / sd[0]
        z3 = (p * (b3 - beta3) - mu[1]) / sd[1]
        rows.append((r, b2, b3, z2, z3))
    return rows


def _benchmark_cell(spec, reps, kinds):
    T = model_shape(spec)
    sums = {k: 0.0 for k in kinds}
    counts = {k: 0 for k in kinds}
    failures = {k: 0 for k in kinds}
    for r in range(reps):
        X = generate_sample(spec, replicate=r).data
        for k in kinds:
            try:
                rep = estimate_shape(X, k, reference=T)
                sums[k] += rep.frobenius_to[1]
                counts[k] += 1
            except (SscmError, np.linalg.LinAlgError):
                failures[k] += 1
    out = []
    for k in kinds:
        mean = sums[k] / counts[k] if counts[k] else float("nan")
        out.append((spec.id, spec.epsilon, spec.p, k, mean, failures[k]))
    return out


def run_shape_benchmark(model_ids, epsilons, reps, p_grid=P_GRID_DEFAULT, n=N_BENCHMARK_DEFAULT, seed=0):
    """Mean Frobenius distance of each estimator over a (model, eps, p) grid.

    Each cell averages over replicates 0, ..., reps - 1; ValueError unless
    reps >= 1.  Tyler-based estimators (5, 6) need p < n and are skipped
    otherwise; a per-replicate estimator failure (a library error or a
    singular linear solve) is counted, not fatal; any other exception
    propagates.  Returns rows (model, epsilon, p, estimator, mean_distance,
    failures).
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    rows = []
    for mid in model_ids:
        if mid not in ("M4", "M5"):
            raise UnsupportedConfigError("shape benchmark covers models M4/M5")
        for eps in epsilons:
            for p in p_grid:
                spec = ModelSpec(mid, p=p, n=n, epsilon=eps, seed=seed)
                kinds = tuple(range(1, 7)) if p < n else (1, 2, 3, 4)
                rows += _benchmark_cell(spec, reps, kinds)
    return rows
