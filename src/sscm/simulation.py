"""Monte Carlo harness: data generators and the two benchmark experiments.

Five sampling models are provided.  The first three are elliptical-type
models x = w * T^{1/2} z with different shape matrices T, scalar radial
factors w, and innovation laws z; the last two are contaminated normal
mixtures with a fixed number of large-amplitude outliers per sample.

The QQ experiment records the normalized trace-power statistics of the
spatial-sign covariance matrix per replicate; the shape benchmark averages
Frobenius distances of the six shape estimators over replications.

All randomness flows through a counter-based generator (Philox) keyed by
(seed, stream), so results are independent of worker count and replicate
scheduling.
"""

import dataclasses
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor

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

    def to_dict(self):
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Replication count, parallelism, and output location for a run."""

    replications: int
    workers: int = 1
    output_path: str = None

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


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


# (header, row format) of the CSV output of each experiment
QQ_CSV = ("replicate,beta2_hat,beta3_hat,z2_normalized,z3_normalized", "%d,%.17g,%.17g,%.17g,%.17g")
BENCHMARK_CSV = ("model,epsilon,p,estimator,mean_frobenius_distance,failures", "%s,%.17g,%d,%d,%.17g,%d")


def write_csv(fh, layout, rows):
    """Write an experiment's rows to an open text stream in its CSV layout."""
    header, row = layout
    fh.write(header + "\n")
    for values in rows:
        fh.write(row % values + "\n")


def _save(cfg, layout, rows, spec_info, extra):
    import scipy

    with open(cfg.output_path, "w") as fh:
        write_csv(fh, layout, rows)
    manifest = {
        "spec": spec_info,
        "config": {"replications": cfg.replications, "workers": cfg.workers},
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        **extra,
    }
    with open(str(cfg.output_path) + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _qq_replicate(args):
    spec, r = args
    X = generate_sample(spec, replicate=r)
    B = sscm(X).matrix
    p = spec.p
    B2 = B @ B
    b2 = float(np.trace(B2)) / p
    b3 = float(np.sum(B2 * B.T)) / p
    return r, b2, b3


def run_qq_experiment(spec, cfg, tau=None):
    """Normalized trace-power statistics of the SSCM, one row per replicate.

    Returns the result rows; when cfg.output_path is set, also writes them
    as CSV together with a JSON manifest.  `tau` overrides the model's
    fourth moment in the normalization (used to probe its effect); the
    population sign covariance and its spectrum follow at that tau.
    """
    if spec.id not in ("M1", "M2", "M3"):
        raise UnsupportedConfigError("QQ experiment covers models M1-M3 only")
    ctx = model_context(spec)
    if tau is not None:
        ctx = dataclasses.replace(ctx, tau=float(tau))
    beta2, beta3 = beta_centering(ctx)
    approx = beta_moments_normal(ctx)
    mu = approx.mean
    sd = np.sqrt(np.diag(approx.covariance))

    tasks = [(spec, r) for r in range(cfg.replications)]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as ex:
            results = list(ex.map(_qq_replicate, tasks, chunksize=8))
    else:
        results = [_qq_replicate(t) for t in tasks]
    results.sort(key=lambda row: row[0])

    p = spec.p
    rows = []
    for r, b2, b3 in results:
        z2 = (p * (b2 - beta2) - mu[0]) / sd[0]
        z3 = (p * (b3 - beta3) - mu[1]) / sd[1]
        rows.append((r, b2, b3, z2, z3))

    if cfg.output_path is not None:
        _save(cfg, QQ_CSV, rows, spec.to_dict(), {"experiment": "qq", "tau_override": tau})
    return rows


def _benchmark_cell(args):
    spec, reps, kinds = args
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


def run_shape_benchmark(model_ids, epsilons, cfg, p_grid=P_GRID_DEFAULT, n=100, seed=0):
    """Mean Frobenius distance of each estimator over a (model, eps, p) grid.

    Tyler-based estimators (5, 6) need p < n and are skipped otherwise;
    a per-replicate estimator failure (a library error or a singular linear
    solve) is counted, not fatal; any other exception propagates.
    Returns rows (model, epsilon, p, estimator, mean_distance, failures).
    """
    cells = []
    for mid in model_ids:
        if mid not in ("M4", "M5"):
            raise UnsupportedConfigError("shape benchmark covers models M4/M5")
        for eps in epsilons:
            for p in p_grid:
                spec = ModelSpec(mid, p=p, n=n, epsilon=eps, seed=seed)
                kinds = tuple(range(1, 7)) if p < n else (1, 2, 3, 4)
                cells.append((spec, cfg.replications, kinds))
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as ex:
            per_cell = list(ex.map(_benchmark_cell, cells))
    else:
        per_cell = [_benchmark_cell(c) for c in cells]
    rows = [row for cell in per_cell for row in cell]

    if cfg.output_path is not None:
        spec_info = {
            "models": list(model_ids),
            "epsilons": list(epsilons),
            "p_grid": list(p_grid),
            "n": n,
            "seed": seed,
        }
        _save(cfg, BENCHMARK_CSV, rows, spec_info, {"experiment": "shape-benchmark"})
    return rows
