"""CLT for linear spectral statistics of the sign covariance matrix.

Runs the Monte Carlo QQ experiment for the heavy-tailed isotropic model M1:
normalized second and third spectral moments of the SSCM should be standard
normal in the p/n -> c regime.  The closed-form mean/covariance used for the
normalization are printed alongside the empirical moments.
Run with:  python demos/02_clt_qq_experiment.py
"""

import numpy as np
from scipy import stats

from sscm import ModelSpec, beta_moments_normal, model_context, run_qq_experiment

spec = ModelSpec(id="M1", p=200, n=100, seed=11)
ctx = model_context(spec)

approx = beta_moments_normal(ctx)
print("limiting normal approximation for (beta_2, beta_3):")
print("  mean:", np.round(approx.mean, 6))
print("  cov :\n", np.round(approx.covariance, 6))

rows = run_qq_experiment(spec, reps=500)
z2 = np.array([r[3] for r in rows])
z3 = np.array([r[4] for r in rows])

for name, z in (("z2", z2), ("z3", z3)):
    ks = stats.kstest(z, "norm")
    print(
        f"{name}: mean {z.mean():+.4f}  var {z.var(ddof=1):.4f}  "
        f"KS vs N(0,1) p-value {ks.pvalue:.3f}"
    )

# Quantile-quantile table against the standard normal.
qs = np.array([0.05, 0.25, 0.5, 0.75, 0.95])
print("\nquantile   N(0,1)     z2        z3")
for q, t, a, b in zip(qs, stats.norm.ppf(qs), np.quantile(z2, qs), np.quantile(z3, qs)):
    print(f"  {q:.2f}   {t:+8.4f}  {a:+8.4f}  {b:+8.4f}")
