"""Command-line interface exposing the library as subcommands.

Exit codes: 0 on success, 1 on a usage error, 2 on a numeric or convergence
failure.  Diagnostics go to standard error; results (JSON, or CSV for
simulate) go to standard output or to the file named by --output.  This
module is the only one that formats or writes results.  Every run emits one
manifest schema, {command, config, versions} plus the experiment spec for
simulate: next to the output file as <output>.manifest.json when one is
written, otherwise on standard error as {"manifest": ...}.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .errors import ConvergenceError, NumericError, SscmError, UnsupportedConfigError
from .lss_clt import ShapeContext, beta_moments_normal, lss_normal_approx
from .mp_law import (
    DiscreteMeasure,
    SpectralModel,
    lsd_moments,
    lsd_support,
    solve_stieltjes,
)
from .shape_estimation import estimate_shape
from .sign_geometry import SampleBatch, estimate_rw, sscm
from .simulation import MODEL_IDS, ModelSpec, RunConfig, run_qq_experiment, run_shape_benchmark
from .sphericity import frobenius_sphericity_test, kl_sphericity_test


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures map to exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def parse_complex(text):
    """Parse the command-line complex form a+bi (also plain reals and bi)."""
    s = text.strip().replace(" ", "")
    try:
        return complex(s.replace("i", "j"))
    except ValueError:
        raise _UsageError(f"cannot parse complex number {text!r}")


def format_complex(z):
    return "%.17g%+.17gi" % (z.real, z.imag)


def _parse_measure(text):
    try:
        atoms = json.loads(text)
        return DiscreteMeasure(tuple((float(v), float(w)) for v, w in atoms))
    except (ValueError, TypeError) as exc:
        raise _UsageError(f"bad measure {text!r}: {exc}")


def _resolve_seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SSCM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"SSCM_SEED must be an integer, got {env!r}")
    return 0


# (header, row format) of the CSV output of each simulate experiment
QQ_CSV = ("replicate,beta2_hat,beta3_hat,z2_normalized,z3_normalized", "%d,%.17g,%.17g,%.17g,%.17g")
BENCHMARK_CSV = ("model,epsilon,p,estimator,mean_frobenius_distance,failures", "%s,%.17g,%d,%d,%.17g,%d")


def _json(payload):
    """Writer of a JSON result."""
    return lambda fh: fh.write(json.dumps(payload, indent=2) + "\n")


def _csv(layout, rows):
    """Writer of an experiment's rows in its CSV layout."""
    header, row = layout
    return lambda fh: fh.writelines([header + "\n"] + [row % values + "\n" for values in rows])


def _emit(write, args, manifest):
    """Run write(fh) on the --output file, with the manifest beside it, or on
    standard output, with the manifest on standard error."""
    if args.output:
        with open(args.output, "w") as fh:
            write(fh)
        with open(args.output + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    else:
        write(sys.stdout)
        print(json.dumps({"manifest": manifest}), file=sys.stderr)


def _manifest(args, **extra):
    """The subcommand, its resolved arguments and the library versions, plus `extra`."""
    return {
        "command": args.subcommand,
        "config": {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "subcommand")},
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__},
        **extra,
    }


def _cmd_mp_solve(args):
    model = SpectralModel(args.c, _parse_measure(args.H))
    pairs = []
    for ztext in args.z:
        z = parse_complex(ztext)
        pair = solve_stieltjes(model, z)
        pairs.append(
            {
                "z": format_complex(z),
                "m": format_complex(pair.m),
                "m_under": format_complex(pair.m_under),
                "m_under_prime": format_complex(pair.m_under_prime),
            }
        )
    payload = pairs[0] if len(pairs) == 1 else pairs
    extra = {}
    if args.support:
        extra["support"] = [list(iv) for iv in lsd_support(model)]
    if args.moments:
        extra["moments"] = lsd_moments(model, args.moments)
    if extra:
        payload = {"stieltjes": payload, **extra}
    _emit(_json(payload), args, _manifest(args))
    return 0


def _context_from_args(args):
    if args.shape is None:
        return ShapeContext.isotropic(args.p, args.n, tau=args.tau, r_w=args.rw)
    H = _parse_measure(args.shape)
    from .shape_estimation import expand_spectrum

    t_diag = expand_spectrum(H, args.p)
    return ShapeContext.from_diagonal_shape(t_diag, args.n, tau=args.tau, r_w=args.rw)


def _cmd_clt_moments(args):
    ctx = _context_from_args(args)
    powers = [int(k) for k in args.powers.split(",")]
    if args.method == "closed":
        approx = beta_moments_normal(ctx, powers)
    else:
        fs = [(lambda x, k=k: x**k) for k in powers]
        approx = lss_normal_approx(ctx, fs)
    payload = {"mean": approx.mean.tolist(), "cov": approx.covariance.tolist(),
               "nodes": approx.nodes, "quad_error": approx.quad_error}
    _emit(_json(payload), args, _manifest(args))
    return 0


def _cmd_sphericity(args):
    batch = SampleBatch.from_csv(args.input)
    if args.center == "zero":
        result = sscm(batch, center=np.zeros(batch.data.shape[1]))
        mu = np.zeros(batch.data.shape[1])
    else:
        result = sscm(batch)
        mu = result.median_result.median
    if args.rw is not None:
        r_w, source = args.rw, "supplied"
    else:
        r_w, source = estimate_rw(batch.data, mu), "estimated"
    n = batch.data.shape[0]
    if args.test == "frobenius":
        report = frobenius_sphericity_test(result, n, r_w, r_w_source=source)
    else:
        report = kl_sphericity_test(result, n, r_w, r_w_source=source)
    _emit(_json(dataclasses.asdict(report)), args, _manifest(args))
    return 0


def _cmd_shape_estimate(args):
    batch = SampleBatch.from_csv(args.input)
    report = estimate_shape(
        batch.data, args.estimator, num_atoms=args.num_atoms, tau=args.tau
    )
    payload = {
        "estimator": report.kind.value,
        "spectrum": [float(v) for v in report.spectrum],
        "iterations": report.iterations,
        "num_atoms": report.num_atoms,
    }
    if args.matrix_output:
        np.savetxt(args.matrix_output, report.T_hat, delimiter=",", fmt="%.17g")
        payload["matrix_path"] = args.matrix_output
    _emit(_json(payload), args, _manifest(args))
    return 0


def _cmd_simulate(args):
    args.seed = _resolve_seed(args)
    cfg = RunConfig(args.reps, workers=args.workers)
    if args.model in ("M1", "M2", "M3"):
        model = ModelSpec(args.model, p=args.p, n=args.n, seed=args.seed)
        rows, layout = run_qq_experiment(model, cfg, tau=args.tau), QQ_CSV
        spec = dataclasses.asdict(model)
    else:
        spec = {
            "models": [args.model],
            "epsilons": [float(e) for e in args.epsilon.split(",")],
            "p_grid": [int(p) for p in args.p_grid.split(",")],
            "n": args.n or 100,
            "seed": args.seed,
        }
        rows = run_shape_benchmark(
            spec["models"], spec["epsilons"], cfg, p_grid=spec["p_grid"], n=spec["n"], seed=args.seed
        )
        layout = BENCHMARK_CSV
    _emit(_csv(layout, rows), args, _manifest(args, spec=spec))
    return 0


def build_parser():
    parser = _Parser(prog="sscm", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("mp-solve", help="solve the limiting-law Stieltjes transform")
    p.add_argument("--c", type=float, required=True, help="dimension-to-sample ratio")
    p.add_argument("--H", required=True, help='population measure as JSON atoms [[value,weight],...]')
    p.add_argument("--z", action="append", required=True, help="evaluation point a+bi (repeatable)")
    p.add_argument("--support", action="store_true", help="also report the support intervals")
    p.add_argument("--moments", type=int, default=0, help="also report the first K moments")
    p.add_argument("--output", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_mp_solve)

    p = sub.add_parser("clt-moments", help="normal approximation for SSCM trace statistics")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", type=float, default=3.0, help="innovation fourth moment")
    p.add_argument("--rw", type=float, default=1.0, help="radial weight ratio r_w")
    p.add_argument("--shape", help="diagonal shape spectrum as JSON atoms (default identity)")
    p.add_argument("--method", choices=("closed", "contour"), default="closed")
    p.add_argument("--powers", default="2,3", help="trace powers k of the statistics tr(B^k)")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_clt_moments)

    p = sub.add_parser("sphericity", help="robust sphericity test from a CSV sample")
    p.add_argument("--input", required=True, help="CSV sample, one observation per row")
    p.add_argument("--test", choices=("frobenius", "kl"), required=True)
    p.add_argument("--rw", type=float, help="radial weight ratio; estimated when omitted")
    p.add_argument("--center", choices=("estimate", "zero"), default="estimate")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_sphericity)

    p = sub.add_parser("shape-estimate", help="shape-matrix estimate from a CSV sample")
    p.add_argument("--input", required=True)
    p.add_argument("--estimator", type=int, choices=range(1, 7), required=True)
    p.add_argument("--num-atoms", type=int, choices=(1, 2, 3), dest="num_atoms")
    p.add_argument("--tau", type=float, default=3.0)
    p.add_argument("--matrix-output", dest="matrix_output", help="write the full matrix as CSV here")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_shape_estimate)

    p = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    p.add_argument("--model", choices=MODEL_IDS, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, help="defaults to SSCM_SEED, then 0")
    p.add_argument("--p", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--tau", type=float, help="QQ: normalize at this E z^4 instead of the model's")
    p.add_argument("--epsilon", default="0,0.01", help="contamination grid for M4/M5")
    p.add_argument("--p-grid", dest="p_grid", default="2,40,80,120,160,200")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--output", help="CSV path; manifest written alongside")
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConvergenceError, NumericError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, UnsupportedConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
