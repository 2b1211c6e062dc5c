"""Benchmark of the sscm package: one workload per run, metrics as JSON.

    python3 bench/run.py --workload mc_signs --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1 --save out.json

The package is imported from `src/` next to this directory; the run stops with
exit code 2 when it is not there.  After setting up (importing the package and
building the workload's inputs from the seed, done `SETUP_SAMPLES` times: once
in this process and the rest in child processes, median reported), the run
repeats the workload's fixed job for about `--seconds` seconds and at least
the workload's minimum number of repetitions, checking every job's outputs.

With `--trace 0` every job runs untraced and the last line reports the
end-to-end metrics (`END_TO_END`).  With `--trace 1` the run makes at least
`TRACE_PAIRS` pairs of one untraced and one traced job, alternating which runs
first; the last line reports the per-layer metrics (`tracing.PER_LAYER`) of
the traced job of median length, and `trace.overhead_frac` compares the traced
with the untraced job times.  The lines before the last one print each
metric with its unit, `fail_frac`, and a `detail` JSON object with the
environment, the failures and any per-layer metric whose layer was not called.

`--workload all` runs the three workloads one after another, each in its own
process so that `peak_rss_mb` is that workload's own.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent

# (end-to-end metric name, unit)
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("call_p50_ms", "ms"),
    ("call_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

SETUP_SAMPLES = 5
TRACE_PAIRS = 2


def tail_percentile(n):
    """Highest percentile, to 0.1, with at least ten of `n` samples beyond it."""
    if n < 20:
        raise ValueError("need at least 20 samples for a tail beyond the median")
    return (1000 * n - 10000) // n / 10


# -- environment -----------------------------------------------------------


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _git_revision():
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if head is None:
        return "unavailable (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    rev = _read(git / ref)
    if rev is None:
        for line in (_read(git / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                rev = line.split()[0]
    return rev or "unavailable"


def _blas():
    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        try:
            cdll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    info["env"] = {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    return info


def machine_probe_ms(repeats=15):
    """Median time of a fixed NumPy kernel that shares no code with the package.

    Taken before and after the measured jobs: it shows how fast the machine
    ran during the run, so that drift of the machine itself can be told apart
    from a change of the program when two runs are compared.
    """
    import numpy as np

    a = np.random.default_rng(0).standard_normal((120, 120))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(10):
            np.linalg.eigvalsh(a @ a.T)
        times.append(time.perf_counter() - t0)
    return 1e3 * median(times)


def environment(seed, loadavg, probe):
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_at_start": loadavg,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_revision": _git_revision(),
        "seed": seed,
        "machine_probe_ms": probe,
    }


# -- set-up ----------------------------------------------------------------


def import_package():
    """Import `sscm` from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sscm
    except ImportError as exc:
        print(f"error: cannot import sscm from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(sscm.__file__).resolve().is_relative_to(src):
        print(f"error: sscm was imported from {sscm.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    import sscm.cli  # noqa: F401  (the submodule the QQ runs go through)

    return sscm


def set_up(workload, seed, workdir):
    """Import the package and build the workload's inputs; returns (pkg, inputs, seconds)."""
    t0 = time.perf_counter()
    pkg = import_package()
    from workloads import WORKLOADS

    inputs = WORKLOADS[workload](seed, workdir, pkg)
    return pkg, inputs, time.perf_counter() - t0


def setup_probe(workload, seed):
    """Set-up time measured in a fresh process, as the main process measured its own."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


# -- measurement -----------------------------------------------------------


def run_job(pkg, inputs, tracer=None):
    """One job, then its oracles: returns (wall seconds, cpu seconds, ops)."""
    from tracing import ROOT as ROOT_SPAN, instrumented
    from workloads import Ops

    ops = Ops(inputs.KNOWN_DEFECTS)
    if tracer is None:
        c0, t0 = time.process_time(), time.perf_counter()
        out = inputs.job(pkg, ops)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    else:
        with instrumented(tracer):
            c0, t0 = time.process_time(), time.perf_counter()
            with tracer.span(ROOT_SPAN):
                out = inputs.job(pkg, ops)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    inputs.check(pkg, out, ops)
    return wall, cpu, ops


def measure(args):
    loadavg = _read("/proc/loadavg")
    workdir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    try:
        pkg, inputs, setup_main = set_up(args.workload, args.seed, workdir)
        setups = [setup_main] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        from tracing import Tracer, layer_metrics

        probe = {"start": machine_probe_ms()}
        untraced, traced = [], []
        start = time.perf_counter()
        while True:
            t_round = time.perf_counter()
            if not args.trace:
                untraced.append(run_job(pkg, inputs))
            else:
                # pairs alternate which job runs first, so that neither side
                # always gets the first, cold job
                order = (False, True) if len(traced) % 2 == 0 else (True, False)
                for with_trace in order:
                    if with_trace:
                        tracer = Tracer()
                        traced.append(run_job(pkg, inputs, tracer) + (layer_metrics(tracer.spans),))
                    else:
                        untraced.append(run_job(pkg, inputs))
            # stop before a round that would end mostly past the time budget
            now = time.perf_counter()
            enough = len(untraced) >= (TRACE_PAIRS if args.trace else inputs.min_reps)
            if enough and now - start + 0.5 * (now - t_round) >= args.seconds:
                break
        probe["end"] = machine_probe_ms()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_ops = [r[2] for r in untraced + traced]
    attempted = sum(o.attempted for o in all_ops)
    failures = [f for o in all_ops for f in o.failures]
    correct = all(known for *_, known in failures)
    walls = [r[0] for r in untraced]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(args.seed, loadavg, probe),
        "jobs": {"untraced": len(untraced), "traced": len(traced)},
        "setup_samples_s": setups,
        "wall_samples_s": walls,
        "fail_frac": len(failures) / attempted,
        "failures": _summarise(failures),
    }

    if not args.trace:
        import numpy as np

        lat_ms = [1e3 * x for r in untraced for x in r[2].latencies]
        q = tail_percentile(inputs.min_reps * len(untraced[0][2].latencies))
        metrics = {
            "setup_s": median(setups),
            "wall_s": median(walls),
            "call_p50_ms": median(lat_ms),
            "call_tail_ms": float(np.percentile(lat_ms, q)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = dict(END_TO_END)
        detail["call_tail"] = {"percentile": q, "samples": len(lat_ms)}
        notes = {"call_tail_ms": f"p{q:g} of {len(lat_ms)} calls"}
    else:
        from tracing import PER_LAYER

        # every per-layer figure comes from one job, the traced job of median
        # length, so that its self times add up to its trace.wall_s exactly
        by_length = sorted(traced, key=lambda r: r[0])
        metrics = dict(by_length[(len(by_length) - 1) // 2][3][0])
        metrics["trace.overhead_frac"] = median(r[0] for r in traced) / median(walls) - 1.0
        metrics["proc.cpu_s"] = median(r[1] for r in untraced)
        metrics["proc.cpu_per_wall"] = median(r[1] / r[0] for r in untraced)
        units = dict(PER_LAYER)
        detail["absent"] = traced[0][3][1]
        detail["accounting"] = (
            "layer.*.self_s + bench.self_s = trace.wall_s; "
            "trace.overhead_frac = median traced job / median untraced job - 1"
        )
        notes = {name: "absent: " + why for name, why in detail["absent"].items()}
        metrics = {name: metrics[name] for name, _ in PER_LAYER}

    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"{name:<56} {value:>14.6g} {units[name]:<6} {note}".rstrip())
    known = [f for f in detail["failures"] if f["known"]]
    print(f"{'fail_frac':<56} {detail['fail_frac']:>14.6g} {'ratio':<6} "
          f"{len(failures)} of {attempted} operations"
          + (f"; known defect: {known[0]['message']}" if known else ""))
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def _summarise(failures):
    return [
        {"label": label, "kind": kind, "message": message, "known": known, "count": n}
        for (label, kind, message, known), n in sorted(Counter(failures).items())
    ]


def run_all(args):
    """Each workload in its own process; the last line merges the results."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    saved = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace, "runs": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with code {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        for line in lines[:-1]:
            if not line.startswith("detail "):
                print(line)
        result = json.loads(lines[-1])
        detail = json.loads(next(line for line in lines if line.startswith("detail "))[len("detail "):])
        saved["runs"][name] = {"result": result, "detail": detail}
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(saved, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(merged), flush=True)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("mc_signs", "shape_fit", "clt_contour", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="with --workload all: also write every run's result and detail here")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        workdir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
        try:
            print(set_up(args.workload, args.seed, workdir)[2])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
