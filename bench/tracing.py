"""Spans around the package's public functions, installed from outside.

The tracer wraps each function named in `TARGETS` on every module attribute
that is bound to it (for example `sscm.simulation.sscm`, the name the
simulation module uses for `sign_geometry.sscm`), records one span per call
(name, calling module, start, end, parent) in memory, and restores the
original bindings when it is removed.  The package's source is not changed.

`layer_metrics` turns the spans of one traced job into the per-layer metrics
named in `PER_LAYER`.  A span's self time is its duration minus the part of
it that its child spans cover, so the self times of all spans under the job's
root span add up to the root's duration.
"""

import math
import sys
from contextlib import contextmanager
from statistics import median
from time import perf_counter

LAYERS = ("sign_geometry", "mp_law", "lss_clt", "sphericity", "shape_estimation", "simulation", "cli")

ROOT = "bench.job"

# (per-layer metric name, unit); the order is the order of the report.
PER_LAYER = (
    [
        ("sign_geometry.spatial_median.calls", "count"),
        ("sign_geometry.spatial_median.busy_s", "s"),
        ("sign_geometry.spatial_median.p50_ms", "ms"),
        ("sign_geometry.spatial_median.iters_mean", "count"),
        ("sign_geometry.sscm.calls", "count"),
        ("sign_geometry.sscm.self_s", "s"),
        ("sign_geometry.sscm.gflop", "Gflop"),
        ("mp_law.solve_stieltjes_grid.calls", "count"),
        ("mp_law.solve_stieltjes_grid.points", "count"),
        ("mp_law.solve_stieltjes_grid.busy_s", "s"),
        ("mp_law.solve_stieltjes_grid.us_per_point", "us"),
        ("mp_law.lsd_density.calls", "count"),
        ("mp_law.lsd_density.points", "count"),
        ("mp_law.lsd_support.busy_s", "s"),
        ("mp_law.lsd_moments.busy_s", "s"),
        ("lss_clt.lss_normal_approx.iso.busy_s", "s"),
        ("lss_clt.lss_normal_approx.diag.busy_s", "s"),
        ("lss_clt.lss_normal_approx.dense3.busy_s", "s"),
        ("lss_clt.lss_normal_approx.self_s", "s"),
        ("lss_clt.lss_normal_approx.points_per_job", "count"),
        ("lss_clt.cov_kernel.diag.p50_ms", "ms"),
        ("lss_clt.cov_kernel.dense.p50_ms", "ms"),
        ("lss_clt.mean_kernel.diag.p50_ms", "ms"),
        ("lss_clt.mean_kernel.dense.p50_ms", "ms"),
        ("lss_clt.beta_moments_normal.busy_s", "s"),
        ("sphericity.frobenius.calls", "count"),
        ("sphericity.frobenius.busy_s", "s"),
        ("sphericity.kl.calls", "count"),
        ("sphericity.kl.busy_s", "s"),
    ]
    + [(f"shape_estimation.estimate_shape.T{k}.p50_ms", "ms") for k in range(1, 7)]
    + [(f"shape_estimation.estimate_shape.T{k}.fail", "count") for k in range(1, 7)]
    + [
        ("shape_estimation.tyler_m_estimator.calls", "count"),
        ("shape_estimation.tyler_m_estimator.busy_s", "s"),
        ("shape_estimation.tyler_m_estimator.iters_mean", "count"),
        ("shape_estimation.select_num_atoms.calls", "count"),
        ("shape_estimation.select_num_atoms.busy_s", "s"),
        ("shape_estimation.moment_method_psd.calls", "count"),
        ("shape_estimation.moment_method_psd.busy_s", "s"),
        ("shape_estimation.moment_method_psd.fits_per_selection", "ratio"),
        ("shape_estimation.sscm.busy_s", "s"),
        ("simulation.generate_sample.calls", "count"),
        ("simulation.generate_sample.busy_s", "s"),
        ("simulation.run_qq_experiment.self_s", "s"),
        ("cli.main.self_s", "s"),
    ]
    + [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("bench.self_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_frac", "ratio"),
        ("proc.cpu_s", "s"),
        ("proc.cpu_per_wall", "ratio"),
    ]
)


# -- what each span records -------------------------------------------------


def _data_shape(args, kwargs, result):
    X = getattr(args[0], "data", args[0])
    n, p = X.shape
    return {"n": n, "p": p}


def _median_iterations(args, kwargs, result):
    return {"iters": result.iterations}


def _tyler_iterations(args, kwargs, result):
    return {"iters": result[1]}


def _points(args, kwargs, result):
    # solve_stieltjes_grid(model, zs) and lsd_density(model, x)
    return {"points": math.prod(getattr(args[1], "shape", ())) if len(args) > 1 else 1}


def _context_variant(args, kwargs):
    ctx = args[0] if args else kwargs["ctx"]
    if not ctx.diagonal:
        return "dense3" if ctx.tau == 3.0 else "dense"
    return "iso" if len(ctx.H_p.atoms) == 1 else "diag"


def _diag_variant(args, kwargs):
    ctx = args[0] if args else kwargs["ctx"]
    return "diag" if ctx.diagonal else "dense"


def _kind_variant(args, kwargs):
    kind = args[1] if len(args) > 1 else kwargs["kind"]
    return "T%d" % getattr(kind, "value", kind)


# (module, attribute, span name, variant, attrs).  A dotted attribute is a
# static method of a class in that module.  Besides the functions the
# per-layer metrics name, the list holds every function one layer calls in
# another (the ShapeContext constructors, beta_centering), so that self time
# is charged to the layer that spends it.
TARGETS = (
    ("sign_geometry", "spatial_median", "sign_geometry.spatial_median", None, _median_iterations),
    ("sign_geometry", "sscm", "sign_geometry.sscm", None, _data_shape),
    ("mp_law", "solve_stieltjes_grid", "mp_law.solve_stieltjes_grid", None, _points),
    ("mp_law", "lsd_density", "mp_law.lsd_density", None, _points),
    ("mp_law", "lsd_support", "mp_law.lsd_support", None, None),
    ("mp_law", "lsd_moments", "mp_law.lsd_moments", None, None),
    ("lss_clt", "ShapeContext.isotropic", "lss_clt.ShapeContext.isotropic", None, None),
    ("lss_clt", "ShapeContext.from_diagonal_shape", "lss_clt.ShapeContext.from_diagonal_shape", None, None),
    ("lss_clt", "ShapeContext.from_matrix", "lss_clt.ShapeContext.from_matrix", None, None),
    ("lss_clt", "lss_normal_approx", "lss_clt.lss_normal_approx", _context_variant, None),
    ("lss_clt", "cov_kernel", "lss_clt.cov_kernel", _diag_variant, None),
    ("lss_clt", "mean_kernel", "lss_clt.mean_kernel", _diag_variant, None),
    ("lss_clt", "beta_moments_normal", "lss_clt.beta_moments_normal", None, None),
    ("lss_clt", "beta_centering", "lss_clt.beta_centering", None, None),
    ("sphericity", "frobenius_sphericity_test", "sphericity.frobenius", None, None),
    ("sphericity", "kl_sphericity_test", "sphericity.kl", None, None),
    ("shape_estimation", "estimate_shape", "shape_estimation.estimate_shape", _kind_variant, None),
    ("shape_estimation", "tyler_m_estimator", "shape_estimation.tyler_m_estimator", None, _tyler_iterations),
    ("shape_estimation", "select_num_atoms", "shape_estimation.select_num_atoms", None, None),
    ("shape_estimation", "moment_method_psd", "shape_estimation.moment_method_psd", None, None),
    ("simulation", "generate_sample", "simulation.generate_sample", None, None),
    ("simulation", "run_qq_experiment", "simulation.run_qq_experiment", None, None),
    ("cli", "main", "cli.main", None, None),
)


class Span:
    __slots__ = ("name", "site", "start", "end", "parent", "attrs", "error")

    def __init__(self, name, site, parent, start=0.0, end=0.0):
        self.name = name
        self.site = site
        self.parent = parent  # index into Tracer.spans, or None for a root
        self.start = start
        self.end = end
        self.attrs = None
        self.error = None


class Tracer:
    """In-memory span recorder for one thread of calls."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name, site):
        span = Span(name, site, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span):
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, site="bench"):
        span = self._open(name, site)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name, site, variant=None, attrs=None):
        def traced(*args, **kwargs):
            span = self._open(name if variant is None else f"{name}.{variant(args, kwargs)}", site)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced


@contextmanager
def instrumented(tracer, package="sscm"):
    """Route every binding of each target function through `tracer`.

    A binding in the package's top-level namespace is the one the benchmark
    calls, so its spans get the calling site "bench"; a binding in a
    submodule gets that submodule's name as the site.
    """
    modules = {
        name: mod
        for name, mod in list(sys.modules.items())
        if name == package or name.startswith(package + ".")
    }
    restore = []
    try:
        for module, attr, name, variant, attrs in TARGETS:
            mod = modules[f"{package}.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                wrapped = tracer.wrap(original.__func__, name, module, variant, attrs)
                setattr(cls, meth, staticmethod(wrapped))
                restore.append((cls, meth, original))
                continue
            fn = getattr(mod, attr)
            for mod_name, site_mod in modules.items():
                site = mod_name[len(package) + 1:] or "bench"
                for key, value in list(vars(site_mod).items()):
                    if value is fn:
                        setattr(site_mod, key, tracer.wrap(fn, name, site, variant, attrs))
                        restore.append((site_mod, key, fn))
        yield tracer
    finally:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)


# -- span arithmetic --------------------------------------------------------


def self_times(spans):
    """Self time of each span: its duration minus the union of its children.

    `spans` is a sequence of objects with start, end and parent (index of the
    parent span or None).  Child intervals are clipped to the parent's.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def _ancestors(spans, i):
    p = spans[i].parent
    while p is not None:
        yield p
        p = spans[p].parent


def layer_metrics(spans):
    """Per-layer metrics of one traced job whose root span is `ROOT`.

    Returns (metrics, absent): every name in PER_LAYER except the process and
    overhead figures, which the caller measures; `absent` maps the names whose
    layer was not called in this job to the reason.
    """
    selfs = self_times(spans)
    idx = {}
    for i, s in enumerate(spans):
        idx.setdefault(s.name, []).append(i)

    def dur(i):
        return spans[i].end - spans[i].start

    def pick(name, prefix=False):
        if prefix:
            return [i for key, ids in idx.items() if key == name or key.startswith(name + ".") for i in ids]
        return idx.get(name, [])

    def calls(name, prefix=False):
        return len(pick(name, prefix))

    def busy(name, site=None):
        # outermost spans only, so a nested call of the same name is not counted twice
        ids = pick(name)
        same = set(ids)
        return sum(
            dur(i)
            for i in ids
            if (site is None or spans[i].site == site)
            and not any(a in same for a in _ancestors(spans, i))
        )

    def self_s(name, prefix=False):
        return sum(selfs[i] for i in pick(name, prefix))

    def p50_ms(name):
        ids = pick(name)
        return 1e3 * median(dur(i) for i in ids) if ids else 0.0

    def attr_sum(name, key):
        return sum(spans[i].attrs[key] for i in pick(name) if spans[i].attrs)

    def mean_attr(name, key):
        n = calls(name)
        return attr_sum(name, key) / n if n else 0.0

    roots = [i for i, s in enumerate(spans) if s.name == ROOT]
    if len(roots) != 1:
        raise ValueError("expected exactly one root span %r, found %d" % (ROOT, len(roots)))
    wall = dur(roots[0])

    m = {}
    sm = "sign_geometry.spatial_median"
    m[sm + ".calls"] = calls(sm)
    m[sm + ".busy_s"] = busy(sm)
    m[sm + ".p50_ms"] = p50_ms(sm)
    m[sm + ".iters_mean"] = mean_attr(sm, "iters")
    ss = "sign_geometry.sscm"
    m[ss + ".calls"] = calls(ss)
    m[ss + ".self_s"] = self_s(ss)
    m[ss + ".gflop"] = sum(2.0 * a["n"] * a["p"] ** 2 for a in (spans[i].attrs for i in pick(ss)) if a) / 1e9

    sg = "mp_law.solve_stieltjes_grid"
    points = attr_sum(sg, "points")
    m[sg + ".calls"] = calls(sg)
    m[sg + ".points"] = points
    m[sg + ".busy_s"] = busy(sg)
    m[sg + ".us_per_point"] = 1e6 * busy(sg) / points if points else 0.0
    m["mp_law.lsd_density.calls"] = calls("mp_law.lsd_density")
    m["mp_law.lsd_density.points"] = attr_sum("mp_law.lsd_density", "points")
    m["mp_law.lsd_support.busy_s"] = busy("mp_law.lsd_support")
    m["mp_law.lsd_moments.busy_s"] = busy("mp_law.lsd_moments")

    lna = "lss_clt.lss_normal_approx"
    for variant in ("iso", "diag", "dense3"):
        m[f"{lna}.{variant}.busy_s"] = busy(f"{lna}.{variant}")
    m[lna + ".self_s"] = self_s(lna, prefix=True)
    in_lna = set(pick(lna, prefix=True))
    m[lna + ".points_per_job"] = sum(
        spans[i].attrs["points"]
        for i in pick(sg)
        if spans[i].attrs and any(a in in_lna for a in _ancestors(spans, i))
    )
    for kernel in ("cov_kernel", "mean_kernel"):
        for variant in ("diag", "dense"):
            m[f"lss_clt.{kernel}.{variant}.p50_ms"] = p50_ms(f"lss_clt.{kernel}.{variant}")
    m["lss_clt.beta_moments_normal.busy_s"] = busy("lss_clt.beta_moments_normal")

    for test in ("frobenius", "kl"):
        m[f"sphericity.{test}.calls"] = calls(f"sphericity.{test}")
        m[f"sphericity.{test}.busy_s"] = busy(f"sphericity.{test}")

    es = "shape_estimation.estimate_shape"
    for k in range(1, 7):
        m[f"{es}.T{k}.p50_ms"] = p50_ms(f"{es}.T{k}")
    for k in range(1, 7):
        m[f"{es}.T{k}.fail"] = sum(1 for i in pick(f"{es}.T{k}") if spans[i].error)
    ty = "shape_estimation.tyler_m_estimator"
    m[ty + ".calls"] = calls(ty)
    m[ty + ".busy_s"] = busy(ty)
    m[ty + ".iters_mean"] = mean_attr(ty, "iters")
    sna, mm = "shape_estimation.select_num_atoms", "shape_estimation.moment_method_psd"
    m[sna + ".calls"] = calls(sna)
    m[sna + ".busy_s"] = busy(sna)
    m[mm + ".calls"] = calls(mm)
    m[mm + ".busy_s"] = busy(mm)
    m[mm + ".fits_per_selection"] = calls(mm) / calls(sna) if calls(sna) else 0.0
    m["shape_estimation.sscm.busy_s"] = busy(ss, site="shape_estimation")

    m["simulation.generate_sample.calls"] = calls("simulation.generate_sample")
    m["simulation.generate_sample.busy_s"] = busy("simulation.generate_sample")
    m["simulation.run_qq_experiment.self_s"] = self_s("simulation.run_qq_experiment")
    m["cli.main.self_s"] = self_s("cli.main")

    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(
            selfs[i] for i, s in enumerate(spans) if s.name.split(".", 1)[0] == layer
        )
    m["bench.self_s"] = selfs[roots[0]]
    m["trace.wall_s"] = wall

    def called(metric):
        base = metric.rsplit(".", 1)[0]
        if base.startswith("layer."):
            layer = base.split(".")[1]
            return any(s.name.startswith(layer + ".") for s in spans)
        if base == "shape_estimation.sscm":
            return any(spans[i].site == "shape_estimation" for i in pick(ss))
        return calls(base, prefix=True) > 0

    absent = {
        name: "not called on this workload"
        for name, _ in PER_LAYER
        if name.split(".", 1)[0] in LAYERS + ("layer",) and not called(name)
    }
    return m, absent
