"""Tests of the benchmark's own code: tail rule, span arithmetic, metric names."""

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import ROOT, Span, Tracer, layer_metrics, self_times  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class TestTailPercentile:
    @pytest.mark.parametrize("n, q", [(20, 50.0), (78, 87.1), (100, 90.0), (144, 93.0), (900, 98.8), (1000, 99.0)])
    def test_values(self, n, q):
        assert run.tail_percentile(n) == q

    def test_at_least_ten_samples_beyond(self):
        rng = random.Random(7)
        for n in list(range(20, 400)) + [1000, 4321, 10**5]:
            q = run.tail_percentile(n)
            xs = [rng.random() for _ in range(n)]
            cut = np.percentile(xs, q)
            assert sum(x > cut for x in xs) >= 10
            # and it is the highest such percentile on the 0.1 grid
            assert n * (1.0 - (q + 0.1) / 100.0) < 10.0 + 1e-9

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            run.tail_percentile(19)


def _spans(rows):
    """rows: (name, start, end, parent index)."""
    out = []
    for name, start, end, parent in rows:
        out.append(Span(name, "bench", parent, start, end))
    return out


class TestSelfTime:
    def test_nested(self):
        spans = _spans([
            (ROOT, 0.0, 10.0, None),
            ("a.f", 1.0, 5.0, 0),
            ("b.g", 2.0, 3.0, 1),
            ("b.g", 3.5, 4.0, 1),
            ("a.f", 6.0, 9.0, 0),
        ])
        assert self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 0.5, 3.0])
        assert sum(self_times(spans)) == pytest.approx(10.0)

    def test_overlapping_and_overhanging_children_counted_once(self):
        spans = _spans([
            ("x.p", 0.0, 4.0, None),
            ("x.c", 1.0, 3.0, 0),
            ("x.c", 2.0, 5.0, 0),  # overlaps the first child and overhangs the parent
        ])
        assert self_times(spans)[0] == pytest.approx(1.0)

    def test_tracer_spans_account_for_root(self):
        tracer = Tracer()
        inner = tracer.wrap(lambda: sum(range(1000)), "a.inner", "a")
        outer = tracer.wrap(lambda: [inner() for _ in range(3)], "a.outer", "bench")
        with tracer.span(ROOT):
            outer()
        spans = tracer.spans
        assert [s.name for s in spans] == [ROOT, "a.outer", "a.inner", "a.inner", "a.inner"]
        assert [s.parent for s in spans] == [None, 0, 1, 1, 1]
        root = spans[0].end - spans[0].start
        assert sum(self_times(spans)) == pytest.approx(root, rel=1e-9, abs=1e-12)

    def test_failed_call_is_recorded_and_reraised(self):
        tracer = Tracer()

        def boom():
            raise KeyError("x")

        with pytest.raises(KeyError):
            tracer.wrap(boom, "a.boom", "bench")()
        assert tracer.spans[0].error == "KeyError"


class TestMetricNames:
    def test_end_to_end_names_match_benchmark_json(self):
        assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)

    def test_per_layer_names_match_benchmark_json(self):
        assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)

    def test_workload_names_match_benchmark_json(self):
        from workloads import WORKLOADS

        assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)

    def test_layer_metrics_emit_every_traced_name(self):
        spans = _spans([
            (ROOT, 0.0, 1.0, None),
            ("mp_law.solve_stieltjes_grid", 0.1, 0.2, 0),
        ])
        spans[1].attrs = {"points": 8}
        metrics, absent = layer_metrics(spans)
        measured_by_caller = {"trace.overhead_frac", "proc.cpu_s", "proc.cpu_per_wall"}
        assert set(metrics) | measured_by_caller == {name for name, _ in tracing.PER_LAYER}
        assert metrics["mp_law.solve_stieltjes_grid.us_per_point"] == pytest.approx(1e6 * 0.1 / 8)
        assert metrics["layer.mp_law.self_s"] + metrics["bench.self_s"] == pytest.approx(metrics["trace.wall_s"])
        assert "mp_law.solve_stieltjes_grid.points" not in absent
        assert absent["sign_geometry.spatial_median.calls"] == "not called on this workload"

    def test_layer_metrics_of_every_module_present(self):
        names = {name for name, _ in tracing.PER_LAYER}
        required = [
            "sign_geometry.spatial_median.{calls,busy_s,p50_ms,iters_mean}",
            "sign_geometry.sscm.{calls,self_s,gflop}",
            "mp_law.solve_stieltjes_grid.{calls,points,busy_s,us_per_point}",
            "mp_law.lsd_density.{calls,points}",
            "mp_law.{lsd_support,lsd_moments}.busy_s",
            "lss_clt.lss_normal_approx.{iso,diag,dense3}.busy_s",
            "lss_clt.lss_normal_approx.{self_s,points_per_job}",
            "lss_clt.{cov_kernel,mean_kernel}.{diag,dense}.p50_ms",
            "lss_clt.beta_moments_normal.busy_s",
            "sphericity.{frobenius,kl}.{calls,busy_s}",
            "shape_estimation.estimate_shape.{T1,T2,T3,T4,T5,T6}.{p50_ms,fail}",
            "shape_estimation.tyler_m_estimator.{calls,busy_s,iters_mean}",
            "shape_estimation.{select_num_atoms,moment_method_psd}.{calls,busy_s}",
            "shape_estimation.moment_method_psd.fits_per_selection",
            "shape_estimation.sscm.busy_s",
            "simulation.generate_sample.{calls,busy_s}",
            "simulation.run_qq_experiment.self_s",
            "cli.main.self_s",
            "proc.{cpu_s,cpu_per_wall}",
            "trace.overhead_frac",
        ]
        missing = [name for pattern in required for name in _expand(pattern) if name not in names]
        assert missing == []


def _expand(pattern):
    """All names a brace pattern such as "a.{b,c}.d" stands for."""
    if "{" not in pattern:
        return [pattern]
    head, rest = pattern.split("{", 1)
    options, tail = rest.split("}", 1)
    return [name for option in options.split(",") for name in _expand(head + option + tail)]
