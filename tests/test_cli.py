"""End-to-end tests for the command-line interface."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import sscm as package
from sscm.cli import format_complex, main, parse_complex
from sscm.lss_clt import ShapeContext, beta_moments_normal, lss_normal_approx
from sscm.mp_law import DiscreteMeasure, SpectralModel, solve_stieltjes
from sscm.sign_geometry import SampleBatch, estimate_rw, sscm
from sscm.simulation import ModelSpec
from sscm.sphericity import frobenius_sphericity_test, kl_sphericity_test


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_loads_no_scipy():
    # NumPy is the only runtime dependency: a fresh interpreter that imports
    # the package and its command line has no SciPy module loaded
    code = "import sys, sscm, sscm.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(package.__file__))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestComplexFormat:
    def test_parse_forms(self):
        assert parse_complex("1+1i") == 1 + 1j
        assert parse_complex("-0.5-2.25i") == -0.5 - 2.25j
        assert parse_complex("3") == 3 + 0j
        assert parse_complex("2i") == 2j

    def test_round_trip(self):
        z = -0.125 + 7.5j
        assert parse_complex(format_complex(z)) == z

    def test_bad_input(self):
        from sscm.cli import _UsageError

        with pytest.raises(_UsageError):
            parse_complex("one+twoi")


class TestMpSolve:
    def test_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "mp-solve", "--c", "0.5", "--H", "[[1,1]]", "--z", "1+1i"
        )
        assert code == 0
        data = json.loads(out)
        pair = solve_stieltjes(SpectralModel(0.5, DiscreteMeasure.point_mass(1.0)), 1 + 1j)
        assert abs(parse_complex(data["m"]) - pair.m) < 1e-12
        assert abs(parse_complex(data["m_under_prime"]) - pair.m_under_prime) < 1e-12

    def test_support_and_moments(self, capsys):
        code, out, _ = run_cli(
            capsys, "mp-solve", "--c", "1", "--H", "[[1,1]]",
            "--z", "1+1i", "--support", "--moments", "2",
        )
        assert code == 0
        data = json.loads(out)
        (lo, hi), = data["support"]
        assert lo == pytest.approx(0.0, abs=1e-2)
        assert hi == pytest.approx(4.0, abs=1e-2)
        assert data["moments"][1] == pytest.approx(2.0, abs=1e-3)

    def test_moments_of_any_order(self, capsys):
        # H = delta_1, c = 1: the moments are the Catalan numbers, exact in floating point
        code, out, _ = run_cli(
            capsys, "mp-solve", "--c", "1", "--H", "[[1,1]]", "--z", "1+1i", "--moments", "8",
        )
        assert code == 0
        assert json.loads(out)["moments"] == [1, 2, 5, 14, 42, 132, 429, 1430]

    def test_large_c_upper_branch(self, capsys):
        code, out, _ = run_cli(
            capsys, "mp-solve", "--c", "5", "--H", "[[0.5,0.5],[1.5,0.5]]", "--z", "0.5+1i"
        )
        assert code == 0
        assert parse_complex(json.loads(out)["m"]).imag > 0

    def test_usage_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "mp-solve", "--c", "0.5", "--H", "bad", "--z", "1+1i")
        assert code == 1
        assert "error" in err

    def test_inside_support_exit_code(self, capsys):
        # real z inside the support is an invalid argument
        code, _, _ = run_cli(capsys, "mp-solve", "--c", "1", "--H", "[[1,1]]", "--z", "1")
        assert code == 1

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "mp-solve", "--c", "0.5", "--H", "[[1,1]]",
                             "--z", "1+1i", "--frobulate")
        assert code == 1


class TestCltMoments:
    def test_closed_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "clt-moments", "--p", "200", "--n", "100", "--tau", "9"
        )
        assert code == 0
        data = json.loads(out)
        assert data["mean"] == pytest.approx([2.0, 10.0])
        assert data["cov"][0][0] == pytest.approx(16.0)

    def test_contour_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "clt-moments", "--p", "100", "--n", "50",
            "--method", "contour", "--powers", "2",
        )
        assert code == 0
        data = json.loads(out)
        assert data["mean"][0] == pytest.approx(2.0, rel=1e-3)
        assert data["nodes"] == 128 and data["quad_error"] < 1e-9

    @pytest.mark.parametrize("method", ["closed", "contour"])
    def test_json_matches_library(self, capsys, method):
        code, out, _ = run_cli(capsys, "clt-moments", "--p", "100", "--n", "50", "--method", method)
        assert code == 0
        ctx = ShapeContext.isotropic(100, 50, tau=3.0, r_w=1.0)
        if method == "closed":
            approx = beta_moments_normal(ctx, [2, 3])
        else:
            approx = lss_normal_approx(ctx, [lambda x: x**2, lambda x: x**3])
        assert json.loads(out) == {"mean": approx.mean.tolist(), "cov": approx.covariance.tolist(),
                                   "nodes": approx.nodes, "quad_error": approx.quad_error}

    def test_contour_matches_closed_large_c(self, capsys):
        args = ["clt-moments", "--p", "200", "--n", "40", "--shape", "[[0.5,0.5],[1.5,0.5]]"]
        results = []
        for method in ("closed", "contour"):
            code, out, _ = run_cli(capsys, *args, "--method", method)
            assert code == 0
            results.append(json.loads(out))
        closed, contour = results
        np.testing.assert_allclose(contour["mean"], closed["mean"], rtol=1e-8)
        np.testing.assert_allclose(contour["cov"], closed["cov"], rtol=1e-8)


    def test_closed_honours_powers(self, capsys):
        args = ["clt-moments", "--p", "200", "--n", "100", "--tau", "4.2", "--rw", "1.2",
                "--shape", "[[0.5,0.5],[1.5,0.5]]", "--powers", "2,3,4"]
        results = []
        for method in ("closed", "contour"):
            code, out, _ = run_cli(capsys, *args, "--method", method)
            assert code == 0
            results.append(json.loads(out))
        closed, contour = results
        assert len(closed["mean"]) == 3
        np.testing.assert_allclose(closed["mean"], contour["mean"], rtol=1e-10)
        np.testing.assert_allclose(closed["cov"], contour["cov"], rtol=1e-10)

    def test_closed_at_large_radial_ratio(self, capsys):
        # the ring has not converged here; the series has no circle
        args = ["clt-moments", "--p", "472", "--n", "100", "--rw", "6.66"]
        assert run_cli(capsys, *args, "--method", "closed")[0] == 0
        assert run_cli(capsys, *args, "--method", "contour")[0] == 2


class TestSphericity:
    def test_wiring_matches_library(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((60, 30))
        path = tmp_path / "x.csv"
        SampleBatch(X).to_csv(path)
        code, out, _ = run_cli(
            capsys, "sphericity", "--input", str(path),
            "--test", "frobenius", "--rw", "1", "--center", "zero",
        )
        assert code == 0
        data = json.loads(out)
        ref = frobenius_sphericity_test(sscm(X, center=np.zeros(30)), 60, 1.0)
        assert data["statistic"] == pytest.approx(ref.statistic)

    @pytest.mark.parametrize("name,test", [("frobenius", frobenius_sphericity_test), ("kl", kl_sphericity_test)],
                             ids=["frobenius", "kl"])
    def test_report_json(self, capsys, tmp_path, name, test):
        X = np.random.default_rng(2).standard_normal((60, 30))
        path = tmp_path / "x.csv"
        SampleBatch(X).to_csv(path)
        code, out, _ = run_cli(capsys, "sphericity", "--input", str(path), "--test", name,
                               "--rw", "1.2", "--center", "zero")
        assert code == 0
        assert json.loads(out) == dataclasses.asdict(test(sscm(X, center=np.zeros(30)), 60, 1.2))

    def test_data_point_median(self, capsys, tmp_path):
        # the spatial median is the data point at the origin, of multiplicity 3:
        # its rows carry no sign, and r_w is estimated from the other three
        X = np.random.default_rng(1).standard_normal((6, 2))
        X[:3] = 0.0
        path = tmp_path / "x.csv"
        SampleBatch(X).to_csv(path)
        code, out, _ = run_cli(capsys, "sphericity", "--input", str(path), "--test", "frobenius")
        assert code == 0
        data = json.loads(out)
        assert data["r_w_source"] == "estimated"
        assert data["r_w_used"] == estimate_rw(X[3:], np.zeros(2))

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "sphericity", "--input", "/no/such.csv",
                             "--test", "kl")
        assert code == 1


class TestShapeEstimate:
    def test_report_and_matrix_output(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((100, 20))
        path = tmp_path / "x.csv"
        SampleBatch(X).to_csv(path)
        mat = tmp_path / "T.csv"
        code, out, _ = run_cli(
            capsys, "shape-estimate", "--input", str(path),
            "--estimator", "1", "--matrix-output", str(mat),
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["spectrum"]) == 20
        T = np.loadtxt(mat, delimiter=",")
        assert np.trace(T) == pytest.approx(20.0)
        assert data["num_atoms"] is None

    def test_reports_atom_count(self, capsys, tmp_path):
        X = np.random.default_rng(2).standard_normal((100, 20)) * np.sqrt(np.repeat([0.5, 1.5], 10))
        path = tmp_path / "x.csv"
        SampleBatch(X).to_csv(path)
        counts = []
        for extra in ((), ("--num-atoms", "1")):
            code, out, _ = run_cli(capsys, "shape-estimate", "--input", str(path), "--estimator", "4", *extra)
            assert code == 0
            data = json.loads(out)
            counts.append(data["num_atoms"])
            assert np.unique(np.round(data["spectrum"], 8)).size == data["num_atoms"]
        assert counts[0] in (2, 3) and counts[1] == 1


class TestSimulate:
    def test_byte_identical_rerun(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run_cli(
                capsys, "simulate", "--model", "M1", "--reps", "4",
                "--seed", "7", "--p", "30", "--n", "60", "--output", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_fallback(self, capsys, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("SSCM_SEED", "7")
        run_cli(capsys, "simulate", "--model", "M1", "--reps", "3",
                "--p", "30", "--n", "60", "--output", str(a))
        monkeypatch.delenv("SSCM_SEED")
        run_cli(capsys, "simulate", "--model", "M1", "--reps", "3", "--seed", "7",
                "--p", "30", "--n", "60", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_manifest_records_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("SSCM_SEED", "7")
        code, _, err = run_cli(capsys, "simulate", "--model", "M1", "--reps", "2",
                               "--p", "20", "--n", "40")
        assert code == 0
        assert json.loads(err)["manifest"]["config"]["seed"] == 7

    @pytest.mark.parametrize("argv", [
        ("--model", "M1", "--p", "20", "--n", "40"),
        ("--model", "M4", "--epsilon", "0", "--p-grid", "20"),
    ], ids=["qq", "benchmark"])
    def test_stdout_matches_output_file(self, capsys, tmp_path, argv):
        common = ("simulate", "--reps", "1", "--seed", "3") + argv
        code, out, _ = run_cli(capsys, *common)
        assert code == 0
        path = tmp_path / "s.csv"
        assert run_cli(capsys, *common, "--output", str(path))[0] == 0
        assert out == path.read_text()

    @pytest.mark.parametrize("argv", [
        ("--model", "M3", "--p", "20", "--n", "20", "--tau", "4"),
        ("--model", "M5", "--epsilon", "0,0.01", "--p-grid", "20,40"),
    ], ids=["qq", "benchmark"])
    def test_stderr_manifest_matches_output_manifest(self, capsys, tmp_path, argv):
        common = ("simulate", "--reps", "1", "--seed", "3") + argv
        code, _, err = run_cli(capsys, *common)
        assert code == 0
        path = tmp_path / "s.csv"
        assert run_cli(capsys, *common, "--output", str(path))[0] == 0
        on_stderr = json.loads(err)["manifest"]
        written = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert on_stderr["config"].pop("output") is None
        assert written["config"].pop("output") == str(path)
        assert on_stderr == written

    def test_stdout_csv(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--model", "M1", "--reps", "2",
            "--seed", "1", "--p", "20", "--n", "40",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "replicate,beta2_hat,beta3_hat,z2_normalized,z3_normalized"
        assert len(lines) == 3
        assert "manifest" in err

    def test_dense_model_at_non_gaussian_tau(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--model", "M2", "--p", "40", "--n", "80",
                               "--reps", "3", "--seed", "1", "--tau", "4")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 3

    def test_manifest_written(self, capsys, tmp_path):
        out = tmp_path / "q.csv"
        assert run_cli(capsys, "simulate", "--model", "M1", "--reps", "2",
                       "--seed", "1", "--n", "40", "--output", str(out))[0] == 0
        manifest = json.loads((tmp_path / "q.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["spec"] == dataclasses.asdict(ModelSpec("M1", n=40, seed=1))
        assert manifest["spec"]["p"] == 400  # resolved from the model's default
        assert (manifest["config"]["reps"], manifest["config"]["p"]) == (2, None)
        assert "subcommand" not in manifest["config"]  # it is `command`
        assert set(manifest["versions"]) == {"python", "numpy"}

        out = tmp_path / "b.csv"
        assert run_cli(capsys, "simulate", "--model", "M4", "--reps", "1", "--seed", "9",
                       "--epsilon", "0.01", "--p-grid", "20,40", "--output", str(out))[0] == 0
        manifest = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert manifest["spec"] == {"models": ["M4"], "epsilons": [0.01], "p_grid": [20, 40], "n": 100, "seed": 9}
        assert out.read_text().splitlines()[0] == "model,epsilon,p,estimator,mean_frobenius_distance,failures"
