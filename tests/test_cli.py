import math
import os
import weakref

import numpy as np
import pytest

import proxpoint
from proxpoint import cli, operators, splitting
from conftest import FailingEigenLapack, pdhg_matrix, run_fresh
from proxpoint.problems import PRESETS


def run_cli(tmp_path, *args):
    out = tmp_path / "run.csv"
    code = cli.main(list(args) + ["--out", str(out)])
    return code, out


def parse_rows(path):
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return header, rows


class TestConfigValidation:
    def test_unknown_experiment_is_config_error(self, tmp_path):
        code, _ = run_cli(tmp_path, "--experiment", "fig9")
        assert code == 1

    def test_unknown_method_is_config_error(self, tmp_path):
        code, _ = run_cli(tmp_path, "--experiment", "fig1", "--method", "nesterov")
        assert code == 1

    def test_guler_rejected_for_admm_experiment(self, tmp_path):
        code, _ = run_cli(tmp_path, "--experiment", "fig5-desk",
                          "--method", "guler1")
        assert code == 1

    def test_restarted_needs_interval_when_no_preset(self, tmp_path):
        code, _ = run_cli(tmp_path, "--experiment", "fig1",
                          "--method", "restarted")
        assert code == 1

    def test_nonpositive_iters_rejected(self, tmp_path):
        code, _ = run_cli(tmp_path, "--experiment", "fig1", "--iters", "0")
        assert code == 1

    def test_cert_takes_no_methods(self, tmp_path):
        code, _ = run_cli(tmp_path, "--experiment", "cert", "--method", "ppm")
        assert code == 1

    @pytest.mark.parametrize("args", [
        ("fig1", "--seed", "5"),
        ("fig2", "--seed", "0"),
        ("fig1", "--mu", "0.1"),
        ("fig3-desk", "--mu", "0.1"),
        ("fig3", "--tau", "0.1"),
        ("fig5-desk", "--sigma", "0.1"),
        ("fig4-desk", "--rho", "0.1"),
        ("fig2", "--gamma", "1"),
        ("fig4", "--lambda", "1"),
        ("fig1", "--nmax", "60"),
        ("cert", "--iters", "7"),
        ("cert", "--lambda", "2"),
        ("cert", "--seed", "3"),
        ("fig1", "--restart", "5"),
        ("fig3-desk", "--method", "accel", "--restart", "adaptive"),
    ])
    def test_flag_the_experiment_does_not_read_is_config_error(self, tmp_path, args):
        code, out = run_cli(tmp_path, "--experiment", *args)
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ("fig1", "--lambda", "0.5", "--iters", "3"),
        ("fig2", "--mu", "0.1", "--restart", "5"),
        ("fig3", "--seed", "5", "--lambda", "0.1"),
        ("fig4", "--seed", "5", "--tau", "0.1", "--sigma", "0.1"),
        ("fig5-desk", "--seed", "5", "--rho", "0.1", "--gamma", "1"),
        ("fig1", "--method", "restarted", "--restart", "adaptive"),
        ("cert", "--nmax", "5"),
    ])
    def test_flags_the_experiment_reads_are_accepted(self, args):
        cli.parse_config(["--experiment", *args])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag,experiment", [
        ("--lambda", "fig3-desk"), ("--mu", "fig2"), ("--rho", "fig5-desk"),
        ("--tau", "fig4-desk"), ("--sigma", "fig4-desk"), ("--gamma", "fig5-desk")])
    def test_non_finite_float_flag_is_config_error(self, tmp_path, capfd, flag,
                                                   experiment, value):
        # argparse reads a separate "-inf" as an option, so it is joined by "=".
        args = [f"{flag}={value}"] if value.startswith("-") else [flag, value]
        code, out = run_cli(tmp_path, "--experiment", experiment, *args)
        assert code == 1
        assert not out.exists()
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {flag} must be a positive finite number"]

    def test_errors_name_the_flag_as_typed(self, tmp_path, capsys):
        assert run_cli(tmp_path, "--experiment", "fig1", "--lambda", "-1")[0] == 1
        assert run_cli(tmp_path, "--experiment", "fig4-desk", "--lambda", "1")[0] == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: --lambda must be a positive finite number",
            "error: --lambda is not read by the fig4-desk experiment"]

    @pytest.mark.parametrize("args", [
        ("fig1", "--method", "ppm", "--method", "ppm", "--iters", "3"),
        ("fig2", "--method", "restarted", "--method", "restarted"),
        ("fig3-desk", "--method", "accel", "--method", "ppm", "--method", "accel"),
    ])
    def test_repeated_method_is_config_error(self, tmp_path, capsys, args):
        code, out = run_cli(tmp_path, "--experiment", *args)
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"error: --method {args[2]} is given more than once"]

    @pytest.mark.parametrize("args", [("fig1",), ("fig3-desk", "--method", "accel"),
                                      ("cert",)])
    def test_restart_error_names_the_restarted_method(self, tmp_path, capsys, args):
        assert run_cli(tmp_path, "--experiment", *args, "--restart", "7")[0] == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: --restart is read only by the restarted method"]


class TestParams:
    @pytest.mark.parametrize("args,given", [
        (("fig1",), {}),
        (("fig1", "--lambda", "0.5", "--iters", "3"), {"lam": 0.5, "iters": 3}),
        (("fig2", "--mu", "0.1", "--restart", "5"), {"mu": 0.1, "restart": 5}),
        (("fig2", "--method", "restarted", "--restart", "adaptive", "--lambda", "0.5"),
         {"restart": "adaptive", "lam": 0.5}),
        (("fig3", "--seed", "5", "--lambda", "0.1"), {"seed": 5, "lam": 0.1}),
        (("fig3-desk", "--iters", "7"), {"iters": 7}),
        (("fig4-desk",), {}),
        (("fig4", "--seed", "7", "--tau", "0.001", "--sigma", "0.002"),
         {"seed": 7, "tau": 0.001, "sigma": 0.002}),
        (("fig5-desk", "--rho", "0.1"), {"rho": 0.1}),
        (("fig5", "--rho", "0.1", "--gamma", "1", "--seed", "3", "--iters", "50"),
         {"rho": 0.1, "gamma": 1.0, "seed": 3, "iters": 50}),
        (("cert",), {"nmax": 60}),
        (("cert", "--nmax", "5"), {"nmax": 5}),
    ])
    def test_params_are_the_preset_with_the_given_flags_laid_over_it(self, args, given):
        params = cli.parse_config(["--experiment", *args]).params
        assert params == {**PRESETS.get(args[0], {}), **given}
        assert all(type(params[k]) is type(v) for k, v in given.items())

    def test_fig4_without_step_flags_has_no_step_params(self):
        params = cli.parse_config(["--experiment", "fig4-desk"]).params
        assert "tau" not in params and "sigma" not in params

    def test_help_names_every_flag(self):
        proc = run_fresh("-m", "proxpoint.cli", "--help")
        assert proc.returncode == 0, proc.stderr
        for name in cli._OPTIONAL_FLAGS:
            assert f" {cli._flag(name)} " in proc.stdout


class TestFigureRuns:
    def test_fig1_columns_and_bounds(self, tmp_path):
        code, out = run_cli(tmp_path, "--experiment", "fig1", "--iters", "10")
        assert code == 0
        header, rows = parse_rows(out)
        assert header == ["experiment", "method", "iteration", "residual",
                          "bound", "infeasibility", "gap"]
        methods = {row["method"] for row in rows}
        assert methods == {"ppm", "guler1", "accel"}
        by_method = {m: [r for r in rows if r["method"] == m] for m in methods}
        assert all(len(v) == 10 for v in by_method.values())
        assert float(by_method["accel"][4]["bound"]) == pytest.approx(1.0 / 25.0)
        assert by_method["guler1"][0]["bound"] == ""
        assert all(row["gap"] == "" for row in rows)

    def test_fig2_gap_column_and_restart_metadata(self, tmp_path):
        code, out = run_cli(tmp_path, "--experiment", "fig2", "--iters", "40",
                            "--restart", "15")
        assert code == 0
        text = out.read_text()
        assert "# restarts[restart@15]=15,30" in text
        _, rows = parse_rows(out)
        gaps = [float(r["gap"]) for r in rows if r["method"] == "accel"]
        assert len(gaps) == 40 and all(g >= 0.0 for g in gaps)

    def test_fig3_desk_runs_all_methods(self, tmp_path):
        code, out = run_cli(tmp_path, "--experiment", "fig3-desk", "--iters", "30")
        assert code == 0
        _, rows = parse_rows(out)
        assert {r["method"] for r in rows} == {"ppm", "guler1", "accel",
                                               "restart@30"}
        assert "R_source=exact" in out.read_text()

    def test_fig4_desk_residuals_positive(self, tmp_path):
        code, out = run_cli(tmp_path, "--experiment", "fig4-desk", "--iters", "20",
                            "--method", "ppm", "--method", "accel")
        assert code == 0
        _, rows = parse_rows(out)
        assert all(float(r["residual"]) > 0.0 for r in rows)

    def test_fig5_desk_infeasibility_column(self, tmp_path):
        code, out = run_cli(tmp_path, "--experiment", "fig5-desk", "--iters", "25")
        assert code == 0
        _, rows = parse_rows(out)
        ppm_rows = [r for r in rows if r["method"] == "ppm"]
        assert all(r["infeasibility"] != "" for r in ppm_rows)
        for r in ppm_rows:
            assert float(r["residual"]) == pytest.approx(
                0.05 ** 2 * float(r["infeasibility"]), rel=1e-12)

    def test_adaptive_restart_method(self, tmp_path):
        code, out = run_cli(tmp_path, "--experiment", "fig2", "--iters", "60",
                            "--method", "restarted", "--restart", "adaptive")
        assert code == 0
        _, rows = parse_rows(out)
        assert {r["method"] for r in rows} == {"adaptive-restart"}

    def test_reruns_are_byte_identical(self, tmp_path):
        _, first = run_cli(tmp_path, "--experiment", "fig3-desk", "--iters", "20")
        data = first.read_bytes()
        _, second = run_cli(tmp_path, "--experiment", "fig3-desk", "--iters", "20")
        assert second.read_bytes() == data


def header_fields(path, prefix="# R="):
    """``key=value`` tokens of the header line starting with ``prefix``."""
    line = next(ln for ln in path.read_text().splitlines() if ln.startswith(prefix))
    return dict(tok.split("=", 1) for tok in line[2:].split() if "=" in tok), line


def exact_norm(k):
    """``||K||`` as the fig4 runner takes it: ``sqrt(eigvalsh(K K')[-1])``."""
    return math.sqrt(np.linalg.eigvalsh(k @ k.T)[-1])


class TestReferenceSolutions:
    @pytest.mark.parametrize("experiment,source", [("fig3-desk", "exact"),
                                                   ("fig4-desk", "exact"),
                                                   ("fig5-desk", "exact")])
    def test_header_records_the_checked_reference(self, tmp_path, experiment, source):
        code, out = run_cli(tmp_path, "--experiment", experiment, "--iters", "40")
        assert code == 0
        fields, line = header_fields(out)
        assert fields["R_source"] == source
        radius, check = float(fields["R"]), float(fields["fixed_point_check"])
        assert 0.0 <= check <= cli.FIXED_POINT_TOL * max(1.0, radius)
        assert "bound=empty" not in line
        _, rows = parse_rows(out)
        bounded = [r for r in rows if r["bound"]]
        assert bounded
        for r in bounded:
            assert float(r["residual"]) <= float(r["bound"]) * (1.0 + 1e-9)

    def test_fig4_desk_radius_matches_plain_oracle(self, tmp_path):
        # Plain PDHG on a skew operator converges to the preconditioned
        # projection of x0 onto the saddle set, so a long run recovers the
        # closed-form R.
        code, out = run_cli(tmp_path, "--experiment", "fig4-desk", "--iters", "1",
                            "--method", "ppm")
        assert code == 0
        radius = float(header_fields(out)[0]["R"])
        inst = proxpoint.bilinear_game_instance(50, 25, 1)
        k = inst["K"]
        tau = sigma = 0.99 / exact_norm(k)
        f = proxpoint.ProxDescriptor.linear(inst["a"])
        g = proxpoint.ProxDescriptor.linear(inst["b"])
        u0, v0 = np.full(50, 10.0), np.full(25, 10.0)
        oracle = proxpoint.pdhg(f, g, k, tau, sigma, u0, v0, 10_000, variant="plain")
        dx = np.concatenate([u0, v0]) - oracle.xs[-1]
        oracle_radius = np.sqrt(dx @ pdhg_matrix(k, tau, sigma) @ dx)
        assert radius == pytest.approx(oracle_radius, rel=1e-9)

    def test_fig5_desk_radius_matches_plain_oracle(self, tmp_path):
        # Plain ADMM converges to the dual Douglas-Rachford fixed point
        # nu* + rho D x*, so a long run recovers the exact R, the distance
        # to it from the run's first dual point, at x_1 = x(nu0, z0).
        code, out = run_cli(tmp_path, "--experiment", "fig5-desk", "--iters", "1",
                            "--method", "ppm")
        assert code == 0
        radius = float(header_fields(out)[0]["R"])
        inst = proxpoint.tv_instance(40, 5, 1)
        d, rho = inst["D"], 0.05
        f = proxpoint.ProxDescriptor.quadratic(inst["H"], inst["b"])
        g = proxpoint.ProxDescriptor.l1(39, 3.0)
        cons = proxpoint.AffineConstraint(d, -np.eye(39), np.zeros(39))
        oracle = proxpoint.admm(f, g, cons, rho, np.zeros(40), np.zeros(39),
                                np.zeros(39), 10_000, variant="plain")
        eta0 = oracle.iterates["nu_hat"][0] + rho * (d @ oracle.iterates["x"][1])
        eta_star = oracle.iterates["nu_hat"][-1] + rho * (d @ oracle.iterates["x"][-1])
        assert radius == pytest.approx(np.linalg.norm(eta0 - eta_star), rel=1e-9)

    def test_perturbed_fig5_multiplier_leaves_bounds_empty(self, tmp_path, monkeypatch):
        def perturbed(h, b, gamma):
            x_star, nu_star = proxpoint.tv_solution(h, b, gamma)
            return x_star, nu_star * (1.0 + 1e-3)

        monkeypatch.setattr(cli, "tv_solution", perturbed)
        code, out = run_cli(tmp_path, "--experiment", "fig5-desk", "--iters", "20")
        assert code == 0
        fields, line = header_fields(out)
        assert float(fields["fixed_point_check"]) > cli.FIXED_POINT_TOL * float(fields["R"])
        assert "bound=empty" in line
        _, rows = parse_rows(out)
        assert rows and all(r["bound"] == "" for r in rows)

    def test_failed_tv_gate_exits_two_without_csv(self, tmp_path, monkeypatch):
        from proxpoint import problems

        monkeypatch.setattr(problems, "_nnls", lambda e, f, max_iters: np.zeros(e.shape[1]))
        code, out = run_cli(tmp_path, "--experiment", "fig5-desk", "--iters", "20")
        assert code == 2
        assert not out.exists()

    def test_failed_basis_pursuit_reference_exits_two_without_csv(self, tmp_path,
                                                                   monkeypatch):
        from proxpoint import problems

        # A simplex method that never pivots leaves phase one infeasible.
        monkeypatch.setattr(problems, "_simplex", lambda e, c, b, basis, max_iters: basis)
        code, out = run_cli(tmp_path, "--experiment", "fig3-desk", "--iters", "20")
        assert code == 2
        assert not out.exists()

    def test_perturbed_fig4_reference_leaves_bounds_empty(self, tmp_path, monkeypatch):
        def perturbed(*args):
            inst = proxpoint.bilinear_game_instance(*args)
            inst["v_star"] = inst["v_star"] + 1e-3
            return inst

        monkeypatch.setattr(cli, "bilinear_game_instance", perturbed)
        code, out = run_cli(tmp_path, "--experiment", "fig4-desk", "--iters", "20")
        assert code == 0
        fields, line = header_fields(out)
        assert float(fields["fixed_point_check"]) > cli.FIXED_POINT_TOL * float(fields["R"])
        assert "bound=empty" in line
        _, rows = parse_rows(out)
        assert rows and all(r["bound"] == "" for r in rows)

    def test_perturbed_fig3_multiplier_leaves_bounds_empty(self, tmp_path, monkeypatch):
        def perturbed(a, b):
            u_star, v_star = proxpoint.basis_pursuit_solution(a, b)
            return u_star, v_star * (1.0 + 1e-3)

        monkeypatch.setattr(cli, "basis_pursuit_solution", perturbed)
        code, out = run_cli(tmp_path, "--experiment", "fig3-desk", "--iters", "20")
        assert code == 0
        assert "bound=empty" in header_fields(out)[1]
        _, rows = parse_rows(out)
        assert rows and all(r["bound"] == "" for r in rows)


class TestCertReport:
    def test_report_rows(self, tmp_path):
        code, out = run_cli(tmp_path, "--experiment", "cert", "--nmax", "12")
        assert code == 0
        header, rows = parse_rows(out)
        assert header == ["N", "deviation", "min_eig", "dual_value"]
        assert [int(r["N"]) for r in rows] == list(range(2, 13))
        for row in rows:
            n = int(row["N"])
            assert float(row["deviation"]) <= 1e-12
            assert float(row["min_eig"]) >= -1e-10
            assert float(row["dual_value"]) == pytest.approx(1.0 / n ** 2)


class TestExitCodes:
    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        from proxpoint.operators import SingularSystemError

        def broken(*args, **kwargs):
            raise SingularSystemError("forced failure")

        monkeypatch.setitem(cli._RUNNERS, "fig1",
                            lambda config: ([], broken, (), None))
        code, _ = run_cli(tmp_path, "--experiment", "fig1", "--iters", "2")
        assert code == 2

    def test_lapack_eigenvalue_failure_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(operators, "_flapack", lambda: FailingEigenLapack(2, 0))
        code, out = run_cli(tmp_path, "--experiment", "cert", "--nmax", "5")
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("numerical failure: dsyevr")

    @pytest.mark.parametrize("excess,code", [(1e-8, 2), (1e-10, 0)])
    def test_residual_above_its_bound_exits_two_without_csv(self, tmp_path, monkeypatch,
                                                           capsys, excess, code):
        real = cli._RUNNERS["fig1"]

        def runner(config):
            meta, engine, start, radius = real(config)

            def violating(*args):
                trace = engine(*args)
                if trace.bounds is not None:
                    trace.residuals[6] = trace.bounds[6] * (1.0 + excess)
                return trace

            return meta, violating, start, radius

        monkeypatch.setitem(cli._RUNNERS, "fig1", runner)
        got, out = run_cli(tmp_path, "--experiment", "fig1", "--iters", "10")
        assert got == code
        assert out.exists() == (code == 0)
        if code == 2:
            err = capsys.readouterr().err
            assert err.startswith("numerical failure: ppm: residual ")
            assert err.rstrip().endswith("at iteration 7")

    def test_first_failing_method_is_named(self, tmp_path, monkeypatch, capsys):
        # Both methods break their bounds; the run stops at accel, the
        # first of them in method order, and writes no CSV.
        real = cli._RUNNERS["fig1"]

        def runner(config):
            meta, engine, start, radius = real(config)

            def violating(*args):
                trace = engine(*args)
                trace.residuals[3] = trace.bounds[3] * 2.0
                return trace

            return meta, violating, start, radius

        monkeypatch.setitem(cli._RUNNERS, "fig1", runner)
        code, out = run_cli(tmp_path, "--experiment", "fig1", "--iters", "10",
                            "--method", "accel", "--method", "ppm")
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: accel: residual ")
        assert err.rstrip().endswith("at iteration 4")

    @pytest.mark.parametrize("out,reason", [(".", "Is a directory"),
                                            ("missing/run.csv", "No such file")],
                             ids=["directory", "missing parent"])
    def test_unwritable_out_is_a_config_error(self, tmp_path, capsys, out, reason):
        target = tmp_path / out
        code = cli.main(["--experiment", "fig1", "--iters", "2", "--out", str(target)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write --out {target}: {reason}")
        assert err.count("\n") == 1
        assert not target.is_file()

    @pytest.mark.parametrize("step", ["1", "100"])
    def test_fig4_steps_pdhg_refuses_exit_1_with_its_message(self, tmp_path, capsys, step):
        # Far outside tau*sigma*||K||^2 < 1 the preconditioned norm that R
        # is measured in is indefinite, so pdhg's check must run before it.
        code, out = run_cli(tmp_path, "--experiment", "fig4-desk", "--tau", step,
                            "--sigma", step)
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: need tau*sigma*||K||^2 < 1, got ")
        assert err.count("\n") == 1

    def test_success_exit_code(self, tmp_path):
        code, _ = run_cli(tmp_path, "--experiment", "fig1", "--iters", "2",
                          "--method", "ppm")
        assert code == 0


class TestTraceLifetime:
    @pytest.mark.parametrize("preset,module,name,calls", [
        ("fig1", cli, "iterate", 3),
        # The reference check's and the start's one-step runs, then ppm,
        # accel and restart@20.
        ("fig5-desk", splitting, "admm", 5),
    ])
    def test_run_holds_one_trace_at_a_time(self, tmp_path, monkeypatch, preset,
                                           module, name, calls):
        real, refs = getattr(module, name), []

        def spy(*args, **kwargs):
            assert all(ref() is None for ref in refs), "an earlier trace is alive"
            trace = real(*args, **kwargs)
            refs.append(weakref.ref(trace))
            return trace

        monkeypatch.setattr(module, name, spy)
        code, _ = run_cli(tmp_path, "--experiment", preset)
        assert code == 0
        assert len(refs) == calls


class TestImports:
    def test_cli_import_loads_neither_scipy_linalg_nor_optimize(self):
        proc = run_fresh(
            "-c", "import sys, proxpoint.cli; print(sorted("
            "m for m in ('scipy.linalg', 'scipy.optimize') if m in sys.modules))",
            check=True)
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("preset", ["fig3-desk", "fig4-desk"])
    def test_fig3_and_fig4_load_no_scipy(self, preset, tmp_path):
        # Both references are numpy only: the basis pursuit simplex and the
        # solve with K K' for fig4's R.
        assert run_preset_listing_scipy(preset, tmp_path) == "0 []"

    def test_fig3_loads_no_numpy_ma(self, tmp_path):
        # The sparsity threshold is taken without np.quantile, whose import
        # of numpy.ma costs about 11 ms per process.
        proc = run_fresh(
            "-c", "import sys; from proxpoint.cli import main; "
            "code = main(sys.argv[1:]); print(code, 'numpy.ma' in sys.modules)",
            "--experiment", "fig3-desk", "--out", str(tmp_path / "run.csv"), check=True)
        assert proc.stdout.split() == ["0", "False"]

    @pytest.mark.parametrize("preset", ["fig1", "fig2", "fig5", "fig5-desk", "cert"])
    def test_preset_loads_no_scipy(self, preset, tmp_path):
        # The LU factors and solves come from scipy's compiled LAPACK module,
        # loaded on its own without the scipy package.
        assert run_preset_listing_scipy(preset, tmp_path) == "0 []"


class TestFig4Norm:
    def test_norm_k_header_is_exact(self, tmp_path):
        code, out = run_cli(tmp_path, "--experiment", "fig4-desk", "--iters", "1",
                            "--method", "ppm")
        assert code == 0
        fields, _ = header_fields(out, "# problem=")
        k = proxpoint.bilinear_game_instance(50, 25, 1)["K"]
        assert float(fields["norm_K"]) == exact_norm(k)
        assert float(fields["tau"]) == 0.99 / exact_norm(k)

    @pytest.mark.parametrize("preset", ["fig4-desk", "fig4"])
    def test_operator_norm_equals_exact_norm(self, preset):
        p = PRESETS[preset]
        k = proxpoint.bilinear_game_instance(p["d1"], p["d2"], p["seed"])["K"]
        assert proxpoint.operator_norm(k) == exact_norm(k)


# Prints each loaded OpenBLAS's own thread count after running a preset
# that loads both numpy's OpenBLAS and the one behind scipy's LAPACK module.
_BLAS_THREADS_SCRIPT = """
import ctypes, sys
from proxpoint.cli import main
assert main(sys.argv[1:]) == 0
with open("/proc/self/maps") as fh:
    paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
counts = []
for path in paths:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            counts.append(fn())
            break
print(*counts)
"""


class TestBlasThreads:
    def test_package_import_loads_no_numpy_and_keeps_environment(self):
        proc = run_fresh(
            "-c", "import os, sys; before = dict(os.environ); import proxpoint; "
            "print('numpy' in sys.modules, dict(os.environ) == before)", check=True)
        assert proc.stdout.split() == ["False", "True"]

    def test_package_exports_resolve_lazily(self):
        proc = run_fresh(
            "-c", "import proxpoint\nfrom proxpoint import *\n"
            "print(all(globals()[n] is getattr(proxpoint, n) for n in proxpoint.__all__))\n"
            "print(*sorted(n for n in dir(proxpoint)\n"
            "              if not n.startswith('_') and n not in proxpoint.__all__))",
            check=True)
        assert proc.stdout.splitlines() == [
            "True", "methods operators pep_cert problems splitting"]
        with pytest.raises(AttributeError):
            getattr(proxpoint, "save_instance")

    @pytest.mark.parametrize("env,threads", [({}, "1"), ({"OMP_NUM_THREADS": "2"}, "2")])
    def test_cli_import_pins_one_thread_unless_the_user_set_a_count(self, env, threads):
        proc = run_fresh("-c", "import os, proxpoint.cli; "
                               "print(os.environ.get('OMP_NUM_THREADS'))", env=env, check=True)
        assert proc.stdout.strip() == threads

    def test_numpy_loaded_first_leaves_environment_alone(self):
        proc = run_fresh(
            "-c", "import os, numpy; before = dict(os.environ); import proxpoint.cli; "
            "print(dict(os.environ) == before, os.environ.get('OMP_NUM_THREADS'))",
            check=True)
        assert proc.stdout.split() == ["True", "None"]

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                        reason="reads the loaded libraries from /proc/self/maps")
    def test_both_openblas_builds_run_one_thread(self, tmp_path):
        proc = run_fresh("-c", _BLAS_THREADS_SCRIPT, "--experiment", "fig5-desk",
                         "--iters", "2", "--out", str(tmp_path / "run.csv"), check=True)
        counts = proc.stdout.split()
        assert counts and all(c == "1" for c in counts)

    def test_cert_csv_matches_a_pinned_run(self, tmp_path):
        # The eigenvalue call runs on one OpenBLAS thread whatever the
        # setting; unpinned, two threads on two cores moved min_eig at N = 235.
        outs = []
        for name, env in (("default", {}), ("pinned", {"OPENBLAS_NUM_THREADS": "1"}),
                          ("two", {"OPENBLAS_NUM_THREADS": "2"})):
            out = tmp_path / f"{name}.csv"
            run_fresh("-m", "proxpoint.cli", "--experiment", "cert", "--nmax", "240",
                      "--out", str(out), env=env, check=True)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]


def run_preset_listing_scipy(preset, tmp_path):
    """Exit code of ``main()`` for ``preset`` in a fresh interpreter,
    followed by the ``scipy`` modules it left in ``sys.modules``."""
    proc = run_fresh(
        "-c", "import sys; from proxpoint.cli import main; "
        "code = main(sys.argv[1:]); print(code, sorted("
        "m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        "--experiment", preset, "--out", str(tmp_path / "run.csv"), check=True)
    return proc.stdout.strip()


class TestDivergenceAndRestartFlags:
    @pytest.mark.parametrize("iters", ["2000", "20000"])
    def test_diverging_run_exits_two_without_csv(self, tmp_path, iters):
        with np.errstate(over="ignore"):
            code, out = run_cli(tmp_path, "--experiment", "fig1",
                                "--method", "guler1", "--iters", iters)
        assert code == 2
        assert not out.exists()

    def test_divergence_is_reported_once_on_stderr(self, tmp_path):
        # A fresh interpreter, so numpy's overflow warnings reach stderr as
        # they would for a user instead of pytest's warning capture.
        proc = run_fresh("-m", "proxpoint.cli", "--experiment", "fig1",
                         "--method", "guler1", "--iters", "2000",
                         "--out", str(tmp_path / "run.csv"))
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: ")

    @pytest.mark.parametrize("args", [("--restart", "0"), ("--restart", "-3"),
                                      ("--restart", "2.5"), ("--restart", "foo"),
                                      ("--restart", "Adaptive"),
                                      ("--adaptive-restart",)])
    def test_bad_restart_is_config_error(self, tmp_path, capsys, args):
        # --adaptive-restart is gone: argparse refuses it as an unknown flag.
        code, out = run_cli(tmp_path, "--experiment", "fig2", "--iters", "60",
                            "--method", "restarted", *args)
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")
