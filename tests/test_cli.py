"""Command-line interface: subcommands, config files, CSV traces."""

import argparse

import numpy as np
import pytest

from zonewton import cli, experiments
from zonewton.cli import main, parse_config_file, UsageError
from zonewton.solver import RunTrace, TraceRecord
from zonewton.traceio import CSV_HEADER, write_trace_csv


def test_costs_output_format(capsys):
    assert main(["costs", "--d", "4"]) == 0
    assert capsys.readouterr().out.strip() == "forward=15 symmetric=33"


@pytest.mark.parametrize("d,forward,symmetric", [(1, 3, 3), (10, 66, 201)])
def test_costs_values(capsys, d, forward, symmetric):
    assert main(["costs", "--d", str(d)]) == 0
    assert capsys.readouterr().out.strip() == \
        f"forward={forward} symmetric={symmetric}"


def test_run_quadratic_writes_monotone_fgap(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["run", "--problem", "quadratic", "--d", "10",
                 "--mu", "1e-6", "--seed", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    gaps = [float(line.split(",")[3]) for line in lines[1:]]
    assert len(gaps) >= 10
    assert all(b <= a for a, b in zip(gaps, gaps[1:]))
    assert "final f_gap=" in capsys.readouterr().out


def test_run_is_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["run", "--problem", "quadratic", "--d", "6", "--mu", "1e-6",
            "--seed", "3", "--max-iters", "40"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_fedrun_reports_upload_counts(tmp_path):
    out = tmp_path / "fed.csv"
    code = main(["fedrun", "--problem", "quadratic", "--d", "4",
                 "--mu", "1e-5", "--seed", "2", "--n-clients", "3",
                 "--max-iters", "5", "--r", "6", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    up_col = CSV_HEADER.split(",").index("up_scalars")
    ups = [int(line.split(",")[up_col]) for line in lines[1:]]
    assert ups == [3 * (2 * 6 + 1)] * len(ups)


@pytest.mark.parametrize("command, problem, extra", [
    ("run", "quadratic", []), ("run", "cubic", []),
    ("fedrun", "logistic", ["--n-clients", "3"])])
def test_ground_truth_columns_are_filled(tmp_path, command, problem, extra):
    # the solver never sees x*, f* or the Hessian; the CLI fills the three
    # columns from the problem's ground truth
    out = tmp_path / "trace.csv"
    assert main([command, "--problem", problem, "--d", "5", "--seed", "4",
                 "--max-iters", "6", "--out", str(out)] + extra) == 0
    header, *rows = [line.split(",")
                     for line in out.read_text().splitlines()]
    col = {name: i for i, name in enumerate(header)}
    assert len(rows) == 6
    for row in rows:
        for name in ("f_gap", "x_err", "hess_err_fro"):
            assert row[col[name]] != "", name
    built, x0, _ = cli._build_problem(
        cli.ExperimentConfig(problem=problem, d=5, seed=4))
    known = built.known
    first = rows[0]
    assert float(first[col["f_gap"]]) == (float(first[col["f_value"]])
                                          - known.f_star)
    assert float(first[col["x_err"]]) == float(
        np.linalg.norm(x0 - known.x_star))


def test_fedrun_is_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["fedrun", "--problem", "logistic", "--d", "6", "--seed", "9",
            "--n-clients", "3", "--max-iters", "8", "--r", "12"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_budget_stops_run(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["run", "--problem", "quadratic", "--d", "5", "--seed", "0",
                 "--budget", "33", "--out", str(out)])  # 3 iterations of 11
    assert code == 0
    assert "status=stopped_budget" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 4  # header + 3 records


def test_fedrun_budget_caps_every_client(tmp_path, capsys, monkeypatch):
    # one d=20 iteration costs 41 evaluations, so a budget of 30 stops the
    # run inside its first probe batch
    extras = {}
    real_account = cli.FederatedObjective.account

    def recording_account(server, trace):
        real_account(server, trace)
        extras.update(trace.extra)

    monkeypatch.setattr(cli.FederatedObjective, "account", recording_account)
    code = main(["fedrun", "--problem", "logistic", "--d", "20",
                 "--n-clients", "5", "--budget", "30", "--seed", "3",
                 "--out", str(tmp_path / "trace.csv")])
    assert code == 0
    out = capsys.readouterr().out
    assert "status=stopped_budget" in out
    assert "evals=0 spent=30" in out
    assert max(extras["client_eval_counts"]) == 30


def test_budget_stop_reports_spent_evaluations(tmp_path, capsys):
    # two 11-evaluation iterations complete; the third batch spends the
    # remaining 8 before the budget of 30 stops it
    code = main(["run", "--problem", "quadratic", "--d", "5", "--seed", "0",
                 "--budget", "30", "--out", str(tmp_path / "trace.csv")])
    assert code == 0
    assert "evals=22 spent=30" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "fedrun"])
@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_non_finite_alpha_is_usage_error(tmp_path, capsys, command, alpha):
    out = tmp_path / "trace.csv"
    assert main([command, "--alpha", alpha, "--max-iters", "2",
                 "--out", str(out)]) == 2
    assert "alpha must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "fedrun"])
@pytest.mark.parametrize("flag, value, message", [
    ("--lambda-max", "inf", "lambda_max must be finite and positive, got inf"),
    ("--mu", "nan", "mu must be finite and positive, got nan"),
    ("--mu", "inf", "mu must be finite and positive, got inf")],
    ids=["lambda_max-inf", "mu-nan", "mu-inf"])
def test_non_finite_solver_parameter_is_usage_error(tmp_path, capsys, command,
                                                    flag, value, message):
    out = tmp_path / "trace.csv"
    assert main([command, flag, value, "--max-iters", "2",
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_diverging_run_stops_numerical(tmp_path, capsys):
    # alpha = 5 throws the cubic's iterate to |x| ~ 1e15, where every probe
    # point x +/- mu*u rounds to x and the gradient estimate is exactly 0
    out = tmp_path / "trace.csv"
    code = main(["run", "--problem", "cubic", "--d", "4", "--alpha", "5",
                 "--lambda-min", "1e-3", "--seed", "0", "--out", str(out)])
    assert code == 3
    assert "status=stopped_numerical" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) > 1


@pytest.mark.parametrize("command", ["run", "fedrun"])
def test_underflowing_mu_squared_exits_3(tmp_path, capsys, command):
    # the logistic run starts at x = 0, where the probe points stay
    # distinct but mu^2 underflows to 0: every second difference is 0/0
    out = tmp_path / "trace.csv"
    code = main([command, "--problem", "logistic", "--d", "5", "--mu",
                 "1e-300", "--max-iters", "5", "--out", str(out)])
    assert code == 3
    assert "status=stopped_numerical iters=1" in capsys.readouterr().out


@pytest.mark.parametrize("flags,config,dim", [
    (["--d", "8"], "", 8),
    ([], "d = 8\n", 8),
    ([], "", 5),
])
def test_dataset_path_honours_d(tmp_path, flags, config, dim):
    # the file's largest feature index is 5; an explicit d pads it
    data = tmp_path / "tiny.svm"
    data.write_text("+1 1:0.5 3:1.0 5:-0.2\n-1 2:0.3 4:0.7\n"
                    "+1 1:-0.1 5:0.4\n-1 3:0.9\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config)
    out = tmp_path / "trace.csv"
    code = main(["run", "--problem", "logistic", "--dataset-path", str(data),
                 "--config", str(cfg), "--max-iters", "2", "--out", str(out)]
                + flags)
    assert code == 0
    r_col = CSV_HEADER.split(",").index("r_used")
    rows = out.read_text().splitlines()[1:]
    assert [int(row.split(",")[r_col]) for row in rows] == [dim, dim]


def test_dataset_path_rejects_d_below_file_dimension(tmp_path, capsys):
    data = tmp_path / "tiny.svm"
    data.write_text("+1 1:0.5 5:-0.2\n-1 2:0.3\n")
    code = main(["run", "--problem", "logistic", "--dataset-path", str(data),
                 "--d", "3", "--out", str(tmp_path / "trace.csv")])
    assert code == 2
    assert "below the largest index 5" in capsys.readouterr().err


def test_dataset_path_rejects_non_finite_feature(tmp_path, capsys):
    data = tmp_path / "tiny.svm"
    data.write_text("+1 1:0.5 2:0.1\n-1 1:nan\n")
    code = main(["run", "--problem", "logistic", "--dataset-path", str(data),
                 "--out", str(tmp_path / "trace.csv")])
    assert code == 2
    assert "non-finite feature '1:nan' at line 2" in capsys.readouterr().err


class TestUnreadSettings:
    """A setting the command would never read exits 2 and is named, whether
    it came from a flag or from the config file."""

    @staticmethod
    def rejects(tmp_path, capsys, command, flags, key, value):
        out = tmp_path / "trace.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{key} = {value}\n")
        from_flag = [command, *flags, "--" + key.replace("_", "-"), value]
        from_file = [command, *flags, "--config", str(cfg)]
        for argv in (from_flag, from_file):
            assert main(argv + ["--max-iters", "1", "--out", str(out)]) == 2
            assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_r_under_adaptive_policy(self, tmp_path, capsys):
        self.rejects(tmp_path, capsys, "run", ["--r-policy", "adaptive"],
                     "r", "12")

    def test_r_max_under_fixed_policy(self, tmp_path, capsys):
        self.rejects(tmp_path, capsys, "fedrun", ["--n-clients", "2"],
                     "r_max", "30")

    def test_n_clients_with_run(self, tmp_path, capsys):
        self.rejects(tmp_path, capsys, "run", [], "n_clients", "1")

    def test_dataset_path_with_generated_problem(self, tmp_path, capsys):
        self.rejects(tmp_path, capsys, "run", ["--problem", "quadratic"],
                     "dataset_path", "/nonexistent")


class TestConfigFile:
    def test_values_and_comments(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# experiment\nproblem = cubic\nd = 4\nmu = 1e-3\n")
        values = parse_config_file(cfg)
        assert values == {"problem": "cubic", "d": 4, "mu": 1e-3}

    def test_unknown_key_named_in_error(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("stepsize = 0.1\n")
        with pytest.raises(UsageError, match="unknown config key 'stepsize'"):
            parse_config_file(cfg)

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "t.csv"
        cfg.write_text(f"problem = quadratic\nd = 8\nseed = 5\n"
                       f"max_iters = 3\nout_path = {out}\n")
        assert main(["run", "--config", str(cfg), "--max-iters", "2"]) == 0
        assert len(out.read_text().splitlines()) == 3  # header + 2

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("warp = 9\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "unknown config key 'warp'" in capsys.readouterr().err

    def test_invalid_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("mu = -1\n")
        assert main(["run", "--config", str(cfg)]) == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


def test_verify_rate_small(capsys):
    code = main(["verify-rate", "--d", "3", "--trials", "400", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "bound=" in out


def test_verify_lemma1(capsys):
    assert main(["verify-lemma1", "--points", "25", "--seed", "1"]) == 0
    assert "violations=0" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["verify-rate", "--d", "3", "--trials", "0"],
    ["verify-lemma1", "--points", "0"],
])
def test_verify_gate_with_nothing_to_check_is_usage_error(capsys, argv):
    # a gate that checked nothing must neither pass nor report a nan ratio
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "nan" not in captured.out
    assert "must be an integer >= 1, got 0" in captured.err


def test_verify_rate_at_d_1_is_usage_error(capsys):
    # the first update recovers a 1x1 Hessian exactly: no contraction to
    # measure, so the gate must not report a nan ratio as a FAIL
    assert main(["verify-rate", "--d", "1", "--trials", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no PASS/FAIL line, no nan ratio
    assert "error: d must be an integer >= 2, got 1" in captured.err


def test_compare_sampling_at_d_1_is_usage_error(capsys):
    # both samplers recover a 1x1 Hessian exactly: nothing to compare, so
    # the gate must not report a nan ratio as a FAIL
    assert main(["compare-sampling", "--d", "1", "--trials", "30"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: d must be an integer >= 2, got 1" in captured.err


def test_verify_linear_at_d_1_is_usage_error(capsys):
    # a 1x1 quadratic has condition number 1 whatever --cond asks, so the
    # gate would PASS with nothing to check
    assert main(["verify-linear", "--d", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: d must be an integer >= 2, got 1" in captured.err


@pytest.mark.parametrize("argv", [["verify-stopping", "--seed", "-1"],
                                  ["verify-rate", "--seed", "-1"]])
def test_negative_seed_is_named_usage_error(capsys, argv):
    # before, numpy's "expected non-negative integer" named no parameter
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: seed must be an integer >= 0, got -1" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["run", "--max-iters", "0"], "max_iterations must be an integer >= 1"),
    (["run", "--budget", "0"], "budget must be an integer >= 1"),
    (["run", "--d", "0"], "d must be an integer >= 1"),
    (["run", "--mu", "-1"], "mu must be finite and positive"),
    # unchecked, the quadratic's client noise is divided by zero clients
    (["fedrun", "--n-clients", "0"], "n_clients must be an integer >= 1"),
    (["fedrun", "--problem", "logistic", "--n-clients", "0"],
     "n_clients must be an integer >= 1"),
], ids=["max_iters", "budget", "d", "mu", "n_clients_quadratic",
        "n_clients_logistic"])
def test_out_of_range_run_flag_is_named_by_the_library(tmp_path, capsys,
                                                        argv, message):
    # the library judges every number; its message names its own parameter
    out = tmp_path / "trace.csv"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}, got " in captured.err
    assert not out.exists()


@pytest.mark.parametrize("cond", ["nan", "inf"])
def test_verify_linear_non_finite_cond_is_usage_error(capsys, cond):
    assert main(["verify-linear", "--cond", cond]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: cond must be finite and >= 1, got {cond}" in (
        captured.err)


GATES = {
    "verify-rate": experiments.rate_verification,
    "verify-lemma1": experiments.gradient_bound_verification,
    "verify-linear": experiments.linear_rate_verification,
    "verify-quadratic": experiments.quadratic_rate_verification,
    "compare-sampling": experiments.sampling_comparison,
    "verify-stopping": experiments.stopping_criterion_check,
}


def subcommand_flags(command):
    parser = cli._build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    return {flag.removeprefix("--")
            for action in sub.choices[command]._actions
            if not isinstance(action, argparse._HelpAction)
            for flag in action.option_strings}


@pytest.mark.parametrize("command,flags", [
    ("verify-rate", {"d", "trials", "seed", "mu"}),
    ("verify-lemma1", {"seed", "d", "points"}),
    ("verify-linear", {"seed", "d", "cond", "mu"}),
    ("verify-quadratic", {"seed"}),
    ("compare-sampling", {"d", "r", "trials", "seed", "mu"}),
    ("verify-stopping", {"seed"}),
])
def test_gate_subcommand_flags_are_the_gate_parameters(command, flags):
    assert subcommand_flags(command) == flags


@pytest.mark.parametrize("command", GATES)
def test_gate_subcommand_defaults_are_the_gate_defaults(capsys, command):
    # with only --seed given, every other flag takes the gate's own default
    report = GATES[command](seed=3)
    assert main([command, "--seed", "3"]) == (0 if report.passed else 1)
    assert capsys.readouterr().out == "\n".join(report.lines()) + "\n"


def test_verify_rate_repeats_d(capsys):
    reports = [experiments.rate_verification(d=d, trials=200, seed=4)
               for d in (3, 4)]
    assert main(["verify-rate", "--d", "3", "--d", "4", "--trials", "200",
                 "--seed", "4"]) == 0
    lines = [line for report in reports for line in report.lines()]
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(6))
def test_compare_sampling_single_direction_fails_threshold(capsys, seed):
    # a single direction is distribution-identical under both samplers, so
    # the 5% advantage cannot appear and the exit code must signal failure
    code = main(["compare-sampling", "--d", "2", "--r", "1",
                 "--trials", "50", "--seed", str(seed)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


class TestTraceCsv:
    def test_header_is_the_documented_one(self):
        # the literal header of README's trace section
        assert CSV_HEADER == (
            "iter,evals,f_value,f_gap,grad_norm_est,r_used,alpha,step_norm,"
            "x_err,hess_err_fro,up_scalars,down_scalars")

    def test_integer_columns_are_written_as_integers(self, tmp_path):
        rec = TraceRecord(iteration=2, evals=7.0, f_value=1.0, r_used=3.0,
                          alpha=1.0, up_scalars=9.0, down_scalars=4.0)
        path = tmp_path / "t.csv"
        write_trace_csv(RunTrace([rec], "stopped_max_iter", np.zeros(1)), path)
        assert path.read_text().splitlines()[1] == "2,7,1,,,3,1,,,,9,4"

    def test_empty_trace_is_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace_csv(RunTrace([], "stopped_max_iter", np.zeros(1)), path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_three_records_four_lines(self, tmp_path):
        records = [TraceRecord(iteration=k, evals=7 * (k + 1), f_value=1.0 / (k + 1))
                   for k in range(3)]
        path = tmp_path / "t.csv"
        write_trace_csv(RunTrace(records, "stopped_max_iter", np.zeros(1)), path)
        assert len(path.read_text().splitlines()) == 4

    def test_floats_round_trip(self, tmp_path):
        value = 0.1 + 0.2  # not representable prettily
        rec = TraceRecord(iteration=0, evals=3, f_value=value)
        path = tmp_path / "t.csv"
        write_trace_csv(RunTrace([rec], "stopped_max_iter", np.zeros(1)), path)
        cell = path.read_text().splitlines()[1].split(",")[2]
        assert float(cell) == value

    def test_missing_fields_are_empty(self, tmp_path):
        rec = TraceRecord(iteration=0, evals=3, f_value=1.0)
        path = tmp_path / "t.csv"
        write_trace_csv(RunTrace([rec], "stopped_max_iter", np.zeros(1)), path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[3] == "" and row[-1] == ""


@pytest.mark.parametrize("mu", ["2e154", "1e-300"])
def test_verify_rate_numerical_failure_exits_3(capsys, mu):
    # mu^2 overflows, or underflows to 0: the curvatures are not finite
    assert main(["verify-rate", "--trials", "40", "--mu", mu]) == 3
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert "error: rate_verification" in captured.err
    assert f"mu={float(mu)!r}" in captured.err


@pytest.mark.parametrize("mu", ["1e300", "1e-300"])
def test_compare_sampling_numerical_failure_exits_3(capsys, mu):
    assert main(["compare-sampling", "--trials", "30", "--mu", mu]) == 3
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert "error: sampling_comparison" in captured.err


@pytest.mark.parametrize("mu", ["1e300", "1e-300"])
def test_verify_linear_numerical_failure_exits_3(capsys, mu):
    # the solver run ends stopped_numerical after one iteration
    assert main(["verify-linear", "--mu", mu]) == 3
    captured = capsys.readouterr()
    assert "floor NOT reached" not in captured.out
    assert "error: linear_rate_verification" in captured.err
    assert "stopped_numerical" in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, flag, value", [
    ("run", "--alpha", "1e300"),
    ("run", "--lambda-min", "1e-320"),
    ("fedrun", "--alpha", "1e300"),
    ("fedrun", "--lambda-min", "1e-320"),
])
def test_overflowing_step_parameter_exits_without_a_warning(
        tmp_path, capsys, command, flag, value):
    # alpha = 1e300 overflows the first step's length: the run stops
    # numerical at that iteration. 1/lambda_min overflows: a usage error.
    out = tmp_path / "trace.csv"
    code = main([command, flag, value, "--out", str(out)])
    captured = capsys.readouterr()
    if flag == "--alpha":
        assert code == 3
        assert "status=stopped_numerical iters=1 " in captured.out
    else:
        assert code == 2
        assert "lambda_min=1e-320 has no finite reciprocal" in captured.err


FLOAT_SWEEP = ("0", "-1", "1e-320", "1e300", "inf", "nan")
INT_SWEEP = ("0", "-1")


def sweep_cases():
    """(command, flag, value) for every float flag of run, fedrun and the
    verify-* commands at the FLOAT_SWEEP values and every int flag at the
    INT_SWEEP values; size flags are never swept upward."""
    sweeps = {float: FLOAT_SWEEP, int: INT_SWEEP}
    cases = []
    for command in ("run", "fedrun", *GATES):
        types = (cli._CONFIG_KEYS if command not in GATES else
                 {key: parse for key, (parse, _)
                  in cli._gate_params(GATES[command]).items()})
        cases += [(command, cli._flag(key), value)
                  for key, parse in types.items()
                  for value in sweeps.get(parse, ())]
    return cases


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, flag, value", sweep_cases())
def test_flag_sweep_exits_with_a_documented_code(tmp_path, capsys, command,
                                                 flag, value):
    # warnings are errors, so a numpy warning escapes main as an exception
    argv = [command, flag, value]
    if command in ("run", "fedrun"):
        argv += ["--out", str(tmp_path / "trace.csv")]
    assert main(argv) in (0, 1, 2, 3)
