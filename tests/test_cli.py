import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from neteffects import EffectKind, InvalidSpecError, NetworkEffectTest, local_effects, read_edge_list
from neteffects import test_effect as run_effect_test
from neteffects import cli
from neteffects.cli import main
from neteffects.inference import derive_seed, diagnose_degeneracy
from neteffects.simulation import MonteCarloSummary, SimulationSpec, generate, monte_carlo


def write_edges(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "target", "weight"])
        writer.writerows(rows)


@pytest.fixture
def random_csv(tmp_path):
    rng = np.random.default_rng(12)
    n = 30
    rows = []
    labels = [f"n{i:02d}" for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                rows.append([labels[i], labels[j], repr(rng.normal())])
    path = tmp_path / "random.csv"
    write_edges(path, rows)
    return path


@pytest.fixture
def worked_csv(tmp_path):
    path = tmp_path / "worked.csv"
    write_edges(path, [
        ["a", "b", "1.0"], ["a", "c", "2.0"],
        ["b", "a", "3.0"], ["b", "c", "4.0"],
        ["c", "a", "5.0"], ["c", "b", "6.0"],
    ])
    return path


@pytest.fixture
def complete_csv(tmp_path):
    # a setting-a alternative whose eta2 takes the studentized complete branch
    w = generate("a", "normal", 60, 1.0, False, seed=1).weights
    rows = [[f"a{i:02d}", f"a{j:02d}", repr(float(w[i, j]))] for i in range(60) for j in range(60) if i != j]
    path = tmp_path / "complete.csv"
    write_edges(path, rows)
    return path


@pytest.fixture
def overflow_csv(tmp_path):
    # weights of order 1e160: their products overflow float64
    rng = np.random.default_rng(0)
    rows = [[f"u{i:02d}", f"u{j:02d}", repr(rng.normal() * 1e160)]
            for i in range(60) for j in range(60) if i != j]
    path = tmp_path / "overflow.csv"
    write_edges(path, rows)
    return path


@pytest.fixture
def constant_csv(tmp_path):
    rows = [[f"v{i}", f"v{j}", "2.0"] for i in range(8) for j in range(8) if i != j]
    path = tmp_path / "constant.csv"
    write_edges(path, rows)
    return path


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCmdTest:
    def test_all_effects_with_routing(self, random_csv, capsys):
        code, out, _ = run(["test", "--input", str(random_csv), "--effect", "all",
                            "--seed", "7"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 2
        results = doc["results"]
        assert [r["effect"] for r in results] == ["eta2", "eta3", "eta4", "eta5"]
        by_effect = {r["effect"]: r for r in results}
        for eff in ("eta3", "eta4"):
            assert by_effect[eff]["branch"] == "reduced"
            assert by_effect[eff]["diagnosis"] is None
        for eff in ("eta2", "eta5"):
            assert by_effect[eff]["diagnosis"] is not None
        for r in results:
            assert 0.0 <= r["p_value"] <= 1.0
            assert r["reject"] == (r["p_value"] < r["alpha"])

    def test_results_byte_identical_across_runs(self, random_csv, capsys):
        args = ["test", "--input", str(random_csv), "--effect", "eta5",
                "--lambda", "1.2", "--seed", "3"]
        _, out1, _ = run(args, capsys)
        _, out2, _ = run(args, capsys)
        r1 = json.dumps(json.loads(out1)["results"], sort_keys=True)
        r2 = json.dumps(json.loads(out2)["results"], sort_keys=True)
        assert r1 == r2

    def test_constant_network_exits_2_with_message(self, constant_csv, capsys):
        code, _, err = run(["test", "--input", str(constant_csv), "--effect", "eta3",
                            "--lambda", "1.2", "--seed", "7"], capsys)
        assert code == 2
        assert "identical" in err or "undefined" in err

    def test_four_nodes_on_the_reduced_branch_exit_2(self, tmp_path, capsys):
        # every quadruple of 4 nodes is the one node set: the spread is rounding noise
        rng = np.random.default_rng(0)
        path = tmp_path / "four.csv"
        write_edges(path, [[f"w{i}", f"w{j}", repr(rng.normal())]
                           for i in range(4) for j in range(4) if i != j])
        code, out, err = run(["test", "--input", str(path), "--effect", "eta3"], capsys)
        assert code == 2
        assert out == ""
        assert "at least 5 nodes" in err

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code, _, err = run(["test", "--input", str(tmp_path / "nope.csv")], capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_seed_is_derived(self, random_csv, capsys):
        code, out, _ = run(["test", "--input", str(random_csv), "--effect", "eta3",
                            "--seed", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["command"]["seed"] == 1
        assert doc["command"]["derived_seed"] == derive_seed(1) == doc["results"][0]["seed"]
        assert "repeats" not in doc["command"]
        report = run_effect_test(read_edge_list(str(random_csv)), EffectKind.SAME_SENDER,
                                 seed=derive_seed(1))
        assert doc["results"][0]["statistic"] == report.statistic
        assert doc["results"][0]["p_value"] == report.p_value

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("effect", ["all", "eta3"])
    def test_non_finite_statistic_exits_2(self, overflow_csv, effect, capsys):
        code, out, err = run(["test", "--input", str(overflow_csv), "--effect", effect], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "float64" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_diagnostic_constant_exits_2(self, random_csv, value, capsys):
        code, out, err = run(["test", "--input", str(random_csv), "--diagnostic-c", value], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: --diagnostic-c: c_constant must be positive and finite, got {value}\n"

    def test_complete_csv_routes_eta2_to_the_complete_branch(self, complete_csv, capsys):
        code, out, _ = run(["test", "--input", str(complete_csv), "--effect", "eta2"], capsys)
        assert code == 0
        assert json.loads(out)["results"][0]["branch"] == "studentized_complete"

    @pytest.mark.parametrize("args, name", [
        (["--effect", "eta2", "--lambda", "7"], "--lambda: subsample exponent"),
        (["--effect", "eta2", "--lambda", "-1"], "--lambda: subsample exponent"),
        (["--effect", "eta2", "--lambda", "nan"], "--lambda: subsample exponent"),
        (["--effect", "eta3", "--diagnostic-c", "nan"], "--diagnostic-c: c_constant"),
        (["--effect", "eta4", "--diagnostic-c", "inf"], "--diagnostic-c: c_constant"),
        (["--effect", "eta2", "--seed", "-1"], "--seed: seed"),
        (["--effect", "eta3", "--seed", "-1"], "--seed: seed"),
    ])
    def test_bad_parameter_exits_2_whatever_the_branch(self, complete_csv, args, name, capsys):
        code, out, err = run(["test", "--input", str(complete_csv), *args], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {name} must be ") and err.count("\n") == 1

    def test_output_file(self, random_csv, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(["test", "--input", str(random_csv), "--effect", "eta3",
                            "--output", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["results"]


class TestCmdDiagnose:
    def test_eta5_diagnosis(self, random_csv, capsys):
        code, out, _ = run(["diagnose", "--input", str(random_csv),
                            "--effect", "eta5"], capsys)
        assert code == 0
        doc = json.loads(out)
        res = doc["results"]
        assert res["verdict"] in ("degenerate", "non_degenerate")
        assert (res["xi_squared"] > res["threshold"]) == (res["verdict"] == "non_degenerate")

    def test_constant_is_degenerate(self, constant_csv, capsys):
        code, out, _ = run(["diagnose", "--input", str(constant_csv),
                            "--effect", "eta2"], capsys)
        assert code == 0
        assert json.loads(out)["results"]["verdict"] == "degenerate"

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_non_finite_diagnostic_exits_2(self, overflow_csv, capsys):
        code, out, err = run(["diagnose", "--input", str(overflow_csv), "--effect", "eta5"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "float64" in err

    @pytest.mark.parametrize("effect", ["eta3", "eta4"])
    def test_undiagnosable_effect_rejected_by_parser(self, random_csv, effect, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["diagnose", "--input", str(random_csv), "--effect", effect])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestCmdLocalEffects:
    def test_worked_value_and_row_count(self, worked_csv, capsys):
        code, out, _ = run(["local-effects", "--input", str(worked_csv)], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "node,reciprocity,same_sender,same_receiver,sender_receiver"
        assert len(lines) == 4  # header + 3 nodes
        first = lines[1].split(",")
        assert first[0] == "a"
        assert float(first[1]) == pytest.approx(-0.5)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_non_finite_local_effect_exits_2(self, overflow_csv, tmp_path, capsys):
        target = tmp_path / "local.csv"
        code, out, err = run(["local-effects", "--input", str(overflow_csv),
                              "--output", str(target)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "float64" in err
        assert not target.exists()

    def test_table_is_local_effects(self, random_csv, capsys):
        code, out, _ = run(["local-effects", "--input", str(random_csv)], capsys)
        assert code == 0
        header, *rows = list(csv.reader(out.splitlines()))
        net = read_edge_list(random_csv)
        table = local_effects(net)
        assert header == ["node", "reciprocity", "same_sender", "same_receiver", "sender_receiver"]
        assert [row[0] for row in rows] == list(net.labels)
        for k, name in enumerate(header[1:], start=1):
            # repr round-trips, so the column holds the exact values
            assert [float(row[k]) for row in rows] == getattr(table, name).tolist()

    def test_constant_all_zeros(self, constant_csv, capsys):
        code, out, _ = run(["local-effects", "--input", str(constant_csv)], capsys)
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 8
        for row in rows:
            values = [float(x) for x in row.split(",")[1:]]
            assert all(abs(v) < 1e-12 for v in values)


@pytest.mark.parametrize("args", [
    ["test", "--effect", "all"],
    ["diagnose", "--effect", "eta5"],
    ["local-effects"],
])
def test_overflow_reports_one_error_line(overflow_csv, args, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run([*args, "--input", str(overflow_csv)], capsys)
    assert code == 2
    assert [str(w.message) for w in caught] == []
    assert err.startswith("error:") and err.count("\n") == 1


class TestCmdSimulate:
    def test_small_null_run(self, capsys, tmp_path):
        stats_file = tmp_path / "stats.txt"
        code, out, _ = run(["simulate", "--setting", "b", "--config", "normal",
                            "--n", "25", "--null", "--reps", "40", "--lambda", "1",
                            "--seed", "5", "--emit-stats", str(stats_file)], capsys)
        assert code == 0
        doc = json.loads(out)
        res = doc["results"]
        assert res["reps"] == 40
        assert 0.0 <= res["rejection_rate"] <= 0.4
        assert res["zero_variance_count"] == 0
        lines = stats_file.read_text().strip().splitlines()
        assert len(lines) == 40
        assert all(np.isfinite(float(x)) for x in lines)

    def test_poisson_config_runs_monte_carlo_on_poisson_latents(self, capsys, tmp_path):
        stats_file = tmp_path / "stats.txt"
        code, out, _ = run(["simulate", "--setting", "a", "--config", "poisson", "--n", "20",
                            "--reps", "5", "--lambda", "1", "--seed", "9",
                            "--emit-stats", str(stats_file)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["command"]["config"] == "poisson"
        expected = monte_carlo(SimulationSpec(setting="a", config="poisson", n=20, reps=5,
                                              subsample_exponent=1.0, master_seed=9))
        summary = dataclasses.asdict(expected)
        statistics = summary.pop("statistics")
        assert doc["results"] == summary
        assert stats_file.read_text() == "".join(f"{value!r}\n" for value in statistics)

    def test_results_are_the_summary_without_statistics(self, capsys):
        code, out, _ = run(["simulate", "--setting", "b", "--n", "20", "--reps", "5"], capsys)
        assert code == 0
        fields = [f.name for f in dataclasses.fields(MonteCarloSummary) if f.name != "statistics"]
        assert list(json.loads(out)["results"]) == fields

    def test_alt_implied_by_c2(self, capsys):
        code, out, _ = run(["simulate", "--setting", "b", "--n", "25", "--c2", "5",
                            "--reps", "20", "--lambda", "1.2", "--seed", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["command"]["null"] is False
        assert doc["results"]["rejection_rate"] > 0.5

    def test_null_with_signal_is_usage_error(self, capsys):
        code, out, err = run(["simulate", "--setting", "b", "--null", "--c2", "0.5",
                              "--n", "25", "--reps", "5"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: c_squared") and err.count("\n") == 1

    @pytest.mark.parametrize("c2", ["inf", "nan"])
    def test_non_finite_c2_is_usage_error(self, c2, capsys):
        code, out, err = run(["simulate", "--setting", "c", "--n", "20", "--reps", "3",
                              "--c2", c2, "--alt"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: c_squared must be finite and nonnegative, got {c2}\n"

    def test_negative_seed_is_usage_error(self, capsys):
        code, out, err = run(["simulate", "--setting", "b", "--n", "25", "--reps", "5",
                              "--seed", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: --seed: seed must be a non-negative integer, got -1\n"

    def test_zero_reps_is_usage_error(self, capsys):
        code, _, err = run(["simulate", "--setting", "b", "--n", "25",
                            "--reps", "0"], capsys)
        assert code == 2
        assert "reps" in err

    def test_bad_setting_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--setting", "q", "--n", "25"])
        assert exc.value.code == 2

    def test_threads_flag(self, capsys):
        base = ["simulate", "--setting", "c", "--n", "20", "--null",
                "--reps", "10", "--seed", "3"]
        _, out1, _ = run(base, capsys)
        _, out2, _ = run(base + ["--threads", "2"], capsys)
        assert json.loads(out1)["results"] == json.loads(out2)["results"]


class TestOneMessagePerBadSetting:
    """A bad setting gets one message, whichever entry point receives it: the
    one check of ``inference.Settings``.  An entry point whose name for the
    setting is not the field's puts its own name before it: the CLI the flag
    typed, ``SimulationSpec`` and ``NetworkEffectTest`` their parameter."""

    RULES = {"alpha": "alpha must be in (0, 1)",
             "subsample_exponent": "subsample exponent must be in [1, 2)",
             "seed": "seed must be a non-negative integer",
             "c_constant": "c_constant must be positive and finite"}
    SPEC = {"alpha": "alpha", "subsample_exponent": "subsample_exponent", "seed": "master_seed",
            "c_constant": "diagnostic_constant"}  # SimulationSpec's parameters
    FIT = {**SPEC, "seed": "random_state"}  # NetworkEffectTest's
    FLAG = {"alpha": "--alpha", "subsample_exponent": "--lambda", "seed": "--seed",
            "c_constant": "--diagnostic-c"}
    BAD = [("alpha", value) for value in (0, math.nan, "0.05", True)] + [
        ("subsample_exponent", value) for value in (2.0, math.nan, None, True)] + [
        ("c_constant", value) for value in (0, math.inf, math.nan, True)]

    def message(self, name, value):
        return f"{self.RULES[name]}, got {value!r}"

    def exact(self, name, value, caller):
        """The whole message from an entry point that calls field ``name`` ``caller``."""
        prefix = "" if caller == name else f"{caller}: "
        return f"^{re.escape(prefix + self.message(name, value))}$"

    @pytest.mark.parametrize("name, value", BAD + [("seed", -1), ("seed", 1.5), ("seed", True)])
    def test_python_entry_points(self, name, value):
        exact = self.exact(name, value, name)
        net = generate("a", "normal", 20, 0.0, True, seed=1)
        with pytest.raises(ValueError, match=exact):
            run_effect_test(net, "eta3", **{name: value})
        with pytest.raises(InvalidSpecError, match=self.exact(name, value, self.SPEC[name])):
            SimulationSpec("b", n=20, reps=3, **{self.SPEC[name]: value})
        with pytest.raises(ValueError, match=self.exact(name, value, self.FIT[name])):
            NetworkEffectTest(**{self.FIT[name]: value}).fit(net.weights)
        if name == "c_constant":
            with pytest.raises(ValueError, match=exact):
                diagnose_degeneracy(net, "eta2", value)

    @pytest.mark.parametrize("name, value", [(name, value) for name, value in BAD
                                             if not isinstance(value, (str, bool, type(None)))])
    def test_cli_commands(self, random_csv, name, value, capsys):
        flag = [self.FLAG[name], str(value)]
        commands = [["test", "--input", str(random_csv), *flag],
                    ["simulate", "--setting", "b", "--n", "20", "--reps", "3", *flag]]
        if name == "c_constant":
            commands.append(["diagnose", "--input", str(random_csv), "--effect", "eta2", *flag])
        for argv in commands:
            assert run(argv, capsys) == (2, "", f"error: {flag[0]}: {self.message(name, float(value))}\n")

    @pytest.mark.parametrize("name, value", [("alpha", "1"), ("subsample_exponent", "7"),
                                             ("seed", "-1"), ("c_constant", "nan")])
    def test_cli_error_names_the_flag_typed(self, random_csv, name, value, capsys):
        typed = float(value) if name != "seed" else int(value)
        line = f"error: {self.FLAG[name]}: {self.message(name, typed)}\n"
        flag = [self.FLAG[name], value]
        # before any work: no input is read and no replicate runs
        assert run(["test", "--input", "missing.csv", *flag], capsys) == (2, "", line)
        assert run(["simulate", "--setting", "b", "--n", "20", "--reps", "3", *flag], capsys) == (2, "", line)


class TestOutputCheckedFirst:
    """An output path that cannot be written fails before the input is read
    or any replicate runs, and no file is left behind."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the output path was checked")
        monkeypatch.setattr(cli, "read_edge_list", refuse)
        monkeypatch.setattr(cli, "monte_carlo", refuse)

    @pytest.mark.parametrize("args", [
        ["test", "--output", "{missing}"],
        ["diagnose", "--effect", "eta5", "--output", "{missing}"],
        ["local-effects", "--output", "{missing}"],
        ["simulate", "--setting", "b", "--n", "25", "--emit-stats", "{missing}"],
        ["simulate", "--setting", "b", "--n", "25", "--output", "{missing}"],
        ["test", "--output", "{folder}"],
        ["test", "--output", "{under_file}"],
    ], ids=["test", "diagnose", "local-effects", "simulate-emit-stats", "simulate", "test-folder",
            "test-under-file"])
    def test_unwritable_output_exits_2_before_any_work(self, tmp_path, args, capsys):
        (tmp_path / "plain.txt").write_text("")
        paths = {"missing": str(tmp_path / "missing" / "out.txt"), "folder": str(tmp_path),
                 "under_file": str(tmp_path / "plain.txt" / "out.txt")}
        argv = [arg.format(**paths) for arg in args]
        if argv[0] != "simulate":
            argv += ["--input", str(tmp_path / "edges.csv")]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "missing").exists()


def test_failed_run_leaves_an_existing_output_untouched(constant_csv, tmp_path, capsys):
    target = tmp_path / "report.json"
    target.write_text("earlier report\n")
    code, _, _ = run(["test", "--input", str(constant_csv), "--effect", "eta3",
                      "--output", str(target)], capsys)
    assert code == 2
    assert target.read_text() == "earlier report\n"


class TestModuleEntryPoint:
    """``python -m neteffects.cli`` as a process: its exit status, not main()'s."""

    SRC = str(Path(__file__).resolve().parents[1] / "src")
    ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    COMMAND = [sys.executable, "-m", "neteffects.cli"]

    def run_module(self, *args):
        return subprocess.run([*self.COMMAND, *args], capture_output=True, text=True,
                              env=self.ENV, timeout=300)

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_1_silently(self, random_csv, unbuffered):
        # The read end closes before the child, still importing, can write.
        # Buffered, the table would otherwise fail only in the flush at exit.
        proc = subprocess.Popen([*self.COMMAND, "local-effects", "--input", str(random_csv)],
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env={**self.ENV, "PYTHONUNBUFFERED": unbuffered})
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=300) == 1
        assert err == b""

    def test_output_error_exits_2(self, random_csv, tmp_path):
        proc = self.run_module("local-effects", "--input", str(random_csv),
                               "--output", str(tmp_path / "missing" / "local.csv"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_every_subcommand_runs_without_scipy(self, random_csv):
        script = "\n".join([
            "import sys",
            "sys.modules['scipy'] = None  # any import of scipy now raises ImportError",
            "import neteffects.cli",
            "assert sys.modules['scipy'] is None",
            "assert 'concurrent.futures.process' not in sys.modules",
            "csv = sys.argv[1]",
            "for args in (['test', '--input', csv, '--effect', 'all'],",
            "             ['diagnose', '--input', csv, '--effect', 'eta5'],",
            "             ['local-effects', '--input', csv],",
            "             ['simulate', '--setting', 'b', '--n', '20', '--reps', '5', '--lambda', '1']):",
            "    assert neteffects.cli.main(args) == 0, args",
        ])
        proc = subprocess.run([sys.executable, "-c", script, str(random_csv)],
                              capture_output=True, text=True, env=self.ENV, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_good_input_exits_0(self, random_csv):
        proc = self.run_module("test", "--input", str(random_csv))
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert len(json.loads(proc.stdout)["results"]) == 4

    def test_constant_input_exits_2_with_one_error_line(self, constant_csv):
        proc = self.run_module("test", "--input", str(constant_csv))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
