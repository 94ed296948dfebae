"""Command-line driver: exit codes, report files, source handling."""

import json

import pytest

from graphopt.benders import BendersConfig
from graphopt.cli import (
    EXIT_INFEASIBLE,
    EXIT_ITER_LIMIT,
    EXIT_OK,
    EXIT_SOLVER_FAILURE,
    EXIT_UNBOUNDED,
    EXIT_USAGE,
    main,
)
from graphopt.errors import IterationLimitError, NodeLimitError, NumericalBreakdownError
from graphopt.fixtures import generate_fixture, storage_membership
from graphopt.serialize import save_instance

from conftest import unbounded_stage_graph


@pytest.fixture
def membership_file(tmp_path):
    path = tmp_path / "blocks.txt"
    path.write_text(
        "".join(f"{node} {block}\n" for node, block in storage_membership().items())
    )
    return str(path)


def read_report(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


class TestExitCodes:
    def test_monolithic_fixture(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["--fixture", "storage", "--output", str(out)]) == EXIT_OK
        report = read_report(out)
        assert report["mode"] == "monolithic"
        assert report["status"] == "optimal"
        assert report["objective"] == pytest.approx(-10700.0)
        assert report["max_violation"] <= 1e-9

    def test_benders_converges(self, membership_file, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            [
                "--fixture", "storage",
                "--mode", "benders",
                "--root", "design",
                "--partition", membership_file,
                "--slacks",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        report = read_report(out)
        assert report["status"] == "converged"
        assert report["objective"] == pytest.approx(-10700.0, rel=1e-6)
        assert report["bounds_per_iteration"]
        assert report["flags"]["slacks_active"] is False

    def test_benders_iteration_limit(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            [
                "--fixture", "chain3_milp",
                "--mode", "benders",
                "--root", "g2",
                "--multicut", "--strengthened",
                "--max-iters", "2",
                "--output", str(out),
            ]
        )
        assert code == EXIT_ITER_LIMIT
        report = read_report(out)
        assert report["status"] == "max_iterations"
        # it still finds the optimum; only the lower bound stalls
        assert report["objective"] == pytest.approx(5.8, rel=1e-7)

    def test_benders_stall(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ["--fixture", "chain3_milp", "--mode", "benders", "--root", "g2",
                "--multicut", "--strengthened", "--output", str(out)]
        assert main(argv) == EXIT_ITER_LIMIT
        report = read_report(out)
        assert report["status"] == "stalled"
        assert len(report["bounds_per_iteration"]) == 2
        assert "try lagrangian cuts" in capsys.readouterr().err

    def test_lagrangian_closes_the_stalled_gap(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            [
                "--fixture", "chain3_milp",
                "--mode", "benders",
                "--root", "g2",
                "--multicut", "--lagrangian",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        report = read_report(out)
        assert report["status"] == "converged"
        assert report["objective"] == pytest.approx(5.8, rel=1e-7)

    def test_infeasible_monolithic(self, tmp_path):
        from graphopt import Graph

        g = Graph("bad")
        n = g.add_node("n")
        x = n.add_variable("x", lower=0.0, upper=1.0)
        n.add_constraint(x, "ge", 2.0)
        path = tmp_path / "bad.json"
        save_instance(g, str(path))
        out = tmp_path / "r.json"
        code = main(["--instance", str(path), "--output", str(out)])
        assert code == EXIT_INFEASIBLE
        assert read_report(out)["status"] == "infeasible"

    def test_unbounded_monolithic(self, tmp_path):
        from graphopt import Graph

        g = Graph("open")
        n = g.add_node("n")
        x = n.add_variable("x", lower=-float("inf"))
        n.add_constraint(x, "le", 2.0)
        n.set_objective(x)
        path = tmp_path / "open.json"
        save_instance(g, str(path))
        out = tmp_path / "r.json"
        assert main(["--instance", str(path), "--output", str(out)]) == EXIT_UNBOUNDED
        assert read_report(out)["status"] == "unbounded"

    @pytest.mark.parametrize("argv", [
        ["--mode", "benders", "--root", "p"],
        ["--mode", "benders", "--root", "p", "--warm-start-cuts"],
        ["--mode", "monolithic"],
        ["--mode", "sequential"],
    ])
    def test_an_unbounded_stage_exits_as_unbounded_in_every_mode(self, tmp_path, argv):
        path = tmp_path / "open.json"
        save_instance(unbounded_stage_graph("c"), str(path))
        out = tmp_path / "r.json"
        assert main(["--instance", str(path), "--output", str(out)] + argv) == EXIT_UNBOUNDED
        assert read_report(out)["status"] == "unbounded"

    @pytest.mark.parametrize("error", [NodeLimitError, NumericalBreakdownError])
    def test_solver_failure(self, tmp_path, monkeypatch, error):
        def fail(problem, solver=None):
            raise error("the solver gave up")

        monkeypatch.setattr("graphopt.cli.solve", fail)
        out = tmp_path / "r.json"
        assert main(["--fixture", "storage", "--output", str(out)]) == EXIT_SOLVER_FAILURE
        assert read_report(out)["status"] == "solver_failure"

    def test_a_stage_at_the_iteration_limit(self, tmp_path, monkeypatch):
        def stop(*args, **kwargs):
            raise IterationLimitError("stage 'g2' stopped as 'iteration_limit'")

        monkeypatch.setattr("graphopt.cli.sequential_solve", stop)
        out = tmp_path / "r.json"
        code = main(["--fixture", "chain3_milp", "--mode", "sequential", "--output", str(out)])
        assert code == EXIT_ITER_LIMIT
        assert read_report(out)["status"] == "iteration_limit"

    def test_benders_infeasible_subproblem(self, membership_file, tmp_path):
        # without slacks the operations stage cannot match a zero storage size
        code = main(
            [
                "--fixture", "storage",
                "--mode", "benders",
                "--root", "design",
                "--partition", membership_file,
            ]
        )
        assert code == EXIT_INFEASIBLE

    def test_usage_errors(self, tmp_path):
        assert main([]) == EXIT_USAGE  # no source
        assert main(["--fixture", "storage", "--instance", "x.json"]) == EXIT_USAGE
        assert main(["--fixture", "storage", "--mode", "benders"]) == EXIT_USAGE  # flat graph
        assert main(["--mode", "nonsense"]) == EXIT_USAGE
        benders = ["--fixture", "chain3_milp", "--mode", "benders", "--root", "g1"]
        assert main(benders + ["--regularize"]) == EXIT_USAGE
        assert main(benders + ["--alpha", "0.5"]) == EXIT_USAGE
        sequential = ["--fixture", "mini_pcm", "--mode", "sequential", "--slacks"]
        assert main(sequential + ["--slack-penalty", "0"]) == EXIT_USAGE

    @pytest.mark.parametrize("flag, value, message", [
        ("--max-iters", "0", "max_iters must be at least 1"),
        ("--slack-penalty", "0", "slack_penalty must be positive"),
        ("--slack-penalty", "-1", "slack_penalty must be positive"),
        ("--tol", "-1", "tol must be positive"),
        ("--tol", "nan", "tol must be positive"),
        ("--slack-penalty", "inf", "slack_penalty must be finite"),
    ])
    def test_an_out_of_range_benders_value_is_a_usage_error(self, membership_file, capsys,
                                                            flag, value, message):
        argv = ["--fixture", "storage", "--mode", "benders", "--root", "design",
                "--partition", membership_file, flag, value]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_strengthened_with_lagrangian_is_a_usage_error(self, capsys):
        """The pair ran exactly the Lagrangian run, with the strengthened flag silently ignored."""
        message = ("strengthened and lagrangian exclude each other:"
                   " a strengthened cut is a Lagrangian ascent's first step")
        with pytest.raises(ValueError, match=message):
            BendersConfig(strengthened=True, lagrangian=True)
        argv = ["--fixture", "chain3_milp", "--mode", "benders", "--root", "g2", "--strengthened", "--lagrangian"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["--fixture", "storage", "--mode", "monolithic", "--multicut", "--lagrangian", "--slack-penalty", "0",
          "--order", "x,y"], "--mode monolithic does not read --multicut, --lagrangian, --slack-penalty, --order"),
        (["--fixture", "mini_pcm", "--mode", "bound", "--slacks", "--max-iters", "3"],
         "--mode bound does not read --max-iters, --slacks"),
        (["--fixture", "mini_pcm", "--mode", "benders", "--root", "b2", "--order", "b1,b2,b3"],
         "--mode benders does not read --order"),
        (["--fixture", "mini_pcm", "--mode", "sequential", "--tol", "1e-5"],
         "--mode sequential does not read --tol"),
    ], ids=["monolithic", "bound", "benders", "sequential"])
    def test_a_flag_the_mode_does_not_read_is_a_usage_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "r.json"
        assert main(argv + ["--output", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert read_report(out)["status"] == "error"

    @pytest.mark.parametrize("argv", [
        ["--fixture", "storage", "--mode", "monolithic", "--partition", "{blocks}"],
        ["--fixture", "mini_pcm", "--mode", "benders", "--root", "b1", "--lagrangian", "--slacks",
         "--max-iters", "20", "--warm-start-cuts"],
        ["--fixture", "mini_pcm", "--mode", "sequential", "--order", "b1,b2,b3", "--slack-penalty", "1e6"],
        ["--fixture", "mini_pcm", "--mode", "bound", "--output", "{report}"],
    ], ids=["monolithic", "benders", "sequential", "bound"])
    def test_a_flag_the_mode_reads_is_accepted(self, membership_file, tmp_path, argv):
        # --partition and --output serve every mode
        argv = [arg.format(blocks=membership_file, report=tmp_path / "r.json") for arg in argv]
        assert main(argv) == EXIT_OK

    def test_a_non_positive_sequential_penalty_is_a_usage_error(self, capsys):
        argv = ["--fixture", "mini_pcm", "--mode", "sequential", "--slacks", "--slack-penalty", "-1"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: slack_penalty must be positive\n"

    def test_an_infinite_sequential_penalty_is_a_usage_error(self, capsys):
        argv = ["--fixture", "mini_pcm", "--mode", "sequential", "--slacks", "--slack-penalty", "inf"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: slack_penalty must be finite\n"

    def test_sequential_mode(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["--fixture", "mini_pcm", "--mode", "sequential", "--slacks", "--output", str(out)]
        )
        assert code == EXIT_OK
        report = read_report(out)
        assert report["objective"] == pytest.approx(430.5555555556)
        assert report["max_violation"] <= 1e-9

    def test_sequential_with_explicit_order(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            [
                "--fixture", "mini_pcm",
                "--mode", "sequential",
                "--order", "b1,b2,b3",
                "--slacks",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        assert main(["--fixture", "mini_pcm", "--mode", "sequential", "--order", "b1,b1,b3"]) == EXIT_USAGE

    def test_bound_mode_reports_violation_honestly(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["--fixture", "mini_pcm", "--mode", "bound", "--output", str(out)])
        assert code == EXIT_OK
        report = read_report(out)
        assert report["objective"] == pytest.approx(232.0)
        assert report["max_violation"] == pytest.approx(20.0)


class TestReports:
    def test_report_written_even_on_failure(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["--fixture", "storage", "--mode", "benders", "--output", str(out)]
        )
        assert code == EXIT_USAGE
        report = read_report(out)
        assert report["status"] == "error"

    def test_report_echoes_the_configuration(self, membership_file, tmp_path):
        out = tmp_path / "r.json"
        main(
            [
                "--fixture", "storage",
                "--mode", "benders",
                "--root", "design",
                "--partition", membership_file,
                "--slacks",
                "--tol", "1e-5",
                "--max-iters", "30",
                "--output", str(out),
            ]
        )
        config = read_report(out)["config"]
        assert config["tol"] == 1e-5
        assert config["max_iters"] == 30
        assert config["slacks"] is True

    def test_report_keys_name_only_what_a_run_has(self, membership_file, tmp_path):
        out = tmp_path / "r.json"
        argv = ["--fixture", "storage", "--mode", "benders", "--root", "design",
                "--partition", membership_file, "--slacks", "--output", str(out)]
        assert main(argv) == EXIT_OK
        report = read_report(out)
        assert set(report["config"]) == {
            "mode", "root", "max_iters", "tol", "multicut", "strengthened", "lagrangian",
            "slacks", "slack_penalty", "warm_start_cuts", "order",
        }
        assert report["bounds_per_iteration"]
        for record in report["bounds_per_iteration"]:
            assert set(record) == {"iteration", "lower", "upper", "gap", "cuts_added"}

    def test_instance_file_round_trips_through_the_cli(self, tmp_path):
        graph = generate_fixture("mini_cem")
        path = tmp_path / "cem.json"
        save_instance(graph, str(path))
        out = tmp_path / "r.json"
        code = main(
            ["--instance", str(path), "--mode", "benders", "--root", "planning", "--output", str(out)]
        )
        assert code == EXIT_OK
        assert read_report(out)["objective"] == pytest.approx(1108.0, rel=1e-6)
