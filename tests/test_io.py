"""JSON instance round-trips, run reports, and membership files."""

import json
import math

import pytest

from graphopt import (
    Graph,
    ParseError,
    SchemaVersionError,
    UnknownVariableError,
    flatten,
)
from graphopt.fixtures import FIXTURE_NAMES, generate_fixture
from graphopt.serialize import (
    RunReport,
    SCHEMA_VERSION,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    parse_membership,
    save_instance,
    solution_by_name,
    write_report,
)

from conftest import solve_flat


class TestInstanceRoundTrip:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_round_trip_is_canonical(self, name, tmp_path):
        graph = generate_fixture(name)
        path = tmp_path / f"{name}.json"
        save_instance(graph, str(path))
        reloaded = load_instance(str(path))
        again = tmp_path / f"{name}2.json"
        save_instance(reloaded, str(again))
        assert path.read_text() == again.read_text()

    def test_a_shared_node_survives_save_and_load(self, tmp_path):
        g = Graph("g", allow_overlap=True)
        holder, twin = Graph("a"), Graph("b")
        shared = holder.add_node("s")
        x = shared.add_variable("x", lower=0, upper=1)
        g.add_subgraph(holder)
        twin.attach_node(shared)
        y = twin.add_node("b0").add_variable("y", lower=0, upper=1)
        g.add_subgraph(twin)
        g.add_link_constraint(x + y, "le", 1.0)
        path, again = tmp_path / "shared.json", tmp_path / "again.json"
        save_instance(g, str(path))
        loaded = load_instance(str(path))
        a, b = loaded.find_subgraph("a"), loaded.find_subgraph("b")
        assert a.local_nodes()[0] is b.local_nodes()[0]
        assert [n.id for n in loaded.all_nodes()] == ["s", "b0"]
        save_instance(loaded, str(again))
        assert path.read_text() == again.read_text()

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_round_trip_preserves_the_problem(self, name):
        graph = generate_fixture(name)
        reloaded = instance_from_dict(instance_to_dict(graph))
        a, b = flatten(graph), flatten(reloaded)
        assert [r.qualified_name for r in a.columns] == [r.qualified_name for r in b.columns]
        assert a.senses == b.senses
        assert a.integrality == b.integrality
        base, _ = solve_flat(graph)
        redo, _ = solve_flat(reloaded)
        assert redo.objective == pytest.approx(base.objective, rel=1e-12)

    def test_infinite_bounds_use_strings(self):
        g = Graph("g")
        n = g.add_node("n")
        n.add_variable("free")
        n.add_variable("lo", lower=0.0)
        data = instance_to_dict(g)
        variables = data["graph"]["nodes"][0]["variables"]
        assert variables[0]["lb"] == "-inf"
        assert variables[0]["ub"] == "inf"
        assert variables[1]["lb"] == 0.0
        back = instance_from_dict(data)
        ref = back.find_node("n").var("free")
        assert ref.lower == -math.inf and ref.upper == math.inf

    def test_constraint_constants_fold_into_the_rhs(self):
        g = Graph("g")
        n = g.add_node("n")
        x = n.add_variable("x", lower=0, upper=5)
        n.add_constraint(x + 2.0, "le", 3.0)  # stored as x <= 1
        data = instance_to_dict(g)
        con = data["graph"]["nodes"][0]["constraints"][0]
        assert con["rhs"] == 1.0
        back = instance_from_dict(data)
        assert back.find_node("n").constraints[0].rhs == 1.0

    def test_explicit_graph_objective_survives(self):
        g = Graph("g")
        a = g.add_node("a")
        x = a.add_variable("x", lower=0, upper=1)
        b = g.add_node("b")
        y = b.add_variable("y", lower=0, upper=1)
        a.set_objective(5 * x)  # should be ignored once the graph objective is set
        g.set_objective(x - y)
        back = instance_from_dict(instance_to_dict(g))
        eff = back.effective_objective()
        terms = {ref.qualified_name: coef for ref, coef in eff.terms.items()}
        assert terms == {"a.x": 1.0, "b.y": -1.0}

    def test_wrong_schema_version_is_rejected(self):
        data = instance_to_dict(generate_fixture("chain3_milp"))
        data["schema_version"] = "999"
        with pytest.raises(SchemaVersionError):
            instance_from_dict(data)
        assert data["schema_version"] != SCHEMA_VERSION

    def test_unknown_variable_in_a_link_is_rejected(self):
        data = instance_to_dict(generate_fixture("chain3_milp"))
        data["link_constraints"][0]["terms"] = {"n1.x": 1.0, "ghost.q": 1.0}
        with pytest.raises(UnknownVariableError):
            instance_from_dict(data)

    def test_malformed_payload_is_a_parse_error(self):
        with pytest.raises(ParseError):
            instance_from_dict({"schema_version": SCHEMA_VERSION})
        data = instance_to_dict(generate_fixture("chain3_milp"))
        del data["graph"]["subgraphs"][0]["nodes"][0]["variables"][0]["name"]
        with pytest.raises(ParseError):
            instance_from_dict(data)

    def test_bad_json_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_instance(str(path))
        path.write_text("[1, 2, 3]")
        with pytest.raises(ParseError):
            load_instance(str(path))


class TestRunReport:
    def test_report_is_canonical_json(self, tmp_path):
        report = RunReport(
            mode="benders",
            status="converged",
            objective=1108.0,
            wall_clock=0.0,
            solution={"plan.cap_wind": 14.0},
            max_violation=0.0,
            config={"tol": 1e-6},
            bounds_per_iteration=[
                {"iteration": 1, "lower": -math.inf, "upper": math.inf, "gap": math.inf}
            ],
            flags={"slacks_active": False},
        )
        path = tmp_path / "report.json"
        write_report(report, str(path))
        data = json.loads(path.read_text())
        assert data["status"] == "converged"
        assert data["bounds_per_iteration"][0]["lower"] == "-inf"
        assert data["bounds_per_iteration"][0]["upper"] == "inf"
        assert path.read_text().endswith("\n")
        again = tmp_path / "report2.json"
        write_report(report, str(again))
        assert path.read_text() == again.read_text()

    def test_solution_by_name_sorts_deterministically(self, chain3_graph):
        res, prob = solve_flat(chain3_graph)
        named = solution_by_name(prob.values_by_ref(res.primal))
        assert list(named) == sorted(named)
        assert named["n1.x"] in (0.0, 1.0)


class TestMembershipFiles:
    def test_parse_simple_file(self, tmp_path):
        path = tmp_path / "blocks.txt"
        path.write_text(
            "# design/operations split\n"
            "planning design\n"
            "\n"
            "ops1 operations\n"
            "ops2 operations\n"
        )
        assert parse_membership(str(path)) == {
            "planning": "design",
            "ops1": "operations",
            "ops2": "operations",
        }

    def test_malformed_line_is_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("planning design extra\n")
        with pytest.raises(ParseError):
            parse_membership(str(path))
        path.write_text("loner\n")
        with pytest.raises(ParseError):
            parse_membership(str(path))

    def test_duplicate_node_is_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("a left\na right\n")
        with pytest.raises(ParseError):
            parse_membership(str(path))

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ParseError):
            parse_membership(str(path))


class TestGoldenFormats:
    """Byte-for-byte pins of the two file formats we write."""

    GOLDEN_INSTANCE = """\
{
  "allow_overlap": false,
  "graph": {
    "id": "pair",
    "nodes": [
      {
        "constraints": [],
        "id": "a",
        "variables": [
          {
            "integrality": "continuous",
            "lb": 0.0,
            "name": "x",
            "objective": 1.0,
            "ub": 2.0
          }
        ]
      },
      {
        "constraints": [
          {
            "rhs": 1.0,
            "sense": "le",
            "terms": {
              "y": 1.0
            }
          }
        ],
        "id": "b",
        "variables": [
          {
            "integrality": "binary",
            "lb": 0.0,
            "name": "y",
            "ub": 1.0
          }
        ]
      }
    ],
    "subgraphs": []
  },
  "link_constraints": [
    {
      "owner": "pair",
      "rhs": 1.0,
      "sense": "ge",
      "terms": {
        "a.x": 1.0,
        "b.y": 2.0
      }
    }
  ],
  "schema_version": "1"
}
"""

    GOLDEN_REPORT = """\
{
  "bounds_per_iteration": [],
  "config": {},
  "flags": {},
  "max_violation": 0.0,
  "mode": "monolithic",
  "objective": 1.0,
  "solution": {
    "a.x": 1.0,
    "b.y": 0.0
  },
  "status": "optimal",
  "wall_clock": 0.0
}
"""

    @staticmethod
    def _pair_graph() -> Graph:
        g = Graph("pair")
        a = g.add_node("a")
        x = a.add_variable("x", lower=0.0, upper=2.0)
        a.set_objective(x)
        b = g.add_node("b")
        y = b.add_variable("y", lower=0.0, integrality="binary")
        b.add_constraint(y, "le", 1.0)
        g.add_link_constraint(x + 2.0 * y, "ge", 1.0)
        return g

    def test_instance_format_is_frozen(self, tmp_path):
        path = tmp_path / "pair.json"
        save_instance(self._pair_graph(), str(path))
        assert path.read_text() == self.GOLDEN_INSTANCE

    def test_report_format_is_frozen(self, tmp_path):
        report = RunReport(
            mode="monolithic",
            status="optimal",
            objective=1.0,
            wall_clock=0.0,
            solution={"a.x": 1.0, "b.y": 0.0},
            max_violation=0.0,
        )
        path = tmp_path / "report.json"
        write_report(report, str(path))
        assert path.read_text() == self.GOLDEN_REPORT

    def test_golden_instance_loads_back(self, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(self.GOLDEN_INSTANCE)
        graph = load_instance(str(path))
        res, _ = solve_flat(graph)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(0.0)  # free y=1 relaxes the link
