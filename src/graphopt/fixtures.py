"""Built-in example models.

Four families, all small enough to verify against brute-force oracles:

* ``storage``   — sizing a product store against a fluctuating sale price;
  one planning node plus ``T`` linked operation nodes (flat by default;
  ``T=20``, longer horizons repeat the 20-period price pattern).
* ``chain3_milp`` — three nodes with a binary each, linked in a chain and
  wrapped one-per-subgraph.
* ``mini_cem``  — a toy capacity-expansion model: a planning subgraph (two
  capacity variables plus per-period emission budgets) connected to three
  operations subgraphs in a star.
* ``mini_pcm``  — a 12-period commitment/dispatch chain with a storage
  state of charge, cut into three 4-period subgraphs.
"""

from __future__ import annotations

from .errors import UsageError
from .model import Graph
from .transform import apply_partition

FIXTURE_NAMES = ("storage", "chain3_milp", "mini_cem", "mini_pcm")

_STORAGE_PRICES = [5.0] * 7 + [20.0] * 3 + [5.0] * 5 + [50.0] * 5  # sale price per period


def storage_fixture(T: int = 20) -> Graph:
    """Product-storage sizing model, flat: ``T + 1`` nodes, ``4T + 1`` variables, ``3T`` rows."""
    gamma = [_STORAGE_PRICES[t % len(_STORAGE_PRICES)] for t in range(T)]
    beta = [20.0] * T
    alpha, zeta = 10.0, 2.0
    d_sell, d_save, d_buy, y_bar = 50.0, 20.0, 15.0, 10.0

    graph = Graph("storage")
    planning = graph.add_node("planning")
    size = planning.add_variable("storage_size", 0.0)
    planning.set_objective(alpha * size)

    ops = []
    for t in range(1, T + 1):
        node = graph.add_node(f"ops{t}")
        stored = node.add_variable("y_stored", 0.0)
        sell = node.add_variable("y_sell", 0.0, d_sell)
        save = node.add_variable("y_save", -d_save, d_save)
        buy = node.add_variable("x_buy", 0.0, d_buy)
        node.add_constraint(save + sell - zeta * buy, "eq", 0.0)
        node.set_objective(beta[t - 1] * buy - gamma[t - 1] * sell)
        ops.append(node)

    ops[0].add_constraint(1.0 * ops[0].var("y_stored"), "eq", y_bar)
    for i in range(T - 1):
        graph.add_link_constraint(
            ops[i + 1].var("y_stored") - ops[i].var("y_stored") - ops[i + 1].var("y_save"),
            "eq",
            0.0,
        )
    for t in range(T):
        graph.add_link_constraint(ops[t].var("y_stored") - size, "le", 0.0)
    return graph


def storage_membership(T: int = 20) -> dict[str, str]:
    """Two-block split: the planning node versus all ``T`` operation nodes."""
    blocks = {"planning": "design"}
    for t in range(1, T + 1):
        blocks[f"ops{t}"] = "operations"
    return blocks


def chain3_fixture(milp: bool = True) -> Graph:
    """Three linked nodes, one binary each, one subgraph per node.

    Optimum (enumeration over the 8 binary points) is 5.8 at x = (1, 1, 0).
    """
    graph = Graph("chain3")
    nodes = []
    for i in range(1, 4):
        node = graph.add_node(f"n{i}")
        x = node.add_variable("x", 0.0, 1.0, "binary" if milp else "continuous")
        y = node.add_variable("y", 0.0)
        node.add_constraint(x + y, "ge", 1.3)
        node.set_objective(x + 2.0 * y)
        nodes.append(node)
    for i in (1, 2):
        graph.add_link_constraint(nodes[i - 1].var("x") + nodes[i].var("y"), "ge", float(i))
    apply_partition(graph, {"n1": "g1", "n2": "g2", "n3": "g3"})
    return graph


def mini_cem_fixture() -> Graph:
    """Toy capacity expansion: planning root, three operations subgraphs.

    The per-period emission limits are lifted into planning-level budget
    variables so each policy row spans exactly two subgraphs (a star).
    """
    demands = [(10.0, 14.0), (12.0, 8.0), (6.0, 16.0)]
    wind_avail = [(0.5, 1.0), (0.25, 0.75), (1.0, 0.5)]
    cost_cap_th, cost_cap_w = 50.0, 30.0
    cost_th, cost_w, voll = 10.0, 1.0, 500.0
    emission_rate, emission_budget = 2.0, 40.0

    graph = Graph("mini_cem")
    planning = Graph("planning")
    plan = planning.add_node("plan")
    cap_th = plan.add_variable("cap_thermal", 0.0)
    cap_w = plan.add_variable("cap_wind", 0.0)
    budgets = [plan.add_variable(f"q{w}", 0.0) for w in (1, 2, 3)]
    plan.add_constraint(budgets[0] + budgets[1] + budgets[2], "le", emission_budget)
    plan.set_objective(cost_cap_th * cap_th + cost_cap_w * cap_w)
    graph.add_subgraph(planning)

    for w in (1, 2, 3):
        ops = Graph(f"ops{w}")
        period_nodes = []
        for t in (1, 2):
            node = ops.add_node(f"w{w}t{t}")
            th = node.add_variable("gen_thermal", 0.0)
            wind = node.add_variable("gen_wind", 0.0)
            shed = node.add_variable("shed", 0.0)
            node.add_constraint(th + wind + shed, "eq", demands[w - 1][t - 1])
            node.set_objective(cost_th * th + cost_w * wind + voll * shed)
            period_nodes.append(node)
        graph.add_subgraph(ops)
        for t, node in enumerate(period_nodes, start=1):
            graph.add_link_constraint(node.var("gen_thermal") - cap_th, "le", 0.0)
            graph.add_link_constraint(
                node.var("gen_wind") - wind_avail[w - 1][t - 1] * cap_w, "le", 0.0
            )
        emissions = emission_rate * (
            period_nodes[0].var("gen_thermal") + period_nodes[1].var("gen_thermal")
        )
        graph.add_link_constraint(emissions - budgets[w - 1], "le", 0.0)
    return graph


def mini_pcm_fixture(milp: bool = True) -> Graph:
    """12-period commitment and dispatch chain in three 4-period subgraphs.

    Two generators with on/off commitment, an efficiency-lossy store, and
    load shedding at value-of-lost-load.  The state of charge couples
    consecutive periods, so the quotient of the three blocks is a path.
    """
    demand = [4.0, 6.0, 9.0, 12.0, 16.0, 20.0, 22.0, 18.0, 12.0, 8.0, 6.0, 5.0]
    cap1, cap2 = 10.0, 14.0
    cost1, cost2 = 1.0, 8.0
    commit1, commit2 = 2.0, 4.0
    voll = 500.0
    eta = 0.9
    soc_init = 10.0
    kind = "binary" if milp else "continuous"

    graph = Graph("mini_pcm")
    nodes = []
    for t in range(1, 13):
        node = graph.add_node(f"t{t}")
        p1 = node.add_variable("p1", 0.0, cap1)
        p2 = node.add_variable("p2", 0.0, cap2)
        on1 = node.add_variable("on1", 0.0, 1.0, kind)
        on2 = node.add_variable("on2", 0.0, 1.0, kind)
        ch = node.add_variable("charge", 0.0, 5.0)
        dis = node.add_variable("discharge", 0.0, 5.0)
        soc = node.add_variable("soc", 0.0, 20.0)
        shed = node.add_variable("shed", 0.0)
        node.add_constraint(p1 - cap1 * on1, "le", 0.0)
        node.add_constraint(p2 - cap2 * on2, "le", 0.0)
        node.add_constraint(p1 + p2 + dis - ch + shed, "eq", demand[t - 1])
        node.set_objective(
            cost1 * p1 + cost2 * p2 + commit1 * on1 + commit2 * on2 + voll * shed
        )
        nodes.append(node)
    nodes[0].add_constraint(1.0 * nodes[0].var("soc"), "eq", soc_init)
    for t in range(1, 12):
        graph.add_link_constraint(
            nodes[t].var("soc")
            - nodes[t - 1].var("soc")
            - eta * nodes[t].var("charge")
            + nodes[t].var("discharge"),
            "eq",
            0.0,
        )
    membership = {f"t{t}": f"b{(t - 1) // 4 + 1}" for t in range(1, 13)}
    apply_partition(graph, membership)
    return graph


def generate_fixture(name: str, **kwargs) -> Graph:
    """Build a named example model; see the module docstring for the menu."""
    if name == "storage":
        return storage_fixture(**kwargs)
    if name == "chain3_milp":
        return chain3_fixture(**kwargs)
    if name == "mini_cem":
        return mini_cem_fixture(**kwargs)
    if name == "mini_pcm":
        return mini_pcm_fixture(**kwargs)
    raise UsageError(f"unknown fixture {name!r}; choose from {', '.join(FIXTURE_NAMES)}")
