"""Seeded workload models, built only through graphopt's public modelling API.

Each workload has two halves.  ``<name>_data(rng, **sizes)`` draws the
seeded numbers (prices, demands, availabilities) into a plain dict, and
``<name>_build(data)`` turns them into a flat graph plus the node → block
map that the benchmark hands to ``apply_partition``.  Keeping the draws out
of the build lets the benchmark time the modelling calls alone.  The same
seed always gives the same data.
"""

from __future__ import annotations

import numpy as np

from graphopt import Graph, linear


def storage_lp_data(rng: np.random.Generator, T: int = 80) -> dict:
    """Sell and buy prices around a fixed 20-period pattern, +/-10%.

    The pattern is the one of graphopt's ``storage`` fixture (cheap, then a
    short mid peak, then a long late peak), repeated over the horizon.  The
    seed perturbs every price but keeps the pattern, so each seed asks the
    solvers for about the same amount of work.
    """
    phase = np.arange(T) % 20
    base = np.full(T, 5.0)
    base[(phase >= 7) & (phase <= 9)] = 20.0
    base[phase >= 15] = 50.0
    return {
        "sell_price": np.round(base * rng.uniform(0.9, 1.1, size=T), 2),
        "buy_price": np.round(20.0 * rng.uniform(0.9, 1.1, size=T), 2),
    }


def storage_lp_build(data: dict) -> tuple[Graph, dict[str, str]]:
    """Storage sizing: one planning node and ``T`` linked operation nodes.

    Flat LP: ``3T`` rows by ``4T + 1`` columns, three of every four columns
    bounded on both sides.  Blocks: ``design`` and ``operations``.
    """
    sell_price, buy_price = data["sell_price"], data["buy_price"]
    T = len(sell_price)
    alpha, zeta = 10.0, 2.0
    d_sell, d_save, d_buy, y_bar = 50.0, 20.0, 15.0, 10.0

    graph = Graph("storage_lp")
    planning = graph.add_node("planning")
    size = planning.add_variable("storage_size", 0.0)
    planning.set_objective(alpha * size)

    ops = []
    for t in range(T):
        node = graph.add_node(f"ops{t + 1}")
        node.add_variable("y_stored", 0.0)
        sell = node.add_variable("y_sell", 0.0, d_sell)
        save = node.add_variable("y_save", -d_save, d_save)
        buy = node.add_variable("x_buy", 0.0, d_buy)
        node.add_constraint(save + sell - zeta * buy, "eq", 0.0)
        node.set_objective(float(buy_price[t]) * buy - float(sell_price[t]) * sell)
        ops.append(node)

    ops[0].add_constraint(1.0 * ops[0].var("y_stored"), "eq", y_bar)
    for i in range(T - 1):
        graph.add_link_constraint(
            ops[i + 1].var("y_stored") - ops[i].var("y_stored") - ops[i + 1].var("y_save"),
            "eq",
            0.0,
        )
    for node in ops:
        graph.add_link_constraint(node.var("y_stored") - size, "le", 0.0)

    membership = {"planning": "design"}
    membership.update({node.id: "operations" for node in ops})
    return graph, membership


def cem_star_data(rng: np.random.Generator, S: int = 16, P: int = 24) -> dict:
    """Per-scenario demand and wind availability around fixed daily shapes.

    Demand follows a sine over the day, +/-5% per scenario and period; wind
    availability follows a night-high shape, +/-20%, within [0.05, 1].
    """
    hours = np.arange(P)
    demand_shape = 12.0 + 6.0 * np.sin(2.0 * np.pi * (hours - 6) / P)
    wind_shape = 0.5 + 0.3 * np.cos(2.0 * np.pi * hours / P)
    wind = np.clip(wind_shape * rng.uniform(0.8, 1.2, size=(S, P)), 0.05, 1.0)
    return {
        "demand": np.round(demand_shape * rng.uniform(0.95, 1.05, size=(S, P)), 3),
        "wind_avail": np.round(wind, 3),
    }


def cem_star_slice(data: dict, scenarios: int) -> dict:
    """The same data restricted to the first ``scenarios`` scenarios."""
    return {key: value[:scenarios] for key, value in data.items()}


def cem_star_build(data: dict) -> tuple[Graph, dict[str, str]]:
    """Capacity expansion: a planning block and ``S`` scenario blocks of ``P`` periods.

    Planning chooses thermal and wind capacity and splits an emission budget
    over the scenarios; every scenario link touches planning only, so the
    block quotient is a star.  Flat LP: ``3SP + S + 1`` rows by
    ``3SP + S + 2`` columns.  Blocks: ``planning``, ``scenario1..S``.
    """
    demand, wind_avail = data["demand"], data["wind_avail"]
    S, P = demand.shape
    cost_cap_th, cost_cap_w = 25.0 * P, 15.0 * P
    cost_th, cost_w, voll = 10.0, 1.0, 500.0
    emission_rate = 2.0
    emission_budget = 0.5 * emission_rate * float(demand.sum())

    graph = Graph("cem_star")
    plan = graph.add_node("plan")
    cap_th = plan.add_variable("cap_thermal", 0.0)
    cap_w = plan.add_variable("cap_wind", 0.0)
    budgets = [plan.add_variable(f"q{s + 1}", 0.0) for s in range(S)]
    plan.add_constraint(linear((q, 1.0) for q in budgets), "le", emission_budget)
    plan.set_objective(cost_cap_th * cap_th + cost_cap_w * cap_w)

    membership = {"plan": "planning"}
    weight = 1.0 / S
    for s in range(S):
        thermal = []
        for p in range(P):
            node = graph.add_node(f"s{s + 1}p{p + 1}")
            th = node.add_variable("gen_thermal", 0.0)
            wind = node.add_variable("gen_wind", 0.0)
            shed = node.add_variable("shed", 0.0)
            node.add_constraint(th + wind + shed, "eq", float(demand[s, p]))
            node.set_objective(weight * (cost_th * th + cost_w * wind + voll * shed))
            graph.add_link_constraint(th - cap_th, "le", 0.0)
            graph.add_link_constraint(wind - float(wind_avail[s, p]) * cap_w, "le", 0.0)
            thermal.append((th, emission_rate))
            membership[node.id] = f"scenario{s + 1}"
        graph.add_link_constraint(linear(thermal) - budgets[s], "le", 0.0)
    return graph, membership


def pcm_milp_data(rng: np.random.Generator, periods: int = 12, block: int = 4) -> dict:
    """Demand per period: a fixed daily shape, +/-2%, peaking in block ``b2``.

    Off-peak demand stays below 8.2, so the cheap unit can also charge the
    store on its own, and the peaker is committed only in the peak block.
    The off-peak blocks' value functions then stay convex in the state of
    charge.  Without that, decomposition rooted at the peak block stalls
    short of the optimum (see the benchmark's README).
    """
    shape = np.array([6.0, 6.5, 7.0, 8.0, 12.5, 14.5, 15.5, 13.5, 8.0, 7.0, 6.5, 6.0])
    base = shape[np.arange(periods) % len(shape)]
    return {"demand": np.round(base * rng.uniform(0.98, 1.02, size=periods), 3), "block": block}


def pcm_milp_build(data: dict) -> tuple[Graph, dict[str, str]]:
    """Unit commitment and dispatch chain with binary commitment.

    Two generators with on/off commitment, a lossy store and load shedding;
    the state of charge chains consecutive periods, and the chain is cut into
    blocks ``b1, b2, ...`` of ``block`` periods, so the block quotient is a
    path.  Flat MILP: ``4 * periods`` rows, ``8 * periods`` columns, of which
    ``2 * periods`` are binary.
    """
    demand, block = data["demand"], data["block"]
    cap1, cap2 = 15.0, 14.0
    cost1, cost2 = 1.0, 8.0
    commit1, commit2 = 0.0, 4.0
    voll, eta, soc_init = 500.0, 0.9, 10.0

    graph = Graph("pcm_milp")
    nodes = []
    for t, load in enumerate(demand):
        node = graph.add_node(f"t{t + 1}")
        p1 = node.add_variable("p1", 0.0, cap1)
        p2 = node.add_variable("p2", 0.0, cap2)
        on1 = node.add_variable("on1", 0.0, 1.0, "binary")
        on2 = node.add_variable("on2", 0.0, 1.0, "binary")
        ch = node.add_variable("charge", 0.0, 5.0)
        dis = node.add_variable("discharge", 0.0, 5.0)
        node.add_variable("soc", 0.0, 20.0)
        shed = node.add_variable("shed", 0.0)
        node.add_constraint(p1 - cap1 * on1, "le", 0.0)
        node.add_constraint(p2 - cap2 * on2, "le", 0.0)
        node.add_constraint(p1 + p2 + dis - ch + shed, "eq", float(load))
        node.set_objective(cost1 * p1 + cost2 * p2 + commit1 * on1 + commit2 * on2 + voll * shed)
        nodes.append(node)
    nodes[0].add_constraint(1.0 * nodes[0].var("soc"), "eq", soc_init)
    for t in range(1, len(nodes)):
        graph.add_link_constraint(
            nodes[t].var("soc")
            - nodes[t - 1].var("soc")
            - eta * nodes[t].var("charge")
            + nodes[t].var("discharge"),
            "eq",
            0.0,
        )
    membership = {node.id: f"b{t // block + 1}" for t, node in enumerate(nodes)}
    return graph, membership
