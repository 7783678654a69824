"""Workload inputs: configuration documents and the fine-mesh solve list.

The example documents are the benchmark's own copies of the four bundled
problems; the thresholds check compares them with the `config` each
`example` run reports, so a change to the bundled data shows as a failure.
"""

from __future__ import annotations

import copy


def example_config(name: str) -> dict:
    if name == "ex1":
        return {
            "schema_version": 1,
            "dims": {"N": 4, "p": 2.0},
            "potentials": {
                "A": {"kind": "power", "c": 1.0, "e": -1.0},
                "V": {"kind": "piecewise", "breakpoint": 1.0,
                      "inner": {"kind": "exp_inv", "scale": 1.0},
                      "outer": {"kind": "power", "c": 1.0, "e": -3.0}},
                "K": {"kind": "piecewise", "breakpoint": 1.0,
                      "inner": {"kind": "exp_inv", "scale": 1.0},
                      "outer": {"kind": "constant", "c": 1.0}},
                "s_loc": 2.0,
            },
            "asymptotics": {
                "origin": {"a": -1.0, "alpha": 0.0, "beta": 1.0, "gamma": 8.0, "R": 1.0},
                "infinity": {"a": -1.0, "alpha": 0.0, "beta": 0.0, "gamma": 3.0, "R": 1.0},
            },
            "nonlinearity": {"kind": "min_powers", "q1": 9.0, "q2": 9.0},
            "grid": {"r_min": 4e-3, "r_max": 1e4, "n_nodes": 1600},
            "tolerances": {"solve_tol": 1e-5, "max_iter": 20000},
        }
    N, d = 5, 10.0
    gamma0 = {"ex2_I": 4.0, "ex2_II": float(N), "ex2_III": 6.0}[name]
    return {
        "schema_version": 1,
        "dims": {"N": N, "p": 2.0},
        "potentials": {
            "A": {"kind": "min", "args": [
                {"kind": "power", "c": 1.0, "e": -2.0},
                {"kind": "power", "c": 1.0, "e": -1.0}]},
            "V": {"kind": "max", "args": [
                {"kind": "power", "c": 1.0, "e": -gamma0},
                {"kind": "power", "c": 1.0, "e": 0.5}]},
            "K": {"kind": "max", "args": [
                {"kind": "power", "c": 1.0, "e": d},
                {"kind": "power", "c": 1.0, "e": 0.5}]},
            "s_loc": 2.0,
        },
        "asymptotics": {
            "origin": {"a": -1.0, "alpha": 0.5, "beta": 0.0, "gamma": gamma0, "R": 0.5},
            "infinity": {"a": -2.0, "alpha": d, "beta": 0.0, "gamma": -0.5, "R": 2.0},
        },
        "nonlinearity": {"kind": "min_powers", "q1": 3.0, "q2": 8.5},
        "grid": {"r_min": 1e-4, "r_max": 1e4, "n_nodes": 1600},
        "tolerances": {"solve_tol": 1e-5, "max_iter": 20000},
    }


def unit_config(n_nodes=2000, N=3, p=2.0, q=4.0, nonlinearity=None, tol=1e-6) -> dict:
    """The unit benchmark: A = V = K = 1 on [1e-3, 30], f(u) = u^(q-1).

    Constant potentials sit outside the paper's hypotheses at the origin,
    so the `check` command fails on them and CLI solves need --force.
    """
    return {
        "schema_version": 1,
        "dims": {"N": N, "p": p},
        "potentials": {k: {"kind": "constant", "c": 1.0} for k in "AVK"},
        "asymptotics": {
            "origin": {"a": 0.0, "alpha": 0.0, "beta": 0.0, "gamma": p},
            "infinity": {"a": 0.0, "alpha": 0.0, "beta": 0.0, "gamma": 0.0},
        },
        "nonlinearity": nonlinearity or {"kind": "pure_power", "q1": q, "q2": q},
        "grid": {"r_min": 1e-3, "r_max": 30.0, "n_nodes": n_nodes},
        "tolerances": {"solve_tol": tol, "max_iter": 20000},
    }


def ex1_rational() -> dict:
    """ex1 potentials with the rational splice (q1 = 3) at 800 nodes."""
    cfg = example_config("ex1")
    cfg["nonlinearity"] = {"kind": "rational", "q1": 3.0, "q2": 9.0}
    cfg["grid"]["n_nodes"] = 800
    return cfg


def with_nodes(cfg: dict, n_nodes: int) -> dict:
    cfg = copy.deepcopy(cfg)
    cfg["grid"]["n_nodes"] = n_nodes
    return cfg


# fine_mesh: (case name, config, compare u(0) with the shooting oracle)
FINE_MESH_CASES = [
    ("unit_2000", unit_config(2000), True),
    ("unit_20000", unit_config(20000), True),
    ("unit_100000", unit_config(100000), True),
    ("unit_min_powers_3_5_20000",
     unit_config(20000, nonlinearity={"kind": "min_powers", "q1": 3.0, "q2": 5.0}), False),
    ("unit_p1.5_2000", unit_config(2000, p=1.5, tol=1e-4), False),
    ("unit_N4_p3_2000", unit_config(2000, N=4, p=3.0), False),
    ("ex1_4000", with_nodes(example_config("ex1"), 4000), False),
    ("ex2_I_4000", with_nodes(example_config("ex2_I"), 4000), False),
]
