"""Each benchmark check accepts a right answer and rejects a wrong one.

    python3 -m pytest perfbench/tests -q
"""

import copy
import math

import numpy as np
import pytest

import checks
import inputs
import layers
import oracle
from tracer import Tracer

U0_STAR = 4.337387680187417


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------

def _good_solve(p=2.0, q=4.0):
    norm_p = 75.6
    rep = {"energy": (1 / p - 1 / q) * norm_p, "norm_X_p": norm_p,
           "residual": 5e-7, "nehari_gap": 1e-15}
    u = np.linspace(U0_STAR, 0.0, 50)
    return rep, u


def test_solve_accepts_right_answer():
    rep, u = _good_solve()
    assert checks.check_solve(rep, u, 1e-6, 2.0, 4.0, 4.0, U0_STAR) == []


def test_solve_rejects_perturbed_u0():
    rep, u = _good_solve()
    u[0] *= 1.02
    fails = checks.check_solve(rep, u, 1e-6, 2.0, 4.0, 4.0, U0_STAR)
    assert len(fails) == 1 and "oracle" in fails[0]


def test_solve_rejects_energy_outside_bounds():
    rep, u = _good_solve()
    rep["energy"] *= 1 + 1e-5
    fails = checks.check_solve(rep, u, 1e-6, 2.0, 4.0, 4.0)
    assert len(fails) == 1 and "energy" in fails[0]
    # a double power leaves a band; below its floor is still wrong
    rep, u = _good_solve()
    lo, hi = checks.energy_bounds(rep["norm_X_p"], 2.0, 3.0, 5.0)
    rep["energy"] = 0.5 * (lo + hi)
    assert checks.check_solve(rep, u, 1e-6, 2.0, 3.0, 5.0) == []
    rep["energy"] = lo * (1 - 1e-4)
    assert checks.check_solve(rep, u, 1e-6, 2.0, 3.0, 5.0)


@pytest.mark.parametrize("breakage", ["negative", "boundary", "zero", "residual", "gap"])
def test_solve_rejects_broken_properties(breakage):
    rep, u = _good_solve()
    if breakage == "negative":
        u[10] = -1e-3
    elif breakage == "boundary":
        u[-1] = 1e-3
    elif breakage == "zero":
        u[:] = 0.0
    elif breakage == "residual":
        rep["residual"] = 2e-6
    else:
        rep["nehari_gap"] = 2e-6
    assert checks.check_solve(rep, u, 1e-6, 2.0, 4.0, 4.0)


def test_nonincreasing():
    assert checks.check_nonincreasing([55.04, 33.37, 18.21, 9.20, 4.40], "E") == []
    assert checks.check_nonincreasing([55.04, 33.37, 18.21, 19.0, 4.40], "E")


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def _threshold_doc(name):
    """An example document holding the right thresholds, from the program."""
    from quasiradial.cli import _example2_formula_layer, load_config, region_report

    cfg = inputs.example_config(name)
    doc = {"config": cfg, "region": region_report(load_config(cfg))}
    if name != "ex1":
        doc["formula_layer"] = _example2_formula_layer()
    return doc


@pytest.mark.parametrize("name", ["ex1", "ex2_I", "ex2_II", "ex2_III"])
def test_thresholds_accept_program_output(name):
    doc = _threshold_doc(name)
    assert checks.check_thresholds(name, doc, inputs.example_config(name)) == []


def test_thresholds_reject_wrong_values():
    doc = _threshold_doc("ex1")
    bad = copy.deepcopy(doc)
    bad["region"]["thresholds"]["infinity"]["q_star"] = 8.0000001
    assert checks.check_thresholds("ex1", bad, inputs.example_config("ex1"))
    bad = copy.deepcopy(doc)
    bad["region"]["q1_interval"]["lower"] = 2.5
    assert checks.check_thresholds("ex1", bad, inputs.example_config("ex1"))
    doc = _threshold_doc("ex2_I")
    doc["formula_layer"]["q_double_star_exact"] = [95, 9]
    assert checks.check_thresholds("ex2_I", doc, inputs.example_config("ex2_I"))


def test_thresholds_reject_changed_config():
    doc = _threshold_doc("ex2_II")
    doc["config"]["asymptotics"]["origin"]["gamma"] = 4.5
    assert checks.check_thresholds("ex2_II", doc, inputs.example_config("ex2_II"))


def test_closed_forms_match_paper_values():
    assert checks.q_star(0, 0, 3, 4, 2) == 8
    assert checks.q_double_star(-1, 0, 0, 3, 4, 2) == 8
    assert checks.q_star(10, 0, -0.5, 4, 2) * 9 == 56
    assert checks.q_double_star(-2, 10, 0, -0.5, 4, 2) * 9 == 94
    assert checks.q_star(0, 0, 5, 5, 2) is None


# ---------------------------------------------------------------------------
# region raster
# ---------------------------------------------------------------------------

def _raster(origin, N=4, p=2.0, resolution=64):
    from quasiradial.exponents import EndpointAsymptotics, ProblemDims, q1_region_membership

    dims = ProblemDims(N=N, p=p)
    rows = []
    for alpha in np.linspace(-10.0, 5.0, resolution):
        asym = EndpointAsymptotics("origin", a=origin["a"], alpha=float(alpha),
                                   beta=origin["beta"], gamma=origin["gamma"])
        for q in np.linspace(1.0, 15.0, resolution):
            rows.append((alpha, q, int(q1_region_membership(asym, float(q), dims))))
    return np.array(rows)


def test_raster_accepts_program_rows_and_rejects_a_flipped_one():
    origin = inputs.example_config("ex1")["asymptotics"]["origin"]
    rows = _raster(origin)
    assert checks.check_raster(rows, origin, 4, 2.0) == []
    feasible, resolved = checks.raster_oracle(rows[:, 0], rows[:, 1], origin["a"],
                                              origin["beta"], origin["gamma"], 4, 2.0)
    assert resolved.mean() > 0.95 and feasible.any() and not feasible.all()
    i = int(np.flatnonzero(resolved & feasible)[0])
    rows[i, 2] = 1 - rows[i, 2]
    assert len(checks.check_raster(rows, origin, 4, 2.0)) == 1


def test_raster_with_shift_interval():
    # beta < 1: the feasible shifts form an interval, searched on the xi grid
    origin = {"a": -1.0, "alpha": 0.0, "beta": 0.25, "gamma": 3.5}
    rows = _raster(origin, resolution=24)
    assert checks.check_raster(rows, origin, 4, 2.0) == []
    feasible, resolved = checks.raster_oracle(rows[:, 0], rows[:, 1], -1.0, 0.25, 3.5, 4, 2.0)
    i = int(np.flatnonzero(resolved & ~feasible)[-1])
    rows[i, 2] = 1
    assert checks.check_raster(rows, origin, 4, 2.0)


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def _family():
    from quasiradial.cli import load_config
    from quasiradial.exponents import pointwise_decay_exponent
    from quasiradial.potentials import eval_potentials
    from quasiradial.probes import make_trial_family
    from quasiradial.solver import build_grid

    cfg = load_config(inputs.example_config("ex1"))
    grid = build_grid(5e-5, 1e5, 600, cfg.dims)
    table = eval_potentials(cfg.spec_A, cfg.spec_V, cfg.spec_K, grid.nodes)
    nu = float(pointwise_decay_exponent(cfg.asym_origin.a, cfg.asym_origin.gamma, cfg.dims))
    return grid, table, make_trial_family(grid, table, nu, "origin", n_exponents=4, n_cuts=3)


def test_log_norm_matches_program_and_sees_scaling():
    from quasiradial.probes import _log_norm_p

    grid, table, fam = _family()
    assert len(fam) > 0
    for lp in fam.log_profiles:
        ours = checks.log_norm_p(lp, grid.nodes, table.log_A, table.log_V, 4, 2.0)
        assert abs(ours) <= checks.NORM_DEFECT_MAX
        assert ours == pytest.approx(_log_norm_p(lp, grid, table), abs=1e-12)
        # u -> e^0.1 u scales ||u||^p by e^(0.1 p)
        scaled = checks.log_norm_p(lp + 0.1, grid.nodes, table.log_A, table.log_V, 4, 2.0)
        assert scaled == pytest.approx(0.2, abs=1e-9)


def _curve(values, end="origin", verdict="decays"):
    Rs = [0.001, 0.01, 0.1] if end == "origin" else [10.0, 100.0, 1000.0]
    return {"samples": [[R, v] for R, v in zip(Rs, values)], "verdict": verdict,
            "family_size": 2}


def test_probe_accepts_monotone_curves():
    assert checks.check_probe("origin", _curve([1e-6, 1e-4, 1e-2]), [0.0, 1e-15]) == []
    assert checks.check_probe("infinity", _curve([1e-2, 1e-4, 1e-6], "infinity"),
                              [0.0, 0.0]) == []


def test_probe_rejects_wrong_monotonicity_and_defects():
    assert checks.check_probe("origin", _curve([1e-6, 1e-2, 1e-4]), [0.0, 0.0])
    assert checks.check_probe("infinity", _curve([1e-6, 1e-4, 1e-2], "infinity"), [0.0, 0.0])
    assert checks.check_probe("origin", _curve([1e-6, 1e-4, 1e-2]), [0.0, 1e-6])
    assert checks.check_probe("origin", _curve([1e-6, 1e-4, 1e-2]), [0.0])


def test_probe_rejects_vacuous_verdict():
    empty = {"samples": [[10.0, 0.0], [100.0, 0.0], [1000.0, 0.0]],
             "verdict": "decays", "family_size": 0}
    fails = checks.check_probe("infinity", empty, [])
    assert len(fails) == 1 and "empty family" in fails[0]
    assert checks.check_probe("infinity", dict(empty, verdict="stalls"), []) == []


# ---------------------------------------------------------------------------
# oracle and tracing
# ---------------------------------------------------------------------------

def test_oracle_recomputes_ground_state_center():
    assert oracle.ground_state_center() == pytest.approx(U0_STAR, rel=1e-12)
    assert round(U0_STAR, 5) == 4.33739


def test_spans_give_self_time_and_outer_totals(tmp_path):
    import types

    mod = types.SimpleNamespace()
    mod.inner = lambda: sum(range(20000))
    mod.outer = lambda: mod.inner() + mod.inner()
    tr = Tracer()
    tr.wrap(mod, "inner", "nonlinearity.f_eval")
    tr.wrap(mod, "outer", "solver.nehari_scale")
    mod.outer()
    mod.inner()
    tr.dump(tmp_path / "s.npz")
    sp = layers.Spans(tmp_path / "s.npz")
    assert list(sp.parent) == [-1, 0, 0, -1]
    outer = sp.dur[0]
    assert sp.child_s[0] == pytest.approx(sp.dur[1] + sp.dur[2])
    assert 0 < outer - sp.child_s[0] < outer
    m = layers.pass_metrics([sp], [{"quad_hits": 3, "quad_misses": 1, "import_s": 0.5,
                                    "minor_faults": 7}])
    assert m["solver.projections"] == 1 and m["nonlinearity.f_calls"] == 3
    assert m["solver.f_per_projection"] == 2.0
    assert m["nonlinearity.cache_hit_ratio"] == 0.75
    assert m["nonlinearity.s"] == pytest.approx(sp.dur[1:].sum())
    assert tr.outer_total("solver.nehari_scale", "nonlinearity.f_eval") == \
        pytest.approx(sp.dur[0] + sp.dur[3])
    assert math.isfinite(m["solver.projection_s"])
