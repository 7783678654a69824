"""Acceptance suite: one test per acceptance criterion, at the stated
tolerances, each printing a PASS line (run with -s to see them)."""

import math
import time
from fractions import Fraction

import numpy as np

from quasiradial.cli import example_config, load_config
from quasiradial.exponents import (
    EndpointAsymptotics,
    ProblemDims,
    gamma_upper_threshold,
    normalization_reduce,
    q1_admissible_set,
    q1_region_membership,
    q2_lower_bound,
    q_double_star,
    q_star,
    tail_decay_exponent,
    xi_witness_origin,
    GammaSingular,
)
from quasiradial.nonlinearity import NonlinearitySpec, pure_power
from quasiradial.potentials import Constant, eval_potentials
from quasiradial.probes import decay_verdict, make_trial_family, probe_infinity, probe_origin
from quasiradial.solver import (
    RadialFunction,
    build_grid,
    energy,
    solve_ground_state,
)

from shooting_oracle import ground_state_center
from test_solver import energy_gradient

D24 = ProblemDims(N=4, p=2)


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_example1_thresholds():
    t0 = time.monotonic()
    # rational mode: exact
    qs = q_star(Fraction(0), Fraction(0), Fraction(3), D24)
    qss = q_double_star(Fraction(-1), Fraction(0), Fraction(0), Fraction(3), D24)
    assert isinstance(qs, Fraction) and qs == 8
    assert isinstance(qss, Fraction) and qss == 8
    # float mode: 1e-12
    assert abs(q_star(0.0, 0.0, 3.0, D24) - 8.0) <= 1e-12
    assert abs(q_double_star(-1.0, 0.0, 0.0, 3.0, D24) - 8.0) <= 1e-12
    # bound reached through the validated operation as well
    asym = EndpointAsymptotics("infinity", a=Fraction(-1), alpha=Fraction(0),
                               beta=Fraction(0), gamma=Fraction(3))
    assert q2_lower_bound(asym, D24) == 8
    # origin lower bound equals p exactly
    origin = EndpointAsymptotics("origin", a=Fraction(-1), alpha=Fraction(0),
                                 beta=Fraction(1), gamma=Fraction(8))
    s = q1_admissible_set(origin, D24)
    assert s.lower == 2 and s.upper == math.inf
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, f"first-example thresholds exact (8, 8, lower 2) in {elapsed:.3f}s")


def test_criterion_2_example2_formula_thresholds():
    qs = q_star(10.0, 0.0, -0.5, D24)
    qss = q_double_star(-2.0, 10.0, 0.0, -0.5, D24)
    assert abs(qs - 56.0 / 9.0) <= 1e-12
    assert abs(qss - 94.0 / 9.0) <= 1e-12
    assert qss > qs
    _report(2, "second-example formula thresholds 56/9 and 94/9, ordered")


# ---------------------------------------------------------------------------
# Criterion 3: witness feasibility vs closed-form membership, per case.
# The grid oracle evaluates the raw shift-feasibility system (the conditions
# under which the small-ball bound applies with shifted weights) on a xi grid
# of step <= 1e-4 covering [0, 1 - beta] endpoints included.
# ---------------------------------------------------------------------------

_XI_BASE = np.linspace(0.0, 1.0, 10001)


def _oracle_feasible(dims, a, alpha, beta, gamma, q):
    p, N = dims.p, dims.N
    if beta < 1.0:
        xi = _XI_BASE * (1.0 - beta)
    else:
        xi = np.array([0.0])
    beta_eff = beta + xi
    ok = (beta_eff >= 1.0 / p) & (beta_eff <= 1.0)
    ok &= q > p * beta_eff
    D = p * (N - 1) - (p - 1) * gamma + a
    rhs = p ** 2 * (alpha + xi * gamma + N) - p * beta_eff * ((p - 1) * gamma + p - a)
    ok &= D * q < rhs
    return bool(np.any(ok))


def _draw_case(rng, case):
    N = int(rng.integers(3, 7))
    p = float(rng.uniform(1.1, min(N - 0.1, 4.0)))
    dims = ProblemDims(N=N, p=p)
    a = float(rng.uniform(p - N + 0.5, p - 0.02))
    u = rng.random()
    beta = 1.0 if u < 0.1 else (0.0 if u < 0.2 else float(rng.uniform(0.0, 1.0)))
    thr = float(gamma_upper_threshold(a, dims))
    lo_g = p - a
    if case == 1:
        if lo_g + 0.05 >= N - 0.05:
            return None
        gamma = float(rng.uniform(lo_g + 0.05, N - 0.05))
    elif case == 2:
        gamma = float(N)
    elif case == 3:
        if N + 0.03 >= thr - 0.03:
            return None
        gamma = float(rng.uniform(N + 0.03, thr - 0.03))
    elif case == 4:
        gamma = thr
    else:
        gamma = float(rng.uniform(thr + 0.05, thr + 6.0))
    alpha = float(rng.uniform(-(1.5 * abs(gamma) + 2 * N + 4), 2 * N + 4))
    # keep clear of the alpha-side constraint boundaries of the exact branches
    if case == 2 and abs(alpha + (1 - beta) * N) < 0.05:
        return None
    if case == 4 and abs(alpha + (1 - beta) * gamma) < 0.05:
        return None
    return dims, a, alpha, beta, gamma


def _draw_q(rng, dims, a, alpha, beta, gamma):
    """Draw q either inside or outside the membership interval, away from the
    thresholds so the finite-step oracle can resolve the answer."""
    asym = EndpointAsymptotics("origin", a=a, alpha=alpha, beta=beta, gamma=gamma)
    s = q1_admissible_set(asym, dims)
    lower = float(s.lower)
    upper = float(s.upper)
    blocked = s.alpha_constraint is not None and not s.alpha_constraint.satisfied
    inside_possible = (not blocked) and lower + 0.1 < min(upper, lower + 12.0)
    if rng.random() < 0.5 and inside_possible:
        hi = min(upper, lower + 12.0)
        return float(lower + rng.uniform(0.05, 0.95) * (hi - lower)), asym
    if rng.random() < 0.5 or not math.isfinite(upper):
        return float(lower - rng.uniform(0.05, 3.0)), asym
    return float(upper + rng.uniform(0.05, 3.0)), asym


def _resolvable(witness, beta):
    lo, hi = witness.lo, witness.hi
    spacing = (1.0 - beta) * 1e-4
    if not witness.empty:
        if beta >= 1.0:
            return witness.closed_lo and witness.closed_hi
        return (hi - lo) >= 3.0 * spacing + 1e-12
    return (lo - hi) >= 1e-6


def test_criterion_3_witness_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(12345)
    per_case = 10_000
    for case in (1, 2, 3, 4, 5):
        accepted = 0
        attempts = 0
        while accepted < per_case:
            attempts += 1
            assert attempts < 40 * per_case, f"sampler starving in case {case}"
            drawn = _draw_case(rng, case)
            if drawn is None:
                continue
            dims, a, alpha, beta, gamma = drawn
            q, asym = _draw_q(rng, dims, a, alpha, beta, gamma)
            member = q1_region_membership(asym, q, dims)
            witness = xi_witness_origin(asym, q, dims)
            if not _resolvable(witness, beta):
                continue
            feasible = _oracle_feasible(dims, a, alpha, beta, gamma, q)
            assert member == feasible == (not witness.empty), (
                f"case {case}: member={member} oracle={feasible} "
                f"witness_empty={witness.empty} at "
                f"dims=({dims.N},{dims.p}) a={a} alpha={alpha} beta={beta} "
                f"gamma={gamma} q={q}")
            accepted += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(3, f"5 x 10^4 membership/witness/oracle agreements in {elapsed:.1f}s")


def test_criterion_4_normalization_invariance():
    rng = np.random.default_rng(777)
    dims = ProblemDims(N=5, p=Fraction(5, 2))
    checked = 0
    while checked < 10_000:
        alpha = Fraction(int(rng.integers(-80, 81)), int(rng.integers(1, 16)))
        beta = Fraction(int(rng.integers(-24, 25)), int(rng.integers(1, 16)))
        gamma = Fraction(int(rng.integers(-80, 81)), int(rng.integers(1, 16)))
        a = Fraction(int(rng.integers(-24, 25)), 10)
        alpha_r, beta_r = normalization_reduce(alpha, beta, gamma)
        try:
            same_star = q_star(alpha_r, beta_r, gamma, dims) \
                == q_star(alpha, beta, gamma, dims)
            same_dstar = q_double_star(a, alpha_r, beta_r, gamma, dims) \
                == q_double_star(a, alpha, beta, gamma, dims)
        except GammaSingular:
            continue
        assert same_star and same_dstar
        checked += 1
    _report(4, "10^4 exact rational invariances of both critical exponents")


def test_criterion_5_boundary_continuity():
    rng = np.random.default_rng(999)
    for _ in range(300):
        N = int(rng.integers(3, 7))
        p = float(rng.uniform(1.1, min(N - 0.1, 4.0)))
        dims = ProblemDims(N=N, p=p)
        a = float(rng.uniform(p - N + 0.5, p - 0.02))
        beta = float(rng.uniform(0.0, 1.0))
        alpha = float(rng.uniform(-5.0, 5.0))
        gamma = p - a + 1e-6
        qs = q_star(alpha, beta, gamma, dims)
        qss = q_double_star(a, alpha, beta, gamma, dims)
        common = p * (alpha - beta * (p - a) + N) / (N - p + a)
        assert abs(min(qs, qss) - common) <= 1e-4
    _report(5, "limit of min(q*, q**) matches the coincident value to 1e-4")


def test_criterion_6_solver_oracle_benchmark():
    t0 = time.monotonic()
    center = ground_state_center(h=2e-3)
    dims = ProblemDims(N=3, p=2)
    grid = build_grid(1e-3, 30.0, 2000, dims)
    table = eval_potentials(Constant(1.0), Constant(1.0), Constant(1.0), grid.nodes)
    u, rep = solve_ground_state(table, pure_power(4), grid, tol=1e-6)
    rel = abs(u.values[0] - center) / center
    assert rel < 0.01
    assert rep.residual < 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(6, f"u(0)={u.values[0]:.5f} vs shooting {center:.5f} "
               f"(rel {rel:.2e}), residual {rep.residual:.2e}, {elapsed:.1f}s")


def test_criterion_7_example1_end_to_end():
    cfg = load_config(example_config("ex1"))
    assert cfg.q_sorted == (9.0, 9.0)
    assert q2_lower_bound(cfg.asym_infinity, cfg.dims) == 8.0  # 9 > 8: admissible
    grid = build_grid(cfg.r_min, cfg.r_max, cfg.n_nodes, cfg.dims)
    table = eval_potentials(cfg.spec_A, cfg.spec_V, cfg.spec_K, grid.nodes)
    u, rep = solve_ground_state(table, cfg.solver_nonlinearity(), grid,
                                tol=1e-5, max_iter=cfg.max_iter,
                                asym_origin=cfg.asym_origin,
                                asym_infinity=cfg.asym_infinity)
    assert np.min(u.values) >= 0.0
    assert np.max(u.values) > 0.0
    assert rep.residual < 1e-5
    assert rep.nehari_gap <= 1e-5
    assert rep.decay_slope_infinity <= -0.3
    # origin side: no faster blow-up than the pointwise bound allows
    assert rep.decay_slope_origin >= -(4 - 1 - 2) / 2 - 0.2
    _report(7, f"nontrivial nonnegative solution, residual {rep.residual:.2e}, "
               f"far slope {rep.decay_slope_infinity:.2f} <= -0.3")


def test_criterion_8_gradient_correctness():
    from quasiradial.potentials import Power
    nl = NonlinearitySpec("min_powers", 3, 5)
    worst = 0.0
    for p in (2.0, 2.5, 3.0):
        dims = ProblemDims(N=4, p=p)
        grid = build_grid(0.1, 10.0, 64, dims)
        table = eval_potentials(Power(1.5, -0.5), Power(2.0, 0.25),
                                Power(1.0, -0.25), grid.nodes)
        rng = np.random.default_rng(int(p * 100))
        for _ in range(20):
            uv = rng.normal(size=grid.n) * 0.5 + 0.2
            uv[-1] = 0.0
            hv = rng.normal(size=grid.n)
            hv[-1] = 0.0
            u = RadialFunction(grid, uv)
            g = energy_gradient(u, table, nl).values
            eps = 1e-6
            plus = energy(RadialFunction(grid, uv + eps * hv), table, nl)
            minus = energy(RadialFunction(grid, uv - eps * hv), table, nl)
            fd = (plus - minus) / (2 * eps)
            rel = abs(float(np.dot(g, hv)) - fd) / max(abs(fd), 1e-300)
            worst = max(worst, rel)
            assert rel < 1e-6
    _report(8, f"gradient matches central differences, worst rel err {worst:.2e}")


def test_criterion_9_probe_decay():
    cfg = load_config(example_config("ex1"))
    grid = build_grid(cfg.probe_r_min, cfg.probe_r_max, cfg.probe_n_nodes, cfg.dims)
    table = eval_potentials(cfg.spec_A, cfg.spec_V, cfg.spec_K, grid.nodes)

    fam_inf = make_trial_family(grid, table, 0.5, "infinity")
    curve_inf = probe_infinity(table, 9.0, [10.0, 100.0, 1000.0], fam_inf)
    vals = [v for _, v in curve_inf.samples]
    assert vals[1] / vals[0] < 0.9 and vals[2] / vals[1] < 0.9
    assert decay_verdict(curve_inf, 0.9) == "decays"

    fam_0 = make_trial_family(grid, table, -0.75, "origin")
    curve_0 = probe_origin(table, 3.0, [0.1, 0.01, 0.001], fam_0)
    logs = curve_0.log_values  # ordered by increasing R
    assert logs[1] - logs[2] < math.log(0.9)  # R: 0.1 -> 0.01
    assert logs[0] - logs[1] < math.log(0.9)  # R: 0.01 -> 0.001
    assert decay_verdict(curve_0, 0.9) == "decays"
    _report(9, "far probe ratios "
               f"{vals[1] / vals[0]:.2f}, {vals[2] / vals[1]:.2f} < 0.9; "
               "origin probe decays toward 0")


def test_criterion_10_tail_decay_exponent_negative():
    rng = np.random.default_rng(4242)
    checked = 0
    while checked < 10_000:
        N = int(rng.integers(3, 7))
        p = float(rng.uniform(1.1, min(N - 0.1, 4.0)))
        dims = ProblemDims(N=N, p=p)
        a = float(rng.uniform(p - N + 0.05, p - 0.01))
        beta = float(rng.uniform(0.0, 1.0))
        if rng.random() < 0.1:
            beta = 1.0
        gamma = float(rng.uniform(p - a - 10.0, p - a))
        alpha = float(rng.uniform(-3 * N, 3 * N))
        asym = EndpointAsymptotics("infinity", a=a, alpha=alpha, beta=beta,
                                   gamma=gamma)
        q2 = float(q2_lower_bound(asym, dims)) + float(rng.uniform(0.01, 8.0))
        delta = tail_decay_exponent(asym, q2, dims)
        assert delta < 0.0
        checked += 1
    _report(10, "10^4 admissible samples all give a negative tail exponent")
