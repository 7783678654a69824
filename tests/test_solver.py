import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

import quasiradial.solver as solver_module
from quasiradial.cli import example_config, load_config
from quasiradial.exponents import ProblemDims
from quasiradial.nonlinearity import F_eval, NonlinearitySpec, f_eval, pure_power
from quasiradial.potentials import Constant, ExpInv, Power, eval_potentials
from quasiradial.solver import (
    BadRange,
    CollapsedToZero,
    Degenerate,
    NoProjection,
    NotConverged,
    RadialFunction,
    build_grid,
    decay_slopes,
    energy,
    initial_bump,
    nehari_scale,
    solve_ground_state,
    solve_problem,
    unit_sphere_area,
)

from shooting_oracle import ground_state_center, ground_state_center_p, series_value
from test_kernels import _fine_mesh_inputs

D24 = ProblemDims(N=4, p=2)
D23 = ProblemDims(N=3, p=2)


def weighted_norm(u, table):
    """Norm combining the A-weighted gradient term and the V-weighted mass
    term, in the form the solve reads (regularized for p != 2)."""
    on = solver_module._on_grid(u.grid, table)
    return solver_module._level(u.values, on) ** (1.0 / u.grid.dims.p)


def unregularized_level(v, on):
    """||v||^p with the A-term density |v'|^p for every p: the solve's own
    form for p = 2, formed here for other p, whose solve regularizes it."""
    p = on.grid.dims.p
    if p == 2.0:
        return solver_module._level(v, on)
    return solver_module._dot(np.abs(np.diff(v) / on.grid.dr) ** p, on.a_measure) \
        + solver_module._dot(on.wv, np.abs(v) ** p)


def hat_function_residual(g, on):
    """Largest defect g per hat-function norm, outer node excluded: the
    residual the stop test reads, with the norms formed here."""
    grid, p = on.grid, on.grid.dims.p
    stiff = on.a_measure / grid.dr ** p
    hat_norms = np.zeros(grid.n)
    hat_norms[:-1] += stiff
    hat_norms[1:] += stiff
    hat_norms += on.wv
    hat_norms **= 1.0 / p
    return float(np.max(np.abs(g[:-1]) / hat_norms[:-1]))


def energy_gradient(u, table, nl):
    """Gradient of the discrete energy with respect to nodal values, with the
    regularized flux that descent follows."""
    return RadialFunction(u.grid, solver_module._gradient(
        u.values, solver_module._on_grid(u.grid, table), nl))


def residual_weak_form(u, table, nl):
    """Largest normalized weak-form defect over the nodal hat-function basis
    of the gradient a solve stops on (energy_gradient's)."""
    on = solver_module._on_grid(u.grid, table)
    return hat_function_residual(solver_module._gradient(u.values, on, nl), on)


def unit_table(grid):
    return eval_potentials(Constant(1.0), Constant(1.0), Constant(1.0), grid.nodes)


def smooth_table(grid):
    a = Power(1.5, -0.5)
    v = Power(2.0, 0.25)
    k = Power(1.0, -0.25)
    return eval_potentials(a, v, k, grid.nodes)


def a_cell(table):
    """A per cell: the geometric mean of its end values, from the logs as
    the solver forms it."""
    return np.exp(0.5 * (table.log_A[:-1] + table.log_A[1:]))


def bisection_nehari_scale(u, table, nl):
    """Reference projection: bisection on the scaled source integral, with
    f evaluated at t u on every trial."""
    grid, p = u.grid, u.grid.dims.p
    q_norm = weighted_norm(u, table) ** p
    wk = grid.quad_weights * np.exp(table.log_K)

    def shifted(t):
        tu = t * u.values
        return float(np.dot(wk, f_eval(nl, tu) * tu)) / t ** p

    lo = hi = 1.0
    while shifted(hi) < q_norm:
        hi *= 2.0
    while shifted(lo) > q_norm:
        lo /= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if shifted(mid) < q_norm:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * hi:
            break
    return 0.5 * (lo + hi)


def project(v, on, nl):
    """solver._project with the level ||v||^p taken from v's own slopes."""
    return solver_module._project(v, on, nl, unregularized_level(v, on))


def reference_nehari_scale(v, on, nl):
    """The Nehari scale of the nodal array v as nehari_scale found it before
    the single-branch closed forms: a single power in closed form, every
    double power bracketed by doubling and halving from t = 1 and located by
    scipy's brentq."""
    from scipy.optimize import brentq

    p = on.grid.dims.p
    level = unregularized_level(v, on)
    if level == 0.0:
        raise NoProjection("u vanishes")
    supp = v > 0.0
    if nl.M <= 0.0 or not np.any(supp):
        raise NoProjection("source term vanishes on the positive part")
    log_v = np.log(v[supp])
    log_wk = np.log(on.grid.quad_weights[supp]) + on.table.log_K[supp]
    if nl.kind == "pure_power" or nl.q1 == nl.q2:
        q = nl.q1
        c = 0.5 * nl.M if nl.kind == "rational" else nl.M
        log_s = math.log(c) + float(logsumexp(log_wk + q * log_v))
        return math.exp((math.log(level) - log_s) / (q - p))
    if nl.kind == "rational":
        excess = solver_module._rational_excess
        args = (np.exp(log_wk + nl.q2 * log_v), np.exp((nl.q2 - nl.q1) * log_v),
                nl.q2 - nl.q1, nl.q2 - p, nl.M, level)
    else:
        q_hi, q_lo = max(nl.q1, nl.q2), min(nl.q1, nl.q2)
        excess = solver_module._min_powers_excess
        args = (v[supp], np.exp(log_wk + q_hi * log_v), np.exp(log_wk + q_lo * log_v),
                q_hi - p, q_lo - p, nl.M, level)
    lo = hi = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        while excess(hi, *args) < 0.0:
            lo, hi = hi, 2.0 * hi
        while excess(lo, *args) > 0.0:
            lo, hi = 0.5 * lo, lo
        return float(brentq(excess, lo, hi, args=args, xtol=1e-13 * lo, rtol=1e-13))


def reference_projected_trial(u, d, t, on, nl):
    """The line-search trial in two passes: reference_nehari_scale, then
    energy() on the scaled trial."""
    trial = np.maximum(u - t * d, 0.0)
    trial[-1] = 0.0
    if not np.any(trial > 0.0):
        return None
    try:
        scale = reference_nehari_scale(trial, on, nl)
    except NoProjection:
        return None
    if not math.isfinite(scale) or scale <= 0.0:
        return None
    trial *= scale
    e = energy(RadialFunction(on.grid, trial), on.table, nl)
    return (trial, e) if math.isfinite(e) else None


def reference_lower_order_terms(u, on, nl):
    """The nodal V and K terms of the gradient with f and |u|^(p-2) u formed
    at every node, also where a power underflows and for p = 2."""
    p = on.grid.dims.p
    with np.errstate(invalid="ignore", divide="ignore"):
        zero_order = np.where(u == 0.0, 0.0, np.abs(u) ** (p - 2.0) * u)
    return on.wv * zero_order, on.wk * f_eval(nl, u)


def reference_gradient_array(du, on, eps, lower):
    """The gradient with the flux density (u'^2 + eps^2)^((p-2)/2) u'
    formed for every p, p = 2 included."""
    grid, p = on.grid, on.grid.dims.p
    with np.errstate(invalid="ignore", divide="ignore"):
        flux_density = np.where((du == 0.0) & (eps == 0.0), 0.0,
                                (du * du + eps * eps) ** ((p - 2.0) / 2.0) * du)
    flux = flux_density * (a_cell(on.table) * grid.cell_measure / grid.dr)
    g = np.zeros(grid.n)
    g[:-1] -= flux
    g[1:] += flux
    g += lower[0]
    g -= lower[1]
    g[-1] = 0.0
    return g


def reference_defects(u, g, on):
    """The stop quantities at u, (residual, Nehari gap, ||u||^p), from the
    gradient g that descent follows and ||u||^p in the solve's form."""
    norm_p = solver_module._level(u, on)
    return hat_function_residual(g, on), abs(float(np.dot(g, u))) / norm_p, norm_p


def reference_solve_preconditioned(g, u, on, eps, eps_u):
    """The metric P built and factored afresh at u, then solved for g."""
    grid, p = on.grid, on.grid.dims.p
    du = np.diff(u) / grid.dr
    coef = (p - 1.0) * a_cell(on.table) * (du * du + eps * eps) ** ((p - 2.0) / 2.0)
    stiff = coef * grid.cell_measure / grid.dr ** 2
    diag = (p - 1.0) * grid.quad_weights * np.exp(on.table.log_V) \
        * (u * u + eps_u * eps_u) ** ((p - 2.0) / 2.0)
    diag[:-1] += stiff
    diag[1:] += stiff
    m = grid.n - 1
    ab = np.zeros((3, m))
    ab[0, 1:] = -stiff[: m - 1]
    ab[1, :] = diag[:m] + 1e-300
    ab[2, : m - 1] = -stiff[: m - 1]
    d = np.zeros(grid.n)
    d[:m] = solver_module.solve_banded(solver_module.factor_banded(ab), g[:m])
    return d


def reference_two_pass_trial(u, d, t, on, nl):
    """The line-search trial with two slope passes: one on the trial for the
    projection's level in the solve's form, one on the scaled trial for its
    energy, whose quadratic form is assembled afresh."""
    trial = np.maximum(u - t * d, 0.0)
    trial[-1] = 0.0
    try:
        scale, source = solver_module._project(trial, on, nl, solver_module._level(trial, on))
    except NoProjection:
        return None
    if not math.isfinite(scale) or scale <= 0.0:
        return None
    trial *= scale
    e = solver_module._level(trial, on) / on.grid.dims.p - source
    return (trial, e) if math.isfinite(e) else None


def reference_solve(table, nl, grid, tol, max_iter=20000):
    """The descent loop of solve_ground_state before the slope passes were
    fused: per iteration the defects, the descent gradient and the metric
    each take the slopes of u afresh, P is factored every iteration for
    every p, every trial takes two slope passes, and the gradient's terms
    are formed by reference_lower_order_terms and reference_gradient_array.
    One gradient, the regularized one descent follows, is also the one the
    stop test reads (for p = 2 the regularization leaves it unchanged).
    The direction is z + beta d_last with the hybrid Fletcher-Reeves /
    Polak-Ribiere beta, restarted as d = z on the first step and where
    g . d is not finite and positive.  Returns (iterations, energies passed
    to on_iterate, final u)."""
    on = solver_module._on_grid(grid, table)
    u = initial_bump(grid)
    u = u * nehari_scale(RadialFunction(grid, u), table, nl)
    i_cur = energy(RadialFunction(grid, u), table, nl)
    energies = []
    last = None  # (d, z, g . z) of the last step
    for iterations in range(1, max_iter + 1):
        eps = solver_module._eps_for(np.diff(u) / grid.dr)
        g = reference_gradient_array(np.diff(u) / grid.dr, on, eps,
                                     reference_lower_order_terms(u, on, nl))
        residual, gap, _ = reference_defects(u, g, on)
        if residual <= tol and gap <= tol:
            return iterations, energies, u
        eps_u = 1e-10 * float(np.max(np.abs(u)))
        z = reference_solve_preconditioned(g, u, on, eps, eps_u)
        gz = float(np.dot(g, z))
        d, slope = z, gz
        if last is not None:
            d_last, z_last, gz_last = last
            beta_fr = gz / gz_last
            beta_pr = (gz - float(np.dot(g, z_last))) / gz_last
            d = z + max(-beta_fr, min(beta_pr, beta_fr)) * d_last
            slope = float(np.dot(g, d))
            if not math.isfinite(slope) or slope <= 0.0:
                d, slope = z, gz
        last = (d, z, gz)
        t, step = 1.0, None
        while t > 1e-14:
            trial = reference_two_pass_trial(u, d, t, on, nl)
            if trial is not None and trial[1] <= i_cur - 1e-4 * t * slope:
                step = trial
                break
            t *= 0.5
        if step is not None and t == 1.0:
            while t < 64.0:
                t *= 2.0
                longer = reference_two_pass_trial(u, d, t, on, nl)
                if longer is None or longer[1] >= step[1]:
                    break
                step = longer
        assert step is not None, "the reference line search stalled"
        u, i_cur = step
        energies.append(i_cur)
    raise AssertionError("the reference loop ran out of iterations")


def _unit_case(n_nodes=2000, dims=D23, nl=None, tol=1e-6):
    grid = build_grid(1e-3, 30.0, n_nodes, dims)
    return unit_table(grid), nl or pure_power(4), grid, tol


def _example_config(name, n_nodes=None):
    doc = example_config(name)
    if n_nodes is not None:
        doc["grid"]["n_nodes"] = n_nodes
    return load_config(doc)


def _example_case(name, n_nodes=None):
    cfg = _example_config(name, n_nodes)
    grid = build_grid(cfg.r_min, cfg.r_max, cfg.n_nodes, cfg.dims)
    table = eval_potentials(cfg.spec_A, cfg.spec_V, cfg.spec_K, grid.nodes)
    return table, cfg.solver_nonlinearity(), grid, cfg.solve_tol


# ex2_I and ex1 at their bundled 1600 nodes; the unit data at 2000 nodes
# with p = 2, with p = 1.5 and with N = 4, p = 3
FUSED_LOOP_CASES = {
    "ex2_I": lambda: _example_case("ex2_I"),
    "ex1": lambda: _example_case("ex1"),
    "unit": _unit_case,
    "unit_p1.5": lambda: _unit_case(dims=ProblemDims(N=3, p=1.5), tol=1e-4),
    "unit_N4_p3": lambda: _unit_case(dims=ProblemDims(N=4, p=3)),
}


class TestFusedLoopAgainstReference:
    """solve_ground_state against reference_solve: the same iterations, the
    same final iterate bit for bit, and on_iterate energies that agree to
    1e-13 relative."""

    @pytest.mark.parametrize("case", list(FUSED_LOOP_CASES))
    def test_same_iterates(self, case):
        table, nl, grid, tol = FUSED_LOOP_CASES[case]()
        energies = []
        u, rep = solve_ground_state(table, nl, grid, tol=tol,
                                    on_iterate=lambda k, e: energies.append(e))
        ref_iterations, ref_energies, ref_u = reference_solve(table, nl, grid, tol)
        assert rep.iterations == ref_iterations
        assert np.array_equal(u.values, ref_u)
        assert len(energies) == len(ref_energies) == ref_iterations - 1
        np.testing.assert_allclose(energies, ref_energies, rtol=1e-13, atol=0.0)
        assert rep.energy == energies[-1]

    @pytest.mark.parametrize("case,per_iteration", [
        ("unit", False), ("ex2_I", False), ("unit_p1.5", True), ("unit_N4_p3", True)])
    def test_factorizations(self, case, per_iteration, monkeypatch):
        # P is factored once per p = 2 solve and once per descent step for
        # p != 2; the last iteration of a converged solve only tests
        factored, solved = [], []
        factor_banded, solve_banded = solver_module.factor_banded, solver_module.solve_banded

        def counting_factor(ab):
            factored.append(ab.shape)
            return factor_banded(ab)

        def counting_solve(factor, rhs):
            solved.append(len(rhs))
            return solve_banded(factor, rhs)

        monkeypatch.setattr(solver_module, "factor_banded", counting_factor)
        monkeypatch.setattr(solver_module, "solve_banded", counting_solve)
        table, nl, grid, tol = FUSED_LOOP_CASES[case]()
        _, rep = solve_ground_state(table, nl, grid, tol=tol)
        steps = rep.iterations - 1
        assert steps > 5
        assert len(solved) == steps
        assert len(factored) == (steps if per_iteration else 1)
        assert set(factored) == {(3, grid.n - 1)}


class TestIterationShortcuts:
    """The work a descent iteration leaves out: the trial's second assembly
    of the quadratic form, and the K-term where f's power underflows."""

    @pytest.mark.parametrize("p,calls", [
        (2.0, ["_level"]), (1.5, ["_level", "_eps_for"])])
    def test_trial_assembles_the_form_once(self, p, calls, monkeypatch):
        # one form, taken once on the unscaled trial, gives the projection's
        # level and the energy: for p = 2 with eps = 0, which the
        # regularization would leave unchanged; otherwise regularized
        u, d, on = TestProjectionAgainstTwoPasses.smooth_case(ProblemDims(N=3, p=p))
        seen = []
        for name in ("_level", "_eps_for"):
            def spy(*args, real=getattr(solver_module, name), name=name):
                seen.append(name)
                return real(*args)

            monkeypatch.setattr(solver_module, name, spy)
        assert solver_module._projected_trial(u, d, 0.5, on, pure_power(4)) is not None
        assert seen == calls

    def test_terms_equal_the_full_formulas_on_ex2_iterates(self, monkeypatch):
        # bit for bit, except K-entries at nodes where u^(q-1) is below the
        # normal floats and f(u) is subnormal, which read 0; there g moves by
        # at most the dropped entry, and with the same K-term the p = 2 flux
        # and V-term give the same g bits as the full formulas
        table, nl, grid, tol = _example_case("ex2_I")
        on = solver_module._on_grid(grid, table)
        seen = []
        gradient = solver_module._gradient

        def spy(u, on, nl):
            g = gradient(u, on, nl)
            seen.append((u.copy(), g.copy()))
            return g

        monkeypatch.setattr(solver_module, "_gradient", spy)
        _, rep = solve_ground_state(table, nl, grid, tol=tol)
        assert len(seen) == rep.iterations > 10
        threshold = np.finfo(float).tiny ** (1.0 / (max(nl.q1, nl.q2) - 1.0))
        dropped = 0
        for u, g in seen:
            ref = reference_lower_order_terms(u, on, nl)
            k_term = np.where(u > threshold, ref[1], 0.0)
            moved = k_term.view(np.int64) != ref[1].view(np.int64)
            f = f_eval(nl, u[moved])
            assert np.all((f > 0.0) & (f < np.finfo(float).tiny))
            dropped += int(np.sum(moved))
            du = np.diff(u) / grid.dr
            full = reference_gradient_array(du, on, 0.0, (ref[0], k_term))
            assert g.tobytes() == full.tobytes()
            g_ref = reference_gradient_array(du, on, 0.0, ref)
            assert g[~moved].tobytes() == g_ref[~moved].tobytes()
            assert np.all(np.abs(g - g_ref)[moved] <= np.abs(ref[1][moved]))
        assert dropped > 0

    def test_overflowed_weight_is_not_read_as_zero(self):
        # with K = 1e307 some w K are inf; where f(u) underflows the K-term
        # reads NaN, not 0, and so does the gradient (outer node excluded),
        # and the solve stops at once
        grid = build_grid(1e-2, 20.0, 300, D23)
        with np.errstate(over="ignore"):
            table = eval_potentials(Constant(1.0), Constant(1.0), Constant(1e307), grid.nodes)
        on = solver_module._on_grid(grid, table)
        u = 1e-103 * initial_bump(grid)
        nl = pure_power(5)
        g = solver_module._gradient(u, on, nl)[:-1]
        overflowed = np.isinf(on.wk[:-1])
        assert np.any(overflowed & (u[:-1] > 0.0))
        assert np.all(np.isnan(g[overflowed]))
        assert np.all(np.isfinite(g[~overflowed]))
        with pytest.raises(NotConverged, match="after 1 iterations"):
            solve_ground_state(table, nl, grid, max_iter=50)


class TestOneEnergy:
    """For p != 2 the solve reads one form of the energy: the trial's
    projection and energy and the stop test's ||u||^p the regularized norm,
    the stop test and descent the regularized gradient."""

    def test_stop_test_reads_the_descent_gradient(self):
        table, nl, grid, tol = FUSED_LOOP_CASES["unit_p1.5"]()
        u, rep = solve_ground_state(table, nl, grid, tol=tol)
        on = solver_module._on_grid(grid, table)
        g = energy_gradient(u, table, nl).values
        assert rep.residual == hat_function_residual(g, on)
        norm_p = solver_module._level(u.values, on)
        assert rep.norm_X_p == norm_p
        assert rep.nehari_gap == abs(solver_module._dot(g, u.values)) / norm_p

    @pytest.mark.parametrize("case", ["unit_p1.5", "unit_N4_p3"])
    def test_one_gradient_per_iteration_and_one_form_per_trial(self, case, monkeypatch):
        counts = {"_gradient": 0, "_level": 0, "_projected_trial": 0, "_slopes": 0}
        for name in counts:
            def spy(*args, real=getattr(solver_module, name), name=name):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(solver_module, name, spy)
        table, nl, grid, tol = FUSED_LOOP_CASES[case]()
        _, rep = solve_ground_state(table, nl, grid, tol=tol)
        assert counts["_gradient"] == rep.iterations
        # each trial forms the form once, and each stop test once more
        assert counts["_level"] == counts["_projected_trial"] + rep.iterations
        assert counts["_projected_trial"] > rep.iterations
        # one slope pass per form, per gradient (eps included) and per
        # metric, which each step but the converged last iteration factors
        assert counts["_slopes"] == counts["_level"] + 2 * rep.iterations - 1


class TestGrid:
    def test_weights_integrate_measure_exactly(self):
        grid = build_grid(0.01, 100.0, 512, D24)
        omega = unit_sphere_area(4)
        exact = omega * (100.0 ** 4 - 0.01 ** 4) / 4
        assert solver_module._dot(grid.quad_weights, np.ones(grid.n)) == pytest.approx(
            exact, rel=1e-12)

    def test_inverse_square_integrand(self):
        grid = build_grid(1.0, math.e, 4096, D24)
        omega = unit_sphere_area(4)
        assert omega == pytest.approx(2 * math.pi ** 2)
        val = solver_module._dot(grid.quad_weights, grid.nodes ** -2.0)
        exact = omega * (math.e ** 2 - 1) / 2
        assert val == pytest.approx(exact, rel=1e-6)

    def test_refinement_is_second_order(self):
        f = lambda r: np.exp(-((np.log(r)) ** 2))
        errs = []
        exact = build_grid(0.05, 20.0, 40000, D24)
        ref = solver_module._dot(exact.quad_weights, f(exact.nodes))
        for n in (200, 400, 800):
            g = build_grid(0.05, 20.0, n, D24)
            errs.append(abs(solver_module._dot(g.quad_weights, f(g.nodes)) - ref))
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0

    def test_bad_ranges(self):
        with pytest.raises(BadRange):
            build_grid(1.0, 0.5, 100, D24)
        with pytest.raises(BadRange):
            build_grid(0.1, 10.0, 8, D24)


class TestNorm:
    def test_zero(self):
        grid = build_grid(0.1, 10.0, 64, D24)
        u = RadialFunction(grid, np.zeros(grid.n))
        assert weighted_norm(u, unit_table(grid)) == 0.0

    def test_p_homogeneity_exact(self):
        grid = build_grid(0.1, 10.0, 128, ProblemDims(N=4, p=2.5))
        t = smooth_table(grid)
        vals = initial_bump(grid)
        u = RadialFunction(grid, vals)
        cu = RadialFunction(grid, 3.5 * vals)
        assert weighted_norm(cu, t) == pytest.approx(3.5 * weighted_norm(u, t), rel=1e-14)

    def test_hat_function_against_dense_reference(self):
        # piecewise-linear hat: gradient term is exact, mass term converges
        grid = build_grid(0.5, 2.0, 2001, D23)
        t = unit_table(grid)
        i = grid.n // 2
        vals = np.zeros(grid.n)
        vals[i] = 1.0
        u = RadialFunction(grid, vals)
        omega = unit_sphere_area(3)
        r = grid.nodes
        # dense reference on each of the two support cells
        ref = 0.0
        for (ra, rb, rising) in ((r[i - 1], r[i], True), (r[i], r[i + 1], False)):
            rr = np.linspace(ra, rb, 20001)
            lin = (rr - ra) / (rb - ra) if rising else (rb - rr) / (rb - ra)
            slope = 1.0 / (rb - ra)
            ref += omega * np.trapezoid((slope ** 2 + lin ** 2) * rr ** 2, rr)
        assert weighted_norm(u, t) ** 2 == pytest.approx(ref, rel=1e-6)


class TestEnergy:
    def test_zero_function(self):
        grid = build_grid(0.1, 10.0, 64, D24)
        u = RadialFunction(grid, np.zeros(grid.n))
        assert energy(u, unit_table(grid), pure_power(4)) == 0.0

    def test_degenerate_source_reduces_to_norm(self):
        grid = build_grid(0.1, 10.0, 128, D24)
        t = unit_table(grid)
        nl = pure_power(4, M=0.0)
        u = RadialFunction(grid, initial_bump(grid))
        expected = weighted_norm(u, t) ** 2 / 2
        assert energy(u, t, nl) == pytest.approx(expected, rel=1e-10)

    def test_richardson_refinement(self):
        f = lambda r: np.exp(-0.5 * np.log(r) ** 2) * np.where(np.abs(np.log(r)) < 6, 1.0, 0.0)
        vals = []
        for n in (2000, 8000):
            grid = build_grid(0.01, 100.0, n, D24)
            t = smooth_table(grid)
            v = f(grid.nodes)
            v[-1] = 0.0
            vals.append(energy(RadialFunction(grid, v), t, pure_power(4)))
        assert vals[0] == pytest.approx(vals[1], rel=1e-4)

    def test_finite_past_overflowing_slopes(self):
        # the Nehari point of pure_power(3, M=1e-250) at p = 1.5 has scaled
        # slopes whose squares overflow; its energy is near 1.17e253
        grid = build_grid(1e-2, 20.0, 300, ProblemDims(N=3, p=1.5))
        on = solver_module._on_grid(grid, unit_table(grid))
        u = initial_bump(grid)
        trial, e, _ = solver_module._projected_trial(u, 0.0 * u, 0.0, on, pure_power(3, M=1e-250))
        assert 1e253 < e < 1.2e253
        assert energy(RadialFunction(grid, trial), on.table,
                      pure_power(3, M=1e-250)) == pytest.approx(e, rel=1e-12)


class TestGradient:
    def test_zero_point(self):
        for p in (2.0, 2.5, 3.0):
            grid = build_grid(0.1, 10.0, 64, ProblemDims(N=4, p=p))
            t = unit_table(grid)
            g = energy_gradient(RadialFunction(grid, np.zeros(grid.n)), t,
                                NonlinearitySpec("min_powers", 3, 5))
            assert np.all(g.values == 0.0)

    def test_boundary_component_excluded(self):
        grid = build_grid(0.1, 10.0, 64, D24)
        t = unit_table(grid)
        u = RadialFunction(grid, initial_bump(grid))
        g = energy_gradient(u, t, pure_power(4))
        assert g.values[-1] == 0.0

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
    def test_matches_central_differences(self, p):
        rng = np.random.default_rng(97)
        grid = build_grid(0.1, 10.0, 64, ProblemDims(N=4, p=p))
        t = smooth_table(grid)
        nl = NonlinearitySpec("min_powers", 3, 5)
        for _ in range(5):
            uv = rng.normal(size=grid.n) * 0.5 + 0.2
            uv[-1] = 0.0
            hv = rng.normal(size=grid.n)
            hv[-1] = 0.0
            u = RadialFunction(grid, uv)
            g = energy_gradient(u, t, nl).values
            eps = 1e-6
            up = RadialFunction(grid, uv + eps * hv)
            um = RadialFunction(grid, uv - eps * hv)
            fd = (energy(up, t, nl) - energy(um, t, nl)) / (2 * eps)
            assert np.dot(g, hv) == pytest.approx(fd, rel=1e-6, abs=1e-10)


class TestNehari:
    def test_pure_power_closed_form(self):
        grid = build_grid(0.1, 10.0, 200, D23)
        t = unit_table(grid)
        nl = pure_power(4)
        u = RadialFunction(grid, initial_bump(grid))
        ts = nehari_scale(u, t, nl)
        q_norm = weighted_norm(u, t) ** 2
        s = solver_module._dot(grid.quad_weights, np.maximum(u.values, 0) ** 4)
        assert ts == pytest.approx((q_norm / s) ** 0.5, rel=1e-12)

    def test_scale_one_after_projection(self):
        grid = build_grid(0.1, 10.0, 200, D23)
        t = unit_table(grid)
        nl = pure_power(4)
        u = RadialFunction(grid, initial_bump(grid))
        ts = nehari_scale(u, t, nl)
        v = RadialFunction(grid, ts * u.values)
        assert nehari_scale(v, t, nl) == pytest.approx(1.0, rel=1e-12)

    def test_min_powers_defining_equation(self):
        grid = build_grid(0.1, 10.0, 200, D23)
        t = unit_table(grid)
        nl = NonlinearitySpec("min_powers", 3, 5)
        u = RadialFunction(grid, initial_bump(grid))
        ts = nehari_scale(u, t, nl)
        from quasiradial.nonlinearity import f_eval
        tu = ts * u.values
        lhs = ts ** 2 * weighted_norm(u, t) ** 2
        rhs = solver_module._dot(grid.quad_weights, f_eval(nl, tu) * tu)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestNehariAgainstBisection:
    # the projected bump exceeds 1 on part of its support, so both regimes
    # of each nonlinearity are active; amplitudes 0.05 and 20 put the root
    # far above and below t = 1 (doubling and halving brackets)
    @pytest.mark.parametrize("nl", [
        NonlinearitySpec("min_powers", 3, 5),
        NonlinearitySpec("min_powers", 5, 3),
        NonlinearitySpec("rational", 3, 5),
        NonlinearitySpec("min_powers", 3, 8.5, M=0.37),
        NonlinearitySpec("rational", 2.5, 4, M=4.0),
    ], ids=["min_q1_lt_q2", "min_q1_gt_q2", "rational", "min_M", "rational_M"])
    @pytest.mark.parametrize("amplitude", [0.05, 1.0, 20.0])
    def test_agrees_with_bisection(self, nl, amplitude):
        grid = build_grid(0.05, 20.0, 300, D23)
        t = smooth_table(grid)
        u = RadialFunction(grid, amplitude * initial_bump(grid))
        assert nehari_scale(u, t, nl) == pytest.approx(
            bisection_nehari_scale(u, t, nl), rel=1e-12)

    def test_negative_entries_are_inert(self):
        grid = build_grid(0.05, 20.0, 300, D23)
        t = smooth_table(grid)
        vals = 2.0 * initial_bump(grid) * np.cos(3.0 * np.log(grid.nodes))
        assert np.min(vals) < 0.0 < np.max(vals)
        u = RadialFunction(grid, vals)
        for nl in (NonlinearitySpec("min_powers", 3, 5), NonlinearitySpec("rational", 3, 5)):
            assert nehari_scale(u, t, nl) == pytest.approx(
                bisection_nehari_scale(u, t, nl), rel=1e-12)

    def test_widely_weighted_example_table(self):
        # ex2_I at 4000 nodes: w K spans about 60 decades over the grid
        cfg = load_config(example_config("ex2_I"))
        grid = build_grid(cfg.r_min, cfg.r_max, 4000, cfg.dims)
        t = eval_potentials(cfg.spec_A, cfg.spec_V, cfg.spec_K, grid.nodes)
        wk = grid.quad_weights * np.exp(t.log_K)
        assert np.log10(wk.max() / wk.min()) > 55
        vals = np.minimum(1.0, grid.nodes ** -3.0)
        vals[-1] = 0.0
        u = RadialFunction(grid, vals)
        nl = cfg.solver_nonlinearity()
        assert nehari_scale(u, t, nl) == pytest.approx(
            bisection_nehari_scale(u, t, nl), rel=1e-12)

    @pytest.mark.parametrize("nl", [NonlinearitySpec("min_powers", 3, 5),
                                    NonlinearitySpec("rational", 3, 5)])
    def test_nonpositive_iterate_has_no_projection(self, nl):
        grid = build_grid(0.1, 10.0, 200, D23)
        u = RadialFunction(grid, -initial_bump(grid))
        with pytest.raises(NoProjection):
            nehari_scale(u, unit_table(grid), nl)

    def test_no_nonlinearity_evaluations(self, monkeypatch):
        # the powers of u_+ are formed once; trial scales never call f
        calls = []
        real = solver_module.f_eval

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver_module, "f_eval", counting)
        grid = build_grid(0.1, 10.0, 200, D23)
        u = RadialFunction(grid, initial_bump(grid))
        for nl in (NonlinearitySpec("min_powers", 3, 5), NonlinearitySpec("rational", 3, 5)):
            nehari_scale(u, unit_table(grid), nl)
        assert calls == []


def compressed_project(v, on, nl, level):
    """solver._project as it was before it worked on the whole node array:
    log v and w K are compressed to the nodes where v > 0, and a single
    power's sum of w K v^q is taken by logsumexp."""
    p = on.grid.dims.p
    if level == 0.0:
        raise NoProjection("u vanishes")
    supp = v > 0.0
    if nl.M <= 0.0 or not np.any(supp):
        raise NoProjection("source term vanishes on the positive part")
    pos = v[supp]
    log_v = np.log(pos)
    log_wk = on.log_wk[supp]
    if nl.kind == "pure_power" or nl.q1 == nl.q2:
        q = nl.q1
        c = 0.5 * nl.M if nl.kind == "rational" else nl.M
        log_s = math.log(c) + float(logsumexp(log_wk + q * log_v))
        s = np.float64(math.exp((math.log(level) - log_s) / (q - p)))
        return s, float(s ** p * level / q)
    assert nl.kind == "min_powers"
    q_hi, q_lo = max(nl.q1, nl.q2), min(nl.q1, nl.q2)
    a = np.exp(log_wk + q_hi * log_v)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = (level / (nl.M * np.sum(a))) ** (1.0 / (q_hi - p))
        if s * np.max(pos) <= 1.0:
            return s, float(s ** p * level / q_hi)
        b = np.exp(log_wk + q_lo * log_v)
        s = (level / (nl.M * np.sum(b))) ** (1.0 / (q_lo - p))
        if math.isfinite(s) and s * np.min(pos) > 1.0:
            return s, float(s ** p * level / q_lo
                            + nl.M * (1.0 / q_hi - 1.0 / q_lo) * np.sum(on.wk[supp]))
        s = np.float64(solver_module._bracketed_root(solver_module._min_powers_excess, (
            pos, a, b, q_hi - p, q_lo - p, nl.M, level)))
        large = s * pos > 1.0
        source = nl.M * (s ** q_hi * np.sum(a[~large]) / q_hi
                         + s ** q_lo * np.sum(b[large]) / q_lo
                         + (1.0 / q_hi - 1.0 / q_lo) * np.sum(on.wk[supp][large]))
    return s, float(source)


class TestWholeArrayProjection:
    """_project, which works on the whole node array, against
    compressed_project: the scale and the source agree to 1e-14 relative."""

    @staticmethod
    def trials(K):
        # the bump, the bump cut to 0 beyond r = 2 (an exact-zero tail) and
        # cut to 0 below r = 0.2 as well
        grid = build_grid(0.05, 20.0, 300, D23)
        on = solver_module._on_grid(
            grid, eval_potentials(Power(1.5, -0.5), Power(2.0, 0.25), K, grid.nodes))
        bump = initial_bump(grid)
        tail = np.where(grid.nodes > 2.0, 0.0, bump)
        return on, [bump, tail, np.where(grid.nodes < 0.2, 0.0, tail)]

    @staticmethod
    def check(K, nl, branches, rel=1e-14, source_rel=1e-14):
        on, trials = TestWholeArrayProjection.trials(K)
        for v, branch in zip(trials, branches):
            level = solver_module._level(v, on)
            if nl.kind == "min_powers":
                assert _branch(v, on, nl) == branch
            got = solver_module._project(v, on, nl, level)
            ref = compressed_project(v, on, nl, level)
            assert got[0] == pytest.approx(ref[0], rel=rel, abs=0.0)
            assert got[1] == pytest.approx(ref[1], rel=source_rel, abs=0.0)

    @pytest.mark.parametrize("nl,branches", [
        (pure_power(4, M=0.7), None),
        (NonlinearitySpec("rational", 4, 4, M=0.3), None),
        (NonlinearitySpec("min_powers", 3, 5, M=1e4), ["small"] * 3),
        (NonlinearitySpec("min_powers", 5, 3, M=0.01), ["large"] * 3),
        (NonlinearitySpec("min_powers", 3, 8.5, M=1.0), ["mixed", "mixed", "large"]),
    ], ids=["pure_power", "rational_equal", "all_small", "all_large", "bracketed"])
    def test_smooth_weights(self, nl, branches):
        self.check(Power(1.0, -0.25), nl, branches or [None] * 3)

    @pytest.mark.parametrize("K,nl", [
        (ExpInv(40.0), pure_power(4, M=0.7)),
        (ExpInv(40.0), NonlinearitySpec("rational", 4, 4, M=0.3)),
        (ExpInv(30.0), NonlinearitySpec("min_powers", 3, 5)),
    ], ids=["pure_power", "rational_equal", "all_small"])
    def test_astronomical_weights(self, K, nl):
        # log w K reaches 790 for K = e^(40 / r), where w K overflows, and 590
        # for K = e^(30 / r), where the all-small sum of w K v^5 still is a
        # float.  Either projection rounds exponents near log w K, so the
        # scales agree to the relative spacing of floats there, divided by
        # q - p, and the sources, s^2 times the level, to twice that
        with np.errstate(over="ignore"):
            on, _ = self.trials(K)
            log_max = on.log_wk.max()
            assert log_max > 580.0
            rel = 2.0 * np.finfo(float).eps * log_max / (max(nl.q1, nl.q2) - 2.0)
            rel = max(rel, 1e-14)
            self.check(K, nl, ["small"] * 3, rel=rel, source_rel=2.0 * rel)


    def test_mixed_root_is_the_compressed_one_to_the_last_bit(self):
        # a mixed root reads log v on the support from the whole-array log
        # when no node there sits below its floor, and takes it afresh
        # otherwise; either way the projection is the compressed one's
        on, trials = self.trials(Power(1.0, -0.25))
        trials += [v ** 40 for v in trials[:2]]  # support nodes below the floor
        nl = NonlinearitySpec("min_powers", 3, 8.5, M=1.0)
        below = []
        for v in trials:
            if _branch(v, on, nl) != "mixed":
                continue
            floor = v.max() * math.exp(-(700.0 + on.log_wk_span) / 8.5)
            below.append(bool(np.any(v[v > 0.0] < floor)))
            level = solver_module._level(v, on)
            assert solver_module._project(v, on, nl, level) == \
                compressed_project(v, on, nl, level)
        assert sorted(set(below)) == [False, True]

    def test_floors_change_no_bit(self):
        # v is raised to a floor where it vanishes and the terms to e^-700
        # times the largest; the scale is the one the plain sum gives, with
        # log 0 = -inf and every term kept, to the last bit
        on, trials = self.trials(Power(1.0, -0.25))
        trials.append(trials[0] ** 40)  # terms down to e^-720 times the largest
        nl = pure_power(4, M=0.7)
        for v in trials:
            level = solver_module._level(v, on)
            with np.errstate(divide="ignore"):
                terms = np.log(v) * 4.0 + on.log_wk
            m = terms.max()
            log_c_sum = math.log(0.7) + (float(m) + math.log(np.exp(terms - m).sum()))
            assert solver_module._project(v, on, nl, level)[0] == math.exp(
                (math.log(level) - log_c_sum) / 2.0)


def rational_3_5_log_space_energy(u, on, M, s):
    """s^p ||u||_reg^p / p - sum w K M F(s u) for rational(3, 5), where
    F(x) = x^3/3 - x + arctan x, with both terms formed from their logs."""
    p = on.grid.dims.p
    log_quadratic = p * math.log(s) + math.log(solver_module._level(u, on) / p)
    v = u[u > 0.0]
    x = s * v
    r = 1.0 / x
    log_F = 3.0 * np.log(x) - math.log(3.0) + np.log1p(3.0 * r * r * (np.arctan(x) * r - 1.0))
    log_source = float(logsumexp(on.log_wk[u > 0.0] + math.log(M) + log_F))
    return math.exp(log_quadratic) - math.exp(log_source)


def _branch(v, on, nl):
    """Which branches of min_powers the Nehari root of v puts the nodes on."""
    s = project(v, on, nl)[0]
    pos = v[v > 0.0]
    return "small" if s * pos.max() <= 1.0 else "large" if s * pos.min() > 1.0 else "mixed"


class TestProjectionAgainstTwoPasses:
    """_project and _projected_trial against the two-pass trial they
    replace: the scale and the trial energy agree to 1e-12 relative, and a
    trial is None on both or on neither."""

    @staticmethod
    def check(u, d, t, on, nl):
        got = solver_module._projected_trial(u, d, t, on, nl)
        ref = reference_projected_trial(u, d, t, on, nl)
        assert (got is None) == (ref is None)
        if ref is not None:
            trial = np.maximum(u - t * d, 0.0)
            trial[-1] = 0.0
            assert project(trial, on, nl)[0] == pytest.approx(
                reference_nehari_scale(trial, on, nl), rel=1e-12)
            np.testing.assert_allclose(got[0], ref[0], rtol=1e-12, atol=0.0)
            assert got[1] == pytest.approx(ref[1], rel=1e-12)
        return got

    @staticmethod
    def smooth_case(dims=D23):
        grid = build_grid(0.05, 20.0, 300, dims)
        on = solver_module._on_grid(grid, smooth_table(grid))
        u = initial_bump(grid)
        d = 0.3 * u * np.cos(2.0 * np.log(grid.nodes))
        return u, d, on

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_pure_power(self, p):
        u, d, on = self.smooth_case(ProblemDims(N=4, p=p))
        for t in (0.5, 1.0, 4.0):
            assert self.check(u, d, t, on, pure_power(4, M=0.7)) is not None

    @pytest.mark.parametrize("q", [(3, 5), (5, 3), (3, 8.5)])
    @pytest.mark.parametrize("M,branch", [(1e4, "small"), (0.01, "large"),
                                          (0.37, "mixed"), (1.0, "mixed")])
    def test_min_powers_branches(self, q, M, branch):
        nl = NonlinearitySpec("min_powers", *q, M=M)
        u, d, on = self.smooth_case()
        for t in (0.0, 0.5, 1.0):
            v = np.maximum(u - t * d, 0.0)
            assert _branch(v, on, nl) == branch
            assert self.check(u, d, t, on, nl) is not None

    def test_ex2_iterates_stay_on_the_small_branch(self, monkeypatch):
        # the trials of an ex2_I solve have all-small roots (every third is checked)
        cfg = load_config(example_config("ex2_I"))
        grid = build_grid(cfg.r_min, cfg.r_max, cfg.n_nodes, cfg.dims)
        on = solver_module._on_grid(
            grid, eval_potentials(cfg.spec_A, cfg.spec_V, cfg.spec_K, grid.nodes))
        nl = cfg.solver_nonlinearity()
        calls = []
        projected_trial = solver_module._projected_trial

        def spy(u, d, t, on, nl):
            calls.append((u, d, t))
            return projected_trial(u, d, t, on, nl)

        monkeypatch.setattr(solver_module, "_projected_trial", spy)
        solve_ground_state(on.table, nl, grid, tol=cfg.solve_tol, max_iter=cfg.max_iter)
        assert len(calls) > 20
        for u, d, t in calls[::3]:
            trial = np.maximum(u - t * d, 0.0)
            trial[-1] = 0.0
            assert _branch(trial, on, nl) == "small"
            self.check(u, d, t, on, nl)

    def test_root_exactly_at_the_branch_point(self):
        # M is chosen so that the all-small root is s = 1 with max v = 1
        grid = build_grid(0.05, 20.0, 300, D23)
        on = solver_module._on_grid(grid, smooth_table(grid))
        v = initial_bump(grid)
        v /= v.max()
        level = solver_module._level(v, on)
        M = level / float(np.dot(on.wk, v ** 5))
        for q in ((3, 5), (5, 3)):
            nl = NonlinearitySpec("min_powers", *q, M=M)
            assert project(v, on, nl)[0] == pytest.approx(1.0, rel=1e-14)
            self.check(v, np.zeros_like(v), 0.0, on, nl)

    @pytest.mark.parametrize("nl", [NonlinearitySpec("rational", 3, 5),
                                    NonlinearitySpec("rational", 2.5, 4, M=4.0),
                                    NonlinearitySpec("rational", 4, 4, M=0.3)],
                             ids=["rational", "rational_M", "rational_equal"])
    def test_rational(self, nl):
        u, d, on = self.smooth_case()
        for amplitude in (0.05, 1.0, 20.0):
            for t in (0.5, 1.0):
                assert self.check(amplitude * u, amplitude * d, t, on, nl) is not None

    def test_no_projection(self):
        u, d, on = self.smooth_case()
        # the step removes the whole positive part
        assert self.check(u, u, 2.0, on, NonlinearitySpec("min_powers", 3, 5)) is None
        assert self.check(u, d, 1.0, on, NonlinearitySpec("min_powers", 3, 5, M=0.0)) is None

    def test_energy_past_overflowing_scaled_slopes(self):
        # a finite scale near 1e200 at which (s u')^2 overflows: the two-pass
        # energy reads inf, while the energy by homogeneity,
        # s^p (||u||_reg^p / p - ||u||^p / q), is finite and is returned
        nl = pure_power(3, M=1e-300)
        u, d, on = self.smooth_case(ProblemDims(N=3, p=1.5))
        level = unregularized_level(u, on)
        reg = solver_module._level(u, on)
        scale = project(u, on, nl)[0]
        assert math.isfinite(scale) and scale > 1e100
        trial, e, _ = solver_module._projected_trial(u, d, 0.0, on, nl)
        assert np.array_equal(trial, scale * u)
        assert math.isfinite(e)
        assert e == pytest.approx(scale ** 1.5 * (reg / 1.5 - level / 3.0), rel=1e-12)
        # energy() forms its quadratic part the same way, so the two-pass
        # trial, which reads the energy of the scaled trial, agrees
        assert reference_projected_trial(u, d, 0.0, on, nl)[1] == pytest.approx(e, rel=1e-12)

    def test_non_finite_energy(self):
        # the Nehari scale of rational(4, 6) at p = 3 is near 1e151, so the
        # energy, at least s^3 ||u||^3 (1/3 - 1/4), is near 1e455
        nl = NonlinearitySpec("rational", 4, 6, M=1e-150)
        u, d, on = self.smooth_case(ProblemDims(N=4, p=3))
        scale = project(u, on, nl)[0]
        assert math.isfinite(scale)
        level = unregularized_level(u, on)
        log_lower = 3.0 * math.log(scale) + math.log(level) + math.log(1.0 / 3.0 - 1.0 / 4.0)
        assert log_lower > math.log(np.finfo(float).max) + 100.0
        with np.errstate(over="ignore", invalid="ignore"):
            assert self.check(u, d, 0.0, on, nl) is None


class TestScaleOutOfRange:
    @staticmethod
    def unit_case(dims):
        grid = build_grid(1e-2, 20.0, 300, dims)
        return grid, solver_module._on_grid(grid, unit_table(grid))

    @pytest.mark.parametrize("M", [1e-100, 1e100], ids=["overflow", "underflow"])
    def test_pure_power_scale_is_no_projection(self, M):
        # the closed-form scale exp(x) of pure_power(2.2) leaves the floats
        grid, on = self.unit_case(D23)
        nl = pure_power(2.2, M=M)
        u = initial_bump(grid)
        with pytest.raises(NoProjection):
            nehari_scale(RadialFunction(grid, u), on.table, nl)
        assert solver_module._projected_trial(u, 0.0 * u, 0.0, on, nl) is None
        with pytest.raises(CollapsedToZero):
            solve_ground_state(on.table, nl, grid)

    def test_rational_bracket_passes_overflowing_powers(self):
        # the scales lie beyond 1e88, where t^(q2 - p) overflows
        grid, on = self.unit_case(ProblemDims(N=3, p=1.5))
        u = initial_bump(grid)
        supp = u > 0.0
        log_v = np.log(u[supp])
        level = unregularized_level(u, on)
        scales = []
        for M in (1e-250, 1e-280, 1e-300):
            nl = NonlinearitySpec("rational", 3, 5, M=M)
            s = project(u, on, nl)[0]
            scales.append(s)
            # Nehari identity in logs: s^p ||u||^p = sum w K f(s u) s u with
            # f(x) x = M x^5 / (1 + x^2)
            log_x = math.log(s) + log_v
            rhs = float(logsumexp(
                on.log_wk[supp] + math.log(M) + 5.0 * log_x - np.logaddexp(0.0, 2.0 * log_x)))
            lhs = 1.5 * math.log(s) + math.log(level)
            assert rhs == pytest.approx(lhs, rel=1e-12)
        assert scales[0] > 1e88 and len(set(scales)) == 3

    @pytest.mark.parametrize("M", [1e-250, 1e-280, 1e-300])
    def test_rational_trial_energy_in_log_space(self, M):
        # F(s u) overflows at these scales (1.6e167 at M = 1e-250), while
        # M F(s u) and the energy (1.2e253 at M = 1e-250) are floats
        grid, on = self.unit_case(ProblemDims(N=3, p=1.5))
        nl = NonlinearitySpec("rational", 3, 5, M=M)
        u = initial_bump(grid)
        s = solver_module._project(u, on, nl, solver_module._level(u, on))[0]
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(F_eval(NonlinearitySpec("rational", 3, 5), s * u)))
        trial, e, _ = solver_module._projected_trial(u, 0.0 * u, 0.0, on, nl)
        assert np.array_equal(trial, s * u)
        assert e == pytest.approx(rational_3_5_log_space_energy(u, on, M, s), rel=1e-12)

    def test_bump_without_finite_energy_collapses(self):
        # the bump's Nehari point is finite (s near 2e150) but its energy,
        # at least s^3 ||u||^3 (1/3 - 1/4), is not
        grid, on = self.unit_case(ProblemDims(N=4, p=3))
        nl = NonlinearitySpec("rational", 4, 6, M=1e-150)
        assert 1e150 < project(initial_bump(grid), on, nl)[0] < 1e151
        with np.errstate(over="ignore", invalid="ignore"):
            assert solver_module._projected_trial(initial_bump(grid), 0.0, 0.0, on, nl) is None
            with pytest.raises(CollapsedToZero, match="no Nehari projection with a finite"):
                solve_ground_state(on.table, nl, grid)

    def test_astronomical_scale_stalls_without_warnings(self):
        # the bump projects to a scale near 1.6e167, where the p != 2 flux, the
        # lagged metric weights and the banded solve overflow; each is handled
        # (a slope g . P^-1 g that is not finite, so no descent direction, and
        # a residual that cannot converge), so none of them warns
        grid, on = self.unit_case(ProblemDims(N=3, p=1.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotConverged) as exc:
                solve_ground_state(on.table, pure_power(3, M=1e-250), grid)
        assert exc.value.stop_reason == "line_search_stalled"

    def test_no_descent_direction_stops_without_a_line_search(self, monkeypatch):
        # at the bump's scale near 1.6e167 g . P^-1 g is NaN, so there is no
        # descent direction: the projected start is the only trial formed
        grid, on = self.unit_case(ProblemDims(N=3, p=1.5))
        trials = []
        projected_trial = solver_module._projected_trial

        def spy(*args):
            trials.append(args[2])
            return projected_trial(*args)

        monkeypatch.setattr(solver_module, "_projected_trial", spy)
        with pytest.raises(NotConverged, match="after 1 iterations") as exc:
            solve_ground_state(on.table, pure_power(3, M=1e-250), grid)
        assert exc.value.stop_reason == "line_search_stalled"
        assert trials == [0.0]

    @pytest.mark.parametrize("dims, nl, K", [
        (D23, pure_power(3.5, M=1e250), 1.0),
        (ProblemDims(N=3, p=1.5), pure_power(3, M=1e50), 1e300),
        (ProblemDims(N=4, p=3), NonlinearitySpec("rational", 4, 6, M=1e50), 1e300),
        (ProblemDims(N=4, p=2.5), pure_power(4, M=1e-50), 1e300),
    ], ids=["p2_M1e250", "p1.5_K1e300", "rational_p3_K1e300", "p2.5_K1e300"])
    def test_underflowing_norm_collapses(self, dims, nl, K):
        # the Nehari point is so small that ||u||^p underflows to 0 at the
        # first stop test, before the Nehari gap divides by it
        grid = build_grid(1e-2, 20.0, 300, dims)
        table = eval_potentials(Constant(1.0), Constant(1.0), Constant(K), grid.nodes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CollapsedToZero, match="norm underflows"):
                solve_ground_state(table, nl, grid)

    def test_overflowing_min_powers_sum_is_no_projection(self):
        # sum w K v^5 overflows at K = 1e307, so the all-small closed form
        # reads s = 0, which is no root; pure_power(5) finds s near 1e-102
        grid = build_grid(1e-2, 20.0, 300, D23)
        with np.errstate(over="ignore"):
            table = eval_potentials(Constant(1.0), Constant(1.0), Constant(1e307), grid.nodes)
            u = RadialFunction(grid, initial_bump(grid))
            assert 0.0 < nehari_scale(u, table, pure_power(5)) < 1e-100
            nl = NonlinearitySpec("min_powers", 3, 5)
            with pytest.raises(NoProjection):
                nehari_scale(u, table, nl)
            with pytest.raises(CollapsedToZero):
                solve_ground_state(table, nl, grid)


class TestProjectionEvaluations:
    def test_no_scale_is_evaluated_twice(self, monkeypatch):
        # the bracket's ends are remembered by the halving loop and Brent's
        # method: within one projection no t reaches the excess twice
        projections = []
        real_project = solver_module._project

        def new_projection(v, on, nl, level):
            projections.append([])
            return real_project(v, on, nl, level)

        monkeypatch.setattr(solver_module, "_project", new_projection)
        for name in ("_min_powers_excess", "_rational_excess"):
            def spy(t, *args, real=getattr(solver_module, name)):
                projections[-1].append(t)
                return real(t, *args)

            monkeypatch.setattr(solver_module, name, spy)
        grid = build_grid(1e-3, 30.0, 20000, D23)
        solve_ground_state(unit_table(grid), NonlinearitySpec("min_powers", 3, 5), grid,
                           tol=1e-6)
        doc = example_config("ex1")
        doc["nonlinearity"] = {"kind": "rational", "q1": 3.0, "q2": 9.0}
        doc["grid"]["n_nodes"] = 800
        cfg = load_config(doc)
        solve_problem(cfg, cfg.r_min, cfg.r_max, cfg.n_nodes)
        searched = [ts for ts in projections if ts]
        assert len(searched) > 20
        assert all(len(set(ts)) == len(ts) for ts in searched)


class TestDecaySlopes:
    def test_exact_power(self):
        grid = build_grid(0.01, 100.0, 400, D24)
        vals = grid.nodes ** -1.5
        vals[-1] = 0.0
        slopes = decay_slopes(RadialFunction(grid, vals))
        assert slopes[0] == pytest.approx(-1.5, abs=1e-9)
        # last decade includes the clamped boundary node, so fit interior part
        vals2 = grid.nodes ** -1.5
        vals2[grid.nodes > 10] = 0.0
        vals2[-1] = 0.0
        s2 = decay_slopes(RadialFunction(grid, vals2))
        assert s2[0] == pytest.approx(-1.5, abs=1e-9)

    def test_degenerate(self):
        grid = build_grid(0.1, 10.0, 64, D24)
        vals = np.zeros(grid.n)
        with pytest.raises(Degenerate):
            decay_slopes(RadialFunction(grid, vals))


# the library solves of the benchmark's fine_mesh workload with their
# iterations and energies; a kernel that sums in another order moves an
# energy by far less than 1e-10, and must not move an iteration count
FINE_MESH_CASES = {
    "unit_2000": (lambda: _unit_case(2000), 13, 18.89705118599757),
    "unit_20000": (lambda: _unit_case(20000), 15, 18.897249631670995),
    "unit_100000": (lambda: _unit_case(100000), 12, 18.89725155718718),
    "unit_min_powers_3_5_20000": (
        lambda: _unit_case(20000, nl=NonlinearitySpec("min_powers", 3, 5)), 14, 50.363046325290625),
    "unit_p1.5_2000": (lambda: _unit_case(dims=ProblemDims(N=3, p=1.5), tol=1e-4),
                       39, 0.427473952821717),
    "unit_N4_p3_2000": (lambda: _unit_case(dims=ProblemDims(N=4, p=3)), 35, 46.66362365517068),
    "ex1_4000": (lambda: _example_case("ex1", 4000), 27, 8.682090493045662),
    "ex2_I_4000": (lambda: _example_case("ex2_I", 4000), 245, 41.75396084638665),
}


@pytest.fixture(scope="module")
def shooting_center():
    return ground_state_center(h=5e-3)


class TestSolve:
    @pytest.mark.parametrize("case", list(FINE_MESH_CASES))
    def test_fine_mesh_cases_are_pinned(self, case):
        build, iterations, energy = FINE_MESH_CASES[case]
        table, nl, grid, tol = build()
        _, rep = solve_ground_state(table, nl, grid, tol=tol)
        assert rep.iterations == iterations
        assert rep.energy == pytest.approx(energy, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("q2, iterations, energy", [
        (9.0, 23, 38.392315407673294),
        (9.5, 19, 40.16906069895944),
        (10.0, 23, 41.50985054910926),
    ])
    def test_rational_sweep_is_pinned(self, q2, iterations, energy):
        # the benchmark sweep's rational solves: ex1 with rational(3, q2) at 800 nodes
        doc = example_config("ex1")
        doc["nonlinearity"] = {"kind": "rational", "q1": 3.0, "q2": q2}
        doc["grid"]["n_nodes"] = 800
        cfg = load_config(doc)
        _, rep = solve_problem(cfg, cfg.r_min, cfg.r_max, cfg.n_nodes)
        assert rep.iterations == iterations
        assert rep.energy == pytest.approx(energy, rel=1e-12, abs=0.0)

    def test_benchmark_against_shooting(self):
        grid = build_grid(1e-3, 30.0, 800, D23)
        t = unit_table(grid)
        u, rep = solve_ground_state(t, pure_power(4), grid, tol=1e-6)
        center = ground_state_center(h=5e-3)
        assert u.values[0] == pytest.approx(center, rel=2e-2)
        assert rep.residual < 1e-6
        assert rep.nehari_gap <= 1e-6
        assert np.min(u.values) >= 0.0
        assert np.max(u.values) > 0.1

    @pytest.mark.parametrize("n_nodes", [20000, 100000])
    def test_fine_unit_solves_meet_the_oracle(self, n_nodes, shooting_center):
        # the stop rule itself is unchanged, and its per-node test still
        # weakens as the mesh is refined; steepest descent met it after 8 and
        # 6 iterations with u(0) off by 2.3e-2 and 6.1e-1, conjugate
        # directions leave the iterate on the oracle when it fires
        table, nl, grid, _ = _unit_case(n_nodes)
        u, rep = solve_ground_state(table, nl, grid, tol=1e-6)
        assert rep.stop_reason == "converged"
        assert u.values[0] == pytest.approx(shooting_center, abs=1e-3)

    def test_p3_unit_solve_meets_the_p_laplacian_oracle(self):
        # (N, p, q) = (4, 3, 4) at 2000 nodes, tol 1e-6.  The oracle's error
        # falls at least linearly in h, so at h = 2e-3 it is at most its
        # h-halving difference delta (1.1e-5 relative); the solve may miss it
        # by as much again, so the bound is 2 delta (measured: -5.8e-6).  The
        # comparison is at r_min: at p = 3, u(0) - u(1e-3) is 1.7e-5 relative
        table, nl, grid, tol = _unit_case(dims=ProblemDims(N=4, p=3))
        u, rep = solve_ground_state(table, nl, grid, tol=tol)
        assert rep.stop_reason == "converged"
        fine, coarse = (ground_state_center_p(4, 3.0, 4.0, h) for h in (2e-3, 4e-3))
        delta = abs(fine - coarse) / fine
        assert 1e-5 < delta < 1.3e-5
        oracle = series_value(fine, 4, 3.0, 4.0, grid.nodes[0])
        assert abs(u.values[0] - oracle) / oracle <= 2.0 * delta

    def test_first_step_restarts_from_the_preconditioned_gradient(self):
        # the first step has no last direction: d = P^-1 g, and its accepted
        # energy is, bit for bit, the one plain preconditioned descent took
        table, nl, grid, tol = _example_case("ex2_I", 4000)
        energies = []
        with pytest.raises(NotConverged, match="budget_exhausted"):
            solve_ground_state(table, nl, grid, tol=tol, max_iter=1,
                               on_iterate=lambda k, e: energies.append(e))
        assert energies == [368.9045431688494]

    def test_energy_decreases_monotonically(self):
        grid = build_grid(1e-2, 20.0, 300, D23)
        # the unit data, and ex2_I at 1600 nodes, where most unit steps are lengthened
        for t, nl, grid, tol in ((unit_table(grid), pure_power(4), grid, 1e-5),
                                 _example_case("ex2_I")):
            energies = []
            solve_ground_state(t, nl, grid, tol=tol,
                               on_iterate=lambda k, e: energies.append(e))
            assert len(energies) >= 2
            assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_line_search_trials(self, monkeypatch):
        # per iteration the trial steps are either t = 1, 1/2, 1/4, ... with
        # the last one taken, or t = 1, 2, 4, ... (at most 64) with strictly
        # falling energies, ended by the first trial that does not fall.  The
        # first call of each solve is its start, with t = 0 and d = 0.
        trials, starts, solves = [], [], []
        projected_trial = solver_module._projected_trial

        def spy(u, d, t, on, nl):
            out = projected_trial(u, d, t, on, nl)
            if len(starts) < len(solves):
                starts.append((t, d))
            else:
                trials.append((t, None if out is None else out[1]))
            return out

        monkeypatch.setattr(solver_module, "_projected_trial", spy)
        accepted = []
        # on the unit data, p = 2 reaches the cap at its first step and
        # p = 3 both backtracks and expands
        for dims in (D23, ProblemDims(N=4, p=3)):
            grid = build_grid(1e-3, 30.0, 2000, dims)
            solves.append(dims)
            solve_ground_state(unit_table(grid), pure_power(4), grid, tol=1e-6,
                               on_iterate=lambda k, e: accepted.append((len(trials), e)))
        assert len(starts) == 2
        assert all(t == 0.0 and np.all(d == 0.0) for t, d in starts)
        start, expanded, capped, shortened = 0, 0, 0, 0
        for end, e in accepted:
            ts = [tr[0] for tr in trials[start:end]]
            es = [tr[1] for tr in trials[start:end]]
            start = end
            assert ts[0] == 1.0
            if len(ts) > 1 and ts[1] == 2.0:
                expanded += 1
                assert ts == [2.0 ** k for k in range(len(ts))]
                assert ts[-1] <= 64.0
                assert all(b < a for a, b in zip(es[:-1], es[1:-1]))
                if es[-1] is not None and es[-1] < es[-2]:
                    capped += 1
                    assert ts[-1] == 64.0 and e == es[-1]
                else:
                    assert e == es[-2]
            else:
                shortened += len(ts) > 1
                assert ts == [0.5 ** k for k in range(len(ts))]
                assert e == es[-1]
        assert expanded > 0 and capped > 0 and shortened > 0

    def test_reaches_the_nehari_set_only_through_trials(self, monkeypatch):
        # the start is a line-search trial too: no solve calls the public
        # projection or energy
        def refuse(*args, **kwargs):
            raise AssertionError("solve_ground_state called a public layer")

        monkeypatch.setattr(solver_module, "nehari_scale", refuse)
        monkeypatch.setattr(solver_module, "energy", refuse)
        for table, nl, grid, tol in (_unit_case(400), _example_case("ex2_I")):
            _, rep = solve_ground_state(table, nl, grid, tol=tol)
            assert rep.stop_reason == "converged"

    def test_ex2_fine_mesh_iterations(self):
        # backtracking alone, without expansion, needs 2904 iterations here
        cfg = load_config(example_config("ex2_I"))
        _, rep = solve_problem(cfg, cfg.r_min, cfg.r_max, 4000)
        assert rep.iterations <= 1000
        assert rep.energy == pytest.approx(41.75397482417385, rel=1e-6)

    def test_unit_benchmark_iterations(self):
        grid = build_grid(1e-3, 30.0, 2000, D23)
        u, rep = solve_ground_state(unit_table(grid), pure_power(4), grid, tol=1e-6)
        assert rep.iterations < 26
        assert u.values[0] == pytest.approx(4.337387680187417, abs=1e-3)

    def test_degenerate_source_collapses(self):
        grid = build_grid(1e-2, 20.0, 100, D23)
        t = unit_table(grid)
        with pytest.raises(CollapsedToZero):
            solve_ground_state(t, pure_power(4, M=0.0), grid)

    @pytest.mark.parametrize("case", list(FUSED_LOOP_CASES))
    def test_start_at_a_solution_stops_at_once(self, case):
        # the solution's re-projection passes the stopping test on the first pass
        table, nl, grid, tol = FUSED_LOOP_CASES[case]()
        u, rep = solve_ground_state(table, nl, grid, tol=tol)
        assert rep.iterations > 5
        u2, rep2 = solve_ground_state(table, nl, grid, tol=tol, u0=u.values)
        assert rep2.iterations == 1
        assert rep2.energy == pytest.approx(rep.energy, rel=1e-12)
        np.testing.assert_allclose(u2.values, u.values, rtol=0.0, atol=1e-12 * u.values.max())

    def test_zero_start_collapses(self):
        table, nl, grid, tol = _unit_case(400)
        with pytest.raises(CollapsedToZero, match="initial guess has no Nehari projection"):
            solve_ground_state(table, nl, grid, tol=tol, u0=np.zeros(grid.n))

    def test_mesh_convergence_order(self):
        sols = {}
        for n in (201, 401, 801):
            grid = build_grid(1e-2, 20.0, n, D23)
            t = unit_table(grid)
            u, _ = solve_ground_state(t, pure_power(4), grid, tol=1e-7)
            sols[n] = u.values
        e_coarse = np.max(np.abs(sols[201] - sols[401][::2])) / np.max(np.abs(sols[201]))
        e_fine = np.max(np.abs(sols[401] - sols[801][::2])) / np.max(np.abs(sols[401]))
        assert e_coarse <= 4.5 * e_fine
        assert e_fine < e_coarse

    def test_quasilinear_below_two(self):
        # p < 2: singular flux nonlinearity; converges at a looser tolerance
        dims = ProblemDims(N=3, p=1.5)
        grid = build_grid(1e-2, 30.0, 400, dims)
        t = unit_table(grid)
        u, rep = solve_ground_state(t, pure_power(3.0), grid, tol=1e-4,
                                    max_iter=8000)
        assert rep.residual <= 1e-4
        assert np.min(u.values) >= 0.0
        assert np.max(u.values) > 1.0

    def test_rational_equal_exponents_is_half_power(self):
        # rational with q1 == q2 is f = M t^(q-1) / 2, the pure power with M/2
        grid = build_grid(1e-3, 30.0, 400, D23)
        t = unit_table(grid)
        _, rep = solve_ground_state(t, NonlinearitySpec("rational", 4.0, 4.0), grid, tol=1e-6)
        _, ref = solve_ground_state(t, pure_power(4, M=0.5), grid, tol=1e-6)
        assert ref.energy == pytest.approx(37.7844444, rel=1e-8)
        assert rep.energy == pytest.approx(ref.energy, rel=1e-10)

    def test_stop_reason_converged(self):
        grid = build_grid(1e-3, 30.0, 800, D23)
        _, rep = solve_ground_state(unit_table(grid), pure_power(4), grid, tol=1e-6)
        assert rep.stop_reason == "converged"
        assert rep.to_dict()["stop_reason"] == "converged"

    def test_stop_reason_budget_exhausted(self):
        grid = build_grid(1e-3, 30.0, 800, D23)
        with pytest.raises(NotConverged) as exc:
            solve_ground_state(unit_table(grid), pure_power(4), grid, tol=1e-6, max_iter=2)
        assert exc.value.stop_reason == "budget_exhausted"
        assert str(exc.value).endswith("after 2 iterations (budget_exhausted)")

    def test_negative_budget_is_refused(self):
        grid = build_grid(1e-3, 30.0, 200, D23)
        with pytest.raises(ValueError, match="max_iter"):
            solve_ground_state(unit_table(grid), pure_power(4), grid, max_iter=-1)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_tolerance_is_refused(self, tol):
        grid = build_grid(1e-3, 30.0, 200, D23)
        with pytest.raises(ValueError, match="tol"):
            solve_ground_state(unit_table(grid), pure_power(4), grid, tol=tol)

    def test_stop_reason_line_search_stalled(self, monkeypatch):
        # ex1 started from a bump centred at r = 0.01 instead of r = 1: within
        # a few iterations no step length lowers the projected energy
        def bump_at(grid, centre=0.01):
            s = np.log(grid.nodes / centre)
            vals = np.where(np.abs(s) < 3.0, np.exp(-0.5 * s * s), 0.0)
            vals[-1] = 0.0
            return vals

        monkeypatch.setattr(solver_module, "initial_bump", bump_at)
        cfg = load_config(example_config("ex1"))
        with pytest.raises(NotConverged) as exc:
            solve_problem(cfg, cfg.r_min, cfg.r_max, cfg.n_nodes)
        assert exc.value.stop_reason == "line_search_stalled"
        assert "(line_search_stalled)" in str(exc.value)

    def test_stop_reason_stagnated(self):
        # tol = 1e-11 lies below the rounding floor of the residual at 1001
        # nodes: from iteration 26 every accepted step repeats the energy bit
        # for bit, and the solve stops after 20 repeats instead of running
        # its whole budget (20000 iterations, about 19 s)
        grid = build_grid(1e-3, 30.0, 1001, D23)
        energies = []
        start = time.process_time()
        with pytest.raises(NotConverged) as exc:
            solve_ground_state(unit_table(grid), pure_power(4), grid, tol=1e-11,
                               on_iterate=lambda k, e: energies.append(e))
        assert time.process_time() - start < 1.0
        assert exc.value.stop_reason == "stagnated"
        assert energies[-21:] == [energies[-21]] * 21 and energies[-22] != energies[-21]
        floor = float(re.search(r"residual floor (\S+),", str(exc.value)).group(1))
        assert 1e-11 < floor < 1e-9

    def test_rational_nonlinearity_smoke(self):
        grid = build_grid(5e-2, 15.0, 80, D23)
        t = unit_table(grid)
        nl = NonlinearitySpec("rational", 3.0, 5.0)
        u, rep = solve_ground_state(t, nl, grid, tol=1e-4, max_iter=2000)
        assert rep.residual <= 1e-4
        assert np.max(u.values) > 0.0

    def test_mountain_pass_geometry(self):
        grid = build_grid(1e-2, 20.0, 300, D23)
        t = unit_table(grid)
        nl = pure_power(4)
        bump = initial_bump(grid)
        scales = np.logspace(-2, 2, 60)
        vals = [energy(RadialFunction(grid, s * bump), t, nl) for s in scales]
        vals = np.array(vals)
        assert np.any(vals[: len(vals) // 2] > 0)
        assert vals[-1] < 0


class TestMemory:
    @pytest.mark.parametrize("n,p,tol,per_node", [(100000, 2.0, 1e-6, 120),
                                                  (20000, 2.0, 1e-6, 120),
                                                  (2000, 1.5, 1e-4, 150)])
    def test_traced_peak_per_node(self, n, p, tol, per_node):
        # only u, its energy and the metric outlive a descent phase, each
        # phase holds only its live arrays, and one metric factor is alive
        # at a time: the traced peak above the grid and the table, per node,
        # as CI prints it (216 at 100000 nodes when every iteration's arrays
        # lived on into the next; 156 and 243 at 20000 and 2000 nodes when
        # the factor for p != 2 outlived its iteration and the flux weight,
        # the slopes and both lower-order terms were held through the phases)
        grid = build_grid(1e-3, 30.0, n, ProblemDims(N=3, p=p))
        table = unit_table(grid)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solve_ground_state(table, pure_power(4), grid, tol=tol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / n <= per_node


class TestResidual:
    def test_zero_function(self):
        grid = build_grid(0.1, 10.0, 64, D24)
        t = unit_table(grid)
        u = RadialFunction(grid, np.zeros(grid.n))
        assert residual_weak_form(u, t, pure_power(4)) == 0.0

    def test_solution_residual_small_perturbation_grows(self):
        grid = build_grid(1e-2, 20.0, 400, D23)
        t = unit_table(grid)
        u, rep = solve_ground_state(t, pure_power(4), grid, tol=1e-7)
        base = residual_weak_form(u, t, pure_power(4))
        assert base <= 1e-7
        rng = np.random.default_rng(3)
        noise = rng.normal(size=grid.n)
        noise[-1] = 0.0
        res = []
        for delta in (1e-4, 1e-3):
            v = RadialFunction(grid, np.maximum(u.values + delta * noise, 0.0) * 1.0)
            vv = v.values.copy()
            vv[-1] = 0.0
            res.append(residual_weak_form(RadialFunction(grid, vv), t, pure_power(4)))
        assert res[1] > 3 * res[0]

    def test_underflowing_slopes_keep_the_residual_finite(self):
        # at p = 1.5 a slope near 1e-168 squares to 0; on the bump scaled to
        # 1e-150, eps = 1e-10 max |u'| squares to a subnormal, so u'^2 + eps^2
        # leaves the normal floats there, where its power -1/4 is inaccurate
        # or inf; the flux there is |u'|^(p-1) sign(u'), not inf - inf = NaN
        grid = build_grid(1e-2, 20.0, 300, ProblemDims(N=3, p=1.5))
        t = unit_table(grid)
        vals = 1e-150 * initial_bump(grid)
        vals[:20] = 1e-170 * np.linspace(2.0, 1.0, 20)
        u = RadialFunction(grid, vals)
        assert math.isfinite(residual_weak_form(u, t, pure_power(4)))
        on = solver_module._on_grid(grid, t)
        du = np.diff(vals) / grid.dr
        assert np.all((du[:19] != 0.0) & (du[:19] * du[:19] == 0.0))
        eps = solver_module._eps_for(du)
        s = du * du + eps * eps
        assert np.all(s[:19] < np.finfo(float).tiny)  # the out-of-range branch's nodes
        g = solver_module._gradient(vals, on, pure_power(4))
        flux = -np.exp(0.5 * np.log(-du[:19])) * (on.a_measure / grid.dr)[:19]
        # w V |u|^(p-2) u; the K-term u^3 underflows to 0
        v_term = on.wv[1:19] * np.exp(0.5 * np.log(vals[1:19]))
        assert g[1:19] == pytest.approx(flux[:18] - flux[1:] + v_term, rel=1e-12)


class TestSolveProblem:
    @pytest.mark.parametrize("case", ["ex1_4000", "unit_p1.5_2000"])
    def test_same_bits_as_grid_table_and_solve(self, case):
        # two of the benchmark's fine_mesh cases, as perfbench/inputs.py defines them
        cfg = load_config(dict((name, doc) for name, doc, _ in
                               _fine_mesh_inputs().FINE_MESH_CASES)[case])
        u, rep = solve_problem(cfg, cfg.r_min, cfg.r_max, cfg.n_nodes)
        grid = build_grid(cfg.r_min, cfg.r_max, cfg.n_nodes, cfg.dims)
        table = eval_potentials(cfg.spec_A, cfg.spec_V, cfg.spec_K, grid.nodes)
        u_ref, rep_ref = solve_ground_state(
            table, cfg.solver_nonlinearity(), grid, tol=cfg.solve_tol, max_iter=cfg.max_iter,
            asym_origin=cfg.asym_origin, asym_infinity=cfg.asym_infinity)
        assert u.values.tobytes() == u_ref.values.tobytes()
        for key in ("energy", "residual", "nehari_gap"):
            assert repr(getattr(rep, key)) == repr(getattr(rep_ref, key))
        assert rep.iterations == rep_ref.iterations

    def test_overflowing_v_is_refused(self):
        # V = e^(8/r) below r = 1 is e^2000 at ex1's r_min, 4e-3
        doc = example_config("ex1")
        doc["potentials"]["V"]["inner"]["scale"] = 8.0
        cfg = load_config(doc)
        with pytest.raises(BadRange) as exc:
            solve_problem(cfg, cfg.r_min, cfg.r_max, cfg.n_nodes)
        assert str(exc.value) == ("potentials overflow the float range on the solve grid; "
                                  "shrink [r_min, r_max]")

    @pytest.fixture
    def u0_seen(self, monkeypatch):
        """The u0 each solve_ground_state call receives; no solve runs."""
        seen = []

        def spy(table, nl, grid, **kwargs):
            seen.append((grid, kwargs["u0"]))
            return None, None

        monkeypatch.setattr(solver_module, "solve_ground_state", spy)
        return seen

    def test_start_on_another_grid_is_interpolated_in_log_r(self, u0_seen):
        cfg = _example_config("ex1")
        coarse = build_grid(1e-2, 100.0, 300, cfg.dims)
        start = RadialFunction(coarse, np.where(coarse.nodes < 100.0, np.exp(-coarse.nodes), 0.0))
        solve_problem(cfg, cfg.r_min, cfg.r_max, cfg.n_nodes, start=start)
        (grid, u0), = u0_seen
        assert grid.n == 1600
        expected = np.interp(np.log(grid.nodes), np.log(coarse.nodes), start.values)
        assert u0.tobytes() == expected.tobytes()

    def test_start_on_the_same_grid_is_passed_bit_for_bit(self, u0_seen):
        cfg = _example_config("ex1")
        grid = build_grid(cfg.r_min, cfg.r_max, cfg.n_nodes, cfg.dims)
        start = RadialFunction(grid, np.where(grid.nodes < cfg.r_max, np.exp(-grid.nodes), 0.0))
        solve_problem(cfg, cfg.r_min, cfg.r_max, cfg.n_nodes, start=start)
        (_, u0), = u0_seen
        assert u0.tobytes() == start.values.tobytes()
