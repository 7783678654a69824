import math
from functools import partial

import numpy as np
import pytest

from quasiradial._jsonio import canonical_json
from quasiradial.cli import example_config, load_config
from quasiradial.exponents import EndpointAsymptotics, ProblemDims
from quasiradial.potentials import (
    QUANTITY_ESSINF,
    QUANTITY_ESSSUP,
    AsymptoticBound,
    Constant,
    DivisionByZeroV,
    ExpInv,
    HypothesisReport,
    InsufficientRange,
    MaxOf,
    MinOf,
    NonPositive,
    Piecewise,
    Power,
    _refine_radii,
    default_radii,
    essinf_weighted,
    esssup_ratio,
    estimate_limit_exponent,
    eval_potentials,
    spec_from_json,
    validate_hypotheses,
)

D24 = ProblemDims(N=4, p=2)


def example1_specs():
    v = Piecewise(1.0, ExpInv(1.0), Power(1.0, -3.0))
    k = Piecewise(1.0, ExpInv(1.0), Constant(1.0))
    return Power(1.0, -1.0), v, k


def example2_specs(gamma0=4.0, d=10.0):
    a = MinOf((Power(1.0, -2.0), Power(1.0, -1.0)))
    v = MaxOf((Power(1.0, -gamma0), Power(1.0, 0.5)))
    k = MaxOf((Power(1.0, d), Power(1.0, 0.5)))
    return a, v, k


class TestSpecEvaluation:
    def test_power(self):
        assert math.exp(Power(1, -1).evaluate_log(2.0)) == pytest.approx(0.5, rel=1e-15)

    def test_example2_min_at_small_r(self):
        spec = MinOf((Power(1, -2), Power(1, -1)))
        assert math.exp(spec.evaluate_log(0.1)) == pytest.approx(10.0)
        assert math.exp(spec.evaluate_log(10.0)) == pytest.approx(0.01)

    def test_exp_inv(self):
        assert ExpInv(1.0).evaluate_log(0.5) == pytest.approx(2.0)

    def test_log_values_at_overflow_scale(self):
        # the table's linear value overflows, the log stays exact
        spec = ExpInv(1.0)
        assert spec.evaluate_log(1e-5) == pytest.approx(1e5)
        t = eval_potentials(Constant(1.0), spec, Constant(1.0), np.array([1e-5, 1.0]))
        assert math.isinf(t.values_V[0])
        assert t.log_V[0] == pytest.approx(1e5)

    def test_piecewise(self):
        spec = Piecewise(1.0, Constant(2.0), Power(1.0, 1.0))
        r = np.array([0.5, 1.0, 3.0])
        np.testing.assert_allclose(spec.evaluate_log(r), np.log([2.0, 1.0, 3.0]), rtol=1e-15)

    def test_json_roundtrip(self):
        pots = example_config("ex1")["potentials"]
        assert tuple(spec_from_json(pots[k]) for k in "AVK") == example1_specs()
        pots = example_config("ex2_I")["potentials"]
        assert tuple(spec_from_json(pots[k]) for k in "AVK") == example2_specs()

    def test_json_example_from_docs(self):
        obj = {"kind": "min", "args": [{"kind": "power", "c": 1, "e": -2},
                                       {"kind": "power", "c": 1, "e": -1}]}
        spec = spec_from_json(obj)
        assert spec == MinOf((Power(1.0, -2.0), Power(1.0, -1.0)))
        assert math.exp(spec.evaluate_log(0.1)) == pytest.approx(10.0)

    @pytest.mark.parametrize("spec", [partial(Constant, -1.0), partial(Power, -1.0, 0.0),
                                      partial(Power, math.nan, 1.0)])
    def test_negative_coefficient_rejected(self, spec):
        # refused when the spec is built, before any evaluation
        with pytest.raises(NonPositive):
            spec()

    @pytest.mark.parametrize("obj", [
        {"kind": "exp_inv", "scale": math.nan},
        {"kind": "power", "c": 1.0, "e": math.nan},
        {"kind": "piecewise", "breakpoint": math.nan,
         "inner": {"kind": "constant", "c": 1.0}, "outer": {"kind": "constant", "c": 2.0}},
        {"kind": "min", "args": [{"kind": "constant", "c": 1.0},
                                 {"kind": "exp_inv", "scale": math.nan}]},
    ], ids=["exp_inv_scale", "power_exponent", "breakpoint", "nested"])
    def test_nan_parameter_rejected(self, obj):
        with pytest.raises(NonPositive, match="NaN"):
            spec_from_json(obj)


class TestEvalPotentials:
    def test_builds_table(self):
        r = np.logspace(-3, 3, 200)
        t = eval_potentials(*example1_specs(), r)
        assert t.values_A[0] == pytest.approx(1e3)
        assert np.all(np.isfinite(t.log_V))

    def test_nonpositive_rejected(self):
        r = np.logspace(-1, 1, 20)
        with pytest.raises(NonPositive):
            eval_potentials(Constant(0.0), Constant(1.0), Constant(1.0), r)

    @pytest.mark.parametrize("which", [0, 2])
    def test_zero_power_a_or_k_rejected(self, which):
        specs = [Constant(1.0)] * 3
        specs[which] = Power(0.0, 1.0)
        with pytest.raises(NonPositive):
            eval_potentials(*specs, np.logspace(-1, 1, 20))

    def test_zero_power_v_is_zero_constant(self):
        r = np.logspace(-3, 3, 64)
        a, _, k = example1_specs()
        t_power = eval_potentials(a, Power(0.0, 1.0), k, r)
        t_const = eval_potentials(a, Constant(0.0), k, r)
        np.testing.assert_array_equal(t_power.log_V, t_const.log_V)
        np.testing.assert_array_equal(t_power.values_V, t_const.values_V)
        assert np.all(t_power.log_V == -np.inf) and np.all(t_power.values_V == 0.0)


class TestLimitExponent:
    def test_inverse_power_both_ends(self):
        t = eval_potentials(*example1_specs(), default_radii())
        for end in ("origin", "infinity"):
            est = estimate_limit_exponent(t, "A", end)
            assert est.exponent == pytest.approx(-1.0, abs=1e-9)
            assert est.c_lo == pytest.approx(1.0, rel=1e-9)

    def test_example2_a_rates(self):
        t = eval_potentials(*example2_specs(), default_radii())
        assert estimate_limit_exponent(t, "A", "origin").exponent == pytest.approx(-1, abs=1e-9)
        assert estimate_limit_exponent(t, "A", "infinity").exponent == pytest.approx(-2, abs=1e-9)

    def test_constant(self):
        t = eval_potentials(Constant(1.0), Constant(1.0), Constant(1.0), default_radii())
        assert estimate_limit_exponent(t, "A", "origin").exponent == pytest.approx(0.0, abs=1e-9)

    def test_pure_power_high_accuracy(self):
        t = eval_potentials(Power(3.0, -1.7), Constant(1.0), Constant(1.0), default_radii())
        est = estimate_limit_exponent(t, "A", "infinity")
        assert est.exponent == pytest.approx(-1.7, rel=1e-9)

    def test_insufficient_range(self):
        t = eval_potentials(Constant(1.0), Constant(1.0), Constant(1.0),
                            np.logspace(-1, 1, 64))
        with pytest.raises(InsufficientRange):
            estimate_limit_exponent(t, "A", "origin")


class TestEsssupRatio:
    def test_example1_origin_ratio_is_one(self):
        t = eval_potentials(*example1_specs(), default_radii())
        b = esssup_ratio(t, alpha=0.0, beta=1.0, interval=(t.radii[0], 1.0))
        assert b.value == pytest.approx(1.0, abs=1e-12)
        assert b.converged

    def test_pure_power_ratio(self):
        t = eval_potentials(Constant(1.0), Constant(1.0), Power(1.0, 0.5),
                            default_radii())
        b = esssup_ratio(t, alpha=0.5, beta=0.0, interval=(t.radii[0], 1.0))
        assert b.value == pytest.approx(1.0, abs=1e-12)

    def test_beta_zero_ignores_v(self):
        r = np.logspace(-3, 3, 2 * 3 * 64 + 1)
        k = Power(2.0, -0.25)
        t1 = eval_potentials(Constant(1.0), ExpInv(1.0), k, r)
        t2 = eval_potentials(Constant(1.0), Power(5.0, 3.0), k, r)
        b1 = esssup_ratio(t1, alpha=-0.5, beta=0.0, interval=(0.01, 10.0))
        b2 = esssup_ratio(t2, alpha=-0.5, beta=0.0, interval=(0.01, 10.0))
        assert b1.value == b2.value  # bit identical

    def test_zero_v_with_positive_beta(self):
        r = np.logspace(-2, 2, 100)
        t = eval_potentials(Constant(1.0), Constant(0.0), Constant(1.0), r)
        with pytest.raises(DivisionByZeroV):
            esssup_ratio(t, alpha=0.0, beta=0.5, interval=(0.1, 10.0))

    def test_underflowing_v_is_not_zero(self):
        # V = K = e^(-1/r) underflows near r = 1e-6, but log K - log V = 0 at every node
        t = eval_potentials(Constant(1.0), ExpInv(-1.0), ExpInv(-1.0), default_radii())
        assert np.any(t.values_V[t.interval_mask(1e-6, 1.0)] == 0.0)
        b = esssup_ratio(t, alpha=0.0, beta=1.0, interval=(1e-6, 1.0))
        assert b.value == 1.0

    def test_refinement_stability(self):
        # smooth interior maximum: the refined value agrees within 1e-3
        k = MaxOf((Power(1.0, 0.5), Power(1.0, -0.5)))
        t = eval_potentials(Constant(1.0), Constant(1.0), k, np.logspace(-3, 3, 2 * 3 * 32 + 1))
        b = esssup_ratio(t, alpha=0.0, beta=0.0, interval=(0.1, 10.0))
        assert b.converged

    def test_sup_at_an_interval_end_between_nodes(self):
        # K = r on (r_0, 0.5): the sup sits at 0.5, which is no grid node
        r = np.logspace(-3, 3, 1537)
        specs = (Power(1.0, -1.0), Constant(1.0), Power(1.0, 1.0))
        assert not np.any(r == 0.5)
        b = esssup_ratio(eval_potentials(*specs, r), alpha=0.0, beta=0.0, interval=(r[0], 0.5))
        assert b.value == pytest.approx(0.5, rel=1e-12)
        assert b.converged
        rep = validate_hypotheses(
            specs, D24, EndpointAsymptotics("origin", -1.0, 0.0, 0.0, 0.0, R=0.5),
            EndpointAsymptotics("infinity", -1.0, 1.0, 0.0, 0.0, R=1.0), radii=r)
        assert {e.name: e.passed for e in rep.entries}["esssup_origin_finite"]

    def test_monotone_in_interval(self):
        rng = np.random.default_rng(5)
        t = eval_potentials(*example2_specs(), np.logspace(-4, 4, 2 * 4 * 64 + 1))
        for _ in range(50):
            lo = 10 ** rng.uniform(-3, 1)
            hi = lo * 10 ** rng.uniform(0.5, 3)
            lo2 = lo * 10 ** rng.uniform(0.0, 0.4)
            hi2 = hi / 10 ** rng.uniform(0.0, 0.4)
            big = esssup_ratio(t, 0.3, 0.0, (lo, hi)).value
            small = esssup_ratio(t, 0.3, 0.0, (lo2, hi2)).value
            assert big >= small * (1 - 1e-12)


class TestEssinfWeighted:
    def test_exact_inverse_power(self):
        t = eval_potentials(Constant(1.0), Power(1.0, -2.5), Constant(1.0),
                            default_radii())
        b = essinf_weighted(t, gamma=2.5, interval=(0.001, 100.0))
        assert b.value == pytest.approx(1.0, abs=1e-12)

    def test_example1_infinity(self):
        t = eval_potentials(*example1_specs(), default_radii())
        b = essinf_weighted(t, gamma=3.0, interval=(1.0, t.radii[-1]))
        assert b.value == pytest.approx(1.0, abs=1e-9)

    def test_example1_origin_interior_minimum(self):
        # r^8 e^{1/r} on (0, 1] has its minimum at r = 1/8
        t = eval_potentials(*example1_specs(), default_radii())
        b = essinf_weighted(t, gamma=8.0, interval=(t.radii[0], 1.0))
        exact = (1.0 / 8.0) ** 8 * math.exp(8.0)
        assert b.value == pytest.approx(exact, rel=1e-3)
        assert b.value > 0

    def test_zero_v_returns_zero(self):
        r = np.logspace(-2, 2, 100)
        t = eval_potentials(Constant(1.0), Constant(0.0), Constant(1.0), r)
        b = essinf_weighted(t, gamma=1.0, interval=(0.1, 10.0))
        assert b.value == 0.0

    def test_monotone_in_interval(self):
        t = eval_potentials(*example2_specs(), np.logspace(-4, 4, 2 * 4 * 64 + 1))
        outer = essinf_weighted(t, 1.3, (0.01, 100.0)).value
        inner = essinf_weighted(t, 1.3, (0.1, 10.0)).value
        assert outer <= inner * (1 + 1e-12)


class TestValidateHypotheses:
    def _ex1_asym(self):
        origin = EndpointAsymptotics("origin", a=-1, alpha=0, beta=1, gamma=8, R=1.0)
        inf = EndpointAsymptotics("infinity", a=-1, alpha=0, beta=0, gamma=3, R=1.0)
        return origin, inf

    def test_example1_all_pass(self):
        rep = validate_hypotheses(example1_specs(), D24, *self._ex1_asym())
        failed = [e.name for e in rep.entries if e.gating and not e.passed]
        assert failed == []
        assert rep.passed

    def test_a_out_of_range_fails(self):
        origin, inf = self._ex1_asym()
        bad = EndpointAsymptotics("origin", a=2.1, alpha=0, beta=1, gamma=8, R=1.0)
        rep = validate_hypotheses(example1_specs(), D24, bad, inf)
        assert not rep.passed
        names = {e.name: e.passed for e in rep.entries}
        assert names["a_origin_in_range"] is False

    def test_vanishing_v_fails_essinf(self):
        origin, inf = self._ex1_asym()
        specs = (Power(1.0, -1.0), Constant(0.0), Constant(1.0))
        rep = validate_hypotheses(specs, D24, origin, inf)
        assert not rep.passed
        names = {e.name: e.passed for e in rep.entries}
        assert names["essinf_origin_positive"] is False

    def test_report_serializes(self):
        rep = validate_hypotheses(example1_specs(), D24, *self._ex1_asym())
        d = rep.to_dict()
        assert d["passed"] is True
        assert any(c["name"] == "esssup_origin_finite" for c in d["checks"])

    def test_a_ratio_bounds_reported(self):
        rep = validate_hypotheses(example1_specs(), D24, *self._ex1_asym())
        for label in ("origin", "infinity"):
            b = rep.bounds[f"ratio_A_{label}"]
            assert b.quantity == "ratio_A_over_r_alpha"
            assert b.value == pytest.approx(1.0, rel=1e-9)  # A = r^-1 exactly
            assert b.converged


# ---------------------------------------------------------------------------
# Reference: the separate sup and inf refinements and the two check closures
# that validate_hypotheses used before it shared one refined extremum and one
# check loop.  Test-only code, kept to pin the outputs down exactly.
# ---------------------------------------------------------------------------

def _reference_log_ratio(table, alpha, beta, mask):
    log_r = np.log(table.radii[mask])
    out = table.log_K[mask] - alpha * log_r
    if beta != 0:
        out = out - beta * table.log_V[mask]
    return out


def _reference_end_sample(table, interval, mask, idx, log_v0, log_q, better):
    """Sample each interval end (clipped to the table) that lies strictly
    between grid nodes; an end replaces the grid extremum at node idx only
    when it is strictly better.  Returns the radii to refine among, the index
    of the refinement centre in them and the sample extremum."""
    radii = table.radii[mask]
    centre = table.radii[idx]
    lo, hi = max(interval[0], table.radii[0]), min(interval[1], table.radii[-1])
    for end, outside in ((lo, lo < radii[0]), (hi, hi > radii[-1])):
        if outside:
            v = float(log_q(np.array([end]))[0])
            if better(v, log_v0):
                centre, log_v0 = end, v
    grid = np.union1d(table.radii, centre)
    return grid, int(np.searchsorted(grid, centre)), log_v0


def reference_esssup_ratio(table, alpha, beta, interval, tol=1e-3):
    r_lo, r_hi = interval
    mask = table.interval_mask(r_lo, r_hi)
    if not np.any(mask):
        raise InsufficientRange(f"no grid points inside ({r_lo}, {r_hi})")
    if beta != 0 and np.any(table.values_V[mask] == 0):
        raise DivisionByZeroV("V vanishes on the sample while beta > 0")
    log_vals = _reference_log_ratio(table, alpha, beta, mask)
    i_rel = int(np.argmax(log_vals))
    idx = np.flatnonzero(mask)[i_rel]
    log_v0 = log_vals[i_rel]
    n_pts = int(mask.sum())
    converged = True
    log_v1 = log_v0
    if table.specs is not None:
        spec_A, spec_V, spec_K = table.specs

        def log_ratio(r):
            sub = spec_K.evaluate_log(r) - alpha * np.log(r)
            return sub - beta * spec_V.evaluate_log(r) if beta != 0 else sub

        grid, at, log_v0 = _reference_end_sample(table, interval, mask, idx, log_v0,
                                                 log_ratio, lambda v, best: v > best)
        log_v1 = log_v0
        sub_r = _refine_radii(grid, at)
        sub_r = sub_r[(sub_r >= r_lo) & (sub_r <= r_hi)]
        if len(sub_r):
            sub = log_ratio(sub_r)
            log_v1 = max(log_v0, float(np.max(sub)))
            n_pts += len(sub_r)
        converged = abs(log_v1 - log_v0) <= tol
    with np.errstate(over="ignore"):
        value = float(np.exp(log_v1))
    return AsymptoticBound(QUANTITY_ESSSUP, (float(r_lo), float(r_hi)), value,
                           n_pts, bool(converged), heuristic=table.specs is None)


def reference_essinf_weighted(table, gamma, interval, tol=1e-3):
    r_lo, r_hi = interval
    mask = table.interval_mask(r_lo, r_hi)
    if not np.any(mask):
        raise InsufficientRange(f"no grid points inside ({r_lo}, {r_hi})")
    log_vals = gamma * np.log(table.radii[mask]) + table.log_V[mask]
    i_rel = int(np.argmin(log_vals))
    idx = np.flatnonzero(mask)[i_rel]
    log_v0 = log_vals[i_rel]
    n_pts = int(mask.sum())
    converged = True
    log_v1 = log_v0
    if table.specs is not None:
        spec_V = table.specs[1]

        def log_weighted(r):
            return gamma * np.log(r) + spec_V.evaluate_log(r)

        grid, at, log_v0 = _reference_end_sample(table, interval, mask, idx, log_v0,
                                                 log_weighted, lambda v, best: v < best)
        log_v1 = log_v0
        sub_r = _refine_radii(grid, at)
        sub_r = sub_r[(sub_r >= r_lo) & (sub_r <= r_hi)]
        if len(sub_r):
            sub = log_weighted(sub_r)
            log_v1 = min(log_v0, float(np.min(sub)))
            n_pts += len(sub_r)
        converged = (log_v1 == -math.inf and log_v0 == -math.inf) \
            or abs(log_v1 - log_v0) <= tol
    with np.errstate(over="ignore"):
        value = 0.0 if log_v1 == -math.inf else float(np.exp(log_v1))
    return AsymptoticBound(QUANTITY_ESSINF, (float(r_lo), float(r_hi)), value,
                           n_pts, bool(converged), heuristic=table.specs is None)


def _reference_end_trend(r_sub, log_sub, end):
    if end == "origin":
        m = r_sub <= r_sub[0] * 10
    else:
        m = r_sub >= r_sub[-1] / 10
    x = np.log(r_sub[m])
    y = log_sub[m]
    good = np.isfinite(y)
    if good.sum() < 2:
        return math.nan
    slope, _ = np.polyfit(x[good], y[good], 1)
    return float(slope)


def reference_extremum_checks(table, asym_origin, asym_infinity):
    """The esssup/essinf entries and bounds, as the two closures made them."""
    rep = HypothesisReport()
    r_min, r_max = table.radii[0], table.radii[-1]

    def _sup_check(label, asym, interval, end):
        try:
            bound = reference_esssup_ratio(table, asym.alpha, asym.beta, interval)
        except DivisionByZeroV:
            rep.add(f"esssup_{label}_finite", False,
                    detail="V vanishes on the sample while beta > 0")
            return
        mask = table.interval_mask(*interval)
        logs = _reference_log_ratio(table, asym.alpha, asym.beta, mask)
        slope = _reference_end_trend(table.radii[mask], logs, end)
        diverging = (end == "origin" and slope < -0.01) \
            or (end == "infinity" and slope > 0.01)
        ok = math.isfinite(bound.value) and bound.converged and not diverging
        rep.bounds[f"esssup_{label}"] = bound
        rep.add(f"esssup_{label}_finite", ok, value=bound.value,
                detail=f"end trend slope {slope:.3g}")

    def _inf_check(label, asym, interval, end):
        bound = reference_essinf_weighted(table, asym.gamma, interval)
        mask = table.interval_mask(*interval)
        logs = asym.gamma * np.log(table.radii[mask]) + table.log_V[mask]
        slope = _reference_end_trend(table.radii[mask], logs, end)
        vanishing = (end == "origin" and slope > 0.01) \
            or (end == "infinity" and slope < -0.01)
        ok = bound.value > 0 and not vanishing
        rep.bounds[f"essinf_{label}"] = bound
        rep.add(f"essinf_{label}_positive", ok, value=bound.value,
                detail=f"end trend slope {slope:.3g}")

    _sup_check("origin", asym_origin, (r_min, asym_origin.R), "origin")
    _inf_check("origin", asym_origin, (r_min, asym_origin.R), "origin")
    _sup_check("infinity", asym_infinity, (asym_infinity.R, r_max), "infinity")
    _inf_check("infinity", asym_infinity, (asym_infinity.R, r_max), "infinity")
    return rep


def assert_same(a, b):
    """Exact equality, nan equal to nan and types included: repr shows
    every float to round-trip precision and numpy scalars as such."""
    assert repr(a) == repr(b)


def _vanishing_v_config(outer_only):
    cfg = example_config("ex1")
    zero = {"kind": "constant", "c": 0.0}
    cfg["potentials"]["V"] = {"kind": "piecewise", "breakpoint": 1.0,
                              "inner": {"kind": "exp_inv", "scale": 1.0},
                              "outer": zero} if outer_only else zero
    return cfg


def _mismatched_config(name):
    """Declared rates that the tables contradict, so that the end trends
    have slopes of both signs at both ends."""
    cfg = example_config(name)
    if name == "ex1":  # r^3 V ~ r^-1 and K ~ r toward infinity
        cfg["potentials"]["V"]["outer"]["e"] = -4.0
        cfg["potentials"]["K"]["outer"] = {"kind": "power", "c": 1.0, "e": 1.0}
    else:  # K / r^2 ~ r^-1.5 and r^5 V ~ r toward the origin
        cfg["asymptotics"]["origin"].update(alpha=2.0, gamma=5.0)
    return cfg


class TestChecksAgainstTwoRoutines:
    """One refined extremum and one check loop against the two of each they replace."""

    CONFIGS = {
        "ex1": example_config("ex1"),
        "ex2_I": example_config("ex2_I"),
        "ex2_II": example_config("ex2_II"),
        "ex2_III": example_config("ex2_III"),
        "v_zero": _vanishing_v_config(False),
        "v_zero_tail": _vanishing_v_config(True),
        "ex1_mismatched": _mismatched_config("ex1"),
        "ex2_I_mismatched": _mismatched_config("ex2_I"),
    }

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_check_entries_and_bounds(self, name):
        cfg = load_config(self.CONFIGS[name])
        specs = (cfg.spec_A, cfg.spec_V, cfg.spec_K)
        rep = validate_hypotheses(specs, cfg.dims, cfg.asym_origin, cfg.asym_infinity,
                                  s_loc=cfg.s_loc)
        ref = reference_extremum_checks(eval_potentials(*specs, default_radii()),
                                        cfg.asym_origin, cfg.asym_infinity)
        entries = [e for e in rep.entries if e.name.startswith(("esssup_", "essinf_"))]
        assert [e.name for e in entries] == [
            "esssup_origin_finite", "essinf_origin_positive",
            "esssup_infinity_finite", "essinf_infinity_positive"]
        assert_same(entries, ref.entries)
        bounds = {k: b for k, b in rep.bounds.items() if k.startswith(("esssup_", "essinf_"))}
        assert_same(bounds, ref.bounds)
        # the serialised bounds and checks keep the keys and values of the
        # hand-written dicts they replace
        old_bounds = {k: {"quantity": b.quantity, "interval": list(b.interval),
                          "value": b.value, "grid_points": b.grid_points,
                          "converged": b.converged, "heuristic": b.heuristic}
                      for k, b in ref.bounds.items()}
        old_checks = [{"name": e.name, "passed": e.passed, "value": e.value,
                       "detail": e.detail, "gating": e.gating} for e in ref.entries]
        doc = rep.to_dict()
        assert canonical_json({k: doc["bounds"][k] for k in old_bounds}) \
            == canonical_json(old_bounds)
        assert canonical_json([c for c in doc["checks"] if c["name"] in
                               {e.name for e in ref.entries}]) == canonical_json(old_checks)

    def test_mismatched_rates_fail_every_end_trend(self):
        failed = set()
        for name in ("ex1_mismatched", "ex2_I_mismatched"):
            cfg = load_config(self.CONFIGS[name])
            rep = validate_hypotheses((cfg.spec_A, cfg.spec_V, cfg.spec_K), cfg.dims,
                                      cfg.asym_origin, cfg.asym_infinity)
            failed |= {e.name for e in rep.entries if not e.passed}
        assert failed >= {"esssup_origin_finite", "essinf_origin_positive",
                          "esssup_infinity_finite", "essinf_infinity_positive"}

    def test_vanishing_v_takes_both_special_paths(self):
        cfg = load_config(self.CONFIGS["v_zero"])
        rep = validate_hypotheses((cfg.spec_A, cfg.spec_V, cfg.spec_K), cfg.dims,
                                  cfg.asym_origin, cfg.asym_infinity)
        names = {e.name: e for e in rep.entries}
        # beta = 1 at the origin: the ratio sup is +inf and gets no bound
        assert names["esssup_origin_finite"].detail.startswith("V vanishes")
        assert "esssup_origin" not in rep.bounds
        assert rep.bounds["essinf_origin"].value == 0.0
        assert rep.bounds["essinf_origin"].converged

    @staticmethod
    def _compare(table, rng, n=50):
        r = table.radii
        for _ in range(n):
            lo = 10 ** rng.uniform(math.log10(r[0]) - 0.5, math.log10(r[-1]))
            hi = lo * 10 ** rng.uniform(-0.2, 4.0)  # some intervals hold no node
            alpha, gamma = rng.uniform(-3, 3), rng.uniform(-3, 3)
            beta = float(rng.choice([0.0, 0.5, 1.0]))
            for new, ref, args in ((esssup_ratio, reference_esssup_ratio,
                                    (table, alpha, beta, (lo, hi))),
                                   (essinf_weighted, reference_essinf_weighted,
                                    (table, gamma, (lo, hi)))):
                try:
                    expected = ref(*args)
                except (InsufficientRange, DivisionByZeroV) as exc:
                    with pytest.raises(type(exc)):
                        new(*args)
                    continue
                assert_same(new(*args), expected)

    @pytest.mark.parametrize("name", ["ex1", "ex2_I"])
    def test_random_intervals(self, name):
        cfg = load_config(self.CONFIGS[name])
        table = eval_potentials(cfg.spec_A, cfg.spec_V, cfg.spec_K, default_radii())
        self._compare(table, np.random.default_rng(11))

    def test_random_intervals_sample_backed(self):
        # V vanishes beyond r = 100, so intervals reaching past it raise DivisionByZeroV
        table = eval_potentials(Constant(1.0), Piecewise(100.0, Power(1.0, -1.5), Constant(0.0)),
                                MinOf((Power(1.0, 1.0), ExpInv(1.0), Constant(3.0))),
                                np.logspace(-3, 3, 700))
        self._compare(table, np.random.default_rng(12))
