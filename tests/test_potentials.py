import importlib.util
import math
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from quasiradial.cli import example_config, load_config
from quasiradial.exponents import EndpointAsymptotics, ProblemDims
from quasiradial.potentials import (
    QUANTITY_ESSINF,
    QUANTITY_ESSSUP,
    QUANTITY_RATIO_A,
    Constant,
    DivisionByZeroV,
    ExpInv,
    MaxOf,
    MinOf,
    NonPositive,
    Piecewise,
    Power,
    essinf_weighted,
    esssup_ratio,
    eval_potentials,
    spec_from_json,
    validate_hypotheses,
)
from quasiradial.solver import build_grid

D24 = ProblemDims(N=4, p=2)


def linear(log_values):
    """A table's linear values, formed from its logs as the package's readers
    form them: inf where they overflow, 0 where they underflow."""
    with np.errstate(over="ignore"):
        return np.exp(log_values)


def example1_specs():
    v = Piecewise(1.0, ExpInv(1.0), Power(1.0, -3.0))
    k = Piecewise(1.0, ExpInv(1.0), Constant(1.0))
    return Power(1.0, -1.0), v, k


def example2_specs(gamma0=4.0, d=10.0):
    a = MinOf((Power(1.0, -2.0), Power(1.0, -1.0)))
    v = MaxOf((Power(1.0, -gamma0), Power(1.0, 0.5)))
    k = MaxOf((Power(1.0, d), Power(1.0, 0.5)))
    return a, v, k


def reference_log(spec, r):
    """The log of a spec at radii r by each kind's own tree arithmetic, which
    reads no pieces: the second routine the tables and checks are held to."""
    r = np.asarray(r, dtype=float)
    if isinstance(spec, Power):
        return (math.log(spec.c) if spec.c > 0 else -math.inf) + spec.e * np.log(r)
    if isinstance(spec, Constant):
        return np.full_like(r, math.log(spec.c) if spec.c > 0 else -math.inf)
    if isinstance(spec, ExpInv):
        return spec.scale / r
    if isinstance(spec, (MinOf, MaxOf)):
        extremum = np.minimum if isinstance(spec, MinOf) else np.maximum
        return extremum.reduce([reference_log(part, r) for part in spec.parts])
    return np.where(r < spec.breakpoint, reference_log(spec.inner, r),
                    reference_log(spec.outer, r))


def table_log(spec, r):
    """The table's log of spec (as V) at the increasing radii r."""
    return eval_potentials(Constant(1.0), spec, Constant(1.0), np.asarray(r, dtype=float)).log_V


class TestSpecEvaluation:
    def test_power(self):
        assert math.exp(table_log(Power(1, -1), [1.0, 2.0])[1]) == pytest.approx(0.5, rel=1e-15)

    def test_example2_min_at_small_r(self):
        spec = MinOf((Power(1, -2), Power(1, -1)))
        np.testing.assert_allclose(np.exp(table_log(spec, [0.1, 10.0])), [10.0, 0.01])

    def test_exp_inv(self):
        assert table_log(ExpInv(1.0), [0.5, 1.0])[0] == pytest.approx(2.0)

    def test_log_values_at_overflow_scale(self):
        # the table's linear value overflows, the log stays exact
        t = eval_potentials(Constant(1.0), ExpInv(1.0), Constant(1.0), np.array([1e-5, 1.0]))
        assert math.isinf(linear(t.log_V)[0])
        assert t.log_V[0] == pytest.approx(1e5)

    def test_piecewise(self):
        # r = 1 is the breakpoint, and takes the outer piece
        spec = Piecewise(1.0, Constant(2.0), Power(1.0, 1.0))
        np.testing.assert_allclose(table_log(spec, [0.5, 1.0, 3.0]), np.log([2.0, 1.0, 3.0]),
                                   rtol=1e-15)

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
        assert math.exp(table_log(spec, [0.1, 1.0])[0]) == pytest.approx(10.0)

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

    @pytest.mark.parametrize("spec", [partial(Power, 1.0, math.inf), partial(ExpInv, -math.inf)])
    def test_infinite_exponent_rejected(self, spec):
        with pytest.raises(NonPositive, match="infinite exponent"):
            spec()

    @pytest.mark.parametrize("kind", ["min", "max"])
    def test_empty_min_or_max_rejected(self, kind):
        with pytest.raises(ValueError, match="at least one part"):
            spec_from_json({"kind": kind, "args": []})


class TestEvalPotentials:
    def test_builds_table(self):
        r = np.logspace(-3, 3, 200)
        t = eval_potentials(*example1_specs(), r)
        assert linear(t.log_A)[0] == pytest.approx(1e3)
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
        np.testing.assert_array_equal(linear(t_power.log_V), linear(t_const.log_V))
        assert np.all(t_power.log_V == -np.inf) and np.all(linear(t_power.log_V) == 0.0)

    def test_table_keeps_the_logs_only(self):
        # three arrays of 100000 doubles (2.29 MiB); the linear values are
        # formed by the readers that need them
        r = np.logspace(-3, math.log10(30.0), 100000)
        tracemalloc.start()
        try:
            t = eval_potentials(Constant(1.0), Constant(1.0), Constant(1.0), r)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 2.5 * 2 ** 20
        assert not hasattr(t, "values_V")


def report(specs, dims, origin, infinity, s_loc=2.0):
    """validate_hypotheses' entries by name, and its bounds."""
    rep = validate_hypotheses(specs, dims, origin, infinity, s_loc)
    return {e.name: e for e in rep.entries}, rep.bounds


def config_report(cfg):
    cfg = load_config(cfg)
    return report((cfg.spec_A, cfg.spec_V, cfg.spec_K), cfg.dims,
                  cfg.asym_origin, cfg.asym_infinity, cfg.s_loc)


def ex1_asym():
    origin = EndpointAsymptotics("origin", a=-1, alpha=0, beta=1, gamma=8, R=1.0)
    inf = EndpointAsymptotics("infinity", a=-1, alpha=0, beta=0, gamma=3, R=1.0)
    return origin, inf


def rate_asym(a_origin, a_infinity):
    """Endpoint data that only declares the rates of A."""
    return (EndpointAsymptotics("origin", a=a_origin, alpha=0, beta=0, gamma=8, R=1.0),
            EndpointAsymptotics("infinity", a=a_infinity, alpha=0, beta=0, gamma=-3, R=1.0))


# e^8 / 8^8: the minimum of r^8 e^(1/r), at r = 1/8
EX1_ESSINF_ORIGIN = math.exp(8.0) / 8.0 ** 8


class TestLimitExponent:
    """The exponent b of A ~ r^b at each end, reported as the A_rate values."""

    def test_inverse_power_both_ends(self):
        names, bounds = report(example1_specs(), D24, *ex1_asym())
        for end in ("origin", "infinity"):
            assert names[f"A_rate_{end}"].value == -1.0
            assert names[f"A_rate_{end}"].passed
            assert bounds[f"ratio_A_{end}"].value == 1.0

    def test_example2_a_rates(self):
        names, _ = report(example2_specs(), D24, *rate_asym(-1.0, -2.0))
        assert names["A_rate_origin"].value == -1.0
        assert names["A_rate_infinity"].value == -2.0
        assert names["A_rate_origin"].passed and names["A_rate_infinity"].passed

    def test_constant(self):
        names, _ = report((Constant(1.0),) * 3, D24, *rate_asym(0.0, 0.0))
        assert names["A_rate_origin"].value == 0.0 and names["A_rate_origin"].passed

    def test_pure_power_high_accuracy(self):
        names, bounds = report((Power(3.0, -1.7), Constant(1.0), Constant(1.0)), D24,
                               *rate_asym(-1.7, -1.7))
        assert names["A_rate_infinity"].value == -1.7
        assert names["A_rate_infinity"].passed
        assert bounds["ratio_A_infinity"].value == pytest.approx(3.0, rel=1e-15)

    def test_a_wrong_rate_or_exponential_factor_fails(self):
        # A = r^-1 declared as r^0, and A = r^-1 e^(1/r), which outgrows every power at 0
        names, bounds = report(example1_specs(), D24, *rate_asym(0.0, -1.0))
        assert not names["A_rate_origin"].passed and bounds["ratio_A_origin"].value == math.inf
        a = MaxOf((Power(1.0, -1.0), ExpInv(1.0)))
        names, _ = report((a, Constant(1.0), Constant(1.0)), D24, *rate_asym(-1.0, 0.0))
        assert names["A_rate_origin"].value == -math.inf
        assert not names["A_rate_origin"].passed


class TestEsssupRatio:
    def test_example1_origin_ratio_is_one(self):
        _, v, k = example1_specs()
        b = esssup_ratio(v, k, alpha=0.0, beta=1.0, interval=(0.0, 1.0))
        assert b.value == 1.0
        assert (b.quantity, b.interval) == (QUANTITY_ESSSUP, (0.0, 1.0))

    def test_pure_power_ratio(self):
        b = esssup_ratio(Constant(1.0), Power(1.0, 0.5), alpha=0.5, beta=0.0,
                         interval=(0.0, 1.0))
        assert b.value == 1.0

    def test_beta_zero_ignores_v(self):
        k = Power(2.0, -0.25)
        values = [esssup_ratio(v, k, alpha=-0.5, beta=0.0, interval=(0.01, 10.0)).value
                  for v in (ExpInv(1.0), Power(5.0, 3.0), Constant(0.0))]
        assert values[0] == values[1] == values[2]  # bit identical, a zero V included

    def test_zero_v_with_positive_beta(self):
        with pytest.raises(DivisionByZeroV):
            esssup_ratio(Constant(0.0), Constant(1.0), alpha=0.0, beta=0.5, interval=(0.1, 10.0))
        # a V that vanishes past r = 100 only divides by zero where the interval reaches there
        v = Piecewise(100.0, Power(1.0, -1.5), Constant(0.0))
        assert esssup_ratio(v, Constant(1.0), 0.0, 0.5, (0.1, 100.0)).value \
            == pytest.approx(100.0 ** 0.75, rel=1e-14)
        with pytest.raises(DivisionByZeroV):
            esssup_ratio(v, Constant(1.0), 0.0, 0.5, (0.1, 100.5))

    def test_underflowing_v_is_not_zero(self):
        # V = K = e^(-1/r) underflows near r = 1e-6, but log K - log V = 0 on all of (0, 1)
        spec = ExpInv(-1.0)
        assert math.exp(reference_log(spec, 1e-6)) == 0.0
        b = esssup_ratio(spec, spec, alpha=0.0, beta=1.0, interval=(0.0, 1.0))
        assert b.value == 1.0

    def test_interior_maximum_is_exact(self):
        # r^-1 e^(-1/r) is largest at r = 1, where it is 1/e
        b = esssup_ratio(ExpInv(1.0), Power(1.0, -1.0), alpha=0.0, beta=1.0,
                         interval=(0.0, math.inf))
        assert b.value == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_limits_at_the_ends(self):
        # sups over (0, R] and [R, inf) include the limits at 0 and inf
        assert esssup_ratio(Constant(1.0), Power(1.0, -1.0), 0.0, 0.0, (0.0, 1.0)).value == math.inf
        assert esssup_ratio(Constant(1.0), Power(1.0, 1.0), 0.0, 0.0, (1.0, math.inf)).value \
            == math.inf
        assert esssup_ratio(Constant(1.0), Power(1.0, -1.0), 0.0, 0.0, (1.0, math.inf)).value \
            == 1.0
        k = MinOf((Power(1.0, 1.0), Power(1.0, -1.0)))
        assert esssup_ratio(Constant(1.0), k, 0.0, 0.0, (0.0, math.inf)).value == 1.0

    @pytest.mark.parametrize("interval", [(1.0, 1.0), (2.0, 1.0), (-1.0, 1.0),
                                          (math.nan, 1.0), (0.0, math.nan)])
    def test_empty_interval_rejected(self, interval):
        with pytest.raises(ValueError):
            esssup_ratio(Constant(1.0), Constant(1.0), 0.0, 0.0, interval)

    def test_sup_at_an_interval_end_between_nodes(self):
        # K = r on (0, 0.5]: the sup sits at the interval's end 0.5
        specs = (Power(1.0, -1.0), Constant(1.0), Power(1.0, 1.0))
        b = esssup_ratio(specs[1], specs[2], alpha=0.0, beta=0.0, interval=(0.0, 0.5))
        assert b.value == pytest.approx(0.5, rel=1e-15)
        names, _ = report(specs, D24, EndpointAsymptotics("origin", -1.0, 0.0, 0.0, 0.0, R=0.5),
                          EndpointAsymptotics("infinity", -1.0, 1.0, 0.0, 0.0, R=1.0))
        assert names["esssup_origin_finite"].passed

    def test_monotone_in_interval(self):
        rng = np.random.default_rng(5)
        _, v, k = example2_specs()
        for _ in range(50):
            lo = 10 ** rng.uniform(-3, 1)
            hi = lo * 10 ** rng.uniform(0.5, 3)
            lo2 = lo * 10 ** rng.uniform(0.0, 0.4)
            hi2 = hi / 10 ** rng.uniform(0.0, 0.4)
            big = esssup_ratio(v, k, 0.3, 0.0, (lo, hi)).value
            small = esssup_ratio(v, k, 0.3, 0.0, (lo2, hi2)).value
            assert big >= small


class TestEssinfWeighted:
    def test_exact_inverse_power(self):
        b = essinf_weighted(Power(1.0, -2.5), gamma=2.5, interval=(0.001, 100.0))
        assert b.value == 1.0
        assert (b.quantity, b.interval) == (QUANTITY_ESSINF, (0.001, 100.0))

    def test_example1_infinity(self):
        b = essinf_weighted(example1_specs()[1], gamma=3.0, interval=(1.0, math.inf))
        assert b.value == 1.0

    def test_example1_origin_interior_minimum(self):
        # r^8 e^{1/r} on (0, 1] has its minimum at r = 1/8
        b = essinf_weighted(example1_specs()[1], gamma=8.0, interval=(0.0, 1.0))
        # exact to 1e-12; the grid inf this replaces read 1.7767894262715633e-4, 4e-9 above
        assert b.value == pytest.approx(EX1_ESSINF_ORIGIN, rel=1e-12)

    def test_zero_v_returns_zero(self):
        b = essinf_weighted(Constant(0.0), gamma=1.0, interval=(0.1, 10.0))
        assert b.value == 0.0

    def test_monotone_in_interval(self):
        v = example2_specs()[1]
        outer = essinf_weighted(v, 1.3, (0.01, 100.0)).value
        inner = essinf_weighted(v, 1.3, (0.1, 10.0)).value
        assert outer <= inner


class TestValidateHypotheses:
    def test_example1_all_pass(self):
        rep = validate_hypotheses(example1_specs(), D24, *ex1_asym(), 2.0)
        failed = [e.name for e in rep.entries if e.gating and not e.passed]
        assert failed == []
        assert rep.passed

    def test_a_out_of_range_fails(self):
        origin, inf = ex1_asym()
        bad = EndpointAsymptotics("origin", a=2.1, alpha=0, beta=1, gamma=8, R=1.0)
        rep = validate_hypotheses(example1_specs(), D24, bad, inf, 2.0)
        assert not rep.passed
        names = {e.name: e.passed for e in rep.entries}
        assert names["a_origin_in_range"] is False

    def test_vanishing_v_fails_essinf(self):
        specs = (Power(1.0, -1.0), Constant(0.0), Constant(1.0))
        rep = validate_hypotheses(specs, D24, *ex1_asym(), 2.0)
        assert not rep.passed
        names = {e.name: e.passed for e in rep.entries}
        assert names["essinf_origin_positive"] is False

    def test_report_serializes(self):
        d = validate_hypotheses(example1_specs(), D24, *ex1_asym(), 2.0).to_dict()
        assert d["passed"] is True
        assert any(c["name"] == "esssup_origin_finite" for c in d["checks"])
        assert d["bounds"]["essinf_infinity"] == {
            "quantity": QUANTITY_ESSINF, "interval": (1.0, math.inf), "value": 1.0}

    def test_a_ratio_bounds_reported(self):
        _, bounds = report(example1_specs(), D24, *ex1_asym())
        for label, interval in (("origin", (0.0, 1.0)), ("infinity", (1.0, math.inf))):
            b = bounds[f"ratio_A_{label}"]
            assert b.quantity == QUANTITY_RATIO_A
            assert b.interval == interval
            assert b.value == 1.0  # A = r^-1 exactly

    @pytest.mark.parametrize("name", ["ex1", "ex2_I", "ex2_II", "ex2_III"])
    def test_bounds_of_the_bundled_examples_are_exact(self, name):
        _, bounds = config_report(example_config(name))
        assert len(bounds) == 6
        for key, b in bounds.items():
            if (name, key) == ("ex1", "essinf_origin"):
                assert b.value == pytest.approx(EX1_ESSINF_ORIGIN, rel=1e-12)
            else:
                assert b.value == 1.0, key

    @pytest.mark.parametrize("name, b", [("ex1", -math.inf), ("ex2_I", 0.0),
                                         ("ex2_II", -1.0), ("ex2_III", -2.0)])
    def test_v_weight_diagnostic_reads_the_exponent_at_the_origin(self, name, b):
        # V r^(N-1) ~ r^b at 0 is integrable there iff b > -1
        entry = config_report(example_config(name))[0]["diagnostic_v_weight_near_origin"]
        assert entry.value == b
        assert entry.passed is (name == "ex2_I")
        assert not entry.gating

    def test_v_vanishing_only_at_r_passes_the_origin_checks(self):
        # V = e^(1/r) below R = 1 and 0 from R on: the point r = R does not count
        names, bounds = config_report(_vanishing_v_config(True))
        assert names["esssup_origin_finite"].passed and names["essinf_origin_positive"].passed
        assert bounds["essinf_origin"].value == pytest.approx(EX1_ESSINF_ORIGIN, rel=1e-12)
        assert not names["essinf_infinity_positive"].passed

    def test_local_integrability_reports_the_sup(self):
        # V = K = e^(1/r) near 1e-2: sups e^100 and (e^100)^2 on [1e-2, 1e2]
        names, _ = report(example1_specs(), D24, *ex1_asym())
        assert names["V_locally_integrable"].value == pytest.approx(math.exp(100.0), rel=1e-13)
        assert names["K_locally_s_integrable"].value == pytest.approx(math.exp(200.0), rel=1e-13)
        assert names["V_locally_integrable"].passed and names["K_locally_s_integrable"].passed

    def test_local_integrability_reads_the_log_of_the_sup(self):
        # V = e^(8/r) near 1e-2 is bounded there, though its sup e^800 overflows
        cfg = example_config("ex1")
        cfg["potentials"]["V"]["inner"]["scale"] = 8.0
        entry = config_report(cfg)[0]["V_locally_integrable"]
        assert entry.passed and entry.value == math.inf

    @pytest.mark.parametrize("which", [0, 2])
    def test_a_or_k_vanishing_far_out_is_rejected(self, which):
        specs = list(example1_specs())
        specs[which] = Piecewise(1e7, specs[which], Constant(0.0))
        with pytest.raises(NonPositive):
            validate_hypotheses(tuple(specs), D24, *ex1_asym(), 2.0)


# ---------------------------------------------------------------------------
# The exact routines against dense samples of the same specs
# ---------------------------------------------------------------------------

def _vanishing_v_config(outer_only):
    cfg = example_config("ex1")
    zero = {"kind": "constant", "c": 0.0}
    cfg["potentials"]["V"] = {"kind": "piecewise", "breakpoint": 1.0,
                              "inner": {"kind": "exp_inv", "scale": 1.0},
                              "outer": zero} if outer_only else zero
    return cfg


def _mismatched_config(name):
    """Declared rates that the potentials contradict, so that the bounded
    quantities grow or vanish toward both ends."""
    cfg = example_config(name)
    if name == "ex1":  # r^3 V ~ r^-1 and K ~ r toward infinity
        cfg["potentials"]["V"]["outer"]["e"] = -4.0
        cfg["potentials"]["K"]["outer"] = {"kind": "power", "c": 1.0, "e": 1.0}
    else:  # K / r^2 ~ r^-1.5 and r^5 V ~ r toward the origin
        cfg["asymptotics"]["origin"].update(alpha=2.0, gamma=5.0)
    return cfg


def _log(x):
    with np.errstate(divide="ignore"):
        return float(np.log(x))


def _dense(interval, n=4001):
    """n radii evenly spaced in log r over the interval, cut to [1e-6, 1e6];
    the ends move inside by 1e-13 relative, since a single point does not
    count in an essential sup."""
    lo, hi = max(interval[0], 1e-6), min(interval[1], 1e6)
    r = np.exp(np.linspace(math.log(lo), math.log(hi), n))
    r[0], r[-1] = lo * (1.0 + 1e-13), hi * (1.0 - 1e-13)
    return r


def _assert_sup(exact, log_q, closed):
    """The exact log sup is at or above the samples' max, and on a closed
    interval within twice their largest step of it.  A log of +-inf stands
    for a value beyond the float range: inf, or 0 for an inf."""
    top = float(np.max(log_q))
    step = float(np.max(np.abs(np.diff(log_q[np.isfinite(log_q)])), initial=0.0))
    tol = 1e-12 * (1.0 + abs(top)) if math.isfinite(top) else 0.0
    if exact == -math.inf:
        assert top + 2.0 * step < -700.0
        return
    assert exact >= top - tol
    if closed:
        assert top + 2.0 * step > 700.0 if exact == math.inf else exact <= top + 2.0 * step + tol


def _compare(specs, alpha, beta, gamma, interval):
    """esssup_ratio and essinf_weighted against a dense sample of the interval."""
    _, spec_V, spec_K = specs
    r = _dense(interval)
    closed = interval[0] >= 1e-6 and interval[1] <= 1e6
    log_V = reference_log(spec_V, r)
    if beta > 0 and np.any(log_V == -np.inf):
        with pytest.raises(DivisionByZeroV):
            esssup_ratio(spec_V, spec_K, alpha, beta, interval)
    else:
        log_q = reference_log(spec_K, r) - alpha * np.log(r) - (beta * log_V if beta else 0.0)
        _assert_sup(_log(esssup_ratio(spec_V, spec_K, alpha, beta, interval).value),
                    log_q, closed)
    # an inf is minus the sup of the negated quantity
    _assert_sup(-_log(essinf_weighted(spec_V, gamma, interval).value),
                -(gamma * np.log(r) + log_V), closed)


def _random_spec(rng, depth):
    """A spec tree of at most `depth` levels whose logs stay in float range on [1e-2, 1e3]."""
    kind = rng.integers(0, 6 if depth > 0 else 3)
    if kind == 0:
        return Power(float(10 ** rng.uniform(-1, 1)), float(rng.uniform(-3, 3)))
    if kind == 1:
        return Constant(float(10 ** rng.uniform(-1, 1)))
    if kind == 2:
        return ExpInv(float(rng.uniform(-2, 2)))
    if kind == 3:
        return Piecewise(float(10 ** rng.uniform(-2, 2)), _random_spec(rng, depth - 1),
                         _random_spec(rng, depth - 1))
    parts = tuple(_random_spec(rng, depth - 1) for _ in range(rng.integers(2, 4)))
    return (MinOf if kind == 4 else MaxOf)(parts)


class TestChecksAgainstTwoRoutines:
    """The exact checks against a second routine: dense samples of the specs."""

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

    # the gating entries that fail; the grid checks these replace failed the
    # same ones, and also the origin esssup and essinf of v_zero_tail
    FAILED = {
        "v_zero": {"esssup_origin_finite", "essinf_origin_positive", "essinf_infinity_positive"},
        "v_zero_tail": {"essinf_infinity_positive"},
        "ex1_mismatched": {"esssup_infinity_finite", "essinf_infinity_positive"},
        "ex2_I_mismatched": {"esssup_origin_finite", "essinf_origin_positive"},
    }

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_check_entries_and_bounds(self, name):
        cfg = load_config(self.CONFIGS[name])
        specs = (cfg.spec_A, cfg.spec_V, cfg.spec_K)
        rep = validate_hypotheses(specs, cfg.dims, cfg.asym_origin, cfg.asym_infinity, cfg.s_loc)
        entries = [e.name for e in rep.entries if e.name.startswith(("esssup_", "essinf_"))]
        assert entries == ["esssup_origin_finite", "essinf_origin_positive",
                           "esssup_infinity_finite", "essinf_infinity_positive"]
        assert {e.name for e in rep.entries if e.gating and not e.passed} \
            == self.FAILED.get(name, set())
        for end, asym in (("origin", cfg.asym_origin), ("infinity", cfg.asym_infinity)):
            interval = (0.0, asym.R) if end == "origin" else (asym.R, math.inf)
            assert rep.bounds[f"essinf_{end}"].interval == interval
            _compare(specs, asym.alpha, asym.beta, asym.gamma, interval)

    def test_mismatched_rates_fail_every_end_trend(self):
        failed = set()
        for name in ("ex1_mismatched", "ex2_I_mismatched"):
            names, _ = config_report(self.CONFIGS[name])
            failed |= {n for n, e in names.items() if not e.passed}
        assert failed >= {"esssup_origin_finite", "essinf_origin_positive",
                          "esssup_infinity_finite", "essinf_infinity_positive"}

    def test_vanishing_v_takes_both_special_paths(self):
        names, bounds = config_report(self.CONFIGS["v_zero"])
        # beta = 1 at the origin: the ratio sup is +inf and gets no bound
        assert names["esssup_origin_finite"].detail.startswith("V vanishes")
        assert "esssup_origin" not in bounds
        assert bounds["essinf_origin"].value == 0.0

    @staticmethod
    def _random_intervals(specs, rng, n=50):
        for _ in range(n):
            lo = 10 ** rng.uniform(-4, 3)
            hi = lo * 10 ** rng.uniform(0.01, 4.0)
            lo, hi = (0.0 if rng.uniform() < 0.1 else lo), (math.inf if rng.uniform() < 0.1 else hi)
            alpha, gamma = rng.uniform(-3, 3), rng.uniform(-3, 3)
            _compare(specs, alpha, float(rng.choice([0.0, 0.5, 1.0])), gamma, (lo, hi))

    @pytest.mark.parametrize("name", ["ex1", "ex2_I"])
    def test_random_intervals(self, name):
        cfg = load_config(self.CONFIGS[name])
        self._random_intervals((cfg.spec_A, cfg.spec_V, cfg.spec_K), np.random.default_rng(11))

    def test_random_intervals_sample_backed(self):
        # V vanishes beyond r = 100, so intervals reaching past it raise DivisionByZeroV
        specs = (Constant(1.0), Piecewise(100.0, Power(1.0, -1.5), Constant(0.0)),
                 MinOf((Power(1.0, 1.0), ExpInv(1.0), Constant(3.0))))
        self._random_intervals(specs, np.random.default_rng(12))

    def test_random_spec_trees(self):
        # the exact sup is at or above a dense sample's, and within its spacing error
        for specs, interval, alpha, beta, gamma in _random_tree_cases():
            _compare(specs, alpha, beta, gamma, interval)


def _random_tree_cases():
    """300 random (specs, interval, alpha, beta, gamma) with depth-3 trees for V and K."""
    rng = np.random.default_rng(13)
    for _ in range(300):
        specs = (Constant(1.0), _random_spec(rng, 3), _random_spec(rng, 3))
        lo = 10 ** rng.uniform(-2, 2)
        hi = min(lo * 10 ** rng.uniform(0.1, 3), 1e3)
        yield (specs, (lo, hi), rng.uniform(-3, 3), float(rng.choice([0.0, 0.5, 1.0])),
               rng.uniform(-3, 3))


def _solve_and_probe_grids(doc):
    """A config's specs, with the radii of its solve grid and of its probe grid."""
    cfg = load_config(doc)
    specs = (cfg.spec_A, cfg.spec_V, cfg.spec_K)
    for r_min, r_max, n in ((cfg.r_min, cfg.r_max, cfg.n_nodes),
                            (cfg.probe_r_min, cfg.probe_r_max, cfg.probe_n_nodes)):
        yield specs, build_grid(r_min, r_max, n, cfg.dims).nodes


def _benchmark_inputs():
    """perfbench/inputs.py, the benchmark's own workload inputs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("_perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _table_cases(which):
    if which == "examples":
        docs = [example_config(name) for name in ("ex1", "ex2_I", "ex2_II", "ex2_III")]
    elif which == "benchmark":
        inputs = _benchmark_inputs()
        docs = [inputs.unit_config(), inputs.ex1_rational()] \
            + [doc for _, doc, _ in inputs.FINE_MESH_CASES]
    else:
        return ((specs, _dense(interval)) for specs, interval, *_ in _random_tree_cases())
    return (case for doc in docs for case in _solve_and_probe_grids(doc))


@pytest.mark.parametrize("which", ["examples", "benchmark", "random_trees"])
def test_table_logs_equal_the_tree_arithmetic(which):
    # tables read the specs' pieces; each node's log keeps the bits of the
    # tree evaluation, breakpoints and min/max crossings included
    for specs, r in _table_cases(which):
        t = eval_potentials(*specs, r)
        for log, spec in zip((t.log_A, t.log_V, t.log_K), specs):
            assert log.tobytes() == reference_log(spec, r).tobytes()
