import math
import tracemalloc

import numpy as np
import pytest

from quasiradial import nonlinearity
from quasiradial.nonlinearity import (
    NonlinearitySpec,
    F_eval,
    _rational_primitive_scalar,
    f_eval,
    pure_power,
)


def minp(q1, q2, **kw):
    return NonlinearitySpec(kind="min_powers", q1=q1, q2=q2, **kw)


def rat(q1, q2, **kw):
    return NonlinearitySpec(kind="rational", q1=q1, q2=q2, **kw)


# References for the two hypotheses on f that every family meets by
# construction: superlinearity and double-power growth.

def theta(spec):
    """The family's superlinearity exponent: q1 for rational, else min(q1, q2)."""
    return spec.q1 if spec.kind == "rational" else min(spec.q1, spec.q2)


def check_ar(spec, samples) -> bool:
    """Superlinearity check: theta * F(t) <= f(t) * t on the given samples."""
    t = np.asarray(samples, dtype=float)
    return bool(np.all(theta(spec) * F_eval(spec, t) <= f_eval(spec, t) * t + 1e-12))


def check_growth(spec, samples) -> bool:
    """Double-power growth: 0 <= f(t) <= M * min(t^(q1-1), t^(q2-1)) on t >= 0."""
    t = np.asarray(samples, dtype=float)
    if np.any(t < 0):
        raise ValueError("growth check expects nonnegative samples")
    f = f_eval(spec, t)
    bound = spec.M * np.minimum(t ** (spec.q1 - 1), t ** (spec.q2 - 1))
    return bool(np.all(f >= -1e-12) and np.all(f <= bound + 1e-12))


class TestFEval:
    def test_unit_point(self):
        assert f_eval(minp(3, 5), 1.0) == 1.0

    def test_min_picks_smaller_power(self):
        assert f_eval(minp(3, 5), 2.0) == 4.0  # min(4, 32)

    def test_rational_at_one(self):
        assert f_eval(rat(3, 5), 1.0) == 0.5

    def test_zero(self):
        for spec in (minp(3, 5), rat(3, 5), pure_power(4)):
            assert f_eval(spec, 0.0) == 0.0

    def test_solver_mode_zero_extension(self):
        for spec in (minp(3, 5), rat(3, 5)):
            assert f_eval(spec, -2.0) == 0.0

    def test_continuity_at_splice(self):
        spec = minp(3, 5)
        eps = 1e-9
        left = f_eval(spec, 1.0 - eps)
        right = f_eval(spec, 1.0 + eps)
        assert abs(left - right) < 1e-7

    def test_scaling_constant(self):
        assert f_eval(minp(3, 5, M=2.5), 2.0) == 2.5 * 4.0

    def test_finite_wherever_the_value_is_a_float(self):
        # M f is taken through logs where the direct form overflows: rational
        # f = t^(q1-1) / (t^-d + 1) beyond t = 1, the powers' min for the other
        # families, and without a warning; f is 0 at t < 0
        cases = [
            (rat(3, 9), [1e40, 1e52, -1e100], lambda t: t ** 2 if t > 0 else 0.0),
            (rat(3, 5, M=1e-250), [1e170], lambda t: 1e-250 * t * t),
            (pure_power(3, M=1e-250), [1.6e167, -1.6e167],
             lambda t: 1e-250 * t * t if t > 0 else 0.0),
            (minp(3, 5, M=1e-250), [1e170, -1e100],
             lambda t: 1e-250 * t * t if t > 0 else 0.0),
        ]
        for spec, ts, ref in cases:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                vals = f_eval(spec, np.array(ts))
            assert np.all(np.isfinite(vals)), spec
            np.testing.assert_allclose(vals, [ref(t) for t in ts], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("M", [1.0, 1e-250])
    @pytest.mark.parametrize("make", [pure_power, lambda q, M: minp(q, q, M=M)],
                             ids=["pure_power", "min_powers"])
    def test_single_power_is_the_min_of_two_bit_for_bit(self, monkeypatch, make, M):
        # one power where q1 = q2, equal to the min of the two to the bit, the
        # log redo past overflow included (u^8 overflows beyond u = 1e38.5)
        t = np.concatenate([[0.0], np.logspace(-4, 40, 441)])
        q = 9.0
        with np.errstate(over="ignore", divide="ignore"):
            vals = np.minimum(t ** (q - 1), t ** (q - 1)) * M
            expected = np.where(np.isfinite(vals), vals,
                                np.exp(np.log(M) + (q - 1) * np.log(t)))

        def no_min(*args, **kwargs):
            raise AssertionError("a single power takes no min")

        monkeypatch.setattr(nonlinearity.np, "minimum", no_min)
        got = f_eval(make(q, M=M), t)
        assert not np.isfinite(vals).all()
        assert got.tobytes() == expected.tobytes()

    def test_finite_entries_are_the_direct_form(self):
        t = np.concatenate([-np.logspace(-3, 30, 50), [0.0], np.logspace(-3, 30, 50)])
        spec = rat(3, 9, M=2.5)
        direct = np.where(t < 0, 0.0, 2.5 * np.abs(t) ** 8 / (1.0 + np.abs(t) ** 6))
        np.testing.assert_array_equal(f_eval(spec, t), direct)

    def test_defaults(self):
        assert theta(minp(3, 5)) == 3
        assert theta(rat(3, 5)) == 3
        assert theta(pure_power(4)) == 4

    def test_json_roundtrip(self):
        obj = {"kind": "min_powers", "q1": 3, "q2": 9, "M": 1.5}
        assert NonlinearitySpec.from_json(obj) == minp(3, 9, M=1.5)
        # theta in a config is ignored: the family's default stands
        assert NonlinearitySpec.from_json({**obj, "theta": 2.0}) == minp(3, 9, M=1.5)


class TestPrimitive:
    def test_zero(self):
        for spec in (minp(3, 5), rat(3, 5)):
            assert F_eval(spec, 0.0) == 0.0

    def test_min_powers_at_one(self):
        # active power on (0,1) is the larger exponent
        assert F_eval(minp(3, 5), 1.0) == pytest.approx(0.2)

    def test_min_powers_matches_quadrature(self):
        spec = minp(3, 5)
        for t in (0.3, 1.0, 1.7, 4.0):
            grid = np.linspace(0, t, 40001)
            ref = np.trapezoid(f_eval(spec, grid), grid)
            assert F_eval(spec, t) == pytest.approx(ref, rel=1e-6)

    def test_equal_exponents_match_pure_power(self):
        a = minp(4, 4)
        b = pure_power(4)
        t = np.linspace(-3, 3, 101)
        np.testing.assert_array_equal(f_eval(a, t), f_eval(b, t))
        np.testing.assert_array_equal(F_eval(a, t), F_eval(b, t))

    def test_pure_power_closed_form(self):
        t = np.linspace(0, 2.5, 21)
        np.testing.assert_allclose(F_eval(pure_power(4), t), t ** 4 / 4, rtol=1e-12)

    def test_derivative_matches_f(self):
        h = 1e-6
        for spec in (minp(3, 5), rat(3, 5), pure_power(4)):
            for t in (0.4, 0.9, 1.3, 2.7, -1.4):
                fd = (F_eval(spec, t + h) - F_eval(spec, t - h)) / (2 * h)
                assert fd == pytest.approx(f_eval(spec, t), rel=1e-6, abs=1e-8)

    def test_positivity_witness(self):
        for spec in (minp(3, 5), rat(3, 5)):
            assert F_eval(spec, 1.0) > 0


class TestRationalAgainstQuadrature:
    """The closed form against the cached adaptive quadrature, node by node."""

    U = np.concatenate([[0.0], np.logspace(-4, 3, 200)])

    @staticmethod
    def quadrature(spec, u):
        return spec.M * np.array([_rational_primitive_scalar(float(spec.q1), float(spec.q2),
                                                             float(x)) for x in u])

    # x = u^(q2-q1) <= 2 takes the Pfaff series, x > 2 the series in 1/x,
    # whose terms 1/c_j, c_j = q1 - j (q2-q1), have a pole where a = q1/(q2-q1)
    # is an integer j: (3,6) and (3,4.5) have c_1 = 0 and c_2 = 0, and
    # (3,6.02), (3,4.01), (6,7.01) and the twelve q2 = 3 + 3/(m + e), with a
    # within 1e-9 to 0.06 of an integer, a small c_j: that term is taken in
    # its pole-free form.  No float u has x > 2 for (3,3.0001)
    @pytest.mark.parametrize("spec", [
        rat(3, 9), rat(3, 9.5), rat(3, 10), rat(3, 5), rat(2.5, 4), rat(3, 6),
        rat(3, 4.5), rat(3, 3.0001), rat(4, 4), rat(3, 9, M=2.5), rat(3, 3.7),
        rat(3, 4.01), rat(3, 6.02), rat(3, 3.05), rat(6, 7.01), rat(4, 4.3), rat(5, 6.1),
    ] + [rat(3, 3 + 3 / (m + e)) for m in (1, 2, 5) for e in (2e-9, 2e-8, 1e-7, 1e-6)],
        ids=lambda s: f"{s.q1}-{s.q2}-M{s.M}")
    def test_matches_quadrature(self, spec):
        np.testing.assert_allclose(F_eval(spec, self.U), self.quadrature(spec, self.U),
                                   rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("q2", [9.0, 9.5, 10.0, 5.0])
    def test_matches_hypergeometric_function(self, q2):
        # the closed form u^q1 (x 2F1(1, b; b+1; -x)) / q2, x = u^d, b = q2/d,
        # with scipy's hyp2f1, on the benchmark sweep's specs and (3, 5)
        from scipy.special import hyp2f1

        u = np.logspace(-4, 30, 400)
        d = q2 - 3.0
        x = u ** d
        ref = u ** 3.0 * (x * hyp2f1(1.0, q2 / d, q2 / d + 1.0, -x)) / q2
        np.testing.assert_allclose(F_eval(rat(3, q2), u), ref, rtol=1e-13, atol=0.0)

    def test_equal_exponents_closed_form(self):
        # f = t^(q-1) / 2, so F = t^q / (2q)
        np.testing.assert_allclose(F_eval(rat(4, 4), self.U), self.U ** 4 / 8, rtol=1e-15)

    def test_solver_mode_zeroes_negative_t(self):
        spec = rat(3, 9)
        t = np.linspace(-4.0, 4.0, 81)
        vals = F_eval(spec, t)
        assert np.all(vals[t < 0] == 0.0)
        np.testing.assert_array_equal(vals[t >= 0], F_eval(spec, t[t >= 0]))

    def test_scalar_input_returns_float(self):
        val = F_eval(rat(3, 9), 1.7)
        assert type(val) is float
        assert val == pytest.approx(self.quadrature(rat(3, 9), [1.7])[0], rel=1e-9)

    def test_shape_is_kept(self):
        spec = rat(3, 9)
        t = self.U[1:].reshape(20, 10)
        vals = F_eval(spec, t)
        assert vals.shape == (20, 10)
        np.testing.assert_array_equal(vals.ravel(), F_eval(spec, t.ravel()))

    def test_large_argument_is_finite(self):
        # u^q2 and u^(q2-q1) overflow at u = 1e4; F = u^3/3 + O(1)
        val = F_eval(rat(3, 100), np.array([1e4]))
        assert np.all(np.isfinite(val))
        assert val[0] == pytest.approx(1e12 / 3, rel=1e-9)

    def test_overflowing_power_below_largest_float(self):
        # u^q1 overflows here while F = u^q1 / q2 * (x 2F1) is about 1.7e308
        val = F_eval(rat(3, 3.0001), 1e103)
        assert math.isfinite(val)
        assert val == pytest.approx(1.6864018218222413e308, rel=1e-12)

    def test_small_factor_keeps_overflowing_primitive_finite(self):
        # F(u) = u^3/3 - u + arctan u overflows beyond u near 7e102, while
        # M F(u) with M = 1e-250 stays below 1e262 up to u = 1e170
        u = np.logspace(-2, 170, 300)
        vals = F_eval(rat(3, 5, M=1e-250), u)
        with np.errstate(over="ignore"):
            unscaled = F_eval(rat(3, 5), u)
        # below 1e307 the closed form u^3 (x 2F1) / 5 = F does not overflow,
        # so these entries are M times the unscaled ones, bit for bit
        direct = unscaled < 1e307
        assert 0 < np.sum(~direct) and np.sum(~np.isfinite(unscaled)) > 0
        np.testing.assert_array_equal(vals[direct], 1e-250 * unscaled[direct])
        assert np.all(np.isfinite(vals))
        # beyond, u^3/3 is F to far below rounding
        log_ref = math.log(1e-250) + 3.0 * np.log(u[~direct]) - math.log(3.0)
        np.testing.assert_allclose(np.log(vals[~direct]), log_ref, rtol=1e-14, atol=0.0)


def gathered_rational_primitive(q1, q2, u, M):
    """_rational_primitive as it was with one Horner pass over every entry:
    each entry's side column is gathered into an (8, blocks, entries) array."""
    d = q2 - q1
    if d == 0.0:
        return M * (u ** q1 / (2.0 * q1))
    coef, K, pole, c = nonlinearity._rational_series(q1, q2)
    coef = coef[..., 0].transpose(1, 2, 0)  # (step, block, series)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = u ** d
        tail = x > nonlinearity._X_SPLIT
        z = np.where(tail, 1.0 / x, 1.0 / (1.0 + 1.0 / x))
        r = coef[..., tail.astype(np.intp)]
        for zk in (z, z ** nonlinearity._BLOCK):
            r, rows = r[0].copy(), r[1:]
            for row in rows:
                r *= zk
                r += row
        L = np.log(u) - math.log(nonlinearity._X_SPLIT) / d
        g = np.expm1(c * L) / c if c else L
        r += np.where(tail, np.exp(-q1 * L) * (K + pole * g), 0.0)
        vals = u ** q1 * r
        bad = ~np.isfinite(vals)
        vals = M * vals
        if np.any(bad):
            vals = np.where(bad, np.exp(np.log(M) + q1 * np.log(u) + np.log(r)), vals)
    return vals


class TestRationalHornerPass:
    """The per-side Horner pass against the gathered one it replaced."""

    # the benchmark sweep's specs, (3, 5), (3, 6.02), (2.5, 4) and the twelve
    # near-integer specs of TestRationalAgainstQuadrature
    @pytest.mark.parametrize("q1, q2", [
        (3.0, 9.0), (3.0, 9.5), (3.0, 10.0), (3.0, 5.0), (3.0, 6.02), (2.5, 4.0),
    ] + [(3.0, 3 + 3 / (m + e)) for m in (1, 2, 5) for e in (2e-9, 2e-8, 1e-7, 1e-6)])
    def test_equals_the_gathered_pass_bit_for_bit(self, q1, q2):
        u = np.concatenate([[0.0], np.logspace(-4, 40, 1500)])
        for M in (1.0, 2.5, 1e-250):
            got = nonlinearity._rational_primitive(q1, q2, u, M)
            assert got.tobytes() == gathered_rational_primitive(q1, q2, u, M).tobytes()
        block = u[:1500].reshape(30, 50)
        got = nonlinearity._rational_primitive(q1, q2, block, 1.0)
        assert got.shape == block.shape
        assert got.tobytes() == gathered_rational_primitive(q1, q2, block, 1.0).tobytes()

    def test_builds_no_coefficient_array_per_entry(self):
        # the gathered pass held 8 x 11 coefficients per entry for (3, 9):
        # 0.70 MB at 800 entries; the per-side pass holds one accumulator
        u = np.logspace(-4, 4, 800)
        nonlinearity._rational_primitive(3.0, 9.0, u, 1.0)  # fills the series cache
        tracemalloc.start()
        try:
            nonlinearity._rational_primitive(3.0, 9.0, u, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25e6


class TestSuperlinearity:
    def test_min_powers_true(self):
        t = np.logspace(-3, 2, 500)
        assert check_ar(minp(3, 5), t)

    def test_rational_true(self):
        t = np.logspace(-3, 2, 500)
        assert check_ar(rat(3, 5), t)

    def test_pure_power_equality(self):
        spec = pure_power(4)
        t = np.logspace(-2, 2, 200)
        lhs = theta(spec) * F_eval(spec, t)
        rhs = f_eval(spec, t) * t
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


class TestGrowth:
    def test_min_powers_equality(self):
        t = np.logspace(-3, 3, 500)
        assert check_growth(minp(3, 5), t)

    def test_rational_below_min(self):
        t = np.logspace(-4, 4, 10_000)
        assert check_growth(rat(3, 5), t)

    def test_single_power_violates_double_bound(self):
        # f = t^(q1-1) alone exceeds M*min(...) for large t when q2 < q1
        q1, q2, M = 5.0, 3.0, 1.0
        t = np.logspace(0.5, 2, 50)
        f = t ** (q1 - 1)
        bound = M * np.minimum(t ** (q1 - 1), t ** (q2 - 1))
        assert np.any(f > bound + 1e-12)


class TestValidation:
    @pytest.mark.parametrize("kw", [
        {"q1": math.nan}, {"q2": math.inf}, {"M": -1.0}, {"M": math.nan}, {"M": math.inf},
    ], ids=["nan_q1", "inf_q2", "negative_M", "nan_M", "inf_M"])
    def test_rejects_non_finite_exponent_or_bad_factor(self, kw):
        with pytest.raises(ValueError):
            NonlinearitySpec(**{"kind": "rational", "q1": 3.0, "q2": 9.0, **kw})

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            NonlinearitySpec(kind="cubic", q1=3, q2=3)

    def test_rejects_low_exponents(self):
        with pytest.raises(ValueError):
            minp(1.0, 3)

    def test_rational_requires_order(self):
        with pytest.raises(ValueError):
            rat(5, 3)
