import math
from fractions import Fraction

import numpy as np
import pytest

from quasiradial.exponents import (
    BoundaryCase,
    EndpointAsymptotics,
    GammaSingular,
    InvalidAsymptotics,
    NotAdmissible,
    ProblemDims,
    alpha_triplet,
    critical_exponents,
    gamma_upper_threshold,
    normalization_reduce,
    q1_admissible_set,
    q1_region_membership,
    q2_lower_bound,
    q_double_star,
    q_star,
    sobolev_exponent,
    tail_decay_exponent,
    xi_witness_infinity,
    xi_witness_origin,
)

D24 = ProblemDims(N=4, p=2)


def origin(a, alpha, beta, gamma, R=1.0):
    return EndpointAsymptotics("origin", a=a, alpha=alpha, beta=beta, gamma=gamma, R=R)


def infinity(a, alpha, beta, gamma, R=1.0):
    return EndpointAsymptotics("infinity", a=a, alpha=alpha, beta=beta, gamma=gamma, R=R)


class TestDims:
    def test_valid(self):
        ProblemDims(N=3, p=1.5)
        ProblemDims(N=6, p=5.9)

    @pytest.mark.parametrize("N,p", [(2, 1.5), (4, 1.0), (4, 4.0), (4, 0.5)])
    def test_invalid(self, N, p):
        with pytest.raises(ValueError):
            ProblemDims(N=N, p=p)


class TestQStar:
    def test_zero_rates_give_p(self):
        assert q_star(0, 0, 0, D24) == 2.0

    def test_example1_infinity_value(self):
        assert q_star(0, 0, 3, D24) == 8.0

    def test_example2_infinity_value(self):
        val = q_star(10, 0, Fraction(-1, 2), D24)
        assert val == Fraction(56, 9)

    def test_pole(self):
        with pytest.raises(GammaSingular):
            q_star(0.0, 0.0, 4.0, D24)

    def test_rational_mode_exact(self):
        val = q_star(Fraction(1, 3), Fraction(1, 7), Fraction(5, 2), D24)
        assert isinstance(val, Fraction)
        assert val == Fraction(2, 1) * (Fraction(1, 3) - Fraction(5, 2) * Fraction(1, 7) + 4) / Fraction(3, 2)

    def test_slope_in_alpha(self):
        # strictly increasing in alpha with slope p/(N-gamma) for gamma < N
        gamma = Fraction(3, 2)
        slope = (q_star(Fraction(1), 0, gamma, D24)
                 - q_star(Fraction(0), 0, gamma, D24))
        assert slope == Fraction(2) / (4 - gamma)


class TestQDoubleStar:
    def test_zero_rates_give_p(self):
        for a in (-1.5, 0.0, 1.0, 2.0):
            assert q_double_star(a, 0, 0, 0, D24) == pytest.approx(2.0, abs=0)

    def test_example1_infinity_value(self):
        assert q_double_star(-1, 0, 0, 3, D24) == 8.0

    def test_example2_infinity_value(self):
        val = q_double_star(-2, 10, 0, Fraction(-1, 2), D24)
        assert val == Fraction(94, 9)

    def test_pole(self):
        thr = gamma_upper_threshold(-1, D24)  # (2*3 - 1)/1 = 5
        assert thr == 5
        with pytest.raises(GammaSingular):
            q_double_star(-1, 0.0, 0.0, 5.0, D24)

    def test_denominator_sign_property(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            N = int(rng.integers(3, 7))
            p = float(rng.uniform(1.05, N - 0.05))
            a = float(rng.uniform(p - N + 0.01, p))
            gamma = float(rng.uniform(-5, 15))
            dims = ProblemDims(N=N, p=p)
            denom = p * (N - 1) - gamma * (p - 1) + a
            assert (denom > 0) == (gamma < gamma_upper_threshold(a, dims))


class TestAlphaTriplet:
    def test_beta_one_kills_first_two(self):
        a1, a2, a3 = alpha_triplet(1, 7, D24)
        assert (a1, a2, a3) == (0, 0, 1.5)

    def test_gamma_at_dimension_collapses(self):
        assert alpha_triplet(0, 4, D24) == (-4, -4, -4)

    def test_rational_rederivation(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            beta = Fraction(int(rng.integers(0, 11)), 10)
            gamma = Fraction(int(rng.integers(-40, 41)), 8)
            a1, a2, a3 = alpha_triplet(beta, gamma, D24)
            p, N = Fraction(2), Fraction(4)
            assert a1 == -(1 - beta) * gamma
            assert a2 == -(1 - beta) * N
            assert a3 == -((p - 1) * N + (1 - p * beta) * gamma) / p


class TestSobolevExponent:
    def test_at_least_p(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            N = int(rng.integers(3, 8))
            p = float(rng.uniform(1.05, N - 0.05))
            a = float(rng.uniform(p - N + 0.01, p))
            assert sobolev_exponent(a, ProblemDims(N=N, p=p)) >= p - 1e-12

    def test_example1(self):
        assert sobolev_exponent(-1, ProblemDims(N=4, p=2)) == 8.0


class TestQ2LowerBound:
    def test_example1(self):
        assert q2_lower_bound(infinity(-1, 0, 0, 3), D24) == 8.0

    def test_example2_d10_formula_layer(self):
        # a = p - N exactly at N=4, so the validated op applies only for N >= 5;
        # the published N=4 threshold comes from the raw formulas
        p, beta = Fraction(2), Fraction(0)
        qs = q_star(10, beta, Fraction(-1, 2), D24)
        qss = q_double_star(-2, 10, beta, Fraction(-1, 2), D24)
        assert max(1, p * beta, qs, qss) == Fraction(94, 9)

    def test_example2_d10_pipeline_dims(self):
        dims = ProblemDims(N=5, p=2)
        bound = q2_lower_bound(infinity(-2, 10, 0, Fraction(-1, 2)), dims)
        assert bound == Fraction(102, 13)

    def test_trivial_all_zero(self):
        assert q2_lower_bound(infinity(0, 0, 0, 0), D24) == 2.0

    def test_rejects_bad_gamma(self):
        with pytest.raises(InvalidAsymptotics):
            q2_lower_bound(infinity(-1, 0, 0, 3.5), D24)  # gamma > p - a

    def test_rejects_bad_beta(self):
        with pytest.raises(InvalidAsymptotics):
            q2_lower_bound(infinity(-1, 0, 1.2, 3), D24)

    @pytest.mark.parametrize("end, beta, R, detail", [
        ("middle", 0.0, 1.0, "unknown endpoint 'middle'"),
        ("origin", -0.1, 1.0, "beta must lie in [0, 1], got -0.1"),
        ("infinity", float("nan"), 1.0, "beta must lie in [0, 1], got nan"),
        ("origin", 1.0, 0.0, "R must be positive, got 0.0"),
        ("infinity", 0.0, float("nan"), "R must be positive, got nan"),
    ])
    def test_endpoint_data_is_checked_when_built(self, end, beta, R, detail):
        # the checks that need no dimensions run once, when the data is built
        with pytest.raises(InvalidAsymptotics) as exc:
            EndpointAsymptotics(end, a=-1, alpha=0, beta=beta, gamma=3, R=R)
        assert str(exc.value) == detail


class TestRegionMembership:
    def test_example1_origin(self):
        asym = origin(-1, 0, 1, 8)
        assert gamma_upper_threshold(-1, D24) == 5 and 8 > 5
        assert q1_region_membership(asym, 3, D24) is True
        assert q1_region_membership(asym, 2, D24) is False  # bound itself excluded

    def test_q_at_pbeta_false_in_every_branch(self):
        cases = [
            origin(0, 0.5, 0.75, 2.5),   # p - a < gamma < N
            origin(0, 0.5, 0.75, 4.0),   # gamma = N
            origin(0, 0.5, 0.75, 5.0),   # N < gamma < threshold
            origin(0, 0.5, 0.75, 6.0),   # gamma = threshold
            origin(0, 0.5, 0.75, 9.0),   # gamma > threshold
        ]
        for asym in cases:
            assert q1_region_membership(asym, 2 * 0.75, D24) is False

    def test_boundary_gamma_uses_common_value(self):
        # gamma = p - a: both critical exponents coincide
        asym = origin(-1, 1, 0.5, 3)
        common = 2 * (1 - 0.5 * 3 + 4) / (4 - 2 - 1)
        assert common == 7.0
        assert q1_region_membership(asym, 6.9, D24) is True
        assert q1_region_membership(asym, 7.0, D24) is False


class TestAdmissibleSet:
    def test_example1_interval(self):
        s = q1_admissible_set(origin(-1, 0, 1, 8), D24)
        assert s.lower == 2.0 and s.upper == math.inf
        assert s.alpha_constraint is None
        assert s.nonempty

    def test_example2_subcase_ii(self):
        # gamma at the space dimension; interval capped by the second exponent
        s = q1_admissible_set(origin(-1, 0.5, 0, 4), D24)
        assert s.lower == 2.0
        assert s.upper == pytest.approx(2 * (1 + 3 * 3) / (4 - 2 - 1))  # 20
        assert s.alpha_constraint is not None
        assert s.alpha_constraint.kind == "alpha_gt_alpha2"
        assert s.alpha_constraint.satisfied  # 0.5 > -4

    def test_alpha_constraint_failure_empties_set(self):
        s = q1_admissible_set(origin(-1, -6.0, 0, 4), D24)  # alpha <= -(1-beta)N
        assert s.alpha_constraint is not None and not s.alpha_constraint.satisfied
        assert not s.nonempty
        assert not s.contains(3.0)

    def test_set_predicate_consistency(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            N = int(rng.integers(3, 7))
            p = float(rng.uniform(1.1, min(N - 0.1, 4.0)))
            dims = ProblemDims(N=N, p=p)
            a = float(rng.uniform(p - N + 0.05, p - 0.01))
            beta = float(rng.uniform(0, 1))
            gamma = float(rng.uniform(p - a, p - a + 12))
            alpha = float(rng.uniform(-2 * N, 2 * N))
            s = q1_admissible_set(origin(a, alpha, beta, gamma), dims)
            if not s.nonempty:
                continue
            hi = min(s.upper, s.lower + 10)
            for t in (0.25, 0.5, 0.75):
                q = s.lower + t * (hi - s.lower)
                assert q1_region_membership(origin(a, alpha, beta, gamma), q, dims)

    def test_lower_bound_floor(self):
        # every returned interval starts at max{1, p*beta} or above
        rng = np.random.default_rng(29)
        for _ in range(500):
            N = int(rng.integers(3, 7))
            p = float(rng.uniform(1.1, min(N - 0.1, 4.0)))
            dims = ProblemDims(N=N, p=p)
            a = float(rng.uniform(p - N + 0.05, p - 0.01))
            beta = float(rng.uniform(0, 1))
            gamma = float(rng.uniform(p - a, p - a + 12))
            alpha = float(rng.uniform(-2 * N, 2 * N))
            s = q1_admissible_set(origin(a, alpha, beta, gamma), dims)
            assert s.lower >= max(1.0, p * beta) - 1e-12


# ---------------------------------------------------------------------------
# Shift-witness machinery.  The oracle below evaluates, on a dense xi grid,
# the raw feasibility system that the closed forms are derived from:
#   xi >= 0,  1/p <= beta + xi <= 1,  q > p*(beta + xi),
#   D*q < p^2*(alpha + xi*gamma + N) - p*(beta + xi)*((p-1)*gamma + p - a).
# ---------------------------------------------------------------------------

def xi_grid_feasible(asym, q1, dims, step=1e-4):
    p, N = dims.p, dims.N
    a, alpha, beta, gamma = asym.a, asym.alpha, asym.beta, asym.gamma
    hi = 1.0 - beta
    npts = max(int(math.ceil(hi / step)), 1) + 1
    xi = np.linspace(0.0, hi, npts)
    beta_eff = beta + xi
    ok = (beta_eff >= 1.0 / p) & (beta_eff <= 1.0)
    ok &= q1 > p * beta_eff
    D = p * (N - 1) - (p - 1) * gamma + a
    rhs = p ** 2 * (alpha + xi * gamma + N) - p * beta_eff * ((p - 1) * gamma + p - a)
    ok &= D * q1 < rhs
    return bool(np.any(ok))


class TestWitnessOrigin:
    def test_worked_interval(self):
        asym = origin(0, 0, 0.5, 4)
        w = xi_witness_origin(asym, 3, D24)
        assert not w.empty
        assert w.lo == 0.0 and w.closed_lo
        assert w.hi == 0.5 and w.closed_hi

    def test_q_at_pbeta_empty(self):
        for gamma in (3.0, 4.0, 5.5, 6.0, 8.0):
            asym = origin(0, 0.3, 0.5, gamma)
            w = xi_witness_origin(asym, 2 * 0.5, D24)
            assert w.empty

    def test_boundary_case_raises(self):
        with pytest.raises(BoundaryCase):
            xi_witness_origin(origin(-1, 0, 0.5, 3), 4, D24)

    def test_interval_points_satisfy_raw_system(self):
        rng = np.random.default_rng(41)
        dims = D24
        for _ in range(200):
            a = float(rng.uniform(-1.5, 1.5))
            beta = float(rng.uniform(0, 0.9))
            gamma = float(rng.uniform(2 - a + 0.05, 2 - a + 9))
            alpha = float(rng.uniform(-8, 8))
            q1 = float(rng.uniform(0.5, 12))
            asym = origin(a, alpha, beta, gamma)
            w = xi_witness_origin(asym, q1, dims)
            if w.empty or w.hi - w.lo < 1e-6:
                continue
            p, N = dims.p, dims.N
            D = p * (N - 1) - (p - 1) * gamma + a
            for t in (0.25, 0.5, 0.75):
                xi = w.lo + t * (w.hi - w.lo)
                beta_eff = beta + xi
                assert 1.0 / p - 1e-12 <= beta_eff <= 1.0 + 1e-12
                assert q1 > p * beta_eff
                rhs = p ** 2 * (alpha + xi * gamma + N) \
                    - p * beta_eff * ((p - 1) * gamma + p - a)
                assert D * q1 < rhs

    def test_nonempty_iff_membership_smoke(self):
        rng = np.random.default_rng(43)
        for _ in range(400):
            N = int(rng.integers(3, 6))
            p = float(rng.uniform(1.2, min(N - 0.2, 3.2)))
            dims = ProblemDims(N=N, p=p)
            a = float(rng.uniform(p - N + 0.1, p - 0.05))
            beta = float(rng.uniform(0, 1))
            gamma = float(rng.uniform(p - a + 0.05, p - a + 10))
            alpha = float(rng.uniform(-10, 10))
            q1 = float(rng.uniform(0.3, 14))
            asym = origin(a, alpha, beta, gamma)
            member = q1_region_membership(asym, q1, dims)
            w = xi_witness_origin(asym, q1, dims)
            # near-threshold samples can disagree only within float slack;
            # require robust agreement away from degenerate widths
            width = w.hi - w.lo
            if abs(width) < 1e-9:
                continue
            assert member == (not w.empty)


class TestWitnessInfinity:
    def test_case_alpha_ge_alpha1(self):
        asym = infinity(-1, 0, 0, 3)
        w = xi_witness_infinity(asym, 9, D24)
        assert w.case_id == "alpha_ge_alpha1"
        assert w.xi == 1.0 and w.beta_eff == 1.0

    def test_case_ids_are_documented(self):
        from quasiradial.exponents import INFINITY_CASES
        rng = np.random.default_rng(13)
        for _ in range(200):
            beta = float(rng.uniform(0, 1))
            gamma = float(rng.uniform(-6, 3))
            alpha = float(rng.uniform(-12, 12))
            asym = infinity(-1, alpha, beta, gamma)
            q2 = float(q2_lower_bound(asym, D24)) + 1.0
            assert xi_witness_infinity(asym, q2, D24).case_id in INFINITY_CASES

    def test_case_beta_one(self):
        asym = infinity(0, -1.0, 1, 1.5)
        w = xi_witness_infinity(asym, 5, D24)
        assert w.case_id == "beta_one"
        assert w.xi == 0.0 and w.beta_eff == 1.0

    def test_middle_case_beta_eff(self):
        # perturb the first reference setup so alpha falls strictly between
        # max(alpha2, alpha3) and alpha1
        asym = infinity(-1, -3.2, 0, 3)
        bound = q2_lower_bound(asym, D24)
        w = xi_witness_infinity(asym, float(bound) + 1.0, D24)
        assert w.case_id == "alpha_middle"
        expected = q_star(-3.2, 0, 3, D24) / 2
        assert w.beta_eff == pytest.approx(expected, rel=1e-12)
        assert 0.5 < w.beta_eff < 1.0

    def test_below_threshold_rejected(self):
        asym = infinity(-1, 0, 0, 3)
        with pytest.raises(NotAdmissible):
            xi_witness_infinity(asym, 8.0, D24)

    def test_guarantees(self):
        rng = np.random.default_rng(53)
        for _ in range(2000):
            N = int(rng.integers(3, 7))
            p = float(rng.uniform(1.1, min(N - 0.1, 4.0)))
            dims = ProblemDims(N=N, p=p)
            a = float(rng.uniform(p - N + 0.05, p - 0.01))
            beta = float(rng.uniform(0, 1))
            if rng.random() < 0.15:
                beta = 1.0
            gamma = float(rng.uniform(p - a - 10, p - a))
            alpha = float(rng.uniform(-3 * N, 3 * N))
            asym = infinity(a, alpha, beta, gamma)
            bound = q2_lower_bound(asym, dims)
            q2 = float(bound) + float(rng.uniform(0.05, 5))
            w = xi_witness_infinity(asym, q2, dims)
            assert w.xi >= 0
            assert 1 / p - 1e-12 <= w.beta_eff <= 1 + 1e-12
            assert w.alpha_eff == pytest.approx(alpha + w.xi * gamma, rel=1e-12, abs=1e-12)


class TestTailDecayExponent:
    def test_example1_value(self):
        asym = infinity(-1, 0, 0, 3)
        assert tail_decay_exponent(asym, 9, D24) == pytest.approx(-0.5, abs=1e-14)

    def test_root_at_threshold_case1(self):
        asym = infinity(-1, 0, 0, 3)
        for eps in (1e-3, 1e-6, 1e-9):
            delta = tail_decay_exponent(asym, 8.0 + eps, D24)
            assert -eps < delta < 0

    def test_always_negative(self):
        rng = np.random.default_rng(59)
        count = 0
        while count < 2000:
            N = int(rng.integers(3, 7))
            p = float(rng.uniform(1.1, min(N - 0.1, 4.0)))
            dims = ProblemDims(N=N, p=p)
            a = float(rng.uniform(p - N + 0.05, p - 0.01))
            beta = float(rng.uniform(0, 1))
            gamma = float(rng.uniform(p - a - 10, p - a))
            alpha = float(rng.uniform(-3 * N, 3 * N))
            asym = infinity(a, alpha, beta, gamma)
            q2 = float(q2_lower_bound(asym, dims)) + float(rng.uniform(0.01, 6))
            assert tail_decay_exponent(asym, q2, dims) < 0
            count += 1


class TestTailDecayUnifiedForm:
    def test_case_formulas_match_effective_weight_exponent(self):
        # every per-case value must equal the generic bound exponent
        #   alpha_eff - nu*(q2 - p*beta_eff) + N*(1 - beta_eff)
        # evaluated at the chosen shift (the three weight regimes coincide at
        # their boundaries, so one formula covers all cases)
        rng = np.random.default_rng(101)
        checked = 0
        cases_seen = set()
        while checked < 10_000:
            N = int(rng.integers(3, 7))
            p = float(rng.uniform(1.1, min(N - 0.1, 4.0)))
            dims = ProblemDims(N=N, p=p)
            a = float(rng.uniform(p - N + 0.05, p - 0.01))
            beta = 1.0 if rng.random() < 0.1 else float(rng.uniform(0, 1))
            gamma = float(rng.uniform(p - a - 10.0, p - a))
            alpha = float(rng.uniform(-3 * N, 3 * N))
            asym = infinity(a, alpha, beta, gamma)
            q2 = float(q2_lower_bound(asym, dims)) + float(rng.uniform(0.01, 6.0))
            w = xi_witness_infinity(asym, q2, dims)
            cases_seen.add(w.case_id)
            nu = (p * (N - 1) - (p - 1) * gamma + a) / p ** 2
            generic = w.alpha_eff - nu * (q2 - p * w.beta_eff) + N * (1 - w.beta_eff)
            delta = tail_decay_exponent(asym, q2, dims)
            assert delta == pytest.approx(generic, rel=1e-9, abs=1e-9)
            checked += 1
        assert len(cases_seen) == 5  # every dispatch branch exercised


class TestWitnessIntervalContains:
    def test_openness_flags_respected(self):
        from quasiradial.exponents import WitnessInterval
        closed = WitnessInterval(0.0, 0.5, True, True, False)
        assert closed.contains(0.0) and closed.contains(0.5)
        half_open = WitnessInterval(0.0, 0.5, False, True, False)
        assert not half_open.contains(0.0) and half_open.contains(0.5)
        empty = WitnessInterval(0.3, 0.2, False, False, True)
        assert not empty.contains(0.25)


class TestNormalizationReduce:
    def test_direct(self):
        assert normalization_reduce(0, 1, 3) == (-3, 0)

    def test_q_star_invariance_example(self):
        assert q_star(-3, 0, 3, D24) == q_star(0, 1, 3, D24) == 2.0

    def test_exact_invariance_random(self):
        rng = np.random.default_rng(61)
        dims = ProblemDims(N=5, p=Fraction(5, 2))
        checked = 0
        while checked < 2000:
            alpha = Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 12)))
            beta = Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 12)))
            gamma = Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 12)))
            a = Fraction(int(rng.integers(-20, 21)), 10)
            alpha_r, beta_r = normalization_reduce(alpha, beta, gamma)
            assert beta_r == 0
            try:
                assert q_star(alpha_r, beta_r, gamma, dims) == q_star(alpha, beta, gamma, dims)
                assert q_double_star(a, alpha_r, beta_r, gamma, dims) \
                    == q_double_star(a, alpha, beta, gamma, dims)
            except GammaSingular:
                continue
            checked += 1


class TestBoundaryContinuity:
    def test_common_value_limit(self):
        # a is kept away from p - N so the limit value and its slope stay O(1)
        rng = np.random.default_rng(67)
        for _ in range(200):
            N = int(rng.integers(3, 7))
            p = float(rng.uniform(1.1, min(N - 0.1, 4.0)))
            dims = ProblemDims(N=N, p=p)
            a = float(rng.uniform(p - N + 0.5, p - 0.01))
            beta = float(rng.uniform(0, 1))
            alpha = float(rng.uniform(-5, 5))
            gamma = p - a + 1e-6
            qs = q_star(alpha, beta, gamma, dims)
            qss = q_double_star(a, alpha, beta, gamma, dims)
            common = p * (alpha - beta * (p - a) + N) / (N - p + a)
            assert min(qs, qss) == pytest.approx(common, abs=1e-4)


class TestCriticalExponents:
    def test_undefined_flags(self):
        ce = critical_exponents(-1, 0.0, 0.0, 4.0, D24)
        assert ce.q_star is None and ce.q_double_star is not None
        ce = critical_exponents(-1, 0.0, 0.0, 5.0, D24)
        assert ce.q_star is not None and ce.q_double_star is None

    def test_threshold_above_dimension(self):
        rng = np.random.default_rng(71)
        for _ in range(2000):
            N = int(rng.integers(3, 7))
            p = float(rng.uniform(1.1, min(N - 0.1, 4.0)))
            a = float(rng.uniform(p - N + 0.01, p))
            assert gamma_upper_threshold(a, ProblemDims(N=N, p=p)) > N
