import math

import numpy as np
import pytest

from quasiradial.exponents import ProblemDims
from quasiradial.potentials import (
    Constant,
    ExpInv,
    Piecewise,
    Power,
    eval_potentials,
)
from quasiradial.probes import (
    ProbeCurve,
    TooFewSamples,
    decay_verdict,
    make_trial_family,
    probe_infinity,
    probe_origin,
)
from quasiradial.solver import build_grid

D24 = ProblemDims(N=4, p=2)


def unit_setup(n=800):
    grid = build_grid(1e-3, 1e3, n, D24)
    table = eval_potentials(Constant(1.0), Constant(1.0), Constant(1.0), grid.nodes)
    return grid, table


def example1_setup(n=2400):
    grid = build_grid(5e-5, 1e5, n, D24)
    table = eval_potentials(
        Power(1.0, -1.0),
        Piecewise(1.0, ExpInv(1.0), Power(1.0, -3.0)),
        Piecewise(1.0, ExpInv(1.0), Constant(1.0)),
        grid.nodes)
    return grid, table


class TestTrialFamily:
    def test_profiles_are_normalized(self):
        grid, table = unit_setup()
        fam = make_trial_family(grid, table, 3.0, "infinity")
        assert len(fam) > 0
        assert max(fam.norm_defects()) < 1e-8

    def test_artifact_profiles_are_filtered(self):
        # exponents well below the normalizability boundary nu = 2 are dropped;
        # the finite-domain filter is fuzzy within ~half a decade of it
        grid, table = unit_setup()
        fam = make_trial_family(grid, table, 3.0, "infinity")
        assert len(fam) > 0
        assert min(fam.nus) > 1.9
        assert 1.5 not in fam.nus

    def test_radial_function_export(self):
        grid, table = unit_setup(300)
        fam = make_trial_family(grid, table, 3.0, "infinity", n_exponents=4)
        for rf in fam.as_radial_functions():
            assert rf.values[-1] == 0.0
            assert np.all(rf.values >= 0.0)


class TestProbeMonotonicity:
    def test_origin_nondecreasing_in_radius(self):
        grid, table = unit_setup()
        fam = make_trial_family(grid, table, -1.0, "origin")
        curve = probe_origin(table, 3.0, [0.01, 0.05, 0.2, 1.0, 5.0], fam)
        vals = [v for _, v in curve.samples]
        assert all(b >= a * (1 - 1e-12) for a, b in zip(vals, vals[1:]))

    def test_infinity_nonincreasing_in_radius(self):
        grid, table = unit_setup()
        fam = make_trial_family(grid, table, 3.0, "infinity")
        curve = probe_infinity(table, 3.0, [1.0, 5.0, 20.0, 100.0], fam)
        vals = [v for _, v in curve.samples]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:]))

    def test_family_enlargement_never_decreases_values(self):
        grid, table = unit_setup()
        small = make_trial_family(grid, table, 3.0, "infinity", n_exponents=5)
        big = make_trial_family(grid, table, 3.0, "infinity", n_exponents=17)
        # the small sweep is a subset of the big one at matching endpoints
        R = [1.0, 10.0, 100.0]
        v_small = [v for _, v in probe_infinity(table, 3.0, R, small).samples]
        v_big = [v for _, v in probe_infinity(table, 3.0, R, big).samples]
        assert all(b >= s * (1 - 1e-12) for s, b in zip(v_small, v_big))


class TestSuppressedSource:
    def test_infinity_probe_vanishes_when_k_dies_far_out(self):
        grid = build_grid(1e-2, 1e3, 600, D24)
        table = eval_potentials(Constant(1.0), Constant(1.0),
                                Piecewise(1.0, Constant(1.0), Power(1.0, -200.0)),
                                grid.nodes)
        fam = make_trial_family(grid, table, 3.0, "infinity")
        curve = probe_infinity(table, 3.0, [2.0, 20.0, 200.0], fam)
        assert curve.samples[-1][1] < 1e-100 * max(curve.samples[0][1], 1e-300)

    def test_origin_probe_vanishes_when_k_dies_near_zero(self):
        grid = build_grid(1e-3, 1e2, 600, D24)
        table = eval_potentials(Constant(1.0), Constant(1.0),
                                Piecewise(1.0, Power(1.0, 200.0), Constant(1.0)),
                                grid.nodes)
        fam = make_trial_family(grid, table, -1.0, "origin")
        curve = probe_origin(table, 3.0, [0.005, 0.05, 0.5], fam)
        assert curve.samples[0][1] < 1e-100 * max(curve.samples[-1][1], 1e-300)


class TestExample1Probes:
    def test_admissible_far_exponent_decays(self):
        grid, table = example1_setup()
        fam = make_trial_family(grid, table, 0.5, "infinity")
        curve = probe_infinity(table, 9.0, [10.0, 100.0, 1000.0], fam)
        assert decay_verdict(curve) == "decays"
        vals = [v for _, v in curve.samples]
        assert vals[1] / vals[0] < 0.9 and vals[2] / vals[1] < 0.9

    def test_inadmissible_far_exponent_stalls(self):
        grid, table = example1_setup()
        fam = make_trial_family(grid, table, 0.5, "infinity")
        curve = probe_infinity(table, 7.0, [10.0, 100.0, 1000.0], fam)
        assert decay_verdict(curve) == "stalls"

    def test_admissible_origin_exponent_decays(self):
        grid, table = example1_setup()
        fam = make_trial_family(grid, table, -0.75, "origin")
        curve = probe_origin(table, 3.0, [0.1, 0.01, 0.001], fam)
        assert decay_verdict(curve) == "decays"
        logs = curve.log_values
        assert logs[0] < logs[1] < logs[2]


class TestDecayVerdict:
    def test_geometric_decays(self):
        curve = ProbeCurve(q=3.0, end="infinity",
                           samples=[(1.0, 1.0), (10.0, 0.5), (100.0, 0.25)],
                           log_values=[0.0, math.log(0.5), math.log(0.25)])
        assert decay_verdict(curve) == "decays"

    def test_constant_stalls(self):
        curve = ProbeCurve(q=3.0, end="infinity",
                           samples=[(1.0, 1.0), (10.0, 1.0), (100.0, 1.0)],
                           log_values=[0.0, 0.0, 0.0])
        assert decay_verdict(curve) == "stalls"

    def test_origin_orientation(self):
        # origin curves shrink toward small R; ordering is toward the limit
        curve = ProbeCurve(q=3.0, end="origin",
                           samples=[(0.001, 1e-6), (0.01, 1e-4), (0.1, 1e-2)],
                           log_values=[math.log(1e-6), math.log(1e-4), math.log(1e-2)])
        assert decay_verdict(curve) == "decays"

    def test_empty_probe_is_inconclusive(self):
        # an empty family gives -inf logs (samples 0.0): nothing decayed
        curve = ProbeCurve(q=3.0, end="infinity",
                           samples=[(1.0, 0.0), (10.0, 0.0), (100.0, 0.0)],
                           log_values=[-math.inf, -math.inf, -math.inf])
        assert decay_verdict(curve) == "inconclusive"

    def test_too_few_samples(self):
        curve = ProbeCurve(q=3.0, end="infinity", samples=[(1.0, 1.0), (10.0, 0.5)],
                           log_values=[0.0, math.log(0.5)])
        with pytest.raises(TooFewSamples):
            decay_verdict(curve)

    def test_threshold_configurable(self):
        curve = ProbeCurve(q=3.0, end="infinity",
                           samples=[(1.0, 1.0), (10.0, 0.8), (100.0, 0.64)],
                           log_values=[0.0, math.log(0.8), math.log(0.64)])
        assert decay_verdict(curve) == "decays"
        assert decay_verdict(curve, threshold=0.7) == "stalls"
