import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from quasiradial.cli import example_config, load_config, probe_report
from quasiradial.exponents import ProblemDims, pointwise_decay_exponent
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
    _log_norm_p,
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
        assert np.max(np.abs(_log_norm_p(fam.log_profiles, grid, table))) < 1e-8

    def test_artifact_profiles_are_filtered(self):
        # exponents well below the normalizability boundary nu = 2 are dropped;
        # the finite-domain filter is fuzzy within ~half a decade of it
        grid, table = unit_setup()
        fam = make_trial_family(grid, table, 3.0, "infinity")
        assert len(fam) > 0
        assert min(fam.nus) > 1.9
        assert 1.5 not in fam.nus


    def test_zero_center_sweeps_a_symmetric_band(self):
        # [0.5, 1.5] * nu_center would collapse to a point at nu_center = 0
        grid, table = unit_setup()
        fam = make_trial_family(grid, table, 0.0, "origin")
        assert len(fam) == 16 * 12
        assert sorted(set(fam.nus)) == np.linspace(-0.5, 0.5, 16).tolist()


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
        assert decay_verdict(curve, 0.9) == "decays"
        vals = [v for _, v in curve.samples]
        assert vals[1] / vals[0] < 0.9 and vals[2] / vals[1] < 0.9

    def test_inadmissible_far_exponent_stalls(self):
        grid, table = example1_setup()
        fam = make_trial_family(grid, table, 0.5, "infinity")
        curve = probe_infinity(table, 7.0, [10.0, 100.0, 1000.0], fam)
        assert decay_verdict(curve, 0.9) == "stalls"

    def test_admissible_origin_exponent_decays(self):
        grid, table = example1_setup()
        fam = make_trial_family(grid, table, -0.75, "origin")
        curve = probe_origin(table, 3.0, [0.1, 0.01, 0.001], fam)
        assert decay_verdict(curve, 0.9) == "decays"
        logs = curve.log_values
        assert logs[0] < logs[1] < logs[2]


class TestDecayVerdict:
    def test_geometric_decays(self):
        curve = ProbeCurve(end="infinity",
                           samples=[(1.0, 1.0), (10.0, 0.5), (100.0, 0.25)],
                           log_values=[0.0, math.log(0.5), math.log(0.25)])
        assert decay_verdict(curve, 0.9) == "decays"

    def test_constant_stalls(self):
        curve = ProbeCurve(end="infinity",
                           samples=[(1.0, 1.0), (10.0, 1.0), (100.0, 1.0)],
                           log_values=[0.0, 0.0, 0.0])
        assert decay_verdict(curve, 0.9) == "stalls"

    def test_origin_orientation(self):
        # origin curves shrink toward small R; ordering is toward the limit
        curve = ProbeCurve(end="origin",
                           samples=[(0.001, 1e-6), (0.01, 1e-4), (0.1, 1e-2)],
                           log_values=[math.log(1e-6), math.log(1e-4), math.log(1e-2)])
        assert decay_verdict(curve, 0.9) == "decays"

    def test_empty_probe_is_inconclusive(self):
        # an empty family gives -inf logs (samples 0.0): nothing decayed
        curve = ProbeCurve(end="infinity",
                           samples=[(1.0, 0.0), (10.0, 0.0), (100.0, 0.0)],
                           log_values=[-math.inf, -math.inf, -math.inf])
        assert decay_verdict(curve, 0.9) == "inconclusive"

    def test_repeated_radius_is_skipped(self):
        # a zero-decade step carries no rate
        curve = ProbeCurve(end="infinity",
                           samples=[(1.0, 1.0), (1.0, 1.0), (10.0, 0.5), (100.0, 0.25)],
                           log_values=[0.0, 0.0, math.log(0.5), math.log(0.25)])
        assert decay_verdict(curve, 0.9) == "decays"

    def test_samples_below_the_floor(self):
        # two -inf samples in a row have already decayed; a finite value
        # after a -inf one has grown back
        decayed = ProbeCurve(end="infinity",
                             samples=[(1.0, 1.0), (10.0, 0.0), (100.0, 0.0)],
                             log_values=[0.0, -math.inf, -math.inf])
        assert decay_verdict(decayed, 0.9) == "decays"
        regrown = ProbeCurve(end="infinity",
                             samples=[(1.0, 0.0), (10.0, 0.5), (100.0, 0.25)],
                             log_values=[-math.inf, math.log(0.5), math.log(0.25)])
        assert decay_verdict(regrown, 0.9) == "stalls"

    def test_too_few_samples(self):
        curve = ProbeCurve(end="infinity", samples=[(1.0, 1.0), (10.0, 0.5)],
                           log_values=[0.0, math.log(0.5)])
        with pytest.raises(TooFewSamples):
            decay_verdict(curve, 0.9)

    def test_threshold_configurable(self):
        curve = ProbeCurve(end="infinity",
                           samples=[(1.0, 1.0), (10.0, 0.8), (100.0, 0.64)],
                           log_values=[0.0, math.log(0.8), math.log(0.64)])
        assert decay_verdict(curve, 0.9) == "decays"
        assert decay_verdict(curve, threshold=0.7) == "stalls"


class TestProbeMemory:
    # a dense origin family alone would take 3.5 MB (192 rows x 2400 nodes)
    @pytest.mark.parametrize("name", ["ex1", "ex2_I", "ex2_II", "ex2_III"])
    def test_probe_report_traced_peak(self, name):
        cfg = load_config(example_config(name))
        probe_report(cfg)  # first call: one-time allocations are not the probes'
        tracemalloc.start()
        try:
            probe_report(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20


# ---------------------------------------------------------------------------
# Reference: the per-profile loop the array implementation replaced.  Each
# profile is built on its own, its norm and edge fraction are assembled on
# their own, and each probe value is one scalar logsumexp per profile.
# ---------------------------------------------------------------------------

def _ref_log_abs_diff(la, lb):
    hi = np.maximum(la, lb)
    lo = np.minimum(la, lb)
    with np.errstate(invalid="ignore", divide="ignore"):
        gap = np.where(hi == lo, -np.inf, np.log1p(-np.exp(np.minimum(lo - hi, -1e-300))))
        out = hi + gap
    return np.where(np.isneginf(hi), -np.inf, out)


def _ref_raw_log_profile(grid, nu, cut_lo, cut_hi):
    log_r = np.log(grid.nodes)
    shape = np.minimum(0.0, -nu * log_r)
    chi = np.clip((log_r - math.log(cut_lo)) / math.log(2.0), 0.0, 1.0)
    half_decade = 0.5 * math.log(10.0)
    chi = np.minimum(chi, np.clip((math.log(cut_hi) - log_r) / half_decade, 0.0, 1.0))
    with np.errstate(divide="ignore"):
        log_chi = np.log(chi)
    vals = shape + log_chi
    vals[-1] = -np.inf
    return vals


def _ref_terms(log_u, grid, table):
    p = grid.dims.p
    log_du = _ref_log_abs_diff(log_u[1:], log_u[:-1]) - np.log(grid.dr)
    log_a_cell = 0.5 * (table.log_A[:-1] + table.log_A[1:])
    grad_terms = log_a_cell + p * log_du + np.log(grid.cell_measure)
    with np.errstate(divide="ignore"):
        log_w = np.log(grid.quad_weights)
    return grad_terms, log_w + table.log_V + p * log_u


def _ref_log_norm_p(log_u, grid, table):
    return float(logsumexp(np.concatenate(_ref_terms(log_u, grid, table))))


def _ref_edge_fraction(log_u, grid, table, end):
    r = grid.nodes
    node_mask = r <= r[0] * math.sqrt(10.0) if end == "origin" else r >= r[-1] / 10.0
    cell_mask = node_mask[:-1] | node_mask[1:]
    grad_terms, mass_terms = _ref_terms(log_u, grid, table)
    total = logsumexp(np.concatenate([grad_terms, mass_terms]))
    pieces = np.concatenate([grad_terms[cell_mask], mass_terms[node_mask]])
    if not len(pieces) or total == -np.inf:
        return 0.0
    return float(np.exp(logsumexp(pieces) - total))


def _ref_family(grid, table, nu_center, end, n_exponents=16, n_cuts=12):
    if abs(nu_center) > 1e-9:
        nus = np.linspace(0.5 * nu_center, 1.5 * nu_center, n_exponents)
    else:
        nus = np.linspace(-0.5, 0.5, n_exponents)
    r_min, r_max = grid.nodes[0], grid.nodes[-1]
    if end == "origin":
        cuts = np.logspace(math.log10(5.0 * r_min), math.log10(min(0.3, r_max / 10)),
                           n_cuts)
        combos = [(nu, cut, min(5.0, r_max / 4.0)) for nu in nus for cut in cuts]
    else:
        combos = [(nu, min(0.3, r_max / 100.0), r_max) for nu in nus]
    profiles, kept_nus, kept_cuts = [], [], []
    for nu, cut_lo, cut_hi in combos:
        raw = _ref_raw_log_profile(grid, nu, cut_lo, cut_hi)
        log_np = _ref_log_norm_p(raw, grid, table)
        if not math.isfinite(log_np):
            continue
        normalized = raw - log_np / grid.dims.p
        if _ref_edge_fraction(normalized, grid, table, end) > 0.25:
            continue
        profiles.append(normalized)
        kept_nus.append(float(nu))
        kept_cuts.append(float(cut_lo))
    return profiles, kept_nus, kept_cuts


def _ref_probe_logs(table, q, R_list, grid, profiles, end):
    with np.errstate(divide="ignore"):
        base = np.log(grid.quad_weights) + table.log_K
    logs = []
    for R in sorted(R_list):
        mask = grid.nodes <= R if end == "origin" else grid.nodes >= R
        best = -math.inf
        for lp in profiles:
            terms = base[mask] + q * lp[mask]
            if len(terms):
                best = max(best, float(logsumexp(terms)))
        logs.append(best)
    return logs


class TestProbesAgainstPerProfileLoop:
    """The factored family and its probes reproduce the per-profile loop
    exactly, on the probe grid and exponents that `probe_report` uses."""

    @pytest.mark.parametrize("name, end, kept", [
        ("ex1", "origin", 192),     # all 16 x 12 candidates kept
        ("ex1", "infinity", 9),     # the edge filter drops 7 of 16
        ("ex2_I", "origin", 192),
        ("ex2_I", "infinity", 0),   # the edge filter drops all 16
        ("ex2_II", "origin", 192),
        ("ex2_II", "infinity", 0),
        ("ex2_III", "origin", 192),
        ("ex2_III", "infinity", 0),
    ])
    def test_identical_family_and_probe(self, name, end, kept):
        cfg = load_config(example_config(name))
        grid = build_grid(cfg.probe_r_min, cfg.probe_r_max, cfg.probe_n_nodes, cfg.dims)
        self._compare(cfg, grid, end, kept, 16, 12)

    def test_identical_small_family(self):
        # the family of perfbench's norm check: 4 exponents x 3 cuts, 600 nodes
        cfg = load_config(example_config("ex1"))
        grid = build_grid(5e-5, 1e5, 600, cfg.dims)
        self._compare(cfg, grid, "origin", 12, 4, 3)

    @staticmethod
    def _compare(cfg, grid, end, kept, n_exponents, n_cuts):
        table = eval_potentials(cfg.spec_A, cfg.spec_V, cfg.spec_K, grid.nodes)
        asym = cfg.asym_origin if end == "origin" else cfg.asym_infinity
        nu = float(pointwise_decay_exponent(asym.a, asym.gamma, cfg.dims))
        fam = make_trial_family(grid, table, nu, end, n_exponents=n_exponents, n_cuts=n_cuts)
        ref_profiles, ref_nus, ref_cuts = _ref_family(grid, table, nu, end,
                                                      n_exponents, n_cuts)

        assert len(fam) == len(ref_profiles) == kept
        assert fam.log_profiles.shape == (kept, grid.n)
        assert np.array_equal(fam.log_profiles,
                              np.reshape(ref_profiles, (kept, grid.n)))
        assert fam.nus == ref_nus
        assert fam.cuts == ref_cuts

        q1, q2 = cfg.q_sorted
        if end == "origin":
            curve = probe_origin(table, q1, cfg.R_origin, fam)
            ref = _ref_probe_logs(table, q1, cfg.R_origin, grid, ref_profiles, end)
        else:
            curve = probe_infinity(table, q2, cfg.R_infinity, fam)
            ref = _ref_probe_logs(table, q2, cfg.R_infinity, grid, ref_profiles, end)
        assert curve.log_values == ref
