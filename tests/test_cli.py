import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from quasiradial import cli, solver
from quasiradial.cli import (
    EXIT_COLLAPSED,
    EXIT_CONFIG,
    EXIT_HYPOTHESIS,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    _parse_sweep,
    check_report,
    example_config,
    load_config,
    main,
)
from quasiradial.exponents import (
    EndpointAsymptotics,
    InvalidAsymptotics,
    ProblemDims,
    q1_region_membership,
    q_double_star,
    q_star,
    tail_decay_exponent,
)
from quasiradial._jsonio import canonical_json
from quasiradial.solver import build_grid


def unit_benchmark_config():
    """Constant-potential benchmark; origin hypotheses genuinely fail for it."""
    return {
        "schema_version": 1,
        "dims": {"N": 3, "p": 2.0},
        "potentials": {
            "A": {"kind": "constant", "c": 1.0},
            "V": {"kind": "constant", "c": 1.0},
            "K": {"kind": "constant", "c": 1.0},
        },
        "asymptotics": {
            "origin": {"a": 0.0, "alpha": 0.0, "beta": 0.0, "gamma": 2.0, "R": 1.0},
            "infinity": {"a": 0.0, "alpha": 0.0, "beta": 0.0, "gamma": 2.0, "R": 1.0},
        },
        "nonlinearity": {"kind": "pure_power", "q1": 4.0, "q2": 4.0},
        "grid": {"r_min": 1e-2, "r_max": 20.0, "n_nodes": 400},
        "tolerances": {"solve_tol": 1e-5, "max_iter": 4000},
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestRegion:
    def test_example1_values(self, tmp_path, capsys):
        path = write_config(tmp_path, example_config("ex1"))
        code, doc = run_cli(capsys, ["region", "--config", path])
        assert code == EXIT_OK
        assert doc["q1_interval"] == {"lower": 2, "upper": "inf"}
        assert doc["q2_lower_bound"] == 8
        assert doc["admissible"] is True
        assert doc["q_order_swapped"] is False

    def test_beta_above_one_is_config_error(self, tmp_path, capsys):
        cfg = example_config("ex1")
        cfg["asymptotics"]["origin"]["beta"] = 1.2
        path = write_config(tmp_path, cfg)
        code, doc = run_cli(capsys, ["region", "--config", path])
        assert code == EXIT_CONFIG
        assert doc["error"] == "invalid_config"

    def test_invalid_gamma_exits_two(self, tmp_path, capsys):
        cfg = example_config("ex1")
        cfg["asymptotics"]["infinity"]["gamma"] = 3.5  # above p - a
        path = write_config(tmp_path, cfg)
        code, doc = run_cli(capsys, ["region", "--config", path])
        assert code == EXIT_CONFIG

    def test_q_order_normalized(self, tmp_path, capsys):
        cfg = example_config("ex1")
        cfg["nonlinearity"] = {"kind": "min_powers", "q1": 11.0, "q2": 9.0}
        path = write_config(tmp_path, cfg)
        code, doc = run_cli(capsys, ["region", "--config", path])
        assert code == EXIT_OK
        assert doc["q_order_swapped"] is True
        assert (doc["q1"], doc["q2"]) == (9.0, 11.0)

    def test_gamma_on_the_second_pole(self, tmp_path, capsys):
        # gamma = 10 is q_double_star's pole (1.9*5 - 0.5)/0.9, which rounds
        # to 10.000000000000002: only the alpha condition is left, and fails
        cfg = unit_benchmark_config()
        cfg["dims"] = {"N": 6, "p": 1.9}
        cfg["asymptotics"]["origin"] = {"a": -0.5, "alpha": 0.0, "beta": 1.0, "gamma": 10.0}
        cfg["asymptotics"]["infinity"]["gamma"] = 0.0
        path = write_config(tmp_path, cfg)
        code, doc = run_cli(capsys, ["region", "--config", path])
        assert code == EXIT_OK
        assert doc["q1_alpha_constraints"] == [{"kind": "alpha_gt_alpha1", "satisfied": False}]
        assert doc["thresholds"]["origin"]["q_double_star"] is None
        for argv in (["region-plot"], ["solve", "--force"]):
            code, _ = run_cli(capsys, [*argv, "--config", path, "--out", str(tmp_path)])
            assert code == EXIT_OK

    def test_a_within_rounding_of_p_minus_n(self, tmp_path, capsys):
        # a > p - N in floats, but N + a - p, the Sobolev exponent's
        # divisor, rounds to 0: refused as the hypotheses are, not a crash
        cfg = unit_benchmark_config()
        cfg["dims"] = {"N": 3, "p": 2.54}
        cfg["asymptotics"]["origin"]["gamma"] = 2.54
        cfg["asymptotics"]["infinity"] = {
            "a": -0.4599999999999999, "alpha": 0.0, "beta": 0.0, "gamma": 0.0}
        path = write_config(tmp_path, cfg)
        detail = "a = -0.4599999999999999 lies within rounding of p - N: N + a - p = 0.0"
        code, doc = run_cli(capsys, ["region", "--config", path])
        assert (code, doc) == (EXIT_CONFIG, {"error": "invalid_asymptotics", "detail": detail})
        code, doc = run_cli(capsys, ["check", "--config", path])
        assert code == EXIT_HYPOTHESIS
        consistent = {c["name"]: c["passed"] for c in doc["checks"]
                      if c["name"].startswith("asymptotics_")}
        assert consistent == {"asymptotics_origin_consistent": True,
                              "asymptotics_infinity_consistent": False}
        code, doc = run_cli(capsys, ["solve", "--force", "--config", path,
                                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert doc["admissible"] is None and doc["admissibility_warning"] == detail
        report = json.loads((tmp_path / "solution_report.json").read_text())
        assert report["admissibility_warning"] == detail

    def test_gamma_rounding_onto_n_at_infinity(self, tmp_path, capsys):
        # gamma <= p - a, which rounds to N = 5: gamma = N would be q_star's pole
        cfg = unit_benchmark_config()
        cfg["dims"] = {"N": 5, "p": 3.9}
        cfg["asymptotics"]["origin"]["gamma"] = 3.9
        cfg["asymptotics"]["infinity"] = {
            "a": -1.0999999999999999, "alpha": 0.0, "beta": 0.0, "gamma": 5.0}
        path = write_config(tmp_path, cfg)
        code, doc = run_cli(capsys, ["region", "--config", path])
        assert code == EXIT_CONFIG
        assert doc["error"] == "invalid_asymptotics"
        assert doc["detail"].startswith("infinity data needs gamma < N = 5 and nu > 0, "
                                        "got gamma = 5.0, nu = ")

    def test_deterministic_bytes(self, tmp_path, capsys):
        path = write_config(tmp_path, example_config("ex1"))
        main(["region", "--config", path])
        first = capsys.readouterr().out
        main(["region", "--config", path])
        second = capsys.readouterr().out
        assert first == second


def _near(x, ulps):
    """x moved by `ulps` floats up (ulps > 0) or down."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def _float_draw(rng):
    """Float endpoint data with a and gamma often within 3 ulps of p - N, of
    p - a, of N and of q_double_star's pole: where rounding decides."""
    N = int(rng.integers(3, 9))
    p = round(float(rng.uniform(1.1, N - 0.1)), int(rng.choice([1, 2, 17])))
    ends = {}
    for end, side in (("origin", 1.0), ("infinity", -1.0)):
        if rng.random() < 0.35:
            a = _near(p - N, int(rng.integers(-3, 4)))
        else:
            a = float(rng.uniform(p - N, p))
        beta = float(rng.choice([0.0, 0.5, 1.0, 1.0 / p, rng.uniform()]))
        gamma = float(rng.choice([p - a, float(N), (p * (N - 1) + a) / (p - 1),
                                  p - a + side * rng.uniform(0.0, 12.0)]))
        gamma = _near(gamma, int(rng.integers(-3, 4)))
        alpha = float(rng.choice([0.0, rng.uniform(-15.0, 15.0), -(1 - beta) * gamma,
                                  -(1 - beta) * N]))
        ends[end] = {"a": a, "alpha": alpha, "beta": beta, "gamma": gamma}
    q1, q2 = (float(rng.uniform(1.1, 20.0)) for _ in range(2))
    return {**unit_benchmark_config(), "dims": {"N": N, "p": p}, "asymptotics": ends,
            "nonlinearity": {"kind": "min_powers", "q1": q1, "q2": q2}}


class TestWitnesses:
    ORIGIN_KEYS = {"q", "xi_lo", "xi_hi", "closed_lo", "closed_hi", "empty"}
    INFINITY_KEYS = {"q", "case", "xi", "alpha_eff", "beta_eff", "delta"}

    @pytest.mark.parametrize("name, delta", [
        ("ex1", -0.5), ("ex2_I", -1.0625), ("ex2_II", -1.0625), ("ex2_III", -1.0625)])
    def test_bundled_examples(self, tmp_path, capsys, name, delta):
        cfg = load_config(example_config(name))
        q1, q2 = cfg.q_sorted
        code, doc = run_cli(capsys, ["region", "--config",
                                     write_config(tmp_path, example_config(name))])
        assert code == EXIT_OK
        w = doc["witnesses"]
        assert set(w["origin"]) == self.ORIGIN_KEYS and w["origin"]["q"] == q1
        assert w["origin"]["empty"] == (not q1_region_membership(cfg.asym_origin, q1, cfg.dims))
        assert set(w["infinity"]) == self.INFINITY_KEYS and w["infinity"]["q"] == q2
        assert w["infinity"]["delta"] == tail_decay_exponent(cfg.asym_infinity, q2, cfg.dims)
        assert w["infinity"]["delta"] == delta

    def test_gamma_p_minus_a_at_the_origin_has_no_shift_system(self, tmp_path, capsys):
        # the unit benchmark's rates: constant potentials, gamma = p at the origin
        cfg = unit_benchmark_config()
        cfg["asymptotics"]["infinity"]["gamma"] = 0.0
        code, doc = run_cli(capsys, ["region", "--config", write_config(tmp_path, cfg)])
        assert code == EXIT_OK
        w = doc["witnesses"]
        assert w["origin"] == {"q": 4.0, "none": "gamma = p - a admits no shift system"}
        assert set(w["infinity"]) == self.INFINITY_KEYS and w["infinity"]["delta"] == -2.0

    def test_divisor_rounding_to_zero_has_no_shift_system(self, tmp_path, capsys):
        # gamma != p - a in floats, but gamma - p + a rounds to 0
        cfg = unit_benchmark_config()
        cfg["dims"] = {"N": 3, "p": 2.05}
        cfg["asymptotics"]["origin"] = {"a": 1.9, "alpha": 0.0, "beta": 0.0,
                                        "gamma": 0.14999999999999997}
        code, doc = run_cli(capsys, ["region", "--config", write_config(tmp_path, cfg)])
        assert code == EXIT_OK
        assert doc["witnesses"]["origin"]["none"] == "gamma = p - a admits no shift system"

    def test_q2_not_above_the_threshold(self, tmp_path, capsys):
        cfg = example_config("ex2_I")
        cfg["potentials"]["K"]["args"][0]["e"] = cfg["asymptotics"]["infinity"]["alpha"] = 12.0
        code, doc = run_cli(capsys, ["region", "--config", write_config(tmp_path, cfg)])
        assert code == EXIT_OK and doc["admissible"] is False
        assert doc["witnesses"]["infinity"] == {
            "q": 8.5, "none": "q2 = 8.5 is not above the threshold 9.076923076923077"}
        assert set(doc["witnesses"]["origin"]) == self.ORIGIN_KEYS

    def test_float_draws_near_the_poles(self):
        # a region report is refused as invalid or carries both witnesses
        rng = np.random.default_rng(27)
        reported = 0
        for _ in range(3000):
            try:
                cfg = load_config(_float_draw(rng))
                doc = cli.region_report(cfg)
            except (cli.ConfigError, InvalidAsymptotics):
                continue
            reported += 1
            for end, keys in (("origin", self.ORIGIN_KEYS), ("infinity", self.INFINITY_KEYS)):
                assert set(doc["witnesses"][end]) in (keys, {"q", "none"})
        assert reported > 500


class TestRegionPlot:
    def _branch1_config(self):
        cfg = example_config("ex1")
        # origin data in the bounded-interval branch: p - a <= gamma < N
        cfg["asymptotics"]["origin"] = {
            "a": 0.0, "alpha": 1.0, "beta": 0.5, "gamma": 2.5, "R": 1.0}
        return cfg

    def test_boundary_matches_closed_forms(self, tmp_path, capsys):
        cfg = self._branch1_config()
        path = write_config(tmp_path, cfg)
        code, doc = run_cli(capsys, [
            "region-plot", "--config", path, "--out", str(tmp_path),
            "--alpha-range=-2:4", "--q-range", "1:9",
            "--resolution", "120"])
        assert code == EXIT_OK
        rows = list(csv.reader((tmp_path / "region_plot.csv").open()))
        assert rows[0] == ["alpha", "q", "member"]
        dims = ProblemDims(N=4, p=2)
        data = {}
        for alpha, q, member in rows[1:]:
            data.setdefault(float(alpha), []).append((float(q), int(member)))
        q_step = 8.0 / 119
        for alpha, pts in data.items():
            inside = [q for q, m in pts if m]
            upper = min(q_star(alpha, 0.5, 2.5, dims),
                        q_double_star(0.0, alpha, 0.5, 2.5, dims))
            if not inside:
                assert upper <= max(1.0, 1.0) + q_step
                continue
            assert abs(max(inside) - min(upper, 9.0)) <= q_step + 1e-9
            assert abs(min(inside) - 1.0) <= q_step + 1e-9  # lower = max(1, p*beta)

    def test_example1_slice_reproduces_interval(self, tmp_path, capsys):
        path = write_config(tmp_path, example_config("ex1"))
        code, _ = run_cli(capsys, [
            "region-plot", "--config", path, "--out", str(tmp_path),
            "--alpha-range", "0:0", "--q-range", "1:15", "--resolution", "141"])
        assert code == EXIT_OK
        rows = list(csv.reader((tmp_path / "region_plot.csv").open()))[1:]
        inside = [float(q) for _, q, m in rows if m == "1"]
        q_step = 14.0 / 140
        assert abs(min(inside) - 2.0) <= q_step + 1e-9  # lower endpoint 2
        assert max(inside) == 15.0                      # unbounded above

    @pytest.mark.parametrize("origin, alpha_range, q_range, resolution", [
        (None, (-10.0, 5.0), (1.0, 15.0), 64),
        # at alpha = 0, q*, q** and p beta all equal q = 2
        (None, (-2.0, 2.0), (1.0, 5.0), 9),
        # gamma = N needs alpha > -(1 - beta) N = -4
        ({"a": 0.0, "alpha": 0.0, "beta": 0.0, "gamma": 4.0}, (-6.0, -2.0), (1.0, 9.0), 9),
        # gamma = (p (N - 1) + a) / (p - 1) = 6 needs alpha > -(1 - beta) gamma = -6
        ({"a": 0.0, "alpha": 0.0, "beta": 0.0, "gamma": 6.0}, (-8.0, -4.0), (1.0, 9.0), 9),
    ], ids=["ex1", "ex1_lower_bounds_meet", "gamma_N", "gamma_pole"])
    def test_rows_equal_per_cell_membership(self, origin, alpha_range, q_range, resolution):
        # the raster forms the region's bounds once per alpha; every cell is
        # the one q1_region_membership gives, branch boundaries included
        doc = example_config("ex1")
        if origin is not None:
            doc["asymptotics"]["origin"] = dict(origin, R=1.0)
        cfg = load_config(doc)
        expected = []
        for alpha in np.linspace(*alpha_range, resolution):
            asym = EndpointAsymptotics("origin", cfg.asym_origin.a, float(alpha),
                                       cfg.asym_origin.beta, cfg.asym_origin.gamma)
            for q in np.linspace(*q_range, resolution):
                member = q1_region_membership(asym, float(q), cfg.dims)
                expected.append((float(alpha), float(q), int(member)))
        rows = cli.region_plot_rows(cfg, alpha_range, q_range, resolution)
        assert rows == expected
        assert {m for _, _, m in rows} == {0, 1}

    def test_failed_alpha_constraint_empty_plot(self, tmp_path, capsys):
        cfg = example_config("ex1")
        cfg["asymptotics"]["origin"] = {
            "a": 0.0, "alpha": -6.0, "beta": 0.0, "gamma": 4.0, "R": 1.0}
        path = write_config(tmp_path, cfg)
        code, _ = run_cli(capsys, [
            "region-plot", "--config", path, "--out", str(tmp_path),
            "--alpha-range=-8:-5", "--q-range", "1:9", "--resolution", "24"])
        assert code == EXIT_OK
        rows = list(csv.reader((tmp_path / "region_plot.csv").open()))[1:]
        assert all(r[2] == "0" for r in rows)


class TestBadGrid:
    """A grid or probe range that build_grid refuses is an invalid config (exit 2)."""

    @pytest.mark.parametrize("command", [["solve", "--force"], ["probe"]])
    @pytest.mark.parametrize("section, field, value", [
        ("grid", "n_nodes", 8), ("grid", "r_min", 0.0), ("grid", "r_max", 1e-3),
        ("probe", "n_nodes", 15), ("probe", "r_min", -1.0),
        ("probe", "R_origin", [0.1]), ("probe", "R_infinity", [-1.0, 10.0, 100.0]),
    ])
    def test_bad_range_exits_two(self, tmp_path, capsys, command, section, field, value):
        cfg = unit_benchmark_config()
        cfg.setdefault(section, {})[field] = value
        path = write_config(tmp_path, cfg)
        code, doc = run_cli(capsys, command + ["--config", path, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert doc["error"] == "invalid_config"
        assert doc["detail"].startswith(f"{section}: need ")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("resolution", ["-2", "0"])
    def test_bad_resolution_exits_two(self, tmp_path, resolution):
        path = write_config(tmp_path, example_config("ex1"))
        with pytest.raises(SystemExit) as exc:
            main(["region-plot", "--config", path, "--out", str(tmp_path),
                  "--resolution", resolution])
        assert exc.value.code == EXIT_CONFIG
        assert not (tmp_path / "region_plot.csv").exists()

    @pytest.mark.parametrize("option, text", [("--q-range", "1:inf"), ("--alpha-range", "nan:0")])
    def test_non_finite_range_exits_two(self, tmp_path, option, text):
        path = write_config(tmp_path, example_config("ex1"))
        with pytest.raises(SystemExit) as exc:
            main(["region-plot", "--config", path, "--out", str(tmp_path),
                  option, text, "--resolution", "3"])
        assert exc.value.code == EXIT_CONFIG
        assert not (tmp_path / "region_plot.csv").exists()


class TestCheck:
    def test_example1_passes(self, tmp_path, capsys):
        path = write_config(tmp_path, example_config("ex1"))
        code, doc = run_cli(capsys, ["check", "--config", path])
        assert code == EXIT_OK
        assert doc["passed"] is True

    def test_a_out_of_range_exits_three_with_report(self, tmp_path, capsys):
        cfg = example_config("ex1")
        cfg["asymptotics"]["origin"]["a"] = 2.1  # p + 0.1
        path = write_config(tmp_path, cfg)
        code, doc = run_cli(capsys, ["check", "--config", path])
        assert code == EXIT_HYPOTHESIS
        names = {c["name"]: c["passed"] for c in doc["checks"]}
        assert names["a_origin_in_range"] is False

    def test_bounded_v_whose_sup_overflows_passes(self, tmp_path, capsys):
        # V = e^(8/r) below r = 1: the sup e^800 on [1e-2, 1e2] is reported as inf
        cfg = example_config("ex1")
        cfg["potentials"]["V"]["inner"]["scale"] = 8.0
        code, doc = run_cli(capsys, ["check", "--config", write_config(tmp_path, cfg)])
        assert code == EXIT_OK
        entry = {c["name"]: c for c in doc["checks"]}["V_locally_integrable"]
        assert entry["passed"] is True and entry["value"] == "inf"

    def test_solve_refuses_a_v_that_overflows_on_the_grid(self, tmp_path, capsys):
        # the same V passes check, but e^800 cannot be tabulated for the solver
        cfg = example_config("ex1")
        cfg["potentials"]["V"]["inner"]["scale"] = 8.0
        path = write_config(tmp_path, cfg)
        code, doc = run_cli(capsys, ["solve", "--config", path,
                                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert doc["error"] == "invalid_config"
        assert doc["detail"].startswith("potentials overflow the float range")

    def test_vanishing_v_tail_fails(self, tmp_path, capsys):
        cfg = example_config("ex1")
        cfg["potentials"]["V"] = {
            "kind": "piecewise", "breakpoint": 1.0,
            "inner": {"kind": "exp_inv", "scale": 1.0},
            "outer": {"kind": "constant", "c": 0.0}}
        path = write_config(tmp_path, cfg)
        code, doc = run_cli(capsys, ["check", "--config", path])
        assert code == EXIT_HYPOTHESIS
        names = {c["name"]: c["passed"] for c in doc["checks"]}
        assert names["essinf_infinity_positive"] is False


class TestNonPositivePotentials:
    """A or K that is not positive, or a negative coefficient, is an invalid
    config (exit 2) on every command that tabulates the potentials."""

    COMMANDS = pytest.mark.parametrize("command", [["check"], ["probe"], ["solve", "--force"]],
                                       ids=["check", "probe", "solve"])

    def _run(self, tmp_path, capsys, command, key, spec):
        cfg = example_config("ex1")
        cfg["potentials"][key] = spec
        path = write_config(tmp_path, cfg)
        code, doc = run_cli(capsys, command + ["--config", path, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert doc["error"] == "invalid_config"
        assert not list(tmp_path.glob("*.csv"))

    @COMMANDS
    @pytest.mark.parametrize("key, spec", [
        ("K", {"kind": "constant", "c": 0}),
        ("A", {"kind": "power", "c": -1, "e": -1}),
    ], ids=["zero_K", "negative_A"])
    def test_non_positive_a_or_k_exits_two(self, tmp_path, capsys, command, key, spec):
        self._run(tmp_path, capsys, command, key, spec)

    @COMMANDS
    def test_negative_v_exits_two(self, tmp_path, capsys, command):
        self._run(tmp_path, capsys, command, "V", {"kind": "constant", "c": -1})

    @COMMANDS
    def test_empty_min_exits_two(self, tmp_path, capsys, command):
        self._run(tmp_path, capsys, command, "V", {"kind": "min", "args": []})

    # the specs refuse these when the config is loaded, so also the commands
    # that never tabulate the potentials exit 2
    @pytest.mark.parametrize("command", [["check"], ["region"], ["region-plot"]],
                             ids=["check", "region", "region_plot"])
    @pytest.mark.parametrize("key, spec", [
        ("A", {"kind": "power", "c": -1, "e": -1}),
        ("V", {"kind": "piecewise", "breakpoint": 1.0,
               "inner": {"kind": "exp_inv", "scale": math.nan},
               "outer": {"kind": "power", "c": 1.0, "e": -3.0}}),
    ], ids=["negative_A", "nan_V_scale"])
    def test_refused_on_loading(self, tmp_path, capsys, command, key, spec):
        self._run(tmp_path, capsys, command, key, spec)


class TestBadVerdictSettings:
    """A non-finite s_loc or R, or a probe threshold outside (0, 1], would turn
    a check or probe verdict into noise or a crash; each is an invalid
    config (exit 2)."""

    @pytest.mark.parametrize("s_loc", [math.nan, math.inf, 1.0])
    def test_bad_s_loc_exits_two(self, tmp_path, capsys, s_loc):
        cfg = example_config("ex1")
        cfg["potentials"]["s_loc"] = s_loc
        path = write_config(tmp_path, cfg)
        code, doc = run_cli(capsys, ["check", "--config", path])
        assert code == EXIT_CONFIG
        assert doc["error"] == "invalid_config"
        assert "s_loc" in doc["detail"]

    @pytest.mark.parametrize("threshold", [math.nan, -1.0, 0.0, 1.5, 5.0, math.inf])
    def test_bad_probe_threshold_exits_two(self, tmp_path, capsys, threshold):
        cfg = example_config("ex1")
        cfg["tolerances"]["probe_threshold"] = threshold
        path = write_config(tmp_path, cfg)
        code, doc = run_cli(capsys, ["probe", "--config", path, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert doc["error"] == "invalid_config"
        assert "probe_threshold" in doc["detail"]
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("end", ["origin", "infinity"])
    def test_infinite_r_exits_two(self, tmp_path, capsys, end):
        # [R, inf) would be empty at infinity
        cfg = example_config("ex1")
        cfg["asymptotics"][end]["R"] = math.inf
        code, doc = run_cli(capsys, ["check", "--config", write_config(tmp_path, cfg)])
        assert code == EXIT_CONFIG
        assert "R must be finite" in doc["detail"]

    @pytest.mark.parametrize("end, rate, value", [
        ("infinity", "alpha", math.nan), ("infinity", "alpha", -math.inf),
        ("origin", "alpha", math.nan), ("origin", "a", math.inf),
        ("infinity", "gamma", math.nan)])
    def test_non_finite_rate_exits_two(self, tmp_path, capsys, end, rate, value):
        # a NaN rate drops out of max(1, p*beta, q*, q**) and reads as admissible
        cfg = example_config("ex1")
        cfg["asymptotics"][end][rate] = value
        path = write_config(tmp_path, cfg)
        for command in ("region", "check"):
            code, doc = run_cli(capsys, [command, "--config", path])
            assert code == EXIT_CONFIG
            assert doc["error"] == "invalid_config"
            assert doc["detail"] == f"{rate} must be finite, got {value}"

    def test_threshold_one_is_allowed(self):
        cfg = example_config("ex1")
        cfg["tolerances"]["probe_threshold"] = 1.0
        assert load_config(cfg).probe_threshold == 1.0


class TestBadNonlinearity:
    """A non-finite exponent, or an M that is negative or not finite, is an
    invalid config (exit 2) on loading; M = 0 stays allowed."""

    @pytest.mark.parametrize("command", [["region"], ["solve", "--force"]],
                             ids=["region", "solve"])
    @pytest.mark.parametrize("key, value", [
        ("M", -1.0), ("M", math.nan), ("M", math.inf), ("q1", math.nan), ("q2", math.inf),
    ], ids=["negative_M", "nan_M", "inf_M", "nan_q1", "inf_q2"])
    def test_refused_on_loading(self, tmp_path, capsys, command, key, value):
        cfg = example_config("ex1")
        cfg["nonlinearity"] = {"kind": "rational", "q1": 3.0, "q2": 9.0, key: value}
        cfg["grid"]["n_nodes"] = 200
        path = write_config(tmp_path, cfg)
        code, doc = run_cli(capsys, command + ["--config", path, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert doc["error"] == "invalid_config"
        assert not list(tmp_path.glob("*.csv"))


def _edited(name, edit):
    cfg = example_config(name)
    edit(cfg)
    return cfg


# sha256 of canonical_json(check_report(cfg)) for each config, and whether it passes;
# recorded before the hypothesis layer returned its document directly
CHECK_DOCUMENT_PINS = [
    ("ex1", example_config("ex1"), True,
     "aff6f5c52504857b45777b442e1862df6aa7ed03a0a49b14c6801843d275909e"),
    ("ex2_I", example_config("ex2_I"), True,
     "beb9efff084c021998be8b978fa7c53e3ef3ff65a2da2f952a34fca2743890e2"),
    ("ex2_II", example_config("ex2_II"), True,
     "d28f57973b2e73c2b31619e773ede2a670ed409ebc25f25bf32149002c2810ef"),
    ("ex2_III", example_config("ex2_III"), True,
     "8cd0c36a03bdc8237865e586ac3459dc8bea96cd73643b807c964d5b8c4e3bfd"),
    ("ex1_zero_v", _edited("ex1", lambda cfg: cfg["potentials"].update(
        V={"kind": "constant", "c": 0.0})), False,
     "9920913e5c549dcca0db103bafdd2e262f00d7984439b5c3cea38c12358bb2c8"),
    ("ex1_inner_scale_8", _edited("ex1", lambda cfg: cfg["potentials"]["V"]["inner"].update(
        scale=8.0)), True,
     "6e30f8b9ac6ff5aee6a28fb8b14c0116c555680feca15ce8fcdd7095e17c33e6"),
    ("ex2_I_origin_a_2.5", _edited("ex2_I", lambda cfg: cfg["asymptotics"]["origin"].update(
        a=2.5)), False,
     "c2ea62bdcc403bb838ba6b3bcc0a90476a0ea1ad07911f4c8357c30e171270c3"),
]


@pytest.mark.parametrize("name, cfg, passed, digest", CHECK_DOCUMENT_PINS,
                         ids=[pin[0] for pin in CHECK_DOCUMENT_PINS])
def test_check_document_bytes_are_pinned(name, cfg, passed, digest):
    doc = check_report(load_config(cfg))
    assert doc["passed"] is passed
    assert hashlib.sha256(canonical_json(doc).encode()).hexdigest() == digest


def _without_gamma(cfg):
    del cfg["asymptotics"]["origin"]["gamma"]
    return cfg


class TestConfigRefusals:
    @pytest.mark.parametrize("edit, detail", [
        (_without_gamma, "asymptotics.origin is missing field 'gamma'"),
        (lambda cfg: {**cfg, "schema_version": 2}, "unsupported schema_version 2"),
    ])
    def test_bad_document_exits_two(self, tmp_path, capsys, edit, detail):
        path = write_config(tmp_path, edit(example_config("ex1")))
        for command in ("region", "check", "probe", "solve"):
            code, doc = run_cli(capsys, [command, "--config", path, "--out", str(tmp_path)])
            assert (code, doc) == (EXIT_CONFIG, {"error": "invalid_config", "detail": detail})

    @pytest.mark.parametrize("section, key, value", [
        ("dims", "N", 4.6), ("grid", "n_nodes", 1600.9), ("probe", "n_nodes", 2400.7),
        ("tolerances", "max_iter", 0.5), ("tolerances", "max_iter", True),
        (None, "schema_version", 1.7), ("grid", "n_nodes", math.inf), ("dims", "N", "4"),
    ])
    def test_fractional_or_boolean_count_exits_two(self, tmp_path, capsys, section, key, value):
        # a count is refused, not truncated into another problem
        cfg = example_config("ex1")
        (cfg.setdefault(section, {}) if section else cfg)[key] = value
        path = write_config(tmp_path, cfg)
        name = f"{section}.{key}" if section else key
        for command in ("check", "solve"):
            code, doc = run_cli(capsys, [command, "--config", path, "--out", str(tmp_path)])
            detail = f"{name} must be a whole number, got {value!r}"
            assert (code, doc) == (EXIT_CONFIG, {"error": "invalid_config", "detail": detail})

    @pytest.mark.parametrize("field, name", [
        ("dims.p", "dims.p"),
        ("potentials.A.c", "power.c"), ("potentials.A.e", "power.e"),
        ("potentials.V.breakpoint", "piecewise.breakpoint"),
        ("potentials.V.inner.scale", "exp_inv.scale"), ("potentials.K.outer.c", "constant.c"),
        *((key, key) for key in (
            "potentials.s_loc", "asymptotics.origin.a", "asymptotics.origin.alpha",
            "asymptotics.origin.beta", "asymptotics.origin.gamma", "asymptotics.origin.R",
            "asymptotics.infinity.R", "nonlinearity.q1", "nonlinearity.q2", "nonlinearity.M",
            "grid.r_min", "grid.r_max", "probe.r_min", "probe.r_max",
            "tolerances.solve_tol", "tolerances.probe_threshold")),
        ("probe.R_origin.1", "probe.R_origin"), ("probe.R_infinity.2", "probe.R_infinity"),
    ])
    @pytest.mark.parametrize("value", [True, "2", "inf"])
    def test_boolean_or_string_real_exits_two(self, tmp_path, capsys, field, name, value):
        # a real-valued field is refused, not converted: true would read as 1.0
        cfg = {**example_config("ex1"),
               "probe": {"R_origin": [0.1, 0.01, 0.001], "R_infinity": [10.0, 100.0, 1000.0]}}
        *keys, last = (int(k) if k.isdigit() else k for k in field.split("."))
        section = cfg
        for key in keys:
            section = section[key]
        section[last] = value
        path = write_config(tmp_path, cfg)
        detail = f"{name} must be a number, got {value!r}"
        for command in ("check", "solve"):
            code, doc = run_cli(capsys, [command, "--config", path, "--out", str(tmp_path)])
            assert (code, doc) == (EXIT_CONFIG, {"error": "invalid_config", "detail": detail})

    def test_whole_valued_floats_read_as_counts(self):
        cfg = example_config("ex1")
        cfg["dims"]["N"], cfg["grid"]["n_nodes"], cfg["tolerances"]["max_iter"] = 4.0, 1600.0, 2e4
        cfg.update(schema_version=1.0, probe={"n_nodes": 2400.0})
        loaded = load_config(cfg)
        assert loaded == load_config({**example_config("ex1"), "probe": {"n_nodes": 2400}})
        assert all(type(n) is int for n in (loaded.dims.N, loaded.n_nodes, loaded.probe_n_nodes,
                                            loaded.max_iter))

    @pytest.mark.parametrize("text", [None, "{", "[1, 2"])
    def test_unreadable_or_malformed_file_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        code, doc = run_cli(capsys, ["region", "--config", str(path)])
        assert code == EXIT_CONFIG and doc["error"] == "invalid_config"

    @pytest.mark.parametrize("argv, detail", [
        (["example", "ex2_I", "--sweep", "q=3:4:1"], "example sweeps support the key 'd' only"),
        (["solve", "--sweep", "foo=3:4:1"], "unsupported sweep key 'foo'"),
    ])
    def test_unsupported_sweep_key_exits_two(self, tmp_path, capsys, argv, detail):
        if argv[0] == "solve":
            argv = [*argv, "--config", write_config(tmp_path, example_config("ex1"))]
        code, doc = run_cli(capsys, [*argv, "--out", str(tmp_path)])
        assert (code, doc) == (EXIT_CONFIG, {"error": "invalid_config", "detail": detail})
        assert list(tmp_path.glob("*.csv")) == []

    def test_forced_solve_reports_invalid_asymptotics(self, tmp_path, capsys):
        # the solve does not need the rates to hold; its report says they fail
        cfg = example_config("ex1")
        cfg["asymptotics"]["infinity"]["gamma"] = 3.5  # above p - a
        path = write_config(tmp_path, cfg)
        code, doc = run_cli(capsys, ["solve", "--config", path, "--out", str(tmp_path)])
        assert code == EXIT_HYPOTHESIS
        code, doc = run_cli(capsys, ["solve", "--force", "--config", path,
                                     "--out", str(tmp_path)])
        assert code == EXIT_OK and doc["stop_reason"] == "converged"
        assert doc["admissible"] is None
        assert doc["admissibility_warning"] == "infinity data needs gamma <= p - a = 3.0, got 3.5"


class TestSolve:
    def test_benchmark_requires_force(self, tmp_path, capsys):
        path = write_config(tmp_path, unit_benchmark_config())
        code, doc = run_cli(capsys, ["solve", "--config", path,
                                     "--out", str(tmp_path)])
        assert code == EXIT_HYPOTHESIS
        assert doc["error"] == "hypothesis_check_failed"

    def test_benchmark_solves_with_force(self, tmp_path, capsys):
        path = write_config(tmp_path, unit_benchmark_config())
        code, doc = run_cli(capsys, ["solve", "--config", path,
                                     "--out", str(tmp_path), "--force"])
        assert code == EXIT_OK
        assert doc["residual"] < 1e-5
        rows = list(csv.reader((tmp_path / "solution.csv").open()))
        assert rows[0] == ["r", "u"]
        assert len(rows) == 401
        report = json.loads((tmp_path / "solution_report.json").read_text())
        assert report["residual"] == doc["residual"]
        assert report["stop_reason"] == doc["stop_reason"] == "converged"

    def test_degenerate_source_exits_five(self, tmp_path, capsys):
        cfg = unit_benchmark_config()
        cfg["nonlinearity"]["M"] = 0.0
        path = write_config(tmp_path, cfg)
        code, doc = run_cli(capsys, ["solve", "--config", path,
                                     "--out", str(tmp_path), "--force"])
        assert code == EXIT_COLLAPSED

    def test_overflowing_source_sum_exits_five(self, tmp_path, capsys):
        # with K = 1e307 the min_powers projection's weighted sum overflows:
        # the bump has no Nehari projection, so the solve collapses
        cfg = unit_benchmark_config()
        cfg["potentials"]["K"]["c"] = 1e307
        cfg["nonlinearity"] = {"kind": "min_powers", "q1": 3.0, "q2": 5.0}
        cfg["grid"]["n_nodes"] = 300
        path = write_config(tmp_path, cfg)
        # the overflowing w K is handled, not warned about
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, doc = run_cli(capsys, ["solve", "--config", path,
                                         "--out", str(tmp_path), "--force"])
        assert code == EXIT_COLLAPSED
        assert doc["error"] == "collapsed_to_zero"

    def test_underflowing_norm_exits_five(self, tmp_path, capsys):
        # with M = 1e250 the bump's Nehari point is so small that ||u||^p
        # underflows to 0 at the first stop test: the solve collapses
        cfg = unit_benchmark_config()
        cfg["nonlinearity"] = {"kind": "pure_power", "q1": 3.5, "q2": 3.5, "M": 1e250}
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, doc = run_cli(capsys, ["solve", "--config", path,
                                         "--out", str(tmp_path), "--force"])
        assert code == EXIT_COLLAPSED
        assert doc == {"error": "collapsed_to_zero", "detail": "the iterate's norm underflows"}

    def test_iteration_starved_solve_exits_four(self, tmp_path, capsys):
        cfg = unit_benchmark_config()
        cfg["tolerances"]["max_iter"] = 2
        cfg["tolerances"]["solve_tol"] = 1e-12
        path = write_config(tmp_path, cfg)
        code, doc = run_cli(capsys, ["solve", "--config", path,
                                     "--out", str(tmp_path), "--force"])
        assert code == EXIT_NOT_CONVERGED
        assert doc["error"] == "not_converged"
        assert doc["detail"].endswith("(budget_exhausted)")

    def test_stagnated_solve_exits_four(self, tmp_path, capsys):
        # a tolerance below the residual's rounding floor: the solve stops
        # once its energy no longer moves, not at the end of its budget
        cfg = unit_benchmark_config()
        cfg["grid"] = {"r_min": 1e-3, "r_max": 30.0, "n_nodes": 1001}
        cfg["tolerances"] = {"solve_tol": 1e-11, "max_iter": 20000}
        path = write_config(tmp_path, cfg)
        code, doc = run_cli(capsys, ["solve", "--config", path,
                                     "--out", str(tmp_path), "--force"])
        assert code == EXIT_NOT_CONVERGED
        assert doc["error"] == "not_converged"
        assert "residual floor" in doc["detail"]
        assert doc["detail"].endswith("(stagnated)")

    def test_negative_max_iter_exits_two(self, tmp_path, capsys):
        cfg = unit_benchmark_config()
        cfg["tolerances"]["max_iter"] = -1
        path = write_config(tmp_path, cfg)
        code, doc = run_cli(capsys, ["solve", "--config", path,
                                     "--out", str(tmp_path), "--force"])
        assert code == EXIT_CONFIG
        assert doc["error"] == "invalid_config"
        assert "max_iter" in doc["detail"]

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
    def test_bad_solve_tol_exits_two(self, tol, tmp_path, capsys):
        # residual <= tol never holds for these, so a solve would run its whole budget
        cfg = unit_benchmark_config()
        cfg["tolerances"]["solve_tol"] = tol
        path = write_config(tmp_path, cfg)
        code, doc = run_cli(capsys, ["solve", "--config", path,
                                     "--out", str(tmp_path), "--force"])
        assert code == EXIT_CONFIG
        assert doc["error"] == "invalid_config"
        assert "solve_tol" in doc["detail"]

    def test_sweep_writes_per_value_files(self, tmp_path, capsys):
        path = write_config(tmp_path, unit_benchmark_config())
        code, doc = run_cli(capsys, ["solve", "--config", path,
                                     "--out", str(tmp_path), "--force",
                                     "--sweep", "q=4:5:1"])
        assert code == EXIT_OK
        assert set(doc["results"]) == {"4", "5"}
        assert (tmp_path / "solution_q_4.csv").exists()
        assert (tmp_path / "solution_q_5.csv").exists()

    @pytest.mark.parametrize("text", ["q=4:5:0", "q=4:5:-0.5", "q=5:4:0.5", "q=4:inf:1"])
    def test_bad_sweep_range_rejected(self, text):
        # a zero step would re-solve q = 4 forever
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_sweep(text)

    def test_bad_sweep_range_exits_two(self, tmp_path):
        path = write_config(tmp_path, unit_benchmark_config())
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", path, "--out", str(tmp_path), "--force",
                  "--sweep", "q=4:5:0"])
        assert exc.value.code == EXIT_CONFIG

    @pytest.mark.parametrize("nonlinearity, sweep", [
        ({"kind": "pure_power", "q1": 4.0, "q2": 4.0}, "q=0.5:1:0.5"),    # q <= 1
        ({"kind": "rational", "q1": 3.0, "q2": 5.0}, "q1=4:6:1"),         # q1 > q2
    ])
    def test_invalid_swept_value_is_config_error(self, tmp_path, capsys, nonlinearity,
                                                 sweep):
        cfg = unit_benchmark_config()
        cfg["nonlinearity"] = nonlinearity
        path = write_config(tmp_path, cfg)
        code, doc = run_cli(capsys, ["solve", "--config", path, "--out", str(tmp_path),
                                     "--force", "--sweep", sweep])
        assert code == EXIT_CONFIG
        assert doc["error"] == "invalid_config"
        assert not list(tmp_path.glob("solution_*"))  # rejected before any solve

    def test_sweep_values_that_share_a_label_are_refused(self, tmp_path, capsys):
        # 4, 4.000005 and 4.00001 print as "4", "4" and "4.00001": the second
        # solve would overwrite the first one's entry and files
        path = write_config(tmp_path, unit_benchmark_config())
        code, doc = run_cli(capsys, ["solve", "--config", path, "--out", str(tmp_path),
                                     "--force", "--sweep", "q=4:4.00001:0.000005"])
        assert code == EXIT_CONFIG
        assert doc == {"error": "invalid_config",
                       "detail": f"sweep q: values 4.0 and {4 + 0.000005!r} share the label '4'"}
        assert not list(tmp_path.glob("solution_*"))  # refused before any solve

    def test_sweep_values_are_exact_and_config_unchanged(self, tmp_path, capsys,
                                                         monkeypatch):
        base = cli.load_config(unit_benchmark_config())
        solved = []

        def record(cfg, out_dir, prefix):
            solved.append((prefix, cfg.nonlinearity.q1, cfg.nonlinearity.q2))
            return {}, EXIT_OK

        monkeypatch.setattr(cli, "solve_to_files", record)
        monkeypatch.setattr(cli, "load_config_file", lambda path: base)
        code, doc = run_cli(capsys, ["solve", "--config", "unused", "--out", str(tmp_path),
                                     "--force", "--sweep", "q=4:5:0.1"])
        assert code == EXIT_OK
        # lo + k*step, not a running sum, which drifts to 4.9999999999999964
        expected = [4 + k * 0.1 for k in range(11)]
        assert [q1 for _, q1, _ in solved] == expected
        assert [q2 for _, _, q2 in solved] == expected
        assert solved[-1][:2] == ("solution_q_5", 5.0)
        assert sorted(doc["results"], key=float) == [f"{q:g}" for q in expected]
        assert (base.nonlinearity.q1, base.nonlinearity.q2) == (4.0, 4.0)

    def test_solver_determinism(self, tmp_path, capsys):
        path = write_config(tmp_path, unit_benchmark_config())
        main(["solve", "--config", path, "--out", str(tmp_path), "--force"])
        first = capsys.readouterr().out
        main(["solve", "--config", path, "--out", str(tmp_path), "--force"])
        second = capsys.readouterr().out
        assert first == second


def reference_write_csv(path, header, rows):
    """The csv.writer loop that _write_csv replaced."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(float(v), ".17g") if isinstance(v, float)
                             else v for v in row])


class TestWriteCsv:
    @pytest.mark.parametrize("header,rows", [
        (["r", "u"], [(0.0, -0.0), (5e-324, -2.2250738585072014e-308),
                      (math.inf, -math.inf), (math.nan, 1e308), (0.1, 1.0 / 3.0),
                      (np.float64(0.1), np.float64(-1.5e300)), (1e16, 123456789.0)]),
        (["alpha", "q", "member"], [(-10.0, 1.0, 1), (5.0, 15.0, 0), (0.5, 2.0, True),
                                    (0.5, 2.0, False), (np.int64(7), np.float64(2.5), -3)]),
        (["R", "value"], []),
        (["r", "u"], list(zip(np.logspace(-3.0, 4.0, 1600).tolist(),
                              [math.inf, math.nan, -0.0, 0.0, -math.inf]
                              + np.exp(-np.linspace(0.0, 745.0, 1595)).tolist()))),
    ], ids=["floats", "ints_and_bools", "header_only", "1600_rows"])
    def test_bytes_equal_csv_writer(self, tmp_path, header, rows):
        cli._write_csv(tmp_path / "new.csv", header, rows)
        reference_write_csv(tmp_path / "old.csv", header, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_region_plot_and_solution_rows(self, tmp_path):
        cfg = cli.load_config(example_config("ex1"))
        grid = build_grid(cfg.r_min, cfg.r_max, 300, cfg.dims)
        for header, rows in (
                (["alpha", "q", "member"], cli.region_plot_rows(cfg, (-10.0, 5.0),
                                                                (1.0, 15.0), 16)),
                (["alpha", "q", "member"], cli.region_plot_rows(cfg, (-10.0, 5.0),
                                                                (1.0, 15.0), 64)),
                (["r", "u"], list(zip(grid.nodes.tolist(),
                                      np.exp(-grid.nodes).tolist())))):
            cli._write_csv(tmp_path / "new.csv", header, rows)
            reference_write_csv(tmp_path / "old.csv", header, rows)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestOneSolvePerCliSolve:
    @pytest.fixture
    def solves(self, monkeypatch):
        """(u0 is None, iterations) of each solve_ground_state call."""
        seen = []
        solve_ground_state = solver.solve_ground_state

        def spy(*args, **kwargs):
            u, rep = solve_ground_state(*args, **kwargs)
            seen.append((kwargs["u0"] is None, rep.iterations))
            return u, rep

        monkeypatch.setattr(solver, "solve_ground_state", spy)
        return seen

    def test_example_ex1_solves_once_from_the_bump(self, tmp_path, capsys, solves):
        code, doc = run_cli(capsys, ["example", "ex1", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert solves == [(True, 31)]
        assert doc["solve"]["iterations"] == 31

    def test_sweep_solves_once_per_value(self, tmp_path, capsys, solves):
        path = write_config(tmp_path, unit_benchmark_config())
        code, doc = run_cli(capsys, ["solve", "--force", "--config", path,
                                     "--sweep", "q=4:5:0.5", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert list(doc["results"]) == ["4", "4.5", "5"]
        assert [u0_is_none for u0_is_none, _ in solves] == [True, True, True]


class TestProbeCommand:
    def test_probe_files_and_verdicts(self, tmp_path, capsys):
        path = write_config(tmp_path, example_config("ex1"))
        code, doc = run_cli(capsys, ["probe", "--config", path,
                                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert doc["infinity"]["verdict"] == "decays"
        assert doc["origin"]["verdict"] == "decays"
        rows = list(csv.reader((tmp_path / "probe_infinity.csv").open()))
        assert rows[0] == ["R", "value"]
        assert len(rows) == 4


class TestExampleCommand:
    def test_ex1_runs_and_asserts(self, tmp_path, capsys):
        code, doc = run_cli(capsys, ["example", "ex1", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert doc["thresholds_asserted"]["q_star_infinity"] == 8.0
        assert doc["region"]["witnesses"]["infinity"]["delta"] == -0.5
        assert doc["check"]["passed"] is True
        assert doc["solve"]["residual"] < 1e-5
        assert doc["solve"]["stop_reason"] == "converged"
        assert (tmp_path / "ex1_solution.csv").exists()

    def test_ex2_subcase_ii_upper_bound(self, tmp_path, capsys):
        code, doc = run_cli(capsys, ["example", "ex2_II", "--out", str(tmp_path)])
        assert code == EXIT_OK
        N, p = 5, 2.0
        expected = p * (p / 2 + (N - 1) * (p + 1)) / (N - p - 1)
        assert doc["region"]["q1_interval"]["upper"] == expected
        assert doc["formula_layer"]["q_star_exact"] == [56, 9]
        assert doc["formula_layer"]["q_double_star_exact"] == [94, 9]
        assert doc["smallest_sampled_d"] == 1.0

    def test_ex2_subcase_i_pipeline(self, tmp_path, capsys):
        code, doc = run_cli(capsys, ["example", "ex2_I", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert doc["check"]["passed"] is True
        assert doc["probe"]["origin"]["verdict"] == "decays"
        # the edge filter drops every infinity profile: nothing was probed
        assert doc["probe"]["infinity"]["family_size"] == 0
        assert doc["probe"]["infinity"]["verdict"] == "inconclusive"
        assert doc["solve"]["residual"] < 1e-5
        # bounded interval branch: upper bound is the smaller critical exponent
        assert doc["region"]["q1_interval"]["upper"] == 8.0

    def test_ex2_subcase_iii_negative_q_star(self, tmp_path, capsys):
        code, doc = run_cli(capsys, ["example", "ex2_III", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert doc["region"]["thresholds"]["origin"]["q_star"] < 0
        assert doc["region"]["q1_interval"]["upper"] == 28.0

    def test_ex2_d_sweep(self, tmp_path, capsys):
        code, doc = run_cli(capsys, ["example", "ex2_I", "--out", str(tmp_path),
                                     "--sweep", "d=10:12:2"])
        assert code == EXIT_OK
        assert set(doc["results"]) == {"10", "12"}
        # the far-field threshold grows with d
        assert doc["results"]["12"]["q2_lower_bound"] \
            > doc["results"]["10"]["q2_lower_bound"]
        assert (tmp_path / "ex2_I_d_10.csv").exists()

    def test_d_sweep_rejected_for_ex1(self, tmp_path, capsys):
        code, doc = run_cli(capsys, ["example", "ex1", "--out", str(tmp_path),
                                     "--sweep", "d=1:2:1"])
        assert code == EXIT_CONFIG

    def test_unknown_example_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["example", "nope"])


def _is_loaded_after_cli_import(*modules, argv=None):
    """'True' or 'False' per module, space-separated, printed by a fresh
    interpreter: whether the module or one below it is loaded after
    importing quasiradial.cli and, given argv, running the CLI on it."""
    pkg_root = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        "import contextlib, io, sys, quasiradial.cli\n"
        f"if {argv!r} is not None:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        quasiradial.cli.main({argv!r})\n"
        f"print(*(any(m == p or m.startswith(p + '.') for m in sys.modules)"
        f" for p in {modules!r}))")
    env = dict(os.environ, PYTHONPATH=pkg_root)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def test_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    # at 100000 nodes OpenBLAS splits a whole-array dot product across two
    # threads, which moves its rounding; the solver's reductions never let it
    pkg_root = os.path.dirname(os.path.dirname(cli.__file__))
    cfg = unit_benchmark_config()
    cfg["grid"]["n_nodes"] = 100000
    path = write_config(tmp_path, cfg)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        out.mkdir()
        env = dict(os.environ, PYTHONPATH=pkg_root, OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-m", "quasiradial.cli", "solve", "--force",
                              "--config", path, "--out", str(out)],
                             env=env, check=True, capture_output=True)
        outputs.append((run.stdout, (out / "solution_report.json").read_bytes()))
    assert outputs[0] == outputs[1]


def test_import_leaves_scipy_integrate_unloaded():
    # quadrature is only the test reference of the rational primitive
    assert _is_loaded_after_cli_import("scipy.integrate") == "False"


def test_import_leaves_scipy_optimize_unloaded():
    # Brent's method for the double-power Nehari projection is the solver's own
    assert _is_loaded_after_cli_import("scipy.optimize") == "False"


def test_import_loads_no_scipy():
    assert _is_loaded_after_cli_import("scipy") == "False"


def test_import_loads_no_csv():
    # the CLI writes its CSV files as one string each (_write_csv)
    assert _is_loaded_after_cli_import("csv") == "False"


@pytest.mark.parametrize("command", [["example", "ex2_I"], ["solve", "--force"]])
def test_non_rational_commands_load_no_scipy(tmp_path, command):
    # ex2_I and the unit solve run the double-power and the pure-power
    # projection, the banded solves and the probes' logsumexp
    if command[0] == "solve":
        command = command + ["--config", write_config(tmp_path, unit_benchmark_config())]
    argv = command + ["--out", str(tmp_path)]
    assert _is_loaded_after_cli_import("scipy", argv=argv) == "False"


def test_example_loads_no_numpy_ma(tmp_path):
    # the hypothesis check's refinement finds the argmax's neighbours
    # without np.union1d, which imports numpy.ma
    argv = ["example", "ex1", "--out", str(tmp_path)]
    assert _is_loaded_after_cli_import("numpy.ma", "scipy", argv=argv) == "False False"


def test_rational_solve_loads_no_scipy(tmp_path):
    # the rational primitive sums its own series (nonlinearity._rational_primitive)
    cfg = unit_benchmark_config()
    cfg["nonlinearity"] = {"kind": "rational", "q1": 3.0, "q2": 5.0}
    argv = ["solve", "--force", "--config", write_config(tmp_path, cfg),
            "--out", str(tmp_path)]
    assert _is_loaded_after_cli_import("scipy", argv=argv) == "False"
