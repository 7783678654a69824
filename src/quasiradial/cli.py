"""Command-line front end.

    quasiradial region      --config FILE            admissible exponent report
    quasiradial region-plot --config FILE [ranges]   membership raster CSV
    quasiradial check       --config FILE            hypothesis validation
    quasiradial probe       --config FILE            supremum decay probes
    quasiradial solve       --config FILE [--force]  ground-state solve
    quasiradial example NAME [--out DIR]             built-in reference problems

Exit codes: 0 success, 2 invalid configuration, 3 hypothesis failure,
4 solver did not converge, 5 solver collapsed to the trivial solution.
All JSON output is canonical (sorted keys, 17 significant digits), so
identical inputs produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from ._jsonio import canonical_json
from .exponents import (
    BoundaryCase,
    EndpointAsymptotics,
    InvalidAsymptotics,
    NotAdmissible,
    ProblemDims,
    critical_exponents,
    pointwise_decay_exponent,
    q1_admissible_set,
    q2_lower_bound,
    q1_region_bounds,
    q1_region_membership,  # not called here; the benchmark wraps this module's copy
    q_double_star,
    q_star,
    tail_decay_exponent,
    xi_witness_infinity,
    xi_witness_origin,
)
from .nonlinearity import NonlinearitySpec
from .potentials import (
    NonPositive,
    eval_potentials,
    spec_from_json,
    validate_hypotheses,
)
from .probes import decay_verdict, make_trial_family, probe_infinity, probe_origin
from .solver import (
    BadRange,
    CollapsedToZero,
    NotConverged,
    _check_range,
    build_grid,
    solve_ground_state,  # not called here; the benchmark wraps this module's copy
    solve_problem,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_NOT_CONVERGED = 4
EXIT_COLLAPSED = 5


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    dims: ProblemDims
    spec_A: object
    spec_V: object
    spec_K: object
    s_loc: float
    asym_origin: EndpointAsymptotics
    asym_infinity: EndpointAsymptotics
    nonlinearity: NonlinearitySpec
    r_min: float
    r_max: float
    n_nodes: int
    solve_tol: float
    max_iter: int
    probe_threshold: float
    probe_r_min: float
    probe_r_max: float
    probe_n_nodes: int
    R_origin: list
    R_infinity: list

    @property
    def q_sorted(self):
        return tuple(sorted((self.nonlinearity.q1, self.nonlinearity.q2)))

    @property
    def q_order_swapped(self):
        return self.nonlinearity.q1 > self.nonlinearity.q2

    def solver_nonlinearity(self):
        """Nonlinearity with (q1, q2) sorted ascending; the min of the two
        powers is symmetric in the pair."""
        q1, q2 = self.q_sorted
        nl = self.nonlinearity
        return NonlinearitySpec(kind=nl.kind, q1=q1, q2=q2, M=nl.M)


def _endpoint_from_json(end, obj):
    try:
        return EndpointAsymptotics(
            end=end, a=float(obj["a"]), alpha=float(obj["alpha"]),
            beta=float(obj["beta"]), gamma=float(obj["gamma"]),
            R=float(obj.get("R", 1.0)))
    except KeyError as exc:
        raise ConfigError(f"asymptotics.{end} is missing field {exc}")


def load_config(obj) -> RunConfig:
    """Parse and validate one JSON configuration document."""
    try:
        if int(obj.get("schema_version", 1)) != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {obj.get('schema_version')}")
        dims = ProblemDims(N=int(obj["dims"]["N"]), p=float(obj["dims"]["p"]))
        pots = obj["potentials"]
        spec_a = spec_from_json(pots["A"])
        spec_v = spec_from_json(pots["V"])
        spec_k = spec_from_json(pots["K"])
        s_loc = float(pots.get("s_loc", 2.0))
        if not 1.0 < s_loc < math.inf:
            raise ConfigError(f"potentials.s_loc must be finite and exceed 1, got {s_loc}")
        asym_o = _endpoint_from_json("origin", obj["asymptotics"]["origin"])
        asym_i = _endpoint_from_json("infinity", obj["asymptotics"]["infinity"])
        nl = NonlinearitySpec.from_json(obj["nonlinearity"])
        grid = obj.get("grid", {})
        r_min = float(grid.get("r_min", 1e-4))
        r_max = float(grid.get("r_max", 1e4))
        n_nodes = int(grid.get("n_nodes", 2000))
        tols = obj.get("tolerances", {})
        probe = obj.get("probe", {})
        probe_r_min = float(probe.get("r_min", min(r_min, 5e-5)))
        probe_r_max = float(probe.get("r_max", max(r_max, 1e5)))
        probe_n_nodes = int(probe.get("n_nodes", 2400))
        for key, rng in (("grid", (r_min, r_max, n_nodes)),
                         ("probe", (probe_r_min, probe_r_max, probe_n_nodes))):
            try:
                _check_range(*rng)
            except BadRange as exc:
                raise ConfigError(f"{key}: {exc}")
        max_iter = int(tols.get("max_iter", 20000))
        if max_iter < 0:
            raise ConfigError(f"tolerances.max_iter must be nonnegative, got {max_iter}")
        solve_tol = float(tols.get("solve_tol", 1e-6))
        if not 0.0 < solve_tol < math.inf:
            raise ConfigError(f"tolerances.solve_tol must be positive and finite, got {solve_tol}")
        probe_threshold = float(tols.get("probe_threshold", 0.9))
        if not 0.0 < probe_threshold <= 1.0:  # per-decade ratios below it mean decay
            raise ConfigError(
                f"tolerances.probe_threshold must lie in (0, 1], got {probe_threshold}")
        R_origin = [float(x) for x in probe.get("R_origin", [0.1, 0.01, 0.001])]
        R_infinity = [float(x) for x in probe.get("R_infinity", [10.0, 100.0, 1000.0])]
        for key, radii in (("R_origin", R_origin), ("R_infinity", R_infinity)):
            # a decay verdict needs three samples, and a ball needs a positive radius
            if len(radii) < 3 or not all(0.0 < R < math.inf for R in radii):
                raise ConfigError(f"probe: need at least three positive finite radii in {key}")
        return RunConfig(
            dims=dims, spec_A=spec_a, spec_V=spec_v, spec_K=spec_k, s_loc=s_loc,
            asym_origin=asym_o, asym_infinity=asym_i, nonlinearity=nl,
            r_min=r_min, r_max=r_max, n_nodes=n_nodes,
            solve_tol=solve_tol,
            max_iter=max_iter,
            probe_threshold=probe_threshold,
            probe_r_min=probe_r_min, probe_r_max=probe_r_max, probe_n_nodes=probe_n_nodes,
            R_origin=R_origin, R_infinity=R_infinity,
        )
    except ConfigError:
        raise
    except (InvalidAsymptotics, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(str(exc))


def load_config_file(path) -> RunConfig:
    try:
        with open(path) as fh:
            return load_config(json.load(fh))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(str(exc))


def witness_report(cfg: RunConfig) -> dict:
    """The shift witnesses at the configured (q1, q2): the origin's feasible xi
    interval, and at infinity the chosen xi, the effective weights and the rate
    delta of the far-field bound C R^delta.  An end without one says why."""
    (q1, q2), dims = cfg.q_sorted, cfg.dims
    origin, infinity = {"q": q1}, {"q": q2}
    try:
        w = xi_witness_origin(cfg.asym_origin, q1, dims)
        origin.update(xi_lo=float(w.lo), xi_hi=float(w.hi), closed_lo=w.closed_lo,
                      closed_hi=w.closed_hi, empty=w.empty)
    except BoundaryCase as exc:  # gamma = p - a
        origin["none"] = str(exc)
    try:
        w = xi_witness_infinity(cfg.asym_infinity, q2, dims)
        infinity.update(case=w.case_id, xi=float(w.xi), alpha_eff=float(w.alpha_eff),
                        beta_eff=float(w.beta_eff),
                        delta=float(tail_decay_exponent(cfg.asym_infinity, q2, dims)))
    except NotAdmissible as exc:  # q2 at or below its threshold
        infinity["none"] = str(exc)
    return {"origin": origin, "infinity": infinity}


def region_report(cfg: RunConfig) -> dict:
    """Admissible exponent intervals, thresholds and witnesses for the configured data."""
    dims = cfg.dims
    s = q1_admissible_set(cfg.asym_origin, dims)
    bound = q2_lower_bound(cfg.asym_infinity, dims)
    q1, q2 = cfg.q_sorted
    admissible = s.contains(q1) and q2 > max(float(bound), dims.p)
    ces = [(asym.end, critical_exponents(asym.a, asym.alpha, asym.beta, asym.gamma, dims))
           for asym in (cfg.asym_origin, cfg.asym_infinity)]
    constraints = []
    if s.alpha_constraint is not None:
        constraints.append({"kind": s.alpha_constraint.kind,
                            "satisfied": s.alpha_constraint.satisfied})
    return {
        "schema_version": SCHEMA_VERSION,
        "q1_interval": {"lower": float(s.lower), "upper": float(s.upper)},
        "q1_alpha_constraints": constraints,
        "q2_lower_bound": float(bound),
        "q1": q1, "q2": q2,
        "q_order_swapped": cfg.q_order_swapped,
        "admissible": bool(admissible),
        "thresholds": {end: {
            "q_star": None if ce.q_star is None else float(ce.q_star),
            "q_double_star": None if ce.q_double_star is None else float(ce.q_double_star),
            "p_sobolev": float(ce.p_sobolev),
        } for end, ce in ces},
        "witnesses": witness_report(cfg),
    }


def region_plot_rows(cfg: RunConfig, alpha_range, q_range, resolution):
    """Membership raster of the origin region over an (alpha, q) rectangle."""
    qs = np.linspace(*q_range, resolution).tolist()
    rows = []
    for alpha in np.linspace(*alpha_range, resolution).tolist():
        # the region's bounds depend on alpha only: one branch per raster row
        lower, upper = q1_region_bounds(replace(cfg.asym_origin, alpha=alpha), cfg.dims)
        rows.extend((alpha, q, int(lower < q < upper)) for q in qs)
    return rows


def check_report(cfg: RunConfig) -> dict:
    rep = validate_hypotheses((cfg.spec_A, cfg.spec_V, cfg.spec_K), cfg.dims,
                              cfg.asym_origin, cfg.asym_infinity, s_loc=cfg.s_loc)
    out = rep.to_dict()
    out["schema_version"] = SCHEMA_VERSION
    return out


def probe_report(cfg: RunConfig):
    """The probe document and the (origin, infinity) probe curves."""
    dims = cfg.dims
    grid = build_grid(cfg.probe_r_min, cfg.probe_r_max, cfg.probe_n_nodes, dims)
    table = eval_potentials(cfg.spec_A, cfg.spec_V, cfg.spec_K, grid.nodes)
    nu_o = float(pointwise_decay_exponent(cfg.asym_origin.a,
                                          cfg.asym_origin.gamma, dims))
    nu_i = float(pointwise_decay_exponent(cfg.asym_infinity.a,
                                          cfg.asym_infinity.gamma, dims))
    q1, q2 = cfg.q_sorted
    fam_o = make_trial_family(grid, table, nu_o, "origin")
    fam_i = make_trial_family(grid, table, nu_i, "infinity")
    curve_o = probe_origin(table, q1, cfg.R_origin, fam_o)
    curve_i = probe_infinity(table, q2, cfg.R_infinity, fam_i)
    doc = {end: {"q": q, "samples": [[R, v] for R, v in curve.samples],
                 "verdict": decay_verdict(curve, cfg.probe_threshold), "family_size": len(fam)}
           for end, q, fam, curve in (("origin", q1, fam_o, curve_o),
                                      ("infinity", q2, fam_i, curve_i))}
    return {"schema_version": SCHEMA_VERSION, **doc}, (curve_o, curve_i)


def _write_csv(path, header, rows):
    """CSV with \r\n line ends, floats to 17 significant digits, built as one
    string: one % formats every value, floats by %.17g and the rest by %s."""
    fmt = "".join([",".join(["%.17g" if isinstance(v, float) else "%s" for v in row]) + "\r\n"
                   for row in rows])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + fmt % tuple(v for row in rows for v in row))


def _truncation_sensitivity_report(cfg: RunConfig, u, rep):
    """Re-solve on a domain shrunk by one decade per side, starting from u,
    and report the relative drift of the energy and of the peak value."""
    r_min, r_max = cfg.r_min * 10.0, cfg.r_max / 10.0
    if not r_min < r_max / 10.0:
        return {"skipped": "domain too narrow to shrink"}
    decades_full = math.log10(cfg.r_max / cfg.r_min)
    decades = math.log10(r_max / r_min)
    n = max(128, int(cfg.n_nodes * decades / decades_full))
    try:
        u2, rep2 = solve_problem(cfg, r_min, r_max, n, start=u)
    except (NotConverged, CollapsedToZero, BadRange) as exc:
        return {"failed": f"{type(exc).__name__}: {exc}"}
    peak1 = float(np.max(u.values))
    peak2 = float(np.max(u2.values))
    return {
        "domain": [r_min, r_max],
        "energy_rel_diff": abs(rep2.energy - rep.energy) / max(abs(rep.energy), 1e-300),
        "peak_rel_diff": abs(peak2 - peak1) / max(peak1, 1e-300),
    }


def solve_to_files(cfg: RunConfig, out_dir: Path, prefix="solution"):
    """Run the ground-state solve and write CSV + report JSON.

    Returns (report dict, exit code)."""
    try:
        u, rep = solve_problem(cfg, cfg.r_min, cfg.r_max, cfg.n_nodes)
    except NotConverged as exc:
        return {"error": "not_converged", "detail": str(exc)}, EXIT_NOT_CONVERGED
    except CollapsedToZero as exc:
        return {"error": "collapsed_to_zero", "detail": str(exc)}, EXIT_COLLAPSED
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / f"{prefix}.csv", ["r", "u"],
               list(zip(u.grid.nodes.tolist(), u.values.tolist())))
    report = {"schema_version": SCHEMA_VERSION, **rep.to_dict()}
    # exponent admissibility is warn-only for the solver (exploration is fine)
    try:
        report["admissible"] = region_report(cfg)["admissible"]
    except InvalidAsymptotics as exc:
        report["admissible"] = None
        report["admissibility_warning"] = str(exc)
    else:
        if not report["admissible"]:
            report["admissibility_warning"] = (
                "configured (q1, q2) lie outside the computed admissible ranges")
    report["truncation_sensitivity"] = _truncation_sensitivity_report(cfg, u, rep)
    (out_dir / f"{prefix}_report.json").write_text(canonical_json(report) + "\n")
    return report, EXIT_OK


# ---------------------------------------------------------------------------
# Built-in example problems
# ---------------------------------------------------------------------------

def example_config(name: str) -> dict:
    """JSON configuration documents for the bundled reference problems."""
    if name == "ex1":
        return {
            "schema_version": 1,
            "dims": {"N": 4, "p": 2.0},
            "potentials": {
                "A": {"kind": "power", "c": 1.0, "e": -1.0},
                "V": {"kind": "piecewise", "breakpoint": 1.0,
                      "inner": {"kind": "exp_inv", "scale": 1.0},
                      "outer": {"kind": "power", "c": 1.0, "e": -3.0}},
                "K": {"kind": "piecewise", "breakpoint": 1.0,
                      "inner": {"kind": "exp_inv", "scale": 1.0},
                      "outer": {"kind": "constant", "c": 1.0}},
                "s_loc": 2.0,
            },
            "asymptotics": {
                "origin": {"a": -1.0, "alpha": 0.0, "beta": 1.0, "gamma": 8.0, "R": 1.0},
                "infinity": {"a": -1.0, "alpha": 0.0, "beta": 0.0, "gamma": 3.0, "R": 1.0},
            },
            "nonlinearity": {"kind": "min_powers", "q1": 9.0, "q2": 9.0},
            "grid": {"r_min": 4e-3, "r_max": 1e4, "n_nodes": 1600},
            "tolerances": {"solve_tol": 1e-5, "max_iter": 20000},
        }
    if name in ("ex2_I", "ex2_II", "ex2_III"):
        # dimensions chosen so the quasilinearity sits strictly below N - 2
        N, p, d = 5, 2.0, 10.0
        gamma0 = {"ex2_I": 4.0, "ex2_II": float(N), "ex2_III": 6.0}[name]
        return {
            "schema_version": 1,
            "dims": {"N": N, "p": p},
            "potentials": {
                "A": {"kind": "min", "args": [
                    {"kind": "power", "c": 1.0, "e": -2.0},
                    {"kind": "power", "c": 1.0, "e": -1.0}]},
                "V": {"kind": "max", "args": [
                    {"kind": "power", "c": 1.0, "e": -gamma0},
                    {"kind": "power", "c": 1.0, "e": 0.5}]},
                "K": {"kind": "max", "args": [
                    {"kind": "power", "c": 1.0, "e": d},
                    {"kind": "power", "c": 1.0, "e": 0.5}]},
                "s_loc": 2.0,
            },
            "asymptotics": {
                "origin": {"a": -1.0, "alpha": 0.5, "beta": 0.0, "gamma": gamma0, "R": 0.5},
                "infinity": {"a": -2.0, "alpha": d, "beta": 0.0, "gamma": -0.5, "R": 2.0},
            },
            "nonlinearity": {"kind": "min_powers", "q1": 3.0, "q2": 8.5},
            "grid": {"r_min": 1e-4, "r_max": 1e4, "n_nodes": 1600},
            "tolerances": {"solve_tol": 1e-5, "max_iter": 20000},
        }
    raise ConfigError(f"unknown example {name!r}; "
                      "choose from ex1, ex2_I, ex2_II, ex2_III")


def _example2_formula_layer():
    """Published threshold values of the second example's formula layer at
    d = 10 (evaluated at N=4, p=2, where the pipeline constraint p < N-2 is
    not needed for the algebra)."""
    dims = ProblemDims(N=4, p=2)
    qs = q_star(Fraction(10), 0, Fraction(-1, 2), dims)
    qss = q_double_star(-2, Fraction(10), 0, Fraction(-1, 2), dims)
    return {
        "dims": {"N": 4, "p": 2.0},
        "d": 10.0,
        "q_star_infinity": float(qs),
        "q_double_star_infinity": float(qss),
        "q_double_star_gt_q_star": bool(qss > qs),
        "q_star_exact": [qs.numerator, qs.denominator],
        "q_double_star_exact": [qss.numerator, qss.denominator],
    }


def smallest_sampled_d(dims: ProblemDims):
    """Smallest sampled d at which the second threshold strictly exceeds the
    first for the far-field data of the second example (empirical, grid 0.5
    on (0, 20])."""
    for d in (k * 0.5 for k in range(1, 41)):
        qs = q_star(d, 0.0, -0.5, dims)
        qss = q_double_star(-2.0, d, 0.0, -0.5, dims)
        if qss > qs:
            return d
    return math.nan


def run_example(name: str, out_dir: Path) -> dict:
    cfg_json = example_config(name)
    cfg = load_config(cfg_json)
    doc = {"schema_version": SCHEMA_VERSION, "example": name,
           "config": cfg_json}

    region = region_report(cfg)
    doc["region"] = region

    if name == "ex1":
        thr = region["thresholds"]["infinity"]
        assert thr["q_star"] == 8.0 and thr["q_double_star"] == 8.0
        assert region["q1_interval"]["lower"] == 2.0
        doc["thresholds_asserted"] = {
            "q_star_infinity": 8.0, "q_double_star_infinity": 8.0,
            "q1_lower": 2.0}
    else:
        formula = _example2_formula_layer()
        assert formula["q_star_exact"] == [56, 9]
        assert formula["q_double_star_exact"] == [94, 9]
        assert formula["q_double_star_gt_q_star"]
        doc["formula_layer"] = formula
        doc["smallest_sampled_d"] = smallest_sampled_d(cfg.dims)
        if name == "ex2_II":
            N, p = cfg.dims.N, cfg.dims.p
            expected = p * (p / 2 + (N - 1) * (p + 1)) / (N - p - 1)
            assert region["q1_interval"]["upper"] == expected
            doc["q1_upper_bound_formula"] = expected
        if name == "ex2_III":
            assert region["thresholds"]["origin"]["q_star"] < 0
    doc["check"] = check_report(cfg)
    doc["probe"] = probe_report(cfg)[0]
    solve_rep, code = solve_to_files(cfg, out_dir, prefix=f"{name}_solution")
    doc["solve"] = solve_rep
    doc["solve_exit_code"] = code
    return doc


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

def _parse_range(text):
    lo, hi = (float(x) for x in text.split(":"))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"range {text!r}: need finite LO:HI")
    return lo, hi


def _parse_resolution(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"resolution {text!r}: need at least 1")
    return n


def _parse_sweep(text):
    key, _, rng = text.partition("=")
    lo, hi, step = (float(x) for x in rng.split(":"))
    if not (math.isfinite(hi - lo) and step > 0 and hi >= lo):
        raise argparse.ArgumentTypeError(f"sweep {text!r}: need finite LO <= HI, STEP > 0")
    return key, lo, hi, step


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quasiradial",
        description="Exponent calculus, hypothesis checks and radial solves "
                    "for weighted quasilinear elliptic equations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", required=True, help="JSON configuration file")
        sp.add_argument("--out", default=".", help="output directory")

    sp = sub.add_parser("region", help="admissible exponent report")
    add_common(sp)

    sp = sub.add_parser("region-plot", help="membership raster over the alpha-q plane")
    add_common(sp)
    sp.add_argument("--alpha-range", type=_parse_range, default=(-10.0, 5.0))
    sp.add_argument("--q-range", type=_parse_range, default=(1.0, 15.0))
    sp.add_argument("--resolution", type=_parse_resolution, default=64)

    sp = sub.add_parser("check", help="validate the admissibility hypotheses")
    add_common(sp)

    sp = sub.add_parser("probe", help="supremum decay probes at both endpoints")
    add_common(sp)

    sp = sub.add_parser("solve", help="compute the nonnegative ground state")
    add_common(sp)
    sp.add_argument("--force", action="store_true",
                    help="solve even if the hypothesis check fails")
    sp.add_argument("--sweep", type=_parse_sweep, default=None,
                    metavar="KEY=LO:HI:STEP",
                    help="fan out solves over q, q1 or q2")

    sp = sub.add_parser("example", help="run a bundled reference problem")
    sp.add_argument("name", choices=["ex1", "ex2_I", "ex2_II", "ex2_III"])
    sp.add_argument("--out", default=".", help="output directory")
    sp.add_argument("--sweep", type=_parse_sweep, default=None,
                    metavar="d=LO:HI:STEP",
                    help="fan out solves of the second example over d")
    return parser


def sweep_solves(sweep, cfg_at, out_dir: Path, prefix, entry=lambda cfg, rep: rep):
    """Independent solves of cfg_at(lo + k*step), k = 0..floor((hi - lo) / step).

    Returns the document listing entry(cfg, report) per value and the worst exit code."""
    key, lo, hi, step = sweep
    ks = range(math.floor((hi - lo + 1e-12) / step) + 1)
    last = None  # validate every value first; only the last one is kept, so no memory grows
    for k in ks:
        v = lo + k * step
        try:
            cfg_at(v)
        except ValueError as exc:  # NonlinearitySpec and load_config reject bad values
            raise ConfigError(f"sweep {key}: {exc}")
        # :g rounding is monotone, so values that share a label are neighbours
        if last is not None and f"{v:g}" == f"{last:g}":
            raise ConfigError(f"sweep {key}: values {last!r} and {v!r} share the label '{v:g}'")
        last = v
    results, code = {}, EXIT_OK
    for k in ks:
        label, cfg = f"{lo + k * step:g}", cfg_at(lo + k * step)
        rep, c = solve_to_files(cfg, out_dir, prefix=f"{prefix}{label}")
        results[label] = entry(cfg, rep)
        code = max(code, c)
    return {"schema_version": SCHEMA_VERSION, "sweep": key, "results": results}, code


def sweep_example_d(name: str, out_dir: Path, sweep):
    """Independent solves of the second example across far-field growth rates d."""
    if not name.startswith("ex2"):
        raise ConfigError("the d sweep applies to the ex2_* examples only")

    def cfg_at(d):
        cfg_json = example_config(name)
        cfg_json["potentials"]["K"]["args"][0]["e"] = d
        cfg_json["asymptotics"]["infinity"]["alpha"] = d
        return load_config(cfg_json)

    doc, code = sweep_solves(sweep, cfg_at, out_dir, f"{name}_d_", lambda cfg, rep: {
        "q2_lower_bound": float(q2_lower_bound(cfg.asym_infinity, cfg.dims)), "solve": rep})
    return {"example": name, **doc}, code


def _config_at_q(cfg: RunConfig, key, q):
    nl = cfg.nonlinearity
    return replace(cfg, nonlinearity=NonlinearitySpec(
        kind=nl.kind, q1=q if key in ("q", "q1") else nl.q1,
        q2=q if key in ("q", "q2") else nl.q2, M=nl.M))


def _emit(doc):
    sys.stdout.write(canonical_json(doc) + "\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        if args.command == "example":
            out_dir.mkdir(parents=True, exist_ok=True)
            if args.sweep is not None:
                if args.sweep[0] != "d":
                    raise ConfigError("example sweeps support the key 'd' only")
                doc, code = sweep_example_d(args.name, out_dir, args.sweep)
                _emit(doc)
                return code
            doc = run_example(args.name, out_dir)
            _emit(doc)
            return doc.get("solve_exit_code", EXIT_OK)

        cfg = load_config_file(args.config)

        if args.command == "region":
            _emit(region_report(cfg))
            return EXIT_OK

        if args.command == "region-plot":
            rows = region_plot_rows(cfg, args.alpha_range, args.q_range,
                                    args.resolution)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / "region_plot.csv"
            _write_csv(path, ["alpha", "q", "member"], rows)
            _emit({"schema_version": SCHEMA_VERSION, "rows": len(rows),
                   "path": str(path)})
            return EXIT_OK

        if args.command == "check":
            doc = check_report(cfg)
            _emit(doc)
            return EXIT_OK if doc["passed"] else EXIT_HYPOTHESIS

        if args.command == "probe":
            doc, curves = probe_report(cfg)
            out_dir.mkdir(parents=True, exist_ok=True)
            for end, curve in zip(("origin", "infinity"), curves):
                _write_csv(out_dir / f"probe_{end}.csv", ["R", "value"], curve.samples)
            _emit(doc)
            return EXIT_OK

        # the one command left, as the subparsers are required: solve
        check = check_report(cfg)
        if not check["passed"] and not args.force:
            _emit({"error": "hypothesis_check_failed", "check": check})
            return EXIT_HYPOTHESIS
        if args.sweep is not None:
            key = args.sweep[0]
            if key not in ("q", "q1", "q2"):
                raise ConfigError(f"unsupported sweep key {key!r}")
            doc, code = sweep_solves(args.sweep, lambda q: _config_at_q(cfg, key, q),
                                     out_dir, f"solution_{key}_")
            _emit(doc)
            return code
        rep, code = solve_to_files(cfg, out_dir)
        _emit(rep)
        return code
    except (BadRange, ConfigError, NonPositive) as exc:
        _emit({"error": "invalid_config", "detail": str(exc)})
        return EXIT_CONFIG
    except InvalidAsymptotics as exc:
        _emit({"error": "invalid_asymptotics", "detail": str(exc)})
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
