"""One benchmark operation in a fresh interpreter.

    python3 perfbench/worker.py --src SRC --result FILE --trace 0|1 \
        [--spans FILE] cli -- ARGS...      run `quasiradial ARGS...`
    python3 perfbench/worker.py ... lib CASES_JSON   library solves
    python3 perfbench/worker.py ... setup CASES_JSON import and load only

The worker times the import of quasiradial.cli and the config loading
(set-up), runs the work, and snapshots its clocks and resource usage when
the work returns.  Everything after that snapshot (summaries, norm checks
of the captured trial families, writing spans) is reported as `post_s` and
`post_cpu_s`, which the runner subtracts from the process's wall and CPU
time.  With --trace 1 every public layer call listed in `FULL` is wrapped
and recorded as a span; with --trace 0 only config loading is wrapped (to
time it) and trial-family construction (to keep the families for the probe
check).
"""

import argparse
import json
import os
import resource
import sys
import time

# (module, attribute, span name): every place a layer's public function is
# looked up from another layer.  cli binds names with `from ... import`, so
# its copies are wrapped separately from the modules' own globals.
FULL = [
    ("cli", "main", "cli.main"),
    ("cli", "canonical_json", "cli.canonical_json"),
    ("cli", "q1_region_membership", "exponents.q1_region_membership"),
    ("cli", "q1_admissible_set", "exponents.q1_admissible_set"),
    ("cli", "q2_lower_bound", "exponents.q2_lower_bound"),
    ("cli", "critical_exponents", "exponents.critical_exponents"),
    ("cli", "q_star", "exponents.q_star"),
    ("cli", "q_double_star", "exponents.q_double_star"),
    ("cli", "eval_potentials", "potentials.eval_potentials"),
    ("potentials", "eval_potentials", "potentials.eval_potentials"),
    ("cli", "validate_hypotheses", "potentials.validate_hypotheses"),
    ("cli", "probe_origin", "probes.probe_origin"),
    ("cli", "probe_infinity", "probes.probe_infinity"),
    ("probes", "logsumexp", "probes.logsumexp"),
    ("probes", "_raw_log_profile", "probes.candidate_profile"),
    ("cli", "build_grid", "solver.build_grid"),
    ("solver", "build_grid", "solver.build_grid"),
    ("solver", "nehari_scale", "solver.nehari_scale"),
    ("solver", "energy", "solver.energy"),
    ("solver", "solve_banded", "solver.solve_banded"),
    ("solver", "f_eval", "nonlinearity.f_eval"),
    ("solver", "F_eval", "nonlinearity.F_eval"),
]
CONFIG_SPANS = ("cli.load_config", "cli.load_config_file")


def _cpu(ru):
    return ru.ru_utime + ru.ru_stime


def install(tracer, modules, full, families):
    """Wrap the layer calls; trial families are kept for the probe check."""
    for attr, name in (("load_config", "cli.load_config"),
                       ("load_config_file", "cli.load_config_file")):
        tracer.wrap(modules["cli"], attr, name)

    def keep_family(idx, args, family):
        families.append((args[3], family))
        tracer.extra[idx] = (len(family), 0)

    tracer.wrap(modules["cli"], "make_trial_family", "probes.make_trial_family",
                on_return=keep_family)

    if not full:
        return

    def note_solve(idx, args, result):
        tracer.extra[idx] = (args[2].n, result[1].iterations)

    for mod in ("cli", "solver"):
        tracer.wrap(modules[mod], "solve_ground_state", "solver.solve_ground_state",
                    on_return=note_solve)
    for mod, attr, name in FULL:
        tracer.wrap(modules[mod], attr, name)


def run_lib(cli, solver, potentials, cases_path, setup_only):
    """Load the fine-mesh cases, then solve each one (unless setup_only)."""
    t0 = time.perf_counter()
    with open(cases_path) as fh:
        cases = json.load(fh)
    loaded = [(name, cli.load_config(cfg)) for name, cfg, _ in cases]
    config_s = time.perf_counter() - t0
    out = []
    if setup_only:
        return config_s, out
    for name, cfg in loaded:
        t0 = time.perf_counter()
        grid = solver.build_grid(cfg.r_min, cfg.r_max, cfg.n_nodes, cfg.dims)
        table = potentials.eval_potentials(cfg.spec_A, cfg.spec_V, cfg.spec_K, grid.nodes)
        try:
            u, rep = solver.solve_ground_state(
                table, cfg.solver_nonlinearity(), grid, tol=cfg.solve_tol,
                max_iter=cfg.max_iter, asym_origin=cfg.asym_origin,
                asym_infinity=cfg.asym_infinity)
        except (solver.NotConverged, solver.CollapsedToZero) as exc:
            out.append((name, None, f"{type(exc).__name__}: {exc}", 0.0))
        else:
            out.append((name, (u, rep), None, time.perf_counter() - t0))
    return config_s, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans")
    ap.add_argument("mode", choices=("cli", "lib", "setup"))
    ap.add_argument("rest", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    rest = args.rest[1:] if args.rest[:1] == ["--"] else args.rest

    t0 = time.perf_counter()
    import quasiradial.cli as cli
    import_s = time.perf_counter() - t0
    src = os.path.realpath(args.src)
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"quasiradial imported from {cli.__file__}, not from {src}")
    import quasiradial.nonlinearity as nonlinearity
    import quasiradial.potentials as potentials
    import quasiradial.probes as probes
    import quasiradial.solver as solver
    from tracer import Tracer

    tracer = Tracer()
    families = []
    install(tracer, {"cli": cli, "solver": solver, "potentials": potentials,
                     "probes": probes}, args.trace == 1, families)

    exit_code, solved, config_s = 0, [], 0.0
    if args.mode == "cli":
        exit_code = cli.main(rest)
        sys.stdout.flush()
    else:
        config_s, solved = run_lib(cli, solver, potentials, rest[0],
                                   args.mode == "setup")
    t_end = time.perf_counter()
    ru = resource.getrusage(resource.RUSAGE_SELF)

    # --- after the snapshot: nothing below is part of the measured work ---
    import numpy as np
    from checks import log_norm_p

    if args.mode == "cli":
        config_s = tracer.outer_total(*CONFIG_SPANS)
    out_dir = os.path.dirname(os.path.abspath(args.result))
    cases = []
    for name, res, err, seconds in solved:
        if err is not None:
            cases.append({"name": name, "error": err})
            continue
        u, rep = res
        np.save(os.path.join(out_dir, f"{name}.npy"), u.values)
        cases.append({"name": name, "report": rep.to_dict(), "seconds": seconds})
    defects = [{"end": end, "defects": [
        abs(log_norm_p(lp, fam.grid.nodes, fam.table.log_A, fam.table.log_V,
                       fam.grid.dims.N, fam.grid.dims.p))
        for lp in fam.log_profiles]} for end, fam in families]
    if args.trace and args.spans:
        tracer.dump(args.spans)
    cache = nonlinearity._rational_primitive_scalar.cache_info()
    ru_post = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "exit_code": exit_code,
        "import_s": import_s,
        "config_s": config_s,
        "maxrss_kb": ru.ru_maxrss,
        "minor_faults": ru.ru_minflt,
        "quad_hits": cache.hits,
        "quad_misses": cache.misses,
        "families": defects,
        "cases": cases,
        "post_cpu_s": _cpu(ru_post) - _cpu(ru),
        "post_s": time.perf_counter() - t_end,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
