"""Per-layer metrics from the spans of one traced pass.

A span's self time is its duration minus the durations of its direct
children; a layer's busy time sums its outermost spans only, so nested
calls inside the same layer are not counted twice.
"""

from __future__ import annotations

import numpy as np

EXPONENTS = ("exponents.q1_region_membership", "exponents.q1_admissible_set",
             "exponents.q2_lower_bound", "exponents.critical_exponents",
             "exponents.q_star", "exponents.q_double_star")
NONLINEARITY = ("nonlinearity.f_eval", "nonlinearity.F_eval")
PROBES = ("probes.probe_origin", "probes.probe_infinity")

# name -> unit, in the order they are reported
PER_LAYER = {
    "setup.import_s": "s",
    "cli.main_s": "s", "cli.self_s": "s", "cli.json_s": "s",
    "exponents.calls": "count", "exponents.s": "s",
    "potentials.tables": "count", "potentials.table_s": "s", "potentials.check_s": "s",
    "nonlinearity.f_calls": "count", "nonlinearity.F_calls": "count",
    "nonlinearity.s": "s", "nonlinearity.quadratures": "count",
    "nonlinearity.cache_hit_ratio": "1",
    "solver.solves": "count", "solver.solve_s": "s", "solver.iterations": "count",
    "solver.projections": "count", "solver.projection_s": "s",
    "solver.f_per_projection": "1", "solver.energy_evals": "count",
    "solver.energy_s": "s", "solver.banded_solves": "count", "solver.banded_s": "s",
    "solver.accepted_per_trial": "1", "solver.grid_s": "s", "solver.self_s": "s",
    "solver.s_per_node_iter": "s",
    "probes.families": "count", "probes.family_s": "s", "probes.kept_ratio": "1",
    "probes.probe_s": "s", "probes.logsumexp_calls": "count",
    "proc.minor_faults": "count",
    "trace.overhead_s": "s", "trace.spans": "count",
}


class Spans:
    """Spans of one process, as written by tracer.Tracer.dump."""

    def __init__(self, path):
        with np.load(path) as z:
            self.names = list(z["names"])
            self.parent = z["parent"]
            self.code = z["name"]
            self.dur = z["end"] - z["start"]
            self.extra = dict(zip(z["extra_idx"].tolist(), map(tuple, z["extra_val"].tolist())))
        has_parent = self.parent >= 0
        self.child_s = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                                   minlength=len(self.dur))

    def mask(self, *names):
        codes = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.code, codes)

    def outer(self, *names):
        """Spans of `names` whose parent is not one of `names`."""
        m = self.mask(*names)
        par = np.where(self.parent >= 0, self.parent, 0)
        return m & ~(m[par] & (self.parent >= 0))

    def extras(self, name):
        return [v for i, v in self.extra.items() if self.code[i] == self.names.index(name)] \
            if name in self.names else []


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def pass_metrics(spans: list, results: list) -> dict:
    """Per-layer metrics of one traced pass: the spans and the worker results
    of each of its processes."""
    tot = {k: 0.0 for k in PER_LAYER}
    nodes_iters = n_solved = 0
    kept = candidates = 0
    f_in_projection = 0
    trial_projections = 0
    for sp in spans:
        def s(*names):
            return float(sp.dur[sp.outer(*names)].sum())

        def n(*names):
            return int(sp.mask(*names).sum())

        main = sp.mask("cli.main")
        solve = sp.mask("solver.solve_ground_state")
        proj = sp.mask("solver.nehari_scale")
        tot["cli.main_s"] += s("cli.main")
        tot["cli.self_s"] += float((sp.dur[main] - sp.child_s[main]).sum())
        tot["cli.json_s"] += s("cli.canonical_json")
        tot["exponents.calls"] += int(sp.outer(*EXPONENTS).sum())
        tot["exponents.s"] += s(*EXPONENTS)
        tot["potentials.tables"] += n("potentials.eval_potentials")
        tot["potentials.table_s"] += s("potentials.eval_potentials")
        tot["potentials.check_s"] += s("potentials.validate_hypotheses")
        tot["nonlinearity.f_calls"] += n("nonlinearity.f_eval")
        tot["nonlinearity.F_calls"] += n("nonlinearity.F_eval")
        tot["nonlinearity.s"] += s(*NONLINEARITY)
        tot["solver.solves"] += int(solve.sum())
        tot["solver.solve_s"] += s("solver.solve_ground_state")
        solves = sp.extras("solver.solve_ground_state")
        tot["solver.iterations"] += sum(it for _, it in solves)
        nodes_iters += sum(nn * it for nn, it in solves)
        n_solved += len(solves)
        tot["solver.projections"] += int(proj.sum())
        tot["solver.projection_s"] += s("solver.nehari_scale")
        f = sp.mask("nonlinearity.f_eval")
        f_in_projection += int((f & (sp.parent >= 0) & proj[np.maximum(sp.parent, 0)]).sum())
        trial_projections += int((proj & solve[np.maximum(sp.parent, 0)]
                                  & (sp.parent >= 0)).sum()) - int(solve.sum())
        tot["solver.energy_evals"] += n("solver.energy")
        tot["solver.energy_s"] += s("solver.energy")
        tot["solver.banded_solves"] += n("solver.solve_banded")
        tot["solver.banded_s"] += s("solver.solve_banded")
        tot["solver.grid_s"] += s("solver.build_grid")
        tot["solver.self_s"] += float((sp.dur[solve] - sp.child_s[solve]).sum())
        tot["probes.families"] += n("probes.make_trial_family")
        tot["probes.family_s"] += s("probes.make_trial_family")
        kept += sum(k for k, _ in sp.extras("probes.make_trial_family"))
        tot["probes.probe_s"] += s(*PROBES)
        tot["probes.logsumexp_calls"] += n("probes.logsumexp")
        tot["trace.spans"] += len(sp.dur)
        candidates += n("probes.candidate_profile")
    tot["probes.kept_ratio"] = _ratio(kept, candidates)
    tot["solver.f_per_projection"] = _ratio(f_in_projection, tot["solver.projections"])
    # the last iteration of a converged solve only tests convergence
    tot["solver.accepted_per_trial"] = _ratio(tot["solver.iterations"] - n_solved,
                                              trial_projections)
    tot["solver.s_per_node_iter"] = _ratio(tot["solver.self_s"], nodes_iters)
    hits = sum(r["quad_hits"] for r in results)
    misses = sum(r["quad_misses"] for r in results)
    tot["nonlinearity.quadratures"] = misses
    tot["nonlinearity.cache_hit_ratio"] = _ratio(hits, hits + misses)
    tot["setup.import_s"] = sum(r["import_s"] for r in results)
    tot["proc.minor_faults"] = sum(r["minor_faults"] for r in results)
    return tot
