"""Benchmark of quasiradial: three closed-loop workloads, checked outputs.

    python3 perfbench/run.py --workload examples|fine_mesh|sweep \
        --seed N --seconds S --trace 0|1

Run from the repository root.  One client runs one operation at a time,
each in a fresh interpreter started on `src/` (see worker.py), and repeats
whole passes over the workload's operations until another pass would end
after `--seconds`.  The seed orders the operations of each pass; it changes
no input value, so energies and oracle errors repeat exactly.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: with --trace 0 the end-to-end metrics
(medians over the passes), with --trace 1 the per-layer metrics of traced
passes, each run alternating with an untraced pass to give the tracing
overhead.  Spans of the last traced pass are kept in .perfbench_out/.
See perfbench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs
import layers
import oracle

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PROC_TIMEOUT_S = 170
RUN_LIMIT_S = 150          # no new pass starts after this, whatever --seconds says
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

# Operations that fail today because of named faults in the program.  They
# count in `failed` and leave `correct` true; any other failure makes it false.
KNOWN_FAULTS = {
    # the stopping rule loosens as the mesh is refined: both report
    # convergence but miss the shooting oracle by 2.2e-2 and 1.8e-1
    "fine_mesh": {"unit_20000", "unit_100000"},
    # empty infinity trial family, all-zero samples, verdict "decays"
    "examples": {"ex2_I.probe_infinity", "ex2_II.probe_infinity",
                 "ex2_III.probe_infinity"},
    "sweep": set(),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "oracle_rel_err": "1", "ground_energy_sum": "1"}


# ---------------------------------------------------------------------------
# Operations and their checks
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """Checked operations of one step, plus the values metrics are made of."""

    fails: dict = field(default_factory=dict)      # op name -> failure list
    energies: list = field(default_factory=list)
    oracle_errs: list = field(default_factory=list)

    def op(self, name, fails):
        self.fails[name] = list(fails)

    def solve(self, name, rep, u_path, cfg, u0_star=None):
        """One ground-state solve: its report and the CSV or .npy of u."""
        if "error" in rep:
            self.op(name, [f"solve failed: {rep['error']}: {rep.get('detail')}"])
            return
        u = np.load(u_path) if u_path.suffix == ".npy" else \
            np.loadtxt(u_path, delimiter=",", skiprows=1)[:, 1]
        nl = cfg["nonlinearity"]
        q_lo, q_hi = (nl["q1"], nl["q2"]) if nl["kind"] == "rational" \
            else sorted((nl["q1"], nl["q2"]))
        self.op(name, checks.check_solve(rep, u, cfg["tolerances"]["solve_tol"],
                                         cfg["dims"]["p"], q_lo, q_hi, u0_star))
        self.energies.append(rep["energy"])
        if u0_star is not None:
            self.oracle_errs.append(checks.oracle_rel_err(u[0], u0_star))


@dataclass
class Step:
    """One process of a pass: a CLI command, or the library solves."""

    name: str
    mode: str                 # "cli" or "lib"
    argv: list                # "{out}" stands for the step's output directory
    ops: list                 # the operation names its check reports
    check: Callable           # (out_dir, worker result, Outcome) -> None


def _stdout_doc(out):
    return json.loads((out / "stdout.txt").read_text())


def _exit_ok(res):
    return [] if res["exit_code"] == 0 else [f"exit code {res['exit_code']}"]


def _with_q(cfg, key, value):
    """cfg as `solve --sweep key=...` runs it at one value."""
    cfg = copy.deepcopy(cfg)
    if key in ("q", "q1"):
        cfg["nonlinearity"]["q1"] = value
    if key in ("q", "q2"):
        cfg["nonlinearity"]["q2"] = value
    return cfg


def _ex2_I_at_d(d):
    """ex2_I as `example ex2_I --sweep d=...` runs it at one d."""
    cfg = inputs.example_config("ex2_I")
    cfg["potentials"]["K"]["args"][0]["e"] = d
    cfg["asymptotics"]["infinity"]["alpha"] = d
    return cfg


def example_step(name):
    cfg = inputs.example_config(name)
    ends = ("origin", "infinity")

    def check(out, res, o):
        doc = _stdout_doc(out)
        defects = {f["end"]: f["defects"] for f in res["families"]}
        o.op(f"{name}.thresholds", checks.check_thresholds(name, doc, cfg))
        o.op(f"{name}.check", [] if doc["check"]["passed"] else
             [f"hypothesis check failed: {doc['check']['checks']}"])
        for end in ends:
            o.op(f"{name}.probe_{end}",
                 checks.check_probe(end, doc["probe"][end], defects.get(end, [])))
        o.solve(f"{name}.solve", doc["solve"], out / f"{name}_solution.csv", cfg)
        o.fails[f"{name}.solve"] += _exit_ok(res)

    ops = [f"{name}.{k}" for k in ("thresholds", "check", "probe_origin",
                                    "probe_infinity", "solve")]
    return Step(f"example_{name}", "cli", ["example", name, "--out", "{out}"], ops, check)


def region_plot_step(ex1_path):
    origin = inputs.example_config("ex1")["asymptotics"]["origin"]

    def check(out, res, o):
        rows = np.loadtxt(out / "region_plot.csv", delimiter=",", skiprows=1, ndmin=2)
        fails = _exit_ok(res)
        if len(rows) != 64 * 64:
            fails.append(f"{len(rows)} rows, expected 64 x 64")
        o.op("region_plot.raster", fails + checks.check_raster(rows, origin, 4, 2.0))

    return Step("region_plot", "cli", ["region-plot", "--config", ex1_path, "--out", "{out}"],
                ["region_plot.raster"], check)


def unit_solve_step(unit_path, u0_star):
    def check(out, res, o):
        o.solve("unit_2000.solve", _stdout_doc(out), out / "solution.csv",
                inputs.unit_config(), u0_star)
        o.fails["unit_2000.solve"] += _exit_ok(res)

    return Step("unit_solve", "cli", ["solve", "--force", "--config", unit_path,
                                      "--out", "{out}"], ["unit_2000.solve"], check)


def sweep_step(name, argv, values, cfg_for, prefix, u0_for=None, monotone=False):
    """A `--sweep` command; each value's solve is one operation.

    cfg_for(value): the configuration that value's solve ran;
    u0_for: the value whose solve is the unit benchmark (oracle-checked);
    monotone: energies must not increase along the values (ex2_I over d).
    """
    labels = [f"{v:g}" for v in values]
    ops = [f"{name}.{lab}" for lab in labels] + ([f"{name}.monotone"] if monotone else [])

    def check(out, res, o):
        doc = _stdout_doc(out)
        results = doc["results"]
        energies = []
        for v, lab in zip(values, labels):
            rep = results[lab].get("solve", results[lab])
            o.solve(f"{name}.{lab}", rep, out / f"{prefix}{lab}.csv", cfg_for(v),
                    u0_for[1] if u0_for and u0_for[0] == v else None)
            o.fails[f"{name}.{lab}"] += _exit_ok(res)
            energies.append(rep.get("energy", float("nan")))
        if set(results) != set(labels):
            o.fails[ops[0]].append(f"sweep values {sorted(results)}, expected {labels}")
        if monotone:
            o.op(f"{name}.monotone", checks.check_nonincreasing(energies, "energy over d"))

    return Step(name, "cli", argv, ops, check)


def lib_step(cases_path, cases, u0_star):
    def check(out, res, o):
        by_name = {c["name"]: c for c in res["cases"]}
        for name, cfg, use_oracle in cases:
            case = by_name[name]
            rep = case.get("report") or {"error": case.get("error")}
            o.solve(name, rep, out / f"{name}.npy", cfg, u0_star if use_oracle else None)

    return Step("fine_mesh", "lib", [cases_path], [c[0] for c in cases], check)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    build: Callable           # (inputs dir, rng, u0_star) -> steps of one pass
    # extra processes per pass that only import and load the first step's
    # inputs, so a one-process workload still gets a median set-up time
    setup_repeats: int = 0


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def examples_steps(d, rng, u0):
    steps = [example_step(n) for n in ("ex1", "ex2_I", "ex2_II", "ex2_III")]
    steps += [region_plot_step(_write(d / "ex1.json", inputs.example_config("ex1"))),
              unit_solve_step(_write(d / "unit.json", inputs.unit_config()), u0)]
    rng.shuffle(steps)
    return steps


def fine_mesh_steps(d, rng, u0):
    cases = list(inputs.FINE_MESH_CASES)
    rng.shuffle(cases)
    return [lib_step(_write(d / "cases.json", cases), cases, u0)]


def sweep_steps(d, rng, u0):
    ex1 = _write(d / "ex1.json", inputs.example_config("ex1"))
    rat = _write(d / "ex1_rational.json", inputs.ex1_rational())
    unit = _write(d / "unit.json", inputs.unit_config())
    steps = [
        sweep_step("rational_q2", ["solve", "--config", rat, "--out", "{out}",
                                   "--sweep", "q2=9:10:0.5"],
                   [9.0, 9.5, 10.0], lambda v: _with_q(inputs.ex1_rational(), "q2", v),
                   "solution_q2_"),
        sweep_step("ex1_q", ["solve", "--config", ex1, "--out", "{out}",
                             "--sweep", "q=8.5:10.5:0.5"],
                   [8.5, 9.0, 9.5, 10.0, 10.5],
                   lambda v: _with_q(inputs.example_config("ex1"), "q", v), "solution_q_"),
        sweep_step("ex2_I_d", ["example", "ex2_I", "--out", "{out}", "--sweep", "d=10:14:1"],
                   [10.0, 11.0, 12.0, 13.0, 14.0], _ex2_I_at_d, "ex2_I_d_", monotone=True),
        sweep_step("unit_q", ["solve", "--force", "--config", unit, "--out", "{out}",
                              "--sweep", "q=4:5:0.5"],
                   [4.0, 4.5, 5.0], lambda v: _with_q(inputs.unit_config(), "q", v),
                   "solution_q_", u0_for=(4.0, u0)),
    ]
    rng.shuffle(steps)
    return steps


WORKLOADS = {
    "examples": Workload(examples_steps),
    "fine_mesh": Workload(fine_mesh_steps, setup_repeats=4),
    "sweep": Workload(sweep_steps),
}


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    result: dict | None
    error: str = ""


def launch(mode, argv, out, trace) -> Proc:
    out.mkdir(parents=True, exist_ok=True)
    res_path = out / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
           "--result", str(res_path), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(out / "spans.npz")]
    cmd += [mode, "--"] + [a.replace("{out}", str(out)) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(SRC), **CHILD_ENV)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=env, cwd=ROOT)
        try:
            rc = proc.wait(timeout=PROC_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{' '.join(argv)} ran longer than {PROC_TIMEOUT_S} s")
        wall = time.monotonic() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    if rc != 0 or not res_path.is_file():
        tail = (out / "stderr.txt").read_text(errors="replace")[-800:]
        return Proc(wall, cpu, None, f"worker exit {rc}: {tail}")
    res = json.loads(res_path.read_text())
    return Proc(wall - res["post_s"], cpu - res["post_cpu_s"], res)


@dataclass
class Pass:
    wall_s: float
    setup_s: float
    cpu_s: float
    peak_rss_mb: float
    energies: list
    oracle_errs: list
    fails: dict
    layer: dict | None = None


def run_pass(workload, build_dir, pass_dir, trace, rng, u0) -> Pass:
    steps = workload.build(build_dir, rng, u0)
    setups = []
    for k in range(workload.setup_repeats):
        p = launch("setup", steps[0].argv, pass_dir / f"setup{k}", 0)
        if p.result is None:
            raise RuntimeError(p.error)
        setups.append(p.result["import_s"] + p.result["config_s"])
    procs = [launch(s.mode, s.argv, pass_dir / s.name, trace) for s in steps]
    outcome = Outcome()
    for step, p in zip(steps, procs):
        try:
            if p.result is None:
                raise RuntimeError(p.error)
            step.check(pass_dir / step.name, p.result, outcome)
        except Exception:  # a broken output fails the step's ops, not the run
            err = traceback.format_exc(limit=3)
            for op in step.ops:
                outcome.fails.setdefault(op, []).append(err)
        for op in step.ops:
            outcome.fails.setdefault(op, ["no result"])
    ok = [p.result for p in procs if p.result is not None]
    setup = sum(r["import_s"] + r["config_s"] for r in ok)
    if setups:
        setup = statistics.median(setups + [setup])
    res = Pass(
        wall_s=sum(p.wall_s for p in procs),
        setup_s=setup,
        cpu_s=sum(p.cpu_s for p in procs),
        peak_rss_mb=max((r["maxrss_kb"] for r in ok), default=0) / 1024.0,
        energies=outcome.energies, oracle_errs=outcome.oracle_errs,
        fails=outcome.fails)
    cases = " ".join(f"{c['name']}={c.get('seconds', 0):.3f}" for r in ok for c in r["cases"])
    print(f"{pass_dir.name}: wall {res.wall_s:.3f} s, setup {res.setup_s:.3f} s, "
          f"cpu {res.cpu_s:.3f} s {cases}", file=sys.stderr)
    if trace:
        spans = [layers.Spans(pass_dir / s.name / "spans.npz") for s, p in zip(steps, procs)
                 if p.result is not None]
        res.layer = layers.pass_metrics(spans, ok)
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "quasiradial" / "cli.py").is_file():
        print(f"no quasiradial sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    build_dir = work / "inputs"
    build_dir.mkdir(parents=True)
    rng = random.Random(args.seed)
    u0 = oracle.ground_state_center()   # outside every timed region
    plain, traced = [], []
    try:
        t_begin = time.monotonic()
        while True:
            t_round = time.monotonic()
            k = len(plain)
            plain.append(run_pass(workload, build_dir, work / f"pass{k}", 0, rng, u0))
            if args.trace:
                traced.append(run_pass(workload, build_dir, work / f"trace{k}", 1, rng, u0))
            now = time.monotonic()
            if now - t_begin + (now - t_round) > min(args.seconds, RUN_LIMIT_S):
                break
        if args.trace:
            keep = OUT / f"trace-{args.workload}"
            shutil.rmtree(keep, ignore_errors=True)
            shutil.copytree(work / f"trace{len(traced) - 1}", keep,
                            ignore=shutil.ignore_patterns("*.csv", "*.npy"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = plain + traced
    known = KNOWN_FAULTS[args.workload]
    attempted = sum(len(p.fails) for p in passes)
    failed = sum(1 for p in passes for f in p.fails.values() if f)
    unexpected = sorted({op for p in passes for op, f in p.fails.items() if f and op not in known})
    for p in passes:
        for op, f in p.fails.items():
            if f and op in unexpected:
                print(f"FAILED {op}: {'; '.join(f)}", file=sys.stderr)
    for op in sorted({op for p in passes for op, f in p.fails.items() if f and op in known}):
        print(f"known fault {op}: {'; '.join(passes[0].fails[op])}", file=sys.stderr)

    med = statistics.median
    if args.trace:
        metrics = {name: med(p.layer[name] for p in traced)
                   for name in layers.PER_LAYER}
        metrics["trace.overhead_s"] = med(p.wall_s for p in traced) - med(p.wall_s for p in plain)
        units = layers.PER_LAYER
    else:
        errs = [e for p in plain for e in p.oracle_errs]
        metrics = {
            "wall_s": med(p.wall_s for p in plain),
            "setup_s": med(p.setup_s for p in plain),
            "cpu_s": med(p.cpu_s for p in plain),
            "peak_rss_mb": med(p.peak_rss_mb for p in plain),
            "oracle_rel_err": max(errs) if errs else float("nan"),
            # fsum: exact, so the shuffled order leaves no trace in the digits
            "ground_energy_sum": med(math.fsum(p.energies) for p in plain),
        }
        units = END_TO_END
    print(f"{len(plain)} passes, {attempted} operations, {failed} failed "
          f"({len(unexpected)} unexpected)", file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
