"""Correctness checks on quasiradial's outputs.

Every check returns a list of failure messages; an empty list is a pass.
Each compares an output with a computation made here, apart from the
program (exact thresholds, the shift-feasibility system, the log-norm of a
profile, the shooting oracle), or with a property the method must have
(energy bounds on the Nehari manifold, monotone probe curves, nonnegative
solutions vanishing at r_max).  None compares with stored program output.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

ORACLE_REL_TOL = 0.01       # |u(0) - u*(0)| / u*(0) for the unit benchmark
ENERGY_REL_SLACK = 1e-7     # energy-bound slack relative to ||u||^p, plus the gap
NORM_DEFECT_MAX = 1e-9      # |log ||u||^p| of a kept, normalised trial profile
MONOTONE_REL_SLACK = 1e-12  # rounding allowed between nested probe integrals


# ---------------------------------------------------------------------------
# Closed-form thresholds in exact arithmetic
# ---------------------------------------------------------------------------

def q_star(alpha, beta, gamma, N, p):
    """p (alpha - gamma beta + N) / (N - gamma); None on the pole gamma = N."""
    alpha, beta, gamma, N, p = map(Fraction, (alpha, beta, gamma, N, p))
    if gamma == N:
        return None
    return p * (alpha - gamma * beta + N) / (N - gamma)


def q_double_star(a, alpha, beta, gamma, N, p):
    """p (p alpha + (1 - p beta) gamma + p(N-1) + a) / (p(N-1) - (p-1) gamma + a)."""
    a, alpha, beta, gamma, N, p = map(Fraction, (a, alpha, beta, gamma, N, p))
    denom = p * (N - 1) - (p - 1) * gamma + a
    if denom == 0:
        return None
    return p * (p * alpha + (1 - p * beta) * gamma + p * (N - 1) + a) / denom


def _same(reported, exact, name):
    if exact is None:
        return [] if reported is None else [f"{name}: {reported} where the pole gives none"]
    if reported is None or abs(float(reported) - float(exact)) > 1e-12 * max(1.0, abs(float(exact))):
        return [f"{name}: reported {reported}, exact {exact}"]
    return []


def check_thresholds(name: str, doc: dict, config: dict) -> list:
    """Thresholds of an `example` document against the closed forms.

    Both endpoints' q_star and q_double_star and the q2 lower bound are
    recomputed from the benchmark's copy of the example's rates.  ex1 must
    give 8, 8 and the q1 lower bound 2; the ex2 formula layer (N=4, p=2,
    d=10) must give exactly 56/9 and 94/9.
    """
    fails = []
    if doc.get("config") != config:
        fails.append("example config differs from the benchmark's copy")
    N, p = config["dims"]["N"], config["dims"]["p"]
    thr = doc["region"]["thresholds"]
    for end in ("origin", "infinity"):
        r = config["asymptotics"][end]
        fails += _same(thr[end]["q_star"],
                       q_star(r["alpha"], r["beta"], r["gamma"], N, p), f"{end} q_star")
        fails += _same(thr[end]["q_double_star"],
                       q_double_star(r["a"], r["alpha"], r["beta"], r["gamma"], N, p),
                       f"{end} q_double_star")
    inf = config["asymptotics"]["infinity"]
    bound = max(Fraction(1), Fraction(p) * Fraction(inf["beta"]),
                q_star(inf["alpha"], inf["beta"], inf["gamma"], N, p),
                q_double_star(inf["a"], inf["alpha"], inf["beta"], inf["gamma"], N, p))
    fails += _same(doc["region"]["q2_lower_bound"], bound, "q2_lower_bound")
    if name == "ex1":
        org = config["asymptotics"]["origin"]
        lower = max(Fraction(1), Fraction(p) * Fraction(org["beta"]), Fraction(p),
                    q_star(org["alpha"], org["beta"], org["gamma"], N, p),
                    q_double_star(org["a"], org["alpha"], org["beta"], org["gamma"], N, p))
        if (thr["infinity"]["q_star"], thr["infinity"]["q_double_star"]) != (8.0, 8.0):
            fails.append(f"ex1 infinity thresholds {thr['infinity']} are not (8, 8)")
        if lower != 2 or doc["region"]["q1_interval"]["lower"] != 2.0:
            fails.append(f"ex1 q1 lower bound {doc['region']['q1_interval']['lower']} is not 2")
    else:
        qs = q_star(10, 0, Fraction(-1, 2), 4, 2)
        qss = q_double_star(-2, 10, 0, Fraction(-1, 2), 4, 2)
        layer = doc["formula_layer"]
        if (qs, qss) != (Fraction(56, 9), Fraction(94, 9)):
            fails.append(f"closed forms give {qs}, {qss}, not 56/9, 94/9")
        if layer["q_star_exact"] != [qs.numerator, qs.denominator] \
                or layer["q_double_star_exact"] != [qss.numerator, qss.denominator]:
            fails.append(f"formula layer {layer['q_star_exact']}, "
                         f"{layer['q_double_star_exact']} is not 56/9, 94/9")
        if not layer["q_double_star_gt_q_star"]:
            fails.append("formula layer does not order q_double_star above q_star")
    return fails


# ---------------------------------------------------------------------------
# Region raster against the shift-feasibility system
# ---------------------------------------------------------------------------

def raster_oracle(alpha, q, a, beta, gamma, N, p, n_xi=10001):
    """Feasibility of each (alpha, q) row on a xi grid over [0, 1 - beta].

    Returns (feasible, resolved): a row is resolved when the best margin of
    the system is farther from zero than the grid spacing and rounding can
    move it.
    """
    alpha = np.asarray(alpha, dtype=float)[:, None]
    q = np.asarray(q, dtype=float)[:, None]
    xi = np.linspace(0.0, 1.0 - beta, n_xi) if beta < 1.0 else np.zeros(1)
    beta_eff = beta + xi[None, :]
    D = p * (N - 1) - (p - 1) * gamma + a
    rhs = p * p * (alpha + xi[None, :] * gamma + N) \
        - p * beta_eff * ((p - 1) * gamma + p - a)
    # the box constraints on beta_eff are closed and free of q; the two
    # q-dependent ones are strict, so their margin decides resolution
    box = (beta_eff >= 1.0 / p - 1e-12) & (beta_eff <= 1.0 + 1e-12)
    strict = np.minimum(q - p * beta_eff, rhs - D * q)
    best = np.max(np.where(box, strict, -np.inf), axis=1)
    feasible = best > 0
    spacing = (1.0 - beta) / (n_xi - 1) if beta < 1.0 else 0.0
    slope = max(1.0, p, abs(p * p * gamma - p * ((p - 1) * gamma + p - a)))
    scale = 1.0 + np.abs(rhs).max(axis=1) + np.abs(D * q[:, 0])
    resolved = np.abs(best) > slope * spacing + 1e-9 * scale
    return feasible, resolved


def check_raster(rows: np.ndarray, origin: dict, N, p) -> list:
    """rows: (n, 3) array of alpha, q, member from the region-plot CSV."""
    if rows.ndim != 2 or rows.shape[1] != 3 or not len(rows):
        return ["raster has no rows"]
    fails = []
    member = rows[:, 2] == 1
    if not np.all((rows[:, 2] == 0) | member):
        fails.append("member column holds values other than 0 and 1")
    for lo in range(0, len(rows), 256):
        chunk = rows[lo:lo + 256]
        feasible, resolved = raster_oracle(chunk[:, 0], chunk[:, 1], origin["a"],
                                           origin["beta"], origin["gamma"], N, p)
        bad = np.flatnonzero(resolved & (feasible != member[lo:lo + 256]))
        for i in bad[:3]:
            a_, q_, m_ = chunk[i]
            fails.append(f"row alpha={a_:.6g} q={q_:.6g}: member={int(m_)}, "
                         f"shift system says {int(feasible[i])}")
        if len(bad) > 3:
            fails.append(f"... {len(bad) - 3} more rows disagree")
    return fails


# ---------------------------------------------------------------------------
# Solves
# ---------------------------------------------------------------------------

def energy_bounds(norm_p, p, q_lo, q_hi):
    """(1/p - 1/q_lo) ||u||^p <= E <= (1/p - 1/q_hi) ||u||^p on the Nehari
    manifold when q_lo F(t) <= f(t) t <= q_hi F(t)."""
    return (1.0 / p - 1.0 / q_lo) * norm_p, (1.0 / p - 1.0 / q_hi) * norm_p


def check_solve(rep: dict, u: np.ndarray, tol: float, p: float, q_lo: float,
                q_hi: float, u0_star: float | None = None) -> list:
    """Properties every returned ground state must have.

    rep holds the solve report's energy, norm_X_p, residual and nehari_gap;
    u the nodal values.  With u0_star, u(0) must match the shooting oracle.
    """
    fails = []
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)) or np.min(u) < 0.0:
        fails.append(f"u has negative or non-finite values (min {np.min(u):.3g})")
    if u[-1] != 0.0:
        fails.append(f"u(r_max) = {u[-1]:.3g}, not 0")
    if not np.max(u) > 0.0:
        fails.append("u is identically zero")
    for key in ("residual", "nehari_gap"):
        if not rep[key] <= tol:
            fails.append(f"{key} {rep[key]:.3g} above tol {tol:g}")
    norm_p, energy = rep["norm_X_p"], rep["energy"]
    lo, hi = energy_bounds(norm_p, p, q_lo, q_hi)
    slack = (ENERGY_REL_SLACK + abs(rep["nehari_gap"])) * abs(norm_p)
    if not (lo - slack <= energy <= hi + slack):
        fails.append(f"energy {energy:.12g} outside [{lo:.12g}, {hi:.12g}]")
    if u0_star is not None:
        rel = oracle_rel_err(u[0], u0_star)
        if not rel <= ORACLE_REL_TOL:
            fails.append(f"u(0) = {u[0]:.6g} misses the oracle {u0_star:.6g} "
                         f"by {rel:.2e} relative")
    return fails


def oracle_rel_err(u0, u0_star):
    return abs(u0 - u0_star) / u0_star


def check_nonincreasing(values, label: str) -> list:
    values = list(values)
    for x, y in zip(values, values[1:]):
        if y > x:
            return [f"{label} increases: {values}"]
    return []


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------

def _logsumexp(x):
    x = np.asarray(x, dtype=float)
    m = np.max(x) if len(x) else -np.inf
    if not np.isfinite(m):
        return m
    return m + math.log(np.sum(np.exp(x - m)))


def log_norm_p(log_u, nodes, log_A, log_V, N, p):
    """log ||u||^p of a profile given by nodal log-values.

    Gradient term on cells with the geometric-mean A, mass term with nodal
    V, both against omega_{N-1} r^(N-1) dr integrated exactly per cell.
    """
    log_u = np.asarray(log_u, dtype=float)
    cell = 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0) * np.diff(nodes ** N) / N
    w = np.zeros(len(nodes))
    w[:-1] += 0.5 * cell
    w[1:] += 0.5 * cell
    hi = np.maximum(log_u[1:], log_u[:-1])
    lo = np.minimum(log_u[1:], log_u[:-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_du = np.where(hi == lo, -np.inf, hi + np.log(-np.expm1(lo - hi))) \
            - np.log(np.diff(nodes))
        grad = 0.5 * (log_A[:-1] + log_A[1:]) + p * log_du + np.log(cell)
        mass = np.log(w) + log_V + p * log_u
    terms = np.concatenate([grad, mass])
    return _logsumexp(terms[~np.isneginf(terms)])


def check_probe(end: str, probe: dict, defects: list) -> list:
    """A probe curve: monotone in R, built from normalised profiles, and a
    'decays' verdict that rests on a nonempty family with a positive sample."""
    fails = []
    values = [v for _, v in sorted(probe["samples"])]
    if end == "origin":
        values = values[::-1]  # nondecreasing in R: nonincreasing toward 0
    for x, y in zip(values, values[1:]):
        if y > x * (1.0 + MONOTONE_REL_SLACK):
            fails.append(f"{end} curve is not monotone in R: {probe['samples']}")
            break
    if len(defects) != probe["family_size"]:
        fails.append(f"{end}: {len(defects)} profiles seen, family_size "
                     f"{probe['family_size']}")
    worst = max(defects, default=0.0)
    if not worst <= NORM_DEFECT_MAX:
        fails.append(f"{end}: kept profile with norm defect {worst:.3g}")
    if probe["verdict"] == "decays" and (probe["family_size"] == 0
                                         or not max(values, default=0.0) > 0.0):
        fails.append(f"{end}: verdict 'decays' from an empty family or all-zero "
                     f"samples (family_size {probe['family_size']})")
    return fails
