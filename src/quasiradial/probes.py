"""Finite trial-family probes of the small-ball and far-field suprema.

The probed quantities are suprema over the whole unit ball of the weighted
K-integral over a small ball (origin side) or a ball complement (infinity
side); they are not computable.  The probe evaluates the integral on a family
of normalized cutoff power profiles swept around the pointwise-decay rate, so
every probe value is a certified lower bound, and the per-decade decay of the
curve illustrates (not proves) the compactness criterion.

All amplitudes are handled in log space: profiles normalized against
potentials like e^{1/r} have values far below the floating-point range, while
their probe integrals remain representable.  Profiles whose norm concentrates
in the grid's edge region are truncation artifacts (they approximate no
unit-ball member) and are filtered out of the family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solver import RadialGrid
from .potentials import PotentialTable


class TooFewSamples(ValueError):
    """A decay verdict needs at least three probe samples."""


def logsumexp(a, axis):
    """log(sum(exp(a))) over axis (every axis when None), by the formula of
    scipy.special.logsumexp: the largest term is taken out of the sum and
    added back through log1p.  Where that is not finite (a row of -inf, or
    an infinite entry) the direct log(sum(exp(a))) is returned."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if axis is None:
        axis = tuple(range(a.ndim))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True, initial=-np.inf)
        at_max = a == a_max
        m = np.sum(at_max, axis=axis, keepdims=True, dtype=float)
        s = np.sum(np.exp(np.where(at_max, -np.inf, a) - a_max), axis=axis, keepdims=True)
        out = np.log1p(np.where(s == 0, s, s / m)) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if np.any(bad):
            out = np.where(bad, np.log(np.sum(np.exp(a), axis=axis, keepdims=True)), out)
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def _log_abs_diff(la, lb):
    """log |e^la - e^lb| computed stably; -inf when the two coincide."""
    hi = np.maximum(la, lb)
    lo = np.minimum(la, lb)
    with np.errstate(invalid="ignore", divide="ignore"):
        gap = np.where(hi == lo, -np.inf, np.log1p(-np.exp(np.minimum(lo - hi, -1e-300))))
        out = hi + gap
    return np.where(np.isneginf(hi), -np.inf, out)


def _log_norm_terms(log_u, grid: RadialGrid, table: PotentialTable):
    """log of each gradient-cell and mass-node term of ||u||^p.

    log_u holds nodal log-values of one profile (1-D) or of a block of
    profiles (one per row); the cell terms and then the node terms are
    concatenated along the last axis.
    """
    p = grid.dims.p
    log_du = _log_abs_diff(log_u[..., 1:], log_u[..., :-1]) - np.log(grid.dr)
    grad_terms = table.log_A_cell + p * log_du + np.log(grid.cell_measure)
    with np.errstate(divide="ignore"):
        log_w = np.log(grid.quad_weights)
    mass_terms = log_w + table.log_V + p * log_u
    return np.concatenate([grad_terms, mass_terms], axis=-1)


def _log_norm_p(log_u, grid: RadialGrid, table: PotentialTable):
    """log of ||u||^p for a profile (a float) or a block of rows (an array)."""
    return logsumexp(_log_norm_terms(log_u, grid, table), axis=-1)


@dataclass
class TrialFamily:
    """Normalized cutoff power profiles: nodal log-values, one row each."""

    grid: RadialGrid
    table: PotentialTable
    log_profiles: np.ndarray
    nus: list
    cuts: list

    def __len__(self):
        return len(self.log_profiles)

    def norm_defects(self):
        """|log ||u||^p| per profile; all ~0 since profiles are normalized."""
        return np.abs(_log_norm_p(self.log_profiles, self.grid, self.table)).tolist()


def _raw_log_profile(grid, nu, cut_lo, cut_hi):
    """log of min(1, r^-nu) ramped in above cut_lo and tapered to 0 at cut_hi.

    The outer taper spans half a decade so the profile reaches zero smoothly;
    a one-node drop at the Dirichlet boundary would put an artificial gradient
    spike into the norm.
    """
    log_r = np.log(grid.nodes)
    shape = np.minimum(0.0, -nu * log_r)
    chi = np.clip((log_r - math.log(cut_lo)) / math.log(2.0), 0.0, 1.0)
    if cut_hi is not None:
        half_decade = 0.5 * math.log(10.0)
        chi = np.minimum(
            chi, np.clip((math.log(cut_hi) - log_r) / half_decade, 0.0, 1.0))
    with np.errstate(divide="ignore"):
        log_chi = np.log(chi)
    vals = shape + log_chi
    vals[-1] = -np.inf
    return vals


def make_trial_family(grid: RadialGrid, table: PotentialTable, nu_center: float,
                      end: str, n_exponents: int = 16, n_cuts: int = 12) -> TrialFamily:
    """Build normalized profiles with decay rates swept around nu_center.

    Exponents sweep [0.5, 1.5] * nu_center (a symmetric band when the center
    is close to zero).  Origin families also sweep the inner cut radius so the
    small balls being probed contain profile mass; infinity families use a
    fixed moderate inner cut and reach to the outer truncation.

    A profile is dropped when more than a quarter of its norm sits
    where truncation bites: on the origin side the first half-decade (cut
    profiles vanish there, so only profiles genuinely reaching the edge
    register), on the infinity side the last full decade, since the outer
    taper itself occupies the final half-decade.  Normalizing shifts every
    log-term by the same constant, so the fraction is read from the raw terms.
    """
    if abs(nu_center) > 1e-9:
        nus = np.linspace(0.5 * nu_center, 1.5 * nu_center, n_exponents)
    else:
        nus = np.linspace(-0.5, 0.5, n_exponents)
    r_min, r_max = grid.nodes[0], grid.nodes[-1]
    if end == "origin":
        # inner cuts start clear of the edge half-decade the artifact filter
        # watches, and sweep up so every probed ball contains profile mass
        cuts = np.logspace(math.log10(5.0 * r_min), math.log10(min(0.3, r_max / 10)),
                           n_cuts)
        cut_hi = min(5.0, r_max / 4.0)
        edge_nodes = grid.nodes <= r_min * math.sqrt(10.0)
    elif end == "infinity":
        cuts = np.array([min(0.3, r_max / 100.0)])
        cut_hi = r_max
        edge_nodes = grid.nodes >= r_max / 10.0
    else:
        raise ValueError(f"unknown end {end!r}")
    edge_terms = np.concatenate([edge_nodes[:-1] | edge_nodes[1:], edge_nodes])
    profiles = np.empty((len(nus) * len(cuts), grid.n))
    kept_nus, kept_cuts = [], []
    for nu in nus:
        raw = np.array([_raw_log_profile(grid, nu, cut, cut_hi) for cut in cuts])
        terms = _log_norm_terms(raw, grid, table)
        log_np = logsumexp(terms, axis=-1)
        with np.errstate(invalid="ignore"):
            edge_fraction = np.exp(logsumexp(terms[:, edge_terms], axis=-1) - log_np)
        keep = np.isfinite(log_np) & ~(edge_fraction > 0.25)
        at, n_kept = len(kept_nus), int(keep.sum())
        profiles[at:at + n_kept] = raw[keep] - (log_np[keep] / grid.dims.p)[:, None]
        kept_nus += [float(nu)] * n_kept
        kept_cuts += cuts[keep].tolist()
    return TrialFamily(grid, table, profiles[:len(kept_nus)], kept_nus, kept_cuts)


@dataclass
class ProbeCurve:
    """Lower-bound probe values of one supremum at several radii."""

    q: float
    end: str
    samples: list          # list of (R, value)
    log_values: list       # matching log values, safe against underflow


_PROBE_ROWS = 16  # profiles per logsumexp call; bounds the temporaries


def _probe(table, q, R_list, family, end):
    if q <= 1:
        raise ValueError("probe exponent must exceed 1")
    nodes = family.grid.nodes
    with np.errstate(divide="ignore"):
        base = np.log(family.grid.quad_weights) + table.log_K
    samples, logs = [], []
    for R in sorted(R_list):
        # the ball is a prefix (origin) or a suffix (infinity) of the nodes
        if end == "origin":
            ball = slice(0, np.searchsorted(nodes, R, side="right"))
        else:
            ball = slice(np.searchsorted(nodes, R, side="left"), len(nodes))
        best = -math.inf
        if ball.stop > ball.start:
            for at in range(0, len(family), _PROBE_ROWS):
                rows = family.log_profiles[at:at + _PROBE_ROWS, ball]
                best = max(best, float(np.max(logsumexp(base[ball] + q * rows, axis=1))))
        with np.errstate(over="ignore"):
            samples.append((float(R), float(np.exp(best))))
        logs.append(best)
    return ProbeCurve(q=float(q), end=end, samples=samples, log_values=logs)


def probe_origin(table: PotentialTable, q: float, R_list, family: TrialFamily) -> ProbeCurve:
    """Family maximum of the K-weighted q-integral over balls of radius R.

    Nondecreasing in R by integral monotonicity on the fixed family.
    """
    return _probe(table, q, R_list, family, "origin")


def probe_infinity(table: PotentialTable, q: float, R_list, family: TrialFamily) -> ProbeCurve:
    """Family maximum of the K-weighted q-integral over ball complements.

    Nonincreasing in R on the fixed family.
    """
    return _probe(table, q, R_list, family, "infinity")


def decay_verdict(curve: ProbeCurve, threshold: float) -> str:
    """'decays' when every successive per-decade ratio toward the limit is
    below the threshold, else 'stalls'; 'inconclusive' when no sample has a
    finite log value (an empty family probes nothing)."""
    if len(curve.samples) < 3:
        raise TooFewSamples("need at least three samples for a verdict")
    if not any(math.isfinite(lv) for lv in curve.log_values):
        return "inconclusive"
    rs = [s[0] for s in curve.samples]
    logs = list(curve.log_values)
    if curve.end == "origin":
        rs, logs = rs[::-1], logs[::-1]  # march toward the origin
    for (r1, l1), (r2, l2) in zip(zip(rs, logs), zip(rs[1:], logs[1:])):
        decades = abs(math.log10(r2 / r1))
        if decades == 0:
            continue
        if l1 == -math.inf and l2 == -math.inf:
            continue  # both below the floor: already decayed
        if l1 == -math.inf:
            return "stalls"
        per_decade = math.exp((l2 - l1) / decades)
        if not per_decade < threshold:
            return "stalls"
    return "decays"
