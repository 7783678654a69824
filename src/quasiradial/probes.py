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
        e = np.where(at_max, -np.inf, a)
        e -= a_max
        s = np.sum(np.exp(e, out=e), axis=axis, keepdims=True)
        out = np.log1p(np.where(s == 0, s, s / m)) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if np.any(bad):
            out = np.where(bad, np.log(np.sum(np.exp(a), axis=axis, keepdims=True)), out)
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def _log_abs_diff(la, lb, out):
    """log |e^la - e^lb| computed stably into out; -inf where the two coincide."""
    with np.errstate(invalid="ignore", divide="ignore"):
        gap = np.subtract(la, lb)
        np.negative(np.abs(gap, out=gap), out=gap)  # lo - hi
        np.minimum(gap, -1e-300, out=gap)
        np.negative(np.exp(gap, out=gap), out=gap)
        np.log1p(gap, out=gap)
        np.copyto(gap, -np.inf, where=la == lb)
        np.maximum(la, lb, out=out)
        out += gap
    return out


def _log_norm_terms(log_u, grid: RadialGrid, table: PotentialTable, out):
    """log of each gradient-cell and mass-node term of ||u||^p, written into out.

    log_u holds nodal log-values of one profile (1-D) or of a block of
    profiles (one per row); out holds the n - 1 cell terms and then the n
    node terms along its last axis.
    """
    p = grid.dims.p
    n = log_u.shape[-1]
    grad, mass = out[..., :n - 1], out[..., n - 1:]
    _log_abs_diff(log_u[..., 1:], log_u[..., :-1], grad)
    grad -= np.log(grid.dr)
    grad *= p
    grad += table.log_A_cell
    grad += np.log(grid.cell_measure)
    with np.errstate(divide="ignore"):
        log_w = np.log(grid.quad_weights)
    np.multiply(log_u, p, out=mass)
    mass += log_w + table.log_V
    return out


def _log_norm_p(log_u, grid: RadialGrid, table: PotentialTable):
    """log of ||u||^p for a profile (a float) or a block of rows (an array)."""
    out = np.empty(log_u.shape[:-1] + (2 * log_u.shape[-1] - 1,))
    return logsumexp(_log_norm_terms(log_u, grid, table, out), axis=-1)


@dataclass
class TrialFamily:
    """Normalized cutoff power profiles, stored as separable factors.

    Kept row k has the nodal log-values
    shapes[nu_index[k]] + log_chis[cut_index[k]] - shifts[k]: the shape
    log min(1, r^-nu) of its exponent, the log of its cutoff, and
    log ||raw||^p / p of the unnormalized profile.  nus and cuts give each
    kept row's exponent and inner cut radius.
    """

    grid: RadialGrid
    table: PotentialTable
    shapes: np.ndarray
    log_chis: np.ndarray
    nu_index: np.ndarray
    cut_index: np.ndarray
    shifts: np.ndarray
    nus: list
    cuts: list

    def __len__(self):
        return len(self.shifts)

    def rows(self, at: slice, nodes: slice):
        """Log-values of the kept rows `at` on the nodes `nodes`, as a new array."""
        out = self.shapes[self.nu_index[at], nodes]
        out += self.log_chis[self.cut_index[at], nodes]
        out -= self.shifts[at, None]
        return out

    @property
    def log_profiles(self):
        """Every kept row at every node, assembled as one dense array."""
        return self.rows(slice(None), slice(None))


def _log_cutoffs(log_r, cuts, cut_hi):
    """log chi per inner cut, one row each: chi ramps in over the octave above
    the cut, tapers to 0 at cut_hi and is 0 at the outer truncation node.

    The outer taper spans half a decade so the profile reaches zero smoothly;
    a one-node drop at the Dirichlet boundary would put an artificial gradient
    spike into the norm.
    """
    # math.log, not np.log: the two can differ in the last bit
    log_cuts = np.array([[math.log(cut)] for cut in cuts])
    chi = np.clip((log_r - log_cuts) / math.log(2.0), 0.0, 1.0)
    half_decade = 0.5 * math.log(10.0)
    np.minimum(chi, np.clip((math.log(cut_hi) - log_r) / half_decade, 0.0, 1.0), out=chi)
    with np.errstate(divide="ignore"):
        np.log(chi, out=chi)
    chi[:, -1] = -np.inf
    return chi


def _raw_log_profile(shape, log_chis, out):
    """The unnormalized log-profiles of one exponent, one row per cut: its
    shape log min(1, r^-nu) plus each cut's log chi, written into out."""
    return np.add(shape, log_chis, out=out)


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

    Each exponent's candidates are normalized as one block, in buffers that
    every block reuses.
    """
    if abs(nu_center) > 1e-9:
        nus = np.linspace(0.5 * nu_center, 1.5 * nu_center, n_exponents)
    else:
        nus = np.linspace(-0.5, 0.5, n_exponents)
    nodes, n = grid.nodes, grid.n
    r_min, r_max = nodes[0], nodes[-1]
    # the edge nodes are a prefix (origin) or a suffix (infinity) and the
    # edge cells those with an edge node at either end; both are read from
    # the norm terms' columns, the cells' first
    if end == "origin":
        # inner cuts start clear of the edge half-decade the artifact filter
        # watches, and sweep up so every probed ball contains profile mass
        cuts = np.logspace(math.log10(5.0 * r_min), math.log10(min(0.3, r_max / 10)),
                           n_cuts)
        cut_hi = min(5.0, r_max / 4.0)
        k = int(np.searchsorted(nodes, r_min * math.sqrt(10.0), side="right"))
        edge_cells, edge_nodes = slice(0, min(k, n - 1)), slice(n - 1, n - 1 + k)
    elif end == "infinity":
        cuts = np.array([min(0.3, r_max / 100.0)])
        cut_hi = r_max
        k = int(np.searchsorted(nodes, r_max / 10.0, side="left"))
        edge_cells, edge_nodes = slice(max(k - 1, 0), n - 1), slice(n - 1 + k, 2 * n - 1)
    else:
        raise ValueError(f"unknown end {end!r}")
    log_r = np.log(nodes)
    shapes = np.minimum(0.0, -nus[:, None] * log_r)
    log_chis = _log_cutoffs(log_r, cuts, cut_hi)
    raw = np.empty((len(cuts), n))
    terms = np.empty((len(cuts), 2 * n - 1))
    nu_index, cut_index, shifts = [], [], []
    for i, shape in enumerate(shapes):
        _log_norm_terms(_raw_log_profile(shape, log_chis, raw), grid, table, terms)
        log_np = logsumexp(terms, axis=-1)
        edge = logsumexp(np.concatenate([terms[:, edge_cells], terms[:, edge_nodes]], axis=-1),
                         axis=-1)
        with np.errstate(invalid="ignore"):
            edge_fraction = np.exp(edge - log_np)
        keep = np.flatnonzero(np.isfinite(log_np) & ~(edge_fraction > 0.25))
        nu_index += [i] * len(keep)
        cut_index += keep.tolist()
        shifts += (log_np[keep] / grid.dims.p).tolist()
    return TrialFamily(grid, table, shapes, log_chis,
                       np.array(nu_index, dtype=np.intp), np.array(cut_index, dtype=np.intp),
                       np.array(shifts), [float(nus[i]) for i in nu_index],
                       [float(cuts[j]) for j in cut_index])


@dataclass
class ProbeCurve:
    """Lower-bound probe values of one supremum at several radii."""

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
                terms = family.rows(slice(at, at + _PROBE_ROWS), ball)
                terms *= q
                terms += base[ball]
                best = max(best, float(np.max(logsumexp(terms, axis=1))))
        with np.errstate(over="ignore"):
            samples.append((float(R), float(np.exp(best))))
        logs.append(best)
    return ProbeCurve(end=end, samples=samples, log_values=logs)


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
