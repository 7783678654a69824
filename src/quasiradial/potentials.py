"""Radial potential models and exact hypothesis checks.

Potentials are closed-form expression trees (powers, exponentials of 1/r,
min/max combinations, piecewise splices), each held as one closed form: its
log in s = log r, piecewise c + e s + k e^(-s).  The solver and the probes
read tables of these log-values, so factors like e^{1/r} stay usable where
the potentials overflow.  The hypothesis checks sample nothing: each checked
quantity is again such a piece list, whose sup on a piece lies at an end, at
s = log(k / e) or in the limit s -> +-inf.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from ._jsonio import _real
from .exponents import EndpointAsymptotics, ProblemDims, validate_endpoint, InvalidAsymptotics


class NonPositive(ValueError):
    """A potential has a negative or NaN parameter, or A or K is not positive."""


class DivisionByZeroV(ZeroDivisionError):
    """V vanishes on a set of positive length while beta > 0: the ratio sup is +inf."""


# ---------------------------------------------------------------------------
# Piecewise forms in s = log r: a piece (c, e, k) is c + e s + k e^(-s), and
# a piece list [(s_0, p_0), ...] holds p_j from s_j up to s_{j+1}, with
# s_0 = -inf.  The zero potential has c = -inf; an infinite c has no s terms.
# ---------------------------------------------------------------------------

def _log(x):
    return math.log(x) if x > 0 else -math.inf


def _exp(x):
    return math.exp(x) if x <= 709.782712893384 else math.inf  # log of the largest float


def _piece(c, e, k):
    return (c, 0.0, 0.0) if math.isinf(c) else (c, e, k)


def _value(p, s):
    """c + e s + k e^(-s) at s, or its limit where s is infinite."""
    c, e, k = p
    if s == -math.inf and k:
        return math.copysign(math.inf, k)
    if math.isinf(s):
        return c if e == 0 else math.copysign(math.inf, e * s)
    return c + e * s + k * _exp(-s) if k else c + e * s


def _end_exponent(pcs, end):
    """b with X ~ r^b as s -> end (+-inf), where the pieces are log X."""
    segments = _segments(pcs, -math.inf, math.inf)
    c, e, k = segments[0 if end < 0 else -1][2]
    if math.isinf(c):
        return math.copysign(math.inf, c * end)
    return math.copysign(math.inf, -k) if end < 0 and k else e


def _segments(pcs, lo, hi):
    """(a, b, piece) for each piece's part of positive length in (lo, hi)."""
    ends = [t for t, _ in pcs[1:]] + [math.inf]
    cut = [(max(t, lo), min(u, hi), p) for (t, p), u in zip(pcs, ends)]
    return [(a, b, p) for a, b, p in cut if a < b]


def _monotone_ends(p, a, b):
    """a, b and the stationary point log(k / e) of p if it lies between them."""
    c, e, k = p
    return [a, math.log(k / e), b] if k * e > 0 and a < math.log(k / e) < b else [a, b]


def _sup(pcs, lo, hi):
    """Essential sup over (lo, hi): a single point does not count."""
    return max(_value(p, s) for a, b, p in _segments(pcs, lo, hi)
               for s in _monotone_ends(p, a, b))


def _inf(pcs, lo, hi):
    return -_sup([(t, _piece(-c, -e, -k)) for t, (c, e, k) in pcs], lo, hi)


def _vanishes(pcs, lo, hi):
    """Whether the potential is 0 on a set of positive length in (lo, hi)."""
    return any(p[0] == -math.inf for _, _, p in _segments(pcs, lo, hi))


def _piece_at(pcs, s):
    return [p for t, p in pcs if t <= s][-1]


def _merge(lists):
    """(start, pieces) over the union of the lists' starts, one piece per list."""
    starts = sorted({t for pcs in lists for t, _ in pcs})
    return [(t, tuple(_piece_at(pcs, t) for pcs in lists)) for t in starts]


def _root(d, lo, hi):
    """The zero of d, monotone on (lo, hi) with values of opposite signs at the ends."""
    rising, step = _value(d, hi) > 0, 1.0
    while math.isinf(lo) or math.isinf(hi):  # step out to finite ends of the same signs
        if math.isinf(lo) and (_value(d, min(hi, 0.0) - step) > 0) != rising:
            lo = min(hi, 0.0) - step
        if math.isinf(hi) and (_value(d, max(lo, 0.0) + step) > 0) == rising:
            hi = max(lo, 0.0) + step
        step *= 2.0
    while hi - lo > 1e-15 * (1.0 + abs(lo) + abs(hi)):  # below the resolution of r
        mid = 0.5 * (lo + hi)
        v = _value(d, mid)
        if v == 0:
            return mid
        lo, hi = (lo, mid) if (v > 0) == rising else (mid, hi)
    return 0.5 * (lo + hi)


def _inside(u, v):
    """A point of (u, v)."""
    if math.isinf(u) and math.isinf(v):
        return 0.0
    if math.isinf(u):
        return v - 1.0 - abs(v)
    return u + 1.0 + abs(u) if math.isinf(v) else 0.5 * (u + v)


def _envelope(parts, sign):
    """Pieces of the max (sign 1) or min (sign -1) of the parts' logs.

    Two pieces differ by d of the same form, monotone on each side of its
    stationary point.  Each span is cut where d changes sign on one of those
    sides, and each cut part keeps the piece that wins inside it.
    """
    pcs = parts[0].pieces
    for part in parts[1:]:
        out = []
        for a, b, (p, q) in _segments(_merge([pcs, part.pieces]), -math.inf, math.inf):
            d = _piece(*(sign * (x - y) for x, y in zip(p, q)))
            ends = _monotone_ends(d, a, b)
            cuts = [a] + [_root(d, u, v) for u, v in zip(ends, ends[1:])
                          if _value(d, u) * _value(d, v) < 0] + [b]
            out += [(u, p if _value(d, _inside(u, v)) >= 0 else q)
                    for u, v in zip(cuts, cuts[1:])]
        pcs = out
    return pcs


def _quantity(terms, slope):
    """Pieces of slope s + sum of w log X over the terms (w, spec of X)."""
    out = []
    for t, ps in _merge([spec.pieces for _, spec in terms]):
        c, e, k = (sum(w * p[i] for (w, _), p in zip(terms, ps)) for i in range(3))
        out.append((t, _piece(c, e + slope, k)))
    return out


# ---------------------------------------------------------------------------
# Potential expression trees
# ---------------------------------------------------------------------------

class PotentialSpec:
    """Base class for closed-form radial potentials on (0, inf)."""

    def __post_init__(self):
        """Refuse a negative coefficient c, a NaN parameter, an infinite e or scale
        and a min or max of nothing."""
        values = vars(self)
        if not values.get("c", 0.0) >= 0 or any(
                isinstance(v, float) and math.isnan(v) for v in values.values()) or any(
                math.isinf(values.get(name, 0.0)) for name in ("e", "scale")):
            raise NonPositive(f"negative coefficient, NaN parameter or infinite exponent in {self}")
        if not values.get("parts", True):
            raise ValueError(f"{type(self).__name__} needs at least one part")

    @cached_property
    def pieces(self):
        """The log of the potential at r = e^s as a piece list, formed once;
        a power, a constant or e^(scale/r) is one piece (log c, e, scale)."""
        v = vars(self)
        return [(-math.inf, _piece(_log(v.get("c", 1.0)), v.get("e", 0.0), v.get("scale", 0.0)))]


@dataclass(frozen=True)
class Power(PotentialSpec):
    c: float
    e: float


@dataclass(frozen=True)
class Constant(PotentialSpec):
    c: float


@dataclass(frozen=True)
class ExpInv(PotentialSpec):
    """e^{scale / r}: singular at the origin for scale > 0."""

    scale: float


@dataclass(frozen=True)
class MinOf(PotentialSpec):
    parts: tuple

    @cached_property
    def pieces(self):
        return _envelope(self.parts, -1.0)


@dataclass(frozen=True)
class MaxOf(PotentialSpec):
    parts: tuple

    @cached_property
    def pieces(self):
        return _envelope(self.parts, 1.0)


@dataclass(frozen=True)
class Piecewise(PotentialSpec):
    """inner for r < breakpoint, outer for r >= breakpoint."""

    breakpoint: float
    inner: PotentialSpec
    outer: PotentialSpec

    @cached_property
    def pieces(self):
        cut = _log(self.breakpoint)
        outer = self.outer.pieces
        return ([tp for tp in self.inner.pieces if tp[0] < cut]
                + [(cut, _piece_at(outer, cut))] + [tp for tp in outer if tp[0] > cut])


def spec_from_json(obj) -> PotentialSpec:
    """Rebuild a potential expression tree from its JSON form."""
    kind = obj["kind"]
    if kind == "power":
        return Power(c=_real(obj.get("c", 1.0), "power.c"), e=_real(obj.get("e", 0.0), "power.e"))
    if kind == "constant":
        return Constant(c=_real(obj["c"], "constant.c"))
    if kind == "exp_inv":
        return ExpInv(scale=_real(obj.get("scale", 1.0), "exp_inv.scale"))
    if kind == "min":
        return MinOf(tuple(spec_from_json(s) for s in obj["args"]))
    if kind == "max":
        return MaxOf(tuple(spec_from_json(s) for s in obj["args"]))
    if kind == "piecewise":
        return Piecewise(breakpoint=_real(obj["breakpoint"], "piecewise.breakpoint"),
                         inner=spec_from_json(obj["inner"]),
                         outer=spec_from_json(obj["outer"]))
    raise ValueError(f"unknown potential kind {kind!r}")


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def _tabulate(pcs, r, log_r):
    """The log of a potential at radii r from its pieces: k / r where k != 0
    and c + e log_r otherwise, as each leaf kind computes it.  A piece holds
    from its start on, so a radius whose log is a piece's start takes it."""
    out = None
    for start, (c, e, k) in pcs:
        vals = k / r if k else c + e * log_r
        out = vals if out is None else np.where(log_r < start, out, vals)
    return out


@dataclass
class PotentialTable:
    """A, V, K from their specs on a strictly increasing positive radius grid.

    Only the specs' exact log-values log_A/log_V/log_K are kept; a reader
    that needs linear values exponentiates them where it reads them, and
    those may be inf where a spec overflows float range.
    """

    radii: np.ndarray
    specs: InitVar[tuple]

    def __post_init__(self, specs):
        r = self.radii = np.asarray(self.radii, dtype=float)
        if r.ndim != 1 or len(r) < 2:
            raise ValueError("radii must be a 1-d grid with at least 2 points")
        if not np.all(r > 0) or not np.all(np.diff(r) > 0):
            raise ValueError("radii must be positive and strictly increasing")
        log_r = np.log(r)
        self.log_A, self.log_V, self.log_K = (_tabulate(s.pieces, r, log_r) for s in specs)
        # positivity is judged on the exact log-values, since a genuinely
        # positive potential may underflow the linear range
        if any(np.any(np.isneginf(x) | np.isnan(x)) for x in (self.log_A, self.log_K)):
            raise NonPositive("A and K must be strictly positive")

    @property
    def log_A_cell(self):
        """log A per cell, the mean of its ends' logs: A's geometric mean, as on a log grid."""
        return 0.5 * (self.log_A[:-1] + self.log_A[1:])


def eval_potentials(spec_A: PotentialSpec, spec_V: PotentialSpec,
                    spec_K: PotentialSpec, radii) -> PotentialTable:
    """Tabulate the three potentials on `radii` with exact log-values."""
    return PotentialTable(radii, (spec_A, spec_V, spec_K))


# ---------------------------------------------------------------------------
# Asymptotic bounds
# ---------------------------------------------------------------------------

def _log_interval(interval):
    r_lo, r_hi = interval
    if not 0.0 <= r_lo < r_hi:
        raise ValueError(f"need 0 <= r_lo < r_hi, got {interval}")
    return _log(r_lo), _log(r_hi)


def _ratio(spec_V, spec_K, alpha, beta):
    """Pieces of log K / (r^alpha V^beta); V^0 is 1, so beta = 0 never reads V."""
    return _quantity([(1.0, spec_K)] + ([(-beta, spec_V)] if beta != 0 else []), -alpha)


def esssup_ratio(spec_V: PotentialSpec, spec_K: PotentialSpec, alpha: float, beta: float,
                 interval) -> float:
    """Essential sup of K / (r^alpha V^beta) over the radii in `interval`.

    The interval's ends may be 0 and inf, where the sup is a limit.
    """
    lo, hi = _log_interval(interval)
    if beta != 0 and _vanishes(spec_V.pieces, lo, hi):
        raise DivisionByZeroV("V vanishes on a set of positive length while beta > 0")
    return _exp(_sup(_ratio(spec_V, spec_K, alpha, beta), lo, hi))


def essinf_weighted(spec_V: PotentialSpec, gamma: float, interval) -> float:
    """Essential inf of r^gamma V over the radii in `interval`; 0 where V vanishes."""
    lo, hi = _log_interval(interval)
    return _exp(_inf(_quantity([(1.0, spec_V)], gamma), lo, hi))


# ---------------------------------------------------------------------------
# Hypothesis validation
# ---------------------------------------------------------------------------

def validate_hypotheses(specs, dims: ProblemDims,
                        asym_origin: EndpointAsymptotics,
                        asym_infinity: EndpointAsymptotics, s_loc) -> dict:
    """Verify the admissibility hypotheses on concrete potentials, exactly.

    Returns the document {"passed", "checks", "bounds"}: each check is
    {"name", "passed", "value", "detail", "gating"}, each bound
    {"quantity", "interval", "value"}, and "passed" holds when every gating
    check passes.  Failures are checks, not exceptions; A or K that vanishes
    on a set of positive length raises NonPositive.  The bounds are essential
    sups and infs over (0, R] and [R, inf), limits at 0 and inf included.
    Local integrability is checked on [1e-2, 1e2] by the logs of the sups
    of V and of K^s there; the integrability of V r^(N-1) near 0 is
    reported as a non-gating diagnostic, by its exponent at 0.
    """
    spec_A, spec_V, spec_K = specs
    if any(_vanishes(spec.pieces, -math.inf, math.inf) for spec in (spec_A, spec_K)):
        raise NonPositive("A and K must be strictly positive")
    checks, bounds = [], {}
    p, N = dims.p, dims.N

    def check(name, passed, value, detail):
        checks.append({"name": name, "passed": passed, "value": value, "detail": detail,
                       "gating": True})

    for label, asym in (("origin", asym_origin), ("infinity", asym_infinity)):
        check(f"a_{label}_in_range", p - N < asym.a <= p, asym.a, f"requires a in ({p - N}, {p}]")
        try:
            validate_endpoint(asym, dims)
            check(f"asymptotics_{label}_consistent", True, None, "")
        except InvalidAsymptotics as exc:
            check(f"asymptotics_{label}_consistent", False, None, str(exc))

    # each end's interval and the direction of that end in s = log r
    ends = (("origin", asym_origin, (0.0, float(asym_origin.R)), -1.0),
            ("infinity", asym_infinity, (float(asym_infinity.R), math.inf), 1.0))

    # the declared growth rate of A: A / r^a bounded and bounded away from 0
    for end, asym, interval, side in ends:
        ratio = _quantity([(1.0, spec_A)], -asym.a)
        lo, hi = _log_interval(interval)
        band = _exp(_inf(ratio, lo, hi)), _exp(_sup(ratio, lo, hi))
        check(f"A_rate_{end}", band[0] > 0 and math.isfinite(band[1]),
              _end_exponent(spec_A.pieces, side),
              f"declared a = {asym.a}, A / r^a in [{band[0]:.3g}, {band[1]:.3g}]")
        bounds[f"ratio_A_{end}"] = {"quantity": "ratio_A_over_r_alpha", "interval": interval,
                                    "value": band[1]}

    # K / (r^alpha V^beta) must stay bounded and r^gamma V bounded away from zero
    for end, asym, interval, side in ends:
        try:
            value = esssup_ratio(spec_V, spec_K, asym.alpha, asym.beta, interval)
        except DivisionByZeroV as exc:
            check(f"esssup_{end}_finite", False, None, str(exc))
        else:
            b = _end_exponent(_ratio(spec_V, spec_K, asym.alpha, asym.beta), side)
            bounds[f"esssup_{end}"] = {"quantity": "esssup_K_over_r_alpha_V_beta",
                                       "interval": interval, "value": value}
            check(f"esssup_{end}_finite", math.isfinite(value), value, f"end exponent {b:.3g}")
        value = essinf_weighted(spec_V, asym.gamma, interval)
        b = _end_exponent(_quantity([(1.0, spec_V)], asym.gamma), side)
        bounds[f"essinf_{end}"] = {"quantity": "essinf_r_gamma_V", "interval": interval,
                                   "value": value}
        check(f"essinf_{end}_positive", value > 0, value, f"end exponent {b:.3g}")

    # local integrability on an interior compact (the hypotheses only ask for
    # integrability away from the endpoints): V and K^s are bounded there
    # when the logs of their sups are below inf (-inf for a zero V), though
    # the sups themselves, the reported values, may overflow the float range
    lo, hi = math.log(1e-2), math.log(1e2)
    log_sup_V = _sup(spec_V.pieces, lo, hi)
    check("V_locally_integrable", log_sup_V < math.inf, _exp(log_sup_V),
          "sup of V on [1e-2, 1e2]")
    log_sup_K = s_loc * _sup(spec_K.pieces, lo, hi)
    check("K_locally_s_integrable", log_sup_K < math.inf, _exp(log_sup_K),
          f"s = {s_loc}, sup of K^s on [1e-2, 1e2]")

    # non-gating diagnostic: V r^(N-1) ~ r^b at 0 is integrable there iff b > -1
    b = _end_exponent(spec_V.pieces, -1.0) + (N - 1)
    checks.append({"name": "diagnostic_v_weight_near_origin", "passed": b > -1, "value": b,
                   "detail": "informational: V r^(N-1) ~ r^b at 0, integrable near 0 iff b > -1",
                   "gating": False})

    return {"passed": all(c["passed"] for c in checks if c["gating"]),
            "checks": checks, "bounds": bounds}
