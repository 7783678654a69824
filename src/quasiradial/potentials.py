"""Radial potential models and numeric hypothesis checks.

Potentials are closed-form expression trees (powers, exponentials of 1/r,
min/max combinations, piecewise splices) evaluated on log-spaced grids.  The
essential sup/inf quantities behind the admissibility hypotheses are
approximated by grid extrema with one local dyadic refinement; extremely
singular factors like e^{1/r} are handled through exact log-values carried by
every table, so the ratio K / (r^alpha V^beta) stays computable even where the
individual potentials overflow.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .exponents import EndpointAsymptotics, ProblemDims, validate_endpoint, InvalidAsymptotics


class NonPositive(ValueError):
    """A potential has a negative or NaN parameter, or A or K is not positive."""


class DivisionByZeroV(ZeroDivisionError):
    """V vanishes on the sample while beta > 0: the ratio sup is +inf."""


class InsufficientRange(ValueError):
    """The table does not span enough decades for the requested estimate."""


# ---------------------------------------------------------------------------
# Potential expression trees
# ---------------------------------------------------------------------------

class PotentialSpec:
    """Base class for closed-form radial potentials on (0, inf)."""

    def __post_init__(self):
        """Refuse a negative coefficient c and a NaN parameter."""
        if not getattr(self, "c", 0.0) >= 0 or any(
                isinstance(v, float) and math.isnan(v) for v in vars(self).values()):
            raise NonPositive(f"negative coefficient or NaN parameter in {self}")

    def evaluate_log(self, r):
        """Natural log of the potential, computed without overflow."""
        raise NotImplementedError


@dataclass(frozen=True)
class Power(PotentialSpec):
    c: float = 1.0
    e: float = 0.0

    def evaluate_log(self, r):
        """c = 0 is the zero potential, log -inf."""
        return (math.log(self.c) if self.c > 0 else -math.inf) + self.e * np.log(r)


@dataclass(frozen=True)
class Constant(PotentialSpec):
    c: float = 1.0

    def evaluate_log(self, r):
        return np.full_like(np.asarray(r, dtype=float), Power(self.c).evaluate_log(1.0))


@dataclass(frozen=True)
class ExpInv(PotentialSpec):
    """e^{scale / r}: singular at the origin for scale > 0."""

    scale: float = 1.0

    def evaluate_log(self, r):
        return self.scale / np.asarray(r, dtype=float)


@dataclass(frozen=True)
class MinOf(PotentialSpec):
    parts: tuple

    def evaluate_log(self, r):
        return np.minimum.reduce([s.evaluate_log(r) for s in self.parts])


@dataclass(frozen=True)
class MaxOf(PotentialSpec):
    parts: tuple

    def evaluate_log(self, r):
        return np.maximum.reduce([s.evaluate_log(r) for s in self.parts])


@dataclass(frozen=True)
class Piecewise(PotentialSpec):
    """inner for r < breakpoint, outer for r >= breakpoint."""

    breakpoint: float
    inner: PotentialSpec
    outer: PotentialSpec

    def evaluate_log(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r < self.breakpoint, self.inner.evaluate_log(r),
                        self.outer.evaluate_log(r))


def spec_from_json(obj) -> PotentialSpec:
    """Rebuild a potential expression tree from its JSON form."""
    kind = obj["kind"]
    if kind == "power":
        return Power(c=float(obj.get("c", 1.0)), e=float(obj.get("e", 0.0)))
    if kind == "constant":
        return Constant(c=float(obj["c"]))
    if kind == "exp_inv":
        return ExpInv(scale=float(obj.get("scale", 1.0)))
    if kind == "min":
        return MinOf(tuple(spec_from_json(s) for s in obj["args"]))
    if kind == "max":
        return MaxOf(tuple(spec_from_json(s) for s in obj["args"]))
    if kind == "piecewise":
        return Piecewise(breakpoint=float(obj["breakpoint"]),
                         inner=spec_from_json(obj["inner"]),
                         outer=spec_from_json(obj["outer"]))
    raise ValueError(f"unknown potential kind {kind!r}")


# ---------------------------------------------------------------------------
# Sampled tables
# ---------------------------------------------------------------------------

def default_radii():
    """Log-spaced grid from 1e-6 to 1e6, 256 points per decade."""
    return np.logspace(-6, 6, 2 * 6 * 256 + 1)


@dataclass
class PotentialTable:
    """A, V, K from their specs on a strictly increasing positive radius grid.

    log_A/log_V/log_K are the specs' exact log-values; the linear values_*
    may be inf where a spec overflows float range.
    """

    radii: np.ndarray
    specs: tuple

    def __post_init__(self):
        r = self.radii = np.asarray(self.radii, dtype=float)
        if r.ndim != 1 or len(r) < 2:
            raise ValueError("radii must be a 1-d grid with at least 2 points")
        if not np.all(r > 0) or not np.all(np.diff(r) > 0):
            raise ValueError("radii must be positive and strictly increasing")
        self.log_A, self.log_V, self.log_K = (s.evaluate_log(r) for s in self.specs)
        # positivity is judged on the exact log-values, since a genuinely
        # positive potential may underflow the linear range
        if any(np.any(np.isneginf(x) | np.isnan(x)) for x in (self.log_A, self.log_K)):
            raise NonPositive("A and K must be strictly positive")
        with np.errstate(over="ignore"):
            self.values_A, self.values_V, self.values_K = (
                np.exp(x) for x in (self.log_A, self.log_V, self.log_K))

    def interval_mask(self, r_lo, r_hi):
        return (self.radii >= r_lo) & (self.radii <= r_hi)


def eval_potentials(spec_A: PotentialSpec, spec_V: PotentialSpec,
                    spec_K: PotentialSpec, radii) -> PotentialTable:
    """Tabulate the three potentials on `radii` with exact log-values."""
    return PotentialTable(radii, (spec_A, spec_V, spec_K))


# ---------------------------------------------------------------------------
# Asymptotic bounds
# ---------------------------------------------------------------------------

QUANTITY_ESSSUP = "esssup_K_over_r_alpha_V_beta"
QUANTITY_ESSINF = "essinf_r_gamma_V"
QUANTITY_RATIO_A = "ratio_A_over_r_alpha"


@dataclass(frozen=True)
class AsymptoticBound:
    quantity: str
    interval: tuple
    value: float
    grid_points: int
    converged: bool
    # every table is built from specs, so no bound rests on samples alone
    heuristic: bool = False


@dataclass(frozen=True)
class LimitExponent:
    exponent: float
    c_lo: float
    c_hi: float


def _refine_radii(radii, idx):
    """Dyadically refined local grid of 33 radii spanning the neighbours of node idx."""
    lo = radii[max(idx - 1, 0)]
    hi = radii[min(idx + 1, len(radii) - 1)]
    if hi <= lo:
        return np.array([])
    return np.logspace(math.log10(lo), math.log10(hi), 33)


def _ratio_log(r, log_V, log_K, alpha, beta):
    """log K / (r^alpha V^beta); V^0 is 1 by convention, so beta = 0 never reads V."""
    out = log_K - alpha * np.log(r)
    return out - beta * log_V if beta != 0 else out


def _weighted_log(r, log_V, gamma):
    """log r^gamma V."""
    return gamma * np.log(r) + log_V


def _refined_sup(table: PotentialTable, interval, log_q):
    """Grid sup of a log-quantity over interval with one local dyadic refinement.

    log_q(r, log_V, log_K) is the quantity at radii r.  Each end of the
    interval (clipped to the table's range) that is not a grid node joins
    the grid sample, and the refinement around the sample's argmax evaluates
    the quantity from the specs.  Returns (log value, points, converged),
    where points counts the grid nodes and the refinement radii; the
    refinement converges when it moves the log value by at most 1e-3.
    """
    r_lo, r_hi = interval
    mask = table.interval_mask(r_lo, r_hi)
    if not np.any(mask):
        raise InsufficientRange(f"no grid points inside ({r_lo}, {r_hi})")
    r = table.radii[mask]
    log_vals = log_q(r, table.log_V[mask], table.log_K[mask])
    n_pts = int(mask.sum())
    _, spec_V, spec_K = table.specs

    def from_specs(radii):
        return log_q(radii, spec_V.evaluate_log(radii), spec_K.evaluate_log(radii))

    # no grid node reaches a sup at an end that lies between nodes.  The ends
    # follow the nodes in the sample, so a tie keeps the grid argmax; the
    # refinement spans the argmax's neighbours among the table's radii.
    lo, hi = max(r_lo, table.radii[0]), min(r_hi, table.radii[-1])
    ends = np.array([e for e, inside in ((lo, lo < r[0]), (hi, hi > r[-1])) if inside])
    r = np.concatenate((r, ends))
    log_vals = np.concatenate((log_vals, from_specs(ends)))
    i_max = int(np.argmax(log_vals))
    log_v0 = log_v1 = log_vals[i_max]
    radii, at = table.radii, int(np.searchsorted(table.radii, r[i_max]))
    if radii[at] != r[i_max]:  # an end between nodes joins the radii
        radii = np.insert(radii, at, r[i_max])
    sub_r = _refine_radii(radii, at)
    sub_r = sub_r[(sub_r >= r_lo) & (sub_r <= r_hi)]
    if len(sub_r):
        log_v1 = max(log_v0, float(np.max(from_specs(sub_r))))
        n_pts += len(sub_r)
    # equal infinite values (the inf where V vanishes) count as converged
    return log_v1, n_pts, bool(log_v1 == log_v0 or abs(log_v1 - log_v0) <= 1e-3)


def esssup_ratio(table: PotentialTable, alpha: float, beta: float,
                 interval) -> AsymptoticBound:
    """Grid sup of K / (r^alpha V^beta) with one local dyadic refinement.

    V^0 is 1 everywhere by convention, so a beta = 0 call never reads V.
    """
    if beta != 0 and np.any(table.log_V[table.interval_mask(*interval)] == -np.inf):
        raise DivisionByZeroV("V vanishes on the sample while beta > 0")
    log_v, n_pts, converged = _refined_sup(
        table, interval, lambda r, log_V, log_K: _ratio_log(r, log_V, log_K, alpha, beta))
    with np.errstate(over="ignore"):
        value = float(np.exp(log_v))
    return AsymptoticBound(QUANTITY_ESSSUP, (float(interval[0]), float(interval[1])), value,
                           n_pts, converged)


def essinf_weighted(table: PotentialTable, gamma: float, interval) -> AsymptoticBound:
    """Grid inf of r^gamma V with one local dyadic refinement.

    Returns 0 (no error) when V vanishes on the sample.
    """
    neg_log_v, n_pts, converged = _refined_sup(
        table, interval, lambda r, log_V, log_K: -_weighted_log(r, log_V, gamma))
    with np.errstate(over="ignore"):
        value = float(np.exp(-neg_log_v))
    return AsymptoticBound(QUANTITY_ESSINF, (float(interval[0]), float(interval[1])), value,
                           n_pts, converged)


def _end_decade(r, end):
    """Mask of the last decade of the increasing grid r toward one endpoint."""
    if end == "origin":
        return r <= r[0] * 10.0
    if end == "infinity":
        return r >= r[-1] / 10.0
    raise ValueError(f"unknown end {end!r}")


def estimate_limit_exponent(table: PotentialTable, which: str, end: str) -> LimitExponent:
    """Log-log slope of A, V or K over the last decade toward one endpoint."""
    logs = {"A": table.log_A, "V": table.log_V, "K": table.log_K}[which]
    r = table.radii
    total_decades = math.log10(r[-1] / r[0])
    if total_decades < 3.0:
        raise InsufficientRange(f"table spans {total_decades:.2f} decades, need >= 3.0")
    mask = _end_decade(r, end)
    x = np.log(r[mask])
    y = logs[mask]
    if not np.all(np.isfinite(y)):
        raise InsufficientRange("potential is zero or non-finite on the end decade")
    slope, _ = np.polyfit(x, y, 1)
    resid = y - slope * x
    return LimitExponent(exponent=float(slope),
                         c_lo=float(np.exp(np.min(resid))),
                         c_hi=float(np.exp(np.max(resid))))


# ---------------------------------------------------------------------------
# Hypothesis validation
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    value: object = None
    detail: str = ""
    gating: bool = True

    def to_dict(self):
        return asdict(self)


@dataclass
class HypothesisReport:
    entries: list = field(default_factory=list)
    bounds: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries if e.gating)

    def add(self, *args, **kwargs):
        self.entries.append(CheckResult(*args, **kwargs))

    def to_dict(self):
        return {
            "passed": self.passed,
            "checks": [e.to_dict() for e in self.entries],
            "bounds": {k: asdict(b) for k, b in self.bounds.items()},
        }


def _end_trend(r_sub, log_sub, end):
    """Fitted log-log slope of a sampled quantity over its end decade."""
    m = _end_decade(r_sub, end)
    x = np.log(r_sub[m])
    y = log_sub[m]
    good = np.isfinite(y)
    if good.sum() < 2:
        return math.nan
    slope, _ = np.polyfit(x[good], y[good], 1)
    return float(slope)


def _quad_refinement_cauchy(f_vals, r):
    """Trapezoid integral of sampled values, plus a convergence-under-refinement flag.

    The integral converges if the difference between successive grid
    coarsenings either is below tolerance already or shrinks by the factor
    expected of a convergent quadrature.
    """
    full = float(np.trapezoid(f_vals, r))
    half = float(np.trapezoid(f_vals[::2], r[::2]))
    quarter = float(np.trapezoid(f_vals[::4], r[::4]))
    d1 = abs(full - half)
    d2 = abs(half - quarter)
    converged = math.isfinite(full) and (
        d1 <= 1e-8 * (1.0 + abs(full)) or (d2 > 0 and d1 <= 0.6 * d2))
    return full, converged


def validate_hypotheses(specs, dims: ProblemDims,
                        asym_origin: EndpointAsymptotics,
                        asym_infinity: EndpointAsymptotics,
                        radii=None, s_loc=2.0) -> HypothesisReport:
    """Numerically verify the admissibility hypotheses on concrete potentials.

    Failures are report entries, not exceptions.  Local integrability is
    checked on compact subsets of (0, inf) away from the endpoints, which is
    what the hypotheses require; the weighted near-origin integral is reported
    as a non-gating diagnostic.
    """
    spec_A, spec_V, spec_K = specs
    if radii is None:
        radii = default_radii()
    table = eval_potentials(spec_A, spec_V, spec_K, radii)
    rep = HypothesisReport()
    p, N = dims.p, dims.N

    for label, asym in (("origin", asym_origin), ("infinity", asym_infinity)):
        ok = p - N < asym.a <= p
        rep.add(f"a_{label}_in_range", ok,
                value=asym.a, detail=f"requires a in ({p - N}, {p}]")
        try:
            validate_endpoint(asym, dims)
            rep.add(f"asymptotics_{label}_consistent", True)
        except InvalidAsymptotics as exc:
            rep.add(f"asymptotics_{label}_consistent", False, detail=str(exc))

    # declared growth rate of A at each end, plus the ratio band A / r^a
    for end, a_decl in (("origin", asym_origin.a), ("infinity", asym_infinity.a)):
        est = estimate_limit_exponent(table, "A", end)
        ok = abs(est.exponent - a_decl) < 0.05 and est.c_lo > 0 \
            and math.isfinite(est.c_hi)
        rep.add(f"A_rate_{end}", ok, value=est.exponent,
                detail=f"declared a = {a_decl}, fitted band [{est.c_lo:.3g}, {est.c_hi:.3g}]")
        r = table.radii
        mask = _end_decade(r, end)
        log_ratio = table.log_A[mask] - a_decl * np.log(r[mask])
        with np.errstate(over="ignore"):
            rep.bounds[f"ratio_A_{end}"] = AsymptoticBound(
                QUANTITY_RATIO_A,
                (float(r[mask][0]), float(r[mask][-1])),
                float(np.exp(np.max(log_ratio))),
                int(mask.sum()), converged=bool(ok))

    r_min, r_max = table.radii[0], table.radii[-1]

    # K / (r^alpha V^beta) must stay bounded and r^gamma V bounded away from
    # zero; toward is the sign of a log-log slope that grows toward the end
    for end, asym, interval, toward in (
            ("origin", asym_origin, (r_min, asym_origin.R), -1.0),
            ("infinity", asym_infinity, (asym_infinity.R, r_max), 1.0)):
        mask = table.interval_mask(*interval)
        r_sub, log_V = table.radii[mask], table.log_V[mask]
        try:
            bound = esssup_ratio(table, asym.alpha, asym.beta, interval)
        except DivisionByZeroV:
            rep.add(f"esssup_{end}_finite", False,
                    detail="V vanishes on the sample while beta > 0")
        else:
            slope = _end_trend(r_sub, _ratio_log(r_sub, log_V, table.log_K[mask],
                                                 asym.alpha, asym.beta), end)
            ok = math.isfinite(bound.value) and bound.converged and not toward * slope > 0.01
            rep.bounds[f"esssup_{end}"] = bound
            rep.add(f"esssup_{end}_finite", ok, value=bound.value,
                    detail=f"end trend slope {slope:.3g}")
        bound = essinf_weighted(table, asym.gamma, interval)
        slope = _end_trend(r_sub, _weighted_log(r_sub, log_V, asym.gamma), end)
        ok = bound.value > 0 and not toward * slope < -0.01
        rep.bounds[f"essinf_{end}"] = bound
        rep.add(f"essinf_{end}_positive", ok, value=bound.value,
                detail=f"end trend slope {slope:.3g}")

    # local integrability on an interior compact (the hypotheses only ask for
    # integrability away from the endpoints)
    lo = max(r_min, 1e-2)
    hi = min(r_max, 1e2)
    mask = table.interval_mask(lo, hi)
    v_int, v_cauchy = _quad_refinement_cauchy(table.values_V[mask], table.radii[mask])
    rep.add("V_locally_integrable", bool(np.all(np.isfinite(table.values_V[mask]))
                                         and v_cauchy), value=v_int)
    with np.errstate(over="ignore"):
        k_pow = table.values_K[mask] ** s_loc
    k_int, k_cauchy = _quad_refinement_cauchy(k_pow, table.radii[mask])
    rep.add("K_locally_s_integrable", bool(np.all(np.isfinite(k_pow)) and k_cauchy),
            value=k_int, detail=f"s = {s_loc}")

    # non-gating diagnostic: weighted integral of V toward the origin
    ks = np.arange(2, int(math.log2(1.0 / r_min)))
    vals = []
    for k in ks:
        m = table.interval_mask(2.0 ** (-int(k)), 1.0)
        with np.errstate(over="ignore"):
            integrand = table.values_V[m] * table.radii[m] ** (N - 1)
        vals.append(float(np.trapezoid(integrand, table.radii[m])))
    cauchy = len(vals) >= 2 and math.isfinite(vals[-1]) \
        and abs(vals[-1] - vals[-2]) <= 1e-8 * (1.0 + abs(vals[-1]))
    rep.add("diagnostic_v_weight_near_origin", bool(cauchy),
            value=vals[-1] if vals else math.nan, gating=False,
            detail="informational: quadrature of V r^(N-1) over (2^-k, 1)")

    return rep
