"""Critical-exponent calculus for weighted radial quasilinear problems.

Given the power rates (a, alpha, beta, gamma) describing how the three radial
potentials grow or decay at one endpoint (the origin or infinity), this module
computes the two critical nonlinearity exponents, the admissible exponent
region at the origin, the lower admissibility threshold at infinity, and the
feasibility witnesses behind both.

Every formula is evaluated in exact rational arithmetic (fractions.Fraction)
when all inputs are rational numbers, and in floating point otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Optional


class GammaSingular(ValueError):
    """gamma sits exactly on a pole of the requested exponent formula."""


class InvalidAsymptotics(ValueError):
    """Endpoint data violates the admissibility hypotheses."""


class NotAdmissible(ValueError):
    """The requested exponent is at or below the admissibility threshold."""


class BoundaryCase(ValueError):
    """gamma equals p - a: the shifted-weight system degenerates."""


ORIGIN = "origin"
INFINITY = "infinity"


def _exact(*values):
    """Return inputs as Fractions when all are rational, else as floats."""
    if all(isinstance(v, Rational) for v in values):
        return tuple(Fraction(v) for v in values)
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class ProblemDims:
    """Space dimension N and quasilinearity exponent p, with N >= 3, 1 < p < N."""

    N: int
    p: float

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 3:
            raise ValueError(f"N must be an integer >= 3, got {self.N!r}")
        if not (1 < self.p < self.N):
            raise ValueError(f"p must satisfy 1 < p < N, got p={self.p!r}, N={self.N}")


@dataclass(frozen=True)
class EndpointAsymptotics:
    """Potential rates at one endpoint.

    a is the local power rate of the gradient weight, alpha and beta bound the
    source weight against r^alpha * V^beta, gamma bounds V from below via
    r^gamma * V, and R is the radius beyond (or below) which the bounds hold.
    end must be ORIGIN or INFINITY, a, alpha and gamma be finite, beta lie in
    [0, 1] and R in (0, inf); the hypotheses that depend on the dimensions are
    checked by validate_endpoint.
    """

    end: str
    a: float
    alpha: float
    beta: float
    gamma: float
    R: float = 1.0

    def __post_init__(self):
        if self.end not in (ORIGIN, INFINITY):
            raise InvalidAsymptotics(f"unknown endpoint {self.end!r}")
        if not (0 <= self.beta <= 1):
            raise InvalidAsymptotics(f"beta must lie in [0, 1], got {self.beta}")
        if not self.R > 0:
            raise InvalidAsymptotics(f"R must be positive, got {self.R}")
        for name in ("a", "alpha", "gamma", "R"):
            if not -math.inf < getattr(self, name) < math.inf:
                raise InvalidAsymptotics(f"{name} must be finite, got {getattr(self, name)}")


def validate_endpoint(asym: EndpointAsymptotics, dims: ProblemDims) -> None:
    """Raise InvalidAsymptotics unless `asym` satisfies the hypotheses that
    depend on dims: the range of a, and gamma against p - a.  What they imply
    and the formulas divide by, N + a - p > 0 and at infinity gamma < N and
    nu > 0, is checked as computed: rounding breaks it for some a near p - N."""
    p, N = dims.p, dims.N
    if not (p - N < asym.a <= p):
        raise InvalidAsymptotics(
            f"a must lie in (p-N, p] = ({p - N}, {p}], got {asym.a}")
    if asym.end == ORIGIN and not asym.gamma >= p - asym.a:
        raise InvalidAsymptotics(
            f"origin data needs gamma >= p - a = {p - asym.a}, got {asym.gamma}")
    if asym.end == INFINITY and not asym.gamma <= p - asym.a:
        raise InvalidAsymptotics(
            f"infinity data needs gamma <= p - a = {p - asym.a}, got {asym.gamma}")
    if not N + asym.a - p > 0:
        raise InvalidAsymptotics(
            f"a = {asym.a} lies within rounding of p - N: N + a - p = {N + asym.a - p}")
    if asym.end == INFINITY:
        nu = pointwise_decay_exponent(asym.a, asym.gamma, dims)
        if not (asym.gamma < N and nu > 0):
            raise InvalidAsymptotics(
                f"infinity data needs gamma < N = {N} and nu > 0, got gamma = {asym.gamma}, nu = {nu}")


def _require(asym: EndpointAsymptotics, end: str, caller: str, dims: ProblemDims) -> None:
    """Raise InvalidAsymptotics unless `asym` is valid data for endpoint `end`."""
    if asym.end != end:
        raise InvalidAsymptotics(f"{caller} expects {end}-end data")
    validate_endpoint(asym, dims)


def gamma_upper_threshold(a, dims: ProblemDims):
    """Pole of the second critical exponent: (p(N-1) + a) / (p-1)."""
    p, N, a = _exact(dims.p, dims.N, a)
    return (p * (N - 1) + a) / (p - 1)


def sobolev_exponent(a, dims: ProblemDims):
    """Endpoint Sobolev-type exponent pN / (N + a - p); >= p whenever a <= p."""
    p, N, a = _exact(dims.p, dims.N, a)
    return p * N / (N + a - p)


def pointwise_decay_exponent(a, gamma, dims: ProblemDims):
    """Decay rate nu = (p(N-1) - (p-1)*gamma + a) / p^2 of unit-norm functions."""
    p, N, a, gamma = _exact(dims.p, dims.N, a, gamma)
    return (p * (N - 1) - (p - 1) * gamma + a) / p ** 2


def q_star(alpha, beta, gamma, dims: ProblemDims):
    """First critical exponent p(alpha - gamma*beta + N) / (N - gamma)."""
    p, N, alpha, beta, gamma = _exact(dims.p, dims.N, alpha, beta, gamma)
    if gamma == N:
        raise GammaSingular("q_star is undefined at gamma = N")
    return p * (alpha - gamma * beta + N) / (N - gamma)


def q_double_star(a, alpha, beta, gamma, dims: ProblemDims):
    """Second critical exponent, singular at gamma = (p(N-1) + a)/(p-1)."""
    p, N, a, alpha, beta, gamma = _exact(dims.p, dims.N, a, alpha, beta, gamma)
    denom = p * (N - 1) - gamma * (p - 1) + a
    if denom == 0:
        raise GammaSingular(
            "q_double_star is undefined at gamma = (p(N-1)+a)/(p-1)")
    return p * (p * alpha + (1 - p * beta) * gamma + p * (N - 1) + a) / denom


def alpha_triplet(beta, gamma, dims: ProblemDims):
    """The three alpha thresholds separating the witness-selection cases."""
    p, N, beta, gamma = _exact(dims.p, dims.N, beta, gamma)
    alpha1 = -(1 - beta) * gamma
    alpha2 = -(1 - beta) * N
    alpha3 = -((p - 1) * N + (1 - p * beta) * gamma) / p
    return alpha1, alpha2, alpha3


def normalization_reduce(alpha, beta, gamma):
    """Trade the V-power against the radial power: (alpha, beta) -> (alpha - beta*gamma, 0).

    Both critical exponents are invariant under this substitution.
    """
    alpha, beta, gamma = _exact(alpha, beta, gamma)
    zero = alpha - alpha
    return alpha - beta * gamma, zero


@dataclass(frozen=True)
class CriticalExponents:
    """Both critical exponents (None on their poles) and the Sobolev exponent."""

    q_star: Optional[float]
    q_double_star: Optional[float]
    p_sobolev: float


def critical_exponents(a, alpha, beta, gamma, dims: ProblemDims) -> CriticalExponents:
    """Evaluate every closed-form threshold for one endpoint's rate data."""
    try:
        qs = q_star(alpha, beta, gamma, dims)
    except GammaSingular:
        qs = None
    try:
        qss = q_double_star(a, alpha, beta, gamma, dims)
    except GammaSingular:
        qss = None
    return CriticalExponents(qs, qss, sobolev_exponent(a, dims))


def q2_lower_bound(asym: EndpointAsymptotics, dims: ProblemDims):
    """Admissibility threshold at infinity: max{1, p*beta, q_star, q_double_star}.

    Any exponent strictly above the returned value is admissible at infinity.
    The hypotheses gamma <= p - a and a > p - N force gamma < N and gamma
    below the q_double_star pole, so both critical exponents are defined.
    """
    _require(asym, INFINITY, "q2_lower_bound", dims)
    one, p, beta = _exact(1, dims.p, asym.beta)
    qs = q_star(asym.alpha, asym.beta, asym.gamma, dims)
    qss = q_double_star(asym.a, asym.alpha, asym.beta, asym.gamma, dims)
    return max(one, p * beta, qs, qss)


@dataclass(frozen=True)
class AlphaConstraint:
    """Side condition on alpha left when gamma sits on a critical exponent's pole."""

    kind: str  # "alpha_gt_alpha2" or "alpha_gt_alpha1"
    satisfied: bool


@dataclass(frozen=True)
class AdmissibleSet:
    """Open interval of admissible origin exponents at fixed alpha.

    `upper` may be math.inf.  The set also requires q > p (solver-side
    admissibility), so `lower` is never below p.
    """

    lower: float
    upper: float
    alpha_constraint: Optional[AlphaConstraint]

    @property
    def nonempty(self) -> bool:
        if self.alpha_constraint is not None and not self.alpha_constraint.satisfied:
            return False
        return self.lower < self.upper

    def contains(self, q) -> bool:
        return self.nonempty and self.lower < q < self.upper


def _origin_branch(asym: EndpointAsymptotics, dims: ProblemDims):
    """Return (lower bounds list, upper bound or inf, alpha constraint) for the region slice.

    Each critical exponent solves an inequality linear in q1 whose coefficient
    changes sign at the exponent's pole: with gamma below the pole the exponent
    caps q1, above it floors q1, and on it only a condition on alpha is left.
    """
    p, N, a, alpha, beta, gamma = _exact(
        dims.p, dims.N, asym.a, asym.alpha, asym.beta, asym.gamma)
    lowers = [p / p, p * beta]  # 1 and p*beta in the active arithmetic
    if gamma == p - a:
        # Both critical exponents coincide; the common value caps the interval.
        return lowers, p * (alpha - beta * (p - a) + N) / (N - p + a), None
    ce = critical_exponents(a, alpha, beta, gamma, dims)
    upper, constraint = math.inf, None
    # q_double_star's pole lies above N, also where its float value rounds to N
    thr = gamma_upper_threshold(a, dims) if gamma > N else math.inf
    for q, pole, kind, alpha_min in ((ce.q_star, N, "alpha_gt_alpha2", -(1 - beta) * N),
                                     (ce.q_double_star, thr, "alpha_gt_alpha1",
                                      -(1 - beta) * gamma)):
        if q is None or gamma == pole:
            constraint = AlphaConstraint(kind, alpha > alpha_min)
        elif gamma < pole:
            upper = min(upper, q)
        else:
            lowers.append(q)
    return lowers, upper, constraint


def q1_region_bounds(asym: EndpointAsymptotics, dims: ProblemDims):
    """(lower, upper) with (alpha, q) in the open admissible region at the
    origin iff lower < q < upper, for asym's alpha.

    An unsatisfied alpha constraint gives the empty (inf, -inf).  A raster
    forms the bounds once per alpha.
    """
    _require(asym, ORIGIN, "the origin region", dims)
    lowers, upper, constraint = _origin_branch(asym, dims)
    if constraint is not None and not constraint.satisfied:
        return math.inf, -math.inf
    return max(lowers), upper


def q1_region_membership(asym: EndpointAsymptotics, q, dims: ProblemDims) -> bool:
    """True iff (alpha, q) lies in the open admissible region at the origin.

    All inequalities on q are strict, so q equal to any bound is excluded;
    see q1_region_bounds.
    """
    lower, upper = q1_region_bounds(asym, dims)
    return lower < q < upper


def q1_admissible_set(asym: EndpointAsymptotics, dims: ProblemDims) -> AdmissibleSet:
    """Admissible origin exponents at the configured alpha, intersected with (p, inf).

    The extra q > p floor is the solver-side requirement; the pure region test
    is q1_region_membership.
    """
    _require(asym, ORIGIN, "q1_admissible_set", dims)
    lowers, upper, constraint = _origin_branch(asym, dims)
    (p,) = _exact(dims.p)
    return AdmissibleSet(lower=max(max(lowers), p), upper=upper,
                         alpha_constraint=constraint)


@dataclass(frozen=True)
class WitnessInterval:
    """Feasible shift interval for the small-ball bound, with endpoint openness flags."""

    lo: float
    hi: float
    closed_lo: bool
    closed_hi: bool
    empty: bool

    def contains(self, xi) -> bool:
        if self.empty:
            return False
        above = xi >= self.lo if self.closed_lo else xi > self.lo
        below = xi <= self.hi if self.closed_hi else xi < self.hi
        return above and below


def xi_witness_origin(asym: EndpointAsymptotics, q1, dims: ProblemDims) -> WitnessInterval:
    """Exact feasible shift interval certifying origin admissibility of q1.

    Nonempty exactly when q1_region_membership holds.  The box constraints on
    xi are closed, the two q1-dependent constraints strict, hence the
    open/closed endpoint flags.
    """
    _require(asym, ORIGIN, "xi_witness_origin", dims)
    p, N, a, alpha, beta, gamma, q1 = _exact(
        dims.p, dims.N, asym.a, asym.alpha, asym.beta, asym.gamma, q1)
    G = gamma - p + a
    # either test alone can miss gamma = p - a in floats; the system divides by G
    if gamma == p - a or G == 0:
        raise BoundaryCase("gamma = p - a admits no shift system")
    zero = p - p
    m = max(zero, (1 - p * beta) / p)
    M = 1 - beta
    D = p * (N - 1) - (p - 1) * gamma + a
    E = p * (alpha + N) - beta * ((p - 1) * gamma + p - a)
    upper = (q1 - p * beta) / p           # strict: p*beta + p*xi < q1
    lower = (q1 * D / p - E) / G          # strict: D*q1 < p*(E + G*xi)
    lo, closed_lo = (m, True) if m > lower else (lower, False)
    hi, closed_hi = (M, True) if M < upper else (upper, False)
    if lo > hi:
        empty = True
    elif lo == hi:
        empty = not (closed_lo and closed_hi)
    else:
        empty = False
    return WitnessInterval(lo=lo, hi=hi, closed_lo=closed_lo,
                           closed_hi=closed_hi, empty=empty)


INFINITY_CASES = (
    "alpha_ge_alpha1",
    "alpha_middle",
    "beta_one",
    "beta_above_pinv",
    "beta_below_pinv",
)


@dataclass(frozen=True)
class InfinityWitness:
    """Chosen shift at infinity with the resulting effective weights."""

    xi: float
    alpha_eff: float
    beta_eff: float
    case_id: str


def xi_witness_infinity(asym: EndpointAsymptotics, q2, dims: ProblemDims) -> InfinityWitness:
    """Shift choice certifying decay of the far-field integral for admissible q2.

    Guarantees xi >= 0 and effective beta in [1/p, 1].
    """
    _require(asym, INFINITY, "xi_witness_infinity", dims)
    bound = q2_lower_bound(asym, dims)
    if not q2 > bound:
        raise NotAdmissible(f"q2 = {q2} is not above the threshold {bound}")
    p, N, alpha, beta, gamma = _exact(
        dims.p, dims.N, asym.alpha, asym.beta, asym.gamma)
    a1, a2, a3 = alpha_triplet(asym.beta, asym.gamma, dims)
    if alpha >= a1:
        xi, case = 1 - beta, "alpha_ge_alpha1"
    elif alpha > max(a2, a3):
        xi, case = (alpha + (1 - beta) * N) / (N - gamma), "alpha_middle"
    elif beta == 1:
        xi, case = beta - beta, "beta_one"
    elif beta > 1 / p:
        xi, case = beta - beta, "beta_above_pinv"
    else:
        xi, case = (1 - p * beta) / p, "beta_below_pinv"
    return InfinityWitness(xi=xi, alpha_eff=alpha + xi * gamma,
                           beta_eff=beta + xi, case_id=case)


def tail_decay_exponent(asym: EndpointAsymptotics, q2, dims: ProblemDims):
    """Negative exponent delta bounding the far-field integral by C * R^delta.

    delta = alpha_eff - nu*(q2 - p*beta_eff) + N*(1 - beta_eff) at the weights of
    xi_witness_infinity, nu being pointwise_decay_exponent; < 0 for admissible q2.
    """
    w = xi_witness_infinity(asym, q2, dims)  # validates admissibility
    p, N, q2 = _exact(dims.p, dims.N, q2)
    nu = pointwise_decay_exponent(asym.a, asym.gamma, dims)
    return w.alpha_eff - nu * (q2 - p * w.beta_eff) + N * (1 - w.beta_eff)
