"""Discrete variational solver for the radial quasilinear problem.

The energy

    I(u) = (1/p) * [ int A |u'|^p  +  int V |u|^p ] - int K F(u)

is discretized on a log-spaced radial grid: cell-constant derivatives, nodal
values for the zero-order terms, and quadrature weights that integrate the
r^(N-1) surface measure exactly per cell.  A nonnegative nontrivial critical
point is computed by descent on the Nehari-projected energy: a step along a
conjugate direction in the metric of the linearized quadratic form, a
positive-part clamp, and re-projection, with an Armijo line search that
backtracks from the unit step and expands an accepted unit step while the
projected energy falls.

Boundary conditions: homogeneous Dirichlet at the outer truncation radius,
natural (free) at the inner one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import NamedTuple, Optional

import numpy as np

from .exponents import EndpointAsymptotics, ProblemDims, pointwise_decay_exponent
from .nonlinearity import PURE_POWER, RATIONAL, NonlinearitySpec, F_eval, f_eval
from . import potentials
from .potentials import PotentialTable


class BadRange(ValueError):
    """Invalid truncation interval or node count."""


class NoProjection(RuntimeError):
    """The ray through u never meets the natural constraint set."""


class NotConverged(RuntimeError):
    """Descent stopped above tolerance.

    stop_reason is "line_search_stalled" when no step length down to the
    smallest one lowered the projected energy or no finite descent direction
    exists (g . P^-1 g not finite and positive), "stagnated" when accepted
    steps left the energy bit for bit unchanged _STAGNANT_STEPS times in a
    row (the residual then sits at its rounding floor, which the message
    gives), and "budget_exhausted" when the iteration budget ran out."""

    def __init__(self, message, stop_reason):
        super().__init__(f"{message} ({stop_reason})")
        self.stop_reason = stop_reason


class CollapsedToZero(RuntimeError):
    """The iterate degenerated to the trivial solution."""


class Degenerate(ValueError):
    """The function support is too small for the requested diagnostic."""


# cyclic reduction stops once this many unknowns are left, and solves them
# with the explicit inverse of their dense block: one product instead of
# five more levels down and back up
_DENSE_TAIL = 32


class BandedFactor(NamedTuple):
    """A tridiagonal matrix reduced by factor_banded, for solve_banded."""

    # per level, whose rows number 2m + 1 after padding: the elimination
    # multipliers lo and hi, the couplings (a[2::2], c[:-1:2]) of the even
    # rows to the odd unknowns, and the even rows' diagonal b[::2]
    levels: tuple
    inverse: np.ndarray  # of the dense block left after the last level


def factor_banded(ab) -> BandedFactor:
    """Reduce a tridiagonal matrix by cyclic reduction, for solve_banded.

    ab is LAPACK's (1, 1) band layout: ab[0, 1:] is the superdiagonal, ab[1]
    the diagonal and ab[2, :-1] the subdiagonal.  Each level eliminates the
    even-indexed unknowns from the odd-indexed rows; a ghost row (diagonal
    1, the rest 0) first pads an even length.  At _DENSE_TAIL unknowns or
    fewer the block left is inverted; a singular block, or one with NaN
    entries, gives a NaN inverse.  The factor depends on the matrix only, so
    one factor serves any number of right-hand sides.  There is no pivoting,
    which is stable for diagonally dominant matrices (Heller, SIAM J. Numer.
    Anal. 1976) such as the preconditioner's metric, not for indefinite ones.
    """
    a = np.concatenate(([0.0], ab[2, :-1]))  # row i's coefficient of x[i-1]
    b = np.array(ab[1], dtype=float)
    c = np.concatenate((ab[0, 1:], [0.0]))  # row i's coefficient of x[i+1]
    levels = []
    while len(b) > _DENSE_TAIL:
        if len(b) % 2 == 0:
            a, b, c = np.append(a, 0.0), np.append(b, 1.0), np.append(c, 0.0)
        lo = a[1::2] / b[:-1:2]
        hi = c[1::2] / b[2::2]
        levels.append((lo, hi, np.array((a[2::2], c[:-1:2])), b[::2].copy()))
        # one at a time, each array dropped once nothing reads it
        b = b[1::2] - lo * c[:-1:2] - hi * a[2::2]
        a = -lo * a[:-1:2]
        c = -hi * c[2::2]
    try:
        inverse = np.linalg.inv(np.diag(b) + np.diag(a[1:], -1) + np.diag(c[:-1], 1))
    except np.linalg.LinAlgError:
        inverse = np.full((len(b), len(b)), np.nan)
    return BandedFactor(tuple(levels), inverse)


def solve_banded(factor: BandedFactor, rhs):
    """Solve the tridiagonal system reduced by factor_banded for rhs: the
    right-hand side is reduced level by level, the dense block is solved,
    and the unknowns are substituted back from the last level up, each
    level's in place of its own right-hand side.  Each level's right-hand
    side is a new array, with a 0 ghost row where the factor has one, so
    neither the factor nor rhs is written to; the arrays of a level are
    dropped once the level above has read its unknowns.

    The result is a view of the top level's array, which has one entry
    more, 0 where the solution is finite: its base is the solution of the
    system bordered by an uncoupled row with right-hand side 0, such as
    the outer Dirichlet node's, with no copy."""
    levels = factor.levels
    sizes = [2 * len(lo) + 1 for lo, _, _, _ in levels] + [len(factor.inverse)]
    top = np.zeros(max(sizes[0], len(rhs) + 1))
    top[:len(rhs)] = rhs
    d = top[:sizes[0]]
    reduced = []  # per level: its right-hand side, two views of it, the level below's rows
    for (lo, hi, _, _), size in zip(levels, sizes[1:]):
        above, d = d, np.zeros(size)
        left, right, below = above[:-1:2], above[2::2], d[:len(lo)]
        reduced.append((above, left, right, below))
        np.multiply(lo, left, below)  # below = d[1::2] - lo d[:-1:2] - hi d[2::2] above
        np.subtract(above[1::2], below, below)
        below -= hi * right
    d[:] = np.dot(factor.inverse, d)
    for _, _, coupling, b_even in reversed(levels):
        d, left, right, x = reduced.pop()
        right -= coupling[0] * x
        left -= coupling[1] * x
        even = d[::2]
        even /= b_even
        d[1::2] = x
    return top[:len(rhs)]


def _brentq(f, xa, xb, args, xtol, rtol):
    """Root of f(x, *args) in [xa, xb] by Brent's method: a line-for-line
    port of scipy.optimize.brentq (scipy/optimize/Zeros/brentq.c), which it
    matches to the last bit.  f(xa) and f(xb) must differ in sign and f must
    not be NaN on the bracket, which scipy's wrapper checks and this does not.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre, *args), f(xcur, *args)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    for _ in range(100):  # scipy's default maxiter
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur, *args)
    raise RuntimeError(f"failed to converge after 100 iterations, value is {xcur}")


# OpenBLAS splits a dot product across threads beyond 10000 entries, which
# moves its rounding with the thread count; blocks of this length never split
_DOT_BLOCK = 8192


def _dot(a, b):
    """a . b as a float, summed in an order that does not depend on the BLAS
    thread count: np.dot on consecutive blocks of _DOT_BLOCK entries, whose
    results are added from the first block on.  One block is one np.dot."""
    if len(a) <= _DOT_BLOCK:
        return float(np.dot(a, b))
    return float(sum(np.dot(a[i:i + _DOT_BLOCK], b[i:i + _DOT_BLOCK])
                     for i in range(0, len(a), _DOT_BLOCK)))


def unit_sphere_area(N: int) -> float:
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


@dataclass
class RadialGrid:
    """Log-spaced nodes with exact per-cell integrals of the surface measure.

    quad_weights[i] integrates a nodal-value integrand against
    omega_{N-1} r^(N-1) dr; cell_measure[c] is the same integral over one cell.
    """

    nodes: np.ndarray
    quad_weights: np.ndarray
    dims: ProblemDims
    cell_measure: np.ndarray
    dr: np.ndarray

    @property
    def n(self):
        return len(self.nodes)

    def integrate(self, nodal_values):
        """Quadrature of a nodal integrand against the surface measure."""
        return _dot(self.quad_weights, nodal_values)


def _check_range(r_min, r_max, n_nodes):
    """Raise BadRange unless build_grid accepts the interval and node count."""
    if not (0 < r_min < r_max):
        raise BadRange(f"need 0 < r_min < r_max, got {r_min}, {r_max}")
    if n_nodes < 16:
        raise BadRange(f"need at least 16 nodes, got {n_nodes}")


def build_grid(r_min: float, r_max: float, n_nodes: int, dims: ProblemDims) -> RadialGrid:
    """Log-uniform grid on [r_min, r_max]; weights are exact cell integrals
    of omega_{N-1} r^(N-1) dr split evenly between cell endpoints."""
    _check_range(r_min, r_max, n_nodes)
    nodes = np.logspace(math.log10(r_min), math.log10(r_max), n_nodes)
    nodes[0], nodes[-1] = r_min, r_max
    omega = unit_sphere_area(dims.N)
    cell = omega * np.diff(nodes ** dims.N) / dims.N
    w = np.zeros(n_nodes)
    w[:-1] += 0.5 * cell
    w[1:] += 0.5 * cell
    return RadialGrid(nodes=nodes, quad_weights=w, dims=dims, cell_measure=cell,
                      dr=np.diff(nodes))


@dataclass
class RadialFunction:
    """Nodal values on a RadialGrid, zero at the outer truncation node."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if len(v) != self.grid.n:
            raise ValueError("values length does not match the grid")
        if v[-1] != 0.0:
            raise ValueError("outer boundary value must be zero")
        self.values = v


@dataclass
class SolveReport:
    energy: float
    norm_X_p: float
    residual: float
    nehari_gap: float
    iterations: int
    decay_slope_origin: float
    decay_slope_infinity: float
    nu0_bound: float
    nu_inf_bound: float
    # why descent stopped: "converged" here; NotConverged carries the others
    stop_reason: str

    def to_dict(self):
        return asdict(self)


def _check_alignment(grid: RadialGrid, table: PotentialTable):
    if len(table.radii) != grid.n or not np.allclose(table.radii, grid.nodes,
                                                     rtol=1e-12, atol=0.0):
        raise ValueError("potential table must be sampled on the grid nodes")


@dataclass(frozen=True)
class _OnGrid:
    """A potential table checked against one grid, with the per-cell and
    per-node weights that every solve step reads."""

    grid: RadialGrid
    table: PotentialTable
    a_measure: np.ndarray  # A per cell times the cell measure: the A-term's weight
    wv: np.ndarray  # quadrature weight times V per node
    wk: np.ndarray  # quadrature weight times K per node
    # log(w K), formed from log w + log K so that astronomically weighted
    # nodes neither overflow nor underflow in the projection's powers
    log_wk: np.ndarray
    log_wk_span: float  # max log_wk - min log_wk


def _on_grid(grid: RadialGrid, table: PotentialTable) -> _OnGrid:
    _check_alignment(grid, table)
    a_measure = np.exp(table.log_A_cell) * grid.cell_measure
    # V, K, w V or w K may overflow to inf, which later steps detect; no warning
    with np.errstate(over="ignore"):
        wv, wk = (grid.quad_weights * np.exp(x) for x in (table.log_V, table.log_K))
    log_wk = np.log(grid.quad_weights) + table.log_K
    return _OnGrid(grid, table, a_measure, wv, wk, log_wk, float(log_wk.max() - log_wk.min()))


def _slopes(u, grid: RadialGrid):
    """Cell slopes u' of the nodal array u."""
    du = u[1:] - u[:-1]
    du /= grid.dr
    return du


def _abs_pow(x, p, out):
    """|x|^p, written into out (which may be x; None for a new array); for
    p = 2 formed as x x, which gives the same bits in one pass."""
    if p == 2.0:
        return np.multiply(x, x, out=out)
    out = np.abs(x, out=out)
    out **= p
    return out


def _norm_p(u, du, on: _OnGrid, eps=0.0):
    """p-th power of the weighted norm, the A-term plus the V-term.  du is
    _slopes(u), and serves as scratch: it is overwritten with the A-term
    density, then with |u|^p one _dot block at a time.  With eps = 0 the
    A-term density is |u'|^p; otherwise it is the flux-regularized
    (u'^2 + eps^2)^(p/2) - eps^p, which makes the value p times the quadratic
    part of the energy."""
    p = on.grid.dims.p
    if eps == 0.0:
        _abs_pow(du, p, du)
    else:  # inf or NaN where u' is astronomical: the energy is not finite, the trial refused
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(du, du, out=du)
            du += eps * eps
            du **= p / 2.0
            du -= eps ** p
    a_term = _dot(du, on.a_measure)
    n, block = len(u), _DOT_BLOCK
    if n <= block:  # then du, one entry short, cannot hold |u|^p
        return a_term + _dot(on.wv, _abs_pow(u, p, None))
    # the V-term summed block by block as _dot sums it
    return a_term + float(sum(np.dot(on.wv[i:i + block],
                                     _abs_pow(u[i:i + block], p, du[:min(block, n - i)]))
                              for i in range(0, n, block)))


def _eps_for(du):
    """Flux regularization: 1e-10 times the largest cell slope |u'|, as a
    numpy float so that its powers overflow to inf instead of raising."""
    return 1e-10 * (np.max(np.abs(du)) if len(du) else np.float64(0.0))


def energy(u: RadialFunction, table: PotentialTable, nl: NonlinearitySpec) -> float:
    """Discrete energy at u; its p-homogeneous quadratic part is formed on u / max |u|."""
    on = _on_grid(u.grid, table)
    s = np.max(np.abs(u.values)) or np.float64(1.0)
    v = u.values / s
    dv = _slopes(v, u.grid)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(s ** u.grid.dims.p * _norm_p(v, dv, on, _eps_for(dv)) / u.grid.dims.p
                     - _dot(on.wk, F_eval(nl, u.values)))


_TINY = np.finfo(float).tiny
_LOG_MAX = math.log(np.finfo(float).max)
# the K-term's f is formed on blocks of this many nodes, so that its
# temporaries (about 70 kB) stay small beside the gradient on fine meshes
_F_BLOCK = 4096


def _lower_order_terms(u, on: _OnGrid, nl):
    """Nodal V and K terms of the gradient, w V |u|^(p-2) u and then w K f(u),
    yielded one at a time, so that a reader that drops each one holds only one.

    f is evaluated only where u^(q-1) is a normal float for the largest
    exponent q, the exponent of f near 0; below that the power underflows,
    which is slow in libm, and the K-term is taken as 0 * w K: 0, or NaN
    where w K overflowed, so that the overflow still shows.  f is formed
    _F_BLOCK nodes at a time into the K-term's own array, so that its
    temporaries stay small beside the gradient."""
    p = on.grid.dims.p
    with np.errstate(invalid="ignore", divide="ignore"):
        zero_order = u if p == 2.0 else np.where(u == 0.0, 0.0, np.abs(u) ** (p - 2.0) * u)
    yield on.wv * zero_order
    del zero_order
    threshold = _TINY ** (1.0 / (max(nl.q1, nl.q2) - 1.0))
    source = np.zeros(len(u))
    for i in range(0, len(u), _F_BLOCK):
        live = u[i:i + _F_BLOCK] > threshold
        source[i:i + _F_BLOCK][live] = f_eval(nl, u[i:i + _F_BLOCK][live])
    del live
    with np.errstate(invalid="ignore"):
        source *= on.wk
    yield source


def _gradient_array(u, on: _OnGrid, eps, lower):
    """Exact gradient of the discrete energy at u; outer Dirichlet node excluded.

    lower yields the nodal V and K terms at u (_lower_order_terms, which does
    not depend on eps); they are added after the flux, one at a time."""
    grid = on.grid
    p = grid.dims.p
    flux = _slopes(u, grid)  # for p = 2 the flux density is u' itself
    if p != 2.0:
        du = flux
        # an astronomical u' overflows to a residual that cannot converge
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            s = du * du + eps * eps
            flux = s ** ((p - 2.0) / 2.0) * du
            # where s leaves the normal float range eps is negligible: the
            # flux is sign(u') |u'|^(p-1), and 0 at u' = eps = 0
            off = ~((s >= _TINY) & (s < np.inf))
            if off.any():
                flux[off] = np.sign(du[off]) * np.abs(du[off]) ** (p - 1.0)
        del du, s, off
    flux *= np.divide(on.a_measure, grid.dr)  # the flux's weight per unit slope
    g = np.zeros(grid.n)
    g[:-1] -= flux
    g[1:] += flux
    del flux
    terms = iter(lower)
    g += next(terms)
    g -= next(terms)
    g[-1] = 0.0
    return g


def _hat_norms(on: _OnGrid):
    """Weighted norm of each nodal hat function (outer node excluded)."""
    grid = on.grid
    p = grid.dims.p
    stiff = on.a_measure / grid.dr ** p
    ea = np.zeros(grid.n)
    ea[:-1] += stiff
    ea[1:] += stiff
    ea += on.wv
    ea **= 1.0 / p
    return ea


def _residual(g0, hat_norms):
    """Largest defect g0 per hat-function norm, outer node excluded."""
    defect = np.abs(g0[:-1])
    defect /= hat_norms[:-1]
    return float(defect.max())


def nehari_scale(u: RadialFunction, table: PotentialTable,
                 nl: NonlinearitySpec) -> float:
    """Positive scale t with t^p ||u||^p = int K f(tu) tu (natural-constraint hit).

    See _project, which also gives the source term at that scale.  Raises
    NoProjection when no positive t exists.
    """
    v, on = u.values, _on_grid(u.grid, table)
    level = _norm_p(v, _slopes(v, u.grid), on)
    return float(_project(np.maximum(v, 0.0), on, nl, level)[0])


def _project(v, on: _OnGrid, nl, level):
    """The Nehari scale s of the nonnegative nodal array v and the source
    term sum w K F(s v) at it; level is ||v||^p.

    On each branch of the nonlinearity the scaled source is a power of s
    times a fixed nodal sum, so log v and the weighted powers w K v^q are
    formed once.  A single power q has the closed form
    s = (||v||^p / (c sum w K v^q))^(1/(q-p)), with the sum taken on the
    whole node array as e^m sum e^(log w K v^q - m), m the largest term,
    and the source is then s^p ||v||^p / q.  For min_powers, with a = w K v^q_hi and
    b = w K v^q_lo, the scaled source divided by s^p is

        M (s^(q_hi-p) sum_{s v <= 1} a + s^(q_lo-p) sum_{s v > 1} b),

    and for rational, with a = w K v^q2 and e = v^(q2-q1), it is

        M s^(q2-p) sum a / (1 + s^(q2-q1) e).

    With exponents above p either grows with s, so its crossing with
    ||v||^p is unique.  For min_powers the single-branch closed forms are
    tried first: the all-small one, from the same whole-array sum, is the
    root when s max v <= 1; the all-large one when s min v > 1 over the
    support.  Otherwise the crossing
    is bracketed and located by _bracketed_root on the support's entries,
    and the source is the masked sums at s (min_powers) or one F_eval on
    s v (rational).  Raises NoProjection when no positive s exists, or when
    a closed-form s leaves the float range: a single power's, or the
    all-small one when M sum w K v^q_hi overflows.
    """
    p = on.grid.dims.p
    if level == 0.0:
        raise NoProjection("u vanishes")
    v_max = v.max()
    if nl.M <= 0.0 or not v_max > 0.0:
        raise NoProjection("source term vanishes on the positive part")
    if nl.kind == RATIONAL and nl.q1 != nl.q2:
        supp = v > 0.0
        pos = v[supp]
        log_v = np.log(pos)
        s = np.float64(_bracketed_root(_rational_excess, (
            np.exp(on.log_wk[supp] + nl.q2 * log_v), np.exp((nl.q2 - nl.q1) * log_v),
            nl.q2 - nl.q1, nl.q2 - p, nl.M, level)))
        return s, _dot(on.wk[supp], F_eval(nl, s * pos))

    single = nl.kind == PURE_POWER or nl.q1 == nl.q2
    q_hi, q_lo = max(nl.q1, nl.q2), min(nl.q1, nl.q2)
    # f = c t^(q_hi-1) for a single power (c = M, or M/2 for the rational
    # splice) and on the small branch of min_powers (c = M)
    c = 0.5 * nl.M if nl.kind == RATIONAL else nl.M
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # beside the largest term, e^0, every term below e^-700 vanishes from
        # the sum to the last bit, so those terms are raised to e^-700, which
        # spares exp its slow subnormal path; below this floor v gives such a
        # term at any node, so v is raised to it, which spares log its slow
        # log 0 (v = 0 nodes add what they would add at log 0 = -inf)
        floor = v_max * math.exp(-(700.0 + on.log_wk_span) / q_hi)
        log_v = np.maximum(v, floor)
        np.log(log_v, out=log_v)
        # a single power scales log v in place; min_powers keeps it for a mixed root
        terms = np.multiply(log_v, q_hi, out=log_v if single else None)
        terms += on.log_wk  # log w K v^q_hi
        m = terms.max()
        terms -= m
        np.maximum(terms, -700.0, out=terms)
        log_c_sum = math.log(c) + (float(m) + math.log(np.exp(terms, out=terms).sum()))
        try:
            s = np.float64(math.exp((math.log(level) - log_c_sum) / (q_hi - p)))
        except OverflowError:
            s = np.float64(math.inf)
        if single:
            if s == math.inf:
                raise NoProjection("the Nehari scale overflows")
            if s == 0.0:
                raise NoProjection("the Nehari scale underflows")
            return s, float(s ** p * level / q_hi)
        if s == 0.0 or log_c_sum > _LOG_MAX:  # s underflows, or M sum w K v^q_hi overflows
            raise NoProjection("the all-small Nehari scale reads 0")
        if s * v_max <= 1.0:
            return s, float(s ** p * level / q_hi)

        # F(t) is t^q_hi / q_hi up to t = 1 and 1/q_hi - 1/q_lo + t^q_lo / q_lo
        # beyond; on the large branch the root satisfies M s^q_lo sum = s^p ||v||^p
        supp = v > 0.0
        pos, log_wk, wk = v[supp], on.log_wk[supp], on.wk[supp]
        v_min = np.min(pos)
        # log max(v, floor) is log v on the support unless a node there sits below the floor
        log_v = log_v[supp] if v_min >= floor else np.log(pos)
        a = np.exp(log_wk + q_hi * log_v)
        b = np.exp(log_wk + q_lo * log_v)
        s = (level / (nl.M * np.sum(b))) ** (1.0 / (q_lo - p))
        if math.isfinite(s) and s * v_min > 1.0:
            return s, float(s ** p * level / q_lo
                            + nl.M * (1.0 / q_hi - 1.0 / q_lo) * np.sum(wk))
        s = np.float64(_bracketed_root(_min_powers_excess, (
            pos, a, b, q_hi - p, q_lo - p, nl.M, level)))
        large = s * pos > 1.0
        source = nl.M * (s ** q_hi * np.sum(a[~large]) / q_hi
                         + s ** q_lo * np.sum(b[large]) / q_lo
                         + (1.0 / q_hi - 1.0 / q_lo) * np.sum(wk[large]))
    return s, float(source)


def _bracketed_root(excess, args):
    """Root of the increasing excess(t, *args): bracketed by doubling and
    halving from t = 1, over the powers of 2 that are positive finite
    floats, then located by Brent's method to a relative tolerance of 1e-13.
    Each t is evaluated once; the bracket ends are remembered, not
    recomputed."""
    values = {}

    def at(t):
        if t not in values:
            values[t] = excess(t, *args)
        return values[t]

    lo = hi = 1.0
    # Brent's extrapolation may divide by zero, which gives inf as in C
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(1024):  # up to 2^1023
            if at(hi) >= 0.0:
                break
            lo, hi = hi, 2.0 * hi
        else:
            raise NoProjection("scaled source never reaches the norm level")
        for _ in range(1075):  # down to 2^-1074
            if at(lo) <= 0.0:
                break
            lo, hi = 0.5 * lo, lo
        else:
            raise NoProjection("scaled source exceeds the norm level at any scale")
        return float(_brentq(at, lo, hi, (), xtol=1e-13 * lo, rtol=1e-13))


def _min_powers_excess(t, pos, a, b, k_hi, k_lo, M, level):
    """M (t^k_hi sum_{t pos <= 1} a + t^k_lo sum_{t pos > 1} b) - level."""
    t = np.float64(t)  # t ** k overflows to inf instead of raising
    # the mask as 1.0 and 0.0 once, not cast to float by every _dot block
    small = (t * pos <= 1.0).astype(float)
    return M * (t ** k_hi * _dot(a, small) + t ** k_lo * _dot(b, 1.0 - small)) - level


def _rational_excess(t, a, e, d, k, M, level):
    """M t^k sum a / (1 + t^d e) - level.  For t > 1 the ratio is formed as
    t^(k-d) / (t^-d + e), so that t^k and t^d cannot overflow where the
    ratio itself is finite (k > d)."""
    t = np.float64(t)
    if t <= 1.0:
        return M * t ** k * float(np.sum(a / (1.0 + t ** d * e))) - level
    return M * t ** (k - d) * float(np.sum(a / (t ** -d + e))) - level


def decay_slopes(u: RadialFunction):
    """Log-log slopes of |u| over the innermost and outermost supported decades,
    where |u| exceeds 1e-12 max |u|."""
    r = u.grid.nodes
    v = np.abs(u.values)
    vmax = float(np.max(v))
    if vmax == 0.0:
        raise Degenerate("function is identically zero")
    mask = v > 1e-12 * vmax
    rs, vs = r[mask], v[mask]
    if rs[-1] / rs[0] < 10.0 or len(rs) < 6:
        raise Degenerate("support spans less than one decade")

    def fit(sel):
        if sel.sum() < 3:
            raise Degenerate("too few points in the end decade")
        return float(np.polyfit(np.log(rs[sel]), np.log(vs[sel]), 1)[0])

    return fit(rs <= rs[0] * 10.0), fit(rs >= rs[-1] / 10.0)


def initial_bump(grid: RadialGrid) -> np.ndarray:
    """Positive bump centered at r = 1 with unit width in log r.

    Compact support (three widths) keeps the starting energy moderate even
    when V is strongly singular toward an endpoint; descent grows the tails
    back wherever they lower the energy."""
    s = np.log(grid.nodes)
    vals = np.where(np.abs(s) < 3.0, np.exp(-0.5 * s * s), 0.0)
    vals[-1] = 0.0
    return vals


def _factor_metric(on: _OnGrid, w_a, w_v):
    """Factor of the linearized quadratic metric P on the free nodes.

    P is the second derivative of the quadratic part of the energy with the
    p-dependent weights lagged at the current iterate: w_a = (u'^2 +
    eps^2)^((p-2)/2) per cell and w_v = (u^2 + eps_u^2)^((p-2)/2) per node,
    where eps and eps_u keep P positive definite for every p.  For p = 2
    both weights are 1 and P does not depend on the iterate.
    """
    grid = on.grid
    p = grid.dims.p
    stiff = (p - 1.0) * np.exp(on.table.log_A_cell) * w_a * grid.cell_measure / grid.dr ** 2
    with np.errstate(over="ignore"):  # V may overflow to inf
        diag = (p - 1.0) * grid.quad_weights * np.exp(on.table.log_V) * w_v
    diag[:-1] += stiff
    diag[1:] += stiff
    m = grid.n - 1
    # absolute guard against exact-zero rows only: any value tied to the
    # diagonal scale would swamp rows whose own scale sits far below the
    # global maximum when V spans many orders of magnitude
    ab = np.zeros((3, m))
    ab[0, 1:] = -stiff[: m - 1]
    ab[1, :] = diag[:m] + 1e-300
    ab[2, : m - 1] = -stiff[: m - 1]
    del stiff, diag  # not alive beside the copies that factor_banded makes
    return factor_banded(ab)


# step lengths of the line search, in units of the preconditioned direction
_MIN_STEP = 1e-14
_MAX_STEP = 64.0


def _clamped_step(u, d, t):
    """The step u - t d in one new array, clamped nonnegative and zero at
    the outer node."""
    trial = np.multiply(t, d, out=np.empty(len(u)))
    np.subtract(u, trial, out=trial)
    np.maximum(trial, 0.0, out=trial)
    trial[-1] = 0.0
    return trial


def _projected_trial(u, d, t, on: _OnGrid, nl):
    """The step u - t d, clamped nonnegative (zero at the outer node) and
    scaled onto the Nehari set, with its energy and the scale s: (trial, E,
    s), or None when the step has no projection or no finite energy.

    The quadratic part is p-homogeneous, so the energy at scale s is
    s^p ||v||_reg^p / p - source, with the regularized norm taken on the
    unscaled trial v (eps scales with s).  For p = 2 the regularization
    leaves the form unchanged and ||v||_reg^p is the level."""
    trial = _clamped_step(u, d, t)
    level = _norm_p(trial, _slopes(trial, on.grid), on)
    try:
        scale, source = _project(trial, on, nl, level)
    except NoProjection:
        return None
    if not math.isfinite(scale) or scale <= 0.0:
        return None
    p = on.grid.dims.p
    if p == 2.0:
        reg = level
    else:
        du = _slopes(trial, on.grid)
        reg = _norm_p(trial, du, on, _eps_for(du))
    trial *= scale
    try:
        e = float(scale) ** p * reg / p - source
    except OverflowError:  # s^p
        return None
    return (trial, e, scale) if math.isfinite(e) else None


# accepted steps in a row that leave the energy bit for bit unchanged before
# descent stops as stagnated
_STAGNANT_STEPS = 20


def _gradient(u, on: _OnGrid, nl):
    """The gradient that descent follows and the one convergence is judged
    on: (g, g0).

    Descent follows the regularized gradient g, which for p < 2 can differ
    from the unregularized g0 near flat cells; for p = 2 the regularization
    leaves the flux unchanged and g is g0.  For p = 2 the lower-order terms
    are formed one at a time; otherwise both gradients read the pair."""
    lower = _lower_order_terms(u, on, nl)
    if on.grid.dims.p == 2.0:
        g = _gradient_array(u, on, 0.0, lower)
        return g, g
    lower = tuple(lower)
    g0 = _gradient_array(u, on, 0.0, lower)
    return _gradient_array(u, on, _eps_for(_slopes(u, on.grid)), lower), g0


def _stop_quantities(u, g0, on: _OnGrid):
    """What convergence is judged on at u: (residual, gap, ||u||^p), the
    largest defect g0 per hat-function norm and the Nehari gap
    |g0 . u| / ||u||^p.  The hat-function norms are formed here and dropped
    on return.  Raises CollapsedToZero where ||u||^p reads 0."""
    norm_p = _norm_p(u, _slopes(u, on.grid), on)
    if norm_p == 0.0:
        raise CollapsedToZero("the iterate's norm underflows")
    return _residual(g0, _hat_norms(on)), abs(_dot(g0, u)) / norm_p, norm_p


def _direction(u, g, on: _OnGrid, metric, last):
    """The descent direction d at u, its slope g . d and what the next
    step's direction reads of it: (d, slope, (d, z, g . z)), or (None,
    None, None) where g . z is not finite and positive.

    z = P^-1 g is the preconditioned gradient.  For p = 2 metric is the
    solve's one factor; for other p it is None, and the metric is factored
    afresh with the weights lagged at u and dropped on return.  z is the
    base of solve_banded's result, which holds the outer node's 0.

    d = z + beta d_last, with last = (d_last, g_last . z_last, g . z_last)
    from the last step; d_last is written over.  beta is Polak-Ribiere's
    clipped to [-beta_FR, beta_FR] (Gilbert and Nocedal, SIAM J. Optim. 2
    (1992)), both in the metric P:

        beta_FR = g . z / g_last . z_last,
        beta_PR = (g . z - g . z_last) / g_last . z_last.

    The search restarts, d = z, where last is None, and where g . d is not
    finite and positive.  P is symmetric with a positive, strictly dominant
    diagonal, so g . z > 0 wherever g and z are finite and g is not 0."""
    grid = on.grid
    p = grid.dims.p
    if metric is not None:
        z = solve_banded(metric, g[:-1]).base
    else:
        du = _slopes(u, grid)
        eps = _eps_for(du)
        eps_u = 1e-10 * float(np.max(np.abs(u)))
        # at an astronomical u the lagged weights and the solve may overflow;
        # a slope that is not finite then gives no direction
        with np.errstate(over="ignore", invalid="ignore"):
            w_a = (du * du + eps * eps) ** ((p - 2.0) / 2.0)
            del du
            z = solve_banded(_factor_metric(on, w_a, (u * u + eps_u * eps_u) ** ((p - 2.0) / 2.0)),
                             g[:-1]).base
    gz = _dot(g, z)
    if not math.isfinite(gz) or gz <= 0.0:
        return None, None, None
    if last is not None:
        d, gz_last, g_z_last = last
        beta_fr = gz / gz_last
        beta = max(-beta_fr, min((gz - g_z_last) / gz_last, beta_fr))
        # a d_last far longer than z may overflow: then no descent direction
        with np.errstate(over="ignore", invalid="ignore"):
            d *= beta
            d += z
        slope = _dot(g, d)
        if math.isfinite(slope) and slope > 0.0:
            return d, slope, (d, z, gz)
    return z, gz, (z, z, gz)


def _line_search(u, i_cur, d, slope, on: _OnGrid, nl):
    """The step from u along -d (see solve_ground_state), as _projected_trial
    gives it, or None when no step length down to _MIN_STEP passes.  One
    trial array is alive at a time."""
    t, step = 1.0, None
    while t > _MIN_STEP:
        step = _projected_trial(u, d, t, on, nl)
        if step is not None and step[1] <= i_cur - 1e-4 * t * slope:
            break
        step = None  # a refused trial is dropped before the next is formed
        t *= 0.5
    if step is None or t < 1.0:
        return step
    # an accepted unit step is doubled while the projected energy falls;
    # every iteration starts again from t = 1.  The last trial taken is held
    # as its step length, energy and scale while the next is formed, and is
    # formed again at the end, with the same operations and so the same bits
    taken, step = (t,) + step[1:], None
    while t < _MAX_STEP:
        t *= 2.0
        step = _projected_trial(u, d, t, on, nl)
        if step is None or step[1] >= taken[1]:
            break
        taken, step = (t,) + step[1:], None
    del step
    t, e, scale = taken
    trial = _clamped_step(u, d, t)
    trial *= scale
    return trial, e, scale


def solve_ground_state(table: PotentialTable, nl: NonlinearitySpec,
                       grid: RadialGrid, tol: float = 1e-6,
                       max_iter: int = 20000,
                       asym_origin: Optional[EndpointAsymptotics] = None,
                       asym_infinity: Optional[EndpointAsymptotics] = None,
                       on_iterate=None, u0=None):
    """Compute a nonnegative nontrivial critical point of the discrete energy.

    Descent on the Nehari-projected energy from u0 (nodal values, the r = 1
    bump by default; projected as a line-search trial): a step along a
    conjugate direction, positive-part clamp, re-projection and an Armijo
    line search (slope parameter 1e-4, on the slope g . d of the direction
    taken).  The direction is d = z + beta d_last, with z = P^-1 g the
    gradient preconditioned by the linearized quadratic metric P and beta
    the hybrid Fletcher-Reeves / Polak-Ribiere one (see _direction); the
    first step and a step whose g . d is not finite and positive restart
    with d = z, the preconditioned steepest descent step; with no descent
    direction (g . z not finite and positive) descent stops as stalled.
    The search backtracks from t = 1 with contraction 0.5 down to t = 1e-14.
    When t = 1 passes, t is doubled, up to 64, while each doubled trial has
    a strictly lower projected energy than the last one taken; the last one
    taken is the step.  Raises CollapsedToZero when only the trivial
    critical point is reachable (or u0 has no projection) and NotConverged,
    with its stop_reason, when the line search stalls, the energy stagnates
    or the iteration budget is exhausted above tolerance.

    An iteration runs four phases, _gradient, _stop_quantities, _direction
    and _line_search; only u, its energy, the last direction and z outlive
    one, and for p = 2 the metric, which is then factored once, first.  z
    dies once the next gradient has read it, before the stop test, which
    forms the hat-function norms and drops them.  For other p each direction
    factors its own metric, so one factor is alive at a time.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    on = _on_grid(grid, table)
    # for p = 2 the lagged weights are 1, so P is factored once per solve,
    # before the other arrays of the solve exist
    metric = _factor_metric(on, 1.0, 1.0) if grid.dims.p == 2.0 else None
    # the start is the projection of u0, taken as a line-search trial
    step = _projected_trial(initial_bump(grid) if u0 is None else u0, 0.0, 0.0, on, nl)
    if step is None:
        raise CollapsedToZero("the initial guess has no Nehari projection with a finite energy")
    u, i_cur, _ = step
    stagnant = 0  # accepted steps in a row that left the energy unchanged
    last = None  # (d, z, g . z) of the last step, or None to restart
    # pass k tests u and, unless it stops there, takes step k; pass
    # max_iter + 1 only tests, and the report counts at most max_iter
    for k in range(1, max_iter + 2):
        g, g0 = _gradient(u, on, nl)
        if last is not None:  # z_last is read once, for beta_PR, and dies
            d, z, gz = last
            last = d, gz, _dot(g, z)
            del d, z
        residual, gap, norm_p = _stop_quantities(u, g0, on)
        del g0
        if residual <= tol and gap <= tol:
            stop_reason = "converged"
            break
        if stagnant == _STAGNANT_STEPS:
            stop_reason = "stagnated"
            break
        if k > max_iter:
            stop_reason = "budget_exhausted"
            break
        d, slope, last = _direction(u, g, on, metric, last)
        del g  # the gradient dies before the line search
        step = None if d is None else _line_search(u, i_cur, d, slope, on, nl)
        del d  # the direction lives on in last
        if step is None:
            stop_reason = "line_search_stalled"
            break
        stagnant = stagnant + 1 if step[1] == i_cur else 0
        u, i_cur, _ = step
        if on_iterate is not None:
            on_iterate(k, i_cur)

    iterations = min(k, max_iter)
    if stop_reason != "converged":
        residual_is = "residual" if stop_reason != "stagnated" else \
            f"energy unchanged over {_STAGNANT_STEPS} steps, residual floor"
        raise NotConverged(
            f"{residual_is} {residual:.3e}, gap {gap:.3e} after {iterations} iterations",
            stop_reason)
    del on, metric, last, g, step  # the report reads u only
    uf = RadialFunction(grid, u)
    try:
        slope0, slope_inf = decay_slopes(uf)
    except Degenerate:
        slope0, slope_inf = math.nan, math.nan
    nu0 = pointwise_decay_exponent(asym_origin.a, asym_origin.gamma, grid.dims) \
        if asym_origin is not None else math.nan
    nu_inf = pointwise_decay_exponent(asym_infinity.a, asym_infinity.gamma, grid.dims) \
        if asym_infinity is not None else math.nan
    report = SolveReport(
        energy=i_cur,
        norm_X_p=norm_p,
        residual=residual,
        nehari_gap=gap,
        iterations=iterations,
        decay_slope_origin=slope0,
        decay_slope_infinity=slope_inf,
        nu0_bound=float(nu0),
        nu_inf_bound=float(nu_inf),
        stop_reason="converged",
    )
    return uf, report


def solve_problem(problem, r_min, r_max, n_nodes, start=None):
    """solve_ground_state of problem (a cli.RunConfig) on its grid and table over
    [r_min, r_max], from start (a RadialFunction on any grid) interpolated in log r
    as u0.  Raises BadRange if a potential overflows the float range on that grid."""
    grid = build_grid(r_min, r_max, n_nodes, problem.dims)
    # read from its module at call time, so a wrapper set there (the benchmark's tracer) sees it
    table = potentials.eval_potentials(problem.spec_A, problem.spec_V, problem.spec_K, grid.nodes)
    # exp is increasing and a NaN max propagates, so the max's exp decides
    with np.errstate(over="ignore"):
        if not all(np.isfinite(np.exp(np.max(x))) for x in (table.log_A, table.log_V, table.log_K)):
            raise BadRange("potentials overflow the float range on the solve grid; "
                           "shrink [r_min, r_max]")
    u0 = None if start is None else np.interp(
        np.log(grid.nodes), np.log(start.grid.nodes), start.values)
    return solve_ground_state(table, problem.solver_nonlinearity(), grid, tol=problem.solve_tol,
                              max_iter=problem.max_iter, asym_origin=problem.asym_origin,
                              asym_infinity=problem.asym_infinity, u0=u0)
