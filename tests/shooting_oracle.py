"""Independent shooting-method oracles for the unit-potential benchmark.

ground_state_center integrates the radial profile equation
u'' + (2/r) u' - u + u^3 = 0 with u'(0) = 0 by fixed-step RK4 and bisects on
u(0) between overshoot (u crosses zero) and undershoot (u turns back upward),
yielding the positive decaying ground-state profile.  ground_state_center_p
does the same for -Delta_p u + u^(p-1) = u^(q-1) in R^N, shooting on u and
its flux r^(N-1) |u'|^(p-2) u'.
"""

import math

import numpy as np


def _rhs(r, y):
    u, v = y
    return np.array([v, u - u ** 3 - 2.0 * v / r])


def integrate_profile(s, r_end=30.0, h=2e-3, r0=1e-6):
    """RK4 trajectory from the series start; returns (r_values, u_values)."""
    u0 = s + r0 ** 2 * (s - s ** 3) / 6.0
    v0 = r0 * (s - s ** 3) / 3.0
    n = int((r_end - r0) / h)
    rs = np.empty(n + 1)
    us = np.empty(n + 1)
    y = np.array([u0, v0])
    r = r0
    rs[0], us[0] = r, y[0]
    for i in range(1, n + 1):
        k1 = _rhs(r, y)
        k2 = _rhs(r + h / 2, y + h / 2 * k1)
        k3 = _rhs(r + h / 2, y + h / 2 * k2)
        k4 = _rhs(r + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        r = r + h
        rs[i], us[i] = r, y[0]
        if y[0] < 0.0 or (y[1] > 1e-10 and y[0] > 0.0 and y[0] < 0.9 * s):
            return rs[: i + 1], us[: i + 1]
    return rs, us


def _classify(s, r_end=30.0, h=2e-3):
    """Return 'high' if the shot crosses zero, 'low' if it turns back up."""
    rs, us = integrate_profile(s, r_end=r_end, h=h)
    if us[-1] < 0.0:
        return "high"
    return "low"


def ground_state_center(lo=1.0, hi=10.0, iters=60, h=2e-3):
    """Bisect on the center value of the positive decaying profile."""
    assert _classify(lo, h=h) == "low" and _classify(hi, h=h) == "high"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if _classify(mid, h=h) == "high":
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def series_value(s, N, p, q, r):
    """u(r) near the origin of the profile with u(0) = s: the series
    s + sign(c) (p-1)/p |c|^(1/(p-1)) r^(p/(p-1)), c = (s^(p-1) - s^(q-1)) / N."""
    c = (s ** (p - 1.0) - s ** (q - 1.0)) / N
    return s + math.copysign((p - 1.0) / p * abs(c) ** (1.0 / (p - 1.0)) * r ** (p / (p - 1.0)), c)


def _classify_p(s, N, p, q, h, r_end=30.0, r0=1e-6):
    """The p-Laplacian shot: 'high' if u crosses zero, 'low' if it turns back
    up below 0.9 s or never does before r_end.

    -Delta_p u + u^(p-1) = u^(q-1) is integrated by RK4 in u and the flux
    w = r^(N-1) |u'|^(p-2) u', whose series start is w = c r^N (see
    series_value for c)."""
    e = 1.0 / (p - 1.0)

    def rhs(r, u, w):
        rn = r ** (N - 1)
        mag = abs(u)
        return (math.copysign(abs(w / rn) ** e, w),
                rn * math.copysign(1.0, u) * (mag ** (p - 1.0) - mag ** (q - 1.0)))

    u, w, r = series_value(s, N, p, q, r0), (s ** (p - 1.0) - s ** (q - 1.0)) / N * r0 ** N, r0
    for _ in range(int((r_end - r0) / h)):
        k1u, k1w = rhs(r, u, w)
        k2u, k2w = rhs(r + h / 2, u + h / 2 * k1u, w + h / 2 * k1w)
        k3u, k3w = rhs(r + h / 2, u + h / 2 * k2u, w + h / 2 * k2w)
        k4u, k4w = rhs(r + h, u + h * k3u, w + h * k3w)
        u += h / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
        w += h / 6 * (k1w + 2 * k2w + 2 * k3w + k4w)
        r += h
        if u < 0.0:
            return "high"
        if w > 0.0 and u < 0.9 * s:
            return "low"
    return "low"


def ground_state_center_p(N, p, q, h, lo=1.5, hi=10.0, iters=40):
    """Bisect on the center value u(0) of the positive decaying profile of
    -Delta_p u + u^(p-1) = u^(q-1) in R^N, between lo ('low') and hi ('high').
    At p = 2 this is a second integrator of the same problem, not
    ground_state_center: RK4 on (u, w) instead of (u, u')."""
    assert _classify_p(lo, N, p, q, h) == "low" and _classify_p(hi, N, p, q, h) == "high"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if _classify_p(mid, N, p, q, h) == "high":
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
