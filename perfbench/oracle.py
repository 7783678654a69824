"""RK4 shooting oracle for the unit benchmark, independent of quasiradial.

The unit benchmark (N=3, p=2, A=V=K=1, f(u)=u^3) has a positive decaying
radial ground state solving u'' + (2/r) u' - u + u^3 = 0 with u'(0) = 0.
Shooting from the series start at r0 and bisecting on u(0) between overshoot
(u crosses zero) and undershoot (u turns back up while still large) gives
its centre value u*(0) = 4.33739 (to 6 digits; the 3-d cubic ground state).
The benchmark recomputes it on every run, outside the timed regions, in about
half a second of pure-Python RK4; `python3 perfbench/oracle.py` prints it.
"""

from __future__ import annotations


def _shoot_high(s: float, r_end: float = 30.0, h: float = 2e-3,
                r0: float = 1e-6) -> bool:
    """True when the shot from u(0) = s crosses zero (s is above u*(0))."""
    u = s + r0 * r0 * (s - s ** 3) / 6.0
    v = r0 * (s - s ** 3) / 3.0
    r = r0
    for _ in range(int((r_end - r0) / h)):
        # u'' = u - u^3 - (2/r) u', written out for scalar floats
        k1u, k1v = v, u - u ** 3 - 2.0 * v / r
        uu, vv, rr = u + 0.5 * h * k1u, v + 0.5 * h * k1v, r + 0.5 * h
        k2u, k2v = vv, uu - uu ** 3 - 2.0 * vv / rr
        uu, vv = u + 0.5 * h * k2u, v + 0.5 * h * k2v
        k3u, k3v = vv, uu - uu ** 3 - 2.0 * vv / rr
        uu, vv, rr = u + h * k3u, v + h * k3v, r + h
        k4u, k4v = vv, uu - uu ** 3 - 2.0 * vv / rr
        u += h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v += h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        r += h
        if u < 0.0:
            return True
        if v > 1e-10 and 0.0 < u < 0.9 * s:
            return False
    return u < 0.0


def ground_state_center(lo: float = 1.0, hi: float = 10.0, iters: int = 60) -> float:
    """Bisect on u(0) between an undershooting and an overshooting start."""
    if _shoot_high(lo) or not _shoot_high(hi):
        raise ValueError("bracket does not straddle the ground state")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if _shoot_high(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


if __name__ == "__main__":
    print(repr(ground_state_center()))
