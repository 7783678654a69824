"""The package's numpy kernels against the scipy routines they replace.

The probes' logsumexp must equal scipy.special.logsumexp to the last bit, the
solver's _brentq must return exactly what scipy.optimize.brentq returns, and
the cyclic-reduction solve_banded must agree with LAPACK's banded solve to
1e-9 relative on every system the benchmark's fine-mesh solves build.  Split
into factor_banded and solve_banded, the reduction must equal the single-pass
one it replaced bit for bit, and a solve must leave its factor and its
right-hand side as they were.
"""

import copy
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_banded as lapack_solve_banded
from scipy.optimize import brentq as scipy_brentq
from scipy.special import logsumexp as scipy_logsumexp

import quasiradial.probes as probes
import quasiradial.solver as solver
from quasiradial.cli import load_config


def _fine_mesh_inputs():
    """perfbench/inputs.py, the benchmark's own workload inputs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("_perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestLogsumexp:
    @staticmethod
    def _inputs():
        rng = np.random.default_rng(3)
        yield np.float64(2.5)
        yield np.array(-np.inf)
        yield np.array([0.0])
        yield np.array([-np.inf, -np.inf])
        yield np.array([1.0, 1.0, 1.0])                 # ties at the max
        yield np.array([700.0, 710.0, -1e300])          # exp overflows
        yield np.array([np.inf, 1.0])
        yield np.array([-745.0, -760.0, -800.0])        # exp underflows
        for n in (1, 2, 7, 300):
            yield rng.normal(scale=50.0, size=n)
        block = rng.normal(scale=200.0, size=(16, 257))
        block[3] = -np.inf                               # a row that is all -inf
        block[5, ::3] = -np.inf
        block[7, 10:20] = block[7, 9]                    # ties inside a row
        yield block
        yield np.full((4, 9), -np.inf)

    def test_equals_scipy_bit_for_bit(self):
        for a in self._inputs():
            axes = [None] + list(range(-1, np.ndim(a))) if np.ndim(a) else [None]
            for axis in axes:
                expected = scipy_logsumexp(a, axis=axis)
                got = probes.logsumexp(a, axis=axis)
                assert repr(got) == repr(expected), (a, axis)
                assert type(got) is type(expected)


def reference_solve_banded(ab, rhs):
    """Cyclic reduction in one pass, matrix and right-hand side together:
    solve_banded as it was before the factorization was split off, with the
    block of at most 32 unknowns left at the end solved by its inverse."""
    n = ab.shape[1]
    a = np.concatenate(([0.0], ab[2, :-1]))
    b = np.array(ab[1], dtype=float)
    c = np.concatenate((ab[0, 1:], [0.0]))
    d = np.array(rhs, dtype=float)
    levels = []
    while len(b) > 32:
        if len(b) % 2 == 0:
            a, b, c, d = (np.append(v, g) for v, g in zip((a, b, c, d), (0.0, 1.0, 0.0, 0.0)))
        levels.append((a, b, c, d))
        lo = a[1::2] / b[:-1:2]
        hi = c[1::2] / b[2::2]
        a, b, c, d = (-lo * a[:-1:2], b[1::2] - lo * c[:-1:2] - hi * a[2::2],
                      -hi * c[2::2], d[1::2] - lo * d[:-1:2] - hi * d[2::2])
    x = np.linalg.inv(np.diag(b) + np.diag(a[1:], -1) + np.diag(c[:-1], 1)) @ d
    for a, b, c, d in reversed(levels):
        x = x[: len(b) // 2]
        even = d[::2].copy()
        even[1:] -= a[2::2] * x
        even[:-1] -= c[:-1:2] * x
        full = np.empty(len(b))
        full[1::2] = x
        full[::2] = even / b[::2]
        x = full
    return x[:n]


def _power_excess(t, k_hi, k_lo, a, b, level):
    """a t^k_hi + b t^k_lo - level: increasing in t, like the projections'."""
    return a * t ** k_hi + b * t ** k_lo - level


class TestBrentq:
    def test_equals_scipy_on_random_brackets(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k_hi, k_lo, a, b = rng.uniform(0.5, 8.0, size=4)
            lo = rng.uniform(0.01, 1.0)
            hi = lo * rng.uniform(1.5, 3.0)
            level = _power_excess(rng.uniform(lo, hi), k_hi, k_lo, a, b, 0.0)
            args = (k_hi, k_lo, a, b, level)
            assert solver._brentq(_power_excess, lo, hi, args, xtol=1e-13 * lo, rtol=1e-13) \
                == scipy_brentq(_power_excess, lo, hi, args=args, xtol=1e-13 * lo, rtol=1e-13)


@pytest.fixture(scope="module")
def kernel_calls():
    """Per case: [worst relative difference of solve_banded from LAPACK,
    banded solves, Brent searches, Brent results that differ from scipy's].

    The cases are every fine_mesh solve of the benchmark and the rational
    (3, 9), (3, 9.5) and (3, 10) solves of its sweep workload; each banded
    solve and Brent search is repeated with scipy as it happens.  A banded
    solve is given a factor; LAPACK is given the matrix that factor_banded
    reduced to it."""
    inputs = _fine_mesh_inputs()
    cases = [(name, cfg) for name, cfg, _ in inputs.FINE_MESH_CASES]
    for q2 in (9.0, 9.5, 10.0):
        cfg = copy.deepcopy(inputs.ex1_rational())
        cfg["nonlinearity"]["q2"] = q2
        cases.append((f"rational_3_{q2:g}", cfg))
    own_factor, own_banded, own_brentq = solver.factor_banded, solver.solve_banded, solver._brentq
    stats = {}
    matrices = {}  # id of a factor -> (the factor, the matrix it reduces)

    def factor(ab):
        f = own_factor(ab)
        matrices[id(f)] = (f, ab.copy())
        return f

    def banded(f, rhs):
        x = own_banded(f, rhs)
        ref = lapack_solve_banded((1, 1), matrices[id(f)][1], rhs)
        s = stats[name]
        s[0] = max(s[0], float(np.max(np.abs(x - ref)) / np.max(np.abs(ref))))
        s[1] += 1
        return x

    def brentq(f, lo, hi, args, xtol, rtol):
        x = own_brentq(f, lo, hi, args, xtol=xtol, rtol=rtol)
        s = stats[name]
        s[2] += 1
        s[3] += x != scipy_brentq(f, lo, hi, args=args, xtol=xtol, rtol=rtol)
        return x

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "factor_banded", factor)
        mp.setattr(solver, "solve_banded", banded)
        mp.setattr(solver, "_brentq", brentq)
        for name, doc in cases:
            stats[name] = [0.0, 0, 0, 0]
            matrices.clear()
            cfg = load_config(doc)
            solver.solve_problem(cfg, cfg.r_min, cfg.r_max, cfg.n_nodes)
    return stats


class TestAgainstScipyOnBenchmarkSolves:
    def test_cyclic_reduction_matches_lapack(self, kernel_calls):
        for name, (worst, n_solves, _, _) in kernel_calls.items():
            assert n_solves > 0, name
            assert worst <= 1e-9, name

    def test_brent_port_matches_scipy(self, kernel_calls):
        searched = {name for name, s in kernel_calls.items() if s[2]}
        # roots with nodes on both branches of min_powers and every rational
        # root are searched; single powers and single-branch min_powers roots
        # have closed forms, and every projection of ex2_I keeps t u <= 1
        assert {"unit_min_powers_3_5_20000", "rational_3_9"} <= searched
        assert kernel_calls["ex2_I_4000"][2] == 0
        assert all(s[3] == 0 for s in kernel_calls.values())


SIZES = list(range(1, 40)) + [255, 256, 257, 1999, 4096]


def _dominant_system(n, rng):
    off = rng.uniform(0.1, 2.0, n)
    ab = np.zeros((3, n))
    ab[0, 1:] = -off[:-1]
    ab[2, :-1] = -off[:-1]
    ab[1] = off + np.roll(off, 1) + rng.uniform(0.0, 1.0, n)
    return ab


class TestSolveBanded:
    @pytest.mark.parametrize("n", SIZES)
    def test_diagonally_dominant_systems(self, n):
        rng = np.random.default_rng(n)
        ab = _dominant_system(n, rng)
        rhs = rng.normal(size=n)
        x = solver.solve_banded(solver.factor_banded(ab), rhs)
        ref = lapack_solve_banded((1, 1), ab, rhs)
        assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", SIZES)
    def test_split_equals_the_single_pass_reduction(self, n):
        rng = np.random.default_rng(n)
        ab = _dominant_system(n, rng)
        rhs = rng.normal(size=n)
        x = solver.solve_banded(solver.factor_banded(ab), rhs)
        assert x.tobytes() == reference_solve_banded(ab, rhs).tobytes()

    @pytest.mark.parametrize("n", [1, 5, 32])
    def test_singular_block_gives_nan(self, n):
        # a zero matrix of at most 32 rows is one singular dense block: the
        # solve reads NaN, and so does the descent direction, which the
        # solver replaces by a gradient step
        x = solver.solve_banded(solver.factor_banded(np.zeros((3, n))), np.ones(n))
        assert np.all(np.isnan(x))

    @pytest.mark.parametrize("n", [1, 2, 7, 32, 33, 64, 256, 1999])
    def test_solve_leaves_its_inputs_unchanged(self, n):
        # every array reachable from the factor, and the right-hand sides,
        # stay bit for bit as they were, after a finite and after a NaN solve
        rng = np.random.default_rng(200 + n)
        factor = solver.factor_banded(_dominant_system(n, rng))

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                return [obj]
            if isinstance(obj, (tuple, list)):
                return [a for item in obj for a in arrays(item)]
            return []

        held = arrays(factor)
        assert held and all(isinstance(f, (tuple, np.ndarray)) for f in factor)
        before = [a.tobytes() for a in held]
        finite, nan = rng.normal(size=n), np.full(n, np.nan)
        rhs_before = [finite.tobytes(), nan.tobytes()]
        first = solver.solve_banded(factor, finite)
        assert np.all(np.isnan(solver.solve_banded(factor, nan)))
        assert [a.tobytes() for a in held] == before
        assert [finite.tobytes(), nan.tobytes()] == rhs_before
        assert solver.solve_banded(factor, finite).tobytes() == first.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 256, 1999])
    def test_one_factor_serves_many_right_hand_sides(self, n):
        rng = np.random.default_rng(100 + n)
        ab = _dominant_system(n, rng)
        ab_before = ab.copy()
        factor = solver.factor_banded(ab)
        for rhs in rng.normal(size=(20, n)):
            rhs_before = rhs.copy()
            reused = solver.solve_banded(factor, rhs)
            fresh = solver.solve_banded(solver.factor_banded(ab), rhs)
            assert reused.tobytes() == fresh.tobytes()
            assert rhs.tobytes() == rhs_before.tobytes()
        assert ab.tobytes() == ab_before.tobytes()
