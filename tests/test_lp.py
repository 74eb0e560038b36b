"""LP kernel tests: hand problems, duality, degeneracy, validation, the
sparse pivot against a row-by-row reference, and HiGHS as an oracle."""

import numpy as np
import pytest

from stgames import coop, lp as lpmod
from stgames.errors import CapacityError, IterationLimitError
from stgames.lp import PIVOT_TOL, LinearProgram, LpSolution, solve_lp


def _lp(c, a, senses, b, **kw):
    return LinearProgram(np.asarray(c, float), np.asarray(a, float),
                         tuple(senses), np.asarray(b, float), **kw)


def test_basic_minimum():
    # min -x1 - 2 x2 over x1 + x2 <= 4, x1 <= 3, x2 <= 2
    sol = solve_lp(_lp([-1, -2], [[1, 1], [1, 0], [0, 1]],
                       ["<=", "<=", "<="], [4, 3, 2]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-6.0, abs=1e-9)
    assert sol.x == pytest.approx([2.0, 2.0], abs=1e-9)


def test_maximize_flag():
    sol = solve_lp(_lp([3, 1], [[1, 1]], ["<="], [2], maximize=True))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(6.0, abs=1e-9)
    assert sol.x == pytest.approx([2.0, 0.0], abs=1e-9)


def test_equality_rows():
    # min x1 + x2 with x1 + 2 x2 == 3: put everything on x2
    sol = solve_lp(_lp([1, 1], [[1, 2]], ["=="], [3]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.5, abs=1e-9)
    assert sol.x == pytest.approx([0.0, 1.5], abs=1e-9)


def test_beale_degenerate_cycle_guard():
    # Classic cycling instance for naive pivoting; Bland must reach -0.05.
    c = [-0.75, 150.0, -0.02, 6.0]
    a = [[0.25, -60.0, -0.04, 9.0],
         [0.5, -90.0, -0.02, 3.0],
         [0.0, 0.0, 1.0, 0.0]]
    sol = solve_lp(_lp(c, a, ["<=", "<=", "<="], [0.0, 0.0, 1.0]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-0.05, abs=1e-9)
    assert sol.x == pytest.approx([0.04, 0.0, 1.0, 0.0], abs=1e-9)


def test_infeasible_detected():
    sol = solve_lp(_lp([1, 1], [[1, 1]], ["=="], [-1]))
    assert sol.status == "infeasible"
    sol = solve_lp(_lp([0, 0], [[1, 0], [1, 0]], ["<=", ">="], [1, 2]))
    assert sol.status == "infeasible"


def test_unbounded_detected():
    sol = solve_lp(_lp([-1, 0], [[1, -1]], ["=="], [0]))
    assert sol.status == "unbounded"


def test_two_sided_bounds():
    sol = solve_lp(_lp([1], [[1]], ["<="], [10],
                       lower=np.asarray([-2.0]), upper=np.asarray([3.0])))
    assert sol.objective == pytest.approx(-2.0, abs=1e-9)
    sol = solve_lp(_lp([-1], [[1]], ["<="], [10],
                       lower=np.asarray([-2.0]), upper=np.asarray([3.0])))
    assert sol.x == pytest.approx([3.0], abs=1e-9)


def test_crossed_bounds_infeasible():
    sol = solve_lp(_lp([1], [[1]], ["<="], [10],
                       lower=np.asarray([2.0]), upper=np.asarray([1.0])))
    assert sol.status == "infeasible"


def test_free_variable_split():
    # min x with x >= -5 as a row; x unbounded in sign
    sol = solve_lp(_lp([1], [[1]], [">="], [-5],
                       lower=np.asarray([-np.inf])))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-5.0, abs=1e-9)


def test_shadow_price_sign():
    # min -x over x <= 1: one more unit of rhs lowers the optimum by 1.
    sol = solve_lp(_lp([-1], [[1]], ["<="], [1]))
    assert sol.duals == pytest.approx([-1.0], abs=1e-9)


def test_redundant_equality_rows_dropped():
    # Duplicate equality row: still solvable, duplicate dual reported 0.
    sol = solve_lp(_lp([1, 1], [[1, 1], [1, 1]], ["==", "=="], [2, 2]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0, abs=1e-9)
    assert sol.duals == pytest.approx([1.0, 0.0], abs=1e-12)
    # The first row is the sum of the other two; the duals read off the
    # tableau still price every row: c - A^T y vanishes on x and y @ b is
    # the optimum.
    a, b, c = np.asarray([[1, 1], [1, 0], [0, 1]], float), [2, 1, 1], [1, 2]
    sol = solve_lp(_lp(c, a, ["=="] * 3, b))
    assert sol.x == pytest.approx([1.0, 1.0], abs=1e-12)
    assert c - a.T @ sol.duals == pytest.approx([0.0, 0.0], abs=1e-12)
    assert float(sol.duals @ b) == pytest.approx(sol.objective, abs=1e-12)


def test_duality_on_random_feasible_bounded_problems():
    # b = A x0 keeps the problem feasible; c > 0 keeps it bounded below.
    # Strong duality and complementary slackness pin the reported duals.
    rng = np.random.default_rng(1234)
    for trial in range(60):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, 6))
        a = rng.normal(size=(m, n))
        x0 = rng.uniform(0.1, 2.0, size=n)
        b = a @ x0
        c = rng.uniform(0.05, 2.0, size=n)
        sol = solve_lp(_lp(c, a, ["=="] * m, b))
        assert sol.status == "optimal", f"trial {trial}"
        y = sol.duals
        assert abs(float(c @ sol.x) - float(y @ b)) <= 1e-6, f"trial {trial}"
        reduced = c - a.T @ y
        assert reduced.min() >= -1e-6, f"trial {trial}"
        assert abs(float(reduced @ sol.x)) <= 1e-6, f"trial {trial}"


def test_duality_with_inequalities():
    rng = np.random.default_rng(99)
    for trial in range(40):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(m, n))
        x0 = rng.uniform(0.0, 1.0, size=n)
        slack = rng.uniform(0.0, 1.0, size=m)
        b = a @ x0 + slack
        c = rng.uniform(0.05, 2.0, size=n)
        sol = solve_lp(_lp(c, a, ["<="] * m, b))
        assert sol.status == "optimal"
        y = sol.duals
        # <= rows in a minimization: shadow prices are nonpositive here
        # because loosening a <= constraint can only lower the minimum.
        assert y.max() <= 1e-7, f"trial {trial}: {y}"
        assert abs(float(c @ sol.x) - float(y @ b)) <= 1e-6
        reduced = c - a.T @ y
        assert reduced.min() >= -1e-6
        assert abs(float(reduced @ sol.x)) <= 1e-6


def test_dimension_validation():
    with pytest.raises(ValueError):
        solve_lp(_lp([1, 2], [[1, 1, 1]], ["<="], [1]))
    with pytest.raises(ValueError):
        solve_lp(_lp([1, 2], [[1, 1]], ["<="], [1, 2]))
    with pytest.raises(ValueError):
        solve_lp(_lp([1, 2], [[1, 1]], ["<<"], [1]))
    with pytest.raises(ValueError):
        solve_lp(_lp([1], [[1]], ["<="], [1], lower=np.zeros(3)))


def test_solution_reports_iterations():
    sol = solve_lp(_lp([-1, -2], [[1, 1]], ["<="], [4]))
    assert isinstance(sol, LpSolution)
    assert sol.iterations >= 1


class _LoopTableau:
    """The row-by-row kernel the sparse one replaced, kept as a reference:
    each pivot updates every row in Python, and the entering column and the
    ratio test are Python scans."""

    def __init__(self, a, b, basis):
        self.a = a
        self.b = b
        self.basis = basis

    def pivot(self, row, col):
        piv = self.a[row, col]
        self.a[row] /= piv
        self.b[row] /= piv
        for r in range(self.a.shape[0]):
            if r != row and abs(self.a[r, col]) > 0.0:
                f = self.a[r, col]
                self.a[r] -= f * self.a[row]
                self.b[r] -= f * self.b[row]
        self.basis[row] = col

    def run(self, cost, allowed, budget):
        used = 0
        m = self.a.shape[0]
        while True:
            cb = cost[self.basis]
            red = cost - cb @ self.a
            enter = -1
            for j in np.flatnonzero(allowed):
                if red[j] < -PIVOT_TOL:
                    enter = int(j)
                    break
            if enter < 0:
                return "optimal", used
            if used >= budget:
                raise IterationLimitError("reference exceeded its pivots")
            col = self.a[:, enter]
            leave = -1
            best = np.inf
            for r in range(m):
                if col[r] > PIVOT_TOL:
                    ratio = self.b[r] / col[r]
                    if ratio < best - PIVOT_TOL or (
                            abs(ratio - best) <= PIVOT_TOL
                            and (leave < 0 or self.basis[r] < self.basis[leave])):
                        best = ratio
                        leave = r
            if leave < 0:
                return "unbounded", used
            self.pivot(leave, enter)
            used += 1


def _bits(sol):
    """Everything solve_lp reports, as exact bytes."""
    def raw(v):
        return None if v is None else np.asarray(v, dtype=float).tobytes()
    return sol.status, sol.iterations, raw(sol.x), raw(sol.objective), raw(sol.duals)


def _assert_same_as_reference(lp, monkeypatch):
    sparse = solve_lp(lp)
    with monkeypatch.context() as patch:
        patch.setattr(lpmod, "_Tableau", _LoopTableau)
        loop = solve_lp(lp)
    assert _bits(sparse) == _bits(loop)
    return sparse.status


def _random_lp(rng):
    """A dense LP with mixed senses and free, one-sided and two-sided
    bounds. Integer data and zero slack make many of them degenerate, and
    an unrelated rhs makes many infeasible or unbounded."""
    m = int(rng.integers(1, 9))
    n = int(rng.integers(1, 9))
    a = rng.normal(size=(m, n))
    a[rng.random((m, n)) < 0.3] = 0.0
    if rng.random() < 0.3:
        a = np.round(a)
    senses = rng.choice(["<=", ">=", "=="], size=m)
    lo = np.zeros(n)
    hi = np.full(n, np.inf)
    for j in range(n):
        kind = rng.integers(0, 4)
        if kind == 1:
            lo[j] = -np.inf
        elif kind == 2:
            lo[j], hi[j] = -np.inf, rng.uniform(0.0, 3.0)
        elif kind == 3:
            lo[j] = rng.uniform(-2.0, 0.0)
            hi[j] = lo[j] + rng.uniform(0.0, 3.0)
    x0 = np.clip(rng.uniform(-1.0, 2.0, size=n), lo, hi)
    gap = rng.uniform(0.0, 1.0, size=m) * (rng.random() < 0.7)
    b = a @ x0 + np.select([senses == "<=", senses == ">="], [gap, -gap], 0.0)
    if rng.random() < 0.2:
        b = rng.normal(size=m)
    return LinearProgram(rng.normal(size=n), a, tuple(senses), b, lower=lo,
                         upper=hi, maximize=bool(rng.random() < 0.3))


def test_capacity_guard_uses_the_tableau_shape(monkeypatch):
    # The guard computes the tableau's shape before allocating it; at a
    # limit of exactly that many bytes the solve runs, one byte less fails.
    rng = np.random.default_rng(8)
    tableau = lpmod._Tableau
    for _ in range(20):
        lp = _random_lp(rng)
        shapes = []

        def spy(a, b, basis):
            shapes.append(a.shape)
            return tableau(a, b, basis)

        with monkeypatch.context() as patch:
            patch.setattr(lpmod, "_Tableau", spy)
            solve_lp(lp)
        rows, cols = shapes[0]
        with monkeypatch.context() as patch:
            patch.setattr(lpmod, "MAX_TABLEAU_BYTES", rows * cols * 8)
            solve_lp(lp)
            patch.setattr(lpmod, "MAX_TABLEAU_BYTES", rows * cols * 8 - 1)
            with pytest.raises(CapacityError, match=f"{rows} x {cols}"):
                solve_lp(lp)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sparse_pivots_match_the_loop_kernel_bit_for_bit(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    statuses = [_assert_same_as_reference(_random_lp(rng), monkeypatch)
                for _ in range(150)]
    assert {"optimal", "infeasible", "unbounded"} <= set(statuses)


def test_degenerate_lps_match_the_loop_kernel_bit_for_bit(monkeypatch):
    beale = _lp([-0.75, 150.0, -0.02, 6.0],
                [[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0],
                 [0.0, 0.0, 1.0, 0.0]], ["<=", "<=", "<="], [0.0, 0.0, 1.0])
    duplicate = _lp([1, 1], [[1, 1], [1, 1]], ["==", "=="], [2, 2])
    # Many rows through the origin: every ratio ties at 0.
    rng = np.random.default_rng(5)
    fan = _lp(-np.ones(4), np.vstack([np.round(rng.normal(size=(12, 4))),
                                      np.ones(4)]), ["<="] * 13, np.zeros(13))
    for lp in (beale, duplicate, fan):
        assert _assert_same_as_reference(lp, monkeypatch) == "optimal"


def _coop_lps(rng, n, monkeypatch):
    """The core LP and every nucleolus-stage LP of a random n-agent game."""
    values = {m: float(rng.uniform(0.0, 1.0) * bin(m).count("1"))
              for m in range(1, 1 << n)}
    game = coop.CoalitionGame.from_dict(n, values)
    seen = []

    def record(lp):
        seen.append(lp)
        return solve_lp(lp)

    with monkeypatch.context() as patch:
        patch.setattr(coop, "solve_lp", record)
        coop.core_nonempty(game)
        coop.nucleolus(game)
    return seen


@pytest.mark.parametrize("n", [5, 6, 7])
def test_coalition_lps_match_the_loop_kernel_bit_for_bit(n, monkeypatch):
    lps = _coop_lps(np.random.default_rng(40 + n), n, monkeypatch)
    assert len(lps) >= 2
    for lp in lps:
        assert _assert_same_as_reference(lp, monkeypatch) == "optimal"


def _highs_optimum(lp):
    optimize = pytest.importorskip("scipy.optimize")
    a = np.asarray(lp.lhs, dtype=float)
    senses = np.asarray(lp.senses)
    ineq = senses != "=="
    sign = np.where(senses == ">=", -1.0, 1.0)[ineq]
    n = a.shape[1]
    lo = np.zeros(n) if lp.lower is None else lp.lower
    hi = np.full(n, np.inf) if lp.upper is None else lp.upper
    res = optimize.linprog(
        -lp.objective if lp.maximize else lp.objective,
        A_ub=sign[:, None] * a[ineq], b_ub=sign * lp.rhs[ineq],
        A_eq=a[~ineq], b_eq=lp.rhs[~ineq],
        bounds=[(None if np.isinf(l) else l, None if np.isinf(h) else h)
                for l, h in zip(lo, hi)], method="highs")
    assert res.status == 0, res.message
    return -res.fun if lp.maximize else res.fun


def _bounded_lp(rng):
    """Feasible by construction (b from a point inside the bounds), and
    bounded because each variable's bound stops the direction its cost
    rewards."""
    m = int(rng.integers(1, 7))
    n = int(rng.integers(1, 7))
    a = rng.normal(size=(m, n))
    senses = rng.choice(["<=", ">=", "=="], size=m)
    c = rng.normal(size=n)
    lo = np.where(c >= 0, -rng.uniform(0.0, 2.0, size=n), -np.inf)
    hi = np.where(c < 0, rng.uniform(0.0, 2.0, size=n), np.inf)
    boxed = rng.random(n) < 0.3
    lo[boxed] = -2.0
    hi[boxed] = 2.0
    x0 = np.clip(rng.uniform(-1.0, 1.0, size=n), lo, hi)
    gap = rng.uniform(0.0, 1.0, size=m)
    b = a @ x0 + np.select([senses == "<=", senses == ">="], [gap, -gap], 0.0)
    return LinearProgram(c, a, tuple(senses), b, lower=lo, upper=hi)


def test_optimum_matches_highs_on_random_lps():
    rng = np.random.default_rng(2024)
    for trial in range(60):
        lp = _bounded_lp(rng)
        want = _highs_optimum(lp)
        sol = solve_lp(lp)
        assert sol.status == "optimal", f"trial {trial}"
        assert sol.objective == pytest.approx(want, rel=1e-9, abs=1e-9), f"trial {trial}"


@pytest.mark.parametrize("n", [6, 8])
def test_core_optimum_matches_highs(n):
    # The full core LP, one row per nonempty coalition: `coop` solves it by
    # row generation, so this keeps the kernel covered at 2^n - 1 rows.
    rng = np.random.default_rng(n)
    masks = np.arange(1, 1 << n)
    values = rng.uniform(0.0, 1.0, size=masks.size) * coop._subset_sums(np.ones(n))[1:]
    lp = LinearProgram(np.ones(n), coop._incidence(masks, n),
                       (">=",) * masks.size, values, lower=np.full(n, -np.inf))
    sol = solve_lp(lp)
    assert sol.objective == pytest.approx(_highs_optimum(lp), rel=1e-9, abs=1e-9)
