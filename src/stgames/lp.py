"""Dense two-phase simplex with Bland's anti-cycling rule.

Deterministic LP kernel backing core membership and nucleolus stages. It
favors exactness and reproducibility over speed: dense numpy tableau, no
scaling, no presolve, smallest-index pivoting throughout (Bland's rule for
the entering column and for ties in the ratio test). Each pivot is sparse:
a rank-one update of only the rows with a nonzero in the entering column
and the columns with a nonzero in the pivot row. It makes the same pivots,
and gives the same bits, as updating every full row. The coalition LPs in
`coop` are solved by row generation, so their tableaus hold a working set
of coalitions (a few hundred rows at 20 agents), not all 2^n - 1.

Row duals are read off the final tableau: minus the reduced cost of the
row's own slack or artificial column. No basis matrix is factored, so a
basis left singular by rounding cannot spoil them.

Capacity: `solve_lp` raises CapacityError, before allocating, when the
standard-form tableau would exceed MAX_TABLEAU_BYTES (512 MiB). Besides
the tableau, a solve briefly holds a second copy of it when it drops
redundant equality rows.

Conventions:
  * variables default to x >= 0; bounds may open either side (use -inf/+inf),
  * row senses are "<=", ">=", "==",
  * reported row duals are shadow prices d(objective)/d(rhs) in the
    *minimization* reading of the problem (a maximized objective is negated
    internally and the duals refer to the negated objective).
"""

from __future__ import annotations

from typing import NamedTuple

from ._np import np

from .errors import CapacityError, IterationLimitError

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-9
MAX_PIVOTS = 10_000
MAX_TABLEAU_BYTES = 512 * 2 ** 20

_SENSES = ("<=", ">=", "==")


class LinearProgram(NamedTuple):
    """min (or max) objective @ x  subject to  lhs @ x (sense) rhs, bounds."""

    objective: np.ndarray
    lhs: np.ndarray
    senses: tuple
    rhs: np.ndarray
    lower: np.ndarray | None = None   # None -> zeros
    upper: np.ndarray | None = None   # None -> +inf
    maximize: bool = False


class LpSolution(NamedTuple):
    status: str                       # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    iterations: int
    duals: np.ndarray | None = None   # per original row


def _validate(lp: LinearProgram):
    c = np.asarray(lp.objective, dtype=float)
    a = np.asarray(lp.lhs, dtype=float)
    b = np.asarray(lp.rhs, dtype=float)
    if c.ndim != 1:
        raise ValueError("objective must be a vector")
    n = c.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"lhs must be m x {n}, got {a.shape}")
    m = a.shape[0]
    if b.shape != (m,):
        raise ValueError(f"rhs must have length {m}, got {b.shape}")
    senses = tuple(lp.senses)
    if len(senses) != m or any(s not in _SENSES for s in senses):
        raise ValueError("senses must be one of <=, >=, == per row")
    lo = np.zeros(n) if lp.lower is None else np.asarray(lp.lower, dtype=float)
    hi = np.full(n, np.inf) if lp.upper is None else np.asarray(lp.upper, dtype=float)
    if lo.shape != (n,) or hi.shape != (n,):
        raise ValueError("bounds must match variable count")
    return c, a, senses, b, lo, hi


class _Tableau:
    """Simplex tableau over standard-form data (all y >= 0, rhs >= 0)."""

    def __init__(self, a, b, basis):
        self.a = a          # m x k, mutated in place by pivots
        self.b = b          # length m
        self.basis = basis  # basic column index per row

    def pivot(self, row, col):
        """Eliminate `col` from every other row with one rank-one update of
        the block of rows with a nonzero in `col` and columns with a nonzero
        in the pivot row; elsewhere the update would subtract a zero."""
        a, b = self.a, self.b
        piv = a[row, col]
        a[row] /= piv
        b[row] /= piv
        f = a[:, col].copy()
        f[row] = 0.0
        rows = np.flatnonzero(np.abs(f) > 0.0)
        if rows.size:
            f = f[rows]
            prow = a[row]
            cols = np.flatnonzero(prow)
            # Gathering whole columns and then rows is faster than one
            # np.ix_ gather; the other rows are written back unchanged.
            block = a[:, cols]
            block[rows] -= np.multiply.outer(f, prow[cols])
            a[:, cols] = block
            b[rows] -= f * b[row]
        self.basis[row] = col

    def _leaving_row(self, rows, ratios):
        """Bland's ratio test over the rows with a positive pivot-column
        entry, scanned in row order: a ratio lower by more than PIVOT_TOL
        wins, and within PIVOT_TOL the smaller basic index wins."""
        basic = self.basis[rows].tolist()
        leave = -1
        best = np.inf
        for i, ratio in enumerate(ratios.tolist()):
            if ratio < best - PIVOT_TOL or (
                    abs(ratio - best) <= PIVOT_TOL
                    and (leave < 0 or basic[i] < basic[leave])):
                best = ratio
                leave = i
        return int(rows[leave])

    def run(self, cost, allowed, budget):
        """Bland simplex on `cost` restricted to `allowed` columns.

        Returns (status, pivots_used). status is "optimal" or "unbounded".
        """
        used = 0
        while True:
            red = cost - cost[self.basis] @ self.a
            entering = np.flatnonzero(allowed & (red < -PIVOT_TOL))
            if not entering.size:
                return "optimal", used
            if used >= budget:
                raise IterationLimitError(
                    f"simplex exceeded {MAX_PIVOTS} pivots")
            enter = int(entering[0])
            col = self.a[:, enter]
            rows = np.flatnonzero(col > PIVOT_TOL)
            if not rows.size:
                return "unbounded", used
            self.pivot(self._leaving_row(rows, self.b[rows] / col[rows]), enter)
            used += 1


def _tableau_width(rows, k, slack, art):
    """Width of a standard-form tableau of `rows` rows with k structural,
    `slack` slack/surplus and `art` artificial columns. Raises CapacityError
    when the tableau would exceed MAX_TABLEAU_BYTES, so a caller can refuse
    an LP before building it."""
    width = k + slack + art
    need = rows * width * 8
    if need > MAX_TABLEAU_BYTES:
        raise CapacityError(
            f"LP tableau of {rows} x {width} needs {need / 2 ** 20:.0f} MiB, "
            f"over the {MAX_TABLEAU_BYTES // 2 ** 20} MiB limit")
    return width


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve a dense LP. Deterministic for identical inputs.

    Raises IterationLimitError past 10,000 pivots (phases combined),
    CapacityError when the tableau would exceed MAX_TABLEAU_BYTES, and
    ValueError on dimension mismatches.
    """
    c, a, senses, b, lo, hi = _validate(lp)
    m, n = a.shape
    sign = -1.0 if lp.maximize else 1.0
    c = sign * c

    if np.any(lo > hi + FEAS_TOL):
        return LpSolution("infeasible", None, None, 0)

    # Substitute x_j = s_j + d_j * y_j with y_j >= 0 (split free variables).
    cols = []      # (original var, shift, direction) per standard column
    for j in range(n):
        if lo[j] > -np.inf:
            cols.append((j, lo[j], 1.0))
        elif hi[j] < np.inf:
            cols.append((j, hi[j], -1.0))
        else:
            cols.append((j, 0.0, 1.0))
            cols.append((j, 0.0, -1.0))
    k = len(cols)
    shift = np.zeros(n)
    for j, s, _ in cols:
        if s != 0.0:
            shift[j] = s

    # Finite two-sided bounds become explicit rows y_idx <= hi - lo.
    boxed = [idx for idx, (j, _, d) in enumerate(cols)
             if d > 0 and lo[j] > -np.inf and hi[j] < np.inf]
    b_std = b - a @ shift
    if boxed:
        b_std = np.concatenate(
            [b_std, [hi[cols[idx][0]] - lo[cols[idx][0]] for idx in boxed]])
    m_std = m + len(boxed)
    row_sense = list(senses) + ["<="] * len(boxed)

    # Rows with a negative rhs are negated.
    neg = np.flatnonzero(b_std < 0)
    b_std[neg] = -b_std[neg]
    flip = np.ones(m_std)
    flip[neg] = -1.0
    for r in neg:
        row_sense[r] = {"<=": ">=", ">=": "<=", "==": "=="}[row_sense[r]]

    # Layout: k structural columns, one slack/surplus column per inequality
    # row, one artificial column per row not of the form <=.
    slack_rows = [r for r in range(m_std) if row_sense[r] != "=="]
    art_rows = [r for r in range(m_std) if row_sense[r] != "<="]
    n_real = k + len(slack_rows)
    width = _tableau_width(m_std, k, len(slack_rows), len(art_rows))

    full = np.zeros((m_std, width))
    cost2 = np.zeros(width)
    for idx, (j, _, d) in enumerate(cols):
        full[:m, idx] = d * a[:, j]
        cost2[idx] = d * c[j]
    full[m + np.arange(len(boxed)), boxed] = 1.0
    full[neg, :k] = -full[neg, :k]
    full[slack_rows, k + np.arange(len(slack_rows))] = [
        1.0 if row_sense[r] == "<=" else -1.0 for r in slack_rows]
    full[art_rows, n_real + np.arange(len(art_rows))] = 1.0

    # A <= row starts with its slack basic, any other row its artificial.
    basis = np.empty(m_std, dtype=int)
    basis[slack_rows] = np.arange(k, n_real)
    basis[art_rows] = np.arange(n_real, width)

    tab = _Tableau(full, b_std, basis)
    pivots = 0

    # Phase 1: price out artificials.
    if art_rows:
        cost1 = np.zeros(width)
        cost1[n_real:] = 1.0
        allowed = np.ones(width, dtype=bool)
        status, used = tab.run(cost1, allowed, MAX_PIVOTS)
        pivots += used
        phase1 = cost1[tab.basis] @ tab.b
        if phase1 > FEAS_TOL:
            return LpSolution("infeasible", None, None, pivots)
        # Drive leftover artificials out of the basis; drop redundant rows.
        drop = []
        for r in range(m_std):
            if tab.basis[r] >= n_real:
                nonzero = np.flatnonzero(np.abs(tab.a[r, :n_real]) > PIVOT_TOL)
                if nonzero.size:
                    tab.pivot(r, int(nonzero[0]))
                    pivots += 1
                else:
                    drop.append(r)
        if drop:
            keep = [r for r in range(m_std) if r not in set(drop)]
            tab.a = tab.a[keep]
            tab.b = tab.b[keep]
            tab.basis = tab.basis[keep]

    allowed = np.zeros(width, dtype=bool)
    allowed[:n_real] = True
    status, used = tab.run(cost2, allowed, MAX_PIVOTS - pivots)
    pivots += used
    if status == "unbounded":
        return LpSolution("unbounded", None, None, pivots)

    y_std = np.zeros(width)
    y_std[tab.basis] = tab.b
    x = shift.copy()
    for idx, (j, _, d) in enumerate(cols):
        x[j] += d * y_std[idx]
    obj = float(np.asarray(lp.objective, dtype=float) @ x)

    # Row r's dual is minus the reduced cost of the column that started as
    # +1 in row r and 0 elsewhere: its slack if r is a <= row, else its
    # artificial. Every pivot updates those columns too, so no basis matrix
    # is solved; on some nucleolus stages it was singular.
    unit = np.empty(len(row_sense), dtype=int)
    unit[slack_rows] = np.arange(k, n_real)
    unit[art_rows] = np.arange(n_real, width)
    red = cost2[unit] - cost2[tab.basis] @ tab.a[:, unit]
    duals = -(flip * red)[:m]

    return LpSolution("optimal", x, obj, pivots, duals)
