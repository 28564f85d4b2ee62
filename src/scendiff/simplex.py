"""Dense two-phase primal simplex for bounded-variable linear programs.

Problems arrive as min c.x subject to A x = b, 0 <= x <= u, where an entry of
u may be +inf (the value module does its own inequality-to-slack and
free-variable-splitting transformations). Upper bounds never become rows
(Chvátal, *Linear Programming*, ch. 8): a nonbasic variable rests at 0 or at
its bound, and one at its bound is complemented (x = u - x'), so every
nonbasic column sits at zero and the tableau keeps its form. The ratio test
also stops a basic variable at its bound, and an entering variable that
reaches its own bound first is flipped there without a pivot; a flip counts
as one iteration. Pricing is Dantzig's rule, switching permanently to
Bland's rule after a run of degenerate iterations so cycling cannot occur.

The starting basis is a lower-triangular crash (Bixby 1992, "Implementing
the simplex method: the initial basis", ORSA J. Computing 4(3)), found in one
pass over A's nonzeros. The rows are walked in order. A row holding a unit
column is left to the end; any other row takes a column that is nonzero in it
and zero in every earlier crash row, whose value found by substitution lies
within [0, u], the widest bound first. The unit rows then take a unit column
whose value, the row's residual over its coefficient, lies within its bound.
The tableau is formed by eliminating the crash columns in row order, one row
operation per nonzero; these eliminations are not iterations. Only the rows
left without a column get an artificial (the row negated where its residual
is negative), and phase 1, which minimizes their sum, runs only when there
are such rows. The value module's bidding LPs with equal state-of-charge
targets leave none: each scenario's state-of-charge columns and one charge or
discharge column cover its state-of-charge rows, and a surplus or deficit
column covers each imbalance row. After phase 1, an artificial still basic is
pivoted out on a real entry of its row; a row with none is redundant, and its
artificial stays basic at 0. Phase 2 optimizes the real objective on the same
tableau, with every artificial fixed by an upper bound of 0 and barred from
entering, so the basis keeps one column per row of A.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, IterationLimitError, LPOverflowError, ParameterError

FEAS_TOL = 1e-7
OPT_TOL = 1e-9
PIVOT_TOL = 1e-9
MAX_ITER = 50_000
STALL_LIMIT = 50  # degenerate iterations before Bland's rule engages


@dataclass
class LPProblem:
    """min c.x s.t. A x = b, 0 <= x <= upper; `upper` None means all +inf.
    Building one refuses a bad shape (DimensionError) or value (ParameterError)."""

    c: np.ndarray
    a: np.ndarray
    b: np.ndarray
    upper: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        m, n = self.a.shape
        if self.c.shape != (n,) or self.b.shape != (m,):
            raise DimensionError(
                f"A is {self.a.shape} but c is {self.c.shape}, b is {self.b.shape}"
            )
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.b))
                and np.all(np.isfinite(self.c))):
            raise ParameterError("LP coefficients must be finite")
        self.upper = (np.full(n, np.inf) if self.upper is None
                      else np.asarray(self.upper, dtype=float))
        if self.upper.shape != (n,):
            raise DimensionError(f"A is {self.a.shape} but upper is {self.upper.shape}")
        if not np.all(self.upper >= 0):  # also refuses NaN
            raise ParameterError("upper bounds must be >= 0 (+inf for none), not NaN")


@dataclass
class LPSolution:
    status: str  # optimal | infeasible | unbounded
    objective: float
    x: np.ndarray
    iterations: int  # phase 1 and phase 2 together; bound flips included
    basis: list[int] = field(default_factory=list)  # per row of A; >= n: redundant row
    phase1_iterations: int = 0  # 0 whenever the crash basis is feasible


def _crash(a: np.ndarray, b: np.ndarray, upper: np.ndarray):
    """Lower-triangular crash basis for A x = b, 0 <= x <= upper (see the
    module docstring for the rule).

    Returns `(basis, steps)`: `basis[i]` is row i's starting basic column, or
    -1 where the row needs an artificial; `steps` lists the triangular rows in
    order as (row, column, [(other row, coefficient), ...]) for the
    elimination that forms the tableau. Ties between equal bounds go to the
    first column, and between unit columns to a +1 one.
    """
    m, n = a.shape
    flat = np.flatnonzero(a != 0)  # row-major; far cheaper than a 2-D nonzero
    rows, cols = np.divmod(flat, n)
    coef = a.ravel()[flat]
    unit = np.bincount(cols, minlength=n)[cols] == 1  # entry of a unit column
    unit_row = np.zeros(m, dtype=bool)
    unit_row[rows[unit]] = True
    by_col = np.argsort(cols, kind="stable")
    row_start = np.searchsorted(rows, np.arange(m + 1)).tolist()
    col_start = np.searchsorted(cols[by_col], np.arange(n + 1)).tolist()
    col_rows, col_coef = rows[by_col].tolist(), coef[by_col].tolist()
    row_cols, row_coef = cols.tolist(), coef.tolist()
    ub, res = upper.tolist(), b.tolist()

    basis = [-1] * m
    blocked = [False] * n  # nonzero in an earlier triangular row
    steps = []
    for i in np.flatnonzero(~unit_row).tolist():
        lo, hi = row_start[i], row_start[i + 1]
        best, wide, ri = -1, -1.0, res[i]
        for k in range(lo, hi):
            j = row_cols[k]
            if not blocked[j] and ub[j] > wide:
                v = ri / row_coef[k]
                if 0.0 <= v <= ub[j]:
                    best, wide, value = j, ub[j], v
        if best < 0:
            continue
        basis[i] = best
        for j in row_cols[lo:hi]:
            blocked[j] = True
        others = [(col_rows[k], col_coef[k]) for k in range(col_start[best], col_start[best + 1])
                  if col_rows[k] != i]
        for r, f in others:
            res[r] -= f * value
        steps.append((i, best, others))

    # unit rows last: a unit column takes the row's whole residual
    r, j, d = rows[unit], cols[unit], coef[unit]
    v = np.array(res)[r] / d
    fits = (v >= 0.0) & (v <= upper[j])
    r, j, d = r[fits], j[fits], d[fits]
    order = np.lexsort((d != 1.0, -upper[j], r))  # stable: ties keep column order
    r, first = np.unique(r[order], return_index=True)  # first (best) entry per row
    for i, col in zip(r.tolist(), j[order][first].tolist()):
        basis[i] = col
    return basis, steps


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int, rows: np.ndarray) -> None:
    # `rows` are the tableau rows with a nonzero in the pivot column, which the
    # caller's ratio test has just found. Only those rows and the columns with
    # a nonzero in the pivot row change: any other cell would subtract an
    # exact zero.
    tab[row] /= tab[row, col]
    rows = rows[rows != row]
    cols = tab[row].nonzero()[0]
    tab[rows[:, None], cols] -= tab[rows, col][:, None] * tab[row, cols]
    tab[rows, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


def _run_simplex(tab: np.ndarray, basis: list[int], bounds: np.ndarray,
                 flipped: np.ndarray, n_enter: int, start_iter: int):
    """Iterate on the tableau until optimal/unbounded; returns (status, iters).

    tab rows 0..m-1 are constraints [B^-1 A | B^-1 b] over the complemented
    variables; the last row holds the reduced costs and, in its final cell,
    minus the current objective. `bounds` holds every column's upper bound;
    columns 0..n_enter-1 may enter. `flipped` marks the complemented columns
    and is updated in place.
    """
    if n_enter == 0:  # no column may enter, so the basis is optimal
        return "optimal", start_iter
    ubasic = bounds[basis]  # bound of each row's basic variable, kept by each pivot
    iters = start_iter
    stall = 0
    bland = False
    while True:
        if iters >= MAX_ITER:
            raise IterationLimitError(f"simplex exceeded {MAX_ITER} iterations")
        costs = tab[-1, :n_enter]
        if bland:
            neg = np.flatnonzero(costs < -OPT_TOL)
            if neg.size == 0:
                return "optimal", iters
            col = int(neg[0])
        else:
            col = int(costs.argmin())
            if costs[col] >= -OPT_TOL:
                return "optimal", iters
        # the entering column's nonzero rows; the last is the cost row
        nz = tab[:, col].nonzero()[0]
        rows = nz[:-1]
        alpha = tab[rows, col]
        value = tab[rows, -1]
        # step at which each basic variable meets a bound (falling to 0 or
        # rising to its upper bound), and last the entering variable's own
        ratios = np.full(nz.size, np.inf)
        ratios[-1] = bounds[col]
        np.divide(value, alpha, out=ratios[:-1], where=alpha > PIVOT_TOL)
        np.divide(ubasic[rows] - value, -alpha, out=ratios[:-1], where=alpha < -PIVOT_TOL)
        k = int(ratios.argmin())
        if not np.isfinite(ratios[k]):
            return "unbounded", iters
        if bland:
            # among minimal steps take the variable with the smallest index
            # (guarantees termination)
            tied = np.flatnonzero(np.isclose(ratios, ratios[k], rtol=0, atol=1e-12))
            k = int(min(tied, key=lambda i: basis[rows[i]] if i < rows.size else col))
        if k == rows.size:
            # bound flip: the entering variable crosses to its bound and is
            # complemented there; the basis stays
            moved = ratios[k]
            tab[nz, -1] -= moved * tab[nz, col]
            tab[nz, col] = -tab[nz, col]
            flipped[col] = not flipped[col]
        else:
            row = int(rows[k])
            if alpha[k] < 0:
                # the basic variable leaves at its bound: complement it first,
                # which negates its row and turns its value into u - value
                leaving = basis[row]
                tab[row] = -tab[row]
                tab[row, leaving] = 1.0
                tab[row, -1] += ubasic[row]
                flipped[leaving] = not flipped[leaving]
            moved = tab[row, -1]
            _pivot(tab, basis, row, col, nz)
            ubasic[row] = bounds[col]
        iters += 1
        if moved <= FEAS_TOL:
            stall += 1
            if stall >= STALL_LIMIT:
                bland = True
        else:
            stall = 0


def _overflow(kind: str, flag: int) -> None:
    raise LPOverflowError(f"the simplex arithmetic fails: {kind} in the tableau")


@np.errstate(over="call", invalid="call", call=_overflow)
def simplex_solve(lp: LPProblem) -> LPSolution:
    """Solve min c.x, A x = b, 0 <= x <= upper by the two-phase tableau method;
    finite coefficients that overflow the tableau raise LPOverflowError, with no warning."""
    a, b, c, upper = lp.a, lp.b, lp.c, lp.upper
    m, n = a.shape

    basis, steps = _crash(a, b, upper)
    art_rows = [i for i in range(m) if basis[i] < 0]
    n_art = len(art_rows)
    total = n + n_art

    # the tableau B^-1 [A | b]: eliminate the triangular columns in order (no
    # fill reaches a later crash column, so each coefficient is A's own), then
    # scale the unit rows; crash eliminations are not iterations
    tab = np.zeros((m + 1, total + 1))
    tab[:m, :n] = a
    tab[:m, -1] = b
    for i, j, others in steps:
        if a[i, j] != 1.0:
            tab[i] /= a[i, j]
        for r, f in others:
            tab[r] -= f * tab[i]
    for i, j in enumerate(basis):
        if j >= 0 and tab[i, j] != 1.0:
            tab[i] /= tab[i, j]
    for k, i in enumerate(art_rows):
        if tab[i, -1] < 0:
            tab[i] = -tab[i]
        tab[i, n + k] = 1.0
        basis[i] = n + k
    flipped = np.zeros(total, dtype=bool)
    bounds = np.concatenate([upper, np.full(n_art, np.inf)])

    iters = 0
    if n_art:
        # phase-1 objective: sum of artificials, priced out against the basis
        tab[-1, n:total] = 1.0
        for i in art_rows:
            tab[-1] -= tab[i]
        status, iters = _run_simplex(tab, basis, bounds, flipped, total, iters)
        if status == "unbounded":  # cannot happen: phase-1 objective >= 0
            raise ParameterError("phase 1 reported unbounded")
        if -tab[-1, -1] > FEAS_TOL:
            return LPSolution("infeasible", float("nan"), np.full(n, np.nan), iters, basis,
                              iters)
        # pivot leftover artificials out; in a redundant row one stays at 0
        for i in range(m):
            if basis[i] >= n:
                pivots = np.flatnonzero(np.abs(tab[i, :n]) > PIVOT_TOL)
                if pivots.size:
                    j = int(pivots[0])
                    _pivot(tab, basis, i, j, np.flatnonzero(tab[:, j]))
                    iters += 1
        bounds[n:] = 0.0
    phase1 = iters

    # phase 2: rebuild the cost row in the complemented variables (the flipped
    # ones' u_j c_j is a constant); the artificials cost 0 and may not enter
    c_all = np.concatenate([c, np.zeros(n_art)])
    cost = np.where(flipped, -c_all, c_all)
    tab[-1, :-1] = cost
    tab[-1, -1] = -float(c_all[flipped] @ bounds[flipped]) if flipped.any() else 0.0
    for i in range(m):
        if cost[basis[i]] != 0.0:
            tab[-1] -= cost[basis[i]] * tab[i]
    status, iters = _run_simplex(tab, basis, bounds, flipped, n, iters)

    x = np.zeros(total)
    x[np.array(basis, dtype=int)] = tab[:m, -1]
    x[flipped] = bounds[flipped] - x[flipped]
    x = x[:n].copy()
    objective = float("-inf") if status == "unbounded" else float(c @ x)
    return LPSolution(status, objective, x, iters, list(basis), phase1)


def verify_certificate(lp: LPProblem, sol: LPSolution) -> dict:
    """Independent optimality check for an 'optimal' solution.

    Recomputes the primal residual and the reduced costs from the basis via a
    fresh linear solve (no tableau reuse). Returns a dict with the residuals
    and an `ok` flag: feasibility residual <= 1e-7 (scaled by |b|),
    x >= -1e-9, x <= upper + 1e-9, and reduced costs >= -1e-9 (scaled by the
    objective magnitude). A nonbasic variable at its upper bound needs the
    opposite sign, so `min_reduced_cost` counts its reduced cost negated
    (and one with a zero bound, at both bounds at once, by magnitude).
    """
    if sol.status != "optimal":
        raise ParameterError(f"cannot certify a {sol.status} solution")
    a, b, c, upper = lp.a, lp.b, lp.c, lp.upper
    resid = float(np.max(np.abs(a @ sol.x - b))) if a.size else 0.0
    min_x = float(sol.x.min()) if sol.x.size else 0.0
    max_excess = float(np.max(sol.x - upper, initial=-np.inf))
    basis = [j for j in sol.basis if 0 <= j < a.shape[1]]
    bmat = a[:, basis]
    y, *_ = np.linalg.lstsq(bmat.T, c[basis], rcond=None)
    reduced = c - a.T @ y
    nonbasic = np.ones(a.shape[1], dtype=bool)
    nonbasic[basis] = False
    at_upper = nonbasic & (sol.x >= upper - 1e-9)
    signed = np.where(at_upper, -reduced, reduced)
    fixed = at_upper & (upper <= 1e-9)  # at both bounds: either sign is optimal
    signed[fixed] = np.abs(reduced[fixed])
    scale = 1.0 + float(np.abs(c).max()) if c.size else 1.0
    min_reduced = float(signed.min()) if signed.size else 0.0
    ok = resid <= FEAS_TOL * (1.0 + float(np.abs(b).max(initial=0.0))) and min_x >= -1e-9 \
        and max_excess <= 1e-9 and min_reduced >= -1e-9 * scale
    return {
        "ok": bool(ok),
        "residual": resid,
        "min_x": min_x,
        "max_excess": max_excess,
        "min_reduced_cost": min_reduced,
    }
