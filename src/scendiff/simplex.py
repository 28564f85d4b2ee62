"""Dense two-phase primal simplex for standard-form linear programs.

Problems arrive as min c.x subject to A x = b, x >= 0 (the value module does
its own inequality-to-slack and free-variable-splitting transformations).
Phase 1 minimizes the sum of artificial variables over rows that have no
ready-made unit column; phase 2 optimizes the real objective. Pricing is
Dantzig's rule, switching permanently to Bland's rule after a run of
degenerate pivots so cycling cannot occur.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, IterationLimitError, ParameterError

FEAS_TOL = 1e-7
OPT_TOL = 1e-9
PIVOT_TOL = 1e-9
MAX_ITER = 50_000
STALL_LIMIT = 50  # degenerate pivots before Bland's rule engages


@dataclass
class LPProblem:
    """min c.x s.t. A x = b, x >= 0, with a name -> column map for extraction."""

    c: np.ndarray
    a: np.ndarray
    b: np.ndarray
    names: dict[str, int] = field(default_factory=dict)

    def validate(self) -> None:
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
        for name, j in self.names.items():
            if not 0 <= j < n:
                raise DimensionError(f"name {name!r} maps to column {j} outside 0..{n-1}")


@dataclass
class LPSolution:
    status: str  # optimal | infeasible | unbounded
    objective: float
    x: np.ndarray
    iterations: int
    basis: list[int] = field(default_factory=list)

    def value_of(self, lp: LPProblem, name: str) -> float:
        return float(self.x[lp.names[name]])


def _unit_columns(a: np.ndarray) -> dict[int, int]:
    """Map row -> first column that is exactly a +1 unit vector in that row."""
    nonzero = a != 0
    single = np.flatnonzero(nonzero.sum(axis=0) == 1)
    rows = np.nonzero(nonzero[:, single].T)[1]  # row of each one-entry column
    unit = a[rows, single] == 1.0
    rows, first = np.unique(rows[unit], return_index=True)
    return dict(zip(rows.tolist(), single[unit][first].tolist()))


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int) -> None:
    # only rows with a nonzero in the pivot column and columns with a nonzero
    # in the pivot row change: any other cell would subtract an exact zero
    tab[row] /= tab[row, col]
    rows = np.flatnonzero(tab[:, col])
    rows = rows[rows != row]
    cols = np.flatnonzero(tab[row])
    tab[np.ix_(rows, cols)] -= np.outer(tab[rows, col], tab[row, cols])
    tab[rows, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


def _run_simplex(tab: np.ndarray, basis: list[int], n_cols: int, start_iter: int):
    """Iterate on the tableau until optimal/unbounded; returns (status, iters).

    tab rows 0..m-1 are constraints [B^-1 A | B^-1 b]; the last row holds the
    reduced costs and, in its final cell, minus the current objective.
    """
    m = tab.shape[0] - 1
    iters = start_iter
    stall = 0
    bland = False
    while True:
        if iters >= MAX_ITER:
            raise IterationLimitError(f"simplex exceeded {MAX_ITER} iterations")
        costs = tab[-1, :n_cols]
        if bland:
            neg = np.flatnonzero(costs < -OPT_TOL)
            if neg.size == 0:
                return "optimal", iters
            col = int(neg[0])
        else:
            col = int(np.argmin(costs))
            if costs[col] >= -OPT_TOL:
                return "optimal", iters
        ratios = np.full(m, np.inf)
        positive = tab[:m, col] > PIVOT_TOL
        ratios[positive] = tab[:m, -1][positive] / tab[:m, col][positive]
        row = int(np.argmin(ratios))
        if not np.isfinite(ratios[row]):
            return "unbounded", iters
        if bland:
            # among minimal ratios pick the row whose basic variable has the
            # smallest index (guarantees termination)
            tied = np.flatnonzero(np.isclose(ratios, ratios[row], rtol=0, atol=1e-12))
            row = int(min(tied, key=lambda i: basis[i]))
        leaving_value = tab[row, -1]
        _pivot(tab, basis, row, col)
        iters += 1
        if leaving_value <= FEAS_TOL:
            stall += 1
            if stall >= STALL_LIMIT:
                bland = True
        else:
            stall = 0


def simplex_solve(lp: LPProblem) -> LPSolution:
    """Solve min c.x, A x = b, x >= 0 by the two-phase tableau method."""
    lp.validate()
    a = lp.a.copy()
    b = lp.b.copy()
    c = lp.c.copy()
    m, n = a.shape

    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    crash = _unit_columns(a)
    art_rows = [i for i in range(m) if i not in crash]
    n_art = len(art_rows)
    total = n + n_art

    tab = np.zeros((m + 1, total + 1))
    tab[:m, :n] = a
    tab[:m, -1] = b
    basis = [-1] * m
    for i, j in crash.items():
        basis[i] = j
    for k, i in enumerate(art_rows):
        tab[i, n + k] = 1.0
        basis[i] = n + k

    iters = 0
    if n_art:
        # phase-1 objective: sum of artificials, priced out against the basis
        tab[-1, n:total] = 1.0
        for i in art_rows:
            tab[-1] -= tab[i]
        status, iters = _run_simplex(tab, basis, total, iters)
        if status == "unbounded":  # cannot happen: phase-1 objective >= 0
            raise ParameterError("phase 1 reported unbounded")
        if -tab[-1, -1] > FEAS_TOL:
            return LPSolution("infeasible", float("nan"), np.full(n, np.nan), iters, basis)
        # force any leftover artificials out of the basis
        drop_rows = []
        for i in range(m):
            if basis[i] >= n:
                pivots = np.flatnonzero(np.abs(tab[i, :n]) > PIVOT_TOL)
                if pivots.size:
                    _pivot(tab, basis, i, int(pivots[0]))
                    iters += 1
                else:
                    drop_rows.append(i)  # redundant constraint
        if drop_rows:
            keep = [i for i in range(m) if i not in set(drop_rows)]
            tab = np.vstack([tab[keep], tab[-1:]])
            basis = [basis[i] for i in keep]
            m = len(keep)

    # phase 2: drop the artificial columns in place, rebuild the cost row
    tab[:, n] = tab[:, -1]  # right-hand side moves next to the real columns
    tab = tab[:, :n + 1]
    tab[-1, :] = 0.0
    tab[-1, :n] = c
    for i in range(m):
        if c[basis[i]] != 0.0:
            tab[-1] -= c[basis[i]] * tab[i]
    status, iters = _run_simplex(tab, basis, n, iters)

    x = np.zeros(n)
    for i in range(m):
        x[basis[i]] = tab[i, -1]
    if status == "unbounded":
        return LPSolution("unbounded", float("-inf"), x, iters, list(basis))
    return LPSolution("optimal", float(c @ x), x, iters, list(basis))


def verify_certificate(lp: LPProblem, sol: LPSolution) -> dict:
    """Independent optimality check for an 'optimal' solution.

    Recomputes the primal residual and the reduced costs from the basis via a
    fresh linear solve (no tableau reuse). Returns a dict with the residuals
    and an `ok` flag: feasibility residual <= 1e-7, x >= -1e-9, reduced costs
    >= -1e-9 (scaled by the objective magnitude).
    """
    if sol.status != "optimal":
        raise ParameterError(f"cannot certify a {sol.status} solution")
    a = np.asarray(lp.a, dtype=float)
    b = np.asarray(lp.b, dtype=float)
    c = np.asarray(lp.c, dtype=float)
    resid = float(np.max(np.abs(a @ sol.x - b))) if a.size else 0.0
    min_x = float(sol.x.min()) if sol.x.size else 0.0
    basis = [j for j in sol.basis if 0 <= j < a.shape[1]]
    bmat = a[:, basis]
    y, *_ = np.linalg.lstsq(bmat.T, c[basis], rcond=None)
    reduced = c - a.T @ y
    scale = 1.0 + float(np.abs(c).max()) if c.size else 1.0
    min_reduced = float(reduced.min())
    ok = resid <= FEAS_TOL * (1.0 + float(np.abs(b).max())) and min_x >= -1e-9 \
        and min_reduced >= -1e-9 * scale
    return {
        "ok": bool(ok),
        "residual": resid,
        "min_x": min_x,
        "min_reduced_cost": min_reduced,
    }
