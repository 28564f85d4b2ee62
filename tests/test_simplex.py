"""Two-phase simplex: textbook problems, status detection, random LPs vs a
vertex-enumeration oracle and scipy, anti-cycling, and certificates."""
import itertools
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

from scendiff import simplex as spx
from scendiff.errors import (DimensionError, IterationLimitError, LPOverflowError,
                             ParameterError)
from scendiff.simplex import LPProblem, simplex_solve, verify_certificate


def _vertex_oracle(lp: LPProblem) -> float:
    """Minimum objective over all basic feasible solutions.

    Valid whenever the feasible region is bounded (every optimum is then
    attained at a vertex, and every vertex is a basic solution).
    """
    a, b, c = lp.a, lp.b, lp.c
    m, n = a.shape
    best = np.inf
    for cols in itertools.combinations(range(n), m):
        bmat = a[:, cols]
        if abs(np.linalg.det(bmat)) < 1e-10:
            continue
        xb = np.linalg.solve(bmat, b)
        if np.all(xb >= -1e-9):
            best = min(best, float(c[list(cols)] @ xb))
    return best


def _random_bounded_lp(rng: np.random.Generator) -> LPProblem:
    """Random equality-form LP with a known interior feasible point and a
    box row that keeps the region bounded (so vertex enumeration applies)."""
    m = int(rng.integers(2, 5))
    n = m + int(rng.integers(2, 5))
    a = rng.uniform(-2, 2, (m, n))
    x_feas = rng.uniform(0.5, 2.0, n)
    b = a @ x_feas
    cap = float(x_feas.sum() * (2.0 + rng.uniform(0, 1)))
    a_ext = np.zeros((m + 1, n + 1))
    a_ext[:m, :n] = a
    a_ext[m, :n] = 1.0
    a_ext[m, n] = 1.0  # slack of the budget row
    b_ext = np.concatenate([b, [cap]])
    c_ext = np.concatenate([rng.uniform(-1, 1, n), [0.0]])
    return LPProblem(c=c_ext, a=a_ext, b=b_ext)


# ------------------------------------------------------------------ textbook


def test_textbook_production_problem():
    """max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), 36."""
    c = np.array([-3.0, -5.0, 0.0, 0.0, 0.0])
    a = np.array([
        [1.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 2.0, 0.0, 1.0, 0.0],
        [3.0, 2.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([4.0, 12.0, 18.0])
    lp = LPProblem(c=c, a=a, b=b)
    sol = simplex_solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-36.0, abs=1e-9)
    np.testing.assert_allclose(sol.x[:2], [2.0, 6.0], atol=1e-9)
    assert verify_certificate(lp, sol)["ok"]


def test_textbook_production_problem_with_bounds():
    """The same problem with x <= 4 and y <= 6 as column bounds: one row,
    y ends at its bound (nonbasic, complemented) and x basic."""
    lp = LPProblem(c=np.array([-3.0, -5.0, 0.0]), a=np.array([[3.0, 2.0, 1.0]]),
                   b=np.array([18.0]), upper=np.array([4.0, 6.0, np.inf]))
    sol = simplex_solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-36.0, abs=1e-9)
    np.testing.assert_allclose(sol.x, [2.0, 6.0, 0.0], atol=1e-9)
    assert sol.basis == [0]
    assert verify_certificate(lp, sol)["ok"]


def test_equality_diet_problem():
    """min 2x + 3y s.t. x + y = 4, x + 2y = 6 -> unique point (2, 2), 10."""
    lp = LPProblem(
        c=np.array([2.0, 3.0]),
        a=np.array([[1.0, 1.0], [1.0, 2.0]]),
        b=np.array([4.0, 6.0]),
    )
    sol = simplex_solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(10.0, abs=1e-9)
    np.testing.assert_allclose(sol.x, [2.0, 2.0], atol=1e-9)


def test_negative_rhs_rows_are_normalized():
    """Same diet problem with both rows negated on entry."""
    lp = LPProblem(
        c=np.array([2.0, 3.0]),
        a=-np.array([[1.0, 1.0], [1.0, 2.0]]),
        b=-np.array([4.0, 6.0]),
    )
    sol = simplex_solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(10.0, abs=1e-9)


def test_degenerate_vertex():
    """Redundantly constrained corner (b has a zero): still optimal."""
    c = np.array([-1.0, -1.0, 0.0, 0.0, 0.0])
    a = np.array([
        [1.0, 1.0, 1.0, 0.0, 0.0],
        [1.0, -1.0, 0.0, 1.0, 0.0],
        [-1.0, 1.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([2.0, 0.0, 0.0])
    sol = simplex_solve(LPProblem(c=c, a=a, b=b))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-2.0, abs=1e-9)
    np.testing.assert_allclose(sol.x[:2], [1.0, 1.0], atol=1e-9)


def test_infeasible_contradictory_rows():
    lp = LPProblem(
        c=np.array([1.0, 1.0]),
        a=np.array([[1.0, 1.0], [1.0, 1.0]]),
        b=np.array([1.0, 2.0]),
    )
    sol = simplex_solve(lp)
    assert sol.status == "infeasible"
    assert np.isnan(sol.objective)
    with pytest.raises(ParameterError):
        verify_certificate(lp, sol)


def test_infeasible_negative_requirement():
    """x1 + x2 = -1 with x >= 0 has no solution."""
    sol = simplex_solve(LPProblem(
        c=np.array([0.0, 0.0]),
        a=np.array([[1.0, 1.0]]),
        b=np.array([-1.0]),
    ))
    assert sol.status == "infeasible"


def test_unbounded_direction():
    """min -x1 with x1 - x2 = 0: ray (t, t) drives the objective to -inf."""
    sol = simplex_solve(LPProblem(
        c=np.array([-1.0, 0.0]),
        a=np.array([[1.0, -1.0]]),
        b=np.array([0.0]),
    ))
    assert sol.status == "unbounded"
    assert sol.objective == -np.inf


def test_redundant_rows_keep_their_artificial_at_zero():
    """A duplicated constraint leaves a zero phase-1 row; its artificial stays
    basic at 0 through phase 2, the basis still names a column for every row,
    and the solver still optimizes."""
    c = np.array([1.0, 2.0, 0.0])
    a = np.array([
        [1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],
        [2.0, 2.0, 2.0],
    ])
    b = np.array([3.0, 3.0, 6.0])
    lp = LPProblem(c=c, a=a, b=b)
    sol = simplex_solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0, abs=1e-9)  # all slack
    assert sol.x[2] == pytest.approx(3.0, abs=1e-9)
    assert len(sol.basis) == 3 and sorted(sol.basis)[1:] == [3, 4]  # rows 1 and 2: artificials
    assert verify_certificate(lp, sol)["ok"]


def test_lp_without_columns():
    """With no columns, A x = b holds only for b = 0, where x = () is optimal
    at objective 0; rows then leave phase 1 as redundant."""
    lp = LPProblem(c=np.zeros(0), a=np.zeros((2, 0)), b=np.zeros(2))
    sol = simplex_solve(lp)
    assert sol.status == "optimal" and sol.objective == 0.0
    assert sol.x.shape == (0,)
    assert verify_certificate(lp, sol)["ok"]
    sol = simplex_solve(LPProblem(c=np.zeros(0), a=np.zeros((2, 0)), b=np.array([1.0, 0.0])))
    assert sol.status == "infeasible"
    sol = simplex_solve(LPProblem(c=np.zeros(0), a=np.zeros((0, 0)), b=np.zeros(0)))
    assert sol.status == "optimal" and sol.objective == 0.0


def test_beale_cycling_example_terminates():
    """Beale's degenerate problem cycles under naive Dantzig pricing; the
    stall-triggered Bland rule must terminate at the known optimum -1/20."""
    c = np.array([0.0, 0.0, 0.0, -0.75, 150.0, -0.02, 6.0])
    a = np.array([
        [1.0, 0.0, 0.0, 0.25, -60.0, -0.04, 9.0],
        [0.0, 1.0, 0.0, 0.50, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.00, 0.0, 1.0, 0.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    lp = LPProblem(c=c, a=a, b=b)
    sol = simplex_solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-0.05, abs=1e-9)
    assert sol.iterations < 500
    assert verify_certificate(lp, sol)["ok"]


# ------------------------------------------------------------------- random


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(42)
    for trial in range(20):
        lp = _random_bounded_lp(rng)
        sol = simplex_solve(lp)
        assert sol.status == "optimal", f"trial {trial}"
        want = _vertex_oracle(lp)
        assert sol.objective == pytest.approx(want, abs=1e-6), f"trial {trial}"
        cert = verify_certificate(lp, sol)
        assert cert["ok"], f"trial {trial}: {cert}"


def test_random_lps_match_scipy():
    rng = np.random.default_rng(7)
    n_unbounded = 0
    for trial in range(30):
        m = int(rng.integers(2, 6))
        n = m + int(rng.integers(1, 6))
        a = rng.uniform(-3, 3, (m, n))
        x_feas = rng.uniform(0.0, 2.0, n)
        b = a @ x_feas
        c = rng.uniform(-2, 2, n)
        lp = LPProblem(c=c, a=a, b=b)
        sol = simplex_solve(lp)
        ref = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        if sol.status == "unbounded":
            n_unbounded += 1
            assert ref.status == 3, f"trial {trial}: scipy disagrees on unboundedness"
        else:
            assert sol.status == "optimal"
            assert ref.status == 0, f"trial {trial}"
            assert sol.objective == pytest.approx(ref.fun, abs=1e-6), f"trial {trial}"
    assert n_unbounded < 30  # some instances must be bounded


def test_scipy_agrees_on_infeasible():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    c = np.zeros(2)
    assert simplex_solve(LPProblem(c=c, a=a, b=b)).status == "infeasible"
    assert linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs").status == 2


# ------------------------------------------------------------------- guards


def test_problem_validation():
    with pytest.raises(DimensionError):
        LPProblem(c=np.zeros(3), a=np.zeros((2, 2)), b=np.zeros(2))
    with pytest.raises(DimensionError):
        LPProblem(c=np.zeros(2), a=np.zeros((2, 2)), b=np.zeros(3))
    with pytest.raises(ParameterError):
        LPProblem(c=np.array([np.inf, 0.0]), a=np.ones((1, 2)), b=np.ones(1))
    lp = LPProblem(c=np.zeros(2), a=np.ones((1, 2)), b=np.ones(1))
    assert lp.upper.shape == (2,) and np.all(lp.upper == np.inf)


@pytest.mark.parametrize("upper", [np.ones(3), np.ones(1), np.ones((2, 1)), np.float64(1.0)])
def test_upper_bound_of_wrong_shape_is_refused(upper):
    with pytest.raises(DimensionError, match="upper"):
        LPProblem(c=np.zeros(2), a=np.ones((1, 2)), b=np.ones(1), upper=upper)


@pytest.mark.parametrize("bad", [np.nan, -1.0, -np.inf, -1e-300])
def test_upper_bound_nan_or_negative_is_refused(bad):
    with pytest.raises(ParameterError, match="upper"):
        LPProblem(c=np.zeros(2), a=np.ones((1, 2)), b=np.ones(1),
                  upper=np.array([np.inf, bad]))


def test_iteration_limit(monkeypatch):
    monkeypatch.setattr(spx, "MAX_ITER", 1)
    lp = LPProblem(
        c=np.array([-3.0, -5.0, 0.0, 0.0, 0.0]),
        a=np.array([
            [1.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 2.0, 0.0, 1.0, 0.0],
            [3.0, 2.0, 0.0, 0.0, 1.0],
        ]),
        b=np.array([4.0, 12.0, 18.0]),
    )
    with pytest.raises(IterationLimitError, match="iterations"):
        simplex_solve(lp)


def test_certificate_rejects_corrupted_solution():
    lp = LPProblem(
        c=np.array([2.0, 3.0]),
        a=np.array([[1.0, 1.0], [1.0, 2.0]]),
        b=np.array([4.0, 6.0]),
    )
    sol = simplex_solve(lp)
    assert verify_certificate(lp, sol)["ok"]
    sol.x = sol.x + np.array([0.5, -0.25])
    cert = verify_certificate(lp, sol)
    assert not cert["ok"]
    assert cert["residual"] > 1e-3 or cert["min_x"] < -1e-9

    # min -x0 s.t. x0 + x1 = 3, x0 <= 2: x0 rests at its bound, x1 is basic
    bounded = LPProblem(c=np.array([-1.0, 0.0]), a=np.array([[1.0, 1.0]]),
                        b=np.array([3.0]), upper=np.array([2.0, np.inf]))
    sol = simplex_solve(bounded)
    np.testing.assert_allclose(sol.x, [2.0, 1.0], atol=1e-12)
    assert sol.basis == [1]
    cert = verify_certificate(bounded, sol)
    assert cert["ok"] and cert["max_excess"] == 0.0
    # above its bound, with A x = b still holding
    sol.x = np.array([2.5, 0.5])
    cert = verify_certificate(bounded, sol)
    assert not cert["ok"]
    assert cert["max_excess"] == pytest.approx(0.5) and cert["residual"] == 0.0
    # at its bound, but the objective now rewards lowering x0: the reduced
    # cost +1 has the wrong sign for a variable at its upper bound
    sol.x = np.array([2.0, 1.0])
    flipped_cost = LPProblem(c=np.array([1.0, 0.0]), a=bounded.a, b=bounded.b,
                             upper=bounded.upper)
    cert = verify_certificate(flipped_cost, sol)
    assert not cert["ok"]
    assert cert["min_reduced_cost"] == pytest.approx(-1.0)
    assert cert["residual"] == 0.0 and cert["min_x"] >= 0.0 and cert["max_excess"] <= 0.0


# ------------------------------------------------------------- upper bounds


def _random_box_lp(rng: np.random.Generator, reachable: bool) -> LPProblem:
    """Random equality-form LP whose columns are free above (+inf), boxed, or
    fixed at zero. With `reachable`, b comes from a point inside the box;
    otherwise from a point that may leave it (and b may be out of reach)."""
    m = int(rng.integers(2, 6))
    n = m + int(rng.integers(1, 6))
    a = rng.uniform(-3, 3, (m, n))
    kind = rng.choice(3, size=n, p=[0.4, 0.45, 0.15])  # +inf, boxed, zero
    upper = np.choose(kind, [np.full(n, np.inf), rng.uniform(0.5, 3.0, n), np.zeros(n)])
    if reachable:
        x = rng.uniform(0.0, 1.0, n) * np.where(np.isinf(upper), 2.0, upper)
    else:
        x = rng.uniform(-1.0, 4.0, n)
    return LPProblem(c=rng.uniform(-2, 2, n), a=a, b=a @ x, upper=upper)


def _scipy_bounds(upper):
    return [(0.0, None if np.isinf(u) else u) for u in upper]


_SCIPY_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}  # linprog's codes


def test_random_bounded_lps_match_scipy():
    rng = np.random.default_rng(19)
    seen = []
    for trial in range(120):
        lp = _random_box_lp(rng, reachable=trial % 4 != 3)
        sol = simplex_solve(lp)
        ref = linprog(lp.c, A_eq=lp.a, b_eq=lp.b, bounds=_scipy_bounds(lp.upper),
                      method="highs")
        assert sol.status == _SCIPY_STATUS[ref.status], f"trial {trial}"
        seen.append(sol.status)
        if sol.status == "optimal":
            assert sol.objective == pytest.approx(ref.fun, abs=1e-6), f"trial {trial}"
            assert np.all(np.abs(sol.x[lp.upper == 0.0]) <= 1e-12), f"trial {trial}"
            cert = verify_certificate(lp, sol)
            assert cert["ok"], f"trial {trial}: {cert}"
    assert {"optimal", "infeasible", "unbounded"} <= set(seen)


def _bidiagonal_lp(rng: np.random.Generator) -> tuple[LPProblem, bool]:
    """Random LP whose first m columns form a lower-bidiagonal block, like a
    state-of-charge chain, boxed in [0, 3..4], followed by random columns.
    With `planted`, those columns are dense with narrower boxes (or fixed at
    zero) and b is the block times a point inside its box, so the crash
    takes the block and starts feasible. Otherwise the random columns may be
    sparse or free above, one is split into two free parts, and b comes from
    a point that may leave the box."""
    m = int(rng.integers(2, 8))
    k = int(rng.integers(1, 6))
    planted = bool(rng.random() < 0.5)
    chain = np.zeros((m, m))
    chain[np.arange(m), np.arange(m)] = rng.choice([-1.0, 1.0], m) * rng.uniform(0.5, 2.0, m)
    chain[np.arange(1, m), np.arange(m - 1)] = rng.uniform(-2.0, 2.0, m - 1)
    extra = rng.uniform(-3, 3, (m, k))
    if not planted:
        extra *= rng.random((m, k)) < 0.6
    a = np.hstack([chain, extra])
    kind = rng.choice(3, size=k, p=[0.0, 0.8, 0.2] if planted else [0.45, 0.4, 0.15])
    upper = np.concatenate([rng.uniform(3.0, 4.0, m),
                            np.choose(kind, [np.full(k, np.inf), rng.uniform(0.5, 3.0, k),
                                             np.zeros(k)])])
    if planted:
        x = np.concatenate([rng.uniform(0.05, 0.95, m) * upper[:m], np.zeros(k)])
    else:
        # a free column split into positive and negative parts, as the
        # bidding LP splits its bids, leaves a ray whenever the parts'
        # costs sum below zero
        a = np.hstack([a, -a[:, m:m + 1]])
        upper[m] = np.inf
        upper = np.append(upper, np.inf)
        x = rng.uniform(-0.5, 4.5, a.shape[1])
    return LPProblem(c=rng.uniform(-2, 2, a.shape[1]), a=a, b=a @ x, upper=upper), planted


def test_random_bidiagonal_lps_match_scipy():
    """The crash starts the planted LPs on the bidiagonal block with no phase
    1; the others fall back to artificials where their substituted values
    leave the box. Every status and optimum agrees with scipy's HiGHS."""
    rng = np.random.default_rng(31)
    seen, phase1 = [], []
    for trial in range(150):
        lp, planted = _bidiagonal_lp(rng)
        sol = simplex_solve(lp)
        ref = linprog(lp.c, A_eq=lp.a, b_eq=lp.b, bounds=_scipy_bounds(lp.upper),
                      method="highs")
        assert sol.status == _SCIPY_STATUS[ref.status], f"trial {trial}"
        seen.append(sol.status)
        if planted:
            m = lp.a.shape[0]
            assert spx._crash(lp.a, lp.b, lp.upper)[0] == list(range(m)), f"trial {trial}"
            assert sol.phase1_iterations == 0, f"trial {trial}"
        phase1.append(sol.phase1_iterations)
        if sol.status == "optimal":
            assert sol.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-9), f"trial {trial}"
            cert = verify_certificate(lp, sol)
            assert cert["ok"], f"trial {trial}: {cert}"
    assert {"optimal", "infeasible", "unbounded"} <= set(seen)
    assert max(phase1) > 0


def _integer_lp_with_copied_rows(rng: np.random.Generator) -> LPProblem:
    """Random integer LP, b = A x0 for a degenerate x0 inside the bounds. With
    probability 1/2 one row is an earlier row times 1, 2 or -1, a redundant
    constraint that leaves an artificial basic after phase 1."""
    m, n = int(rng.integers(2, 9)), int(rng.integers(2, 12))
    a = rng.integers(-3, 4, (m, n)).astype(float)
    if rng.random() < 0.5:
        i = int(rng.integers(1, m))
        a[i] = a[int(rng.integers(0, i))] * rng.choice([1.0, 2.0, -1.0])
    upper = np.where(rng.random(n) < 0.5, np.inf, rng.integers(0, 5, n).astype(float))
    x0 = np.minimum(rng.integers(0, 3, n) * (rng.random(n) < 0.5), upper)  # many zeros
    return LPProblem(c=rng.integers(-5, 6, n).astype(float), a=a, b=a @ x0, upper=upper)


def test_random_lps_with_redundant_rows_match_scipy():
    """Every status and optimum agrees with scipy's HiGHS, every optimum is
    certified, and the basis names one column for every row of A: an index
    >= n marks a redundant row, whose artificial stayed basic at 0."""
    rng = np.random.default_rng(26)
    seen, redundant = set(), 0
    for trial in range(200):
        lp = _integer_lp_with_copied_rows(rng)
        m, n = lp.a.shape
        sol = simplex_solve(lp)
        ref = linprog(lp.c, A_eq=lp.a, b_eq=lp.b, bounds=_scipy_bounds(lp.upper),
                      method="highs")
        assert sol.status == _SCIPY_STATUS[ref.status], f"trial {trial}"
        assert len(sol.basis) == m, f"trial {trial}"
        seen.add(sol.status)
        redundant += any(j >= n for j in sol.basis)
        if sol.status == "optimal":
            assert sol.objective == pytest.approx(ref.fun, abs=1e-6), f"trial {trial}"
            cert = verify_certificate(lp, sol)
            assert cert["ok"], f"trial {trial}: {cert}"
    assert seen == {"optimal", "unbounded"} and redundant > 50


def test_all_zero_upper_bounds():
    """Every column fixed at zero: b = 0 is solved by x = 0, any other b is
    out of reach."""
    a = np.array([[1.0, 2.0, -1.0], [0.0, 1.0, 1.0]])
    for b, want in ((np.zeros(2), "optimal"), (np.array([1.0, 0.0]), "infeasible")):
        lp = LPProblem(c=np.array([-1.0, 1.0, -2.0]), a=a, b=b, upper=np.zeros(3))
        sol = simplex_solve(lp)
        assert sol.status == want
        ref = linprog(lp.c, A_eq=a, b_eq=b, bounds=_scipy_bounds(lp.upper), method="highs")
        assert _SCIPY_STATUS[ref.status] == want
        if want == "optimal":
            assert np.array_equal(sol.x, np.zeros(3))
            assert verify_certificate(lp, sol)["ok"]


@pytest.mark.parametrize("upper", [
    [5.0] * 7,  # loose: the bounds never bind
    [5.0, 5.0, 5.0, 5.0, 5.0, 0.5, 5.0],  # binds x5 at its bound
    [np.inf, np.inf, np.inf, 0.02, np.inf, np.inf, np.inf],  # binds x3
    [1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0],  # fixes x4 and x6 at zero
])
def test_bounded_beale_problem_reaches_blands_rule(monkeypatch, upper):
    """Beale's cycling example with upper bounds: Dantzig pricing alone still
    cycles (hits the iteration limit), and the stall-triggered Bland rule
    reaches scipy's optimum."""
    c = np.array([0.0, 0.0, 0.0, -0.75, 150.0, -0.02, 6.0])
    a = np.array([
        [1.0, 0.0, 0.0, 0.25, -60.0, -0.04, 9.0],
        [0.0, 1.0, 0.0, 0.50, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.00, 0.0, 1.0, 0.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    lp = LPProblem(c=c, a=a, b=b, upper=np.array(upper))
    sol = simplex_solve(lp)
    ref = linprog(c, A_eq=a, b_eq=b, bounds=_scipy_bounds(lp.upper), method="highs")
    assert sol.status == "optimal" and ref.status == 0
    assert sol.objective == pytest.approx(ref.fun, abs=1e-9)
    assert verify_certificate(lp, sol)["ok"]
    monkeypatch.setattr(spx, "STALL_LIMIT", 10**9)
    monkeypatch.setattr(spx, "MAX_ITER", 2_000)
    with pytest.raises(IterationLimitError):
        simplex_solve(lp)


def test_bound_flip_is_one_iteration(monkeypatch):
    """min -x0 s.t. 2 x0 + x1 = 10, x0 <= 2: x0 reaches its own bound before x1
    reaches zero, so it flips there with no pivot, and that flip is an
    iteration that counts toward MAX_ITER."""
    lp = LPProblem(c=np.array([-1.0, 0.0]), a=np.array([[2.0, 1.0]]),
                   b=np.array([10.0]), upper=np.array([2.0, np.inf]))
    sol = simplex_solve(lp)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [2.0, 6.0], atol=1e-12)
    assert sol.basis == [1] and sol.iterations == 1
    monkeypatch.setattr(spx, "MAX_ITER", 1)
    with pytest.raises(IterationLimitError):
        simplex_solve(lp)


def test_unit_column_above_its_bound_is_not_a_starting_basis():
    """x1 is a unit column of row 0, but b = 5 exceeds its bound 3, so it
    cannot start basic at 5. Alone in the row with x0 (also a unit column,
    unbounded) the crash starts x0 at 2.5 instead; once x0 also sits in row
    1, row 0 starts on an artificial and phase 1 finds x0 = 1, x1 = 3."""
    lp = LPProblem(c=np.array([1.0, 0.0]), a=np.array([[2.0, 1.0]]),
                   b=np.array([5.0]), upper=np.array([np.inf, 3.0]))
    assert spx._crash(lp.a, lp.b, lp.upper)[0] == [0]
    sol = simplex_solve(lp)
    assert sol.status == "optimal" and sol.phase1_iterations == 0
    np.testing.assert_allclose(sol.x, [1.0, 3.0], atol=1e-12)
    assert verify_certificate(lp, sol)["ok"]

    lp = LPProblem(c=np.array([1.0, 0.0, 0.0]), a=np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 1.0]]),
                   b=np.array([5.0, 4.0]), upper=np.array([np.inf, 3.0, np.inf]))
    assert spx._crash(lp.a, lp.b, lp.upper)[0] == [-1, 2]
    sol = simplex_solve(lp)
    assert sol.status == "optimal" and sol.phase1_iterations > 0
    np.testing.assert_allclose(sol.x, [1.0, 3.0, 3.0], atol=1e-12)
    assert verify_certificate(lp, sol)["ok"]


# ------------------------------------------------------------- sparse pivot


def _dense_pivot(tab, basis, row, col, rows):
    """Reference: the full-tableau Gauss-Jordan update (ignores `rows`)."""
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


def _loop_unit_columns(a):
    """Reference: first +1 unit column per row, one column at a time."""
    out = {}
    nonzero_count = (a != 0).sum(axis=0)
    for j in range(a.shape[1]):
        if nonzero_count[j] != 1:
            continue
        i = int(np.argmax(a[:, j] != 0))
        if a[i, j] == 1.0 and i not in out:
            out[i] = j
    return out


def test_sparse_pivot_matches_dense_update():
    """Cells whose row or column factor is an exact zero are skipped; the
    result must equal the full outer-product update, over chains of pivots."""
    rng = np.random.default_rng(3)
    for trial in range(50):
        m, n = int(rng.integers(1, 12)), int(rng.integers(2, 20))
        tab = rng.normal(size=(m + 1, n + 1)) * (rng.random((m + 1, n + 1)) < 0.3)
        sparse, dense = tab.copy(), tab.copy()
        basis_s, basis_d = [-1] * m, [-1] * m
        for _ in range(5):
            rows, cols = np.nonzero(sparse[:m, :n])
            if rows.size == 0:
                break
            k = int(rng.integers(rows.size))
            row, col = int(rows[k]), int(cols[k])
            nonzero = np.flatnonzero(sparse[:, col])
            spx._pivot(sparse, basis_s, row, col, nonzero)
            _dense_pivot(dense, basis_d, row, col, nonzero)
            assert np.array_equal(sparse, dense), f"trial {trial}"
            assert basis_s == basis_d


def test_sparse_pivot_solves_bidding_lp_bit_for_bit(monkeypatch):
    """An S = 5 bidding LP takes the same pivots with either update: equal
    iteration count, basis, and x down to the bits."""
    from scendiff.value import RetailerModel, build_two_stage_lp

    rng = np.random.default_rng(11)
    pv = 30 * np.clip(np.sin((np.arange(24) - 6) * np.pi / 12), 0, None)
    scenarios = np.stack([rng.uniform(0, 60, 24) + pv * rng.uniform(0.5, 1, 24)
                          - rng.uniform(40, 80, 24) for _ in range(5)])
    lp = build_two_stage_lp(RetailerModel(), scenarios)
    fast = simplex_solve(lp)
    monkeypatch.setattr(spx, "_pivot", _dense_pivot)
    ref = simplex_solve(lp)
    assert fast.status == ref.status == "optimal"
    assert fast.iterations == ref.iterations
    assert fast.basis == ref.basis
    assert fast.x.tobytes() == ref.x.tobytes()
    assert np.float64(fast.objective).tobytes() == np.float64(ref.objective).tobytes()


def test_finite_lp_whose_arithmetic_overflows_is_refused_without_a_warning():
    """A bidding LP whose one net position of 1e308 is finite, as are all its
    coefficients, overflows the tableau: the solver raises ParameterError
    where it reported `optimal` with objective -inf, warns nothing, and
    leaves numpy's error settings as it found them."""
    from scendiff.value import RetailerModel, build_two_stage_lp

    net = np.zeros((1, 24))
    net[0, 7] = 1e308
    lp = build_two_stage_lp(RetailerModel(), net)
    assert all(np.isfinite(v).all() for v in (lp.a, lp.b, lp.c))
    before = np.geterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParameterError, match="overflow") as info:
            simplex_solve(lp)
    assert isinstance(info.value, LPOverflowError)
    assert caught == []
    assert np.geterr() == before
    # an ordinary net position still solves
    net[0, 7] = 1e3
    assert simplex_solve(build_two_stage_lp(RetailerModel(), net)).status == "optimal"


def test_unit_columns_match_loop_reference():
    """The crash still starts every row on the first +1 unit column that the
    old unit-column rule found there, wherever that column's value is within
    its bound: here the rows without a unit column have b = 0, so each
    triangular column starts at zero and a unit row's residual is its b >= 0."""
    rng = np.random.default_rng(5)
    for trial in range(40):
        m, n = int(rng.integers(0, 8)), int(rng.integers(1, 16))
        a = rng.choice([0.0, 0.0, 0.0, 1.0, -1.0, 2.0], size=(m, n))
        if m:
            # duplicate +1 unit columns and a -1 unit column ahead of a +1 one
            i = int(rng.integers(m))
            unit = np.zeros((m, 1))
            unit[i] = 1.0
            a = np.hstack([-unit, a, unit, unit])
        single = (a != 0).sum(axis=0) == 1
        unit_row = (a[:, single] != 0).any(axis=1)
        b = np.where(unit_row, rng.uniform(0.0, 2.0, m), 0.0)
        basis, _ = spx._crash(a, b, np.full(a.shape[1], np.inf))
        for i, j in _loop_unit_columns(a).items():
            assert basis[i] == j, f"trial {trial} row {i}"
