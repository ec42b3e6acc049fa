"""Unit tests for the dense two-phase simplex, the tests' LP oracle.

The second half compares ``simplex.minimize`` with a scalar reference: the
row-by-row pivot and the index-by-index Bland scan that the whole-array
code replaced.  Both must take the same pivots and give bit-equal results.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cider import optimizer as opt
from cider import simplex
from cider.simplex import Infeasible, SimplexError, minimize

import sequence_form as sf


def test_simple_equality_problem():
    # min x0 + 2 x1  s.t.  x0 + x1 = 1
    x, value = minimize([1.0, 2.0], [[1.0, 1.0]], [1.0])
    assert value == pytest.approx(1.0)
    assert x[0] == pytest.approx(1.0)
    assert x[1] == pytest.approx(0.0)


def test_two_constraints():
    # min -x0 - x1  s.t.  x0 + s0 = 2, x1 + s1 = 3
    c = [-1.0, -1.0, 0.0, 0.0]
    A = [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]
    x, value = minimize(c, A, [2.0, 3.0])
    assert value == pytest.approx(-5.0)
    assert x[0] == pytest.approx(2.0)
    assert x[1] == pytest.approx(3.0)


def test_negative_rhs_rows_are_flipped():
    # -x0 = -1  is the same as  x0 = 1
    x, value = minimize([1.0], [[-1.0]], [-1.0])
    assert x[0] == pytest.approx(1.0)
    assert value == pytest.approx(1.0)


def test_infeasible():
    # x0 = 1 and x0 = 2 cannot both hold
    with pytest.raises(Infeasible):
        minimize([1.0], [[1.0], [1.0]], [1.0, 2.0])


def test_infeasible_negative_requirement():
    # x0 + x1 = -1 has no nonnegative solution
    with pytest.raises(Infeasible):
        minimize([0.0, 0.0], [[1.0, 1.0]], [-1.0])


def test_unbounded_detected():
    # min -x0 with only x0 - x1 = 0: x0 can grow without limit
    with pytest.raises(SimplexError, match="unbounded"):
        minimize([-1.0, 0.0], [[1.0, -1.0]], [0.0])


def test_redundant_constraints():
    A = [[1.0, 1.0], [2.0, 2.0]]
    x, value = minimize([1.0, 3.0], A, [1.0, 2.0])
    assert value == pytest.approx(1.0)


def test_degenerate_vertices_terminate():
    # several constraints meeting at one point; Bland's rule must not cycle
    A = [
        [1.0, 1.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, 1.0],
    ]
    x, value = minimize([-0.75, 150.0, 0.0, 0.0, 0.0], A, [1.0, 1.0, 0.0])
    assert value == pytest.approx(-0.75)


def test_iteration_cap_raises_with_diagnostics():
    A = [[1.0, 1.0, 1.0], [1.0, 0.0, 2.0]]
    with pytest.raises(SimplexError, match="iteration cap 1 exceeded"):
        minimize([-1.0, -2.0, 0.0], A, [4.0, 3.0], max_iter=1)


def test_matches_numpy_linprog_style_enumeration():
    # brute-force vertex check on a random bounded problem
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = 4
        A = np.vstack([rng.uniform(0.2, 1.0, n)])
        b = np.array([1.0])
        c = rng.uniform(-1.0, 1.0, n)
        x, value = minimize(c, A, b)
        assert np.allclose(A @ x, b, atol=1e-9)
        assert np.all(x >= -1e-12)
        # single-constraint optimum sits on one coordinate axis
        best = min(c[j] * (b[0] / A[0, j]) for j in range(n))
        assert value == pytest.approx(best, abs=1e-9)


@pytest.mark.parametrize(
    "c, A, b",
    [
        ([np.inf, 0.0], [[1.0, 1.0]], [1.0]),
        ([1.0, 2.0], [[1.0, np.nan]], [1.0]),
        ([1.0, 2.0], [[1.0, 1.0]], [-np.inf]),
    ],
    ids=["c", "A", "b"],
)
def test_non_finite_input_is_a_value_error(c, A, b):
    with pytest.raises(ValueError, match="not finite") as info:
        minimize(c, A, b)
    assert type(info.value) is ValueError  # not Infeasible, its subclass


# --- the scalar reference -------------------------------------------------


def ref_pivot(tableau, basis, row, col, log):
    log.append((row, col))
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and tableau[i, col] != 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]
    basis[row] = col


def ref_run(tableau, basis, ncols, max_iter, tol, log):
    iterations = 0
    m = tableau.shape[0] - 1
    while True:
        iterations += 1
        if iterations > max_iter:
            raise SimplexError(
                f"iteration cap {max_iter} exceeded "
                f"({m} rows, {ncols} columns, basis {sorted(basis)})"
            )
        reduced = tableau[-1, :ncols]
        entering = -1
        for j in range(ncols):
            if reduced[j] < -tol:
                entering = j
                break
        if entering < 0:
            return
        leaving = -1
        best = np.inf
        for i in range(m):
            a = tableau[i, entering]
            if a > tol:
                ratio = tableau[i, -1] / a
                if ratio < best - tol or (
                    ratio < best + tol and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:
            raise SimplexError("unbounded objective direction")
        ref_pivot(tableau, basis, leaving, entering, log)


def ref_minimize(c, A, b, log, tol=simplex.PIVOT_TOL):
    A = np.asarray(A, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    max_iter = 10 * (m + n) ** 2
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = A
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[-1, n : n + m] = 1.0
    tableau[-1] -= tableau[:m].sum(axis=0)
    basis = list(range(n, n + m))
    ref_run(tableau, basis, n + m, max_iter, tol, log)
    if tableau[-1, -1] < -tol:
        raise Infeasible(f"phase-one objective {-tableau[-1, -1]:.3e} > 0")
    keep = []
    for i in range(m):
        if basis[i] >= n:
            pivot_col = -1
            for j in range(n):
                if abs(tableau[i, j]) > tol:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                ref_pivot(tableau, basis, i, pivot_col, log)
                keep.append(i)
        else:
            keep.append(i)
    rows = keep + [m]
    tableau = tableau[rows][:, list(range(n)) + [n + m]]
    basis = [basis[i] for i in keep]
    tableau[-1, :] = 0.0
    tableau[-1, :n] = c
    for i, j in enumerate(basis):
        tableau[-1] -= tableau[-1, j] * tableau[i]
    ref_run(tableau, basis, n, max_iter, tol, log)
    x = np.zeros(n)
    for i, j in enumerate(basis):
        x[j] = tableau[i, -1]
    return x, float(c @ x)


def logged_minimize(c, A, b, log):
    """simplex.minimize, recording each pivot's (row, col) in log."""
    pivot = simplex._pivot

    def logged(tableau, basis, row, col):
        log.append((row, col))
        pivot(tableau, basis, row, col)

    with mock.patch.object(simplex, "_pivot", logged):
        return minimize(c, A, b)


def _outcome(solve, c, A, b):
    """(x, value) or (exception type, message), and the pivots taken."""
    log = []
    try:
        result = solve(c, A, b, log)
    except (ValueError, SimplexError) as exc:
        result = (type(exc), str(exc))
    return result, log


def assert_same_as_reference(c, A, b):
    """Compare with the reference; returns "optimal" or the exception type."""
    got, got_log = _outcome(logged_minimize, c, A, b)
    want, want_log = _outcome(ref_minimize, c, A, b)
    assert got_log == want_log
    if isinstance(want[0], type):
        assert got == want
        return want[0]
    assert np.array_equal(got[0], want[0])
    assert got[0].tobytes() == want[0].tobytes()  # the signs of zeros too
    assert got[1] == want[1]
    return "optimal"


def test_pivot_skips_rows_with_a_zero_factor():
    # 0 * inf is nan and x - 0 * y can flip the sign of a zero: rows whose
    # entry in the pivot column is zero must be left alone
    tableau = np.array(
        [
            [2.0, np.inf, -0.0, 4.0],
            [0.0, 1.0, 3.0, -0.0],
            [-0.0, 5.0, -0.0, 1.0],
            [1.0, -2.0, 0.0, 3.0],
        ]
    )
    want, got = tableau.copy(), tableau.copy()
    want_basis, got_basis = [5, 6, 7, 8], [5, 6, 7, 8]
    ref_pivot(want, want_basis, 0, 0, [])
    simplex._pivot(got, got_basis, 0, 0)
    assert got.tobytes() == want.tobytes()
    assert got_basis == want_basis == [0, 6, 7, 8]
    assert not np.isnan(got[1:3]).any()


_ENTRIES = [-2.0, -1.0, -0.5, 0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0]
_entry = st.sampled_from(_ENTRIES) | st.floats(-4.0, 4.0, allow_subnormal=False)


@st.composite
def _lps(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    A = [[draw(_entry) for _ in range(n)] for _ in range(m)]
    b = [draw(_entry) for _ in range(m)]
    # a row that combines two others: redundant when its right-hand side
    # combines theirs the same way, infeasible when it does not
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        k = draw(st.sampled_from([1.0, -1.0, 2.0]))
        A.append([A[i][col] + k * A[j][col] for col in range(n)])
        b.append(b[i] + k * b[j] + draw(st.sampled_from([0.0, 0.0, 0.0, 1.0])))
    c = [draw(_entry) for _ in range(n)]
    return c, A, b


def test_matches_the_scalar_reference():
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_lps())
    def collect(lp):
        seen.add(assert_same_as_reference(*lp))

    collect()
    # optimal, infeasible and unbounded programs all occur
    assert {"optimal", Infeasible, SimplexError} <= seen


@pytest.mark.parametrize("epsilon", [0.0, 0.01])
def test_sequence_form_lps_match_the_scalar_reference(random_kb_corpus, epsilon):
    outcomes = set()
    for kb, _ in random_kb_corpus:
        lp = sf.assemble_lp(sf.ref_build_game_tree(kb.diagram), epsilon=epsilon)
        shifted = lp.rhs - lp.constraints @ lp.lower_bounds
        outcomes.add(assert_same_as_reference(lp.objective, lp.constraints, shifted))
    assert "optimal" in outcomes
