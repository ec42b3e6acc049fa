"""Dense two-phase tableau simplex with Bland's anti-cycling rule.

Solves  min c.x  subject to  A x = b, x >= 0.  Small and deterministic;
adequate up to a few thousand variables, which covers every linear
program this package builds.
"""

__all__ = ["Infeasible", "SimplexError", "minimize"]

PIVOT_TOL = 1e-9


class Infeasible(ValueError):
    """The equality system admits no nonnegative solution."""


class SimplexError(RuntimeError):
    """Iteration cap hit or an unbounded direction encountered."""


def _pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    # one multiply and one subtract per element, as a row-by-row loop does;
    # rows with a zero factor are skipped, since 0 * inf is nan and x - 0 * y
    # can flip the sign of a zero
    rows = tableau[:, col].nonzero()[0]
    rows = rows[rows != row]
    tableau[rows] -= tableau[rows, col][:, None] * tableau[row]
    basis[row] = col


def _run(tableau, basis, ncols, max_iter, tol):
    """Optimize the tableau in place; the objective row is the last row."""
    import numpy as np
    m = tableau.shape[0] - 1
    for _ in range(max_iter):
        eligible = (tableau[-1, :ncols] < -tol).nonzero()[0]
        if not eligible.size:
            return
        entering = int(eligible[0])  # Bland: smallest eligible index
        column = tableau[:m, entering]
        rows = (column > tol).nonzero()[0]
        if not rows.size:
            raise SimplexError("unbounded objective direction")
        ratios = tableau[rows, -1] / column[rows]
        # the best ratio moves during the scan, so the tie rule stays
        # sequential: an argmin can pick another row
        leaving = -1
        best = np.inf
        for i, ratio in zip(rows.tolist(), ratios.tolist()):
            if ratio < best - tol or (
                ratio < best + tol and (leaving < 0 or basis[i] < basis[leaving])
            ):
                best = ratio
                leaving = i
        _pivot(tableau, basis, leaving, entering)
    raise SimplexError(
        f"iteration cap {max_iter} exceeded "
        f"({m} rows, {ncols} columns, basis {sorted(basis)})"
    )


def minimize(c, A, b, tol=PIVOT_TOL, max_iter=None):
    """Optimal basic solution of  min c.x  s.t.  A x = b, x >= 0.

    Returns (x, value).  Raises Infeasible when phase one cannot zero
    the artificial variables, and ValueError when an entry of c, A or b
    is not finite.
    """
    import numpy as np
    A = np.asarray(A, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    for name, values in (("c", c), ("A", A), ("b", b)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} has an entry that is not finite")
    m, n = A.shape
    if max_iter is None:
        max_iter = 10 * (m + n) ** 2

    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # phase 1: [A | I | b] minimizing the artificial sum
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = A
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[-1, n : n + m] = 1.0
    tableau[-1] -= tableau[:m].sum(axis=0)  # zero out the basic artificials
    basis = list(range(n, n + m))
    _run(tableau, basis, n + m, max_iter, tol)
    if tableau[-1, -1] < -tol:
        raise Infeasible(f"phase-one objective {-tableau[-1, -1]:.3e} > 0")

    # drive any residual artificial out of the basis, or drop its row
    keep = []
    for i in range(m):
        if basis[i] >= n:
            movable = (np.abs(tableau[i, :n]) > tol).nonzero()[0]
            if not movable.size:
                continue  # redundant row
            _pivot(tableau, basis, i, int(movable[0]))
        keep.append(i)
    tableau = tableau[keep + [m]][:, [*range(n), n + m]]
    basis = [basis[i] for i in keep]

    # phase 2: original objective, reduced against the current basis
    # row by row (a matrix product would sum in another order)
    tableau[-1, :] = 0.0
    tableau[-1, :n] = c
    for i, j in enumerate(basis):
        tableau[-1] -= tableau[-1, j] * tableau[i]
    _run(tableau, basis, n, max_iter, tol)

    x = np.zeros(n)
    x[basis] = tableau[:-1, -1]
    return x, float(c @ x)
