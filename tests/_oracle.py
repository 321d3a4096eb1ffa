"""Brute-force reference for the filter QP: the exact objective minimum over
a regular grid of the input box, refined locally. It shares nothing with the
active-set path except the degenerate-row policy, so the QP tests and
acceptance criterion 4 can check the solver against it.

Also the general moment-balance tip point, the reference that
`barrier.zmp_lateral` simplifies."""

import math

import numpy as np

from rollguard import qp


def _column_scan(unx, uny, rows, x0, x1, nx, y0, y1, ny):
    """Minimum of the objective over x-columns of a regular grid.

    Per x-column the feasible y set is an interval. With ny > 0 the column
    is quantized to the ny-point y grid and only the grid point nearest the
    unconstrained optimum matters (this reproduces the full nx x ny grid
    minimum exactly); with ny = 0 the column minimum is taken over the
    continuous interval, which makes the scan exact in y.

    Returns (found, obj, x, y).
    """
    xs = np.linspace(x0, x1, nx) if nx > 1 else np.array([x0])

    ylo = np.full(xs.shape, y0)
    yhi = np.full(xs.shape, y1)
    feas = np.ones(xs.shape, dtype=bool)
    for a0, a1, rhs in rows:
        r = rhs - a0 * xs
        if a1 > 1e-300:
            ylo = np.maximum(ylo, r / a1)
        elif a1 < -1e-300:
            yhi = np.minimum(yhi, r / a1)
        else:
            feas &= a0 * xs >= rhs - 1e-12
    feas &= ylo <= yhi + 1e-15

    if ny > 1:
        dy = (y1 - y0) / (ny - 1)
        if dy > 0.0:
            jlo = np.ceil((ylo - y0) / dy - 1e-12)
            jhi = np.floor((yhi - y0) / dy + 1e-12)
            np.clip(jlo, 0, ny - 1, out=jlo)
            np.clip(jhi, 0, ny - 1, out=jhi)
            feas &= jlo <= jhi
            jstar = np.clip(round((uny - y0) / dy), jlo, jhi)
            ys = y0 + jstar * dy
        else:
            feas &= (ylo <= y0 + 1e-15) & (yhi >= y0 - 1e-15)
            ys = np.full(xs.shape, y0)
    elif ny == 1:
        feas &= (ylo <= y0 + 1e-15) & (yhi >= y0 - 1e-15)
        ys = np.full(xs.shape, y0)
    else:
        ys = np.clip(uny, ylo, yhi)

    obj = (xs - unx) ** 2 + (ys - uny) ** 2
    obj[~feas] = np.inf
    i = int(np.argmin(obj))
    if not np.isfinite(obj[i]):
        return (0, math.inf, 0.0, 0.0)
    return (1, float(obj[i]), float(xs[i]), float(ys[i]))


def grid_min(unx, uny, rows, lo, hi, n0=401, refinements=6, expand=6,
             walk_limit=64):
    """Grid search over the box with local refinement; `rows` are
    (a0, a1, rhs) triples for a . u >= rhs.

    Level 0 is the exact minimum over the full n0 x n0 grid. Refinement
    passes re-grid x inside a (2*expand cells)-wide window around the
    incumbent at 161 columns, minimizing each column exactly over its
    continuous feasible y interval; partial minimization keeps the column
    objective convex in x, so walking the window while the incumbent lands
    on its edge converges. Returns (found, obj, x, y)."""
    x0g, y0g = lo[0], lo[1]
    x1g, y1g = hi[0], hi[1]

    found, obj, bx, by = _column_scan(unx, uny, rows, x0g, x1g, n0, y0g, y1g, n0)
    if not found:
        return (0, math.inf, 0.0, 0.0)
    sx = (x1g - x0g) / (n0 - 1)
    n1 = 161

    for _ in range(refinements):
        for _ in range(walk_limit):
            wx = expand * sx
            cx0, cx1 = max(x0g, bx - wx), min(x1g, bx + wx)
            f2, o2, x2, y2 = _column_scan(unx, uny, rows, cx0, cx1, n1,
                                          y0g, y1g, 0)
            improved = f2 and o2 < obj
            if improved:
                obj, bx, by = o2, x2, y2
            on_edge = ((abs(x2 - cx0) < 1e-15 and cx0 > x0g + 1e-15)
                       or (abs(x2 - cx1) < 1e-15 and cx1 < x1g - 1e-15))
            if not (improved and on_edge):
                break
        sx *= 2.0 * expand / (n1 - 1)
    return (1, obj, bx, by)


def grid_oracle(problem: qp.QpProblem, n0: int = 401, refinements: int = 6):
    """Reference minimum of `problem`.

    Returns (objective, (ux, uy)) or None when no feasible grid point
    exists."""
    rows, forced = qp._split_rows(problem.rows)
    if forced > 0.0:
        return None
    found, obj, ux, uy = grid_min(
        problem.u_nom[0], problem.u_nom[1],
        [(row.a[0], row.a[1], row.beta) for row in rows],
        problem.lower, problem.upper, n0, refinements)
    if not found:
        return None
    return obj, (ux, uy)


def zmp_lateral_full(y_acc_body, z_acc_body, roll_acc, pitch_rate, omega,
                     g_y, g_z, cg_height, mass, inertia_x, inertia_y, inertia_z):
    """General moment-balance lateral tip point with explicit angular terms.

    Reduces to `barrier.zmp_lateral` with y_acc_body = -v*omega and the
    angular terms zero, for any mass and inertias.
    """
    denom = mass * (z_acc_body + g_z)
    gyro = inertia_x * roll_acc + (inertia_y - inertia_z) * pitch_rate * omega
    num = -mass * y_acc_body * cg_height - mass * g_y * cg_height - gyro
    return num / denom
