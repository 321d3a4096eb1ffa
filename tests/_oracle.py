"""Brute-force reference for the filter QP: the exact objective minimum over
a regular grid of the input box, refined locally. It shares nothing with the
active-set path except the degenerate-row policy, so the QP tests and
acceptance criterion 4 can check the solver against it.

Also the active-set enumeration and the multipliers as they were before the
solver learned to test feasibility only for candidates that can win,
verbatim: `reference_solve_active_set` tests every candidate and
`reference_multipliers` sums the residual with `sum`. The solver and
`qp._multipliers` must return what they return, bit for bit and exception
for exception (tests/test_qp.py, `TestReferenceEquivalence`).

And the general moment-balance tip point, the reference that
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
    rows, _, forced = qp.split_rows([(row.a[0], row.a[1], row.beta) for row in problem.rows],
                                    [row.label for row in problem.rows])
    if forced > 0.0:
        return None
    found, obj, ux, uy = grid_min(problem.u_nom[0], problem.u_nom[1], list(rows),
                                  problem.lower, problem.upper, n0, refinements)
    if not found:
        return None
    return obj, (ux, uy)


_FEAS_TOL = 1e-9


def reference_solve_active_set(unx, uny, cons):
    """Exact active-set enumeration. The nominal point is returned at once
    when it is finite and feasible (no candidate can beat objective 0);
    otherwise candidate order (size, then lexicographic) is the tie-break.

    Returns (ux, uy, found, active_indices, objective), with indices into
    `cons`.
    """
    def feasible(x, y):
        for g0, g1, rhs in cons:
            if g0 * x + g1 * y < rhs - _FEAS_TOL:
                return False
        return True

    if math.isfinite(unx) and math.isfinite(uny) and feasible(unx, uny):
        return (unx, uny, 1, (), 0.0)

    best_obj = math.inf
    best = None

    def consider(x, y, active):
        nonlocal best_obj, best
        if not (math.isfinite(x) and math.isfinite(y)):
            return
        if not feasible(x, y):
            return
        obj = (x - unx) ** 2 + (y - uny) ** 2
        if obj < best_obj:
            best_obj = obj
            best = (x, y, active)

    n = len(cons)
    for j in range(n):
        g0, g1, rhs = cons[j]
        denom = g0 * g0 + g1 * g1
        if denom < 1e-24:
            continue
        s = (rhs - (g0 * unx + g1 * uny)) / denom
        consider(unx + s * g0, uny + s * g1, (j,))

    for i in range(n):
        gi0, gi1, ri = cons[i]
        ni = math.hypot(gi0, gi1)
        for j in range(i + 1, n):
            gj0, gj1, rj = cons[j]
            det = gi0 * gj1 - gi1 * gj0
            if abs(det) < 1e-10 * ni * math.hypot(gj0, gj1):
                continue
            x = (ri * gj1 - rj * gi1) / det
            y = (gi0 * rj - gj0 * ri) / det
            consider(x, y, (i, j))

    if best is None:
        return (unx, uny, 0, (), math.inf)
    return (best[0], best[1], 1, best[2], best_obj)


def reference_multipliers(u, u_nom, active, cons):
    """Multipliers of the active set from stationarity
    2 (u - u_nom) = sum lambda_j g_j, plus the residual norm."""
    rx = 2.0 * (u[0] - u_nom[0])
    ry = 2.0 * (u[1] - u_nom[1])
    if not active:
        return (), math.hypot(rx, ry)
    g = [cons[j][:2] for j in active]
    if len(g) == 1:
        (g0, g1), = g
        denom = g0 * g0 + g1 * g1
        lam = ((rx * g0 + ry * g1) / denom,)
    else:
        (a0, a1), (b0, b1) = g
        det = a0 * b1 - a1 * b0
        if abs(det) < 1e-14:
            return (0.0, 0.0), math.hypot(rx, ry)
        lam = ((rx * b1 - ry * b0) / det, (a0 * ry - a1 * rx) / det)
    res = (rx - sum(l * gj[0] for l, gj in zip(lam, g)),
           ry - sum(l * gj[1] for l, gj in zip(lam, g)))
    return lam, math.hypot(*res)


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
