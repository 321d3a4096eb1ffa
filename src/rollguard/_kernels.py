"""Active-set solver for the safety-filter QP.

    minimize  (ux - unx)^2 + (uy - uny)^2
    s.t.      g0 * ux + g1 * uy >= rhs   for each (g0, g1, rhs) in cons

Pure Python, no numpy: the problem has two variables and at most six
constraints, so every candidate active set is solved in closed form.
"""

from __future__ import annotations

import math

BACKEND = "python"

_FEAS_TOL = 1e-9


def solve_active_set(unx, uny, cons):
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
