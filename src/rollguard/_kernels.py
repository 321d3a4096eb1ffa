"""Active-set solver for the safety-filter QP.

    minimize  (ux - unx)^2 + (uy - uny)^2
    s.t.      g0 * ux + g1 * uy >= rhs   for each (g0, g1, rhs) in cons

Pure Python, no numpy: the problem has two variables and at most six
constraints, so every candidate active set is solved in closed form.

The enumeration tests a candidate's feasibility only when its objective
would win, that is, beats the best feasible objective so far; a candidate
that cannot win leaves the result alone whether it is feasible or not, so
the outputs are those of testing every candidate. The objective stays
`(x - unx) ** 2 + (y - uny) ** 2`, not `dx * dx`: `**` goes through the C
library's pow(), which rounds some squares differently from a product
(glibc 2.36: about 9 in 10 000 doubles in [-10, 10]), and the outputs are
pinned bit for bit. `** 2` raises OverflowError past |d| ~ 1.34e154;
the exhaustive enumeration squared only finite, feasible candidates, so
an overflow is passed on for such a candidate and skipped for any other,
which could not have won.
"""

from __future__ import annotations

import math

BACKEND = "python"

_FEAS_TOL = 1e-9


def solve_active_set(unx, uny, cons):
    """Exact active-set enumeration. The nominal point is returned at once
    when it is finite and feasible (no candidate can beat objective 0);
    otherwise candidate order (size, then lexicographic) is the tie-break:
    the first feasible candidate with the strictly smallest objective wins.

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

    # g . u >= rhs - tol, with the right-hand side taken once
    tests = [(g0, g1, rhs - _FEAS_TOL) for g0, g1, rhs in cons]
    best_obj = math.inf
    best = None

    # the projection of u_nom onto each constraint
    for j, (g0, g1, rhs) in enumerate(cons):
        denom = g0 * g0 + g1 * g1
        if denom < 1e-24:
            continue
        s = (rhs - (g0 * unx + g1 * uny)) / denom
        x = unx + s * g0
        y = uny + s * g1
        try:
            obj = (x - unx) ** 2 + (y - uny) ** 2
        except OverflowError:
            if math.isfinite(x) and math.isfinite(y) and feasible(x, y):
                raise
            continue
        if obj < best_obj:
            for h0, h1, lim in tests:
                if h0 * x + h1 * y < lim:
                    break
            else:
                best_obj = obj
                best = (x, y, (j,))

    # the vertex of each pair of constraints
    norms = [math.hypot(g0, g1) for g0, g1, _ in cons]
    n = len(cons)
    for i in range(n):
        gi0, gi1, ri = cons[i]
        tol_i = 1e-10 * norms[i]
        for j in range(i + 1, n):
            gj0, gj1, rj = cons[j]
            det = gi0 * gj1 - gi1 * gj0
            if abs(det) < tol_i * norms[j]:
                continue
            x = (ri * gj1 - rj * gi1) / det
            y = (gi0 * rj - gj0 * ri) / det
            try:
                obj = (x - unx) ** 2 + (y - uny) ** 2
            except OverflowError:
                if math.isfinite(x) and math.isfinite(y) and feasible(x, y):
                    raise
                continue
            if obj < best_obj:
                for h0, h1, lim in tests:
                    if h0 * x + h1 * y < lim:
                        break
                else:
                    best_obj = obj
                    best = (x, y, (i, j))

    if best is None:
        return (unx, uny, 0, (), math.inf)
    return (best[0], best[1], 1, best[2], best_obj)
