"""Safety-filter quadratic program in the two commanded inputs.

    minimize  || u - u_nom ||^2
    s.t.      a_i . u >= beta_i   (constraint rows, at most two)
              lo <= u <= hi

The one core, `solve_rows`, takes the rows as (g0, g1, rhs) tuples and
the box as its four faces (`box_faces`), and hands them to the one
solver, `_kernels.solve_active_set`. With two variables and at most six
inequalities the solver enumerates the candidate active sets exactly, so
every solve is closed-form and deterministic, and it returns at once when
u_nom is already feasible. Otherwise it tests a candidate's feasibility
only when the candidate's objective would win, and it keeps the objective
as `** 2`, which rounds differently from `d * d` for some doubles, so the
outputs are the exhaustive enumeration's bit for bit (see `_kernels`).
Infeasible problems never raise: they fall through to a best-effort
relaxation that maximizes the worst row slack over the box, and the
caller logs a safety-degradation event.

`solve(QpProblem)` wraps the core with the degenerate-row policy
(`split_rows`) and, on an optimal solve, the multipliers of the active
set and the stationarity residual. `harness.filter_step` calls the core
directly and computes no multipliers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from . import _kernels
from .barrier import ConstraintRow
from .errors import DomainError

FACE_LABELS = ("u_v_min", "u_v_max", "u_omega_min", "u_omega_max")
DEGENERATE_NORM = 1e-12


class DegenerateRowWarning(UserWarning):
    """A constraint row with a near-zero coefficient vector was dropped.
    Routine while the robot is at rest (both row coefficients vanish with
    v = omega = 0); filter with warnings.simplefilter if undesired."""


def check_terms(values) -> None:
    """DomainError unless every value is finite; for a sum of `values`
    that is not, since finite values whose sum overflows pass."""
    if not all(map(math.isfinite, values)):
        raise DomainError("non-finite nominal input or constraint row")


@dataclass(frozen=True)
class QpProblem:
    u_nom: tuple[float, float]
    rows: tuple[ConstraintRow, ...]
    lower: tuple[float, float]
    upper: tuple[float, float]

    def __post_init__(self):
        if len(self.rows) > 2:
            raise DomainError("at most two constraint rows are supported")
        # one isfinite of the sum, and of each term only when it is not
        total = self.u_nom[0] + self.u_nom[1]
        for row in self.rows:
            total += row.a[0] + row.a[1] + row.beta
        if not math.isfinite(total):
            check_terms((*self.u_nom, *(x for row in self.rows
                                        for x in (*row.a, row.beta))))
        if not (self.lower[0] <= self.upper[0] and self.lower[1] <= self.upper[1]):
            raise DomainError("input box is empty")


@dataclass(frozen=True)
class QpSolution:
    u: tuple[float, float]
    status: str                      # "optimal" | "infeasible_relaxed"
    active: tuple[str, ...]          # labels of binding constraints
    slack_used: float                # worst residual accepted by relaxation
    objective: float
    kkt_residual: float | None
    multipliers: tuple[float, ...]


def box_faces(lower, upper) -> tuple:
    """The input box as (g0, g1, rhs) rows, in FACE_LABELS order."""
    return ((1.0, 0.0, lower[0]), (-1.0, 0.0, -upper[0]),
            (0.0, 1.0, lower[1]), (0.0, -1.0, -upper[1]))


def split_rows(rows, labels):
    """Degenerate-row policy: near-zero coefficient rows are vacuous when
    rhs <= 0 (dropped with a warning) and unsatisfiable when rhs > 0.
    Returns the kept rows, their labels and the largest unsatisfiable rhs."""
    keep = []
    kept = []
    forced = 0.0
    for row, label in zip(rows, labels):
        if math.hypot(row[0], row[1]) < DEGENERATE_NORM:
            if row[2] > 0.0:
                forced = max(forced, row[2])
            else:
                warnings.warn(f"dropping vacuous degenerate row {label!r}",
                              DegenerateRowWarning)
        else:
            keep.append(row)
            kept.append(label)
    return tuple(keep), tuple(kept), forced


def _multipliers(u, u_nom, active, cons):
    """Multipliers of the active set from stationarity
    2 (u - u_nom) = sum lambda_j g_j, plus the residual norm."""
    rx = 2.0 * (u[0] - u_nom[0])
    ry = 2.0 * (u[1] - u_nom[1])
    if not active:
        return (), math.hypot(rx, ry)
    if len(active) == 1:
        g0, g1, _ = cons[active[0]]
        lam = (rx * g0 + ry * g1) / (g0 * g0 + g1 * g1)
        return (lam,), math.hypot(rx - lam * g0, ry - lam * g1)
    a0, a1, _ = cons[active[0]]
    b0, b1, _ = cons[active[1]]
    det = a0 * b1 - a1 * b0
    if abs(det) < 1e-14:
        return (0.0, 0.0), math.hypot(rx, ry)
    lam_a = (rx * b1 - ry * b0) / det
    lam_b = (a0 * ry - a1 * rx) / det
    return (lam_a, lam_b), math.hypot(rx - (lam_a * a0 + lam_b * b0),
                                      ry - (lam_a * a1 + lam_b * b1))


def solve_rows(unx: float, uny: float, rows: tuple, faces: tuple,
               forced: float = 0.0):
    """The QP of finite rows kept by `split_rows`, with its `forced` rhs:
    (u, status, active, slack, objective), `active` indexing rows + faces.
    A problem whose distances overflow the float range raises DomainError."""
    try:
        if forced == 0.0:
            ux, uy, found, active, obj = _kernels.solve_active_set(
                unx, uny, rows + faces)
            if found:
                return (ux, uy), "optimal", active, 0.0, obj
        return _relax(unx, uny, rows, faces, forced)
    except OverflowError as exc:
        raise DomainError(f"the QP overflows the float range: {exc}") from exc


def solve(problem: QpProblem) -> QpSolution:
    """Solve the filter QP. When the rows and the box are incompatible, or
    a degenerate row cannot be met, return the best-effort input instead:
    the one that maximizes the minimum row slack over the box. A problem
    whose distances overflow the float range raises DomainError."""
    rows, labels, forced = split_rows(
        [(row.a[0], row.a[1], row.beta) for row in problem.rows],
        [row.label for row in problem.rows])
    faces = box_faces(problem.lower, problem.upper)
    u, status, active, slack, obj = solve_rows(
        problem.u_nom[0], problem.u_nom[1], rows, faces, forced)
    lam, res = (((), None) if status != "optimal" else
                _multipliers(u, problem.u_nom, active, rows + faces))
    labels += FACE_LABELS
    return QpSolution(u=u, status=status, active=tuple(labels[j] for j in active),
                      slack_used=slack, objective=obj, kkt_residual=res,
                      multipliers=lam)


def _relax(unx, uny, rows, faces, forced: float):
    """The box point that maximizes the minimum row slack."""
    lo = (faces[0][2], faces[2][2])
    hi = (-faces[1][2], -faces[3][2])

    def clamp(val, a, b):
        return min(max(val, a), b)

    if not rows:
        u = (clamp(unx, lo[0], hi[0]), clamp(uny, lo[1], hi[1]))
        return (u, "infeasible_relaxed", (), forced,
                (u[0] - unx) ** 2 + (u[1] - uny) ** 2)

    def min_slack(x, y):
        return min(g0 * x + g1 * y - rhs for g0, g1, rhs in rows)

    candidates = [(lo[0], lo[1]), (lo[0], hi[1]), (hi[0], lo[1]), (hi[0], hi[1]),
                  # face projections of u_nom: break ties with the least
                  # deviation when a whole face maximizes the slack
                  (clamp(unx, lo[0], hi[0]), lo[1]),
                  (clamp(unx, lo[0], hi[0]), hi[1]),
                  (lo[0], clamp(uny, lo[1], hi[1])),
                  (hi[0], clamp(uny, lo[1], hi[1]))]
    if len(rows) == 2:
        # the max-min can also sit where the two slacks equalize
        (p, q, beta_p), (r, s, beta_r) = rows
        d0, d1 = p - r, q - s
        c = beta_p - beta_r
        for x in (lo[0], hi[0]):
            if abs(d1) > 1e-14:
                y = (c - d0 * x) / d1
                if lo[1] - 1e-12 <= y <= hi[1] + 1e-12:
                    candidates.append((x, clamp(y, lo[1], hi[1])))
        for y in (lo[1], hi[1]):
            if abs(d0) > 1e-14:
                x = (c - d1 * y) / d0
                if lo[0] - 1e-12 <= x <= hi[0] + 1e-12:
                    candidates.append((clamp(x, lo[0], hi[0]), y))
        den = d0 * d0 + d1 * d1
        if den > 1e-28:
            s_eq = (c - d0 * unx - d1 * uny) / den
            candidates.append((clamp(unx + s_eq * d0, lo[0], hi[0]),
                               clamp(uny + s_eq * d1, lo[1], hi[1])))

    best = max(candidates,
               key=lambda u: (min_slack(*u),
                              -((u[0] - unx) ** 2 + (u[1] - uny) ** 2),
                              (-u[0], -u[1])))
    slack = min_slack(*best)
    worst = max(0.0, -slack, forced)
    active = tuple(j for j, (g0, g1, rhs) in enumerate(rows)
                   if g0 * best[0] + g1 * best[1] - rhs <= slack + 1e-9)
    return (best, "infeasible_relaxed", active, worst,
            (best[0] - unx) ** 2 + (best[1] - uny) ** 2)
