"""The grid oracle itself: its column-pruned scan must reproduce a literal
double-loop grid minimum, and its refinement must reach the exact
projection optimum."""

import math

import numpy as np
import pytest

from _oracle import grid_min


def random_args(rng):
    lo = (rng.uniform(-3, -0.5), rng.uniform(-3, -0.5))
    hi = (rng.uniform(0.5, 3), rng.uniform(0.5, 3))
    u0 = (rng.uniform(lo[0] + 0.2, hi[0] - 0.2),
          rng.uniform(lo[1] + 0.2, hi[1] - 0.2))
    rows = []
    for _ in range(rng.integers(0, 3)):
        theta = rng.uniform(0, 2 * np.pi)
        scale = rng.uniform(0.5, 5.0)
        a = (scale * math.cos(theta), scale * math.sin(theta))
        margin = rng.uniform(0.05, 0.8)
        rows.append((a[0], a[1], a[0] * u0[0] + a[1] * u0[1] - scale * margin))
    u_nom = (rng.uniform(-4, 4), rng.uniform(-4, 4))
    return (u_nom[0], u_nom[1], rows, lo, hi)


def naive_grid_min(unx, uny, rows, lo, hi, n):
    """Reference double loop; the oracle's level 0 must reproduce it
    exactly."""
    best = (math.inf, 0.0, 0.0)
    for i in range(n):
        x = lo[0] + (hi[0] - lo[0]) * i / (n - 1)
        for j in range(n):
            y = lo[1] + (hi[1] - lo[1]) * j / (n - 1)
            if not all(a0 * x + a1 * y >= rhs - 1e-12 for a0, a1, rhs in rows):
                continue
            obj = (x - unx) ** 2 + (y - uny) ** 2
            if obj < best[0]:
                best = (obj, x, y)
    return best


def test_level_zero_matches_naive_scan():
    rng = np.random.default_rng(102)
    for _ in range(40):
        args = random_args(rng)
        found, obj, x, y = grid_min(*args, 41, 0)
        ref_obj, ref_x, ref_y = naive_grid_min(*args, 41)
        assert found == 1
        assert obj == pytest.approx(ref_obj, abs=1e-12)
        assert (x, y) == pytest.approx((ref_x, ref_y), abs=1e-12)


def test_near_axis_valley_refinement():
    # nearly axis-parallel rows create steep valleys; refinement must not
    # stall short of the projection optimum
    unx, uny = -2.5314523809137928, -1.636465652636634
    a = (0.9898195517498107, -0.019761607766851437)
    beta = 0.24076895147684668
    lo = (-1.4293360654182719, -2.5613132322448817)
    hi = (1.8030949053390875, 1.0511902904144714)
    norm2 = a[0] ** 2 + a[1] ** 2
    gap = beta - (a[0] * unx + a[1] * uny)
    exact = gap * gap / norm2
    found, obj, _, _ = grid_min(unx, uny, [(a[0], a[1], beta)], lo, hi)
    assert found
    assert abs(obj - exact) <= 1e-7 * (1 + exact)
