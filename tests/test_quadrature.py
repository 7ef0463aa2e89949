import math

import numpy as np
import pytest

from patchdg.errors import DegenerateSimplex, OrderUnsupported
from patchdg.quadrature import MAX_ORDER, REF_MEASURE, face_rule, map_rule, simplex_rule


def exact_monomial(dim, alpha):
    """Closed form for the reference-simplex integral of prod x_d^alpha_d."""
    num = 1
    for a in alpha:
        num *= math.factorial(a)
    return num / math.factorial(sum(alpha) + dim)


def monomials_up_to(dim, order):
    if dim == 1:
        return [(a,) for a in range(order + 1)]
    if dim == 2:
        return [(a, b) for a in range(order + 1) for b in range(order + 1 - a)]
    return [
        (a, b, c)
        for a in range(order + 1)
        for b in range(order + 1 - a)
        for c in range(order + 1 - a - b)
    ]


class TestFrozenJacobi:
    def test_table_is_roots_jacobi(self):
        # every Gauss-Jacobi rule the conical products use, bit for bit
        from scipy.special import roots_jacobi

        from patchdg.quadrature import _JACOBI01, _jacobi01

        needed = {(1, (order + 2) // 2) for order in range(MAX_ORDER[2] + 1)}
        needed |= {(alpha, (order + 2) // 2) for alpha in (1, 2) for order in range(MAX_ORDER[3] + 1)}
        for alpha, (nodes, weights) in _JACOBI01.items():  # rules n = 1 .. top, nothing more
            top = max(n for a, n in needed if a == alpha)
            assert len(nodes) == len(weights) == top * (top + 1) // 2
        for alpha, n in needed:
            x, w = roots_jacobi(n, float(alpha), 0.0)
            nodes, weights = _jacobi01(n, alpha)
            assert np.array_equal(nodes, (x + 1.0) / 2.0), (alpha, n)
            assert np.array_equal(weights, w / 2.0 ** (alpha + 1)), (alpha, n)

    def test_package_import_skips_scipy_special(self):
        import subprocess
        import sys

        # scipy.sparse.csgraph (the RCM ordering) is imported by the factor
        code = ("import sys, patchdg.cli; "
                "print([m in sys.modules for m in ('scipy.special', 'scipy.sparse.csgraph')])")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[False, False]"


class TestSimplexRules:
    def test_centroid_rule(self):
        rule = simplex_rule(2, 1)
        assert len(rule.weights) == 1
        assert np.allclose(rule.points[0], [1 / 3, 1 / 3])
        assert abs(rule.weights[0] - 0.5) < 1e-15

    def test_gauss_cubic(self):
        rule = simplex_rule(1, 3)
        val = np.sum(rule.weights * rule.points[:, 0] ** 3)
        assert abs(val - 0.25) < 1e-15

    def test_monomial_x2y4(self):
        rule = simplex_rule(2, 6)
        val = np.sum(rule.weights * rule.points[:, 0] ** 2 * rule.points[:, 1] ** 4)
        exact = math.factorial(2) * math.factorial(4) / math.factorial(8)
        assert abs(val - exact) < 1e-15

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_exactness_sweep(self, dim):
        for order in range(MAX_ORDER[dim] + 1):
            rule = simplex_rule(dim, order)
            assert np.all(rule.weights > 0)
            assert abs(rule.weights.sum() - REF_MEASURE[dim]) < 1e-14
            for alpha in monomials_up_to(dim, order):
                val = float(np.sum(rule.weights * np.prod(rule.points ** alpha, axis=1)))
                exact = exact_monomial(dim, alpha)
                assert abs(val - exact) <= 1e-13 * max(abs(exact), 1e-30), (dim, order, alpha)

    def test_order_unsupported(self):
        with pytest.raises(OrderUnsupported):
            simplex_rule(2, 13)
        with pytest.raises(OrderUnsupported):
            simplex_rule(3, 9)
        with pytest.raises(OrderUnsupported):
            simplex_rule(1, 22)


class TestMappedRules:
    def test_identity_map(self):
        rule = simplex_rule(2, 4)
        ref = np.array([[0.0, 0], [1, 0], [0, 1]])
        pts, wts = map_rule(rule, ref)
        assert np.allclose(pts, rule.points)
        assert np.allclose(wts, rule.weights)

    def test_scaling(self):
        rule = simplex_rule(2, 2)
        pts, wts = map_rule(rule, np.array([[0.0, 0], [2, 0], [0, 2]]))
        assert np.allclose(wts, 4 * rule.weights)

    def test_linear_integral(self):
        rule = simplex_rule(2, 3)
        pts, wts = map_rule(rule, np.array([[0.0, 0], [2, 0], [0, 2]]))
        val = np.sum(wts * (pts[:, 0] + pts[:, 1]))
        assert abs(val - 8 / 3) < 1e-13

    def test_random_simplex_measures(self):
        rng = np.random.default_rng(7)
        for dim in (2, 3):
            rule = simplex_rule(dim, 2)
            for _ in range(20):
                simplex = rng.standard_normal((dim + 1, dim))
                vol = abs(np.linalg.det(simplex[1:] - simplex[0])) / math.factorial(dim)
                if vol < 1e-3:
                    continue
                _, wts = map_rule(rule, simplex)
                assert abs(wts.sum() - vol) < 1e-12 * max(vol, 1.0)

    def test_degenerate_rejected(self):
        rule = simplex_rule(2, 1)
        with pytest.raises(DegenerateSimplex):
            map_rule(rule, np.array([[0.0, 0], [1, 0], [2, 0]]))


class TestFaceRules:
    def test_midpoint_segment(self):
        pts, wts = face_rule(2, 1, np.array([[0.0, 0], [1, 0]]))
        assert abs(wts.sum() - 1.0) < 1e-14

    def test_segment_length(self):
        pts, wts = face_rule(2, 3, np.array([[0.0, 0], [3, 4]]))
        assert abs(wts.sum() - 5.0) < 1e-13

    def test_facet_area_3d(self):
        face = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 1]])
        area = 0.5 * np.linalg.norm(np.cross(face[1] - face[0], face[2] - face[0]))
        pts, wts = face_rule(3, 2, face)
        assert abs(wts.sum() - area) < 1e-13

    def test_face_gauss_exactness(self):
        # integrate x^3 along the segment (0,0)-(1,1)
        pts, wts = face_rule(2, 5, np.array([[0.0, 0], [1, 1]]))
        val = np.sum(wts * pts[:, 0] ** 3)
        assert abs(val - np.sqrt(2) / 4) < 1e-13
