import math
from fractions import Fraction

import numpy as np
import pytest

from patchdg.errors import DegenerateSimplex, OrderUnsupported
from patchdg.quadrature import (
    _SYMMETRIC,
    MAX_ORDER,
    REF_MEASURE,
    _expand_orbits,
    cheapest_rule,
    face_rule,
    map_rule,
    simplex_rule,
    symmetric_rule,
)


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

        # scipy.sparse.csgraph (the RCM ordering) is imported by the factor;
        # and no rule is built or expanded before a run asks for one
        code = ("import sys, patchdg.cli; from patchdg import quadrature as q; "
                "print([m in sys.modules for m in ('scipy.special', 'scipy.sparse.csgraph')], "
                "[f.cache_info().currsize for f in (q.simplex_rule, q.symmetric_rule, q.cheapest_rule)])")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[False, False] [0, 0, 0]"


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


#: the published rules to nine digits, in the table's orbit convention (name,
#: weight of each point, parameters): Dunavant (IJNME 21, 1985) on the
#: triangle, Keast (CMAME 55, 1986) on the tetrahedron
SEEDS = {
    (2, 2): (("S21", 1 / 6, 1 / 6),),
    (2, 4): (("S21", 0.111690795, 0.445948491), ("S21", 0.054975872, 0.091576214)),
    (2, 6): (("S21", 0.058393138, 0.249286745), ("S21", 0.025422453, 0.063089014),
             ("S111", 0.041425538, 0.053145050, 0.310352451)),
    (2, 8): (("S3", 0.072157804), ("S21", 0.047545817, 0.459292588),
             ("S21", 0.051608685, 0.170569308), ("S21", 0.016229249, 0.050547228),
             ("S111", 0.013615157, 0.008394777, 0.263112830)),
    (3, 2): (("S31", 1 / 24, (5 - math.sqrt(5)) / 20),),
    (3, 5): (("S31", 0.012248841, 0.092735250), ("S31", 0.018781321, 0.310885919),
             ("S22", 0.007091003, 0.045503704)),
    (3, 6): (("S31", 0.006653792, 0.214602871), ("S31", 0.001679535, 0.040673959),
             ("S31", 0.009226197, 0.322337890), ("S211", 0.008035714, 0.063661002, 0.269672331)),
}
TABULATED = [(dim, degree) for dim in _SYMMETRIC for degree in _SYMMETRIC[dim]]


def with_values(orbits, x):
    """``orbits`` with their weights and parameters replaced, in order, by ``x``."""
    out, i = [], 0
    for name, *values in orbits:
        out.append((name, *x[i:i + len(values)]))
        i += len(values)
    return out


def moments(dim, degree, orbits, exact_sum=False):
    """Each monomial's integral by the expanded rule over its exact one, minus
    one; with ``exact_sum`` the double points and weights are summed as
    rationals, so only the rule's own error remains."""
    pts, wts = _expand_orbits(orbits)
    out = []
    for alpha in monomials_up_to(dim, degree):
        exact = Fraction(math.prod(map(math.factorial, alpha)), math.factorial(sum(alpha) + dim))
        if exact_sum:
            value = sum(Fraction(float(w)) * math.prod(Fraction(float(x)) ** a for x, a in zip(p, alpha))
                        for p, w in zip(pts, wts))
            out.append(float(value / exact - 1))
        else:
            out.append(np.sum(wts * np.prod(pts ** np.array(alpha), axis=1)) / float(exact) - 1)
    return np.array(out)


class TestSymmetricRules:
    @pytest.mark.parametrize("dim, degree", TABULATED)
    def test_exact_to_its_degree(self, dim, degree):
        rule = symmetric_rule(dim, degree)
        assert (rule.dim, rule.order) == (dim, degree)
        assert len(rule.weights) == {(2, 2): 3, (2, 4): 6, (2, 6): 12, (2, 8): 16,
                                     (3, 2): 4, (3, 5): 14, (3, 6): 24}[dim, degree]
        for alpha in monomials_up_to(dim, degree):
            val = float(np.sum(rule.weights * np.prod(rule.points ** alpha, axis=1)))
            exact = exact_monomial(dim, alpha)
            assert abs(val - exact) <= 1e-15 * exact, (dim, degree, alpha)

    @pytest.mark.parametrize("dim, degree", TABULATED)
    def test_positive_weights_interior_points(self, dim, degree):
        rule = symmetric_rule(dim, degree)
        assert np.all(rule.weights > 0)
        assert np.all(rule.points > 0) and np.all(rule.points.sum(axis=1) < 1)
        assert len(np.unique(rule.points, axis=0)) == len(rule.points)

    @pytest.mark.parametrize("dim, degree", TABULATED)
    def test_newton_from_the_published_digits_reproduces_the_table(self, dim, degree):
        # Newton on the orbit moment equations: exact residuals, and a
        # complex-step Jacobian through the same orbit expansion
        seed = SEEDS[dim, degree]
        x = np.array([v for _, *values in seed for v in values])
        for _ in range(6):
            r = moments(dim, degree, with_values(seed, x), exact_sum=True)
            J = np.empty((len(r), len(x)))
            for j in range(len(x)):
                step = x.astype(complex)
                step[j] += 1e-30j
                J[:, j] = moments(dim, degree, with_values(seed, step)).imag / 1e-30
            x = x - np.linalg.lstsq(J, r, rcond=None)[0]
        table = _SYMMETRIC[dim][degree]
        assert [name for name, *_ in table] == [name for name, *_ in seed]
        assert np.max(np.abs(x - [v for _, *values in table for v in values])) <= 1e-15
        assert np.max(np.abs(moments(dim, degree, table, exact_sum=True))) <= 1e-15

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_cheapest_rule_is_exact_with_the_fewest_points(self, dim):
        for degree in range(MAX_ORDER[dim] + 1):
            rule = cheapest_rule(dim, degree)
            tabulated = [symmetric_rule(dim, d) for d in _SYMMETRIC.get(dim, ()) if d >= degree]
            assert rule.order >= degree
            assert len(rule.weights) == min(len(r.weights) for r in [simplex_rule(dim, degree), *tabulated])
            if rule.order > degree or degree in _SYMMETRIC.get(dim, ()):
                assert any(rule is r for r in tabulated)
        assert cheapest_rule(2, 0) is simplex_rule(2, 0) and len(cheapest_rule(3, 0).weights) == 1
        assert cheapest_rule(3, 8) is simplex_rule(3, 8)  # past the table: the conical product
        with pytest.raises(OrderUnsupported):
            cheapest_rule(3, 9)


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
        pts, wts = face_rule(simplex_rule(1, 1), np.array([[0.0, 0], [1, 0]]))
        assert abs(wts.sum() - 1.0) < 1e-14

    def test_segment_length(self):
        pts, wts = face_rule(simplex_rule(1, 3), np.array([[0.0, 0], [3, 4]]))
        assert abs(wts.sum() - 5.0) < 1e-13

    def test_facet_area_3d(self):
        face = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 1]])
        area = 0.5 * np.linalg.norm(np.cross(face[1] - face[0], face[2] - face[0]))
        pts, wts = face_rule(simplex_rule(2, 2), face)
        assert abs(wts.sum() - area) < 1e-13

    def test_face_gauss_exactness(self):
        # integrate x^3 along the segment (0,0)-(1,1)
        pts, wts = face_rule(simplex_rule(1, 5), np.array([[0.0, 0], [1, 1]]))
        val = np.sum(wts * pts[:, 0] ** 3)
        assert abs(val - np.sqrt(2) / 4) < 1e-13
