import numpy as np
import pytest

from patchdg.errors import RankDeficient
from patchdg.mesh import build_topology, generate_cube_tet, generate_square_tri, parse_poly
from patchdg.patch import Patch
from patchdg.quadrature import MAX_ORDER
from patchdg.reconstruction import (
    _table_operators,
    build_space,
    fit_local,
    interpolate,
    monomial_basis,
    tabulate,
    vandermonde,
)


def mock_patch(nodes, center=0):
    nodes = np.asarray(nodes, dtype=float)
    diff = nodes[:, None, :] - nodes[None, :, :]
    diam = float(np.sqrt((diff ** 2).sum(-1)).max())
    return Patch(center, list(range(len(nodes))), nodes, diam)


def fitted_values(fit, m, pts):
    """(n_pts, t) shape-function values of one fit_local result."""
    coeffs, origin, scale = fit
    pts = np.asarray(pts, dtype=float)
    return tabulate(coeffs[None], origin[None], np.array([scale]), pts[None], m)["val"][0]


class TestMonomialBasis:
    def test_sizes(self):
        assert len(monomial_basis(3, 2)) == 10
        assert len(monomial_basis(2, 3)) == 10
        assert len(monomial_basis(5, 2)) == 21

    def test_graded_lex_order_2d(self):
        exps = [tuple(e) for e in monomial_basis(2, 2).exponents]
        assert exps == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def test_graded_lex_order_3d(self):
        exps = [tuple(e) for e in monomial_basis(1, 3).exponents]
        assert exps == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


def reference_vandermonde(basis, points):
    """The kernel's earlier Vandermonde: every power, 0 and 1 included,
    through one broadcast ``pow``."""
    powers = np.asarray(points, dtype=float)[..., None] ** np.arange(basis.m + 1)
    V = powers[..., 0, basis.exponents[:, 0]]
    for d in range(1, basis.dim):
        V = V * powers[..., d, basis.exponents[:, d]]
    return V


def reference_tabulate(coeffs, origin, scale, points, m, kind):
    """The kernel's earlier table: the values through the identity map and
    every table divided by ``scale ** power``, power 0 included."""
    dim = origin.shape[1]
    basis = monomial_basis(m, dim)
    y = (points - origin[:, None, :]) / scale[:, None, None]
    V = reference_vandermonde(basis, y)[:, None]
    C = coeffs.transpose(0, 2, 1)[:, None]
    ops, power = _table_operators(m, dim)[kind]
    if kind == "val":
        ops = np.eye(len(basis))[None]
    T = np.moveaxis((V @ ops) @ C, 1, -1) / scale[:, None, None, None] ** power
    return T[..., 0] if kind in ("val", "lap") else T


class TestKernelBits:
    """The kernel skips only arithmetic whose result is known exactly, so it
    must reproduce the earlier formulas bit for bit."""

    @pytest.mark.parametrize("m, dim", [(m, dim) for dim in (1, 2, 3) for m in range(7)
                                        if 2 * m <= MAX_ORDER[dim]])
    def test_vandermonde(self, m, dim):
        rng = np.random.default_rng(10 * m + dim)
        y = rng.uniform(-1.5, 1.5, (6, 9, dim))
        y.reshape(-1)[:5] = [0.0, -0.0, 1.0, -1.0, -0.5]
        basis = monomial_basis(m, dim)
        assert np.array_equal(vandermonde(basis, y), reference_vandermonde(basis, y))

    @pytest.mark.parametrize("mesh_spec, m", [("square:8", 2), ("square:8", 3), ("cube:2", 2)])
    def test_tabulate(self, mesh_spec, m):
        kind, n = mesh_spec.split(":")
        mesh = (generate_square_tri if kind == "square" else generate_cube_tet)(int(n))
        space = build_space(mesh, build_topology(mesh), m)
        barycenters = space.geometry.barycenters
        for s, (_, coeffs) in space.tables.items():
            elements = np.nonzero(space.size == s)[0]
            # each element's vertices and barycenter, and points outside it
            points = np.concatenate([mesh.vertices[np.array(mesh.elements)[elements]],
                                     barycenters[elements, None],
                                     barycenters[elements, None] + 0.3], axis=1)
            args = (coeffs[space.row[elements]], space.origin[elements],
                    space.scale[elements], points, m)
            kinds = ("val", "grad", "lap", "gradlap")
            tables = tabulate(*args, kinds)
            for kind in kinds:
                ref = reference_tabulate(*args, kind)
                assert np.array_equal(tables[kind], ref), (s, kind)
                assert tables[kind].strides == ref.strides, (s, kind)


class TestFitLocal:
    def test_worked_3d_example(self):
        # five nodes, degree 1 in 3D: the coefficient table in an unscaled
        # frame is exactly the transposed pseudoinverse (A^T A)^-1 A^T
        rng = np.random.default_rng(3)
        nodes = np.vstack([[0.0, 0, 0], rng.standard_normal((4, 3))])
        patch = mock_patch(nodes)
        patch.diameter = 1.0  # unscaled frame, origin at node 0
        coeffs, _, _ = fit_local(patch, 1)
        A = np.column_stack([np.ones(5), nodes])
        pinv = np.linalg.inv(A.T @ A) @ A.T
        assert np.allclose(coeffs, pinv.T, atol=1e-10)

    def test_worked_3d_example_any_frame(self):
        # the fitted shape functions do not depend on the scaling frame
        rng = np.random.default_rng(4)
        nodes = rng.standard_normal((5, 3))
        patch = mock_patch(nodes)
        fit = fit_local(patch, 1)
        A = np.column_stack([np.ones(5), nodes])
        pinv = np.linalg.inv(A.T @ A) @ A.T
        pts = rng.standard_normal((6, 3))
        ours = fitted_values(fit, 1, pts)
        raw = np.column_stack([np.ones(6), pts]) @ pinv
        assert np.allclose(ours, raw, atol=1e-9)

    def test_square_system_interpolates(self):
        nodes = np.array([[0.0, 0], [1, 0], [0, 1]])
        vals = fitted_values(fit_local(mock_patch(nodes), 1), 1, nodes)
        assert np.allclose(vals, np.eye(3), atol=1e-12)

    def test_plane_fit_recovers_x(self):
        # data already in P^1, so the least-squares fit is exact
        nodes = np.array([[0.0, 0], [1, 0], [0, 1], [1, 1]])
        fit = fit_local(mock_patch(nodes), 1)
        data = np.array([0.0, 1.0, 0.0, 1.0])  # samples of q(x, y) = x
        rng = np.random.default_rng(0)
        pts = rng.random((10, 2))
        fitted = fitted_values(fit, 1, pts) @ data
        assert np.allclose(fitted, pts[:, 0], atol=1e-12)

    def test_rank_deficient(self):
        nodes = np.array([[0.0, 0], [1, 0], [2, 0]])
        with pytest.raises(RankDeficient):
            fit_local(mock_patch(nodes), 1)

    def test_too_few_nodes(self):
        nodes = np.array([[0.0, 0], [1, 0]])
        with pytest.raises(RankDeficient):
            fit_local(mock_patch(nodes), 1)


@pytest.fixture(scope="module")
def space():
    mesh = generate_square_tri(4)
    return build_space(mesh, build_topology(mesh), 2)


class TestEvalShape:
    def test_partition_of_unity(self, space):
        rng = np.random.default_rng(1)
        for K in (0, 7, 31):
            pts = rng.random((20, 2)) * np.pi
            _, T = space.shape_tables([K], pts[None], ("val", "grad"))
            assert np.max(np.abs(T["val"][0].sum(axis=1) - 1.0)) < 1e-12
            assert np.max(np.abs(T["grad"][0].sum(axis=1))) < 1e-10

    def test_linear_gradient(self, space):
        data = interpolate(space, lambda x, y: 2 * x + 3 * y)
        rng = np.random.default_rng(2)
        for K in (3, 12):
            pts = rng.random((5, 2))
            grad = space.evaluate(data, K, pts, deriv=1)
            assert np.allclose(grad, [2.0, 3.0], atol=1e-9)

    def test_grad_laplacian_of_cubic(self):
        mesh = generate_square_tri(4)
        space = build_space(mesh, build_topology(mesh), 3)
        data = interpolate(space, lambda x, y: x ** 3 + x * y ** 2)  # grad Lap = (8, 0)
        pts = np.random.default_rng(3).random((1, 4, 2))
        for K in (2, 21):
            ids, T = space.shape_tables([K], pts, ("gradlap",))
            grad_lap = np.einsum("bqsd,bs->bqd", T["gradlap"], data[ids])
            assert np.allclose(grad_lap, [8.0, 0.0], atol=1e-6)

    def test_laplacian_of_quadratic(self, space):
        data = interpolate(space, lambda x, y: x ** 2 + y ** 2)
        for K in (0, 17):
            lap = space.evaluate(data, K, space.patches[K].nodes[:1], deriv=2)
            assert np.allclose(lap, 4.0, atol=1e-8)


class TestPolynomialReproduction:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_2d(self, m):
        mesh = generate_square_tri(4)
        space = build_space(mesh, build_topology(mesh), m)
        basis = monomial_basis(m, 2)
        rng = np.random.default_rng(m)
        coef = rng.standard_normal(len(basis))

        def q(x, y):
            return sum(c * x ** a * y ** b for c, (a, b) in zip(coef, basis.exponents))

        data = interpolate(space, q)
        worst = 0.0
        scale = 0.0
        for K in range(mesh.num_elements):
            pts = mesh.element_coords(K)
            vals = space.evaluate(data, K, pts)
            exact = np.array([q(*p) for p in pts])
            worst = max(worst, np.max(np.abs(vals - exact)))
            scale = max(scale, np.max(np.abs(exact)))
        assert worst <= 1e-9 * max(scale, 1.0)

    def test_constant(self):
        mesh = generate_cube_tet(2)
        space = build_space(mesh, build_topology(mesh), 1)
        data = interpolate(space, lambda x, y, z: 1.0)
        assert np.allclose(data, 1.0)
        vals = space.evaluate(data, 5, space.patches[5].nodes)
        assert np.allclose(vals, 1.0, atol=1e-12)


class TestBuildSpace:
    def test_piecewise_constant(self):
        mesh = generate_square_tri(2)
        space = build_space(mesh, build_topology(mesh), 0, t=1)
        # characteristic functions: identity support map
        assert all(space.support[j] == [j] for j in range(mesh.num_elements))
        _, T = space.shape_tables([3], np.array([[[0.1, 0.2]]]))
        assert np.allclose(T["val"], 1.0)

    def test_support_map_consistency(self):
        mesh = generate_square_tri(4)
        space = build_space(mesh, build_topology(mesh), 1, t=5)
        # double enumeration: j in members(K) <=> K in support[j]
        for K in range(mesh.num_elements):
            for j in space.members(K):
                assert K in space.support[j]
        for j in range(mesh.num_elements):
            for K in space.support[j]:
                assert j in space.members(K)
        sizes = [len(s) for s in space.support]
        assert min(sizes) >= 1
        assert max(sizes) <= 12

    def test_determinism_bitwise(self):
        mesh = generate_square_tri(3)
        a = build_space(mesh, build_topology(mesh), 2)
        b = build_space(mesh, build_topology(mesh), 2)
        assert a.tables.keys() == b.tables.keys()
        for s in a.tables:
            assert np.array_equal(a.tables[s][0], b.tables[s][0])
            assert np.array_equal(a.tables[s][1], b.tables[s][1])

    def test_rank_retry_via_ring_growth(self):
        # a 3x2 grid of tall rectangles: the three nearest sampling nodes of
        # a bottom-row cell are collinear, so the first fit fails and the
        # patch must grow a neighbor ring
        verts, lines = [], []
        for y in (0, 2, 4):
            for x in (0, 1, 2, 3):
                verts.append((x, y))
        lines.append(f"{len(verts)} 6")
        lines += [f"{x} {y}" for x, y in verts]
        for j in range(2):
            for i in range(3):
                v = j * 4 + i
                lines.append(f"4 {v} {v+1} {v+5} {v+4}")
        mesh = parse_poly("\n".join(lines) + "\n")
        topo = build_topology(mesh)
        space = build_space(mesh, topo, 1, t=3)
        assert space.patches[1].size > 3  # grew beyond the collinear triple
        data = interpolate(space, lambda x, y: x + 2 * y)
        pts = np.array([[1.3, 1.1]])
        assert np.allclose(space.evaluate(data, 1, pts), [1.3 + 2.2], atol=1e-9)

    def test_rank_retry_exhausts(self):
        # a 1xN strip of rectangles keeps every sampling node on one line,
        # so degree-1 fits can never become unisolvent
        verts, lines = [], []
        for y in (0, 1):
            for x in range(5):
                verts.append((x, y))
        lines.append(f"{len(verts)} 4")
        lines += [f"{x} {y}" for x, y in verts]
        for i in range(4):
            lines.append(f"4 {i} {i+1} {i+6} {i+5}")
        mesh = parse_poly("\n".join(lines) + "\n")
        topo = build_topology(mesh)
        with pytest.raises(RankDeficient):
            build_space(mesh, topo, 1, t=3)

    def test_coefficient_dump(self, tmp_path):
        mesh = generate_square_tri(2)
        space = build_space(mesh, build_topology(mesh), 1)
        path = tmp_path / "coeffs.csv"
        space.dump_coefficients_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "element,node,exponents,coefficient"
        assert len(lines) == 1 + mesh.num_elements * space.t * 3
