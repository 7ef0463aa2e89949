import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from patchdg.errors import PatchExhausted, RankDeficient
from patchdg.mesh import build_topology, generate_cube_tet, generate_square_tri, parse_poly
from patchdg.patch import Patches
from patchdg.quadrature import MAX_ORDER
from patchdg.reconstruction import (
    _table_operators,
    build_space,
    contract,
    factors,
    fit_local,
    interpolate,
    monomial_basis,
    vandermonde,
)

KINDS = ("val", "grad", "lap", "gradlap")


def mock_patch(nodes, center=0):
    nodes = np.asarray(nodes, dtype=float)
    diff = nodes[:, None, :] - nodes[None, :, :]
    diam = float(np.sqrt((diff ** 2).sum(-1)).max())
    return Patches(np.array([center]), np.arange(len(nodes))[None], nodes[None], np.array([diam]))


def fitted_values(fit, m, pts):
    """(n_pts, t) shape-function values of a fit_local result for a batch of one."""
    coeffs, origin, scale, ok = fit
    assert ok.all()
    V, _ = factors(origin[:, None], scale[:, None], np.asarray(pts, dtype=float)[None], m, ())
    return contract(V, None, 0, scale[:, None], coeffs.transpose(0, 2, 1)[:, None])[0, 0]


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

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_per_dimension_loops(self, dim):
        # the enumeration written out once per dimension, degree by degree
        for m in range(9):
            exps = []
            for deg in range(m + 1):
                if dim == 1:
                    exps.append((deg,))
                elif dim == 2:
                    exps += [(i, deg - i) for i in range(deg, -1, -1)]
                else:
                    exps += [(i, j, deg - i - j)
                             for i in range(deg, -1, -1) for j in range(deg - i, -1, -1)]
            index = {e: i for i, e in enumerate(exps)}
            steps = []
            for e in exps[1:]:
                d = max(i for i, a in enumerate(e) if a)
                steps.append((index[e[:d] + (e[d] - 1,) + e[d + 1:]], d))
            basis = monomial_basis(m, dim)
            assert np.array_equal(basis.exponents, np.array(exps, dtype=int)), m
            assert basis.steps == tuple(steps), m


def reference_vandermonde(basis, points):
    """Every monomial of every point as a scalar loop over Python floats:
    1.0 times y_0 alpha_0 times, then y_1 alpha_1 times, then y_2 (the
    kernel's recurrence order)."""
    y = np.asarray(points, dtype=float)
    flat = y.reshape(-1, basis.dim)
    V = np.empty((len(flat), len(basis)))
    for i, point in enumerate(flat.tolist()):
        for j, e in enumerate(basis.exponents.tolist()):
            v = 1.0
            for d, a in enumerate(e):
                for _ in range(a):
                    v *= point[d]
            V[i, j] = v
    return V.reshape(y.shape[:-1] + (len(basis),))


def reference_tabulate(coeffs, origin, scale, points, m, kind):
    """The kernel's table with nothing skipped: the values through the
    identity map and every table divided by the scale power, power 0
    included, with the powers built as products."""
    dim = origin.shape[1]
    basis = monomial_basis(m, dim)
    y = (points - origin[:, None, :]) / scale[:, None, None]
    V = reference_vandermonde(basis, y)[:, None]
    C = coeffs.transpose(0, 2, 1)[:, None]
    ops, power = _table_operators(m, dim)[kind]
    if kind == "val":
        ops = np.eye(len(basis))[None]
    scale_power = np.ones_like(scale)
    for _ in range(power):
        scale_power = scale_power * scale
    T = np.moveaxis((V @ ops) @ C, 1, -1) / scale_power[:, None, None, None]
    return T[..., 0] if kind in ("val", "lap") else T


def relative(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), np.finfo(float).tiny)


def mesh_space(spec, m):
    kind, n = spec.split(":")
    mesh = (generate_square_tri if kind == "square" else generate_cube_tet)(int(n))
    return build_space(mesh, build_topology(mesh), m)


def patch_tables(space):
    """{s: (elements, coeffs (G, s, n_terms))}: R's element blocks, grouped
    by patch size."""
    sizes = np.diff(space.R.indptr)
    tables = {}
    for s in np.unique(sizes):
        elements = np.nonzero(sizes == s)[0]
        blocks = space.R.indptr[elements][:, None] + np.arange(s)
        tables[int(s)] = (elements, space.R.data[blocks, :, 0])
    return tables


class TestKernelBits:
    """The kernel builds every monomial and scale power from exact products
    and skips only arithmetic whose result is known exactly, so it must
    reproduce a plain product loop bit for bit."""

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
        # the kernel's table of every kind (the reference contracts it with
        # the identity), and the values of every patch size's coefficient
        # tables, where nothing stands between V and the coefficients
        space = mesh_space(mesh_spec, m)
        mesh, barycenters, nt = space.mesh, space.geometry.barycenters, space.n_terms
        for s, (elements, coeffs) in patch_tables(space).items():
            # each element's vertices and barycenter, and points outside it
            points = np.concatenate([mesh.vertices[mesh.elements[elements]],
                                     barycenters[elements, None],
                                     barycenters[elements, None] + 0.3], axis=1)
            origin, scale = space.origin[elements], space.scale[elements]
            V, ops = factors(origin[:, None], scale[:, None], points, m, KINDS)
            monomials = np.broadcast_to(np.eye(nt), (len(elements), nt, nt))
            for kind in KINDS:
                ref = reference_tabulate(monomials, origin, scale, points, m, kind)
                if kind not in ops:  # identically zero at this degree
                    assert not ref.any(), (s, kind)
                    continue
                T = np.moveaxis(contract(V, *ops[kind], scale[:, None]), 1, -1)
                assert np.array_equal(T.reshape(ref.shape), ref), (s, kind)
            values = contract(V, None, 0, scale[:, None], coeffs.transpose(0, 2, 1)[:, None])
            ref = reference_tabulate(coeffs, origin, scale, points, m, "val")
            assert np.array_equal(values[:, 0], ref), s

    @pytest.mark.parametrize("mesh_spec, m", [("square:8", 2), ("square:8", 3), ("cube:2", 2)])
    def test_evaluate(self, mesh_spec, m):
        # the values the VTK export prints, at every element's vertices, are
        # the reference's bits; derivatives apply the operator to the
        # coefficients first, so they agree to rounding
        space = mesh_space(mesh_spec, m)
        mesh, n = space.mesh, space.num_dofs
        x = np.random.default_rng(m).standard_normal(n)
        points = mesh.vertices[mesh.elements]
        frame = (space.origin, space.scale, points, m)
        C = space.coefficients(x[:, None])
        values = space.evaluate(x, np.arange(n), points)
        assert np.array_equal(values, reference_tabulate(C, *frame, "val")[..., 0])
        for deriv, kind in ((1, "grad"), (2, "lap")):
            ref = reference_tabulate(C, *frame, kind)[:, :, 0]
            assert relative(space.evaluate(x, np.arange(n), points, deriv), ref) <= 1e-13, kind

    @pytest.mark.parametrize("mesh_spec, m", [("cube:2", 2), ("cube:4", 3)])
    def test_element_rows_are_rows_of_r_x(self, mesh_spec, m):
        # an evaluation on some elements, unsorted and repeated, gives the
        # same bits as their rows of the evaluation on every element; so
        # does a single-element evaluation against the batched one
        space = mesh_space(mesh_spec, m)
        sizes = np.diff(space.R.indptr)
        if mesh_spec == "cube:2":
            assert len(np.unique(sizes)) == 2
        n = space.num_dofs
        rng = np.random.default_rng(m)
        x = rng.standard_normal(n)
        elements = np.r_[rng.permutation(n)[:40], 7, 0, 7, n - 1]
        everywhere = rng.standard_normal((n, 5, 3)) * space.scale[:, None, None]
        everywhere += space.origin[:, None]
        points = everywhere[elements]
        for deriv in (0, 1, 2):
            batched = space.evaluate(x, elements, points, deriv)
            assert np.array_equal(batched, space.evaluate(x, np.arange(n), everywhere, deriv)[elements])
            for i, K in enumerate(elements):
                assert np.array_equal(space.evaluate(x, int(K), points[i], deriv),
                                      batched[i]), (K, deriv)


class TestFitLocal:
    def test_worked_3d_example(self):
        # five nodes, degree 1 in 3D: the coefficient table in an unscaled
        # frame is exactly the transposed pseudoinverse (A^T A)^-1 A^T
        rng = np.random.default_rng(3)
        nodes = np.vstack([[0.0, 0, 0], rng.standard_normal((4, 3))])
        patch = mock_patch(nodes)
        patch.diameters[:] = 1.0  # unscaled frame, origin at node 0
        coeffs, _, _, ok = fit_local(patch, 1)
        A = np.column_stack([np.ones(5), nodes])
        pinv = np.linalg.inv(A.T @ A) @ A.T
        assert ok[0]
        assert np.allclose(coeffs[0], pinv.T, atol=1e-10)

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
        coeffs, _, _, ok = fit_local(mock_patch(nodes), 1)
        assert not ok[0] and not coeffs.any()

    def test_too_few_nodes(self):
        nodes = np.array([[0.0, 0], [1, 0]])
        coeffs, _, _, ok = fit_local(mock_patch(nodes), 1)
        assert not ok[0] and not coeffs.any()

    def test_batch_rows_fail_alone(self):
        # a failing row does not touch the fits of the other rows
        good = np.array([[0.0, 0], [1, 0], [0, 1], [1, 1]])
        bad = np.array([[0.0, 0], [1, 0], [2, 0], [3, 0]])
        batch = Patches(np.arange(3), np.arange(12).reshape(3, 4),
                        np.stack([good, bad, good + 5.0]), np.array([2.0, 3.0, 2.0]))
        coeffs, origin, scale, ok = fit_local(batch, 1)
        assert ok.tolist() == [True, False, True]
        assert not coeffs[1].any()
        for row in (0, 2):
            alone = fit_local(batch.take([row]), 1)
            assert np.array_equal(coeffs[row], alone[0][0])
            assert np.array_equal(origin[row], alone[1][0]) and scale[row] == alone[2][0]


@pytest.fixture(scope="module")
def space():
    mesh = generate_square_tri(4)
    return build_space(mesh, build_topology(mesh), 2)


class TestEvalShape:
    def test_partition_of_unity(self, space):
        rng = np.random.default_rng(1)
        for K in (0, 7, 31):
            pts = rng.random((20, 2)) * np.pi
            one = np.ones(space.num_dofs)  # the sum of all shape functions
            assert np.max(np.abs(space.evaluate(one, K, pts) - 1.0)) < 1e-12
            assert np.max(np.abs(space.evaluate(one, K, pts, deriv=1))) < 1e-10

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
        Ct = space.coefficients(data[:, None]).transpose(0, 2, 1)
        for K in (2, 21):
            scale = space.scale[[K], None]
            V, ops = factors(space.origin[[K], None], scale, pts, 3, ("gradlap",))
            grad_lap = np.moveaxis(contract(V, *ops["gradlap"], scale, Ct[[K], None]), 1, -1)[..., 0, :]
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
            pts = mesh.vertices[mesh.elements[K, :mesh.lengths[K]]]
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
        # characteristic functions: every patch is its own element
        assert np.array_equal(space.R.indices, np.arange(mesh.num_elements))
        assert np.array_equal(space.R.indptr, np.arange(mesh.num_elements + 1))
        chi = np.eye(mesh.num_elements)[3]
        assert np.allclose(space.evaluate(chi, 3, np.array([[0.1, 0.2]])), 1.0)

    def test_support_map_consistency(self):
        mesh = generate_square_tri(4)
        space = build_space(mesh, build_topology(mesh), 1, t=5)
        n, R = mesh.num_elements, space.R
        # double enumeration: j in K's block row of R <=> K in R's column j
        members = np.split(R.indices, R.indptr[1:-1])
        columns = sp.csr_matrix((np.ones(len(R.indices)), R.indices, R.indptr), shape=(n, n)).tocsc()
        support = np.split(columns.indices, columns.indptr[1:-1])
        for K in range(n):
            for j in members[K]:
                assert K in support[j]
        for j in range(n):
            for K in support[j]:
                assert j in members[K]
        sizes = [len(s) for s in support]
        assert min(sizes) >= 1
        assert max(sizes) <= 12

    def test_determinism_bitwise(self):
        mesh = generate_square_tri(3)
        a = build_space(mesh, build_topology(mesh), 2)
        b = build_space(mesh, build_topology(mesh), 2)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a.R, name), getattr(b.R, name))

    @pytest.mark.parametrize("n, grown, digest", [
        (3, 15, "bd7f110715b63b4c3e68ba8f2d4e0423a6edcc0a382c38ea7d715bb2c4651b75"),
        (6, 18, "0a58cff15682199cd1b30499666468a8f40c337d9809fc5075533e344d10da3e"),
    ], ids=["cube:3", "cube:6"])
    def test_rank_test_pinned(self, n, grown, digest):
        # fit_local's rank test decides which patches grow, so a change to
        # the kernel's rounding that moves a singular value ratio across
        # RCOND would change R's pattern, and with it every matrix's nnz
        mesh = generate_cube_tet(n)
        space = build_space(mesh, build_topology(mesh), 2)
        assert np.count_nonzero(np.diff(space.R.indptr) > space.t) == grown
        pattern = hashlib.sha256()
        for name in ("indptr", "indices"):
            pattern.update(np.asarray(getattr(space.R, name), dtype=np.int64).tobytes())
        assert pattern.hexdigest() == digest

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


def strip(n):
    """A 1 x n strip of unit squares: every sampling node lies on one line."""
    verts = [(x, y) for y in (0, 1) for x in range(n + 1)]
    cells = [f"4 {i} {i + 1} {i + n + 2} {i + n + 1}" for i in range(n)]
    lines = [f"{len(verts)} {n}"] + [f"{x} {y}" for x, y in verts] + cells
    return parse_poly("\n".join(lines) + "\n")


class TestPatchErrors:
    """Each patch failure reaches build_space with its text and the lowest
    failing element."""

    @pytest.mark.parametrize("mesh, m, t, error, text", [
        (strip(10), 3, 1, RankDeficient,
         "patch of element 0 has 4 nodes, needs at least 10 for degree 3"),
        (generate_square_tri(2), 4, 1, RankDeficient,
         "patch of element 0 has 7 nodes, needs at least 15 for degree 4"),
        (generate_cube_tet(2), 3, 1, RankDeficient,
         "patch of element 6 has 11 nodes, needs at least 20 for degree 3"),
        (strip(10), 1, 3, RankDeficient, "patch of element 0 is numerically rank deficient"),
        (strip(4), 1, 3, RankDeficient,
         "element 0: sampling nodes stay rank deficient and the mesh has no further "
         "elements to grow into"),
        (generate_square_tri(1), 1, 3, PatchExhausted,
         "element 0: only 2 connected elements reachable, need 3"),
        (generate_square_tri(2), 2, 9, PatchExhausted,
         "element 0: only 8 connected elements reachable, need 9"),
    ], ids=["too-few-strip", "too-few-square", "too-few-cube", "rank-deficient",
            "no-ring-left", "exhausted-square1", "exhausted-square2"])
    def test_text(self, mesh, m, t, error, text):
        with pytest.raises(error) as caught:
            build_space(mesh, build_topology(mesh), m, t=t)
        assert str(caught.value) == text
