import functools

import numpy as np
import pytest
import scipy.sparse as sp

from patchdg.assembly import (
    AnalyticField,
    FormConfig,
    assemble_biharmonic,
    assemble_laplace,
    assemble_mass,
    assemble_stiffness,
    energy_norm,
    l2_norm,
    load_vector,
)
from patchdg.errors import DegreeTooLow
from patchdg.mesh import build_topology, generate_square_tri
from patchdg.quadrature import face_rule, simplex_rule
from patchdg.reconstruction import build_space, interpolate

import shape_table_oracle as oracle


@pytest.fixture(scope="module")
def space_m1():
    mesh = generate_square_tri(4)
    return build_space(mesh, build_topology(mesh), 1)


@pytest.fixture(scope="module")
def space_m2():
    mesh = generate_square_tri(4)
    return build_space(mesh, build_topology(mesh), 2)


def is_spd(mat):
    try:
        np.linalg.cholesky(mat.toarray())
        return True
    except np.linalg.LinAlgError:
        return False


class TestLaplace:
    def test_symmetry_exact(self, space_m1):
        A = assemble_laplace(space_m1, FormConfig(problem="laplace", m=1))
        assert (A - A.T).nnz == 0

    def test_spd_at_default_penalty(self, space_m1):
        A = assemble_laplace(space_m1, FormConfig(problem="laplace", m=1, eta=10.0))
        assert is_spd(A)

    def test_spd_monotone_in_penalty(self, space_m2):
        for eta in (5.5, 55.0):
            cfg = FormConfig(problem="laplace", m=2, eta=eta)
            assert is_spd(assemble_laplace(space_m2, cfg))

    def test_jumps_vanish_for_polynomial_data(self, space_m1):
        # R q is globally smooth for q in P^m, so two-sided traces agree
        data = interpolate(space_m1, lambda x, y: 1.0 + 2 * x - y)
        topo = space_m1.topology
        for f in np.nonzero(~topo.boundary)[0]:
            kp, km = topo.sides[f]
            coords = space_m1.mesh.vertices[list(topo.faces[f])]
            pts, _ = face_rule(simplex_rule(1, 2), coords)
            vp = space_m1.evaluate(data, int(kp), pts)
            vm = space_m1.evaluate(data, int(km), pts)
            assert np.max(np.abs(vp - vm)) < 1e-10

    def test_quadratic_form_matches_direct_integration(self, space_m1):
        # for samples of q(x) = x the interior face terms vanish, leaving
        # the volume gradient integral plus the boundary Nitsche terms
        cfg = FormConfig(problem="laplace", m=1, eta=7.0)
        A = assemble_laplace(space_m1, cfg)
        data = interpolate(space_m1, lambda x, y: x)
        quad_form = data @ A @ data

        topo = space_m1.topology
        mesh = space_m1.mesh
        expect = np.pi ** 2  # integral of |grad x|^2 over the pi-square
        eta_eff = 7.0 * 1  # eta * m^2 * (dim - 1)
        for f in np.nonzero(topo.boundary)[0]:
            coords = mesh.vertices[list(topo.faces[f])]
            pts, wts = face_rule(simplex_rule(1, 4), coords)
            n = topo.normals[f]
            q = pts[:, 0]
            dq = np.full(len(pts), n[0])
            expect += float(np.sum(wts * (-2.0 * dq * q + eta_eff / topo.h_e[f] * q * q)))
        assert abs(quad_form - expect) < 1e-9 * abs(expect)

    def test_tiny_penalty_flagged_downstream(self, space_m2):
        from patchdg.eigensolve import solve_dense
        from patchdg.errors import PenaltyTooSmall

        A = assemble_laplace(space_m2, FormConfig(problem="laplace", m=2, eta=1e-6))
        M = assemble_mass(space_m2)
        with pytest.raises(PenaltyTooSmall):
            solve_dense(A, M)

    def test_traversal_order_invariance(self, space_m1):
        cfg = FormConfig(problem="laplace", m=1)
        A = assemble_laplace(space_m1, cfg)
        n_el = space_m1.num_dofs
        n_f = space_m1.topology.num_faces
        B = assemble_laplace(space_m1, cfg, elements=reversed(range(n_el)),
                             faces=reversed(range(n_f)))
        rng = np.random.default_rng(0)
        v = rng.standard_normal(n_el)
        qa, qb = v @ A @ v, v @ B @ v
        assert abs(qa - qb) < 1e-12 * abs(qa)
        # elements and faces are sets of ids: a repeated one counts once
        C = assemble_laplace(space_m1, cfg, elements=[*range(n_el)] * 2, faces=[*range(n_f)] * 2)
        assert (C != A).nnz == 0


class TestFormConfig:
    def test_empty_bc_is_the_problem_default(self):
        assert FormConfig().bc == "homogeneous_dirichlet"
        assert FormConfig(problem="biharmonic", m=2).bc == "simply_supported"


class TestBiharmonic:
    def test_symmetry_both_bcs(self, space_m2):
        for bc in ("clamped", "simply_supported"):
            A = assemble_biharmonic(space_m2, FormConfig(problem="biharmonic", bc=bc, m=2))
            assert (A - A.T).nnz == 0

    def test_spd_clamped(self, space_m2):
        cfg = FormConfig(problem="biharmonic", bc="clamped", m=2, alpha=20.0, beta=10.0)
        assert is_spd(assemble_biharmonic(space_m2, cfg))

    def test_spd_simply_supported_default(self, space_m2):
        cfg = FormConfig(problem="biharmonic", bc="simply_supported", m=2)
        assert is_spd(assemble_biharmonic(space_m2, cfg))

    def test_degree_too_low(self, space_m1):
        with pytest.raises(DegreeTooLow):
            assemble_biharmonic(space_m1, FormConfig(problem="biharmonic", bc="clamped", m=2))

    def test_jump_terms_vanish_for_polynomial_data(self, space_m2):
        # all face contributions act on jumps of R q, which vanish for
        # quadratic data; the quadratic form reduces to the volume integral
        # of (Laplacian)^2 plus boundary terms of the clamped form
        mesh = generate_square_tri(3)
        space = build_space(mesh, build_topology(mesh), 2)
        cfg = FormConfig(problem="biharmonic", bc="simply_supported", m=2)
        A = assemble_biharmonic(space, cfg)
        data = interpolate(space, lambda x, y: x * y)  # Laplacian = 0, boundary jump != 0
        topo = space.topology
        expect = 0.0
        alpha_eff = cfg.alpha * 2 ** 4
        for f in np.nonzero(topo.boundary)[0]:
            coords = mesh.vertices[list(topo.faces[f])]
            pts, wts = face_rule(simplex_rule(1, 4), coords)
            q = pts[:, 0] * pts[:, 1]
            expect += alpha_eff / topo.h_e[f] ** 3 * float(np.sum(wts * q * q))
        assert abs(data @ A @ data - expect) < 1e-9 * max(abs(expect), 1.0)


class TestMass:
    def test_total_mass_is_domain_area(self, space_m2):
        M = assemble_mass(space_m2)
        assert abs(M.sum() - np.pi ** 2) < 1e-10

    def test_piecewise_constant_diagonal(self):
        mesh = generate_square_tri(2)
        space = build_space(mesh, build_topology(mesh), 0, t=1)
        M = assemble_mass(space)
        dense = M.toarray()
        measures = space.geometry.measures
        assert np.allclose(dense, np.diag(measures), atol=1e-14)

    def test_spd(self, space_m2):
        assert is_spd(assemble_mass(space_m2))


class TestEnergyNorm:
    def test_smooth_field_no_jumps(self, space_m2):
        # sin x sin y vanishes on the boundary, so only the gradient term
        # remains: integral of |grad|^2 = 2 * (pi/2)^2 * 2 = pi^2 / 2 * 2
        import math

        from patchdg.analysis import sine_product_field

        u = sine_product_field((1, 1), 1.0, 1.0)
        val = energy_norm(space_m2, 1, exact=u)
        exact = math.sqrt(2 * (np.pi / 2) ** 2)  # |u|_{H1} on [0, pi]^2
        assert abs(val - exact) < 1e-6

    def test_rayleigh_quotient_identity(self, space_m2):
        from patchdg.eigensolve import solve_dense

        cfg = FormConfig(problem="laplace", m=2)
        A = assemble_laplace(space_m2, cfg)
        M = assemble_mass(space_m2)
        res = solve_dense(A, M)
        for i in (0, 3, 7):
            x = res.vectors[:, i]
            rq = (x @ A @ x) / (x @ M @ x)
            assert abs(rq - res.values[i]) < 1e-10 * max(abs(res.values[i]), 1.0)

    def test_interpolant_rate(self):
        from patchdg.analysis import sine_product_field

        u = sine_product_field((1, 1), 1.0, 1.0)
        errs = []
        for n in (8, 16):
            mesh = generate_square_tri(n)
            space = build_space(mesh, build_topology(mesh), 2)
            v = interpolate(space, lambda x, y: np.sin(x) * np.sin(y))
            errs.append(energy_norm(space, 1, exact=u, vector=v))
        rate = np.log2(errs[0] / errs[1])
        assert abs(rate - 2.0) < 0.4

    def test_l2_norm_of_known_field(self, space_m1):
        # norm of the constant 1 over the pi-square
        one = AnalyticField(lambda pts: np.ones(len(pts)),
                            lambda pts: np.zeros((len(pts), 2)))
        assert abs(l2_norm(space_m1, exact=one) - np.pi) < 1e-12


class TestPenaltyMatchesEnergyNorm:
    """Doubling a penalty adds exactly its jump term of the broken energy
    norm, so the stiffness and ``measure`` agree on jump kinds and powers of h."""

    @pytest.mark.parametrize("spec, m", [("square:4", 1), ("square:4", 3), ("cube:2", 2)])
    def test_penalty_difference_is_jump_term(self, spec, m):
        from patchdg.assembly import assemble_stiffness, gram, measure

        space = pull_back_case(spec, m)[0]
        x = np.random.default_rng(m).standard_normal(space.num_dofs)
        d = space.mesh.dim
        forms = [("laplace", "eta", m ** 2, 1)]
        if m >= 2:
            forms += [("biharmonic", "alpha", m ** 4, 1), ("biharmonic", "beta", m ** 2, 2)]
        for problem, name, scale, term in forms:
            cfg = FormConfig(problem=problem, bc="clamped" if problem == "biharmonic" else "", m=m)
            base = getattr(cfg, name)
            doubled = FormConfig(**{**vars(cfg), name: 2 * base})
            A = assemble_stiffness(space, doubled) - assemble_stiffness(space, cfg)
            terms = measure(space, cfg.p, [x])
            expect = base * scale * (d - 1) * gram(terms[term:term + 1])[0, 0]
            assert abs(x @ A @ x - expect) <= 1e-12 * abs(expect), (problem, name)


class TestLoadVector:
    def test_constant_load(self, space_m1):
        b = load_vector(space_m1, lambda pts: np.ones(len(pts)))
        # sum of all entries is the integral of the partition of unity
        assert abs(b.sum() - np.pi ** 2) < 1e-10


class TestBatching:
    def test_chunk_size_invariance(self, monkeypatch):
        # cube:2 at m=2 has grown patches (sizes 15 and 28), so with tiny
        # chunks every form runs over many batches and several size groups
        from patchdg import assembly
        from patchdg.analysis import sine_product_field
        from patchdg.mesh import generate_cube_tet

        mesh = generate_cube_tet(2)
        space = build_space(mesh, build_topology(mesh), 2)
        assert len({patch.size for patch in space.patches}) > 1
        u = sine_product_field((1, 1, 1), np.pi, 1.0)
        v = interpolate(space, lambda x, y, z: x * y + z ** 2)

        def everything():
            cfg = FormConfig(problem="biharmonic", bc="clamped", m=2)
            return ([assemble_biharmonic(space, cfg).toarray(),
                     assemble_laplace(space, FormConfig(problem="laplace", m=2)).toarray(),
                     assemble_mass(space).toarray(),
                     load_vector(space, u.value)],
                    [energy_norm(space, 2, exact=u, vector=v), l2_norm(space, vector=v)])

        mats, norms = everything()
        monkeypatch.setattr(assembly, "CHUNK", 5)
        small_mats, small_norms = everything()
        for a, b in zip(mats, small_mats):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))
        assert np.allclose(norms, small_norms, rtol=1e-12, atol=0.0)


class TestMeasurement:
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_energy_product_matches_shape_tables(self, p):
        # cube:2 at m=2 has two patch sizes; the fields are a DOF vector
        # and an analytic field, and energy_norm measures their pointwise
        # difference
        from patchdg.analysis import sine_product_field
        from patchdg.assembly import energy_product
        from patchdg.mesh import generate_cube_tet

        mesh = generate_cube_tet(2)
        space = build_space(mesh, build_topology(mesh), 2)
        assert len({patch.size for patch in space.patches}) == 2
        u = sine_product_field((1, 1, 1), np.pi, 1.0)
        v = interpolate(space, lambda x, y, z: np.sin(np.pi * x) * y * (1 - z) + z ** 3)
        ref = oracle.shape_table_product(space, p, [v, u, (u, v)])
        G = energy_product(space, p, [v, u])
        assert np.max(np.abs(G - ref[:2, :2])) <= 1e-12 * np.max(np.abs(ref))
        diag = [*np.diag(G), energy_norm(space, p, exact=u, vector=v) ** 2]
        assert np.allclose(diag, np.diag(ref), rtol=1e-12, atol=0.0)


@functools.lru_cache(maxsize=None)
def pull_back_case(spec, m):
    """The space and its shape-table oracle."""
    from patchdg.mesh import generate_cube_tet
    from test_batched_setup import polygon_mesh

    kind, _, n = spec.partition(":")
    mesh = {"square": lambda: generate_square_tri(int(n or 0)),
            "cube": lambda: generate_cube_tet(int(n or 0)), "polygon": polygon_mesh}[kind]()
    space = build_space(mesh, build_topology(mesh), m)
    return space, oracle.ShapeTableSpace(space)


PULL_BACK_CASES = [("square:8", m) for m in (1, 2, 3, 4)] + [
    ("cube:2", 2), ("cube:4", 3), ("polygon", 2)]


class TestPullBack:
    """R^T A_DG R with slot-accumulated monomial blocks against the
    shape-table, entry-level assembly it replaced (test-local oracle)."""

    @staticmethod
    def same_matrix(A, ref):
        assert (A != A.T).nnz == 0 and A.has_canonical_format
        A, ref = sp.tril(A, format="csr"), sp.tril(ref, format="csr")
        assert A.nnz == ref.nnz
        assert np.array_equal(A.indptr, ref.indptr)
        assert np.array_equal(A.indices, ref.indices)
        assert np.max(np.abs(A.data - ref.data)) <= 1e-13 * np.max(np.abs(ref.data))

    @pytest.mark.parametrize("spec, m", PULL_BACK_CASES)
    def test_forms_match_shape_tables(self, spec, m):
        space, ref = pull_back_case(spec, m)
        cfg = FormConfig(problem="laplace", m=m)
        self.same_matrix(assemble_laplace(space, cfg), oracle.assemble_laplace(ref, cfg))
        for bc in ("clamped", "simply_supported") if m >= 2 else ():
            cfg = FormConfig(problem="biharmonic", bc=bc, m=m)
            self.same_matrix(assemble_biharmonic(space, cfg), oracle.assemble_biharmonic(ref, cfg))
        self.same_matrix(assemble_mass(space), oracle.assemble_mass(ref))

        def f(pts):
            return np.sin(pts[:, 0]) + pts[:, 1] ** 2

        b, b_ref = load_vector(space, f), oracle.load_vector(ref, f)
        assert np.max(np.abs(b - b_ref)) <= 1e-13 * np.max(np.abs(b_ref))

    @pytest.mark.parametrize("spec, m", PULL_BACK_CASES)
    def test_space_matches_shape_tables(self, spec, m):
        space, ref = pull_back_case(spec, m)
        R = space.R
        for K in range(space.num_dofs):  # block row K: K's patch and its coefficients
            members, coeffs = ref.tables[int(ref.size[K])]
            block = slice(R.indptr[K], R.indptr[K + 1])
            assert R.indices[block].tolist() == members[ref.row[K]].tolist()
            assert R.data[block, :, 0].tobytes() == coeffs[ref.row[K]].tobytes()
        for patch, expect in zip(space.patches, ref.patches(), strict=True):
            assert (patch.center, patch.members, patch.diameter) == \
                (expect.center, expect.members, expect.diameter)
            assert np.array_equal(patch.nodes, expect.nodes)


def demo_polygon_mesh():
    """The quad mesh of ``demos/polygon_mesh_demo.py``."""
    import importlib.util
    from pathlib import Path

    from patchdg.mesh import parse_poly

    path = Path(__file__).resolve().parents[1] / "demos" / "polygon_mesh_demo.py"
    spec = importlib.util.spec_from_file_location("polygon_mesh_demo", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return parse_poly(demo.quad_mesh_text(12))


def forms(m):
    """The mass (None) and every stiffness configuration at degree m."""
    out = [None, FormConfig(problem="laplace", m=m)]
    return out + [FormConfig(problem="biharmonic", bc=bc, m=m)
                  for bc in ("clamped", "simply_supported") if m >= 2]


@functools.lru_cache(maxsize=None)
def rule_case(spec, m):
    from patchdg.mesh import generate_cube_tet

    kind, _, n = spec.partition(":")
    mesh = {"square": lambda: generate_square_tri(int(n or 0)),
            "cube": lambda: generate_cube_tet(int(n or 0)), "polygon": demo_polygon_mesh}[kind]()
    return build_space(mesh, build_topology(mesh), m)


def spy(monkeypatch, module, name, seen):
    """Record the reference rule of every call to ``module.name``."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda rule, *args: seen.append(rule) or real(rule, *args))


class TestStoredMaps:
    """The affine maps stored once per mesh give each batch the points and
    weights that ``map_rule`` and ``face_rule`` give it, bit for bit."""

    @pytest.mark.parametrize("spec", ["square:4", "cube:2", "polygon"])
    def test_stored_maps_reproduce_the_mapped_rules(self, monkeypatch, spec):
        from patchdg import assembly
        from patchdg.quadrature import MAX_ORDER, cheapest_rule, map_rule

        space, _ = pull_back_case(spec, 1)
        dim, topo = space.mesh.dim, space.topology
        rules = []  # every rule the assembly and measure use, at every degree
        for m in range(1, MAX_ORDER[dim] // 2 + 1):
            smooth = min(2 * m + 2, MAX_ORDER[dim])
            rules += [cheapest_rule(dim, 2 * (m - p)) for p in (0, 1, 2) if m >= p]
            rules += [cheapest_rule(dim - 1, 2 * m), simplex_rule(dim, smooth),
                      simplex_rule(dim - 1, smooth)]
        monkeypatch.setattr(assembly, "CHUNK", 7)  # several batches, the last one short
        for rule in {id(r): r for r in rules}.values():
            if rule.dim == dim:
                batches = [(pts, wts, space.geometry.sub_simplices[7 * i:7 * i + 7], map_rule)
                           for i, (_, pts, wts, *_) in
                           enumerate(assembly._batches(space, rule, ()))]
            else:
                batches = [(pts, wts, space.mesh.vertices[topo.faces[batch]], face_rule)
                           for batch, pts, wts, *_ in
                           assembly._batches(space, rule, (), np.arange(topo.num_faces),
                                             faces=True)]
            assert sum(len(w) for _, w, _, _ in batches) == \
                (len(space.geometry.sub_owner) if rule.dim == dim else topo.num_faces)
            for pts, wts, coords, mapped in batches:
                ref_pts, ref_wts = mapped(rule, coords)
                assert np.array_equal(pts, ref_pts) and np.array_equal(wts, ref_wts)


class TestMeasureLayout:
    """Each term of ``measure`` is one C-contiguous (values, weights) pair,
    the same for every batch size, whose weights integrate 1 over the
    domain (volume terms) or h^-power over the faces (face terms)."""

    @pytest.mark.parametrize("spec, area", [("square:4", np.pi ** 2), ("cube:2", 1.0),
                                            ("polygon", 9.0)])
    def test_terms_are_contiguous_and_chunk_invariant(self, monkeypatch, spec, area):
        import math

        from patchdg import assembly
        from patchdg.analysis import sine_product_field

        space, _ = pull_back_case(spec, 2)  # cube:2 at m=2 has grown patches
        topo, dim = space.topology, space.mesh.dim
        rng = np.random.default_rng(5)
        fields = [*rng.standard_normal((2, space.num_dofs)), sine_product_field((1,) * dim)]
        corners = space.mesh.vertices[topo.faces]
        E = corners[:, 1:] - corners[:, :1]  # (faces, dim - 1, dim) edges
        sizes = np.sqrt(np.linalg.det(E @ E.transpose(0, 2, 1))) / math.factorial(dim - 1)
        for p in (0, 1, 2):
            runs = []
            for chunk in (5, 7, 256):
                monkeypatch.setattr(assembly, "CHUNK", chunk)
                runs.append(assembly.measure(space, p, fields, l2=True))
            powers = [0, *(power for _, power, *_ in assembly._PAIRINGS[p][1]), 0]
            assert len(runs[0]) == len(powers)
            for terms in runs[1:]:
                assert all(np.array_equal(F, G) and np.array_equal(w, v)
                           for (F, w), (G, v) in zip(runs[0], terms))
            for (F, w), power in zip(runs[0], powers):
                assert F.flags.c_contiguous and w.flags.c_contiguous and F.shape[1] == len(w)
                total = area if power == 0 else np.sum(sizes / topo.h_e ** power)
                assert abs(w.sum() - total) <= 1e-13 * total, (p, power)


class TestQuadratureChoice:
    """Every form integrated by its cheapest exact rule equals the conical
    products at degree 2m that every form used before; smooth integrands
    keep those conical products."""

    @pytest.mark.parametrize("spec, m", [("square:4", m) for m in (1, 2, 3, 4)]
                             + [("cube:2", m) for m in (1, 2, 3)] + [("polygon", 2)])
    def test_cheapest_rules_match_the_conical_assembly(self, monkeypatch, spec, m):
        from patchdg import assembly

        space = rule_case(spec, m)
        for cfg in forms(m):
            matrices = []
            for conical in (False, True):
                if conical:
                    monkeypatch.setattr(assembly, "cheapest_rule", lambda dim, _: simplex_rule(dim, 2 * m))
                matrices.append(assemble_stiffness(space, cfg) if cfg else assemble_mass(space))
                monkeypatch.undo()
            A, ref = matrices
            assert np.array_equal(A.indptr, ref.indptr) and np.array_equal(A.indices, ref.indices)
            assert np.max(np.abs(A.data - ref.data)) <= 1e-13 * np.max(np.abs(ref.data)), cfg

    def test_point_counts_per_term(self, monkeypatch):
        from patchdg import assembly

        seen = []
        spy(monkeypatch, assembly, "apply_rule", seen)
        space = rule_case("cube:2", 2)
        assemble_stiffness(space, FormConfig(problem="biharmonic", m=2))
        assemble_mass(space)
        assemble_stiffness(space, FormConfig(problem="laplace", m=2))
        volume, face = ([r for r in seen if r.dim == dim] for dim in (3, 2))
        counts = [(len(r.weights), r.dim) for r in {id(r): r for r in volume + face}.values()]
        # biharmonic volume 1 (was 27), faces 6 (was 9), mass 14 (was 27), laplace volume 4
        assert counts == [(1, 3), (14, 3), (4, 3), (6, 2)]

    def test_smooth_integrands_keep_the_conical_products(self, monkeypatch):
        from patchdg import assembly, quadrature
        from patchdg.analysis import sine_product_field
        from patchdg.assembly import energy_product
        from patchdg.patch import lambda_constant
        from patchdg.quadrature import MAX_ORDER

        for spec, m in (("square:4", 2), ("cube:2", 3)):
            space = rule_case(spec, m)
            dim = space.mesh.dim
            seen = []
            spy(monkeypatch, assembly, "apply_rule", seen)
            u = sine_product_field((1,) * dim, np.pi, 1.0)
            v = interpolate(space, lambda *x: np.sin(x[0]) * x[-1])
            for p in (0, 1, 2):
                energy_product(space, p, [v, u])
            load_vector(space, lambda pts: np.sin(pts[:, 0]))
            order = min(2 * m + 2, MAX_ORDER[dim])
            assert {(r.dim, len(r.weights)) for r in seen} == {(dim, len(simplex_rule(dim, order).weights)),
                                                                (dim - 1, len(simplex_rule(dim - 1, order).weights))}
            assert all(r is simplex_rule(r.dim, order) for r in seen)
            monkeypatch.undo()

            seen = []
            spy(monkeypatch, quadrature, "apply_rule", seen)
            lambda_constant(space.mesh, space.patches[0], m)
            assert seen and all(r is simplex_rule(dim, max(2 * m, 2)) for r in seen)
            monkeypatch.undo()
