import itertools
import math

import numpy as np
import pytest

from patchdg import analysis
from patchdg.analysis import (
    compute_spectrum,
    convergence_study,
    eigen_errors,
    exact_spectrum,
    match_cluster,
    rate,
    reliable_count,
    reliable_study,
    sine_product_field,
    solve_source,
    source_study,
)
from patchdg.assembly import FormConfig, energy_norm
from patchdg.eigensolve import EigenResult, solve_dense, solve_smallest
from patchdg.errors import ClusterAmbiguous, PenaltyTooSmall
from patchdg.mesh import build_topology, generate_cube_tet, generate_square_tri
from patchdg.reconstruction import build_space


def exact_by_loops(dim, count):
    """The first ``count`` (i^2 + j^2 [+ k^2], label) pairs, by enumerating
    every label up to a bound and sorting the tuples."""
    bound = math.isqrt(2 * count) + 2  # every label with i^2 + ... <= bound^2 is in
    pairs = sorted((sum(i * i for i in lab), lab)
                   for lab in itertools.product(range(1, bound + 1), repeat=dim))
    assert pairs[count - 1][0] <= bound * bound
    return pairs[:count]


class TestExactSpectrum:
    @pytest.mark.parametrize("domain", ["square_pi", "cube_unit"])
    def test_matches_the_loop_oracle(self, domain):
        dim, scale = (2, 1.0) if domain == "square_pi" else (3, np.pi ** 2)
        oracle = exact_by_loops(dim, 500)
        for count in range(1, 501):
            spec = exact_spectrum(domain, 1, count)
            assert spec.labels == [lab for _, lab in oracle[:count]], count
            assert np.array_equal(spec.values, [v * scale for v, _ in oracle[:count]]), count

    def test_square_first_six(self):
        spec = exact_spectrum("square_pi", 1, 6)
        assert np.allclose(spec.values, [2, 5, 5, 8, 10, 10])

    def test_square_twentieth(self):
        spec = exact_spectrum("square_pi", 1, 20)
        assert spec.values[19] == 32
        assert spec.labels[19] == (4, 4)

    def test_square_biharmonic(self):
        spec = exact_spectrum("square_pi", 2, 20)
        assert spec.values[0] == 4
        assert spec.values[19] == 1024

    def test_cube_firsts(self):
        assert abs(exact_spectrum("cube_unit", 1, 1).values[0] - 3 * np.pi ** 2) < 1e-12
        assert abs(exact_spectrum("cube_unit", 2, 1).values[0] - 9 * np.pi ** 4) < 1e-10

    @pytest.mark.parametrize("p", [0, 3])
    def test_rejects_an_order_without_a_spectrum(self, p):
        with pytest.raises(ValueError, match="p must be 1"):
            exact_spectrum("square_pi", p, 4)

    def test_prefix_property(self):
        a = exact_spectrum("square_pi", 1, 30)
        b = exact_spectrum("square_pi", 1, 80)
        assert np.allclose(a.values, b.values[:30])

    def test_multiplicity(self):
        spec = exact_spectrum("square_pi", 1, 10)
        assert spec.multiplicity(1) == 1
        assert spec.multiplicity(2) == 2
        assert spec.multiplicity(3) == 2
        assert spec.cluster_start(3) == 2

    def test_eigenfunction_normalized(self):
        spec = exact_spectrum("square_pi", 1, 3)
        u = spec.eigenfunction((1, 2))
        # L2 norm over the square is 1 by construction
        from patchdg.quadrature import simplex_rule, map_rule

        mesh = generate_square_tri(24)
        rule = simplex_rule(2, 8)
        total = 0.0
        for K in range(mesh.num_elements):
            pts, wts = map_rule(rule, mesh.vertices[mesh.elements[K]])
            total += np.sum(wts * u.value(pts) ** 2)
        assert abs(total - 1.0) < 1e-6

    def test_eigenfunction_derivatives_consistent(self):
        u = sine_product_field((2, 3), 1.0, 1.5)
        pts = np.array([[0.3, 0.7], [1.1, 2.0]])
        eps = 1e-6
        g = u.gradient(pts)
        for d in range(2):
            shifted = pts.copy()
            shifted[:, d] += eps
            fd = (u.value(shifted) - u.value(pts)) / eps
            assert np.max(np.abs(fd - g[:, d])) < 1e-4
        assert np.allclose(u.laplacian(pts), -(4 + 9) * u.value(pts))


class TestRates:
    def test_arithmetic(self):
        assert abs(rate(1e-2, 2.5e-3) - 2.0) < 1e-12

    def test_zero_error_conventions(self):
        assert rate(1e-3, 0.0) == math.inf
        assert rate(0.0, 1e-3) == -math.inf


def _result(values):
    values = np.asarray(values, dtype=float)
    n = len(values)
    return EigenResult(values, np.eye(n), np.zeros(n))


class TestReliableCount:
    def test_zero_error_counts(self):
        exact = exact_spectrum("square_pi", 1, 3)
        res = _result(exact.values[:3])
        count, pct = reliable_count(exact, res, res)
        assert count == 3
        assert pct == 100.0

    def test_exact_halving_counts(self):
        exact = exact_spectrum("square_pi", 1, 3)
        fine = _result(exact.values[:3] * 1.01)
        coarse = _result(exact.values[:3] * 1.02)
        count, _ = reliable_count(exact, fine, coarse)
        assert count == 3

    def test_just_below_threshold_not_counted(self):
        exact = exact_spectrum("square_pi", 1, 1)
        fine = _result([exact.values[0] * 1.011])
        coarse = _result([exact.values[0] * 1.02])
        count, _ = reliable_count(exact, fine, coarse)
        assert count == 0

    def test_error_cap(self):
        exact = exact_spectrum("square_pi", 1, 2)
        fine = _result([exact.values[0] * 1.001, exact.values[1] * 1.5])
        coarse = _result([exact.values[0] * 1.01, exact.values[1] * 4.0])
        assert reliable_count(exact, fine, coarse)[0] == 2
        assert reliable_count(exact, fine, coarse, error_cap=0.1)[0] == 1


@pytest.fixture(scope="module")
def square8_m2():
    mesh = generate_square_tri(8)
    space = build_space(mesh, build_topology(mesh), 2)
    cfg = FormConfig(problem="laplace", m=2)
    result, A, M = compute_spectrum(space, cfg, k=12)
    return space, cfg, result, M


def test_full_spectrum_is_solve_smallest_of_all_pairs(monkeypatch, square8_m2):
    space, cfg, _, _ = square8_m2
    calls = []
    monkeypatch.setattr(analysis, "solve_smallest",
                        lambda A, M, k, tol: calls.append(k) or solve_smallest(A, M, k, tol))
    result, A, M = compute_spectrum(space, cfg)
    assert calls == [space.num_dofs]
    dense = solve_dense(A, M)  # the path it picks for every pair
    assert np.array_equal(result.values, dense.values)
    assert np.array_equal(result.vectors, dense.vectors)


class TestMatching:
    def test_simple_eigenvalue_sign_alignment(self, square8_m2):
        space, cfg, result, M = square8_m2
        exact = exact_spectrum("square_pi", 1, 12)
        matched = match_cluster(space, 1, exact, 1, result)
        assert matched.size == 1
        ve, fe = eigen_errors(space, 1, exact, 1, result, M, matched)
        assert ve < 0.02
        assert fe < 0.1

    def test_double_eigenvalue_cluster(self, square8_m2):
        space, cfg, result, M = square8_m2
        exact = exact_spectrum("square_pi", 1, 12)
        matched = match_cluster(space, 1, exact, 2, result)  # lambda = 5, k = 2
        assert matched.size == 2
        # the optimized span member beats each raw discrete eigenvector
        u = exact.eigenfunction(exact.labels[1])
        best = energy_norm(space, 1, exact=u, vector=_normalized(matched.vector, M, space, u))
        for j in (1, 2):
            single = _normalized(result.vectors[:, j], M, space, u)
            alone = energy_norm(space, 1, exact=u, vector=single)
            assert best <= alone + 1e-9

    def test_matched_value_is_rank_paired(self, square8_m2):
        space, cfg, result, M = square8_m2
        exact = exact_spectrum("square_pi", 1, 12)
        ve, _ = eigen_errors(space, 1, exact, 4, result, M)
        expected = abs(result.values[3] - exact.values[3]) / exact.values[3]
        assert abs(ve - expected) < 1e-14


    @pytest.mark.parametrize("top, ambiguous", [(6.6, True), (6.4, False)])
    def test_ambiguous_cluster_raises_before_any_product(self, monkeypatch, top, ambiguous):
        # lambda = 5 (k = 2) lies 3 from its neighbors 2 and 8; a discrete
        # cluster spread of 1.6 exceeds half that gap, a spread of 1.4 does not
        mesh = generate_square_tri(4)
        space = build_space(mesh, build_topology(mesh), 1)
        exact = exact_spectrum("square_pi", 1, 6)
        values = np.array([2.1, 5.0, top, 8.2, 10.3, 10.4])
        result = EigenResult(values, np.eye(space.num_dofs)[:, :6], np.zeros(6))
        calls = []

        def measure(space, p, fields, l2=False):
            # one unit-weighted term per field: an identity Gram, then the L2 term
            calls.append(len(fields))
            term = (np.eye(len(fields))[:, :, None], np.ones(len(fields)))
            return [term, term]

        monkeypatch.setattr(analysis, "measure", measure)
        if ambiguous:
            with pytest.raises(ClusterAmbiguous):
                match_cluster(space, 1, exact, 2, result)
            assert calls == []
        else:
            assert match_cluster(space, 1, exact, 2, result).size == 2
            assert calls == [3]


def _normalized(x, M, space, u):
    from patchdg.assembly import load_vector

    x = x / math.sqrt(float(x @ (M @ x)))
    b = load_vector(space, lambda pts: u.value(pts))
    return x if float(b @ x) >= 0 else -x


class TestOnePass:
    @staticmethod
    def errors_by_shape_tables(space, p, exact, index, result, M, matched):
        # the formula measured before one pass per mesh: load-vector sign,
        # unit M norm, then the energy norm of the difference on shape tables
        from shape_table_oracle import shape_table_product

        u = exact.eigenfunction(exact.labels[index - 1])
        x = _normalized(matched.vector, M, space, u)
        return math.sqrt(max(shape_table_product(space, p, [(u, x)])[0, 0], 0.0))

    @pytest.mark.parametrize("kind, sizes, problem, m, target", [
        ("square", (8, 16), "laplace", 2, 3),
        ("square", (4, 8), "laplace", 4, 3),
        ("cube", (2, 3), "biharmonic", 2, 1),
    ])
    def test_eigen_errors_match_shape_tables(self, kind, sizes, problem, m, target):
        from patchdg.mesh import generate_cube_tet

        bc = "homogeneous_dirichlet" if problem == "laplace" else "simply_supported"
        cfg = FormConfig(problem=problem, bc=bc, m=m)
        exact = exact_spectrum("square_pi" if kind == "square" else "cube_unit", cfg.p, target + 8)
        for n in sizes:
            mesh = generate_square_tri(n) if kind == "square" else generate_cube_tet(n)
            space = build_space(mesh, build_topology(mesh), m)
            result, _, M = compute_spectrum(space, cfg, k=target + 6)
            matched = match_cluster(space, cfg.p, exact, target, result)
            assert matched.size == exact.multiplicity(target)
            _, fe = eigen_errors(space, cfg.p, exact, target, result, M, matched)
            oracle = self.errors_by_shape_tables(space, cfg.p, exact, target, result, M, matched)
            assert abs(fe - oracle) <= 1e-12 * oracle

    def test_convergence_study_measures_each_mesh_once(self, monkeypatch):
        calls = {"measure": 0, "load_vector": 0, "energy_product": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(analysis, name, counted(name, getattr(analysis, name)))
        meshes = [generate_square_tri(n) for n in (4, 8)]
        convergence_study(meshes, FormConfig(problem="laplace", m=2), "square_pi", 3)
        assert calls == {"measure": 2, "load_vector": 0, "energy_product": 0}


class TestConvergenceStudy:
    def test_rows_and_orders(self):
        meshes = [generate_square_tri(n) for n in (4, 8)]
        cfg = FormConfig(problem="laplace", m=1)
        study = convergence_study(meshes, cfg, "square_pi", 1)
        assert len(study.eigenvalue_rows) == 2
        assert study.eigenvalue_rows[0].order is None
        assert study.eigenvalue_rows[1].order is not None
        assert study.eigenvalue_rows[1].error < study.eigenvalue_rows[0].error

    def test_rejects_single_mesh(self):
        with pytest.raises(ValueError):
            convergence_study([generate_square_tri(4)], FormConfig(problem="laplace", m=1),
                              "square_pi", 1)

    def test_rejects_non_halving(self):
        meshes = [generate_square_tri(4), generate_square_tri(6)]
        with pytest.raises(ValueError):
            convergence_study(meshes, FormConfig(problem="laplace", m=1), "square_pi", 1)

    @pytest.mark.parametrize("study", [
        lambda meshes, cfg: convergence_study(meshes, cfg, "square_pi", 1),
        lambda meshes, cfg: reliable_study(meshes, cfg, "square_pi"),
        lambda meshes, cfg: source_study(meshes, cfg, "square_pi"),
    ], ids=["convergence", "reliable", "source"])
    def test_rejects_non_halving_before_any_solve(self, monkeypatch, study):
        for name in ("compute_spectrum", "solve_source"):
            monkeypatch.setattr(analysis, name,
                                lambda *args, **kwargs: pytest.fail("solved before the h check"))
        meshes = [generate_square_tri(4), generate_square_tri(4)]
        with pytest.raises(ValueError, match="halve"):
            study(meshes, FormConfig(problem="laplace", m=1))

    STUDIES = {
        "convergence": lambda meshes, cfg, domain: convergence_study(meshes, cfg, domain, 1),
        "reliable": reliable_study,
        "source": source_study,
    }

    @pytest.mark.parametrize("study, domain, cfg, match", [
        *((study, "bogus", FormConfig(problem="laplace", m=1), "unknown domain 'bogus'")
          for study in STUDIES),
        # the sine modes miss the clamped plate's du/dn = 0, so its spectrum
        # has no closed form on the square either
        *((study, "square_pi", FormConfig(problem="biharmonic", bc="clamped", m=2), "clamped")
          for study in STUDIES),
    ], ids=[*STUDIES, *(f"{study}-clamped" for study in STUDIES)])
    def test_rejects_an_unknown_domain_before_any_space(self, monkeypatch, study, domain, cfg,
                                                         match):
        for name in ("build_space", "compute_spectrum", "solve_source"):
            monkeypatch.setattr(analysis, name,
                                lambda *args, **kwargs: pytest.fail("worked before the domain check"))
        meshes = [generate_square_tri(4), generate_square_tri(8)]
        with pytest.raises(ValueError, match=match):
            self.STUDIES[study](meshes, cfg, domain)

    @pytest.mark.parametrize("target", [0, -2])
    def test_rejects_target_below_one(self, target):
        # a rank below 1 would index the exact spectrum from its end
        meshes = [generate_square_tri(4), generate_square_tri(8)]
        with pytest.raises(ValueError, match="1-based"):
            convergence_study(meshes, FormConfig(problem="laplace", m=1), "square_pi", target)


def hand_spaces(meshes, m):
    """(h, space) per mesh, built directly."""
    out = []
    for mesh in meshes:
        topo = build_topology(mesh)
        out.append((topo.geometry.h, build_space(mesh, topo, m)))
    return out


class TestReliableStudy:
    def test_rows_equal_a_hand_count(self):
        meshes = [generate_square_tri(4), generate_square_tri(8)]
        cfg = FormConfig(problem="laplace", m=1)
        (h_coarse, coarse_space), (_, fine_space) = hand_spaces(meshes, 1)
        coarse = compute_spectrum(coarse_space, cfg)[0]
        fine = compute_spectrum(fine_space, cfg)[0]
        exact = exact_spectrum("square_pi", 1, len(coarse.values))
        count, pct = reliable_count(exact, fine, coarse, error_cap=h_coarse / 4.0)
        assert reliable_study(meshes, cfg, "square_pi") == [(len(fine.values), count, pct)]

    def test_dense_limit_checked_before_any_space(self, monkeypatch):
        monkeypatch.setattr(analysis.eigensolve, "DENSE_THRESHOLD", 100)
        monkeypatch.setattr(analysis, "build_space",
                            lambda *args, **kwargs: pytest.fail("space built"))
        meshes = [generate_square_tri(4), generate_square_tri(8)]  # 32 and 128 elements
        with pytest.raises(ValueError, match="dense path limited to n <= 100, got 128"):
            reliable_study(meshes, FormConfig(problem="laplace", m=1), "square_pi")


class TestSourceStudy:
    @pytest.mark.parametrize("domain, problem, u, load", [
        ("square_pi", "laplace", sine_product_field((1, 1), 1.0, 1.0), 2.0),
        ("cube_unit", "biharmonic", sine_product_field((1, 1, 1), np.pi, 1.0),
         (3.0 * np.pi ** 2) ** 2),
    ], ids=["square", "cube"])
    def test_rows_equal_a_hand_loop(self, domain, problem, u, load):
        meshes = ([generate_square_tri(4), generate_square_tri(8)] if domain == "square_pi"
                  else [generate_cube_tet(2), generate_cube_tet(4)])
        cfg = FormConfig(problem=problem, m=2)
        expected, prev = [], None
        for h, space in hand_spaces(meshes, 2):
            err = solve_source(space, cfg, lambda pts: load * u.value(pts), exact=u).energy_error
            order = None if prev is None else rate(prev, err)
            expected.append((h, space.num_dofs, err, err, order))
            prev = err
        rows = source_study(meshes, cfg, domain)
        assert [(r.scale, r.dofs, r.value, r.error, r.order) for r in rows] == expected

    def test_rejects_an_unknown_domain(self):
        meshes = [generate_square_tri(4), generate_square_tri(8)]
        with pytest.raises(ValueError, match="unknown domain"):
            source_study(meshes, FormConfig(problem="laplace", m=1), None)


class TestSolveSource:
    def test_zero_source(self):
        mesh = generate_square_tri(4)
        space = build_space(mesh, build_topology(mesh), 1)
        cfg = FormConfig(problem="laplace", m=1)
        res = solve_source(space, cfg, lambda pts: np.zeros(len(pts)))
        assert np.max(np.abs(res.vector)) < 1e-12

    def test_manufactured_solution_rate(self):
        # -Laplace(sin x sin y) = 2 sin x sin y on the pi-square
        u = sine_product_field((1, 1), 1.0, 1.0)
        errs = []
        for n in (8, 16):
            mesh = generate_square_tri(n)
            space = build_space(mesh, build_topology(mesh), 2)
            cfg = FormConfig(problem="laplace", m=2)
            res = solve_source(space, cfg, lambda pts: 2.0 * u.value(pts), exact=u)
            errs.append(res.energy_error)
        assert abs(rate(errs[0], errs[1]) - 2.0) < 0.5

    def test_biharmonic_simply_supported_rate(self):
        # Laplace^2 (sin x sin y) = 4 sin x sin y, u = Lap u = 0 on the boundary
        u = sine_product_field((1, 1), 1.0, 1.0)
        errs = []
        for n in (8, 16):
            mesh = generate_square_tri(n)
            space = build_space(mesh, build_topology(mesh), 2)
            cfg = FormConfig(problem="biharmonic", bc="simply_supported", m=2)
            res = solve_source(space, cfg, lambda pts: 4.0 * u.value(pts), exact=u)
            errs.append(res.energy_error)
        assert abs(rate(errs[0], errs[1]) - 1.0) < 0.5

    def test_indefinite_stiffness_raises(self):
        # with a vanishing penalty the stiffness is indefinite; a pivoting
        # solve would return an answer, the SPD factor refuses
        mesh = generate_square_tri(8)
        space = build_space(mesh, build_topology(mesh), 2)
        cfg = FormConfig(problem="laplace", m=2, eta=1e-9)
        with pytest.raises(PenaltyTooSmall):
            solve_source(space, cfg, lambda pts: np.ones(len(pts)))


class TestAboveExact:
    def test_flags_shape(self, square8_m2):
        from patchdg.analysis import above_exact_flags

        space, cfg, result, M = square8_m2
        exact = exact_spectrum("square_pi", 1, 10)
        flags = above_exact_flags(exact, result, 10)
        assert flags.shape == (10,)
        assert flags.dtype == bool
