import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from patchdg import eigensolve
from patchdg.assembly import FormConfig, assemble_biharmonic, assemble_laplace, assemble_mass
from patchdg.eigensolve import _factor_spd, solve_dense, solve_smallest
from patchdg.errors import MassNotSPD, NoConvergence, PenaltyTooSmall
from patchdg.mesh import build_topology, generate_cube_tet, generate_square_tri
from patchdg.reconstruction import build_space


class TestDense:
    def test_diagonal(self):
        res = solve_dense(sp.diags([1.0, 4.0]), sp.eye(2))
        assert np.allclose(res.values, [1.0, 4.0])
        assert np.allclose(np.abs(res.vectors), np.eye(2), atol=1e-14)

    def test_2x2_closed_form(self):
        A = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        res = solve_dense(A, sp.eye(2))
        assert np.allclose(res.values, [1.0, 3.0])

    def test_generalized_diagonal(self):
        A = sp.diags([2.0, 2.0])
        M = sp.diags([2.0, 1.0])
        res = solve_dense(A, M)
        assert np.allclose(res.values, [1.0, 2.0])

    def test_mass_not_spd(self):
        with pytest.raises(MassNotSPD):
            solve_dense(sp.eye(2), sp.diags([1.0, -1.0]))

    def test_other_lapack_failure_is_no_convergence(self, monkeypatch):
        # LinAlgError is a ValueError, which the CLI would report as exit 2
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("the algorithm failed to converge")
        monkeypatch.setattr(eigensolve.la, "eigh", fail)
        with pytest.raises(NoConvergence):
            solve_dense(sp.eye(2), sp.eye(2))

    def test_m_orthonormal(self):
        rng = np.random.default_rng(0)
        Q = rng.standard_normal((12, 12))
        A = sp.csr_matrix(Q @ Q.T + 12 * np.eye(12))
        W = rng.standard_normal((12, 12))
        M = sp.csr_matrix(W @ W.T + 12 * np.eye(12))
        res = solve_dense(A, M)
        G = res.vectors.T @ (M @ res.vectors)
        assert np.max(np.abs(G - np.eye(12))) < 1e-8
        assert np.all(res.residuals < 1e-10)
        assert np.all(res.values > 0)

    def test_sign_convention(self):
        res = solve_dense(sp.diags([3.0, 5.0]), sp.eye(2))
        for j in range(2):
            i = np.argmax(np.abs(res.vectors[:, j]))
            assert res.vectors[i, j] > 0


@pytest.fixture(scope="module")
def pencil():
    mesh = generate_square_tri(8)
    space = build_space(mesh, build_topology(mesh), 1)
    A = assemble_laplace(space, FormConfig(problem="laplace", m=1))
    M = assemble_mass(space)
    return A, M


class TestSmallest:
    def test_agrees_with_dense(self, pencil):
        A, M = pencil
        dense = solve_dense(A, M)
        it = solve_smallest(A, M, 10)
        rel = np.abs(it.values - dense.values[:10]) / np.abs(dense.values[:10])
        assert rel.max() < 1e-12

    def test_biharmonic_cube_agrees_with_dense(self, monkeypatch):
        mesh = generate_cube_tet(2)
        space = build_space(mesh, build_topology(mesh), 2)
        A = assemble_biharmonic(space, FormConfig(problem="biharmonic", bc="simply_supported", m=2))
        M = assemble_mass(space)
        assert A.shape[0] == 48
        dense = solve_dense(A, M)

        def refuse(*args):
            raise AssertionError("k = n/4 must take the Lanczos path")
        monkeypatch.setattr(eigensolve, "solve_dense", refuse)
        it = solve_smallest(A, M, 12)
        rel = np.abs(it.values - dense.values[:12]) / np.abs(dense.values[:12])
        assert rel.max() < 1e-12
        G = it.vectors.T @ (M @ it.vectors)
        assert np.max(np.abs(G - np.eye(12))) < 1e-12

    def test_variational_bound(self, pencil):
        A, M = pencil
        res = solve_smallest(A, M, 1)
        lam1 = res.values[0]
        rng = np.random.default_rng(42)
        for _ in range(1000):
            v = rng.standard_normal(A.shape[0])
            rq = float(v @ (A @ v)) / float(v @ (M @ v))
            assert rq >= lam1 - 1e-9 * abs(lam1)

    def test_k_equals_n_falls_back_to_dense(self):
        A = sp.diags([1.0, 2.0, 3.0, 4.0])
        res = solve_smallest(A, sp.eye(4), 4)
        assert np.allclose(res.values, [1, 2, 3, 4])

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            solve_smallest(sp.eye(4), sp.eye(4), 5)

    def test_ascending_and_m_orthonormal(self, pencil):
        A, M = pencil
        res = solve_smallest(A, M, 6)
        assert np.all(np.diff(res.values) >= -1e-12)
        G = res.vectors.T @ (M @ res.vectors)
        assert np.max(np.abs(G - np.eye(6))) < 1e-12

    def test_residual_tolerance(self, pencil):
        A, M = pencil
        res = solve_smallest(A, M, 5, tol=1e-9)
        assert np.all(res.residuals <= 1e-8)

    def test_indefinite_stiffness_raises(self):
        # Lanczos on the inverse finds only the eigenvalues nearest 0, so
        # the negative ones must be caught by the factor, which exists only
        # for an SPD stiffness
        mesh = generate_square_tri(8)
        space = build_space(mesh, build_topology(mesh), 2)
        A = assemble_laplace(space, FormConfig(problem="laplace", m=2, eta=1e-9))
        M = assemble_mass(space)
        with pytest.raises(PenaltyTooSmall):
            solve_dense(A, M)
        with pytest.raises(PenaltyTooSmall):
            solve_smallest(A, M, 5)

    def test_negative_mass_raises(self, pencil):
        # U^-T P^T M P U^-1 has the inertia of M: no positive mu, no pair
        A, M = pencil
        with pytest.raises(MassNotSPD):
            solve_smallest(A, -M, 3)


class TestFactor:
    @pytest.mark.parametrize("spec, form", [
        ("square:8", FormConfig(problem="laplace", m=2)),
        ("cube:2", FormConfig(problem="biharmonic", bc="simply_supported", m=2)),
    ])
    def test_matches_dense_solve(self, spec, form):
        mesh = generate_square_tri(8) if spec == "square:8" else generate_cube_tet(2)
        space = build_space(mesh, build_topology(mesh), 2)
        A = (assemble_laplace if form.p == 1 else assemble_biharmonic)(space, form)
        b = np.random.default_rng(3).standard_normal(A.shape[0])
        x = _factor_spd(A).solve(b)
        y = np.linalg.solve(A.toarray(), b)
        assert x.shape == b.shape
        assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))

    @pytest.mark.parametrize("shuffle", [False, True], ids=["generated", "permuted"])
    def test_narrower_ordering(self, shuffle):
        mesh = generate_square_tri(16)
        space = build_space(mesh, build_topology(mesh), 2)
        A = assemble_laplace(space, FormConfig(problem="laplace", m=2))
        if shuffle:
            p = np.random.default_rng(7).permutation(A.shape[0])
            A = A[p][:, p].tocsr()

        def half_bandwidth(perm):
            where = np.empty_like(perm)
            where[perm] = np.arange(len(perm))
            C = A.tocoo()
            return int(np.max(np.abs(where[C.row] - where[C.col])))

        natural = half_bandwidth(np.arange(A.shape[0]))
        rcm = half_bandwidth(reverse_cuthill_mckee(A, symmetric_mode=True))
        chol = _factor_spd(A)
        assert half_bandwidth(chol.perm) == chol.factor.shape[0] - 1 <= min(natural, rcm)
        b = np.random.default_rng(3).standard_normal(A.shape[0])
        y = np.linalg.solve(A.toarray(), b)
        assert np.max(np.abs(chol.solve(b) - y)) <= 1e-12 * np.max(np.abs(y))

    def test_singular_raises(self):
        # an SPD pattern with one zero row and column: the factor must stop
        # at that pivot instead of dividing by zero
        A = sp.diags([[-1.0] * 9, [2.0] * 10, [-1.0] * 9], [-1, 0, 1]).tolil()
        A[4, :] = 0.0
        A[:, 4] = 0.0
        with pytest.raises(PenaltyTooSmall):
            _factor_spd(sp.csr_matrix(A))


class TestInvariances:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)

        def permuted(n):
            mesh = generate_square_tri(n)
            space = build_space(mesh, build_topology(mesh), 1)
            A = assemble_laplace(space, FormConfig(problem="laplace", m=1))
            M = assemble_mass(space)
            perm = rng.permutation(A.shape[0])
            P = sp.csr_matrix((np.ones(len(perm)), (np.arange(len(perm)), perm)))
            return A, M, P @ A @ P.T, P @ M @ P.T

        A, M, Ap, Mp = permuted(4)
        v0 = solve_dense(A, M).values
        v1 = solve_dense(Ap, Mp).values
        assert np.max(np.abs(v0 - v1) / np.maximum(np.abs(v0), 1e-12)) < 1e-9
        # the sparse path (n > 32) orders the DOFs itself, so element
        # numbering does not reach its eigenvalues
        A, M, Ap, Mp = permuted(8)
        s0 = solve_smallest(A, M, 5).values
        s1 = solve_smallest(Ap, Mp, 5).values
        assert np.max(np.abs(s0 - s1) / np.abs(s0)) < 1e-12

    def test_rayleigh_identity(self):
        mesh = generate_square_tri(4)
        space = build_space(mesh, build_topology(mesh), 1)
        A = assemble_laplace(space, FormConfig(problem="laplace", m=1))
        M = assemble_mass(space)
        res = solve_dense(A, M)
        for i in range(0, A.shape[0], 7):
            x = res.vectors[:, i]
            rq = (x @ A @ x) / (x @ M @ x)
            assert abs(rq - res.values[i]) <= 1e-10 * max(abs(res.values[i]), 1.0)
