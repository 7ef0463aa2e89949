"""Generalized symmetric eigensolves A x = lambda M x.

Two routes: a dense full-spectrum path (Cholesky reduction to a standard
symmetric problem, used by the reliable-count experiment which consumes
large spectrum fractions) and a Lanczos path for the k smallest pairs (A
factored once as P^T A P = U^T U by a band Cholesky, ARPACK's Lanczos
with full reorthogonalization on the standard symmetric operator
U^-T P^T M P U^-1, whose largest eigenvalues are the reciprocals of the
smallest lambda).  :func:`solve_smallest` is the one place that picks
between them.  The same SPD factor solves the source problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse.linalg as spla

from .errors import MassNotSPD, NoConvergence, PenaltyTooSmall

DENSE_THRESHOLD = 6000


@dataclass
class EigenResult:
    values: np.ndarray     # ascending
    vectors: np.ndarray    # (n, k), M-orthonormal columns
    residuals: np.ndarray  # ||A x - lambda M x|| / ||A x|| per pair


def _fix_signs(vectors):
    for j in range(vectors.shape[1]):
        i = np.argmax(np.abs(vectors[:, j]))
        if vectors[i, j] < 0:
            vectors[:, j] = -vectors[:, j]
    return vectors


def _residuals(A, M, values, vectors):
    """||A x - lambda M x|| / ||A x|| per pair, and those ||A x|| (0 read as 1)."""
    AX = A @ vectors
    den = np.linalg.norm(AX, axis=0)
    den[den == 0.0] = 1.0
    return np.linalg.norm(AX - (M @ vectors) * values[None, :], axis=0) / den, den


def solve_dense(A, M):
    """All eigenpairs of the sparse pencil (A, M); M must be SPD."""
    n = A.shape[0]
    if n > DENSE_THRESHOLD:
        raise ValueError(f"dense path limited to n <= {DENSE_THRESHOLD}, got {n}")
    try:
        values, vectors = la.eigh(A.toarray(), M.toarray())  # factors M itself
    except np.linalg.LinAlgError as exc:
        if "B is not positive definite" in str(exc):
            raise MassNotSPD("mass matrix is not positive definite") from None
        raise NoConvergence(f"dense eigensolve failed: {exc}") from None
    norm_a = spla.norm(A, np.inf)
    if values[0] <= -1e-8 * norm_a:
        raise PenaltyTooSmall(
            f"stiffness is indefinite (lambda_min = {values[0]:.3e}); raise the penalties"
        )
    vectors = _fix_signs(vectors)
    return EigenResult(values, vectors, _residuals(A, M, values, vectors)[0])


class _BandCholesky:
    """P^T A P = U^T U with U upper triangular in LAPACK band storage.

    ``perm[i]`` is the input DOF at position i of the band ordering P.
    """

    def __init__(self, perm, factor):
        self.perm, self.factor = perm, factor
        self.pbtrs, self.tbtrs = la.get_lapack_funcs(("pbtrs", "tbtrs"), (factor,))
        self.tbsv = la.get_blas_funcs("tbsv", (factor,))

    def solve(self, b):
        """A^-1 b."""
        x, _ = self.pbtrs(self.factor, b[self.perm])
        out = np.empty_like(x)
        out[self.perm] = x
        return out

    def congruence(self, M):
        """The symmetric operator U^-T P^T M P U^-1, applied in place of A^-1 M."""
        u = self.factor.shape[0] - 1
        x = np.empty(self.factor.shape[1])

        def matvec(y):
            x[self.perm] = self.tbsv(u, self.factor, y.ravel())
            return self.tbsv(u, self.factor, (M @ x)[self.perm], trans=1, overwrite_x=1)

        return spla.LinearOperator(M.shape, matvec=matvec, dtype=float)

    def back(self, Y):
        """P U^-1 Y, the eigenvectors of (A, M) from those of the congruence."""
        Z, _ = self.tbtrs(self.factor, Y)
        out = np.empty_like(Z)
        out[self.perm] = Z
        return out


def _factor_spd(A):
    """Band Cholesky of A, in the narrower of the input and RCM orderings.

    The DOFs are elements and the stencil is a patch, so the symmetric CSR
    matrix A is a band in a good element numbering, which LAPACK's blocked
    band Cholesky (pbtrf) factors.  Reverse Cuthill-McKee finds such a
    numbering for any mesh; the input numbering is kept when its measured
    half-bandwidth is strictly smaller (the generated squares, whose
    row-by-row numbering beats RCM), and RCM is used otherwise (the cubes).
    The factor exists only for an SPD matrix: an indefinite or singular
    stiffness raises PenaltyTooSmall, like the dense path.
    """
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    n = A.shape[0]
    C = A.tocoo()
    perm = reverse_cuthill_mckee(A, symmetric_mode=True)
    where = np.empty_like(perm)
    where[perm] = np.arange(n)
    i, j = where[C.row], where[C.col]
    if np.max(np.abs(C.row - C.col), initial=0) < np.max(np.abs(i - j), initial=0):
        perm, i, j = np.arange(n), C.row, C.col
    upper = i <= j
    i, j = i[upper], j[upper]
    u = int(np.max(j - i, initial=0))
    band = np.zeros((u + 1, n), order="F")
    band[u + i - j, j] = C.data[upper]
    pbtrf = la.get_lapack_funcs("pbtrf", (band,))
    factor, info = pbtrf(band, overwrite_ab=True)
    if info > 0:
        raise PenaltyTooSmall(
            f"stiffness is not positive definite (leading minor {info} of the band "
            f"ordering, DOF {perm[info - 1]}); raise the penalties"
        )
    return _BandCholesky(perm, factor)


def solve_smallest(A, M, k, tol=1e-9):
    """The k smallest eigenpairs, by Lanczos on the Cholesky-symmetrised inverse.

    Small pencils (n <= 32) and requests for more than a quarter of the
    spectrum take the dense path instead.  Otherwise A is factored once
    by :func:`_factor_spd` as P^T A P = U^T U, which refuses an indefinite
    or singular stiffness.  The k largest eigenvalues mu of the standard
    symmetric operator U^-T P^T M P U^-1 are the reciprocals of the k
    smallest lambda (Ericsson and Ruhe's spectral transformation at zero),
    so each Lanczos step is a triangular band sweep, a product with M and
    a transposed sweep, with plain Euclidean inner products.  A unit
    eigenvector y gives x = P U^-1 y sqrt(lambda), of unit M-norm.
    The Lanczos start vector is seeded, so reruns give identical results.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = A.shape[0]
    if k > n:
        raise ValueError(f"requested {k} pairs from an n = {n} pencil")
    if n <= 32 or k > n // 4:
        res = solve_dense(A, M)
        return EigenResult(res.values[:k], res.vectors[:, :k], res.residuals[:k])

    chol = _factor_spd(A)
    try:
        mu, Y = spla.eigsh(
            chol.congruence(M),
            k=k,
            which="LA",
            v0=np.random.default_rng(0).standard_normal(n),
            tol=0.0,
            maxiter=50 * k,
        )
    except spla.ArpackNoConvergence as exc:
        raise NoConvergence(f"Lanczos did not converge: {exc}") from None

    if mu.min() <= 0.0:
        # U^-T P^T M P U^-1 has the inertia of M
        raise MassNotSPD("mass matrix is not positive definite")
    order = np.argsort(-mu)
    values = 1.0 / mu[order]
    vectors = _fix_signs(chol.back(Y[:, order]) * np.sqrt(values))
    res, den = _residuals(A, M, values, vectors)
    # the roundoff floor of the relative residual: evaluating A x - lambda M x
    # cancels to eps * ||A|| * ||x||, so for small eigenvalues the quotient
    # cannot reach arbitrary tolerances no matter how converged the pair is
    floor = np.finfo(float).eps * spla.norm(A, np.inf) * np.linalg.norm(vectors, axis=0) / den
    bound = np.maximum(tol, 100.0 * floor)
    if np.any(res > bound):
        raise NoConvergence(
            f"residuals up to {res.max():.3e} exceed the requested tolerance {tol:g}"
        )
    return EigenResult(values, vectors, res)
