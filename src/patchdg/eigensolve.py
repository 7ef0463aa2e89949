"""Generalized symmetric eigensolves A x = lambda M x.

Two routes: a dense full-spectrum path (Cholesky reduction to a standard
symmetric problem, used by the reliable-count experiment which consumes
large spectrum fractions) and a Lanczos path for the k smallest pairs (A
factored once as P^T A P = L L^T by a band Cholesky, ARPACK's Lanczos
with full reorthogonalization on the standard symmetric operator
L^-1 P^T M P L^-T, whose largest eigenvalues are the reciprocals of the
smallest lambda).  :func:`dense_path` is the one rule that picks between
them; :func:`solve_smallest` follows it, and callers that know the pencil's
size ask it before they build the pencil.  The same SPD factor gates both
and solves the source problem.
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
    """Negate, in place, each column whose first largest-magnitude entry is negative."""
    top = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    vectors *= np.where(top < 0, -1.0, 1.0)
    return vectors


def _residuals(A, M, values, vectors):
    """||A x - lambda M x|| / ||A x|| per pair, and those ||A x|| (0 read as 1)."""
    AX = A @ vectors
    den = np.linalg.norm(AX, axis=0)
    den[den == 0.0] = 1.0
    return np.linalg.norm(AX - (M @ vectors) * values[None, :], axis=0) / den, den


def dense_path(n, k):
    """Whether :func:`solve_smallest` takes the dense path for the k
    smallest pairs of an n x n pencil: small pencils (n <= 32) and requests
    for more than a quarter of the spectrum do.  A dense pencil larger than
    ``DENSE_THRESHOLD`` is refused with ValueError, so a caller that knows
    n and k can refuse the request before it builds the pencil."""
    dense = n <= 32 or k > n // 4
    if dense and n > DENSE_THRESHOLD:
        raise ValueError(f"dense path limited to n <= {DENSE_THRESHOLD}, got {n}")
    return dense


def solve_dense(A, M):
    """All eigenpairs of the sparse pencil (A, M); A is refused first by
    the shared factor :func:`_factor_spd`, then ``eigh`` factors M."""
    dense_path(A.shape[0], A.shape[0])
    _factor_spd(A)
    try:
        values, vectors = la.eigh(A.toarray(), M.toarray())  # factors M itself
    except np.linalg.LinAlgError as exc:
        if "B is not positive definite" in str(exc):
            raise MassNotSPD("mass matrix is not positive definite") from None
        raise NoConvergence(f"dense eigensolve failed: {exc}") from None
    vectors = _fix_signs(vectors)
    return EigenResult(values, vectors, _residuals(A, M, values, vectors)[0])


class _BandCholesky:
    """P^T A P = L L^T with L lower triangular in LAPACK's lower band storage.

    ``perm[i]`` is the input DOF at position i of the band ordering P.
    """

    def __init__(self, perm, factor):
        self.perm, self.factor = perm, factor
        self.tbtrs = la.get_lapack_funcs("tbtrs", (factor,))
        self.tbsv = la.get_blas_funcs("tbsv", (factor,))

    def solve(self, b):
        """A^-1 b = P L^-T L^-1 P^T b."""
        return self.back(self.tbsv(self.factor.shape[0] - 1, self.factor, b[self.perm], lower=1))

    def congruence(self, M):
        """The symmetric operator L^-1 P^T M P L^-T, applied in place of A^-1 M."""
        u = self.factor.shape[0] - 1
        x = np.empty(self.factor.shape[1])

        def matvec(y):
            x[self.perm] = self.tbsv(u, self.factor, y.ravel(), lower=1, trans=1)
            return self.tbsv(u, self.factor, (M @ x)[self.perm], lower=1, overwrite_x=1)

        return spla.LinearOperator(M.shape, matvec=matvec, dtype=float)

    def back(self, Y):
        """P L^-T Y, the eigenvectors of (A, M) from those of the congruence."""
        Z, _ = self.tbtrs(self.factor, Y, uplo="L", trans="T")
        out = np.empty_like(Z)
        out[self.perm] = Z
        return out


def _factor_spd(A):
    """Band Cholesky of A, in the narrower of the input and RCM orderings.

    The DOFs are elements and the stencil is a patch, so the symmetric CSR
    matrix A is a band in a good element numbering, which LAPACK's blocked
    band Cholesky (pbtrf) factors from its lower band, the faster of its two
    storage forms.  Reverse Cuthill-McKee finds such a numbering for any
    mesh; the input numbering is kept when its measured half-bandwidth is
    strictly smaller (the generated squares, whose row-by-row numbering
    beats RCM), and RCM is used otherwise (the cubes).  The factor exists
    only for an SPD matrix: an indefinite or singular stiffness raises
    PenaltyTooSmall, on both eigensolver paths.  Any sparse format is taken
    (RCM needs CSR).
    """
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    A = A.tocsr()
    n = A.shape[0]
    C = A.tocoo()
    perm = reverse_cuthill_mckee(A, symmetric_mode=True)
    where = np.empty_like(perm)
    where[perm] = np.arange(n)
    i, j = where[C.row], where[C.col]
    if np.max(np.abs(C.row - C.col), initial=0) < np.max(np.abs(i - j), initial=0):
        perm, i, j = np.arange(n), C.row, C.col
    lower = i >= j
    i, j = i[lower], j[lower]
    u = int(np.max(i - j, initial=0))
    band = np.zeros((u + 1, n), order="F")
    band[i - j, j] = C.data[lower]
    pbtrf = la.get_lapack_funcs("pbtrf", (band,))
    factor, info = pbtrf(band, lower=1, overwrite_ab=True)
    if info > 0:
        raise PenaltyTooSmall(
            f"stiffness is not positive definite (leading minor {info} of the band "
            f"ordering, DOF {perm[info - 1]}); raise the penalties"
        )
    return _BandCholesky(perm, factor)


def solve_smallest(A, M, k, tol=1e-9):
    """The k smallest eigenpairs, by Lanczos on the Cholesky-symmetrised inverse.

    Small pencils (n <= 32) and requests for more than a quarter of the
    spectrum take the dense path instead (:func:`dense_path`).  Otherwise
    A is factored once by :func:`_factor_spd` as P^T A P = L L^T, which
    refuses an indefinite or singular stiffness.  The k largest
    eigenvalues mu of the standard symmetric operator L^-1 P^T M P L^-T
    are the reciprocals of the k smallest lambda (Ericsson and Ruhe's
    spectral transformation at zero), so each Lanczos step is a triangular
    band sweep, a product with M and a transposed sweep, with plain
    Euclidean inner products.  A unit eigenvector y gives
    x = P L^-T y sqrt(lambda), of unit M-norm.
    The Lanczos start vector is seeded, so reruns give identical results.

    Lanczos sees M only through those k mu (the operator has M's inertia):
    with A = diag(1..n) and M = diag(1, ..., 1, -1), MassNotSPD is raised
    at n = 20 (dense ``eigh`` factors M) but k = 3 at n = 40 gives
    [1, 2, 3].  Pipeline masses R^T M_DG R are SPD when R has full column
    rank; a factor of M would cost about as much as the one of A.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = A.shape[0]
    if k > n:
        raise ValueError(f"requested {k} pairs from an n = {n} pencil")
    if dense_path(n, k):
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
        # L^-1 P^T M P L^-T has the inertia of M
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
