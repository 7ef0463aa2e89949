"""Generalized symmetric eigensolves A x = lambda M x.

Two routes: a dense full-spectrum path (Cholesky reduction to a standard
symmetric problem, used by the reliable-count experiment which consumes
large spectrum fractions) and a shift-invert Lanczos path for the k
smallest pairs (A factored once by a band Cholesky after a reverse
Cuthill-McKee ordering, Krylov iteration with M inner products and full
reorthogonalization via ARPACK).  :func:`solve_smallest` is the one place
that picks between them.  The same SPD factor solves the source problem.
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
    """A = P^T L L^T P in LAPACK upper band storage; ``solve`` applies A^-1."""

    def __init__(self, perm, factor):
        self.perm, self.factor = perm, factor
        self.pbtrs = la.get_lapack_funcs("pbtrs", (factor,))

    def solve(self, b):
        x, _ = self.pbtrs(self.factor, b[self.perm])
        out = np.empty_like(x)
        out[self.perm] = x
        return out


def _factor_spd(A):
    """Band Cholesky of A after a reverse Cuthill-McKee ordering.

    The DOFs are elements and the stencil is a patch, so RCM packs the
    symmetric CSR matrix A into a narrow band, which LAPACK's blocked band
    Cholesky (pbtrf) factors.  The factor exists only for an SPD matrix:
    an indefinite or singular stiffness raises PenaltyTooSmall, like the
    dense path.
    """
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    perm = reverse_cuthill_mckee(A, symmetric_mode=True)
    where = np.empty_like(perm)
    where[perm] = np.arange(len(perm))
    C = A.tocoo()
    i, j = where[C.row], where[C.col]
    upper = i <= j
    i, j = i[upper], j[upper]
    u = int(np.max(j - i, initial=0))
    band = np.zeros((u + 1, A.shape[0]), order="F")
    band[u + i - j, j] = C.data[upper]
    pbtrf = la.get_lapack_funcs("pbtrf", (band,))
    factor, info = pbtrf(band, overwrite_ab=True)
    if info > 0:
        raise PenaltyTooSmall(
            f"stiffness is not positive definite (leading minor {info} of the RCM "
            f"ordering, DOF {perm[info - 1]}); raise the penalties"
        )
    return _BandCholesky(perm, factor)


def solve_smallest(A, M, k, tol=1e-9):
    """The k smallest eigenpairs by shift-invert at zero.

    Small pencils (n <= 32) and requests for more than a quarter of the
    spectrum take the dense path instead.  Otherwise A is factored once
    by :func:`_factor_spd`, which refuses an indefinite or singular
    stiffness, and each Lanczos step applies A^-1 through that factor.
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

    lu = _factor_spd(A)
    try:
        values, vectors = spla.eigsh(
            A,
            k=k,
            M=M,
            sigma=0.0,
            which="LM",
            v0=np.random.default_rng(0).standard_normal(n),
            tol=0.0,
            maxiter=50 * k,
            OPinv=spla.LinearOperator((n, n), matvec=lu.solve, dtype=float),
        )
    except spla.ArpackNoConvergence as exc:
        raise NoConvergence(f"shift-invert Lanczos did not converge: {exc}") from None

    order = np.argsort(values)
    values, vectors = values[order], vectors[:, order]
    vectors = _fix_signs(vectors)
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
