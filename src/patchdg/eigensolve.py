"""Generalized symmetric eigensolves A x = lambda M x.

Two routes: a dense full-spectrum path (Cholesky reduction to a standard
symmetric problem, used by the reliable-count experiment which consumes
large spectrum fractions) and a shift-invert Lanczos path for the k
smallest pairs (A factored once, Krylov iteration with M inner products
and full reorthogonalization via ARPACK).  :func:`solve_smallest` is the
one place that picks between them.
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
    Ad, Md = A.toarray(), M.toarray()
    try:
        np.linalg.cholesky(Md)
    except np.linalg.LinAlgError:
        raise MassNotSPD("mass matrix is not positive definite") from None
    values, vectors = la.eigh(Ad, Md)
    norm_a = spla.norm(A, np.inf)
    if values[0] <= -1e-8 * norm_a:
        raise PenaltyTooSmall(
            f"stiffness is indefinite (lambda_min = {values[0]:.3e}); raise the penalties"
        )
    vectors = _fix_signs(vectors)
    return EigenResult(values, vectors, _residuals(A, M, values, vectors)[0])


def _factor_spd(A):
    """Sparse LU of A with equal row and column permutations.

    Then P A P^T = L U with U = D L^T, so by Sylvester's law of inertia A
    has as many negative eigenvalues as U has negative diagonal entries.
    An indefinite or singular stiffness raises PenaltyTooSmall, like the
    dense path.
    """
    try:
        lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU reports an exactly singular factor
        raise PenaltyTooSmall(f"stiffness is singular ({exc}); raise the penalties") from None
    negative = int(np.sum(lu.U.diagonal() <= 0.0))
    if negative or not np.array_equal(lu.perm_r, lu.perm_c):
        raise PenaltyTooSmall(
            f"stiffness is indefinite ({negative} non-positive pivots); raise the penalties"
        )
    return lu


def solve_smallest(A, M, k, tol=1e-9):
    """The k smallest eigenpairs by shift-invert at zero.

    Small pencils (n <= 32) and requests for more than a quarter of the
    spectrum take the dense path instead.  The Lanczos start vector
    is seeded, so reruns give identical results.
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
