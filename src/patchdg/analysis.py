"""Exact spectra, eigenpair matching, error norms, rates, reliable counts.

The two model domains with closed-form spectra are the [0, pi]^2 square
(second order: i^2 + j^2; fourth order, simply supported: (i^2 + j^2)^2)
and the unit cube (with pi^2 / pi^4 factors).  Discrete eigenvalues are
paired with exact ones by sorted rank; a multiple exact eigenvalue is
matched by the best linear combination of its discrete cluster in the
energy inner product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import (
    AnalyticField,
    assemble_biharmonic,
    assemble_laplace,
    assemble_mass,
    energy_norm,
    energy_product,  # noqa: F401  (perfbench tests expect this binding)
    gram,
    load_vector,
    measure,
)
from .eigensolve import _factor_spd, solve_dense, solve_smallest
from .errors import ClusterAmbiguous
from .reconstruction import build_space


# --------------------------------------------------------------------------
# exact spectra
# --------------------------------------------------------------------------

@dataclass
class ExactSpectrum:
    domain: str
    p: int
    values: np.ndarray  # ascending, multiplicity expanded
    labels: list        # index tuple per value

    def multiplicity(self, index):
        """Multiplicity of the eigenvalue holding 1-based rank ``index``."""
        lam = self.values[index - 1]
        return int(np.sum(np.isclose(self.values, lam, rtol=1e-12, atol=0.0)))

    def cluster_start(self, index):
        """1-based rank of the first member of the cluster at ``index``."""
        lam = self.values[index - 1]
        return int(np.argmax(np.isclose(self.values, lam, rtol=1e-12, atol=0.0))) + 1

    def eigenfunction(self, label):
        return _eigenfunction(self.domain, label)


def sine_product_field(freqs, scale=1.0, amplitude=1.0):
    """amplitude * prod_d sin(scale * freqs[d] * x_d) with derivatives."""
    waves = np.asarray(freqs, dtype=float) * scale
    k2 = float(np.sum(waves ** 2))
    dim = len(waves)

    def value(pts):
        pts = np.atleast_2d(pts)
        out = np.full(len(pts), float(amplitude))
        for d in range(dim):
            out = out * np.sin(waves[d] * pts[:, d])
        return out

    def gradient(pts):
        pts = np.atleast_2d(pts)
        sines = [np.sin(waves[d] * pts[:, d]) for d in range(dim)]
        coses = [np.cos(waves[d] * pts[:, d]) for d in range(dim)]
        out = np.empty((len(pts), dim))
        for d in range(dim):
            col = np.full(len(pts), amplitude * waves[d])
            for e in range(dim):
                col = col * (coses[e] if e == d else sines[e])
            out[:, d] = col
        return out

    def laplacian(pts):
        return -k2 * value(pts)

    return AnalyticField(value, gradient, laplacian)


def _eigenfunction(domain, label):
    if domain == "square_pi":
        # L2-normalized on [0, pi]^2
        return sine_product_field(label, 1.0, 2.0 / np.pi)
    if domain == "cube_unit":
        return sine_product_field(label, np.pi, math.sqrt(8.0))
    raise ValueError(f"unknown domain {domain!r}")


def exact_spectrum(domain, p, count):
    """First ``count`` exact eigenvalues with labels, ascending."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if domain not in ("square_pi", "cube_unit"):
        raise ValueError(f"unknown domain {domain!r}")
    dim = 2 if domain == "square_pi" else 3
    bound = max(2, math.isqrt(2 * count) + 2)
    while True:
        pairs = []
        ranges = [range(1, bound + 1)] * dim
        if dim == 2:
            for i in ranges[0]:
                for j in ranges[1]:
                    pairs.append((i * i + j * j, (i, j)))
        else:
            for i in ranges[0]:
                for j in ranges[1]:
                    for k in ranges[2]:
                        pairs.append((i * i + j * j + k * k, (i, j, k)))
        pairs.sort(key=lambda t: (t[0], t[1]))
        if len(pairs) >= count and pairs[count - 1][0] <= bound * bound:
            break
        bound *= 2
    base = np.array([v for v, _ in pairs[:count]], dtype=float)
    labels = [lab for _, lab in pairs[:count]]
    if domain == "square_pi":
        values = base if p == 1 else base ** 2
    else:
        values = base * np.pi ** 2 if p == 1 else base ** 2 * np.pi ** 4
    return ExactSpectrum(domain, p, values, labels)


# --------------------------------------------------------------------------
# matching and errors
# --------------------------------------------------------------------------

@dataclass
class MatchedCluster:
    index: int           # 1-based exact rank of the cluster head
    size: int
    discrete_values: np.ndarray
    vector: np.ndarray   # best span combination, unnormalized
    values: list         # per measure() term: (R vector and the exact field, weights)


def match_cluster(space, p, exact, index, result):
    """Locate the discrete cluster converging to exact eigenvalue ``index``
    (1-based) and the span member closest to the exact eigenfunction in the
    energy inner product.  Its one :func:`measure` pass also gives the values
    that :func:`eigen_errors` integrates."""
    k = exact.multiplicity(index)
    start = exact.cluster_start(index)
    if len(result.values) < start + k - 1:
        raise ValueError(f"result holds {len(result.values)} pairs, need {start + k - 1}")
    lam = exact.values[index - 1]
    cluster = result.values[start - 1:start + k - 1]
    spread = float(cluster.max() - cluster.min())
    gaps = [abs(v - lam) for v in exact.values if not np.isclose(v, lam, rtol=1e-12)]
    if gaps and k > 1 and min(gaps) < 2.0 * spread:
        raise ClusterAmbiguous(
            f"exact gap {min(gaps):.3e} < 2 x discrete cluster spread {spread:.3e}"
        )

    u = exact.eigenfunction(exact.labels[index - 1])
    vecs = result.vectors[:, start - 1:start - 1 + k]
    terms = measure(space, p, [*vecs.T, u], l2=True)
    G = gram(terms[:-1])
    coef = np.linalg.solve(G[:k, :k], G[:k, k])
    values = [(np.stack([np.tensordot(coef, F[:k], 1), F[k]]), w) for F, w in terms]
    return MatchedCluster(start, k, cluster.copy(), vecs @ coef, values)


def eigen_errors(space, p, exact, index, result, M, matched=None):
    """(relative eigenvalue error, energy eigenfunction error) at ``index``.

    The discrete eigenfunction is the matched span combination, rescaled to
    unit L2 norm with its sign fixed by a positive inner product against
    the exact eigenfunction.  The inner product and the error are integrals
    of the values that ``matched`` keeps, so no further pass is made.
    """
    if matched is None:
        matched = match_cluster(space, p, exact, index, result)
    lam = exact.values[index - 1]
    lam_h = result.values[index - 1]
    value_error = abs(lam - lam_h) / abs(lam)

    x = matched.vector
    nrm = math.sqrt(float(x @ (M @ x)))
    if nrm == 0.0:
        raise ValueError("matched vector is zero")
    *terms, l2 = matched.values
    scale = (-1.0 if gram([l2])[0, 1] < 0.0 else 1.0) / nrm
    G = gram([(F[1:] - scale * F[:1], w) for F, w in terms])
    return value_error, float(np.sqrt(max(G[0, 0], 0.0)))


def above_exact_flags(exact, result, count=10):
    """Per-index booleans: computed eigenvalue exceeds its exact partner."""
    count = min(count, len(result.values), len(exact.values))
    return result.values[:count] > exact.values[:count]


# --------------------------------------------------------------------------
# convergence studies
# --------------------------------------------------------------------------

@dataclass
class ConvergenceRow:
    scale: float   # mesh size h
    dofs: int
    value: float
    error: float
    order: float | None


@dataclass
class StudyResult:
    eigenvalue_rows: list
    eigenfunction_rows: list

    def eigenvalue_orders(self):
        return [r.order for r in self.eigenvalue_rows if r.order is not None]

    def eigenfunction_orders(self):
        return [r.order for r in self.eigenfunction_rows if r.order is not None]


def _assemble(space, config):
    """Stiffness matrix of the configured form."""
    if config.problem == "laplace":
        return assemble_laplace(space, config)
    return assemble_biharmonic(space, config)


def compute_spectrum(space, config, k=None, tol=1e-9):
    """Assemble and solve; full spectrum when k is None, else the
    min(k, N) smallest pairs."""
    A, M = _assemble(space, config), assemble_mass(space)
    if k is None:
        return solve_dense(A, M), A, M
    return solve_smallest(A, M, min(k, space.num_dofs), tol=tol), A, M


def convergence_study(meshes, config, domain, target, t=None):
    """Eigenvalue and eigenfunction convergence rows over a mesh sequence.

    Meshes must refine by a factor of two in h; ``target`` is the 1-based
    rank of the tracked exact eigenvalue.
    """
    if len(meshes) < 2:
        raise ValueError("need at least two meshes")
    if target < 1:
        raise ValueError(f"target is a 1-based rank, got {target}")
    exact = exact_spectrum(domain, config.p, target + 8)
    k_need = exact.cluster_start(target) + exact.multiplicity(target) + 4
    hs, eig_errs, fun_errs, values, dofs = [], [], [], [], []
    for mesh in meshes:
        from .mesh import build_topology

        topo = build_topology(mesh)
        space = build_space(mesh, topo, config.m, t=t)
        result, A, M = compute_spectrum(space, config, k=min(k_need, space.num_dofs))
        matched = match_cluster(space, config.p, exact, target, result)
        ve, fe = eigen_errors(space, config.p, exact, target, result, M, matched)
        hs.append(topo.geometry.h)
        values.append(result.values[target - 1])
        eig_errs.append(ve)
        fun_errs.append(fe)
        dofs.append(space.num_dofs)
    if not all(map(halves, hs, hs[1:])):
        raise ValueError("mesh sequence must halve h at each step")
    return StudyResult(
        _rows(hs, dofs, values, eig_errs),
        _rows(hs, dofs, values, fun_errs),
    )


def halves(coarse, fine):
    """Whether ``fine`` is about half of ``coarse``: the step in h that a
    convergence study needs."""
    return 1.5 < coarse / fine < 2.5


def _rows(hs, dofs, values, errors):
    rows = []
    for i, (h, n, v, e) in enumerate(zip(hs, dofs, values, errors)):
        order = None
        if i > 0:
            order = rate(errors[i - 1], e)
        rows.append(ConvergenceRow(h, n, v, e, order))
    return rows


def rate(err_coarse, err_fine):
    """log2 error-reduction rate between a mesh and its half-h refinement."""
    if err_fine == 0.0:
        return math.inf
    if err_coarse == 0.0:
        return -math.inf
    return math.log2(err_coarse / err_fine)


# --------------------------------------------------------------------------
# reliable eigenvalue counting
# --------------------------------------------------------------------------

def reliable_count(exact, result_h, result_2h, rate_threshold=1.0, error_cap=None):
    """Count eigenvalues whose h-to-2h rate is at least the threshold.

    Discrete spectra are paired with the exact one by sorted rank.  A zero
    error on the fine mesh counts as converged (infinite rate).  Returns
    (count, percentage of the fine mesh's DOF count).

    Without ``error_cap`` the counter admits every index whose error at
    least halves, which on smooth mesh families includes the whole
    pre-asymptotic bulk of the spectrum (eigenvalues with O(1) error that
    drift downward under refinement).  Passing ``error_cap`` additionally
    requires ``err_h <= error_cap``; anchoring the cap to the mesh size
    (errors of order h) recovers the square-root-of-N reliable band that
    the counting experiment is meant to exhibit.
    """
    J = min(len(result_h.values), len(result_2h.values), len(exact.values))
    count = 0
    for i in range(J):
        lam = exact.values[i]
        err_h = abs(lam - result_h.values[i]) / abs(lam)
        err_2h = abs(lam - result_2h.values[i]) / abs(lam)
        r = rate(err_2h, err_h)
        if r >= rate_threshold and err_h <= err_2h:
            if error_cap is None or err_h <= error_cap:
                count += 1
    pct = 100.0 * count / len(result_h.values)
    return count, pct


# --------------------------------------------------------------------------
# source-problem verification
# --------------------------------------------------------------------------

@dataclass
class SourceResult:
    vector: np.ndarray
    energy_error: float | None


def solve_source(space, config, f, exact=None):
    """Solve the discrete source problem A x = (f, shape functions).

    ``f`` maps an (n, dim) point array to values.  When an exact solution
    field is supplied, its broken energy-norm distance is reported.  The
    stiffness is solved through the eigensolver's SPD factor, so an
    indefinite or singular one raises PenaltyTooSmall.
    """
    A = _assemble(space, config)
    b = load_vector(space, f)
    x = _factor_spd(A).solve(b)
    err = None
    if exact is not None:
        err = energy_norm(space, config.p, exact=exact, vector=x)
    return SourceResult(x, err)
