"""Exact spectra, eigenpair matching, error norms, rates, reliable counts,
and the refinement studies built on them: eigenpair convergence, reliable
counts and source-problem rates, on one loop over a mesh sequence.

Each generated mesh family is one ``FAMILIES`` row, read by the CLI and
by every study before it builds a space: the [0, pi]^2 square (second
order: i^2 + j^2; fourth order, simply supported: (i^2 + j^2)^2) and the
unit cube (with pi^2 / pi^4 factors).  Discrete eigenvalues
are paired with exact ones by sorted rank; a multiple exact eigenvalue is
matched by the best linear combination of its discrete cluster in the
energy inner product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import (
    AnalyticField,
    assemble_mass,
    assemble_stiffness,
    energy_norm,
    energy_product,  # noqa: F401  (perfbench tests expect this binding)
    gram,
    load_vector,
    measure,
)
from . import eigensolve
from .eigensolve import _factor_spd, solve_smallest
from .errors import ClusterAmbiguous
from .mesh import build_topology, generate_cube_tet, generate_square_tri
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
        _, wave, amplitude = _family(self.domain).facts
        return sine_product_field(label, wave, amplitude)


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


@dataclass(frozen=True)
class Family:
    """A generated mesh family and the closed-form facts of its domain."""

    generate: object  # n -> the family's n-th mesh
    domain: str       # the model domain's name
    facts: tuple      # (dim, wave pi / side, L2 amplitude (2 / side)^(dim / 2)) of [0, side]^dim

    def closed_form(self, bc):
        """Whether ``bc`` has a closed-form spectrum: the sine modes meet every
        boundary condition but the clamped plate's."""
        return bc != "clamped"


# the generators are reached through their module names at call time, so a
# rebound name (a tracer's wrapper) is the one called
FAMILIES = {
    "square": Family(lambda n: generate_square_tri(n), "square_pi", (2, 1.0, 2.0 / np.pi)),
    "cube": Family(lambda n: generate_cube_tet(n), "cube_unit", (3, np.pi, math.sqrt(8.0))),
}


def _family(domain, config=None):
    """The ``FAMILIES`` row of a model domain; given a study's ``config``,
    one whose boundary condition has a closed form."""
    family = next((f for f in FAMILIES.values() if f.domain == domain), None)
    if family is None:
        raise ValueError(f"unknown domain {domain!r}")
    if config is not None and not family.closed_form(config.bc):
        raise ValueError(f"no closed-form spectrum on {domain} with bc {config.bc!r}")
    return family


def exact_spectrum(domain, p, count):
    """First ``count`` exact eigenvalues with labels, ascending."""
    if count < 1:
        raise ValueError("count must be >= 1")
    dim, wave, _ = _family(domain).facts
    if p not in (1, 2):
        raise ValueError(f"p must be 1 (laplace) or 2 (biharmonic), got {p!r}")
    bound = max(2, math.isqrt(2 * count) + 2)
    while True:
        # every label in 1..bound per axis, in ascending lexicographic order,
        # so a stable sort on the value breaks ties by label
        idx = np.indices((bound,) * dim).reshape(dim, -1) + 1
        squares = (idx * idx).sum(axis=0)
        order = np.argsort(squares, kind="stable")[:count]
        if len(order) == count and squares[order[-1]] <= bound * bound:
            break
        bound *= 2
    base = squares[order].astype(float)
    labels = list(map(tuple, idx[:, order].T.tolist()))
    values = base * wave ** 2 if p == 1 else base ** 2 * wave ** 4
    return ExactSpectrum(domain, p, values, labels)


def _cluster_spectrum(domain, p, target):
    """The exact spectrum past the whole cluster of 1-based rank ``target``:
    target + 8 values, doubled until the last one lies above the cluster."""
    exact = exact_spectrum(domain, p, target + 8)
    while np.isclose(exact.values[-1], exact.values[target - 1], rtol=1e-12, atol=0.0):
        exact = exact_spectrum(domain, p, 2 * len(exact.values))
    return exact


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
    G = gram((F[1:] - scale * F[:1], w) for F, w in terms)
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


def compute_spectrum(space, config, k=None, tol=1e-9):
    """Assemble and solve; full spectrum when k is None, else the
    min(k, N) smallest pairs.  :func:`solve_smallest` picks the path."""
    A, M = assemble_stiffness(space, config), assemble_mass(space)
    k = space.num_dofs if k is None else min(k, space.num_dofs)
    return solve_smallest(A, M, k, tol=tol), A, M


def _spaces(meshes, config, t):
    """The (h, space) pairs of a refinement sequence, one mesh at a time.

    Every topology is built, and h checked to halve at each step, before
    any space is; rates compare each mesh with its half-h refinement.
    """
    if len(meshes) < 2:
        raise ValueError("need at least two meshes")
    topos = [build_topology(mesh) for mesh in meshes]
    hs = [topo.geometry.h for topo in topos]
    if not all(map(halves, hs, hs[1:])):
        raise ValueError("mesh sequence must halve h at each step")
    return ((h, build_space(mesh, topo, config.m, t=t))
            for mesh, topo, h in zip(meshes, topos, hs))


def convergence_study(meshes, config, domain, target, t=None):
    """Eigenvalue and eigenfunction convergence rows over a mesh sequence
    that halves h at each step; ``target`` is the 1-based rank of the
    tracked exact eigenvalue."""
    if target < 1:
        raise ValueError(f"target is a 1-based rank, got {target}")
    _family(domain, config)
    exact = _cluster_spectrum(domain, config.p, target)
    k_need = exact.cluster_start(target) + exact.multiplicity(target) + 4
    steps = []
    for h, space in _spaces(meshes, config, t):
        result, A, M = compute_spectrum(space, config, k=k_need)
        matched = match_cluster(space, config.p, exact, target, result)
        ve, fe = eigen_errors(space, config.p, exact, target, result, M, matched)
        steps.append((h, space.num_dofs, result.values[target - 1], ve, fe))
    hs, dofs, values, eig_errs, fun_errs = zip(*steps)
    return StudyResult(_rows(hs, dofs, values, eig_errs), _rows(hs, dofs, values, fun_errs))


def halves(coarse, fine):
    """Whether ``fine`` is about half of ``coarse``: the step in h that a
    convergence study needs."""
    return 1.5 < coarse / fine < 2.5


def _rows(hs, dofs, values, errors):
    """One row per mesh; the order compares it with the mesh before."""
    orders = [None, *map(rate, errors, errors[1:])]
    return list(map(ConvergenceRow, hs, dofs, values, errors, orders))


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

def reliable_count(exact, result_h, result_2h, *, error_cap=None):
    """Count eigenvalues whose h-to-2h rate is at least 1 and, given an
    ``error_cap``, whose error on the fine mesh is at most the cap.

    Discrete spectra are paired with the exact one by sorted rank.  A zero
    error on the fine mesh counts as converged (infinite rate).  Returns
    (count, percentage of the fine mesh's DOF count).
    """
    count = 0
    for lam, fine, coarse in zip(exact.values, result_h.values, result_2h.values):
        err_h, err_2h = abs(lam - fine) / abs(lam), abs(lam - coarse) / abs(lam)
        if rate(err_2h, err_h) >= 1.0 and (error_cap is None or err_h <= error_cap):
            count += 1
    pct = 100.0 * count / len(result_h.values)
    return count, pct


def reliable_study(meshes, config, domain, t=None):
    """(N, count, percentage) per refinement step, from the full spectra
    of a mesh and of its half-h refinement.

    The rate test alone admits the pre-asymptotic bulk of the spectrum
    (O(1) errors that drift downward under refinement); capping the fine
    error at a quarter of the coarse h (errors of order h) recovers the
    square-root-of-N reliable band.  Every spectrum is dense, so an unknown
    domain, the clamped plate or a mesh past the dense limit is refused
    before any space is.
    """
    _family(domain, config)
    largest = max(mesh.num_elements for mesh in meshes)
    eigensolve.dense_path(largest, largest)
    hs, results = zip(*[(h, compute_spectrum(space, config, k=None)[0])
                        for h, space in _spaces(meshes, config, t)])
    rows = []
    for coarse, fine, h_coarse in zip(results, results[1:], hs):
        exact = exact_spectrum(domain, config.p, len(coarse.values))
        count, pct = reliable_count(exact, fine, coarse, error_cap=h_coarse / 4.0)
        rows.append((len(fine.values), count, pct))
    return rows


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
    A = assemble_stiffness(space, config)
    b = load_vector(space, f)
    x = _factor_spd(A).solve(b)
    err = None if exact is None else energy_norm(space, config.p, exact=exact, vector=x)
    return SourceResult(x, err)


def source_study(meshes, config, domain, t=None):
    """Energy-error rows of a manufactured source problem over a mesh
    sequence: the exact solution is the lowest sine mode of ``domain``, of
    unit amplitude, and the load is lambda^p times it."""
    dim, wave, _ = _family(domain, config).facts
    u, lam = sine_product_field((1,) * dim, wave, 1.0), dim * wave ** 2
    f = lambda pts: lam ** config.p * u.value(pts)
    hs, dofs, errs = zip(*[(h, space.num_dofs, solve_source(space, config, f, exact=u).energy_error)
                           for h, space in _spaces(meshes, config, t)])
    return _rows(hs, dofs, errs, errs)
