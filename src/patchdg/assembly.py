"""Symmetric interior penalty assembly over the reconstructed space.

One DOF per element: matrix row/column j is the sampled value on element j.
The space is the image of the reconstruction operator R (see
:class:`patchdg.reconstruction.ReconstructedSpace`) on the broken
polynomials U_h, so every matrix is the classical DG matrix on element
monomials pulled back by R: A = R^T A_DG R, M = R^T M_DG R, b = R^T b_DG.

A_DG has a block structure fixed by the topology: one n_terms x n_terms
diagonal block per element and the two off-diagonal blocks of each interior
face.  Each block's slot comes from one sort of the block keys, so the local
blocks of every batch are added in place into one (slots, n_terms, n_terms)
array, with no entry-level triplets or sort; M_DG is block diagonal.  The
products with R run on its (n_terms x 1) blocks.

Volume terms batch over element sub-simplices (each carrying its owner
element, so polygons need no separate path), face terms over interior faces
and then boundary faces, at most ``CHUNK`` carriers per batch.  Every element
tabulates the same n_terms monomials, so nothing is grouped by patch size.
Norms and Gram matrices go through :func:`measure`, which contracts the same
monomial tables with each field's per-element coefficients and keeps its
values at every point.

Every matrix is a plain symmetric ``scipy.sparse`` CSR matrix.  Symmetry is
exact by construction: only the lower triangle of R^T A_DG R is kept, then
mirrored once.  ``scipy.io.mmwrite`` writes one as a coordinate file.

Boundary faces use one-sided traces and enforce the essential conditions
weakly (Nitsche style): v = 0 for the second-order form, v = dv/dn = 0 for
the clamped fourth-order form.  The simply supported fourth-order variant
keeps only the value-jump consistency terms and the value-jump penalty on
boundary faces, since the normal derivative is unconstrained there and the
second Laplace trace is a natural condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DegreeTooLow
from .quadrature import MAX_ORDER, face_rule, map_rule, simplex_rule
from .reconstruction import int_power, tabulate

# Sub-simplices or faces per batch.  The batch's tables and local blocks
# set the peak memory of assembly: 2048 faces of 3D fourth-order blocks
# (30 x 30, four trace kinds) took 175 MB on cube:6, 256 take about 18 MB,
# and smaller batches only add per-batch overhead.
CHUNK = 256


@dataclass
class FormConfig:
    """Penalty bases and boundary-condition mode for one bilinear form.

    Effective penalties scale with the degree: eta * m^2 for the value jump
    of the second-order form, alpha * m^4 and beta * m^2 for the value and
    gradient jumps of the fourth-order form.  An empty ``bc`` is the
    problem's default: homogeneous_dirichlet for laplace, simply_supported
    for biharmonic.
    """

    problem: str = "laplace"  # laplace | biharmonic
    bc: str = ""              # homogeneous_dirichlet | clamped | simply_supported
    m: int = 1
    eta: float = 5.5
    alpha: float = 5.0
    beta: float = 2.5

    def __post_init__(self):
        if self.problem not in ("laplace", "biharmonic"):
            raise ValueError(f"unknown problem {self.problem!r}")
        if not self.bc:
            self.bc = "homogeneous_dirichlet" if self.problem == "laplace" else "simply_supported"
        if self.problem == "laplace":
            if self.bc != "homogeneous_dirichlet":
                raise ValueError("the second-order form supports homogeneous Dirichlet only")
            if self.m < 1:
                raise ValueError("degree must be >= 1 for the second-order form")
        else:
            if self.bc not in ("clamped", "simply_supported"):
                raise ValueError(f"unknown biharmonic bc {self.bc!r}")
            if self.m < 2:
                raise ValueError("degree must be >= 2 for the fourth-order form")
        if min(self.eta, self.alpha, self.beta) <= 0.0:
            raise ValueError("penalty bases must be positive")

    @property
    def p(self):
        return 1 if self.problem == "laplace" else 2


def _pair(X, wts, Y):
    """Per batch entry b: sum over points q (and components) of
    X[b, q, a, ...] wts[b, q] Y[b, q, c, ...], a (B, a, c) array."""
    B, q = wts.shape
    Xw = X * wts.reshape(B, q, *([1] * (X.ndim - 2)))
    return np.moveaxis(Xw, 2, 1).reshape(B, X.shape[2], -1) @ \
        np.moveaxis(Y, 2, 1).reshape(B, Y.shape[2], -1).transpose(0, 2, 1)


def _selection(items, n):
    return np.arange(n) if items is None else np.array(list(items), dtype=int).reshape(-1)


def _volume_batches(space, order, kinds, elements=None):
    """(owners, points, weights, monomial tables) per batch of sub-simplices."""
    owner = space.sub_owner
    subs = np.arange(len(owner))
    if elements is not None:
        subs = subs[np.isin(owner, _selection(elements, space.num_dofs))]
    rule = simplex_rule(space.mesh.dim, order)
    for i in range(0, len(subs), CHUNK):
        batch = subs[i:i + CHUNK]
        pts, wts = map_rule(rule, space.sub_simplices[batch])
        K = owner[batch]
        yield K, pts, wts, tabulate(None, space.origin[K], space.scale[K], pts, space.m, kinds)


def _face_batches(space, order, kinds, faces, averages=False):
    """Per batch of the interior ``faces``, then of the boundary ones:
    (faces, points, weights, normals, h, on_boundary, jumps, averages).

    ``jumps`` and ``averages`` map each table kind to a (F, q, k n_terms)
    trace of the monomials of the k sides, taking the normal component of
    gradients; the normal is the plus side's outward one.  On interior faces
    the jump is plus minus minus and the average weighs each side by 1/2; on
    boundary faces both are the plus-side trace.  Only assembly pairs
    averages, so unless ``averages`` is set that dict is empty.
    """
    topo = space.topology
    boundary = topo.sides[faces, 1] < 0
    for on_boundary, part in ((False, faces[~boundary]), (True, faces[boundary])):
        for i in range(0, len(part), CHUNK):
            batch = part[i:i + CHUNK]
            pts, wts = face_rule(space.mesh.dim, order, space.face_coords[batch])
            n, (plus, minus) = topo.normals[batch], topo.sides[batch].T
            sides = [(plus, 1.0, 1.0)] if on_boundary else [(plus, 1.0, 0.5), (minus, -1.0, 0.5)]
            jumps, avgs = {k: [] for k in kinds}, {k: [] for k in kinds}
            for K, sign, weight in sides:
                tables = tabulate(None, space.origin[K], space.scale[K], pts, space.m, kinds)
                for kind, T in tables.items():
                    if T.ndim == 4:
                        T = np.einsum("fqsd,fd->fqs", T, n)
                    jumps[kind].append(sign * T)
                    if averages:
                        avgs[kind].append(weight * T)
            yield (batch, pts, wts, n, topo.h_e[batch], on_boundary,
                   {k: np.concatenate(v, axis=2) for k, v in jumps.items()},
                   {k: np.concatenate(v, axis=2) for k, v in avgs.items() if v})


def _assemble(space, volume, elements=None, face_kinds=(), face_block=None, faces=None):
    """R^T A_DG R as a symmetric CSR matrix, for the volume pairing of the
    table kind ``volume`` plus, if given, the face terms ``face_block(weights,
    h, on_boundary, jumps, averages)`` (F, k n_terms, k n_terms) over each
    face's k sides, plus side first, from the ``face_kinds`` traces.  Each
    block is added in place into its slot of A_DG, block diagonal without
    face terms.  Only the lower triangle of the product is kept and then
    mirrored once, so the result is exactly symmetric."""
    n, nt, topo = space.num_dofs, space.n_terms, space.topology
    sel = _selection(faces, topo.num_faces) if face_block else np.zeros(0, dtype=int)
    plus, minus = topo.sides[sel].T
    minus = np.where(minus >= 0, minus, plus)  # a boundary face has one side
    rows = np.concatenate([np.arange(n), plus, plus, minus, minus])
    cols = np.concatenate([np.arange(n), plus, minus, plus, minus])
    keys, slot = np.unique(rows * n + cols, return_inverse=True)
    diag, face_slots = slot[:n], np.zeros((topo.num_faces, 2, 2), dtype=int)
    face_slots[sel] = slot[n:].reshape(4, -1).T.reshape(-1, 2, 2)
    blocks = np.zeros((len(keys), nt, nt))

    def add(where, local):  # entry by entry: ufunc.at is much faster on a flat index
        entries = (where.reshape(-1, 1) * nt ** 2 + np.arange(nt ** 2)).ravel()
        np.add.at(blocks.reshape(-1), entries, local.reshape(-1))

    order = 2 * space.m
    for K, _, wts, T in _volume_batches(space, order, (volume,), elements):
        add(diag[K], _pair(T[volume], wts, T[volume]))
    face_batches = _face_batches(space, order, face_kinds, sel, averages=True)
    for batch, _, wts, _, h, boundary, jump, avg in face_batches:
        k = 1 if boundary else 2
        local = face_block(wts, h, boundary, jump, avg).reshape(len(batch), k, nt, k, nt)
        add(face_slots[batch, :k, :k], local.transpose(0, 1, 3, 2, 4))
    A_dg = sp.bsr_matrix((blocks, keys % n, np.searchsorted(keys, np.arange(n + 1) * n)),
                         shape=(n * nt, n * nt))
    R = space.R
    L = sp.tril(R.T @ (A_dg @ R), format="csr")
    L.sum_duplicates()
    return L + L.T.tocsr() - sp.diags(L.diagonal())


# --------------------------------------------------------------------------
# stiffness and mass
# --------------------------------------------------------------------------

def assemble_laplace(space, config, elements=None, faces=None):
    """Stiffness matrix of the second-order interior penalty form."""
    if config.problem != "laplace":
        raise ValueError("config.problem must be 'laplace'")
    _check_degree(space, config)
    eta = config.eta * config.m ** 2 * _dim_factor(space)

    def face_block(wts, h, boundary, jump, avg):
        J = jump["val"]
        E = _pair(avg["grad"], wts, J)
        return (eta / h)[:, None, None] * _pair(J, wts, J) - (E + E.transpose(0, 2, 1))

    return _assemble(space, "grad", elements, ("val", "grad"), face_block, faces)


def assemble_biharmonic(space, config, elements=None, faces=None):
    """Stiffness matrix of the fourth-order interior penalty form."""
    if config.problem != "biharmonic":
        raise ValueError("config.problem must be 'biharmonic'")
    if space.m < 2 or config.m < 2:
        raise DegreeTooLow("the fourth-order form needs degree >= 2")
    _check_degree(space, config)
    alpha = config.alpha * config.m ** 4 * _dim_factor(space)
    beta = config.beta * config.m ** 2 * _dim_factor(space)
    simply_supported = config.bc == "simply_supported"

    def face_block(wts, h, boundary, jump, avg):
        J, JG = jump["val"], jump["grad"]
        E1 = _pair(J, wts, avg["gradlap"])
        block = E1 + E1.transpose(0, 2, 1)
        block += (alpha / int_power(h, 3))[:, None, None] * _pair(J, wts, J)
        if not (boundary and simply_supported):
            E2 = _pair(avg["lap"], wts, JG)
            block -= E2 + E2.transpose(0, 2, 1)
            block += (beta / h)[:, None, None] * _pair(JG, wts, JG)
        return block

    return _assemble(space, "lap", elements, ("val", "grad", "lap", "gradlap"), face_block, faces)


def assemble_mass(space):
    """Mass matrix of the reconstructed space (L2 Gram of the shape set):
    R^T M_DG R with M_DG block diagonal."""
    return _assemble(space, "val")


def _smooth_order(space):
    """Quadrature order for integrands with a smooth (non-polynomial) factor:
    two above the discrete products, capped by the shipped rules."""
    return min(2 * space.m + 2, MAX_ORDER[space.mesh.dim])


def load_vector(space, f):
    """b[j] = integral of f against shape function j: R^T b_DG."""
    b = np.zeros((space.num_dofs, space.n_terms))
    for K, pts, wts, T in _volume_batches(space, _smooth_order(space), ("val",)):
        fv = np.asarray(f(pts.reshape(-1, pts.shape[2])), dtype=float).reshape(wts.shape)
        np.add.at(b, K, np.einsum("bqa,bq->ba", T["val"], wts * fv))
    return space.R.T @ b.ravel()


def _check_degree(space, config):
    if config.m != space.m:
        raise ValueError(f"config degree {config.m} != space degree {space.m}")


def _dim_factor(space):
    # 3D trace constants on tetrahedra need roughly twice the face penalty
    # that triangles do; without this the fourth-order spectrum dips below
    # the exact one on coarse cube meshes.
    return space.mesh.dim - 1


# --------------------------------------------------------------------------
# fields and energy norms
# --------------------------------------------------------------------------

class AnalyticField:
    """A smooth scalar field bundled with the derivatives the norms need."""

    def __init__(self, value, gradient=None, laplacian=None):
        self._value = value
        self._gradient = gradient
        self._laplacian = laplacian

    def value(self, pts):
        return np.asarray(self._value(pts), dtype=float)

    def gradient(self, pts):
        if self._gradient is None:
            raise ValueError("field has no gradient callable")
        return np.asarray(self._gradient(pts), dtype=float)

    def laplacian(self, pts):
        if self._laplacian is None:
            raise ValueError("field has no laplacian callable")
        return np.asarray(self._laplacian(pts), dtype=float)


_ANALYTIC = {"val": AnalyticField.value, "grad": AnalyticField.gradient,
             "lap": AnalyticField.laplacian}

# p -> (volume table kind, face jumps as (table kind, power of 1/h))
_PAIRINGS = {
    0: ("val", ()),
    1: ("grad", (("val", 1),)),
    2: ("lap", (("val", 3), ("grad", 1))),
}


def measure(space, p, fields, l2=False):
    """Values of ``fields`` at every quadrature point of the broken energy
    pairing p, from one pass over sub-simplices and faces in CHUNKs.

    A field is a DOF vector, whose values come from R's per-element monomial
    coefficients, or an AnalyticField.  A difference of fields is integrated
    from the difference of their values (see :func:`energy_norm`).  Returns
    one (values (fields, points, components), weights (points,)) pair per
    term of the pairing: the volume term, then each face jump, weighted by
    h^-power (smooth fields do not jump across interior faces).  With
    ``l2``, a last pair holds the volume values of the L2 pairing.
    """
    exact = [f if isinstance(f, AnalyticField) else None for f in fields]
    X = np.zeros((space.num_dofs, len(fields)))
    for i, field in enumerate(fields):
        if exact[i] is None:
            X[:, i] = field
    C = space.coefficients(X)
    order = _smooth_order(space)
    volume, face_terms = _PAIRINGS[p]

    def values(T, coeffs, pts, analytic, normals=None):
        """kind -> (B, q, fields[, dim]) values from the monomial tables T and
        the coefficients (B, fields, columns of T), the analytic parts added
        if ``analytic``; on faces gradients are normal components."""
        out, at, Ct = {}, pts.reshape(-1, pts.shape[2]), coeffs.transpose(0, 2, 1)
        for kind, t in T.items():
            v = out[kind] = t @ Ct if t.ndim == 3 else \
                np.moveaxis(np.moveaxis(t, 3, 2) @ Ct[:, None], 3, 2)
            for i, u in enumerate(exact if analytic else ()):
                if u is not None:
                    flat = _ANALYTIC[kind](u, at).reshape(pts.shape[:2] + (-1,))
                    if normals is not None and kind == "grad":
                        flat = np.einsum("bqd,bd->bq", flat, normals)
                    v[:, :, i] += flat.reshape(v.shape[:2] + v.shape[3:])
        return out

    vol = [(values(T, C[K], pts, True), wts) for K, pts, wts, T in
           _volume_batches(space, order, (volume, "val") if l2 and p else (volume,))]
    kinds, faces = tuple(kind for kind, _ in face_terms), []
    every = np.arange(space.topology.num_faces if kinds else 0)
    for batch, pts, wts, n, h, boundary, jump, _ in _face_batches(space, order, kinds, every):
        plus, minus = space.topology.sides[batch].T
        sides = C[plus] if boundary else np.concatenate([C[plus], C[minus]], axis=2)
        faces.append((values(jump, sides, pts, boundary, n), wts, h[:, None]))
    terms = [_stack([T[volume] for T, _ in vol], [w for _, w in vol])]
    terms += [_stack([J[kind] for J, _, _ in faces], [w / int_power(h, power) for _, w, h in faces])
              for kind, power in face_terms]
    if l2:
        terms.append(_stack([T["val"] for T, _ in vol], [w for _, w in vol]))
    return terms


def _stack(values, weights):
    """A term's (fields, points, components) values and (points,) weights
    from its per-batch (B, q, fields, ...) values and (B, q) weights."""
    F = [np.moveaxis(v, 2, 0).reshape(v.shape[2], v.shape[0] * v.shape[1], -1) for v in values]
    return np.concatenate(F, axis=1), np.concatenate([w.ravel() for w in weights])


def gram(terms):
    """(fields, fields) weighted sum of pointwise products over (values, weights) terms."""
    return sum((F * w[:, None]).reshape(len(F), -1) @ F.reshape(len(F), -1).T for F, w in terms)


def energy_product(space, p, fields):
    """Gram matrix of ``fields`` (DOF vectors or AnalyticFields, as in
    :func:`measure`) in the broken energy inner product; its diagonal holds
    the squared broken energy norms.

    p=1: broken grad L2 pairing plus h^-1-weighted value-jump terms over all
    faces.  p=2: broken Laplacian pairing plus h^-3 value jumps and h^-1
    gradient (normal) jumps.  p=0: the element-wise L2 pairing.  The fields
    are evaluated at the quadrature points and their products integrated.
    """
    return gram(measure(space, p, fields))


def energy_norm(space, p, exact=None, vector=None):
    """Broken energy norm of a discrete field, an analytic field, or their
    difference exact - R vector (pass both exact= and vector=): the direct
    integral of the pointwise difference of their measured values."""
    if exact is None and vector is None:
        raise ValueError("need at least one of exact=, vector=")
    zero = np.zeros(space.num_dofs)
    fields = [zero if exact is None else exact, zero if vector is None else vector]
    G = gram([(F[:1] - F[1:], w) for F, w in measure(space, p, fields)])
    return float(np.sqrt(max(G[0, 0], 0.0)))


def l2_norm(space, exact=None, vector=None):
    """Element-wise L2 norm of a field or a difference (no face terms)."""
    return energy_norm(space, 0, exact, vector)
