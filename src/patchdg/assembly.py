"""Symmetric interior penalty assembly over the reconstructed space.

One DOF per element: matrix row/column j is the sampled value on element j.
Element K couples every DOF in its patch, so local face blocks live on the
union of the two side patches and global sparsity is the support-overlap
graph of the space.

Volume terms batch over element sub-simplices (each carrying its owner
element, so polygons need no separate path), face terms over interior and
boundary faces, at most ``CHUNK`` carriers per batch.  For matrices and load
vectors each batch has one patch size per side: local blocks are batched
products of the shape tables from :func:`patchdg.reconstruction.tabulate`,
and every matrix comes out of one lower-triangle build.  Norms and Gram
matrices need no grouping: :func:`measure` tabulates each field from its
per-element monomial coefficients and keeps its values at every point.

Only the lower triangle is stored (SymSparseMatrix), which makes symmetry
exact by construction.  Local blocks are numerically symmetrized before
scattering so the stored triangle is the symmetric representative.

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
from .reconstruction import tabulate

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
    gradient jumps of the fourth-order form.
    """

    problem: str = "laplace"           # laplace | biharmonic
    bc: str = "homogeneous_dirichlet"  # homogeneous_dirichlet | clamped | simply_supported
    m: int = 1
    eta: float = 5.5
    alpha: float = 5.0
    beta: float = 2.5

    def __post_init__(self):
        if self.problem not in ("laplace", "biharmonic"):
            raise ValueError(f"unknown problem {self.problem!r}")
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


class SymSparseMatrix:
    """Symmetric sparse matrix stored as its lower triangle."""

    def __init__(self, n, lower):
        self.n = n
        self.lower = lower.tocsr()
        self.lower.sum_duplicates()

    def full(self):
        """Expand to a symmetric CSR matrix."""
        up = self.lower.T.tocsr()
        return self.lower + up - sp.diags(self.lower.diagonal())

    def dense(self):
        return self.full().toarray()

    def quadratic_form(self, v):
        return float(v @ (self.full() @ v))

    @property
    def nnz(self):
        return self.lower.nnz

    def export_text(self, path):
        """Coordinate text export: one 0-based "row col value" per line for
        every stored entry of the full symmetric matrix."""
        full = self.full().tocoo()
        with open(path, "w") as fh:
            for r, c, v in zip(full.row, full.col, full.data):
                fh.write(f"{r} {c} %.17g\n" % v)


def _lower_triangle(n, batches):
    """One SymSparseMatrix from batches of (ids (B, s), blocks (B, s, s)).

    Each batch is summed into compressed form as it arrives, so only one
    batch of raw triplets is held at a time; explicit zeros are kept, so the
    stored pattern is the union of the blocks' patterns.
    """
    rows, cols, vals = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)], [np.zeros(0)]
    for ids, blocks in batches:
        blocks = 0.5 * (blocks + blocks.transpose(0, 2, 1))
        R = np.broadcast_to(ids[:, :, None], blocks.shape)
        C = np.broadcast_to(ids[:, None, :], blocks.shape)
        keep = R >= C
        part = sp.coo_matrix((blocks[keep], (R[keep], C[keep])), shape=(n, n)).tocsr().tocoo()
        rows.append(part.row)
        cols.append(part.col)
        vals.append(part.data)
    lower = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    return SymSparseMatrix(n, sp.coo_matrix(lower, shape=(n, n)))


def _pair(X, wts, Y):
    """Per batch entry b: sum over points q (and components) of
    X[b, q, a, ...] wts[b, q] Y[b, q, c, ...], a (B, a, c) array."""
    B, q = wts.shape
    Xw = X * wts.reshape(B, q, *([1] * (X.ndim - 2)))
    return np.moveaxis(Xw, 2, 1).reshape(B, X.shape[2], -1) @ \
        np.moveaxis(Y, 2, 1).reshape(B, Y.shape[2], -1).transpose(0, 2, 1)


def _selection(items, n):
    return np.arange(n) if items is None else np.array(list(items), dtype=int).reshape(-1)


def _chunks(keys, items):
    """``items`` grouped by equal ``keys``, each group cut into CHUNKs."""
    for key in np.unique(keys):
        group = items[keys == key]
        for i in range(0, len(group), CHUNK):
            yield group[i:i + CHUNK]


def _volume_batches(space, order, kinds, elements=None):
    """(ids, points, weights, tables) per batch of sub-simplices whose
    owners share one patch size."""
    owner = space.sub_owner
    subs = np.arange(len(owner))
    if elements is not None:
        subs = subs[np.isin(owner, _selection(elements, space.num_dofs))]
    rule = simplex_rule(space.mesh.dim, order)
    for batch in _chunks(space.size[owner[subs]], subs):
        pts, wts = map_rule(rule, space.sub_simplices[batch])
        ids, tables = space.shape_tables(owner[batch], pts, kinds)
        yield ids, pts, wts, tables


def _face_batches(space, order, kinds, faces=None):
    """Per batch of faces with one patch size on each side:
    (ids, points, weights, normals, h, on_boundary, jumps, averages).

    ``jumps`` and ``averages`` map each table kind to a (F, q, S) trace,
    taking the normal component of gradients; the normal is the plus side's
    outward one.  On interior faces the jump is plus minus minus and the
    average weighs each side by 1/2; on boundary faces both are the
    plus-side trace.  Columns follow ``ids``: the plus patch, then the minus.
    """
    topo = space.topology
    sel = _selection(faces, topo.num_faces)
    kp, km = topo.sides[sel, 0], topo.sides[sel, 1]
    size_m = np.where(km >= 0, space.size[km], 0)
    for batch in _chunks(space.size[kp] * (space.size.max() + 1) + size_m, sel):
        pts, wts = face_rule(space.mesh.dim, order, space.face_coords[batch])
        n = topo.normals[batch]
        plus, minus = topo.sides[batch, 0], topo.sides[batch, 1]
        boundary = minus[0] < 0
        sides = [(plus, 1.0, 1.0)] if boundary else [(plus, 1.0, 0.5), (minus, -1.0, 0.5)]
        ids, jumps, avgs = [], {k: [] for k in kinds}, {k: [] for k in kinds}
        for elements, sign, weight in sides:
            members, tables = space.shape_tables(elements, pts, kinds)
            ids.append(members)
            for kind, T in tables.items():
                if T.ndim == 4:
                    T = np.einsum("fqsd,fd->fqs", T, n)
                jumps[kind].append(sign * T)
                avgs[kind].append(weight * T)
        yield (np.concatenate(ids, axis=1), pts, wts, n, topo.h_e[batch], boundary,
               {k: np.concatenate(v, axis=2) for k, v in jumps.items()},
               {k: np.concatenate(v, axis=2) for k, v in avgs.items()})


# --------------------------------------------------------------------------
# stiffness and mass
# --------------------------------------------------------------------------

def assemble_laplace(space, config, elements=None, faces=None):
    """Stiffness matrix of the second-order interior penalty form."""
    if config.problem != "laplace":
        raise ValueError("config.problem must be 'laplace'")
    _check_degree(space, config)
    order = 2 * space.m
    eta = config.eta * config.m ** 2 * _dim_factor(space)

    def blocks():
        for ids, _, wts, T in _volume_batches(space, order, ("grad",), elements):
            yield ids, _pair(T["grad"], wts, T["grad"])
        for ids, _, wts, _, h, _, jump, avg in _face_batches(space, order, ("val", "grad"), faces):
            J = jump["val"]
            E = _pair(avg["grad"], wts, J)
            yield ids, (eta / h)[:, None, None] * _pair(J, wts, J) - (E + E.transpose(0, 2, 1))

    return _lower_triangle(space.num_dofs, blocks())


def assemble_biharmonic(space, config, elements=None, faces=None):
    """Stiffness matrix of the fourth-order interior penalty form."""
    if config.problem != "biharmonic":
        raise ValueError("config.problem must be 'biharmonic'")
    if space.m < 2 or config.m < 2:
        raise DegreeTooLow("the fourth-order form needs degree >= 2")
    _check_degree(space, config)
    order = 2 * space.m
    alpha = config.alpha * config.m ** 4 * _dim_factor(space)
    beta = config.beta * config.m ** 2 * _dim_factor(space)
    simply_supported = config.bc == "simply_supported"
    kinds = ("val", "grad", "lap", "gradlap")

    def blocks():
        for ids, _, wts, T in _volume_batches(space, order, ("lap",), elements):
            yield ids, _pair(T["lap"], wts, T["lap"])
        for ids, _, wts, _, h, boundary, jump, avg in _face_batches(space, order, kinds, faces):
            J, JG = jump["val"], jump["grad"]
            E1 = _pair(J, wts, avg["gradlap"])
            block = (E1 + E1.transpose(0, 2, 1)) + (alpha / h ** 3)[:, None, None] * _pair(J, wts, J)
            if not (boundary and simply_supported):
                E2 = _pair(avg["lap"], wts, JG)
                block -= E2 + E2.transpose(0, 2, 1)
                block += (beta / h)[:, None, None] * _pair(JG, wts, JG)
            yield ids, block

    return _lower_triangle(space.num_dofs, blocks())


def assemble_mass(space, elements=None):
    """Mass matrix of the reconstructed space (L2 Gram of the shape set)."""
    batches = _volume_batches(space, 2 * space.m, ("val",), elements)
    return _lower_triangle(space.num_dofs,
                           ((ids, _pair(T["val"], wts, T["val"])) for ids, _, wts, T in batches))


def load_vector(space, f, quad_order=None):
    """b[j] = integral of f against shape function j."""
    order = quad_order if quad_order is not None else 2 * space.m + 2
    order = min(order, MAX_ORDER[space.mesh.dim])
    b = np.zeros(space.num_dofs)
    for ids, pts, wts, T in _volume_batches(space, order, ("val",)):
        fv = np.asarray(f(pts.reshape(-1, pts.shape[2])), dtype=float).reshape(wts.shape)
        b += np.bincount(ids.ravel(), np.einsum("bqs,bq->bs", T["val"], wts * fv).ravel(),
                         minlength=space.num_dofs)
    return b


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


def measure(space, p, fields, quad_order=None, l2=False):
    """Values of ``fields`` at every quadrature point of the broken energy
    pairing p, from one pass over sub-simplices and faces in CHUNKs.

    A field is a DOF vector, an AnalyticField, or a pair (exact, vector) for
    the pointwise difference exact - R vector (either part may be None);
    discrete parts come from R's per-element monomial coefficients.  Returns
    one (values (fields, points, components), weights (points,)) pair per
    term of the pairing: the volume term, then each face jump, weighted by
    h^-power (smooth fields do not jump across interior faces).  With
    ``l2``, a last pair holds the volume values of the L2 pairing.
    """
    exact = [f if isinstance(f, AnalyticField) else f[0] if isinstance(f, tuple) else None
             for f in fields]
    X = np.zeros((space.num_dofs, len(fields)))
    for i, field in enumerate(fields):
        if isinstance(field, tuple) and field[1] is not None:
            X[:, i] = -np.asarray(field[1], dtype=float)
        elif not isinstance(field, (tuple, AnalyticField)):
            X[:, i] = field
    C = space.coefficients(X)
    order = quad_order if quad_order is not None else min(2 * space.m + 2, MAX_ORDER[space.mesh.dim])
    volume, face_terms = _PAIRINGS[p]

    def values(elements, pts, kinds, rows, normals=None):
        """kind -> (B, q, fields[, dim]) values, the analytic parts added on
        the batch ``rows``; gradients become normal components on faces."""
        T = tabulate(C[elements], space.origin[elements], space.scale[elements], pts, space.m, kinds)
        at = pts[rows]
        for kind, v in T.items():
            for i, u in enumerate(exact):
                if u is not None and at.size:
                    flat = _ANALYTIC[kind](u, at.reshape(-1, at.shape[2]))
                    v[rows, :, i] += flat.reshape(at.shape[:2] + v.shape[3:])
            if normals is not None and v.ndim == 4:
                T[kind] = np.einsum("bqkd,bd->bqk", v, normals)
        return T

    rule, owner, vol = simplex_rule(space.mesh.dim, order), space.sub_owner, []
    for i in range(0, len(owner), CHUNK):
        pts, wts = map_rule(rule, space.sub_simplices[i:i + CHUNK])
        vol.append((values(owner[i:i + CHUNK], pts, (volume, "val") if l2 and p else (volume,),
                           slice(None)), wts))
    topo, kinds, faces = space.topology, tuple(kind for kind, _ in face_terms), []
    for i in range(0, topo.num_faces if face_terms else 0, CHUNK):
        pts, wts = face_rule(space.mesh.dim, order, space.face_coords[i:i + CHUNK])
        n, (plus, minus) = topo.normals[i:i + CHUNK], topo.sides[i:i + CHUNK].T
        inner = minus >= 0
        J = values(plus, pts, kinds, ~inner, n)
        for kind, v in values(minus[inner], pts[inner], kinds, slice(0), n[inner]).items():
            J[kind][inner] -= v
        faces.append((J, wts, topo.h_e[i:i + CHUNK, None]))
    terms = [_stack([T[volume] for T, _ in vol], [w for _, w in vol])]
    terms += [_stack([J[kind] for J, _, _ in faces], [w / h ** power for _, w, h in faces])
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


def energy_product(space, p, fields, quad_order=None):
    """Gram matrix of ``fields`` (as in :func:`measure`) in the broken
    energy inner product; its diagonal holds the squared broken energy
    norms.

    p=1: broken grad L2 pairing plus h^-1-weighted value-jump terms over all
    faces.  p=2: broken Laplacian pairing plus h^-3 value jumps and h^-1
    gradient (normal) jumps.  p=0: the element-wise L2 pairing.  The fields
    are evaluated at the quadrature points and their products integrated,
    so the norm of a difference is a direct integral of the difference.
    """
    return gram(measure(space, p, fields, quad_order))


def energy_norm(space, p, exact=None, vector=None, quad_order=None):
    """Broken energy norm of a discrete field, an analytic field, or their
    difference (pass both exact= and vector=)."""
    if exact is None and vector is None:
        raise ValueError("need at least one of exact=, vector=")
    return float(np.sqrt(max(energy_product(space, p, [(exact, vector)], quad_order)[0, 0], 0.0)))


def l2_norm(space, exact=None, vector=None, quad_order=None):
    """Element-wise L2 norm of a field or a difference (no face terms)."""
    return energy_norm(space, 0, exact, vector, quad_order)
