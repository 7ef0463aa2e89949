"""Test-local oracle: the shape-table, entry-level assembly that the
element-monomial path (A = R^T A_DG R) replaced.

``ShapeTableSpace`` rebuilds a space the way ``build_space`` used to store
it: per-element coefficient tables stacked by patch size, ``tables[s] =
(members (G, s), coeffs (G, s, n_terms))`` with element K in row
``row[K]`` of the table of size ``size[K]``.  Every form tabulates the
patch shape functions themselves, batch by batch with one patch size per
side, and every matrix comes out of one lower-triangle build from
entry-level triplets, mirrored into the full symmetric matrix.  The
package's fitting and quadrature are shared, and a patch that grows past
its first fit is copied from its block row of the space's R (the repair
is checked against a one-patch-at-a-time reference in
``test_batched_setup``); the shape tables, the bookkeeping, the traces
and the scatter are not: :func:`shape_functions`
writes each monomial's derivatives out from its exponents and contracts
the coefficient tables with them, table first.
"""

import numpy as np
import scipy.sparse as sp

from patchdg import assembly
from patchdg.assembly import AnalyticField, _dim_factor, _pair
from patchdg.patch import Patch, build_patch
from patchdg.quadrature import MAX_ORDER, face_rule, map_rule, simplex_rule
from patchdg.reconstruction import fit_local, monomial_basis

CHUNK = 256


def derive(terms, d):
    """The d-th partial derivative of a polynomial given as (coefficient,
    exponent tuple) terms."""
    return [(c * e[d], e[:d] + (e[d] - 1,) + e[d + 1:]) for c, e in terms if e[d]]


def laplacian(terms, dim):
    return [term for d in range(dim) for term in derive(derive(terms, d), d)]


# per kind: the components of a polynomial's derivative, and the order of
# the derivative (the power of the scale that the chain rule divides by)
DERIVATIVES = {
    "val": (lambda terms, dim: [terms], 0),
    "grad": (lambda terms, dim: [derive(terms, d) for d in range(dim)], 1),
    "lap": (lambda terms, dim: [laplacian(terms, dim)], 2),
    "gradlap": (lambda terms, dim: [derive(laplacian(terms, dim), d) for d in range(dim)], 3),
}


def shape_functions(coeffs, origin, scale, points, m, kinds):
    """Shape functions of a batch of elements, each at its own points,
    table first: every monomial's derivative table (B, q, n_terms,
    components), then its contraction with the coefficient tables ``coeffs``
    (B, s, n_terms).  "val" and "lap" give (B, q, s), "grad" and "gradlap"
    (B, q, s, dim); kinds that vanish at degree m give zeros."""
    dim = points.shape[2]
    exponents = [tuple(e) for e in monomial_basis(m, dim).exponents.tolist()]
    y = (points - origin[:, None]) / scale[:, None, None]
    V = np.prod(y[:, :, None, :] ** np.array(exponents), axis=-1)  # (B, q, n_terms)
    column = {e: j for j, e in enumerate(exponents)}
    out = {}
    for kind in kinds:
        components, power = DERIVATIVES[kind]
        table = np.zeros(V.shape + (1 if kind in ("val", "lap") else dim,))
        for j, e in enumerate(exponents):
            for c, terms in enumerate(components([(1, e)], dim)):
                for coefficient, f in terms:
                    table[:, :, j, c] += coefficient * V[:, :, column[f]]
        T = np.einsum("bqnc,bsn->bqsc", table / scale[:, None, None, None] ** power, coeffs)
        out[kind] = T[..., 0] if kind in ("val", "lap") else T
    return out


class ShapeTableSpace:
    def __init__(self, space):
        mesh, topology, m, t = space.mesh, space.topology, space.m, space.t
        n = mesh.num_elements
        patches = build_patch(mesh, topology, np.arange(n), t)
        coeffs, origin, scale, ok = fit_local(patches, m)
        # a patch whose first fit is rank deficient is read from its block row of R
        R, grown = space.R, {}
        for K in np.nonzero(~ok)[0]:
            block = slice(R.indptr[K], R.indptr[K + 1])
            scale[K] = space.scale[K]
            grown.setdefault(block.stop - block.start, []).append(
                (K, R.indices[block], R.data[block, :, 0]))
        groups = {t: (np.nonzero(ok)[0], patches.members[ok], coeffs[ok])} if ok.any() else {}
        for s, rows in grown.items():
            elements, members, tables = zip(*rows)
            groups[s] = (np.array(elements), np.array(members), np.stack(tables))
        self.mesh, self.topology, self.m, self.t = mesh, topology, m, t
        self.origin, self.scale = origin, scale
        self.size, self.row, self.tables = np.zeros(n, dtype=int), np.zeros(n, dtype=int), {}
        for s in sorted(groups):
            elements, members, coeffs = groups[s]
            self.size[elements] = s
            self.row[elements] = np.arange(len(elements))
            self.tables[int(s)] = (members, coeffs)
        self.geometry = topology.geometry
        self.num_dofs = n

    def members(self, K):
        members, _ = self.tables[int(self.size[K])]
        return members[self.row[K]].tolist()

    def patches(self):
        barycenters = self.geometry.barycenters
        return [Patch(K, members, barycenters[members], float(self.scale[K]))
                for K, members in enumerate(map(self.members, range(self.num_dofs)))]

    def shape_tables(self, elements, points, kinds=("val",)):
        members, coeffs = self.tables[int(self.size[elements[0]])]
        rows = self.row[elements]
        tables = shape_functions(coeffs[rows], self.origin[elements], self.scale[elements],
                                 points, self.m, kinds)
        return members[rows], tables


def symmetric(n, batches):
    """One symmetric CSR matrix from batches of (ids (B, s), blocks (B, s,
    s)), each block symmetrized and its lower triangle scattered entry by
    entry, then mirrored."""
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
    L = sp.coo_matrix(lower, shape=(n, n)).tocsr()
    L.sum_duplicates()
    return L + L.T.tocsr() - sp.diags(L.diagonal())


def chunks(keys, items):
    for key in np.unique(keys):
        group = items[keys == key]
        for i in range(0, len(group), CHUNK):
            yield group[i:i + CHUNK]


def volume_batches(space, order, kinds):
    owner = space.geometry.sub_owner
    rule = simplex_rule(space.mesh.dim, order)
    for batch in chunks(space.size[owner], np.arange(len(owner))):
        pts, wts = map_rule(rule, space.geometry.sub_simplices[batch])
        ids, tables = space.shape_tables(owner[batch], pts, kinds)
        yield ids, pts, wts, tables


def face_batches(space, order, kinds):
    """(ids, points, weights, normals, h, on_boundary, jumps, averages) per
    batch of faces with one patch size on each side; columns are the plus
    patch, then the minus patch."""
    topo = space.topology
    sel = np.arange(topo.num_faces)
    kp, km = topo.sides[:, 0], topo.sides[:, 1]
    size_m = np.where(km >= 0, space.size[km], 0)
    for batch in chunks(space.size[kp] * (space.size.max() + 1) + size_m, sel):
        pts, wts = face_rule(simplex_rule(space.mesh.dim - 1, order),
                             space.mesh.vertices[topo.faces[batch]])
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


def assemble_laplace(space, config):
    order = 2 * space.m
    eta = config.eta * config.m ** 2 * _dim_factor(space)

    def blocks():
        for ids, _, wts, T in volume_batches(space, order, ("grad",)):
            yield ids, _pair(T["grad"], wts, T["grad"])
        for ids, _, wts, _, h, _, jump, avg in face_batches(space, order, ("val", "grad")):
            J = jump["val"]
            E = _pair(avg["grad"], wts, J)
            yield ids, (eta / h)[:, None, None] * _pair(J, wts, J) - (E + E.transpose(0, 2, 1))

    return symmetric(space.num_dofs, blocks())


def assemble_biharmonic(space, config):
    order = 2 * space.m
    alpha = config.alpha * config.m ** 4 * _dim_factor(space)
    beta = config.beta * config.m ** 2 * _dim_factor(space)
    simply_supported = config.bc == "simply_supported"
    kinds = ("val", "grad", "lap", "gradlap")

    def blocks():
        for ids, _, wts, T in volume_batches(space, order, ("lap",)):
            yield ids, _pair(T["lap"], wts, T["lap"])
        for ids, _, wts, _, h, boundary, jump, avg in face_batches(space, order, kinds):
            J, JG = jump["val"], jump["grad"]
            E1 = _pair(J, wts, avg["gradlap"])
            block = (E1 + E1.transpose(0, 2, 1)) + (alpha / h ** 3)[:, None, None] * _pair(J, wts, J)
            if not (boundary and simply_supported):
                E2 = _pair(avg["lap"], wts, JG)
                block -= E2 + E2.transpose(0, 2, 1)
                block += (beta / h)[:, None, None] * _pair(JG, wts, JG)
            yield ids, block

    return symmetric(space.num_dofs, blocks())


def assemble_mass(space):
    batches = volume_batches(space, 2 * space.m, ("val",))
    return symmetric(space.num_dofs,
                     ((ids, _pair(T["val"], wts, T["val"])) for ids, _, wts, T in batches))


def load_vector(space, f):
    order = min(2 * space.m + 2, MAX_ORDER[space.mesh.dim])
    b = np.zeros(space.num_dofs)
    for ids, pts, wts, T in volume_batches(space, order, ("val",)):
        fv = np.asarray(f(pts.reshape(-1, pts.shape[2])), dtype=float).reshape(wts.shape)
        b += np.bincount(ids.ravel(), np.einsum("bqs,bq->bs", T["val"], wts * fv).ravel(),
                         minlength=space.num_dofs)
    return b


def shape_table_product(space, p, fields):
    """Oracle for energy_product: the broken energy Gram matrix from the
    patch shape tables of every batch, each field evaluated as the sum over
    its patch's shape functions, not from per-element coefficients."""
    space = ShapeTableSpace(space)
    exact, X = [], np.zeros((space.num_dofs, len(fields)))
    for i, field in enumerate(fields):
        if isinstance(field, AnalyticField):
            exact.append(field)
        elif isinstance(field, tuple):
            exact.append(field[0])
            X[:, i] = -np.asarray(field[1], dtype=float)
        else:
            exact.append(None)
            X[:, i] = field
    order = min(2 * space.m + 2, MAX_ORDER[space.mesh.dim])
    volume, face_terms = assembly._PAIRINGS[p]

    def values(T, ids, pts, kind, normals=None):
        F = np.einsum("bqs...,bsk->kbq...", T, X[ids])
        for i, u in enumerate(exact):
            if u is not None:
                flat = assembly._ANALYTIC[kind](u, pts.reshape(-1, pts.shape[2]))
                if normals is not None:
                    flat = np.einsum("bqd,bd->bq", flat.reshape(pts.shape), normals)
                F[i] += flat.reshape(F.shape[1:])
        return F.reshape(F.shape[:3] + (-1,))

    G = np.zeros((len(fields), len(fields)))
    for ids, pts, wts, T in volume_batches(space, order, (volume,)):
        F = values(T[volume], ids, pts, volume)
        G += np.einsum("kbqc,bq,lbqc->kl", F, wts, F)
    kinds = tuple(kind for kind, _ in face_terms)
    for ids, pts, wts, n, h, boundary, jump, _ in (
            face_batches(space, order, kinds) if kinds else ()):
        for kind, power in face_terms:
            if boundary:
                F = values(jump[kind], ids, pts, kind, n if kind == "grad" else None)
            else:
                F = np.einsum("fqs,fsk->kfq", jump[kind], X[ids])[..., None]
            G += np.einsum("kfqc,fq,lfqc->kl", F, wts / h[:, None] ** power, F)
    return G
