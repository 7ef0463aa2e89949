"""Meshes of simplices and polygons with face topology and sub-triangulations.

A mesh stores vertices and one int cell table only.  Everything derived
(face adjacency, normals, barycenters, sub-simplices) is computed in
stacked arrays for all elements at once: :func:`all_geometries` once per
mesh, kept by :func:`build_topology` on the topology for every later stage.
All constructors fix simplex orientation so signed volumes are positive,
and polygon cells must be star-shaped with respect to their centroid so the
fan sub-triangulation is valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadCount,
    DanglingNode,
    DegenerateElement,
    DegenerateSimplex,
    DuplicateNode,
    MixedDimension,
    NonCCW,
    NonFiniteVertex,
    NonManifold,
    NotStarShaped,
    UnsupportedVersion,
)


@dataclass
class Mesh:
    """A conforming partition into simplices or (2D) polygons.

    ``vertices`` is an (nv, dim) float array.  ``elements``, given as any
    sequence of vertex-id loops, is kept as an (N, w) int table: row K holds
    element K's ``lengths[K]`` ids, padded by repeating its first vertex.
    Trailing repeats of a loop's first vertex are read as padding, so
    another mesh's table builds the same mesh.
    Simplex elements have dim+1 vertices; polygon elements (2D only) are
    counter-clockwise loops of any length >= 3.
    """

    dim: int
    vertices: np.ndarray
    elements: np.ndarray
    element_kind: str = "simplex"
    lengths: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        loops = self.elements
        lengths = np.fromiter(map(len, loops), dtype=int, count=len(loops))
        w = int(lengths.max(initial=0))
        if (lengths == w).all():
            table = np.array(loops, dtype=int).reshape(len(loops), w)
        else:
            table = np.array([list(el) + list(el[:1]) * (w - len(el)) for el in loops], dtype=int)
        padding = np.cumprod(table[:, :0:-1] == table[:, :1], axis=1).sum(axis=1)
        self.lengths = w - padding
        self.elements = table[:, :self.lengths.max(initial=0)]

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_elements(self):
        return len(self.elements)

    def validate(self):
        """Check coordinates, index bounds, orientation and uniqueness.

        Reports the lowest non-finite vertex, or else the lowest offending
        element, and for it the first failing check in the order: index
        bounds (``DanglingNode``), duplicate vertex set (``NonManifold``),
        vertex count (``BadCount``), signed volume (``DegenerateElement``).
        """
        n, nv = self.num_elements, self.num_vertices
        _check_finite(self.vertices, range(nv))
        table = self.elements  # padding repeats a vertex: it changes no check
        out_of_range = ((table < 0) | (table >= nv)).any(axis=1)
        # vertex sets as sorted rows, repeated ids dropped
        rows = np.sort(table, axis=1)
        rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = -1
        rows.sort(axis=1)
        _, first, inverse, _ = unique_rows(rows)
        checks = [(out_of_range, DanglingNode, "references a vertex out of range"),
                  (first[inverse] < np.arange(n), NonManifold,
                   "duplicates another element's vertex set")]
        if self.element_kind == "simplex":
            arity = self.lengths != self.dim + 1
            ok = ~out_of_range & ~arity
            nonpositive = np.zeros(n, dtype=bool)
            if ok.any():
                cells = table[ok, :self.dim + 1]
                nonpositive[ok] = _affine(self.vertices[cells])[2] <= 0.0
            checks += [(arity, BadCount, f"is not a {self.dim}-simplex"),
                       (nonpositive, DegenerateElement, "has non-positive volume")]
        failed = np.logical_or.reduce([mask for mask, _, _ in checks])
        if failed.any():
            K = int(np.argmax(failed))
            error, reason = next((error, text) for mask, error, text in checks if mask[K])
            raise error(f"element {K} {reason}")
        return self


@dataclass
class Geometry:
    """Barycenters (N, dim), diameters (N,) and measures (N,) of every
    element, and the simplex tiling of all of them: ``sub_simplices``
    (S, dim+1, dim) with owning elements ``sub_owner`` (S,), ascending,
    and their affine maps ``sub_maps`` (see :func:`simplex_maps`), from
    the determinants that the measure checks used."""

    barycenters: np.ndarray
    diameters: np.ndarray
    measures: np.ndarray
    sub_simplices: np.ndarray
    sub_owner: np.ndarray
    sub_maps: tuple = field(repr=False)

    @property
    def h(self):
        """The mesh size max_K h_K."""
        return float(self.diameters.max())


@dataclass
class FaceTopology:
    """Deduplicated (dim-1)-facets with two-sided element adjacency.

    ``faces`` (F, dim) holds each facet's sorted vertex ids, rows in
    lexicographic order.  ``sides[f] = (K_plus, K_minus)`` with
    ``K_minus = -1`` on the boundary; the plus side is always the lower
    element id.  ``normals[f]`` is the unit outward normal of the plus side;
    the minus side sees its negation.  ``adjacency`` (N, max degree) lists
    each element's face neighbors ascending, padded with -1.  ``geometry``
    is the mesh's :class:`Geometry`, computed once here for every later
    stage, and ``maps`` the faces' affine maps (see :func:`face_maps`).
    """

    faces: np.ndarray
    sides: np.ndarray
    normals: np.ndarray
    h_e: np.ndarray
    boundary: np.ndarray
    adjacency: np.ndarray = field(repr=False)
    geometry: Geometry = field(repr=False)
    maps: tuple = field(repr=False)

    @property
    def num_faces(self):
        return len(self.faces)


# --------------------------------------------------------------------------
# primitive geometry helpers, batched
# --------------------------------------------------------------------------

def rowdot(a, b):
    """Dot products of matching rows along the last axis.

    Each is the same float as ``np.dot`` of the two rows, so that
    ``np.sqrt(rowdot(d, d))`` equals ``np.linalg.norm`` of each row;
    ``(a * b).sum(-1)`` rounds differently, and patch growth breaks exact
    distance ties by element id, so the distances must not change.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def unique_rows(rows):
    """The distinct rows of an (n, w) int table in lexicographic order, the
    first index of each, every row's index among them and each one's count:
    ``np.unique(rows, axis=0, return_index=True, return_inverse=True,
    return_counts=True)`` by one stable lexsort over the columns."""
    order = np.lexsort(rows.T[::-1]) if rows.size else np.arange(len(rows))
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    starts = np.nonzero(new)[0]
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[starts], order[starts], inverse, np.diff(np.r_[starts, len(rows)])


def diameters(coords):
    """Largest vertex-to-vertex distance of each of a batch of point sets
    (B, k, dim); repeated points do not change it.  The batch is the last
    axis of the work: vertex i against every later one, the squares added
    in axis order."""
    coords = np.moveaxis(coords, 0, 1)  # (k, B, dim)
    sq = np.zeros(coords.shape[1])
    for i in range(len(coords) - 1):
        d = coords[i + 1:] - coords[i]
        np.maximum(sq, sum(x ** 2 for x in np.moveaxis(d, -1, 0)).max(axis=0), out=sq)
    return np.sqrt(sq)


def _affine(simplices):
    """Origins (..., d), edge matrices (..., d, d) (rows are the edge
    vectors from the origin) and signed determinants (...) of a batch of
    simplices (..., d+1, d).  The origins are a contiguous copy: ``np.take``
    of a strided view copies the whole array on every call."""
    edges = simplices[..., 1:, :] - simplices[..., :1, :]
    return simplices[..., 0, :].copy(), edges, np.linalg.det(edges)


def simplex_maps(simplices):
    """The affine maps x = origin + xi @ edges from the reference simplex
    onto a batch of simplices (..., d+1, d): origins (..., d), edge matrices
    (..., d, d) and |det| (...), the ratio of measures.  Raises
    ``DegenerateSimplex`` for a (numerically) zero volume: a measure
    |det| / d! of at most 1e-14 diam^d, the rule of :func:`all_geometries`."""
    simplices = np.asarray(simplices, dtype=float)
    d = simplices.shape[-1]
    origin, edges, det = _affine(simplices)
    det = np.abs(det)
    diam = diameters(simplices.reshape(-1, d + 1, d)).reshape(det.shape)
    if np.any(det / math.factorial(d) <= 1e-14 * diam ** d):
        raise DegenerateSimplex("simplex has (numerically) zero volume")
    return origin, edges, det


def face_maps(faces):
    """The affine maps from the reference simplex of dimension dim - 1 onto
    a batch of faces (..., dim, dim) of a dim-dimensional mesh: origins
    (..., dim), edge matrices (..., dim - 1, dim) and the ratio of measures
    (...), the length of a segment or twice the area of a triangle."""
    faces = np.asarray(faces, dtype=float)
    edges = faces[..., 1:, :] - faces[..., :1, :]
    if faces.shape[-1] == 2:
        measure = np.linalg.norm(edges[..., 0, :], axis=-1)
    else:
        measure = np.linalg.norm(np.cross(edges[..., 0, :], edges[..., 1, :]), axis=-1)
    return faces[..., 0, :].copy(), edges, measure  # a copy: ``faces`` need not be kept


def _check_finite(vertices, ids):
    """Raise NonFiniteVertex for the first vertex with an inf or nan
    coordinate, named by its entry in ``ids``."""
    bad = ~np.isfinite(vertices).all(axis=-1)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonFiniteVertex(f"vertex {ids[i]} has a non-finite coordinate "
                              f"{tuple(vertices[i].tolist())}")


def _orient(cells, vertices):
    """Simplex vertex-id rows, the last two ids swapped in every row whose
    signed volume is negative."""
    cells = np.array(cells, dtype=int)
    flip = _affine(vertices[cells])[2] < 0.0
    cells[flip, -2:] = cells[flip, :-3:-1]
    return cells


# --------------------------------------------------------------------------
# structured generators
# --------------------------------------------------------------------------

def generate_square_tri(n, side=math.pi):
    """Uniform n x n grid on [0, side]^2, each cell split into two triangles.

    Cell diagonals alternate in a herringbone pattern; a single global
    diagonal direction correlates with the patch stencils and visibly
    degrades reconstruction quality on this mesh family.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if side <= 0:
        raise ValueError("side must be positive")
    xs = np.linspace(0.0, side, n + 1)
    x, y = np.meshgrid(xs, xs)  # vertex j (n+1) + i sits at (xs[i], xs[j])
    j, i = np.divmod(np.arange(n * n), n)
    # cell (i, j)'s corners (i, j), (i+1, j), (i+1, j+1), (i, j+1), and its two
    # triangles as corner positions, the diagonal alternating with i + j
    corners = (j * (n + 1) + i)[:, None] + np.array([0, 1, n + 2, n + 1])
    split = np.where((i + j)[:, None, None] % 2, [[0, 1, 3], [1, 2, 3]], [[0, 1, 2], [0, 2, 3]])
    cells = np.take_along_axis(corners[:, None], split, axis=2).reshape(-1, 3)
    return Mesh(2, np.column_stack([x.ravel(), y.ravel()]), cells).validate()


_KUHN_PERMS = np.array([(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)])


def generate_cube_tet(n):
    """Unit cube split into n^3 cells of 6 tetrahedra each (Kuhn split).

    The Kuhn split is face-to-face compatible across cells because every
    shared cube face receives the same diagonal from the global axis order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    z, y, x = np.meshgrid(xs, xs, xs, indexing="ij")  # vertex (k (n+1) + j) (n+1) + i
    verts = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    k, j, i = np.unravel_index(np.arange(n ** 3), (n, n, n))
    # the six paths from a cell's low corner to its high corner, one axis step
    # at a time, as vertex-id offsets
    paths = np.pad(np.array([1, n + 1, (n + 1) ** 2])[_KUHN_PERMS].cumsum(axis=1), ((0, 0), (1, 0)))
    cells = (((k * (n + 1) + j) * (n + 1) + i)[:, None, None] + paths).reshape(-1, 4)
    return Mesh(3, verts, _orient(cells, verts)).validate()


# --------------------------------------------------------------------------
# MSH 2.2 reader / writer (ASCII, element types 2 and 4 only)
# --------------------------------------------------------------------------

#: node count of each imported MSH element type
_MSH_ARITY = {2: 3, 4: 4}


def _fields(no, parts, types, more=None):
    """The fields ``parts`` of line ``no`` read by ``types``, one type each,
    and every field after them by ``more``.  A missing field, an extra one
    (when ``more`` is None) or one its type cannot read raises ``BadCount``
    naming the line."""
    if len(parts) == len(types) or more and len(parts) > len(types):
        try:
            return [kind(part) for kind, part in zip([*types, *[more] * len(parts)], parts)]
        except ValueError:
            pass
    names = " ".join(t.__name__ for t in types) + (f" {more.__name__}..." if more else "")
    raise BadCount(f"line {no}: expected the fields '{names}', found '{' '.join(parts)}'")


def _lines(text):
    """The lines of a mesh file given as str or bytes.  A character outside
    ASCII raises ``BadCount`` naming its line, so neither an undecodable byte
    nor another script's digit (which ``int`` and ``float`` would read)
    reaches a field."""
    if isinstance(text, bytes):
        text = text.decode("latin-1")  # one character per byte
    if not text.isascii():
        at = next(i for i, c in enumerate(text) if not c.isascii())
        no = len((text[:at] + "x").splitlines())  # the line that holds it
        raise BadCount(f"line {no}: character {ord(text[at]):#x} is not ASCII")
    return text.splitlines()


def parse_msh(text):
    """Parse an ASCII Gmsh MSH 2.2 file into a Mesh.

    Triangles (type 2) or tetrahedra (type 4) are imported; points and lines
    are skipped.  Node ids are remapped to dense 0-based indices in file
    order.  A line whose fields are not exactly the numbers its kind needs,
    an element line that repeats a node, or a character outside ASCII raises
    ``BadCount`` naming the line.
    """
    sections = {}  # name -> its header's line number and its body's (line number, fields) rows
    lines = enumerate(_lines(text), start=1)
    for header, ln in lines:
        ln = ln.strip()
        if ln.startswith("$") and not ln.startswith("$End"):
            name, body = ln[1:], []
            for no, row in lines:
                if row.strip() == f"$End{name}":
                    break
                body.append((no, row.split()))
            else:
                raise BadCount(f"section {name} is not terminated")
            sections[name] = header, body

    _, head = sections.get("MeshFormat", (0, []))
    if not head:
        raise UnsupportedVersion("missing $MeshFormat header")
    version = next(iter(head[0][1]), "")
    if version != "2.2":
        raise UnsupportedVersion(f"MSH version {version} is not supported (need 2.2)")
    if "Nodes" not in sections or "Elements" not in sections:
        raise BadCount("missing $Nodes or $Elements section")
    for name in ("Nodes", "Elements"):  # each body's count line, checked and dropped
        header, body = sections[name]
        if not body:
            raise BadCount(f"line {header}: ${name} has no count line")
        (no, parts), *body = body
        [count] = _fields(no, parts, (int,))
        if len(body) != count:
            raise BadCount(f"line {no}: ${name} count {count} disagrees with its {len(body)} lines")
        sections[name] = body

    nodes = [_fields(no, parts, (int, float, float, float)) for no, parts in sections["Nodes"]]
    node_ids = [node[0] for node in nodes]
    id_map = {nid: i for i, nid in enumerate(node_ids)}
    if len(id_map) != len(node_ids):
        twice = next(nid for i, nid in enumerate(node_ids) if id_map[nid] != i)
        raise DuplicateNode(f"node {twice} is defined twice")
    coords = np.array([node[1:] for node in nodes])

    cells = {etype: [] for etype in _MSH_ARITY}  # points, lines, ... are skipped
    for no, parts in sections["Elements"]:
        _, etype, ntags, *rest = _fields(no, parts, (int, int, int), int)
        if not 0 <= ntags <= len(rest):
            raise BadCount(f"line {no}: {ntags} tags do not fit in the line")
        ids = rest[ntags:]
        if etype in cells:
            if len(set(ids)) != len(ids) or len(ids) != _MSH_ARITY[etype]:
                raise BadCount(f"line {no}: element type {etype} needs {_MSH_ARITY[etype]} "
                               f"distinct nodes, found {' '.join(map(str, ids))}")
            cells[etype].append(ids)
    tris, tets = cells[2], cells[4]
    if tris and tets:
        raise MixedDimension("file contains both triangles and tetrahedra")
    if not tris and not tets:
        raise BadCount("no triangles or tetrahedra in file")

    raw = tris if tris else tets
    dim = 2 if tris else 3
    try:
        elements = [[id_map[n] for n in ids] for ids in raw]
    except KeyError as missing:
        raise DanglingNode(f"element references missing node {missing}") from None
    verts = coords[:, :dim]
    _check_finite(verts, node_ids)
    return Mesh(dim, verts, _orient(elements, verts)).validate()


def write_msh(mesh):
    """Serialize a simplex Mesh to an ASCII MSH 2.2 string."""
    if mesh.element_kind != "simplex":
        raise ValueError("MSH export supports simplex meshes only")
    etype = 2 if mesh.dim == 2 else 4
    out = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes", str(mesh.num_vertices)]
    for i, v in enumerate(mesh.vertices):
        xyz = list(v) + [0.0] * (3 - mesh.dim)
        out.append(f"{i + 1} " + " ".join("%.17g" % c for c in xyz))
    out += ["$EndNodes", "$Elements", str(mesh.num_elements)]
    for K, (el, k) in enumerate(zip(mesh.elements.tolist(), mesh.lengths.tolist())):
        nodes = " ".join(str(i + 1) for i in el[:k])
        out.append(f"{K + 1} {etype} 2 0 1 {nodes}")
    out.append("$EndElements")
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# polygon mesh text format
# --------------------------------------------------------------------------

def parse_poly(text):
    """Parse the line-oriented polygon format: "V E", V vertex lines "x y",
    then E element lines "k i1 ... ik", counter-clockwise loops of k distinct
    vertices.  A line whose fields are not exactly the numbers its kind
    needs, a loop that repeats a vertex, or a character outside ASCII raises
    ``BadCount`` naming it."""
    rows = [(no, ln.split()) for no, ln in enumerate(_lines(text), start=1)
            if ln.strip() and not ln.lstrip().startswith("#")]
    if not rows:
        raise BadCount("expected a counts line 'V E'")
    (no, counts), *rows = rows
    nv, ne = _fields(no, counts, (int, int))
    if nv < 0 or ne < 1:
        raise BadCount(f"line {no}: need V >= 0 vertices and E >= 1 elements, found {nv} {ne}")
    if len(rows) != nv + ne:
        raise BadCount(f"line {no}: counts {nv} {ne} need {nv + ne} more lines, found {len(rows)}")
    verts = np.array([_fields(no, r, (float, float)) for no, r in rows[:nv]])
    elements = []
    for no, r in rows[nv:]:
        k, *el = _fields(no, r, (int,), int)
        if len(el) != k or len(set(el)) < max(k, 3):
            raise BadCount(f"line {no}: a polygon line needs k >= 3, then k distinct vertex ids")
        if any(i < 0 or i >= nv for i in el):
            raise DanglingNode(f"line {no}: polygon references a vertex out of range")
        elements.append(el)
    mesh = Mesh(2, verts, elements, element_kind="polygon").validate()
    all_geometries(mesh)  # raises NonCCW / NotStarShaped / DegenerateElement
    return mesh


def write_poly(mesh):
    """Serialize a 2D polygon (or triangle) mesh in the parse_poly format."""
    if mesh.dim != 2:
        raise ValueError("poly export is 2D only")
    out = [f"{mesh.num_vertices} {mesh.num_elements}"]
    for v in mesh.vertices:
        out.append("%.17g %.17g" % (v[0], v[1]))
    for el, k in zip(mesh.elements.tolist(), mesh.lengths.tolist()):
        out.append(f"{k} " + " ".join(str(i) for i in el[:k]))
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# topology and per-element geometry
# --------------------------------------------------------------------------

# local vertex positions of each facet of a tetrahedron
_TET_FACETS = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]


def _facet_rows(mesh):
    """Every element's facets as sorted vertex-id rows, element by element,
    and the element owning each row."""
    if mesh.dim == 2:  # the edges (v_i, v_i+1) of each loop, triangles included
        table, lengths = mesh.elements, mesh.lengths
        pos = np.arange(table.shape[1])
        ends = table[np.arange(len(table))[:, None], (pos + 1) % lengths[:, None]]
        keep = pos < lengths[:, None]
        rows = np.stack([table[keep], ends[keep]], axis=1)
        owner = np.repeat(np.arange(mesh.num_elements), lengths)
    else:
        rows = mesh.elements[:, _TET_FACETS].reshape(-1, 3)
        owner = np.repeat(np.arange(mesh.num_elements), len(_TET_FACETS))
    return np.sort(rows, axis=1), owner


def build_topology(mesh):
    """Deduplicate facets and attach two-sided adjacency and outward normals."""
    rows, owner = _facet_rows(mesh)
    faces, _, inverse, counts = unique_rows(rows)
    crowded = counts > 2
    if crowded.any():
        f = int(np.argmax(crowded))
        raise NonManifold(f"facet {tuple(faces[f].tolist())} is shared by {counts[f]} elements")
    # incident elements per facet, ascending (rows come element by element)
    incident = owner[np.argsort(inverse, kind="stable")]
    first = np.cumsum(counts) - counts
    kp = incident[first]
    km = np.where(counts == 2, incident[np.minimum(first + 1, len(incident) - 1)], -1)
    sides = np.stack([kp, km], axis=1)
    boundary = km == -1

    geometry = all_geometries(mesh)
    coords = mesh.vertices[faces]
    maps = face_maps(coords)
    edges = maps[1]
    if mesh.dim == 2:  # the first edge turned clockwise, or the two edges' cross product
        n = np.stack([edges[:, 0, 1], -edges[:, 0, 0]], axis=1)
    else:
        n = np.cross(edges[:, 0], edges[:, 1])
    n = n / np.sqrt(rowdot(n, n))[:, None]
    center = coords.mean(axis=1)
    inward = rowdot(n, center - geometry.barycenters[kp]) < 0.0
    n[inward] = -n[inward]

    # adjacency: both orientations of every interior facet, sorted
    a = np.concatenate([kp[~boundary], km[~boundary]])
    b = np.concatenate([km[~boundary], kp[~boundary]])
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    degree = np.bincount(a, minlength=mesh.num_elements)
    adjacency = np.full((mesh.num_elements, int(degree.max(initial=0))), -1)
    adjacency[a, np.arange(len(a)) - (np.cumsum(degree) - degree)[a]] = b
    return FaceTopology(faces, sides, n, diameters(coords), boundary, adjacency, geometry, maps)


def _geometry(mesh, elements):
    """:class:`Geometry` of the given elements (an id array), in its order.

    Simplices tile themselves; polygons are fanned from their area
    centroid, which requires (and checks) counter-clockwise orientation and
    star-shapedness with respect to it.  Raises for the first listed
    element that fails a check.
    """
    elements = np.asarray(elements, dtype=int)
    lengths = mesh.lengths[elements]
    coords = mesh.vertices[mesh.elements[elements]]
    h = diameters(coords)
    if mesh.element_kind == "simplex":
        origin, edges, det = _affine(coords)
        vol = det / math.factorial(mesh.dim)
        degenerate = vol <= 1e-14 * h ** mesh.dim
        if degenerate.any():
            i = int(np.argmax(degenerate))
            raise DegenerateElement(f"element {elements[i]} has measure {vol[i]:g}")
        return Geometry(coords.mean(axis=1), h, vol, coords, elements, (origin, edges, np.abs(det)))

    # polygons: one shoelace pass about each loop's first vertex, which the padding
    # repeats, so rolling the table closes every loop and padded edges add exact zeros
    ahead = np.roll(coords, -1, axis=1)
    r, rn = coords - coords[:, :1], ahead - coords[:, :1]
    cross = r[..., 0] * rn[..., 1] - rn[..., 0] * r[..., 1]
    area = 0.5 * cross.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # degenerate rows raise below
        centroid = coords[:, 0] + ((r + rn) * cross[..., None]).sum(axis=1) / (6.0 * area[:, None])
    fans = np.stack(np.broadcast_arrays(centroid[:, None], coords, ahead), axis=2)
    fans = fans[np.arange(coords.shape[1]) < lengths[:, None]]  # (S, 3, 2), element by element
    owner = np.repeat(np.arange(len(elements)), lengths)
    with np.errstate(invalid="ignore"):  # the fans of a degenerate polygon raise below
        origin, edges, det = _affine(fans)
    not_star = np.bincount(owner, det / 2.0 <= 1e-14 * h[owner] ** 2, len(elements)) > 0
    degenerate = area <= 1e-14 * h ** 2
    failed = degenerate | not_star
    if failed.any():
        i = int(np.argmax(failed))
        if area[i] < 0.0:
            raise NonCCW(f"polygon {elements[i]} is clockwise (area {area[i]:g})")
        if degenerate[i]:
            raise DegenerateElement(f"polygon {elements[i]} has area {area[i]:g}")
        raise NotStarShaped(f"polygon {elements[i]} is not star-shaped about its centroid")
    return Geometry(centroid, h, area, fans, elements[owner], (origin, edges, np.abs(det)))


def all_geometries(mesh):
    """:class:`Geometry` of every element, in one batch."""
    return _geometry(mesh, np.arange(mesh.num_elements))


def mesh_size(mesh):
    """max_K h_K."""
    return all_geometries(mesh).h
