"""The batched setup against a plain, one-element-at-a-time reference.

The references below are the dictionary-based facet map and the greedy
candidate-dict patch growth that the batched code replaces.  They take
nothing from the package but the mesh, so every facet, normal, neighbor
list and patch is checked against an independent computation; exact
distance ties (herringbone and Kuhn meshes) must be broken by element id.
"""

import numpy as np
import pytest

from patchdg.mesh import build_topology, generate_cube_tet, generate_square_tri, parse_poly
from patchdg.patch import build_patch, grow_patch
from patchdg.reconstruction import build_space


def loops(mesh):
    """Each element's vertex ids, the cell table's padding dropped."""
    return [el[:k] for el, k in zip(mesh.elements.tolist(), mesh.lengths.tolist())]


def reference_barycenter(mesh, K):
    coords = mesh.vertices[mesh.elements[K, :mesh.lengths[K]]]
    if mesh.element_kind == "simplex":
        return coords.mean(axis=0)
    x, y = coords[:, 0], coords[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * cross.sum()
    return np.array([((x + xn) * cross).sum(), ((y + yn) * cross).sum()]) / (6.0 * area)


def reference_topology(mesh):
    """(faces, sides, normals, h_e, neighbors) from a dict of sorted facets."""
    facet_map = {}
    for K, el in enumerate(loops(mesh)):
        if mesh.element_kind == "polygon" or mesh.dim == 2:
            facets = [(el[i], el[(i + 1) % len(el)]) for i in range(len(el))]
        else:
            a, b, c, d = el
            facets = [(b, c, d), (a, c, d), (a, b, d), (a, b, c)]
        for facet in facets:
            facet_map.setdefault(tuple(sorted(facet)), []).append(K)
    faces, sides, normals, h_e = [], [], [], []
    neighbors = [[] for _ in range(mesh.num_elements)]
    for key in sorted(facet_map):
        incident = facet_map[key]
        kp, km = min(incident), (max(incident) if len(incident) == 2 else -1)
        coords = mesh.vertices[list(key)]
        if mesh.dim == 2:
            t = coords[1] - coords[0]
            n = np.array([t[1], -t[0]])
        else:
            n = np.cross(coords[1] - coords[0], coords[2] - coords[0])
        n = n / np.linalg.norm(n)
        if np.dot(n, coords.mean(axis=0) - reference_barycenter(mesh, kp)) < 0.0:
            n = -n
        diff = coords[:, None, :] - coords[None, :, :]
        faces.append(key)
        sides.append((kp, km))
        normals.append(n)
        h_e.append(np.sqrt((diff ** 2).sum(-1)).max())
        if km >= 0:
            neighbors[kp].append(km)
            neighbors[km].append(kp)
    return faces, sides, np.array(normals), np.array(h_e), [sorted(ns) for ns in neighbors]


def reference_patch(mesh, neighbors, K, t):
    """Greedy growth with a candidate dict; None when the patch runs out."""
    center = reference_barycenter(mesh, K)
    dist = lambda e: float(np.linalg.norm(reference_barycenter(mesh, e) - center))  # noqa: E731
    members = [K]
    candidates = {nb: dist(nb) for nb in neighbors[K]}
    while len(members) < t:
        if not candidates:
            return None
        best = min(candidates, key=lambda e: (candidates[e], e))
        del candidates[best]
        members.append(best)
        for nb in neighbors[best]:
            if nb not in members and nb not in candidates:
                candidates[nb] = dist(nb)
    return members


def reference_ring(mesh, neighbors, members):
    center = reference_barycenter(mesh, members[0])
    ring = {nb for K in members for nb in neighbors[K]} - set(members)
    return sorted(ring, key=lambda e: (
        float(np.linalg.norm(reference_barycenter(mesh, e) - center)), e))


def polygon_mesh():
    # jittered quads of [0, 3]^2, every third cell split into two triangles
    rng = np.random.default_rng(7)
    n = 6
    xs = np.linspace(0.0, 3.0, n + 1)
    verts = np.array([[x, y] for y in xs for x in xs])
    inner = np.all((verts > 0.0) & (verts < 3.0), axis=1)
    verts[inner] += rng.uniform(-0.1, 0.1, (int(inner.sum()), 2))
    cells = []
    for j in range(n):
        for i in range(n):
            v = j * (n + 1) + i
            quad = (v, v + 1, v + n + 2, v + n + 1)
            if (i + 2 * j) % 3 == 0:
                cells += [quad[:3], (quad[0], quad[2], quad[3])]
            else:
                cells.append(quad)
    lines = [f"{len(verts)} {len(cells)}"] + [f"{x:.17g} {y:.17g}" for x, y in verts]
    lines += [f"{len(c)} " + " ".join(map(str, c)) for c in cells]
    return parse_poly("\n".join(lines) + "\n")


MESHES = {
    "square:8": lambda: generate_square_tri(8),
    "cube:3": lambda: generate_cube_tet(3),
    "polygon": polygon_mesh,
}


@pytest.fixture(scope="module", params=list(MESHES))
def case(request):
    mesh = MESHES[request.param]()
    return mesh, build_topology(mesh), reference_topology(mesh)


def test_topology_matches_reference(case):
    mesh, topo, (faces, sides, normals, h_e, neighbors) = case
    assert [tuple(f) for f in topo.faces.tolist()] == faces
    assert topo.sides.tolist() == [list(s) for s in sides]
    assert topo.normals.tobytes() == normals.tobytes()
    assert topo.h_e.tobytes() == h_e.tobytes()
    assert [row[row >= 0].tolist() for row in topo.adjacency] == neighbors
    assert topo.boundary.tolist() == [km < 0 for _, km in sides]


@pytest.mark.parametrize("t", [4, 9, 15])
def test_patches_match_reference(case, t):
    mesh, topo, (_, _, _, _, neighbors) = case
    batch = build_patch(mesh, topo, np.arange(mesh.num_elements), t)
    for K in range(mesh.num_elements):
        expect = reference_patch(mesh, neighbors, K, t)
        assert batch.members[K].tolist() == expect
        assert build_patch(mesh, topo, [K], t).members.tolist() == [expect]


def test_grown_patches_match_reference(case):
    mesh, topo, (_, _, _, _, neighbors) = case
    for K in range(mesh.num_elements):
        members = reference_patch(mesh, neighbors, K, 4)
        grown = grow_patch(mesh, topo, build_patch(mesh, topo, [K], 4))
        assert grown.members.tolist() == [members + reference_ring(mesh, neighbors, members)]


def test_space_patches_after_rank_retry():
    # tall rectangles: the first three nodes of each bottom cell are
    # collinear, so those patches are grown by a ring before they fit
    verts = [(x, y) for y in (0, 2, 4) for x in (0, 1, 2, 3)]
    cells = [f"4 {v} {v + 1} {v + 5} {v + 4}" for v in (0, 1, 2, 4, 5, 6)]
    lines = [f"{len(verts)} 6"] + [f"{x} {y}" for x, y in verts] + cells
    mesh = parse_poly("\n".join(lines) + "\n")
    topo = build_topology(mesh)
    neighbors = reference_topology(mesh)[4]
    space = build_space(mesh, topo, 1, t=3)
    grown = 0
    for K in range(mesh.num_elements):
        members = reference_patch(mesh, neighbors, K, 3)
        row = space.R.indices[space.R.indptr[K]:space.R.indptr[K + 1]].tolist()
        while len(row) > len(members):
            members = members + reference_ring(mesh, neighbors, members)
            grown += 1
        assert row == members
        assert space.patches[K].members == members
    assert grown > 0
