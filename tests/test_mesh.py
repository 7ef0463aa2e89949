import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from patchdg.errors import (
    BadCount,
    DanglingNode,
    DegenerateElement,
    DuplicateNode,
    MeshError,
    MixedDimension,
    NonCCW,
    NonFiniteVertex,
    NonManifold,
    NotStarShaped,
    UnsupportedVersion,
)
from patchdg import mesh as mesh_module
from patchdg.mesh import (
    Mesh,
    _facet_rows,
    all_geometries,
    build_topology,
    diameters,
    generate_cube_tet,
    generate_square_tri,
    parse_msh,
    parse_poly,
    simplex_maps,
    unique_rows,
    write_msh,
    write_poly,
)


def signed_measures(coords):
    """Signed measures of a batch of simplices, (B, dim+1, dim) vertices."""
    coords = np.asarray(coords, dtype=float)
    d = coords.shape[-1]
    return np.linalg.det(coords[:, 1:] - coords[:, :1]) / math.factorial(d)


def element_coords(mesh):
    return mesh.vertices[np.array(mesh.elements)]


def loop_square_tri(n, side=np.pi):
    """The cell-by-cell loop that generate_square_tri replaced:
    (vertices, cells) in the same numbering."""
    xs = np.linspace(0.0, side, n + 1)
    verts = np.array([[xs[i], xs[j]] for j in range(n + 1) for i in range(n + 1)])
    vid = lambda i, j: j * (n + 1) + i
    cells = []
    for j in range(n):
        for i in range(n):
            v00, v10, v01, v11 = vid(i, j), vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1)
            if (i + j) % 2 == 0:
                cells += [(v00, v10, v11), (v00, v11, v01)]
            else:
                cells += [(v00, v10, v01), (v10, v11, v01)]
    return verts, cells


def loop_cube_tet(n):
    """The cell-by-cell Kuhn split that generate_cube_tet replaced, every
    negatively oriented tetrahedron with its last two vertices swapped."""
    xs = np.linspace(0.0, 1.0, n + 1)
    verts = np.array([[xs[i], xs[j], xs[k]]
                      for k in range(n + 1) for j in range(n + 1) for i in range(n + 1)])
    vid = lambda i, j, k: (k * (n + 1) + j) * (n + 1) + i
    cells = []
    for k in range(n):
        for j in range(n):
            for i in range(n):
                for perm in itertools.permutations(range(3)):
                    corner = [i, j, k]
                    path = [vid(*corner)]
                    for axis in perm:
                        corner[axis] += 1
                        path.append(vid(*corner))
                    if signed_measures(verts[path][None])[0] < 0.0:
                        path[-2:] = path[:-3:-1]
                    cells.append(path)
    return verts, cells


# a triangle pair, a quad and a pentagon: loops of three widths
MIXED_POLY = """8 4
0 0
1 0
2 0
0 1
1 1
2 1
0 2
2 2
4 0 1 4 3
3 1 2 5
3 1 5 4
5 3 4 5 7 6
"""

MSH_FIXTURE = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 1 1 0
4 0 1 0
$EndNodes
$Elements
3
1 1 2 0 1 1 2
2 2 2 0 1 1 2 3
3 2 2 0 1 1 3 4
$EndElements
"""


def both_triangles(nodes):
    """The fixture with both triangles' node lists replaced by ``nodes``."""
    return (MSH_FIXTURE.replace("2 2 2 0 1 1 2 3", f"2 2 2 0 1 {nodes}")
            .replace("3 2 2 0 1 1 3 4", f"3 2 2 0 1 {nodes}"))


#: mesh files, by file name, each with a line whose fields are not exactly the
#: numbers its kind needs, an element or polygon line that repeats a node, or
#: a character outside ASCII (here digits that int and float would read)
MALFORMED = {
    "short-element.msh": MSH_FIXTURE.replace("2 2 2 0 1 1 2 3", "1 2"),
    "empty-nodes.msh": MSH_FIXTURE.replace("4\n1 0 0 0\n2 1 0 0\n3 1 1 0\n4 0 1 0\n", ""),
    "two-node-triangles.msh": both_triangles("1 2"),
    "four-node-triangles.msh": both_triangles("1 2 3 4"),
    "tags-past-end.msh": MSH_FIXTURE.replace("2 2 2 0 1 1 2 3", "2 2 9 0 1 1 2 3"),
    "short-node.msh": MSH_FIXTURE.replace("3 1 1 0", "3 1"),
    "no-vertices.poly": "0 0\n",
    "no-elements.poly": "3 0\n0 0\n1 0\n0 1\n",
    "one-coordinate.poly": "3 1\n0 0\n1\n0 1\n3 0 1 2\n",
    "word-coordinate.msh": MSH_FIXTURE.replace("3 1 1 0", "3 a 1 0"),
    "extra-coordinate.msh": MSH_FIXTURE.replace("3 1 1 0", "3 1 1 0 7"),
    "word-node.msh": MSH_FIXTURE.replace("2 2 2 0 1 1 2 3", "2 2 2 0 1 1 2 x"),
    "word-count.msh": MSH_FIXTURE.replace("$Nodes\n4\n", "$Nodes\nfour\n"),
    "fractional-node-id.msh": MSH_FIXTURE.replace("3 1 1 0", "3.5 1 1 0"),
    "word-counts.poly": "x 1\n",
    "extra-coordinate.poly": "3 1\n0 0 5\n1 0\n0 1\n3 0 1 2\n",
    "word-vertex-id.poly": "3 1\n0 0\n1 0\n0 1\n3 0 1 z\n",
    "repeated-vertex.poly": "4 1\n0 0\n1 0\n1 1\n0 1\n4 0 1 2 0\n",
    "repeated-node.msh": MSH_FIXTURE.replace("2 2 2 0 1 1 2 3", "2 2 2 0 1 1 2 1"),
    "non-ascii.msh": MSH_FIXTURE.replace("3 1 1 0", "3 \uff11 1 0"),
    "non-ascii.poly": "3 1\n0 0\n1 0\n0 \u0661\n3 0 1 2\n",
}

#: a mixed quad and triangle mesh, the other text the mutation sweep starts from
POLY_FIXTURE = "5 2\n0 0\n1 0\n1 1\n0 1\n2 0.5\n4 0 1 2 3\n3 1 4 2\n"
SWEEP_VALUES = ("", "x", "1.5", "-1", "0", "99", "nan", "1e400", "3", "4")


def mutations(text):
    """(line index, whether a field was appended, lines) of every one-token or
    one-line change of ``text`` split on newlines: each token replaced by
    each of ``SWEEP_VALUES``, then each line with " 7" appended, deleted and
    duplicated."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        tokens = line.split()
        for j, value in itertools.product(range(len(tokens)), SWEEP_VALUES):
            changed = " ".join(tokens[:j] + [value] + tokens[j + 1:])
            yield i, False, lines[:i] + [changed] + lines[i + 1:]
        yield i, True, lines[:i] + [line + " 7"] + lines[i + 1:]
        yield i, False, lines[:i] + lines[i + 1:]
        yield i, False, lines[:i + 1] + lines[i:]


class TestGenerators:
    def test_minimal_split(self):
        mesh = generate_square_tri(1, side=np.pi)
        assert mesh.num_elements == 2
        assert mesh.num_vertices == 4

    def test_area_conservation(self):
        mesh = generate_square_tri(2, side=np.pi)
        assert mesh.num_elements == 8
        total = signed_measures(element_coords(mesh)).sum()
        assert abs(total - np.pi ** 2) < 1e-12

    def test_handshake_identity(self):
        # every triangle has 3 edges and every interior edge is shared by 2
        mesh = generate_square_tri(4)
        edges = {}
        for el in mesh.elements:
            for e in ((el[0], el[1]), (el[1], el[2]), (el[2], el[0])):
                edges[tuple(sorted(e))] = edges.get(tuple(sorted(e)), 0) + 1
        interior = sum(1 for c in edges.values() if c == 2)
        boundary = sum(1 for c in edges.values() if c == 1)
        assert 3 * mesh.num_elements == 2 * interior + boundary
        topo = build_topology(mesh)
        assert topo.num_faces == interior + boundary
        assert int(topo.boundary.sum()) == boundary

    def test_cube_minimal(self):
        mesh = generate_cube_tet(1)
        assert mesh.num_elements == 6
        assert mesh.num_vertices == 8

    def test_cube_volume(self):
        mesh = generate_cube_tet(2)
        assert mesh.num_elements == 48
        total = signed_measures(element_coords(mesh)).sum()
        assert abs(total - 1.0) < 1e-12

    def test_cube_face_incidence(self):
        # exhaustive check: every interior triangular face has exactly 2 tets
        mesh = generate_cube_tet(2)
        faces = {}
        for el in mesh.elements:
            a, b, c, d = el
            for f in ((b, c, d), (a, c, d), (a, b, d), (a, b, c)):
                faces[tuple(sorted(f))] = faces.get(tuple(sorted(f)), 0) + 1
        assert set(faces.values()) <= {1, 2}
        topo = build_topology(mesh)
        assert sum(1 for c in faces.values() if c == 2) == int((~topo.boundary).sum())

    def test_generated_meshes_validate(self):
        generate_square_tri(5).validate()
        generate_cube_tet(2).validate()

    @pytest.mark.parametrize("generate, oracle, sizes",
                             [(generate_square_tri, loop_square_tri, range(1, 17)),
                              (generate_cube_tet, loop_cube_tet, range(1, 7))],
                             ids=["square", "cube"])
    def test_generators_match_loop_oracle(self, generate, oracle, sizes):
        # the numbering is part of the output: patch growth breaks ties by id
        for n in sizes:
            mesh = generate(n)
            verts, cells = oracle(n)
            assert mesh.vertices.tobytes() == verts.tobytes()
            assert np.array_equal(mesh.elements, cells)
            assert (mesh.lengths == mesh.dim + 1).all()

    def test_bad_args(self):
        with pytest.raises(ValueError):
            generate_square_tri(0)
        with pytest.raises(ValueError):
            generate_square_tri(2, side=-1.0)
        with pytest.raises(ValueError):
            generate_cube_tet(0)


class TestValidate:
    BASE = generate_square_tri(2)

    def check(self, elements, error, message, kind="simplex"):
        mesh = Mesh(2, self.BASE.vertices, elements, element_kind=kind)
        with pytest.raises(error) as info:
            mesh.validate()
        assert str(info.value) == message

    def test_each_check_and_its_message(self):
        E = list(self.BASE.elements)
        self.check(E[:3] + [(0, 1, 99)], DanglingNode,
                   "element 3 references a vertex out of range")
        self.check(E[:2] + [(0, -1, 3)], DanglingNode,
                   "element 2 references a vertex out of range")
        self.check(E[:5] + [E[1][::-1]], NonManifold,
                   "element 5 duplicates another element's vertex set")
        self.check(E[:4] + [(0, 1)], BadCount, "element 4 is not a 2-simplex")
        self.check(E[:6] + [(E[6][1], E[6][0], E[6][2])], DegenerateElement,
                   "element 6 has non-positive volume")
        self.check([(0, 1, 4, 3), (1, 2, 5, 4), (3, 0, 1, 4)], NonManifold,
                   "element 2 duplicates another element's vertex set", kind="polygon")

    def test_lowest_element_first_check(self):
        E = list(self.BASE.elements)
        # element 2 is both a duplicate and too short; element 3 is out of range
        self.check(E[:2] + [(E[1][1], E[1][0], E[1][2], E[1][0]), (0, 1, 99)], NonManifold,
                   "element 2 duplicates another element's vertex set")
        self.check(E[:4] + [(0, 1), (0, 1, 99)], BadCount, "element 4 is not a 2-simplex")


    def test_non_finite_vertex(self):
        mesh = Mesh(2, np.array([[0.0, 0], [1, 0], [0, np.nan]]), [(0, 1, 2)])
        with pytest.raises(NonFiniteVertex) as info:
            mesh.validate()
        assert str(info.value) == "vertex 2 has a non-finite coordinate (0.0, nan)"
        assert isinstance(info.value, ValueError)


class TestMshIO:
    def test_parse_fixture(self):
        mesh = parse_msh(MSH_FIXTURE.encode())
        assert mesh.dim == 2
        assert mesh.num_vertices == 4
        assert mesh.num_elements == 2

    def test_version_rejected(self):
        bad = MSH_FIXTURE.replace("2.2 0 8", "4.1 0 8")
        with pytest.raises(UnsupportedVersion):
            parse_msh(bad)

    def test_dangling_node(self):
        bad = MSH_FIXTURE.replace("2 2 2 0 1 1 2 3", "2 2 2 0 1 1 2 99")
        with pytest.raises(DanglingNode):
            parse_msh(bad)

    def test_duplicate_node(self):
        bad = MSH_FIXTURE.replace("4\n1 0 0 0", "5\n1 0 0 0").replace(
            "4 0 1 0\n", "4 0 1 0\n3 5 5 0\n")
        with pytest.raises(DuplicateNode, match="^node 3 "):
            parse_msh(bad)

    def test_mixed_dimension(self):
        bad = MSH_FIXTURE.replace(
            "3 2 2 0 1 1 3 4", "3 4 2 0 1 1 2 3 4"
        )
        with pytest.raises(MixedDimension):
            parse_msh(bad)

    def test_non_finite_node_rejected_before_geometry(self):
        bad = MSH_FIXTURE.replace("3 1 1 0", "3 1 nan 0")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteVertex, match="^vertex 3 "):
                parse_msh(bad)

    def test_round_trip_2d(self):
        mesh = generate_square_tri(2)
        back = parse_msh(write_msh(mesh))
        assert np.max(np.abs(back.vertices - mesh.vertices)) < 1e-12
        assert np.array_equal(back.elements, mesh.elements)

    @pytest.mark.parametrize("mesh", [generate_square_tri(3), generate_cube_tet(2)])
    def test_negative_elements_reoriented(self, mesh):
        # every other element written with its last two vertices swapped
        # comes back with them swapped back, the others unchanged
        flipped = mesh.elements.copy()
        flipped[1::2, -2:] = flipped[1::2, :-3:-1]
        text = write_msh(Mesh(mesh.dim, mesh.vertices, flipped))
        assert np.array_equal(parse_msh(text).elements, mesh.elements)

    def test_round_trip_3d(self):
        mesh = generate_cube_tet(1)
        back = parse_msh(write_msh(mesh))
        assert np.max(np.abs(back.vertices - mesh.vertices)) < 1e-12
        assert np.array_equal(back.elements, mesh.elements)


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_file_names_its_line_before_any_geometry(monkeypatch, name):
    for attr in ("_orient", "all_geometries"):
        monkeypatch.setattr(mesh_module, attr, lambda *a: pytest.fail("geometry computed"))
    parse = parse_poly if name.endswith(".poly") else parse_msh
    with pytest.raises(MeshError, match=r"^line \d+: "):
        parse(MALFORMED[name])


@pytest.mark.parametrize("text, parse", [(MSH_FIXTURE, parse_msh), (POLY_FIXTURE, parse_poly)],
                         ids=["msh", "poly"])
def test_non_ascii_byte_names_its_line(text, parse):
    with pytest.raises(BadCount, match="^line 1: character 0xff is not ASCII$"):
        parse(b"\xff")
    lines = text.encode().split(b"\n")
    lines[2] += b" \xe9"
    with pytest.raises(BadCount, match="^line 3: character 0xe9 is not ASCII$"):
        parse(b"\r\n".join(lines))


@pytest.mark.parametrize("text, parse, coordinate_lines, size", [
    (MSH_FIXTURE, parse_msh, range(5, 9), 551),
    (POLY_FIXTURE, parse_poly, range(1, 6), 237),
], ids=["msh", "poly"])
def test_every_mutated_file_parses_or_raises_a_mesh_error(text, parse, coordinate_lines, size):
    escapes = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for count, (i, appended, lines) in enumerate(mutations(text), start=1):
            mutant = "\n".join(lines)
            if appended and i in coordinate_lines:
                with pytest.raises(BadCount, match=f"^line {i + 1}: "):
                    parse(mutant)
                continue
            try:
                build_topology(parse(mutant))
            except MeshError:
                pass
            except Exception as error:  # collected, so a failure lists every escape
                escapes.append((mutant, repr(error)))
    assert count == size
    assert not escapes


class TestPolyIO:
    def test_unit_square(self):
        text = "4 1\n0 0\n1 0\n1 1\n0 1\n4 0 1 2 3\n"
        mesh = parse_poly(text)
        assert mesh.num_elements == 1
        assert abs(all_geometries(mesh).measures[0] - 1.0) < 1e-12

    def test_clockwise_rejected(self):
        text = "4 1\n0 0\n1 0\n1 1\n0 1\n4 3 2 1 0\n"
        with pytest.raises(NonCCW):
            parse_poly(text)

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_non_finite_vertex_rejected(self, bad):
        text = f"4 1\n0 0\n1 0\n1 {bad}\n0 1\n4 0 1 2 3\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteVertex, match="^vertex 2 "):
                parse_poly(text)

    def test_quad_grid(self):
        # 2x2 quads on [-1,1]^2: 9 vertices, 4 elements, 4 interior faces
        verts = [(x, y) for y in (-1, 0, 1) for x in (-1, 0, 1)]
        lines = ["9 4"] + [f"{x} {y}" for x, y in verts]
        for j in range(2):
            for i in range(2):
                v = j * 3 + i
                lines.append(f"4 {v} {v+1} {v+4} {v+3}")
        mesh = parse_poly("\n".join(lines) + "\n")
        assert mesh.num_elements == 4
        assert mesh.num_vertices == 9
        topo = build_topology(mesh)
        assert int((~topo.boundary).sum()) == 4

    def test_bad_count(self):
        with pytest.raises(BadCount):
            parse_poly("2 1\n0 0\n1 0\n")

    def test_not_star_shaped(self):
        # strongly concave quad: centroid falls outside the kernel
        text = "4 1\n0 0\n4 0\n4 4\n3.9 0.1\n4 0 1 2 3\n"
        with pytest.raises(NotStarShaped):
            parse_poly(text)

    def test_poly_round_trip(self):
        text = "4 1\n0 0\n1 0\n1 1\n0 1\n4 0 1 2 3\n"
        mesh = parse_poly(text)
        again = parse_poly(write_poly(mesh))
        assert np.array_equal(again.elements, mesh.elements)

    def test_mixed_round_trip(self):
        mesh = parse_poly(MIXED_POLY)
        assert mesh.lengths.tolist() == [4, 3, 3, 5]
        assert mesh.elements[1].tolist() == [1, 2, 5, 1, 1]  # padded by its first vertex
        assert write_poly(mesh) == MIXED_POLY  # each loop written without padding
        again = parse_poly(write_poly(mesh))
        assert np.array_equal(again.elements, mesh.elements)
        assert np.array_equal(again.lengths, mesh.lengths)

    def test_rebuilt_from_padded_table(self):
        # a table's padding is not read as vertices: the mesh is the same
        mesh = parse_poly(MIXED_POLY)
        again = Mesh(2, mesh.vertices, mesh.elements, element_kind="polygon")
        assert np.array_equal(again.lengths, mesh.lengths)
        assert np.array_equal(again.elements, mesh.elements)
        g, h = all_geometries(mesh), all_geometries(again)
        for name in ("barycenters", "diameters", "measures", "sub_simplices", "sub_owner"):
            assert np.array_equal(getattr(g, name), getattr(h, name))

    @pytest.mark.parametrize("mesh", [generate_square_tri(3), generate_cube_tet(2)],
                             ids=["triangles", "tetrahedra"])
    def test_simplex_table_unchanged(self, mesh):
        again = Mesh(mesh.dim, mesh.vertices, mesh.elements)
        assert np.array_equal(again.elements, mesh.elements)
        assert again.lengths.tolist() == [mesh.dim + 1] * mesh.num_elements


class TestTopology:
    def test_square_one(self):
        topo = build_topology(generate_square_tri(1))
        assert topo.num_faces == 5
        assert int((~topo.boundary).sum()) == 1

    def test_cube_one(self):
        topo = build_topology(generate_cube_tet(1))
        assert topo.num_faces == 18
        assert int((~topo.boundary).sum()) == 6

    def test_duplicate_element_nonmanifold(self):
        base = generate_square_tri(1)
        mesh = Mesh(2, base.vertices, list(base.elements) + [base.elements[0]])
        with pytest.raises(NonManifold):
            build_topology(mesh)

    def test_plus_side_is_lower_id(self):
        topo = build_topology(generate_square_tri(3))
        inter = topo.sides[~topo.boundary]
        assert np.all(inter[:, 0] < inter[:, 1])

    def test_normals_outward_both_sides(self):
        mesh = generate_square_tri(3)
        topo = build_topology(mesh)
        for f in range(topo.num_faces):
            coords = mesh.vertices[list(topo.faces[f])]
            center = coords.mean(axis=0)
            n = topo.normals[f]
            assert abs(np.linalg.norm(n) - 1.0) < 1e-12
            kp, km = topo.sides[f]
            bp = topo.geometry.barycenters[kp]
            assert np.dot(n, center - bp) > 0
            if km >= 0:
                bm = topo.geometry.barycenters[km]
                assert np.dot(-n, center - bm) > 0

    def test_unit_normals_3d(self):
        topo = build_topology(generate_cube_tet(2))
        norms = np.linalg.norm(topo.normals, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12


def vertex_set_rows(mesh):
    """``Mesh.validate``'s rows: each element's sorted vertex ids, a
    repeated id (polygon padding) replaced by -1 and sorted to the front."""
    rows = np.sort(mesh.elements, axis=1)
    rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = -1
    return np.sort(rows, axis=1)


class TestUniqueRows:
    """``unique_rows`` is ``np.unique(rows, axis=0, ...)`` with every output."""

    @pytest.mark.parametrize("mesh", [
        generate_square_tri(5),
        generate_cube_tet(3),
        parse_poly(MIXED_POLY),  # three of its four vertex-set rows are -1-padded
        Mesh(2, generate_square_tri(2).vertices,  # an element listed twice
             list(generate_square_tri(2).elements) * 2),
    ], ids=["square", "cube", "polygon", "repeated"])
    @pytest.mark.parametrize("rows_of", [lambda mesh: _facet_rows(mesh)[0], vertex_set_rows],
                             ids=["facets", "vertex-sets"])
    def test_matches_np_unique(self, mesh, rows_of):
        rows = rows_of(mesh)
        got = unique_rows(rows)
        want = np.unique(rows, axis=0, return_index=True, return_inverse=True, return_counts=True)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b.reshape(a.shape))

    @pytest.mark.parametrize("shape", [(0, 3), (0, 0), (4, 0)])
    def test_empty(self, shape):
        rows = np.zeros(shape, dtype=int)
        want = np.unique(rows, axis=0, return_index=True, return_inverse=True, return_counts=True)
        for a, b in zip(unique_rows(rows), want):
            assert np.array_equal(a, b.reshape(a.shape))


class TestElementGeometry:
    def test_reference_triangle(self):
        mesh = Mesh(2, np.array([[0.0, 0], [1, 0], [0, 1]]), [(0, 1, 2)])
        geom = all_geometries(mesh)
        assert np.allclose(geom.barycenters[0], [1 / 3, 1 / 3])
        assert abs(geom.measures[0] - 0.5) < 1e-14
        assert abs(geom.diameters[0] - np.sqrt(2)) < 1e-14

    def test_unit_square_polygon(self):
        mesh = parse_poly("4 1\n0 0\n1 0\n1 1\n0 1\n4 0 1 2 3\n")
        geom = all_geometries(mesh)
        assert np.allclose(geom.barycenters[0], [0.5, 0.5])
        assert geom.sub_simplices.shape[0] == 4
        assert geom.sub_owner.tolist() == [0] * 4
        assert np.allclose(signed_measures(geom.sub_simplices), 0.25)

    def test_regular_hexagon(self):
        angles = np.linspace(0, 2 * np.pi, 7)[:-1]
        verts = np.column_stack([np.cos(angles), np.sin(angles)])
        lines = ["6 1"] + [f"{x:.17g} {y:.17g}" for x, y in verts] + ["6 0 1 2 3 4 5"]
        mesh = parse_poly("\n".join(lines) + "\n")
        assert abs(all_geometries(mesh).measures[0] - 3 * np.sqrt(3) / 2) < 1e-12

    def test_sub_simplices_tile(self):
        mesh = parse_poly("4 1\n0 0\n2 0\n2 1\n0 1\n4 0 1 2 3\n")
        geom = all_geometries(mesh)
        total = signed_measures(geom.sub_simplices).sum()
        assert abs(total - geom.measures[0]) < 1e-12 * geom.measures[0]

    def test_clockwise_polygon_built_in_code(self):
        verts = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1]])
        mesh = Mesh(2, verts, [(0, 1, 2, 3), (1, 2, 5, 4)], element_kind="polygon")
        with pytest.raises(NonCCW, match="^polygon 1 is clockwise"):
            all_geometries(mesh)

    def test_degenerate_rejected(self):
        mesh = Mesh(2, np.array([[0.0, 0], [1, 0], [2, 0]]), [(0, 1, 2)])
        with pytest.raises(DegenerateElement):
            all_geometries(mesh)

    @pytest.mark.parametrize("vertices", [
        [[0.0, 0], [1, 0], [0.5, 1e-16]],
        [[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.3, 1e-16]],
        [[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.3, 0]],
    ], ids=["thin-triangle", "thin-tetrahedron", "flat-tetrahedron"])
    def test_flat_simplex_is_a_degenerate_element(self, vertices):
        # the measure check that rejects it comes before any map is stored,
        # so a sub-simplex never raises DegenerateSimplex
        mesh = Mesh(len(vertices) - 1, np.array(vertices), [tuple(range(len(vertices)))])
        with pytest.raises(MeshError) as info:
            all_geometries(mesh)
        assert type(info.value) is DegenerateElement

    @pytest.mark.parametrize("loops", [
        # a triangle and a convex quad before a dart: loops of two widths
        [[(0, 0), (1, 0), (0, 1)], [(2, 0), (3, 0), (3, 1), (2, 1)],
         [(5, 0), (9, 0), (9, 4), (8.9, 0.1)]],
        [[(0, 0), (1, 0), (0, 1)], [(4, 0), (6, -3), (8, 0), (8, 4), (7.9, 0.1), (4, 4)]],
    ], ids=["mixed-widths", "concave-hexagon"])
    def test_non_star_polygon_is_not_star_shaped(self, loops):
        verts = np.array([xy for loop in loops for xy in loop], dtype=float)
        ends = np.cumsum([len(loop) for loop in loops])
        mesh = Mesh(2, verts, [range(e - len(loop), e) for e, loop in zip(ends, loops)],
                    element_kind="polygon")
        with pytest.raises(MeshError) as info:
            all_geometries(mesh)
        assert type(info.value) is NotStarShaped
        assert str(info.value) == f"polygon {len(loops) - 1} is not star-shaped about its centroid"

    @pytest.mark.parametrize("mesh", [
        generate_square_tri(4), generate_cube_tet(2), parse_poly(POLY_FIXTURE),
        parse_poly(MIXED_POLY)], ids=["square:4", "cube:2", "polygons", "mixed-polygons"])
    def test_sub_maps_are_the_simplex_maps(self, mesh):
        # the maps kept from the measure checks' determinants are the bits
        # that mapping the stored sub-simplices afresh gives
        geom = all_geometries(mesh)
        for kept, fresh in zip(geom.sub_maps, simplex_maps(geom.sub_simplices), strict=True):
            assert kept.shape == fresh.shape
            assert kept.tobytes() == fresh.tobytes()

    def test_polygons_match_the_exact_shoelace(self):
        # 600 star polygons of 3 to 12 vertices (the padded width crosses 8),
        # centred up to 100 from the origin, against the shoelace formulas in
        # exact rational arithmetic on the same floats
        rng = np.random.default_rng(11)
        loops = []
        for k in rng.integers(3, 13, size=600):
            angles = 2 * np.pi * (np.arange(k) + rng.uniform(0.1, 0.9, k)) / k
            radii = rng.uniform(0.5, 1.0, k)
            loops.append(rng.uniform(-100, 100, 2) + radii[:, None] * np.column_stack(
                [np.cos(angles), np.sin(angles)]))
        geom = all_geometries(loops_mesh(loops))
        for K, loop in enumerate(loops):
            xy = [tuple(map(Fraction, p)) for p in loop.tolist()]
            ends = list(zip(xy, xy[1:] + xy[:1]))
            cross = [a[0] * b[1] - b[0] * a[1] for a, b in ends]
            area = sum(cross) / 2
            centroid = [sum((a[d] + b[d]) * c for (a, b), c in zip(ends, cross)) / (6 * area)
                        for d in range(2)]
            assert abs(Fraction(geom.measures[K]) - area) <= 1e-14 * area, K
            error = max(abs(Fraction(c) - e) for c, e in zip(geom.barycenters[K].tolist(), centroid))
            assert error <= 1e-13 * geom.diameters[K], K

    @pytest.mark.parametrize("text", [POLY_FIXTURE, MIXED_POLY], ids=["polygons", "mixed-polygons"])
    def test_translated_polygons(self, text):
        mesh = parse_poly(text)
        shift = np.array([100.0, -50.0])
        moved = Mesh(2, mesh.vertices + shift, mesh.elements, element_kind="polygon")
        g, h = all_geometries(mesh), all_geometries(moved)
        assert np.allclose(h.measures, g.measures, rtol=1e-14, atol=0.0)
        assert np.max(np.abs(h.barycenters - (g.barycenters + shift))) <= 1e-12

    @pytest.mark.parametrize("bad, error, message", [
        ([(0, 0), (0, 1), (1, 1), (1, 0)], NonCCW, "^polygon 2 is clockwise"),
        ([(0, 0), (4, 0), (4, 4), (3.9, 0.1)], NotStarShaped,
         "^polygon 2 is not star-shaped about its centroid$"),
        ([(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)], DegenerateElement, "^polygon 2 has area 0$"),
    ], ids=["clockwise", "not-star", "degenerate"])
    def test_lowest_bad_polygon_of_mixed_sizes(self, bad, error, message):
        # loops of 3 to 6 vertices; the bad one comes before a later clockwise
        # hexagon, so the error names it, with its own type
        good = [[(0, 0), (1, 0), (0, 1)], [(0, 0), (2, 0), (3, 1), (1, 2), (-1, 1)]]
        hexagon = [(np.cos(a), np.sin(a)) for a in np.linspace(2 * np.pi, 0, 6, endpoint=False)]
        loops = [np.array(loop, dtype=float) + 10 * i
                 for i, loop in enumerate(good + [bad, [(0, 0), (1, 0), (1, 1), (0, 1)], hexagon])]
        with pytest.raises(MeshError, match=message) as info:
            all_geometries(loops_mesh(loops))
        assert type(info.value) is error


def loops_mesh(loops):
    """A polygon mesh of the given vertex loops, each on vertices of its own."""
    ends = np.cumsum([len(loop) for loop in loops])
    return Mesh(2, np.concatenate(loops), [range(e - len(loop), e) for e, loop in zip(ends, loops)],
                element_kind="polygon")


@st.composite
def point_sets(draw):
    """(B, k, dim) point sets drawn from a few distinct points per row, so
    rows repeat points, as a padded vertex table does; k = 1 included."""
    B, k, distinct = draw(st.integers(1, 5)), draw(st.integers(1, 7)), draw(st.integers(1, 4))
    dim = draw(st.integers(1, 3))
    coords = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False, allow_subnormal=False)
    base = draw(hnp.arrays(float, (B, distinct, dim), elements=coords))
    picks = draw(hnp.arrays(int, (B, k), elements=st.integers(0, distinct - 1)))
    return np.take_along_axis(base, picks[..., None], axis=1)


@settings(max_examples=300)
@given(point_sets())
def test_diameters_are_the_all_pairs_maximum(points):
    # every ordered pair, the squares added in axis order, as Python floats
    reference = []
    for row in points.tolist():
        sq = [sum((a - b) ** 2 for a, b in zip(p, q)) for p in row for q in row]
        reference.append(math.sqrt(max(sq)))
    assert diameters(points).tobytes() == np.array(reference).tobytes()


def test_domain_measures():
    for mesh, exact in (
        (generate_square_tri(5), np.pi ** 2),
        (generate_cube_tet(3), 1.0),
    ):
        total = all_geometries(mesh).measures.sum()
        assert abs(total - exact) < 1e-10 * exact
