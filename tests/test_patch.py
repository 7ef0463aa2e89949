import numpy as np
import pytest

from patchdg.errors import PatchExhausted, RankDeficient
from patchdg.mesh import all_geometries, build_topology, generate_cube_tet, generate_square_tri, parse_poly
from patchdg.patch import Patch, build_patch, default_patch_size, lambda_constant, required_dim


def neighbors(topo, K):
    """K's face neighbors: its row of ``adjacency`` without the -1 padding."""
    row = topo.adjacency[K]
    return row[row >= 0].tolist()


def enumerate_poly_dim(m, dim):
    # brute-force count of monomials with total degree <= m
    count = 0
    rng = range(m + 1)
    if dim == 1:
        return m + 1
    if dim == 2:
        return sum(1 for a in rng for b in rng if a + b <= m)
    return sum(1 for a in rng for b in rng for c in rng if a + b + c <= m)


class TestSizes:
    def test_required_dim_examples(self):
        assert required_dim(1, 3) == 4
        assert required_dim(2, 2) == 6
        assert required_dim(3, 3) == 20  # monomial enumeration, not the quadratic formula

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_required_dim_enumeration(self, m, dim):
        assert required_dim(m, dim) == enumerate_poly_dim(m, dim)

    def test_default_sizes(self):
        assert default_patch_size(1, 2) == 5   # max(4, ceil(4.5))
        assert default_patch_size(3, 2) == 15  # 1.5 * 10
        assert default_patch_size(1, 3) == 6   # max(5, 6); formula over the worked example's 5

    def test_default_at_least_required(self):
        for m in range(1, 6):
            for dim in (1, 2, 3):
                assert default_patch_size(m, dim) > required_dim(m, dim)


class TestBuildPatch:
    def test_singleton(self):
        mesh = generate_square_tri(2)
        topo = build_topology(mesh)
        patch = build_patch(mesh, topo, [3], 1)
        assert patch.members.tolist() == [[3]]
        assert patch.nodes.shape == (1, 1, 2)

    def test_interior_tet_neighbors(self):
        # a tetrahedron whose 4 Von Neumann neighbors are strictly nearest
        # gets exactly those neighbors at t=5
        mesh = generate_cube_tet(3)
        topo = build_topology(mesh)
        barys = all_geometries(mesh).barycenters
        chosen = None
        for K in range(mesh.num_elements):
            nbs = neighbors(topo, K)
            if len(nbs) != 4:
                continue
            dn = [np.linalg.norm(barys[n] - barys[K]) for n in nbs]
            ring2 = {m for n in nbs for m in neighbors(topo, n)} - set(nbs) - {K}
            d2 = [np.linalg.norm(barys[m] - barys[K]) for m in ring2]
            if max(dn) < min(d2):
                chosen = K
                break
        assert chosen is not None
        members = build_patch(mesh, topo, [chosen], 5).members[0].tolist()
        assert members[0] == chosen
        assert set(members) == {chosen} | set(neighbors(topo, chosen))

    def test_corner_patch_connected(self):
        mesh = generate_square_tri(2)
        topo = build_topology(mesh)
        K = min(range(mesh.num_elements), key=lambda e: len(neighbors(topo, e)))
        members = set(build_patch(mesh, topo, [K], 4).members[0].tolist())
        assert len(members) == 4
        # breadth-first reachability oracle: the member set must be connected
        reached = {K}
        frontier = [K]
        while frontier:
            nxt = []
            for e in frontier:
                for nb in neighbors(topo, e):
                    if nb in members and nb not in reached:
                        reached.add(nb)
                        nxt.append(nb)
            frontier = nxt
        assert reached == members

    def test_all_members_nearest_consistent(self):
        # every element outside the patch that neighbors it is no closer to
        # the center than the farthest chosen member added last
        mesh = generate_square_tri(4)
        topo = build_topology(mesh)
        patch = build_patch(mesh, topo, [10], 5)
        members = patch.members[0].tolist()
        assert members[0] == 10
        assert len(members) == len(set(members)) == 5
        assert patch.nodes.shape == (1, 5, 2)

    def test_determinism(self):
        mesh = generate_square_tri(4)
        topo = build_topology(mesh)
        a = build_patch(mesh, topo, [7], 6)
        b = build_patch(mesh, topo, [7], 6)
        assert np.array_equal(a.members, b.members)
        assert np.array_equal(a.nodes, b.nodes)

    def test_exhausted(self):
        mesh = generate_square_tri(1)
        topo = build_topology(mesh)
        patch = build_patch(mesh, topo, [0], 10)
        assert patch.exhausted().tolist() == [0]
        assert patch.members[0].tolist() == [0, 1] + [-1] * 8
        error = patch.exhausted_error(0)
        assert isinstance(error, PatchExhausted)
        assert str(error) == "element 0: only 2 connected elements reachable, need 10"

    def test_diameter_bound_on_uniform_meshes(self):
        # quasi-uniformity: max patch diameter stays a bounded multiple of h
        for n in (4, 8):
            mesh = generate_square_tri(n)
            topo = build_topology(mesh)
            h = all_geometries(mesh).h
            t = default_patch_size(1, 2)
            dmax = build_patch(mesh, topo, np.arange(mesh.num_elements), t).diameters.max()
            assert dmax <= 10 * h


def patch_of(mesh, topo, K, t):
    """Element K's patch of size t as a :class:`Patch`, grown as a batch of one."""
    batch = build_patch(mesh, topo, [K], t)
    return Patch(K, batch.members[0].tolist(), batch.nodes[0], float(batch.diameters[0]))


class TestLambdaConstant:
    def test_constant_reconstruction(self):
        mesh = generate_square_tri(2)
        topo = build_topology(mesh)
        patch = patch_of(mesh, topo, 0, 3)
        lam = lambda_constant(mesh, patch, 0)
        assert abs(lam - 1.0) < 1e-12

    def test_at_least_one(self):
        mesh = generate_square_tri(3)
        topo = build_topology(mesh)
        patch = patch_of(mesh, topo, 4, 5)
        lam = lambda_constant(mesh, patch, 1)
        assert lam >= 1.0 - 1e-12

    def test_near_collinear_blows_up(self):
        # nodes nearly on a line make the degree-1 Vandermonde ill-conditioned
        mesh = generate_square_tri(4)
        topo = build_topology(mesh)
        patch = patch_of(mesh, topo, 0, 3)
        eps = 1e-8
        nodes = np.array([[0.0, 0.0], [1.0, eps], [2.0, -eps]])
        rigged = Patch(patch.center, patch.members, nodes, 2.0)
        lam = lambda_constant(mesh, rigged, 1)
        assert lam > 1e2

    def test_rank_deficient_exactly_collinear(self):
        mesh = generate_square_tri(4)
        topo = build_topology(mesh)
        patch = patch_of(mesh, topo, 0, 3)
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        rigged = Patch(patch.center, patch.members, nodes, 2.0)
        with pytest.raises(RankDeficient):
            lambda_constant(mesh, rigged, 1)


def test_polygon_mesh_patches():
    # patches also grow over polygon meshes via shared edges
    verts = [(x, y) for y in (0, 1, 2) for x in (0, 1, 2)]
    lines = ["9 4"] + [f"{x} {y}" for x, y in verts]
    for j in range(2):
        for i in range(2):
            v = j * 3 + i
            lines.append(f"4 {v} {v+1} {v+4} {v+3}")
    mesh = parse_poly("\n".join(lines) + "\n")
    topo = build_topology(mesh)
    members = build_patch(mesh, topo, [0], 3).members[0].tolist()
    assert members[0] == 0
    assert len(set(members)) == 3
    assert -1 not in members
