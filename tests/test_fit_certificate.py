"""The rank certificate of ``fit_local``: its QR fits with a norm bound and
the SVD for the rows the bound cannot clear, as property tests against the
SVD's own rank rule and pseudo-inverse, on random node sets and on nodes
near a line or plane.  A RuntimeWarning anywhere in a fit is an error under
the suite's warning filters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from patchdg.mesh import build_topology, diameters, generate_square_tri
from patchdg.patch import Patches, build_patch, default_patch_size
from patchdg.reconstruction import RCOND, fit_local, monomial_basis, vandermonde

# reruns draw the same examples and write no example database
deterministic = settings(derandomize=True, database=None, deadline=None, max_examples=200)
EPS = np.finfo(float).eps


def rotation(dim, a, b):
    """A rotation by angle a (2D), or by a about z then b about x (3D)."""
    c, s = np.cos(a), np.sin(a)
    Rz = np.array([[c, -s], [s, c]]) if dim == 2 else np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
    if dim == 2:
        return Rz
    c, s = np.cos(b), np.sin(b)
    return Rz @ np.array([[1, 0, 0], [0, c, -s], [0, s, c]])


@st.composite
def node_sets(draw):
    """m and a batch of node sets (B, t, dim) with t >= dim P^m, in 2D and
    3D for m = 1..4: seeded uniform draws in the unit box or Hypothesis's
    own arrays there (repeated and extreme coordinates), either squeezed
    onto a rotated line (2D) or plane (3D) to a width of 10^(-k/m), which
    puts s_min / s_max near 10^-k, k = 0..16 on both sides of RCOND, or
    not."""
    dim = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(1, 4))
    n_terms = len(monomial_basis(m, dim))
    t = draw(st.integers(n_terms, default_patch_size(m, dim)))
    B = draw(st.integers(1, 4))
    if draw(st.booleans()):
        nodes = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).random((B, t, dim))
    else:
        nodes = draw(hnp.arrays(float, (B, t, dim), elements=st.floats(0.0, 1.0, allow_subnormal=False)))
    k = draw(st.none() | st.integers(0, 16))
    if k is not None:
        nodes[..., -1] = 0.5 + 10.0 ** (-k / m) * (nodes[..., -1] - 0.5)
        angles = draw(st.tuples(st.floats(0.0, np.pi), st.floats(0.0, np.pi)))
        nodes = nodes @ rotation(dim, *angles).T
    return m, nodes


def batch_of(nodes):
    B, t, _ = nodes.shape
    return Patches(np.arange(B), np.zeros((B, t), dtype=int), nodes, diameters(nodes))


def svd_reference(m, nodes):
    """The singular values of the node Vandermondes in fit_local's frames,
    and their transposed pseudo-inverses, exact for the rows of full
    numerical rank (the others' small singular values are dropped)."""
    origin = nodes[:, 0]
    scale = diameters(nodes)
    scale = np.where(scale > 0, scale, 1.0)
    A = vandermonde(monomial_basis(m, nodes.shape[2]), (nodes - origin[:, None]) / scale[:, None, None])
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    inverse = np.divide(1.0, s, out=np.zeros_like(s), where=s > RCOND * s[:, :1])
    return s, (U * inverse[:, None, :]) @ Vt


@deterministic
@given(node_sets())
def test_ok_is_the_svd_rank_rule(case):
    m, nodes = case
    _, _, _, ok = fit_local(batch_of(nodes), m)
    s, _ = svd_reference(m, nodes)
    assert (ok == (s[:, -1] > RCOND * s[:, 0])).all()


@deterministic
@given(node_sets())
def test_accepted_rows_are_the_pseudo_inverse(case):
    # 1e-12 relative wherever the pseudo-inverse is determined that well;
    # two backward-stable solutions of a fit of condition kappa differ by
    # about kappa eps, which the certificate allows up to kappa ~ 1e7
    m, nodes = case
    coeffs, _, _, ok = fit_local(batch_of(nodes), m)
    s, pinv_t = svd_reference(m, nodes)
    assert not coeffs[~ok].any()
    for row in np.nonzero(ok)[0]:
        kappa = s[row, 0] / s[row, -1]
        error = np.linalg.norm(coeffs[row] - pinv_t[row]) / np.linalg.norm(pinv_t[row])
        assert error <= max(1e-12, 8 * EPS * kappa), (row, kappa, error)


@deterministic
@given(node_sets(), st.data())
def test_a_row_does_not_depend_on_its_batch(case, data):
    m, nodes = case
    batch = batch_of(nodes)
    coeffs, origin, scale, ok = fit_local(batch, m)
    rows = data.draw(st.permutations(range(len(nodes))).map(np.array))
    rows = rows[:data.draw(st.integers(1, len(rows)))]
    sub = fit_local(batch.take(rows), m)
    for whole, part in zip((coeffs, origin, scale, ok), sub):
        assert np.array_equal(whole[rows], part)


@pytest.fixture
def svd_rows(monkeypatch):
    """The number of matrices each np.linalg.svd call receives."""
    calls, svd = [], np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_mesh_patches_skip_the_svd(svd_rows, m):
    # every first-fit patch of the herringbone square clears the bound
    mesh = generate_square_tri(8)
    topo = build_topology(mesh)
    batch = build_patch(mesh, topo, np.arange(mesh.num_elements), default_patch_size(m, 2))
    assert fit_local(batch, m)[3].all()
    assert sum(svd_rows) == 0


@pytest.mark.parametrize("eps, full_rank", [(1e-8, True), (0.0, False)])
def test_near_and_exactly_collinear_rows_take_the_svd(svd_rows, eps, full_rank):
    # s_min / s_max ~ 3e-9 clears RCOND but not the bound, and a collinear
    # triple fails the diagonal screen; a third, well-spread row is certified
    nodes = np.array([[[0.0, 0.0], [1.0, eps], [2.0, -eps]],
                      [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
    _, _, _, ok = fit_local(batch_of(nodes), 1)
    assert ok.tolist() == [full_rank, True]
    assert svd_rows == [1]
