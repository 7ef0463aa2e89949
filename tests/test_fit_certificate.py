"""The rank certificate of ``fit_local``: its QR fits with a norm bound and
the SVD for the rows the bound cannot clear, as property tests against the
SVD's own rank rule and pseudo-inverse, on random node sets and on nodes
near a line or plane.  A RuntimeWarning anywhere in a fit is an error under
the suite's warning filters."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from patchdg.mesh import build_topology, diameters, generate_cube_tet, generate_square_tri
from patchdg.patch import Patches, build_patch, default_patch_size
from patchdg.reconstruction import RCOND, _upper_inverse, fit_local, monomial_basis, vandermonde

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
    own arrays there (repeated and extreme coordinates).  Each row on its
    own is either squeezed onto a rotated line (2D) or plane (3D), to a
    width of 10^(-k/m), which puts s_min / s_max near 10^-k, k = 0..16 on
    both sides of RCOND, or to width 0, or not; so one batch mixes rows the
    QR certifies, rows whose triangular factor has a zero pivot and rows
    only an SVD decides."""
    dim = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(1, 4))
    n_terms = len(monomial_basis(m, dim))
    t = draw(st.integers(n_terms, default_patch_size(m, dim)))
    B = draw(st.integers(1, 6))
    if draw(st.booleans()):
        nodes = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).random((B, t, dim))
    else:
        nodes = draw(hnp.arrays(float, (B, t, dim), elements=st.floats(0.0, 1.0, allow_subnormal=False)))
    for row in nodes:
        k = draw(st.none() | st.integers(0, 17))
        if k is not None:
            width = 10.0 ** (-k / m) if k <= 16 else 0.0
            row[:, -1] = 0.5 + width * (row[:, -1] - 0.5)
            angles = draw(st.tuples(st.floats(0.0, np.pi), st.floats(0.0, np.pi)))
            row[:] = row @ rotation(dim, *angles).T
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


@settings(max_examples=200)
@given(node_sets())
def test_ok_is_the_svd_rank_rule(case):
    # a row whose triangular factor has a zero pivot inverts to infinities
    # or NaNs, which fail the norm bound; it must still fail, with a table
    # of exact zeros
    m, nodes = case
    coeffs, _, _, ok = fit_local(batch_of(nodes), m)
    s, _ = svd_reference(m, nodes)
    assert (ok == (s[:, -1] > RCOND * s[:, 0])).all()
    assert (coeffs[~ok] == 0.0).all()


@settings(max_examples=200)
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


@settings(max_examples=200)
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
    """Per np.linalg.svd call, the number of matrices it receives and
    whether it was asked for singular vectors."""
    calls, svd = [], np.linalg.svd

    def counted(a, *args, compute_uv=True, **kwargs):
        calls.append((len(a), compute_uv))
        return svd(a, *args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_mesh_patches_skip_the_svd(svd_rows, m):
    # every first-fit patch of the herringbone square clears the bound
    mesh = generate_square_tri(8)
    topo = build_topology(mesh)
    batch = build_patch(mesh, topo, np.arange(mesh.num_elements), default_patch_size(m, 2))
    assert fit_local(batch, m)[3].all()
    assert sum(rows for rows, _ in svd_rows) == 0


@pytest.mark.parametrize("n, m", [(2, 3), (4, 3)])
def test_rank_deficient_mesh_patches_skip_the_singular_vectors(svd_rows, n, m):
    # the first-fit patches of the cube that the QR cannot certify are all
    # far below RCOND: their singular values alone refuse them
    mesh = generate_cube_tet(n)
    topo = build_topology(mesh)
    batch = build_patch(mesh, topo, np.arange(mesh.num_elements), default_patch_size(m, 3))
    coeffs, _, _, ok = fit_local(batch, m)
    assert svd_rows == [((~ok).sum(), False), (0, True)]
    s, _ = svd_reference(m, batch.nodes)
    assert (ok == (s[:, -1] > RCOND * s[:, 0])).all()
    assert 0 < (~ok).sum() and (coeffs[~ok] == 0.0).all()


@pytest.mark.parametrize("eps, full_rank", [(1e-8, True), (0.0, False)])
def test_near_and_exactly_collinear_rows_take_the_svd(svd_rows, eps, full_rank):
    # s_min / s_max ~ 3e-9 clears RCOND but not the bound, so its singular
    # values cannot decide it and it takes the full SVD; a collinear triple
    # fails the diagonal screen and its singular values alone refuse it; a
    # well-spread row is certified
    nodes = np.array([[[0.0, 0.0], [1.0, eps], [2.0, -eps]],
                      [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                      [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]])
    coeffs, _, _, ok = fit_local(batch_of(nodes), 1)
    assert ok.tolist() == [full_rank, True, False]
    assert svd_rows == [(2, False), (int(full_rank), True)]
    assert (coeffs[~ok] == 0.0).all()


@pytest.mark.parametrize("n", range(1, 21))
def test_upper_inverse_is_the_inverse(n):
    # well-conditioned triangles: pivots of magnitude 1 to 2, small off-diagonal
    rng = np.random.default_rng(n)
    R = np.triu(rng.standard_normal((50, n, n)) / n, 1)
    R[:, np.arange(n), np.arange(n)] = rng.uniform(1.0, 2.0, (50, n)) * rng.choice([-1.0, 1.0], (50, n))
    want = np.linalg.inv(R)
    got = _upper_inverse(R)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_zero_pivot_row_fails_quietly():
    # a row of coincident nodes: every column of its Vandermonde but the first
    # is zero, so its triangular factor has exact zero pivots
    nodes = np.random.default_rng(2).random((3, 8, 2))
    nodes[1] = 0.25
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coeffs, _, _, ok = fit_local(batch_of(nodes), 2)
    assert ok.tolist() == [True, False, True]
    assert (coeffs[1] == 0.0).all()
