"""The trace kernel: the factors V and O of a batch and their two
contraction orders, as property tests against the whole tables of the
plain product loop ``reference_tabulate``, and the measurement of kinds that
are identically zero."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import shape_table_oracle as oracle
from patchdg.analysis import sine_product_field
from patchdg.assembly import energy_norm, energy_product
from patchdg.mesh import build_topology, generate_square_tri
from patchdg.quadrature import MAX_ORDER
from patchdg.reconstruction import (
    build_space,
    contract,
    factors,
    interpolate,
    monomial_basis,
)
from test_reconstruction import reference_tabulate

KINDS = ("val", "grad", "lap", "gradlap")
# reruns draw the same examples and write no example database
deterministic = settings(derandomize=True, database=None, deadline=None)


def floats(lo, hi):
    return st.floats(lo, hi, allow_subnormal=False)


@st.composite
def batches(draw):
    """A batch of B faces with k sides each: m, the sides' frames (origin
    (B, k, dim), scale (B, k)), the points (B, q, dim) and unit normals
    (B, dim), in 2D and 3D, for every degree whose products the shipped
    rules integrate."""
    dim = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(1, MAX_ORDER[dim] // 2))
    B, k, q = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 4))
    origin = draw(hnp.arrays(float, (B, k, dim), elements=floats(-1.0, 1.0)))
    scale = draw(hnp.arrays(float, (B, k), elements=floats(0.25, 2.0)))
    points = draw(hnp.arrays(float, (B, q, dim), elements=floats(-1.0, 1.0)))
    normals = draw(hnp.arrays(float, (B, dim), elements=floats(-1.0, 1.0))
                   .filter(lambda n: (np.linalg.norm(n, axis=1) > 0.1).all()))
    return m, origin, scale, points, normals / np.linalg.norm(normals, axis=1)[:, None]


def reference_table(m, origin, scale, points, kind):
    """The reference's monomial table of one side, (B, q, n_terms) or (B, q,
    n_terms, dim): its coefficient tables are the identity."""
    B, nt = len(origin), len(monomial_basis(m, origin.shape[1]))
    return reference_tabulate(np.broadcast_to(np.eye(nt), (B, nt, nt)), origin, scale, points, m, kind)


def side_table(m, origin, scale, points, kind, normals):
    """The reference table of one side (B, q, n_terms), its vector kinds
    contracted with ``normals`` explicitly."""
    T = reference_table(m, origin, scale, points, kind)
    return np.einsum("bqsd,bd->bqs", T, normals) if T.ndim == 4 else T


def relative(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), np.finfo(float).tiny)


@deterministic
@given(batches())
def test_face_tables_match_tabulate(case):
    m, origin, scale, points, normals = case
    V, ops = factors(origin, scale, points, m, KINDS, normals)
    for kind, op in ops.items():
        T = contract(V, *op, scale)
        for side in range(origin.shape[1]):
            ref = side_table(m, origin[:, side], scale[:, side], points, kind, normals)
            assert relative(T[:, side], ref) <= 1e-13, (kind, side)


@deterministic
@given(batches())
def test_volume_tables_are_tabulate(case):
    m, origin, scale, points, _ = case
    V, ops = factors(origin[:, :1], scale[:, :1], points, m, KINDS)
    for kind, op in ops.items():
        ref = reference_table(m, origin[:, 0], scale[:, 0], points, kind)
        T = np.moveaxis(contract(V, *op, scale[:, :1]), 1, -1)
        assert np.array_equal(T.reshape(ref.shape), ref), kind


@deterministic
@given(batches(), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_coefficients_first_match_tables(case, fields, seed):
    m, origin, scale, points, normals = case
    B, k, dim = origin.shape
    Ct = np.random.default_rng(seed).standard_normal((B, k, len(monomial_basis(m, dim)), fields))
    # face sides with normal components, and one element with whole vectors
    sides = (origin, scale, Ct, normals)
    for o, s, C, n in (sides, (origin[:, :1], scale[:, :1], Ct[:, :1], None)):
        V, ops = factors(o, s, points, m, KINDS, n)
        for kind, op in ops.items():
            assert relative(contract(V, *op, s, C), contract(V, *op, s) @ C) <= 1e-13, kind


@deterministic
@given(batches())
def test_zero_kinds_are_absent(case):
    m, origin, scale, points, normals = case
    absent = {kind for kind, top in (("lap", 1), ("gradlap", 2)) if m <= top}
    for given_normals in (normals, None):
        _, ops = factors(origin, scale, points, m, KINDS, given_normals)
        assert set(KINDS) - set(ops) == absent
    for kind in absent:
        assert not reference_table(m, origin[:, 0], scale[:, 0], points, kind).any()


@pytest.mark.parametrize("m, p", [(0, 1), (1, 2)])
def test_measure_below_the_pairing_degree(m, p):
    # the pairing's volume kind is absent at this degree: the discrete
    # field contributes zeros there and the analytic one its own values
    mesh = generate_square_tri(4)
    space = build_space(mesh, build_topology(mesh), m)
    u = sine_product_field((1, 1), np.pi, 1.0)
    v = interpolate(space, lambda x, y: np.sin(np.pi * x) * y + x)
    ref = oracle.shape_table_product(space, p, [v, u, (u, v)])
    G = energy_product(space, p, [v, u])
    assert np.max(np.abs(G - ref[:2, :2])) <= 1e-12 * np.max(np.abs(ref))
    norm = energy_norm(space, p, exact=u, vector=v)
    assert np.isclose(norm ** 2, ref[2, 2], rtol=1e-12, atol=0.0)
