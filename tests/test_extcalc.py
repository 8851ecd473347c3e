"""The closed-form radial primitive of a divergence-free vector field."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyfact.extcalc import ExtCalcError, homotopy_inverse_delta
from susyfact.polyalg import Poly, VarSpace, parse_poly

from conftest import NAMES, polys


def divergence(space: VarSpace, C, k: int) -> Poly:
    """sum_j d_j C_jk."""
    return sum((C[j][k].partial(space.names[j]) for j in range(space.n)), Poly.zero(space))


@st.composite
def divergence_free_fields(draw):
    # v_k = sum_j d_j G_jk for a random antisymmetric G, so div v = 0
    sp = VarSpace.make(NAMES[:draw(st.integers(2, 4))])
    n = sp.n
    G = [[Poly.zero(sp)] * n for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            G[j][k] = draw(polys(sp, max_deg=3, max_hpow=2, max_terms=3))
            G[k][j] = -G[j][k]
    return sp, [divergence(sp, G, k) for k in range(n)]


@given(divergence_free_fields())
@settings(max_examples=40, deadline=None)
def test_homotopy_inverse_delta_solves(field):
    sp, v = field
    C = homotopy_inverse_delta(sp, v)
    for k in range(sp.n):
        assert all(C[j][k] == -C[k][j] for j in range(sp.n))
        assert divergence(sp, C, k) == v[k]


@st.composite
def sparse_divergence_free_fields(draw):
    # as above, with each G_jk zero with probability 1/2, so that some v_k
    # vanish: v_k = 0 whenever column k of G is zero
    sp = VarSpace.make(NAMES[:draw(st.integers(2, 4))])
    n = sp.n
    G = [[Poly.zero(sp)] * n for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            if draw(st.booleans()):
                G[j][k] = draw(polys(sp, max_deg=3, max_hpow=2, max_terms=3))
                G[k][j] = -G[j][k]
    return sp, [divergence(sp, G, k) for k in range(n)]


@given(sparse_divergence_free_fields())
@settings(max_examples=40, deadline=None)
def test_homotopy_inverse_delta_zero_pattern(field):
    # C has a zero diagonal, and C_jk is the zero polynomial when v_j = v_k = 0
    sp, v = field
    C = homotopy_inverse_delta(sp, v)
    for j in range(sp.n):
        assert C[j][j].is_zero
        for k in range(sp.n):
            assert C[j][k] == -C[k][j]
            if v[j].is_zero and v[k].is_zero:
                assert C[j][k].is_zero
        assert divergence(sp, C, j) == v[j]


def test_homotopy_inverse_delta_rejects_nonclosed():
    sp = VarSpace.make(["x1", "x2"])
    with pytest.raises(ExtCalcError):
        homotopy_inverse_delta(sp, [parse_poly(sp, "x1"), Poly.zero(sp)])


def test_homotopy_inverse_delta_rejects_dimension_one():
    sp = VarSpace.make(["x1"])
    with pytest.raises(ExtCalcError):
        homotopy_inverse_delta(sp, [Poly.const(sp, 1)])
    # the zero field has the zero primitive, in one variable and in none
    assert homotopy_inverse_delta(sp, [Poly.zero(sp)]) == [[Poly.zero(sp)]]
    assert homotopy_inverse_delta(VarSpace.make([]), []) == []


def test_rotation_field_primitive():
    sp = VarSpace.make(["x1", "x2"])
    C = homotopy_inverse_delta(sp, [parse_poly(sp, "x2"), parse_poly(sp, "-1*x1")])
    # v is homogeneous of degree 1: C_12 = (x1 v_2 - x2 v_1) / (2 + 1 - 1)
    r2_half = parse_poly(sp, "1/2*x1^2 + 1/2*x2^2")
    assert C == [[Poly.zero(sp), -r2_half], [r2_half, Poly.zero(sp)]]
