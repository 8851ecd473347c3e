"""Multivector fields: the codifferential delta and its closed-form radial primitive."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyfact.extcalc import (ExtCalcError, Section, antisym_matrix_from_2vector,
                              contract, delta, homotopy_inverse_delta)
from susyfact.polyalg import Poly, VarSpace, parse_poly

from conftest import NAMES, polys


def sections(space: VarSpace, degree: int, **kw):
    idxs = list(combinations(range(space.n), degree))
    return st.fixed_dictionaries({i: polys(space, **kw) for i in idxs}).map(
        lambda comp: Section(space, degree, comp))


def space_sections(max_n: int = 4, min_n: int = 1, degrees=None, **kw):
    def per_space(n):
        sp = VarSpace.make(NAMES[:n])
        degs = [p for p in (degrees or range(n + 1)) if p <= n]
        return st.sampled_from(degs).flatmap(lambda p: sections(sp, p, **kw))
    return st.integers(min_n, max_n).flatmap(per_space)


# ------------------------------------------------------------- index algebra

def test_wedge_insert_and_contract():
    assert contract(2, (0, 2)) == (-1, (0,))
    assert contract(1, (0, 2)) is None


def test_section_rejects_bad_indices():
    sp = VarSpace.make(["x1", "x2"])
    with pytest.raises(ExtCalcError):
        Section(sp, 2, {(1, 0): Poly.const(sp, 1)})


# --------------------------------------------------------------- known values

def test_delta_on_vector_is_minus_divergence():
    sp = VarSpace.make(["x1", "x2"])
    X = Section(sp, 1, {(0,): parse_poly(sp, "x1^2"), (1,): parse_poly(sp, "x1*x2")})
    out = delta(X)
    assert out.get(()) == parse_poly(sp, "2*x1") * (-1) - parse_poly(sp, "x1")


# ----------------------------------------------------------------- complexes

@given(space_sections(max_n=4, min_n=2, degrees=[2, 3, 4], max_deg=3,
                      max_hpow=1, max_terms=3))
@settings(max_examples=50, deadline=None)
def test_delta_squared_zero(X):
    assert delta(delta(X)).is_zero


# ----------------------------------------------------- delta-exactness solver

@given(st.integers(2, 4).flatmap(
    lambda n: sections(VarSpace.make(NAMES[:n]), 2, max_deg=3, max_hpow=2,
                       max_terms=3)))
@settings(max_examples=40, deadline=None)
def test_homotopy_inverse_delta_solves(G):
    # delta(G) is delta-closed since delta^2 = 0; recover a primitive
    v = delta(G)
    Gp = homotopy_inverse_delta(v)
    assert delta(Gp) == v.scale(-2)


def test_homotopy_inverse_delta_rejects_nonclosed():
    sp = VarSpace.make(["x1", "x2"])
    v = Section(sp, 1, {(0,): parse_poly(sp, "x1")})
    with pytest.raises(ExtCalcError):
        homotopy_inverse_delta(v)


def test_homotopy_inverse_delta_rejects_dimension_one():
    sp = VarSpace.make(["x1"])
    v = Section(sp, 1, {(0,): Poly.const(sp, 1)})
    with pytest.raises(ExtCalcError):
        homotopy_inverse_delta(v)


def test_rotation_field_primitive():
    sp = VarSpace.make(["x1", "x2"])
    v = Section(sp, 1, {(0,): parse_poly(sp, "x2"), (1,): parse_poly(sp, "x1") * -1})
    G = homotopy_inverse_delta(v)
    assert delta(G) == v.scale(-2)
    # v is homogeneous of degree 1: G_12 = 2 (x1 v_2 - x2 v_1) / (2 + 1 - 1)
    assert G == Section(sp, 2, {(0, 1): parse_poly(sp, "-1*x1^2 - x2^2")})


# ------------------------------------------------------------ matrix bridge

def test_antisym_matrix_round_trip():
    sp = VarSpace.make(["x1", "x2", "x3"])
    G = Section(sp, 2, {(0, 1): parse_poly(sp, "x3"), (1, 2): parse_poly(sp, "x1^2")})
    C = antisym_matrix_from_2vector(G)
    half = parse_poly(sp, "1/2*x3")
    assert C[(0, 1)] == half
    assert C[(1, 0)] == -half
    assert Section(sp, 2, {(j, k): p * 2 for (j, k), p in C.items() if j < k}) == G
