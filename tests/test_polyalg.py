"""Exact polynomial ring: parsing, arithmetic, calculus, evaluation."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyfact.polyalg import Poly, PolyError, VarSpace, parse_poly, parse_rational

from conftest import NO_SHRINK_PHASES, as_sympy, poly_pairs, poly_triples, polys, rationals, spaces

SP = VarSpace.make(["x1", "x2"])
X1 = Poly.var(SP, "x1")
X2 = Poly.var(SP, "x2")
H = Poly.h(SP)


# ------------------------------------------------------------------ parsing

def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    with pytest.raises(PolyError):
        parse_rational("1/0")


def test_parse_poly_basic():
    p = parse_poly(SP, "1/4*x1^4 - 1/2*x1^2 + 1/4")
    assert p == (X1 ** 4) * Fraction(1, 4) - (X1 ** 2) * Fraction(1, 2) + Fraction(1, 4)


def test_parse_poly_h_and_products():
    p = parse_poly(SP, "h*x1*x2 + 2*h^2 - x2^3")
    assert p == H * X1 * X2 + 2 * H ** 2 - X2 ** 3


def test_parse_poly_rejects_unknown_variable():
    with pytest.raises(PolyError):
        parse_poly(SP, "x1 + y7")


def test_repr_round_trips_through_parser():
    p = parse_poly(SP, "1/4*x1^4 - 1/2*x1^2 + 1/4 + h*x2")
    assert parse_poly(SP, repr(p)) == p
    assert parse_poly(SP, repr(Poly.zero(SP))) == Poly.zero(SP)


# ---------------------------------------------------------------- structure

def test_no_zero_terms_stored():
    p = X1 - X1
    assert p.terms == {}
    assert p.is_zero


def test_h_power_nonnegative():
    with pytest.raises(PolyError):
        Poly(SP, {((0, 0), -1): Fraction(1)})


def _assert_stored(p: Poly):
    """Stored terms: nonzero Fractions keyed by (exponent tuple of length n, h power),
    every entry nonnegative."""
    for key, c in p.terms.items():
        assert type(c) is Fraction and c != 0
        exps, hpow = key
        assert type(exps) is tuple and len(exps) == p.space.n
        assert all(e >= 0 for e in exps) and hpow >= 0


def test_constructor_checks_and_normalises():
    with pytest.raises(PolyError):
        Poly(SP, {((1,), 0): Fraction(1)})
    with pytest.raises(PolyError):
        Poly(SP, {((1, -1), 0): Fraction(1)})
    with pytest.raises(PolyError):
        Poly(SP, {((1, 0), -1): 1})

    class Pairs:  # a mapping whose exponents are lists, which a dict key cannot be
        def items(self):
            return [(([2, 1], 1), 3), (([0, 1], 0), Fraction(0)), (((1, 1), 0), Fraction(1, 2))]

    p = Poly(SP, Pairs())
    assert p.terms == {((2, 1), 1): Fraction(3), ((1, 1), 0): Fraction(1, 2)}
    _assert_stored(p)


def test_var_space_duplicate_names_rejected():
    with pytest.raises(PolyError):
        VarSpace.make(["x1", "x1"])


def test_blocks_must_partition():
    with pytest.raises(PolyError):
        VarSpace.make(["x1", "x2"], blocks={"a": ["x1"]})
    sp = VarSpace.make(["x1", "x2"], blocks={"a": ["x1"], "b": ["x2"]})
    assert sp.block_vars("a") == ("x1",)
    assert sp.block_indices("b") == (1,)


def test_with_duals():
    d = SP.with_duals()
    assert d.names == ("x1", "x2", "x1'", "x2'")


# ------------------------------------------------------------- known values

def test_binomial_cube():
    p = (X1 + X2) ** 3
    assert p == X1 ** 3 + 3 * X1 ** 2 * X2 + 3 * X1 * X2 ** 2 + X2 ** 3


def test_partial_derivative():
    p = (X1 ** 2) * X2 + H * X2 ** 3
    assert p.partial("x1") == 2 * X1 * X2
    assert p.partial("x2") == X1 ** 2 + 3 * H * X2 ** 2


def test_h_shift_and_components():
    p = X1 + H * X2
    assert p.h_shift(1) == H * X1 + H ** 2 * X2
    comps = p.h_components()
    assert comps[0] == X1 and comps[1] == X2
    assert p.h0() == X1
    assert p.max_hpow() == 1
    assert not p.is_h_free()
    assert (X1 * X2).is_h_free()


def test_homogeneous_components_by_block():
    sp = VarSpace.make(["x1", "x2"], blocks={"a": ["x1"], "b": ["x2"]})
    p = parse_poly(sp, "x1 + x1*x2^2 + x2^3")
    comps = p.homogeneous_components("b")
    assert comps[0] == parse_poly(sp, "x1")
    assert comps[2] == parse_poly(sp, "x1*x2^2")
    assert comps[3] == parse_poly(sp, "x2^3")


def test_degrees():
    p = parse_poly(SP, "x1^2*x2 + h*x2^4")
    assert p.total_degree() == 4
    assert p.degree_in(["x1"]) == 2
    assert p.degree_in(["x2"]) == 4


def test_involves_and_restrict_zero():
    p = parse_poly(SP, "x1*x2 + x1^2")
    assert p.involves(["x2"]) and not (X1 ** 2).involves(["x2"])
    assert p.restrict_zero(["x2"]) == X1 ** 2


def test_lift():
    small = VarSpace.make(["x1"])
    big = VarSpace.make(["x1", "x2"])
    p = Poly.var(small, "x1") ** 2
    assert p.lift(big) == Poly.var(big, "x1") ** 2


def test_evaluate_and_compiled():
    p = parse_poly(SP, "1/4*x1^4 - 1/2*x1^2 + h*x2")
    val = p.evaluate({"x1": 2.0, "x2": 3.0}, h=0.5)
    assert math.isclose(val, 4.0 - 2.0 + 1.5, rel_tol=1e-14)
    f = p.compiled()
    assert math.isclose(f([2.0, 3.0]), p.evaluate({"x1": 2.0, "x2": 3.0}, h=1.0),
                        rel_tol=1e-14)


def test_literal_round_trip():
    p = parse_poly(SP, "x1^2 - 7/3*h*x2 + 5")
    assert Poly.from_literal(SP, p.to_literal()) == p


# ----------------------------------------------------------- ring axioms

@given(poly_pairs(), st.integers(-2, 2))
@settings(max_examples=60, deadline=None, phases=NO_SHRINK_PHASES)
def test_arithmetic_against_sympy(fg, k):
    sympy = pytest.importorskip("sympy")
    f, g = fg
    sf, sg = as_sympy(f, sympy), as_sympy(g, sympy)
    h = sympy.Symbol("h")
    cases = [(f + g, sf + sg), (f - g, sf - sg), (f * g, sf * sg)]
    cases += [(f.partial(nm), sympy.diff(sf, sympy.Symbol(nm))) for nm in f.space.names]
    if k >= 0 or f.is_zero or min(hp for _, hp in f.terms) + k >= 0:
        cases.append((f.h_shift(k), sf * h ** k))
    else:
        with pytest.raises(PolyError):
            f.h_shift(k)
    for got, want in cases:
        _assert_stored(got)
        assert sympy.expand(as_sympy(got, sympy) - want) == 0


@given(poly_triples())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(fgh):
    f, g, h = fgh
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + Poly.zero(f.space) == f
    assert f * Poly.const(f.space, 1) == f
    assert f - f == Poly.zero(f.space)


@given(poly_pairs())
@settings(max_examples=60, deadline=None)
def test_derivations(fg):
    f, g = fg
    names = f.space.names
    for nm in names[:2]:
        # Leibniz rule
        assert (f * g).partial(nm) == f.partial(nm) * g + f * g.partial(nm)
    if len(names) >= 2:
        a, b = names[0], names[1]
        assert f.partial(a).partial(b) == f.partial(b).partial(a)


@given(spaces(3).flatmap(lambda sp: st.tuples(polys(sp), rationals(), st.integers(-2, 2))))
@settings(max_examples=60, deadline=None)
def test_zero_operand_results_match_the_general_path(pck):
    """An operation with a zero operand gives the terms, in the same order,
    that the general loops build: p + 0 and 0 + p copy p's dict, 0 - p is -p
    in p's order, and a product, negation, partial or h-shift of zero is
    zero.  The order matters: float sums over `terms` walk it."""
    p, c, k = pck
    Z = Poly.zero(p.space)
    items = list(p.terms.items())
    cases = [(p + Z, items), (Z + p, items), (p - Z, items), (p + 0, items), (0 + p, items),
             (Z - p, [(key, -v) for key, v in items]), (-Z, []), (p * Z, []), (Z * p, []),
             (Z * c, []), (c * Z, []), (Z.h_shift(k), [])]
    cases += [(Z.partial(name), []) for name in p.space.names]
    for r, want in cases:
        assert r.space == p.space and list(r.terms.items()) == want
        _assert_stored(r)
    assert list(p.terms.items()) == items


def test_zero_operand_errors_match_the_general_path():
    Z = Poly.zero(SP)
    elsewhere = Poly.zero(VarSpace.make(["y1", "y2"]))
    for a, b in ((Z, elsewhere), (elsewhere, Z), (X1, elsewhere), (elsewhere, X1)):
        with pytest.raises(PolyError):
            a + b
        with pytest.raises(PolyError):
            a - b
        with pytest.raises(PolyError):
            a * b
    with pytest.raises(ValueError):
        Z * "x"
    with pytest.raises(TypeError):
        Z * None
    with pytest.raises(PolyError):
        Z.partial("q")
    assert Z.h_shift(-1).terms == {}


@given(spaces(3).flatmap(lambda sp: polys(sp, max_deg=3)))
@settings(max_examples=60, deadline=None)
def test_homogeneous_partition(p):
    sp = p.space
    block = sp.blocks[0][0]
    comps = p.homogeneous_components(block)
    total = Poly.zero(sp)
    for k, q in comps.items():
        assert q.degree_in(sp.block_vars(block)) in (k, 0) or q.is_zero
        total = total + q
    assert total == p


@given(poly_pairs(max_n=3, max_deg=3, max_hpow=1))
@settings(max_examples=50, deadline=None)
def test_evaluate_is_ring_homomorphism(fg):
    f, g = fg
    rng = random.Random(12345)
    pt = {nm: rng.uniform(-1.0, 1.0) for nm in f.space.names}
    hv = 0.7
    lhs = (f * g + f).evaluate(pt, hv)
    rhs = f.evaluate(pt, hv) * g.evaluate(pt, hv) + f.evaluate(pt, hv)
    scale = 1.0 + abs(lhs) + abs(rhs)
    assert abs(lhs - rhs) / scale < 1e-12


@given(spaces(3).flatmap(lambda sp: polys(sp)))
@settings(max_examples=50, deadline=None)
def test_repr_parse_round_trip_random(p):
    assert parse_poly(p.space, repr(p)) == p
