"""Second-order operators: application, adjoints, conjugation, symbols."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyfact.opcore import (OperatorError, SecondOrderOperator, divergence,
                             identity_matrix, laplacian, matrix_from_entries,
                             zero_matrix)
from susyfact.polyalg import Poly, VarSpace, parse_poly

from conftest import NAMES, NO_SHRINK_PHASES, as_sympy, operators, polys, spaces

SP = VarSpace.make(["x1", "x2"])


def weights(max_n: int = 3, **kw):
    def per_space(n):
        sp = VarSpace.make(NAMES[:n])
        return st.tuples(st.just(sp), polys(sp, max_hpow=0, **kw))
    return st.integers(1, max_n).flatmap(per_space)


# -------------------------------------------------------------- construction

def test_symmetry_enforced():
    b01 = parse_poly(SP, "x1")
    b10 = parse_poly(SP, "x2")
    B = ((Poly.const(SP, 1), b01), (b10, Poly.const(SP, 1)))
    with pytest.raises(OperatorError):
        SecondOrderOperator(SP, B, (Poly.zero(SP), Poly.zero(SP)),
                            Poly.zero(SP), True)


def test_laplacian_application():
    P = laplacian(SP)
    f = parse_poly(SP, "x1^2*x2 + x2^3")
    # -sum_j (h d_j)^2 f
    assert P.apply(f) == parse_poly(SP, "2*x2 + 6*x2") * -1 * Poly.h(SP) ** 2


def test_apply_first_order_and_potential():
    v = (parse_poly(SP, "x2"), parse_poly(SP, "x1") * -1)
    P = SecondOrderOperator(SP, identity_matrix(SP), v, parse_poly(SP, "x1*x2"), True)
    f = parse_poly(SP, "x1")
    expected = parse_poly(SP, "x2") * Poly.h(SP) + parse_poly(SP, "x1^2*x2")
    assert P.apply(f) == expected


def test_apply_constant_picks_out_v0():
    P = laplacian(SP)
    assert P.apply(Poly.const(SP, 1)) == Poly.zero(SP)


# ------------------------------------------------------------------ adjoints

def test_adjoint_known_formula():
    v = (parse_poly(SP, "x1^2"), parse_poly(SP, "x2"))
    P = SecondOrderOperator(SP, identity_matrix(SP), v, Poly.zero(SP), True)
    Q = P.adjoint()
    assert Q.v == tuple(-w for w in v)
    # v0' = v0 - h div v
    assert Q.v0 == -(parse_poly(SP, "2*x1 + 1") * Poly.h(SP))


@given(operators(max_n=3, max_deg=2, max_hpow=1, max_terms=3))
@settings(max_examples=40, deadline=None)
def test_adjoint_involution(P):
    assert P.adjoint().adjoint() == P


@given(operators(max_n=2, max_deg=2, max_hpow=0, max_terms=2))
@settings(max_examples=40, deadline=None, phases=NO_SHRINK_PHASES)
def test_adjoint_annihilates_one_iff_divergence(P):
    sp = P.space
    div = Poly.zero(sp)
    for j, nm in enumerate(sp.names):
        div = div + P.v[j].partial(nm)
    residual = P.adjoint().apply(Poly.const(sp, 1))
    assert residual == P.v0 - div.h_shift(1)


# --------------------------------------------------------------- conjugation

@given(weights(max_n=2, max_deg=3, max_terms=3).flatmap(
    lambda sw: st.tuples(st.just(sw[1]),
                         polys(sw[0], max_deg=3, max_hpow=0, max_terms=3))),
    operators(max_n=2, max_deg=2, max_hpow=1, max_terms=2))
@settings(max_examples=30, deadline=None, phases=NO_SHRINK_PHASES)
def test_conjugation_is_a_group_action(phipsi, P):
    phi, psi = phipsi
    if phi.space != P.space:
        return
    one_step = P.exp_conjugate(phi + psi, 1)
    two_step = P.exp_conjugate(phi, 1).exp_conjugate(psi, 1)
    assert one_step == two_step
    assert P.exp_conjugate(phi, 1).exp_conjugate(phi, -1) == P


def test_conjugation_witten_normal_form():
    # e^{V/h} Lap_h e^{-V/h}: drift 2 dV . hd, zero order h V'' - |dV|^2
    sp = VarSpace.make(["x1"])
    V = parse_poly(sp, "1/2*x1^2")
    P = laplacian(sp)
    Q = P.exp_conjugate(V, 1)
    assert Q.v == (parse_poly(sp, "2*x1"),)
    assert Q.v0 == Poly.h(sp) - parse_poly(sp, "x1^2")


def test_kernel_test():
    sp = VarSpace.make(["x1"])
    V = parse_poly(sp, "1/2*x1^2")
    P = laplacian(sp)
    rep_bad = P.kernel_test(V)
    assert not rep_bad.vanishes
    assert rep_bad.residual == Poly.h(sp) - parse_poly(sp, "x1^2")
    assert rep_bad.leading_h_order == 0
    # the drift operator with matching zero-order term annihilates e^{-2V/h}
    Q = SecondOrderOperator(sp, P.B, (parse_poly(sp, "-2*x1"),),
                            -2 * Poly.h(sp), True)
    rep = Q.kernel_test(2 * V)
    assert rep.vanishes and rep.residual.is_zero


# ------------------------------------------------- independent sympy oracles

def _applied(P: SecondOrderOperator, u, sympy):
    """-sum D_j B_jk D_k u + sum v_j D_j u + v0 u, written out in sympy from
    P's coefficients (D_j = h d_j, or d_j in the flat calculus)."""
    xs = sympy.symbols(P.space.names)
    hbar = sympy.Symbol("h") if P.semiclassical else 1
    n = P.space.n

    def D(e, j):
        return hbar * sympy.diff(e, xs[j])

    def S(p):
        return as_sympy(p, sympy)

    return (-sum(D(S(P.B[j][k]) * D(u, k), j) for j in range(n) for k in range(n))
            + sum(S(P.v[j]) * D(u, j) for j in range(n)) + S(P.v0) * u)


@st.composite
def _operator_and_operand(draw):
    P = draw(operators(max_n=3, calculi=(True, False), max_deg=2, max_hpow=1, max_terms=2))
    return P, draw(polys(P.space, max_deg=3, max_hpow=1, max_terms=3))


@given(_operator_and_operand())
@settings(max_examples=30, deadline=None, phases=NO_SHRINK_PHASES)
def test_apply_against_sympy(data):
    sympy = pytest.importorskip("sympy")
    P, f = data
    want = _applied(P, as_sympy(f, sympy), sympy)
    assert sympy.expand(as_sympy(P.apply(f), sympy) - want) == 0


@st.composite
def _fields(draw):
    # a field X, a weight g or none, and the calculus
    sp = draw(spaces(3))
    X = draw(st.tuples(*[polys(sp, max_deg=3, max_hpow=1, max_terms=3)] * sp.n))
    g = draw(st.none() | st.tuples(*[polys(sp, max_deg=2, max_hpow=1, max_terms=3)] * sp.n))
    return sp, X, g, draw(st.booleans())


@given(_fields())
@settings(max_examples=40, deadline=None, phases=NO_SHRINK_PHASES)
def test_divergence_against_sympy(data):
    # sum_j (D_j - g_j) X_j, or sum_j D_j X_j without a weight
    sympy = pytest.importorskip("sympy")
    sp, X, g, semiclassical = data
    xs = sympy.symbols(sp.names)
    hbar = sympy.Symbol("h") if semiclassical else 1
    want = sum(hbar * sympy.diff(as_sympy(X[j], sympy), xs[j]) for j in range(sp.n))
    if g is not None:
        want -= sum(as_sympy(g[j], sympy) * as_sympy(X[j], sympy) for j in range(sp.n))
    got = divergence(sp, X, semiclassical, g)
    assert sympy.expand(as_sympy(got, sympy) - want) == 0


@st.composite
def _operator_and_weight(draw):
    P = draw(operators(max_n=2, calculi=(True, False), max_deg=2, max_hpow=1, max_terms=2))
    return P, draw(polys(P.space, max_deg=3, max_hpow=0, max_terms=3))


def _weight(P: SecondOrderOperator, phi: Poly, s: int, sympy):
    """e^{s phi/h}, or e^{s phi} in the flat calculus."""
    hbar = sympy.Symbol("h") if P.semiclassical else 1
    return sympy.exp(s * as_sympy(phi, sympy) / hbar)


@given(_operator_and_weight())
@settings(max_examples=30, deadline=None, phases=NO_SHRINK_PHASES)
def test_exp_conjugate_against_literal_conjugation(data):
    # e^{s phi/h} ∘ P ∘ e^{-s phi/h} applied to a generic u, both signs
    sympy = pytest.importorskip("sympy")
    P, phi = data
    u = sympy.Function("u")(*sympy.symbols(P.space.names))
    for s in (1, -1):
        E = _weight(P, phi, s, sympy)
        literal = sympy.expand(E * _applied(P, u / E, sympy))
        assert literal == sympy.expand(_applied(P.exp_conjugate(phi, s), u, sympy)), s


@given(_operator_and_weight())
@settings(max_examples=30, deadline=None, phases=NO_SHRINK_PHASES)
def test_kernel_test_against_literal_residual(data):
    # P(e^{-phi/h}) = r e^{-phi/h}, expanded
    sympy = pytest.importorskip("sympy")
    P, phi = data
    E = _weight(P, phi, 1, sympy)
    report = P.kernel_test(phi)
    assert sympy.expand(E * _applied(P, 1 / E, sympy)) == sympy.expand(as_sympy(report.residual, sympy))
    assert report.vanishes == report.residual.is_zero


@given(operators(max_n=3, calculi=(True, False), max_deg=2, max_hpow=1, max_terms=2))
@settings(max_examples=30, deadline=None, phases=NO_SHRINK_PHASES)
def test_adjoint_against_integration_by_parts(P):
    # w P u - u P* w = sum_j D_j J_j with the flux
    # J_j = sum_k B_jk (u D_k w - w D_k u) + v_j u w, for generic u and w
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(P.space.names)
    hbar = sympy.Symbol("h") if P.semiclassical else 1
    n = P.space.n
    u, w = sympy.Function("u")(*xs), sympy.Function("w")(*xs)
    J = [sum(as_sympy(P.B[j][k], sympy) * (u * sympy.diff(w, xs[k]) - w * sympy.diff(u, xs[k]))
             for k in range(n)) * hbar + as_sympy(P.v[j], sympy) * u * w for j in range(n)]
    flux = sum(hbar * sympy.diff(J[j], xs[j]) for j in range(n))
    lagrange = w * _applied(P, u, sympy) - u * _applied(P.adjoint(), w, sympy)
    assert sympy.expand(lagrange - flux) == 0


# ------------------------------------------------------------------- symbols

def test_symbols_of_drift_laplacian():
    v = (parse_poly(SP, "x2"), parse_poly(SP, "x1") * -1)
    P = SecondOrderOperator(SP, identity_matrix(SP), v, parse_poly(SP, "x1"), True)
    p_re, p_im, q, phase = P.symbols()
    assert "x1'" in phase.names and "x2'" in phase.names
    assert p_re == parse_poly(phase, "x1'^2 + x2'^2 + x1")
    assert p_im == parse_poly(phase, "x2*x1' - x1*x2'")
    assert q == parse_poly(phase, "x1'^2 + x2'^2 + x2*x1' - x1*x2' - x1")


def test_eikonal_residual_witten():
    # the stationary density is e^{-2 phi0/h}, so the eikonal weight is 2 phi0
    sp = VarSpace.make(["x1"])
    phi = parse_poly(sp, "x1^2")  # 2 phi0 for V = x1^2/2
    P = SecondOrderOperator(sp, identity_matrix(sp),
                            (parse_poly(sp, "-2*x1"),), Poly.zero(sp), True)
    assert P.eikonal_residual(phi).is_zero
    # the adjoint form at psi0 is -eikonal_residual(-psi0)
    assert (-P.adjoint().eikonal_residual(-phi)).is_zero
    assert not P.eikonal_residual(parse_poly(sp, "x1^3")).is_zero


# ---------------------------------------------------------------- round trip

@given(operators(max_n=2, max_deg=2, max_hpow=1, max_terms=2))
@settings(max_examples=30, deadline=None)
def test_json_round_trip(P):
    assert SecondOrderOperator.from_json_dict(P.to_json_dict()) == P


def test_matrix_helpers():
    Z = zero_matrix(SP)
    assert all(p.is_zero for row in Z for p in row)
    I2 = identity_matrix(SP, Fraction(1, 2))
    assert I2[0][0] == Poly.const(SP, Fraction(1, 2)) and I2[0][1].is_zero
    M = matrix_from_entries(SP, {(0, 1): parse_poly(SP, "x1")})
    assert M[0][1] == parse_poly(SP, "x1") and M[1][0].is_zero
