"""Factorization assembly, the necessary kernel condition, and construction."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyfact import susy
from susyfact.models import reference_bundles
from susyfact.opcore import SecondOrderOperator, identity_matrix, laplacian
from susyfact.polyalg import Poly, VarSpace, parse_poly
from susyfact.susy import (SusyStructure, assemble_factorization, check_necessary,
                           construct, verify_reference_structures,
                           verify_structure)

from conftest import NAMES, polys


def matrices(space: VarSpace, **kw):
    n = space.n
    return st.fixed_dictionaries({(j, k): polys(space, **kw)
                                  for j in range(n) for k in range(n)}).map(
        lambda d: tuple(tuple(d[(j, k)] for k in range(n)) for j in range(n)))


# ------------------------------------------------------------------ assembly

def test_structure_sym_antisym_split():
    sp = VarSpace.make(["x1", "x2"])
    A = ((Poly.const(sp, 1), parse_poly(sp, "x1")),
         (parse_poly(sp, "x2"), Poly.const(sp, 2)))
    s = SusyStructure(A, Poly.zero(sp), Poly.zero(sp))
    B, C = s.sym_part, s.antisym_part
    half = Fraction(1, 2)
    assert B[0][1] == (parse_poly(sp, "x1") + parse_poly(sp, "x2")) * half
    assert C[0][1] == (parse_poly(sp, "x1") - parse_poly(sp, "x2")) * half
    for j in range(2):
        for k in range(2):
            assert A[j][k] == B[j][k] + C[j][k]
            assert B[j][k] == B[k][j]
            assert C[j][k] == -C[k][j]


def test_assembled_B_is_symmetric_part():
    sp = VarSpace.make(["x1", "x2"])
    A = ((Poly.const(sp, 1), parse_poly(sp, "x1^2")),
         (Poly.zero(sp), Poly.const(sp, 1)))
    P = assemble_factorization(A, Poly.zero(sp), Poly.zero(sp))
    assert P.B[0][1] == parse_poly(sp, "1/2*x1^2")
    assert P.B[0][1] == P.B[1][0]


def test_unweighted_laplacian_factorization():
    sp = VarSpace.make(["x1", "x2"])
    P = assemble_factorization(identity_matrix(sp), Poly.zero(sp), Poly.zero(sp))
    assert P == laplacian(sp)


# --------------------------------------------------------- kernel necessity

def test_check_necessary_verified_and_failed():
    # drift-form generator: kernel e^{-x1^2/h}, adjoint kernel the constants
    sp = VarSpace.make(["x1"])
    phi = parse_poly(sp, "x1^2")
    P = SecondOrderOperator(sp, identity_matrix(sp),
                            (parse_poly(sp, "-2*x1"),), -2 * Poly.h(sp), True)
    good = check_necessary(P, phi, Poly.zero(sp))
    assert good.status == "verified" and good.structure is None
    bad = check_necessary(P, parse_poly(sp, "x1^4"), Poly.zero(sp))
    assert bad.status == "necessary_condition_failed"
    assert bad.failure_witness is not None and not bad.failure_witness.is_zero


# --------------------------------------------------------------- construction

def test_construct_rotation_drift():
    # h = 1 calculus: the rotation drift factors through an antisymmetric part
    sp = VarSpace.make(["x1", "x2"])
    v = (parse_poly(sp, "x2"), parse_poly(sp, "-1*x1"))
    P = SecondOrderOperator(sp, identity_matrix(sp), v, Poly.zero(sp), False)
    verdict = construct(P, Poly.zero(sp), Poly.zero(sp))
    assert verdict.status == "constructed"
    A = verdict.structure.A
    r2_half = parse_poly(sp, "1/2*x1^2 + 1/2*x2^2")
    assert A[0][0] == Poly.const(sp, 1)
    assert A[1][1] == Poly.const(sp, 1)
    assert A[0][1] == -r2_half
    assert A[1][0] == r2_half
    assert assemble_factorization(A, Poly.zero(sp), Poly.zero(sp),
                                  semiclassical=False) == P


def test_construct_propagates_programming_errors(monkeypatch):
    # only the exact-algebra failures mean "no structure"; anything else is a bug
    def broken(vfield):
        raise TypeError("broken")
    monkeypatch.setattr(susy, "homotopy_inverse_delta", broken)
    sp = VarSpace.make(["x1", "x2"])
    v = (parse_poly(sp, "x2"), parse_poly(sp, "-1*x1"))
    P = SecondOrderOperator(sp, identity_matrix(sp), v, Poly.zero(sp), False)
    with pytest.raises(TypeError):
        construct(P, Poly.zero(sp), Poly.zero(sp))


def test_construct_semiclassical_needs_h_in_drift():
    # with D = h d, an h-free first-order term cannot come from a polynomial
    # antisymmetric part
    sp = VarSpace.make(["x1", "x2"])
    v = (parse_poly(sp, "x2"), parse_poly(sp, "-1*x1"))
    P = SecondOrderOperator(sp, identity_matrix(sp), v, Poly.zero(sp), True)
    assert construct(P, Poly.zero(sp), Poly.zero(sp)).status == "construction_failed"
    vh = tuple(p.h_shift(1) for p in v)
    Ph = SecondOrderOperator(sp, identity_matrix(sp), vh, Poly.zero(sp), True)
    assert construct(Ph, Poly.zero(sp), Poly.zero(sp)).status == "constructed"


def test_construct_weighted_kfp():
    from susyfact.models import reference_bundles
    b = reference_bundles()["kfp_harmonic"]
    P1 = b.conjugated
    phi = b.phi0
    verdict = construct(P1, phi, phi)
    assert verdict.status == "constructed"
    A = verdict.structure.A
    sp = P1.space
    assert A[0][0].is_zero
    assert A[0][1] == Poly.const(sp, Fraction(1, 2))
    assert A[1][0] == Poly.const(sp, Fraction(-1, 2))
    assert A[1][1] == Poly.const(sp, 1)


def test_construct_rejects_broken_kernel_condition():
    sp = VarSpace.make(["x1"])
    P = SecondOrderOperator(sp, identity_matrix(sp),
                            (parse_poly(sp, "x1^2"),), Poly.const(sp, 1), True)
    verdict = construct(P, Poly.zero(sp), Poly.zero(sp))
    assert verdict.status == "necessary_condition_failed"


@given(st.integers(2, 3).flatmap(
    lambda n: matrices(VarSpace.make(NAMES[:n]), max_deg=2, max_hpow=0,
                       max_terms=2)))
@settings(max_examples=25, deadline=None)
def test_construct_round_trip_unweighted(A):
    sp = A[0][0].space
    zero = Poly.zero(sp)
    P = assemble_factorization(A, zero, zero)
    verdict = construct(P, zero, zero)
    assert verdict.status in ("constructed", "verified")
    got = assemble_factorization(verdict.structure.A, zero, zero)
    assert got == P


# -------------------------------------------------------------- verification

def test_verify_structure_and_nonuniqueness():
    sp = VarSpace.make(["x1", "x2"])
    A = identity_matrix(sp)
    zero = Poly.zero(sp)
    P = assemble_factorization(A, zero, zero)
    ok = verify_structure(P, SusyStructure(A, zero, zero))
    assert ok.status == "verified"
    # a constant antisymmetric shift is another solution (unweighted case)
    c = Poly.const(sp, Fraction(1, 3))
    A2 = ((A[0][0], A[0][1] + c), (A[1][0] - c, A[1][1]))
    ok2 = verify_structure(P, SusyStructure(A2, zero, zero))
    assert ok2.status == "verified"
    # breaking the symmetric part is detected
    A3 = ((A[0][0] + c, A[0][1]), (A[1][0], A[1][1]))
    bad = verify_structure(P, SusyStructure(A3, zero, zero))
    assert bad.status != "verified"


def test_reference_structures_all_verify():
    rows = verify_reference_structures()
    assert len(rows) == 6
    assert all(r["status"] == "ok" for r in rows)


def test_construct_reproduces_reference_structures():
    # with phi = psi = phi0 the constructed A is the bundled reference exactly
    for name, b in reference_bundles().items():
        verdict = construct(b.conjugated, b.phi0, b.phi0)
        assert verdict.status == "constructed", name
        assert verdict.structure.A == b.reference_susy.A, name
