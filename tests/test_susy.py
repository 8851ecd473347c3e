"""Factorization assembly, the necessary kernel condition, and construction."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from susyfact import susy
from susyfact.cli import canonical_json
from susyfact.models import ChainConfig, make_chain, reference_bundles
from susyfact.opcore import (SecondOrderOperator, divergence, identity_matrix, laplacian,
                             zero_matrix)
from susyfact.polyalg import Poly, VarSpace, parse_poly
from susyfact.susy import (SusyStructure, assemble_factorization, check_necessary,
                           construct, verify_reference_structures,
                           verify_structure)

from conftest import NAMES, NO_SHRINK_PHASES, as_sympy, operators, polys, rationals


def matrices(space: VarSpace, **kw):
    n = space.n
    return st.fixed_dictionaries({(j, k): polys(space, **kw)
                                  for j in range(n) for k in range(n)}).map(
        lambda d: tuple(tuple(d[(j, k)] for k in range(n)) for j in range(n)))


# ------------------------------------------------------------------ assembly

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


@st.composite
def _factorization_data(draw):
    """A dense A, a sparse A (each entry zero with probability 1/2), or A of
    the shape `construct` returns: a symmetric B plus an exactly antisymmetric
    C, each entry again zero with probability 1/2."""
    sp = VarSpace.make(NAMES[:draw(st.integers(1, 4))])
    n = sp.n
    entry = polys(sp, max_deg=2, max_hpow=1, max_terms=2)
    sparse = st.one_of(st.just(Poly.zero(sp)), entry)
    shape = draw(st.sampled_from(["dense", "sparse", "B + C"]))
    if shape == "dense":
        A = draw(matrices(sp, max_deg=2, max_hpow=1, max_terms=2))
    elif shape == "sparse":
        A = tuple(tuple(draw(sparse) for _ in range(n)) for _ in range(n))
    else:
        A = [[None] * n for _ in range(n)]
        for j in range(n):
            A[j][j] = draw(sparse)
            for k in range(j + 1, n):
                b, c = draw(sparse), draw(sparse)
                A[j][k], A[k][j] = b + c, b - c
    phi = draw(polys(sp, max_deg=2, max_hpow=1, max_terms=3))
    psi = draw(polys(sp, max_deg=2, max_hpow=1, max_terms=3))
    return A, phi, psi


@given(_factorization_data(), st.booleans())
@settings(max_examples=40, deadline=None, phases=NO_SHRINK_PHASES)
def test_assemble_factorization_against_literal_product(data, semiclassical):
    # applied to a generic u, the normal form -sum D_j B_jk D_k + sum v_j D_j + v0
    # equals sum_{j,k} (-D_j + d_j psi) A_kj (D_k + d_k phi)
    sympy = pytest.importorskip("sympy")
    A, phi, psi = data
    sp = phi.space
    n = sp.n
    xs = sympy.symbols(sp.names)
    u = sympy.Function("u")(*xs)
    hbar = sympy.Symbol("h") if semiclassical else 1

    def D(e, j):
        return hbar * sympy.diff(e, xs[j])

    def S(p):
        return as_sympy(p, sympy)

    dphi = [sympy.diff(S(phi), x) for x in xs]
    dpsi = [sympy.diff(S(psi), x) for x in xs]
    inner = [sum(S(A[k][j]) * (D(u, k) + dphi[k] * u) for k in range(n)) for j in range(n)]
    literal = sum(-D(inner[j], j) + dpsi[j] * inner[j] for j in range(n))
    Q = assemble_factorization(A, phi, psi, semiclassical)
    normal = (-sum(D(S(Q.B[j][k]) * D(u, k), j) for j in range(n) for k in range(n))
              + sum(S(Q.v[j]) * D(u, j) for j in range(n)) + S(Q.v0) * u)
    assert sympy.expand(literal - normal) == 0


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


@st.composite
def _kernel_problems(draw):
    P = draw(operators(max_n=3, calculi=(True, False), max_deg=2, max_hpow=1, max_terms=2))
    phi = draw(polys(P.space, max_deg=3, max_hpow=0, max_terms=3))
    psi = draw(polys(P.space, max_deg=3, max_hpow=1, max_terms=3))
    return P, phi, psi, draw(st.booleans())


@given(_kernel_problems())
@settings(max_examples=100, deadline=None, phases=NO_SHRINK_PHASES)
def test_kernel_verdict_matches_both_kernel_tests(problem):
    # reference: the two kernel tests run separately, the adjoint one through
    # P.adjoint(); with force the zero order is shifted so that P kills
    # e^{-phi/h} and only the adjoint condition decides
    P, phi, psi, force = problem
    if force:
        P = SecondOrderOperator(P.space, P.B, P.v, P.v0 - P.exp_conjugate(phi).v0,
                                P.semiclassical)
    forward = P.kernel_test(phi)
    want = forward if not forward.vanishes else P.adjoint().kernel_test(psi)
    verdict = check_necessary(P, phi, psi)
    if want.vanishes:
        assert verdict.status == "verified" and verdict.failure_witness is None
        return
    assert verdict.status == "necessary_condition_failed"
    assert verdict.failure_witness == want.residual
    assert construct(P, phi, psi) == verdict


def test_one_conjugation_per_decision(monkeypatch):
    # check_necessary and construct each conjugate P by e^{phi/h} once
    b = reference_bundles()["kfp_harmonic"]
    calls = []
    conjugate = SecondOrderOperator.exp_conjugate

    def counted(self, phi, sign=1):
        calls.append(sign)
        return conjugate(self, phi, sign)
    monkeypatch.setattr(SecondOrderOperator, "exp_conjugate", counted)
    assert check_necessary(b.conjugated, b.phi0, b.phi0).status == "verified"
    assert calls == [1]
    calls.clear()
    assert construct(b.conjugated, b.phi0, b.phi0).status == "constructed"
    assert calls == [1]


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
    def broken(space, v):
        raise TypeError("broken")
    monkeypatch.setattr(susy, "homotopy_inverse_delta", broken)
    sp = VarSpace.make(["x1", "x2"])
    v = (parse_poly(sp, "x2"), parse_poly(sp, "-1*x1"))
    P = SecondOrderOperator(sp, identity_matrix(sp), v, Poly.zero(sp), False)
    with pytest.raises(TypeError):
        construct(P, Poly.zero(sp), Poly.zero(sp))


def test_construct_reports_a_failed_reverification(monkeypatch):
    # a C that misses vtilde leaves the drift unmatched: the re-verification
    # turns that into construction_failed, with the first difference of P
    # and the assembled operator as the witness
    monkeypatch.setattr(susy, "homotopy_inverse_delta", lambda space, v: zero_matrix(space))
    sp = VarSpace.make(["x1", "x2"])
    v = (parse_poly(sp, "x2"), parse_poly(sp, "-1*x1"))
    P = SecondOrderOperator(sp, identity_matrix(sp), v, Poly.zero(sp), False)
    verdict = construct(P, Poly.zero(sp), Poly.zero(sp))
    assert verdict.status == "construction_failed"
    assert verdict.failure_witness == parse_poly(sp, "x2")


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
@settings(max_examples=25, deadline=None, phases=NO_SHRINK_PHASES)
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


# --------------------------------------------------- the weighted exact solve

GOLDEN = Path(__file__).parent / "golden"

# two 12-variable chains (n = 2 oscillators per bath) that factorize through
# the weighted linear solve: equal temperatures with coupling, and unequal
# temperatures without coupling
N2_BASE = {"n": 2, "W1": "1/4*x1_1^4 - 1/2*x1_1^2 + 1/4 + 1/4*x1_2^4 - 1/2*x1_2^2 + 1/4",
           "W2": "1/2*x2_1^2 + 1/2*x2_2^2", "alpha1": "1", "gamma": "1"}
N2_CHAINS = {"equal": dict(N2_BASE, deltaW="1/10*x1_1*x2_1^3", alpha2="1"),
             "decoupled": dict(N2_BASE, deltaW="0", alpha2="2")}


@pytest.mark.parametrize("name", sorted(N2_CHAINS))
def test_construct_n2_chain_matches_golden(name):
    # which particular A the weighted solve returns is behaviour: pinned byte for byte
    b = make_chain(ChainConfig.from_json_dict(N2_CHAINS[name]))
    verdict = construct(b.conjugated, b.phi0, b.phi0)
    got = canonical_json(verdict.to_json_dict()).encode()
    assert got == (GOLDEN / f"construct_chain_n2_{name}.json").read_bytes()


def test_verify_structure_additions_pinned(monkeypatch):
    # the work of re-verifying construct's A for the n = 2 equal-temperature
    # chain, counted in Poly additions: B and the antisymmetric part are built
    # once per pair, and zero entries are skipped (768 when every ordered
    # pair was formed)
    b = make_chain(ChainConfig.from_json_dict(N2_CHAINS["equal"]))
    verdict = construct(b.conjugated, b.phi0, b.phi0)
    calls = []
    add = Poly.__add__

    def counted(self, other):
        calls.append(None)
        return add(self, other)
    monkeypatch.setattr(Poly, "__add__", counted)
    assert verify_structure(b.conjugated, verdict.structure).status == "verified"
    assert len(calls) == 480


def _random_system(rng: random.Random, kind: str):
    """A sparse rational system of one kind: full column rank and consistent,
    rank-deficient (dependent rows and free columns) and consistent,
    inconsistent (a dependent row with a perturbed right side), or large
    (numerators to 1e12, denominators to 1e6 drawn per entry, with a
    dependent row whose right side is perturbed half the time)."""
    if kind == "large":
        return _large_system(rng)
    ncols = rng.randint(2, 8)
    nrows = ncols + rng.randint(0, 3) if kind == "full" else rng.randint(2, 9)

    def rand_row(width):
        cols = rng.sample(range(width), rng.randint(1, min(3, width)))
        return {c: Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3))
                for c in cols}

    if kind == "full":
        # a shuffled triangular core keeps full column rank
        rows = []
        for c in range(ncols):
            row = rand_row(ncols)
            row = {k: v for k, v in row.items() if k > c}
            row[c] = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            rows.append(row)
        rows += [rand_row(ncols) for _ in range(nrows - ncols)]
        rng.shuffle(rows)
    else:
        # free columns: the last ones are combinations of earlier ones
        nfree = rng.randint(1, max(1, ncols - 1))
        base = [rand_row(ncols - nfree) for _ in range(nrows)]
        mix = [rand_row(ncols - nfree) for _ in range(nfree)]
        rows = []
        for r in base:
            row = dict(r)
            for f, m in enumerate(mix):
                val = sum((r.get(c, 0) * v for c, v in m.items()), Fraction(0))
                if val:
                    row[ncols - nfree + f] = val
            rows.append(row)
        # a dependent row
        i, j = rng.sample(range(nrows), 2)
        rows.append({c: rows[i].get(c, 0) + 2 * rows[j].get(c, 0)
                     for c in set(rows[i]) | set(rows[j])
                     if rows[i].get(c, 0) + 2 * rows[j].get(c, 0)})
    x0 = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
    rhs = [sum((v * x0[c] for c, v in row.items()), Fraction(0)) for row in rows]
    if kind == "inconsistent":
        rhs[-1] += Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3))
    return rows, rhs, ncols


def _big(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**12), rng.randint(1, 10**6))


def _large_system(rng: random.Random):
    ncols = rng.randint(2, 6)
    rows = [{c: _big(rng) for c in rng.sample(range(ncols), rng.randint(1, ncols))}
            for _ in range(rng.randint(1, ncols + 1))]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
    a, b = _big(rng), _big(rng)
    dep = {c: a * rows[i].get(c, 0) + b * rows[j].get(c, 0) for c in set(rows[i]) | set(rows[j])}
    rows.append({c: v for c, v in dep.items() if v})
    x0 = [_big(rng) for _ in range(ncols)]
    rhs = [sum((v * x0[c] for c, v in row.items()), Fraction(0)) for row in rows]
    if rng.random() < 0.5:
        rhs[-1] += _big(rng)
    order = list(range(len(rows)))
    rng.shuffle(order)
    return [rows[r] for r in order], [rhs[r] for r in order], ncols


def _cancelling_systems():
    """A consistent and an inconsistent system whose second row is a rational
    multiple of the first with other denominators, so it cancels to zero only
    once both rows are scaled to integers."""
    first = {0: Fraction(999999999989, 999983), 1: Fraction(-123456789012, 999979),
             2: Fraction(1, 10**6)}
    scale = Fraction(-7 * 10**11, 999961)
    rows = [first, {c: scale * v for c, v in first.items()},
            {1: Fraction(3, 999953), 2: Fraction(5 * 10**11, 7)}]
    x0 = [Fraction(10**12, 999983), Fraction(-3, 7), Fraction(11, 10**6)]
    rhs = [sum((v * x0[c] for c, v in row.items()), Fraction(0)) for row in rows]
    bad = list(rhs)
    bad[1] += Fraction(1, 999999)
    return [(rows, rhs, 3), (rows, bad, 3)]


@pytest.mark.parametrize("kind", ["full", "deficient", "inconsistent", "large"])
def test_solve_linear_fraction_against_sympy(kind):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"solve:{kind}")
    systems = [_random_system(rng, kind) for _ in range(40)]
    if kind == "large":
        systems += _cancelling_systems()
    for rows, rhs, ncols in systems:
        A = sympy.Matrix([[sympy.Rational(r.get(c, 0)) for c in range(ncols)] for r in rows])
        b = sympy.Matrix([sympy.Rational(v) for v in rhs])
        sol = susy._solve_linear_fraction(rows, rhs, ncols)
        assert (sol is None) == (A.rank() < A.row_join(b).rank())
        if kind == "inconsistent":
            assert sol is None
        if sol is None:
            continue
        assert all(type(v) is Fraction for v in sol)
        assert all(sum((v * sol[c] for c, v in row.items()), Fraction(0)) == r
                   for row, r in zip(rows, rhs))
        _, pivots = A.rref()
        assert all(sol[c] == 0 for c in range(ncols) if c not in pivots)


def _terms(n: int, max_deg: int, max_hpow: int, min_deg: int = 0):
    """One term as (variable indices of the monomial, h power, coefficient)."""
    mono = st.lists(st.integers(0, n - 1), min_size=min_deg, max_size=max_deg)
    return st.tuples(mono, st.integers(0, max_hpow), rationals(5, 3).filter(bool))


@st.composite
def _weighted_problems(draw):
    # G has a term of degree >= 2, so the weight g = dG is not constant
    n = draw(st.integers(2, 4))
    G = [draw(_terms(n, 3, 1, min_deg=2))] + draw(st.lists(_terms(n, 3, 1), max_size=3))
    C0 = {(j, k): draw(st.lists(_terms(n, 2, 0), max_size=2))
          for j in range(n) for k in range(j + 1, n)}
    return n, G, C0


@given(_weighted_problems(), st.booleans())
@settings(max_examples=30, deadline=None, phases=NO_SHRINK_PHASES)
def test_weighted_divergence_solve_round_trip(problem, semiclassical):
    # vtilde_k = sum_j (D_j - g_j) C0_jk is built with sympy; the solve must
    # return an antisymmetric C with the same image
    sympy = pytest.importorskip("sympy")
    n, G_terms, C0_terms = problem
    xs = sympy.symbols(NAMES[:n])
    h = sympy.Symbol("h")

    def expr(terms):
        return sum((sympy.Rational(c.numerator, c.denominator) * h ** hp
                    * sympy.Mul(*[xs[i] for i in mono]) for mono, hp, c in terms),
                   sympy.Integer(0))

    G = expr(G_terms)
    C0 = [[sympy.Integer(0)] * n for _ in range(n)]
    for (j, k), terms in C0_terms.items():
        C0[j][k] = expr(terms)
        C0[k][j] = -C0[j][k]
    D = h if semiclassical else 1
    g = [sympy.diff(G, x) for x in xs]
    vt = [sympy.expand(sum(D * sympy.diff(C0[j][k], xs[j]) - g[j] * C0[j][k]
                           for j in range(n))) for k in range(n)]

    sp = VarSpace.make(NAMES[:n])

    def to_poly(e):
        p = sympy.Poly(e, *xs, h)
        return Poly(sp, {(m[:n], m[n]): Fraction(int(c.p), int(c.q)) for m, c in p.terms()})

    g_poly, vt_poly = [to_poly(e) for e in g], [to_poly(e) for e in vt]
    C = susy._weighted_divergence_solve(sp, g_poly, vt_poly, semiclassical)
    assert C is not None
    for k in range(n):
        image = Poly.zero(sp)
        for j in range(n):
            assert C[j][k] == -C[k][j]
            dC = C[j][k].partial(sp.names[j])
            image = image + (dC.h_shift(1) if semiclassical else dC) - g_poly[j] * C[j][k]
        assert image == vt_poly[k]


def _monomial_basis(sp: VarSpace, max_deg: int, max_hpow: int):
    keys = []
    for hp in range(max_hpow + 1):
        for deg in range(max_deg + 1):
            for combo in combinations_with_replacement(range(sp.n), deg):
                exps = [0] * sp.n
                for i in combo:
                    exps[i] += 1
                keys.append((tuple(exps), hp))
    return keys


def _full_system_solve(sp: VarSpace, g: list[Poly], vtilde: list[Poly],
                       semiclassical: bool):
    """Reference for `_weighted_divergence_solve`: the same ladder of caps,
    basis and column order, but each column is the weighted divergence of
    its unknown C_ab = x^e h^r (C_ba = -C_ab) taken by `opcore.divergence`,
    and every equation of the system is solved at once."""
    n = sp.n
    zero = Poly.zero(sp)
    deg_v = max(p.total_degree() for p in vtilde)
    deg_g = max(p.total_degree() for p in g)
    hmax = max(p.max_hpow() for p in vtilde) + 1
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    for cap in sorted({max(0, deg_v - deg_g + 1), deg_v, deg_v + 2}):
        unknowns = [(pair, key) for pair in pairs for key in _monomial_basis(sp, cap, hmax)]
        eq_rows: dict = {(k, tk): {} for k in range(n) for tk in vtilde[k].terms}
        for col, ((a, b), key) in enumerate(unknowns):
            for k, j, c in ((b, a, 1), (a, b, -1)):
                column_k = [zero] * n
                column_k[j] = Poly(sp, {key: c})
                for tk, v in divergence(sp, column_k, semiclassical, g).terms.items():
                    eq_rows.setdefault((k, tk), {})[col] = v
        keys = sorted(eq_rows)
        sol = susy._solve_linear_fraction([eq_rows[k] for k in keys],
                                          [vtilde[k].terms.get(tk, Fraction(0)) for k, tk in keys],
                                          len(unknowns))
        if sol is None:
            continue
        C = [[zero] * n for _ in range(n)]
        for (a, b) in pairs:
            C[a][b] = Poly(sp, {key: c for (pair, key), c in zip(unknowns, sol) if pair == (a, b)})
            C[b][a] = -C[a][b]
        if all(divergence(sp, [C[j][k] for j in range(n)], semiclassical, g) == vtilde[k]
               for k in range(n)):
            return C
    return None


def _poly_from_terms(sp: VarSpace, terms) -> Poly:
    out = Poly.zero(sp)
    for mono, hp, c in terms:
        exps = [0] * sp.n
        for i in mono:
            exps[i] += 1
        out = out + Poly(sp, {(tuple(exps), hp): c})
    return out


@st.composite
def _oracle_problems(draw):
    # g = dG with G not constant; vtilde is the weighted divergence of a
    # random antisymmetric C0 (solvable) or a random field (rarely solvable)
    n = draw(st.integers(2, 4))
    semiclassical = draw(st.booleans())
    sp = VarSpace.make(NAMES[:n])
    G = _poly_from_terms(sp, [draw(_terms(n, 3, 1, min_deg=1))]
                         + draw(st.lists(_terms(n, 3, 1), max_size=2)))
    g = [G.partial(name) for name in sp.names]
    if draw(st.booleans()):
        C0 = [[Poly.zero(sp)] * n for _ in range(n)]
        for j in range(n):
            for k in range(j + 1, n):
                C0[j][k] = _poly_from_terms(sp, draw(st.lists(_terms(n, 2, 0), max_size=2)))
                C0[k][j] = -C0[j][k]
        vtilde = [divergence(sp, [C0[j][k] for j in range(n)], semiclassical, g)
                  for k in range(n)]
    else:
        vtilde = [_poly_from_terms(sp, draw(st.lists(_terms(n, 2, 1), max_size=2)))
                  for _ in range(n)]
    return sp, g, vtilde, semiclassical


def _assert_same_solution(sp, g, vtilde, semiclassical):
    got = susy._weighted_divergence_solve(sp, g, vtilde, semiclassical)
    want = _full_system_solve(sp, g, vtilde, semiclassical)
    assert (got is None) == (want is None)
    if want is not None:
        assert [[repr(p) for p in row] for row in got] == [[repr(p) for p in row] for row in want]
    return got


@given(_oracle_problems())
@settings(max_examples=60, deadline=None, phases=NO_SHRINK_PHASES)
def test_weighted_divergence_solve_matches_full_system(problem):
    sp, g, vtilde, semiclassical = problem
    assume(any(not gj.is_zero for gj in g))
    _assert_same_solution(sp, g, vtilde, semiclassical)


def test_weighted_divergence_solve_upper_rung_and_no_solution():
    # g = d(x1^2/2) with vtilde = (0, 0, 10 x2^9): both cap-9 rungs fail and
    # cap 11 finds C_23 = x2^10
    sp = VarSpace.make(NAMES[:3])
    g = [parse_poly(sp, "x1"), Poly.zero(sp), Poly.zero(sp)]
    vtilde = [Poly.zero(sp), Poly.zero(sp), parse_poly(sp, "10*x2^9")]
    C = _assert_same_solution(sp, g, vtilde, False)
    assert C[1][2] == parse_poly(sp, "x2^10")
    assert all(C[j][k].is_zero for j in range(3) for k in range(3) if {j, k} != {1, 2})
    # vtilde = (1, 0) is not closed: -(D_1 - x1) 1 = x1 != 0, so no C exists
    sp = VarSpace.make(NAMES[:2])
    g = [parse_poly(sp, "x1"), Poly.zero(sp)]
    assert _assert_same_solution(sp, g, [Poly.const(sp, 1), Poly.zero(sp)], True) is None


# --------------------------------------------- the unweighted divergence solve

def _divergence_free_field(rng: random.Random, sp: VarSpace, max_hpow: int) -> list[Poly]:
    """r_k = sum_j d_j G_jk for a random antisymmetric G with rational
    coefficients, so sum_k d_k r_k = 0; redrawn until r is nonzero."""
    n = sp.n
    while True:
        G = {}
        for j in range(n):
            for k in range(j + 1, n):
                terms = {}
                for _ in range(rng.randint(0, 2)):
                    exps = tuple(rng.randint(0, 2) for _ in range(n))
                    terms[(exps, rng.randint(0, max_hpow))] = Fraction(rng.randint(-9, 9),
                                                                      rng.randint(1, 5))
                G[(j, k)] = Poly(sp, terms)
                G[(k, j)] = -G[(j, k)]
        r = [sum((G[(j, k)].partial(sp.names[j]) for j in range(n) if j != k), Poly.zero(sp))
             for k in range(n)]
        if not all(p.is_zero for p in r):
            return r


def _unweighted_cases():
    """Twenty seeded divergence-free drifts over n = 2..5, both calculi and
    h powers 0..2, plus a nonzero constant drift in one variable (which no
    antisymmetric part can produce).  Each case is (name, P) with B = 1 and
    zero potential, so construct(P, 0, 0) takes the unweighted path."""
    rng = random.Random(20121)
    cases = []
    for i in range(20):
        n, semiclassical, max_hpow = 2 + i % 4, (i // 4) % 2 == 1, i % 3
        sp = VarSpace.make(NAMES[:n] + tuple(f"x{m}" for m in range(len(NAMES) + 1, n + 1)))
        r = _divergence_free_field(rng, sp, max_hpow)
        v = tuple(p.h_shift(1) for p in r) if semiclassical else tuple(r)
        P = SecondOrderOperator(sp, identity_matrix(sp), v, Poly.zero(sp), semiclassical)
        cases.append((f"n{n}_{'semiclassical' if semiclassical else 'flat'}_h{max_hpow}_{i}", P))
    sp = VarSpace.make(NAMES[:1])
    cases.append(("n1_constant", SecondOrderOperator(sp, identity_matrix(sp), (Poly.const(sp, 1),),
                                                     Poly.zero(sp), False)))
    return cases


def test_construct_unweighted_fields_match_golden():
    # which particular A the unweighted solve returns is behaviour: pinned byte for byte
    got = {}
    for name, P in _unweighted_cases():
        zero = Poly.zero(P.space)
        got[name] = construct(P, zero, zero).to_json_dict()
    assert [v["status"] for v in got.values()] == ["constructed"] * 20 + ["construction_failed"]
    assert canonical_json(got).encode() == (GOLDEN / "construct_unweighted_fields.json").read_bytes()


def _from_sympy(expr, sp: VarSpace, sympy) -> Poly:
    """A sympy polynomial in the variables of sp and h, as a Poly."""
    poly = sympy.Poly(sympy.expand(expr), *sympy.symbols(sp.names), sympy.Symbol("h"))
    return Poly(sp, {(tuple(m[:-1]), m[-1]): Fraction(int(c.p), int(c.q))
                     for m, c in poly.terms()})


@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    matrices(VarSpace.make(NAMES[:n]), max_deg=2, max_hpow=2, max_terms=2), st.booleans())))
@settings(max_examples=25, deadline=None, phases=NO_SHRINK_PHASES)
def test_unweighted_construct_against_sympy(data):
    # independent oracle: r = div G for an antisymmetric G, both in sympy; the
    # C that construct returns must be antisymmetric with sum_j d_j C_jk = r_k
    sympy = pytest.importorskip("sympy")
    M, semiclassical = data
    sp = M[0][0].space
    n = sp.n
    xs = sympy.symbols(sp.names)
    G = [[sympy.Integer(0)] * n for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            G[j][k] = as_sympy(M[j][k], sympy)
            G[k][j] = -G[j][k]
    r = [sum(sympy.diff(G[j][k], xs[j]) for j in range(n)) for k in range(n)]
    scale = sympy.Symbol("h") if semiclassical else 1
    v = tuple(_from_sympy(rk * scale, sp, sympy) for rk in r)
    zero = Poly.zero(sp)
    P = SecondOrderOperator(sp, identity_matrix(sp), v, zero, semiclassical)
    verdict = construct(P, zero, zero)
    assert verdict.status == "constructed"
    C = [[as_sympy(verdict.structure.A[j][k] - P.B[j][k], sympy) for k in range(n)]
         for j in range(n)]
    for j in range(n):
        for k in range(n):
            assert sympy.expand(C[j][k] + C[k][j]) == 0
    for k in range(n):
        assert sympy.expand(sum(sympy.diff(C[j][k], xs[j]) for j in range(n)) - r[k]) == 0


# ------------------------------------------------------- metamorphic checks

def _permutation(sp: VarSpace, sigma: list[int]):
    """The map p -> p with variable j moved to position sigma[j] of the
    variable list (same names and blocks): a pure relabelling."""
    names = [""] * sp.n
    for j, t in enumerate(sigma):
        names[t] = sp.names[j]
    target = VarSpace.make(names, dict(sp.blocks))

    def move(p: Poly) -> Poly:
        terms = {}
        for (exps, hpow), c in p.terms.items():
            moved = [0] * sp.n
            for j, t in enumerate(sigma):
                moved[t] = exps[j]
            terms[(tuple(moved), hpow)] = c
        return Poly(target, terms)
    return target, move


def _move_matrix(A, sigma, move):
    n = len(sigma)
    out = [[None] * n for _ in range(n)]
    for j in range(n):
        for k in range(n):
            out[sigma[j]][sigma[k]] = move(A[j][k])
    return out


def test_construct_verdicts_survive_a_permutation_of_the_variables():
    rng = random.Random(2012)
    cases = [(name, b.conjugated, b.phi0) for name, b in sorted(reference_bundles().items())]
    cases += [(name, P, Poly.zero(P.space)) for name, P in _unweighted_cases()]
    for name, P, phi in cases:
        n = P.space.n
        sigma = list(range(n))
        while n > 1 and sigma == sorted(sigma):
            rng.shuffle(sigma)
        target, move = _permutation(P.space, sigma)
        moved_v = [None] * n
        for j in range(n):
            moved_v[sigma[j]] = move(P.v[j])
        Pp = SecondOrderOperator(target, _move_matrix(P.B, sigma, move), moved_v,
                                 move(P.v0), P.semiclassical)
        verdict = construct(P, phi, phi)
        permuted = construct(Pp, move(phi), move(phi))
        assert permuted.status == verdict.status, name
        if verdict.structure is None:
            continue
        moved = SusyStructure(_move_matrix(verdict.structure.A, sigma, move),
                              move(phi), move(phi))
        assert verify_structure(Pp, moved).status == "verified", name
        if phi.is_zero:
            # the radial primitive treats every variable alike
            assert permuted.structure.A == moved.A, name
