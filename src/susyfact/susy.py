"""Supersymmetric factorization: testing, construction, verification.

A supersymmetric structure for a second-order operator P is a triple
(A, phi, psi) with

    P u = sum_j (-D_j + d_j psi) [ sum_k A_{kj} (D_k u + (d_k phi) u) ],

D_j the (semiclassical) derivative.  `assemble_factorization` expands the
right side into divergence normal form.  `check_necessary` decides the two
kernel conditions P(e^{-phi/h}) = 0 and P*(e^{-psi/h}) = 0 from one
conjugation P1 = e^{phi/h} P e^{-phi/h}: the first is P1.v0 = 0, and once it
holds, with g = d(phi + psi) and vtilde_k = P1.v_k - sum_j g_j B_jk,

    P*(e^{-psi/h}) = r e^{-psi/h},     r = -sum_k (D_k - g_k) vtilde_k.

`construct` takes g and vtilde from the same conjugation and builds the
antisymmetric correction C so that A = B + C factorizes P, by solving the
weighted divergence equation

    sum_j (D_j - g_j) C_{jk} = vtilde_k,

either through the closed-form radial primitive of `extcalc` (unweighted
case, g = 0) or through an exact bounded-degree linear solve over the
rationals (weighted case).  That solve writes only the block of its system
that vtilde's terms reach: elimination never combines rows of different
blocks, and a block whose right sides are all 0 solves to 0, so the rest
of the system cannot change the solution.  Every construction is
re-verified against the factorization identity before a verdict is issued.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm
from typing import Optional, Sequence

from .extcalc import ExtCalcError, homotopy_inverse_delta
from .opcore import SecondOrderOperator, divergence, zero_matrix
from .polyalg import Poly, PolyError, VarSpace


class SusyError(ValueError):
    pass


@dataclass(frozen=True)
class SusyStructure:
    A: tuple[tuple[Poly, ...], ...]
    phi: Poly
    psi: Poly

    def __post_init__(self):
        object.__setattr__(self, "A", tuple(tuple(row) for row in self.A))

    @property
    def space(self) -> VarSpace:
        return self.phi.space

    def to_json_dict(self) -> dict:
        return {
            "A": [{"i": j, "j": k, "poly": self.A[j][k].to_literal()}
                  for j in range(len(self.A)) for k in range(len(self.A))
                  if not self.A[j][k].is_zero],
            "phi": self.phi.to_literal(),
            "psi": self.psi.to_literal(),
        }


@dataclass(frozen=True)
class SusyVerdict:
    status: str  # verified | constructed | necessary_condition_failed | construction_failed
    structure: Optional[SusyStructure] = None
    failure_witness: Optional[Poly] = None

    def __post_init__(self):
        if self.status not in ("verified", "constructed",
                               "necessary_condition_failed", "construction_failed"):
            raise SusyError(f"unknown verdict status {self.status!r}")

    def to_json_dict(self) -> dict:
        out: dict = {"status": self.status}
        if self.failure_witness is not None:
            out["witness"] = self.failure_witness.to_literal()
        if self.structure is not None:
            out["structure"] = self.structure.to_json_dict()
        return out


def assemble_factorization(A: Sequence[Sequence[Poly]], phi: Poly, psi: Poly,
                           semiclassical: bool = True) -> SecondOrderOperator:
    """Expand u -> sum_j (-D_j + d_j psi)[ sum_k A_{kj} (D_k u + (d_k phi) u) ]
    into divergence normal form.  The second-order block is exactly the
    symmetric part of A, built once per pair:

        B_jj = A_jj,    B_jk = B_kj = (A_jk + A_kj) / 2   (j < k),

    with the pair skipped when A_jk and A_kj are both zero.  With w = A^T d phi,

        v_k = sum_j A_kj d_j psi - w_k - sum_j D_j (A_kj - B_kj),
        v0 = -sum_j (D_j - d_j psi) w_j,

    where A_kj - B_kj = (A_kj - A_jk) / 2 is the antisymmetric part of A: zero
    on the diagonal, and A_kj itself, with nothing to compute, wherever B_kj
    is zero."""
    space = phi.space
    n = space.n
    if psi.space != space or any(p.space != space for row in A for p in row):
        raise SusyError("A, phi, psi must share one variable space")
    if len(A) != n or any(len(row) != n for row in A):
        raise SusyError("A must be square over the variable space")

    gphi = [phi.partial(name) for name in space.names]
    gpsi = [psi.partial(name) for name in space.names]
    zero = Poly.zero(space)
    half = Fraction(1, 2)
    B = zero_matrix(space)
    for j in range(n):
        B[j][j] = A[j][j]
        for k in range(j + 1, n):
            if not (A[j][k].is_zero and A[k][j].is_zero):
                B[j][k] = B[k][j] = (A[j][k] + A[k][j]) * half
    w = [sum((A[k][j] * gphi[k] for k in range(n)), zero) for j in range(n)]
    v = [sum((A[k][j] * gpsi[j] for j in range(n)), zero) - w[k]
         - divergence(space, [zero if j == k else A[k][j] - B[k][j] for j in range(n)],
                      semiclassical)
         for k in range(n)]
    v0 = -divergence(space, w, semiclassical, gpsi)
    return SecondOrderOperator(space, tuple(tuple(r) for r in B), tuple(v), v0, semiclassical)


def _kernel_conditions(P: SecondOrderOperator, phi: Poly, psi: Poly
                       ) -> tuple[SusyVerdict, list[Poly], list[Poly]]:
    """Both kernel conditions from the one conjugation P1 = e^{phi/h} P e^{-phi/h}.

    P(e^{-phi/h}) = P1.v0 e^{-phi/h}.  When that vanishes, P*(e^{-psi/h}) =
    r e^{-psi/h} with r = -sum_k (D_k - g_k) vtilde_k, g = d(phi + psi) and
    vtilde_k = P1.v_k - sum_j g_j B_jk.  Returns the verdict, and g and vtilde
    when both conditions hold (empty lists otherwise).
    """
    P1 = P.exp_conjugate(phi, +1)
    if not P1.v0.is_zero:
        return SusyVerdict("necessary_condition_failed", failure_witness=P1.v0), [], []
    space = P.space
    n = space.n
    g_poly = phi + psi
    g = [g_poly.partial(name) for name in space.names]
    vtilde = [P1.v[k] - sum((g[j] * P.B[j][k] for j in range(n)), Poly.zero(space))
              for k in range(n)]
    r = -divergence(space, vtilde, P.semiclassical, g)
    if not r.is_zero:
        return SusyVerdict("necessary_condition_failed", failure_witness=r), [], []
    return SusyVerdict("verified"), g, vtilde


def check_necessary(P: SecondOrderOperator, phi: Poly, psi: Poly) -> SusyVerdict:
    """The two kernel conditions of the factorization theorem: P must kill the
    Maxwellian e^{-phi/h} and its adjoint must kill e^{-psi/h}."""
    return _kernel_conditions(P, phi, psi)[0]


# ----------------------------------------------------------------- construct

def _solve_linear_fraction(rows: list[dict[int, Fraction]], rhs: list[Fraction],
                           ncols: int) -> Optional[list[Fraction]]:
    """Exact Gaussian elimination for a sparse rational system; returns one
    solution (free unknowns set to 0) or None if inconsistent.

    Elimination is fraction-free: each row and its right side are scaled
    to integers by the lcm of their denominators, a row R is reduced against
    a pivot row P (pivot p, R's entry f) as (p/g) R - (f/g) P with
    g = gcd(p, f), and a new pivot row is divided by its content.  Each
    integer row is a nonzero multiple of the row rational elimination would
    hold, so supports, pivots and the solution are the same; only
    back-substitution returns to Fractions.

    Each pivot row takes its pivot at its leftmost column and holds no column
    of an earlier pivot, so a row is reduced by visiting the pivots whose
    columns it touches in creation order: a min-heap of pivot indices, fed
    with the pivot columns each elimination step brings into the row.
    """
    pivot_of_col: dict[int, int] = {}  # column -> index into `order`
    order: list[tuple[dict[int, int], int, int]] = []  # (row, rhs, col) in creation order
    for given, b in zip(rows, rhs):
        m = lcm(b.denominator, *(v.denominator for v in given.values()))
        row = {c: v.numerator * (m // v.denominator) for c, v in given.items() if v}
        b = b.numerator * (m // b.denominator)
        heap = [pivot_of_col[c] for c in row if c in pivot_of_col]
        heapify(heap)
        while heap:
            prow, pb, pc = order[heappop(heap)]
            f = row.get(pc)
            if not f:
                continue
            p = prow[pc]
            g = gcd(p, f)
            p, f = p // g, f // g
            if p != 1:
                row = {c: p * v for c, v in row.items()}
                b *= p
            for c, val in prow.items():
                old = row.get(c)
                if old is None:
                    row[c] = -f * val
                    if c in pivot_of_col:
                        heappush(heap, pivot_of_col[c])
                else:
                    nv = old - f * val
                    if nv:
                        row[c] = nv
                    else:
                        del row[c]
            b -= f * pb
        if not row:
            if b != 0:
                return None
            continue
        pc = min(row)
        content = gcd(b, *row.values())
        if content != 1:
            row = {c: v // content for c, v in row.items()}
            b //= content
        pivot_of_col[pc] = len(order)
        order.append((row, b, pc))
    sol = [Fraction(0)] * ncols
    for row, b, pc in reversed(order):
        val = Fraction(b)
        for c, coef in row.items():
            if c != pc:
                val -= coef * sol[c]
        sol[pc] = val / row[pc]
    return sol


def _weighted_divergence_solve(space: VarSpace, g: list[Poly], vtilde: list[Poly],
                               semiclassical: bool) -> Optional[list[list[Poly]]]:
    """Find an antisymmetric polynomial matrix C with
    sum_j (D_j - g_j) C_{jk} = vtilde_k for all k, or None.

    Bounded-degree ansatz, grown over a short ladder of degree caps; each
    candidate system is solved exactly over the rationals and the solution
    is re-checked with `opcore.divergence`.  The system's columns are the
    unknowns C_ab = x^e h^r (a < b) with |e| at most the cap and r at most
    hmax, its rows the equations (k, term), written from the monomial rule
    for the image of each unknown.

    Only the block of that system which vtilde's terms reach is written:
    starting from the rows (k, term of vtilde_k), each row brings in the
    unknowns the monomial rule can carry to it, and each unknown the rows of
    its image, until nothing new appears.  Elimination combines a row only
    with pivot rows that share a column, so the other blocks never meet
    this one; their right sides are all 0, so they are consistent and, with
    free unknowns set to 0, back-substitute to 0.  Handing the block's rows
    to the solver in the full system's sorted order, with its unknowns
    numbered in the full system's column order, gives the full system's
    pivots and solution: elimination sees only the order of the columns.
    """
    n = space.n
    deg_v = max((p.total_degree() for p in vtilde), default=0)
    deg_g = max((p.total_degree() for p in g), default=0)
    hmax = max((p.max_hpow() for p in vtilde), default=0) + 1
    ladder = sorted({max(0, deg_v - deg_g + 1), deg_v, deg_v + 2})
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    dh = 1 if semiclassical else 0
    g_terms = [list(gj.terms.items()) for gj in g]

    def image(a: int, b: int, exps: tuple[int, ...], hp: int) -> dict:
        """The weighted divergence of the unknown C_ab = x^exps h^hp
        (C_ba = -C_ab), as {(k, term key): coefficient} with zero sums
        dropped: (D_a - g_a) of it lands in equation b, and (D_b - g_b) of
        it, negated, in a."""
        out = {}
        for k, j, sign in ((b, a, 1), (a, b, -1)):
            eq: dict = {}
            e = exps[j]
            if e:
                eq[(exps[:j] + (e - 1,) + exps[j + 1:], hp + dh)] = Fraction(sign * e)
            for (eg, hg), c in g_terms[j]:
                key = (tuple(x + y for x, y in zip(exps, eg)), hp + hg)
                eq[key] = eq.get(key, 0) - sign * c
            out.update(((k, key), c) for key, c in eq.items() if c)
        return out

    def sources(k: int, exps: tuple[int, ...], hp: int):
        """The unknowns (pair, key) whose image can reach equation k at
        x^exps h^hp, by `image`'s rule read backwards: the D_j part from
        x^(exps + 1_j) h^(hp - dh), the g_j part from x^(exps - e) h^(hp - r)
        for each term x^e h^r of g_j."""
        for j in range(n):
            if j == k:
                continue
            pair = (min(j, k), max(j, k))
            if hp >= dh:
                yield pair, (exps[:j] + (exps[j] + 1,) + exps[j + 1:], hp - dh)
            for (eg, hg), _ in g_terms[j]:
                if hp >= hg and all(x >= y for x, y in zip(exps, eg)):
                    yield pair, (tuple(x - y for x, y in zip(exps, eg)), hp - hg)

    def column_order(unknown):
        """The full system's column order: pair, h-power, degree, then the
        order of combinations_with_replacement, which within one degree is
        descending lexicographic in the exponents."""
        pair, (exps, hp) = unknown
        return pair, hp, sum(exps), tuple(-e for e in exps)

    for cap in ladder:
        eq_rows: dict[tuple[int, tuple], dict[int, Fraction]] = {
            (k, tk): {} for k in range(n) for tk in vtilde[k].terms}
        images: dict[tuple, dict] = {}  # (pair, key) -> its image, for the block's unknowns
        frontier = list(eq_rows)
        while frontier:
            k, (exps, hp) = frontier.pop()
            for pair, key in sources(k, exps, hp):
                if sum(key[0]) > cap or key[1] > hmax or (pair, key) in images:
                    continue
                images[pair, key] = image(*pair, *key)
                for row_key in images[pair, key]:
                    if row_key not in eq_rows:
                        eq_rows[row_key] = {}
                        frontier.append(row_key)
        unknowns = sorted(images, key=column_order)
        for col, unknown in enumerate(unknowns):
            for row_key, c in images[unknown].items():
                eq_rows[row_key][col] = c
        keys = sorted(eq_rows)
        rows = [eq_rows[k] for k in keys]
        rhs = [vtilde[k].terms.get(tk, Fraction(0)) for (k, tk) in keys]
        sol = _solve_linear_fraction(rows, rhs, len(unknowns))
        if sol is None:
            continue
        terms: dict[tuple[int, int], dict] = {pair: {} for pair in pairs}
        for (pair, key), val in zip(unknowns, sol):
            if val:
                terms[pair][key] = val
        C = zero_matrix(space)
        for (j, k), t in terms.items():
            C[j][k] = Poly(space, t)
            C[k][j] = -C[j][k]
        if all(divergence(space, [C[j][k] for j in range(n)], semiclassical, g) == vtilde[k]
               for k in range(n)):
            return C
    return None


def construct(P: SecondOrderOperator, phi: Poly, psi: Poly) -> SusyVerdict:
    """Build a supersymmetric structure A = B + C for P with the given
    weights, or report why none was produced.

    Steps: decide both kernel conditions from the one conjugation
    P1 = e^{phi/h} P e^{-phi/h}, whose v0 is the forward residual and whose
    drift gives vtilde_k = P1.v_k - sum_j g_j B_jk and the adjoint residual
    r = -sum_k (D_k - g_k) vtilde_k; solve sum_j (D_j - g_j) C_jk = vtilde_k
    for the antisymmetric part (closed-form radial primitive when the
    combined weight is constant, exact linear algebra otherwise); re-verify
    the factorization identity exactly.
    """
    nec, g, vtilde = _kernel_conditions(P, phi, psi)
    if nec.status != "verified":
        return nec
    space = P.space
    n = space.n

    C: Optional[list[list[Poly]]]
    if all(gj.is_zero for gj in g):
        # unweighted: sum_j D_j C_jk = vtilde_k, so sum_j d_j C_jk = vtilde_k / h when D = h d
        rhs = vtilde
        try:
            if P.semiclassical:
                rhs = [p.h_shift(-1) for p in vtilde]
            C = homotopy_inverse_delta(space, rhs)
        except (PolyError, ExtCalcError):
            return SusyVerdict("construction_failed",
                               failure_witness=next(p for p in rhs if not p.is_zero))
    else:
        C = _weighted_divergence_solve(space, g, vtilde, P.semiclassical)
        if C is None:
            return SusyVerdict("construction_failed",
                               failure_witness=next((p for p in vtilde if not p.is_zero),
                                                    Poly.zero(space)))

    s = SusyStructure([[P.B[j][k] + C[j][k] for k in range(n)] for j in range(n)], phi, psi)
    verdict = verify_structure(P, s)
    if verdict.status != "verified":
        return SusyVerdict("construction_failed", failure_witness=verdict.failure_witness)
    return SusyVerdict("constructed", structure=s)


def verify_structure(P: SecondOrderOperator, s: SusyStructure) -> SusyVerdict:
    """Exact check of the factorization identity for a candidate structure;
    the witness of a failure is the first nonzero coefficient of P - Q, for
    the assembled Q, in the order B, v, v0.  Entries are compared with !=,
    which is polynomial identity; only the witness is subtracted."""
    Q = assemble_factorization(s.A, s.phi, s.psi, P.semiclassical)
    pairs = zip([*chain(*P.B), *P.v, P.v0], [*chain(*Q.B), *Q.v, Q.v0])
    diff = next((p - q for p, q in pairs if p != q), None)
    if diff is None:
        return SusyVerdict("verified", structure=s)
    return SusyVerdict("necessary_condition_failed", failure_witness=diff)


def verify_reference_structures() -> list[dict]:
    """Check every bundled model that ships a reference structure: the
    assembled factorization must reproduce the model's conjugated operator
    exactly.  Returns one record per model."""
    from . import models

    report = []
    for name, bundle in models.reference_bundles().items():
        rec: dict = {"model": name}
        if bundle.reference_susy is None:
            rec["status"] = "no_reference_structure"
        else:
            verdict = verify_structure(bundle.conjugated, bundle.reference_susy)
            rec["status"] = "ok" if verdict.status == "verified" else "mismatch"
            if verdict.status != "verified":
                rec["difference"] = repr(verdict.failure_witness)
        report.append(rec)
    return report
