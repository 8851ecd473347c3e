"""Second-order real differential operators in divergence normal form.

An operator is the triple (B, v, v0) representing

    P = - sum_{j,k} D_j ∘ B_{jk} ∘ D_k + sum_j v_j D_j + v0,

where D_j = h d/dx_j in the semiclassical convention and D_j = d/dx_j in the
non-semiclassical one (the `semiclassical` flag records which).  B is exactly
symmetric and every coefficient is a rational polynomial, possibly carrying a
finite h-expansion.

The calculus lives in two module functions: `D(f, j, semiclassical)` is
D_j f, and `divergence(space, X, semiclassical, g)` is the weighted
divergence sum_j (D_j - g_j) X_j (sum_j D_j X_j without g).  The operator
methods below, `susy` and `models` are built on them.

All the structural manipulations used downstream live here: application to a
polynomial, the formal Lebesgue-L2 adjoint, conjugation by exponential
weights e^{s phi/h} (which keeps the normal form polynomial), the kernel test
P(e^{-phi/h}) = 0 as an exact h-graded identity, leading semiclassical
symbols, and the eikonal residual; `models.hamiltonian_p` and
`obstruction.full_residual` take the chain's Hamiltonian and psi-equation
from the last two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .polyalg import Poly, PolyError, VarSpace


class OperatorError(ValueError):
    pass


def D(f: Poly, j: int, semiclassical: bool) -> Poly:
    """D_j f: h d_j f in the semiclassical calculus, d_j f otherwise."""
    df = f.partial(f.space.names[j])
    return df.h_shift(1) if semiclassical else df


def divergence(space: VarSpace, X: Sequence[Poly], semiclassical: bool,
               g: Sequence[Poly] | None = None) -> Poly:
    """The weighted divergence sum_j (D_j - g_j) X_j, or sum_j D_j X_j when g
    is None; zero components are skipped, and h multiplies the sum of the
    partials once."""
    nonzero = [(j, Xj) for j, Xj in enumerate(X) if not Xj.is_zero]
    out = sum((Xj.partial(space.names[j]) for j, Xj in nonzero), Poly.zero(space))
    if semiclassical:
        out = out.h_shift(1)
    if g is not None:
        for j, Xj in nonzero:
            out = out - g[j] * Xj
    return out


@dataclass(frozen=True)
class SecondOrderOperator:
    space: VarSpace
    B: tuple[tuple[Poly, ...], ...]
    v: tuple[Poly, ...]
    v0: Poly
    semiclassical: bool = True

    def __post_init__(self):
        n = self.space.n
        B = tuple(tuple(row) for row in self.B)
        if len(B) != n or any(len(row) != n for row in B):
            raise OperatorError("B must be an n x n matrix over the variable space")
        if len(self.v) != n:
            raise OperatorError("v must have one entry per variable")
        for row in B:
            for p in row:
                if p.space != self.space:
                    raise PolyError("B entry over a different variable space")
        for j in range(n):
            for k in range(j + 1, n):
                if B[j][k] != B[k][j]:
                    raise OperatorError(f"B is not symmetric at entry ({j},{k})")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "v", tuple(self.v))

    # ---------------------------------------------------------------- apply
    def apply(self, f: Poly) -> Poly:
        if f.space != self.space:
            raise PolyError("operand lives over a different variable space")
        n = self.space.n
        grad = [D(f, k, self.semiclassical) for k in range(n)]
        flux = [sum((self.B[j][k] * grad[k] for k in range(n)), Poly.zero(self.space))
                for j in range(n)]
        out = self.v0 * f
        for j in range(n):
            out = out + self.v[j] * grad[j]
        return out - divergence(self.space, flux, self.semiclassical)

    # -------------------------------------------------------------- adjoint
    def adjoint(self) -> "SecondOrderOperator":
        """Formal adjoint with respect to the Lebesgue L2 pairing."""
        return SecondOrderOperator(self.space, self.B, tuple(-vj for vj in self.v),
                                   self.v0 - divergence(self.space, self.v, self.semiclassical),
                                   self.semiclassical)

    # --------------------------------------------------------- conjugation
    def exp_conjugate(self, phi: Poly, sign: int = 1) -> "SecondOrderOperator":
        """Return e^{s phi/h} ∘ P ∘ e^{-s phi/h} in normal form (s = sign).

        Built from the identity e^{s phi/h} D_j e^{-s phi/h} = D_j - s d_j phi,
        so every coefficient stays polynomial in x and h: with g = s d phi and
        w = B g (zero entries of B skipped), v becomes v + 2w and v0 becomes
        v0 - sum_j v_j g_j + sum_j (D_j - g_j) w_j.
        """
        if sign not in (1, -1):
            raise OperatorError("sign must be +1 or -1")
        if phi.space != self.space:
            raise PolyError("weight lives over a different variable space")
        n = self.space.n
        zero = Poly.zero(self.space)
        g = [phi.partial(name) * sign for name in self.space.names]
        B = self.B
        w = [sum((B[j][k] * g[k] for k in range(n) if not B[j][k].is_zero), zero)
             for j in range(n)]
        v_new = [self.v[j] + 2 * w[j] for j in range(n)]
        v0_new = (self.v0 - sum((self.v[j] * g[j] for j in range(n)), zero)
                  + divergence(self.space, w, self.semiclassical, g))
        return SecondOrderOperator(self.space, B, tuple(v_new), v0_new, self.semiclassical)

    # ---------------------------------------------------------- kernel test
    def kernel_test(self, phi: Poly) -> "KernelTestReport":
        """Exact residual r with P(e^{-phi/h}) = r e^{-phi/h}; r is the zero-
        order coefficient of the conjugated operator."""
        r = self.exp_conjugate(phi, +1).v0
        if r.is_zero:
            return KernelTestReport(r, True, None)
        return KernelTestReport(r, False, min(h for (_, h) in r.terms))

    # -------------------------------------------------------------- symbols
    def _leading(self, target: VarSpace, xi: Sequence[Poly]) -> tuple[Poly, Poly, Poly]:
        """(sum B0_{jk} xi_j xi_k, sum v0_j xi_j, v00) over `target`, from the
        h^0 parts of the coefficients."""
        lead = lambda p: p.h0().lift(target)
        quad = lin = Poly.zero(target)
        for j, xj in enumerate(xi):
            lin = lin + lead(self.v[j]) * xj
            for k, xk in enumerate(xi):
                quad = quad + lead(self.B[j][k]) * xj * xk
        return quad, lin, lead(self.v0)

    def symbols(self) -> tuple[Poly, Poly, Poly, VarSpace]:
        """Leading semiclassical symbols.

        Returns (p_re, p_im, q, phase_space) over the doubled variable space
        (x, x') where x'_j is dual to x_j:

            p(x, xi) = sum B0_{jk} xi_j xi_k + i sum v0_j xi_j + v00,
            q(x, Xi) = -p(x, i Xi) = sum B0 Xi Xi + sum v0 Xi - v00,

        using the h^0 parts of the coefficients.  q is real by construction.
        """
        phase = self.space.with_duals()
        quad, lin, c0 = self._leading(phase, [Poly.var(phase, name + "'")
                                              for name in self.space.names])
        return quad + c0, lin, quad + lin - c0, phase

    # ------------------------------------------------------------- eikonal
    def eikonal_residual(self, phi0: Poly) -> Poly:
        """Residual sum B0 d phi0 d phi0 + sum v0 d phi0 - v00 of the eikonal
        equation for the h-free leading weight phi0: the symbol q at
        Xi = d phi0.  The adjoint form -sum B0 d psi0 d psi0 + sum v0 d psi0
        + v00 is exactly -eikonal_residual(-psi0)."""
        if not phi0.is_h_free():
            raise OperatorError("eikonal weight must be h-free")
        quad, lin, c0 = self._leading(self.space, [phi0.partial(name)
                                                   for name in self.space.names])
        return quad + lin - c0

    # -------------------------------------------------------- serialization
    def to_json_dict(self) -> dict:
        d = self.space.to_json_dict()
        return {
            "variables": d["variables"],
            "blocks": d["blocks"],
            "semiclassical": self.semiclassical,
            "B": [{"i": j, "j": k, "poly": self.B[j][k].to_literal()}
                  for j in range(self.space.n) for k in range(j, self.space.n)
                  if not self.B[j][k].is_zero],
            "v": [{"i": j, "poly": self.v[j].to_literal()}
                  for j in range(self.space.n) if not self.v[j].is_zero],
            "v0": self.v0.to_literal(),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "SecondOrderOperator":
        """Read a spec written by `to_json_dict`.  Entries of B at the same
        position add up; a spec that is not a JSON object, `variables` that
        are not a JSON list of names, a `B` or `v` that is not a list of
        objects, an index that is not a JSON integer naming a variable, a
        second v entry for one variable and a `semiclassical` that is not a
        JSON boolean are refused."""
        if type(data) is not dict:
            raise OperatorError("an operator spec is a JSON object")
        for key in ("B", "v"):
            items = data.get(key, [])
            if type(items) is not list or any(type(t) is not dict for t in items):
                raise OperatorError(f"{key} = {items!r} is not a JSON list of objects")
        names = data["variables"]
        if type(names) is not list or any(type(name) is not str for name in names):
            raise OperatorError(f"variables = {names!r} is not a JSON list of names")
        space = VarSpace.from_json_dict(data)
        n = space.n

        def index(item: dict, key: str) -> int:
            i = item[key]
            if type(i) is not int or not 0 <= i < n:
                raise OperatorError(f"{key} = {i!r} is not the index of one of the {n} variables")
            return i

        B = zero_matrix(space)
        for item in data.get("B", []):
            j, k = index(item, "i"), index(item, "j")
            p = Poly.from_literal(space, item["poly"])
            B[j][k] = B[j][k] + p
            if j != k:
                B[k][j] = B[k][j] + p
        v: list[Poly | None] = [None] * n
        for item in data.get("v", []):
            i = index(item, "i")
            if v[i] is not None:
                raise OperatorError(f"v has two entries for i = {i}")
            v[i] = Poly.from_literal(space, item["poly"])
        v0 = Poly.from_literal(space, data.get("v0", []))
        semiclassical = data.get("semiclassical", True)
        if type(semiclassical) is not bool:
            raise OperatorError(f"semiclassical = {semiclassical!r} is not a JSON boolean")
        return SecondOrderOperator(space, tuple(tuple(r) for r in B),
                                   tuple(Poly.zero(space) if p is None else p for p in v),
                                   v0, semiclassical)


@dataclass(frozen=True)
class KernelTestReport:
    residual: Poly
    vanishes: bool
    leading_h_order: int | None


def zero_matrix(space: VarSpace) -> list[list[Poly]]:
    """The n x n zero matrix; its entries share one zero polynomial, which is
    immutable."""
    zero = Poly.zero(space)
    return [[zero] * space.n for _ in range(space.n)]


def identity_matrix(space: VarSpace, scale=1) -> list[list[Poly]]:
    M = zero_matrix(space)
    for j in range(space.n):
        M[j][j] = Poly.const(space, Fraction(scale))
    return M


def matrix_from_entries(space: VarSpace, entries: dict[tuple[int, int], Poly]) -> list[list[Poly]]:
    M = zero_matrix(space)
    for (j, k), p in entries.items():
        M[j][k] = M[j][k] + p
    return M


def laplacian(space: VarSpace, semiclassical: bool = True) -> SecondOrderOperator:
    """-h^2 Delta (or -Delta when semiclassical=False)."""
    return SecondOrderOperator(space, tuple(tuple(r) for r in identity_matrix(space)),
                               tuple(Poly.zero(space) for _ in range(space.n)),
                               Poly.zero(space), semiclassical)
