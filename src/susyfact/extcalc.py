"""Multivector fields on R^n with polynomial coefficients.

A multivector field is stored degree by degree as a map from strictly
increasing index tuples to polynomials.  The codifferential

    delta = -sum_j d/dx_j ∘ dx_j_|

acts with exact rational coefficients.  Exactness of the delta-complex in
degree 1 is made effective by the radial primitive in closed form: a
divergence-free vector field v splits into parts v^(d) homogeneous of degree d
in x, and by

    sum_j d/dx_j (x_j v_k^(d) - x_k v_j^(d)) = (n + d - 1) v_k^(d) - x_k div v^(d)

the 2-vector with components 2 (x_j v_k^(d) - x_k v_j^(d)) / (n + d - 1),
summed over d, has delta = -2 v.  The returned primitive is re-verified
against that identity before it leaves the function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .polyalg import Poly, PolyError, VarSpace


class ExtCalcError(ValueError):
    pass


def _check_increasing(idx: tuple[int, ...], n: int):
    if any(i < 0 or i >= n for i in idx):
        raise ExtCalcError(f"index out of range in {idx}")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ExtCalcError(f"index tuple {idx} is not strictly increasing")


@dataclass(frozen=True)
class Section:
    """A degree-k section (form or multivector alike: the algebra is the same).

    coefficients: strictly increasing index tuple (length k) -> Poly.
    """

    space: VarSpace
    degree: int
    coefficients: Mapping[tuple[int, ...], Poly]

    def __post_init__(self):
        clean = {}
        for idx, p in self.coefficients.items():
            idx = tuple(idx)
            _check_increasing(idx, self.space.n)
            if len(idx) != self.degree:
                raise ExtCalcError("index tuple length does not match the degree")
            if p.space != self.space:
                raise PolyError("coefficient over a different variable space")
            if not p.is_zero:
                clean[idx] = p
        object.__setattr__(self, "coefficients", clean)

    # ----------------------------------------------------------- vector space
    @staticmethod
    def zero(space: VarSpace, degree: int) -> "Section":
        return Section(space, degree, {})

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def __add__(self, other: "Section") -> "Section":
        if self.space != other.space or self.degree != other.degree:
            raise ExtCalcError("cannot add sections of different type")
        out = dict(self.coefficients)
        for idx, p in other.coefficients.items():
            out[idx] = out.get(idx, Poly.zero(self.space)) + p
        return Section(self.space, self.degree, out)

    def __neg__(self) -> "Section":
        return Section(self.space, self.degree, {i: -p for i, p in self.coefficients.items()})

    def __sub__(self, other: "Section") -> "Section":
        return self + (-other)

    def scale(self, c) -> "Section":
        return Section(self.space, self.degree, {i: p * c for i, p in self.coefficients.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, Section) and self.space == other.space
                and self.degree == other.degree and self.coefficients == other.coefficients)

    def get(self, idx: tuple[int, ...]) -> Poly:
        return self.coefficients.get(tuple(idx), Poly.zero(self.space))

    def __repr__(self):
        if self.is_zero:
            return f"Section(deg={self.degree}, 0)"
        parts = [f"[{','.join(map(str, i))}]: {p}" for i, p in sorted(self.coefficients.items())]
        return f"Section(deg={self.degree}, " + "; ".join(parts) + ")"


MultiVector = Section


def contract(j: int, idx: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Sign and tuple for e_j _| e_idx (interior product); None if j absent."""
    if j not in idx:
        return None
    pos = idx.index(j)
    return (-1) ** pos, idx[:pos] + idx[pos + 1:]


def delta(X: MultiVector) -> MultiVector:
    """The divergence-type codifferential: delta = -sum_j d/dx_j ∘ dx_j_| ."""
    if X.degree < 1:
        raise ExtCalcError("delta is defined on degree >= 1")
    space = X.space
    out: dict[tuple[int, ...], Poly] = {}
    for idx, p in X.coefficients.items():
        for j, name in enumerate(space.names):
            c = contract(j, idx)
            if c is None:
                continue
            sign, new = c
            dp = p.partial(name)
            if dp.is_zero:
                continue
            out[new] = out.get(new, Poly.zero(space)) - dp * sign
    return Section(space, X.degree - 1, out)


def homotopy_inverse_delta(v: MultiVector) -> MultiVector:
    """Given a divergence-free 1-vector field v, return a 2-vector Gamma with

        delta(Gamma) = -2 v      (exactly).

    Raises if delta(v) != 0 (the residual is attached to the exception) or,
    defensively, if the construction fails its own residual check.
    """
    if v.degree != 1:
        raise ExtCalcError("expected a 1-vector field")
    space = v.space
    n = space.n
    res = delta(v)
    if not res.is_zero:
        raise ExtCalcError(f"input is not divergence-free; delta(v) = {res.get(())}")
    if v.is_zero:
        return Section.zero(space, 2)
    if n == 1:
        # the only divergence-free field in one variable is constant 0
        raise ExtCalcError("nonzero divergence-free field cannot exist over R^1")

    def radial(j: int, k: int) -> Poly:
        # 2 x_j v_k^(d) / (n + d - 1), summed over the homogeneous parts of v_k
        terms = {}
        for (exps, hpow), c in v.get((k,)).terms.items():
            raised = exps[:j] + (exps[j] + 1,) + exps[j + 1:]
            terms[(raised, hpow)] = c * Fraction(2, n + sum(exps) - 1)
        return Poly(space, terms)

    gamma = Section(space, 2, {(j, k): radial(j, k) - radial(k, j)
                               for j in range(n) for k in range(j + 1, n)})
    if not (delta(gamma) + v.scale(2)).is_zero:
        raise ExtCalcError("radial primitive failed its residual check")
    return gamma


def antisym_matrix_from_2vector(G: MultiVector) -> dict[tuple[int, int], Poly]:
    """Full antisymmetric matrix C with Gamma = sum_{j<k} G_{jk} d_j ^ d_k
    written as sum_{j,k} C_{jk} d_j ^ d_k over all pairs: C_{jk} = G_{jk}/2
    for j<k, C_{kj} = -C_{jk}."""
    if G.degree != 2:
        raise ExtCalcError("expected a 2-vector")
    out: dict[tuple[int, int], Poly] = {}
    for (j, k), p in G.coefficients.items():
        half = p * Fraction(1, 2)
        out[(j, k)] = half
        out[(k, j)] = -half
    return out
