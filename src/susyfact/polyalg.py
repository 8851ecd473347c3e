"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial lives over a fixed variable space and is stored as a dictionary

    (exponent tuple, h power)  ->  Fraction

where the exponent tuple is aligned with the declared variable order and the
extra integer grades the semiclassical parameter.  The parameter is a grading,
not a variable: an identity that must hold "for every small h" is the
statement that every graded component vanishes, which is decidable exactly.

Coefficients are always reduced Fractions; floats appear only in `evaluate`.
Zero coefficients are never stored, so `p.terms == q.terms` is polynomial
identity.  All values are immutable after construction and every operation is
a pure function; so an operation with a zero operand may return an operand
itself (p + 0 is p, 0 * p is 0) instead of building an equal copy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

RationalLike = int | Fraction


class PolyError(ValueError):
    """Structural misuse: mismatched spaces, unknown variables, bad literals."""


@dataclass(frozen=True)
class VarSpace:
    """An ordered list of variable names partitioned into named blocks."""

    names: tuple[str, ...]
    blocks: tuple[tuple[str, tuple[str, ...]], ...]

    @staticmethod
    def make(names: Iterable[str], blocks: Mapping[str, Iterable[str]] | None = None) -> "VarSpace":
        names = tuple(names)
        if len(set(names)) != len(names):
            raise PolyError(f"duplicate variable names in {names}")
        if blocks is None:
            blocks = {"all": names}
        frozen = tuple((b, tuple(vs)) for b, vs in blocks.items())
        seen: list[str] = []
        for _, vs in frozen:
            seen.extend(vs)
        if sorted(seen) != sorted(names):
            raise PolyError("blocks must partition the variable list")
        return VarSpace(names, frozen)

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise PolyError(f"unknown variable {name!r} in space {self.names}") from None

    def block_vars(self, block: str) -> tuple[str, ...]:
        for b, vs in self.blocks:
            if b == block:
                return vs
        raise PolyError(f"unknown block {block!r}")

    def block_indices(self, block: str) -> tuple[int, ...]:
        return tuple(self.index(v) for v in self.block_vars(block))

    def with_duals(self, suffix: str = "'") -> "VarSpace":
        """Extend with one dual variable per variable (for symbol calculus)."""
        dual = tuple(n + suffix for n in self.names)
        blocks = {b: vs for b, vs in self.blocks}
        blocks.update({b + suffix: tuple(v + suffix for v in vs) for b, vs in self.blocks})
        return VarSpace.make(self.names + dual, blocks)

    def to_json_dict(self) -> dict:
        return {"variables": list(self.names), "blocks": {b: list(vs) for b, vs in self.blocks}}

    @staticmethod
    def from_json_dict(d: dict) -> "VarSpace":
        """Read `to_json_dict`'s form; `blocks`, when given, must be a JSON
        object of lists of variable names."""
        blocks = d.get("blocks")
        if blocks is not None and (type(blocks) is not dict or any(
                type(vs) is not list or any(type(v) is not str for v in vs)
                for vs in blocks.values())):
            raise PolyError(f"blocks = {blocks!r} is not a JSON object of lists of variable names")
        return VarSpace.make(d["variables"], blocks)


def _term_sort_key(key: tuple[tuple[int, ...], int]):
    exps, hpow = key
    return (hpow, sum(exps), exps)


class Poly:
    """Immutable sparse polynomial over a VarSpace with an h-grading."""

    __slots__ = ("space", "terms")

    def __init__(self, space: VarSpace, terms: Mapping[tuple[tuple[int, ...], int], RationalLike]):
        n = space.n
        cleaned: dict[tuple[tuple[int, ...], int], Fraction] = {}
        for (exps, hpow), c in terms.items():
            if len(exps) != n:
                raise PolyError("exponent tuple length does not match the variable space")
            if hpow < 0 or (n and min(exps) < 0):
                raise PolyError("negative exponents are not representable")
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                cleaned[(tuple(exps), hpow)] = c
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    # ---------------------------------------------------------------- basics
    @staticmethod
    def zero(space: VarSpace) -> "Poly":
        return Poly(space, {})

    @staticmethod
    def const(space: VarSpace, c: RationalLike) -> "Poly":
        return Poly(space, {((0,) * space.n, 0): Fraction(c)})

    @staticmethod
    def var(space: VarSpace, name: str, power: int = 1) -> "Poly":
        i = space.index(name)
        exps = tuple(power if j == i else 0 for j in range(space.n))
        return Poly(space, {(exps, 0): Fraction(1)})

    @staticmethod
    def h(space: VarSpace, power: int = 1) -> "Poly":
        return Poly(space, {((0,) * space.n, power): Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.space == other.space and self.terms == other.terms

    def __hash__(self):
        return hash((self.space, tuple(sorted(self.terms.items(), key=lambda kv: _term_sort_key(kv[0])))))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _term_sort_key(kv[0]))

    def __repr__(self):
        """Mini-grammar rendering; parse_poly(space, repr(p)) == p."""
        if self.is_zero:
            return "0"
        out = []
        for (exps, hpow), c in self.sorted_terms():
            factors = []
            a = abs(c)
            if a != 1 or (not any(exps) and hpow == 0):
                factors.append(str(a))
            if hpow:
                factors.append("h" if hpow == 1 else f"h^{hpow}")
            for name, e in zip(self.space.names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            term = "*".join(factors)
            if not out:
                out.append(term if c > 0 else "-" + term)
            else:
                out.append(("+ " if c > 0 else "- ") + term)
        return " ".join(out)

    # ------------------------------------------------------------ arithmetic
    def _require_same_space(self, other: "Poly"):
        if self.space is not other.space and self.space != other.space:
            raise PolyError("polynomials live over different variable spaces")

    def __add__(self, other: "Poly | RationalLike") -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(self.space, other)
        self._require_same_space(other)
        if not other.terms or not self.terms:
            return self if not other.terms else other
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return Poly(self.space, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        if not self.terms:
            return self
        return Poly(self.space, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Poly | RationalLike") -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(self.space, other)
        return self + (-other)

    def __rsub__(self, other: RationalLike) -> "Poly":
        return Poly.const(self.space, other) - self

    def __mul__(self, other: "Poly | RationalLike") -> "Poly":
        if not isinstance(other, Poly):
            c = Fraction(other)
            if not self.terms:
                return self
            return Poly(self.space, {k: v * c for k, v in self.terms.items()})
        self._require_same_space(other)
        if not self.terms or not other.terms:
            return self if not self.terms else other
        out: dict[tuple[tuple[int, ...], int], Fraction] = {}
        for (ea, ha), ca in self.terms.items():
            for (eb, hb), cb in other.terms.items():
                k = (tuple(x + y for x, y in zip(ea, eb)), ha + hb)
                c = ca * cb
                out[k] = out[k] + c if k in out else c
        return Poly(self.space, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise PolyError("negative powers are not polynomials")
        out = Poly.const(self.space, 1)
        for _ in range(k):
            out = out * self
        return out

    # ------------------------------------------------------------- calculus
    def partial(self, var: str) -> "Poly":
        i = self.space.index(var)
        if not self.terms:
            return self
        out: dict[tuple[tuple[int, ...], int], Fraction] = {}
        for (exps, hpow), c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            k = (tuple(x - 1 if j == i else x for j, x in enumerate(exps)), hpow)
            d = c * e
            out[k] = out[k] + d if k in out else d
        return Poly(self.space, out)

    def h_shift(self, k: int = 1) -> "Poly":
        """Multiply by h^k (k may be negative only if every term allows it)."""
        if not self.terms:
            return self
        out = {}
        for (exps, hpow), c in self.terms.items():
            if hpow + k < 0:
                raise PolyError("h-division would create a negative h power")
            out[(exps, hpow + k)] = c
        return Poly(self.space, out)

    # -------------------------------------------------------------- grading
    def homogeneous_components(self, block: str) -> dict[int, "Poly"]:
        idx = self.space.block_indices(block)
        buckets: dict[int, dict] = {}
        for key, c in self.terms.items():
            deg = sum(key[0][i] for i in idx)
            buckets.setdefault(deg, {})[key] = c
        return {d: Poly(self.space, t) for d, t in sorted(buckets.items())}

    def degree_in(self, names: Iterable[str]) -> int:
        idx = [self.space.index(v) for v in names]
        if self.is_zero:
            return 0
        return max(sum(exps[i] for i in idx) for (exps, _) in self.terms)

    def total_degree(self) -> int:
        return 0 if self.is_zero else max(sum(e) for (e, _) in self.terms)

    def h_components(self) -> dict[int, "Poly"]:
        buckets: dict[int, dict] = {}
        for (exps, hpow), c in self.terms.items():
            buckets.setdefault(hpow, {})[(exps, 0)] = c
        return {r: Poly(self.space, t) for r, t in sorted(buckets.items())}

    def h0(self) -> "Poly":
        return self.h_components().get(0, Poly.zero(self.space))

    def max_hpow(self) -> int:
        return 0 if self.is_zero else max(h for (_, h) in self.terms)

    def is_h_free(self) -> bool:
        return all(h == 0 for (_, h) in self.terms)

    def involves(self, names: Iterable[str]) -> bool:
        idx = [self.space.index(v) for v in names]
        return any(any(exps[i] for i in idx) for (exps, _) in self.terms)

    # --------------------------------------------------------- substitution
    def restrict_zero(self, names: Iterable[str]) -> "Poly":
        """Set the listed variables to zero."""
        idx = [self.space.index(v) for v in names]
        out = {k: c for k, c in self.terms.items() if not any(k[0][i] for i in idx)}
        return Poly(self.space, out)

    def lift(self, target: VarSpace) -> "Poly":
        """Re-embed into a larger space containing the same variable names."""
        pos = [target.index(v) for v in self.space.names]
        out = {}
        for (exps, hpow), c in self.terms.items():
            new = [0] * target.n
            for p, e in zip(pos, exps):
                new[p] = e
            out[(tuple(new), hpow)] = c
        return Poly(target, out)

    # ------------------------------------------------------------ numerics
    def evaluate(self, point: Mapping[str, float], h: float = 1.0) -> float:
        for name in self.space.names:
            if name not in point:
                raise PolyError(f"no value supplied for variable {name!r}")
        return self.compiled()([float(point[name]) for name in self.space.names], h)

    def compiled(self):
        """Return a fast callable state-vector -> float (variables in space order)."""
        data = [(float(c), hpow, [(i, e) for i, e in enumerate(exps) if e])
                for (exps, hpow), c in self.sorted_terms()]

        def f(vals, h=1.0):
            acc = 0.0
            for c, hpow, ve in data:
                t = c
                for i, e in ve:
                    t *= vals[i] ** e
                if hpow:
                    t *= h ** hpow
                acc += t
            return acc

        return f

    # -------------------------------------------------------- serialization
    def to_literal(self) -> list[dict]:
        out = []
        for (exps, hpow), c in self.sorted_terms():
            out.append({"coeff": f"{c.numerator}/{c.denominator}", "exps": list(exps), "hpow": hpow})
        return out

    @staticmethod
    def from_literal(space: VarSpace, data: list[dict]) -> "Poly":
        """Read the term list written by `to_literal`; a literal of any other
        JSON shape is refused."""
        if type(data) is not list or not all(
                type(t) is dict and type(t.get("exps")) is list and type(t.get("hpow", 0)) is int
                and all(type(e) is int for e in t["exps"]) for t in data):
            raise PolyError(f"{data!r} is not a JSON list of terms with integer exps and hpow")
        terms: dict[tuple[tuple[int, ...], int], Fraction] = {}
        for item in data:
            c = parse_rational(item["coeff"])
            key = (tuple(item["exps"]), item.get("hpow", 0))
            terms[key] = terms.get(key, Fraction(0)) + c
        return Poly(space, terms)


def parse_rational(text: str) -> Fraction:
    text = str(text).strip()
    if not re.fullmatch(r"[+-]?\d+(/\d+)?", text):
        raise PolyError(f"not a decimal-free rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise PolyError(f"zero denominator in {text!r}") from None


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*'?)(?:\^(?P<pow>\d+))?)\s*")


def parse_poly(space: VarSpace, text: str) -> Poly:
    """Parse the inline mini-grammar: sums of monomials with rational
    coefficients, e.g. ``1/4*x1^4 - 1/2*x1^2 + 3`` or ``h^2*y1*z1``.

    The token ``h`` denotes the semiclassical grading parameter.
    """
    text = text.strip()
    if not text or text == "0":
        return Poly.zero(space)
    # split into signed terms at top level (no parentheses in the grammar)
    terms = re.split(r"(?=[+-])", text.replace(" ", ""))
    total = Poly.zero(space)
    for raw in terms:
        if not raw:
            continue
        sign = 1
        while raw and raw[0] in "+-":
            if raw[0] == "-":
                sign = -sign
            raw = raw[1:]
        if not raw:
            raise PolyError(f"dangling sign in polynomial expression {text!r}")
        term = Poly.const(space, sign)
        for factor in raw.split("*"):
            m = _TOKEN.fullmatch(factor)
            if not m:
                raise PolyError(f"bad factor {factor!r} in polynomial expression {text!r}")
            if m.group("num") is not None:
                term = term * Fraction(m.group("num"))
            else:
                name = m.group("name")
                p = int(m.group("pow") or 1)
                if name == "h":
                    term = term * Poly.h(space, p)
                else:
                    term = term * Poly.var(space, name, p)
        total = total + term
    return total
