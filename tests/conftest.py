"""Shared hypothesis strategies for exact polynomial data."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st

from susyfact.flow import nu_iterates, point_case
from susyfact.models import ChainConfig, UnsupportedConfig, chain_phi0
from susyfact.opcore import SecondOrderOperator
from susyfact.polyalg import Poly, VarSpace

NAMES = ("x1", "x2", "x3", "x4")

# a failing example prints its @reproduce_failure line
settings.register_profile("susyfact", print_blob=True)
settings.load_profile("susyfact")

# for the properties that call sympy inside the test, and for the costly
# exact properties over random operators: a failing example is reported as
# drawn, because shrinking it takes from twenty seconds to minutes
NO_SHRINK_PHASES = tuple(p for p in Phase if p is not Phase.shrink)


@pytest.fixture(scope="session")
def space2() -> VarSpace:
    return VarSpace.make(NAMES[:2])


def spaces(max_n: int = 4):
    return st.integers(1, max_n).map(lambda n: VarSpace.make(NAMES[:n]))


def rationals(max_num: int = 9, max_den: int = 5):
    return st.builds(Fraction,
                     st.integers(-max_num, max_num),
                     st.integers(1, max_den))


def polys(space: VarSpace, max_deg: int = 3, max_hpow: int = 2,
          max_terms: int = 5):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(space.n)])
    keys = st.tuples(exps, st.integers(0, max_hpow))
    return st.dictionaries(keys, rationals(), max_size=max_terms).map(
        lambda d: Poly(space, d))


def poly_pairs(max_n: int = 4, **kw):
    return spaces(max_n).flatmap(
        lambda sp: st.tuples(polys(sp, **kw), polys(sp, **kw)))


def poly_triples(max_n: int = 4, **kw):
    return spaces(max_n).flatmap(
        lambda sp: st.tuples(polys(sp, **kw), polys(sp, **kw), polys(sp, **kw)))


def operators(max_n: int = 3, calculi=(True,), **kw):
    """Operators with symmetric B and random coefficients; the calculus is
    drawn from `calculi` (True: D = h d, False: D = d)."""
    def per_space(n):
        sp = VarSpace.make(NAMES[:n])
        upper = st.fixed_dictionaries({(j, k): polys(sp, **kw)
                                       for j in range(n) for k in range(j, n)})

        def build(parts):
            up, v, v0, semiclassical = parts
            B = [[None] * n for _ in range(n)]
            for (j, k), p in up.items():
                B[j][k] = p
                B[k][j] = p
            return SecondOrderOperator(sp, tuple(tuple(r) for r in B),
                                       tuple(v), v0, semiclassical)
        return st.tuples(upper, st.tuples(*[polys(sp, **kw)] * n),
                         polys(sp, **kw), st.sampled_from(calculi)).map(build)
    return st.integers(1, max_n).flatmap(per_space)


def as_sympy(p: Poly, sympy):
    """p as a sympy expression in symbols named after its variables and h."""
    xs = sympy.symbols(p.space.names)
    h = sympy.Symbol("h")
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator) * h ** hp
                       * sympy.Mul(*[x ** e for x, e in zip(xs, exps)])
                       for (exps, hp), c in p.terms.items()])


def linearization_N(w_block_hessian) -> np.ndarray:
    """The 3n x 3n Jacobian of the drift at a stationary point, gamma = 1,
    coordinate order (x, y, z): the oracle for `spectral.cubic_roots` and
    `spectral.eigenvector`."""
    H = np.atleast_2d(np.asarray(w_block_hessian, dtype=float))
    n = H.shape[0]
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye, zero],
                     [-H - eye, zero, eye],
                     [-eye, zero, eye]])


@dataclass(frozen=True)
class CascadeReport:
    point: tuple[float, ...]
    values: tuple[float, ...]  # nu^k(phi0) at the point, k = 1..5
    case: str  # generic | y_nonzero_degenerate | fully_degenerate


def cascade_check(cfg: ChainConfig, point: Sequence[float]) -> CascadeReport:
    """The derivative cascade nu^k(phi0), k = 1..5, built exactly and
    evaluated at a point, and the point's class: the oracle of the quintic
    probe's Delta at its first sample."""
    if cfg.gamma != 1:
        raise UnsupportedConfig("the cascade identities are implemented for gamma = 1")
    pt = {name: float(v) for name, v in zip(cfg.space.names, point)}
    values = tuple(p.evaluate(pt) for p in nu_iterates(cfg, chain_phi0(cfg), 5))
    return CascadeReport(tuple(float(v) for v in point), values, point_case(cfg, point))
