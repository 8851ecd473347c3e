"""The radial primitive of a divergence-free polynomial vector field.

For a field v on R^n with sum_k d_k v_k = 0, split v into parts v^(d) that
are homogeneous of degree d in x (h powers ride along).  By

    sum_j d_j (x_j v_k^(d) - x_k v_j^(d)) = (n + d - 1) v_k^(d) - x_k div v^(d)

the antisymmetric matrix

    C_jk = sum_d (x_j v_k^(d) - x_k v_j^(d)) / (n + d - 1)

solves sum_j d_j C_jk = v_k exactly.  Each pair is built once: C_jk for
j < k as radial(j, k) - radial(k, j), with radial(j, k) = sum_d
x_j v_k^(d) / (n + d - 1), and C_kj = -C_jk.  The diagonal is zero, and so
is C_jk wherever v_j = v_k = 0, which is not computed.  The returned matrix
is re-verified against the identity before it leaves the function.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .opcore import divergence, zero_matrix
from .polyalg import Poly, VarSpace


class ExtCalcError(ValueError):
    pass


def homotopy_inverse_delta(space: VarSpace, v: Sequence[Poly]) -> list[list[Poly]]:
    """Given a divergence-free field v over `space`, return an antisymmetric
    matrix C with sum_j d_j C_jk = v_k for every k (exactly).

    Raises if div v != 0, if n = 1 and v != 0 (no such C exists), or,
    defensively, if the construction fails its own residual check.
    """
    n = space.n
    div = divergence(space, v, False)
    if not div.is_zero:
        raise ExtCalcError(f"input is not divergence-free; div v = {div}")
    if n == 1 and not v[0].is_zero:
        raise ExtCalcError("nonzero divergence-free field cannot exist over R^1")

    def radial(j: int, k: int) -> Poly:
        # x_j v_k^(d) / (n + d - 1), summed over the homogeneous parts of v_k
        terms = {}
        for (exps, hpow), c in v[k].terms.items():
            raised = exps[:j] + (exps[j] + 1,) + exps[j + 1:]
            terms[(raised, hpow)] = c * Fraction(1, n + sum(exps) - 1)
        return Poly(space, terms)

    C = zero_matrix(space)
    for j in range(n):
        for k in range(j + 1, n):
            if not (v[j].is_zero and v[k].is_zero):
                C[j][k] = radial(j, k) - radial(k, j)
                C[k][j] = -C[j][k]
    for k in range(n):
        if divergence(space, [C[j][k] for j in range(n)], False) != v[k]:
            raise ExtCalcError("radial primitive failed its residual check")
    return C
