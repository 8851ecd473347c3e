"""Critical-point analysis of the chain drift field.

At a stationary point (x0, 0, x0) of the drift

    nu = gamma (z - x) d_z + y d_x - (d W0 + x - z) d_y

the linearization (gamma = 1) is the block matrix

    N = [[0, I, 0], [-W0'' - I, 0, I], [-I, 0, I]],

whose eigenvalues come in triples: for each Hessian eigenvalue w of W0''(x0)
the three roots of

    lambda^3 - lambda^2 + (1 + w) lambda - w = 0.

The roots sum to 1; their signs classify the stationary point: all real parts
positive when w > 0, one vanishing root when w = 0, exactly one negative real
root when w < 0 (the saddle case, with mu1 = -that root driving the
obstruction exponents).  The boundary between real and complex triples is
governed by F(lambda) = lambda/(1-lambda) - lambda^2, whose unique critical
point m > 1 solves G(lambda) = 1 - 2 lambda (1-lambda)^2 = 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .polyalg import Poly, VarSpace, parse_poly


# ------------------------------------------------------------ root finding

ROOT_TOL = 1e-12  # residual |p| accepted, relative to max(1, |x|)


def _divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of a by b, coefficient lists by ascending
    power whose last entry is not zero; the remainder's is not either."""
    a, q = a[:], [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for s in range(len(q) - 1, -1, -1):
        q[s] = a[s + len(b) - 1] / b[-1]
        for k, bk in enumerate(b):
            a[s + k] -= q[s] * bk
    del a[len(b) - 1:]
    while a and not a[-1]:
        a.pop()
    return q, a


def real_roots(p: Poly, var: str) -> list[float]:
    """Real roots of a polynomial p in `var` alone, sorted, each multiple
    root once.  f = p / gcd(p, p'), with the gcd from Euclid's algorithm
    over Q and f = p where the gcd is constant, has only simple roots; the
    real eigenvalues of its companion matrix are each polished by up to 5
    Newton steps on f and kept where |f| < ROOT_TOL max(1, |x|)."""
    i = p.space.index(var)
    terms = [(c, exps[i]) for (exps, _), c in p.terms.items()]
    a = [Fraction(0)] * (max((e for _, e in terms), default=0) + 1)
    for c, e in terms:
        a[e] += c
    g, b = a, [e * c for e, c in enumerate(a)][1:]
    while b:
        g, b = b, _divmod(g, b)[1]
    if len(g) > 1:
        terms = [(c, e) for e, c in enumerate(_divmod(a, g)[0]) if c]

    def value(data: list[tuple[float, int]], x: float) -> float:
        return sum(c * x ** e for c, e in data)

    f = [(float(c), e) for c, e in terms]
    fp = [(float(c * e), e - 1) for c, e in terms if e]
    deg = max((e for _, e in f), default=0)
    coeffs = np.zeros(deg + 1)
    for c, e in f:
        coeffs[deg - e] = c
    out = []
    for r in np.roots(coeffs):
        if abs(r.imag) > 1e-8:
            continue
        x = r.real
        for _ in range(5):
            d = value(fp, x)
            if d == 0:
                break
            x -= value(f, x) / d
        if abs(value(f, x)) < ROOT_TOL * max(1.0, abs(x)):
            out.append(x)
    return sorted(out)


# ----------------------------------------------------------- linearization

def eigenvector(lam: complex) -> np.ndarray:
    """The eigenvector (1, lambda, 1/(1-lambda)) of N for n = 1 and a root
    lambda of the cubic, coordinate order (x, y, z)."""
    return np.array([1.0, lam, 1.0 / (1.0 - lam)])


def cubic_roots(w: float) -> list[complex]:
    """The three roots of lambda^3 - lambda^2 + (1+w) lambda - w, polished by
    up to three Newton steps each and sorted by (real part, imaginary part)."""
    coeffs = [1.0, -1.0, 1.0 + w, -w]
    roots = np.roots(coeffs)

    def f(z):
        return ((z - 1.0) * z + (1.0 + w)) * z - w

    def fp(z):
        return (3.0 * z - 2.0) * z + (1.0 + w)

    polished = []
    for z in roots:
        for _ in range(3):
            d = fp(z)
            if d == 0:
                break
            z = z - f(z) / d
        polished.append(complex(z))
    polished.sort(key=lambda z: (z.real, z.imag))
    return polished


ZERO_BAND = 1e-10


def classify_roots(w: float) -> str:
    """all_re_positive | one_zero | one_negative, from the sign of w.  The
    roots sum to 1 and multiply to w.  For w > 0 every real part is
    positive by Routh-Hurwitz (with lambda = -mu the condition is
    1 * (1 + w) > w); for w < 0 exactly one root is negative and the other
    two have positive real parts.  The root nearest 0 is w + O(w^3), so
    |w| <= ZERO_BAND counts as one_zero."""
    if abs(w) <= ZERO_BAND:
        return "one_zero"
    return "all_re_positive" if w > 0 else "one_negative"


def F(lam: complex) -> complex:
    return lam / (1.0 - lam) - lam * lam


def G(lam: float) -> float:
    return 1.0 - 2.0 * lam * (1.0 - lam) ** 2


def F_critical_point() -> tuple[float, float]:
    """The unique critical point m > 1 of F, the one real root of
    G = 1 - 2 lambda + 4 lambda^2 - 2 lambda^3, and the value F(m) < 0."""
    (r,) = real_roots(parse_poly(VarSpace.make(["lam"]), "1 - 2*lam + 4*lam^2 - 2*lam^3"), "lam")
    m = float(r)
    return m, float(F(m))


# ---------------------------------------------------------------- reports

def w_grid_report(ws: Sequence[float]) -> list[dict]:
    """Root/classification rows over a grid of Hessian eigenvalues."""
    rows = []
    for w in ws:
        roots = cubic_roots(float(w))
        rows.append({"w": float(w),
                     "roots": [[z.real, z.imag] for z in roots],
                     "class": classify_roots(float(w))})
    return rows
