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

from typing import Sequence

import numpy as np

from .polyalg import Poly


class SpectralError(ValueError):
    pass


# ------------------------------------------------------------ root finding

ROOT_TOL = 1e-12  # residual |p| accepted, relative to max(1, |x|)


def real_roots(p: Poly, var: str) -> list[float]:
    """Real roots of a polynomial p in `var` alone, sorted: the real
    eigenvalues of its companion matrix, each polished by up to 5 Newton
    steps and kept where |p| < ROOT_TOL max(1, |x|); roots within 1e-9 of
    the one before are merged."""
    i = p.space.index(var)

    def floats(q: Poly) -> list[tuple[float, int]]:
        return [(float(c), exps[i]) for (exps, _), c in q.terms.items()]

    def value(data: list[tuple[float, int]], x: float) -> float:
        return sum(c * x ** e for c, e in data)

    f, fp = floats(p), floats(p.partial(var))
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
    out.sort()
    dedup: list[float] = []
    for x in out:
        if not dedup or abs(x - dedup[-1]) > 1e-9:
            dedup.append(x)
    return dedup


# ----------------------------------------------------------- linearization

def eigenvector(lam: complex) -> np.ndarray:
    """The eigenvector (1, lambda, 1/(1-lambda)) of N for n = 1 and a root
    lambda of the cubic, coordinate order (x, y, z)."""
    return np.array([1.0, lam, 1.0 / (1.0 - lam)])


def cubic_roots(w: float) -> list[complex]:
    """The three roots of lambda^3 - lambda^2 + (1+w) lambda - w, polished by
    one Newton step each and sorted by (real part, imaginary part)."""
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
    """The unique critical point m > 1 of F on (1, inf) (where G(m) = 0) and
    the value F(m) < 0; bisection bracketing followed by Newton."""
    a, b = 1.0 + 1e-9, 4.0
    if not (G(a) > 0 > G(b)):
        raise SpectralError("bisection bracket lost")
    for _ in range(60):
        mid = 0.5 * (a + b)
        if G(mid) > 0:
            a = mid
        else:
            b = mid
    m = 0.5 * (a + b)
    for _ in range(10):
        g = G(m)
        gp = -2.0 * (1.0 - m) ** 2 + 4.0 * m * (1.0 - m)
        if gp == 0:
            break
        m -= g / gp
    return m, F(m)


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
