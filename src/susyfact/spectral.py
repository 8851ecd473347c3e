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

def real_roots_univariate(W: Poly, var: str, tol: float = 1e-12) -> list[float]:
    """Real roots of dW/dvar = 0 for a polynomial depending on `var` only,
    via the companion matrix with one Newton polish per root."""
    dW = W.partial(var)
    others = [v for v in W.space.names if v != var]
    if dW.involves(others):
        raise SpectralError("potential is not separable in the requested variable")
    i = W.space.index(var)
    deg = max((exps[i] for (exps, _) in dW.terms), default=0)
    if deg == 0:
        raise SpectralError("derivative is constant; no isolated critical points")
    coeffs = np.zeros(deg + 1)
    for (exps, hpow), c in dW.terms.items():
        if hpow:
            raise SpectralError("potential must be h-free")
        coeffs[deg - exps[i]] = float(c)
    roots = np.roots(coeffs)
    dd = dW.partial(var)
    fd = _poly1d_callable(dW, var)
    fdd = _poly1d_callable(dd, var)
    out = []
    for r in roots:
        if abs(r.imag) > 1e-8:
            continue
        x = r.real
        for _ in range(5):
            d = fdd(x)
            if d == 0:
                break
            x -= fd(x) / d
        if abs(fd(x)) < tol * max(1.0, abs(x)):
            out.append(x)
    out.sort()
    # merge numerically duplicate roots
    dedup: list[float] = []
    for x in out:
        if not dedup or abs(x - dedup[-1]) > 1e-9:
            dedup.append(x)
    return dedup


def _poly1d_callable(p: Poly, var: str):
    i = p.space.index(var)
    data = [(float(c), exps[i]) for (exps, _), c in p.terms.items()]

    def f(x: float) -> float:
        return sum(c * x ** e for c, e in data)

    return f


def critical_points(W0: Poly, xvars: Sequence[str]) -> list[tuple[float, ...]]:
    """All critical points of a separable potential W0 = sum_i w_i(x_i):
    the cartesian product of the per-coordinate root sets."""
    axes = [real_roots_univariate(W0, v) for v in xvars]
    pts: list[tuple[float, ...]] = [()]
    for axis in axes:
        pts = [p + (r,) for p in pts for r in axis]
    return pts


# ----------------------------------------------------------- linearization

def linearization_N(w_block_hessian: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """The 3n x 3n Jacobian of the drift at a stationary point, gamma = 1,
    coordinate order (x, y, z)."""
    if abs(gamma - 1.0) > 0:
        raise SpectralError("the linearization is implemented for gamma = 1 only")
    H = np.atleast_2d(np.asarray(w_block_hessian, dtype=float))
    n = H.shape[0]
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye, zero],
                     [-H - eye, zero, eye],
                     [-eye, zero, eye]])


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


def classify_roots(w: float, tol: float = 1e-10) -> str:
    """all_re_positive | one_zero | one_negative, from the root real parts."""
    roots = cubic_roots(w)
    res = [z.real for z in roots]
    if any(abs(r) <= tol for r in res):
        return "one_zero"
    neg = sum(1 for r in res if r < -tol)
    if neg == 0:
        return "all_re_positive"
    if neg == 1:
        return "one_negative"
    raise SpectralError(f"unexpected root pattern for w={w}: {roots}")


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
