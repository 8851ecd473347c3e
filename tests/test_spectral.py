"""Linearization spectra: the cubic eigenvalue equation and its critical point."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyfact.spectral import (F, F_critical_point, G, classify_roots, cubic_roots, real_roots,
                               w_grid_report)

from conftest import linearization_N


def cubic_residual(w: float) -> float:
    return max(abs(z ** 3 - z ** 2 + (1 + w) * z - w) for z in cubic_roots(w))


# ----------------------------------------------------------------- the cubic

@given(st.floats(-10.0, 10.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_cubic_roots_properties(w):
    roots = cubic_roots(w)
    assert len(roots) == 3
    assert cubic_residual(w) < 1e-10
    s = sum(roots)
    assert abs(s - 1.0) < 1e-10


def test_root_classification_matches_sign_of_w():
    for w in (0.1, 1.0, 2.0, 10.0):
        assert classify_roots(w) == "all_re_positive"
    assert classify_roots(0.0) == "one_zero"
    for w in (-0.1, -1.0, -10.0):
        assert classify_roots(w) == "one_negative"
    # the band |w| <= 1e-10 is one_zero; just past it the sign decides
    for w in (1e-11, -1e-11, 1e-10, -1e-10):
        assert classify_roots(w) == "one_zero"
    for w in (math.nextafter(1e-10, 1), 1e-9):
        assert classify_roots(w) == "all_re_positive"
    for w in (math.nextafter(-1e-10, -1), -1e-9):
        assert classify_roots(w) == "one_negative"
    # and the class agrees with the real parts of the computed roots
    for w in (math.nextafter(1e-10, 1), 1e-9, 0.1, 10.0):
        assert all(z.real > 0 for z in cubic_roots(w))
    for w in (math.nextafter(-1e-10, -1), -1e-9, -0.1, -10.0):
        assert sum(z.real < 0 for z in cubic_roots(w)) == 1
        assert min(abs(z.real) for z in cubic_roots(w)) > 0


def test_mu1_at_double_well_saddle():
    # w = W''(s0) = -1: the unique negative real part
    roots = cubic_roots(-1.0)
    mu1 = -min(z.real for z in roots)
    assert abs(mu1 - 0.7548776662466928) < 1e-12


def test_roots_sorted_deterministically():
    r1 = cubic_roots(2.0)
    r2 = cubic_roots(2.0)
    assert r1 == r2
    assert r1 == sorted(r1, key=lambda z: (z.real, z.imag))


# ----------------------------------------------------------- F, G, m

def test_F_critical_point_values():
    m, Fm = F_critical_point()
    assert abs(m - 1.5652) < 1e-3          # quoted location
    assert abs(m - 1.5651977173836393) < 1e-10
    assert Fm < 0
    assert abs(Fm - (-5.219136248741586)) < 1e-9
    assert abs(G(m)) < 1e-12


def test_F_critical_point_pinned():
    # the floats `spectral` reports, bit for bit, as plain Python floats
    m, Fm = F_critical_point()
    assert type(m) is float and type(Fm) is float
    assert m.hex() == "0x1.90b0cc2fefc3dp+0"
    assert Fm.hex() == "-0x1.4e06540b6da5ap+2"


def test_F_and_G_relation():
    # G is the numerator of -F' up to the positive factor (1 - lam)^2
    for lam in (1.2, 1.8, 2.5):
        eps = 1e-7
        deriv = (F(lam + eps) - F(lam - eps)).real / (2 * eps)
        assert abs(deriv * (1 - lam) ** 2 - G(lam)) < 1e-5


# ------------------------------------------------------------ scalar spectra

def test_real_roots_of_double_well_gradient():
    # critical points of the double well: roots of W' = x^3 - x
    roots = real_roots([0, -1, 0, 1])
    assert len(roots) == 3
    assert max(abs(a - b) for a, b in zip(roots, (-1.0, 0.0, 1.0))) < 1e-10


def test_real_roots_merges_a_double_root():
    # x (x - 1)^2 and x (x^2 - 1)^2: each double root is found once, from
    # the companion matrix of p / gcd(p, p')
    assert real_roots([0, 1, -2, 1]) == [0.0, 1.0]
    assert real_roots([0, 1, 0, -2, 0, 1]) == [-1.0, 0.0, 1.0]


# ------------------------------------------------------------ linearization

def test_linearization_block_structure():
    H = np.array([[2.0]])
    N = linearization_N(H)
    expect = np.array([[0.0, 1.0, 0.0],
                       [-3.0, 0.0, 1.0],
                       [-1.0, 0.0, 1.0]])
    assert np.allclose(N, expect)
    lam = np.linalg.eigvals(N)
    triple = cubic_roots(2.0)
    assert np.allclose(sorted(lam, key=lambda z: (z.real, z.imag)), triple,
                       atol=1e-8)


def test_critical_point_classes_and_eigvec_structure():
    # the saddle w = -1 and a minimum w = 2 of a double-well Hessian
    assert classify_roots(-1.0) == "one_negative"
    assert abs(-min(z.real for z in cubic_roots(-1.0)) - 0.7548776662466928) < 1e-10
    assert classify_roots(2.0) == "all_re_positive"
    # every eigenvector of N is (x, lambda x, x / (1 - lambda)) with H x = F(lambda) x
    for H in (np.array([[-1.0]]), np.array([[2.0]]), np.array([[2.0, 0.5], [0.5, -1.0]])):
        n = H.shape[0]
        vals, vecs = np.linalg.eig(linearization_N(H).astype(complex))
        for lam, vec in zip(vals, vecs.T):
            x, y, z = vec[:n], vec[n:2 * n], vec[2 * n:]
            nx = np.linalg.norm(x)
            assert nx > 1e-12
            assert np.linalg.norm(y - lam * x) / nx < 1e-8
            assert np.linalg.norm(z - x / (1.0 - lam)) / nx < 1e-8
            assert np.linalg.norm(H @ x - F(lam) * x) / nx < 1e-8


def test_w_grid_report():
    rows = w_grid_report(np.linspace(-10.0, 10.0, 41))
    assert len(rows) == 41
    for r in rows:
        w = r["w"]
        cls = ("one_zero" if w == 0.0
               else "all_re_positive" if w > 0 else "one_negative")
        assert r["class"] == cls
        assert abs(sum(a for a, _ in r["roots"]) - 1.0) < 1e-10
