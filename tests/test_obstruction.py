"""The transport obstruction pipeline at unequal bath temperatures."""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.integrate import solve_ivp

from susyfact import flow
from susyfact import obstruction as ob
from susyfact.cli import canonical_json
from susyfact.flow import Segments, Trajectory, heteroclinic_gamma1, nu_apply
from susyfact.models import (ChainConfig, chain_phi0, chain_var, default_chain_config,
                             hamiltonian_p)
from susyfact.polyalg import Poly, parse_poly
from susyfact.spectral import eigenvector

from conftest import NO_SHRINK_PHASES, as_sympy, exact_value, linearization_N


@pytest.fixture(scope="module")
def cfg():
    return default_chain_config()


@pytest.fixture(scope="module")
def gamma1(cfg):
    return heteroclinic_gamma1(cfg)


@pytest.fixture(scope="module")
def report(cfg, gamma1):
    return ob.run_obstruction(cfg, gamma1=gamma1)


# -------------------------------------------------------------------- bumps

def test_bump_support_and_smoothness():
    b = ob.Bump(0.3, 0.7)
    assert b(0.2) == 0.0 and b(0.8) == 0.0
    assert b(0.5) > 0.0
    xs = np.linspace(0.0, 1.0, 200)
    vals = np.array([b(x) for x in xs])
    assert np.all(vals >= 0.0) and vals.max() > 0.0
    assert np.array_equal(b(xs), vals)


# -------------------------------------------------------- the psi equation

def test_rhs_full_and_residual_sign(cfg):
    sp = cfg.space
    expect = parse_poly(sp, "1/5*y1*x2^3 + 3/10*x1*x2^2*y2")
    assert ob.full_residual(cfg, Poly.zero(sp)) == -expect


def test_rhs_vanishes_at_equal_temperatures(cfg):
    eq = default_chain_config(equal_temperature=True)
    # psi = 2 deltaW / alpha1 solves the equation exactly
    psi = 2 * (1 / eq.alpha1) * eq.deltaW
    assert ob.full_residual(eq, psi).is_zero
    (m,) = eq.deltaW.homogeneous_components("w2")
    assert ob.graded_residual(eq, {m: psi}) == {}


def test_graded_residual_sums_to_full(cfg):
    sp = cfg.space
    psi = parse_poly(sp, "1/10*x1*x2^3 + x2^2 + y2*z2 - 1/3*x2*z2^2")
    comps = psi.homogeneous_components("w2")
    graded = ob.graded_residual(cfg, comps)
    total = Poly.zero(sp)
    for p in graded.values():
        total = total + p
    assert total == ob.full_residual(cfg, psi)


def test_graded_residual_riccati_step(cfg):
    # a lone degree-2 component: its degree-2 equation is the Riccati step
    # nu psi_2 + (gamma/2) alpha_2 (d_{z2} psi_2)^2, with no deltaW term below m
    sp = cfg.space
    psi2 = parse_poly(sp, "x2^2 - 1/3*y2*z2 + x1*z2^2")
    dz2 = psi2.partial("z2")
    riccati = nu_apply(cfg, psi2) + Fraction(cfg.gamma * cfg.alpha2, 2) * dz2 * dz2
    assert ob.graded_residual(cfg, {2: psi2})[2] == riccati
    with pytest.raises(ob.ObstructionError):
        ob.graded_residual(cfg, {2: parse_poly(sp, "x2^2 + x2")})


def test_eq17_reduction(cfg):
    sp = cfg.space
    reduced = ob.eq17_reduction(cfg)
    scale = Fraction(2, 1) / cfg.alpha2 - Fraction(2, 1) / cfg.alpha1
    expect = cfg.deltaW.partial("x2") * Poly.var(sp, "y2") * scale
    assert reduced == expect
    assert reduced == parse_poly(sp, "-3/10*x1*x2^2*y2")


# Chain configs for the sympy oracles: n = 1 and 2, gamma != 1, equal and
# unequal temperatures, deltaW zero and nonzero.
PSI_CONFIGS = {
    "n1-unequal": {"n": 1, "W1": "1/4*x1^4 - 1/2*x1^2 + 1/4", "W2": "1/2*x2^2",
                   "deltaW": "1/10*x1*x2^3", "alpha1": "1", "alpha2": "2", "gamma": "2"},
    "n1-equal": {"n": 1, "W1": "1/3*x1^4 - x1^2", "W2": "3/2*x2^2",
                 "deltaW": "1/10*x1*x2^3 - 1/7*x1^2*x2", "alpha1": "3/2", "alpha2": "3/2",
                 "gamma": "3/2"},
    "n1-decoupled": {"n": 1, "W1": "x1^4 - 2*x1^2", "W2": "1/2*x2^2", "deltaW": "0",
                     "alpha1": "1", "alpha2": "3", "gamma": "2"},
    "n2-unequal": {"n": 2, "W1": "1/4*x1_1^4 - 1/2*x1_1^2 + x1_1*x1_2 + 1/2*x1_2^2",
                   "W2": "1/2*x2_1^2 + 1/3*x2_1*x2_2 + x2_2^2",
                   "deltaW": "1/10*x1_1*x2_1^3 + 1/5*x1_2*x2_1*x2_2",
                   "alpha1": "1", "alpha2": "5/2", "gamma": "2"},
    "n2-equal": {"n": 2, "W1": "x1_1^4 - x1_1*x1_2^2", "W2": "x2_1^2 + x2_2^2",
                 "deltaW": "x1_1*x1_2*x2_2^2", "alpha1": "2", "alpha2": "2", "gamma": "1/2"},
    "n2-decoupled": {"n": 2, "W1": "1/2*x1_1^2 + x1_2^4", "W2": "2*x2_1^2 + x2_2^2",
                     "deltaW": "0", "alpha1": "1/3", "alpha2": "1", "gamma": "3"},
}


def _chain_sympy(cfg, sympy):
    """Per oscillator coordinate: (x, y, z, alpha) as sympy data, plus W0
    and deltaW as sympy expressions."""
    sym = lambda name: sympy.Symbol(name)
    rows = [tuple(sym(chain_var(cfg.space, kind, j, i)) for kind in "xyz")
            + (sympy.Rational(alpha.numerator, alpha.denominator),)
            for j, alpha in enumerate(cfg.alphas, start=1) for i in range(cfg.n)]
    return rows, as_sympy(cfg.W0(), sympy), as_sympy(cfg.deltaW, sympy)


def _random_h_free_poly(space, rng: random.Random) -> Poly:
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exps = [0] * space.n
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(space.n)] += 1
        terms[(tuple(exps), 0)] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return Poly(space, terms)


@pytest.mark.parametrize("name", sorted(PSI_CONFIGS))
def test_hamiltonian_p_against_sympy(name):
    # the docstring formula of hamiltonian_p, written out over (w, w')
    sympy = pytest.importorskip("sympy")
    c = ChainConfig.from_json_dict(PSI_CONFIGS[name])
    rows, W0, dW = _chain_sympy(c, sympy)
    gamma = sympy.Rational(c.gamma.numerator, c.gamma.denominator)
    dual = lambda s: sympy.Symbol(s.name + "'")
    expect = 0
    for x, y, z, alpha in rows:
        xi, eta, zeta = dual(x), dual(y), dual(z)
        dWx = sympy.diff(dW, x)
        expect += (y * xi + gamma * (z - x) * zeta - (sympy.diff(W0, x) + x - z) * eta
                   + gamma / 2 * alpha * zeta ** 2 - dWx * eta - 2 * dWx * y / alpha)
    p, phase = hamiltonian_p(c)
    assert phase == c.space.with_duals()
    assert sympy.expand(as_sympy(p, sympy) - expect) == 0


@pytest.mark.parametrize("name", sorted(PSI_CONFIGS))
def test_full_residual_against_psi_equation(name):
    # (*) of the obstruction docstring with nu written out:
    # nu psi + (gamma/2) sum alpha_j (d_z psi)^2 - d_x deltaW . d_y psi
    #   - 2 d_x deltaW . y / alpha
    sympy = pytest.importorskip("sympy")
    c = ChainConfig.from_json_dict(PSI_CONFIGS[name])
    rows, W0, dW = _chain_sympy(c, sympy)
    gamma = sympy.Rational(c.gamma.numerator, c.gamma.denominator)
    rng = random.Random(13)
    for _ in range(4):
        psi = _random_h_free_poly(c.space, rng)
        u = as_sympy(psi, sympy)
        expect = 0
        for x, y, z, alpha in rows:
            dWx = sympy.diff(dW, x)
            expect += (y * sympy.diff(u, x) - (sympy.diff(W0, x) + x - z) * sympy.diff(u, y)
                       + gamma * (z - x) * sympy.diff(u, z)
                       + gamma / 2 * alpha * sympy.diff(u, z) ** 2
                       - dWx * sympy.diff(u, y) - 2 * dWx * y / alpha)
        assert sympy.expand(as_sympy(ob.full_residual(c, psi), sympy) - expect) == 0, psi


def test_vanishing_hierarchy():
    # zero components below degree m solve every graded equation below m:
    # the residual of psi = 0 lives in degree m only
    for eq in (False, True):
        c = default_chain_config(equal_temperature=eq)
        (m,) = c.deltaW.homogeneous_components("w2")
        assert set(ob.graded_residual(c, {})) == {m}
        zeros = {k: Poly.zero(c.space) for k in range(m)}
        assert set(ob.graded_residual(c, zeros)) == {m}


# ------------------------------------------------------------- eigencoords

def _columns(lambdas):
    """The matrix V with w2 = V omega: the eigenvectors as its columns."""
    return np.column_stack([eigenvector(lam) for lam in lambdas])


def test_eigencoords_spectrum(cfg):
    lams = ob.eigencoords_w2(cfg)
    V = _columns(lams)
    assert len(lams) == 3
    assert abs(sum(lams) - 1.0) < 1e-10
    assert all(z.real > 0 for z in lams)
    # sorted by (re, im); the complex pair is conjugate
    assert lams == tuple(sorted(lams, key=lambda z: (z.real, z.imag)))
    assert abs(lams[0] - lams[1].conjugate()) < 1e-10
    # V diagonalizes the linear field
    assert np.linalg.cond(V) < 1e6
    assert np.allclose(np.linalg.inv(V) @ V, np.eye(3), atol=1e-10)


def test_omega_coefficients_reconstruct(cfg):
    # the independent oracle: the reduced right side s m x2^(m-1) y2 as a
    # Poly, evaluated at w2 = V omega for complex omega, against the sum of
    # c_alpha omega^alpha
    rng = np.random.default_rng(3)
    for m in (3, 4, 6, 8):
        c = ChainConfig.from_json_dict(dict(cfg.to_json_dict(), deltaW=f"1/10*x1*x2^{m}"))
        lams = ob.eigencoords_w2(c)
        coeffs = ob.omega_coefficients(c, m, lams)
        assert set(coeffs) == {a for a in np.ndindex(m + 1, m + 1, m + 1) if sum(a) == m}
        s = 2 / c.alpha2 - 2 / c.alpha1
        rhs = (Poly.var(c.space, "x2", m - 1) * Poly.var(c.space, "y2") * (m * s)).compiled()
        V = _columns(lams)
        for _ in range(5):
            omega = rng.uniform(-1, 1, size=3) + 1j * rng.uniform(-1, 1, size=3)
            direct = rhs([0.0] * 3 + list(V @ omega))
            recon = sum(c_a * np.prod(omega ** np.array(a)) for a, c_a in coeffs.items())
            assert abs(recon - direct) < 1e-10 * abs(direct), m


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_omega_coefficients_multinomial_identity(cfg, m):
    # with symbolic eigenvalues, m x2^(m-1) y2 at x2 = sum omega_j,
    # y2 = sum lambda_j omega_j has the coefficients (m!/alpha!) (lambda.alpha)
    sympy = pytest.importorskip("sympy")
    lams = sympy.symbols("l0:3")
    omega = sympy.symbols("w0:3")
    x2 = sum(omega)
    y2 = sum(l * w for l, w in zip(lams, omega))
    expansion = sympy.Poly(sympy.expand(m * x2 ** (m - 1) * y2), *omega)
    want = dict(expansion.terms())
    s = float(2 / cfg.alpha2 - 2 / cfg.alpha1)
    got = ob.omega_coefficients(cfg, m, lams)
    assert set(got) == set(want)
    for alpha, c in got.items():
        assert sympy.expand(c - s * want[alpha]) == 0


@pytest.mark.parametrize("c", ["1/2", "7/36", "3/2", "1/5"])
def test_eigencoords_closed_form(cfg, c):
    # W2 = c x2^2: the columns (1, lambda, 1/(1-lambda)) diagonalize N at
    # w2 = 2c, and the cubic's roots are N's eigenvalues; compared as sets,
    # because at w2 = 7/18 the real root and the pair share the real part 1/3
    cfg = ChainConfig.from_json_dict(dict(cfg.to_json_dict(), W2=f"{c}*x2^2"))
    lams = np.array(ob.eigencoords_w2(cfg))
    V = _columns(lams)
    N = linearization_N([[2 * float(Fraction(c))]])
    assert np.max(np.abs(N @ V - V @ np.diag(lams))) < 1e-12
    numeric = list(np.linalg.eigvals(N))
    for lam in lams:
        k = int(np.argmin([abs(lam - z) for z in numeric]))
        assert abs(lam - numeric.pop(k)) < 1e-12


def test_cubic_discriminant_has_no_root_at_positive_w():
    # why eigencoords_w2 needs no Jordan test: for w > 0 the roots are simple
    sympy = pytest.importorskip("sympy")
    w, lam = sympy.symbols("w lam")
    disc = sympy.discriminant(lam**3 - lam**2 + (1 + w) * lam - w, lam)
    assert sympy.expand(disc - (-4 * w**3 - 20 * w**2 + 4 * w - 3)) == 0
    assert disc.subs(w, 0) < 0
    assert all(r < 0 for r in sympy.real_roots(sympy.Poly(disc, w)))


def test_select_alpha0(cfg):
    assert ob.select_alpha0(cfg, 3, ob.eigencoords_w2(cfg))[0] == (2, 0, 1)


def test_select_alpha0_breaks_the_conjugate_tie(cfg):
    # conjugate eigenvalues give conjugate multi-indices the same |c_alpha|
    # exactly; the tie goes to the lexicographically largest alpha
    lams = ob.eigencoords_w2(cfg)
    assert lams[0] == lams[1].conjugate()
    coeffs = ob.omega_coefficients(cfg, 3, lams)
    (a0, c0), (a1, c1) = sorted(coeffs.items(), key=lambda kv: -abs(kv[1]))[:2]
    assert abs(c0) == abs(c1) and {a0, a1} == {(2, 0, 1), (0, 2, 1)}
    alpha, c_alpha = ob.select_alpha0(cfg, 3, lams)
    assert alpha == (2, 0, 1) and c_alpha == coeffs[(2, 0, 1)]


# ----------------------------------------------------------- the transport

def test_obstruction_report(cfg, report):
    assert report.alpha0 == (2, 0, 1)
    assert report.lambda_dot_alpha.real > 0
    assert abs(report.lambda_dot_alpha.real - 1.0) < 1e-10
    assert abs(report.mu1 - 0.7548776662466928) < 1e-10
    assert report.K_magnitude > 0
    # the forced solution grows like e^{Re(lambda.alpha) |t|} at the minimum
    assert report.tail_rate_relative_error < 0.05
    # the saddle-side exponent is not a nonnegative integer
    assert report.nearest_integer_distance > 1e-3
    assert not report.exponent_is_integer
    assert report.verdict == "nonsmooth_at_saddle"
    assert report.post_support_constancy < 1e-8
    assert abs(report.exponent - report.lambda_dot_alpha / report.mu1) < 1e-10
    # the closed form makes the tail rate and the constancy exact
    assert report.tail_rate_fit == report.lambda_dot_alpha.real
    assert report.tail_rate_relative_error == report.post_support_constancy == 0.0


def test_report_json(report):
    d = report.to_json_dict()
    assert d["verdict"] == "nonsmooth_at_saddle"
    assert d["lambda_dot_alpha"][0] == report.lambda_dot_alpha.real
    assert isinstance(d["u_samples"], list)


def test_alpha2_sweep(gamma1):
    # alpha2 = 1 degenerates; otherwise only the scale 2/alpha2 - 2/alpha1 of
    # the linear transport right side changes, so the exponent stays and K
    # is proportional to |2/alpha2 - 2/alpha1|
    reps = {a2: ob.run_obstruction(default_chain_config(alpha2=a2), gamma1=gamma1)
            for a2 in ("1", "3/2", "2", "3")}
    assert reps["1"].verdict == "inconclusive"
    ks = []
    for a2 in ("3/2", "2", "3"):
        assert abs(reps[a2].exponent - reps["2"].exponent) < 1e-9
        ks.append(reps[a2].K_magnitude / abs(2 / Fraction(a2) - 2))  # alpha1 = 1
    assert max(ks) - min(ks) < 1e-6 * min(ks)


def _dop853_transport(cfg, gamma1, rep):
    """The independent oracle: the transport as an ODE, integrated by DOP853
    from zero data at the first sample time, with max_step a tenth of the
    bump's support width in t.  Returns |K| and u_- at the sample times."""
    alpha, c_alpha = ob.select_alpha0(cfg, ob._deltaw_degree(cfg), ob.eigencoords_w2(cfg))
    assert alpha == rep.alpha0
    a, bump = rep.lambda_dot_alpha, ob.BUMP
    dense = gamma1.meta["dense"]

    def state(t):
        return dense(np.clip(t, gamma1.times[0], gamma1.times[-1]))
    ix1 = cfg.space.index("x1")
    grid = np.linspace(gamma1.times[0], gamma1.times[-1], 4000)
    x1 = state(grid)[ix1]
    inside = grid[(x1 > bump.lo) & (x1 < bump.hi)]
    width = inside[-1] - inside[0]

    def rhs(t, u):
        du = -a * complex(u[0], u[1]) + c_alpha * bump(state(t)[ix1])
        return [du.real, du.imag]

    times = np.array([t for t, _, _ in rep.u_samples])
    assert times[0] < inside[0] and inside[-1] < times[-1]
    sol = solve_ivp(rhs, (times[0], times[-1]), [0.0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-18, max_step=width / 10, dense_output=True)
    assert sol.success
    u = sol.sol(times)
    u = u[0] + 1j * u[1]
    return abs(u[-1]) * math.exp(a.real * times[-1]), u


ORACLE_CONFIGS = {
    "chain_unequal": {},
    "wells_pm2": {"W1": "1/16*x1^4 - 1/2*x1^2 + 1"},
    # mu1 = 1 at the saddle; a DOP853 step without max_step crosses this bump
    "mu1_one": {"W1": "3/8*x1^4 - 3/4*x1^2 + 3/8", "W2": "7/36*x2^2"},
    # the orbit spans 1041 time units, and its first excursion into the
    # bump lasts 0.056 of them
    "deep_well": {"W1": "4*x1^4 - 8*x1^2 + 4"},
}


@pytest.mark.parametrize("changes", ORACLE_CONFIGS.values(), ids=list(ORACLE_CONFIGS))
def test_transport_matches_dop853_oracle(cfg, gamma1, changes):
    if changes:
        cfg = ChainConfig.from_json_dict(dict(cfg.to_json_dict(), **changes))
        gamma1 = heteroclinic_gamma1(cfg)
    rep = ob.run_obstruction(cfg, gamma1=gamma1)
    K, u = _dop853_transport(cfg, gamma1, rep)
    assert abs(rep.K_magnitude - K) < 1e-9 * K
    ours = np.array([complex(re, im) for _, re, im in rep.u_samples])
    assert np.max(np.abs(ours - u)) < 1e-9 * np.max(np.abs(u))


@functools.lru_cache(maxsize=None)
def _orbit(**changes):
    """The unequal chain with these changes, and its heteroclinic orbit."""
    c = ChainConfig.from_json_dict(dict(default_chain_config().to_json_dict(), **changes))
    return c, heteroclinic_gamma1(c)


def _x1_on_grid(gamma1, n):
    """x1 at n equally spaced times over the orbit, evaluated in chunks."""
    ts = np.linspace(gamma1.times[0], gamma1.times[-1], n)
    dense = gamma1.meta["dense"]
    ix1 = dense.index[0]
    return ts, np.concatenate([dense(ts[i:i + 4096])[ix1] for i in range(0, n, 4096)])


# the x1 at which the bump's third derivative jumps
KINKS = (ob.BUMP.lo, (ob.BUMP.lo + ob.BUMP.hi) / 2, ob.BUMP.hi)

# W1 and the number of crossings of the bump's three kink levels; on the
# sextic and on 8 x1^4 - 16 x1^2 + 8 some step holds two crossings of one
# level, which a test of the signs at the step ends alone would miss
CROSSING_WELLS = {
    "bundled": ("1/4*x1^4 - 1/2*x1^2 + 1/4", 3),
    "wells-pm2": ("1/16*x1^4 - 1/2*x1^2 + 1", 3),
    "mu1-one": ("3/8*x1^4 - 3/4*x1^2 + 3/8", 3),
    "sextic": ("x1^6 - x1^4 - x1^2 + 1", 13),
    "wells-pm1-steep": ("8*x1^4 - 16*x1^2 + 8", 231),
    "deep-well": (ORACLE_CONFIGS["deep_well"]["W1"], 81),
}


@pytest.mark.parametrize("name", list(CROSSING_WELLS))
def test_crossings_match_the_sign_changes_on_a_fine_grid(name):
    W1, count = CROSSING_WELLS[name]
    _, gamma1 = _orbit(W1=W1)
    dense = gamma1.meta["dense"]
    t0, t1 = gamma1.times[0], gamma1.times[-1]
    ts, x1 = _x1_on_grid(gamma1, 10 ** 6)
    total, twice_in_a_step = 0, False
    for level in KINKS:
        got = ob._crossings(dense, t0, t1, [level])
        brackets = np.flatnonzero(np.diff(np.sign(x1 - level)))
        assert len(got) == len(brackets), level
        # each crossing lies between the two grid times around its sign change
        assert np.all(ts[brackets] <= got) and np.all(got <= ts[brackets + 1]), level
        steps = np.searchsorted(dense.lo, got, side="right") - 1
        twice_in_a_step |= len(set(steps)) < len(steps)
        total += len(got)
    assert total == count
    assert np.array_equal(ob._crossings(dense, t0, t1, KINKS),
                          np.sort(np.concatenate([ob._crossings(dense, t0, t1, [level])
                                                  for level in KINKS])))
    assert twice_in_a_step == (name in ("sextic", "wells-pm1-steep"))


def test_a_crossing_at_a_step_boundary_is_found_once():
    # a level that x1 takes exactly at a step boundary: both steps that
    # share it find the crossing, and it is kept once
    _, gamma1 = _orbit()
    dense = gamma1.meta["dense"]
    t0, t1 = gamma1.times[0], gamma1.times[-1]
    ix1 = dense.index[0]
    bounds = [b for b in dense.lo[1:] if 0.2 < dense(b)[ix1] < 0.8]
    assert len(bounds) >= 3
    for b in bounds:
        level = dense(b)[ix1]
        got = ob._crossings(dense, t0, t1, [level])
        assert len(got) == len(ob._crossings(dense, t0, t1, [level * (1 + 1e-9)]))
        assert np.sum(np.abs(got - b) < 1e-9) == 1, b


def test_crossings_refuse_an_orbit_that_misses_every_level():
    _, gamma1 = _orbit()
    with pytest.raises(ob.ObstructionError, match="reaches none"):
        ob._crossings(gamma1.meta["dense"], gamma1.times[0], gamma1.times[-1], [1.5, -0.5])


def _cut_before(gamma1, t_cut):
    """The orbit from the start of the step that holds t_cut on: its steps
    from there, and its times after that step's start."""
    dense = gamma1.meta["dense"]
    i = np.searchsorted(dense.lo, t_cut, side="right") - 1
    kept = Segments(dense.t0[i:], dense.lo[i:], dense.coef[i:], dense.index, dense.dim)
    times = np.concatenate(([dense.lo[i]], gamma1.times[gamma1.times > dense.lo[i]]))
    return Trajectory(times, kept(times).T, dict(gamma1.meta, dense=kept))


@pytest.mark.parametrize("name", ["chain_unequal", "deep_well"])
def test_obstruct_reads_only_the_steps_near_the_support(name):
    # the report depends on the orbit on [s_lo - 2, s_hi + 6] only: cut
    # before s_lo - 3, the orbit gives the same JSON byte for byte
    cfg, gamma1 = _orbit(**ORACLE_CONFIGS[name])
    dense = gamma1.meta["dense"]
    s_lo = ob._crossings(dense, gamma1.times[0], gamma1.times[-1], KINKS)[0]
    cut = _cut_before(gamma1, s_lo - 3.0)
    assert len(cut.meta["dense"].t0) < len(dense.t0) / 2
    assert (canonical_json(ob.run_obstruction(cfg, gamma1=cut).to_json_dict())
            == canonical_json(ob.run_obstruction(cfg, gamma1=gamma1).to_json_dict()))


# the configs on which obstruct's own, certified orbit is checked against the
# full one: the oracle configs, the crossing wells and the alpha2 sweep
CERTIFIED = {**{f"oracle-{k}": v for k, v in ORACLE_CONFIGS.items()},
             **{f"crossing-{k}": {"W1": W1} for k, (W1, _) in CROSSING_WELLS.items()},
             **{f"alpha2-{a}": {"alpha2": a} for a in ("1", "3/2", "2", "3")}}


def _obstruct_and_its_orbits(monkeypatch, cfg):
    """run_obstruction(cfg)'s report and the orbits it computed."""
    orbits = []

    def spy(*args, **kwargs):
        orbits.append(heteroclinic_gamma1(*args, **kwargs))
        return orbits[-1]
    monkeypatch.setattr(ob.flow, "heteroclinic_gamma1", spy)
    return ob.run_obstruction(cfg), orbits


@pytest.mark.parametrize("name", list(CERTIFIED))
def test_obstruct_ends_its_backward_leg_where_phi0_certifies_it(monkeypatch, name):
    # obstruct's own orbit ends a few time units before t_c, the first step
    # end beyond the bump edge b = 0.7 with phi0 below its minimum on
    # {x1 = b}; its report equals the one from the full orbit byte for byte,
    # and on the full orbit x1 stays beyond b before t_c, so every crossing
    # lies after t_c
    cfg, full = _orbit(**CERTIFIED[name])
    rep, orbits = _obstruct_and_its_orbits(monkeypatch, cfg)
    assert (canonical_json(rep.to_json_dict())
            == canonical_json(ob.run_obstruction(cfg, gamma1=full).to_json_dict()))
    if cfg.alpha1 == cfg.alpha2:
        assert not orbits
        return
    (cut,) = orbits
    t_c = cut.meta["left_at"]
    assert "endpoint_residual_minimum" not in cut.meta
    assert cut.times[0] <= t_c - 3.0 and len(cut.meta["dense"].t0) < len(full.meta["dense"].t0)
    dense = full.meta["dense"]
    assert ob._crossings(dense, full.times[0], full.times[-1], KINKS + (ob.BUMP.hi,))[0] > t_c
    ts, x1 = _x1_on_grid(full, 10 ** 5)
    assert np.all(x1[ts <= t_c] > ob.BUMP.hi)


def test_a_well_with_another_root_beyond_the_edge_keeps_the_full_leg(monkeypatch):
    # W1' = x1 (x1 - 1)(x1 - 2)^2: the double root at 2, where W1'' = 0, is
    # neither a saddle nor a minimum, but it lies beyond b = 0.7 on the
    # minimum's side, so the backward leg runs to the ball around x1 = 1
    cfg, full = _orbit(W1="1/5*x1^5 - 5/4*x1^4 + 8/3*x1^3 - 2*x1^2")
    rep, (orbit,) = _obstruct_and_its_orbits(monkeypatch, cfg)
    assert orbit.meta["endpoint_residual_minimum"] < 1e-6 and "left_at" not in orbit.meta
    assert np.array_equal(orbit.meta["dense"].coef, full.meta["dense"].coef)
    assert (canonical_json(rep.to_json_dict())
            == canonical_json(ob.run_obstruction(cfg, gamma1=full).to_json_dict()))


@settings(max_examples=40, deadline=None, phases=NO_SHRINK_PHASES)
@given(st.sampled_from(sorted(CROSSING_WELLS)),
       st.lists(st.fractions(-3, 3, max_denominator=1000), min_size=5, max_size=5),
       st.floats(-1.0, 3.0), st.floats(-2.0, 2.0), st.floats(-1.0, 3.0))
def test_phi0_is_least_on_the_bump_edge_where_y1_is_0_and_z1_is_b(name, rest, x, y, z):
    # phi0 >= c = phi0(b, 0, b, 0, 0, 0) on {x1 = b}, exactly; and the
    # level test decides "x1 > b and phi0 < c" as the exact phi0 does, also
    # at a state whose phi0 is c up to rounding
    cfg = ChainConfig.from_json_dict(dict(default_chain_config().to_json_dict(),
                                          W1=CROSSING_WELLS[name][0]))
    phi0, b = chain_phi0(cfg), Fraction(ob.BUMP.hi)
    c = exact_value(phi0, (b, 0, b, 0, 0, 0))
    assert exact_value(phi0, [b] + rest) >= c
    test = flow._below_level(flow.well_data(cfg).w1p, b, 1)
    states = [[x, y, z]]
    r = 2 * float(exact_value(cfg.W1, (b,) + (0,) * 5) - exact_value(cfg.W1, (x,) + (0,) * 5))
    if r >= y * y:
        states.append([x, y, x - math.sqrt(r - y * y)])
    for state in states:
        assert test(state) == (state[0] > b and exact_value(phi0, state + [0, 0, 0]) < c)
    # on {x1 = b} itself the test never holds, however low phi0 is
    assert not test([float(b), 0.0, float(b)])


def test_obstruct_builds_the_well_data_once(monkeypatch, cfg):
    # W1''s coefficients, phi0 and the stationary points are built once per
    # run_obstruction call, with or without a given orbit, and once per
    # heteroclinic_gamma1 call
    calls = {"chain_phi0": 0, "_saddle_and_targets": 0, "_w1_prime": 0}
    for name in calls:
        fn = getattr(flow, name)

        def counted(*args, fn=fn, name=name, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(flow, name, counted)
    gamma1 = heteroclinic_gamma1(cfg)
    for run in (lambda: ob.run_obstruction(cfg), lambda: ob.run_obstruction(cfg, gamma1=gamma1),
                lambda: heteroclinic_gamma1(cfg)):
        calls.update(dict.fromkeys(calls, 0))
        run()
        assert calls == dict.fromkeys(calls, 1)


@pytest.mark.parametrize("name", list(ORACLE_CONFIGS))
def test_K_holds_when_every_panel_is_split_in_10(monkeypatch, name):
    # every kink of the bump is a panel edge, so the 20-point rule has
    # converged on each panel
    cfg, gamma1 = _orbit(**ORACLE_CONFIGS[name])
    K = ob.run_obstruction(cfg, gamma1=gamma1).K_magnitude
    coarse = ob._cumulative_integral

    def split(f, edges):
        fine = edges[:-1, None] + np.diff(edges)[:, None] * np.arange(10) / 10
        cumulative, abs_integral = coarse(f, np.append(fine, edges[-1]))
        return cumulative[::10], abs_integral
    monkeypatch.setattr(ob, "_cumulative_integral", split)
    assert abs(ob.run_obstruction(cfg, gamma1=gamma1).K_magnitude - K) <= 1e-14 * K


def test_equal_temperature_short_circuit():
    eq = default_chain_config(equal_temperature=True)
    rep = ob.run_obstruction(eq)
    assert rep.verdict == "inconclusive"
    assert any("equal" in n for n in rep.notes)


# ----------------------------------------------------- invariant subspace

def test_invariant_subspace():
    for eq in (False, True):
        out = ob.invariant_subspace_check(default_chain_config(equal_temperature=eq))
        assert out["symbolic_zero"] is True
        assert out["numeric_drift"] == 0.0
        assert out["nu1_flow_relative_difference"] == 0.0


def _leaky_hamiltonian(leak: str):
    def leaky(cfg):
        p, phase = hamiltonian_p(cfg)
        return p + parse_poly(phase, leak), phase
    return leaky


def test_invariant_subspace_detects_block_leak(cfg, monkeypatch):
    monkeypatch.setattr(ob, "hamiltonian_p", _leaky_hamiltonian("x1*x2'"))
    out = ob.invariant_subspace_check(cfg)
    assert out["symbolic_zero"] is False
    assert out["numeric_drift"] > 0.0


def test_invariant_subspace_detects_nu1_mismatch(cfg, monkeypatch):
    monkeypatch.setattr(ob, "hamiltonian_p", _leaky_hamiltonian("x1*x1'"))
    out = ob.invariant_subspace_check(cfg)
    assert out["symbolic_zero"] is False
    assert out["nu1_flow_relative_difference"] > 0.0
