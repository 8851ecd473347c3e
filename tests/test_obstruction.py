"""The transport obstruction pipeline at unequal bath temperatures."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from scipy.integrate import solve_ivp

from susyfact import obstruction as ob
from susyfact.flow import gamma1_interpolant, heteroclinic_gamma1, nu_apply
from susyfact.models import ChainConfig, chain_phi0, default_chain_config, hamiltonian_p
from susyfact.polyalg import Poly, parse_poly


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


def test_perturbation_validation(cfg):
    sp = cfg.space
    with pytest.raises(ob.ObstructionError):
        ob.Perturbation(ob.Bump(0.3, 0.7), parse_poly(sp, "x2^2"), 1, 2)
    with pytest.raises(ob.ObstructionError):
        # not homogeneous of the declared degree
        ob.Perturbation(ob.Bump(0.3, 0.7), parse_poly(sp, "x2^3 + x2"), 1, 3)
    p = ob.default_perturbation(cfg)
    assert p.m >= 3
    assert p.homog == parse_poly(sp, "x2^3")


# -------------------------------------------------------- the psi equation

def test_rhs_full_and_residual_sign(cfg):
    sp = cfg.space
    expect = parse_poly(sp, "1/5*y1*x2^3 + 3/10*x1*x2^2*y2")
    assert ob.rhs_full(cfg) == expect
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

def test_eigencoords_spectrum(cfg):
    eig = ob.eigencoords_w2(cfg)
    lams = eig.lambdas
    assert len(lams) == 3
    assert abs(sum(lams) - 1.0) < 1e-10
    assert all(z.real > 0 for z in lams)
    # sorted by (re, im); the complex pair is conjugate
    assert lams == tuple(sorted(lams, key=lambda z: (z.real, z.imag)))
    assert abs(lams[0] - lams[1].conjugate()) < 1e-10
    # V diagonalizes the linear field
    assert np.linalg.cond(eig.V) < 1e6
    assert np.allclose(eig.Vinv @ eig.V, np.eye(3), atol=1e-10)


def test_omega_coefficients_reconstruct(cfg):
    eig = ob.eigencoords_w2(cfg)
    pert = ob.default_perturbation(cfg)
    poly_w2 = ob._reduced_rhs_poly(cfg, pert)
    coeffs = ob.omega_coefficients(cfg, eig, poly_w2, pert.m)
    assert coeffs
    f = poly_w2.compiled()
    rng = np.random.default_rng(3)
    names = list(cfg.space.names)
    for _ in range(5):
        w2 = rng.uniform(-1, 1, size=3)
        omega = eig.Vinv @ w2.astype(complex)
        state = np.zeros(6)
        state[3:] = w2
        direct = f(state)
        recon = sum(c * np.prod(omega ** np.array(a)) for a, c in coeffs.items())
        assert abs(recon - direct) < 1e-10 * (1 + abs(direct))


def test_select_alpha0(cfg):
    assert ob.select_alpha0(cfg, ob.default_perturbation(cfg)) == (2, 0, 1)


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
    pert = ob.default_perturbation(cfg)
    eig = ob.eigencoords_w2(cfg)
    coeffs = ob.omega_coefficients(cfg, eig, ob._reduced_rhs_poly(cfg, pert), pert.m)
    c_alpha, a = coeffs[rep.alpha0], rep.lambda_dot_alpha
    state = gamma1_interpolant(gamma1)
    ix1 = cfg.space.index("x1")
    grid = np.linspace(gamma1.times[0], gamma1.times[-1], 4000)
    x1 = state(grid)[ix1]
    inside = grid[(x1 > pert.bump.lo) & (x1 < pert.bump.hi)]
    width = inside[-1] - inside[0]

    def rhs(t, u):
        du = -a * complex(u[0], u[1]) + c_alpha * pert.bump(state(t)[ix1])
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
