"""The drift vector field: cascade identities, heteroclinic orbit, power laws."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from susyfact.flow import (FlowError, cascade_check, gamma1_interpolant,
                           heteroclinic_gamma1, integrate, lyapunov_report,
                           nu_apply, nu_components, nu_field, nu_iterates,
                           quintic_bound_probe, stationary_points)
from susyfact.models import chain_phi0, default_chain_config
from susyfact.polyalg import Poly, parse_poly


@pytest.fixture(scope="module")
def cfg():
    return default_chain_config()


@pytest.fixture(scope="module")
def gamma1(cfg):
    return heteroclinic_gamma1(cfg)


# ------------------------------------------------------------ symbolic field

def test_nu_components(cfg):
    sp = cfg.space
    comps = nu_components(cfg)
    expect = [parse_poly(sp, s) for s in
              ("y1", "z1 - x1^3", "z1 - x1", "y2", "z2 - 2*x2", "z2 - x2")]
    assert comps == expect


def test_nu_phi0_is_a_sum_of_squares(cfg):
    sp = cfg.space
    got = nu_apply(cfg, chain_phi0(cfg))
    expect = (parse_poly(sp, "z1 - x1") ** 2 * (cfg.gamma / cfg.alpha1)
              + parse_poly(sp, "z2 - x2") ** 2 * (cfg.gamma / cfg.alpha2))
    assert got == expect


def test_cascade_identities_z_minus_x(cfg):
    # with gamma = 1: nu(z-x) = (z-x) - y and nu^2(z-x) = W0' - y
    sp = cfg.space
    zx = parse_poly(sp, "z1 - x1")
    assert nu_apply(cfg, zx) == parse_poly(sp, "z1 - x1 - y1")
    assert nu_apply(cfg, nu_apply(cfg, zx)) == parse_poly(sp, "x1^3 - x1 - y1")


def test_nu_iterates_chain_rule(cfg):
    phi0 = chain_phi0(cfg)
    its = nu_iterates(cfg, phi0, 3)
    assert len(its) == 3
    assert its[0] == nu_apply(cfg, phi0)
    assert its[1] == nu_apply(cfg, its[0])
    assert its[2] == nu_apply(cfg, its[1])


def test_cascade_requires_unit_gamma(cfg):
    from susyfact.models import ChainConfig
    bad = ChainConfig(1, cfg.W1, cfg.W2, cfg.deltaW, cfg.alpha1, cfg.alpha2,
                      Fraction(2))
    with pytest.raises(FlowError):
        cascade_check(bad, [0.5, 0.0, 0.1, 0.0, 0.0, 0.0])


# ------------------------------------------------------- stationary analysis

def test_stationary_points(cfg):
    pts = sorted(stationary_points(cfg), key=lambda p: p[0])
    assert len(pts) == 3
    expect = [(-1.0, 0.0, -1.0, 0.0, 0.0, 0.0),
              (0.0,) * 6,
              (1.0, 0.0, 1.0, 0.0, 0.0, 0.0)]
    for got, want in zip(pts, expect):
        assert np.allclose(got, want, atol=1e-10)


def test_cascade_point_classification(cfg):
    assert cascade_check(cfg, [0.5, 0.0, 0.1, 0, 0, 0]).case == "generic"
    assert cascade_check(cfg, [0.5, 0.3, 0.5, 0, 0, 0]).case == "y_nonzero_degenerate"
    assert cascade_check(cfg, [0.5, 0.0, 0.5, 0, 0, 0]).case == "fully_degenerate"


def test_cascade_first_value_nonnegative(cfg):
    rng = np.random.default_rng(7)
    for _ in range(20):
        pt = rng.uniform(-1.5, 1.5, size=6)
        rep = cascade_check(cfg, pt)
        assert rep.values[0] >= 0.0


# ---------------------------------------------------------------- trajectory

def test_heteroclinic_endpoints(cfg, gamma1):
    traj = gamma1
    assert np.all(np.diff(traj.times) > 0)
    assert len(traj.times) == len(traj.states)
    assert traj.meta["endpoint_residual_minimum"] < 1e-6
    assert traj.meta["endpoint_residual_saddle"] < 1e-6
    assert abs(traj.meta["mu1"] - 0.7548776662466928) < 1e-10
    # minimum at t -> -inf, saddle at t -> +inf
    assert np.linalg.norm(traj.states[0] - np.array([1, 0, 1, 0, 0, 0])) < 1e-5
    assert np.linalg.norm(traj.states[-1]) < 1e-5


def test_heteroclinic_endpoints_follow_the_wells(cfg):
    # wells at x1 = +-2: the minimum and saddle come from the stationary points
    from susyfact.models import ChainConfig
    W1 = parse_poly(cfg.space, "1/16*x1^4 - 1/2*x1^2 + 1")
    wide = ChainConfig(1, W1, cfg.W2, cfg.deltaW, cfg.alpha1, cfg.alpha2, cfg.gamma)
    traj = heteroclinic_gamma1(wide)
    assert np.linalg.norm(traj.states[0] - np.array([2, 0, 2, 0, 0, 0])) < 1e-6
    assert np.linalg.norm(traj.states[-1]) < 1e-6


def test_heteroclinic_stays_in_invariant_block(cfg, gamma1):
    # the second chain never moves along gamma1
    assert np.max(np.abs(gamma1.states[:, 3:])) == 0.0


def test_lyapunov_monotone(cfg, gamma1):
    rep = lyapunov_report(cfg, gamma1)
    assert rep["strictly_increasing"]
    assert rep["phi0_end"] > rep["phi0_start"]
    assert rep["resolvable_all_positive"]
    assert rep["no_decrease_beyond_roundoff"]


def test_gamma1_interpolant(cfg, gamma1):
    f = gamma1_interpolant(gamma1)
    t_mid = 0.5 * (gamma1.times[0] + gamma1.times[-1])
    s = f(t_mid)
    assert s.shape == (6,)
    # interpolant matches a stored sample
    k = len(gamma1.times) // 2
    assert np.linalg.norm(f(gamma1.times[k]) - gamma1.states[k]) < 1e-8
    # on an array of times (clamped to the orbit's range), one column per time
    ts = np.array([gamma1.times[0] - 1.0, -0.5, 0.0, 0.5, gamma1.times[-1] + 1.0])
    cols = f(ts)
    assert cols.shape == (6, len(ts))
    for t, col in zip(ts, cols.T):
        assert np.allclose(col, f(t), rtol=0, atol=1e-14)


def test_trajectory_csv(cfg, gamma1):
    txt = gamma1.to_csv(cfg.space.names, chain_phi0(cfg).compiled())
    lines = txt.strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t" and "x1" in header
    assert len(lines) == len(gamma1.times) + 1


# --------------------------------------------------------------- power laws

def test_quintic_probe_slopes(cfg):
    pts = [[0.5, 0.0, 0.1, 0.0, 0.0, 0.0],     # generic: slope 1
           [0.5, 0.3, 0.5, 0.0, 0.0, 0.0],     # z = x, y != 0: slope 3
           [0.5, 0.0, 0.5, 0.0, 0.0, 0.0]]     # z = x, y = 0: slope 5
    rows = quintic_bound_probe(cfg, pts)
    want = {"generic": 1.0, "y_nonzero_degenerate": 3.0, "fully_degenerate": 5.0}
    for r in rows:
        assert abs(r["slope"] - want[r["case"]]) < 0.3
        assert r["min_delta"] > 0.0
        assert np.isfinite(r["C_witness"]) and r["C_witness"] > 0.0


@pytest.mark.parametrize("x1", [0.3, 0.32, 0.5945])
def test_quintic_probe_fully_degenerate_below_resolution(cfg, x1):
    # at small t the increment is under the integrator's resolution and its
    # round-off sign must not fail the probe
    (r,) = quintic_bound_probe(cfg, [[x1, 0.0, x1, 0.0, 0.0, 0.0]])
    assert r["case"] == "fully_degenerate"
    assert abs(r["slope"] - 5.0) < 0.3


def test_integrate_events_and_direction(cfg):
    _, rhs = nu_field(cfg)
    traj = integrate(rhs, [0.5, 0.0, 0.1, 0.0, 0.0, 0.0], (0.0, 1.0),
                     n_samples=50)
    assert len(traj.times) == 50
    assert np.all(np.diff(traj.times) > 0)
