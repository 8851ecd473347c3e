"""The drift vector field: cascade identities, heteroclinic orbit, power laws."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from susyfact.flow import (PROBE_SAMPLES, PROBE_T_MAX, cascade_check, gamma1_interpolant,
                           heteroclinic_gamma1, integrate, lyapunov_report,
                           nu_apply, nu_components, nu_iterates,
                           quintic_bound_probe, stationary_points)
from susyfact.models import ChainConfig, UnsupportedConfig, chain_phi0, default_chain_config
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
    bad = ChainConfig(1, cfg.W1, cfg.W2, cfg.deltaW, cfg.alpha1, cfg.alpha2,
                      Fraction(2))
    with pytest.raises(UnsupportedConfig):
        cascade_check(bad, [0.5, 0.0, 0.1, 0.0, 0.0, 0.0])


def test_quintic_probe_refuses_unit_gamma_before_integrating(cfg, monkeypatch):
    # gamma != 1, n != 1 and a start off the first block are unsupported
    # regimes (exit 2), not numerical failures, and are refused before any step
    n2 = ChainConfig.from_json_dict({"n": 2, "W1": "1/4*x1_1^4 - 1/2*x1_1^2 + 1/4*x1_2^4",
                                     "W2": "1/2*x2_1^2 + 1/2*x2_2^2", "deltaW": "0",
                                     "alpha1": "1", "alpha2": "2", "gamma": "1"})
    refused = [(ChainConfig(1, cfg.W1, cfg.W2, cfg.deltaW, cfg.alpha1, cfg.alpha2, Fraction(2)),
                [0.5, 0.0, 0.1, 0.0, 0.0, 0.0], "gamma = 1"),
               (n2, [0.5] + [0.0] * 11, "n = 1"),
               (cfg, [0.5, 0.0, 0.1, 0.2, 0.0, 0.0], "second block is zero")]

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before refusing")
    monkeypatch.setattr("susyfact.flow._taylor_coefficients", no_integration)
    with pytest.raises(AssertionError, match="integrated"):  # a supported start steps
        quintic_bound_probe(cfg, [[0.5, 0.0, 0.1, 0.0, 0.0, 0.0]])
    for conf, point, reason in refused:
        with pytest.raises(UnsupportedConfig, match=reason):
            quintic_bound_probe(conf, [point])


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


# W1 and the x1 of the minimum the orbit starts from; every saddle is at 0.
# The sextic's W1' = 2 x1 (3 x1^2 + 1)(x1^2 - 1) has degree 5; the deep
# well's smallest rate at the minimum is 0.0147, so its orbit takes about
# 1040 time units to close in on it.
ORBIT_CONFIGS = {
    "bundled": ("1/4*x1^4 - 1/2*x1^2 + 1/4", 1.0),
    "wells-pm2": ("1/16*x1^4 - 1/2*x1^2 + 1", 2.0),
    "deep-well": ("4*x1^4 - 8*x1^2 + 4", 1.0),
    "sextic": ("x1^6 - x1^4 - x1^2 + 1", 1.0),
}


def _reference_leg(w1p, seed, target, t_stop, tol=1e-7):
    """An rtol-1e-13/atol-1e-16 DOP853 solve of the first block from the
    seed toward t_stop, as a function of time, and the time at which it
    first enters the ball of radius tol around the stationary point target.
    Once within 1e-2 of target the solve goes on in u = state - target, with
    W1' re-expanded about target, so that the deviation is not rounded
    against |target| while the orbit closes in.  solve_ivp's own events
    compare the step ends only and miss the spiral's short dips into the
    ball, so the entry is found on the dense output, sampled every 1e-3 time
    units and bisected."""
    from numpy.polynomial import Polynomial
    from scipy.integrate import solve_ivp
    from scipy.optimize import brentq

    def solve(shift, t0, start, **kwargs):
        coefs = tuple(reversed(w1p(Polynomial([shift[0], 1.0])).coef))

        def rhs(t, u):
            x, y, z = u
            w = 0.0
            for c in coefs:
                w = w * x + c
            return [y, -(w + x - z), z - x]
        sol = solve_ivp(rhs, (t0, t_stop), start - shift, method="DOP853", rtol=1e-13,
                        atol=1e-16, dense_output=True, **kwargs)
        assert sol.success
        return sol

    def near(t, s):
        return np.linalg.norm(s - target) - 1e-2
    near.terminal = True
    t_switch, start = 0.0, seed
    if np.linalg.norm(seed - target) > 1e-2:
        far = solve(np.zeros(3), 0.0, seed, events=near)
        t_switch, start = far.t[-1], far.y[:, -1]
    close = solve(target, t_switch, start)
    ts = np.linspace(t_switch, t_stop, int(abs(t_stop - t_switch) / 1e-3) + 2)
    inside = np.linalg.norm(close.sol(ts), axis=0) <= tol
    (entries,) = np.nonzero(inside[1:] & ~inside[:-1])
    assert len(entries), "the reference never enters the ball"
    i = entries[0]
    entry = brentq(lambda t: np.linalg.norm(close.sol(t)) - tol, ts[i], ts[i + 1], xtol=1e-14)
    return (lambda t: far.sol(t) if abs(t) < abs(t_switch) else close.sol(t) + target), entry


@pytest.mark.parametrize("name", list(ORBIT_CONFIGS))
def test_orbit_against_tight_dop853(cfg, name):
    # from the orbit's own seed (its state at t = 0), an rtol-1e-13 DOP853
    # solve of the first block: the states agree to 1e-10 at 12 times on
    # each leg, and both endpoint times to 1e-8
    from numpy.polynomial import Polynomial
    text, x_min = ORBIT_CONFIGS[name]
    conf = ChainConfig(1, parse_poly(cfg.space, text), cfg.W2, cfg.deltaW, cfg.alpha1,
                       cfg.alpha2, cfg.gamma)
    traj = heteroclinic_gamma1(conf)
    coef = {exps[0]: float(c) for (exps, _), c in conf.W1.partial("x1").terms.items()}
    w1p = Polynomial([coef.get(j, 0.0) for j in range(max(coef) + 1)])
    (i0,) = np.nonzero(traj.times == 0.0)[0]
    seed = traj.states[i0, :3]
    legs = [(traj.times[:i0 + 1], traj.states[:i0 + 1], np.array([x_min, 0.0, x_min])),
            (traj.times[i0:], traj.states[i0:], np.zeros(3))]
    for times, states, target in legs:
        end = times[0] if times[0] < 0 else times[-1]
        state_of_t, entry = _reference_leg(w1p, seed, target, end + 5.0 * np.sign(end))
        assert abs(entry - end) <= 1e-8, (entry, end)
        for k in np.linspace(0, len(times) - 1, 12).astype(int):
            assert np.max(np.abs(state_of_t(times[k]) - states[k, :3])) <= 1e-10, times[k]


def test_heteroclinic_goes_through_integrate(cfg, monkeypatch):
    # the refusal tests in test_cli.py patch flow.integrate to prove that
    # nothing is integrated: so the orbit must be integrated through it
    from susyfact import flow
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("stop_near"))
        return integrate(*args, **kwargs)
    monkeypatch.setattr(flow, "integrate", counting)
    heteroclinic_gamma1(cfg)
    assert len(calls) == 2 and all(c is not None for c in calls)


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

PROBE_POINTS = [[0.5, 0.0, 0.1, 0.0, 0.0, 0.0],     # generic: slope 1
                [0.5, 0.3, 0.5, 0.0, 0.0, 0.0],     # z = x, y != 0: slope 3
                [0.5, 0.0, 0.5, 0.0, 0.0, 0.0]]     # z = x, y = 0: slope 5


def test_quintic_probe_slopes(cfg):
    rows = quintic_bound_probe(cfg, PROBE_POINTS)
    want = {"generic": 1.0, "y_nonzero_degenerate": 3.0, "fully_degenerate": 5.0}
    for r in rows:
        assert abs(r["slope"] - want[r["case"]]) < 1e-2
        assert r["min_delta"] > 0.0
        assert np.isfinite(r["C_witness"]) and r["C_witness"] > 0.0


@pytest.mark.parametrize("x1", [0.3, 0.32, 0.5945])
def test_quintic_probe_fully_degenerate_below_resolution(cfg, x1):
    # at the first sample time the increment, 4-7e-23, is below what an
    # atol-1e-16 solve of the flow resolves; its series has no cancellation
    (r,) = quintic_bound_probe(cfg, [[x1, 0.0, x1, 0.0, 0.0, 0.0]])
    assert r["case"] == "fully_degenerate"
    assert abs(r["slope"] - 5.0) < 1e-2
    assert r["min_delta"] > 0.0


def test_quintic_probe_min_delta_against_the_cascade(cfg):
    # Delta(t) = sum_k nu^k(phi0)(x) t^k/k!, and at t = 1e-4 the terms past
    # k = 5 are below 1e-3 of the sum at every class of point
    t = 1e-4
    for point, r in zip(PROBE_POINTS, quintic_bound_probe(cfg, PROBE_POINTS)):
        values = cascade_check(cfg, point).values
        want = sum(v * t ** k / math.factorial(k) for k, v in enumerate(values, start=1))
        assert abs(r["min_delta"] - want) <= 1e-3 * want, (r["case"], r["min_delta"], want)


def test_quintic_probe_against_augmented_dop853(cfg):
    # the flow with Delta' = nu(phi0) appended, as one rtol-1e-12 DOP853
    # solve; C_witness = max t^5/Delta over the samples where it resolves
    # Delta (>= 1e-10) is taken at t = PROBE_T_MAX at these two points
    from scipy.integrate import solve_ivp
    fns = [p.compiled() for p in nu_components(cfg)] + [nu_apply(cfg, chain_phi0(cfg)).compiled()]

    def rhs(t, s):
        return [f(s[:-1]) for f in fns]
    ts = np.geomspace(1e-4, PROBE_T_MAX, PROBE_SAMPLES)
    for point in PROBE_POINTS[:2]:
        sol = solve_ivp(rhs, (0.0, PROBE_T_MAX), point + [0.0], method="DOP853", rtol=1e-12,
                        atol=1e-16, dense_output=True)
        assert sol.success
        deltas = sol.sol(ts)[-1]
        resolved = ts >= ts[np.argmax(deltas >= 1e-10)]
        want = np.max(ts[resolved] ** 5 / deltas[resolved])
        (r,) = quintic_bound_probe(cfg, [point])
        assert abs(r["C_witness"] - want) <= 1e-6 * want, (r["case"], r["C_witness"], want)


def test_integrate_events_and_direction(cfg):
    traj = integrate(cfg, [0.5, 0.0, 0.1, 0.0, 0.0, 0.0], (0.0, 1.0),
                     n_samples=50)
    assert len(traj.times) == 50
    assert np.all(np.diff(traj.times) > 0)
