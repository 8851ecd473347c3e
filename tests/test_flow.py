"""The drift vector field: cascade identities, heteroclinic orbit, power laws."""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyfact.flow import (ORDER, PROBE_SAMPLES, PROBE_T_MAX, STEP_EPS, FlowError, _first_entry,
                           _horner, _saddle_and_targets, _screened_out,
                           _taylor_coefficients, gamma1_interpolant, heteroclinic_gamma1,
                           heteroclinic_x1_range, integrate, lyapunov_report, nu_apply,
                           nu_components, nu_iterates, phi0_gains, quintic_bound_probe)
from susyfact.models import ChainConfig, UnsupportedConfig, chain_phi0, default_chain_config
from susyfact.polyalg import Poly, parse_poly

from conftest import NO_SHRINK_PHASES, cascade_check


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
    """gamma != 1, n != 1, a start off the first block, a non-finite start
    (inf or nan) and a stationary point of the drift (the minimum
    (1, 0, 1, 0, 0, 0) and the saddle at the origin), where phi0 stays
    constant, are unsupported regimes (exit 2), not numerical failures, and
    are refused before any step."""
    n2 = ChainConfig.from_json_dict({"n": 2, "W1": "1/4*x1_1^4 - 1/2*x1_1^2 + 1/4*x1_2^4",
                                     "W2": "1/2*x2_1^2 + 1/2*x2_2^2", "deltaW": "0",
                                     "alpha1": "1", "alpha2": "2", "gamma": "1"})
    refused = [(ChainConfig(1, cfg.W1, cfg.W2, cfg.deltaW, cfg.alpha1, cfg.alpha2, Fraction(2)),
                [0.5, 0.0, 0.1, 0.0, 0.0, 0.0], "gamma = 1"),
               (n2, [0.5] + [0.0] * 11, "n = 1"),
               (cfg, [0.5, 0.0, 0.1, 0.2, 0.0, 0.0], "second block is zero"),
               (cfg, [math.inf, 0.0, math.inf, 0.0, 0.0, 0.0], "finite state"),
               (cfg, [math.nan, 0.0, math.nan, 0.0, 0.0, 0.0], "finite state"),
               (cfg, [1.0, 0.0, 1.0, 0.0, 0.0, 0.0], "stationary point"),
               (cfg, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0], "stationary point")]

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before refusing")
    monkeypatch.setattr("susyfact.flow._taylor_coefficients", no_integration)
    with pytest.raises(AssertionError, match="integrated"):  # a supported start steps
        quintic_bound_probe(cfg, [[0.5, 0.0, 0.1, 0.0, 0.0, 0.0]])
    for conf, point, reason in refused:
        with pytest.raises(UnsupportedConfig, match=reason):
            quintic_bound_probe(conf, [point])


# ------------------------------------------------------- stationary analysis

def _double_well_chain(W1: str) -> ChainConfig:
    return ChainConfig.from_json_dict({"W1": W1, "W2": "1/2*x2^2", "deltaW": "0",
                                       "alpha1": "1", "alpha2": "2"})


@pytest.mark.parametrize("W1, targets, x1_range", [
    ("1/4*x1^4 - 1/2*x1^2 + 1/4",
     "[(1.0, [1.0, 0.0, 1.0, 0.0, 0.0, 0.0], 0.14238738078245486), "
     "(-1.0, [-1.0, 0.0, -1.0, 0.0, 0.0, 0.0], 0.14238738078245486)]",
     (0.0, 1.0)),
    ("25/4*x1^4 - 1/2*x1^2 + 1/100",
     "[(1.0, [0.2, 0.0, 0.2, 0.0, 0.0, 0.0], 0.14238738078245475), "
     "(-1.0, [-0.2, 0.0, -0.2, 0.0, 0.0, 0.0], 0.14238738078245475)]",
     (0.0, 0.2)),
    ("1/6*x1^6 - 1/4*x1^4 - 1/2*x1^2",
     "[(1.0, [1.272019649514069, 0.0, 1.272019649514069, 0.0, 0.0, 0.0], 0.055390752625375426), "
     "(-1.0, [-1.272019649514069, 0.0, -1.272019649514069, 0.0, 0.0, 0.0], "
     "0.055390752625375426)]",
     (0.0, 1.272019649514069)),
], ids=["wells-pm1", "wells-pm02", "sextic"])
def test_saddle_and_targets_pinned(W1, targets, x1_range):
    # the stationary points' floats, bit for bit: the saddle at the origin,
    # mu1, and each side's nearest minimum with its slowest rate
    cfg = _double_well_chain(W1)
    saddle, _, mu1, got = _saddle_and_targets(cfg)
    assert repr(saddle.tolist()) == "[0.0, 0.0, 0.0, 0.0, 0.0, 0.0]"
    assert repr(mu1) == "0.7548776662466928"
    assert repr([(sign, p.tolist(), rate) for sign, p, rate in got]) == targets
    assert heteroclinic_x1_range(cfg) == x1_range


def test_a_double_root_of_w1_prime_is_no_saddle():
    # W1' = x (x - 1)^2 and x (x^2 - 1)^2: each double root is found once,
    # and W1'' = 0 there
    for W1 in ("1/4*x1^4 - 2/3*x1^3 + 1/2*x1^2", "1/6*x1^6 - 1/2*x1^4 + 1/2*x1^2"):
        cfg = _double_well_chain(W1)
        with pytest.raises(UnsupportedConfig, match="W1 has 0 saddles"):
            _saddle_and_targets(cfg)


@settings(max_examples=25, deadline=None, phases=NO_SHRINK_PHASES)
@given(st.fractions(Fraction(1, 10), 10, max_denominator=20),
       st.fractions(Fraction(1, 2), 2, max_denominator=20),
       st.fractions(Fraction(-9, 10), Fraction(9, 10), max_denominator=50),
       st.fractions(-1, 1, max_denominator=10))
def test_saddle_and_targets_do_not_depend_on_the_term_order(a, s, u, d):
    # W1 = a (x^4/4 - s^2 x^2/2 + t x) + d with |t| < 0.38 s^3, below the
    # tilt 2 s^3 / sqrt(27) at which two stationary points merge: a tilted
    # double well, written with falling and with rising powers
    t = u * Fraction(38, 100) * s ** 3
    terms = [(a / 4, "*x1^4"), (-a * s ** 2 / 2, "*x1^2"), (a * t, "*x1"), (d, "")]
    got = []
    for order in (terms, terms[::-1]):
        W1 = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}{m}" for c, m in order if c)
        saddle, vec, mu1, targets = _saddle_and_targets(_double_well_chain(W1))
        got.append(repr((saddle.tolist(), vec.tolist(), mu1,
                         [(sign, p.tolist(), rate) for sign, p, rate in targets])))
    assert got[0] == got[1]


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


@pytest.mark.parametrize("name", list(ORBIT_CONFIGS))
def test_phi0_gains_match_phi0_differences(cfg, name):
    # the integrals of nu(phi0) agree with the differences of phi0 at the
    # samples, and add up to its increase over the orbit; unlike those
    # differences, which round-off makes negative, every one is positive
    conf = ChainConfig(1, parse_poly(cfg.space, ORBIT_CONFIGS[name][0]), cfg.W2, cfg.deltaW,
                       cfg.alpha1, cfg.alpha2, cfg.gamma)
    traj = heteroclinic_gamma1(conf)
    gains = phi0_gains(conf, traj.meta["dense"], traj.times)
    phi0 = chain_phi0(conf).compiled()
    phis = np.array([phi0(s) for s in traj.states])
    assert np.max(np.abs(gains - np.diff(phis))) <= 1e-14
    rep = lyapunov_report(conf, traj)
    rise = rep["phi0_end"] - rep["phi0_start"]
    assert abs(gains.sum() - rise) <= 1e-14 * rise
    assert rep["min_increment"] == gains.min() > 0


def test_lyapunov_report_refuses_a_zero_gain(cfg):
    # from the minimum z1 = x1 for all time, so nu(phi0) vanishes on every
    # interval: on an orbit that moves, a zero gain is a numerical failure
    traj = integrate(cfg, [1.0, 0.0, 1.0, 0.0, 0.0, 0.0], (0.0, 1.0), n_samples=5)
    with pytest.raises(FlowError, match="does not increase"):
        lyapunov_report(cfg, traj)


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


# ------------------------------------------------------- pinned integration

# Per orbit: Taylor steps, both event times and both endpoint residuals as
# float.hex, and the sha256 of the dense output's coefficients; any change
# to how `integrate` steps or locates events must leave them bit-identical.
# They hold where sum() adds floats left to right, as CPython did before
# 3.12, whose sum() compensates and so moves the series' last bits.
PINNED_ORBITS = {
    "bundled": (111, "-0x1.e4097800a307bp+6", "0x1.c133a0eade7afp+1",
                "0x1.ad7f29af4817dp-24", "0x1.ad7f29abcaf68p-24",
                "38c1687e32c1cb813dfafddbdd40546e0c1706e5d0c813db821ed39411c01abe"),
    "wells-pm2": (114, "-0x1.fa3f7092ea44cp+6", "0x1.1b5e01395e487p+2",
                  "0x1.ad7f29ad02d81p-24", "0x1.ad7f29abcafaep-24",
                  "6cd7166c3e16499a2f12463c60d0de9cecdd5834e7bd817d336cae7a4f555787"),
    "deep-well": (4030, "-0x1.03faaba3a1cd4p+10", "0x1.5bdab40e386b7p-1",
                  "0x1.ad7f29a869980p-24", "0x1.ad7f29abcafb6p-24",
                  "a78bd8e5b8d8deb3653e5e9cb5abffcc9fedf85a494c802d2e104e8c75d8111a"),
    "sextic": (1536, "-0x1.0e455372e156ep+9", "0x1.19458072d9663p+1",
               "0x1.ad7f29a82cc94p-24", "0x1.ad7f29abcaf7bp-24",
               "673bdf35ffa8ddea698d7586be7b8b471d859bbd8ede5948fc52f1fffab544aa"),
}
PINNED_PROBES = [(1, "48c0869b5a610584771bd5630043fcefb79d228417870731bec595f9a6aa8a16"),
                 (2, "b70a729dbd8227b5c559091c6c5a1ffde9abe8244665ed5a3f99332839f38797"),
                 (1, "b3ae7ff1ae12288d998f345d429dce682b8a2ca208e94a25fd3d373880f454d9")]


def _coef_digest(dense):
    return hashlib.sha256(np.ascontiguousarray(dense.coef).tobytes()).hexdigest()


@pytest.mark.parametrize("name", list(ORBIT_CONFIGS))
def test_orbit_pinned(cfg, name):
    conf = ChainConfig(1, parse_poly(cfg.space, ORBIT_CONFIGS[name][0]), cfg.W2, cfg.deltaW,
                       cfg.alpha1, cfg.alpha2, cfg.gamma)
    traj = heteroclinic_gamma1(conf)
    dense = traj.meta["dense"]
    got = (len(dense.t0), float(traj.times[0]).hex(), float(traj.times[-1]).hex(),
           traj.meta["endpoint_residual_minimum"].hex(),
           traj.meta["endpoint_residual_saddle"].hex(), _coef_digest(dense))
    assert got == PINNED_ORBITS[name]


def test_probe_steps_pinned(cfg):
    for point, pinned in zip(PROBE_POINTS, PINNED_PROBES):
        dense = integrate(cfg, point, (0.0, PROBE_T_MAX)).meta["dense"]
        assert (len(dense.t0), _coef_digest(dense)) == pinned


# Step series, each starting from x1 = y1 = z1 = 0: x1 = tau + C24 tau^24 of
# length 1/2 (set by C24), which enters BALL (radius 1e-7 around x1 = 2e-7)
# at tau = 1e-7 and ends finite; one whose order-24 coefficient is infinite,
# so its length underflows to 0; one whose x1 is NaN at its end; and
# x1 = tau + 1.85e304 tau^2, which has no order 23 or 24, so it runs to the
# end of the span, enters BALL and overflows at its end.
ENTRY_STEP = [[0.0, 1.0] + [0.0] * 22 + [STEP_EPS / 0.5 ** ORDER], [0.0] * 25, [0.0] * 25]
UNDERFLOW_STEP = [[0.0] * 24 + [math.inf], [0.0] * 25, [0.0] * 25]
NAN_STEP = [[0.0, math.nan] + [0.0] * 23, [0.0] * 25, [0.0] * 25]
OVERFLOW_ENTRY_STEP = [[0.0, 1.0, 1.85e304] + [0.0] * 22, [0.0] * 25, [0.0] * 25]
BALL = (np.array([2e-7, 0.0, 0.0, 0.0, 0.0, 0.0]), 1e-7)


# what `_taylor_coefficients` raises where a power of x leaves the float range
SERIES_OVERFLOW = FlowError("integration failed: x^3 overflows")


def _stepping(monkeypatch, steps):
    """Make `integrate` take the given step series in turn, then the last
    one again and again; an exception among them is raised instead."""
    series = itertools.chain(steps, itertools.repeat(steps[-1]))

    def step(x, y, z, p):
        s = next(series)
        if isinstance(s, Exception):
            raise s
        return [list(r) for r in s]
    monkeypatch.setattr("susyfact.flow._taylor_coefficients", step)


@pytest.mark.parametrize("after", [UNDERFLOW_STEP, NAN_STEP, SERIES_OVERFLOW],
                         ids=["underflow", "nan", "series-overflow"])
def test_failure_after_the_entry_step_returns_the_hit(cfg, monkeypatch, after):
    # the integration ends at the entry, so a step after it cannot fail it
    _stepping(monkeypatch, [ENTRY_STEP, after])
    traj = integrate(cfg, [0.0] * 6, (0.0, 10.0), n_samples=5, stop_near=BALL)
    h = (STEP_EPS / ENTRY_STEP[0][ORDER]) ** (1.0 / ORDER)
    assert traj.meta["terminated_by_event"]
    assert len(traj.meta["dense"].t0) == 1
    q = np.array(ENTRY_STEP)
    q[:, 0] -= [2e-7, 0.0, 0.0]
    assert traj.times[-1] == _first_entry(q, 0.0, h, 1e-7, np.linalg.norm(q[:, 0]) > 1e-7)[0]
    assert abs(traj.times[-1] - 1e-7) < 1e-12


# x1 only grows on ENTRY_STEP, so it never enters this ball
BALL_BEHIND = (np.array([-5.0, 0.0, 0.0, 0.0, 0.0, 0.0]), 1e-7)


@pytest.mark.parametrize("steps, ball, match", [
    ([UNDERFLOW_STEP], BALL, "underflowed at t = 0.0"),
    ([ENTRY_STEP, SERIES_OVERFLOW], BALL_BEHIND, "x\\^3 overflows"),
    ([ENTRY_STEP, ENTRY_STEP, UNDERFLOW_STEP], BALL_BEHIND, "underflowed at t = 1.0"),
    ([OVERFLOW_ENTRY_STEP], BALL, "not finite at t = 100.0"),
], ids=["underflow-first", "series-overflow-before-any-entry", "underflow-before-any-entry",
        "overflow-on-entry"])
def test_failure_before_or_on_the_entry_step_raises(cfg, monkeypatch, steps, ball, match):
    # a failure that no entry precedes raises, and so does a state that is
    # not finite at the end of the entry step itself
    _stepping(monkeypatch, steps)
    with pytest.raises(FlowError, match=match):
        integrate(cfg, [0.0] * 6, (0.0, 100.0), n_samples=5, stop_near=ball)


def test_a_power_past_the_float_range_is_a_flow_error(cfg):
    # the bundled W1' = x^3 - x: (1e200)^3 is past the float range, which
    # Python's ** reports as OverflowError
    with pytest.raises(FlowError, match="x\\^3 overflows at x = 1e\\+200"):
        _taylor_coefficients(1e200, 0.0, 0.0, [0.0, -1.0, 0.0, 1.0])
    x1 = cfg.space.index("x1")
    start = [0.0] * 6
    start[x1] = 1e200
    with pytest.raises(FlowError, match="x\\^3 overflows"):
        integrate(cfg, start, (0.0, 1.0))


@st.composite
def _steps_near_a_ball(draw):
    """A step of the flow of a well a (x1^2 - b^2)^2 from near one of its
    stationary points, where it moves slowly, and a ball whose center lies
    tol (1 +- 1e-9) from the step's polynomial at some tau, tol its radius;
    half of the time the center lies about along the velocity at tau."""
    a, b = draw(st.floats(0.05, 5.0)), draw(st.floats(0.2, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x0 = b * draw(st.sampled_from([-1.0, 0.0, 1.0]))
    delta = draw(st.sampled_from([0.0, 1.0])) * 10.0 ** draw(st.floats(-14.0, -1.0))
    series = _taylor_coefficients(*(np.array([x0, 0.0, x0]) + delta * rng.normal(size=3)),
                                  [0.0, -4.0 * a * b * b, 0.0, 4.0 * a])
    top = max(abs(s[ORDER]) for s in series)
    h = min(10.0, (STEP_EPS / top) ** (1.0 / ORDER) if top else 10.0)
    h *= draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.3, 1.0))
    # a radius below how far the step moves makes the tests on pieces tight
    moved = np.linalg.norm([_horner(c, h) - c[0] for c in series])
    tol = max(moved, 1e-14) * 10.0 ** draw(st.floats(-3.0, 0.0))
    tau = h * draw(st.floats(0.0, 1.0))
    velocity = np.array([_horner([k * ck for k, ck in enumerate(c)][1:], tau) for c in series])
    u = (rng.normal(size=3) + draw(st.sampled_from([0.0, 10.0])) * velocity
         / max(np.linalg.norm(velocity), 1e-300))
    center = ([_horner(c, tau) for c in series]
              + tol * draw(st.sampled_from([1 - 1e-9, 1 + 1e-9])) * u / np.linalg.norm(u))
    return series, h, center, tol


@given(_steps_near_a_ball())
@settings(max_examples=150, deadline=None, phases=NO_SHRINK_PHASES)
def test_screen_passes_over_only_steps_without_an_entry(case):
    series, h, center, tol = case
    q = np.array(series)
    q[:, 0] -= center
    if _screened_out(q[None], np.array([h]), tol)[0]:
        start = float(np.linalg.norm(q[:, 0]))
        assert _first_entry(q, 0.0, h, tol, start > tol) == (None, True)
