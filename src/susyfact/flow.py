"""The drift flow of the chain and the heteroclinic orbit it carries.

The relevant vector field is the characteristic drift of the decoupled chain,

    nu = y . d_x - (d W0 + x - z) . d_y + gamma (z - x) . d_z,

whose stationary points are (x0, 0, x0) with d W0(x0) = 0.  The phase phi0
is a Lyapunov function: nu(phi0) = gamma sum_j (z_j - x_j)^2 / alpha_j >= 0,
and iterated derivatives nu^k(phi0) control the degenerate directions --
vanishing through order 2 on {z = x, y != 0} with nu^3(phi0) > 0 there, and
through order 4 on {z = x, y = 0, dW0 != 0} with nu^5(phi0) > 0, which gives
the quintic lower bound phi0(exp(t nu) x) - phi0(x) >= t^5 / C.

The heteroclinic orbit gamma1 from the well minimum (t -> -infinity) to the
saddle (t -> +infinity) is computed by shooting backward from the saddle
along its stable eigendirection; both endpoints are verified a posteriori.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .models import ChainConfig, UnsupportedConfig, chain_phi0, chain_var
from .polyalg import Poly
from . import spectral


class FlowError(ValueError):
    pass


RTOL = 1e-10
ATOL = 1e-12


# ------------------------------------------------------------------ nu field

def nu_components(cfg: ChainConfig) -> list[Poly]:
    """Symbolic components of nu in the order of the chain variable space."""
    space = cfg.space
    W0 = cfg.W0()
    comps = [Poly.zero(space) for _ in range(space.n)]
    for j in range(1, 3):
        for i in range(cfg.n):
            xn = chain_var(space, "x", j, i)
            yn = chain_var(space, "y", j, i)
            zn = chain_var(space, "z", j, i)
            x, y, z = (Poly.var(space, nm) for nm in (xn, yn, zn))
            comps[space.index(xn)] = y
            comps[space.index(yn)] = -(W0.partial(xn) + x - z)
            comps[space.index(zn)] = cfg.gamma * (z - x)
    return comps


def nu_field(cfg: ChainConfig) -> tuple[list[Poly], Callable[[float, np.ndarray], np.ndarray]]:
    """The drift as exact polynomials and as a numeric right-hand side."""
    comps = nu_components(cfg)
    fns = [p.compiled() for p in comps]

    def rhs(t, state):
        return np.array([f(state) for f in fns])

    return comps, rhs


def nu_apply(cfg: ChainConfig, p: Poly) -> Poly:
    """Directional derivative nu(p), exactly."""
    comps = nu_components(cfg)
    out = Poly.zero(cfg.space)
    for comp, name in zip(comps, cfg.space.names):
        out = out + comp * p.partial(name)
    return out


def nu_iterates(cfg: ChainConfig, p: Poly, order: int) -> list[Poly]:
    """[nu(p), nu^2(p), ..., nu^order(p)], exactly."""
    out = []
    cur = p
    for _ in range(order):
        cur = nu_apply(cfg, cur)
        out.append(cur)
    return out


def stationary_points(cfg: ChainConfig) -> list[np.ndarray]:
    """All stationary states (x0, 0, x0) of nu for the separable W0."""
    space = cfg.space
    xvars = [chain_var(space, "x", j, i) for j in (1, 2) for i in range(cfg.n)]
    pts = spectral.critical_points(cfg.W0(), xvars)
    out = []
    for pt in pts:
        state = np.zeros(space.n)
        for (j, i), val in zip(((j, i) for j in (1, 2) for i in range(cfg.n)), pt):
            state[space.index(chain_var(space, "x", j, i))] = val
            state[space.index(chain_var(space, "z", j, i))] = val
        out.append(state)
    return out


# ---------------------------------------------------------------- trajectory

@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise FlowError("times and states length mismatch")
        if np.any(np.diff(self.times) <= 0):
            raise FlowError("times must be strictly increasing")

    def to_csv(self, names: Sequence[str], phi0_fn=None) -> str:
        header = ["t"] + list(names) + (["phi0"] if phi0_fn else [])
        lines = [",".join(header)]
        for t, s in zip(self.times, self.states):
            row = [format(float(t), ".17g")] + [format(float(v), ".17g") for v in s]
            if phi0_fn:
                row.append(format(float(phi0_fn(s)), ".17g"))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def integrate(rhs, state0: Sequence[float], t_span: tuple[float, float],
              n_samples: int = 200, events=None, rtol: float = RTOL,
              atol: float = ATOL) -> Trajectory:
    """Adaptive high-order integration with dense sampling.  t_span may run
    backward (t1 < t0); the returned trajectory always has increasing times."""
    t0, t1 = t_span
    sol = solve_ivp(rhs, (t0, t1), np.asarray(state0, dtype=float), method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True, events=events)
    if not sol.success and sol.status != 1:
        raise FlowError(f"integration failed: {sol.message}; last state {sol.y[:, -1]}")
    t_end = sol.t[-1]
    ts = np.linspace(t0, t_end, n_samples)
    ys = sol.sol(ts).T
    if ts[0] > ts[-1]:
        ts, ys = ts[::-1], ys[::-1]
    meta = {"terminated_by_event": sol.status == 1, "sol": sol.sol}
    return Trajectory(ts, ys, meta)


# --------------------------------------------------------------- heteroclinic

def _saddle_and_targets(cfg: ChainConfig) -> tuple[np.ndarray, np.ndarray, float,
                                                    list[tuple[float, np.ndarray]]]:
    """The saddle among the stationary points, the unit stable eigenvector of
    its linearization, mu1, and the shooting targets: (sign, minimum) for
    the nearest minimum on each side of the saddle in x1, the side of
    increasing x1 first.  W2 is positive definite, so each point is
    classified by the root triple of W1'' at its x1."""
    if cfg.n != 1 or cfg.gamma != 1:
        raise UnsupportedConfig("the heteroclinic construction supports n = 1 and gamma = 1 only")
    space = cfg.space
    x1 = chain_var(space, "x", 1)
    ix1 = space.index(x1)
    w1pp = cfg.W1.partial(x1).partial(x1)
    saddles, minima = [], []
    for pt in stationary_points(cfg):
        w = w1pp.evaluate(dict(zip(space.names, pt)))
        cls = spectral.classify_roots(w)
        if cls == "one_negative":
            saddles.append((pt, w))
        elif cls == "all_re_positive":
            minima.append(pt)
    if len(saddles) != 1:
        raise UnsupportedConfig(
            f"W1 has {len(saddles)} saddles; the heteroclinic construction supports "
            "a first chain with exactly one saddle (a double well)")
    ((saddle, w),) = saddles
    lam = spectral.cubic_roots(w)[0].real
    # eigenvector structure (x, lambda x, x / (1 - lambda)) within the w1 block
    vec = np.zeros(space.n)
    vec[ix1] = 1.0
    vec[space.index(chain_var(space, "y", 1))] = lam
    vec[space.index(chain_var(space, "z", 1))] = 1.0 / (1.0 - lam)
    vec /= np.linalg.norm(vec)
    targets = []
    for sign in (+1.0, -1.0):
        side = [p for p in minima if sign * (p[ix1] - saddle[ix1]) > 0]
        if side:
            targets.append((sign, min(side, key=lambda p: abs(p[ix1] - saddle[ix1]))))
    return saddle, vec, -lam, targets


def heteroclinic_x1_range(cfg: ChainConfig) -> tuple[float, float]:
    """x1 at the saddle and at the minimum `heteroclinic_gamma1` shoots for
    first, from the stationary points alone."""
    saddle, _, _, targets = _saddle_and_targets(cfg)
    if not targets:
        raise FlowError("no minimum on either side of the saddle")
    ix1 = cfg.space.index(chain_var(cfg.space, "x", 1))
    return float(saddle[ix1]), float(targets[0][1][ix1])


def heteroclinic_gamma1(cfg: ChainConfig, endpoint_tol: float = 1e-7,
                        time_budget: float = 400.0, n_samples: int = 400) -> Trajectory:
    """The connecting orbit from a well minimum (t -> -inf) to the saddle
    (t -> +inf), parametrized with t = 0 at the shooting seed near the
    saddle.  The seed is tried on the side of increasing x1 first; each side
    targets its nearest minimum.  Endpoint residuals are recorded in meta and
    enforced."""
    saddle, stable, mu1, targets = _saddle_and_targets(cfg)
    _, rhs = nu_field(cfg)
    phi0_fn = chain_phi0(cfg).compiled()

    last_error = FlowError("no minimum on either side of the saddle")
    for sign, minimum in targets:
        eps = 1e-6 * float(np.linalg.norm(minimum - saddle))
        seed = saddle + sign * eps * stable
        try:
            traj = _shoot(rhs, seed, saddle, minimum, endpoint_tol, time_budget, n_samples)
        except FlowError as e:
            last_error = e
            continue
        # the orbit must stay in the well of the minimum: phi0 below its saddle value
        phis = np.array([phi0_fn(s) for s in traj.states])
        if phis[0] > phis[-1]:
            last_error = FlowError("seed fell on the wrong side of the saddle")
            continue
        traj.meta["mu1"] = mu1
        return traj
    raise last_error


def _shoot(rhs, seed, saddle, minimum, tol, budget, n_samples) -> Trajectory:
    def near_minimum(t, s):
        return np.linalg.norm(s - minimum) - tol
    near_minimum.terminal = True
    near_minimum.direction = -1

    def near_saddle(t, s):
        return np.linalg.norm(s - saddle) - tol
    near_saddle.terminal = True
    near_saddle.direction = -1

    back = integrate(rhs, seed, (0.0, -budget), n_samples=n_samples,
                     events=near_minimum)
    if not back.meta["terminated_by_event"]:
        raise FlowError("backward orbit did not reach the minimum within budget")
    fwd = integrate(rhs, seed, (0.0, budget), n_samples=n_samples,
                    events=near_saddle)
    if not fwd.meta["terminated_by_event"]:
        raise FlowError("forward orbit did not reach the saddle within budget")
    ts = np.concatenate([back.times[:-1], fwd.times])
    ys = np.concatenate([back.states[:-1], fwd.states])
    meta = {"endpoint_residual_minimum": float(np.linalg.norm(ys[0] - minimum)),
            "endpoint_residual_saddle": float(np.linalg.norm(ys[-1] - saddle)),
            "sol_backward": back.meta["sol"], "sol_forward": fwd.meta["sol"]}
    return Trajectory(ts, ys, meta)


def gamma1_interpolant(traj: Trajectory) -> Callable[[np.ndarray], np.ndarray]:
    """Continuous state as a function of the trajectory's own time variable,
    clamped to its time range: a (dim,) array at one time, (dim, k) at k."""
    sb, sf = traj.meta["sol_backward"], traj.meta["sol_forward"]

    def state(t):
        t = np.clip(t, traj.times[0], traj.times[-1])
        return np.where(t <= 0, sb(np.minimum(t, 0.0)), sf(np.maximum(t, 0.0)))

    return state


def lyapunov_report(cfg: ChainConfig, traj: Trajectory) -> dict:
    """Monotonicity of phi0 along a trajectory.  phi0 is strictly increasing
    along the heteroclinic, but near the endpoints the increments fall below
    double-precision resolution, so the report distinguishes resolvable
    increments (which must all be strictly positive) from round-off noise
    (which must stay above -5e-13)."""
    phi0_fn = chain_phi0(cfg).compiled()
    phis = np.array([phi0_fn(s) for s in traj.states])
    inc = np.diff(phis)
    resolvable = inc[np.abs(inc) > 1e-12]
    return {
        "phi0_start": float(phis[0]),
        "phi0_end": float(phis[-1]),
        "min_increment": float(np.min(inc)),
        "resolvable_all_positive": bool(np.all(resolvable > 0)) if len(resolvable) else True,
        "no_decrease_beyond_roundoff": bool(np.all(inc > -5e-13)),
        "strictly_increasing": bool(np.all(resolvable > 0) and np.all(inc > -5e-13)
                                    and phis[-1] > phis[0]),
    }


# -------------------------------------------------------------------- cascade

@dataclass(frozen=True)
class CascadeReport:
    point: tuple[float, ...]
    values: tuple[float, ...]  # nu^k(phi0) at the point, k = 1..5
    case: str  # generic | y_nonzero_degenerate | fully_degenerate


def cascade_check(cfg: ChainConfig, point: Sequence[float]) -> CascadeReport:
    """Classify a point and evaluate the derivative cascade nu^k(phi0)."""
    if cfg.gamma != 1:
        raise FlowError("the cascade identities are implemented for gamma = 1")
    space = cfg.space
    phi0 = chain_phi0(cfg)
    iterates = nu_iterates(cfg, phi0, 5)
    pt = {name: float(v) for name, v in zip(space.names, point)}
    values = tuple(p.evaluate(pt) for p in iterates)
    zx = max(abs(pt[chain_var(space, "z", j, i)] - pt[chain_var(space, "x", j, i)])
             for j in (1, 2) for i in range(cfg.n))
    ynorm = max(abs(pt[chain_var(space, "y", j, i)]) for j in (1, 2) for i in range(cfg.n))
    if zx > 1e-12:
        case = "generic"
    elif ynorm > 1e-12:
        case = "y_nonzero_degenerate"
    else:
        case = "fully_degenerate"
    return CascadeReport(tuple(float(v) for v in point), values, case)


# ------------------------------------------------------------- quintic probe

def quintic_bound_probe(cfg: ChainConfig, points: Sequence[Sequence[float]],
                        t_max: float = 0.5, n_samples: int = 60) -> list[dict]:
    """For each start point, integrate the flow with the Lyapunov increment
    Delta(t) = phi0(exp(t nu) x) - phi0(x) carried as an exact quadrature
    variable, assert positivity, and fit the leading power law: slope near
    1 at generic points, 3 on {z=x, y!=0}, 5 on {z=x, y=0, dW0!=0}."""
    comps, rhs = nu_field(cfg)
    nu_phi0 = nu_apply(cfg, chain_phi0(cfg)).compiled()

    def rhs_aug(t, s):
        core = rhs(t, s[:-1])
        return np.append(core, nu_phi0(s[:-1]))

    out = []
    for point in points:
        state0 = np.append(np.asarray(point, dtype=float), 0.0)
        sol = solve_ivp(rhs_aug, (0.0, t_max), state0, method="DOP853",
                        rtol=1e-12, atol=1e-16, dense_output=True)
        if not sol.success:
            raise FlowError(f"probe integration failed at {point}")
        ts = np.geomspace(1e-4, t_max, n_samples)
        deltas = np.array([sol.sol(t)[-1] for t in ts])
        usable = ts[deltas >= 1e-10]
        if len(usable) == 0:
            raise FlowError(f"increment below round-off everywhere from {point}")
        t0 = usable[0]
        # before t0 the increment (~t^5 / C at degenerate points) is below
        # what the integrator resolves, so there it need only stay above -atol
        resolvable = ts >= t0
        bad = ts[(resolvable & (deltas <= 0)) | (deltas <= -1e-16)]
        if len(bad):
            raise FlowError(f"Lyapunov increment non-positive at t={bad[0]} from {point}")
        # fit on the smallest window where the increment is above round-off
        mask = resolvable & (ts <= min(4.5 * t0, t_max))
        slope = np.polyfit(np.log(ts[mask]), np.log(deltas[mask]), 1)[0]
        case = cascade_check(cfg, point).case
        C_witness = float(np.max(ts[resolvable] ** 5 / deltas[resolvable]))
        out.append({"point": [float(v) for v in point], "case": case,
                    "slope": float(slope), "C_witness": C_witness,
                    "min_delta": float(np.min(deltas))})
    return out
