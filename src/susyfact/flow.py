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

`integrate` follows nu by its Taylor series (Jorba and Zou, Exp. Math. 14
(2005) 99-117, section 3).  The orbit lies in the first block, where
x' = y, y' = -(W1'(x) + x - z), z' = z - x; the second block stays exactly
zero.  nu is polynomial, so the Taylor coefficients follow from a
recurrence, with the powers of x from Cauchy products.  Each step is a
polynomial of degree ORDER, as long as keeps its last two terms within
STEP_EPS max(1, |state|).  The steps are the dense output, and the terminal
event (the first entry into the endpoint ball) is located on their
polynomials, so a dip into the ball and out again within one step is not
missed.  Each leg's time budget follows from the linearizations at the
saddle and at the minimum.  On the bundled chain the event times are within
1.1e-9 (backward) and 3e-14 (forward) of a 40-digit Taylor integration from
the same seed; tests/test_flow.py holds the orbit to 1e-10 of a tight DOP853
solve on four double wells.  `quintic_bound_probe` runs on the same steps and
carries the increment of phi0 as one more series, integrated from
nu(phi0) = (z1 - x1)^2/alpha1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Callable, Optional, Sequence

import numpy as np
# no ODE is solved by scipy here; the name stays for perfbench/tracer.py,
# which counts solve_ivp calls through susyfact.flow.solve_ivp
from scipy.integrate import solve_ivp  # noqa: F401

from .models import ChainConfig, UnsupportedConfig, chain_phi0, chain_var
from .polyalg import Poly
from . import spectral


class FlowError(ValueError):
    pass


# ------------------------------------------------------------------ nu field

def nu_components(cfg: ChainConfig) -> list[Poly]:
    """Symbolic components of nu in the order of the chain variable space."""
    space = cfg.space
    W0 = cfg.W0()
    comps = [Poly.zero(space) for _ in range(space.n)]
    for j in range(1, 3):
        for i in range(cfg.n):
            xn, yn, zn = (chain_var(space, kind, j, i) for kind in "xyz")
            x, y, z = (Poly.var(space, nm) for nm in (xn, yn, zn))
            comps[space.index(xn)] = y
            comps[space.index(yn)] = -(W0.partial(xn) + x - z)
            comps[space.index(zn)] = cfg.gamma * (z - x)
    return comps


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


# Each step takes the Taylor series to ORDER and is as long as keeps its
# last two terms within STEP_EPS max(1, |state|) (Jorba and Zou, Exp. Math.
# 14 (2005), section 3.2).
ORDER = 24
STEP_EPS = 1e-16


@dataclass(frozen=True)
class Segments:
    """Dense output of `integrate`: on step i the first block (x1, y1, z1) is
    sum_k coef[i, :, k] (t - t0[i])^k, for t from lo[i] to the next step's
    lo; the steps are sorted by lo, and the second block is zero."""

    t0: np.ndarray
    lo: np.ndarray
    coef: np.ndarray
    index: tuple[int, ...]
    dim: int

    def __call__(self, t):
        """The state at one time, (dim,), or at k times, (dim, k)."""
        t = np.asarray(t, dtype=float)
        ts = np.atleast_1d(t)
        i = np.maximum(np.searchsorted(self.lo, ts, side="right") - 1, 0)
        tau = (ts - self.t0[i])[:, None]
        v = self.coef[i, :, ORDER]
        for k in range(ORDER - 1, -1, -1):
            v = v * tau + self.coef[i, :, k]
        out = np.zeros((self.dim, len(ts)))
        out[list(self.index)] = v.T
        return out[:, 0] if t.ndim == 0 else out

    def join(self, later: "Segments") -> "Segments":
        """These steps followed by `later`'s, which all lie at later times."""
        return Segments(np.concatenate([self.t0, later.t0]), np.concatenate([self.lo, later.lo]),
                        np.concatenate([self.coef, later.coef]), self.index, self.dim)


def _w1_prime(cfg: ChainConfig) -> Poly:
    """W1' in x1, for the regime the heteroclinic construction covers: n = 1,
    gamma = 1 and a W1' that is not constant."""
    if cfg.n != 1 or cfg.gamma != 1:
        raise UnsupportedConfig("the heteroclinic construction supports n = 1 and gamma = 1 only")
    x1 = chain_var(cfg.space, "x", 1)
    w1p = cfg.W1.partial(x1)
    if w1p.degree_in([x1]) == 0:
        raise UnsupportedConfig("the heteroclinic construction needs an h-free W1 whose "
                                "derivative is not constant")
    return w1p


def _taylor_coefficients(x: float, y: float, z: float,
                         p: list[float]) -> list[list[float]]:
    """The Taylor coefficients, orders 0..ORDER, of the solution of the
    first-block drift x' = y, y' = -(W1'(x) + x - z), z' = z - x through
    (x, y, z), with W1'(x) = sum_j p[j] x^j:

        x_{k+1} = y_k/(k+1),  y_{k+1} = -(P_k + x_k - z_k)/(k+1),
        z_{k+1} = (z_k - x_k)/(k+1),

    where P_k = sum_j p[j] (x^j)_k and the series of x^j = x x^(j-1) come
    from Cauchy products."""
    xs, ys, zs = [x], [y], [z]
    powers = [xs] + [[x ** j] for j in range(2, len(p))]  # powers[j-1] is x^j
    for k in range(ORDER):
        P = sum(pj * s[k] for pj, s in zip(p[1:], powers)) + (p[0] if k == 0 else 0.0)
        xs.append(ys[k] / (k + 1))
        ys.append(-(P + xs[k] - zs[k]) / (k + 1))
        zs.append((zs[k] - xs[k]) / (k + 1))
        for j in range(1, len(powers)):
            powers[j].append(sum(map(mul, xs, reversed(powers[j - 1]))))
    return [xs, ys, zs]


def _horner(c: Sequence[float], tau: float) -> float:
    v = c[-1]
    for ck in reversed(c[:-1]):
        v = v * tau + ck
    return v


# C(j, k) and j - k, for re-expanding a step's polynomial about other centers
_BINOMIAL = np.array([[math.comb(j, k) for k in range(ORDER + 1)] for j in range(ORDER + 1)],
                     dtype=float)
_SHIFT = np.maximum(np.subtract.outer(np.arange(ORDER + 1), np.arange(ORDER + 1)), 0)
# pieces a span is cut into when its distance from the event ball is bounded
EVENT_PIECES = 16


def _entry_time(series: list[list[float]], h: float, center: list[float],
                tol: float) -> Optional[float]:
    """The first tau between 0 and h at which the step's polynomial enters
    the ball of radius tol around center from outside, or None.  A step
    that starts farther from the ball than its polynomial can move is
    passed over."""
    q = np.array(series)
    q[:, 0] -= center
    start = float(np.linalg.norm(q[:, 0]))
    reach = np.abs(q[:, 1:]) @ np.abs(h) ** np.arange(1, ORDER + 1)
    if start - np.linalg.norm(reach) > tol:
        return None
    return _first_entry(q, 0.0, h, tol, start > tol)[0]


def _first_entry(q: np.ndarray, a: float, b: float, tol: float,
                 outside: bool) -> tuple[Optional[float], bool]:
    """The first tau from a toward b at which |q(tau)| falls to tol from
    above, given whether q(a) lies outside the ball, and whether q(b) does.
    The span is cut into EVENT_PIECES pieces and q is re-expanded about each
    piece's center, where the sum of |coefficient| r^k over the piece's
    radius r bounds how far q moves.  A piece that this keeps outside or
    inside the ball is decided; an inside piece after an outside one starts
    at the crossing.  The other pieces are searched the same way, so a dip
    into the ball and out again is found however short it is.  At float
    resolution every piece is decided by its center."""
    w = (b - a) / EVENT_PIECES
    mids = a + w * (np.arange(EVENT_PIECES) + 0.5)
    powers = np.vander(mids, ORDER + 1, increasing=True)
    local = np.einsum("rj,mjk->mrk", q, powers[:, _SHIFT] * _BINOMIAL)
    dist = np.linalg.norm(local[:, :, 0], axis=1)
    if abs(w) <= 4 * math.ulp(max(abs(a), abs(b))):
        moves = np.zeros(EVENT_PIECES)
    else:
        moves = np.linalg.norm(np.abs(local[:, :, 1:]) @ (abs(w) / 2) ** np.arange(1, ORDER + 1),
                               axis=1)
    if np.all(dist - moves > tol):
        return None, True
    for i in range(EVENT_PIECES):
        if dist[i] - moves[i] > tol:
            outside = True
        elif dist[i] + moves[i] <= tol:
            if outside:
                return a + i * w, False
        else:
            tau, outside = _first_entry(q, a + i * w, a + (i + 1) * w, tol, outside)
            if tau is not None:
                return tau, False
    return None, outside


def integrate(cfg: ChainConfig, state0: Sequence[float], t_span: tuple[float, float],
              n_samples: int = 200,
              stop_near: Optional[tuple[np.ndarray, float]] = None) -> Trajectory:
    """Taylor-series integration of nu from a state whose second block is
    zero; any other start is refused.  nu keeps that block zero, so only the
    first block is integrated, and the trajectory carries the second block
    as exact zeros.  t_span may
    run backward (t1 < t0); the trajectory always has increasing times,
    n_samples of them, and meta["dense"] is the dense output.  With
    stop_near = (point, tol) the integration ends where the state first
    enters the ball of radius tol around point's first block
    (meta["terminated_by_event"]); a stationary point's second block is
    zero, since W2 is a positive definite quadratic form."""
    space = cfg.space
    x1 = chain_var(space, "x", 1)
    w1p = _w1_prime(cfg)
    p = [0.0] * (w1p.degree_in([x1]) + 1)
    for (exps, _), c in w1p.terms.items():
        p[exps[space.index(x1)]] = float(c)
    index = tuple(space.index(chain_var(space, c, 1)) for c in "xyz")
    state0 = np.asarray(state0, dtype=float)
    if np.any(np.delete(state0, index)):
        raise UnsupportedConfig("integrate starts only from states whose second block is zero")
    if stop_near is not None:
        center, tol = [float(stop_near[0][i]) for i in index], stop_near[1]
    t0, t1 = t_span
    t, state = t0, [float(state0[i]) for i in index]
    starts, steps, coefs = [], [], []
    hit = None
    while t != t1 and hit is None:
        series = _taylor_coefficients(*state, p)
        eps = STEP_EPS * max(1.0, *map(abs, state))
        h = min([abs(t1 - t)] + [(eps / c) ** (1.0 / k) for k in (ORDER - 1, ORDER)
                                 if (c := max(abs(s[k]) for s in series))])
        t_next = t1 if h == abs(t1 - t) else t + math.copysign(h, t1 - t)
        if t_next == t:
            raise FlowError(f"integration failed: the step size underflowed at t = {t}")
        h = t_next - t
        if stop_near is not None:
            tau = _entry_time(series, h, center, tol)
            if tau is not None:
                hit = t + tau
        starts.append(t)
        steps.append(h)
        coefs.append(series)
        state = [_horner(c, h) for c in series]
        if not all(map(math.isfinite, state)):
            raise FlowError(f"integration failed: the state is not finite at t = {t_next}")
        t = t_next
    t_starts, t_steps = np.array(starts), np.array(steps)
    order = slice(None) if t1 >= t0 else slice(None, None, -1)
    dense = Segments(t_starts[order], np.minimum(t_starts, t_starts + t_steps)[order],
                     np.array(coefs)[order], index, space.n)
    ts = np.linspace(t0, t1 if hit is None else hit, n_samples)
    ys = dense(ts).T
    if ts[0] > ts[-1]:
        ts, ys = ts[::-1], ys[::-1]
    meta = {"terminated_by_event": hit is not None, "dense": dense}
    return Trajectory(ts, ys, meta)


# --------------------------------------------------------------- heteroclinic

# the shooting budget is this multiple of the time the linearizations give
BUDGET_SAFETY = 2.0


def _saddle_and_targets(cfg: ChainConfig) -> tuple[np.ndarray, np.ndarray, float,
                                                    list[tuple[float, np.ndarray, float]]]:
    """The saddle among the stationary points, the unit stable eigenvector of
    its linearization, mu1, and the shooting targets: (sign, minimum, rate)
    for the nearest minimum on each side of the saddle in x1, the side of
    increasing x1 first, where rate is the smallest real part of the
    eigenvalues at the minimum.  W2 is positive definite, so each point is
    classified by the root triple of W1'' at its x1."""
    space = cfg.space
    x1 = chain_var(space, "x", 1)
    ix1 = space.index(x1)
    w1pp = _w1_prime(cfg).partial(x1)
    saddles, minima = [], []
    for pt in stationary_points(cfg):
        w = w1pp.evaluate(dict(zip(space.names, pt)))
        cls = spectral.classify_roots(w)
        if cls == "one_negative":
            saddles.append((pt, w))
        elif cls == "all_re_positive":
            minima.append((pt, w))
    if len(saddles) != 1:
        raise UnsupportedConfig(
            f"W1 has {len(saddles)} saddles; the heteroclinic construction supports "
            "a first chain with exactly one saddle (a double well)")
    ((saddle, w),) = saddles
    lam = spectral.cubic_roots(w)[0].real
    vec = np.zeros(space.n)
    vec[[space.index(chain_var(space, c, 1)) for c in "xyz"]] = spectral.eigenvector(lam)
    vec /= np.linalg.norm(vec)
    targets = []
    for sign in (+1.0, -1.0):
        side = [(p, wm) for p, wm in minima if sign * (p[ix1] - saddle[ix1]) > 0]
        if side:
            p, wm = min(side, key=lambda m: abs(m[0][ix1] - saddle[ix1]))
            targets.append((sign, p, spectral.cubic_roots(wm)[0].real))
    if not targets:
        raise UnsupportedConfig("W1 has no minimum on either side of its saddle; the "
                                "heteroclinic construction needs a well")
    return saddle, vec, -lam, targets


def heteroclinic_x1_range(cfg: ChainConfig) -> tuple[float, float]:
    """x1 at the saddle and at the minimum `heteroclinic_gamma1` shoots for
    first, from the stationary points alone."""
    saddle, _, _, targets = _saddle_and_targets(cfg)
    ix1 = cfg.space.index(chain_var(cfg.space, "x", 1))
    return float(saddle[ix1]), float(targets[0][1][ix1])


def heteroclinic_gamma1(cfg: ChainConfig, endpoint_tol: float = 1e-7) -> Trajectory:
    """The connecting orbit from a well minimum (t -> -inf) to the saddle
    (t -> +inf), parametrized with t = 0 at the shooting seed near the
    saddle.  The seed is tried on the side of increasing x1 first; each side
    targets its nearest minimum.  Endpoint residuals are recorded in meta and
    enforced.

    Each leg is given up after BUDGET_SAFETY times the time the
    linearizations give.  Backward: ln(d/eps)/mu1 to leave the saddle from
    the seed at distance eps, plus ln(d/tol)/rate to close in on the minimum
    at the smallest real part `rate` of its eigenvalues, with d = |minimum -
    saddle| and tol = endpoint_tol, but no smaller than the integrator's
    error scale STEP_EPS max(1, |minimum|), below which the orbit cannot
    close in.  Forward: ln(eps/endpoint_tol)/mu1 to close in on the saddle;
    a seed already within endpoint_tol of the saddle never enters the ball."""
    saddle, stable, mu1, targets = _saddle_and_targets(cfg)
    phi0_fn = chain_phi0(cfg).compiled()

    for sign, minimum, rate in targets:
        d = float(np.linalg.norm(minimum - saddle))
        eps = 1e-6 * d
        seed = saddle + sign * eps * stable
        tol = max(endpoint_tol, STEP_EPS * max(1.0, float(np.linalg.norm(minimum))))
        budgets = (BUDGET_SAFETY * (math.log(d / eps) / mu1 + max(math.log(d / tol), 0.0) / rate),
                   BUDGET_SAFETY * math.log(eps / endpoint_tol) / mu1)
        try:
            traj = _shoot(cfg, seed, saddle, minimum, endpoint_tol, budgets)
        except FlowError as e:
            last_error = e
            continue
        # the orbit must stay in the well of the minimum: phi0 below its saddle value
        if phi0_fn(traj.states[0]) > phi0_fn(traj.states[-1]):
            last_error = FlowError("seed fell on the wrong side of the saddle")
            continue
        traj.meta["mu1"] = mu1
        return traj
    raise last_error


def _shoot(cfg, seed, saddle, minimum, tol, budgets) -> Trajectory:
    """Both legs from the seed, each sampled at 400 times and given up
    after its budget of time units, (backward, forward)."""
    back = integrate(cfg, seed, (0.0, -budgets[0]), n_samples=400, stop_near=(minimum, tol))
    if not back.meta["terminated_by_event"]:
        raise FlowError("backward orbit did not reach the minimum within budget")
    if budgets[1] <= 0:
        raise FlowError("forward orbit did not reach the saddle: the seed lies within "
                        "endpoint_tol of it")
    fwd = integrate(cfg, seed, (0.0, budgets[1]), n_samples=400, stop_near=(saddle, tol))
    if not fwd.meta["terminated_by_event"]:
        raise FlowError("forward orbit did not reach the saddle within budget")
    ts = np.concatenate([back.times[:-1], fwd.times])
    ys = np.concatenate([back.states[:-1], fwd.states])
    meta = {"endpoint_residual_minimum": float(np.linalg.norm(ys[0] - minimum)),
            "endpoint_residual_saddle": float(np.linalg.norm(ys[-1] - saddle)),
            "dense": back.meta["dense"].join(fwd.meta["dense"])}
    return Trajectory(ts, ys, meta)


def gamma1_interpolant(traj: Trajectory) -> Callable[[np.ndarray], np.ndarray]:
    """Continuous state as a function of the trajectory's own time variable,
    clamped to its time range: a (dim,) array at one time, (dim, k) at k."""
    dense = traj.meta["dense"]
    return lambda t: dense(np.clip(t, traj.times[0], traj.times[-1]))


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
        raise UnsupportedConfig("the cascade identities are implemented for gamma = 1")
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

PROBE_T_MAX = 0.5
PROBE_SAMPLES = 60


def quintic_bound_probe(cfg: ChainConfig, points: Sequence[Sequence[float]]) -> list[dict]:
    """For each start point, integrate the flow and the Lyapunov increment
    Delta(t) = phi0(exp(t nu) x) - phi0(x), assert Delta > 0, and fit the
    leading power law on the first samples: slope near 1 at generic points,
    3 on {z=x, y!=0}, 5 on {z=x, y=0, dW0!=0}.

    Delta' = nu(phi0) = (z1 - x1)^2/alpha1 on the first block (gamma = 1),
    so on each step of `integrate` Delta's series is the term-by-term
    integral of the Cauchy square of the series of z1 - x1, plus the
    increments of the earlier steps.  At the degenerate points its leading
    coefficients nu^k(phi0)(x)/k! come without cancellation, so Delta is
    resolved at every sample time, down to ~1e-22 at t = 1e-4 on {z = x,
    y = 0}.  Any Delta <= 0 is a numerical failure."""
    ts = np.geomspace(1e-4, PROBE_T_MAX, PROBE_SAMPLES)
    out = []
    for point in points:
        # cascade_check refuses gamma != 1, and integrate refuses n != 1 and a
        # nonzero second block, before any step
        case = cascade_check(cfg, point).case
        dense = integrate(cfg, point, (0.0, PROBE_T_MAX)).meta["dense"]
        zx = dense.coef[:, 2] - dense.coef[:, 0]
        coef = np.zeros((len(zx), 1, ORDER + 1))
        coef[:, 0, 1:] = ([np.convolve(c, c)[:ORDER] for c in zx]
                          / (float(cfg.alpha1) * np.arange(1, ORDER + 1)))
        for i in range(1, len(zx)):
            coef[i, 0, 0] = _horner(coef[i - 1, 0], dense.t0[i] - dense.t0[i - 1])
        deltas = Segments(dense.t0, dense.lo, coef, (0,), 1)(ts)[0]
        if np.any(deltas <= 0):
            raise FlowError(f"Lyapunov increment non-positive at t={ts[deltas <= 0][0]} "
                            f"from {point}")
        fit = ts <= 4.5 * ts[0]
        slope = np.polyfit(np.log(ts[fit]), np.log(deltas[fit]), 1)[0]
        out.append({"point": [float(v) for v in point], "case": case,
                    "slope": float(slope), "C_witness": float(np.max(ts ** 5 / deltas)),
                    "min_delta": float(np.min(deltas))})
    return out
