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
missed.  The search runs on SCREEN_CHUNK steps at a time: one vectorized
screen re-expands their polynomials about the EVENT_PIECES piece centers
of the search and passes over each step that stays outside the ball on
every piece, by SCREEN_MARGIN; the others are searched in order, and the
first entry drops the steps after it.  The orbit is thus bit-identical to a
search of every step.  Each leg's time budget follows from the
linearizations at the saddle and at the minimum.  On the bundled chain the
event times are within 1.1e-9 (backward) and 3e-14 (forward) of a 40-digit
Taylor integration from the same seed; tests/test_flow.py holds the orbit
to 1e-10 of a tight DOP853 solve on four double wells.  `lyapunov_report`
and `quintic_bound_probe` take the increase of phi0 along the same steps
from `phi0_gains`, which integrates the identity nu(phi0) =
(z1 - x1)^2/alpha1 on them.
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
    return nu_iterates(cfg, p, 1)[0]


def nu_iterates(cfg: ChainConfig, p: Poly, order: int) -> list[Poly]:
    """[nu(p), nu^2(p), ..., nu^order(p)], exactly."""
    comps = nu_components(cfg)
    out = [p]
    for _ in range(order):
        out.append(sum((comp * out[-1].partial(name) for comp, name in zip(comps, cfg.space.names)),
                       Poly.zero(cfg.space)))
    return out[1:]


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
# times whose steps `Segments` evaluates together
GATHER_BLOCK = 256


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
        out = np.zeros((self.dim, len(ts)))
        rows = list(self.index)
        # the steps' coefficients are gathered GATHER_BLOCK times at a time,
        # so that a long scan makes no (k, 3, ORDER + 1) temporary, and
        # order first, so that each Horner step reads contiguous memory
        for b in range(0, len(ts), GATHER_BLOCK):
            c = self.coef[i[b:b + GATHER_BLOCK]].transpose(2, 0, 1).copy()
            v = c[ORDER]
            for k in range(ORDER - 1, -1, -1):
                v = v * tau[b:b + GATHER_BLOCK] + c[k]
            out[rows, b:b + GATHER_BLOCK] = v.T
        return out[:, 0] if t.ndim == 0 else out

    def join(self, later: "Segments") -> "Segments":
        """These steps followed by `later`'s, which all lie at later times."""
        return Segments(np.concatenate([self.t0, later.t0]), np.concatenate([self.lo, later.lo]),
                        np.concatenate([self.coef, later.coef]), self.index, self.dim)


def _w1_prime(cfg: ChainConfig) -> list[Fraction]:
    """W1''s exact coefficients by ascending power of x1, for the regime the
    heteroclinic construction covers: n = 1, gamma = 1, a W1' that is not
    constant, and no alpha or nonzero coefficient of W1 or W2 whose float
    overflows or rounds to 0."""
    if cfg.n != 1 or cfg.gamma != 1:
        raise UnsupportedConfig("the heteroclinic construction supports n = 1 and gamma = 1 only")
    for name, key, c in [("alpha1", None, cfg.alpha1), ("alpha2", None, cfg.alpha2)] + [
            (name, key, c) for name in ("W1", "W2") for key, c in getattr(cfg, name).terms.items()]:
        try:
            fails = "rounds to 0" if float(c) == 0 else ""
        except OverflowError:
            fails = "overflows"
        if fails:
            term = "" if key is None else f"the coefficient of {Poly(cfg.space, {key: 1})} in "
            raise UnsupportedConfig(f"{term}{name} {fails} as a float; the flow computes in floats")
    ix1 = cfg.space.index(chain_var(cfg.space, "x", 1))
    W1 = {exps[ix1]: c for (exps, _), c in cfg.W1.terms.items()}
    a = [e * W1.get(e, Fraction(0)) for e in range(1, max(W1, default=0) + 1)]
    if len(a) < 2:
        raise UnsupportedConfig("the heteroclinic construction needs an h-free W1 whose "
                                "derivative is not constant")
    return a


def _taylor_coefficients(x: float, y: float, z: float,
                         p: list[float]) -> list[list[float]]:
    """The Taylor coefficients, orders 0..ORDER, of the solution of the
    first-block drift x' = y, y' = -(W1'(x) + x - z), z' = z - x through
    (x, y, z), with W1'(x) = sum_j p[j] x^j:

        x_{k+1} = y_k/(k+1),  y_{k+1} = -(P_k + x_k - z_k)/(k+1),
        z_{k+1} = (z_k - x_k)/(k+1),

    where P_k = sum_j p[j] (x^j)_k and the series of x^j = x x^(j-1) come
    from Cauchy products.  A power of x past the float range is a FlowError."""
    xs, ys, zs = [x], [y], [z]
    try:
        powers = [xs] + [[x ** j] for j in range(2, len(p))]  # powers[j-1] is x^j
    except OverflowError:
        raise FlowError(f"integration failed: x^{len(p) - 1} overflows at x = {x}") from None
    terms = list(zip(p[1:], powers))
    products = [(hi.append, lo) for hi, lo in zip(powers[1:], powers)]  # x^j = x x^(j-1)
    x_add, y_add, z_add = xs.append, ys.append, zs.append
    for k in range(ORDER):
        P = 0.0
        for pj, s in terms:
            P += pj * s[k]
        if k == 0:
            P += p[0]
        xk, zk = xs[k], zs[k]
        x_add(ys[k] / (k + 1))
        y_add(-(P + xk - zk) / (k + 1))
        z_add((zk - xk) / (k + 1))
        for add, lo in products:
            add(sum(map(mul, xs, reversed(lo))))
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
# steps taken before their event search, which screens them all at once
SCREEN_CHUNK = 8
# a step's polynomial in s = tau/h, re-expanded about the piece centers
# s_m = (m + 1/2)/EVENT_PIECES: coefficient k at s_m is
# sum_j c_j C(j, k) s_m^(j - k) = (c @ _PIECE_SHIFT)[m (ORDER + 1) + k]
_PIECE_SHIFT = (((np.arange(EVENT_PIECES)[:, None, None] + 0.5) / EVENT_PIECES) ** _SHIFT
                * _BINOMIAL).transpose(1, 0, 2).reshape(ORDER + 1, -1)
# the pieces' radius 1/(2 EVENT_PIECES) to the powers 1..ORDER
_PIECE_REACH = (0.5 / EVENT_PIECES) ** np.arange(1, ORDER + 1)
# how much stricter the screen's test is than `_first_entry`'s, relative to
# the sum of |coefficient| h^k of the step, which bounds every term of both:
# their results differed by at most 2 ulps of that sum on 20000 random steps
SCREEN_MARGIN = 1e-12


def _screened_out(q: np.ndarray, h: np.ndarray, tol: float) -> np.ndarray:
    """For steps of lengths h whose polynomials q, (steps, 3, ORDER + 1),
    are taken about the center of a ball of radius tol: whether each stays
    outside the ball on all of its EVENT_PIECES pieces, by SCREEN_MARGIN.
    This is `_first_entry`'s first test on [0, h], in s = tau/h and for all
    the steps at once, so a step it passes over has no entry."""
    c = q * h[:, None, None] ** np.arange(ORDER + 1)
    local = (c.reshape(-1, ORDER + 1) @ _PIECE_SHIFT).reshape(len(h), 3, EVENT_PIECES, ORDER + 1)
    dist = np.linalg.norm(local[..., 0], axis=1)
    moves = np.linalg.norm(np.abs(local[..., 1:]) @ _PIECE_REACH, axis=1)
    margin = SCREEN_MARGIN * np.abs(c).sum(axis=(1, 2))
    return np.all(dist - moves > tol + margin[:, None], axis=1)


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
    """Taylor-series integration of nu from a finite state whose second
    block is zero; any other start is refused before any step.  nu keeps
    that block zero, so only the first block is integrated, and the
    trajectory carries the second block as exact zeros.  t_span may
    run backward (t1 < t0); the trajectory always has increasing times,
    n_samples of them, and meta["dense"] is the dense output.  With
    stop_near = (point, tol) the integration ends where the state first
    enters the ball of radius tol around point's first block
    (meta["terminated_by_event"]); a stationary point's second block is
    zero, since W2 is a positive definite quadratic form."""
    space = cfg.space
    p = [float(c) for c in _w1_prime(cfg)]
    index = tuple(space.index(chain_var(space, c, 1)) for c in "xyz")
    state0 = np.asarray(state0, dtype=float)
    if not np.all(np.isfinite(state0)):
        raise UnsupportedConfig(f"integrate starts only from a finite state, not {state0.tolist()}")
    if np.any(np.delete(state0, index)):
        raise UnsupportedConfig("integrate starts only from states whose second block is zero")
    if stop_near is not None:
        center, tol = [float(stop_near[0][i]) for i in index], stop_near[1]
    t0, t1 = t_span
    t, state = t0, [float(state0[i]) for i in index]
    starts, steps, coefs = [], [], []
    hit = None
    while t != t1 and hit is None:
        # up to SCREEN_CHUNK steps, from index `first`; those before `done`
        # end finite
        first = done = len(starts)
        failure = None
        while done - first < SCREEN_CHUNK and t != t1:
            try:
                series = _taylor_coefficients(*state, p)
            except FlowError as e:
                failure = e
                break
            eps = STEP_EPS * max(1.0, *map(abs, state))
            h = min([abs(t1 - t)] + [(eps / c) ** (1.0 / k) for k in (ORDER - 1, ORDER)
                                     if (c := max(abs(s[k]) for s in series))])
            t_next = t1 if h == abs(t1 - t) else t + math.copysign(h, t1 - t)
            if t_next == t:
                failure = FlowError(f"integration failed: the step size underflowed at t = {t}")
                break
            h = t_next - t
            starts.append(t)
            steps.append(h)
            coefs.append(series)
            state = [_horner(c, h) for c in series]
            if not all(map(math.isfinite, state)):
                failure = FlowError(f"integration failed: the state is not finite at t = {t_next}")
                break
            done += 1
            t = t_next
        # the finite steps are searched in order, but for those the screen
        # passes over; a failure after them raises only if none holds the entry
        if stop_near is not None and done > first:
            q = np.array(coefs[first:done])
            q[:, :, 0] -= center
            passed = _screened_out(q, np.array(steps[first:done]), tol)
            for j in np.flatnonzero(~passed):
                i = first + j
                tau = _first_entry(q[j], 0.0, steps[i], tol, np.linalg.norm(q[j, :, 0]) > tol)[0]
                if tau is not None:
                    hit = starts[i] + tau
                    del starts[i + 1:], steps[i + 1:], coefs[i + 1:]
                    break
        if failure is not None and hit is None:
            raise failure
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
    eigenvalues at the minimum.  W2 is positive definite, so the stationary
    points are (r, 0, r, 0, 0, 0) for the real roots r of W1', and each is
    classified by the root triple of W1''(r)."""
    space = cfg.space
    ix1 = space.index(chain_var(space, "x", 1))
    w1p = _w1_prime(cfg)
    w1pp = [(float(e * c), e - 1) for e, c in enumerate(w1p) if e and c]
    saddles, minima = [], []
    for r in spectral.real_roots(w1p):
        pt = np.zeros(space.n)
        pt[[ix1, space.index(chain_var(space, "z", 1))]] = r
        w = sum(c * float(r) ** e for c, e in w1pp)
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
    a seed already within endpoint_tol of the saddle never enters the ball,
    so it is refused before either leg."""
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
            if budgets[1] <= 0:
                raise FlowError("forward orbit did not reach the saddle: the seed lies within "
                                "endpoint_tol of it")
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


def phi0_gains(cfg: ChainConfig, dense: Segments, edges: np.ndarray) -> np.ndarray:
    """The increase of phi0 between consecutive edges (increasing times in
    the dense output's range): the integral of nu(phi0) = (z1 - x1)^2/alpha1
    (gamma = 1, second block zero), whose series on each step is the full
    Cauchy square, of degree 2 ORDER, of z1 - x1's.  Each interval is cut at
    the step boundaries, and each piece is evaluated on its own step's
    polynomial."""
    zx = dense.coef[:, 2] - dense.coef[:, 0]
    integral = np.zeros((len(zx), 2 * ORDER + 2))
    for k in range(2 * ORDER + 1):
        lo, hi = max(0, k - ORDER), min(k, ORDER)
        integral[:, k + 1] = np.einsum("ij,ij->i", zx[:, lo:hi + 1],
                                       zx[:, k - lo::-1][:, :hi - lo + 1])
    integral[:, 1:] /= float(cfg.alpha1) * np.arange(1, 2 * ORDER + 2)
    cuts = np.union1d(edges, dense.lo[(dense.lo > edges[0]) & (dense.lo < edges[-1])])
    step = np.searchsorted(dense.lo, cuts[:-1], side="right") - 1
    tau = np.stack([cuts[:-1], cuts[1:]]) - dense.t0[step]
    v = np.zeros_like(tau)
    for ck in integral[step, :0:-1].T:  # orders 2 ORDER + 1..1: Horner, the constant is 0
        v = (v + ck) * tau
    return np.add.reduceat(v[1] - v[0], np.searchsorted(cuts, edges[:-1]))


def lyapunov_report(cfg: ChainConfig, traj: Trajectory) -> dict:
    """phi0 at both ends of a trajectory of `integrate`, and its smallest
    gain between samples.  nu(phi0) >= 0 vanishes on an interval only where
    the flow is stationary, so a gain <= 0 is a numerical failure; the three
    booleans, kept for schema-1 readers, are true in every report returned."""
    gains = phi0_gains(cfg, traj.meta["dense"], traj.times)
    if np.any(gains <= 0):
        raise FlowError(f"phi0 does not increase after t = {traj.times[np.argmax(gains <= 0)]}")
    phi0_fn = chain_phi0(cfg).compiled()
    return {"phi0_start": float(phi0_fn(traj.states[0])), "phi0_end": float(phi0_fn(traj.states[-1])),
            "min_increment": float(np.min(gains)), "resolvable_all_positive": True,
            "no_decrease_beyond_roundoff": True, "strictly_increasing": True}


# -------------------------------------------------------------------- cascade

def point_case(cfg: ChainConfig, point: Sequence[float]) -> str:
    """generic (z != x), y_nonzero_degenerate (z = x, y != 0) or
    fully_degenerate (z = x, y = 0), each to 1e-12."""
    space = cfg.space
    pt = {name: float(v) for name, v in zip(space.names, point)}
    blocks = [(j, i) for j in (1, 2) for i in range(cfg.n)]
    if max(abs(pt[chain_var(space, "z", j, i)] - pt[chain_var(space, "x", j, i)])
           for j, i in blocks) > 1e-12:
        return "generic"
    if max(abs(pt[chain_var(space, "y", j, i)]) for j, i in blocks) > 1e-12:
        return "y_nonzero_degenerate"
    return "fully_degenerate"


# ------------------------------------------------------------- quintic probe

PROBE_T_MAX = 0.5
PROBE_SAMPLES = 60


def quintic_bound_probe(cfg: ChainConfig, points: Sequence[Sequence[float]]) -> list[dict]:
    """For each start point, integrate the flow and the Lyapunov increment
    Delta(t) = phi0(exp(t nu) x) - phi0(x), assert Delta > 0, and fit the
    leading power law on the first samples: slope near 1 at generic points,
    3 on {z=x, y!=0}, 5 on {z=x, y=0, dW0!=0}.

    Delta sums the `phi0_gains` up to each sample time.  Their series'
    leading coefficients nu^k(phi0)(x)/k! come without cancellation, so Delta
    is resolved down to ~1e-22 at t = 1e-4 on {z = x, y = 0}.  Any Delta <= 0
    is a numerical failure.  A stationary point (x, 0, x, 0, ...) with
    W1'(x) = 0 exactly, where Delta stays 0, is refused as unsupported."""
    ts = np.geomspace(1e-4, PROBE_T_MAX, PROBE_SAMPLES)
    index = [cfg.space.index(chain_var(cfg.space, c, 1)) for c in "xyz"]
    out = []
    for point in points:
        # refused before any step: n != 1, gamma != 1, a nonzero second block
        # and a stationary point
        x, y, z = (point[i] for i in index)
        if y == 0 and z == x and math.isfinite(x) and not np.any(np.delete(point, index)):
            if sum(c * Fraction(x) ** e for e, c in enumerate(_w1_prime(cfg))) == 0:
                raise UnsupportedConfig(f"{point} is a stationary point of the drift, "
                                        "where phi0 stays constant")
        dense = integrate(cfg, point, (0.0, PROBE_T_MAX)).meta["dense"]
        deltas = np.cumsum(phi0_gains(cfg, dense, np.concatenate([[0.0], ts])))
        if np.any(deltas <= 0):
            raise FlowError(f"Lyapunov increment non-positive at t={ts[deltas <= 0][0]} "
                            f"from {point}")
        fit = ts <= 4.5 * ts[0]
        slope = np.polyfit(np.log(ts[fit]), np.log(deltas[fit]), 1)[0]
        out.append({"point": [float(v) for v in point], "case": point_case(cfg, point),
                    "slope": float(slope), "C_witness": float(np.max(ts ** 5 / deltas)),
                    "min_delta": float(np.min(deltas))})
    return out
