"""The transport-equation obstruction for unequal bath temperatures.

Writing the eikonal weight as phi = phi0 + psi, psi solves

    nu psi + (gamma/2) sum_j alpha_j (d_{z_j} psi)^2 - d_x deltaW . d_y psi
        = 2 d_x deltaW . d_y phi0.                                   (*)

(*) is the chain operator's eikonal equation at 2 phi0 + psi (`full_residual`).

For deltaW homogeneous of degree m >= 3 in x_2, grading psi by homogeneity in
the second block w_2 = (x_2, y_2, z_2) decouples (*) into a hierarchy: the
components of degree < m vanish (a Riccati step at degree 2, then linear
transport), and the degree-m component obeys nu psi_m = RHS.  Substituting
psi_m = (2/alpha_1) deltaW + u and diagonalizing the linear field nu_2 into
eigencoordinates omega (nu_2 omega^a = (lambda . a) omega^a) reduces this to
scalar transport equations along the heteroclinic orbit gamma1:

    (d/dt + lambda . a) u_a(t) = g_a(x_1(t)),

with g_a compactly supported: a bump in x_1 times the coefficient
c_a = s (m!/a!) (lambda . a) of omega^a, s = 2/alpha_2 - 2/alpha_1.  Since Re(lambda . a) > 0,
the branch of u_a vanishing at the minimum decays like x_1^{lambda.a/mu_1}
at the saddle -- not smooth unless the exponent is a nonnegative integer --
while the branch vanishing at the saddle grows like e^{Re(lambda.a)|t|} at
the minimum.  Either way no smooth solution exists; at equal temperatures
the right-hand side vanishes identically and no obstruction arises.

The diagnostics read gamma1 only from SAMPLE_LEAD before its first crossing
of the bump on.  So `run_obstruction` ends the orbit's backward leg where
phi0 proves that the orbit has left the bump for good, with b the bump edge
nearer the minimum m (`flow.heteroclinic_gamma1`):

1. Lyapunov: nu(phi0) = (z1 - x1)^2/alpha1 >= 0, so phi0 never rises
   backward in time.
2. No re-entry: phi0 >= c = W1(b)/alpha1 on {x1 = b}, so once a step end
   t_c lies beyond b with phi0 < c, x1 stays beyond b before t_c, and every
   crossing of the bump lies after t_c.
3. LaSalle: where m is the only root of W1' beyond b and W1 grows without
   bound there, the orbit tends to m as t -> -infinity.

The leg ends SAMPLE_LEAD + 1 time units before t_c, on the steps the full
orbit takes, so the report is the one the full orbit gives, byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

import numpy as np
# no transport ODE is solved here; the name stays for perfbench/tracer.py,
# which counts solve_ivp calls through susyfact.obstruction.solve_ivp
from scipy.integrate import solve_ivp  # noqa: F401

from . import flow, spectral
from .models import (ChainConfig, UnsupportedConfig, chain_operator, chain_phi0, chain_var,
                     hamiltonian_p)
from .polyalg import Poly


class ObstructionError(ValueError):
    pass


# ----------------------------------------------------------------- the bump

@dataclass(frozen=True)
class Bump:
    """A C^2 piecewise-polynomial bump: quintic smoothstep rise and fall,
    supported exactly on [lo, hi], equal to 1 at the midpoint.  Evaluates
    elementwise on arrays."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ObstructionError("empty bump support")

    def __call__(self, x):
        mid = 0.5 * (self.lo + self.hi)
        half = 0.5 * (self.hi - self.lo)
        u = np.clip(np.where(x <= mid, (x - self.lo) / half, (self.hi - x) / half), 0.0, 1.0)
        return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


# The bundled bump: supported inside (0, 1), so that it avoids the saddle
# (x1 = 0) and the minimum (x1 = 1) of the bundled wells but is positive on
# the heteroclinic's x1-range; `run_obstruction` refuses it for wells whose
# saddle-minimum interval does not contain it.
BUMP = Bump(0.3, 0.7)
# how far from [0, 1], in s = tau/h, a root on a step may lie and still cross on it
ROOT_SLACK = 1e-9
# the u samples start this many time units before the support
SAMPLE_LEAD = 2.0


# --------------------------------------------------------- graded hierarchy

def full_residual(cfg: ChainConfig, psi: Poly) -> Poly:
    """Left minus right side of the psi-equation (*), exactly: the eikonal
    residual of the chain operator at 2 phi0 + psi, for h-free psi."""
    return chain_operator(cfg).eikonal_residual(2 * chain_phi0(cfg) + psi)


def _deltaw_degree(cfg: ChainConfig) -> int:
    """The w2-degree m of deltaW; the hierarchy needs deltaW nonzero and
    homogeneous of degree m >= 3 in the second block."""
    comps = cfg.deltaW.homogeneous_components("w2")
    if not comps:
        raise UnsupportedConfig("deltaW is zero; the obstruction needs a coupling "
                                "homogeneous of degree at least 3 in x2")
    if len(comps) != 1:
        raise UnsupportedConfig("deltaW must be homogeneous in the second block")
    (m,) = comps
    if m < 3:
        raise UnsupportedConfig("deltaW must have degree at least 3 in x2")
    return m


def graded_residual(cfg: ChainConfig, psi_components: Mapping[int, Poly]) -> dict[int, Poly]:
    """Degree-mu components (in w2) of the psi-equation residual, exactly:

        nu psi_mu
        + (gamma/2) alpha_1 sum_k d_{z1} psi_k . d_{z1} psi_{mu-k}
        + (gamma/2) alpha_2 sum_k d_{z2} psi_{k+1} . d_{z2} psi_{mu-k+1}
        - d_{x1} deltaW . d_{y1} psi_{mu-m}
        - d_{x2} deltaW . d_{y2} psi_{mu+2-m}
        - RHS_mu,

    with psi_{j<0} = 0 and the right side in degree m: the w2-homogeneous parts
    of full_residual(cfg, sum_k psi_k), as nu preserves w2 degree (W2 quadratic).
    """
    _deltaw_degree(cfg)
    psi = Poly.zero(cfg.space)
    for k, p in psi_components.items():
        if not p.is_zero and set(p.homogeneous_components("w2")) != {k}:
            raise ObstructionError(f"component {k} is not homogeneous of degree {k}")
        psi = psi + p
    return full_residual(cfg, psi).homogeneous_components("w2")


def eq17_reduction(cfg: ChainConfig) -> Poly:
    """The substitution psi_m = (2/alpha_1) deltaW + u turns the degree-m
    transport equation into nu(u) = (2/alpha_2 - 2/alpha_1) y2 . d_{x2} deltaW;
    returns the reduced right side, minus the residual of (2/alpha_1) deltaW,
    whose d_y and d_z vanish."""
    return -full_residual(cfg, 2 * (1 / cfg.alpha1) * cfg.deltaW)


# ------------------------------------------------------------ eigencoords

def eigencoords_w2(cfg: ChainConfig) -> tuple[complex, ...]:
    """The eigenvalues of the linear field nu_2 on the second block: the
    roots lambda of the cubic at w2 = W2'', sorted by (real, imaginary)
    part, with the eigenvectors (1, lambda, 1/(1-lambda)) of
    `spectral.eigenvector`.  W2 is positive definite, so w2 > 0 and the
    cubic's discriminant -4 w2^3 - 20 w2^2 + 4 w2 - 3 is negative: one real
    root and one conjugate pair, all simple, so nu_2 has no Jordan block."""
    if cfg.n != 1 or cfg.gamma != 1:
        raise UnsupportedConfig("eigencoordinates are implemented for n = 1 and gamma = 1")
    x2 = chain_var(cfg.space, "x", 2)
    w2 = float(cfg.W2.partial(x2).partial(x2).evaluate(dict.fromkeys(cfg.space.names, 0.0)))
    return tuple(spectral.cubic_roots(w2))


def omega_coefficients(cfg: ChainConfig, m: int,
                       lambdas: Sequence[complex]) -> dict[tuple[int, ...], complex]:
    """The coefficients c_alpha of omega^alpha, |alpha| = m, in the reduced
    right side s m x2^(m-1) y2 of deltaW = bump(x1) x2^m, where
    s = 2/alpha_2 - 2/alpha_1 (exact in Q, rounded once).  In the
    eigencoordinates x2 = sum_j omega_j and y2 = sum_j lambda_j omega_j, so
    by the multinomial theorem c_alpha = s (m!/alpha!) (lambda . alpha)."""
    s = float(2 / cfg.alpha2 - 2 / cfg.alpha1)
    out: dict[tuple[int, ...], complex] = {}
    for i in range(m + 1):
        for j in range(m + 1 - i):
            alpha = (i, j, m - i - j)
            multinomial = math.factorial(m) // math.prod(map(math.factorial, alpha))
            out[alpha] = s * multinomial * _dot(lambdas, alpha)
    return out


def _dot(lambdas: Sequence[complex], alpha: tuple[int, ...]) -> complex:
    return sum(l * k for l, k in zip(lambdas, alpha))


# --------------------------------------------------------------- transport

@dataclass(frozen=True)
class ObstructionReport:
    alpha0: tuple[int, ...]
    lambda_dot_alpha: complex
    mu1: float
    exponent: complex
    nearest_integer_distance: float
    exponent_is_integer: bool
    u_samples: tuple[tuple[float, float, float], ...]  # (t, Re u, Im u)
    tail_rate_fit: float
    tail_rate_relative_error: float
    post_support_constancy: float
    K_magnitude: float
    verdict: str  # blowup_at_minimum | nonsmooth_at_saddle | inconclusive
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "alpha": list(self.alpha0),
            "lambda_dot_alpha": [self.lambda_dot_alpha.real, self.lambda_dot_alpha.imag],
            "mu1": self.mu1,
            "exponent": [self.exponent.real, self.exponent.imag],
            "nearest_integer_distance": self.nearest_integer_distance,
            "exponent_is_integer": self.exponent_is_integer,
            "tail_rate_fit": self.tail_rate_fit,
            "tail_rate_relative_error": self.tail_rate_relative_error,
            "post_support_constancy": self.post_support_constancy,
            "K_magnitude": self.K_magnitude,
            "verdict": self.verdict,
            "notes": list(self.notes),
            "u_samples": [[t, re, im] for (t, re, im) in self.u_samples],
        }


def _crossings(dense: flow.Segments, t0: float, t1: float,
               levels: Sequence[float]) -> np.ndarray:
    """The sorted times in [t0, t1] at which x1 equals a level: the real roots in
    [0, 1], from the companion matrix, of x1 - level = sum_k d_k s^k - level on each
    step (s = tau/h) with |d_0 - level| <= sum_{k>=1} |d_k|; a boundary root counts once."""
    h = np.where(dense.lo < dense.t0, dense.lo, np.append(dense.lo[1:], t1)) - dense.t0
    d = dense.coef[:, 0] * h[:, None] ** np.arange(flow.ORDER + 1)
    found = []
    for i, k in zip(*np.nonzero(np.abs(d[:, :1] - levels) <= np.abs(d[:, 1:]).sum(1)[:, None])):
        r = np.polynomial.polynomial.polyroots(np.append(d[i, 0] - levels[k], d[i, 1:]))
        s = r.real[(abs(r.imag) <= ROOT_SLACK) & (abs(r.real - 0.5) <= 0.5 + ROOT_SLACK)]
        found += [(dense.t0[i] + min(max(x, 0.0), 1.0) * h[i], abs(h[i])) for x in s]
    found = [(t, w) for t, w in sorted(found) if t0 <= t <= t1]
    if not found:
        raise ObstructionError(f"x1 reaches none of {list(levels)} along the orbit")
    return np.array([t for (t, w), (t_prev, w_prev) in zip(found, [(-math.inf, 0.0)] + found)
                     if t - t_prev > ROOT_SLACK * (w + w_prev)])


def _cumulative_integral(f: Callable[[np.ndarray], np.ndarray],
                         edges: np.ndarray) -> tuple[np.ndarray, float]:
    """The integral of f from edges[0] to each edge, and the integral of |f|
    over all panels, by 20-point Gauss-Legendre on every panel; f is
    evaluated once, on the array of nodes."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    values = f(mid[:, None] + half[:, None] * nodes)
    panels = half * (values @ weights)
    return np.concatenate(([0.0], np.cumsum(panels))), float(half @ (np.abs(values) @ weights))


def transport_solve(cfg: ChainConfig, alpha: tuple[int, ...], c_alpha: complex,
                    gamma1: flow.Trajectory,
                    lambdas: Sequence[complex]) -> ObstructionReport:
    """Solve (d/dt + a) u = g_alpha along gamma1, a = lambda.alpha and
    g_alpha(t) = c_alpha BUMP(x1(t)), with both boundary normalizations and
    emit the non-smoothness diagnostics.

    By variation of constants, with I(t) = int_{s_lo}^t e^{as} g_alpha(s) ds
    over the support [s_lo, s_hi] of g_alpha, from the first time x1 takes a
    kink of BUMP to the last, and K = I(s_hi), the branch
    vanishing at the minimum is u_-(t) = e^{-at} I(t) and the branch vanishing
    at the saddle is u_+(t) = e^{-at} (I(t) - K).  Outside the support both
    are exact exponentials: past it |u_-| e^{Re(a) t} = |K|, and before it
    |u_+| = |K| e^{-Re(a) t} grows at the rate Re(a) toward the minimum, so
    the tail rate is Re(a) and its fit error and the constancy are 0.  K
    counts as vanished when |K| <= 1e-8 int |e^{as} g_alpha(s)| ds, far above
    the quadrature's relative error, below 1e-14, and scale-free."""
    a = _dot(lambdas, alpha)
    if a.real <= 0:
        raise ObstructionError("Re(lambda . alpha) must be positive")
    mu1 = float(gamma1.meta["mu1"])

    dense = gamma1.meta["dense"]
    t0, t1 = float(gamma1.times[0]), float(gamma1.times[-1])
    cross = _crossings(dense, t0, t1, (BUMP.lo, (BUMP.lo + BUMP.hi) / 2, BUMP.hi))
    s_lo, s_hi = cross[0], cross[-1]

    def integrand(s: np.ndarray) -> np.ndarray:
        return np.exp(a * s) * c_alpha * BUMP(dense(s.ravel())[dense.index[0]]).reshape(s.shape)

    ts_samp = np.linspace(max(t0, s_lo - SAMPLE_LEAD), min(t1, s_hi + 6.0), 120)
    # panel edges are the crossings, so that no panel holds a kink, and the sample times
    # inside the support, so I is known exactly where needed: at edges, or outside the support
    edges = np.union1d(cross, ts_samp[(ts_samp > s_lo) & (ts_samp < s_hi)])
    cumulative, abs_integral = _cumulative_integral(integrand, edges)
    K_magnitude = float(abs(cumulative[-1]))

    exponent = a / mu1
    dist = _int_distance(exponent)
    is_integer = dist <= 1e-6

    notes: list[str] = []
    if K_magnitude <= 1e-8 * abs_integral:
        verdict = "inconclusive"
        notes.append("the variation-of-constants constant vanished; move the bump")
    elif not is_integer:
        verdict = "nonsmooth_at_saddle"
        notes.append("the minimum-normalized branch behaves like x1^(lambda.alpha/mu1) "
                     "at the saddle with a non-integer exponent")
    else:
        verdict = "blowup_at_minimum"
        notes.append("the saddle exponent is (numerically) an integer; the branch bounded "
                     "near the saddle grows exponentially at the minimum -- "
                     "perturb W2 to detune the exponent if desired")
    notes.append("the diagnostics are independent of the bump amplitude: the transport "
                 "equation is linear, so rescaling deltaW rescales u without changing "
                 "rates or exponents")

    # u_- is exactly 0 before the support (e^{-at} * 0 could print as -0.0)
    I_samp = cumulative[np.searchsorted(edges, np.clip(ts_samp, s_lo, s_hi))]
    u_samp = np.where(I_samp == 0, 0j, np.exp(-a * ts_samp) * I_samp)
    samples = tuple((float(t), float(u.real), float(u.imag)) for t, u in zip(ts_samp, u_samp))
    return ObstructionReport(tuple(alpha), a, mu1, exponent, dist, is_integer,
                             samples, a.real, 0.0, 0.0, K_magnitude, verdict, tuple(notes))


def _int_distance(e: complex) -> float:
    k = round(e.real)
    return abs(e - k) if k >= 0 else abs(e)


def select_alpha0(cfg: ChainConfig, m: int,
                  lambdas: Sequence[complex]) -> tuple[tuple[int, ...], complex]:
    """The driven multi-index and its coefficient c_alpha in the omega
    expansion of the reduced right side: maximal |c_alpha| (equivalently
    maximal integral of |g_alpha| along the orbit, since every g_alpha
    shares the same bump profile).  Conjugate eigenvalues make conjugate
    multi-indices tie; a tie goes to the lexicographically largest alpha."""
    coeffs = omega_coefficients(cfg, m, lambdas)
    return max(coeffs.items(), key=lambda kv: (abs(kv[1]), kv[0]))


def run_obstruction(cfg: ChainConfig,
                    gamma1: Optional[flow.Trajectory] = None) -> ObstructionReport:
    """The full pipeline on a chain configuration: heteroclinic orbit,
    eigencoordinates, multi-index selection, transport diagnostics.  At
    unequal temperatures s = 2/alpha_2 - 2/alpha_1 is nonzero and every
    Re(lambda . alpha) is positive (w2 > 0), so every c_alpha is nonzero."""
    if cfg.n != 1:
        raise UnsupportedConfig("the bundled perturbation is for n = 1")
    m = _deltaw_degree(cfg)
    if cfg.alpha1 == cfg.alpha2:
        return ObstructionReport((0,) * (3 * cfg.n), 0j, 0.0, 0j, math.inf, False,
                                 (), 0.0, math.inf, math.inf, 0.0, "inconclusive",
                                 ("equal bath temperatures: the reduced right side is "
                                  "identically zero and no obstruction arises",))
    well = flow.well_data(cfg)
    edge = _check_support(well)
    if gamma1 is None:
        gamma1 = flow.heteroclinic_gamma1(cfg, well=well,
                                          leave=(Fraction(edge), SAMPLE_LEAD + 1.0))
    lambdas = eigencoords_w2(cfg)
    alpha0, c_alpha = select_alpha0(cfg, m, lambdas)
    return transport_solve(cfg, alpha0, c_alpha, gamma1, lambdas)


def _check_support(well: flow.Well) -> float:
    """The edge of BUMP nearer the minimum the heteroclinic connects the
    saddle to.  BUMP must lie strictly inside the x1-interval between the
    two; otherwise it vanishes on the orbit or touches an endpoint.  Decided
    from the stationary points, before any integration."""
    saddle, minimum = well.x1_range
    lo, hi = sorted((saddle, minimum))
    if not lo < BUMP.lo < BUMP.hi < hi:
        raise UnsupportedConfig(
            f"the bump support [{BUMP.lo:g}, {BUMP.hi:g}] in x1 does not lie inside "
            f"({saddle:.6g}, {minimum:.6g}), between the saddle and the minimum the "
            "heteroclinic connects it to")
    return BUMP.hi if minimum > saddle else BUMP.lo


# --------------------------------------------------- invariant subspace

def invariant_subspace_check(cfg: ChainConfig) -> dict:
    """The second block is invariant for the Hamilton flow of p, and on it
    the flow is the nu_1 flow, as exact identities in Q[h]:

    * every d_{w2} p and d_{omega2} p vanishes on {w2 = 0, omega2 = 0};
    * on the zero section S = {w2 = 0, omega = 0} every d_{w1} p vanishes,
      so omega1 stays 0, and d_{omega1} p equals the nu_1 components, so
      the w1 motion is the nu_1 flow.

    symbolic_zero is true when every identity holds.  numeric_drift is the
    largest |coefficient| of the restricted off-subspace components and
    nu1_flow_relative_difference that of the restricted nu_1 difference;
    both are 0.0 exactly when the identities hold.  The two float keys keep
    the names of the numerical integrations they replace, for compatibility
    with existing readers of the report."""
    _deltaw_degree(cfg)
    p, phase = hamiltonian_p(cfg)
    space = cfg.space
    w1_names = space.block_vars("w1")
    w2_names = space.block_vars("w2")
    block2 = list(w2_names) + [nm + "'" for nm in w2_names]
    section = list(w2_names) + [nm + "'" for nm in space.names]
    off = [p.partial(nm).restrict_zero(block2) for nm in block2]
    off += [p.partial(nm).restrict_zero(section) for nm in w1_names]
    nu = flow.nu_components(cfg)
    nu1_diff = [(p.partial(nm + "'") - nu[space.index(nm)].lift(phase)).restrict_zero(section)
                for nm in w1_names]
    drift = _max_abs_coefficient(off)
    diff = _max_abs_coefficient(nu1_diff)
    return {"symbolic_zero": drift == 0.0 and diff == 0.0, "numeric_drift": drift,
            "nu1_flow_relative_difference": diff}


def _max_abs_coefficient(polys: Sequence[Poly]) -> float:
    return float(max((abs(c) for q in polys for c in q.terms.values()), default=0))
