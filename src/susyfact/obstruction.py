"""The transport-equation obstruction for unequal bath temperatures.

Writing the eikonal weight as phi = phi0 + psi, psi solves

    nu psi + (gamma/2) sum_j alpha_j (d_{z_j} psi)^2 - d_x deltaW . d_y psi
        = 2 d_x deltaW . d_y phi0.                                   (*)

For deltaW homogeneous of degree m >= 3 in x_2, grading psi by homogeneity in
the second block w_2 = (x_2, y_2, z_2) decouples (*) into a hierarchy: the
components of degree < m vanish (a Riccati step at degree 2, then linear
transport), and the degree-m component obeys nu psi_m = RHS.  Substituting
psi_m = (2/alpha_1) deltaW + u and diagonalizing the linear field nu_2 into
eigencoordinates omega (nu_2 omega^a = (lambda . a) omega^a) reduces this to
scalar transport equations along the heteroclinic orbit gamma1:

    (d/dt + lambda . a) u_a(t) = g_a(x_1(t)),

with g_a compactly supported (a bump in x_1 times a constant from the
eigenexpansion, scaled by 2/alpha_2 - 2/alpha_1).  Since Re(lambda . a) > 0,
the branch of u_a vanishing at the minimum decays like x_1^{lambda.a/mu_1}
at the saddle -- not smooth unless the exponent is a nonnegative integer --
while the branch vanishing at the saddle grows like e^{Re(lambda.a)|t|} at
the minimum.  Either way no smooth solution exists; at equal temperatures
the right-hand side vanishes identically and no obstruction arises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from . import flow, spectral
from .models import ChainConfig, UnsupportedConfig, chain_var, hamiltonian_p
from .polyalg import Poly


class ObstructionError(ValueError):
    pass


# ----------------------------------------------------------------- the bump

def _smoothstep(u: float) -> float:
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


@dataclass(frozen=True)
class Bump:
    """A C^2 piecewise-polynomial bump: quintic smoothstep rise and fall,
    supported exactly on [lo, hi], equal to 1 at the midpoint."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ObstructionError("empty bump support")

    def __call__(self, x: float) -> float:
        mid = 0.5 * (self.lo + self.hi)
        half = 0.5 * (self.hi - self.lo)
        if x <= mid:
            return _smoothstep((x - self.lo) / half)
        return _smoothstep((self.hi - x) / half)


@dataclass(frozen=True)
class Perturbation:
    """deltaW(x1, x2) = sign * bump(x1) * homog(x2) with homog a homogeneous
    polynomial of degree m >= 3 in the x2 block."""

    bump: Bump
    homog: Poly
    sign: int
    m: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ObstructionError("sign must be +1 or -1")
        if self.m < 3:
            raise ObstructionError("the perturbation degree must be at least 3")
        comps = self.homog.homogeneous_components("w2")
        if set(comps) != {self.m}:
            raise ObstructionError("homog must be homogeneous of the declared degree")


def default_perturbation(cfg: ChainConfig, m: int = 3, support=(0.3, 0.7),
                         sign: int = 1) -> Perturbation:
    """The bundled choice: v(x2) = x2^m, bump supported inside (0, 1) so that
    it avoids the saddle (x1 = 0) and the minimum (x1 = 1) of the bundled
    wells but is positive on the heteroclinic's x1-range; `run_obstruction`
    refuses it for wells whose saddle-minimum interval does not contain it."""
    if cfg.n != 1:
        raise UnsupportedConfig("the bundled perturbation is for n = 1")
    x2 = Poly.var(cfg.space, chain_var(cfg.space, "x", 2), m)
    return Perturbation(Bump(*support), x2, sign, m)


# --------------------------------------------------------- graded hierarchy

def rhs_full(cfg: ChainConfig) -> Poly:
    """2 d_x deltaW . d_y phi0 (using d_{y_j} phi0 = y_j / alpha_j)."""
    space = cfg.space
    out = Poly.zero(space)
    for j, alpha in enumerate(cfg.alphas, start=1):
        for i in range(cfg.n):
            xn = chain_var(space, "x", j, i)
            y = Poly.var(space, chain_var(space, "y", j, i))
            out = out + 2 * (1 / alpha) * cfg.deltaW.partial(xn) * y
    return out


def full_residual(cfg: ChainConfig, psi: Poly) -> Poly:
    """Left minus right side of the psi-equation, exactly."""
    space = cfg.space
    out = flow.nu_apply(cfg, psi)
    for j, alpha in enumerate(cfg.alphas, start=1):
        for i in range(cfg.n):
            dz = psi.partial(chain_var(space, "z", j, i))
            out = out + Fraction(cfg.gamma * alpha, 2) * dz * dz
            dx = cfg.deltaW.partial(chain_var(space, "x", j, i))
            out = out - dx * psi.partial(chain_var(space, "y", j, i))
    return out - rhs_full(cfg)


def _deltaw_degree(cfg: ChainConfig) -> int:
    comps = cfg.deltaW.homogeneous_components("w2")
    if len(comps) != 1:
        raise ObstructionError("deltaW must be homogeneous in the second block")
    (m,) = comps
    if m < 3:
        raise ObstructionError("deltaW must have degree at least 3 in x2")
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
    returns the reduced right side, computed as RHS - nu((2/alpha_1) deltaW)."""
    return rhs_full(cfg) - flow.nu_apply(cfg, 2 * (1 / cfg.alpha1) * cfg.deltaW)


# ------------------------------------------------------------ eigencoords

@dataclass(frozen=True)
class Eigencoords:
    lambdas: tuple[complex, ...]
    V: np.ndarray = field(repr=False)      # columns: eigenvectors, w2 = V omega
    Vinv: np.ndarray = field(repr=False)


def eigencoords_w2(cfg: ChainConfig) -> Eigencoords:
    """Diagonalize the linear field nu_2 on the second block: eigenvalues
    sorted by (real, imaginary) part, eigenvectors normalized so that the
    x2-component is 1 (deterministic).  Errors out on Jordan degeneracy."""
    space = cfg.space
    x2 = [chain_var(space, "x", 2, i) for i in range(cfg.n)]
    H = np.zeros((cfg.n, cfg.n))
    zero_pt = {nm: 0.0 for nm in space.names}
    for a in range(cfg.n):
        for b in range(cfg.n):
            H[a, b] = cfg.W2.partial(x2[a]).partial(x2[b]).evaluate(zero_pt)
    if cfg.gamma != 1:
        raise ObstructionError("eigencoordinates are implemented for gamma = 1")
    N2 = spectral.linearization_N(H)
    vals, vecs = np.linalg.eig(N2.astype(complex))
    order = sorted(range(len(vals)), key=lambda i: (vals[i].real, vals[i].imag))
    vals = vals[order]
    vecs = vecs[:, order]
    for i in range(len(vals) - 1):
        if abs(vals[i] - vals[i + 1]) < 1e-8:
            raise ObstructionError(
                "nu_2 has (nearly) degenerate eigenvalues; perturb W2 to avoid Jordan blocks")
    # normalize on the x2-component (never zero when lambda is an eigenvalue)
    for i in range(vecs.shape[1]):
        x_comp = vecs[:cfg.n, i]
        scale = x_comp[np.argmax(np.abs(x_comp))]
        if abs(scale) < 1e-10:
            raise ObstructionError("eigenvector with vanishing position component")
        vecs[:, i] = vecs[:, i] / scale
    Vinv = np.linalg.inv(vecs)
    return Eigencoords(tuple(complex(v) for v in vals), vecs, Vinv)


def omega_coefficients(cfg: ChainConfig, eig: Eigencoords, poly_w2: Poly,
                       m: int) -> dict[tuple[int, ...], complex]:
    """Expand a degree-m homogeneous polynomial in (x2, y2, z2) in the
    eigencoordinate monomials omega^alpha: substitute w2 = V omega and
    collect coefficients."""
    space = cfg.space
    w2_names = space.block_vars("w2")
    dim = len(w2_names)
    idx = {nm: i for i, nm in enumerate(w2_names)}
    out: dict[tuple[int, ...], complex] = {}
    for (exps, hpow), c in poly_w2.terms.items():
        if hpow:
            raise ObstructionError("perturbation data must be h-free")
        # the monomial must involve w2 variables only
        factors = []
        for vi, e in enumerate(exps):
            if e == 0:
                continue
            nm = space.names[vi]
            if nm not in idx:
                raise ObstructionError("polynomial involves first-block variables")
            factors.extend([idx[nm]] * e)
        if len(factors) != m:
            raise ObstructionError("polynomial is not homogeneous of the declared degree")
        # expand prod_r (row_{factors[r]} . omega) by convolution
        acc: dict[tuple[int, ...], complex] = {(0,) * dim: complex(c)}
        for r in factors:
            row = eig.V[r, :]
            nxt: dict[tuple[int, ...], complex] = {}
            for a, ca in acc.items():
                for j in range(dim):
                    vj = row[j]
                    if vj == 0:
                        continue
                    key = tuple(e + (1 if i == j else 0) for i, e in enumerate(a))
                    nxt[key] = nxt.get(key, 0.0) + ca * vj
            acc = nxt
        for a, ca in acc.items():
            out[a] = out.get(a, 0.0) + ca
    return {a: v for a, v in out.items() if abs(v) > 1e-13}


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


def _support_times(bump: Bump, x1_of_t: Callable[[float], float],
                   t0: float, t1: float) -> tuple[float, float]:
    ts = np.linspace(t0, t1, 4000)
    vals = np.array([bump(x1_of_t(t)) for t in ts])
    nz = np.nonzero(vals > 0.0)[0]
    if len(nz) == 0:
        raise ObstructionError("the bump vanishes identically along the orbit")
    return float(ts[nz[0]]), float(ts[nz[-1]])


def transport_solve(cfg: ChainConfig, pert: Perturbation, alpha: tuple[int, ...],
                    gamma1: flow.Trajectory, eig: Optional[Eigencoords] = None) -> ObstructionReport:
    """Solve (d/dt + lambda.alpha) u = g_alpha along gamma1 with both
    boundary normalizations and emit the non-smoothness diagnostics."""
    if eig is None:
        eig = eigencoords_w2(cfg)
    space = cfg.space
    m = pert.m
    if sum(alpha) != m:
        raise ObstructionError("multi-index length must equal the perturbation degree")
    a = sum(l * k for l, k in zip(eig.lambdas, alpha))
    if a.real <= 0:
        raise ObstructionError("Re(lambda . alpha) must be positive")
    mu1 = float(gamma1.meta["mu1"])

    # g_alpha(t) = scale * c_alpha * bump(x1(t))
    reduced = _reduced_rhs_poly(cfg, pert)
    coeffs = omega_coefficients(cfg, eig, reduced, m)
    c_alpha = coeffs.get(alpha, 0.0)
    state_of_t = flow.gamma1_interpolant(gamma1)
    ix1 = space.index(chain_var(space, "x", 1))
    x1_of_t = lambda t: float(state_of_t(t)[ix1])
    t0, t1 = float(gamma1.times[0]), float(gamma1.times[-1])
    t_lo, t_hi = _support_times(pert.bump, x1_of_t, t0, t1)

    notes: list[str] = []
    if abs(c_alpha) < 1e-13:
        return ObstructionReport(alpha, a, mu1, a / mu1, _int_distance(a / mu1),
                                 _int_distance(a / mu1) <= 1e-6, (), 0.0, math.inf,
                                 math.inf, 0.0, "inconclusive",
                                 ("g_alpha vanishes identically for this multi-index",))

    def g(t: float) -> complex:
        return c_alpha * pert.bump(x1_of_t(t))

    def rhs(t, u):
        uc = complex(u[0], u[1])
        du = -a * uc + g(t)
        return [du.real, du.imag]

    # branch vanishing at the minimum (u -> 0 as t -> -inf)
    start = max(t0, t_lo - 2.0)
    span_end = min(t1, t_hi + 6.0)
    sol_minus = solve_ivp(rhs, (start, span_end), [0.0, 0.0], method="DOP853",
                          rtol=1e-12, atol=1e-18, dense_output=True)
    if not sol_minus.success:
        raise ObstructionError(f"transport integration failed: {sol_minus.message}")

    def u_minus(t: float) -> complex:
        v = sol_minus.sol(t)
        return complex(v[0], v[1])

    # past the support the solution is K e^{-a t}: |u| e^{Re a t} constant
    ts_post = np.linspace(t_hi + 0.5, min(t_hi + 4.0, span_end), 60)
    mods = np.array([abs(u_minus(t)) * math.exp(a.real * t) for t in ts_post])
    K_magnitude = float(np.mean(mods))
    constancy = float(np.max(np.abs(mods - K_magnitude)) / K_magnitude) if K_magnitude > 0 else math.inf

    # branch vanishing at the saddle end: integrate backward from span_end,
    # growth toward the minimum must match e^{Re(a) |t|}
    sol_plus = solve_ivp(rhs, (span_end, max(t0, t_lo - 14.0)), [0.0, 0.0],
                         method="DOP853", rtol=1e-12, atol=1e-18, dense_output=True)
    if not sol_plus.success:
        raise ObstructionError(f"backward transport integration failed: {sol_plus.message}")
    fit_lo = max(t0, t_lo - 13.0)
    fit_hi = t_lo - 1.0
    ts_pre = np.linspace(fit_lo, fit_hi, 80)
    mags = np.array([abs(complex(*sol_plus.sol(t))) for t in ts_pre])
    if np.any(mags <= 0):
        raise ObstructionError("vanishing tail where exponential growth was expected")
    slope = float(np.polyfit(ts_pre, np.log(mags), 1)[0])
    tail_rate = -slope  # growth rate of |u| in |t| as t -> -inf
    tail_err = abs(tail_rate - a.real) / a.real

    exponent = a / mu1
    dist = _int_distance(exponent)
    is_integer = dist <= 1e-6

    if K_magnitude <= 1e-13:
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

    ts_samp = np.linspace(start, span_end, 120)
    samples = tuple((float(t),) + tuple(map(float, sol_minus.sol(t))) for t in ts_samp)
    return ObstructionReport(tuple(alpha), a, mu1, exponent, dist, is_integer,
                             samples, tail_rate, float(tail_err), constancy,
                             K_magnitude, verdict, tuple(notes))


def _int_distance(e: complex) -> float:
    k = round(e.real)
    return abs(e - k) if k >= 0 else abs(e)


def _reduced_rhs_poly(cfg: ChainConfig, pert: Perturbation) -> Poly:
    """(2/alpha_2 - 2/alpha_1) y2 . d_{x2} homog -- the w2-polynomial factor
    of the reduced transport right side (the x1-bump factor rides along as a
    scalar profile in t)."""
    space = cfg.space
    scale = 2 / cfg.alpha2 - 2 / cfg.alpha1
    out = Poly.zero(space)
    for i in range(cfg.n):
        xn = chain_var(space, "x", 2, i)
        y = Poly.var(space, chain_var(space, "y", 2, i))
        out = out + pert.homog.partial(xn) * y
    return out * Fraction(scale) * pert.sign


def select_alpha0(cfg: ChainConfig, pert: Perturbation,
                  eig: Optional[Eigencoords] = None) -> tuple[int, ...]:
    """Deterministic choice of the driven multi-index: maximal |c_alpha|
    (equivalently maximal integral of |g_alpha| along the orbit, since every
    g_alpha shares the same bump profile), ties broken lexicographically."""
    if eig is None:
        eig = eigencoords_w2(cfg)
    reduced = _reduced_rhs_poly(cfg, pert)
    coeffs = omega_coefficients(cfg, eig, reduced, pert.m)
    if not coeffs:
        raise ObstructionError("the reduced right side vanishes identically")
    best = min(coeffs.items(), key=lambda kv: (-abs(kv[1]), kv[0]))
    return best[0]


def run_obstruction(cfg: ChainConfig, pert: Optional[Perturbation] = None,
                    gamma1: Optional[flow.Trajectory] = None) -> ObstructionReport:
    """The full pipeline on a chain configuration: heteroclinic orbit,
    eigencoordinates, multi-index selection, transport diagnostics."""
    if pert is None:
        pert = default_perturbation(cfg)
    if cfg.alpha1 == cfg.alpha2:
        return ObstructionReport((0,) * (3 * cfg.n), 0j, 0.0, 0j, math.inf, False,
                                 (), 0.0, math.inf, math.inf, 0.0, "inconclusive",
                                 ("equal bath temperatures: the reduced right side is "
                                  "identically zero and no obstruction arises",))
    _check_support(cfg, pert.bump)
    if gamma1 is None:
        gamma1 = flow.heteroclinic_gamma1(cfg)
    eig = eigencoords_w2(cfg)
    alpha0 = select_alpha0(cfg, pert, eig)
    return transport_solve(cfg, pert, alpha0, gamma1, eig)


def _check_support(cfg: ChainConfig, bump: Bump):
    """The bump must lie strictly inside the x1-interval between the saddle
    and the minimum the heteroclinic connects it to; otherwise it vanishes
    on the orbit or touches an endpoint.  Decided from the stationary
    points, before any integration."""
    saddle, minimum = flow.heteroclinic_x1_range(cfg)
    lo, hi = sorted((saddle, minimum))
    if not lo < bump.lo < bump.hi < hi:
        raise UnsupportedConfig(
            f"the bump support [{bump.lo:g}, {bump.hi:g}] in x1 does not lie inside "
            f"({saddle:.6g}, {minimum:.6g}), between the saddle and the minimum the "
            "heteroclinic connects it to")


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
