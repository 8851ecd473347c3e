"""Bundled model families: overdamped Langevin (Witten form), kinetic
Fokker-Planck, and the two-bath oscillator chain.

Each constructor returns a ModelBundle holding the un-conjugated generator P,
the phase phi0 of the (candidate) Maxwellian e^{-2 phi0/h}, the conjugated
operator e^{phi0/h} P e^{-phi0/h}, and, when one exists, a reference
supersymmetric structure (A, phi, psi) that factorizes the conjugated
operator exactly.

The chain generator acts on positions x_j, velocities y_j and bath variables
z_j for two oscillators j = 1, 2 coupled through a potential

    W(x_1, x_2) = W_1(x_1) + W_2(x_2) + deltaW(x_1, x_2),

with bath temperatures T_j = alpha_j h / 2 and friction gamma.  A reference
structure ships exactly when the temperatures agree or the coupling deltaW
vanishes; in the remaining regime the obstruction pipeline takes over.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .opcore import SecondOrderOperator, divergence, zero_matrix
from .polyalg import Poly, VarSpace, parse_poly, parse_rational
from .susy import SusyStructure


class ModelError(ValueError):
    pass


class UnsupportedConfig(ValueError):
    """A chain config the loader accepts but a pipeline stage does not
    handle: an input outside the supported regime, not a mathematical
    negative."""


@dataclass(frozen=True)
class ModelBundle:
    operator: SecondOrderOperator
    phi0: Poly
    conjugated: SecondOrderOperator
    reference_susy: Optional[SusyStructure]


# ------------------------------------------------------------------- Witten

def witten_space(n: int) -> VarSpace:
    names = tuple(f"x{j+1}" for j in range(n))
    return VarSpace.make(names, {"x": names})


def make_witten(V: Poly, gamma=2) -> ModelBundle:
    """Overdamped Langevin generator -(gamma/2) h d . (h d + 2 dV)."""
    space = V.space
    n = space.n
    gamma = Fraction(gamma)
    B = zero_matrix(space)
    v = []
    for j, name in enumerate(space.names):
        B[j][j] = Poly.const(space, gamma / 2)
        v.append(V.partial(name) * (-gamma))
    v0 = divergence(space, v, True)
    P = SecondOrderOperator(space, tuple(tuple(r) for r in B), tuple(v), v0, True)
    conj = P.exp_conjugate(V, +1)
    A = zero_matrix(space)
    for j in range(n):
        A[j][j] = Poly.const(space, gamma / 2)
    ref = SusyStructure(tuple(tuple(r) for r in A), V, V)
    return ModelBundle(P, V, conj, ref)


# ---------------------------------------------------------------------- KFP

def kfp_space(n: int) -> VarSpace:
    xs = tuple(f"x{j+1}" for j in range(n))
    ys = tuple(f"y{j+1}" for j in range(n))
    return VarSpace.make(xs + ys, {"x": xs, "y": ys})


def make_kfp(V: Poly, gamma=2) -> ModelBundle:
    """Kinetic (Kramers) Fokker-Planck generator
    y . h d_x - dV . h d_y + (gamma/2)(-h d_y) . (h d_y + 2 y)."""
    space = V.space
    n = space.n // 2
    gamma = Fraction(gamma)
    xs = [f"x{j+1}" for j in range(n)]
    ys = [f"y{j+1}" for j in range(n)]
    if tuple(space.names) != tuple(xs + ys):
        raise ModelError("V must live over the kfp_space variable layout")
    B = zero_matrix(space)
    v = [Poly.zero(space) for _ in range(2 * n)]
    phi0 = V
    for j in range(n):
        yj = Poly.var(space, ys[j])
        iy = space.index(ys[j])
        ix = space.index(xs[j])
        B[iy][iy] = Poly.const(space, gamma / 2)
        v[ix] = yj
        v[iy] = -V.partial(xs[j]) - gamma * yj
        phi0 = phi0 + yj * yj * Fraction(1, 2)
    v0 = Poly.h(space) * (-gamma * n)
    P = SecondOrderOperator(space, tuple(tuple(r) for r in B), tuple(v), v0, True)
    conj = P.exp_conjugate(phi0, +1)
    A = zero_matrix(space)
    for j in range(n):
        iy = space.index(ys[j])
        ix = space.index(xs[j])
        A[ix][iy] = Poly.const(space, Fraction(1, 2))
        A[iy][ix] = Poly.const(space, Fraction(-1, 2))
        A[iy][iy] = Poly.const(space, gamma / 2)
    ref = SusyStructure(tuple(tuple(r) for r in A), phi0, phi0)
    return ModelBundle(P, phi0, conj, ref)


# -------------------------------------------------------------------- chain

def chain_space(n: int = 1) -> VarSpace:
    """Variables for the two-bath oscillator chain; for n = 1 the names are
    x1, y1, z1, x2, y2, z2 grouped into blocks w1 | w2."""
    def group(j):
        if n == 1:
            return (f"x{j}", f"y{j}", f"z{j}")
        out = []
        for kind in ("x", "y", "z"):
            out.extend(f"{kind}{j}_{i+1}" for i in range(n))
        return tuple(out)

    w1, w2 = group(1), group(2)
    return VarSpace.make(w1 + w2, {"w1": w1, "w2": w2})


def chain_var(space: VarSpace, kind: str, j: int, i: int = 0) -> str:
    """Name of the i-th coordinate of kind x/y/z of oscillator j (1-based j)."""
    block = space.block_vars(f"w{j}")
    n = len(block) // 3
    return block[{"x": 0, "y": 1, "z": 2}[kind] * n + i]


@dataclass(frozen=True)
class ChainConfig:
    n: int
    W1: Poly
    W2: Poly
    deltaW: Poly
    alpha1: Fraction
    alpha2: Fraction
    gamma: Fraction

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "gamma"):
            val = Fraction(getattr(self, name))
            if val <= 0:
                raise ModelError(f"{name} must be positive")
            object.__setattr__(self, name, val)
        space = self.space
        x1 = [chain_var(space, "x", 1, i) for i in range(self.n)]
        x2 = [chain_var(space, "x", 2, i) for i in range(self.n)]
        for name, W, block, where in (("W1", self.W1, x1, "the first position block"),
                                      ("W2", self.W2, x2, "the second position block"),
                                      ("deltaW", self.deltaW, x1 + x2, "positions")):
            if W.involves([v for v in space.names if v not in block]):
                raise ModelError(f"{name} must depend on {where} only")
            if not W.is_h_free():
                raise ModelError(f"{name} must be h-free: the leading symbol sees no h-terms")
        _check_positive_quadratic(self.W2, x2)

    @property
    def space(self) -> VarSpace:
        return self.W1.space

    @property
    def alphas(self) -> tuple[Fraction, Fraction]:
        return (self.alpha1, self.alpha2)

    def W(self) -> Poly:
        return self.W1 + self.W2 + self.deltaW

    def W0(self) -> Poly:
        return self.W1 + self.W2

    @staticmethod
    def from_json_dict(data: dict) -> "ChainConfig":
        if type(data) is not dict:
            raise ModelError("a chain config is a JSON object")
        n = data.get("n", 1)
        if type(n) is not int or n < 1:
            raise ModelError(f"n = {n!r} is not a positive JSON integer")
        space = chain_space(n)

        def poly(key):
            raw = data[key]
            if isinstance(raw, str):
                return parse_poly(space, raw)
            return Poly.from_literal(space, raw)

        return ChainConfig(n, poly("W1"), poly("W2"), poly("deltaW"),
                           _rat(data.get("alpha1", 1)), _rat(data.get("alpha2", 1)),
                           _rat(data.get("gamma", 1)))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "W1": self.W1.to_literal(), "W2": self.W2.to_literal(),
                "deltaW": self.deltaW.to_literal(),
                "alpha1": f"{self.alpha1.numerator}/{self.alpha1.denominator}",
                "alpha2": f"{self.alpha2.numerator}/{self.alpha2.denominator}",
                "gamma": f"{self.gamma.numerator}/{self.gamma.denominator}"}


def _rat(x) -> Fraction:
    """An exact rational from an int, a Fraction or a string such as "3/2";
    floats, decimal strings and booleans are refused."""
    if isinstance(x, str):
        return parse_rational(x)
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    raise ModelError(f"not an exact rational: {x!r} (use an integer or a string such as \"3/2\")")


def _check_positive_quadratic(W2: Poly, xvars: list[str]):
    """W2 must be a positive definite quadratic form in its block."""
    n = len(xvars)
    H = [[Fraction(0)] * n for _ in range(n)]
    for (exps, hpow), c in W2.terms.items():
        if hpow != 0 or sum(exps) != 2:
            raise ModelError("W2 must be a pure quadratic form")
        idx = [i for i, e in enumerate(exps) for _ in range(e)]
        names = [W2.space.names[i] for i in idx]
        a, b = (xvars.index(names[0]), xvars.index(names[1]))
        if a == b:
            H[a][a] += 2 * c
        else:
            H[a][b] += c
            H[b][a] += c
    # leading principal minors by exact fraction-free elimination
    for k in range(1, n + 1):
        minor = [row[:k] for row in H[:k]]
        det = _det(minor)
        if det <= 0:
            raise ModelError("W2 is not positive definite")


def _det(M: list[list[Fraction]]) -> Fraction:
    M = [row[:] for row in M]
    n = len(M)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det *= M[c][c]
        inv = 1 / M[c][c]
        for r in range(c + 1, n):
            f = M[r][c] * inv
            for cc in range(c, n):
                M[r][cc] -= f * M[c][cc]
    return det


def chain_phi0(cfg: ChainConfig) -> Poly:
    """The leading phase sum_j (1/alpha_j)(y_j^2/2 + W_j + (x_j - z_j)^2/2)."""
    space = cfg.space
    out = Poly.zero(space)
    for j, (alpha, Wj) in enumerate(((cfg.alpha1, cfg.W1), (cfg.alpha2, cfg.W2)), start=1):
        part = Wj
        for i in range(cfg.n):
            y = Poly.var(space, chain_var(space, "y", j, i))
            xz = Poly.var(space, chain_var(space, "x", j, i)) - Poly.var(space, chain_var(space, "z", j, i))
            part = part + y * y * Fraction(1, 2) + xz * xz * Fraction(1, 2)
        out = out + part * (1 / alpha)
    return out


def chain_operator(cfg: ChainConfig) -> SecondOrderOperator:
    """The two-bath chain generator in divergence normal form:

        B: (gamma alpha_j / 2) on the bath diagonal,
        v_x = y,  v_y = -(d_x W + x - z),  v_z = -gamma (z - x),
        v0 = -2 n gamma h.
    """
    space = cfg.space
    W = cfg.W()
    B = zero_matrix(space)
    v = [Poly.zero(space) for _ in range(space.n)]
    for j, alpha in enumerate(cfg.alphas, start=1):
        for i in range(cfg.n):
            xn, yn, zn = (chain_var(space, kind, j, i) for kind in "xyz")
            ix, iy, iz = map(space.index, (xn, yn, zn))
            x, y, z = (Poly.var(space, nm) for nm in (xn, yn, zn))
            B[iz][iz] = Poly.const(space, cfg.gamma * alpha / 2)
            v[ix] = y
            v[iy] = -(W.partial(xn) + x - z)
            v[iz] = -cfg.gamma * (z - x)
    v0 = Poly.h(space) * (-2 * cfg.n * cfg.gamma)
    return SecondOrderOperator(space, tuple(tuple(r) for r in B), tuple(v), v0, True)


def make_chain(cfg: ChainConfig) -> ModelBundle:
    """The chain operator (`chain_operator`), its phase phi0, the conjugated
    operator and, at equal temperatures or without coupling, the reference
    structure."""
    space = cfg.space
    P = chain_operator(cfg)

    phi0 = chain_phi0(cfg)
    if cfg.alpha1 == cfg.alpha2:
        phi0 = phi0 + cfg.deltaW * (1 / cfg.alpha1)
    conj = P.exp_conjugate(phi0, +1)

    ref = None
    if cfg.alpha1 == cfg.alpha2 or cfg.deltaW.is_zero:
        A = zero_matrix(space)
        for j, alpha in enumerate(cfg.alphas, start=1):
            for i in range(cfg.n):
                ix, iy, iz = (space.index(chain_var(space, kind, j, i)) for kind in "xyz")
                A[ix][iy] = Poly.const(space, alpha / 2)
                A[iy][ix] = Poly.const(space, -alpha / 2)
                A[iz][iz] = Poly.const(space, cfg.gamma * alpha / 2)
        ref = SusyStructure(tuple(tuple(r) for r in A), phi0, phi0)
    return ModelBundle(P, phi0, conj, ref)


def hamiltonian_p(cfg: ChainConfig) -> tuple[Poly, VarSpace]:
    """The real phase-space Hamiltonian of the conjugated chain operator,

        p = y.xi + gamma (z - x).zeta - (d W0 + x - z).eta
            + (gamma/2) sum_j alpha_j zeta_j^2
            - d_x deltaW . eta - 2 sum_j d_{x_j} deltaW . y_j / alpha_j,

    over the doubled space (w, w') with w'_j dual to w_j: the symbol q of
    e^{2 phi0/h} P e^{-2 phi0/h}, for P the chain operator and phi0 =
    chain_phi0(cfg)."""
    return chain_operator(cfg).exp_conjugate(2 * chain_phi0(cfg)).symbols()[2:]


# -------------------------------------------------------- bundled instances

def default_chain_config(equal_temperature: bool = False,
                         delta_w: str | None = "1/10*x1*x2^3",
                         alpha2: Fraction | int | str = 2) -> ChainConfig:
    """The desk-scale instance: n = 1, gamma = 1, double well
    W1 = (x1^2-1)^2/4, transverse well W2 = x2^2/2."""
    space = chain_space(1)
    W1 = parse_poly(space, "1/4*x1^4 - 1/2*x1^2 + 1/4")
    W2 = parse_poly(space, "1/2*x2^2")
    dW = parse_poly(space, delta_w) if delta_w else Poly.zero(space)
    a2 = Fraction(1) if equal_temperature else _rat(alpha2)
    return ChainConfig(1, W1, W2, dW, Fraction(1), a2, Fraction(1))


def reference_bundles() -> dict[str, ModelBundle]:
    """The bundled models used by structure verification and the CLI."""
    wsp1 = witten_space(1)
    wsp2 = witten_space(2)
    ksp = kfp_space(1)
    v_dw = parse_poly(wsp1, "1/4*x1^4 - 1/2*x1^2")
    v_quad2 = parse_poly(wsp2, "1/2*x1^2 + 1/2*x2^2")
    return {
        "witten_harmonic": make_witten(parse_poly(wsp1, "1/2*x1^2"), 2),
        "witten_double_well": make_witten(v_dw, 2),
        "witten_harmonic_2d": make_witten(v_quad2, 2),
        "kfp_harmonic": make_kfp(parse_poly(ksp, "1/2*x1^2"), 2),
        "chain_equal_temperature": make_chain(default_chain_config(equal_temperature=True)),
        "chain_decoupled": make_chain(default_chain_config(delta_w=None)),
    }
