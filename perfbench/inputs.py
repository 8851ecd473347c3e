"""Seeded inputs for the benchmark workloads, as plain data.

Nothing here imports susyfact: run.py writes these inputs to a file, the
workload process parses the texts with the program's own parser (that parse
is part of `setup_s`), and the checks read the same texts with sympy.  The
same seed always gives the same inputs.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from itertools import combinations

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(ROOT, "src", "susyfact", "configs")

BUNDLED = ("witten_harmonic", "witten_double_well", "witten_harmonic_2d",
           "kfp_harmonic", "chain_equal_temperature", "chain_decoupled")
RANDOM_FIELDS = 50
FIELD_NAMES = ("x1", "x2", "x3", "x4")
SWEEP_ALPHA2 = ("1", "3/2", "2", "3")
WELLS_PM2_W1 = "1/16*x1^4 - 1/2*x1^2 + 1"
W_GRID = [round(-10.0 + 20.0 * i / 199.0, 12) for i in range(200)]


def bundled_config(name: str) -> dict:
    with open(os.path.join(CONFIG_DIR, name + ".json")) as f:
        return json.load(f)


def _workload_rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ------------------------------------------------------------ polynomials

def poly_text(terms: dict[tuple[tuple[int, ...], int], Fraction], names) -> str:
    """Render {(exps, hpow): coeff} in the program's mini-grammar."""
    parts = []
    for (exps, hpow), c in sorted(terms.items()):
        if c == 0:
            continue
        factors = [str(abs(c))]
        if hpow:
            factors.append("h" if hpow == 1 else f"h^{hpow}")
        for name, e in zip(names, exps):
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        parts.append(("- " if c < 0 else "+ ") + "*".join(factors))
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _partial(terms, i):
    out: dict = {}
    for (exps, hpow), c in terms.items():
        if exps[i]:
            k = (tuple(e - 1 if j == i else e for j, e in enumerate(exps)), hpow)
            out[k] = out.get(k, Fraction(0)) + c * exps[i]
    return out


def random_divergence_fields(seed: int) -> list[dict]:
    """The criterion-5 distribution: a random 2-vector G of degree <= 4 over
    2 to 4 variables, and the divergence-free drift v_k = h sum_j d_j G_jk
    (G antisymmetric).  Such a drift always factorizes, through the
    unweighted (homotopy) path of `construct`."""
    rng = _workload_rng(seed, "fields")
    out = []
    for _ in range(RANDOM_FIELDS):
        n = rng.randint(2, 4)
        G: dict[tuple[int, int], dict] = {}
        for idx in combinations(range(n), 2):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                exps = [0] * n
                for _ in range(rng.randint(0, 4)):
                    exps[rng.randrange(n)] += 1
                terms[(tuple(exps), 1)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            G[idx] = terms
        v = []
        for k in range(n):
            acc: dict = {}
            for j in range(n):
                if j == k:
                    continue
                sign = 1 if j < k else -1
                for key, c in _partial(G[(min(j, k), max(j, k))], j).items():
                    acc[key] = acc.get(key, Fraction(0)) + sign * c
            v.append(poly_text(acc, FIELD_NAMES[:n]))
        out.append({"variables": list(FIELD_NAMES[:n]), "v": v})
    return out


def test_polynomials(seed: int, key: str, names, count: int = 2) -> list[str]:
    """Test functions u for the factorization identity: a constant, every
    variable linearly, and a few random monomials of degree 2 and 3, all with
    random rational coefficients."""
    rng = random.Random(f"u:{seed}:{key}")
    n = len(names)
    out = []
    for _ in range(count):
        terms = {((0,) * n, 0): Fraction(rng.randint(1, 9), rng.randint(1, 4))}
        for i in range(n):
            e = [0] * n
            e[i] = 1
            terms[(tuple(e), 0)] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                            rng.randint(1, 4))
        for _ in range(4):
            e = [0] * n
            for _ in range(rng.randint(2, 3)):
                e[rng.randrange(n)] += 1
            terms[(tuple(e), 0)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        out.append(poly_text(terms, names))
    return out


# -------------------------------------------------------------- workloads

def n2_chain_configs() -> list[dict]:
    """Two 12-variable chains (n = 2 oscillators per bath) that factorize
    through the weighted linear solve: equal temperatures with coupling, and
    unequal temperatures without coupling."""
    W1 = "1/4*x1_1^4 - 1/2*x1_1^2 + 1/4 + 1/4*x1_2^4 - 1/2*x1_2^2 + 1/4"
    W2 = "1/2*x2_1^2 + 1/2*x2_2^2"
    base = {"n": 2, "W1": W1, "W2": W2, "alpha1": "1", "gamma": "1"}
    return [dict(base, name="n2-equal", deltaW="1/10*x1_1*x2_1^3", alpha2="1"),
            dict(base, name="n2-decoupled", deltaW="0", alpha2="2")]


def exact_construct(seed: int) -> dict:
    return {"fields": random_divergence_fields(seed),
            "unequal": bundled_config("chain_unequal"),
            "n2": n2_chain_configs()}


def probe_points(seed: int) -> list[list[float]]:
    """One start point per class of the derivative cascade, x1 inside the
    well region: generic (z != x) and z = x with y != 0 drawn from the seed,
    and the bundled z = x, y = 0 point (0.5, 0, 0.5).  That last class is not
    drawn: quintic_bound_probe rejects about half of its points in this
    range, because the increment ~ t^5 falls below the integrator's
    tolerance at the first sample time."""
    rng = _workload_rng(seed, "probe")
    x1 = rng.uniform(0.3, 0.7)
    generic = [x1, rng.uniform(-0.2, 0.2), x1 - rng.choice([-1, 1]) * rng.uniform(0.2, 0.5),
               0.0, 0.0, 0.0]
    x1 = rng.uniform(0.3, 0.7)
    y_degenerate = [x1, rng.choice([-1, 1]) * rng.uniform(0.2, 0.4), x1, 0.0, 0.0, 0.0]
    return [generic, y_degenerate, [0.5, 0.0, 0.5, 0.0, 0.0, 0.0]]


def chain_obstruction(seed: int) -> dict:
    unequal = bundled_config("chain_unequal")
    sweep = [dict(unequal, alpha2=a2) for a2 in SWEEP_ALPHA2]
    return {"sweep": sweep, "wells_pm2": dict(unequal, W1=WELLS_PM2_W1),
            "probe_points": probe_points(seed), "w_grid": W_GRID}


def cli_cold(seed: int) -> dict:
    """The seven invocations; the CLI receives the seed only as --seed, which
    it records in every report."""
    equal = bundled_config("chain_equal")
    unequal = bundled_config("chain_unequal")
    return {"cli_seed": seed, "two_phi0_equal": two_phi0_text(equal, coupled=True),
            "two_phi0_unequal": two_phi0_text(unequal, coupled=False)}


def two_phi0_text(cfg: dict, coupled: bool) -> str:
    """2 phi0 for an n = 1 chain config, where
    phi0 = sum_j (1/alpha_j)(y_j^2/2 + W_j + (x_j - z_j)^2/2), plus
    deltaW/alpha1 at equal temperatures; built with sympy."""
    import sympy

    x1, y1, z1, x2, y2, z2 = sympy.symbols("x1 y1 z1 x2 y2 z2")
    loc = {"x1": x1, "x2": x2}
    W1 = sympy.sympify(cfg["W1"].replace("^", "**"), locals=loc)
    W2 = sympy.sympify(cfg["W2"].replace("^", "**"), locals=loc)
    dW = sympy.sympify(cfg["deltaW"].replace("^", "**"), locals=loc)
    a1, a2 = sympy.Rational(cfg["alpha1"]), sympy.Rational(cfg["alpha2"])
    phi0 = ((y1 ** 2 / 2 + W1 + (x1 - z1) ** 2 / 2) / a1
            + (y2 ** 2 / 2 + W2 + (x2 - z2) ** 2 / 2) / a2)
    if coupled:
        phi0 += dW / a1
    gens = (x1, y1, z1, x2, y2, z2)
    p = sympy.Poly(sympy.expand(2 * phi0), *gens)
    terms = {(e, 0): Fraction(int(c.p), int(c.q)) for e, c in p.terms()}
    return poly_text(terms, [str(g) for g in gens])


WORKLOADS = {"exact-construct": exact_construct,
             "chain-obstruction": chain_obstruction,
             "cli-cold": cli_cold}
