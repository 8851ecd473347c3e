"""Correctness checks, computed apart from the program.

The checks read the serialized outputs of one round and recompute what they
must satisfy with sympy and numpy, never with susyfact: exact identities are
expanded as sympy polynomials over QQ, roots of the spectral cubic come from
sympy's root finder, and known answers (verdicts, exit codes) come from the
mathematics of each instance.  `check_round` returns, per operation, None
when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from functools import lru_cache

import numpy as np
import sympy
from sympy import QQ

import inputs

OBSTRUCTION_VERDICTS = ("blowup_at_minimum", "nonsmooth_at_saddle")
CHAIN_NAMES = ("x1", "y1", "z1", "x2", "y2", "z2")


class CheckFailed(Exception):
    pass


def require(cond, reason: str):
    if not cond:
        raise CheckFailed(reason)


# -------------------------------------------------------------- polynomials

class Ring:
    """Polynomials over QQ in the operator's variables plus h."""

    def __init__(self, names):
        self.names = list(names)
        self.gens = sympy.symbols(self.names + ["h"])
        self.h = self.poly_of({(0,) * len(self.names) + (1,): QQ(1)})

    def poly_of(self, terms: dict):
        return sympy.Poly.from_dict(terms or {(0,) * len(self.gens): QQ(0)}, *self.gens,
                                    domain=QQ)

    def literal(self, lit: list) -> sympy.Poly:
        """The program's term list [{"coeff", "exps", "hpow"}] as a Poly."""
        terms: dict = {}
        for t in lit:
            num, den = t["coeff"].split("/")
            key = tuple(t["exps"]) + (t.get("hpow", 0),)
            terms[key] = terms.get(key, QQ(0)) + QQ(int(num), int(den))
        return self.poly_of(terms)

    def text(self, s: str) -> sympy.Poly:
        """The program's mini-grammar (sums of monomials) read by sympy."""
        loc = {str(g): g for g in self.gens}
        return sympy.Poly(sympy.sympify(s.replace("^", "**"), locals=loc), *self.gens,
                          domain=QQ)

    def zero(self):
        return self.poly_of({})

    def D(self, f, j):
        return self.h * f.diff(self.gens[j])


def _matrix(ring: Ring, entries: list, n: int, symmetric: bool):
    M = [[ring.zero() for _ in range(n)] for _ in range(n)]
    for e in entries:
        j, k = e["i"], e["j"]
        p = ring.literal(e["poly"])
        M[j][k] = M[j][k] + p
        if symmetric and j != k:
            M[k][j] = M[k][j] + p
    return M


def factorization_error(operator: dict, structure: dict, us: list[str]) -> str | None:
    """Check that A factorizes P: sym(A) = B exactly, and

        sum_j (-D_j + d_j psi) sum_k A_kj (D_k + d_k phi) u = P u

    for each test polynomial u, with P u = -sum D_j(B_jk D_k u) + sum v_j D_j u
    + v0 u (the divergence normal form of the program's opcore), D_j = h d_j."""
    require(operator["semiclassical"], "expected a semiclassical operator")
    ring = Ring(operator["variables"])
    n = len(ring.names)
    B = _matrix(ring, operator["B"], n, symmetric=True)
    v = [ring.zero() for _ in range(n)]
    for e in operator["v"]:
        v[e["i"]] = ring.literal(e["poly"])
    v0 = ring.literal(operator["v0"])
    A = _matrix(ring, structure["A"], n, symmetric=False)
    phi, psi = ring.literal(structure["phi"]), ring.literal(structure["psi"])
    for j in range(n):
        for k in range(n):
            if (A[j][k] + A[k][j]) * QQ(1, 2) != B[j][k]:
                return f"symmetric part of A differs from B at ({j},{k})"
    dphi = [phi.diff(g) for g in ring.gens[:n]]
    dpsi = [psi.diff(g) for g in ring.gens[:n]]
    for text in us:
        u = ring.text(text)
        Du = [ring.D(u, k) for k in range(n)]
        Pu = v0 * u
        for j in range(n):
            Pu += v[j] * Du[j]
            inner = ring.zero()
            for k in range(n):
                if not B[j][k].is_zero:
                    inner += B[j][k] * Du[k]
            Pu -= ring.D(inner, j)
        Qu = ring.zero()
        grad = [Du[k] + dphi[k] * u for k in range(n)]
        for j in range(n):
            S = ring.zero()
            for k in range(n):
                if not A[k][j].is_zero:
                    S += A[k][j] * grad[k]
            Qu += dpsi[j] * S - ring.D(S, j)
        if Pu != Qu:
            return f"factorization identity fails on u = {text}"
    return None


# ------------------------------------------------------------ exact-construct

def _construct_check(out: dict, seed: int, name: str) -> None:
    require(out["verdict"]["status"] == "constructed",
            f"verdict {out['verdict']['status']}, expected constructed")
    us = inputs.test_polynomials(seed, name, out["operator"]["variables"])
    err = factorization_error(out["operator"], out["verdict"]["structure"], us)
    require(err is None, err)


def _field_matches_input(out: dict, field: dict) -> None:
    op = out["operator"]
    require(op["variables"] == field["variables"], "operator over the wrong variables")
    ring = Ring(field["variables"])
    n = len(field["variables"])
    B = _matrix(ring, op["B"], n, symmetric=True)
    one = ring.poly_of({(0,) * (n + 1): QQ(1)})
    require(all(B[j][k] == (one if j == k else ring.zero())
                for j in range(n) for k in range(n)), "B is not the identity")
    v = {e["i"]: ring.literal(e["poly"]) for e in op["v"]}
    require(all(v.get(k, ring.zero()) == ring.text(t) for k, t in enumerate(field["v"])),
            "drift differs from the generated field")
    require(ring.literal(op["v0"]).is_zero, "v0 is not zero")


def unequal_residual_error(out: dict, cfg: dict) -> str | None:
    """Criterion 4: with phi = 2 phi0 + (2/alpha1) deltaW the kernel residual
    of the unequal chain is (2/alpha2 - 2/alpha1) d_{x2} deltaW y2."""
    ring = Ring(out["variables"])
    dW = ring.text(cfg["deltaW"])
    x2, y2 = ring.gens[ring.names.index("x2")], ring.gens[ring.names.index("y2")]
    scale = 2 / QQ(Fraction(cfg["alpha2"])) - 2 / QQ(Fraction(cfg["alpha1"]))
    expected = dW.diff(x2) * sympy.Poly(y2, *ring.gens, domain=QQ) * scale
    if ring.literal(out["residual"]) != expected:
        return "kernel residual differs from (2/alpha2 - 2/alpha1) d_x2 deltaW y2"
    return None


def check_exact_construct(name: str, out: dict, data: dict, seed: int) -> None:
    if name == "reference-bundles":
        require(out == sorted(inputs.BUNDLED), f"bundled models {out}")
    elif name.startswith("bundled:"):
        _construct_check(out, seed, name)
        require(out["verify"] == "verified", "verify_structure did not verify")
    elif name == "verify-models":
        require([r["model"] for r in out] == list(inputs.BUNDLED), "wrong model list")
        require(all(r["status"] == "ok" for r in out), "a reference structure mismatched")
    elif name == "chain-unequal":
        require(out["verdict"]["status"] == "necessary_condition_failed",
                f"verdict {out['verdict']['status']}, expected necessary_condition_failed")
        err = unequal_residual_error(out, data["unequal"])
        require(err is None, err)
    elif name.startswith("field:"):
        _field_matches_input(out, data["fields"][int(name.split(":")[1])])
        _construct_check(out, seed, name)
    elif name.startswith("chain:"):
        _construct_check(out, seed, name)
    else:
        raise CheckFailed(f"unknown operation {name}")


# ---------------------------------------------------------- chain-obstruction

@lru_cache(maxsize=None)
def cubic_roots(w) -> tuple[complex, ...]:
    """Roots of lambda^3 - lambda^2 + (1+w) lambda - w with sympy, sorted by
    (real, imaginary) part."""
    lam = sympy.Symbol("lam")
    roots = sympy.Poly(lam ** 3 - lam ** 2 + (1 + w) * lam - w, lam).nroots(n=30)
    return tuple(sorted((complex(r) for r in roots), key=lambda z: (z.real, z.imag)))


def _chain_exprs(cfg: dict):
    syms = sympy.symbols(CHAIN_NAMES)
    loc = dict(zip(CHAIN_NAMES, syms))
    W1 = sympy.sympify(cfg["W1"].replace("^", "**"), locals=loc)
    W2 = sympy.sympify(cfg["W2"].replace("^", "**"), locals=loc)
    return syms, W1, W2


def saddle_mu1(cfg: dict) -> float:
    """mu1 = -(the negative root of the cubic) at the saddle x1 = 0, where
    w = W1''(0)."""
    syms, W1, _ = _chain_exprs(cfg)
    w = sympy.diff(W1, syms[0], 2).subs(syms[0], 0)
    neg = [z for z in cubic_roots(w) if z.real < 0]
    return -neg[0].real


def transverse_lambdas(cfg: dict) -> tuple[complex, ...]:
    """Eigenvalues of the linear field on the second block: the cubic's roots
    at w = W2''."""
    syms, _, W2 = _chain_exprs(cfg)
    return cubic_roots(sympy.diff(W2, syms[3], 2))


def phi0_along(cfg: dict, states) -> np.ndarray:
    syms, W1, W2 = _chain_exprs(cfg)
    x1, y1, z1, x2, y2, z2 = syms
    a1, a2 = sympy.Rational(cfg["alpha1"]), sympy.Rational(cfg["alpha2"])
    phi0 = ((y1 ** 2 / 2 + W1 + (x1 - z1) ** 2 / 2) / a1
            + (y2 ** 2 / 2 + W2 + (x2 - z2) ** 2 / 2) / a2)
    f = sympy.lambdify(syms, phi0, "numpy")
    s = np.asarray(states, dtype=float)
    return np.asarray(f(*s.T), dtype=float)


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def obstruction_error(out: dict, cfg: dict) -> str | None:
    if Fraction(cfg["alpha1"]) == Fraction(cfg["alpha2"]):
        return None if out["verdict"] == "inconclusive" else \
            f"verdict {out['verdict']} at equal temperatures, expected inconclusive"
    if out["verdict"] not in OBSTRUCTION_VERDICTS:
        return f"verdict {out['verdict']}"
    lam = transverse_lambdas(cfg)
    lam_alpha = sum(a * l for a, l in zip(out["alpha"], lam))
    mu1 = saddle_mu1(cfg)
    if abs(out["mu1"] - mu1) > 1e-9 * mu1:
        return f"mu1 {out['mu1']} differs from {mu1}"
    if abs(_complex(out["lambda_dot_alpha"]) - lam_alpha) > 1e-9 * abs(lam_alpha):
        return "lambda.alpha differs from the cubic's roots"
    if abs(_complex(out["exponent"]) - lam_alpha / mu1) > 1e-9 * abs(lam_alpha / mu1):
        return "exponent differs from lambda.alpha / mu1"
    if not out["tail_rate_relative_error"] < 0.05:
        return f"tail-rate relative error {out['tail_rate_relative_error']}"
    return None


def sweep_errors(outs: dict[str, dict], cfgs: dict[str, dict]) -> dict[str, str]:
    """Across the unequal sweep: one exponent, and K_magnitude proportional
    to |2/alpha2 - 2/alpha1| (the transport equation is linear in its right
    side).  Each operation is compared with the median of the sweep."""
    ratios, exps = {}, {}
    for name, out in outs.items():
        cfg = cfgs[name]
        scale = abs(2 / Fraction(cfg["alpha2"]) - 2 / Fraction(cfg["alpha1"]))
        if scale == 0 or out["verdict"] not in OBSTRUCTION_VERDICTS:
            continue
        ratios[name] = out["K_magnitude"] / float(scale)
        exps[name] = _complex(out["exponent"])
    errors = {}
    if ratios:
        ref = float(np.median(list(ratios.values())))
        ref_exp = sorted(exps.values(), key=lambda z: (z.real, z.imag))[len(exps) // 2]
        for name in ratios:
            if abs(ratios[name] - ref) > 1e-6 * abs(ref):
                errors[name] = "K_magnitude not proportional to |2/alpha2 - 2/alpha1|"
            elif abs(exps[name] - ref_exp) > 1e-9 * abs(ref_exp):
                errors[name] = "exponent changes across the sweep"
    return errors


def heteroclinic_error(out: dict, cfg: dict) -> str | None:
    states = np.asarray(out["states"])
    minimum = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    if not np.linalg.norm(states[0] - minimum) < 1e-6:
        return "orbit does not start at the minimum (1, 0, 1)"
    if not np.linalg.norm(states[-1]) < 1e-6:
        return "orbit does not end at the saddle"
    if abs(out["mu1"] - saddle_mu1(cfg)) > 1e-9:
        return "mu1 differs from the cubic's negative root"
    inc = np.diff(phi0_along(cfg, states))
    resolvable = inc[np.abs(inc) > 1e-12]
    if not (np.all(resolvable > 0) and np.all(inc > -5e-13) and inc.sum() > 0):
        return "phi0 is not strictly increasing along the orbit"
    return None


def spectral_error(rows: list[dict], grid: list[float]) -> str | None:
    if [r["w"] for r in rows] != [float(w) for w in grid]:
        return "rows do not follow the requested grid"
    for r in rows:
        w = r["w"]
        roots = [_complex(z) for z in r["roots"]]
        if max(abs(z ** 3 - z ** 2 + (1 + w) * z - w) for z in roots) >= 1e-10:
            return f"roots do not solve the cubic at w={w}"
        if abs(sum(roots) - 1.0) >= 1e-10:
            return f"roots do not sum to 1 at w={w}"
        want = "one_zero" if w == 0 else ("all_re_positive" if w > 0 else "one_negative")
        if r["class"] != want:
            return f"class {r['class']} at w={w}"
    return None


def f_critical_error(out: list) -> str | None:
    lam = sympy.Symbol("lam")
    roots = [r for r in sympy.Poly(1 - 2 * lam * (1 - lam) ** 2, lam).nroots(n=30)
             if r.is_real and r > 1]
    if len(roots) != 1:
        return "G has no unique root above 1"
    m = float(roots[0])
    if abs(out[0] - m) > 1e-9 or abs(out[1] - (m / (1 - m) - m * m)) > 1e-9 or out[1] >= 0:
        return f"critical point {out} differs from m={m}"
    return None


def check_chain_round(outs: dict[str, dict | None], data: dict) -> dict[str, str]:
    cfgs = {a2: c for a2, c in zip(inputs.SWEEP_ALPHA2, data["sweep"])}
    errors = {}
    for name, out in outs.items():
        if out is None:
            continue
        try:
            err = _chain_op_error(name, out, data, cfgs)
        except (KeyError, ValueError, TypeError, IndexError) as e:
            err = f"malformed output: {type(e).__name__}: {e}"
        if err:
            errors[name] = err
    sweep = {n: o for n, o in outs.items()
             if o is not None and n.startswith("obstruction:") and n != "obstruction:wells-pm2"}
    for name, err in sweep_errors(sweep, {n: cfgs[n.split(":")[1]] for n in sweep}).items():
        errors.setdefault(name, err)
    return errors


def _chain_op_error(name: str, out, data: dict, cfgs: dict) -> str | None:
    kind, _, arg = name.partition(":")
    if kind == "heteroclinic":
        return heteroclinic_error(out, cfgs[arg])
    if kind == "lyapunov":
        ok = out["strictly_increasing"] is True and out["phi0_end"] > out["phi0_start"]
        return None if ok else "Lyapunov report is not strictly increasing"
    if kind == "obstruction":
        return obstruction_error(out, data["wells_pm2"] if arg == "wells-pm2" else cfgs[arg])
    if kind == "invariant":
        ok = (out["symbolic_zero"] is True and out["numeric_drift"] < 1e-9
              and out["nu1_flow_relative_difference"] < 1e-6)
        return None if ok else f"invariant subspace check {out}"
    if kind == "spectral-grid":
        return spectral_error(out, data["w_grid"])
    if kind == "F-critical-point":
        return f_critical_error(out)
    if kind == "quintic-probe":
        want = [("generic", 1.0), ("y_nonzero_degenerate", 3.0), ("fully_degenerate", 5.0)]
        got = [(r["case"], r["slope"]) for r in out]
        ok = len(got) == 3 and all(c == wc and abs(s - ws) < 0.3
                                   for (c, s), (wc, ws) in zip(got, want))
        return None if ok else f"probe slopes {got}"
    return f"unknown operation {name}"


# ------------------------------------------------------------------ cli-cold

CLI_EXIT = {"check-witten": 0, "construct-witten": 0, "construct-chain-equal": 0,
            "check-chain-unequal": 1, "verify-models": 0, "spectral": 0, "flow": 0}
CLI_STATUS = {"check-witten": "verified", "construct-witten": "constructed",
              "construct-chain-equal": "constructed",
              "check-chain-unequal": "necessary_condition_failed"}
SPECTRAL_HEADER = "w,re1,im1,re2,im2,re3,im3,class"
FLOW_HEADER = "t,x1,y1,z1,x2,y2,z2,phi0"
FLOW_ROWS = 2 * 400 - 1   # two legs of 400 samples sharing the shooting seed


def _report(text: str, command: str, seed: int) -> dict:
    rep = json.loads(text)
    require(rep.get("schema_version") == 1, "schema_version is not 1")
    require(rep.get("command") == command, f"command {rep.get('command')}")
    require(rep.get("seed") == seed, "seed not recorded")
    return rep


def _csv(text: str, header: str, rows: int) -> list[list[str]]:
    table = list(csv.reader(io.StringIO(text)))
    require(table and ",".join(table[0]) == header, f"CSV header {table[:1]}")
    require(len(table) - 1 == rows, f"CSV has {len(table) - 1} rows, expected {rows}")
    return table[1:]


def check_cli(name: str, out: dict, data: dict) -> None:
    seed = data["cli_seed"]
    require(out["rc"] == CLI_EXIT[name], f"exit code {out['rc']}, expected {CLI_EXIT[name]}")
    if name in CLI_STATUS:
        rep = _report(out["stdout"], name.split("-")[0], seed)
        require(rep["verdict"]["status"] == CLI_STATUS[name],
                f"status {rep['verdict']['status']}")
    elif name == "verify-models":
        rep = _report(out["stdout"], "verify-models", seed)
        require([(r["model"], r["status"]) for r in rep["models"]]
                == [(m, "ok") for m in inputs.BUNDLED], "model statuses")
    elif name == "spectral":
        require(out["stdout"] == "", "report went to stdout despite --out")
        rep = _report(out["files"]["spectral.json"], "spectral", seed)
        grid = [-10 + 20 * i / 199 for i in range(200)]
        err = spectral_error(rep["rows"], grid)
        require(err is None, err)
        _csv(out["files"]["spectral.csv"], SPECTRAL_HEADER, 200)
    elif name == "flow":
        require(out["stdout"] == "", "report went to stdout despite --out")
        rep = _report(out["files"]["flow.json"], "flow", seed)
        require(rep["lyapunov"]["strictly_increasing"] is True, "phi0 not increasing")
        require(rep["endpoint_residual_minimum"] < 1e-6
                and rep["endpoint_residual_saddle"] < 1e-6, "endpoint residuals")
        rows = _csv(out["files"]["flow.csv"], FLOW_HEADER, FLOW_ROWS)
        states = np.array([[float(v) for v in r[1:7]] for r in rows])
        phi0 = phi0_along(inputs.bundled_config("chain_unequal"), states)
        require(np.allclose(phi0, [float(r[7]) for r in rows], rtol=1e-9, atol=1e-12),
                "phi0 column differs from phi0 of the states")
    else:
        raise CheckFailed(f"unknown operation {name}")


# -------------------------------------------------------------------- rounds

def check_round(workload: str, outs: dict[str, dict | None], data: dict,
                seed: int, memo: dict) -> dict[str, str]:
    """Reasons for every operation of one round whose output is wrong.
    `outs` maps an operation to its parsed output (None if it raised);
    `memo` caches single-output verdicts by output text across rounds."""
    if workload == "chain-obstruction":
        return check_chain_round(outs, data)
    errors = {}
    for name, out in outs.items():
        if out is None:
            continue
        key = (name, json.dumps(out, sort_keys=True))
        if key not in memo:
            try:
                if workload == "exact-construct":
                    check_exact_construct(name, out, data, seed)
                else:
                    check_cli(name, out, data)
                memo[key] = None
            except CheckFailed as e:
                memo[key] = str(e)
            except (KeyError, ValueError, TypeError, IndexError) as e:
                memo[key] = f"malformed output: {type(e).__name__}: {e}"
        if memo[key]:
            errors[name] = memo[key]
    return errors
