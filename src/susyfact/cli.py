"""Command-line front end.

Subcommands
    check          kernel (Maxwellian) conditions for a candidate weight pair
    construct      build and verify a supersymmetric structure
    verify-models  exact factorization identities for every bundled model
    spectral       eigenvalue triples over a grid of Hessian eigenvalues
    flow           heteroclinic orbit and Lyapunov monotonicity report
    obstruct       the unequal-temperature transport obstruction

Inputs are JSON files (operator specs, chain configs) or bundled model names;
polynomial flags use an inline mini-grammar: sums of monomials with rational
coefficients, e.g. "1/4*x1^4 - 1/2*x1^2" or "h*y1*z1" (h is the semiclassical
parameter).  Reports are JSON with a schema_version field and canonical
formatting (sorted keys, each float as its shortest repr), so identical
inputs produce byte-identical outputs; trajectories are CSV.

Exit codes: 0 success, 1 mathematical failure (a condition the command was
asked to verify does not hold), 2 usage or input error, 3 numerical failure
(the heteroclinic shooting or its integration did not succeed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from importlib import resources
from typing import Optional

from . import flow as flowmod
from . import models, obstruction, spectral, susy
from .opcore import SecondOrderOperator
from .polyalg import Poly, PolyError, parse_poly

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


# ------------------------------------------------------------ serialization

def _canon(value):
    """Make a report JSON-serializable with deterministic float text."""
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return float(value)
    if isinstance(value, complex):
        return [_canon(value.real), _canon(value.imag)]
    raise UsageError(f"cannot serialize value of type {type(value).__name__}")


def canonical_json(data) -> str:
    return json.dumps(_canon(data), sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(report: dict, out: Optional[str]):
    text = canonical_json(report)
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------------ loading

def _load_json(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise UsageError(f"file not found: {path}")
    except json.JSONDecodeError as e:
        raise UsageError(f"{path}:{e.lineno}:{e.colno}: malformed JSON: {e.msg}")


def _bundled_config_path(name: str) -> Optional[str]:
    for candidate in (name, name + ".json"):
        ref = resources.files("susyfact").joinpath("configs", candidate)
        if ref.is_file():
            return str(ref)
    return None


def _load_operator(args) -> SecondOrderOperator:
    sources = [s for s in (args.operator, args.model, args.config) if s]
    if len(sources) != 1:
        raise UsageError("provide exactly one of --operator, --model, --config")
    if args.operator:
        data = _load_json(args.operator)
        try:
            return SecondOrderOperator.from_json_dict(data)
        except (KeyError, ValueError) as e:
            raise UsageError(f"{args.operator}: bad operator spec: {e}")
    if args.model:
        bundles = models.reference_bundles()
        if args.model not in bundles:
            raise UsageError(f"unknown model {args.model!r}; available: "
                             + ", ".join(sorted(bundles)))
        return bundles[args.model].operator
    cfg = _load_chain_config(args.config)
    return models.chain_operator(cfg)


def _load_chain_config(path: str) -> models.ChainConfig:
    real = path if os.path.exists(path) else _bundled_config_path(path)
    if real is None:
        raise UsageError(f"config not found: {path}")
    data = _load_json(real)
    try:
        return models.ChainConfig.from_json_dict(data)
    except (KeyError, ValueError) as e:
        raise UsageError(f"{real}: bad chain config: {e}")


def _parse_weight(op: SecondOrderOperator, text: Optional[str]) -> Poly:
    if not text:
        return Poly.zero(op.space)
    try:
        return parse_poly(op.space, text)
    except PolyError as e:
        raise UsageError(str(e))


TOL_KEYS = ("endpoint_tol",)


def _parse_tols(text: Optional[str]) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise UsageError(f"bad --tol-overrides entry {item!r} (expected key=value)")
        k, v = item.split("=", 1)
        k = k.strip()
        if k not in TOL_KEYS:
            raise UsageError(f"unknown --tol-overrides key {k!r}; known: " + ", ".join(TOL_KEYS))
        try:
            out[k] = float(v)
        except ValueError:
            raise UsageError(f"bad tolerance value {v!r}")
        if not (math.isfinite(out[k]) and out[k] > 0):
            raise UsageError(f"{k} must be finite and positive, got {v!r}")
    return out


def _base_report(args, command: str) -> dict:
    return {"schema_version": SCHEMA_VERSION, "seed": args.seed, "command": command}


# ----------------------------------------------------------------- commands

def cmd_weights(args) -> int:
    """check and construct: the verdict on the operator and the weights."""
    op = _load_operator(args)
    phi = _parse_weight(op, args.phi)
    psi = _parse_weight(op, args.psi)
    if args.command == "check":
        verdict, ok = susy.check_necessary(op, phi, psi), "verified"
    else:
        verdict, ok = susy.construct(op, phi, psi), "constructed"
    report = _base_report(args, args.command)
    report["verdict"] = verdict.to_json_dict()
    _emit(report, args.out)
    return EXIT_OK if verdict.status == ok else EXIT_MATH


def cmd_verify_models(args) -> int:
    rows = susy.verify_reference_structures()
    report = _base_report(args, "verify-models")
    report["models"] = rows
    _emit(report, args.out)
    bad = [r for r in rows if r["status"] == "mismatch"]
    return EXIT_MATH if bad else EXIT_OK


# the most points `spectral --w-grid start:stop:count` reports on
W_GRID_MAX = 100_000


def _parse_w_grid(text: Optional[str]) -> list[float]:
    if not text:
        # default: 200 points spanning the classification regimes
        return [round(-10.0 + 20.0 * i / 199.0, 12) for i in range(200)]
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError("--w-grid expects 'start:stop:count' or a comma list")
        try:
            a, b, num = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise UsageError(f"bad --w-grid {text!r}")
        if not 2 <= num <= W_GRID_MAX:
            raise UsageError(f"--w-grid count must be from 2 to {W_GRID_MAX}, got {num}")
        ws = [a + (b - a) * i / (num - 1) for i in range(num)]
    else:
        try:
            ws = [float(v) for v in text.split(",") if v.strip()]
        except ValueError:
            raise UsageError(f"bad --w-grid {text!r}")
        if not ws:
            raise UsageError(f"--w-grid lists no values, got {text!r}")
    if not all(math.isfinite(w) for w in ws):
        raise UsageError(f"--w-grid values must be finite, got {text!r}")
    return ws


def cmd_spectral(args) -> int:
    ws = _parse_w_grid(args.w_grid)
    rows = spectral.w_grid_report(ws)
    m, Fm = spectral.F_critical_point()
    report = _base_report(args, "spectral")
    report["F_critical_point"] = {"m": m, "F_of_m": Fm}
    report["rows"] = rows
    _emit(report, args.out)
    if args.out:
        csv_path = os.path.splitext(args.out)[0] + ".csv"
        lines = ["w,re1,im1,re2,im2,re3,im3,class"]
        for r in rows:
            flat = [r["w"]] + [c for pair in r["roots"] for c in pair]
            lines.append(",".join(format(v, ".17g") for v in flat) + "," + r["class"])
        _atomic_write(csv_path, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_flow(args) -> int:
    if not args.config:
        raise UsageError("flow requires --config")
    cfg = _load_chain_config(args.config)
    tols = _parse_tols(args.tol_overrides)
    traj = flowmod.heteroclinic_gamma1(cfg, endpoint_tol=tols.get("endpoint_tol", 1e-7))
    lyap = flowmod.lyapunov_report(cfg, traj)
    report = _base_report(args, "flow")
    report["endpoint_residual_minimum"] = traj.meta["endpoint_residual_minimum"]
    report["endpoint_residual_saddle"] = traj.meta["endpoint_residual_saddle"]
    report["mu1"] = traj.meta["mu1"]
    report["t_range"] = [float(traj.times[0]), float(traj.times[-1])]
    report["lyapunov"] = lyap
    _emit(report, args.out)
    if args.out:
        csv_path = os.path.splitext(args.out)[0] + ".csv"
        _atomic_write(csv_path, traj.to_csv(cfg.space.names, models.chain_phi0(cfg).compiled()))
    return EXIT_OK


def cmd_obstruct(args) -> int:
    if not args.config:
        raise UsageError("obstruct requires --config")
    cfg = _load_chain_config(args.config)
    rep = obstruction.run_obstruction(cfg)
    sub = obstruction.invariant_subspace_check(cfg)
    report = _base_report(args, "obstruct")
    report["obstruction"] = rep.to_json_dict()
    report["invariant_subspace"] = sub
    _emit(report, args.out)
    if cfg.alpha1 == cfg.alpha2:
        return EXIT_OK  # degeneration: no obstruction is the expected answer
    return EXIT_OK if rep.verdict in ("blowup_at_minimum", "nonsmooth_at_saddle") else EXIT_MATH


# -------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="susyfact",
        description="Supersymmetric factorization of second-order semiclassical "
                    "operators: decision, construction, and the two-temperature "
                    "chain obstruction.",
        epilog='Polynomial mini-grammar: sums of monomials with rational '
               'coefficients over the operator\'s variables, "*" for products, '
               '"^" for powers, "h" for the semiclassical parameter; e.g. '
               '"1/4*x1^4 - 1/2*x1^2 + h*y1".')
    sub = ap.add_subparsers(dest="command", required=True)

    operator = (("--operator", "operator spec JSON file"), ("--model", "bundled model name"))
    config = (("--config", "chain config JSON (path or bundled name)"),)

    def common(p, inputs):
        for flag, text in inputs:
            p.add_argument(flag, help=text)
        p.add_argument("--out", help="output JSON path (stdout if omitted)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed recorded in reports (all pipelines are deterministic)")

    p = sub.add_parser("check", help="test the kernel conditions for candidate weights")
    common(p, operator + config)
    p.add_argument("--phi", help="weight for P(e^{-phi/h}) = 0 (mini-grammar)")
    p.add_argument("--psi", help="weight for P*(e^{-psi/h}) = 0 (default 0)")
    p.set_defaults(fn=cmd_weights)

    p = sub.add_parser("construct", help="build and verify a supersymmetric structure")
    common(p, operator + config)
    p.add_argument("--phi", help="left weight (mini-grammar)")
    p.add_argument("--psi", help="right weight (mini-grammar)")
    p.set_defaults(fn=cmd_weights)

    p = sub.add_parser("verify-models", help="exact factorization identities of all bundled models")
    common(p, ())
    p.set_defaults(fn=cmd_verify_models)

    p = sub.add_parser("spectral", help="eigenvalue triples over a Hessian grid")
    common(p, ())
    p.add_argument("--w-grid", help="'start:stop:count' or comma-separated w values")
    p.set_defaults(fn=cmd_spectral)

    p = sub.add_parser("flow", help="heteroclinic orbit and monotonicity report")
    common(p, config)
    p.add_argument("--tol-overrides",
                   help="comma list key=value of tolerance overrides; keys: " + ", ".join(TOL_KEYS))
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("obstruct", help="transport obstruction diagnostics")
    common(p, config)
    p.set_defaults(fn=cmd_obstruct)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0,) else 0
    try:
        return args.fn(args)
    except (UsageError, models.UnsupportedConfig) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except flowmod.FlowError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (PolyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
