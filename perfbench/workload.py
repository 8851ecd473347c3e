"""One workload in one fresh process: set-up, timed rounds, optional trace.

    python3 perfbench/workload.py --workload NAME --inputs IN.json --out OUT.json
        (--seconds S [--trace 0|1] | --setup-only)

Started by run.py with PYTHONPATH pointing at the checkout's `src` and the
BLAS/OpenMP pools capped at one thread.  A round runs every operation of the
workload once, in a fixed order, one at a time (a closed loop with one
operation in flight).  Rounds repeat while the next one is expected to end
within S seconds (at least `MIN_ROUNDS`).  Outputs are serialized after each
round, outside the timed region, and written to OUT.json for run.py to
check; identical outputs are stored once.

With --trace 1 the process runs one untraced round, installs the tracer,
parses the inputs again and runs one traced round, so the tracing overhead
is the difference of the two rounds.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from statistics import median

from inputs import BUNDLED

clock = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))

MIN_ROUNDS = {"exact-construct": 1,
              # a round takes over half of a 30 s run; a second one halves the
              # weight of a slow stretch of the host in the median
              "chain-obstruction": 2,
              # the determinism check compares the outputs of two rounds
              "cli-cold": 2}


class Op:
    def __init__(self, name, fn, serialize):
        self.name, self.fn, self.serialize = name, fn, serialize


# ------------------------------------------------------------------ set-up

def parse_inputs(workload: str, data: dict) -> dict:
    """Turn the input texts into program objects (the parse half of setup_s)."""
    if workload == "cli-cold":
        return data
    from susyfact import models
    from susyfact.opcore import SecondOrderOperator, identity_matrix
    from susyfact.polyalg import Poly, VarSpace, parse_poly

    if workload == "exact-construct":
        fields = []
        for f in data["fields"]:
            sp = VarSpace.make(f["variables"])
            v = tuple(parse_poly(sp, t) for t in f["v"])
            fields.append(SecondOrderOperator(sp, identity_matrix(sp), v, Poly.zero(sp), True))
        return {"fields": fields,
                "unequal": models.ChainConfig.from_json_dict(data["unequal"]),
                "n2": [(c["name"], models.ChainConfig.from_json_dict(c)) for c in data["n2"]]}
    return {"sweep": [(c["alpha2"], models.ChainConfig.from_json_dict(c)) for c in data["sweep"]],
            "wells_pm2": models.ChainConfig.from_json_dict(data["wells_pm2"]),
            "probe_points": data["probe_points"], "w_grid": data["w_grid"]}


def setup(workload: str, data: dict) -> tuple[dict, float]:
    t0 = clock()
    if workload != "cli-cold":
        import susyfact  # noqa: F401
    prepared = parse_inputs(workload, data)
    return prepared, clock() - t0


# -------------------------------------------------------------- operations

def _construct_output(result):
    P, verdict, verified = result
    return {"operator": P.to_json_dict(), "verdict": verdict.to_json_dict(),
            "verify": verified}


def exact_construct_ops(p: dict) -> list[Op]:
    from susyfact import models, susy
    from susyfact.polyalg import Poly

    def bundles(st):
        st["bundles"] = models.reference_bundles()
        return sorted(st["bundles"])

    def bundled(name):
        def run(st):
            b = st["bundles"][name]
            v = susy.construct(b.conjugated, b.phi0, b.phi0)
            ver = susy.verify_structure(b.conjugated, v.structure).status if v.structure else None
            return b.conjugated, v, ver
        return run

    def unequal(st):
        cfg = p["unequal"]
        b = models.make_chain(cfg)
        v = susy.construct(b.conjugated, b.phi0, b.phi0)
        r = b.operator.kernel_test(2 * b.phi0 + 2 * (1 / cfg.alpha1) * cfg.deltaW)
        return {"verdict": v.to_json_dict(), "residual": r.residual.to_literal(),
                "variables": list(cfg.space.names)}

    def field(P):
        def run(st):
            zero = Poly.zero(P.space)
            return P, susy.construct(P, zero, zero), None
        return run

    def chain(cfg):
        def run(st):
            b = models.make_chain(cfg)
            return b.conjugated, susy.construct(b.conjugated, b.phi0, b.phi0), None
        return run

    ops = [Op("reference-bundles", bundles, lambda r: r)]
    ops += [Op(f"bundled:{n}", bundled(n), _construct_output) for n in BUNDLED]
    ops.append(Op("verify-models", lambda st: susy.verify_reference_structures(), lambda r: r))
    ops.append(Op("chain-unequal", unequal, lambda r: r))
    ops += [Op(f"field:{i}", field(P), _construct_output) for i, P in enumerate(p["fields"])]
    ops += [Op(f"chain:{name}", chain(cfg), _construct_output) for name, cfg in p["n2"]]
    return ops


def _trajectory_output(traj):
    return {"times": traj.times.tolist(), "states": traj.states.tolist(),
            "endpoint_residual_minimum": traj.meta["endpoint_residual_minimum"],
            "endpoint_residual_saddle": traj.meta["endpoint_residual_saddle"],
            "mu1": traj.meta["mu1"]}


def chain_obstruction_ops(p: dict) -> list[Op]:
    from susyfact import flow, obstruction, spectral

    ops = []
    for a2, cfg in p["sweep"]:
        def het(st, cfg=cfg, a2=a2):
            st[a2] = flow.heteroclinic_gamma1(cfg)
            return st[a2]

        ops += [Op(f"heteroclinic:{a2}", het, _trajectory_output),
                Op(f"lyapunov:{a2}", lambda st, cfg=cfg, a2=a2: flow.lyapunov_report(cfg, st[a2]),
                   lambda r: r),
                Op(f"obstruction:{a2}", lambda st, cfg=cfg: obstruction.run_obstruction(cfg),
                   lambda r: r.to_json_dict()),
                Op(f"invariant:{a2}", lambda st, cfg=cfg: obstruction.invariant_subspace_check(cfg),
                   lambda r: r)]
    probe_cfg = p["sweep"][0][1]
    ops += [Op("spectral-grid", lambda st: spectral.w_grid_report(p["w_grid"]), lambda r: r),
            Op("F-critical-point", lambda st: spectral.F_critical_point(), list),
            Op("quintic-probe", lambda st: flow.quintic_bound_probe(probe_cfg, p["probe_points"]),
               lambda r: r),
            # fails at this commit: heteroclinic_gamma1 assumes the wells at +-1
            Op("obstruction:wells-pm2", lambda st: obstruction.run_obstruction(p["wells_pm2"]),
               lambda r: r.to_json_dict())]
    return ops


def cli_invocations(p: dict) -> list[tuple[str, list[str]]]:
    return [("check-witten", ["check", "--model", "witten_harmonic", "--phi", "x1^2"]),
            ("construct-witten", ["construct", "--model", "witten_harmonic", "--phi", "x1^2"]),
            ("construct-chain-equal", ["construct", "--config", "chain_equal",
                                       "--phi", p["two_phi0_equal"]]),
            ("check-chain-unequal", ["check", "--config", "chain_unequal",
                                     "--phi", p["two_phi0_unequal"]]),
            ("verify-models", ["verify-models"]),
            ("spectral", ["spectral", "--w-grid=-10:10:200", "--out", "{dir}/spectral.json"]),
            ("flow", ["flow", "--config", "chain_unequal", "--out", "{dir}/flow.json"])]


def cli_ops(p: dict, workdir: str, tracer=None) -> list[Op]:
    """One child process per invocation; with a tracer, the child is the
    launcher, and its spans are merged under a `cli.process` span."""

    def invoke(args):
        def run(st):
            outdir = os.path.join(workdir, "out")
            shutil.rmtree(outdir, ignore_errors=True)
            os.makedirs(outdir)
            argv = [a.replace("{dir}", outdir) for a in args] + ["--seed", str(p["cli_seed"])]
            if tracer is None:
                cmd = [sys.executable, "-m", "susyfact"] + argv
            else:
                spanfile = os.path.join(workdir, "spans.json")
                cmd = [sys.executable, os.path.join(HERE, "cli_launcher.py"), spanfile] + argv
                span = tracer.open("cli.process")
            proc = subprocess.run(cmd, cwd=workdir, capture_output=True, text=True, timeout=120)
            if tracer is not None:
                tracer.close(span)
                from tracer import merge
                with open(spanfile) as f:
                    merge(st["trace"], json.load(f), span)
            files = {}
            for name in sorted(os.listdir(outdir)):
                with open(os.path.join(outdir, name)) as f:
                    files[name] = f.read()
            return {"rc": proc.returncode, "stdout": proc.stdout, "files": files}
        return run

    return [Op(name, invoke(args), lambda r: r) for name, args in cli_invocations(p)]


# ------------------------------------------------------------------ rounds

def run_round(ops: list[Op], state: dict, outputs: dict) -> dict:
    gc.collect()
    rows, raw = [], []
    first = last = None
    for op in ops:
        t0 = clock()
        try:
            result, err = op.fn(state), None
        except Exception as e:  # a failing operation is counted, not fatal
            result, err = None, f"{type(e).__name__}: {e}"
        t1 = clock()
        first = t0 if first is None else first
        last = t1
        raw.append(result)
        rows.append([op.name, t1 - t0, err, None])
    for row, op, result in zip(rows, ops, raw):
        if row[2] is None:
            text = json.dumps(op.serialize(result), sort_keys=True)
            key = hashlib.sha256(text.encode()).hexdigest()[:16]
            outputs[key] = text
            row[3] = key
    return {"round_s": last - first, "window": [first, last], "ops": rows}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    with open(args.inputs) as f:
        data = json.load(f)
    w = args.workload

    prepared, setup_s = setup(w, data)
    if args.setup_only:
        with open(args.out, "w") as f:
            json.dump({"setup_s": setup_s}, f)
        return 0

    workdir = os.path.dirname(os.path.abspath(args.out))

    def make_ops(p, tracer=None):
        if w == "exact-construct":
            return exact_construct_ops(p)
        if w == "chain-obstruction":
            return chain_obstruction_ops(p)
        return cli_ops(p, workdir, tracer)

    outputs: dict[str, str] = {}
    rounds = []
    trace = None
    ops = make_ops(prepared)
    t_start = clock()
    while True:
        rounds.append(run_round(ops, {}, outputs))
        elapsed = clock() - t_start
        per_round = elapsed / len(rounds)
        if args.trace or (len(rounds) >= MIN_ROUNDS[w]
                          and elapsed + per_round > args.seconds):
            break
    if args.trace:
        from tracer import Tracer, roll_up

        tracer = Tracer()
        if w != "cli-cold":
            tracer.install()
        try:
            traced_inputs = parse_inputs(w, data)
            state = {"trace": {"spans": tracer.spans, "counters": tracer.counters}}
            traced = run_round(make_ops(traced_inputs, tracer), state, outputs)
        finally:
            tracer.uninstall()
        traced["traced"] = True
        rounds.append(traced)
        trace = roll_up(state["trace"], tuple(traced["window"]))
        trace["trace.run_s"] = traced["round_s"]
        trace["trace.overhead_s"] = traced["round_s"] - median(
            r["round_s"] for r in rounds if not r.get("traced"))

    who = resource.RUSAGE_CHILDREN if w == "cli-cold" else resource.RUSAGE_SELF
    result = {"rounds": rounds, "outputs": outputs, "trace": trace,
              "spans": state["trace"] if args.trace else None,
              "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
