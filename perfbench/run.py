"""Run one susyfact benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is taken
from the checkout's `src/`.  The seed makes the workload's inputs; the program
only sees those inputs.  With --trace 0 the result holds the end-to-end
metrics, with --trace 1 the per-layer metrics of a separate traced round.
The last line of standard output is the result as one JSON object; the lines
before it name every metric with its unit, the run record and any failed
operation.  `--workload all` runs the three workloads one after the other,
each in its own process, and prints each one's lines and result.  With
--trace 1 the raw spans are also written to `.perfbench_spans/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402

THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
IMPORT_METRICS = {"susyfact": "import.susyfact_s", "scipy.integrate": "import.scipy_integrate_s",
                  "numpy": "import.numpy_s"}


def declared_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_CAPS)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], env: dict, cwd: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[:4])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def setup_samples(workload: str, env: dict, tmp: str, inputs_path: str) -> list[float]:
    """Set-up time, measured in SETUP_REPEATS fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        if workload == "cli-cold":
            t0 = time.perf_counter()
            run_child([sys.executable, "-c", "import susyfact"], env, tmp)
            samples.append(time.perf_counter() - t0)
        else:
            out = os.path.join(tmp, "setup.json")
            run_child([sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
                       "--inputs", inputs_path, "--out", out, "--setup-only"], env, tmp)
            with open(out) as f:
                samples.append(json.load(f)["setup_s"])
    return samples


def import_times(env: dict, tmp: str) -> dict:
    """Cumulative import times from `python -X importtime -c "import susyfact"`."""
    proc = run_child([sys.executable, "-X", "importtime", "-c", "import susyfact"], env, tmp)
    out = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in IMPORT_METRICS:
            out.setdefault(IMPORT_METRICS[parts[2].strip()], int(parts[1]) / 1e6)
    return out


def run_record(workload: str, seed: int, seconds: int) -> dict:
    import numpy
    import scipy
    import sympy

    return {"workload": workload, "seed": seed, "seconds": seconds, "nproc": os.cpu_count(),
            "node": platform.node(), "platform": platform.platform(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "sympy": sympy.__version__,
            "thread_caps": THREAD_CAPS}


def tally(workload: str, result: dict, data: dict, seed: int):
    """Check every round; return (attempted, failed, wrong, reasons)."""
    import checks

    memo: dict = {}
    attempted = failed = wrong = 0
    reasons: dict[str, str] = {}
    first_keys = {name: key for name, _, _, key in result["rounds"][0]["ops"]}
    for rnd in result["rounds"]:
        outs = {name: (json.loads(result["outputs"][key]) if key else None)
                for name, _, _, key in rnd["ops"]}
        errors = checks.check_round(workload, outs, data, seed, memo)
        if workload == "cli-cold":
            for name, _, err, key in rnd["ops"]:
                if err is None and key != first_keys[name]:
                    errors.setdefault(name, "output differs between repeated invocations")
        for name, _, err, _ in rnd["ops"]:
            attempted += 1
            if err is not None or name in errors:
                failed += 1
                reasons.setdefault(name, err or errors[name])
            if err is None and name in errors:
                wrong += 1
    return attempted, failed, wrong, reasons


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> int:
    tmp = os.path.join(ROOT, ".perfbench_tmp", f"run-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        data = inputs.WORKLOADS[workload](seed)
        inputs_path = os.path.join(tmp, "inputs.json")
        with open(inputs_path, "w") as f:
            json.dump(data, f)
        env = child_env()
        setups = setup_samples(workload, env, tmp, inputs_path)
        out = os.path.join(tmp, "result.json")
        run_child([sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
                   "--inputs", inputs_path, "--out", out, "--seconds", str(seconds),
                   "--trace", str(trace)], env, tmp)
        with open(out) as f:
            result = json.load(f)
        imports = import_times(env, tmp) if trace else {}
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    attempted, failed, wrong, reasons = tally(workload, result, data, seed)
    untimed = [r for r in result["rounds"] if not r.get("traced")]
    if trace:
        metrics = dict(result["trace"], **imports)
    else:
        metrics = {"setup_s": median(setups),
                   "run_s": median(r["round_s"] for r in untimed),
                   "op_max_s": median(max(op[1] for op in r["ops"]) for r in untimed),
                   "peak_rss_mb": result["peak_rss_mb"]}
    units = declared_units(trace)
    if set(units) != set(metrics):
        print(f"error: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(units) ^ set(metrics))}", file=sys.stderr)
        return 1

    record = run_record(workload, seed, seconds)
    record.update(rounds=len(untimed), ops_per_round=len(untimed[0]["ops"]),
                  attempted=attempted, failed=failed, setup_samples_s=setups,
                  round_s=[r["round_s"] for r in untimed],
                  round_op_max_s=[max(op[1] for op in r["ops"]) for r in untimed])
    print("record: " + json.dumps(record, sort_keys=True))
    if trace:
        path = os.path.join(ROOT, ".perfbench_spans", f"{workload}-seed{seed}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(result["spans"], f)
        print(f"spans: {os.path.relpath(path, ROOT)}")
    for name, reason in sorted(reasons.items()):
        print(f"failed: {name}: {reason}")
    for name in sorted(metrics):
        print(f"{workload} {name} = {metrics[name]:.6g} {units[name]}")
    print(f"{workload} attempted = {attempted}, failed = {failed}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": {m: {"value": v, "unit": units[m]}
                                  for m, v in sorted(metrics.items())}}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS) + ["all"],
                    help="one workload, or all of them one after the other")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "susyfact", "__init__.py")):
        print(f"error: no susyfact sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workloads = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(w, args.seed, args.seconds, args.trace) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
