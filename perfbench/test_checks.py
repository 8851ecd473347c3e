"""The benchmark's own tests: every correctness check accepts a real output
of the program and rejects the same output with one deliberate error.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402

SEED = 7


def outputs_of(ops, names):
    """Run the named operations of a workload once, as a round does."""
    state, outs = {}, {}
    for op in ops:
        if op.name in names or op.name.split(":")[0] in names:
            outs[op.name] = op.serialize(op.fn(state))
    return outs


@pytest.fixture(scope="module")
def exact():
    data = inputs.exact_construct(SEED)
    prepared, _ = workload.setup("exact-construct", data)
    ops = workload.exact_construct_ops(prepared)
    names = {"reference-bundles", "bundled:chain_equal_temperature", "chain-unequal", "field:0"}
    return data, outputs_of(ops, names)


@pytest.fixture(scope="module")
def chain():
    data = inputs.chain_obstruction(SEED)
    prepared, _ = workload.setup("chain-obstruction", data)
    ops = [op for op in workload.chain_obstruction_ops(prepared)
           if not op.name.startswith("invariant") and op.name != "obstruction:wells-pm2"]
    return data, outputs_of(ops, {op.name for op in ops})


def exact_error(name, out, data):
    try:
        checks.check_exact_construct(name, out, data, SEED)
    except checks.CheckFailed as e:
        return str(e)
    return None


# ------------------------------------------------------------ exact-construct

@pytest.mark.parametrize("name", ["bundled:chain_equal_temperature", "field:0"])
def test_A_with_one_coefficient_altered_is_rejected(exact, name):
    data, outs = exact
    out = outs[name]
    assert exact_error(name, out, data) is None
    bad = copy.deepcopy(out)
    term = bad["verdict"]["structure"]["A"][0]["poly"][0]
    num, den = term["coeff"].split("/")
    term["coeff"] = f"{int(num) + int(den)}/{den}"
    assert "symmetric part" in exact_error(name, bad, data)


def test_antisymmetric_change_of_A_breaks_the_identity(exact):
    """A change that keeps sym(A) = B is caught by the expanded identity."""
    data, outs = exact
    bad = copy.deepcopy(outs["field:0"])
    n = len(bad["operator"]["variables"])
    x1 = {"coeff": "1/1", "exps": [1] + [0] * (n - 1), "hpow": 0}
    bad["verdict"]["structure"]["A"] += [{"i": 0, "j": 1, "poly": [x1]},
                                         {"i": 1, "j": 0, "poly": [dict(x1, coeff="-1/1")]}]
    assert "identity fails" in exact_error("field:0", bad, data)


def test_wrong_verdict_and_residual_are_rejected(exact):
    data, outs = exact
    out = outs["chain-unequal"]
    assert exact_error("chain-unequal", out, data) is None
    bad = copy.deepcopy(out)
    bad["residual"][0]["coeff"] = "1/7"
    assert "kernel residual" in exact_error("chain-unequal", bad, data)
    bad = copy.deepcopy(out)
    bad["verdict"]["status"] = "constructed"
    assert "verdict" in exact_error("chain-unequal", bad, data)
    assert exact_error("reference-bundles", outs["reference-bundles"][1:], data)


# ---------------------------------------------------------- chain-obstruction

def test_K_magnitude_off_by_1e_3_is_rejected(chain):
    data, outs = chain
    assert checks.check_chain_round(outs, data) == {}
    bad = copy.deepcopy(outs)
    bad["obstruction:3"]["K_magnitude"] *= 1 + 1e-3
    assert checks.check_chain_round(bad, data) == {
        "obstruction:3": "K_magnitude not proportional to |2/alpha2 - 2/alpha1|"}


def test_wrong_exponent_and_verdict_are_rejected(chain):
    data, outs = chain
    bad = copy.deepcopy(outs)
    bad["obstruction:2"]["exponent"][1] *= 1 + 1e-6
    bad["obstruction:1"]["verdict"] = "nonsmooth_at_saddle"
    bad["obstruction:3/2"]["tail_rate_relative_error"] = 0.06
    errors = checks.check_chain_round(bad, data)
    assert set(errors) == {"obstruction:2", "obstruction:1", "obstruction:3/2"}


def test_wrong_orbit_spectrum_and_slopes_are_rejected(chain):
    data, outs = chain
    bad = copy.deepcopy(outs)
    bad["heteroclinic:2"]["states"][0][0] += 1e-5
    bad["heteroclinic:3"]["states"].reverse()
    bad["spectral-grid"][10]["roots"][0][0] += 1e-9
    bad["spectral-grid"][150]["class"] = "one_negative"
    bad["F-critical-point"][0] += 1e-6
    bad["quintic-probe"][2]["slope"] = 4.6
    bad["lyapunov:1"]["strictly_increasing"] = False
    errors = checks.check_chain_round(bad, data)
    assert set(errors) == {"heteroclinic:2", "heteroclinic:3", "spectral-grid",
                           "F-critical-point", "quintic-probe", "lyapunov:1"}


# ------------------------------------------------------------------ cli-cold

def cli_output(argv):
    from susyfact.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return {"rc": rc, "stdout": buf.getvalue(), "files": {}}


def cli_error(name, out, data):
    try:
        checks.check_cli(name, out, data)
    except checks.CheckFailed as e:
        return str(e)
    return None


def test_wrong_exit_code_is_rejected():
    data = inputs.cli_cold(SEED)
    argv = dict(workload.cli_invocations(data))["check-chain-unequal"]
    out = cli_output(argv + ["--seed", str(SEED)])
    assert out["rc"] == 1 and cli_error("check-chain-unequal", out, data) is None
    assert "exit code" in cli_error("check-chain-unequal", dict(out, rc=0), data)
    assert "seed" in cli_error("check-chain-unequal", cli_output(argv + ["--seed", "8"]), data)


def test_repeated_invocations_must_agree(monkeypatch):
    """A repeated invocation whose output differs counts as failed and wrong."""
    monkeypatch.setattr(checks, "check_round", lambda *a: {})
    outputs = {"a": "{}", "b": "{\"x\": 1}"}
    result = {"outputs": outputs,
              "rounds": [{"ops": [["flow", 0.1, None, "a"]]},
                         {"ops": [["flow", 0.1, None, "b"]]}]}
    assert run.tally("cli-cold", result, {}, SEED)[1:3] == (1, 1)
