"""Command line interface: subcommands, exit codes, canonical output."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from susyfact.cli import (EXIT_MATH, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, W_GRID_MAX, _parse_w_grid,
                          canonical_json, main)
from susyfact.flow import MAX_STEPS

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, (json.loads(out) if out.strip() else None)


# ------------------------------------------------------------ canonical JSON

def test_canonical_json_scalars():
    txt = canonical_json({"f": 0.1, "i": 3, "inf": float("inf"),
                          "nan": float("nan"), "z": 1 + 2j})
    data = json.loads(txt)
    assert data["f"] == 0.1
    assert data["inf"] == "inf" and data["nan"] == "nan"
    assert data["z"] == [1.0, 2.0]
    # keys are sorted
    assert list(data) == sorted(data)


def test_canonical_json_repeatable():
    obj = {"b": [1.0 / 3.0, {"y": 2, "x": 1}], "a": 0.755}
    assert canonical_json(obj) == canonical_json(obj)


# ------------------------------------------------------------------- usage

def test_usage_errors(capsys):
    assert main([]) == EXIT_USAGE
    rc, _ = run(capsys, "check", "--model", "witten_harmonic",
                "--operator", "nope.json")
    assert rc == EXIT_USAGE
    rc, _ = run(capsys, "check")
    assert rc == EXIT_USAGE
    rc, _ = run(capsys, "flow", "--config", "no_such_config")
    assert rc == EXIT_USAGE
    rc, _ = run(capsys, "check", "--model", "not_a_model")
    assert rc == EXIT_USAGE
    # --tol-overrides exists on flow only, with known keys only
    rc, _ = run(capsys, "check", "--model", "witten_harmonic", "--phi", "x1^2",
                "--tol-overrides", "endpoint_tol=1")
    assert rc == EXIT_USAGE
    rc, _ = run(capsys, "flow", "--config", "chain_unequal", "--tol-overrides", "bogus=1")
    assert rc == EXIT_USAGE
    # non-finite numbers, an empty list and a count past W_GRID_MAX are usage
    # errors, refused before any computation
    for argv in (["spectral", "--w-grid", "nan,1"], ["spectral", "--w-grid=0:inf:3"],
                 ["spectral", "--w-grid=,"], ["spectral", f"--w-grid=0:1:{W_GRID_MAX + 1}"],
                 ["spectral", "--w-grid=0:1:1000000000"]):
        rc, _ = run(capsys, *argv)
        assert rc == EXIT_USAGE, argv
    assert len(_parse_w_grid(f"0:1:{W_GRID_MAX}")) == W_GRID_MAX
    for tol in ("nan", "inf", "-1"):
        rc, _ = run(capsys, "flow", "--config", "chain_unequal",
                    "--tol-overrides", f"endpoint_tol={tol}")
        assert rc == EXIT_USAGE, tol
    # --config exists only where a command reads it
    for cmd in ("verify-models", "spectral"):
        rc, _ = run(capsys, cmd, "--config", "chain_unequal")
        assert rc == EXIT_USAGE


def test_config_rationals_must_be_exact(tmp_path, capsys):
    base = json.loads(Path("src/susyfact/configs/chain_unequal.json").read_text())
    for value in (0.5, "0.5", "1e-1", True):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(base, alpha2=value)))
        rc, _ = run(capsys, "obstruct", "--config", str(path))
        assert rc == EXIT_USAGE, value


# -------------------------------------------------------------- subcommands

def test_check_verified_and_failed(capsys):
    rc, rep = run(capsys, "check", "--model", "witten_harmonic",
                  "--phi", "x1^2")
    assert rc == EXIT_OK
    assert rep["verdict"]["status"] == "verified"
    assert rep["command"] == "check" and rep["schema_version"] == 1
    rc, rep = run(capsys, "check", "--model", "witten_harmonic",
                  "--phi", "x1^4")
    assert rc == EXIT_MATH
    assert rep["verdict"]["status"] == "necessary_condition_failed"


def test_check_chain_config_breaks(capsys):
    rc, rep = run(capsys, "check", "--config", "chain_unequal",
                  "--phi", "y1^2 + 1/2*x1^4 - x1^2 + 1/2 + x1^2 - 2*x1*z1 + z1^2"
                  " + 1/2*y2^2 + 1/2*x2^2 + 1/2*x2^2 - x2*z2 + 1/2*z2^2")
    assert rc == EXIT_MATH
    assert rep["verdict"]["status"] == "necessary_condition_failed"


def test_construct_model_and_operator_spec(capsys):
    rc, rep = run(capsys, "construct", "--model", "witten_harmonic",
                  "--phi", "x1^2")
    assert rc == EXIT_OK
    assert rep["verdict"]["status"] == "constructed"
    assert "structure" in rep["verdict"]
    rc, rep = run(capsys, "construct", "--operator",
                  "src/susyfact/configs/witten.json", "--phi", "x1^2")
    assert rc == EXIT_OK and rep["verdict"]["status"] == "constructed"


def test_construct_zero_variable_operator(tmp_path, capsys):
    # no variables: the empty structure factorizes the zero operator
    spec = tmp_path / "zero.json"
    spec.write_text('{"variables": [], "v0": []}')
    rc, rep = run(capsys, "construct", "--operator", str(spec))
    assert rc == EXIT_OK
    assert rep["verdict"] == {"status": "constructed",
                              "structure": {"A": [], "phi": [], "psi": []}}


SPEC = {"variables": ["x1", "x2"], "semiclassical": True,
        "B": [{"i": 0, "j": 0, "poly": [{"coeff": "1/1", "exps": [0, 0], "hpow": 0}]}],
        "v": [{"i": 0, "poly": [{"coeff": "-2/1", "exps": [1, 0], "hpow": 0}]}],
        "v0": []}
X2 = [{"coeff": "1/1", "exps": [0, 1], "hpow": 0}]


@pytest.mark.parametrize("changes", [
    {"variables": "x1"},
    {"B": [{"i": 0, "j": 5, "poly": X2}]},
    {"B": [{"i": -1, "j": 0, "poly": X2}]},
    {"v": [{"i": 7, "poly": X2}]},
    {"v": [{"i": -1, "poly": X2}]},
    {"v": [{"i": True, "poly": X2}]},
    {"v": [{"i": 1.5, "poly": X2}]},
    {"v": [{"i": 1, "poly": X2}, {"i": 1, "poly": X2}]},
    {"semiclassical": "false"},
    {"semiclassical": 0},
    {"B": {"i": 0, "j": 0, "poly": X2}},
    {"B": [[0, 0, X2]]},
    {"v": [{"i": 0, "poly": 3}]},
    {"v": [{"i": 0, "poly": [{"coeff": "1", "exps": [0, 1.5]}]}]},
    {"v": [{"i": 0, "poly": [{"coeff": "1", "exps": [0, 1], "hpow": "1"}]}]},
    {"v0": 5},
    {"v0": [["1/1", [0, 0], 0]]},
    {"blocks": 5},
    {"blocks": ["x1", "x2"]},
    {"blocks": {"all": ["x1", 2]}},
], ids=["variables-string", "B-j-past-end", "B-i-negative", "v-i-past-end", "v-i-negative",
        "v-i-bool", "v-i-float", "v-i-repeated", "semiclassical-string", "semiclassical-int",
        "B-object", "B-entry-list", "poly-number", "exps-float", "hpow-string", "v0-number",
        "v0-term-list", "blocks-number", "blocks-list", "blocks-name-number"])
def test_operator_spec_refused(tmp_path, capsys, changes):
    # a spec the loader cannot read as written is a usage error, not an operator
    spec = tmp_path / "op.json"
    spec.write_text(json.dumps(dict(SPEC, **changes)))
    rc, rep = run(capsys, "check", "--operator", str(spec))
    assert rc == EXIT_USAGE and rep is None


def test_operator_spec_must_be_an_object(tmp_path, capsys):
    spec = tmp_path / "op.json"
    spec.write_text("[1, 2]")
    assert main(["check", "--operator", str(spec)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert not captured.out and "JSON object" in captured.err


@pytest.mark.parametrize("data", [
    [1],
    "chain",
    {"W1": 5},
    {"W1": [{"coeff": "1", "exps": [4, 0, 0, 0, 0, 0], "hpow": 0.0}]},
    {"n": True},
    {"n": 1.7},
    {"n": "1"},
    # no oscillators: check used to take the empty chain
    {"n": 0, "W1": "0", "W2": "0", "deltaW": "0"},
], ids=["list", "string", "W1-number", "W1-hpow-float", "n-bool", "n-float", "n-string",
        "n-zero"])
def test_chain_config_shape_refused(tmp_path, capsys, data):
    # a config of the wrong JSON shape is a usage error, not a chain
    if isinstance(data, dict):
        path = _unequal_with(tmp_path, **data)
    else:
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(data))
    for command in ("check", "obstruct"):
        rc, rep = run(capsys, command, "--config", str(path))
        assert rc == EXIT_USAGE and rep is None, command


def test_verify_models(capsys):
    rc, rep = run(capsys, "verify-models")
    assert rc == EXIT_OK
    assert len(rep["models"]) == 6
    assert all(r["status"] == "ok" for r in rep["models"])


def test_spectral_with_grid_and_csv(tmp_path, capsys):
    out = tmp_path / "spec.json"
    rc = main(["spectral", "--w-grid=-2:2:9", "--out", str(out)])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())
    assert len(rep["rows"]) == 9
    assert abs(rep["F_critical_point"]["m"] - 1.5652) < 1e-3
    csv = tmp_path / "spec.csv"
    assert csv.exists()
    assert len(csv.read_text().strip().splitlines()) == 10


def test_flow_command(tmp_path, capsys):
    out = tmp_path / "flow.json"
    rc = main(["flow", "--config", "chain_unequal", "--out", str(out)])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["lyapunov"]["strictly_increasing"] is True
    assert rep["lyapunov"]["min_increment"] > 0
    assert rep["endpoint_residual_minimum"] < 1e-6
    assert (tmp_path / "flow.csv").exists()


def test_obstruct_command(tmp_path):
    out = tmp_path / "obs.json"
    rc = main(["obstruct", "--config", "chain_unequal", "--out", str(out)])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["obstruction"]["verdict"] == "nonsmooth_at_saddle"
    assert rep["invariant_subspace"]["symbolic_zero"] is True


def test_no_ode_goes_through_scipy(tmp_path, monkeypatch):
    # flow.solve_ivp and obstruction.solve_ivp are bound only for the
    # benchmark tracer, which counts calls through them: nothing calls them
    from susyfact import flow
    from susyfact.models import default_chain_config

    def refuse(*args, **kwargs):
        raise AssertionError("solve_ivp was called")
    monkeypatch.setattr("susyfact.flow.solve_ivp", refuse)
    monkeypatch.setattr("susyfact.obstruction.solve_ivp", refuse)
    for cmd in ("flow", "obstruct"):
        assert main([cmd, "--config", "chain_unequal", "--out", str(tmp_path / "r.json")]) == EXIT_OK
    rows = flow.quintic_bound_probe(default_chain_config(), [[0.5, 0.0, 0.5, 0.0, 0.0, 0.0]])
    assert rows[0]["case"] == "fully_degenerate"


def _unequal_with(tmp_path, **changes) -> str:
    cfg = json.loads(Path("src/susyfact/configs/chain_unequal.json").read_text())
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(dict(cfg, **changes)))
    return str(path)


def test_obstruct_wells_away_from_one(tmp_path):
    # the wells of W1 are at x1 = +-2: the heteroclinic endpoints are derived
    path = _unequal_with(tmp_path, W1="1/16*x1^4 - 1/2*x1^2 + 1")
    out = tmp_path / "obs.json"
    assert main(["obstruct", "--config", path, "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["obstruction"]["verdict"] in ("blowup_at_minimum", "nonsmooth_at_saddle")


@pytest.mark.parametrize("changes, alpha, exponent", [
    # mu1 = 1 at the saddle; an adaptive ODE step without max_step crosses this bump
    ({"W1": "3/8*x1^4 - 3/4*x1^2 + 3/8", "W2": "7/36*x2^2"}, [2, 0, 1], [1.0, -2.0548046676563]),
    # the perturbation follows the w2-degree m = 4 of deltaW
    ({"deltaW": "1/10*x1*x2^4"}, [2, 1, 1], [1.6096381027438, -1.7315935245260]),
    # |K| is 8.8e-14 and 1.1e-18, yet 0.85 and 0.96 of the integral of |e^{as} g|:
    # K is tested relative to that integral, not against an absolute threshold
    ({"deltaW": "1/10*x1*x2^6"}, [3, 1, 2], [2.6494359144895, -3.4631870490519]),
    ({"deltaW": "1/10*x1*x2^8"}, [3, 2, 3], [3.6892337262352, -1.7315935245260]),
    # 2/alpha2 - 2/alpha1 is -2e-15: every c_alpha is that small, and nonzero
    ({"alpha2": "1000000000000001/1000000000000000"}, [2, 0, 1],
     [1.3247179572447463, -3.463187049051929]),
])
def test_obstruct_verdicts(tmp_path, changes, alpha, exponent):
    path = _unequal_with(tmp_path, **changes)
    out = tmp_path / "obs.json"
    assert main(["obstruct", "--config", path, "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())["obstruction"]
    assert rep["verdict"] == "nonsmooth_at_saddle"
    assert rep["alpha"] == alpha
    assert abs(complex(*rep["exponent"]) - complex(*exponent)) < 1e-9


@pytest.mark.parametrize("deltaW, message", [
    ("1/10*x1*x2^2", "degree at least 3"),
    ("0", "deltaW is zero"),
    ("1/10*x1*x2^3 + x2^4", "homogeneous in the second block"),
])
def test_obstruct_refuses_deltaw_outside_the_hierarchy(tmp_path, capsys, monkeypatch,
                                                       deltaW, message):
    path = _unequal_with(tmp_path, deltaW=deltaW)

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before refusing")
    monkeypatch.setattr("susyfact.flow.integrate", no_integration)
    assert main(["obstruct", "--config", path]) == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_obstruct_refuses_bump_outside_the_orbit(tmp_path, capsys, monkeypatch):
    # wells at x1 = +-0.2: the heteroclinic exists, but the bump support
    # [0.3, 0.7] misses its x1-range; refused as unsupported, before integrating
    path = _unequal_with(tmp_path, W1="x1^4 - 2/25*x1^2 + 1/625")
    assert main(["flow", "--config", path]) == EXIT_OK
    capsys.readouterr()

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before refusing")
    monkeypatch.setattr("susyfact.flow.integrate", no_integration)
    assert main(["obstruct", "--config", path]) == EXIT_USAGE
    assert "bump support" in capsys.readouterr().err


@pytest.mark.parametrize("changes, message", [
    # saddles at x1 = +-1
    ({"W1": "1/6*x1^6 - 5/4*x1^4 + 2*x1^2"}, "exactly one saddle"),
    ({"gamma": "2"}, "gamma = 1"),
    ({"n": 2, "W1": "1/4*x1_1^4 - 1/2*x1_1^2 + 1/4*x1_2^4 - 1/2*x1_2^2",
      "W2": "1/2*x2_1^2 + 1/2*x2_2^2", "deltaW": "1/10*x1_1*x2_1^3"}, "n = 1"),
    # a saddle without a well
    ({"W1": "-1/2*x1^2"}, "no minimum on either side"),
    # no isolated stationary points, or an h-dependent W1'
    ({"W1": "x1"}, "h-free W1 whose derivative is not constant"),
    ({"W1": "0"}, "h-free W1 whose derivative is not constant"),
    ({"W1": "1/4*x1^4 - 1/2*x1^2 + 1/4 + h*x1^2"}, "W1 must be h-free"),
])
def test_unsupported_regimes_exit_2(tmp_path, capsys, monkeypatch, changes, message):
    # outside the supported regime is a usage error, not a mathematical
    # negative, and it is refused before any integration
    path = _unequal_with(tmp_path, **changes)

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before refusing")
    monkeypatch.setattr("susyfact.flow.integrate", no_integration)
    for command in ("flow", "obstruct"):
        assert main([command, "--config", path]) == EXIT_USAGE, command
        assert message in capsys.readouterr().err, command


# `susyfact flow --config` as a fresh process, which imports this checkout
_FLOW = [sys.executable, "-m", "susyfact", "flow", "--config"]
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")])))


def test_a_double_root_of_w1_prime_exits_2_at_once(tmp_path):
    # W1' = x1 (x1^2 - 1)^2: one minimum, at 0, and W1'' = 0 at the double
    # roots +-1, so there is no saddle; each double root is found once
    path = _unequal_with(tmp_path, W1="1/6*x1^6 - 1/2*x1^4 + 1/2*x1^2")
    proc = subprocess.run(_FLOW + [path], env=_ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_USAGE
    assert "W1 has 0 saddles" in proc.stderr


def test_a_leg_past_the_step_cap_exits_3(tmp_path):
    # the bundled well scaled by 1/100 and by 1/1000 (mu1 = 0.01 and 0.001):
    # the forward leg amplifies the seed's error, its steps shrink, and it
    # would run for minutes; each side ends at MAX_STEPS steps instead.
    # Both processes run at once and must end within wall_clock_s seconds;
    # they took 5.6 s and 7.5 s one at a time on a 2-core machine
    wall_clock_s = 40.0
    procs = []
    for scale in (100, 1000):
        (tmp_path / str(scale)).mkdir()
        path = _unequal_with(tmp_path / str(scale),
                             W1=f"1/{4 * scale}*x1^4 - 1/{2 * scale}*x1^2 + 1/{4 * scale}")
        procs.append(subprocess.Popen(_FLOW + [path], env=_ENV, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, text=True))
    deadline = time.monotonic() + wall_clock_s
    try:
        for proc in procs:
            err = proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))[1]
            assert proc.returncode == EXIT_NUMERIC
            assert f"integration failed: the leg took {MAX_STEPS} steps" in err
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()


BIG = "1" + "0" * 400


@pytest.mark.parametrize("changes, message", [
    ({"W1": f"{BIG}*x1^4 - 1/2*x1^2 + 1/4"}, "the coefficient of x1^4 in W1 overflows"),
    ({"W1": f"1/4*x1^4 - 1/2*x1^2 + 1/{BIG}"}, "the coefficient of 1 in W1 rounds to 0"),
    ({"W2": f"{BIG}*x2^2"}, "the coefficient of x2^2 in W2 overflows"),
    ({"alpha1": f"1/{BIG}"}, "alpha1 rounds to 0"),
    ({"alpha2": BIG}, "alpha2 overflows"),
], ids=["W1-large", "W1-small", "W2-large", "alpha1-small", "alpha2-large"])
def test_chain_data_without_floats_exits_2(tmp_path, capsys, monkeypatch, changes, message):
    # the orbit is computed in floats, so a chain whose data have none is
    # refused before any step; the exact commands still take it
    path = _unequal_with(tmp_path, **changes)
    for command in ("check", "construct"):
        assert main([command, "--config", path]) == EXIT_MATH, command
    capsys.readouterr()

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before refusing")
    monkeypatch.setattr("susyfact.flow.integrate", no_integration)
    for command in ("flow", "obstruct"):
        assert main([command, "--config", path]) == EXIT_USAGE, command
        captured = capsys.readouterr()
        assert not captured.out and message in captured.err, command


BIG307 = "1" + "0" * 307


@pytest.mark.parametrize("changes, message", [
    ({"W1": f"{BIG307}*x1^6 - 1/2*x1^2"}, "the coefficient of x1^4 in W1'' overflows"),
    ({"W2": f"{BIG307}*x2^2", "alpha2": "1/1000"}, "the coefficient of x2^2 in phi0 overflows"),
], ids=["W1-second-derivative", "phi0"])
def test_derived_floats_that_overflow_exit_2(tmp_path, capsys, monkeypatch, changes, message):
    # every datum has a float, but W1'' or phi0, which the flow evaluates
    # in floats, has a coefficient that overflows: refused before any step
    path = _unequal_with(tmp_path, **changes)
    for command in ("check", "construct"):
        assert main([command, "--config", path]) == EXIT_MATH, command
    capsys.readouterr()

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before refusing")
    monkeypatch.setattr("susyfact.flow.integrate", no_integration)
    for command in ("flow", "obstruct"):
        assert main([command, "--config", path]) == EXIT_USAGE, command
        captured = capsys.readouterr()
        assert not captured.out and message in captured.err, command
    # at equal temperatures obstruct returns before any numerics
    alpha = changes.get("alpha2", "1")
    assert main(["obstruct", "--config",
                 _unequal_with(tmp_path, **dict(changes, alpha1=alpha, alpha2=alpha))]) == EXIT_OK


def test_a_seed_within_endpoint_tol_is_refused_before_integrating(tmp_path, capsys, monkeypatch):
    # wells at +-0.01: the seed at 1e-6 of the distance to a minimum lies
    # within endpoint_tol = 1e-7 of the saddle, so no forward leg can enter
    # the ball, and neither leg is run
    path = _unequal_with(tmp_path, W1="1/4*x1^4 - 1/20000*x1^2")

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before refusing")
    monkeypatch.setattr("susyfact.flow.integrate", no_integration)
    assert main(["flow", "--config", path]) == EXIT_USAGE
    assert capsys.readouterr().err == ("error: the shooting seed lies within endpoint_tol = 1e-07 "
                                       "of the saddle on every side, so no forward leg can enter "
                                       "the ball around it\n")


@pytest.mark.parametrize("changes, message", [
    # the leading symbol has no h-terms, so an h-term of W1 cannot shape
    # the invariants or the orbit
    ({"W1": "1/4*x1^4 - 1/2*x1^2 + 1/4 + h*x1^2", "alpha2": "1"}, "W1 must be h-free"),
    ({"W1": "1/4*x1^4 - 1/2*x1^2 + 1/4 + h*x1^2"}, "W1 must be h-free"),
    ({"deltaW": "1/10*h*x1*x2^3"}, "deltaW must be h-free"),
    ({"deltaW": "1/10*x1*x2^3 + h^2*x1*x2^3"}, "deltaW must be h-free"),
], ids=["W1-equal", "W1-unequal", "deltaW", "deltaW-h2-term"])
def test_chain_potentials_must_be_h_free(tmp_path, capsys, changes, message):
    path = _unequal_with(tmp_path, **changes)
    for command in ("check", "obstruct"):
        assert main([command, "--config", path]) == EXIT_USAGE, command
        captured = capsys.readouterr()
        assert not captured.out and message in captured.err, command


@pytest.mark.parametrize("W1", ["4*x1^4 - 8*x1^2 + 4", "x1^6 - x1^4 - x1^2 + 1"],
                         ids=["deep-well", "sextic"])
def test_slow_wells_within_budget(tmp_path, capsys, W1):
    # the smallest rate at the minimum is 0.0147 and 0.0279: the orbit takes
    # about 1040 and 540 time units to close in, and the shooting budget
    # follows from those rates
    path = _unequal_with(tmp_path, W1=W1)
    rc, rep = run(capsys, "flow", "--config", path)
    assert rc == EXIT_OK and rep["lyapunov"]["strictly_increasing"]
    assert rep["lyapunov"]["min_increment"] > 0
    rc, rep = run(capsys, "obstruct", "--config", path)
    assert rc == EXIT_OK and rep["obstruction"]["verdict"] == "nonsmooth_at_saddle"


def test_numerical_failure_exits_3(capsys, monkeypatch):
    # a tolerance the integrator cannot reach is a failure of the numerics,
    # not a mathematical negative
    assert main(["flow", "--config", "chain_unequal",
                 "--tol-overrides", "endpoint_tol=1e-300"]) == EXIT_NUMERIC
    assert "did not reach the minimum" in capsys.readouterr().err
    # so is an orbit along which phi0 does not increase: this one rests at
    # the minimum, where z1 = x1 throughout
    from susyfact import flow
    from susyfact.models import default_chain_config
    cfg = default_chain_config()
    still = flow.integrate(cfg, [1.0, 0.0, 1.0, 0.0, 0.0, 0.0], (0.0, 1.0),
                           w1p=flow.well_data(cfg).w1p)
    monkeypatch.setattr(flow, "heteroclinic_gamma1", lambda cfg, endpoint_tol: still)
    assert main(["flow", "--config", "chain_unequal"]) == EXIT_NUMERIC
    assert "does not increase" in capsys.readouterr().err


@pytest.mark.parametrize("config, W1", [
    ("chain_equal", None),
    ("chain_unequal", "1/16*x1^4 - 1/2*x1^2 + 1"),
    ("chain_unequal", "x1^4 - 2/25*x1^2 + 1/625"),
], ids=["chain_equal", "wells-pm2", "wells-pm02"])
def test_flow_min_increment_positive(tmp_path, capsys, config, W1):
    # phi0's smallest gain between samples is an integral of nu(phi0) >= 0,
    # not a difference of phi0 at two samples, which round-off can make
    # negative
    rc, rep = run(capsys, "flow", "--config", _unequal_with(tmp_path, W1=W1) if W1 else config)
    assert rc == EXIT_OK and rep["lyapunov"]["min_increment"] > 0


def test_flow_tight_endpoint_gains_positive(capsys):
    # the last forward step of this orbit is long and z1 - x1 small on it:
    # the gains there need the square of z1 - x1's series to its full degree
    rc, rep = run(capsys, "flow", "--config", "chain_unequal",
                  "--tol-overrides", "endpoint_tol=1e-9")
    assert rc == EXIT_OK and rep["lyapunov"]["min_increment"] > 0


def test_obstruct_equal_temperature(tmp_path):
    out = tmp_path / "obs_eq.json"
    rc = main(["obstruct", "--config", "chain_equal", "--out", str(out)])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["obstruction"]["verdict"] == "inconclusive"


# ------------------------------------------------------------- determinism

def test_spectral_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["spectral", "--w-grid=-10:10:50", "--seed", "1",
                 "--out", str(a)]) == EXIT_OK
    assert main(["spectral", "--w-grid=-10:10:50", "--seed", "1",
                 "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_flow_and_obstruct_do_not_depend_on_the_term_order(tmp_path):
    # one tilted double well written with falling and with rising powers:
    # W1' has three terms, summed by ascending power either way
    outs = []
    for W1 in ("1/4*x1^4 - 1/2*x1^2 + 1/5*x1 + 1/4", "1/4 + 1/5*x1 - 1/2*x1^2 + 1/4*x1^4"):
        d = tmp_path / str(len(outs))
        d.mkdir()
        path = _unequal_with(d, W1=W1)
        assert main(["flow", "--config", path, "--out", str(d / "flow.json")]) == EXIT_OK
        assert main(["obstruct", "--config", path, "--out", str(d / "obs.json")]) == EXIT_OK
        outs.append([(d / name).read_bytes() for name in ("flow.json", "flow.csv", "obs.json")])
    assert outs[0] == outs[1]


# The particular structure construct returns is behaviour: these reports of
# the exact-only commands, and of obstruct at equal temperatures (which
# returns before any numerics), are pinned byte for byte.  They hold
# rationals and exact floats only, so they do not depend on the platform.
GOLDEN_CASES = [
    ("check_witten_harmonic.json", EXIT_OK,
     ["check", "--model", "witten_harmonic", "--phi", "x1^2"]),
    ("construct_witten_harmonic.json", EXIT_OK,
     ["construct", "--model", "witten_harmonic", "--phi", "x1^2"]),
    ("construct_chain_equal.json", EXIT_OK,
     ["construct", "--config", "chain_equal", "--phi",
      "1/2 + z2^2 + y2^2 - 2*x2*z2 + 2*x2^2 + z1^2 + y1^2 - 2*x1*z1 + 1/5*x1*x2^3 + 1/2*x1^4"]),
    ("check_witten_adjoint_fails.json", EXIT_MATH,
     ["check", "--model", "witten_harmonic", "--phi", "x1^2", "--psi", "x1^3"]),
    ("check_chain_unequal.json", EXIT_MATH,
     ["check", "--config", "chain_unequal", "--phi",
      "1/2 + 1/2*z2^2 + 1/2*y2^2 - x2*z2 + x2^2 + z1^2 + y1^2 - 2*x1*z1 + 1/2*x1^4"]),
    ("verify_models.json", EXIT_OK, ["verify-models"]),
    ("obstruct_chain_equal.json", EXIT_OK, ["obstruct", "--config", "chain_equal"]),
]


def test_exact_reports_match_golden(capsys):
    for name, want_rc, argv in GOLDEN_CASES:
        rc = main(argv + ["--seed", "7"])
        assert rc == want_rc, name
        assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes(), name


def test_obstruct_unequal_matches_golden(capsys):
    # the numerical report: the decisions and the sample times exactly, the
    # other floats to 1e-12 relative, and each u(t) to 1e-12 of |u(t)| (a
    # real or imaginary part near its own zero crossing can move by more
    # than that relative to itself)
    assert main(["obstruct", "--config", "chain_unequal", "--seed", "7"]) == EXIT_OK
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / "obstruct_chain_unequal.json").read_text())
    got_ob, want_ob = got.pop("obstruction"), want.pop("obstruction")
    assert got == want
    assert set(got_ob) == set(want_ob)
    for key in ("alpha", "verdict", "notes", "mu1", "exponent_is_integer"):
        assert got_ob[key] == want_ob[key], key
    for key in ("lambda_dot_alpha", "exponent"):
        z, w = complex(*got_ob[key]), complex(*want_ob[key])
        assert abs(z - w) <= 1e-12 * abs(w), key
    for key in ("nearest_integer_distance", "tail_rate_fit", "tail_rate_relative_error",
                "post_support_constancy", "K_magnitude"):
        assert abs(got_ob[key] - want_ob[key]) <= 1e-12 * abs(want_ob[key]), key
    assert len(got_ob["u_samples"]) == len(want_ob["u_samples"])
    for (t, re, im), (t0, re0, im0) in zip(got_ob["u_samples"], want_ob["u_samples"]):
        assert t == t0
        assert abs(complex(re, im) - complex(re0, im0)) <= 1e-12 * abs(complex(re0, im0)), t


def test_flow_unequal_matches_golden(tmp_path, capsys):
    # the keys, booleans, t_range and the CSV's header and row count
    # exactly, the other floats to 1e-12 relative; a CSV entry to 1e-12 of
    # its column's largest magnitude, since a coordinate near its own zero
    # crossing can move by more than that relative to itself
    out = tmp_path / "flow.json"
    assert main(["flow", "--config", "chain_unequal", "--seed", "7", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    got, want = json.loads(out.read_text()), json.loads((GOLDEN / "flow_chain_unequal.json").read_text())

    def compare(g, w, key):
        assert type(g) is type(w), key
        if isinstance(w, dict):
            assert set(g) == set(w), key
            for k in w:
                compare(g[k], w[k], k)
        elif isinstance(w, float) and key != "t_range":
            assert abs(g - w) <= 1e-12 * abs(w), key
        elif isinstance(w, list) and key != "t_range":
            assert len(g) == len(w), key
            for a, b in zip(g, w):
                compare(a, b, key)
        else:
            assert g == w, key
    compare(got, want, None)
    rows = [line.split(",") for line in out.with_suffix(".csv").read_text().splitlines()]
    want_rows = [line.split(",") for line in
                 (GOLDEN / "flow_chain_unequal.csv").read_text().splitlines()]
    assert rows[0] == want_rows[0] and len(rows) == len(want_rows)
    g, w = np.array(rows[1:], dtype=float), np.array(want_rows[1:], dtype=float)
    assert np.all(np.abs(g - w) <= 1e-12 * np.max(np.abs(w), axis=0))
