"""Command line interface: subcommands, exit codes, canonical output."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from susyfact.cli import (EXIT_MATH, EXIT_OK, EXIT_USAGE, canonical_json, main)

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
    # non-finite numbers are usage errors, refused before any computation
    for argv in (["spectral", "--w-grid", "nan,1"], ["spectral", "--w-grid=0:inf:3"]):
        rc, _ = run(capsys, *argv)
        assert rc == EXIT_USAGE, argv
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
    assert rep["endpoint_residual_minimum"] < 1e-6
    assert (tmp_path / "flow.csv").exists()


def test_obstruct_command(tmp_path):
    out = tmp_path / "obs.json"
    rc = main(["obstruct", "--config", "chain_unequal", "--out", str(out)])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["obstruction"]["verdict"] == "nonsmooth_at_saddle"
    assert rep["invariant_subspace"]["symbolic_zero"] is True


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
    ({"W1": "3/8*x1^4 - 3/4*x1^2 + 3/8", "W2": "7/36*x2^2"}, [0, 2, 1], [1.0, 2.0548046676563]),
    # the perturbation follows the w2-degree m = 4 of deltaW
    ({"deltaW": "1/10*x1*x2^4"}, [2, 1, 1], [1.6096381027438, -1.7315935245260]),
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
])
def test_unsupported_regimes_exit_2(tmp_path, capsys, changes, message):
    # outside the supported regime is a usage error, not a mathematical negative
    path = _unequal_with(tmp_path, **changes)
    for command in ("flow", "obstruct"):
        assert main([command, "--config", path]) == EXIT_USAGE, command
        assert message in capsys.readouterr().err, command


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


# The particular structure construct returns is behaviour: these reports of
# the exact-only commands are pinned byte for byte.  They hold rationals only,
# so they do not depend on the platform.
GOLDEN_CASES = [
    ("check_witten_harmonic.json", EXIT_OK,
     ["check", "--model", "witten_harmonic", "--phi", "x1^2"]),
    ("construct_witten_harmonic.json", EXIT_OK,
     ["construct", "--model", "witten_harmonic", "--phi", "x1^2"]),
    ("construct_chain_equal.json", EXIT_OK,
     ["construct", "--config", "chain_equal", "--phi",
      "1/2 + z2^2 + y2^2 - 2*x2*z2 + 2*x2^2 + z1^2 + y1^2 - 2*x1*z1 + 1/5*x1*x2^3 + 1/2*x1^4"]),
    ("check_chain_unequal.json", EXIT_MATH,
     ["check", "--config", "chain_unequal", "--phi",
      "1/2 + 1/2*z2^2 + 1/2*y2^2 - x2*z2 + x2^2 + z1^2 + y1^2 - 2*x1*z1 + 1/2*x1^4"]),
    ("verify_models.json", EXIT_OK, ["verify-models"]),
]


def test_exact_reports_match_golden(capsys):
    for name, want_rc, argv in GOLDEN_CASES:
        rc = main(argv + ["--seed", "7"])
        assert rc == want_rc, name
        assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes(), name
