"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Every test times itself against the stated budget and prints a summary line
that bypasses pytest capture, so the verdicts are visible in plain runs.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np

from susyfact.cli import main as cli_main
from susyfact.extcalc import homotopy_inverse_delta
from susyfact.flow import (heteroclinic_gamma1, lyapunov_report, nu_apply,
                           quintic_bound_probe)
from susyfact.models import (chain_phi0, default_chain_config, kfp_space,
                             make_chain, make_kfp, make_witten, witten_space)
from susyfact.obstruction import (full_residual, invariant_subspace_check,
                                  run_obstruction)
from susyfact.opcore import SecondOrderOperator, identity_matrix
from susyfact.polyalg import Poly, VarSpace, parse_poly
from susyfact.spectral import F_critical_point, classify_roots, cubic_roots
from susyfact.susy import assemble_factorization, construct, verify_structure


class Criterion:
    """Context manager that times a criterion and prints its verdict.

    The verdict line is emitted with capture suspended so it is visible in
    plain `pytest` runs, one line per criterion.
    """

    def __init__(self, number: int, label: str, budget_s: float, capsys=None):
        self.number = number
        self.label = label
        self.budget = budget_s
        self.capsys = capsys

    def __enter__(self):
        # settle garbage from the previous criterion before timing this one
        gc.collect()
        self.t0 = time.perf_counter()
        return self

    def _emit(self, line: str):
        if self.capsys is not None:
            with self.capsys.disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        ok = exc_type is None and dt < self.budget
        verdict = "PASS" if ok else "FAIL"
        self._emit(f"criterion {self.number} [{self.label}]: {verdict} "
                   f"({dt:.2f}s / budget {self.budget:.0f}s)")
        if exc_type is None and dt >= self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.budget}s budget: {dt:.2f}s")
        return False


def test_criterion_1_witten_factorization(capsys):
    with Criterion(1, "witten factorization", 1.0, capsys):
        sp1 = witten_space(1)
        sp2 = witten_space(2)
        potentials = [
            parse_poly(sp1, "1/2*x1^2"),
            parse_poly(sp1, "1/4*x1^4 - 1/2*x1^2 + 1/4"),
            parse_poly(sp2, "1/2*x1^2 + 1/2*x2^2"),
            parse_poly(sp2, "1/4*x1^4 - 1/2*x1^2 + 1/4"
                            " + 1/4*x2^4 - 1/2*x2^2 + 1/4"),
        ]
        for V in potentials:
            b = make_witten(V, 2)
            s = b.reference_susy
            assert s.phi == V and s.psi == V
            # A = (gamma/2) I with gamma = 2
            for j, row in enumerate(s.A):
                for k, p in enumerate(row):
                    assert p == (Poly.const(V.space, 1) if j == k
                                 else Poly.zero(V.space))
            assert assemble_factorization(s.A, s.phi, s.psi) == b.conjugated


def test_criterion_2_kfp_factorization(capsys):
    with Criterion(2, "kinetic fokker-planck factorization", 1.0, capsys):
        sp = kfp_space(1)
        b = make_kfp(parse_poly(sp, "1/2*x1^2"), 2)
        s = b.reference_susy
        assert s.A[0][0].is_zero
        assert s.A[0][1] == Poly.const(sp, Fraction(1, 2))
        assert s.A[1][0] == Poly.const(sp, Fraction(-1, 2))
        assert s.A[1][1] == Poly.const(sp, 1)  # gamma/2
        assert assemble_factorization(s.A, s.phi, s.psi) == b.conjugated


def test_criterion_3_chain_factorizations(capsys):
    with Criterion(3, "chain equal-temperature and decoupled", 5.0, capsys):
        equal = make_chain(default_chain_config(equal_temperature=True))
        assert equal.reference_susy is not None
        assert verify_structure(equal.conjugated,
                                equal.reference_susy).status == "verified"
        dec = make_chain(default_chain_config(delta_w=None))
        assert dec.reference_susy is not None
        assert verify_structure(dec.conjugated,
                                dec.reference_susy).status == "verified"
        A = dec.reference_susy.A
        # block structure: alpha_j/2 on (x, y), gamma alpha_j/2 on (z, z)
        names = dec.operator.space.names
        i = dict((nm, k) for k, nm in enumerate(names))
        assert A[i["x1"]][i["y1"]] == Poly.const(dec.operator.space, Fraction(1, 2))
        assert A[i["y1"]][i["x1"]] == Poly.const(dec.operator.space, Fraction(-1, 2))
        assert A[i["x2"]][i["y2"]] == Poly.const(dec.operator.space, 1)
        assert A[i["z2"]][i["z2"]] == Poly.const(dec.operator.space, 1)


def test_criterion_4_necessary_condition_breakage(capsys):
    with Criterion(4, "unequal-temperature kernel breakage", 5.0, capsys):
        cfg = default_chain_config()
        sp = cfg.space
        assert cfg.alpha1 == 1 and cfg.alpha2 == 2
        b = make_chain(cfg)
        phi0 = chain_phi0(cfg)
        r1 = b.operator.kernel_test(2 * phi0)
        assert not r1.vanishes
        r2 = b.operator.kernel_test(2 * phi0 + 2 * (1 / cfg.alpha1) * cfg.deltaW)
        assert not r2.vanishes
        scale = Fraction(2, 1) / cfg.alpha2 - Fraction(2, 1) / cfg.alpha1
        expected = cfg.deltaW.partial("x2") * Poly.var(sp, "y2") * scale
        assert r2.residual == expected


def test_criterion_5_construction_round_trip(capsys):
    with Criterion(5, "construction round trip on random fields", 30.0, capsys):
        rng = random.Random(20240817)
        names = ("x1", "x2", "x3", "x4")
        passes = 0
        for trial in range(50):
            n = rng.randint(2, 4)
            sp = VarSpace.make(names[:n])
            # random antisymmetric G of degree <= 4 and v_k = 1/2 sum_j d_j G_jk
            G = [[Poly.zero(sp)] * n for _ in range(n)]
            for j, k in combinations(range(n), 2):
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    exps = [0] * n
                    for _ in range(rng.randint(0, 4)):
                        exps[rng.randrange(n)] += 1
                    if sum(exps) > 4:
                        continue
                    terms[(tuple(exps), 0)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                G[j][k] = Poly(sp, terms)
                G[k][j] = -G[j][k]
            v = [sum((G[j][k].partial(names[j]) for j in range(n)), Poly.zero(sp))
                 * Fraction(1, 2) for k in range(n)]
            C = homotopy_inverse_delta(sp, v)
            for k in range(n):
                assert sum((C[j][k].partial(names[j]) for j in range(n)), Poly.zero(sp)) == v[k]
            # the drift operator with this (h-weighted) field factorizes
            v_op = tuple(vk.h_shift(1) for vk in v)
            P = SecondOrderOperator(sp, identity_matrix(sp), v_op,
                                    Poly.zero(sp), True)
            verdict = construct(P, Poly.zero(sp), Poly.zero(sp))
            assert verdict.status == "constructed"
            assert assemble_factorization(verdict.structure.A, Poly.zero(sp),
                                          Poly.zero(sp)) == P
            passes += 1
        assert passes == 50


def test_criterion_6_cubic_spectrum(capsys):
    with Criterion(6, "cubic spectrum over the w grid", 1.0, capsys):
        for w in np.linspace(-10.0, 10.0, 200):
            roots = cubic_roots(float(w))
            assert max(abs(z ** 3 - z ** 2 + (1 + w) * z - w)
                       for z in roots) < 1e-10
            assert abs(sum(roots) - 1.0) < 1e-10
            cls = classify_roots(float(w))
            if abs(w) < 1e-10:
                assert cls == "one_zero"
            elif w > 0:
                assert cls == "all_re_positive"
            else:
                assert cls == "one_negative"
        m, Fm = F_critical_point()
        assert abs(m - 1.5652) < 1e-3
        assert Fm < 0


def test_criterion_7_flow(capsys):
    with Criterion(7, "heteroclinic flow and power laws", 60.0, capsys):
        cfg = default_chain_config()
        sp = cfg.space
        # symbolic derivative cascade (gamma = 1)
        phi0 = chain_phi0(cfg)
        assert nu_apply(cfg, phi0) == (
            parse_poly(sp, "z1 - x1") ** 2 * (cfg.gamma / cfg.alpha1)
            + parse_poly(sp, "z2 - x2") ** 2 * (cfg.gamma / cfg.alpha2))
        zx = parse_poly(sp, "z1 - x1")
        assert nu_apply(cfg, zx) == parse_poly(sp, "z1 - x1 - y1")
        assert nu_apply(cfg, nu_apply(cfg, zx)) == parse_poly(sp, "x1^3 - x1 - y1")
        assert nu_apply(cfg, parse_poly(sp, "y1")) == parse_poly(sp, "z1 - x1^3")
        assert nu_apply(cfg, parse_poly(sp, "x1")) == parse_poly(sp, "y1")
        traj = heteroclinic_gamma1(cfg)
        assert traj.meta["endpoint_residual_minimum"] < 1e-6
        assert traj.meta["endpoint_residual_saddle"] < 1e-6
        assert lyapunov_report(cfg, traj)["strictly_increasing"]
        rows = quintic_bound_probe(cfg, [[0.5, 0.0, 0.1, 0.0, 0.0, 0.0],
                                         [0.5, 0.3, 0.5, 0.0, 0.0, 0.0],
                                         [0.5, 0.0, 0.5, 0.0, 0.0, 0.0]])
        want = {"generic": 1.0, "y_nonzero_degenerate": 3.0,
                "fully_degenerate": 5.0}
        for r in rows:
            assert abs(r["slope"] - want[r["case"]]) < 0.3


def test_criterion_8_obstruction(capsys):
    with Criterion(8, "transport obstruction", 120.0, capsys):
        cfg = default_chain_config()
        rep = run_obstruction(cfg)
        assert rep.lambda_dot_alpha.real > 0
        assert rep.tail_rate_relative_error < 0.05
        assert rep.nearest_integer_distance > 1e-3
        assert rep.verdict in ("blowup_at_minimum", "nonsmooth_at_saddle")
        sub = invariant_subspace_check(cfg)
        assert sub["symbolic_zero"] is True
        eq = default_chain_config(equal_temperature=True)
        psi = 2 * (1 / eq.alpha1) * eq.deltaW
        assert full_residual(eq, psi).is_zero
        assert run_obstruction(eq).verdict == "inconclusive"


def test_criterion_9_cli_determinism(tmp_path, capsys):
    with Criterion(9, "deterministic command line output", 300.0, capsys):
        commands = [
            ["check", "--model", "witten_harmonic", "--phi", "x1^2"],
            ["construct", "--model", "witten_harmonic", "--phi", "x1^2"],
            ["verify-models"],
            ["spectral", "--w-grid=-10:10:200"],
            ["flow", "--config", "chain_unequal"],
            ["obstruct", "--config", "chain_unequal"],
        ]
        for k, cmd in enumerate(commands):
            outs = []
            for run_id in ("a", "b"):
                out = tmp_path / f"{k}_{run_id}.json"
                rc = cli_main(cmd + ["--seed", "7", "--out", str(out)])
                assert rc == 0, cmd
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], f"non-deterministic output: {cmd}"
