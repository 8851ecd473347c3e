"""Bundled models: Witten, kinetic Fokker-Planck, and heat-bath chains."""

from __future__ import annotations

from fractions import Fraction

import pytest

from susyfact.models import (ChainConfig, ModelError, chain_phi0, chain_space,
                             chain_var, default_chain_config, hamiltonian_p,
                             kfp_space, make_chain, make_kfp, make_witten,
                             reference_bundles, witten_space)
from susyfact.polyalg import Poly, VarSpace, parse_poly
from susyfact.susy import assemble_factorization, verify_structure


# ------------------------------------------------------------------- spaces

def test_spaces():
    assert witten_space(2).names == ("x1", "x2")
    assert kfp_space(1).names == ("x1", "y1")
    sp = chain_space(1)
    assert sp.names == ("x1", "y1", "z1", "x2", "y2", "z2")
    assert sp.block_vars("w1") == ("x1", "y1", "z1")
    assert sp.block_vars("w2") == ("x2", "y2", "z2")
    assert chain_var(sp, "y", 2) == "y2"


# ------------------------------------------------------------------ bundles

def test_bundles_are_conjugation_consistent():
    for name, b in reference_bundles().items():
        assert b.conjugated == b.operator.exp_conjugate(b.phi0, +1), name


def test_bundles_kernel_conditions():
    for name, b in reference_bundles().items():
        # P kills the Maxwellian e^{-2 phi0 / h} ...
        assert b.operator.kernel_test(2 * b.phi0).vanishes, name
        # ... equivalently the conjugated operator kills e^{-phi0/h} and its
        # adjoint kills e^{-phi0/h}
        assert b.conjugated.kernel_test(b.phi0).vanishes, name
        assert b.conjugated.adjoint().kernel_test(b.phi0).vanishes, name


def test_bundles_eikonal():
    for name, b in reference_bundles().items():
        assert b.operator.eikonal_residual(2 * b.phi0).is_zero, name
        # the adjoint form at psi0 = 2 phi0 is -eikonal_residual(-psi0)
        assert b.operator.adjoint().eikonal_residual(-2 * b.phi0).is_zero, name


def test_reference_structures_reproduce_conjugated_operator():
    for name, b in reference_bundles().items():
        assert b.reference_susy is not None, name
        s = b.reference_susy
        Q = assemble_factorization(s.A, s.phi, s.psi)
        assert Q == b.conjugated, name


def test_witten_reference_matrix():
    sp = witten_space(1)
    b = make_witten(parse_poly(sp, "1/2*x1^2"), 2)
    assert b.reference_susy.A[0][0] == Poly.const(sp, 1)  # gamma/2


def test_kfp_reference_matrix():
    sp = kfp_space(1)
    b = make_kfp(parse_poly(sp, "1/2*x1^2"), 2)
    A = b.reference_susy.A
    assert A[0][1] == Poly.const(sp, Fraction(1, 2))
    assert A[1][0] == Poly.const(sp, Fraction(-1, 2))
    assert A[1][1] == Poly.const(sp, 1)


# ------------------------------------------------------------- chain config

def test_chain_config_validation():
    good = default_chain_config()
    assert good.alpha1 == 1 and good.alpha2 == 2
    sp = good.space
    with pytest.raises(ModelError):
        ChainConfig(1, good.W1, good.W2, good.deltaW, Fraction(-1),
                    good.alpha2, good.gamma)
    with pytest.raises(ModelError):
        # W2 must be a positive definite quadratic form
        ChainConfig(1, good.W1, parse_poly(sp, "-1/2*x2^2"), good.deltaW,
                    good.alpha1, good.alpha2, good.gamma)
    with pytest.raises(ModelError):
        # W1 may only involve the first-chain positions
        ChainConfig(1, parse_poly(sp, "x2^2"), good.W2, good.deltaW,
                    good.alpha1, good.alpha2, good.gamma)


def test_chain_config_json_round_trip():
    cfg = default_chain_config()
    again = ChainConfig.from_json_dict(cfg.to_json_dict())
    assert again.W1 == cfg.W1 and again.W2 == cfg.W2
    assert again.deltaW == cfg.deltaW
    assert again.alpha2 == cfg.alpha2


def test_chain_phi0_unequal():
    cfg = default_chain_config()
    sp = cfg.space
    expected = parse_poly(
        sp,
        "1/2*y1^2 + 1/4*x1^4 - 1/2*x1^2 + 1/4 + 1/2*x1^2 - x1*z1 + 1/2*z1^2"
        " + 1/4*y2^2 + 1/4*x2^2 + 1/4*x2^2 - 1/2*x2*z2 + 1/4*z2^2")
    assert chain_phi0(cfg) == expected


def test_chain_phi0_equal_absorbs_coupling():
    # at equal temperatures the bundle weight is phi0 + deltaW / alpha1
    cfg = default_chain_config(equal_temperature=True)
    b = make_chain(cfg)
    assert b.phi0 - chain_phi0(cfg) == cfg.deltaW * (1 / cfg.alpha1)


# ------------------------------------------ the criterion-breaking residuals

def test_unequal_temperature_kernel_residuals():
    cfg = default_chain_config()
    sp = cfg.space
    b = make_chain(cfg)
    assert b.reference_susy is None
    r1 = b.operator.kernel_test(2 * chain_phi0(cfg))
    assert not r1.vanishes
    assert r1.residual == parse_poly(sp, "1/5*y1*x2^3 + 3/10*x1*x2^2*y2")
    shifted = 2 * chain_phi0(cfg) + 2 * (1 / cfg.alpha1) * cfg.deltaW
    r2 = b.operator.kernel_test(shifted)
    assert not r2.vanishes
    # exactly (2/alpha2 - 2/alpha1) y2 . d_{x2} deltaW
    scale = Fraction(2, 1) / cfg.alpha2 - Fraction(2, 1) / cfg.alpha1
    expected = cfg.deltaW.partial("x2") * Poly.var(sp, "y2") * scale
    assert r2.residual == expected
    assert r2.residual == parse_poly(sp, "-3/10*x1*x2^2*y2")


def test_equal_temperature_kernel_vanishes():
    cfg = default_chain_config(equal_temperature=True)
    b = make_chain(cfg)
    assert b.operator.kernel_test(2 * b.phi0).vanishes
    # the bare leading phase alone does not work once deltaW couples the chains
    assert not b.operator.kernel_test(2 * chain_phi0(cfg)).vanishes


def test_decoupled_reference_structure():
    cfg = default_chain_config(delta_w=None)
    b = make_chain(cfg)
    assert b.reference_susy is not None
    assert verify_structure(b.conjugated, b.reference_susy).status == "verified"


# -------------------------------------------------------------- hamiltonian

def test_hamiltonian_p_shape():
    cfg = default_chain_config()
    p, phase = hamiltonian_p(cfg)
    assert p.space == phase
    assert len(phase.names) == 12
    assert p.is_h_free()
