"""Supersymmetric factorization of real second-order semiclassical operators.

Decides, constructs, and refutes factorizations P = d_psi^{A,*} d_phi for
operators with polynomial coefficients, and reproduces the transport-equation
mechanism that rules out smooth structures for two-bath oscillator chains at
unequal temperatures.
"""

from .polyalg import Poly, PolyError, VarSpace, parse_poly, parse_rational
from .extcalc import homotopy_inverse_delta
from .opcore import (KernelTestReport, OperatorError, SecondOrderOperator,
                     identity_matrix, laplacian, matrix_from_entries,
                     zero_matrix)
from .susy import (SusyStructure, SusyVerdict, assemble_factorization,
                   check_necessary, construct, verify_reference_structures,
                   verify_structure)
from .models import (ChainConfig, ModelBundle, chain_phi0, chain_space,
                     chain_var, default_chain_config, hamiltonian_p,
                     kfp_space, make_chain, make_kfp, make_witten,
                     reference_bundles, witten_space)
from . import extcalc, flow, models, obstruction, opcore, polyalg, spectral, susy

__version__ = "0.1.0"
