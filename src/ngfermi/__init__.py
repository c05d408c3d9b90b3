"""Variational ground states of interacting fermions beyond mean field.

The Ansatz is a pure fermionic Gaussian state dressed by a flux-attachment
unitary exp((i/2) sum_jk omega_jk :n_j n_k:).  Expectation values reduce to
Pfaffians and phase-dressed pair contractions of the 2N x 2N covariance
matrix; the optimizer evolves the covariance by imaginary time and the
couplings by a monotone gradient flow; the optimized couplings compile into
a commuting single- and two-qubit circuit.
"""

from . import circuit, gaussian, hamiltonian, linalg, optimizer, oracle, validate, wick
from .circuit import GateList, emit_ufa, resource_report, to_qasm, verify_dense
from .gaussian import (
    CovarianceMatrix,
    GaussianParams,
    covariance_from_xi,
    mean_field_covariance,
    occupation_numbers,
    upsilon,
)
from .hamiltonian import (
    ManyBodyHamiltonian,
    NonGaussianParams,
    PhaseLayout,
    StateEvaluator,
    energy,
    energy_gradient_omega,
    hubbard_model,
    load_hamiltonian,
    mean_field_h,
    mean_field_o,
    save_hamiltonian,
)
from .linalg import (
    BlockContractionKind,
    block_contract,
    miller_inverse,
    pfaffian,
    skew_exp,
)
from .optimizer import (
    BTensor,
    OptimizerState,
    RunOptions,
    TrajectoryRecord,
    b_tensor,
    dtau_gamma,
    dtau_omega_hitgd,
    dtau_omega_simple,
    initial_state,
    run,
    step,
)
from .oracle import (
    DenseOperatorSet,
    DenseState,
    dense_expectation,
    dense_ground,
    dense_state,
    fock_operators,
    overlap,
)
from .wick import (
    OperatorString,
    a_coeff,
    enumerate_pairings,
    expectation,
    g_matrix,
    gamma_F,
)

__version__ = "0.1.0"
