import numpy as np
import pytest

from ngfermi import gaussian, oracle
from ngfermi.validate import (
    random_hamiltonian,
    random_operator_string,
    random_symmetric_zero_diag,
    random_two_body,
)

__all__ = [
    "random_hamiltonian",
    "random_operator_string",
    "random_symmetric_zero_diag",
    "random_two_body",
]


@pytest.fixture
def rng():
    return np.random.default_rng(20240813)


def dense_covariance(state: oracle.DenseState) -> np.ndarray:
    """Covariance matrix measured directly on a dense state (independent path)."""
    n = state.n_modes
    ops = oracle.fock_operators(n)
    majorana = [ops.creator(j) + ops.annihilators[j] for j in range(n)]
    majorana += [1j * (ops.creator(j) - ops.annihilators[j]) for j in range(n)]
    gamma = np.zeros((2 * n, 2 * n), dtype=complex)
    psi = state.amplitudes
    for k in range(2 * n):
        for l in range(k + 1, 2 * n):
            comm = majorana[k] @ majorana[l] - majorana[l] @ majorana[k]
            gamma[k, l] = 0.5j * np.vdot(psi, comm @ psi)
            gamma[l, k] = -gamma[k, l]
    assert np.max(np.abs(gamma.imag)) < 1e-10
    return gamma.real


def bell_pair_covariance(theta: float = np.pi / 4) -> gaussian.CovarianceMatrix:
    """Covariance of cos(theta)|00> + sin(theta)|11> on two modes.

    Built from the Bogoliubov generator theta * (c+_0 c+_1 - c_1 c_0) written
    in Majorana form; used to exercise vanishing-coefficient corner cases.
    """
    n = 2
    xi = np.zeros((2 * n, 2 * n), dtype=complex)
    # (i/4) A xi A with i*xi real antisymmetric; pair rotation in (A_0, A_3) and (A_1, A_2)
    ixi = np.zeros((2 * n, 2 * n))
    ixi[0, 3] = theta
    ixi[3, 0] = -theta
    ixi[1, 2] = -theta
    ixi[2, 1] = theta
    xi = -1j * ixi
    return gaussian.covariance_from_xi(gaussian.GaussianParams(xi))


def bell_pair_and_vacuum() -> gaussian.CovarianceMatrix:
    """Modes 0, 1 in the equal-weight pair state, mode 2 empty: every phase
    vector (pi, 0, x) has coefficient 0 and a singular contraction denominator."""
    g = -gaussian.upsilon(3)
    idx = [0, 1, 3, 4]
    g[np.ix_(idx, idx)] = bell_pair_covariance(np.pi / 4).gamma
    return gaussian.CovarianceMatrix(g)
