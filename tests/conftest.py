import numpy as np
import pytest

from ngfermi import gaussian, optimizer, oracle
from ngfermi.validate import (
    random_hamiltonian,
    random_operator_string,
    random_symmetric_zero_diag,
    random_two_body,
)

__all__ = [
    "b_tensor_entries",
    "curvature_pairs",
    "dense_bfgs_direction",
    "lbfgs_memory",
    "random_hamiltonian",
    "random_operator_string",
    "random_symmetric_zero_diag",
    "random_two_body",
    "simple_step_bound",
]


def b_tensor_entries(tensor) -> np.ndarray:
    """The flow tensor's N^4 entries (see ``optimizer.BTensor``), with the
    pair symmetries and zeroed diagonals: the reference for its pair-space forms."""
    gg = np.outer(tensor.g, tensor.g)
    delta = np.eye(tensor.n_modes)
    entries = (
        np.einsum("lm,kn->klmn", gg, delta)
        + np.einsum("ln,km->klmn", gg, delta)
        + np.einsum("km,ln->klmn", gg, delta)
        + np.einsum("kn,lm->klmn", gg, delta)
        + np.einsum("kl,km,ln->klmn", tensor.blocks_sq, delta, delta)
        + np.einsum("kl,kn,lm->klmn", tensor.blocks_sq, delta, delta)
    ) / 8.0
    idx = np.arange(tensor.n_modes)
    entries[idx, idx, :, :] = 0.0
    entries[:, :, idx, idx] = 0.0
    return entries


def simple_step_bound(tensor) -> float:
    """Smallest descent coefficient of the simple coupling update that keeps
    its coupling term non-increasing: the largest eigenvalue of the flow
    quadratic form on symmetric zero-diagonal couplings divided by 8, i.e.
    lambda_max(``optimizer.matricize_b``)/4, and 0 with no coupling."""
    reduced = optimizer.matricize_b(tensor)
    if reduced.size == 0:
        return 0.0
    return float(np.max(np.linalg.eigvalsh(reduced))) / 4.0


def curvature_pairs(rng, m: int, size: int) -> list:
    """m pairs (s, y) with s.y > 0: y = A s plus noise for a random positive
    definite A."""
    a = rng.standard_normal((size, size))
    hess = a @ a.T / size + np.eye(size)
    pairs = []
    while len(pairs) < m:
        s = rng.standard_normal(size)
        y = hess @ s + 0.3 * rng.standard_normal(size)
        if s @ y > 0.0:
            pairs.append((s, y))
    return pairs


def lbfgs_memory(pairs, k) -> np.ndarray:
    """The rows `optimizer.lbfgs_direction` reads: every s, every y, then K."""
    return np.array([s for s, _ in pairs] + [y for _, y in pairs] + [k])


def dense_bfgs_direction(pairs, k) -> tuple[np.ndarray, float]:
    """H K / theta and theta = s.y / y.y of the newest pair, with H built from
    H_0 = theta I by the dense BFGS recursion H <- V^T H V + rho s s^T,
    V = 1 - rho y s^T, oldest pair first."""
    s_new, y_new = pairs[-1]
    theta = (s_new @ y_new) / (y_new @ y_new)
    h = theta * np.eye(len(k))
    for s, y in pairs:
        rho = 1.0 / (s @ y)
        v = np.eye(len(k)) - rho * np.outer(y, s)
        h = v.T @ h @ v + rho * np.outer(s, s)
    return h @ k / theta, theta


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
