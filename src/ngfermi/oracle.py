"""Dense Fock-space reference implementation.

Everything here is brute force on the full 2^N-dimensional Hilbert space:
ladder operators with explicit sign strings, states built by matrix
exponentials, exact expectation values and exact diagonalization.  It is the
ground truth the fast covariance-matrix code is tested against, kept
deliberately simple and capped at desk scale.

Basis convention: Fock state index b has mode j occupied iff bit j of b is
set (mode 0 is the least significant bit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ResourceLimitError, ValidationError
from .gaussian import GaussianParams
from .hamiltonian import ManyBodyHamiltonian, _as_omega
from .wick import OperatorString, wrap_angles

MAX_OPERATOR_MODES = 12
MAX_EXPONENTIAL_MODES = 10


@dataclass(frozen=True)
class DenseOperatorSet:
    """Dense annihilation operators for every mode, with their mode count."""

    n_modes: int
    annihilators: tuple[np.ndarray, ...]

    def creator(self, mode: int) -> np.ndarray:
        return self.annihilators[mode].conj().T

    def number(self, mode: int) -> np.ndarray:
        c = self.annihilators[mode]
        return c.conj().T @ c


@dataclass(frozen=True)
class DenseState:
    """Normalized state vector on the full Fock space."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.shape[0] & (amp.shape[0] - 1):
            raise DimensionError("amplitudes must be a 2^N vector")
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-12:
            raise ValidationError(f"state norm {norm} deviates from 1")
        amp = amp.copy()  # never freeze caller-owned memory
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @property
    def n_modes(self) -> int:
        return int(np.log2(self.amplitudes.shape[0]))


def fock_operators(n_modes: int) -> DenseOperatorSet:
    """Ladder operators with Jordan-Wigner sign strings on lower modes."""
    if n_modes > MAX_OPERATOR_MODES:
        raise ResourceLimitError(
            f"dense operators capped at {MAX_OPERATOR_MODES} modes, got {n_modes}"
        )
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])  # <0|c|1> = 1
    zpauli = np.array([[1.0, 0.0], [0.0, -1.0]])
    eye2 = np.eye(2)
    ops = []
    for j in range(n_modes):
        mat = np.ones((1, 1))
        # kron builds most-significant factors first; mode 0 is the last factor
        for k in range(n_modes - 1, -1, -1):
            if k > j:
                mat = np.kron(mat, eye2)
            elif k == j:
                mat = np.kron(mat, lower)
            else:
                mat = np.kron(mat, zpauli)
        ops.append(mat.astype(complex))
    return DenseOperatorSet(n_modes, tuple(ops))


def vacuum_state(n_modes: int) -> DenseState:
    amp = np.zeros(2 ** n_modes, dtype=complex)
    amp[0] = 1.0
    return DenseState(amp)


def occupations_of_basis(n_modes: int) -> np.ndarray:
    """(2^N, N) array of mode occupations per basis state."""
    idx = np.arange(2 ** n_modes)
    return (idx[:, None] >> np.arange(n_modes)[None, :]) & 1


def number_phase_diagonal(n_modes: int, alpha: np.ndarray) -> np.ndarray:
    """Diagonal of exp(i sum_j alpha(j) n_j) over the Fock basis."""
    occ = occupations_of_basis(n_modes)
    return np.exp(1j * occ @ np.asarray(alpha, dtype=float))


def flux_unitary_diagonal(omega: np.ndarray) -> np.ndarray:
    """Diagonal of exp((i/2) sum_jk omega_jk :n_j n_k:) over the Fock basis."""
    w = np.asarray(omega, dtype=float)
    n = w.shape[0]
    occ = occupations_of_basis(n).astype(float)
    quad = 0.5 * np.einsum("bj,jk,bk->b", occ, w, occ)
    diag_part = 0.5 * occ @ np.diag(w)  # removes the j = k self-pairing
    return np.exp(1j * (quad - diag_part))


def gaussian_unitary(xi: np.ndarray | GaussianParams) -> np.ndarray:
    """Dense unitary exp((i/4) G) of the Hermitian G = sum_jk A_j xi_jk A_k,
    taken as V e^{iw/4} V^H from G = V diag(w) V^H."""
    params = xi if isinstance(xi, GaussianParams) else GaussianParams(np.asarray(xi))
    n = params.n_modes
    if n > MAX_EXPONENTIAL_MODES:
        raise ResourceLimitError(
            f"dense exponentials capped at {MAX_EXPONENTIAL_MODES} modes, got {n}"
        )
    ops = fock_operators(n)
    majorana = [ops.creator(j) + ops.annihilators[j] for j in range(n)]
    majorana += [1j * (ops.creator(j) - ops.annihilators[j]) for j in range(n)]
    gen = np.zeros((2 ** n, 2 ** n), dtype=complex)
    xi_mat = params.xi
    for j in range(2 * n):
        for k in range(2 * n):
            if xi_mat[j, k] != 0.0:
                gen += xi_mat[j, k] * (majorana[j] @ majorana[k])
    w, v = np.linalg.eigh(gen)
    return (v * np.exp(0.25j * w)) @ v.conj().T


def dense_state(xi, omega) -> DenseState:
    """|Psi> = U_flux U_gauss |0> built with dense exponentials."""
    params = xi if isinstance(xi, GaussianParams) else GaussianParams(np.asarray(xi))
    w = _as_omega(omega, params.n_modes)
    psi = gaussian_unitary(params) @ vacuum_state(params.n_modes).amplitudes
    psi = flux_unitary_diagonal(w) * psi
    psi = psi / np.linalg.norm(psi)
    return DenseState(psi)


def apply_string(ops: DenseOperatorSet, string: OperatorString | tuple, vec: np.ndarray) -> np.ndarray:
    """Apply an operator string (rightmost factor first) to a vector."""
    factors = string.factors if isinstance(string, OperatorString) else tuple(string)
    out = vec
    for mode, dagger in reversed(factors):
        mat = ops.creator(mode) if dagger else ops.annihilators[mode]
        out = mat @ out
    return out


def dense_expectation(state: DenseState, alpha, string: OperatorString | tuple) -> complex:
    """<state| exp(i sum alpha(j) n_j) (operator string) |state>, exactly."""
    n = state.n_modes
    a = wrap_angles(np.asarray(alpha, dtype=float))
    if a.shape != (n,):
        raise DimensionError(f"phase vector has shape {a.shape}, expected ({n},)")
    ops = fock_operators(n)
    vec = apply_string(ops, string, state.amplitudes)
    vec = number_phase_diagonal(n, a) * vec
    return complex(np.vdot(state.amplitudes, vec))


def dense_hamiltonian_matrix(hamil: ManyBodyHamiltonian) -> np.ndarray:
    """Full 2^N x 2^N matrix of the many-body Hamiltonian."""
    n = hamil.n_modes
    if n > MAX_EXPONENTIAL_MODES:
        raise ResourceLimitError(
            f"dense diagonalization capped at {MAX_EXPONENTIAL_MODES} modes, got {n}"
        )
    ops = fock_operators(n)
    dim = 2 ** n
    mat = np.zeros((dim, dim), dtype=complex)
    for p, q in np.argwhere(hamil.f != 0.0):
        mat += hamil.f[p, q] * (ops.creator(p) @ ops.annihilators[q])
    for p, q, r, s in hamil.two_body_entries():
        term = ops.creator(p) @ ops.creator(q) @ ops.annihilators[r] @ ops.annihilators[s]
        mat += 0.5 * hamil.h[p, q, r, s] * term
    return mat


def dense_energy(state: DenseState, hamil: ManyBodyHamiltonian) -> float:
    """The real part of <state|H|state>; the imaginary part, rounding for a
    Hermitian H, is dropped unchecked."""
    val = complex(np.vdot(state.amplitudes, dense_hamiltonian_matrix(hamil) @ state.amplitudes))
    return val.real


def dense_ground(hamil: ManyBodyHamiltonian) -> tuple[float, DenseState]:
    """Exact ground energy and one ground state from full diagonalization."""
    mat = dense_hamiltonian_matrix(hamil)
    vals, vecs = np.linalg.eigh(mat)
    vec = vecs[:, 0]
    return float(vals[0]), DenseState(vec / np.linalg.norm(vec))


def overlap(a: DenseState, b: DenseState) -> float:
    """|<a|b>|, in [0, 1]."""
    if a.amplitudes.shape != b.amplitudes.shape:
        raise DimensionError("states live on different mode counts")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))
