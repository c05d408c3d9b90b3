"""Gaussian sector: generators, covariance matrices and initial states.

The Gaussian part of the Ansatz is held as a real skew-symmetric covariance
matrix ``gamma`` of the 2N Majorana operators (modes first, conjugate
partners second), with pure states satisfying gamma^2 = -1.  The fixed
symplectic structure is ``Upsilon = sigma (x) 1_N`` with sigma = [[0,1],[-1,0]].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, ValidationError
from .linalg import check_generator, check_skew, skew_exp

REAL_TOL = 1e-10
PURITY_TOL = 1e-8  # the largest purity error a checkpoint's gamma may carry


@lru_cache(maxsize=None)
def upsilon(n_modes: int) -> np.ndarray:
    """The symplectic form sigma (x) 1_N as a real 2N x 2N array, built once
    per mode count and read-only: every caller shares the one array, so
    writing into it raises (take a copy to modify it)."""
    eye = np.eye(n_modes)
    out = np.zeros((2 * n_modes, 2 * n_modes))
    out[:n_modes, n_modes:] = eye
    out[n_modes:, :n_modes] = -eye
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GaussianParams:
    """Quadratic-generator parameters: xi Hermitian and antisymmetric."""

    xi: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=complex)
        if xi.ndim != 2 or xi.shape[0] != xi.shape[1] or xi.shape[0] % 2 != 0:
            raise DimensionError(f"xi must be 2N x 2N, got {xi.shape}")
        check_generator(xi)
        object.__setattr__(self, "xi", xi)

    @property
    def n_modes(self) -> int:
        return self.xi.shape[0] // 2


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real skew-symmetric Majorana covariance matrix.

    Skewness and realness are enforced on construction; purity (gamma^2 = -1)
    is tracked via :attr:`purity_error` and checked only on a checkpoint's
    gamma (the optimizer's rotations keep it), because finite-difference
    probes legitimately evaluate energies slightly off the pure manifold.
    """

    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma)
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] % 2 != 0:
            raise DimensionError(f"gamma must be 2N x 2N, got {g.shape}")
        if np.iscomplexobj(g):
            if np.max(np.abs(g.imag)) > REAL_TOL:
                raise ValidationError("covariance matrix must be real")
            g = g.real
        g = check_skew(g, tol=REAL_TOL, what="covariance matrix")
        g = np.ascontiguousarray(g, dtype=float)
        g.flags.writeable = False
        object.__setattr__(self, "gamma", g)

    @classmethod
    def _of_skew(cls, g: np.ndarray) -> CovarianceMatrix:
        """Wrap an array that is a valid covariance by construction, with no check.

        The caller guarantees that ``g`` is a fresh, finite, real float64,
        C-contiguous 2N x 2N array that is exactly skew (g == -g.T bitwise),
        such as 0.5 * (x - x.T) of a finite real x; it is marked read-only
        here and must not be written afterwards.  Everything else goes
        through the validating constructor.
        """
        g.flags.writeable = False
        obj = object.__new__(cls)
        object.__setattr__(obj, "gamma", g)
        return obj

    @property
    def n_modes(self) -> int:
        return self.gamma.shape[0] // 2

    @property
    def purity_error(self) -> float:
        """Frobenius norm of gamma^2 + 1."""
        n2 = self.gamma.shape[0]
        return float(np.linalg.norm(self.gamma @ self.gamma + np.eye(n2)))


def _as_gamma(gamma) -> np.ndarray:
    if isinstance(gamma, CovarianceMatrix):
        return gamma.gamma
    return CovarianceMatrix(np.asarray(gamma)).gamma


def covariance_from_xi(params: GaussianParams | np.ndarray) -> CovarianceMatrix:
    """Covariance matrix of exp((i/4) A xi A)|0>:  gamma = -U Upsilon U^T, U = e^{i xi}."""
    if not isinstance(params, GaussianParams):
        params = GaussianParams(np.asarray(params))
    u = skew_exp(params.xi)
    n = params.n_modes
    gamma = -u @ upsilon(n) @ u.T
    return CovarianceMatrix(0.5 * (gamma - gamma.T))


def occupation_numbers(gamma: CovarianceMatrix | np.ndarray) -> np.ndarray:
    """Mode occupations <n_j> = (1 + gamma[j, N+j]) / 2."""
    g = _as_gamma(gamma)
    n = g.shape[0] // 2
    return 0.5 * (1.0 + np.diag(g[:n, n:]))


def slater_covariance(occupations: np.ndarray, orbitals: np.ndarray | None = None) -> CovarianceMatrix:
    """Covariance of a Slater determinant with given orbital occupations.

    ``occupations`` are 0/1 values per orbital; ``orbitals`` is the unitary
    whose columns are the single-particle orbitals in the mode basis (identity
    when omitted).  In the orbital basis the covariance is
    sigma (x) diag(2n - 1); it is congruence-transformed back with the real
    orthogonal image of the orbital rotation.
    """
    occ = np.asarray(occupations, dtype=float)
    n = occ.shape[0]
    d = 2.0 * occ - 1.0
    zero = np.zeros((n, n))
    gamma_orb = np.block([[zero, np.diag(d)], [-np.diag(d), zero]])
    if orbitals is None:
        return CovarianceMatrix(gamma_orb)
    v = np.asarray(orbitals, dtype=complex)
    rot = np.block([[v.real, -v.imag], [v.imag, v.real]])
    gamma = rot @ gamma_orb @ rot.T
    return CovarianceMatrix(0.5 * (gamma - gamma.T))


def mean_field_covariance(one_body: np.ndarray, n_filled: int) -> CovarianceMatrix:
    """Hartree-Fock-style initial covariance from a one-body matrix.

    Diagonalizes the Hermitian one-body matrix and occupies the ``n_filled``
    lowest orbitals.
    """
    f = np.asarray(one_body, dtype=complex)
    n = f.shape[0]
    if not (0 <= n_filled <= n):
        raise ValidationError(f"cannot fill {n_filled} of {n} orbitals")
    vals, vecs = np.linalg.eigh(f)
    occ = np.zeros(n)
    occ[:n_filled] = 1.0
    del vals
    return slater_covariance(occ, vecs)


def random_generator(n_modes: int, rng: np.random.Generator, scale: float = 1.0) -> GaussianParams:
    """Random Hermitian-antisymmetric generator (i*xi real skew, Gaussian entries)."""
    r = rng.standard_normal((2 * n_modes, 2 * n_modes)) * scale
    ixi = 0.5 * (r - r.T)
    return GaussianParams(-1j * ixi)


def random_pure_covariance(n_modes: int, rng: np.random.Generator, scale: float = 1.0) -> CovarianceMatrix:
    """Random pure covariance, drawn via a random generator."""
    return covariance_from_xi(random_generator(n_modes, rng, scale=scale))
