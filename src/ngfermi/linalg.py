"""Structured linear algebra shared by the whole package.

Everything here operates on plain numpy arrays: Pfaffians of skew-symmetric
matrices, exponentials of Hermitian-antisymmetric generators, the four signed
block contractions of 2N x 2N matrices and iterative rank-1 inverse
updates.  All functions are pure.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DimensionError, SingularUpdateError, ValidationError

SKEW_TOL = 1e-10
# a rank-1 update whose denominator is smaller in modulus is singular
UPDATE_DENOM_TOL = 1e-12


class BlockContractionKind(Enum):
    """Sign pattern of the four-entry block contraction.

    The first sign belongs to the column index (mode p), the second to the
    row index (mode q); see :func:`block_contract`.
    """

    PLUS_MINUS = "+-"
    MINUS_PLUS = "-+"
    PLUS_PLUS = "++"
    MINUS_MINUS = "--"


def check_skew(mat: np.ndarray, tol: float = SKEW_TOL, what: str = "matrix") -> np.ndarray:
    """Validate skew-symmetry and return the exactly skew part (M - M^T)/2.

    Accepts one square matrix or a stack of them (the last two axes).
    Symmetrizing after validation kills accumulated floating-point drift
    without hiding genuinely non-skew inputs.

    One reduction, dev = max|M + M^T|, screens both conditions: a non-finite
    entry makes its sum with the mirror entry non-finite (inf + x, inf - inf
    and NaN + x are all inf or NaN), so dev is then NaN or inf and fails
    ``dev <= tol``.  Only on that failure path does ``np.isfinite`` tell a
    non-finite entry ("has non-finite entries", reported first) from a
    finite non-skew pair; the verdicts and messages are those of checking
    finiteness first.  The add raises no floating-point warning (inf - inf,
    or a finite pair that overflows).
    """
    mat = np.asarray(mat)
    if mat.ndim not in (2, 3) or mat.shape[-1] != mat.shape[-2]:
        raise DimensionError(f"{what} must be square, got shape {mat.shape}")
    mat_t = np.swapaxes(mat, -1, -2)
    with np.errstate(invalid="ignore", over="ignore"):
        dev = float(np.max(np.abs(mat + mat_t), initial=0.0))
    if not dev <= tol:
        if not np.all(np.isfinite(mat)):
            raise ValidationError(f"{what} has non-finite entries")
        raise ValidationError(f"{what} is not skew-symmetric: |M + M^T| = {dev:.3e}")
    half = 0.5 * mat
    return half - np.swapaxes(half, -1, -2)  # halved first: no overflow near the float maximum


def pfaffian(skew: np.ndarray):
    """Pfaffian of an even-dimensional skew-symmetric matrix, or of each
    matrix in a (K, n, n) stack.

    Uses Parlett-Reid skew tridiagonalization with partial pivoting, O(n^3),
    vectorized over the stack (Wimmer, ACM TOMS 38, 2012).  Works for real
    and complex entries (no conjugation is involved) and satisfies
    Pf(S)^2 = det(S).  Returns a complex scalar for one matrix and a complex
    array of length K for a stack.
    """
    a = check_skew(skew, what="pfaffian input")
    single = a.ndim == 2
    if single:
        a = a[None]
    n = a.shape[-1]
    if n % 2 != 0:
        raise DimensionError(f"pfaffian needs even dimension, got {n}")
    a = a.astype(complex, copy=False)  # check_skew returned a fresh array
    val = np.ones(a.shape[0], dtype=complex)
    for k in range(0, n - 1, 2):
        # pivot the largest entry of column k into position (k+1, k)
        pivot_row = k + 1 + np.argmax(np.abs(a[:, k + 1:, k]), axis=1)
        swap = np.flatnonzero(pivot_row != k + 1)
        if swap.size:
            piv = pivot_row[swap]
            a[swap, k + 1], a[swap, piv] = a[swap, piv], a[swap, k + 1]
            a[swap, :, k + 1], a[swap, :, piv] = a[swap, :, piv], a[swap, :, k + 1]
            val[swap] = -val[swap]
        pivot = a[:, k, k + 1]
        val *= pivot
        if k + 2 < n:
            if not pivot.all():
                # a zero pivot means a zero column: Pf = 0 and that matrix is done
                pivot = np.where(pivot == 0.0, 1.0, pivot)
            tau = a[:, k, k + 2:] / pivot[:, None]
            # congruence with a unit Gauss transform leaves the Pfaffian fixed
            update = tau[:, :, None] * a[:, None, k + 2:, k + 1]
            update -= np.swapaxes(update, 1, 2)
            a[:, k + 2:, k + 2:] += update
    return complex(val[0]) if single else val


def check_generator(xi: np.ndarray) -> np.ndarray:
    """Validate a Hermitian-antisymmetric generator (to ``SKEW_TOL``) and return
    i*xi (real skew).  As in :func:`check_skew`, a non-finite entry fails the
    deviation screen, and only then does ``np.isfinite`` name it."""
    xi = np.asarray(xi, dtype=complex)
    if xi.ndim != 2 or xi.shape[0] != xi.shape[1]:
        raise DimensionError(f"generator must be square, got shape {xi.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        dev_h = float(np.max(np.abs(xi - xi.conj().T), initial=0.0))
        dev_a = float(np.max(np.abs(xi + xi.T), initial=0.0))
    if not (dev_h <= SKEW_TOL and dev_a <= SKEW_TOL):
        if not np.all(np.isfinite(xi)):
            raise ValidationError("generator has non-finite entries")
        raise ValidationError(
            f"generator must satisfy xi^dag = xi and xi^T = -xi (deviations {dev_h:.3e}, {dev_a:.3e})"
        )
    ixi = np.real(1j * xi)
    return 0.5 * (ixi - ixi.T)


def skew_exp(xi: np.ndarray) -> np.ndarray:
    """exp(i*xi) for a Hermitian-antisymmetric xi; the result is real orthogonal:
    A = i*xi is real skew, and from iA = V diag(w) V^H, exp(A) = Re(V e^{-iw} V^H)."""
    ixi = check_generator(xi)
    w, v = np.linalg.eigh(1j * ixi)
    return ((v * np.exp(-1j * w)) @ v.conj().T).real


def block_contract(
    mat: np.ndarray, kind: BlockContractionKind, p: int, q: int
) -> complex:
    """Signed four-entry contraction of a 2N x 2N matrix at modes (p, q).

    With row index built from q and column index from p (0-based modes),
    returns M[q,p] + cq*i*M[N+q,p] + cp*(-i)*M[q,N+p] + cq*cp*M[N+q,N+p],
    where (cp, cq) are the signs named by ``kind`` (column sign first).
    """
    mat = np.asarray(mat)
    n2 = mat.shape[0]
    if mat.ndim != 2 or mat.shape[1] != n2 or n2 % 2 != 0:
        raise DimensionError(f"expected square even-dimensional matrix, got {mat.shape}")
    n = n2 // 2
    if not (0 <= p < n and 0 <= q < n):
        raise DimensionError(f"mode indices ({p}, {q}) out of range for {n} modes")
    cp, cq = _CONTRACTION_SIGNS[kind]
    return complex(
        mat[q, p]
        + cp * (-1j) * mat[q, n + p]
        + cq * 1j * mat[n + q, p]
        + cp * cq * mat[n + q, n + p]
    )


_CONTRACTION_SIGNS = {
    BlockContractionKind.PLUS_MINUS: (1.0, 1.0),
    BlockContractionKind.MINUS_PLUS: (-1.0, -1.0),
    BlockContractionKind.PLUS_PLUS: (1.0, -1.0),
    BlockContractionKind.MINUS_MINUS: (-1.0, 1.0),
}
# Sign tuples are (cp, cq): the column selector is (1_p, cp*(-i)_p) and the
# row selector (1_q, cq*(+i)_q).  A "+" in a slot weights that mode's upper
# component with -i, a "-" weights it with +i; the first superscript char
# belongs to the p (column) slot, the second to the q (row) slot:
#   "+-": column (1, -i), row (1, +i)   -> (cp, cq) = (+1, +1)
#   "-+": column (1, +i), row (1, -i)   -> (-1, -1)
#   "++": column (1, -i), row (1, -i)   -> (+1, -1)
#   "--": column (1, +i), row (1, +i)   -> (-1, +1)


def miller_inverse(
    base_inverse: np.ndarray,
    updates: list[tuple[complex, np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Inverse of A + sum_k beta_k |u_k><v_k| built iteratively from A^-1.

    Each step applies C^-1 <- C^-1 - g C^-1 B C^-1 with B = beta |u><v| and
    g = 1/(1 + beta <v|C^-1|u>).  When a denominator falls below
    ``UPDATE_DENOM_TOL`` (1e-12) in modulus, :class:`SingularUpdateError` is
    raised naming the step.
    """
    inv = np.array(base_inverse, dtype=complex, copy=True)
    for step, (beta, u, v) in enumerate(updates):
        u = np.asarray(u, dtype=complex)
        v = np.asarray(v, dtype=complex)
        iu = inv @ u
        vi = v @ inv
        denom = 1.0 + beta * (v @ iu)
        if abs(denom) < UPDATE_DENOM_TOL:
            raise SingularUpdateError(step, denom)
        inv -= (beta / denom) * np.outer(iu, vi)
    return inv

