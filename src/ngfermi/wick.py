"""Phased pair-contraction engine for Gaussian-state expectation values.

Evaluates ``<Psi| exp(i sum_j alpha(j) n_j) c+_{j1} ... c_{kb} |Psi>`` for a
pure Gaussian state with covariance ``gamma``: the scalar coefficient comes
from a Pfaffian, the pair contractions from the skew matrix ``G^[alpha]``,
and arbitrary even operator strings from the signed sum over perfect
pairings.  For ``alpha = 0`` the machinery reduces to the ordinary Wick
factorization built from ``gamma + Upsilon``.

:func:`contract` builds the coefficient, ``G``, its three block tables and
``L`` in one pass, for one phase vector or for a (K, N) stack of them (one
batched Pfaffian and one batched solve); :func:`expectation_from` evaluates
operator strings from a single-vector bundle.  Every quantity depends on a
phase vector only through e^{i alpha}, so every routine here takes alpha as
given and wraps nothing; callers that want (-pi, pi] wrap once
(:func:`wrap_angles`).  Gamma_F, the denominator ``D``, ``G`` and ``L`` of
the built rows all come from one set of phase factors e^{i alpha}, taken
once per call, through the private helpers that :func:`gamma_F`,
:func:`a_coeff` and :func:`g_matrix` also call.  The block tables are
transposed blocks of ``P^T G P``, with the Dirac transform ``P = [[1, 1],
[i 1, -i 1]]``: its columns are the row and column selectors (1_q, +-i_q) of
the four-entry block contractions (:func:`~ngfermi.linalg.block_contract`).
Since P's entries are 0, +-1 and +-i, each table entry is a signed sum of
four entries of G, taken elementwise from the N x N blocks of G with no
matrix product (:func:`_block_tables`).

A phase vector that is exactly zero gets its closed form without any
linear algebra: coefficient 1, ``G = ((gamma + Upsilon) - (gamma +
Upsilon)^T) / 2`` and ``L = 1`` (:func:`contract` splits a stack into these
rows and the rest; :func:`q_matrix` gives exactly ``Q = 0`` there by its
general formula).  The block tables are built once from the blocks of the
filled G stack.  The nonzero rows pay for the Pfaffian and the inversions,
and each inversion is guarded against a condition number above
``COND_LIMIT``.  The guard needs no SVD for a
well-conditioned matrix: kappa_F = |M|_F |M^-1|_F >= kappa_2 comes
from the inverse already at hand,

* ``L = D^-T`` for the contraction denominator ``D``, since
  ``(Upsilon gamma - 1) D^-1 = Upsilon G``, so ``L`` costs O(n^2) from G;
* ``Gamma_F^-1`` in :func:`q_matrix`, which builds Q for an arbitrary gamma;

and ``np.linalg.cond`` runs only on the matrices whose bound exceeds the
limit, or on the whole stack after a failed inversion, so the verdicts and
the failing stack index are the SVD's.  The identities behind this,
``coeff^2 = det(D)`` and ``L = D^-T``, hold for pure ``gamma``.  For a pure
``gamma`` Q also follows from L (:func:`q_sum_from_l`), with no inversion of
Gamma_F and no guard of its own: ``det Gamma_F = 4^N det D`` for any gamma,
so D's guard rejects every phase vector whose Gamma_F is singular.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, ParityError, SingularContractionError, ValidationError
from .gaussian import _as_gamma, upsilon
from .linalg import miller_inverse

MAX_STRING_LENGTH = 12
FAST_PATH_MIN_PHASE = 1e-12
COND_LIMIT = 1e12
DEGENERATE_COEFF = 1e-13


def wrap_angles(values: np.ndarray) -> np.ndarray:
    """Wrap angles into (-pi, pi]."""
    out = np.mod(np.asarray(values, dtype=float), 2.0 * np.pi)
    return np.where(out > np.pi, out - 2.0 * np.pi, out)


@dataclass(frozen=True)
class OperatorString:
    """Ordered product of ladder operators: (mode, dagger) pairs, even length."""

    factors: tuple[tuple[int, bool], ...]

    def __post_init__(self):
        factors = tuple((int(m), bool(d)) for m, d in self.factors)
        if len(factors) % 2 != 0:
            raise ParityError(f"operator string must have even length, got {len(factors)}")
        if len(factors) > MAX_STRING_LENGTH:
            raise ValidationError(
                f"operator strings longer than {MAX_STRING_LENGTH} are unsupported"
            )
        if any(m < 0 for m, _ in factors):
            raise ValidationError("mode indices must be non-negative")
        object.__setattr__(self, "factors", factors)

    def __len__(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class Pairing:
    """One perfect pairing of string positions with its permutation sign."""

    pairs: tuple[tuple[int, int], ...]
    sign: int


@lru_cache(maxsize=None)
def enumerate_pairings(length: int) -> tuple[Pairing, ...]:
    """All (length-1)!! perfect pairings of positions 0..length-1.

    Each pairing keeps the first element of every pair smaller and orders
    pairs by their first element; the sign is the parity of the permutation
    that restores the original position order.
    """
    if length % 2 != 0:
        raise ParityError(f"cannot pair an odd number of operators ({length})")
    if length > MAX_STRING_LENGTH:
        raise ValidationError(f"pairings beyond length {MAX_STRING_LENGTH} are unsupported")
    if length == 0:
        return (Pairing((), 1),)

    out: list[Pairing] = []

    def build(avail: tuple[int, ...], acc: tuple[tuple[int, int], ...], sign: int):
        if not avail:
            out.append(Pairing(acc, sign))
            return
        first = avail[0]
        for idx in range(1, len(avail)):
            partner = avail[idx]
            crossings = idx - 1
            build(
                avail[1:idx] + avail[idx + 1:],
                acc + ((first, partner),),
                sign * (-1) ** crossings,
            )

    build(tuple(range(length)), (), 1)
    return tuple(out)


def _check_alpha(alpha, n_modes: int) -> np.ndarray:
    """One phase vector (N,) or a stack of them (K, N), as given."""
    a = np.asarray(alpha, dtype=float)
    if a.ndim not in (1, 2) or a.shape[-1] != n_modes:
        raise DimensionError(f"phase vector has shape {a.shape}, expected ({n_modes},)")
    return a


def _as_single_alpha(alpha, n_modes: int) -> np.ndarray:
    a = _check_alpha(alpha, n_modes)
    if a.ndim != 1:
        raise DimensionError(f"expected a single phase vector, got shape {a.shape}")
    return a


def sign_prefactor(n_modes: int) -> int:
    """Mode-parity sign (-1)^ceil(N/2) in the Pfaffian coefficient formula."""
    return (-1) ** ((n_modes + 1) // 2)


def _doubled(values: np.ndarray) -> np.ndarray:
    """Per-mode values repeated for both Majorana halves: (..., N) -> (..., 2N)."""
    return np.concatenate([values, values], axis=-1)


def gamma_F(gamma, alpha) -> np.ndarray:
    """Phase-dressed covariance whose Pfaffian gives the scalar coefficient.

    A stack of K phase vectors gives a (K, 2N, 2N) stack.
    """
    g = _as_gamma(gamma)
    return _gamma_f(g, np.exp(1j * _check_alpha(alpha, g.shape[0] // 2)))


def _gamma_f(g: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Gamma_F from the phase factors e^{i alpha} (N,) or (K, N)."""
    n = g.shape[0] // 2
    sq2 = _doubled(np.sqrt(1.0 - phase))  # values lie in the right half-plane
    modes = np.arange(n)
    second = np.zeros(phase.shape[:-1] + (2 * n, 2 * n), dtype=complex)
    second[..., modes, n + modes] = 1.0 + phase
    second[..., n + modes, modes] = -(1.0 + phase)
    return sq2[..., :, None] * g * sq2[..., None, :] - second


def a_coeff(gamma, alpha):
    """<exp(i sum alpha(j) n_j)> over the Gaussian state: sign * 2^-N * Pf.

    A stack of K phase vectors gives K coefficients from one batched Pfaffian.
    """
    g = _as_gamma(gamma)
    return _coeff(g, np.exp(1j * _check_alpha(alpha, g.shape[0] // 2)))


def _coeff(g: np.ndarray, phase: np.ndarray):
    """The coefficient from the phase factors e^{i alpha} (N,) or (K, N)."""
    from .linalg import pfaffian

    n = g.shape[0] // 2
    # pfaffian's input check returns the exactly skew part of Gamma_F
    return sign_prefactor(n) * (0.5 ** n) * pfaffian(_gamma_f(g, phase))


def _block_tables(gmat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The block tables (``g_dag_plain``, ``g_dag_dag``, ``g_plain_plain``,
    the field order of :class:`Contraction`) of one 2N x 2N matrix or a
    (K, 2N, 2N) stack, from its N x N blocks.

    With a = G11 + i G21, b = G12 + i G22, c = G11 - i G21 and
    d = G12 - i G22 they are (a - i b)^T, (c - i d)^T and (a + i b)^T: the
    transposed blocks of P^T G P, P = [[1, 1], [i 1, -i 1]], whose columns
    are the row and column selectors (1_q, +-i_q) of
    :func:`~ngfermi.linalg.block_contract`.  Every product with 1 or +-i is
    exact, so each entry is rounded as a product with P would round it.
    """
    n = gmat.shape[-1] // 2
    g11, g12, g21, g22 = gmat[..., :n, :n], gmat[..., :n, n:], gmat[..., n:, :n], gmat[..., n:, n:]
    i21, i22 = 1j * g21, 1j * g22
    a, b, c, d = g11 + i21, g12 + i22, g11 - i21, g12 - i22
    ib = 1j * b
    return tuple(np.swapaxes(t, -1, -2) for t in (a - ib, c - 1j * d, a + ib))


def _g_denominator(g: np.ndarray, one_minus: np.ndarray) -> np.ndarray:
    """D = 1 + (1/2) diag(1 - e^{i alpha}) (Upsilon gamma - 1), from the
    doubled factors 1 - e^{i alpha} (2N,) or (K, 2N)."""
    n = g.shape[0] // 2
    return np.eye(2 * n) + 0.5 * one_minus[..., :, None] * (upsilon(n) @ g - np.eye(2 * n))


def _check_condition(mats: np.ndarray, a: np.ndarray, what: str, inverses: np.ndarray | None) -> None:
    """Raise for the first matrix of a stack whose condition number exceeds
    COND_LIMIT; the error carries that matrix's stack index.

    ``inverses`` holds each matrix's inverse or its transpose: the bound
    |M|_F |M^-1|_F >= cond(M) screens out the matrices that pass, and only
    the others go through ``np.linalg.cond`` (an SVD).  Without inverses
    (the inversion failed) every matrix goes through it.
    """
    mats = mats.reshape((-1,) + mats.shape[-2:])
    suspects = np.arange(len(mats))
    if inverses is not None:
        inverses = inverses.reshape(mats.shape)
        bound = np.linalg.norm(mats, axis=(-2, -1)) * np.linalg.norm(inverses, axis=(-2, -1))
        suspects = np.flatnonzero(~(bound <= COND_LIMIT))  # also catches inf and nan
    if not suspects.size:
        return
    cond = np.linalg.cond(mats[suspects])
    bad = np.flatnonzero(~(cond <= COND_LIMIT))
    if bad.size:
        k = suspects[bad[0]]
        raise SingularContractionError(
            f"{what} condition number {cond[bad[0]]:.3e} exceeds {COND_LIMIT:.0e}",
            alpha=np.atleast_2d(a)[k],
            index=int(k),
        )


def g_matrix(gamma, alpha, method: str = "direct") -> np.ndarray:
    """Skew contraction matrix (gamma + Upsilon) / (1 + (1-e^{i a})(Y gamma - 1)/2).

    ``method`` selects the inversion path: "direct" solves the linear system
    and also takes a (K, N) stack of phase vectors, giving a (K, 2N, 2N)
    stack from one batched solve.  The opt-in "rank1" path reproduces the
    paper's assembly of the inverse by iterative rank-1 updates for one
    phase vector; it needs every |1 - e^{i alpha(j)}| > 1e-12 and raises
    :class:`~ngfermi.errors.SingularUpdateError` when an update's
    denominator vanishes.
    """
    g = _as_gamma(gamma)
    n = g.shape[0] // 2
    if method == "direct":
        a = _check_alpha(alpha, n)
        return _g_direct(g, a, np.exp(1j * a))[0]
    return _g_rank1(g, _as_rank1_alpha(alpha, n, method, "g_matrix"))


def _as_rank1_alpha(alpha, n_modes: int, method: str, what: str) -> np.ndarray:
    """The single phase vector of a "rank1" call, after the method and phase checks."""
    if method != "rank1":
        raise ValidationError(f"unknown {what} method {method!r}")
    a = _as_single_alpha(alpha, n_modes)
    if not np.all(np.abs(1.0 - np.exp(1j * a)) > FAST_PATH_MIN_PHASE):
        raise ValidationError(f"rank-1 assembly needs all |1 - e^{{i alpha(j)}}| > {FAST_PATH_MIN_PHASE:.0e}")
    return a


def _g_direct(g: np.ndarray, a: np.ndarray, phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G and L = D^-T, D the denominator, by one (batched) solve, from the
    phase factors ``phase`` = e^{i a}; ``a`` names a failing phase vector."""
    n = g.shape[0] // 2
    one_minus = _doubled(1.0 - phase)
    denom = _g_denominator(g, one_minus)
    # b gets as many axes as a: NumPy 1.x reads a b with one axis fewer as
    # a stack of vectors
    numer_t = np.broadcast_to((g + upsilon(n)).T, denom.shape)
    try:
        out = np.swapaxes(np.linalg.solve(np.swapaxes(denom, -1, -2), numer_t), -1, -2)
    except np.linalg.LinAlgError:
        _check_condition(denom, a, "contraction denominator", None)
        raise
    gmat = 0.5 * (out - np.swapaxes(out, -1, -2))
    lmat = _l_from_g(gmat, one_minus)
    _check_condition(denom, a, "contraction denominator", lmat)
    return gmat, lmat


def _g_rank1(g: np.ndarray, a: np.ndarray) -> np.ndarray:
    n = g.shape[0] // 2
    ups = upsilon(n)
    base_inverse = ups @ (g + ups)
    betas = 0.5 * (1.0 - np.exp(1j * np.concatenate([a, a])))
    eye = np.eye(2 * n)
    updates = [
        (betas[k], eye[:, k], eye[:, k])
        for k in range(2 * n)
        if abs(betas[k]) > 0.0
    ]
    inv = miller_inverse(base_inverse, updates)
    out = -ups @ inv
    return 0.5 * (out - out.T)


def q_matrix(gamma, alpha, method: str = "direct") -> np.ndarray:
    """Scaled inverse of the phase-dressed covariance driving d(coeff)/d(gamma).

    Defined as -(1/2) sqrt(1-e^{ia}) Gamma_F^{-1} sqrt(1-e^{ia}), exactly 0 at
    a zero phase vector.  The "direct" path takes a (K, N) stack of phase
    vectors like :func:`g_matrix`; the opt-in "rank1" path has the same phase
    condition and additionally needs a pure ``gamma`` (it seeds the iteration
    with -gamma as the base inverse).
    """
    g = _as_gamma(gamma)
    n = g.shape[0] // 2
    if method != "direct":
        return _q_rank1(g, _as_rank1_alpha(alpha, n, method, "q_matrix"))
    a = _check_alpha(alpha, n)
    phase = np.exp(1j * a)
    gf = _gamma_f(g, phase)
    try:
        inv = np.linalg.inv(gf)
    except np.linalg.LinAlgError:
        _check_condition(gf, a, "phase-dressed covariance", None)
        raise
    _check_condition(gf, a, "phase-dressed covariance", inv)
    sq2 = _doubled(np.sqrt(1.0 - phase))
    out = -0.5 * (sq2[..., :, None] * inv * sq2[..., None, :])
    return 0.5 * (out - np.swapaxes(out, -1, -2))


def _q_rank1(g: np.ndarray, a: np.ndarray) -> np.ndarray:
    n = g.shape[0] // 2
    phase = np.exp(1j * a)
    coeff = (1.0 + phase) / (1.0 - phase)
    eye = np.eye(2 * n)
    updates = []
    for j in range(n):
        if abs(coeff[j]) > 0.0:
            updates.append((-coeff[j], eye[:, j], eye[:, n + j]))
    for j in range(n):
        if abs(coeff[j]) > 0.0:
            updates.append((coeff[j], eye[:, n + j], eye[:, j]))
    inv = miller_inverse(-g.astype(complex), updates)
    out = -0.5 * inv
    return 0.5 * (out - out.T)


def q_sum_from_l(l_mat: np.ndarray, phase: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k w_k Q_k over a (K, 2N, 2N) stack of L and the (K, N) phase
    factors e^{i alpha}, with no inversion.

    For a pure gamma, Upsilon D = -(1/2) S Gamma_F S^-1 with
    S = diag(sqrt(1 - e^{i alpha})) over both halves, so with L = D^-T

        Q = skew(-(1/4) L^T Upsilon diag(1 - e^{i alpha})),  skew(X) = (X - X^T)/2.

    The weighted sum is -(1/8) (Y - Y^T) with Y^T = sum_k diag(w_k (1 -
    e^{i alpha_k})) Upsilon^T L_k, and Upsilon^T L is L with its row halves
    swapped and the new upper half negated.  Gamma_F needs no guard of its
    own: det Gamma_F = 4^N det D, so D's guard in :func:`contract` rejects
    every phase vector whose Gamma_F is singular.
    """
    n = l_mat.shape[-1] // 2
    z = np.asarray(weights)[:, None] * (1.0 - np.asarray(phase))
    y_t = np.concatenate([-np.einsum("kj,kji->ji", z, l_mat[:, n:]), np.einsum("kj,kji->ji", z, l_mat[:, :n])])
    return -0.125 * (y_t.T - y_t)


def _l_from_g(g_mat: np.ndarray, one_minus: np.ndarray) -> np.ndarray:
    """L from G and the doubled factors 1 - e^{i alpha} (2N,) or (K, 2N)."""
    n = g_mat.shape[-1] // 2
    x = g_mat * one_minus[..., None, :]
    # x Upsilon, with Upsilon = [[0, 1], [-1, 0]]: the column halves swapped
    return np.eye(2 * n) - 0.5 * np.concatenate([-x[..., n:], x[..., :n]], axis=-1)


def derivative_columns(l_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns L^T (1_q, +i_q) and L^T (1_p, -i_p) of one L or a stack.

    The first feeds the "-" row slots of derivatives, the second the "+"
    column slots.
    """
    n = l_mat.shape[-1] // 2
    upper, lower = l_mat[..., :n, :], l_mat[..., n:, :]
    return np.swapaxes(upper + 1j * lower, -1, -2), np.swapaxes(upper - 1j * lower, -1, -2)


@dataclass(frozen=True, eq=False)
class Contraction:
    """The Pfaffian coefficient, the contraction matrix G, its three block
    tables and the derivative factor L = D^-T (D the contraction denominator)
    of the phase vector ``alpha`` (N,), as given, or of a (K, N) stack with a
    leading K axis on every field.  Built by :func:`contract`.
    """

    alpha: np.ndarray
    coeff: complex | np.ndarray
    g: np.ndarray
    l: np.ndarray
    g_dag_plain: np.ndarray
    g_dag_dag: np.ndarray
    g_plain_plain: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.alpha.shape[-1]

    def pair_normalized(self, first: tuple[int, bool], second: tuple[int, bool]) -> complex:
        """Two-point function of ordered factors, divided by the coefficient."""
        (m1, d1), (m2, d2) = first, second
        if d2 and not d1:
            # plain before dagger: anticommute, c_p c+_q = delta_pq - c+_q c_p
            return (1.0 if m1 == m2 else 0.0) - self.pair_normalized(second, first)
        if not d1:
            return 0.25j * self.g_plain_plain[m1, m2]
        phase = np.exp(1j * self.alpha[m1])
        if d2:
            return 0.25j * phase * np.exp(1j * self.alpha[m2]) * self.g_dag_dag[m1, m2]
        return 0.25j * phase * self.g_dag_plain[m1, m2]


def contract(gamma, alpha) -> Contraction:
    """The contraction bundle of one phase vector or a (K, N) stack, in one
    pass: one (batched) Pfaffian, one (batched) direct solve for G and L,
    and three block tables, transposed blocks of G~ = P^T G P (the Dirac
    transform P): ``g_dag_plain`` = G~[:N, N:]^T, ``g_dag_dag`` =
    G~[N:, N:]^T and ``g_plain_plain`` = G~[:N, :N]^T, read elementwise
    from the N x N blocks of G (:func:`_block_tables`).  Phase vectors that
    are exactly zero take the closed form (coefficient 1, G = skew part of
    gamma + Upsilon, L = 1) and no part of the Pfaffian or the solve.

    The block tables are built once, from the filled G stack.  Gamma_F, D,
    G and L of the nonzero rows come from one set of phase factors
    e^{i alpha}.  A :class:`SingularContractionError` names the failing row
    of the stack.
    """
    g = _as_gamma(gamma)
    n = g.shape[0] // 2
    a = _check_alpha(alpha, n)
    stack = np.atleast_2d(a)
    g0 = g + upsilon(n)
    coeff = np.ones(len(stack), dtype=complex)
    gmat = np.full((len(stack), 2 * n, 2 * n), 0.5 * (g0 - g0.T), dtype=complex)
    lmat = np.full(gmat.shape, np.eye(2 * n), dtype=complex)
    rows = np.flatnonzero(stack.any(axis=1))
    if rows.size:
        phase = np.exp(1j * stack[rows])
        try:
            gmat[rows], lmat[rows] = _g_direct(g, stack[rows], phase)
            coeff[rows] = _coeff(g, phase)
        except SingularContractionError as exc:
            exc.index = int(rows[exc.index])
            raise
    if a.ndim == 1:
        coeff, gmat, lmat = coeff[0], gmat[0], lmat[0]
    return Contraction(a, coeff, gmat, lmat, *_block_tables(gmat))


def _factors(string: OperatorString | tuple) -> tuple[tuple[int, bool], ...]:
    return string.factors if isinstance(string, OperatorString) else OperatorString(tuple(string)).factors


def expectation_from(contraction: Contraction, string: OperatorString | tuple) -> complex:
    """Phased expectation of an even operator string from a prebuilt
    single-vector bundle."""
    if contraction.alpha.ndim != 1:
        raise DimensionError(f"expected a single-vector bundle, got phase vectors {contraction.alpha.shape}")
    factors = _factors(string)
    if any(m >= contraction.n_modes for m, _ in factors):
        raise DimensionError("operator string addresses modes outside the state")
    coeff = contraction.coeff
    if len(factors) > 2 and abs(coeff) < DEGENERATE_COEFF:
        raise SingularContractionError(
            f"scalar coefficient {abs(coeff):.2e} too small to factor a "
            f"{len(factors)}-operator string",
            alpha=contraction.alpha,
        )
    total = 0.0 + 0.0j
    for pairing in enumerate_pairings(len(factors)):
        prod = 1.0 + 0.0j
        for i, j in pairing.pairs:
            prod *= contraction.pair_normalized(factors[i], factors[j])
            if prod == 0.0:
                break
        total += pairing.sign * prod
    return coeff * total


def expectation(gamma, alpha, string: OperatorString | tuple) -> complex:
    """Phased expectation of an even operator string over the Gaussian state.

    The empty string is the coefficient alone, which exists even where the
    contraction matrix does not.
    """
    if not _factors(string):
        g = _as_gamma(gamma)
        return a_coeff(g, _as_single_alpha(alpha, g.shape[0] // 2))
    return expectation_from(contract(gamma, alpha), string)
