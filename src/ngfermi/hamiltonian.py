"""Many-body Hamiltonians: representation, rotation, energy and derivatives.

The Hamiltonian is H = sum f_pq c+_p c_q + (1/2) sum h_pqrs c+_p c+_q c_r c_s
with Hermitian ``f`` and a real two-body tensor ``h`` carrying the
antisymmetrized index symmetries.  Conjugating H with the flux-attachment
unitary exp((i/2) sum omega_jk :n_j n_k:) turns every term into a phased
operator string over the Gaussian state, which the wick module evaluates.
A term and its Hermitian adjoint are one term: for every real gamma and
omega the adjoint's energy is the conjugate of its term's, so the kept term
carries the sum of the pair's coefficients for the real energy and their
difference for the imaginary residue, which is nonzero only for an H
Hermitian to SYMMETRY_TOL rather than exactly.
At omega = 0 every string is plain Wick, and the energy is the generalized
Hartree-Fock-Bogoliubov functional: one real quadratic form in the upper
entries of gamma + Upsilon, built once per Hamiltonian, so a state costs one
matrix-vector product and no contraction bundle (:class:`StateEvaluator`).

All mode indices are 0-based in code; the text file format is 1-based.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import wick
from .errors import (
    DimensionError,
    FormatError,
    NumericsError,
    SingularContractionError,
    ValidationError,
)
from .gaussian import CovarianceMatrix, _as_gamma, upsilon
from .wick import contract, wrap_angles

SYMMETRY_TOL = 1e-10
IMAG_TOL = 1e-9


@dataclass(frozen=True)
class NonGaussianParams:
    """Flux-attachment couplings: real symmetric with zero diagonal."""

    omega: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.omega, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DimensionError(f"omega must be square, got {w.shape}")
        # one reduction screens finiteness too: a non-finite entry makes its
        # difference with the transposed entry NaN or inf (see linalg.check_skew)
        with np.errstate(invalid="ignore", over="ignore"):
            dev = float(np.max(np.abs(w - w.T), initial=0.0))
        if not dev <= SYMMETRY_TOL:
            if not np.all(np.isfinite(w)):
                raise ValidationError("omega has non-finite entries")
            raise ValidationError("omega must be symmetric")
        if np.max(np.abs(np.diag(w)), initial=0.0) > SYMMETRY_TOL:
            raise ValidationError("omega must have zero diagonal")
        w = 0.5 * w
        w = w + w.T  # halved first: no overflow for entries near the float maximum
        np.fill_diagonal(w, 0.0)
        w = np.ascontiguousarray(w)
        w.flags.writeable = False
        object.__setattr__(self, "omega", w)

    @property
    def n_modes(self) -> int:
        return self.omega.shape[0]


def _as_omega(omega, n_modes: int | None = None) -> np.ndarray:
    w = omega.omega if isinstance(omega, NonGaussianParams) else NonGaussianParams(np.asarray(omega)).omega
    if n_modes is not None and w.shape[0] != n_modes:
        raise DimensionError(f"omega has {w.shape[0]} modes, expected {n_modes}")
    return w


def check_two_body_symmetries(h: np.ndarray, tol: float = SYMMETRY_TOL) -> None:
    """Validate h_pqrs = -h_qprs = -h_pqsr = h_qpsr and h_pqrs = h_srqp."""
    checks = [
        (h + np.transpose(h, (1, 0, 2, 3)), "h_pqrs = -h_qprs"),
        (h + np.transpose(h, (0, 1, 3, 2)), "h_pqrs = -h_pqsr"),
        (h - np.transpose(h, (3, 2, 1, 0)), "h_pqrs = h_srqp"),
    ]
    for dev, label in checks:
        worst = float(np.max(np.abs(dev), initial=0.0))
        if worst > tol:
            p, q, r, s = np.unravel_index(int(np.argmax(np.abs(dev))), dev.shape)
            raise ValidationError(
                f"two-body symmetry {label} violated by {worst:.3e} at "
                f"(p,q,r,s)=({p},{q},{r},{s}) [0-based]"
            )


@dataclass(frozen=True)
class ManyBodyHamiltonian:
    """One-body matrix f (Hermitian) and antisymmetrized real two-body tensor h."""

    n_modes: int
    f: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        n = int(self.n_modes)
        if n <= 0:
            raise DimensionError("need at least one mode")
        f = np.asarray(self.f, dtype=complex)
        h = np.asarray(self.h, dtype=float)
        if f.shape != (n, n):
            raise DimensionError(f"f must be {n}x{n}, got {f.shape}")
        if h.shape != (n, n, n, n):
            raise DimensionError(f"h must be {n}^4, got {h.shape}")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(h))):
            raise ValidationError("Hamiltonian coefficients must be finite")
        if np.max(np.abs(f - f.conj().T), initial=0.0) > SYMMETRY_TOL:
            raise ValidationError("one-body matrix must be Hermitian")
        check_two_body_symmetries(h)
        f = f.copy()  # never freeze caller-owned memory
        h = h.copy()
        f.flags.writeable = False
        h.flags.writeable = False
        object.__setattr__(self, "n_modes", n)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "h", h)

    def two_body_entries(self) -> np.ndarray:
        """Indices (p,q,r,s) of nonzero two-body entries, shape (k, 4)."""
        return np.argwhere(self.h != 0.0)

    @cached_property
    def _folded_h(self) -> np.ndarray:
        """h_pqrs - h_qprs - h_pqsr + h_qpsr, read-only: the signed sum of the
        four antisymmetric images of an entry as given, with no symmetrization.
        The images are one operator, so one canonical term (p<q, r<s) carries
        this coefficient for all four."""
        h = self.h
        folded = h - h.transpose(1, 0, 2, 3) - h.transpose(0, 1, 3, 2) + h.transpose(1, 0, 3, 2)
        folded.flags.writeable = False
        return folded

    @cached_property
    def _adjoint_folds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each term and its Hermitian adjoint as one term, on the upper
        triangle of two term matrices: f over the one-body terms (p, q), and
        the folded coefficients (:attr:`_folded_h`) over the canonical pairs
        (p<q) x (r<s), in row-major pair order, whose transposed entry
        (r,s,p,q) is the adjoint.  Returns A + A^+ and A - A^+ of each
        (:func:`_adjoint_fold`): f_pq + conj(f_qp), f_pq - conj(f_qp),
        H_pqrs + H_rspq and H_pqrs - H_rspq."""
        p, q = np.triu_indices(self.n_modes, 1)
        return _adjoint_fold(self.f) + _adjoint_fold(self._folded_h[p[:, None], q[:, None], p, q])

    @cached_property
    def _kept(self) -> tuple[np.ndarray, np.ndarray]:
        """Which entries of the two term matrices (:attr:`_adjoint_folds`)
        are terms: those with a nonzero sum or difference."""
        f_plus, f_minus, h_plus, h_minus = self._adjoint_folds
        return (f_plus != 0.0) | (f_minus != 0.0), (h_plus != 0.0) | (h_minus != 0.0)

    @cached_property
    def _term_indices(self) -> tuple[np.ndarray, np.ndarray, list[tuple[int, ...]]]:
        """One-body (k1, 2) and two-body (k2, 4) index arrays of the terms
        (:attr:`_kept`), and every term's indices as a tuple, one-body terms
        first, each in row-major order: a one-body term is (p <= q), a
        two-body term canonical (p<q, r<s) with (p,q) <= (r,s)."""
        f_keep, h_keep = self._kept
        p, q = np.triu_indices(self.n_modes, 1)
        f_idx = np.argwhere(f_keep)
        pq, rs = np.nonzero(h_keep)
        h_idx = np.stack([p[pq], q[pq], p[rs], q[rs]], axis=1)
        return f_idx, h_idx, [tuple(idx) for idx in f_idx.tolist() + h_idx.tolist()]

    @cached_property
    def _charge_rows(self) -> np.ndarray:
        """Each term's charge v_t as a read-only float row (T, N), in the
        order of :attr:`_term_indices`: +1 on the annihilated and -1 on the
        created modes, so alpha_t = omega v_t.  A nonzero charge's first
        nonzero entry is -1, so no charge is the negative of another."""
        f_idx, h_idx, _ = self._term_indices
        eye = np.eye(self.n_modes)
        (p1, q1), (p, q, r, s) = f_idx.T, h_idx.T
        v = np.concatenate([eye[q1] - eye[p1], eye[r] + eye[s] - eye[p] - eye[q]])
        v.flags.writeable = False
        return v

    @cached_property
    def _keys(self) -> tuple:
        """The key structure every phase layout shares, at every omega: one
        key per charge, numbered in order of first appearance, as the keys'
        first terms (ascending), each term's key, the phased keys (the
        nonzero charges) and the keys' charge rows V_keys, so the keys'
        vectors are V_keys omega (:class:`PhaseLayout`)."""
        v = self._charge_rows.astype(np.int8)
        rows = np.dtype((np.void, self.n_modes))  # one key per row, grouped by bytes
        _, first, label = np.unique(v.view(rows).ravel(), return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        first, label = first[order], rank[label]
        v_keys = self._charge_rows[first]
        return _read_only(first, label, np.flatnonzero(v_keys.any(axis=1)), v_keys)

    @cached_property
    def _term_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """The terms' omega-free weights, in the order of :attr:`_term_indices`:
        (i/4) F_pq per one-body term and -H_pqrs / 32 per two-body term, with
        F and H the adjoint sums of :attr:`_adjoint_folds`.  A term's energy
        at this weight has the real part of the pair's: a Hermitian
        adjoint's energy is the conjugate of its term's, for every real
        gamma and omega."""
        return self._weights(*self._adjoint_folds[::2])

    @cached_property
    def _residue_weights(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The same terms' weights from the adjoint differences
        f_pq - conj(f_qp) and H_pqrs - H_rspq: the imaginary part of their
        energy is the pair's.  None when every difference is zero, as for an
        exactly Hermitian H, whose residues are zero."""
        f_minus, h_minus = self._adjoint_folds[1::2]
        return self._weights(f_minus, h_minus) if f_minus.any() or h_minus.any() else None

    def _weights(self, f_fold: np.ndarray, h_fold: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(i/4) f_fold and -h_fold / 32 at the terms (:attr:`_kept`), read-only."""
        f_keep, h_keep = self._kept
        return _read_only(0.25j * f_fold[f_keep], -(1.0 / 32.0) * h_fold[h_keep])

    @cached_property
    def _gaussian_form(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The plain-Wick energy at omega = 0 (the generalized
        Hartree-Fock-Bogoliubov functional) as one real form in u, the
        strictly upper entries of G = gamma + Upsilon: E1 = l.u and
        E2 = u.Q u / 2, from the layouts' terms and weights.  u keeps only
        the M entries some coefficient reads: all N(2N-1) for a dense h, 46
        of 190 for the Hubbard chain at L=5.  Read-only: the flat positions
        of u in a 2N x 2N array, Upsilon's entries there, l (1, M) and
        Q (M, M).

        Where H has residue weights (:attr:`_residue_weights`, H Hermitian
        only to SYMMETRY_TOL), the imaginary parts of the same terms' energy
        at those weights are stacked under l and Q, to (2, M) and (2M, M),
        for the residue checks.  The products are binned over the R entries
        the terms reference (:func:`_plain_wick_products`), so Q is built
        R x R, never over all N(2N-1) entries.
        """
        n = self.n_modes
        f_idx, h_idx, _ = self._term_indices
        k, c = _plain_wick_products(n, f_idx, h_idx)
        ref, k = np.unique(k, return_inverse=True)
        k, m, t1, t2 = k.reshape(c.shape), len(ref), len(f_idx), len(h_idx)
        # (k, l) and (l, k) receive the same values in the same order: Q is exactly symmetric
        k_a, k_b = k[:, None, t1 : t1 + 3 * t2], k[None, :, t1 + 3 * t2 :]
        lo, hi = np.minimum(k_a, k_b).ravel(), np.maximum(k_a, k_b).ravel()
        pairs = np.concatenate([lo * m + hi, hi * m + lo])
        c_quad = c[:, None, t1 : t1 + 3 * t2] * c[None, :, t1 + 3 * t2 :]
        rows = [self._term_weights + (np.real,)]
        if self._residue_weights is not None:
            rows.append(self._residue_weights + (np.imag,))
        lin, quad = [], []
        for w1, w2, part in rows:
            lin.append(np.bincount(k[:, :t1].ravel(), part(w1 * c[:, :t1]).ravel(), minlength=m))
            coef = part(c_quad * np.concatenate([w2, -w2, w2])).ravel()
            quad.append(np.bincount(pairs, np.concatenate([coef, coef]), minlength=m * m).reshape(m, m))
        lin, quad = np.array(lin), np.array(quad)
        # the entries no coefficient reads leave the energy and dE/du at zero
        read = np.flatnonzero(lin.any(axis=0) | quad.any(axis=(0, 1)))
        flat = _upper_entries(n)[0][ref[read]]
        quad = quad[:, read][:, :, read].reshape(len(lin) * len(read), len(read))
        return _read_only(flat, upsilon(n).take(flat), lin[:, read], quad)


def _adjoint_fold(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A + A^+ and A - A^+ of a square term matrix whose entry (j, i) is the
    adjoint of term (i, j), on the upper triangle: an entry above the
    diagonal carries its term and the adjoint, and a diagonal entry, a
    self-adjoint term, counts once (halved)."""
    once = np.triu(1.0 - 0.5 * np.eye(len(a)))
    adj = a.conj().T
    return (a + adj) * once, (a - adj) * once


@lru_cache(maxsize=None)
def _upper_entries(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The strictly upper entries u of a 2N x 2N skew G, built once per mode
    count and read-only: their flat positions (M,), each entry's position
    in u (2N, 2N) and the signs with G_ij = u_k and G_ji = -u_k."""
    upper = np.arange(2 * n)[:, None] < np.arange(2 * n)
    flat = np.flatnonzero(upper)
    pos = np.zeros(upper.size, dtype=np.intp)
    pos[flat] = np.arange(len(flat))
    pos = pos.reshape(upper.shape)
    return _read_only(flat, pos + pos.T, upper.astype(int) - upper.T)


def _plain_wick_products(n: int, f_idx, h_idx) -> tuple[np.ndarray, np.ndarray]:
    """The plain-Wick energy of unit-weight terms in u, the strictly upper
    entries of G (2N x 2N, skew), as the table entries the terms read: each
    is sum_s c[s, j] u[k[s, j]] over four entries, with k (4, t1 + 6 t2) the
    positions in u and c the complex coefficients.

    The columns are the one-body gpm[p, q], then the left factors
    gpm[p, s], gpm[p, r], gpp[p, q] of the three two-body products and
    their right factors gpm[q, r], gpm[q, s], gmm[r, s].  So a one-body term
    (p, q) adds w gpm[p, q], a two-body term (p, q, r, s)
    w (gpm[p, s] gpm[q, r] - gpm[p, r] gpm[q, s] + gpp[p, q] gmm[r, s]),
    48 products c u_k u_l.  Each table entry is four entries of G, as in the
    block formula of :func:`~ngfermi.wick._block_tables` (the transposed
    blocks of P^T G P): T[a, b] = sum_st (i x)^s (i y)^t G[b + sN, a + tN]
    with (x, y) = (1, -1) for gpm, (-1, -1) for gpp and (1, 1) for gmm.
    """
    _, pos, sign = _upper_entries(n)
    (p1, q1), (p, q, r, s) = f_idx.T, h_idx.T
    t1, t2 = len(p1), len(p)
    a = np.concatenate([p1, p, p, p, q, q, r])
    b = np.concatenate([q1, s, r, q, r, s, s])
    x = np.repeat([1, 1, 1, -1, 1, 1, 1], [t1] + [t2] * 6)
    y = np.repeat([-1, -1, -1, -1, -1, -1, 1], [t1] + [t2] * 6)
    s_, t_ = np.array([[0], [0], [1], [1]]), np.array([[0], [1], [0], [1]])
    i, j = b + n * s_, a + n * t_
    return pos[i, j], sign[i, j] * 1j ** (s_ + t_) * x**s_ * y**t_


def _read_only(*arrays: np.ndarray) -> tuple:
    """The arrays, made read-only: every layout of a Hamiltonian shares them."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


class PhaseLayout:
    """The omega-only half of a state's evaluation, for one (omega, Hamiltonian).

    Every term of the flux-rotated Hamiltonian is a phased operator string
    with phase vector alpha_t = omega v_t, where v_t is the term's integer
    charge (:attr:`ManyBodyHamiltonian._charge_rows`).  H has one term per
    adjoint pair (:attr:`ManyBodyHamiltonian._term_indices`), so no charge
    is the negative of another.  The layout keys the terms by their charge,
    one key per charge, numbered in order of first appearance, at every
    omega.  The key structure (the keys' first terms, each term's key, the
    phased keys and the keys' charge rows) is the Hamiltonian's, computed
    once (:attr:`ManyBodyHamiltonian._keys`), and so are the terms' mode
    index arrays and their omega-free weights.

    A layout computes only what moves with omega: the K keys' vectors
    V_keys omega, wrapped into (-pi, pi] once here
    (:func:`~ngfermi.wick.contract` takes them as they are), their phase
    factors :attr:`phase` = e^{i alpha}, taken once here for the gradient
    and the Q sum, and the terms' weights: (i/4) F_pq for a one-body term
    and -H_pqrs e^{i(omega_rs - omega_pq)} / 32 for a two-body term (F and
    H the adjoint sums, :attr:`ManyBodyHamiltonian._term_weights`), and
    likewise :attr:`residue`, the weights of the adjoint differences, or
    None where H has none.  At omega = 0 every vector is zero and
    :attr:`phased` is empty, the one place where omega = 0 is decided.  At
    an omega with exact 0 or +-pi entries a nonzero charge can still have
    an exactly zero vector; its key is phased, and
    :func:`~ngfermi.wick.contract` gives it the closed form.  None of this
    depends on gamma, so the states of a run share one layout for as long
    as omega stays the same object.
    """

    def __init__(self, omega, hamil: ManyBodyHamiltonian):
        self.omega = omega
        self.hamil = hamil
        w = _as_omega(omega, hamil.n_modes)
        f_idx, h_idx, self.terms = hamil._term_indices
        # the modes of the one-body terms (p1, q1) and of the two-body terms (p, q, r, s)
        self.modes = _, (p, q, r, s) = f_idx.T, h_idx.T
        self.first_term, self.term_key, phased, v_keys = hamil._keys
        self.phased = phased if w.any() else phased[:0]
        self.k1, self.k2 = self.term_key[: len(f_idx)], self.term_key[len(f_idx):]
        self.alphas = wrap_angles(v_keys @ w)
        self.phase = np.exp(1j * self.alphas)
        # the rotated coefficient f_pq e^{-i omega_pq} times the pair phase
        # e^{i alpha(p)} = e^{i omega_pq} is f_pq, so the one-body weights carry no phase
        self.w1, h2 = hamil._term_weights
        phase2 = np.exp(1j * (w[r, s] - w[p, q]))
        self.w2 = h2 * phase2
        residue = hamil._residue_weights
        self.residue = None if residue is None else (residue[0], residue[1] * phase2)

    def term_error(self, exc: SingularContractionError) -> SingularContractionError:
        """The error of a batched routine, naming the failing phase vector's first term."""
        term = self.terms[self.first_term[exc.index]]
        label = "one-body term (p,q)" if len(term) == 2 else "two-body term (p,q,r,s)"
        return SingularContractionError(
            f"{label}=({','.join(map(str, term))}): {exc}", alpha=exc.alpha, index=exc.index
        )


class StateEvaluator:
    """Energy, mean-field matrix and coupling gradient of one (gamma, omega) state.

    The omega-only work (term phase vectors, their grouping into K keys,
    the weights) is the state's :class:`PhaseLayout`: ``layout`` is reused
    when it was built for this same omega object and Hamiltonian, and built
    afresh otherwise.  Per gamma, the evaluator builds the bundles of all K
    distinct phase vectors with one :func:`~ngfermi.wick.contract` call,
    kept as the stacked :attr:`contraction`: the coefficients from one
    batched Pfaffian and the contraction matrices from one batched direct
    solve, except for the zero phase vectors, whose bundle has a closed
    form.  Every term's energy E_t = w_t x_t (weight times contraction) is
    then one gather over the (K, N, N) block stacks.  :meth:`energy` sums
    the E_t, :meth:`gradient` differentiates them, and :meth:`mean_field_h`
    adds their derivatives with one sum over the Q stack and one product of
    L columns; no method loops over terms in Python.  Each term stands for
    an adjoint pair, whose energy is E_t + conj E_t' with E_t' the adjoint
    term's: its real part is Re E_t at the adjoint-sum weights, and its
    imaginary part, the residue, is Im E_t at the adjoint-difference
    weights (:attr:`PhaseLayout.residue`), gathered only where H has them.

    A layout with no phased key (every omega = 0 state) calls no
    :func:`~ngfermi.wick.contract`, and :attr:`contraction` is None: every
    key sits at alpha = 0 with coefficient 1, so the energy is the
    Hamiltonian's fixed Hartree-Fock-Bogoliubov form
    (:attr:`ManyBodyHamiltonian._gaussian_form`), E1 = l.u and
    E2 = u.Q u / 2 in the upper entries u of G = gamma + Upsilon.  The
    evaluator gathers u and takes one product r = Q u + l, which is dE/du:
    :meth:`energy` reads E1 and E2 = u.(r - l) / 2 from it and
    :meth:`mean_field_h` scatters 2r.  A form with imaginary rows (the
    residue weights of a Hamiltonian Hermitian only to SYMMETRY_TOL) stacks
    them into the same product.  :meth:`gradient` alone reads the block
    tables: its first call builds them once from the N x N blocks of
    gamma + Upsilon (:func:`~ngfermi.wick._block_tables`, exactly
    :func:`contract`'s tables at alpha = 0), and every key reads them
    through the same gathers as a phased layout; a Gaussian-baseline run
    never makes that call.
    """

    def __init__(self, gamma, omega, hamil: ManyBodyHamiltonian, layout: PhaseLayout | None = None):
        self.gamma = gamma if isinstance(gamma, CovarianceMatrix) else CovarianceMatrix(gamma)
        self.omega = omega
        self.hamil = hamil
        n = hamil.n_modes
        if self.gamma.n_modes != n:
            raise DimensionError(f"gamma has {self.gamma.n_modes} modes, expected {n}")
        if layout is None or not (layout.omega is omega and layout.hamil is hamil):
            layout = PhaseLayout(omega, hamil)
        self.layout = lay = layout
        self.contraction = self._terms = self._residue = self._h_m = None
        if lay.phased.size:
            try:
                self.contraction = c = contract(self.gamma, lay.alphas)
            except SingularContractionError as exc:
                raise lay.term_error(exc) from exc
            self._coeff, self._tables = c.coeff, (c.g_dag_plain, c.g_dag_dag, c.g_plain_plain)
            self._terms = self._gather_terms(lay.w1, lay.w2)
            if lay.residue is not None:
                self._residue = self._gather_terms(*lay.residue)
            return
        # gamma and Upsilon are exactly skew, so u holds all of G = gamma + Upsilon
        flat, ups, lin, quad = hamil._gaussian_form
        self._u = u = self.gamma.gamma.take(flat) + ups
        self._r = (quad @ u).reshape(lin.shape) + lin  # dE/du, and its imaginary row if l has one

    def _gather_terms(self, w1: np.ndarray, w2: np.ndarray) -> tuple:
        """Every term's weight (one-body w1, two-body w2) times its key's
        coefficient and its energy E_t = w_t x_t, one-body (w1, e1) and
        two-body (w2, e2), and the six block entries of each two-body
        contraction x_t (``pairs``), gathered from the (K, N, N) block stacks."""
        lay = self.layout
        a, (gpm, gpp, gmm) = self._coeff, self._tables
        (p1, q1), (p, q, r, s) = lay.modes
        k1, k2 = lay.k1, lay.k2
        w1 = w1 * a[k1]
        w2 = w2 * a[k2]
        pairs = ps, qr, pr, qs, pq, rs = (
            gpm[k2, p, s], gpm[k2, q, r], gpm[k2, p, r], gpm[k2, q, s], gpp[k2, p, q], gmm[k2, r, s]
        )
        return w1, w1 * gpm[k1, p1, q1], w2, pairs, w2 * (ps * qr - pr * qs + pq * rs)

    def energy(self) -> tuple[float, float, float]:
        """One-body, two-body and total energy; see :func:`energy`."""
        if self.contraction is None:
            lin, u = self.hamil._gaussian_form[2], self._u
            e1, e2 = complex(*(lin @ u)), complex(*((0.5 * (self._r - lin)) @ u))
        else:
            # the real parts of the adjoint sums' terms, the imaginary parts of the differences'
            res = self._residue
            e1, e2 = (
                complex(np.sum(self._terms[i]).real, 0.0 if res is None else np.sum(res[i]).imag) for i in (1, 4)
            )
        for label, val in (("one-body", e1), ("two-body", e2)):
            if abs(val.imag) > IMAG_TOL * max(1.0, abs(val.real)):
                raise NumericsError(
                    f"{label} energy has imaginary residue {val.imag:.3e}"
                )
        return float(e1.real), float(e2.real), float(e1.real + e2.real)

    def mean_field_h(self) -> np.ndarray:
        """Mean-field matrix of the rotated Hamiltonian, built once and kept
        read-only (later calls return the same array); see :func:`mean_field_h`.

        Each term adds a multiple of its bundle's Q_k and rank-2 skew pieces
        u v^T - v u^T with u, v columns of the bundle's L^T: one piece per
        one-body term, and six per two-body term, one per block entry of its
        contraction (:meth:`_phased_mean_field`).  So the matrix is
        sum_k w_k Q_k + R - R^T, with w_k the summed Q multiples of phase
        vector k and R = (U diag(c))^T V over all pieces' columns and weights c.
        The Q sum is read from the bundles' L (:func:`~ngfermi.wick.q_sum_from_l`),
        with no second inversion; Q is zero on the zero phase vector, so only
        the other keys enter it.  The residue is the imaginary part of the
        same sum at the adjoint-difference weights, formed only where H has
        them.

        With no phased key the energy is the form in u, the upper entries of
        G = gamma + Upsilon, and the matrix is 2 dE/du = 2r on the upper
        triangle, minus its transpose; the imaginary row of r, if the form
        has one, gives the residue.
        """
        if self._h_m is not None:
            return self._h_m
        if self.contraction is None:
            n2, r2 = 2 * self.hamil.n_modes, 2.0 * self._r
            upper = np.zeros(n2 * n2)
            upper[self.hamil._gaussian_form[0]] = r2[0]
            upper = upper.reshape(n2, n2)
            real, imag = upper - upper.T, r2[1:]  # the imaginary parts of the upper entries
        else:
            real = self._phased_mean_field(self._terms).real
            imag = () if self._residue is None else self._phased_mean_field(self._residue).imag
        scale = max(1.0, float(np.max(np.abs(real))))
        imag_dev = float(np.max(np.abs(imag), initial=0.0))
        if imag_dev > IMAG_TOL * scale:
            raise NumericsError(f"mean-field matrix has imaginary residue {imag_dev:.3e}")
        self._h_m = h_m = 0.5 * (real - real.T)
        h_m.flags.writeable = False
        return h_m

    def _phased_mean_field(self, terms: tuple) -> np.ndarray:
        """sum_k w_k Q_k + R - R^T from the bundles (:meth:`mean_field_h`),
        complex, for the gathered ``terms`` (:meth:`_gather_terms`).

        A term's Q multiple is 4 E_t.  A one-body term (p, q) gives the piece
        2w at (q, p) of the L^T(1, +i) and L^T(1, -i) columns.  A two-body
        term differentiates each of the six block entries of
        ps qr - pr qs + pq rs, for any h the constructor accepts: 2w times
        qr, -pr, -qs and ps at (s, p), (s, q), (r, p) and (r, q) of those
        columns, rs at (q, p) of two L^T(1, -i) columns and pq at (s, r) of
        two L^T(1, +i) columns.
        """
        lay = self.layout
        l_mat = self.contraction.l
        lt_plus, lt_minus = wick.derivative_columns(l_mat)
        k1, k2 = lay.k1, lay.k2
        w1, e1, w2, (ps, qr, pr, qs, pq, rs), e2 = terms
        c2 = 2.0 * w2
        (p1, q1), (p, q, r, s) = lay.modes

        # a gather [k, :, m] of a (K, 2N, N) stack is one column per piece: (M, 2N).
        # Pieces in the order pq, the one-body ones, qr, -pr, -qs, ps, rs: u is
        # a "+" column but for rs, v a "-" column but for pq
        u = np.concatenate([
            lt_plus[np.concatenate([k2, k1, k2, k2, k2, k2]), :, np.concatenate([s, q1, s, s, r, r])],
            lt_minus[k2, :, q],
        ])
        v = np.concatenate([
            lt_plus[k2, :, r],
            lt_minus[np.concatenate([k1, k2, k2, k2, k2, k2]), :, np.concatenate([p1, p, q, p, q, p])],
        ])
        c = np.concatenate([c2 * pq, 2.0 * w1, c2 * qr, -c2 * pr, -c2 * qs, c2 * ps, c2 * rs])
        rmat = (u * c[:, None]).T @ v
        w_q = np.zeros(len(lay.alphas), dtype=complex)
        np.add.at(w_q, lay.term_key, 4.0 * np.concatenate([e1, e2]))
        ph = lay.phased
        return rmat - rmat.T + wick.q_sum_from_l(l_mat[ph], lay.phase[ph], w_q[ph])

    def gradient(self) -> np.ndarray:
        """Gradient with respect to the couplings; see :func:`energy_gradient_omega`.

        A term's energy E_t depends on omega through its phase vector,
        alpha_t(m) = sum_c omega_mc v_t(c) with v_t = +1 on the annihilated
        and -1 on the created modes, and a two-body term also through its
        scalar phase e^{i(omega_rs - omega_pq)}.  The chain rule runs through
        the bundle's own pieces: with x_m = -(1/4) e^{i alpha_m},

            d log A / d alpha_m = x_m gpm[m, m]
            d gpm[p, q] / d alpha_m = x_m (gpp[p, m] gmm[m, q] - gpm[p, m] gpm[m, q])
            d gpp[p, q] / d alpha_m = -x_m (gpp[p, m] gpm[q, m] + gpm[p, m] gpp[m, q])
            d gmm[p, q] / d alpha_m = -x_m (gpm[m, p] gmm[m, q] + gmm[p, m] gpm[m, q])

        which are exact: dA/d alpha_m = i <e^{i alpha n} n_m>, and
        dG/d alpha_m = (i/2) e^{i alpha_m} (G[:, m] G[N+m, :] - G[:, N+m] G[m, :])
        because the solve's numerator and denominator give
        (Upsilon gamma - 1) D^{-1} = Upsilon G.  A two-body term's derivative
        is that of w (ps qr - pr qs + pq rs) entry by entry, so it holds for
        every h the constructor accepts; the one-body gpm entries and the
        two-body ps, qr, pr and qs are differentiated in one stacked gather.
        With no phased key every key reads the closed form's tables, built
        once from the N x N blocks of gamma + Upsilon
        (:func:`~ngfermi.wick._block_tables`) and broadcast to the K keys.
        """
        lay = self.layout
        (p1, q1), (p, q, r, s) = lay.modes
        if self._terms is None:
            # every key reads the tables of gamma + Upsilon, through read-only
            # (K, N, N) views
            n, k = self.hamil.n_modes, len(lay.alphas)
            tables = wick._block_tables(self.gamma.gamma + upsilon(n))
            self._coeff = np.ones(k, dtype=complex)
            self._tables = tuple(np.broadcast_to(t, (k, n, n)) for t in tables)
            self._terms = self._gather_terms(lay.w1, lay.w2)
        gpm, gpp, gmm = self._tables
        keys, k1, k2 = lay.term_key, lay.k1, lay.k2
        w1, e1, w2, pairs, e2 = self._terms

        # d/d alpha of one block entry per term, over m and without x_m: (T, N)
        def d_pm(k, p, q):
            return gpp[k, p] * gmm[k, :, q] - gpm[k, p] * gpm[k, :, q]

        def d_pp(k, p, q):
            return -(gpp[k, p] * gpm[k, q] + gpm[k, p] * gpp[k, :, q])

        def d_mm(k, p, q):
            return -(gpm[k, :, p] * gmm[k, :, q] + gmm[k, p] * gpm[k, :, q])

        # the one-body gpm entries and the two-body ps, qr, pr and qs in one
        # gather, each row times its factor in d E_t
        ps, qr, pr, qs, pq, rs = pairs
        t1, t2 = len(k1), len(k2)
        d_gpm = np.concatenate([w1, w2 * qr, w2 * ps, -w2 * qs, -w2 * pr])[:, None] * d_pm(
            np.concatenate([k1, k2, k2, k2, k2]), np.concatenate([p1, p, q, p, q]), np.concatenate([q1, s, r, r, s])
        )
        d2 = d_gpm[t1:].reshape(4, t2, d_gpm.shape[1]).sum(axis=0) + w2[:, None] * (
            d_pp(k2, p, q) * rs[:, None] + pq[:, None] * d_mm(k2, r, s)
        )

        diag = np.diagonal(gpm, axis1=1, axis2=2)
        e_t = np.concatenate([e1, e2])
        d_alpha = -0.25 * lay.phase[keys] * (diag[keys] * e_t[:, None] + np.concatenate([d_gpm[:t1], d2]))
        x = d_alpha.real.T @ self.hamil._charge_rows  # x[m, c] = dE / d omega_mc
        # the two-body scalar phase: d Re(E_t) / d omega_rs = Re(i E_t)
        np.add.at(x, (r, s), -e2.imag)
        np.add.at(x, (p, q), e2.imag)
        grad = 0.5 * (x + x.T)
        np.fill_diagonal(grad, 0.0)
        return grad


def energy(gamma, omega, hamil: ManyBodyHamiltonian) -> tuple[float, float, float]:
    """One-body, two-body and total energy of the flux-attached Ansatz.

    Returns ``(E1, E2, E1 + E2)``.  The imaginary residue of each part must
    stay below 1e-9 or :class:`NumericsError` is raised.  The result is read
    from a fresh :class:`StateEvaluator` (likewise for
    :func:`energy_gradient_omega` and :func:`mean_field_h`); a caller that
    needs several of them for one state keeps the evaluator and calls its
    methods, as the optimizer does.
    """
    return StateEvaluator(gamma, omega, hamil).energy()


def energy_gradient_omega(gamma, omega, hamil: ManyBodyHamiltonian) -> np.ndarray:
    """Gradient of the energy with respect to the flux couplings.

    Read by the chain rule from the state's contraction bundles, through
    each term's phase vector and scalar phase; see
    :meth:`StateEvaluator.gradient`.  The result is real symmetric with zero
    diagonal, with the (i, j) and (j, i) entries treated as independent
    parameters of equal value (matching the convention used by the flow
    tensor).
    """
    return StateEvaluator(gamma, omega, hamil).gradient()


def mean_field_h(gamma, omega, hamil: ManyBodyHamiltonian) -> np.ndarray:
    """Mean-field matrix of the rotated Hamiltonian: 4 dE/d(gamma).

    The derivative follows the ordered-entry convention for structured skew
    matrices: dE = sum_{ij} (dE/dGamma_ij) dGamma_ij over all ordered (i, j).
    Output is real skew-symmetric (2N x 2N) and read-only: it is the array
    the evaluator keeps (:meth:`StateEvaluator.mean_field_h`).
    """
    return StateEvaluator(gamma, omega, hamil).mean_field_h()


def mean_field_o(gamma, dtau_omega) -> np.ndarray:
    """Mean-field matrix of the flux-coupling flow term; i * result is real skew.

    Built from diag(d_omega . g) blocks and Hadamard products of d_omega with
    the blocks of gamma + Upsilon, where g holds the diagonal of the
    upper-right covariance block shifted by one (twice the mode occupations).
    """
    g = _as_gamma(gamma)
    n = g.shape[0] // 2
    dw = np.asarray(dtau_omega, dtype=float)
    if dw.shape != (n, n):
        raise DimensionError(f"dtau_omega must be {n}x{n}, got {dw.shape}")
    if np.max(np.abs(dw - dw.T), initial=0.0) > SYMMETRY_TOL:
        raise ValidationError("dtau_omega must be symmetric")
    gvec = np.diag(g[:n, n:]) + 1.0
    g0 = g + upsilon(n)
    # O / (i/2): Hadamard blocks [[-dw g22, dw g21], [dw g12, -dw g11]] of
    # g0 = gamma + Upsilon, plus diag(dw . g) on the off-diagonal blocks
    out = np.empty((2 * n, 2 * n))
    out[:n, :n] = dw * -g0[n:, n:]
    out[:n, n:] = dw * g0[n:, :n]
    out[n:, :n] = dw * g0[:n, n:]
    out[n:, n:] = dw * -g0[:n, :n]
    modes = np.arange(n)
    gw = dw @ gvec
    out[modes, n + modes] += gw
    out[n + modes, modes] -= gw
    return 0.5j * out


def hubbard_model(
    n_sites: int, t: float, u: float, mu: float, periodic: bool = False
) -> ManyBodyHamiltonian:
    """Fermi-Hubbard chain with 2*n_sites spin-orbitals (up block first).

    f carries -t nearest-neighbour hopping per spin and -mu on every
    spin-orbital; h carries the on-site repulsion u, antisymmetrized.  For
    two sites the periodic flag adds no second bond (the ring and the chain
    coincide as undirected graphs).
    """
    if n_sites < 2:
        raise ValidationError(f"hubbard_model needs at least 2 sites, got {n_sites}")
    n = 2 * n_sites
    f, h = _zero_tensors(n)
    bonds = {tuple(sorted((i, (i + 1) % n_sites))) for i in range(n_sites - 1 + int(periodic))}
    for a, b in sorted(bonds):
        if a == b:
            continue
        for spin in (0, n_sites):
            f[a + spin, b + spin] = -t
            f[b + spin, a + spin] = -t
    f -= mu * np.eye(n)
    for site in range(n_sites):
        a, b = site, n_sites + site
        h[a, b, b, a] = h[b, a, a, b] = 0.5 * u
        h[a, b, a, b] = h[b, a, b, a] = -0.5 * u
    return ManyBodyHamiltonian(n, f, h)


def _zero_tensors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero f and h for n modes, or a ValidationError naming their size."""
    try:
        return np.zeros((n, n), dtype=complex), np.zeros((n, n, n, n))
    except (ValueError, MemoryError) as exc:  # numpy refuses the shape or the memory
        size = (16 * n**2 + 8 * n**4) / 2**30
        raise ValidationError(f"{n} modes need {size:.3g} GiB for f and h ({exc})") from exc


def save_hamiltonian(hamil: ManyBodyHamiltonian, path) -> None:
    """Write the text format: NMODES header, F/H lines with 1-based indices.

    Every nonzero entry is listed explicitly (including all symmetry images);
    values use 17 significant digits so the round trip is bit exact.
    """
    buf = io.StringIO()
    buf.write(f"NMODES {hamil.n_modes}\n")
    for p, q in np.argwhere(hamil.f != 0.0):
        val = hamil.f[p, q]
        buf.write(f"F {p + 1} {q + 1} {val.real:.17g} {val.imag:.17g}\n")
    for p, q, r, s in hamil.two_body_entries():
        buf.write(
            f"H {p + 1} {q + 1} {r + 1} {s + 1} {hamil.h[p, q, r, s]:.17g}\n"
        )
    with open(path, "w", encoding="ascii") as fh:
        fh.write(buf.getvalue())


def load_hamiltonian(path) -> ManyBodyHamiltonian:
    """Parse the text format and validate all declared symmetries.

    The loader never symmetrizes: files must list every symmetry-related
    entry explicitly, and violations are rejected naming the indices.
    """
    n = None
    f = None
    h = None
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            try:
                if tokens[0] == "NMODES":
                    if n is not None:
                        raise FormatError("duplicate NMODES header", lineno)
                    n = int(tokens[1])
                    if n <= 0:
                        raise FormatError("NMODES must be positive", lineno)
                    f, h = _zero_tensors(n)
                elif tokens[0] == "F":
                    if f is None:
                        raise FormatError("F line before NMODES", lineno)
                    p, q = (int(x) - 1 for x in tokens[1:3])
                    re_part, im_part = float(tokens[3]), float(tokens[4])
                    _check_range(lineno, n, p, q)
                    if f[p, q] != 0.0:
                        raise FormatError(f"duplicate F entry ({p + 1}, {q + 1})", lineno)
                    f[p, q] = complex(re_part, im_part)
                elif tokens[0] == "H":
                    if h is None:
                        raise FormatError("H line before NMODES", lineno)
                    p, q, r, s = (int(x) - 1 for x in tokens[1:5])
                    _check_range(lineno, n, p, q, r, s)
                    if h[p, q, r, s] != 0.0:
                        raise FormatError(
                            f"duplicate H entry ({p + 1}, {q + 1}, {r + 1}, {s + 1})",
                            lineno,
                        )
                    h[p, q, r, s] = float(tokens[5])
                else:
                    raise FormatError(f"unknown record {tokens[0]!r}", lineno)
            except (IndexError, ValueError) as exc:
                raise FormatError(f"malformed record: {exc}", lineno) from exc
    if n is None:
        raise FormatError("missing NMODES header")
    return ManyBodyHamiltonian(n, f, h)


def _check_range(lineno: int, n: int, *indices: int) -> None:
    for idx in indices:
        if not (0 <= idx < n):
            raise FormatError(f"index {idx + 1} outside 1..{n}", lineno)
