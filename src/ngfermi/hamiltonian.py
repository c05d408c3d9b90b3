"""Many-body Hamiltonians: representation, rotation, energy and derivatives.

The Hamiltonian is H = sum f_pq c+_p c_q + (1/2) sum h_pqrs c+_p c+_q c_r c_s
with Hermitian ``f`` and a real two-body tensor ``h`` carrying the
antisymmetrized index symmetries.  Conjugating H with the flux-attachment
unitary exp((i/2) sum omega_jk :n_j n_k:) turns every term into a phased
operator string over the Gaussian state, which the wick module evaluates.
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
        # difference with the mirror entry NaN or inf (see linalg.check_skew)
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
    def _term_indices(self) -> tuple[np.ndarray, np.ndarray, list[tuple[int, ...]]]:
        """Nonzero one-body (k1, 2) and canonical two-body (k2, 4) index
        arrays, and every term's indices as a tuple, one-body terms first.
        A two-body term is a canonical (p<q, r<s) with a nonzero folded
        coefficient (:attr:`_folded_h`), in row-major order."""
        f_idx = np.argwhere(self.f != 0.0)
        upper = np.triu(np.ones((self.n_modes,) * 2, dtype=bool), 1)
        h_idx = np.argwhere((self._folded_h != 0.0) & upper[:, :, None, None] & upper)
        return f_idx, h_idx, [tuple(idx) for idx in f_idx.tolist() + h_idx.tolist()]

    @cached_property
    def _charge_rows(self) -> np.ndarray:
        """Each term's charge v_t as a read-only float row (T, N), in the
        order of :attr:`_term_indices`: +1 on the annihilated and -1 on the
        created modes, so alpha_t = omega v_t."""
        f_idx, h_idx, _ = self._term_indices
        eye = np.eye(self.n_modes)
        (p1, q1), (p, q, r, s) = f_idx.T, h_idx.T
        v = np.concatenate([eye[q1] - eye[p1], eye[r] + eye[s] - eye[p] - eye[q]])
        v.flags.writeable = False
        return v

    @cached_property
    def _charges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The terms' charges (:attr:`_charge_rows`), numbered in order of
        first appearance: each term's charge label, in the order of
        :attr:`_term_indices`, each charge's first term (so ascending), and
        each charge's mirror, the label of -v (-1 where no term has it, a
        Hamiltonian Hermitian only to SYMMETRY_TOL).  The match is exact,
        so the mirror relation is an involution."""
        v = self._charge_rows.astype(np.int8)
        rows = np.dtype((np.void, self.n_modes))  # one key per row, grouped by bytes
        _, first, label = np.unique(v.view(rows).ravel(), return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        first, label = first[order], rank[label]
        # the labels of the charges and of their negatives, in one grouping
        _, both = np.unique(np.concatenate([v[first], -v[first]]).view(rows).ravel(), return_inverse=True)
        of_key = np.full(len(both), -1)
        of_key[both[: len(first)]] = np.arange(len(first))
        return label, first, of_key[both[len(first):]]

    @cached_property
    def _keys(self) -> tuple:
        """The key structure every phase layout shares, at every omega: one
        key per charge (key = charge label), as the keys' first terms, each
        term's key, the phased keys (the nonzero charges), the keys' charge
        rows V_keys (so the keys' vectors are V_keys omega) and the row plan
        (:class:`PhaseLayout`).  The v = 0 charge is the closed-form row; of
        each pair v, -v the earlier charge is built, the other copied."""
        label, first, mirror = self._charges
        keys = np.arange(len(first))
        v_keys = self._charge_rows[first]
        uncharged = ~v_keys.any(axis=1)
        source = np.where(uncharged, -1, np.minimum(keys, np.where(mirror < 0, keys, mirror)))
        return _read_only(first, label, np.flatnonzero(~uncharged), v_keys) + (wick.RowPlan(source),)

    @cached_property
    def _term_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """The terms' omega-free weights, in the order of :attr:`_term_indices`:
        (i/4) f_pq per one-body term and -H_pqrs / 32 per two-body term, with
        H the folded coefficient (:attr:`_folded_h`)."""
        f_idx, h_idx, _ = self._term_indices
        return _read_only(0.25j * self.f[tuple(f_idx.T)], -(1.0 / 32.0) * self._folded_h[tuple(h_idx.T)])

    @cached_property
    def _gaussian_form(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The plain-Wick energy at omega = 0 (the generalized
        Hartree-Fock-Bogoliubov functional) as one real form in u, the
        strictly upper entries of G = gamma + Upsilon: E1 = l.u and
        E2 = u.Q u / 2 (:func:`_plain_wick_form`), from the layouts' terms
        and weights.  u keeps only the M entries some coefficient reads: all
        N(2N-1) for a dense h, 46 of 190 for the Hubbard chain at L=5.
        Read-only: the flat positions of u in a 2N x 2N array, Upsilon's
        entries there, l (1, M) and Q (M, M).

        A Hermitian H has a real energy at every real skew G, so only the
        non-Hermitian parts (f - f^+)/2 and (h_pqrs - h_srqp)/2 have
        imaginary parts.  Where either is nonzero (H Hermitian only to
        SYMMETRY_TOL), their rows are stacked under l and Q, to (2, M) and
        (2M, M), for the residue checks.
        """
        n = self.n_modes
        f_idx, h_idx, _ = self._term_indices
        lin, quad = _plain_wick_form(n, f_idx, h_idx, *self._term_weights, np.real)
        f_im, h_im = 0.5 * (self.f - self.f.conj().T), 0.5 * (self.h - self.h.transpose(3, 2, 1, 0))
        if f_im.any() or h_im.any():
            # every nonzero entry is a term of its own, as given
            f_idx, h_idx = np.argwhere(f_im), np.argwhere(h_im)
            weights = 0.25j * f_im[tuple(f_idx.T)], -(1.0 / 32.0) * h_im[tuple(h_idx.T)]
            lin_im, quad_im = _plain_wick_form(n, f_idx, h_idx, *weights, np.imag)
            lin, quad = np.concatenate([lin, lin_im]), np.concatenate([quad, quad_im])
        m = n * (2 * n - 1)
        lin, quad = lin.reshape(-1, m), quad.reshape(-1, m, m)
        # the entries no coefficient reads leave the energy and dE/du at zero
        read = np.flatnonzero(lin.any(axis=0) | quad.any(axis=(0, 1)))
        flat = _upper_entries(n)[0][read]
        quad = quad[:, read][:, :, read].reshape(len(lin) * len(read), len(read))
        return _read_only(flat, upsilon(n).take(flat), lin[:, read], quad)


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


def _plain_wick_form(n: int, f_idx, h_idx, w1, w2, part) -> tuple[np.ndarray, np.ndarray]:
    """``part`` (np.real or np.imag) of the plain-Wick energy of weighted
    terms as a form in u, the strictly upper entries of G (2N x 2N, skew):
    the linear row l (M,) and the symmetric Q (M, M), M = N(2N - 1).

    A one-body term (p, q) adds w gpm[p, q], a two-body term (p, q, r, s)
    w (gpm[p, s] gpm[q, r] - gpm[p, r] gpm[q, s] + gpp[p, q] gmm[r, s]).
    Each table entry is four entries of G, as in the block formula of
    :func:`~ngfermi.wick._block_tables` (the transposed blocks of P^T G P):
    T[a, b] = sum_st (i x)^s (i y)^t G[b + sN, a + tN] with (x, y) = (1, -1)
    for gpm, (-1, -1) for gpp and (1, 1) for gmm.  So a two-body term adds
    48 products c u_k u_l, and Q is one ``bincount`` over all of them and
    their mirrors c u_l u_k.
    """
    _, pos, sign = _upper_entries(n)
    m = n * (2 * n - 1)
    # every table entry the terms read: the one-body gpm[p, q], then the left
    # factors gpm[p, s], gpm[p, r], gpp[p, q] of the three two-body products
    # and their right factors gpm[q, r], gpm[q, s], gmm[r, s]
    (p1, q1), (p, q, r, s) = f_idx.T, h_idx.T
    t1, t2 = len(p1), len(p)
    a = np.concatenate([p1, p, p, p, q, q, r])
    b = np.concatenate([q1, s, r, q, r, s, s])
    x = np.repeat([1, 1, 1, -1, 1, 1, 1], [t1] + [t2] * 6)
    y = np.repeat([-1, -1, -1, -1, -1, -1, 1], [t1] + [t2] * 6)
    s_, t_ = np.array([[0], [0], [1], [1]]), np.array([[0], [1], [0], [1]])
    i, j = b + n * s_, a + n * t_
    k, c = pos[i, j], sign[i, j] * 1j ** (s_ + t_) * x**s_ * y**t_  # (4, t1 + 6 t2) each

    lin = np.bincount(k[:, :t1].ravel(), part(w1 * c[:, :t1]).ravel(), minlength=m)
    k_a, k_b = k[:, None, t1 : t1 + 3 * t2], k[None, :, t1 + 3 * t2 :]
    coef = part(c[:, None, t1 : t1 + 3 * t2] * c[None, :, t1 + 3 * t2 :] * np.concatenate([w2, -w2, w2]))
    # (k, l) and (l, k) receive the same values in the same order: Q is exactly symmetric
    lo, hi = np.minimum(k_a, k_b).ravel(), np.maximum(k_a, k_b).ravel()
    flat = np.concatenate([lo * m + hi, hi * m + lo])
    quad = np.bincount(flat, np.concatenate([coef.ravel()] * 2), minlength=m * m)
    return lin, quad.reshape(m, m)


def _read_only(*arrays: np.ndarray) -> tuple:
    """The arrays, made read-only: every layout of a Hamiltonian shares them."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


class PhaseLayout:
    """The omega-only half of a state's evaluation, for one (omega, Hamiltonian).

    Every nonzero term of the flux-rotated Hamiltonian is a phased operator
    string with phase vector alpha_t = omega v_t, where v_t is the term's
    integer charge (:attr:`ManyBodyHamiltonian._charges`).  So the layout
    keys the terms by their charge, one key per charge, numbered in order of
    first appearance, at every omega.  The key structure (the keys' first
    terms, each term's key, the phased keys, the keys' charge rows and the
    row plan) is the Hamiltonian's, computed once
    (:attr:`ManyBodyHamiltonian._keys`), and so are the terms' mode index
    arrays and their omega-free weights.  :attr:`plan` is each key's row
    plan for :func:`~ngfermi.wick.contract`: the v = 0 key takes the closed
    form, and H is Hermitian, so the charge -v of a term's adjoint is a
    charge of H too, with phase vector -alpha, and of each such key pair
    only the first is built; the other gets its bundle by conjugation.

    A layout computes only what moves with omega: the K keys' vectors
    V_keys omega, wrapped into (-pi, pi] once here
    (:func:`~ngfermi.wick.contract` takes them as they are), their phase
    factors :attr:`phase` = e^{i alpha}, taken once here for the gradient
    and the Q sum, and the terms' weights: (i/4) f_pq for a one-body term
    and -H_pqrs e^{i(omega_rs - omega_pq)} / 32 for a two-body term (H the
    folded coefficient, :attr:`ManyBodyHamiltonian._folded_h`).  At
    omega = 0 every vector is zero and :attr:`phased` is empty, the one
    place where omega = 0 is decided.  At an omega with exact 0 or +-pi
    entries a nonzero charge can still have an exactly zero vector; its key
    is phased and built like any other.  None of this depends on gamma, so
    the states of a run share one layout for as long as omega stays the
    same object.
    """

    def __init__(self, omega, hamil: ManyBodyHamiltonian):
        self.omega = omega
        self.hamil = hamil
        w = _as_omega(omega, hamil.n_modes)
        f_idx, h_idx, self.terms = hamil._term_indices
        # the modes of the one-body terms (p1, q1) and of the two-body terms (p, q, r, s)
        self.modes = _, (p, q, r, s) = f_idx.T, h_idx.T
        self.first_term, self.term_key, phased, v_keys, self.plan = hamil._keys
        self.phased = phased if w.any() else phased[:0]
        self.k1, self.k2 = self.term_key[: len(f_idx)], self.term_key[len(f_idx):]
        self.alphas = wrap_angles(v_keys @ w)
        self.phase = np.exp(1j * self.alphas)
        # the rotated coefficient f_pq e^{-i omega_pq} times the pair phase
        # e^{i alpha(p)} = e^{i omega_pq} is f_pq, so the one-body weights carry no phase
        self.w1, h2 = hamil._term_weights
        self.w2 = h2 * np.exp(1j * (w[r, s] - w[p, q]))

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
    solve, except for the zero phase vector, whose bundle has a closed form,
    and for the second key of each -alpha pair, whose bundle is the
    conjugate of the first's (the layout's :attr:`~PhaseLayout.plan`).
    Every term's energy E_t = w_t x_t (weight times contraction) is then
    one gather over the (K, N, N) block stacks.  :meth:`energy` sums the E_t,
    :meth:`gradient` differentiates them, and :meth:`mean_field_h` adds
    their derivatives with one sum over the Q stack and one product of L
    columns; no method loops over terms in Python.

    A layout with no phased key (every omega = 0 state) calls no
    :func:`~ngfermi.wick.contract`, and :attr:`contraction` is None: every
    key sits at alpha = 0 with coefficient 1, so the energy is the
    Hamiltonian's fixed Hartree-Fock-Bogoliubov form
    (:attr:`ManyBodyHamiltonian._gaussian_form`), E1 = l.u and
    E2 = u.Q u / 2 in the upper entries u of G = gamma + Upsilon.  The
    evaluator gathers u and takes one product r = Q u + l, which is dE/du:
    :meth:`energy` reads E1 and E2 = u.(r - l) / 2 from it and
    :meth:`mean_field_h` scatters 2r.  A form with imaginary rows (a
    Hamiltonian Hermitian only to SYMMETRY_TOL) stacks them into the same
    product.  :meth:`gradient` alone reads the block tables: its first call
    builds them once from the N x N blocks of gamma + Upsilon
    (:func:`~ngfermi.wick._block_tables`, exactly :func:`contract`'s tables
    at alpha = 0), and every key reads them through the same gathers as a
    phased layout; a Gaussian-baseline run never makes that call.
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
        self.contraction = self._terms = self._h_m = None
        if lay.phased.size:
            try:
                self.contraction = c = contract(self.gamma, lay.alphas, lay.plan)
            except SingularContractionError as exc:
                raise lay.term_error(exc) from exc
            self._coeff, self._tables = c.coeff, (c.g_dag_plain, c.g_dag_dag, c.g_plain_plain)
            self._terms = self._gather_terms()
            return
        # gamma and Upsilon are exactly skew, so u holds all of G = gamma + Upsilon
        flat, ups, lin, quad = hamil._gaussian_form
        self._u = u = self.gamma.gamma.take(flat) + ups
        self._r = (quad @ u).reshape(lin.shape) + lin  # dE/du, and its imaginary row if l has one

    def _gather_terms(self) -> tuple:
        """Every term's weight times its key's coefficient and its energy
        E_t = w_t x_t, one-body (w1, e1) and two-body (w2, e2), and the six
        block entries of each two-body contraction x_t (``pairs``), gathered
        from the (K, N, N) block stacks."""
        lay = self.layout
        a, (gpm, gpp, gmm) = self._coeff, self._tables
        (p1, q1), (p, q, r, s) = lay.modes
        k1, k2 = lay.k1, lay.k2
        w1 = lay.w1 * a[k1]
        w2 = lay.w2 * a[k2]
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
            _, e1, _, _, e2 = self._terms
            e1, e2 = np.sum(e1), np.sum(e2)
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
        the other keys enter it.

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
            out = self._phased_mean_field()
            real, imag = out.real, out.imag
        scale = max(1.0, float(np.max(np.abs(real))))
        imag_dev = float(np.max(np.abs(imag), initial=0.0))
        if imag_dev > IMAG_TOL * scale:
            raise NumericsError(f"mean-field matrix has imaginary residue {imag_dev:.3e}")
        self._h_m = h_m = 0.5 * (real - real.T)
        h_m.flags.writeable = False
        return h_m

    def _phased_mean_field(self) -> np.ndarray:
        """sum_k w_k Q_k + R - R^T from the bundles (:meth:`mean_field_h`), complex.

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
        w1, e1, w2, (ps, qr, pr, qs, pq, rs), e2 = self._terms
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
            self._terms = self._gather_terms()
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
