"""Property tests over random draws: the Q sum read from L, bundles at -alpha
as conjugates of bundles at alpha, one term per adjoint pair and the phase
layout's charge keys, none the negative of another, layouts against fresh
ones, a nonzero charge on an exactly zero phase vector against the closed
form, the pair-space flow matrix and its pseudo-inverse, the Cayley rotation,
the L-BFGS two-loop against the dense BFGS recursion,
Pf^2 = det, the block tables bit for bit against the product P^T G P,
Wick's theorem with the block tables against the dense oracle,
and the omega = 0 closed form against the per-term plain-Wick sum, the dense
oracle and central differences, with its quadratic form's Q against the
central-difference Hessian of the per-entry energy.

The draws are seeded numpy states (pure and mixed), phase-vector stacks with
a zero row, zero entries and +-pi entries, sparse Hamiltonians with an entry
whose adjoint is zero, Hubbard chains, dense and nearly Hermitian
Hamiltonians, complex skew stacks with forced zero pivots, and
complex matrices and stacks with zero and conjugate rows;
hypothesis picks the sizes, the seeds and where the zeros go.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    b_tensor_entries,
    curvature_pairs,
    dense_bfgs_direction,
    lbfgs_memory,
    random_hamiltonian,
    random_operator_string,
    random_symmetric_zero_diag,
    random_two_body,
)
from ngfermi import oracle, wick
from ngfermi.errors import ValidationError
from ngfermi.gaussian import (
    covariance_from_xi,
    mean_field_covariance,
    random_generator,
    random_pure_covariance,
    upsilon,
)
from ngfermi.hamiltonian import (
    ManyBodyHamiltonian,
    PhaseLayout,
    StateEvaluator,
    _plain_wick_products,
    hubbard_model,
    mean_field_o,
)
from ngfermi.linalg import BlockContractionKind, block_contract, pfaffian
from ngfermi.optimizer import (
    BTensor,
    b_tensor,
    cayley_generator,
    cayley_rotate,
    dtau_gamma,
    dtau_omega_hitgd,
    lbfgs_direction,
    matricize_b,
    quadratic_form,
)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2**32 - 1)


def _same_bits(got, ref) -> bool:
    got, ref = np.asarray(got), np.asarray(ref)
    return got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes()


def _rel_err(got, ref) -> float:
    return float(np.max(np.abs(got - ref), initial=0.0)) / max(1.0, float(np.max(np.abs(ref), initial=0.0)))


@st.composite
def phase_stacks(draw):
    """A pure gamma on 1..8 modes and a (K, N) phase stack with one zero row
    and some zero entries, with complex weights."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(SEEDS))
    alphas = rng.uniform(-np.pi, np.pi, (k, n))
    alphas[draw(st.integers(0, k - 1))] = 0.0
    alphas[rng.random((k, n)) < draw(st.sampled_from([0.0, 0.3, 0.6]))] = 0.0
    weights = rng.normal(size=k) + 1j * rng.normal(size=k)
    return random_pure_covariance(n, rng), alphas, weights


@SETTINGS
@given(case=phase_stacks())
def test_q_sum_from_l_matches_q_matrix(case):
    cov, alphas, weights = case
    ref = np.einsum("k,kij->ij", weights, wick.q_matrix(cov, alphas))
    got = wick.q_sum_from_l(wick.contract(cov, alphas).l, np.exp(1j * alphas), weights)
    assert _rel_err(got, ref) <= 1e-12


@st.composite
def conjugate_stacks(draw):
    """A pure or mixed real gamma on 1..8 modes and a (K, N) phase stack with
    zero and +-pi entries."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(SEEDS))
    gamma = random_pure_covariance(n, rng).gamma
    kind = draw(st.sampled_from(["pure", "scaled", "perturbed"]))
    if kind == "scaled":
        gamma = rng.uniform(0.2, 0.95) * gamma
    elif kind == "perturbed":
        x = rng.normal(scale=0.05, size=gamma.shape)
        gamma = gamma + x - x.T
    alphas = rng.uniform(-np.pi, np.pi, (k, n))
    special = rng.random((k, n)) < draw(st.sampled_from([0.0, 0.3, 0.6]))
    alphas[special] = rng.choice([0.0, np.pi, -np.pi], size=special.sum())
    return gamma, alphas


FIELDS = ("coeff", "g", "l", "g_dag_plain", "g_dag_dag", "g_plain_plain")


@SETTINGS
@given(case=conjugate_stacks())
def test_bundle_at_minus_alpha_is_the_conjugate(case):
    # the reason an adjoint term is its term's conjugate: the charge -v has the
    # phase vector -alpha, whose coefficient, G and L are the conjugates of
    # alpha's for every real gamma.  The block tables are not conjugates of
    # each other (conj turns "+-" into "-+"); they are the tables of conj G
    gamma, alphas = case
    plus, minus = wick.contract(gamma, alphas), wick.contract(gamma, -alphas)
    for name in ("coeff", "g", "l"):
        assert _rel_err(np.conj(getattr(plus, name)), getattr(minus, name)) <= 1e-13
    for name, table in zip(FIELDS[3:], wick._block_tables(np.conj(plus.g))):
        assert _rel_err(table, getattr(minus, name)) <= 1e-13


# the index images of a two-body entry: h_pqrs = -h_qprs = -h_pqsr = h_srqp
H_IMAGES = [
    (0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
    (3, 2, 1, 0), (2, 3, 1, 0), (3, 2, 0, 1), (2, 3, 0, 1),
]


@st.composite
def charged_states(draw):
    """A Hamiltonian on 2..5 modes with zeroed entries and one one-body entry
    whose adjoint is zero (Hermitian to SYMMETRY_TOL), a pure gamma, and
    omega with 0 and +-pi entries."""
    n = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(SEEDS))
    frac = draw(st.sampled_from([0.0, 0.3, 0.6]))
    f = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    f = f + f.conj().T
    cut = rng.random((n, n)) < frac
    f[cut | cut.T] = 0.0
    a, b = rng.choice(n, size=2, replace=False)
    f[a, b], f[b, a] = 5e-11, 0.0
    h = random_two_body(n, rng)
    cut = rng.random((n,) * 4) < frac
    h[np.any([cut.transpose(p) for p in H_IMAGES], axis=0)] = 0.0
    w = random_symmetric_zero_diag(n, rng, scale=1.5)
    special = rng.random((n, n)) < draw(st.sampled_from([0.0, 0.3, 0.6]))
    w[special] = rng.choice([0.0, np.pi, -np.pi], size=special.sum())
    w = np.triu(w, 1) + np.triu(w, 1).T
    return ManyBodyHamiltonian(n, f, h), random_pure_covariance(n, rng), w


def _charge(term) -> tuple:
    """+1 on the annihilated, -1 on the created modes of a term's indices."""
    created, annihilated = term[: len(term) // 2], term[len(term) // 2:]
    v = np.zeros(max(term) + 1, dtype=int)
    np.add.at(v, list(annihilated), 1)
    np.add.at(v, list(created), -1)
    return tuple(np.trim_zeros(v, "b"))


@SETTINGS
@given(case=charged_states())
def test_keys_are_charges_and_no_key_is_a_mirror(case):
    hamil, cov, w = case
    _, _, terms = hamil._term_indices
    charges = [_charge(t) for t in terms]
    first, label, _, _ = hamil._keys
    # one label per charge, and no term has the negative of a nonzero charge
    assert len(set(zip(label.tolist(), charges))) == len(first) == len(set(charges))
    assert not any(tuple(-x for x in v) in charges for v in charges if any(v))
    # labels are numbered in order of first appearance, from each charge's first term
    seen = list(dict.fromkeys(label.tolist()))
    assert seen == list(range(len(first)))
    assert first.tolist() == [label.tolist().index(c) for c in seen]
    # a moved generic omega, then generic -> 0 -> generic: each layout matches
    # one of a copy of H that has seen no omega, bit for bit
    moved = np.where(np.isin(w, [0.0, np.pi, -np.pi]), w, 1.1 * w)
    for omega in (w, moved, np.zeros_like(w), w):
        layout = PhaseLayout(omega, hamil)
        fresh = PhaseLayout(omega, ManyBodyHamiltonian(hamil.n_modes, hamil.f, hamil.h))
        for field in ("term_key", "first_term", "phased", "alphas", "phase", "w1", "w2"):
            assert _same_bits(getattr(layout, field), getattr(fresh, field)), field
        for got, ref in zip(layout.residue, fresh.residue):  # the one-sided f entry has a residue
            assert _same_bits(got, ref)
        # every omega holds the Hamiltonian's one key per charge, the charge's
        # label; the v = 0 charge alone is the zero key, and a nonzero charge
        # keeps its key even where its wrapped vector is exactly zero (omega's
        # 0 and +-pi entries)
        assert layout.first_term is first
        np.testing.assert_array_equal(layout.term_key, label)
        neutral = [not any(charges[t]) for t in first]
        if not omega.any():
            # no key is phased, and every vector is zero
            assert layout.phased.size == 0 and not layout.alphas.any()
            continue
        np.testing.assert_array_equal(layout.phased, np.flatnonzero(~np.array(neutral)))
        ev = StateEvaluator(cov, omega, hamil, layout)
        ref = StateEvaluator(cov, omega, ManyBodyHamiltonian(hamil.n_modes, hamil.f, hamil.h))
        for method in ("energy", "gradient", "mean_field_h"):
            assert _same_bits(np.asarray(getattr(ev, method)()), np.asarray(getattr(ref, method)())), method


@st.composite
def folded_models(draw):
    """A Hubbard chain (L = 2..8, open or periodic, seeded couplings), a
    random dense Hamiltonian on 1..6 modes, or one Hermitian only to
    SYMMETRY_TOL on 2..6 modes: every f and h entry off by up to 5e-11, one
    f_pq whose adjoint f_qp is zero, and a complex f_pp; and a generic omega."""
    rng = np.random.default_rng(draw(SEEDS))
    kind = draw(st.sampled_from(["hubbard", "dense", "nearly-hermitian"]))
    if kind == "hubbard":
        sites, periodic = draw(st.integers(2, 8)), draw(st.booleans())
        hamil = hubbard_model(sites, rng.normal(), rng.uniform(0.0, 8.0), rng.normal(), periodic=periodic)
    else:
        n = draw(st.integers(1 if kind == "dense" else 2, 6))
        hamil = random_hamiltonian(n, rng)
    if kind == "nearly-hermitian":
        h = hamil.h.copy()
        h[h != 0.0] += rng.uniform(-5e-11, 5e-11, size=np.count_nonzero(h))
        f = hamil.f + rng.uniform(-5e-11, 5e-11, size=(n, n))
        p, q = rng.choice(n, size=2, replace=False)
        f[p, q], f[q, p] = 5e-11, 0.0
        f[q, q] += 5e-11j
        hamil = ManyBodyHamiltonian(n, f, h)
    return hamil, random_symmetric_zero_diag(hamil.n_modes, rng, scale=1.5)


@SETTINGS
@given(case=folded_models())
def test_one_term_per_adjoint_pair(case):
    # every nonzero entry of f and of the folded h is a term or its adjoint's
    # term, each term is canonical, and its weights are the adjoint sum and
    # difference; no key's charge is the negative of another's, so at a
    # generic omega the keys are the rows contract builds plus the zero key
    hamil, w = case
    f_idx, h_idx, terms = hamil._term_indices
    assert all(p <= q for p, q in f_idx) and all(p < q and r < s and (p, q) <= (r, s) for p, q, r, s in h_idx)
    folded = hamil._folded_h
    for p, q in np.argwhere(hamil.f):
        assert (min(p, q), max(p, q)) in terms
    for p, q, r, s in np.argwhere(folded):
        if p < q and r < s:
            assert min((p, q, r, s), (r, s, p, q)) in terms
    (w1, w2), residue = hamil._term_weights, hamil._residue_weights
    r1, r2 = residue if residue is not None else (np.zeros_like(w1), np.zeros_like(w2))
    for (p, q), plus, minus in zip(f_idx, w1, r1):
        once = 0.5 if p == q else 1.0
        assert plus == 0.25j * (hamil.f[p, q] + np.conj(hamil.f[q, p])) * once
        assert minus == 0.25j * (hamil.f[p, q] - np.conj(hamil.f[q, p])) * once
    for (p, q, r, s), plus, minus in zip(h_idx, w2, r2):
        once = 0.5 if (p, q) == (r, s) else 1.0
        assert plus == -(folded[p, q, r, s] + folded[r, s, p, q]) / 32.0 * once
        assert minus == -(folded[p, q, r, s] - folded[r, s, p, q]) / 32.0 * once
    hermitian = np.array_equal(hamil.f, hamil.f.conj().T) and np.array_equal(folded, folded.transpose(2, 3, 0, 1))
    assert (residue is None) == hermitian
    first, _, phased, v_keys = hamil._keys
    charges = {tuple(v) for v in v_keys.astype(int).tolist()}
    assert len(charges) == len(first)
    assert not any(tuple(-x for x in v) in charges for v in charges if any(v))
    layout = PhaseLayout(w, hamil)
    built = np.flatnonzero(layout.alphas.any(axis=1))
    np.testing.assert_array_equal(built, phased)
    assert len(first) - len(built) == int(any(not any(v) for v in charges))


def test_charge_on_an_exactly_zero_vector_takes_the_closed_form(monkeypatch):
    # one nonzero coupling, between modes 0 and 3 of a Hubbard chain at L=3:
    # the hopping f_12 (one term with f_21) has charge e_2 - e_1, but
    # omega (e_2 - e_1) = 0 exactly.  Its key stays its own and phased, and
    # contract gives its row the closed form: the zero key's row, bit for bit,
    # with no part of the solve
    hamil = hubbard_model(3, 1.0, 4.0, 2.0)
    w = np.zeros((6, 6))
    w[0, 3] = w[3, 0] = 0.9
    cov = random_pure_covariance(6, np.random.default_rng(14))
    layout = PhaseLayout(w, hamil)
    _, _, terms = hamil._term_indices
    k, zero = layout.term_key[terms.index((1, 2))], layout.term_key[terms.index((0, 0))]
    assert (1, 2) in terms and (2, 1) not in terms
    assert not layout.alphas[k].any() and k != zero and k in layout.phased
    solved = []
    original = wick._g_direct

    def counting(g, a, phase):
        solved.append(len(a))
        return original(g, a, phase)

    monkeypatch.setattr(wick, "_g_direct", counting)
    ev = StateEvaluator(cov, w, hamil, layout)
    assert solved == [int(np.count_nonzero(layout.alphas.any(axis=1)))]
    for field in ("coeff", "g", "l", "g_dag_plain", "g_dag_dag", "g_plain_plain"):
        np.testing.assert_array_equal(getattr(ev.contraction, field)[k], getattr(ev.contraction, field)[zero])


@st.composite
def flow_states(draw):
    """A random pure gamma, the vacuum -Upsilon or a Slater determinant, on 1..8 modes."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(SEEDS))
    kind = draw(st.sampled_from(["random", "vacuum", "slater"]))
    if kind == "vacuum":
        cov = -upsilon(n)
    elif kind == "slater":
        f = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        cov = mean_field_covariance(f + f.conj().T, draw(st.integers(0, n))).gamma
    else:
        cov = random_pure_covariance(n, rng).gamma
    return kind, cov, random_symmetric_zero_diag(n, rng)


@SETTINGS
@given(case=flow_states())
def test_pair_space_flow_matrix_matches_the_tensor(case):
    # the N^4 tensor is the test's own reference: the program reads B on pairs only
    _, cov, dw = case
    tensor = b_tensor(cov)
    entries = b_tensor_entries(tensor)
    rows, cols = np.triu_indices(tensor.n_modes, 1)
    gathered = entries[rows[:, None], cols[:, None], rows[None, :], cols[None, :]]
    assert _rel_err(matricize_b(tensor), gathered) <= 1e-15
    full = np.einsum("kl,klmn,mn->", dw, entries, dw)
    assert abs(quadratic_form(tensor, dw) - full) <= 1e-13 * max(1.0, abs(full))


@SETTINGS
@given(case=flow_states())
def test_hitgd_velocity_matches_pinv(case):
    kind, cov, grad = case
    tensor = b_tensor(cov)
    n = tensor.n_modes
    reduced = matricize_b(tensor)
    rows, cols = np.triu_indices(n, 1)
    ref = np.zeros((n, n))
    ref[rows, cols] = ref[cols, rows] = -4.0 * (np.linalg.pinv(reduced, rcond=1e-8) @ grad[rows, cols])
    # both are backward stable, so they agree to rounding times the condition
    # number of the kept spectrum (up to ~1e5 on Slater determinants)
    sv = np.linalg.svd(reduced, compute_uv=False)
    kept = sv[sv > 1e-8 * sv[0]] if sv.size else sv
    kappa = kept[0] / kept[-1] if kept.size else 1.0
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        got = dtau_omega_hitgd(tensor, grad)
    assert _rel_err(got, ref) <= 1e-12 + 1e-14 * kappa
    # the eigenvalue bounds pass a random state to the plain solve, and send
    # the vacuum (B = 0) through the eigendecomposition
    if kind == "random":
        assert eigh.call_count == 0
    elif kind == "vacuum" and n >= 2:
        assert eigh.call_count == 1


def test_hitgd_velocity_rejects_a_non_finite_flow_matrix():
    tensor = b_tensor(random_pure_covariance(3, np.random.default_rng(0)))
    broken = BTensor(tensor.g, np.full((3, 3), np.nan))
    with pytest.raises(ValidationError):
        dtau_omega_hitgd(broken, np.zeros((3, 3)))


@st.composite
def flow_generators(draw):
    """A random pure gamma on 1..6 modes, the omega = 0 mean-field matrix of a
    random dense Hamiltonian at it, and O from a random coupling velocity."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(SEEDS))
    gamma = random_pure_covariance(n, rng)
    h_m = StateEvaluator(gamma, np.zeros((n, n)), random_hamiltonian(n, rng)).mean_field_h()
    o_m = mean_field_o(gamma, random_symmetric_zero_diag(n, rng, scale=draw(st.sampled_from([0.0, 0.1, 1.0]))))
    return gamma, h_m, o_m


@SETTINGS
@given(case=flow_generators(), tau=st.sampled_from([1e-6, 1e-3, 0.1, 1.0, 10.0, 100.0, 1e3]))
def test_cayley_trial_is_pure_and_follows_the_flow(case, tau):
    gamma, h_m, o_m = case
    k = cayley_generator(gamma, h_m, o_m)
    assert np.array_equal(k, -k.T)
    trial = cayley_rotate(gamma, k, tau).gamma
    assert np.array_equal(trial, -trial.T)
    assert np.linalg.norm(trial @ trial + np.eye(len(trial))) <= 1e-13
    # (gamma' - gamma)/t - v = (t/2) [K, [K, gamma]] + O(t^2), and
    # |[K, [K, gamma]]| <= 4 |K|^2 for a pure gamma
    velocity = dtau_gamma(gamma, h_m, o_m)
    knorm = np.linalg.norm(k, 2)
    for t in (1e-3, 1e-4, 1e-5):
        err = np.max(np.abs((cayley_rotate(gamma, k, t).gamma - gamma.gamma) / t - velocity))
        assert err <= 3.0 * t * knorm**2 + 1e-9


@st.composite
def bfgs_pairs(draw):
    """1..5 pairs with s.y > 0 in 2..40 dimensions, and a vector K."""
    m, size = draw(st.integers(1, 5)), draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(SEEDS))
    return curvature_pairs(rng, m, size), rng.standard_normal(size)


@SETTINGS
@given(case=bfgs_pairs())
def test_lbfgs_two_loop_is_the_dense_bfgs_recursion(case):
    pairs, k = case
    p, theta = lbfgs_direction(lbfgs_memory(pairs, k))
    expected, expected_theta = dense_bfgs_direction(pairs, k)
    assert abs(theta / expected_theta - 1.0) <= 1e-14
    assert _rel_err(p, expected) <= 1e-12
    assert p @ k > 0.0


@st.composite
def skew_stacks(draw):
    """A (K, 2m, 2m) complex skew stack with zero entries, whole zero rows
    and zeros on the first pivot."""
    m = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(SEEDS))
    a = rng.normal(size=(k, 2 * m, 2 * m)) + 1j * rng.normal(size=(k, 2 * m, 2 * m))
    a[rng.random(a.shape) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0.0
    a = a - np.swapaxes(a, 1, 2)
    for j in range(k):
        zeros = draw(st.sampled_from(["none", "row", "pivot", "column"]))
        if zeros == "row":  # a zero row and column: Pf = det = 0
            r = draw(st.integers(0, 2 * m - 1))
            a[j, r, :] = a[j, :, r] = 0.0
        elif zeros == "pivot":  # the first pivot entry is zero, the rest of its column is not
            a[j, 0, 1] = a[j, 1, 0] = 0.0
        elif zeros == "column":  # column 0 is zero but for its last entry: the pivot search swaps it in
            a[j, 1:-1, 0] = a[j, 0, 1:-1] = 0.0
    return a


@SETTINGS
@given(stack=skew_stacks())
def test_pfaffian_squared_is_determinant(stack):
    pf = pfaffian(stack)
    det = np.linalg.det(stack)
    # Hadamard's bound on |det|, the scale of the rounding error
    scale = np.prod(np.maximum(np.linalg.norm(stack, axis=2), 1.0), axis=1)
    assert np.all(np.abs(pf**2 - det) <= 1e-12 * scale)
    # a zero row stays zero through the eliminations, so its pivot is exactly 0
    assert np.all(pf[~stack.any(axis=1).all(axis=1)] == 0.0)


@st.composite
def wick_draws(draw):
    """A Gaussian state on 1..4 modes, a phase vector with exact 0 and +-pi
    entries, and operator strings of lengths 0..6."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(SEEDS))
    params = random_generator(n, rng)
    alpha = rng.uniform(-np.pi, np.pi, n)
    special = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.6, 1.0]))
    alpha[special] = rng.choice([0.0, np.pi, -np.pi], size=special.sum())
    lengths = draw(st.lists(st.sampled_from([0, 2, 4, 6]), min_size=1, max_size=8))
    return params, alpha, [random_operator_string(n, length, rng) for length in lengths]


@SETTINGS
@given(case=wick_draws())
def test_wick_matches_the_dense_oracle(case):
    params, alpha, strings = case
    n = len(alpha)
    bundle = wick.contract(covariance_from_xi(params), alpha)
    # the block tables, the transposed blocks of P^T G P, are the signed four-entry
    # contractions of G
    for kind, table in (
        (BlockContractionKind.PLUS_MINUS, bundle.g_dag_plain),
        (BlockContractionKind.PLUS_PLUS, bundle.g_dag_dag),
        (BlockContractionKind.MINUS_MINUS, bundle.g_plain_plain),
    ):
        ref = np.array([[block_contract(bundle.g, kind, p, q) for q in range(n)] for p in range(n)])
        assert _rel_err(table, ref) <= 1e-14
    # Wick's sum over pairings against the exact expectation; the rounding grows
    # with the condition number of the denominator D (L = D^-T): up to ~600 and
    # errors up to ~5e-13 over 3000 random draws
    state = oracle.dense_state(params.xi, np.zeros((n, n)))
    tol = 1e-12 * max(1.0, float(np.linalg.cond(bundle.l)))
    for string in strings:
        dense = oracle.dense_expectation(state, alpha, string)
        assert abs(wick.expectation_from(bundle, string) - dense) <= tol


def _dirac_tables(g) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gpm, gpp, gmm) of one 2N x 2N matrix or a stack, as transposed blocks
    of the Dirac transform X = P^T G P, P = [[1, 1], [i 1, -i 1]]: gpm =
    X[:N, N:]^T, gpp = X[N:, N:]^T and gmm = X[:N, :N]^T."""
    n = g.shape[-1] // 2
    one = np.eye(n)
    dirac = np.block([[one, one], [1j * one, -1j * one]])
    x = np.swapaxes(dirac.T @ g @ dirac, -1, -2)
    return x[..., n:, :n], x[..., n:, n:], x[..., :n, :n]


@st.composite
def table_inputs(draw):
    """A complex 2N x 2N matrix or a (K, 2N, 2N) stack on 1..8 modes, with
    entries spread from 1e-8 to 1e8, zero entries, a zero row, a row that is
    the conjugate of an earlier row, and in a stack a zero matrix and a
    matrix that is the conjugate of an earlier one (as :func:`wick.contract`
    fills its zero and copied rows)."""
    n = draw(st.integers(1, 8))
    k = draw(st.sampled_from([None, 1, 2, 5]))
    rng = np.random.default_rng(draw(SEEDS))
    shape = (2 * n, 2 * n) if k is None else (k, 2 * n, 2 * n)
    g = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10.0 ** rng.uniform(-8, 8, shape)
    g[rng.random(shape) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    mats = g.reshape((-1, 2 * n, 2 * n))
    for mat in mats:
        rows = rng.permutation(2 * n)
        mat[rows[0]] = 0.0
        if n > 1:
            first, later = sorted(rows[1:3])
            mat[later] = np.conj(mat[first])
    if k is not None and k > 1:
        mats[draw(st.integers(0, k - 1))] = 0.0
        source = draw(st.integers(0, k - 2))
        mats[draw(st.integers(source + 1, k - 1))] = np.conj(mats[source])
    return g


@SETTINGS
@given(g=table_inputs())
def test_block_tables_are_the_dirac_transform(g):
    # the helper's elementwise block arithmetic against the product P^T G P:
    # every product with 1 or +-i is exact, so both round the same two-term
    # sums, first a, b, c, d from G and then the tables from those
    got = wick._block_tables(g)
    for table, ref in zip(got, _dirac_tables(g)):
        assert table.shape == ref.shape and np.array_equal(table, ref)


@st.composite
def neutral_states(draw):
    """A Hubbard chain (L = 2 or 3, open or periodic) or a random dense
    Hamiltonian on 1..5 modes with zeroed entries, and a Gaussian gamma: pure,
    from a random generator, or mixed (scaled or perturbed)."""
    rng = np.random.default_rng(draw(SEEDS))
    if draw(st.booleans()):
        sites, periodic = draw(st.integers(2, 3)), draw(st.booleans())
        hamil = hubbard_model(sites, rng.normal(), rng.uniform(0.0, 8.0), rng.normal(), periodic=periodic)
    else:
        n = draw(st.integers(1, 5))
        frac = draw(st.sampled_from([0.0, 0.3, 0.6]))
        f = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        f = f + f.conj().T
        cut = rng.random((n, n)) < frac
        f[cut | cut.T] = 0.0
        h = random_two_body(n, rng)
        cut = rng.random((n,) * 4) < frac
        h[np.any([cut.transpose(p) for p in H_IMAGES], axis=0)] = 0.0
        hamil = ManyBodyHamiltonian(n, f, h)
    params = random_generator(hamil.n_modes, rng)
    gamma = covariance_from_xi(params).gamma
    kind = draw(st.sampled_from(["pure", "scaled", "perturbed"]))
    if kind == "scaled":
        gamma = rng.uniform(0.2, 0.95) * gamma
    elif kind == "perturbed":
        x = rng.normal(scale=0.05, size=gamma.shape)
        gamma = gamma + x - x.T
    return hamil, gamma, params if kind == "pure" else None


def _plain_wick_parts(hamil, gamma) -> tuple[complex, complex]:
    """The per-term one-body and two-body sums at omega = 0: w_t times the
    plain-Wick expectation of term t's operator string, from the zero-phase
    bundle."""
    bundle = wick.contract(gamma, np.zeros(hamil.n_modes))
    one = two = 0.0 + 0.0j
    for p, q in np.argwhere(hamil.f != 0.0):
        one += hamil.f[p, q] * wick.expectation_from(bundle, ((p, True), (q, False)))
    for p, q, r, s in hamil.two_body_entries():
        string = ((p, True), (q, True), (r, False), (s, False))
        two += 0.5 * hamil.h[p, q, r, s] * wick.expectation_from(bundle, string)
    return one, two


def _plain_wick_energy(hamil, gamma) -> complex:
    return sum(_plain_wick_parts(hamil, gamma))


@SETTINGS
@given(case=neutral_states())
def test_closed_form_energy_is_the_plain_wick_sum(case):
    # at omega = 0 the evaluator reads the energy from the Hamiltonian's fixed
    # form, with no contraction bundle; the reference sums one Wick
    # expectation per term, and the dense oracle measures pure states
    hamil, gamma, params = case
    n = hamil.n_modes
    omega = np.zeros((n, n))
    ev = StateEvaluator(gamma, omega, hamil)
    assert ev.contraction is None
    e = ev.energy()[2]
    assert abs(e - _plain_wick_energy(hamil, gamma).real) <= 1e-12 * max(1.0, abs(e))
    if params is not None and n <= 4:
        dense = oracle.dense_energy(oracle.dense_state(params.xi, omega), hamil)
        assert abs(e - dense) <= 1e-12 * max(1.0, abs(dense))


@settings(SETTINGS, max_examples=60)  # up to 90 energies per draw
@given(case=neutral_states())
def test_closed_form_mean_field_is_the_energy_derivative(case):
    # at omega = 0 the energy is quadratic in gamma, so a central difference is
    # its exact derivative, up to rounding; the steps leave the pure states
    hamil, gamma, _ = case
    n2 = 2 * hamil.n_modes
    omega = np.zeros((n2 // 2, n2 // 2))
    h_m = StateEvaluator(gamma, omega, hamil).mean_field_h()
    step = 1e-2
    fd = np.zeros((n2, n2))
    for i, j in zip(*np.triu_indices(n2, 1)):
        d = np.zeros((n2, n2))
        d[i, j], d[j, i] = step, -step
        ep = StateEvaluator(gamma + d, omega, hamil).energy()[2]
        em = StateEvaluator(gamma - d, omega, hamil).energy()[2]
        fd[i, j] = (ep - em) / step  # 4 * (1/2) (ep - em) / (2 step)
        fd[j, i] = -fd[i, j]
    assert _rel_err(h_m, fd) <= 1e-10
    assert np.array_equal(h_m, -h_m.T)


def _all_pairs_form(hamil) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The omega = 0 form's flat positions, l and Q binned over all
    M = N(2N-1) upper entries of G, M^2 bins for Q, and then cut to the
    entries some coefficient reads: the reference for the binning over the
    entries the terms reference."""
    n = hamil.n_modes
    f_idx, h_idx, _ = hamil._term_indices
    k, c = _plain_wick_products(n, f_idx, h_idx)
    m, t1, t2 = n * (2 * n - 1), len(f_idx), len(h_idx)
    rows = [hamil._term_weights + (np.real,)]
    if hamil._residue_weights is not None:
        rows.append(hamil._residue_weights + (np.imag,))
    k_a, k_b = k[:, None, t1 : t1 + 3 * t2], k[None, :, t1 + 3 * t2 :]
    lo, hi = np.minimum(k_a, k_b).ravel(), np.maximum(k_a, k_b).ravel()
    lin, quad = [], []
    for w1, w2, part in rows:
        lin.append(np.bincount(k[:, :t1].ravel(), part(w1 * c[:, :t1]).ravel(), minlength=m))
        coef = part(c[:, None, t1 : t1 + 3 * t2] * c[None, :, t1 + 3 * t2 :] * np.concatenate([w2, -w2, w2])).ravel()
        quad.append(
            np.bincount(np.concatenate([lo * m + hi, hi * m + lo]), np.concatenate([coef, coef]), minlength=m * m)
        )
    lin, quad = np.array(lin), np.array(quad).reshape(len(rows), m, m)
    read = np.flatnonzero(lin.any(axis=0) | quad.any(axis=(0, 1)))
    flat = np.flatnonzero(np.triu(np.ones((2 * n, 2 * n), dtype=bool), 1))[read]
    return flat, lin[:, read], quad[:, read][:, :, read].reshape(len(rows) * len(read), len(read))


@pytest.mark.parametrize(
    "model", [f"hubbard-{sites}-{ends}" for sites in range(2, 9) for ends in ("open", "periodic")]
    + [f"dense-{n}" for n in range(1, 7)] + ["nearly-hermitian-4"],
)
def test_gaussian_form_bins_only_the_referenced_entries(model):
    # binned over the entries the terms reference, the form is the all-pairs
    # binning bit for bit: each bin sums the same products in the same order
    if model.startswith("hubbard"):
        _, sites, ends = model.split("-")
        hamil = hubbard_model(int(sites), 1.0, 4.0, 2.0, periodic=ends == "periodic")
    else:
        kind, size = model.rsplit("-", 1)
        rng = np.random.default_rng(int(size))
        hamil = random_hamiltonian(int(size), rng)
        if kind == "nearly-hermitian":
            f, h = hamil.f + rng.uniform(-5e-11, 5e-11, size=hamil.f.shape), hamil.h.copy()
            h[h != 0.0] += rng.uniform(-5e-11, 5e-11, size=np.count_nonzero(h))
            hamil = ManyBodyHamiltonian(hamil.n_modes, f, h)
            assert hamil._residue_weights is not None
    flat, ups, lin, quad = hamil._gaussian_form
    ref_flat, ref_lin, ref_quad = _all_pairs_form(hamil)
    assert np.array_equal(flat, ref_flat) and np.array_equal(lin, ref_lin) and np.array_equal(quad, ref_quad)
    assert np.array_equal(ups, upsilon(hamil.n_modes).take(flat))


def test_closed_form_takes_h_as_given():
    # every entry of h off by up to 1e-11: the constructor accepts it (each
    # symmetry holds to SYMMETRY_TOL = 1e-10), and the form, built from the
    # signed sum of each entry's four antisymmetric images as given, still
    # equals the per-term sum.  A form that merges the two gpm pairings
    # through h_pqrs = -h_pqsr would be off by about 1e-12.
    rng = np.random.default_rng(41)
    for n in (4, 5):
        f = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = random_two_body(n, rng)
        nonzero = h != 0.0
        h[nonzero] += rng.uniform(-1e-11, 1e-11, size=nonzero.sum())
        hamil = ManyBodyHamiltonian(n, f + f.conj().T, h)
        for _ in range(4):
            gamma = random_pure_covariance(n, rng).gamma
            e = StateEvaluator(gamma, np.zeros((n, n)), hamil).energy()[2]
            assert abs(e - _plain_wick_energy(hamil, gamma).real) <= 1e-13


def _table_energies(hamil, g) -> np.ndarray:
    """The real per-entry plain-Wick sums on a stack of G = gamma + Upsilon,
    (B, 2N, 2N), read from the block tables of the Dirac transform P^T G P."""
    p1, q1 = np.nonzero(hamil.f)
    p, q, r, s = hamil.two_body_entries().T
    gpm, gpp, gmm = _dirac_tables(g)
    e1 = gpm[:, p1, q1] @ (0.25j * hamil.f[p1, q1])
    quartic = gpm[:, p, s] * gpm[:, q, r] - gpm[:, p, r] * gpm[:, q, s] + gpp[:, p, q] * gmm[:, r, s]
    return (e1 + quartic @ (-hamil.h[p, q, r, s] / 32.0)).real


@pytest.mark.parametrize(
    "model", [f"hubbard-{sites}-{ends}" for sites in (2, 3, 4) for ends in ("open", "periodic")]
    + [f"dense-{n}" for n in range(1, 7)],
)
def test_gaussian_form_is_the_plain_wick_energy(model):
    # the omega = 0 form (l, Q) over u, the strictly upper entries of
    # G = gamma + Upsilon that some coefficient reads: Q is symmetric and,
    # zero elsewhere, is the central-difference Hessian of the per-entry
    # energy in all of them (exact up to rounding, since the energy is
    # quadratic), and the evaluator's (E1, E2) are the per-term sums; Hubbard
    # couplings, dense Hamiltonians and gamma are seeded draws
    kind, size, *ends = model.split("-")
    rng = np.random.default_rng([int(size), len(ends)])
    if kind == "hubbard":
        hamil = hubbard_model(int(size), rng.normal(), rng.uniform(0.0, 8.0), rng.normal(), periodic=ends == ["periodic"])
    else:
        hamil = random_hamiltonian(int(size), rng)
    gamma = random_pure_covariance(hamil.n_modes, rng).gamma
    n, n2 = hamil.n_modes, 2 * hamil.n_modes
    flat, ups, lin, quad = hamil._gaussian_form
    k = len(flat)
    assert ups.shape == (k,) and lin.shape == (1, k) and quad.shape == (k, k)
    assert np.array_equal(quad, quad.T)

    e1, e2, _ = StateEvaluator(gamma, np.zeros((n, n)), hamil).energy()
    one, two = _plain_wick_parts(hamil, gamma)
    assert abs(e1 - one.real) <= 1e-12 * max(1.0, abs(e1))
    assert abs(e2 - two.real) <= 1e-12 * max(1.0, abs(e2))

    rows, cols = np.triu_indices(n2, 1)
    m = len(rows)
    read = np.searchsorted(rows * n2 + cols, flat)
    assert np.array_equal(rows[read] * n2 + cols[read], flat)
    full = np.zeros((m, m))
    full[np.ix_(read, read)] = quad
    basis = np.zeros((m, n2, n2))
    basis[np.arange(m), rows, cols] = 1.0
    basis[np.arange(m), cols, rows] = -1.0
    g0, step = gamma + upsilon(n), 0.5
    hess = np.empty((m, m))
    for j in range(m):
        e = [_table_energies(hamil, g0 + a * basis[j] + b * basis) for a in (step, -step) for b in (step, -step)]
        hess[j] = (e[0] - e[1] - e[2] + e[3]) / (4.0 * step**2)
    assert _rel_err(full, hess) <= 1e-10
