"""The per-state evaluator against per-call and per-term references.

The evaluator builds one contraction bundle per distinct phase vector with
batched linear algebra and shares it between the energy, the mean-field
matrix and the coupling gradient; its omega-only part, the phase layout, is
shared between the states of one omega.  These tests pin that sharing and
batching change no result, that the mean-field matrix is the energy's
derivative past the dense oracle's cap, that a step builds each bundle
once, that a zero coupling velocity skips all coupling work and each
state's mean-field matrix is computed once, that one term per adjoint pair
gives the energy, mean-field matrix and gradient of the unfolded per-entry
loops (and their imaginary residues), and that omega = 0 states, evaluated
in closed form through the same charge keys, call no contraction at all and
match the per-term path.
"""

import copy

import numpy as np
import pytest

import ngfermi.hamiltonian
import ngfermi.linalg
import ngfermi.optimizer
from conftest import (
    bell_pair_and_vacuum,
    bell_pair_covariance,
    random_hamiltonian,
    random_symmetric_zero_diag,
    random_two_body,
)
from ngfermi import wick
from ngfermi.errors import NumericsError, SingularContractionError
from ngfermi.gaussian import CovarianceMatrix, random_pure_covariance, upsilon
from ngfermi.hamiltonian import (
    ManyBodyHamiltonian,
    NonGaussianParams,
    PhaseLayout,
    StateEvaluator,
    energy,
    energy_gradient_omega,
    hubbard_model,
    mean_field_h,
)
from ngfermi.linalg import pfaffian
from ngfermi.optimizer import RunOptions, initial_state, run, step

TOL = 1e-12


def _rel_dev(a, b) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.max(np.abs(a - b), initial=0.0)) / max(1.0, float(np.max(np.abs(b), initial=0.0)))


def _terms(hamil):
    """(indices, phase vector) of every nonzero entry of f and h, one-body
    entries first: each entry and its adjoint are terms of their own."""
    out = []
    for p, q in np.argwhere(hamil.f != 0.0):
        out.append(((p, q), lambda w, p=p, q=q: w[:, q] - w[:, p]))
    for p, q, r, s in hamil.two_body_entries():
        out.append(((p, q, r, s), lambda w, p=p, q=q, r=r, s=s: w[:, r] + w[:, s] - w[:, p] - w[:, q]))
    return out


def _reference_parts(cov, w, hamil) -> np.ndarray:
    """The per-term loop with one unbatched bundle per term: the complex
    one-body and two-body sums."""
    total = np.zeros(2, dtype=complex)
    for idx, alpha in _terms(hamil):
        c = wick.contract(cov, alpha(w))
        if len(idx) == 2:
            p, q = idx
            total[0] += hamil.f[p, q] * 0.25j * c.coeff * c.g_dag_plain[p, q]
        else:
            p, q, r, s = idx
            gpm = c.g_dag_plain
            quartic = gpm[p, s] * gpm[q, r] - gpm[p, r] * gpm[q, s] + c.g_dag_dag[p, q] * c.g_plain_plain[r, s]
            total[1] += -(1.0 / 32.0) * hamil.h[p, q, r, s] * np.exp(1j * (w[r, s] - w[p, q])) * c.coeff * quartic
    return total


def _reference_energy(cov, w, hamil) -> float:
    """The real part of the per-term loop's total."""
    return float(np.sum(_reference_parts(cov, w, hamil)).real)


def _skew2(a, b):
    return np.outer(a, b) - np.outer(b, a)


def _reference_mean_field(cov, w, hamil, part=np.real) -> np.ndarray:
    """The per-term loop with unbatched Q and L for every term, and the
    skew part of its real part (or of ``part``)."""
    n2 = 2 * hamil.n_modes
    out = np.zeros((n2, n2), dtype=complex)
    for idx, alpha_of in _terms(hamil):
        alpha = alpha_of(w)
        c = wick.contract(cov, alpha)
        q_mat = wick.q_matrix(cov, alpha)
        ltp, ltm = wick.derivative_columns(c.l)
        gpm, gpp, gmm = c.g_dag_plain, c.g_dag_dag, c.g_plain_plain
        if len(idx) == 2:
            p, q = idx
            out += (1j * hamil.f[p, q] * c.coeff) * (gpm[p, q] * q_mat + 0.5 * _skew2(ltp[:, q], ltm[:, p]))
            continue
        p, q, r, s = idx
        coeff = -(1.0 / 16.0) * hamil.h[p, q, r, s] * np.exp(1j * (w[r, s] - w[p, q])) * c.coeff
        # one rank-2 piece per block entry of ps qr - pr qs + pq rs, so the
        # derivative holds for every h the constructor accepts
        term = 2.0 * (gpm[p, s] * gpm[q, r] - gpm[p, r] * gpm[q, s] + gpp[p, q] * gmm[r, s]) * q_mat
        term += gpm[q, r] * _skew2(ltp[:, s], ltm[:, p]) + gpm[p, s] * _skew2(ltp[:, r], ltm[:, q])
        term -= gpm[q, s] * _skew2(ltp[:, r], ltm[:, p]) + gpm[p, r] * _skew2(ltp[:, s], ltm[:, q])
        term += gmm[r, s] * _skew2(ltm[:, q], ltm[:, p])
        term += gpp[p, q] * _skew2(ltp[:, s], ltp[:, r])
        out += coeff * term
    out = part(out)
    return 0.5 * (out - out.T)


def _reference_gradient(cov, w, hamil) -> np.ndarray:
    """The per-term loop of the coupling gradient with one unbatched bundle
    per term: each term's d E_t / d alpha from the bundle derivatives that
    ``StateEvaluator.gradient`` documents, through its charge, and its
    scalar phase's derivative, entry by entry."""
    n = hamil.n_modes
    x = np.zeros((n, n))
    for idx, alpha_of in _terms(hamil):
        alpha = alpha_of(w)
        c = wick.contract(cov, alpha)
        gpm, gpp, gmm = c.g_dag_plain, c.g_dag_dag, c.g_plain_plain
        xm = -0.25 * np.exp(1j * alpha)

        def d_pm(p, q):
            return xm * (gpp[p] * gmm[:, q] - gpm[p] * gpm[:, q])

        def d_pp(p, q):
            return -xm * (gpp[p] * gpm[q] + gpm[p] * gpp[:, q])

        def d_mm(p, q):
            return -xm * (gpm[:, p] * gmm[:, q] + gmm[p] * gpm[:, q])

        charge = np.zeros(n)
        np.add.at(charge, list(idx[len(idx) // 2:]), 1.0)
        np.add.at(charge, list(idx[: len(idx) // 2]), -1.0)
        if len(idx) == 2:
            p, q = idx
            weight, value, d_value = 0.25j * hamil.f[p, q], gpm[p, q], d_pm(p, q)
        else:
            p, q, r, s = idx
            weight = -(1.0 / 32.0) * hamil.h[p, q, r, s] * np.exp(1j * (w[r, s] - w[p, q]))
            value = gpm[p, s] * gpm[q, r] - gpm[p, r] * gpm[q, s] + gpp[p, q] * gmm[r, s]
            d_value = (
                d_pm(p, s) * gpm[q, r] + gpm[p, s] * d_pm(q, r) - d_pm(p, r) * gpm[q, s]
                - gpm[p, r] * d_pm(q, s) + d_pp(p, q) * gmm[r, s] + gpp[p, q] * d_mm(r, s)
            )
            e_t = weight * c.coeff * value
            x[r, s] -= e_t.imag
            x[p, q] += e_t.imag
        d_alpha = weight * c.coeff * (xm * np.diag(gpm) * value + d_value)
        x += np.outer(d_alpha.real, charge)
    grad = 0.5 * (x + x.T)
    np.fill_diagonal(grad, 0.0)
    return grad


@pytest.mark.parametrize("model", ["hubbard-3", "random-4", "nearly-hermitian-4"])
def test_shared_evaluator_matches_fresh_calls(model, rng):
    hamil = {
        "hubbard-3": lambda: hubbard_model(3, 1.0, 4.0, 2.0),
        "random-4": lambda: random_hamiltonian(4, rng),
        "nearly-hermitian-4": lambda: _nearly_hermitian_hamiltonian(4, rng),
    }[model]()
    n = hamil.n_modes
    cov = random_pure_covariance(n, rng)
    w = random_symmetric_zero_diag(n, rng, scale=1.5)
    ev = StateEvaluator(cov, w, hamil)
    # reverse of the optimizer's order, so no result relies on an earlier one
    grad = ev.gradient()
    h_m = ev.mean_field_h()
    e = ev.energy()
    assert _rel_dev(grad, energy_gradient_omega(cov, w, hamil)) < TOL
    assert _rel_dev(h_m, mean_field_h(cov, w, hamil)) < TOL
    assert _rel_dev(e, energy(cov, w, hamil)) < TOL
    assert _rel_dev(e[2], _reference_energy(cov, w, hamil)) < TOL
    assert _rel_dev(h_m, _reference_mean_field(cov, w, hamil)) < TOL


@pytest.mark.parametrize("model", ["hubbard-6", "random-5"])
def test_mean_field_matches_fast_energy_finite_differences(model, rng):
    # acceptance test 05's structured central differences, with the fast
    # energy as the reference: Hubbard L=6 has 12 modes, past the dense cap
    hamil = hubbard_model(6, 1.0, 4.0, 2.0) if model == "hubbard-6" else random_hamiltonian(5, rng)
    n2 = 2 * hamil.n_modes
    cov = random_pure_covariance(hamil.n_modes, rng)
    w = random_symmetric_zero_diag(hamil.n_modes, rng, scale=1.5)
    h_m = mean_field_h(cov, w, hamil)
    step = 1e-5
    scale = max(1.0, float(np.max(np.abs(h_m))))
    worst = 0.0
    for i in range(n2):
        for j in range(i + 1, n2):
            d = np.zeros((n2, n2))
            d[i, j] = step
            d[j, i] = -step
            fd = 0.5 * (energy(cov.gamma + d, w, hamil)[2] - energy(cov.gamma - d, w, hamil)[2]) / (2.0 * step)
            worst = max(worst, abs(h_m[i, j] - 4.0 * fd) / scale)
    assert worst < 1e-6
    assert np.array_equal(h_m, -h_m.T)


def _perturbed_hamiltonian(n, rng):
    """A random Hamiltonian with every nonzero h entry off by up to 1e-11:
    the constructor accepts it (each symmetry holds to SYMMETRY_TOL = 1e-10),
    and its four antisymmetric images no longer agree."""
    h = random_two_body(n, rng)
    nonzero = h != 0.0
    h[nonzero] += rng.uniform(-1e-11, 1e-11, size=nonzero.sum())
    f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return ManyBodyHamiltonian(n, f + f.conj().T, h)


def test_folded_weight_is_the_signed_sum_of_the_four_entries(rng):
    # one term per canonical (p<q, r<s) and adjoint pair ((p,q) <= (r,s)):
    # its weights are the sum and the difference of the signed sums of the
    # four antisymmetric images of (p,q,r,s) and of its adjoint (r,s,p,q),
    # a self-adjoint term's halved
    hamil = _perturbed_hamiltonian(4, rng)
    h = hamil.h
    _, h_idx, _ = hamil._term_indices
    _, w2 = hamil._term_weights
    _, r2 = hamil._residue_weights
    canonical = [
        (p, q, r, s) for p, q, r, s in np.ndindex(h.shape) if p < q and r < s and (p, q) <= (r, s)
    ]
    assert [tuple(t) for t in h_idx.tolist()] == canonical

    def folded(p, q, r, s):
        return h[p, q, r, s] - h[q, p, r, s] - h[p, q, s, r] + h[q, p, s, r]

    for (p, q, r, s), w, res in zip(canonical, w2, r2):
        once = 0.5 if (p, q) == (r, s) else 1.0
        assert w == -(1.0 / 32.0) * (folded(p, q, r, s) + folded(r, s, p, q)) * once
        assert res == -(1.0 / 32.0) * (folded(p, q, r, s) - folded(r, s, p, q)) * once


@pytest.mark.parametrize(
    "model, counts", [("random-4", (10, 21, 10)), ("hubbard-5", (18, 5, 9)), ("random-6", (21, 120, 61))]
)
def test_one_term_per_canonical_two_body_coefficient(model, counts):
    # one term per adjoint pair: dense N=4 has 16 nonzero f entries, 10 with
    # p <= q, and 144 nonzero h entries, 36 canonical (p<q, r<s), 21 with
    # (p,q) <= (r,s); dense N=6 21 of 36 and 120 of 225; Hubbard L=5 26 f
    # entries (18 with p <= q) and 20 h entries, one self-adjoint canonical
    # (i, L+i, i, L+i) per site.  The keys: the zero charge and one per other
    # charge (Hubbard: one per bond and spin), as many as the built rows plus one
    rng = np.random.default_rng(7)
    hamil = {
        "random-4": lambda: random_hamiltonian(4, rng),
        "random-6": lambda: random_hamiltonian(6, rng),
        "hubbard-5": lambda: hubbard_model(5, 1.0, 4.0, 2.0),
    }[model]()
    f_idx, h_idx, terms = hamil._term_indices
    first_term, _, phased, _ = hamil._keys
    assert (len(f_idx), len(h_idx), len(first_term)) == counts
    assert len(terms) == len(f_idx) + len(h_idx) == len(hamil._charge_rows)
    assert len(phased) == len(first_term) - 1


def test_perturbed_h_matches_the_per_entry_reference(rng):
    # the per-entry loop weighs each of the four images by its own entry; one
    # canonical term per coefficient must give the same energy and a mean
    # field that is that energy's derivative
    hamil = _perturbed_hamiltonian(4, rng)
    n2 = 2 * hamil.n_modes
    cov = random_pure_covariance(hamil.n_modes, rng)
    w = random_symmetric_zero_diag(hamil.n_modes, rng, scale=1.5)
    ev = StateEvaluator(cov, w, hamil)
    assert abs(ev.energy()[2] - _reference_energy(cov, w, hamil)) <= 1e-13
    h_m = ev.mean_field_h()
    step = 1e-5
    scale = max(1.0, float(np.max(np.abs(h_m))))
    for i, j in zip(*np.triu_indices(n2, 1)):
        d = np.zeros((n2, n2))
        d[i, j], d[j, i] = step, -step
        fd = (_reference_energy(cov.gamma + d, w, hamil) - _reference_energy(cov.gamma - d, w, hamil)) / step
        assert abs(h_m[i, j] - fd) / scale < 1e-6


@pytest.mark.parametrize("scale", [0.0, 1.5])
def test_one_body_hamiltonian_runs_every_method(scale, rng):
    # no two-body term: every two-body gather and stack is empty
    f = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    hamil = ManyBodyHamiltonian(4, f + f.conj().T, np.zeros((4, 4, 4, 4)))
    cov = random_pure_covariance(4, rng)
    w = random_symmetric_zero_diag(4, rng, scale=scale)
    ev = StateEvaluator(cov, w, hamil)
    assert len(hamil._term_indices[1]) == 0
    assert _rel_dev(ev.energy()[2], _reference_energy(cov, w, hamil)) < TOL
    assert _rel_dev(ev.mean_field_h(), _reference_mean_field(cov, w, hamil)) < TOL
    grad = ev.gradient()
    step = 1e-6
    for i, j in zip(*np.triu_indices(4, 1)):
        d = np.zeros((4, 4))
        d[i, j] = d[j, i] = step
        fd = (energy(cov, w + d, hamil)[2] - energy(cov, w - d, hamil)[2]) / (2.0 * step)
        assert abs(2.0 * grad[i, j] - fd) < 1e-7


def test_batched_pfaffian_matches_single_and_determinant():
    rng = np.random.default_rng(11)
    k, n = 24, 24
    stack = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    stack = stack - np.swapaxes(stack, 1, 2)
    # row 0 has a zero first off-diagonal entry: the first pivot must swap
    stack[0, 0, 1] = stack[0, 1, 0] = 0.0
    # a zero row and column: exactly singular
    stack[1, 5, :] = 0.0
    stack[1, :, 5] = 0.0
    batched = pfaffian(stack)
    assert batched.shape == (k,)
    assert batched[1] == 0.0
    assert np.all(np.isfinite(batched))
    for m, pf in zip(stack, batched):
        det = np.linalg.det(m)
        assert abs(pf**2 - det) <= TOL * max(1.0, abs(det))
        single = pfaffian(m)
        assert abs(single - pf) <= TOL * max(1.0, abs(pf))


@pytest.mark.parametrize("k", [1, 2, 8])
def test_stacked_g_matrix_matches_single_solves(k, rng):
    # N=4: k=8 equals 2N, the stack size an older NumPy would misread as a
    # stack of right-hand-side vectors
    cov = random_pure_covariance(4, rng)
    alphas = rng.uniform(-np.pi, np.pi, (k, 4))
    stacked = wick.g_matrix(cov, alphas)
    assert stacked.shape == (k, 8, 8)
    for alpha, g in zip(alphas, stacked):
        assert _rel_dev(g, wick.g_matrix(cov, alpha)) < TOL


def test_initial_state_wraps_plain_arrays(rng):
    hamil = hubbard_model(3, 1.0, 4.0, 2.0)
    cov = random_pure_covariance(6, rng)
    state = initial_state(hamil, gamma=cov.gamma, omega=np.zeros((6, 6)))
    assert isinstance(state.gamma, CovarianceMatrix) and isinstance(state.omega, NonGaussianParams)
    assert state.gamma is state.evaluator.gamma and state.omega is state.evaluator.omega
    assert state.energy == energy(cov, np.zeros((6, 6)), hamil)[2]


def test_evaluator_bundles_match_single_calls_past_dense_cap():
    # Hubbard L=6 has 12 modes, past the dense oracle's 10-mode cap
    rng = np.random.default_rng(5)
    hamil = hubbard_model(6, 1.0, 4.0, 2.0)
    cov = random_pure_covariance(12, rng)
    w = random_symmetric_zero_diag(12, rng, scale=0.8)
    ev = StateEvaluator(cov, w, hamil)
    # one key per charge pair +-v of the entries (+1 on the annihilated, -1 on
    # the created modes): an entry and its adjoint are one term
    charges = {
        tuple(np.bincount(idx[len(idx) // 2:], minlength=12) - np.bincount(idx[: len(idx) // 2], minlength=12))
        for idx, _ in _terms(hamil)
    }
    c = ev.contraction
    assert isinstance(c, wick.Contraction)
    assert c.alpha.shape == (len({max(v, tuple(-np.array(v))) for v in charges}), 12) and len(charges) > 20
    alpha_of = dict(_terms(hamil))
    for idx, k in zip(hamil._term_indices[2], ev.layout.term_key):
        assert np.max(np.abs(c.alpha[k] - wick.wrap_angles(alpha_of[idx](w)))) < 1e-14
    for k, alpha in enumerate(c.alpha):
        assert abs(c.coeff[k] - wick.a_coeff(cov, alpha)) < TOL
        g = wick.g_matrix(cov, alpha, method="direct")
        assert _rel_dev(c.g[k], g) < TOL
        single = wick.contract(cov, alpha)
        for name in ("g_dag_plain", "g_dag_dag", "g_plain_plain"):
            assert _rel_dev(getattr(c, name)[k], getattr(single, name)) < TOL


def test_step_builds_each_bundle_once(monkeypatch):
    hamil = hubbard_model(3, 1.0, 4.0, 2.0)
    options = RunOptions(max_steps=1, tol_g=0.0)
    state = initial_state(hamil, seed=5)
    built, contracts = [], []  # keeps the evaluators alive, so their ids stay unique
    original_init = ngfermi.hamiltonian.StateEvaluator.__init__
    original_contract = ngfermi.hamiltonian.contract

    def counting_init(self, *args):
        original_init(self, *args)
        built.append(self)

    def counting_contract(gamma, alpha):
        contracts.append(gamma)
        return original_contract(gamma, alpha)

    monkeypatch.setattr(ngfermi.hamiltonian.StateEvaluator, "__init__", counting_init)
    monkeypatch.setattr(ngfermi.hamiltonian, "contract", counting_contract)
    _, records, _ = run(hamil, options, state)
    assert len(records) == 2
    # one batched contract call per evaluator built
    assert built and len(contracts) == len(built)
    # the starting state's bundles came from initial_state and are reused
    assert all(ev.gamma is not state.gamma for ev in built)
    # no state is built twice
    states = [(id(ev.gamma), id(ev.omega)) for ev in built]
    assert len(states) == len(set(states))


def test_singular_phase_vector_names_its_term():
    # f_00 has the zero phase vector (key 0); f_02 and f_20 share (pi, 0, pi),
    # where the pair state of modes 0, 1 has coefficient 0 (key 1)
    f = np.zeros((3, 3), dtype=complex)
    f[0, 0] = 1.0
    f[0, 2] = f[2, 0] = 0.5
    hamil = ManyBodyHamiltonian(3, f, np.zeros((3, 3, 3, 3)))
    w = np.zeros((3, 3))
    w[0, 2] = w[2, 0] = np.pi
    with pytest.raises(SingularContractionError) as info:
        StateEvaluator(bell_pair_and_vacuum(), w, hamil)
    assert info.value.index == 1
    assert "one-body term (p,q)=(0,2)" in str(info.value)
    np.testing.assert_array_equal(info.value.alpha, [np.pi, 0.0, np.pi])


@pytest.mark.parametrize("model", ["hubbard-3", "hubbard-6", "random-4"])
def test_shared_layout_matches_fresh_evaluator(model, rng):
    hamil = {
        "hubbard-3": lambda: hubbard_model(3, 1.0, 4.0, 2.0),
        "hubbard-6": lambda: hubbard_model(6, 1.0, 4.0, 2.0),
        "random-4": lambda: random_hamiltonian(4, rng),
    }[model]()
    n = hamil.n_modes
    w = ngfermi.hamiltonian.NonGaussianParams(random_symmetric_zero_diag(n, rng, scale=1.5))
    first = StateEvaluator(random_pure_covariance(n, rng), w, hamil)
    cov = random_pure_covariance(n, rng)
    shared = StateEvaluator(cov, w, hamil, first.layout)
    fresh = StateEvaluator(cov, w, hamil)
    assert shared.layout is first.layout and fresh.layout is not first.layout
    assert len(first.layout.phased) > 1
    assert shared.energy() == fresh.energy()
    assert np.array_equal(shared.mean_field_h(), fresh.mean_field_h())
    assert np.array_equal(shared.gradient(), fresh.gradient())
    # a layout of another omega object, even an equal one, is never read
    other = StateEvaluator(cov, ngfermi.hamiltonian.NonGaussianParams(w.omega), hamil, first.layout)
    assert other.layout is not first.layout


@pytest.mark.parametrize("model, scale", [("hubbard-5", 0.0), ("hubbard-5", 3.0), ("random-4", 3.0)])
def test_evaluator_from_an_existing_layout_wraps_nothing(model, scale, monkeypatch, rng):
    # the layout wraps its phase vectors once (at scale 3 the raw sums of
    # couplings leave (-pi, pi]); contract takes every stack as it is
    hamil = hubbard_model(5, 1.0, 4.0, 2.0) if model == "hubbard-5" else random_hamiltonian(4, rng)
    n = hamil.n_modes
    w = random_symmetric_zero_diag(n, rng, scale=scale)
    layout = PhaseLayout(w, hamil)
    assert np.all((layout.alphas > -np.pi) & (layout.alphas <= np.pi))
    calls = []
    real = wick.wrap_angles

    def counting(values):
        calls.append(np.shape(values))
        return real(values)

    monkeypatch.setattr(wick, "wrap_angles", counting)
    monkeypatch.setattr(ngfermi.hamiltonian, "wrap_angles", counting)
    ev = StateEvaluator(random_pure_covariance(n, rng), w, hamil, layout)
    ev.energy(), ev.gradient(), ev.mean_field_h()
    assert ev.layout is layout and calls == []


def test_frozen_run_builds_one_layout_and_keeps_omega(monkeypatch, rng):
    hamil = hubbard_model(3, 1.0, 4.0, 2.0)
    layouts = []
    original = PhaseLayout.__init__

    def counting(self, *args):
        original(self, *args)
        layouts.append(self)

    monkeypatch.setattr(PhaseLayout, "__init__", counting)
    options = RunOptions(freeze_omega=True, max_steps=6, tol_e=0.0)
    w = random_symmetric_zero_diag(6, rng, scale=1.0)
    state = initial_state(hamil, seed=5, omega=w)
    assert len(state.evaluator.layout.phased) > 1  # nonzero phase keys
    final, records, _ = run(hamil, options, state)
    assert len(records) == 7
    assert len(layouts) == 1
    assert final.omega is state.omega
    assert final.evaluator.layout is layouts[0]


def _forbid(name):
    def raise_(*args, **kwargs):
        raise AssertionError(f"{name} entered")

    return raise_


@pytest.mark.parametrize("case", ["freeze_omega", "zero-gradient"])
def test_zero_velocity_step_skips_the_flux_term(case, monkeypatch):
    hamil = hubbard_model(3, 1.0, 4.0, 2.0)
    options = RunOptions(freeze_omega=case == "freeze_omega", tol_g=0.0)
    state = initial_state(hamil, seed=5)
    expected, _ = step(state, hamil, options, grad=np.zeros((6, 6)))
    monkeypatch.setattr(ngfermi.optimizer, "mean_field_o", _forbid("mean_field_o"))
    monkeypatch.setattr(ngfermi.optimizer, "NonGaussianParams", _forbid("NonGaussianParams"))
    new, _ = step(state, hamil, options, grad=np.zeros((6, 6)))
    assert new.omega is state.omega
    assert new.evaluator.layout is state.evaluator.layout
    assert new.energy == expected.energy
    assert np.array_equal(new.gamma.gamma, expected.gamma.gamma)


def test_default_mean_field_run_takes_the_frozen_step(monkeypatch):
    # the mean-field start of Hubbard L=3 keeps an exactly vanishing coupling
    # gradient at every step of the default run: no step builds the flow
    # tensor, solves the flow matrix or forms O, and the stop test and the
    # step read one mean-field matrix per state (the final state's only by
    # the stop test, which ends the run there on the gradient)
    hamil = hubbard_model(3, 1.0, 4.0, 2.0)
    for name in ("b_tensor", "dtau_omega_hitgd", "mean_field_o"):
        monkeypatch.setattr(ngfermi.optimizer, name, _forbid(name))
    matrices = []
    original = StateEvaluator.mean_field_h

    def keeping(self):
        matrices.append(original(self))
        return matrices[-1]

    monkeypatch.setattr(StateEvaluator, "mean_field_h", keeping)
    final, records, reason = run(hamil)
    assert reason == "gradient" and len(records) == 10
    assert len(matrices) == 19
    assert len({id(h_m) for h_m in matrices}) == 10
    assert final.energy < -6.96


def test_frozen_step_ignores_a_given_gradient(monkeypatch, rng):
    hamil = hubbard_model(3, 1.0, 4.0, 2.0)
    options = RunOptions(freeze_omega=True)
    state = initial_state(hamil, seed=5)
    monkeypatch.setattr(StateEvaluator, "gradient", _forbid("gradient"))
    monkeypatch.setattr(ngfermi.optimizer, "b_tensor", _forbid("b_tensor"))
    new, _ = step(state, hamil, options, grad=random_symmetric_zero_diag(6, rng, scale=1.0))
    assert new.omega is state.omega


@pytest.mark.parametrize("scale", [0.0, 1.5])
def test_mean_field_matrix_is_kept_read_only(scale, rng):
    hamil = hubbard_model(3, 1.0, 4.0, 2.0)
    w = random_symmetric_zero_diag(6, rng, scale=scale)
    ev = StateEvaluator(random_pure_covariance(6, rng), w, hamil)
    assert (ev.contraction is None) == (scale == 0.0)
    h_m = ev.mean_field_h()
    assert ev.mean_field_h() is h_m
    with pytest.raises(ValueError):
        h_m[0, 1] = 1.0


def test_zero_keys_never_build_q(monkeypatch, rng):
    # at omega = 0 every phase vector is zero, so Q = 0 and no Q sum is formed;
    # the layout keeps the Hamiltonian's one key per charge
    hamil = random_hamiltonian(4, rng)
    cov = random_pure_covariance(4, rng)
    ev = StateEvaluator(cov, np.zeros((4, 4)), hamil)
    assert ev.layout.phased.size == 0 and not ev.layout.alphas.any()
    assert ev.layout.first_term is PhaseLayout(random_symmetric_zero_diag(4, rng), hamil).first_term
    assert len(ev.layout.alphas) == len(ev.layout.first_term)
    reference = _reference_mean_field(cov, np.zeros((4, 4)), hamil)
    monkeypatch.setattr(wick, "q_sum_from_l", _forbid("q_sum_from_l"))
    assert _rel_dev(ev.mean_field_h(), reference) < TOL


@pytest.mark.parametrize("model", ["hubbard-3", "random-4"])
def test_zero_omega_closed_form_matches_the_per_term_path(model, rng):
    # the same charge keys at omega = 0, once in closed form (no phased key) and
    # once from a layout copy that phases every key, so the evaluator runs
    # contract and the per-term energy, mean-field matrix and gradient
    hamil = hubbard_model(3, 1.0, 4.0, 2.0) if model == "hubbard-3" else random_hamiltonian(4, rng)
    n = hamil.n_modes
    ev = StateEvaluator(random_pure_covariance(n, rng), np.zeros((n, n)), hamil)
    layout = copy.copy(ev.layout)
    layout.phased = np.arange(len(layout.alphas))
    ref = StateEvaluator(ev.gamma, ev.omega, hamil, layout)
    assert ev.contraction is None and ref.contraction is not None
    assert np.any(ev.gradient())
    _assert_same_results(ev, ref)


def test_zero_omega_evaluator_defers_its_gradient_tables(rng):
    # a Gaussian-baseline state reads its energy and mean-field matrix from
    # the Hamiltonian's quadratic form; the per-key tables appear on the
    # first gradient call, which still matches the per-term path
    hamil = random_hamiltonian(4, rng)
    ev = StateEvaluator(random_pure_covariance(4, rng), np.zeros((4, 4)), hamil)
    ev.energy()
    ev.mean_field_h()
    assert not {"_coeff", "_tables"} & set(vars(ev))
    layout = copy.copy(ev.layout)
    layout.phased = np.arange(len(layout.alphas))
    ref = StateEvaluator(ev.gamma, ev.omega, hamil, layout)
    assert np.any(ev.gradient())
    assert {"_coeff", "_tables"} <= set(vars(ev))
    _assert_same_results(ev, ref)


@pytest.mark.parametrize("model", ["hubbard-5", "random-4"])
def test_mean_field_reads_q_from_l_without_inverting(model, monkeypatch, rng):
    # Q comes from the bundles' L: no q_matrix, no second Gamma_F, no inversion
    hamil = hubbard_model(5, 1.0, 4.0, 2.0) if model == "hubbard-5" else random_hamiltonian(4, rng)
    n = hamil.n_modes
    cov = random_pure_covariance(n, rng)
    w = random_symmetric_zero_diag(n, rng, scale=1.5)
    ev = StateEvaluator(cov, w, hamil)
    assert ev.layout.phased.size > 1
    reference = _reference_mean_field(cov, w, hamil)
    for name in ("q_matrix", "gamma_F", "_gamma_f"):
        monkeypatch.setattr(wick, name, _forbid(name))
    for name in ("inv", "solve", "pinv", "cond"):
        monkeypatch.setattr(np.linalg, name, _forbid(name))
    assert _rel_dev(ev.mean_field_h(), reference) < TOL


def test_singular_gamma_f_key_is_rejected_by_the_denominator_guard():
    # mean_field_h reads Q from L and has no Gamma_F guard of its own: a key whose
    # Gamma_F is singular must already fail when the evaluator is built, by D's
    # guard, since det Gamma_F = 4^N det D.  Keys: 0 (f_00), then one per
    # adjoint pair: (0, 0, pi) for f_01 and f_10 (key 1), and (0, pi, pi) for
    # f_12 and f_21 (key 2), singular on the pair state of modes 0, 1
    f = np.zeros((3, 3), dtype=complex)
    f[0, 0] = 1.0
    f[0, 1] = f[1, 0] = f[1, 2] = f[2, 1] = 0.5
    hamil = ManyBodyHamiltonian(3, f, np.zeros((3, 3, 3, 3)))
    w = np.zeros((3, 3))
    w[1, 2] = w[2, 1] = np.pi
    cov = bell_pair_and_vacuum()
    singular = np.array([0.0, np.pi, np.pi])
    layout = PhaseLayout(w, hamil)
    assert layout.terms == [(0, 0), (0, 1), (1, 2)]
    np.testing.assert_array_equal(layout.alphas[2], singular)
    with pytest.raises(SingularContractionError, match="phase-dressed covariance"):
        wick.q_matrix(cov, singular)
    with pytest.raises(SingularContractionError) as info:
        StateEvaluator(cov, w, hamil)
    assert info.value.index == 2
    assert "one-body term (p,q)=(1,2)" in str(info.value)
    assert "contraction denominator" in str(info.value)
    np.testing.assert_array_equal(info.value.alpha, singular)


def _assert_same_results(ev: StateEvaluator, ref: StateEvaluator) -> None:
    assert _rel_dev(ev.energy(), ref.energy()) < TOL
    assert _rel_dev(ev.gradient(), ref.gradient()) < TOL
    assert _rel_dev(ev.mean_field_h(), ref.mean_field_h()) < TOL


def _assert_matches_per_entry(ev: StateEvaluator) -> None:
    """The folded evaluator against the unfolded per-entry loops, which
    evaluate every entry and its adjoint on their own: the energy, the
    mean-field matrix and the gradient to TOL, and the gradient along a
    random direction against central differences of the per-entry energy
    (a five-point stencil, whose own error is about 1e-12 at this step)."""
    gamma, w, hamil = ev.gamma.gamma, ev.omega, ev.hamil
    assert _rel_dev(ev.energy()[2], _reference_energy(gamma, w, hamil)) < TOL
    assert _rel_dev(ev.mean_field_h(), _reference_mean_field(gamma, w, hamil)) < TOL
    grad = ev.gradient()
    assert _rel_dev(grad, _reference_gradient(gamma, w, hamil)) < TOL
    d = random_symmetric_zero_diag(hamil.n_modes, np.random.default_rng(hamil.n_modes))
    eps = 1e-3

    def energy_at(t):
        return _reference_energy(gamma, w + t * d, hamil)

    fd = (8.0 * (energy_at(eps) - energy_at(-eps)) - (energy_at(2 * eps) - energy_at(-2 * eps))) / (12.0 * eps)
    assert abs(np.sum(grad * d) - fd) <= 1e-10 * max(1.0, abs(fd))


def _one_sided_hamiltonian(n, rng):
    """A random Hamiltonian, Hermitian only to SYMMETRY_TOL, with terms whose
    adjoints are zero: f_02 = 5e-11 with f_20 = 0, h_0123 = 5e-11 (and its
    antisymmetric images) with h_3210 = 0, and a complex f_11."""
    h = random_two_body(n, rng)
    for pq in ((0, 1), (1, 0)):
        for rs in ((2, 3), (3, 2)):
            h[pq + rs] = h[rs + pq] = 0.0
    for (p, q), sign in (((0, 1), 1.0), ((1, 0), -1.0)):
        h[p, q, 2, 3] = sign * 5e-11
        h[p, q, 3, 2] = -sign * 5e-11
    f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f = f + f.conj().T
    f[0, 2], f[2, 0] = 5e-11, 0.0
    f[1, 1] += 5e-11j
    return ManyBodyHamiltonian(n, f, h)


def _model(name, rng):
    """A Hamiltonian by name: "hubbard-L" (t=1, U=4, mu=2, open ends) or
    "hubbard-L-periodic", "random-N" (dense), "nearly-hermitian-4" and
    "one-sided-4"."""
    if name.startswith("hubbard"):
        return hubbard_model(int(name.split("-")[1]), 1.0, 4.0, 2.0, periodic=name.endswith("periodic"))
    kind, size = name.rsplit("-", 1)
    return {
        "random": random_hamiltonian,
        "nearly-hermitian": _nearly_hermitian_hamiltonian,
        "one-sided": _one_sided_hamiltonian,
    }[kind](int(size), rng)


FOLD_MODELS = (
    [f"hubbard-{sites}{ends}" for sites in range(2, 9) for ends in ("", "-periodic")]
    + [f"random-{n}" for n in range(1, 7)]
    + ["nearly-hermitian-4", "one-sided-4"]
)


@pytest.mark.parametrize("model", FOLD_MODELS)
def test_conjugate_keys_change_no_result(model, rng):
    # one term per adjoint pair, and no key for the adjoint's charge: the
    # folded evaluator gives the per-entry results at a nonzero omega, on a
    # pure, a mixed (0.7 gamma) and an off-manifold (gamma + 0.3 d) real gamma
    hamil = _model(model, rng)
    n = hamil.n_modes
    w = random_symmetric_zero_diag(n, rng, scale=1.5)
    gamma = random_pure_covariance(n, rng).gamma
    x = rng.normal(size=gamma.shape)
    for g in (gamma, 0.7 * gamma, gamma + 0.3 * (x - x.T)):
        ev = StateEvaluator(g, w, hamil)
        assert (ev.contraction is None) == (n == 1)  # one mode has no coupling
        _assert_matches_per_entry(ev)


@pytest.mark.parametrize("sites, built", [(5, 8), (6, 10)])
def test_only_one_key_of_each_conjugate_pair_is_built(sites, built, monkeypatch, rng):
    # a Hubbard chain has the zero key and one key per bond and spin, for the
    # hopping and its adjoint; only the built rows reach the batched solve and
    # the batched Pfaffian
    hamil = hubbard_model(sites, 1.0, 4.0, 2.0)
    n = hamil.n_modes
    cov, w = random_pure_covariance(n, rng), random_symmetric_zero_diag(n, rng, scale=1.5)
    stacks = []

    def spy(name, original):
        def counting(mat, *args, **kwargs):
            stacks.append((name, np.shape(mat)[:-2]))
            return original(mat, *args, **kwargs)

        return counting

    monkeypatch.setattr(np.linalg, "solve", spy("solve", np.linalg.solve))
    monkeypatch.setattr(ngfermi.linalg, "pfaffian", spy("pfaffian", ngfermi.linalg.pfaffian))
    ev = StateEvaluator(cov, w, hamil)
    assert len(ev.layout.alphas) == built + 1
    assert stacks == [("solve", (built,)), ("pfaffian", (built,))]


def test_one_charge_is_one_key_past_rounding():
    # acceptance test 05's seventh draw: the terms (1,3) and (1,2,2,3) have the
    # same charge, and phase vectors 1.1e-16 apart from their different sums;
    # a key per charge builds that vector once: 10 keys, 9 built rows
    rng = np.random.default_rng(105)
    for _ in range(7):
        hamil = random_hamiltonian(4, rng)
        cov = random_pure_covariance(4, rng)
        w = random_symmetric_zero_diag(4, rng)
    ev = StateEvaluator(cov, w, hamil)
    lay = ev.layout
    _, _, terms = hamil._term_indices
    assert lay.term_key[terms.index((1, 3))] == lay.term_key[terms.index((1, 2, 2, 3))]
    assert len(lay.alphas) == 10 and len(lay.phased) == 9
    _assert_matches_per_entry(ev)


def test_charge_without_adjoint_term_has_no_mirror(rng):
    # h_0123 = 5e-11 with its adjoint h_3210 = 0, and f_02 = 5e-11 with
    # f_20 = 0, are Hermitian to SYMMETRY_TOL: each is a term of its own,
    # whose adjoint sum and difference are its own coefficient, and no key's
    # charge is the negative of another's
    hamil = _one_sided_hamiltonian(4, rng)
    _, _, terms = hamil._term_indices
    (w1, w2), (r1, r2) = hamil._term_weights, hamil._residue_weights
    lone = terms.index((0, 1, 2, 3))
    assert w2[lone - len(w1)] == r2[lone - len(w1)] == -(1.0 / 32.0) * 4 * 5e-11
    assert w1[terms.index((0, 2))] == r1[terms.index((0, 2))] == 0.25j * 5e-11
    # the complex diagonal f_11 counts once: its real and imaginary parts
    assert (w1[terms.index((1, 1))], r1[terms.index((1, 1))]) == (
        0.25j * hamil.f[1, 1].real, 0.25j * 1j * hamil.f[1, 1].imag
    )
    first_term, _, _, v_keys = hamil._keys
    charges = {tuple(v) for v in v_keys.astype(int).tolist()}
    assert not any(tuple(-x for x in v) in charges for v in charges if any(v))
    ev = StateEvaluator(random_pure_covariance(4, rng), random_symmetric_zero_diag(4, rng, scale=1.5), hamil)
    _assert_matches_per_entry(ev)


def test_singular_key_and_its_partner_name_the_built_term():
    # modes 0, 1 in the equal-weight pair state, modes 2, 3 empty: f_23 has
    # the phase vector (pi, 0, 0.7, -0.7), singular, and its partner f_32 is
    # folded into the same term; the error names key 1 and term (2,3), as
    # contract names that row of the stack
    g = -upsilon(4)
    idx = [0, 1, 4, 5]
    g[np.ix_(idx, idx)] = bell_pair_covariance(np.pi / 4).gamma
    cov = CovarianceMatrix(g)
    f = np.zeros((4, 4), dtype=complex)
    f[0, 0] = 1.0
    f[2, 3] = f[3, 2] = 0.5
    hamil = ManyBodyHamiltonian(4, f, np.zeros((4, 4, 4, 4)))
    w = np.zeros((4, 4))
    w[0, 3] = w[3, 0] = np.pi
    w[1, 2] = w[2, 1] = w[1, 3] = w[3, 1] = 0.5
    w[2, 3] = w[3, 2] = 0.7
    layout = PhaseLayout(w, hamil)
    assert layout.terms == [(0, 0), (2, 3)]
    with pytest.raises(SingularContractionError) as info:
        StateEvaluator(cov, w, hamil, layout)
    with pytest.raises(SingularContractionError) as direct:
        wick.contract(cov, layout.alphas)
    for exc in (info.value, direct.value):
        assert exc.index == 1
        np.testing.assert_allclose(exc.alpha, [np.pi, 0.0, 0.7, -0.7], atol=1e-15)
    assert "one-body term (p,q)=(2,3)" in str(info.value)
    assert str(info.value).endswith(str(direct.value))


def test_gaussian_baseline_calls_no_contract(monkeypatch):
    # at omega = 0 the layout has no phased key: every state of a freeze_omega
    # run reads its energy and mean-field matrix from the Hamiltonian's form
    hamil = hubbard_model(3, 1.0, 4.0, 2.0)
    options = RunOptions(freeze_omega=True, max_steps=20)
    monkeypatch.setattr(wick, "contract", _forbid("wick.contract"))
    monkeypatch.setattr(ngfermi.hamiltonian, "contract", _forbid("wick.contract"))
    state = initial_state(hamil, seed=5)
    final, records, _ = run(hamil, options, state)
    assert len(records) == 21
    assert final.omega is state.omega and final.evaluator.contraction is None


def test_zero_omega_state_builds_its_tables_once(monkeypatch):
    # the omega = 0 start of a hitgd run: its energy, mean-field matrix and
    # first coupling gradient read the block tables of one 2N x 2N matrix,
    # gamma + Upsilon, and call no contract; the trial states of the step, at
    # a nonzero omega, do
    hamil = hubbard_model(3, 1.0, 4.0, 2.0)
    options = RunOptions(max_steps=1, tol_g=0.0)
    built, phased = [], []
    original_tables, original_contract = wick._block_tables, ngfermi.hamiltonian.contract

    def counting_tables(gmat):
        built.append(gmat.shape)
        return original_tables(gmat)

    def counting_contract(gamma, alpha):
        phased.append(bool(np.any(alpha)))
        return original_contract(gamma, alpha)

    monkeypatch.setattr(wick, "_block_tables", counting_tables)
    monkeypatch.setattr(ngfermi.hamiltonian, "contract", counting_contract)
    state = initial_state(hamil, seed=5)
    assert np.any(state.evaluator.gradient())
    state.evaluator.gradient()
    assert built == [(2 * hamil.n_modes,) * 2] and phased == []
    state.evaluator.mean_field_h()
    assert phased == []
    _, records, _ = run(hamil, options, state)
    assert len(records) == 2
    assert phased and all(phased)


def _nearly_hermitian_hamiltonian(n, rng):
    """A random Hamiltonian that the constructor accepts but that is
    Hermitian only to SYMMETRY_TOL: every nonzero h entry and every f entry
    off by up to 5e-11, against h_pqrs = h_srqp and f = f^+."""
    hamil = random_hamiltonian(n, rng)
    h = hamil.h.copy()
    nonzero = h != 0.0
    h[nonzero] += rng.uniform(-5e-11, 5e-11, size=nonzero.sum())
    f = hamil.f + rng.uniform(-5e-11, 5e-11, size=(n, n))
    return ManyBodyHamiltonian(n, f, h)


def test_nearly_hermitian_zero_omega_state_is_the_real_part_and_guards_its_residues(monkeypatch, rng):
    # the form's imaginary rows come from the non-Hermitian parts of f and h;
    # their residues are tiny but nonzero, so a zero IMAG_TOL trips both guards
    hamil = _nearly_hermitian_hamiltonian(4, rng)
    flat, ups, lin, quad = hamil._gaussian_form
    m = len(flat)
    assert m == 28 and lin.shape == (2, m) and quad.shape == (2 * m, m)
    w = np.zeros((4, 4))
    for _ in range(3):
        cov = random_pure_covariance(4, rng)
        e1, e2, _ = StateEvaluator(cov, w, hamil).energy()
        ref = _reference_parts(cov, w, hamil)
        assert abs(e1 - ref[0].real) <= 1e-13 and abs(e2 - ref[1].real) <= 1e-13
        # the imaginary rows give the imaginary parts
        u = cov.gamma.take(flat) + ups
        assert abs(lin[1] @ u - ref[0].imag) <= 1e-15 and abs(0.5 * u @ quad[m:] @ u - ref[1].imag) <= 1e-15
        assert np.max(np.abs(ref.imag)) > 1e-13
    # the energy is quadratic in gamma, so a central difference of the
    # reference's real part is its exact derivative, up to rounding
    h_m = StateEvaluator(cov, w, hamil).mean_field_h()
    step = 1e-2
    fd = np.zeros_like(h_m)
    for i, j in zip(*np.triu_indices(8, 1)):
        d = np.zeros((8, 8))
        d[i, j], d[j, i] = step, -step
        fd[i, j] = (_reference_energy(cov.gamma + d, w, hamil) - _reference_energy(cov.gamma - d, w, hamil)) / step
        fd[j, i] = -fd[i, j]
    assert _rel_dev(h_m, fd) < 1e-10
    monkeypatch.setattr(ngfermi.hamiltonian, "IMAG_TOL", 0.0)
    with pytest.raises(NumericsError, match="energy has imaginary residue"):
        StateEvaluator(cov, w, hamil).energy()
    with pytest.raises(NumericsError, match="mean-field matrix has imaginary residue"):
        StateEvaluator(cov, w, hamil).mean_field_h()


@pytest.mark.parametrize("model", ["nearly-hermitian-4", "one-sided-4"])
def test_nearly_hermitian_phased_state_is_the_real_part_and_guards_its_residues(model, monkeypatch, rng):
    # the omega != 0 twin: the real parts come from the adjoint sums' weights,
    # the residues from the same terms at the adjoint differences' weights,
    # and both match the per-entry loop, which sums every entry on its own
    hamil = _model(model, rng)
    w = random_symmetric_zero_diag(4, rng, scale=1.5)
    for _ in range(3):
        cov = random_pure_covariance(4, rng)
        ev = StateEvaluator(cov, w, hamil)
        assert ev.contraction is not None and ev.layout.residue is not None
        e1, e2, _ = ev.energy()
        ref = _reference_parts(cov, w, hamil)
        assert abs(e1 - ref[0].real) <= 1e-13 and abs(e2 - ref[1].real) <= 1e-13
        _, r1, _, _, r2 = ev._residue
        assert abs(np.sum(r1).imag - ref[0].imag) <= 1e-14 and abs(np.sum(r2).imag - ref[1].imag) <= 1e-14
        assert np.max(np.abs(ref.imag)) > 1e-13
        assert _rel_dev(ev.mean_field_h(), _reference_mean_field(cov, w, hamil)) < TOL
        residue = ev._phased_mean_field(ev._residue).imag
        assert np.max(np.abs(residue - _reference_mean_field(cov, w, hamil, part=np.imag))) <= 1e-14
        assert np.max(np.abs(residue)) > 1e-13
    monkeypatch.setattr(ngfermi.hamiltonian, "IMAG_TOL", 0.0)
    with pytest.raises(NumericsError, match="energy has imaginary residue"):
        StateEvaluator(cov, w, hamil).energy()
    with pytest.raises(NumericsError, match="mean-field matrix has imaginary residue"):
        StateEvaluator(cov, w, hamil).mean_field_h()
    # an exactly Hermitian H forms no residue at omega != 0 either
    hermitian = random_hamiltonian(4, rng)
    ev = StateEvaluator(cov, w, hermitian)
    assert hermitian._residue_weights is None and ev.layout.residue is None
    ev.energy()
    ev.mean_field_h()


@pytest.mark.parametrize("model", ["hubbard-5", "hubbard-3-periodic", "random-4", "random-6"])
def test_hermitian_form_has_no_imaginary_rows(model, monkeypatch, rng):
    # an exactly Hermitian H: the form is real, its residues are exact zeros,
    # and a zero IMAG_TOL raises nothing
    if model.startswith("hubbard"):
        hamil = hubbard_model(int(model.split("-")[1]), 1.0, 4.0, 2.0, periodic=model.endswith("periodic"))
    else:
        hamil = random_hamiltonian(int(model.split("-")[1]), rng)
    n = hamil.n_modes
    flat, _, lin, quad = hamil._gaussian_form
    assert lin.shape == (1, len(flat)) and quad.shape == (len(flat), len(flat))
    monkeypatch.setattr(ngfermi.hamiltonian, "IMAG_TOL", 0.0)
    ev = StateEvaluator(random_pure_covariance(n, rng), np.zeros((n, n)), hamil)
    ev.energy()
    ev.mean_field_h()
