import dataclasses

import numpy as np
import pytest

from conftest import (
    b_tensor_entries,
    curvature_pairs,
    dense_bfgs_direction,
    lbfgs_memory,
    random_hamiltonian,
    random_symmetric_zero_diag,
    simple_step_bound,
)
from ngfermi import hamiltonian as ham
from ngfermi.errors import NumericsError, StagnationError, ValidationError
from ngfermi.gaussian import CovarianceMatrix, random_pure_covariance, upsilon
from ngfermi.hamiltonian import ManyBodyHamiltonian, mean_field_o
import ngfermi.optimizer
from ngfermi.optimizer import (
    ENERGY_INCREASE_TOL,
    LBFGS_MEMORY,
    STEP_GROWTH,
    LastStep,
    RunOptions,
    b_tensor,
    bb_step_length,
    cayley_generator,
    cayley_rotate,
    dtau_gamma,
    dtau_omega_hitgd,
    dtau_omega_simple,
    initial_state,
    lbfgs_direction,
    matricize_b,
    quadratic_form,
    run,
    step,
)


@pytest.fixture(scope="module")
def hubbard():
    return ham.hubbard_model(2, 1.0, 4.0, 2.0)


class TestBTensor:
    def test_vacuum_vanishes(self):
        tensor = b_tensor(-upsilon(3))
        assert np.max(np.abs(b_tensor_entries(tensor))) == 0.0
        assert np.max(np.abs(tensor.g)) == 0.0

    def test_pair_symmetries_exhaustive(self, rng):
        entries = b_tensor_entries(b_tensor(random_pure_covariance(4, rng)))
        np.testing.assert_allclose(entries, np.transpose(entries, (1, 0, 2, 3)))
        np.testing.assert_allclose(entries, np.transpose(entries, (0, 1, 3, 2)))
        np.testing.assert_allclose(entries, np.transpose(entries, (2, 3, 0, 1)))

    def test_zero_diagonal_convention(self, rng):
        entries = b_tensor_entries(b_tensor(random_pure_covariance(3, rng)))
        for k in range(3):
            assert np.max(np.abs(entries[k, k, :, :])) == 0.0
            assert np.max(np.abs(entries[:, :, k, k])) == 0.0

    def test_reduced_matrix_psd(self, rng):
        for _ in range(5):
            reduced = matricize_b(b_tensor(random_pure_covariance(4, rng)))
            np.testing.assert_allclose(reduced, reduced.T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(reduced)) > -1e-10

    def test_quadratic_form_equals_flux_trace(self, rng):
        for _ in range(5):
            cov = random_pure_covariance(4, rng)
            dw = random_symmetric_zero_diag(4, rng)
            lhs = quadratic_form(b_tensor(cov), dw)
            o_m = mean_field_o(cov, dw)
            assert abs(lhs - np.trace(o_m @ o_m).real) < 1e-10


class TestCouplingVelocity:
    def test_zero_gradient(self, rng):
        tensor = b_tensor(random_pure_covariance(3, rng))
        assert np.max(np.abs(dtau_omega_hitgd(tensor, np.zeros((3, 3))))) == 0.0

    def test_single_mode_has_no_couplings(self, rng):
        tensor = b_tensor(random_pure_covariance(1, rng))
        assert simple_step_bound(tensor) == 0.0
        assert np.array_equal(dtau_omega_hitgd(tensor, np.zeros((1, 1))), np.zeros((1, 1)))

    def test_vacuum_tensor_gives_zero(self, rng):
        tensor = b_tensor(-upsilon(3))
        grad = random_symmetric_zero_diag(3, rng)
        assert np.max(np.abs(dtau_omega_hitgd(tensor, grad))) == 0.0

    def test_cancellation_identity(self, rng):
        for _ in range(10):
            cov = random_pure_covariance(4, rng)
            tensor = b_tensor(cov)
            grad = random_symmetric_zero_diag(4, rng)
            dw = dtau_omega_hitgd(tensor, grad)
            residual = quadratic_form(tensor, dw) / 8.0 + float(np.sum(grad * dw))
            assert abs(residual) < 1e-10

    def test_output_symmetric_zero_diag(self, rng):
        tensor = b_tensor(random_pure_covariance(3, rng))
        dw = dtau_omega_hitgd(tensor, random_symmetric_zero_diag(3, rng))
        np.testing.assert_allclose(dw, dw.T)
        assert np.max(np.abs(np.diag(dw))) == 0.0

    def test_simple_variant(self, rng):
        grad = random_symmetric_zero_diag(3, rng)
        np.testing.assert_allclose(dtau_omega_simple(grad, 2.0), -grad / 2.0)
        np.testing.assert_allclose(
            dtau_omega_simple(grad, 4.0), 0.5 * dtau_omega_simple(grad, 2.0)
        )
        assert np.max(np.abs(dtau_omega_simple(np.zeros((3, 3)), 1.0))) == 0.0

    def test_simple_variant_rejects_nonpositive(self, rng):
        with pytest.raises(ValidationError):
            dtau_omega_simple(np.zeros((2, 2)), 0.0)

    def test_simple_bound_guarantees_descent_term(self, rng):
        # with c above the spectral bound, the coupling contribution to the
        # energy derivative is non-positive
        for _ in range(5):
            cov = random_pure_covariance(4, rng)
            tensor = b_tensor(cov)
            grad = random_symmetric_zero_diag(4, rng)
            c = simple_step_bound(tensor) * (1.0 + 1e-6)
            dw = dtau_omega_simple(grad, c)
            term = quadratic_form(tensor, dw) / 8.0 + float(np.sum(grad * dw))
            assert term <= 1e-12


class TestDtauGamma:
    def test_zero_inputs(self, rng):
        cov = random_pure_covariance(3, rng)
        out = dtau_gamma(cov, np.zeros((6, 6)), np.zeros((6, 6)))
        assert np.max(np.abs(out)) == 0.0

    def test_skew_without_flux_term(self, rng):
        cov = random_pure_covariance(3, rng)
        h = rng.standard_normal((6, 6))
        h = 0.5 * (h - h.T)
        out = dtau_gamma(cov, h, np.zeros((6, 6)))
        np.testing.assert_allclose(out, -out.T, atol=1e-12)

    def test_no_flux_term_equals_zero_o(self, rng):
        # a zero coupling velocity passes no O; its commutator term is exactly zero
        cov = random_pure_covariance(3, rng)
        h = rng.standard_normal((6, 6))
        h = 0.5 * (h - h.T)
        expected = dtau_gamma(cov, h, mean_field_o(cov, np.zeros((3, 3))))
        assert dtau_gamma(cov, h).tobytes() == expected.tobytes()

    def test_purity_tangency(self, rng):
        for _ in range(50):
            cov = random_pure_covariance(3, rng)
            h = rng.standard_normal((6, 6))
            h = 0.5 * (h - h.T)
            dw = random_symmetric_zero_diag(3, rng)
            out = dtau_gamma(cov, h, mean_field_o(cov, dw))
            anti = cov.gamma @ out + out @ cov.gamma
            assert np.max(np.abs(anti)) < 1e-10


class TestFlowDescentRate:
    def test_predicted_rate_matches_finite_differences(self, rng):
        # joint check of every sign and factor in the flow: the energy slope
        # along (dgamma, domega) equals (1/8) tr(([H_m, gamma] - iO)^2) once
        # the coupling velocity cancels its own term, and is never positive
        for _ in range(4):
            hamil = random_hamiltonian(3, rng)
            cov = random_pure_covariance(3, rng)
            w = random_symmetric_zero_diag(3, rng)
            grad = ham.energy_gradient_omega(cov, w, hamil)
            tensor = b_tensor(cov)
            dw = dtau_omega_hitgd(tensor, grad)
            o_m = mean_field_o(cov, dw)
            h_m = ham.mean_field_h(cov, w, hamil)
            dg = dtau_gamma(cov, h_m, o_m)
            comm = h_m @ cov.gamma - cov.gamma @ h_m
            x = comm - 1j * o_m
            predicted = np.trace(x @ x).real / 8.0
            assert predicted <= 1e-12
            h = 1e-6
            ep = ham.energy(cov.gamma + h * dg, w + h * dw, hamil)[2]
            em = ham.energy(cov.gamma - h * dg, w - h * dw, hamil)[2]
            fd = (ep - em) / (2.0 * h)
            assert abs(predicted - fd) < 1e-6 * max(1.0, abs(fd))


class TestStep:
    def test_zero_hamiltonian_only_advances_time(self, rng):
        hamil = ManyBodyHamiltonian(3, np.zeros((3, 3)), np.zeros((3,) * 4))
        state = initial_state(hamil, seed=3)
        new, info = step(state, hamil)
        assert new.tau > state.tau
        np.testing.assert_allclose(new.gamma.gamma, state.gamma.gamma, atol=1e-12)
        np.testing.assert_allclose(new.omega.omega, state.omega.omega, atol=1e-12)
        assert new.energy == pytest.approx(state.energy)

    def test_first_step_decreases_from_nonstationary_init(self, hubbard):
        state = initial_state(hubbard, seed=7)
        new, _ = step(state, hubbard)
        assert new.energy < state.energy - 1e-6

    def test_first_step_decreases_from_three_site_mean_field(self):
        # the two-site half-filled mean-field point is stationary for both
        # flows; the three-site one is not, so the first step must descend
        hamil = ham.hubbard_model(3, 1.0, 4.0, 2.0)
        state = initial_state(hamil)
        new, _ = step(state, hamil)
        assert new.energy < state.energy - 1e-3

    def test_purity_preserved(self, hubbard):
        state = initial_state(hubbard, seed=7)
        for _ in range(3):
            state, _ = step(state, hubbard)
        assert state.gamma.purity_error < 1e-10

    def test_backtracking_recovers_from_large_step(self, hubbard):
        options = RunOptions(dtau0=50.0, tol_g=1e-12)
        state = initial_state(hubbard, seed=1)
        new, info = step(state, hubbard, options)
        assert info.backtracks > 0
        assert new.energy <= state.energy + 1e-12
        assert info.dtau < 50.0

    def test_frozen_step_and_run_record_no_gradient_norm(self):
        # a frozen run computes no gradient, so it reports none (not 0.0)
        hamil = ham.hubbard_model(3, 1.0, 4.0, 2.0)
        options = RunOptions(freeze_omega=True, max_steps=3, tol_e=0.0)
        state = initial_state(hamil, seed=1)
        _, info = step(state, hamil, options)
        _, records, _ = run(hamil, options, state)
        assert len(records) == 4
        assert all(np.isnan(r.grad_norm) for r in records)
        assert all(r.as_dict()["grad_norm"] is None for r in records)
        _, records, _ = run(hamil, RunOptions(max_steps=3, tol_g=0.0), state)
        assert all(r.grad_norm > 0.0 for r in records[1:])

    def test_stagnation_error(self, hubbard):
        options = RunOptions(dtau0=50.0, dtau_max=50.0, dtau_min=40.0, tol_g=1e-12)
        state = initial_state(hubbard, seed=1)
        with pytest.raises(StagnationError):
            step(state, hubbard, options)

    def test_rise_just_past_tolerance_is_rejected(self, hubbard, monkeypatch):
        # here E + 1e-12 rounds to a value more than 1e-12 above E
        e0 = -10.697221147942461
        trial = e0 + ENERGY_INCREASE_TOL
        assert trial - e0 > ENERGY_INCREASE_TOL
        options = RunOptions(dtau0=1e-3, dtau_min=5e-4)
        state = dataclasses.replace(initial_state(hubbard, seed=1), energy=e0)
        monkeypatch.setattr(ham.StateEvaluator, "energy", lambda self: (0.0, 0.0, trial))
        with pytest.raises(StagnationError):
            step(state, hubbard, options)


class TestCayleyStep:
    @pytest.mark.parametrize("tau", [1e-3, 50.0], ids=["short", "long"])
    def test_result_is_an_exactly_skew_read_only_covariance(self, tau, rng):
        # the rotated gamma is wrapped without the validating constructor, so
        # it must be exactly what that constructor makes of it
        hamil = random_hamiltonian(3, rng)
        gamma = random_pure_covariance(3, rng)
        h_m = ham.mean_field_h(gamma, np.zeros((3, 3)), hamil)
        o_m = mean_field_o(gamma, random_symmetric_zero_diag(3, rng, scale=1.0))
        g = cayley_rotate(gamma, cayley_generator(gamma, h_m, o_m), tau).gamma
        assert np.array_equal(g, -g.T)
        assert g.dtype == np.float64 and g.flags.c_contiguous and np.all(np.isfinite(g))
        assert not g.flags.writeable
        with pytest.raises(ValueError):
            g[0, 1] = 0.0
        np.testing.assert_array_equal(CovarianceMatrix(g).gamma, g)
        assert CovarianceMatrix(g).purity_error < 1e-12

    @pytest.mark.parametrize("n, seed", [(3, 36), (5, 13), (5, 33)])
    def test_long_trials_stay_pure_to_rounding(self, n, seed):
        # draws where the plain solve leaves C off orthogonal by 2e-13 to
        # 1.4e-12 at tau = 1e2 or 1e3; the Newton-Schulz pass on C repairs it
        rng = np.random.default_rng(seed)
        gamma = random_pure_covariance(n, rng)
        h_m = ham.mean_field_h(gamma, np.zeros((n, n)), random_hamiltonian(n, rng))
        o_m = mean_field_o(gamma, random_symmetric_zero_diag(n, rng, scale=1.0))
        k = cayley_generator(gamma, h_m, o_m)
        for tau in (1e2, 1e3):
            assert cayley_rotate(gamma, k, tau).purity_error <= 1e-13

    def test_long_frozen_steps_call_no_eigh_and_stay_pure(self, monkeypatch):
        # dtau0 = 1 gives long trials; a rotation needs no projection, so no
        # trial calls eigh and every accepted state is pure
        hamil = ham.hubbard_model(3, 1.0, 4.0, 2.0)
        options = RunOptions(freeze_omega=True, dtau0=1.0)
        state = initial_state(hamil, seed=1)
        calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda mat: calls.append(1) or real(mat))
        _, records, reason = run(hamil, options, state)
        assert reason == "energy" and len(records) > 10
        assert calls == []
        assert all(r.purity_err <= 1e-12 for r in records)

    def test_non_finite_generator_is_a_numerics_error(self, hubbard, monkeypatch):
        state = initial_state(hubbard, seed=1)
        nan = np.full(state.gamma.gamma.shape, np.nan)
        monkeypatch.setattr(ham.StateEvaluator, "mean_field_h", lambda self: nan)
        with pytest.raises(NumericsError):
            step(state, hubbard, RunOptions(freeze_omega=True))


def _after_step(tau, dgamma, domega, long):
    """A state reached by a step of length tau with the given velocities."""
    state = initial_state(ham.hubbard_model(2, 1.0, 4.0, 2.0), seed=1)
    return dataclasses.replace(state, last_step=LastStep(tau, dgamma=dgamma, domega=domega, long=long))


class TestStepLength:
    # v_k and v not parallel: |v_k|^2 = 10, v_k.y = 2 and |y|^2 = 4 for y = v_k - v
    V_K = np.array([[0.0, 2.0, 1.0], [-2.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    V = np.array([[0.0, 1.0, 2.0], [-1.0, 0.0, 0.0], [-2.0, 0.0, 0.0]])

    def test_first_step_uses_dtau0(self, hubbard, monkeypatch):
        options = RunOptions(dtau0=0.05)
        state = initial_state(hubbard, seed=7)
        assert state.last_step is None
        assert bb_step_length(state, options, self.V, None) == 0.05
        taus = []
        real = ngfermi.optimizer.cayley_rotate
        monkeypatch.setattr(
            ngfermi.optimizer, "cayley_rotate", lambda g, k, tau: taus.append(tau) or real(g, k, tau)
        )
        new, info = step(state, hubbard, options)
        assert taus[0] == 0.05 and info.dtau == taus[-1]
        assert new.last_step.dtau == info.dtau and new.last_step.long

    def test_long_and_short_lengths_alternate(self, hubbard):
        # s.s = tau^2 |v_k|^2 = 10 tau^2, s.y = tau v_k.y = 2 tau, y.y = 4
        tau, options = 0.1, RunOptions()
        long = bb_step_length(_after_step(tau, self.V_K, None, True), options, self.V, None)
        short = bb_step_length(_after_step(tau, self.V_K, None, False), options, self.V, None)
        assert long == pytest.approx(10 * tau**2 / (2 * tau))
        assert short == pytest.approx(2 * tau / 4)
        # a run flips the choice at every step, starting with the long one
        state = initial_state(hubbard, seed=7)
        flags = []
        for _ in range(4):
            state, _ = step(state, hubbard, options)
            flags.append(state.last_step.long)
        assert flags == [True, False, True, False]

    def test_nonpositive_curvature_falls_back_to_growth(self):
        # v = 2 v_k: s.y = -tau |v_k|^2 < 0; v = v_k: y = 0 and s.y = 0
        for options, expected in ((RunOptions(), STEP_GROWTH * 0.1), (RunOptions(dtau_max=0.11), 0.11)):
            for v in (2.0 * self.V_K, self.V_K):
                for long in (True, False):
                    state = _after_step(0.1, self.V_K, None, long)
                    assert bb_step_length(state, options, v, None) == expected

    def test_every_length_is_capped_at_dtau_max(self):
        options = RunOptions(dtau_max=0.5)
        for long in (True, False):
            state = _after_step(10.0, self.V_K, None, long)
            assert bb_step_length(state, options, self.V, None) == 0.5

    def test_couplings_enter_only_when_both_steps_moved_them(self):
        options = RunOptions()
        w_k = np.array([[0.0, 3.0], [3.0, 0.0]])
        w = np.array([[0.0, -1.0], [-1.0, 0.0]])
        plain = bb_step_length(_after_step(0.1, self.V_K, None, True), options, self.V, None)
        for last, now in ((None, w), (w_k, None)):
            state = _after_step(0.1, self.V_K, last, True)
            assert bb_step_length(state, options, self.V, now) == plain
        # both moved: s.s = 0.01 (10 + 18), s.y = 0.1 (2 + 24)
        both = bb_step_length(_after_step(0.1, self.V_K, w_k, True), options, self.V, w)
        assert both == pytest.approx(0.01 * 28 / (0.1 * 26))
        assert both != plain


def _frozen_after(state, direction, memory, tau=0.1):
    """``state`` as if a frozen step of length tau along ``direction`` reached it."""
    return dataclasses.replace(state, last_step=LastStep(tau, direction=direction, memory=memory))


class TestLBFGS:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_two_loop_matches_dense_bfgs(self, m, rng):
        for _ in range(5):
            pairs = curvature_pairs(rng, m, 12)
            k = rng.standard_normal(12)
            p, theta = lbfgs_direction(lbfgs_memory(pairs, k))
            expected, expected_theta = dense_bfgs_direction(pairs, k)
            assert theta == pytest.approx(expected_theta, rel=1e-12)
            assert np.linalg.norm(p - expected) <= 1e-12 * np.linalg.norm(expected)
            assert p @ k > 0.0

    def _state_and_generator(self, hubbard):
        state = initial_state(hubbard, seed=7)
        h_m = state.evaluator.mean_field_h()
        return state, cayley_generator(state.gamma, h_m)

    def test_pair_with_nonpositive_curvature_is_skipped(self, hubbard, rng):
        state, k = self._state_and_generator(hubbard)
        old = lbfgs_memory(curvature_pairs(rng, 2, k.size), rng.standard_normal(k.size))
        for direction in (k, np.zeros_like(k)):
            # the last generator K_k = K - tau p makes y = -s: s.y = -|s|^2 < 0, or 0 for p = 0
            last_k = k.ravel() - 0.1 * direction.ravel()
            last = _frozen_after(state, direction, np.concatenate((old[:-1], last_k[None])), tau=0.1)
            p, length, memory = ngfermi.optimizer.lbfgs_step(last, RunOptions(), k)
            # the two old pairs stay, with the new K
            np.testing.assert_array_equal(memory, np.concatenate((old[:-1], k.ravel()[None])))
            expected, theta = lbfgs_direction(memory)
            np.testing.assert_array_equal(p, expected.reshape(k.shape))
            assert length == min(max(theta, 1e-8), 1.0)

    def test_empty_memory_takes_the_generator_and_the_fallback_length(self, hubbard):
        state, k = self._state_and_generator(hubbard)
        options = RunOptions(dtau0=0.05, dtau_max=0.5)
        p, length, memory = ngfermi.optimizer.lbfgs_step(state, options, k)
        assert p is k and length == 0.05
        np.testing.assert_array_equal(memory, k.ravel()[None])
        # after a frozen step whose one pair curves the wrong way (s.y < 0) ...
        last = _frozen_after(state, k, (k.ravel() - 0.1 * k.ravel())[None], tau=0.1)
        p, length, _ = ngfermi.optimizer.lbfgs_step(last, options, k)
        assert p is k and length == STEP_GROWTH * 0.1
        # ... and after a step that moved omega, which keeps no memory; both capped
        for tau, expected in ((0.1, STEP_GROWTH * 0.1), (0.45, 0.5)):
            moved = dataclasses.replace(state, last_step=LastStep(tau, dgamma=k, long=True))
            p, length, _ = ngfermi.optimizer.lbfgs_step(moved, options, k)
            assert p is k and length == expected

    @pytest.mark.parametrize("theta, expected", [(1e3, 0.5), (1e-12, 1e-6), (0.25, 0.25)])
    def test_first_length_is_theta_clipped(self, hubbard, rng, theta, expected):
        # y = s / theta gives s.y / y.y = theta
        state, k = self._state_and_generator(hubbard)
        s = rng.standard_normal(k.size)
        last = _frozen_after(state, s.reshape(k.shape), (k.ravel() + s / theta)[None], tau=1.0)
        options = RunOptions(dtau_min=1e-6, dtau_max=0.5)
        _, length, memory = ngfermi.optimizer.lbfgs_step(last, options, k)
        assert len(memory) == 3
        assert lbfgs_direction(memory)[1] == pytest.approx(theta, rel=1e-12)
        assert length == pytest.approx(expected, rel=1e-12)

    def test_memory_keeps_the_newest_pairs_up_to_its_cap(self, hubbard):
        options = RunOptions(freeze_omega=True)
        state = initial_state(hubbard, seed=7)
        state, _ = step(state, hubbard, options)
        assert len(state.last_step.memory) == 1  # the first step keeps K alone
        sizes = []
        for _ in range(LBFGS_MEMORY + 3):
            last, k = state.last_step, cayley_generator(state.gamma, state.evaluator.mean_field_h())
            state, _ = step(state, hubbard, options)
            old, memory = last.memory, state.last_step.memory
            m_old, m = len(old) // 2, len(memory) // 2
            sizes.append(m)
            # every pair here curves the right way: the new one joins, the oldest leaves at the cap
            assert m == min(m_old + 1, LBFGS_MEMORY)
            keep = m - 1
            np.testing.assert_array_equal(memory[:keep], old[m_old - keep:m_old])
            np.testing.assert_array_equal(memory[m:m + keep], old[2 * m_old - keep:2 * m_old])
            np.testing.assert_array_equal(memory[keep], last.dtau * last.direction.ravel())
            np.testing.assert_array_equal(memory[2 * m - 1], last.memory[-1] - k.ravel())
            np.testing.assert_array_equal(memory[-1], k.ravel())
        assert sizes[-1] == LBFGS_MEMORY

    def test_a_step_that_moves_omega_drops_the_memory(self, hubbard, rng, monkeypatch):
        frozen = RunOptions(freeze_omega=True)
        state = initial_state(hubbard, seed=7)
        for _ in range(3):
            state, _ = step(state, hubbard, frozen)
        assert len(state.last_step.memory) > 1
        grad = random_symmetric_zero_diag(4, rng, scale=0.1)
        moved, _ = step(state, hubbard, RunOptions(), grad=grad)
        assert moved.last_step.memory is None and moved.last_step.direction is None
        assert moved.last_step.dgamma is not None
        # the next frozen step starts over: p = K, the growth length, and no pair
        trials = []
        real = ngfermi.optimizer.cayley_rotate

        def recording(gamma, direction, tau):
            trials.append((direction, tau))
            return real(gamma, direction, tau)

        monkeypatch.setattr(ngfermi.optimizer, "cayley_rotate", recording)
        after, _ = step(moved, hubbard, frozen)
        k = cayley_generator(moved.gamma, moved.evaluator.mean_field_h())
        np.testing.assert_array_equal(trials[0][0], k)
        assert trials[0][1] == min(STEP_GROWTH * moved.last_step.dtau, 1.0)
        assert len(after.last_step.memory) == 1

    def test_a_moving_step_never_enters_the_lbfgs_code(self, hubbard, monkeypatch):
        for name in ("lbfgs_step", "lbfgs_direction"):
            monkeypatch.setattr(ngfermi.optimizer, name, _forbid(name))
        options = RunOptions(max_steps=8, tol_g=0.0)
        final, records, _ = run(hubbard, options, initial_state(hubbard, seed=7))
        assert len(records) == 9 and all(r.grad_norm > 0.0 for r in records[1:])
        assert final.last_step.memory is None


class TestFrozenStepCounts:
    # the Gaussian baseline to its energy stop; alternating Barzilai-Borwein
    # lengths along K took 112-130 steps at Hubbard L=5 and 153-187 on the
    # dense N=4 Hamiltonian from these starts
    E_HUBBARD_5 = -10.697221147958

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_hubbard_chain(self, seed):
        hamil = ham.hubbard_model(5, 1.0, 4.0, 2.0)
        final, records, reason = run(hamil, RunOptions(freeze_omega=True), initial_state(hamil, seed=seed))
        assert reason == "energy" and len(records) - 1 <= 70
        assert abs(final.energy - self.E_HUBBARD_5) <= 1e-10

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_dense_hamiltonian(self, seed):
        hamil = random_hamiltonian(4, np.random.default_rng(7))
        final, records, reason = run(hamil, RunOptions(freeze_omega=True), initial_state(hamil, seed=seed))
        assert reason == "energy" and len(records) - 1 <= 60


def _forbid(name):
    def raise_(*args, **kwargs):
        raise AssertionError(f"{name} entered")

    return raise_


class TestRun:
    def test_converged_input_returns_immediately(self, hubbard):
        # the symmetric mean-field point has an exactly vanishing coupling
        # gradient, so the run stops before the first step
        options = RunOptions(tol_g=1e-7)
        final, records, reason = run(hubbard, options)
        assert reason == "gradient"
        assert len(records) == 1
        assert final.energy == pytest.approx(-4.0, abs=1e-10)

    def test_vanishing_gradient_off_a_stationary_point_does_not_stop(self):
        # the mean-field start of Hubbard L=3 has an exactly vanishing coupling
        # gradient at omega = 0, but a covariance velocity of 1: the run must
        # go on to the Gaussian optimum, and stop on the gradient only there
        hamil = ham.hubbard_model(3, 1.0, 4.0, 2.0)
        state = initial_state(hamil)
        assert not ham.energy_gradient_omega(state.gamma, state.omega, hamil).any()
        options = RunOptions()
        final, records, reason = run(hamil, options, state)
        assert reason == "gradient"
        h_m = ham.mean_field_h(final.gamma, final.omega, hamil)
        assert np.max(np.abs(dtau_gamma(final.gamma, h_m))) < options.tol_g
        assert len(records) > 1
        assert final.energy < -6.96

    def test_monotone_energy(self, hubbard):
        options = RunOptions(max_steps=40, tol_g=1e-10, tol_e=1e-14)
        final, records, _ = run(hubbard, options, initial_state(hubbard, seed=7))
        energies = [r.energy for r in records]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
        assert final.energy < energies[0]

    def test_bit_stable_repetition(self, hubbard):
        options = RunOptions(max_steps=15, tol_g=1e-10)
        runs = []
        for _ in range(2):
            final, records, _ = run(hubbard, options, initial_state(hubbard, seed=5))
            # skip the step-0 record, whose grad_norm placeholder is NaN
            runs.append([(r.tau, r.energy, r.grad_norm, r.dtau) for r in records[1:]])
        assert runs[0] == runs[1]

    def test_flux_run_not_above_frozen_run(self, hubbard):
        # both runs must actually converge before the comparison is meaningful
        base = dict(max_steps=1500, tol_g=1e-8, tol_e=1e-12, patience=15)
        opts_ngs = RunOptions(**base)
        opts_g = RunOptions(freeze_omega=True, **base)
        final_ngs, _, reason_ngs = run(hubbard, opts_ngs, initial_state(hubbard, seed=11))
        final_g, _, reason_g = run(hubbard, opts_g, initial_state(hubbard, seed=11))
        assert reason_ngs != "max_steps" and reason_g != "max_steps"
        assert final_ngs.energy <= final_g.energy + 1e-9

    def test_simple_update_with_spectral_bound(self, hubbard):
        state = initial_state(hubbard, seed=7)
        c = simple_step_bound(b_tensor(state.gamma)) * (1.0 + 1e-6)
        options = RunOptions(omega_update="simple", simple_c=c, max_steps=30, tol_g=1e-10)
        final, records, _ = run(hubbard, options, state)
        energies = [r.energy for r in records]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    def test_initial_state_takes_keywords_after_the_hamiltonian(self, hubbard):
        # a stale call passing options second fails instead of binding them to gamma
        with pytest.raises(TypeError):
            initial_state(hubbard, RunOptions())
        with pytest.raises(TypeError):
            initial_state(hubbard, None, None, None, 0.5, 3)

    def test_options_validation(self):
        with pytest.raises(ValidationError):
            RunOptions(omega_update="simple")  # missing coefficient
        with pytest.raises(ValidationError):
            RunOptions(dtau0=-1.0)
        with pytest.raises(ValidationError):
            RunOptions(omega_update="newton")


class TestModuleGlobalHooks:
    # `run` enters `step` through its module global, where the benchmark times
    # each iteration, and every state's evaluator is built through the module
    # global `StateEvaluator`, where states can be counted
    @pytest.mark.parametrize("freeze", [False, True], ids=["hitgd", "freeze_omega"])
    def test_steps_and_states_go_through_module_globals(self, hubbard, monkeypatch, freeze):
        counts = {"step": 0, "StateEvaluator": 0}
        for name in counts:
            original = getattr(ngfermi.optimizer, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(ngfermi.optimizer, name, counting)
        options = RunOptions(freeze_omega=freeze, max_steps=15)
        _, records, _ = run(hubbard, options, initial_state(hubbard, seed=2))
        backtracks = sum(r.backtracks for r in records)
        assert len(records) > 1 and backtracks > 0
        assert counts["step"] == len(records) - 1
        assert counts["StateEvaluator"] == 1 + counts["step"] + backtracks
