import numpy as np
import pytest

from conftest import random_hamiltonian, random_symmetric_zero_diag
from ngfermi import oracle
from ngfermi.errors import DimensionError, ResourceLimitError
from ngfermi.gaussian import covariance_from_xi, occupation_numbers, random_generator
from ngfermi.hamiltonian import ManyBodyHamiltonian, hubbard_model
from ngfermi.linalg import skew_exp


class TestFockOperators:
    def test_single_mode_matrix(self):
        ops = oracle.fock_operators(1)
        np.testing.assert_array_equal(ops.annihilators[0], [[0.0, 1.0], [0.0, 0.0]])

    def test_canonical_anticommutators(self):
        ops = oracle.fock_operators(3)
        dim = 8
        for j in range(3):
            for k in range(3):
                cj, ck = ops.annihilators[j], ops.annihilators[k]
                anti = cj @ ck + ck @ cj
                assert np.max(np.abs(anti)) < 1e-14
                mixed = cj @ ck.conj().T + ck.conj().T @ cj
                target = np.eye(dim) if j == k else np.zeros((dim, dim))
                assert np.max(np.abs(mixed - target)) < 1e-14

    def test_nilpotency(self):
        ops = oracle.fock_operators(2)
        for c in ops.annihilators:
            assert np.max(np.abs(c @ c)) == 0.0

    def test_mode_cap(self):
        with pytest.raises(ResourceLimitError):
            oracle.fock_operators(13)


class TestDenseState:
    def test_trivial_parameters_give_vacuum(self):
        state = oracle.dense_state(np.zeros((4, 4)), np.zeros((2, 2)))
        expected = np.zeros(4)
        expected[0] = 1.0
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-14)

    def test_normalized(self, rng):
        for _ in range(5):
            params = random_generator(3, rng)
            w = random_symmetric_zero_diag(3, rng)
            state = oracle.dense_state(params.xi, w)
            assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_occupations_match_covariance(self, rng):
        params = random_generator(3, rng)
        state = oracle.dense_state(params.xi, np.zeros((3, 3)))
        ops = oracle.fock_operators(3)
        dense_occ = [
            float(np.vdot(state.amplitudes, ops.number(j) @ state.amplitudes).real)
            for j in range(3)
        ]
        np.testing.assert_allclose(
            occupation_numbers(covariance_from_xi(params)), dense_occ, atol=1e-10
        )

    def test_exponential_cap(self):
        with pytest.raises(ResourceLimitError):
            oracle.dense_state(np.zeros((22, 22)), np.zeros((11, 11)))


class TestGaussianUnitary:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_unitary_and_rotates_majoranas_by_skew_exp(self, n, rng):
        # W^dag A_k W = sum_m U_km A_m with U = skew_exp(xi): the convention of
        # gamma = -U Upsilon U^T that covariance_from_xi builds
        params = random_generator(n, rng, scale=3.0)
        w = oracle.gaussian_unitary(params)
        u = skew_exp(params.xi)
        np.testing.assert_allclose(w @ w.conj().T, np.eye(2 ** n), rtol=0, atol=1e-12)
        ops = oracle.fock_operators(n)
        majorana = [ops.creator(j) + ops.annihilators[j] for j in range(n)]
        majorana += [1j * (ops.creator(j) - ops.annihilators[j]) for j in range(n)]
        for k in range(2 * n):
            rotated = sum(u[k, m] * majorana[m] for m in range(2 * n))
            np.testing.assert_allclose(w.conj().T @ majorana[k] @ w, rotated, rtol=0, atol=1e-12)


class TestDenseExpectation:
    def test_norm_with_empty_string(self, rng):
        params = random_generator(2, rng)
        state = oracle.dense_state(params.xi, np.zeros((2, 2)))
        assert oracle.dense_expectation(state, np.zeros(2), ()) == pytest.approx(1.0)

    def test_vacuum_number_vanishes(self):
        state = oracle.dense_state(np.zeros((4, 4)), np.zeros((2, 2)))
        val = oracle.dense_expectation(state, np.zeros(2), ((0, True), (0, False)))
        assert abs(val) < 1e-14

    def test_phase_on_occupied_mode(self):
        # fully occupy mode 0 via a Bogoliubov pair rotation on two modes,
        # then phase it by pi
        theta = np.pi / 2
        ixi = np.zeros((4, 4))
        ixi[0, 3] = theta
        ixi[3, 0] = -theta
        ixi[1, 2] = -theta
        ixi[2, 1] = theta
        state = oracle.dense_state(-1j * ixi, np.zeros((2, 2)))
        val = oracle.dense_expectation(state, np.array([np.pi, 0.0]), ())
        assert val == pytest.approx(-1.0)


class TestDenseGround:
    def test_zero_hamiltonian(self):
        hamil = ManyBodyHamiltonian(2, np.zeros((2, 2)), np.zeros((2,) * 4))
        e0, state = oracle.dense_ground(hamil)
        assert e0 == 0.0
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0)

    def test_hubbard_analytic_value(self):
        e0, _ = oracle.dense_ground(hubbard_model(2, 1.0, 4.0, 2.0))
        assert e0 == pytest.approx(2.0 - 2.0 * np.sqrt(2.0) - 4.0, abs=1e-10)

    def test_free_fermion_filled_sea(self):
        hamil = hubbard_model(3, 1.0, 0.0, 0.4)
        e0, _ = oracle.dense_ground(hamil)
        vals = np.linalg.eigvalsh(hamil.f)
        assert e0 == pytest.approx(np.sum(vals[vals < 0]), abs=1e-10)

    def test_ground_state_is_eigenvector(self, rng):
        hamil = random_hamiltonian(3, rng)
        e0, state = oracle.dense_ground(hamil)
        hmat = oracle.dense_hamiltonian_matrix(hamil)
        residual = hmat @ state.amplitudes - e0 * state.amplitudes
        assert np.max(np.abs(residual)) < 1e-10


class TestOverlap:
    def test_self_overlap(self, rng):
        params = random_generator(2, rng)
        state = oracle.dense_state(params.xi, np.zeros((2, 2)))
        assert oracle.overlap(state, state) == pytest.approx(1.0)

    def test_orthogonal_basis_states(self):
        a = np.zeros(4, dtype=complex)
        a[0] = 1.0
        b = np.zeros(4, dtype=complex)
        b[3] = 1.0
        assert oracle.overlap(oracle.DenseState(a), oracle.DenseState(b)) == 0.0

    def test_dimension_mismatch(self):
        a = np.zeros(4, dtype=complex)
        a[0] = 1.0
        b = np.zeros(8, dtype=complex)
        b[0] = 1.0
        with pytest.raises(DimensionError):
            oracle.overlap(oracle.DenseState(a), oracle.DenseState(b))
