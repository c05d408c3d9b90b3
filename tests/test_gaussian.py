import warnings

import numpy as np
import pytest

from conftest import bell_pair_covariance, dense_covariance
from ngfermi import oracle
from ngfermi.errors import ValidationError
from ngfermi.gaussian import (
    CovarianceMatrix,
    GaussianParams,
    covariance_from_xi,
    mean_field_covariance,
    occupation_numbers,
    random_generator,
    random_pure_covariance,
    slater_covariance,
    upsilon,
)


class TestSymplecticForm:
    def test_squares_to_minus_one(self):
        for n in (1, 2, 5):
            ups = upsilon(n)
            np.testing.assert_allclose(ups @ ups, -np.eye(2 * n))
            np.testing.assert_allclose(ups.T, -ups)

    def test_built_once_and_read_only(self):
        assert upsilon(3) is upsilon(3)
        with pytest.raises(ValueError):
            upsilon(3)[0, 3] = 2.0
        np.testing.assert_array_equal(np.diag(upsilon(3)[:3, 3:]), np.ones(3))


class TestCovarianceFromXi:
    def test_zero_gives_vacuum(self):
        cov = covariance_from_xi(np.zeros((4, 4)))
        np.testing.assert_allclose(cov.gamma, -upsilon(2), atol=1e-14)

    def test_purity(self, rng):
        for n in (1, 2, 4):
            cov = covariance_from_xi(random_generator(n, rng))
            assert cov.purity_error < 1e-12

    def test_matches_dense_covariance(self, rng):
        # measure gamma directly on the dense state: independent oracle path
        for n in (2, 3):
            params = random_generator(n, rng)
            cov = covariance_from_xi(params)
            state = oracle.dense_state(params.xi, np.zeros((n, n)))
            np.testing.assert_allclose(cov.gamma, dense_covariance(state), atol=1e-10)

    def test_single_mode_stays_vacuum(self, rng):
        # exp(i xi) is special orthogonal and parity conserving: with one mode
        # the only reachable pure covariance is the vacuum
        for _ in range(5):
            cov = covariance_from_xi(random_generator(1, rng, scale=3.0))
            np.testing.assert_allclose(cov.gamma, -upsilon(1), atol=1e-12)

    def test_occupied_pair_reachable_with_two_modes(self):
        cov = bell_pair_covariance(theta=np.pi / 2)  # full pair rotation
        np.testing.assert_allclose(occupation_numbers(cov), [1.0, 1.0], atol=1e-12)

    def test_spectral_shift_invariance(self, rng):
        # adding 2*pi to a rotation angle of i*xi leaves exp(i*xi) fixed
        n = 3
        ixi = rng.standard_normal((2 * n, 2 * n))
        ixi = 0.5 * (ixi - ixi.T)
        vals, vecs = np.linalg.eigh(1j * ixi)  # eigenvalues come in +/- pairs
        k = np.argmax(vals)
        shift = -1j * (2.0 * np.pi) * (
            np.outer(vecs[:, k], vecs[:, k].conj())
            - np.outer(vecs[:, k].conj(), vecs[:, k])
        )
        ixi_shifted = np.real(ixi + shift)
        cov = covariance_from_xi(GaussianParams(-1j * ixi))
        cov_shifted = covariance_from_xi(GaussianParams(-1j * ixi_shifted))
        assert np.max(np.abs(cov.gamma - cov_shifted.gamma)) < 1e-10

    def test_invalid_symmetry_rejected(self):
        with pytest.raises(ValidationError):
            covariance_from_xi(np.ones((4, 4)))


class TestCovarianceMatrix:
    def test_complex_input_rejected(self):
        bad = 1j * upsilon(2)
        with pytest.raises(ValidationError):
            CovarianceMatrix(bad)

    def test_non_skew_rejected(self):
        with pytest.raises(ValidationError):
            CovarianceMatrix(np.eye(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # NaN passes every "deviation > tol" comparison, so it needs its own check
        gamma = -upsilon(2)
        gamma[0, 2], gamma[2, 0] = bad, -bad
        with pytest.raises(ValidationError, match="non-finite"):
            CovarianceMatrix(gamma)

    def test_huge_skew_pair_stays_finite(self):
        # halving before the subtract: gamma - gamma.T would overflow to -+inf
        gamma = np.zeros((2, 2))
        gamma[0, 1], gamma[1, 0] = -1e308, 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stored = CovarianceMatrix(gamma).gamma
        np.testing.assert_array_equal(stored, gamma)

    def test_purity_error_property(self):
        assert CovarianceMatrix(-upsilon(2)).purity_error < 1e-15
        assert CovarianceMatrix(-0.5 * upsilon(2)).purity_error > 0.1


class TestOccupations:
    def test_vacuum_and_filled(self):
        np.testing.assert_array_equal(occupation_numbers(-upsilon(3)), np.zeros(3))
        np.testing.assert_array_equal(occupation_numbers(upsilon(3)), np.ones(3))

    def test_matches_dense(self, rng):
        for n in (2, 3):
            params = random_generator(n, rng)
            cov = covariance_from_xi(params)
            state = oracle.dense_state(params.xi, np.zeros((n, n)))
            ops = oracle.fock_operators(n)
            dense_occ = [
                np.vdot(state.amplitudes, ops.number(j) @ state.amplitudes).real
                for j in range(n)
            ]
            np.testing.assert_allclose(occupation_numbers(cov), dense_occ, atol=1e-10)

    def test_range(self, rng):
        occ = occupation_numbers(random_pure_covariance(4, rng))
        assert np.all(occ > -1e-10) and np.all(occ < 1.0 + 1e-10)


class TestMeanFieldCovariance:
    def test_orbital_occupations(self, rng):
        n = 4
        f = rng.standard_normal((n, n))
        f = 0.5 * (f + f.T)
        cov = mean_field_covariance(f, 2)
        assert cov.purity_error < 1e-12
        assert np.sum(occupation_numbers(cov)) == pytest.approx(2.0, abs=1e-10)
        # one-body density <c+_p c_q> from the covariance blocks
        g = cov.gamma
        g11, g12, g21, g22 = g[:n, :n], g[:n, n:], g[n:, :n], g[n:, n:]
        dens = (
            0.5 * np.eye(n)
            + 0.25 * (g12 + g12.T)
            - 0.25j * (g11 + g22)
        )
        energy = np.sum(f * dens).real
        vals = np.linalg.eigvalsh(f)
        assert energy == pytest.approx(vals[0] + vals[1], abs=1e-10)

    def test_slater_covariance_identity_basis(self):
        cov = slater_covariance(np.array([1.0, 0.0]))
        np.testing.assert_allclose(occupation_numbers(cov), [1.0, 0.0], atol=1e-14)

    def test_overfilling_rejected(self):
        with pytest.raises(ValidationError):
            mean_field_covariance(np.eye(3), 4)
