import warnings

import numpy as np
import pytest

from conftest import bell_pair_covariance, dense_covariance
from ngfermi import optimizer, oracle
from ngfermi.errors import DegeneracyError, ValidationError
from ngfermi.gaussian import (
    POLAR_SCREEN,
    CovarianceMatrix,
    GaussianParams,
    covariance_from_xi,
    mean_field_covariance,
    occupation_numbers,
    purify,
    random_generator,
    random_pure_covariance,
    slater_covariance,
    upsilon,
)
from ngfermi.hamiltonian import hubbard_model
from ngfermi.optimizer import RunOptions, initial_state, run


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


class TestPurify:
    def test_pure_input_unchanged(self, rng):
        cov = random_pure_covariance(3, rng)
        out = purify(cov.gamma)
        assert np.max(np.abs(out.gamma - cov.gamma)) < 1e-12

    def test_rescaled_input_recovered(self, rng):
        cov = random_pure_covariance(3, rng)
        out = purify(0.99 * cov.gamma)
        assert np.max(np.abs(out.gamma - cov.gamma)) < 1e-12

    def test_idempotent(self, rng):
        raw = random_pure_covariance(3, rng).gamma + 0.05 * (
            lambda m: 0.5 * (m - m.T)
        )(rng.standard_normal((6, 6)))
        once = purify(raw)
        twice = purify(once.gamma)
        assert np.max(np.abs(once.gamma - twice.gamma)) < 1e-12

    def test_euler_step_drift_repaired(self, rng):
        cov = random_pure_covariance(3, rng)
        drift = rng.standard_normal((6, 6))
        drift = 0.5 * (drift - drift.T)
        stepped = cov.gamma + 0.05 * drift
        assert CovarianceMatrix(stepped).purity_error > 1e-6
        assert purify(stepped).purity_error < 1e-12

    def test_degenerate_spectrum_rejected(self):
        with pytest.raises(DegeneracyError):
            purify(1e-9 * upsilon(2))

    def test_one_collapsed_mode_pair_rejected(self, rng):
        # a pure gamma with one mode pair scaled to 1e-9: ||E||_F ~ sqrt(2),
        # outside the screen, where the eigendecomposition gives the verdict
        gamma = _rotated_block_form(rng, [1.0, 1.0, 1e-9])
        assert _deviation(gamma) > POLAR_SCREEN
        with pytest.raises(DegeneracyError):
            purify(gamma)

    def test_inside_screen_large_eig_tol_keeps_the_eigh_verdict(self, rng, monkeypatch):
        # singular values (0.9, 1): ||E||_F = 0.19 sqrt(2) ~ 0.27, inside the
        # screen, but both tolerances exceed sqrt(1 - ||E||_F) ~ 0.855, so the
        # iteration must not vouch for them
        gamma = _rotated_block_form(rng, [0.9, 1.0])
        dev = _deviation(gamma)
        assert dev < POLAR_SCREEN
        calls = _count_eigh(monkeypatch)
        out = purify(gamma, eig_tol=0.87)
        assert 0.87 > np.sqrt(1.0 - dev) and len(calls) == 1
        assert np.max(np.abs(out.gamma - _sign_reference(gamma))) < 1e-14
        with pytest.raises(DegeneracyError):
            purify(gamma, eig_tol=0.95)

    def test_exactly_at_the_screen_constant(self, monkeypatch):
        # A = [[1, 1/2], [-1/2, 1]] has A A^T = A^T A = (5/4) 1, so E = (1/4) 1_4
        # and ||E||_F = 1/2 exactly; the polar factor is gamma / sqrt(5/4)
        a = np.array([[1.0, 0.5], [-0.5, 1.0]])
        gamma = np.block([[np.zeros((2, 2)), a], [-a.T, np.zeros((2, 2))]])
        assert np.linalg.norm(-(gamma @ gamma) - np.eye(4)) == POLAR_SCREEN
        calls = _count_eigh(monkeypatch)
        at = purify(gamma)
        assert len(calls) == 1
        below = purify(np.nextafter(1.0, 0.0) * gamma)
        assert len(calls) == 1
        for out in (at, below):
            assert np.max(np.abs(out.gamma - gamma / np.sqrt(1.25))) < 1e-15

    @pytest.mark.parametrize("branch", ["newton-schulz", "eigh"])
    def test_result_is_an_exactly_skew_read_only_covariance(self, branch, rng, monkeypatch):
        # a drifted pure state inside the screen, and a pure state with one
        # mode pair scaled to 0.2, outside it; either way the result is
        # exactly what the validating constructor makes of it
        if branch == "newton-schulz":
            d = rng.standard_normal((6, 6))
            gamma = random_pure_covariance(3, rng).gamma + 0.025 * (d - d.T)
        else:
            gamma = _rotated_block_form(rng, [1.0, 0.2, 1.0])
        calls = _count_eigh(monkeypatch)
        g = purify(gamma).gamma
        assert len(calls) == (branch == "eigh")
        assert np.array_equal(g, -g.T)
        assert g.dtype == np.float64 and g.flags.c_contiguous and np.all(np.isfinite(g))
        assert not g.flags.writeable
        with pytest.raises(ValueError):
            g[0, 1] = 0.0
        np.testing.assert_array_equal(CovarianceMatrix(g).gamma, g)
        assert CovarianceMatrix(g).purity_error < 1e-12

    def test_optimizer_trials_call_eigh_only_outside_the_screen(self, monkeypatch):
        # dtau0 = 1 makes some trials of this frozen run leave the screen
        hamil = hubbard_model(3, 1.0, 4.0, 2.0)
        options = RunOptions(freeze_omega=True, dtau0=1.0)
        state = initial_state(hamil, options, seed=1)
        devs = []
        real_purify = optimizer.purify

        def spy(gamma_raw):
            devs.append(_deviation(gamma_raw))
            return real_purify(gamma_raw)

        calls = _count_eigh(monkeypatch, lambda: len(devs))
        monkeypatch.setattr(optimizer, "purify", spy)
        _, _, reason = run(hamil, options, state)
        outside = [k + 1 for k, dev in enumerate(devs) if dev >= POLAR_SCREEN]
        assert reason == "energy"
        assert calls == outside
        assert 0 < len(outside) < len(devs) // 10


def _deviation(gamma) -> float:
    return float(np.linalg.norm(gamma.T @ gamma - np.eye(len(gamma))))


def _rotated_block_form(rng, singular_values) -> np.ndarray:
    """R (sigma (x) diag(s)) R^T for a random orthogonal R."""
    n = len(singular_values)
    d = np.diag(singular_values)
    zero = np.zeros((n, n))
    rot = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))[0]
    gamma = rot @ np.block([[zero, d], [-d, zero]]) @ rot.T
    return 0.5 * (gamma - gamma.T)


def _sign_reference(gamma) -> np.ndarray:
    """The sign of the spectrum of i*gamma, transformed back."""
    vals, vecs = np.linalg.eigh(1j * gamma)
    return np.real(-1j * (vecs * np.sign(vals)) @ vecs.conj().T)


def _count_eigh(monkeypatch, label=lambda: None) -> list:
    """Patch np.linalg.eigh to record label() at each call."""
    calls = []
    real = np.linalg.eigh

    def counting(mat):
        calls.append(label())
        return real(mat)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


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
