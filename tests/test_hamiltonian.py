import warnings

import numpy as np
import pytest

from conftest import random_hamiltonian, random_symmetric_zero_diag
from ngfermi import oracle
from ngfermi.errors import FormatError, SingularContractionError, ValidationError
from ngfermi.gaussian import (
    covariance_from_xi,
    random_generator,
    random_pure_covariance,
    upsilon,
)
from ngfermi.hamiltonian import (
    SYMMETRY_TOL,
    ManyBodyHamiltonian,
    NonGaussianParams,
    energy,
    energy_gradient_omega,
    hubbard_model,
    load_hamiltonian,
    mean_field_h,
    mean_field_o,
    save_hamiltonian,
)
from ngfermi.optimizer import b_tensor, quadratic_form
from ngfermi.wick import wrap_angles


class TestNonGaussianParams:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            NonGaussianParams(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValidationError):
            NonGaussianParams(np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            NonGaussianParams(np.array([[0.0, bad], [bad, 0.0]]))

    @pytest.mark.parametrize(
        "entries",
        [
            [],
            [((0, 1), np.nan)],
            [((1, 1), np.nan)],
            [((0, 2), np.nan), ((2, 0), np.nan)],
            [((0, 1), np.inf), ((1, 0), -np.inf)],
            [((0, 1), -np.inf), ((1, 0), -np.inf)],
            [((2, 2), np.inf)],
            [((0, 2), 1e308), ((2, 0), -1e308)],
            [((0, 1), 0.25)],
            [((1, 1), 1e-3)],
            [((1, 1), 1e-3), ((0, 1), np.nan)],
        ],
        ids=[
            "symmetric", "nan off the diagonal", "nan on the diagonal", "nan mirror pair",
            "+inf/-inf pair", "-inf/-inf pair", "inf on the diagonal", "1e308 - -1e308 overflow pair",
            "finite asymmetric", "finite nonzero diagonal", "nonzero diagonal and nan",
        ],
    )
    def test_matches_the_two_pass_rule(self, entries, rng):
        w = random_symmetric_zero_diag(3, rng)
        for idx, val in entries:
            w[idx] = val
        expected = _outcome(_two_pass_omega, w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(lambda m: NonGaussianParams(m).omega, w)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            np.testing.assert_array_equal(got, expected)

    def test_huge_symmetric_pair_stays_finite(self):
        # halving before the add: w + w.T would overflow to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = NonGaussianParams(np.array([[0.0, 1e308], [1e308, 0.0]])).omega
        np.testing.assert_array_equal(w, [[0.0, 1e308], [1e308, 0.0]])

    def test_empty_accepted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert NonGaussianParams(np.zeros((0, 0))).omega.shape == (0, 0)

    def test_wrapped_preserves_unitary(self, rng):
        # the optimizer wraps the couplings this way after every step
        w = random_symmetric_zero_diag(3, rng, scale=8.0)
        wrapped = NonGaussianParams(wrap_angles(w))
        np.testing.assert_allclose(
            oracle.flux_unitary_diagonal(wrapped.omega),
            oracle.flux_unitary_diagonal(w),
            atol=1e-12,
        )
        assert np.all(wrapped.omega <= np.pi) and np.all(wrapped.omega > -np.pi)


def _two_pass_omega(w):
    """The two-pass rule NonGaussianParams must agree with: finiteness
    first, then symmetry, then the diagonal (overflow warnings silenced)."""
    if not np.all(np.isfinite(w)):
        raise ValidationError("omega has non-finite entries")
    with np.errstate(all="ignore"):
        asym = np.max(np.abs(w - w.T), initial=0.0)
    if asym > SYMMETRY_TOL:
        raise ValidationError("omega must be symmetric")
    if np.max(np.abs(np.diag(w)), initial=0.0) > SYMMETRY_TOL:
        raise ValidationError("omega must have zero diagonal")
    out = 0.5 * (w + w.T)
    np.fill_diagonal(out, 0.0)
    return out


def _outcome(build, w):
    try:
        return build(w)
    except ValidationError as exc:
        return type(exc), str(exc)


class TestManyBodyHamiltonian:
    def test_non_hermitian_f_rejected(self):
        f = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            ManyBodyHamiltonian(2, f, np.zeros((2, 2, 2, 2)))

    @pytest.mark.parametrize("part", ["f", "h"])
    def test_non_finite_rejected(self, part):
        f = np.zeros((2, 2))
        h = np.zeros((2, 2, 2, 2))
        if part == "f":
            f[0, 0] = np.nan
        else:
            h[0, 1, 1, 0] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            ManyBodyHamiltonian(2, f, h)

    def test_two_body_symmetry_violation_names_indices(self):
        h = np.zeros((2, 2, 2, 2))
        h[0, 1, 1, 0] = 1.0  # missing its antisymmetric partners
        with pytest.raises(ValidationError) as err:
            ManyBodyHamiltonian(2, np.zeros((2, 2)), h)
        assert "(p,q,r,s)" in str(err.value)

    def test_valid_random_tensor_accepted(self, rng):
        random_hamiltonian(3, rng)


class TestEnergy:
    def test_vacuum_annihilates(self, rng):
        hamil = random_hamiltonian(3, rng)
        for w in (np.zeros((3, 3)), random_symmetric_zero_diag(3, rng)):
            e1, e2, e = energy(-upsilon(3), w, hamil)
            assert abs(e) < 1e-12

    def test_zero_coupling_equals_gaussian_expectation(self, rng):
        n = 3
        hamil = random_hamiltonian(n, rng)
        for _ in range(20):
            params = random_generator(n, rng)
            cov = covariance_from_xi(params)
            state = oracle.dense_state(params.xi, np.zeros((n, n)))
            _, _, e = energy(cov, np.zeros((n, n)), hamil)
            assert abs(e - oracle.dense_energy(state, hamil)) < 1e-12

    def test_hubbard_matches_dense(self, rng):
        hamil = hubbard_model(2, 1.0, 4.0, 2.0)
        for _ in range(5):
            params = random_generator(4, rng)
            cov = covariance_from_xi(params)
            w = random_symmetric_zero_diag(4, rng, scale=1.5)
            state = oracle.dense_state(params.xi, w)
            _, _, e = energy(cov, w, hamil)
            assert abs(e - oracle.dense_energy(state, hamil)) < 1e-10

    def test_parts_sum(self, rng):
        hamil = random_hamiltonian(3, rng)
        cov = random_pure_covariance(3, rng)
        w = random_symmetric_zero_diag(3, rng)
        e1, e2, e = energy(cov, w, hamil)
        assert e == pytest.approx(e1 + e2)

    def test_real_for_hermitian_input(self, rng):
        # the NumericsError guard never fires across many draws
        for _ in range(10):
            hamil = random_hamiltonian(3, rng)
            cov = random_pure_covariance(3, rng)
            w = random_symmetric_zero_diag(3, rng, scale=2.0)
            energy(cov, w, hamil)

    def test_singular_contraction_names_index_tuple(self):
        # bell pair on modes (0, 1) in three modes: the phase vector of the
        # (0,1,1,2) two-body term hits a vanishing coefficient
        n = 3
        theta = np.pi / 4
        ixi = np.zeros((2 * n, 2 * n))
        ixi[0, n + 1] = theta
        ixi[n + 1, 0] = -theta
        ixi[1, n] = -theta
        ixi[n, 1] = theta
        cov = covariance_from_xi(-1j * ixi)
        h = np.zeros((n, n, n, n))
        for (p, q, r, s), val in {(0, 1, 1, 2): 1.0}.items():
            for idx, sign in (
                ((p, q, r, s), 1.0),
                ((q, p, r, s), -1.0),
                ((p, q, s, r), -1.0),
                ((q, p, s, r), 1.0),
                ((s, r, q, p), 1.0),
                ((r, s, q, p), -1.0),
                ((s, r, p, q), -1.0),
                ((r, s, p, q), 1.0),
            ):
                h[idx] = sign * val
        hamil = ManyBodyHamiltonian(n, np.zeros((n, n)), h)
        w = np.zeros((n, n))
        w[0, 2] = w[2, 0] = np.pi
        with pytest.raises(SingularContractionError) as err:
            energy(cov, w, hamil)
        assert "(p,q,r,s)=(0,1,1,2)" in str(err.value)


class TestGradient:
    def test_zero_hamiltonian(self, rng):
        hamil = ManyBodyHamiltonian(3, np.zeros((3, 3)), np.zeros((3,) * 4))
        cov = random_pure_covariance(3, rng)
        grad = energy_gradient_omega(cov, random_symmetric_zero_diag(3, rng), hamil)
        assert np.max(np.abs(grad)) == 0.0

    def test_vacuum_state(self, rng):
        hamil = random_hamiltonian(3, rng)
        grad = energy_gradient_omega(-upsilon(3), np.zeros((3, 3)), hamil)
        assert np.max(np.abs(grad)) < 1e-12

    def test_shape_and_symmetry(self, rng):
        hamil = random_hamiltonian(3, rng)
        cov = random_pure_covariance(3, rng)
        for w in (random_symmetric_zero_diag(3, rng), np.zeros((3, 3))):
            grad = energy_gradient_omega(cov, w, hamil)
            assert np.all(np.isfinite(grad))
            assert np.array_equal(grad, grad.T)
            assert np.max(np.abs(np.diag(grad))) == 0.0
            assert np.max(np.abs(grad)) > 1e-6  # a random state is not stationary

    def test_matches_dense_finite_differences(self, rng):
        n = 3
        step = 1e-5
        hamil = random_hamiltonian(n, rng)
        params = random_generator(n, rng)
        cov = covariance_from_xi(params)
        w = random_symmetric_zero_diag(n, rng)
        grad = energy_gradient_omega(cov, w, hamil)
        scale = max(1.0, np.max(np.abs(grad)))
        for i in range(n):
            for j in range(i + 1, n):
                wp, wm = w.copy(), w.copy()
                wp[i, j] += step
                wp[j, i] += step
                wm[i, j] -= step
                wm[j, i] -= step
                ep = oracle.dense_energy(oracle.dense_state(params.xi, wp), hamil)
                em = oracle.dense_energy(oracle.dense_state(params.xi, wm), hamil)
                fd = (ep - em) / (2.0 * step)
                assert abs(grad[i, j] - 0.5 * fd) / scale < 1e-6

    @pytest.mark.parametrize("model", ["hubbard-6", "random-5"])
    def test_matches_fast_energy_finite_differences(self, model, rng):
        # Hubbard L=6 has 12 modes, past the dense oracle's cap, so the
        # reference is the fast energy
        hamil = hubbard_model(6, 1.0, 4.0, 2.0) if model == "hubbard-6" else random_hamiltonian(5, rng)
        n = hamil.n_modes
        cov = random_pure_covariance(n, rng)
        w = random_symmetric_zero_diag(n, rng, scale=1.5)
        grad = energy_gradient_omega(cov, w, hamil)
        step = 1e-5
        scale = max(1.0, np.max(np.abs(grad)))
        for i in range(n):
            for j in range(i + 1, n):
                d = np.zeros((n, n))
                d[i, j] = d[j, i] = step
                fd = (energy(cov, w + d, hamil)[2] - energy(cov, w - d, hamil)[2]) / (2.0 * step)
                # the ordered-entry gradient is half the symmetric-pair derivative
                assert abs(grad[i, j] - 0.5 * fd) / scale < 1e-6

    def test_commutator_brackets_purely_imaginary(self, rng):
        # dE/d omega_ij is the expectation of a commutator with the pair
        # number; the dense brackets <[H, c+_i c+_j c_i c_j]> are purely
        # imaginary, for the one- and two-body groups separately
        n = 3
        hamil = random_hamiltonian(n, rng)
        params = random_generator(n, rng)
        w = random_symmetric_zero_diag(n, rng)
        state = oracle.dense_state(params.xi, w)
        ops = oracle.fock_operators(n)
        one_body = ManyBodyHamiltonian(n, hamil.f, np.zeros((n,) * 4))
        two_body = ManyBodyHamiltonian(n, np.zeros((n, n)), hamil.h)
        for part in (one_body, two_body):
            hmat = oracle.dense_hamiltonian_matrix(part)
            for i, j in ((0, 1), (1, 2), (0, 2)):
                quartic = (
                    ops.creator(i)
                    @ ops.creator(j)
                    @ ops.annihilators[i]
                    @ ops.annihilators[j]
                )
                comm = hmat @ quartic - quartic @ hmat
                val = np.vdot(state.amplitudes, comm @ state.amplitudes)
                assert abs(val.real) < 1e-9


class TestMeanFieldH:
    def test_zero_hamiltonian(self, rng):
        hamil = ManyBodyHamiltonian(3, np.zeros((3, 3)), np.zeros((3,) * 4))
        out = mean_field_h(random_pure_covariance(3, rng), np.zeros((3, 3)), hamil)
        assert np.max(np.abs(out)) == 0.0

    def test_real_skew(self, rng):
        hamil = random_hamiltonian(3, rng)
        out = mean_field_h(
            random_pure_covariance(3, rng), random_symmetric_zero_diag(3, rng), hamil
        )
        assert out.dtype.kind == "f"
        assert np.max(np.abs(out + out.T)) < 1e-9

    def test_quadratic_hamiltonian_finite_differences(self, rng):
        n = 3
        f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        f = 0.5 * (f + f.conj().T)
        hamil = ManyBodyHamiltonian(n, f, np.zeros((n,) * 4))
        cov = random_pure_covariance(n, rng)
        out = mean_field_h(cov, np.zeros((n, n)), hamil)
        step = 1e-5
        scale = max(1.0, np.max(np.abs(out)))
        for i in range(2 * n):
            for j in range(i + 1, 2 * n):
                d = np.zeros((2 * n, 2 * n))
                d[i, j] = 1.0
                d[j, i] = -1.0
                ep = energy(cov.gamma + step * d, np.zeros((n, n)), hamil)[2]
                em = energy(cov.gamma - step * d, np.zeros((n, n)), hamil)[2]
                fd_structured = 0.5 * (ep - em) / (2.0 * step)
                assert abs(out[i, j] - 4.0 * fd_structured) / scale < 1e-6

    def test_full_instance_finite_differences(self, rng):
        n = 3
        hamil = random_hamiltonian(n, rng)
        cov = random_pure_covariance(n, rng)
        w = random_symmetric_zero_diag(n, rng)
        out = mean_field_h(cov, w, hamil)
        step = 1e-5
        scale = max(1.0, np.max(np.abs(out)))
        for i, j in ((0, 1), (0, 4), (2, 5), (3, 4)):
            d = np.zeros((2 * n, 2 * n))
            d[i, j] = 1.0
            d[j, i] = -1.0
            ep = energy(cov.gamma + step * d, w, hamil)[2]
            em = energy(cov.gamma - step * d, w, hamil)[2]
            fd_structured = 0.5 * (ep - em) / (2.0 * step)
            assert abs(out[i, j] - 4.0 * fd_structured) / scale < 1e-6


class TestMeanFieldO:
    def test_zero_velocity(self, rng):
        out = mean_field_o(random_pure_covariance(3, rng), np.zeros((3, 3)))
        assert np.max(np.abs(out)) == 0.0

    def test_vacuum_vanishes(self, rng):
        out = mean_field_o(-upsilon(3), random_symmetric_zero_diag(3, rng))
        assert np.max(np.abs(out)) < 1e-14

    def test_i_times_result_real_skew(self, rng):
        out = mean_field_o(
            random_pure_covariance(3, rng), random_symmetric_zero_diag(3, rng)
        )
        iom = 1j * out
        assert np.max(np.abs(iom.imag)) < 1e-14
        assert np.max(np.abs(iom.real + iom.real.T)) < 1e-12

    def test_trace_square_equals_quadratic_form(self, rng):
        cov = random_pure_covariance(4, rng)
        dw = random_symmetric_zero_diag(4, rng)
        o_m = mean_field_o(cov, dw)
        tensor = b_tensor(cov)
        assert abs(np.trace(o_m @ o_m).real - quadratic_form(tensor, dw)) < 1e-10

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_matches_block_assembly(self, rng, n):
        # the np.block form it replaced; a nonzero diagonal of dtau_omega too
        cov = random_pure_covariance(n, rng)
        dw = rng.standard_normal((n, n))
        dw = dw + dw.T
        g = cov.gamma
        gw = np.diag(dw @ (np.diag(g[:n, n:]) + 1.0))
        zero = np.zeros((n, n))
        g0 = g + upsilon(n)
        g11, g12, g21, g22 = g0[:n, :n], g0[:n, n:], g0[n:, :n], g0[n:, n:]
        expected = 0.5j * np.block([[zero, gw], [-gw, zero]]) + 0.5j * np.block(
            [[dw * (-g22), dw * g21], [dw * g12, dw * (-g11)]]
        )
        out = mean_field_o(cov, dw)
        assert out.imag.tobytes() == expected.imag.tobytes()
        assert not out.real.any() and not expected.real.any()


class TestHubbardModel:
    def test_symmetries_valid(self):
        hubbard_model(3, 1.0, 4.0, 0.5, periodic=True)

    def test_dense_ground_energy(self):
        hamil = hubbard_model(2, 1.0, 4.0, 2.0)
        e0, _ = oracle.dense_ground(hamil)
        assert e0 == pytest.approx(2.0 - 2.0 * np.sqrt(2.0) - 4.0, abs=1e-10)

    def test_free_limit_fills_negative_orbitals(self):
        hamil = hubbard_model(3, 1.0, 0.0, 0.7)
        e0, _ = oracle.dense_ground(hamil)
        vals = np.linalg.eigvalsh(hamil.f)
        assert e0 == pytest.approx(np.sum(vals[vals < 0.0]), abs=1e-10)

    def test_too_few_sites_rejected(self):
        with pytest.raises(ValidationError):
            hubbard_model(1, 1.0, 1.0, 0.0)


class TestFileFormat:
    def test_round_trip_bitwise(self, tmp_path, rng):
        hamil = random_hamiltonian(3, rng)
        path = tmp_path / "h.txt"
        save_hamiltonian(hamil, path)
        loaded = load_hamiltonian(path)
        np.testing.assert_array_equal(loaded.f, hamil.f)
        np.testing.assert_array_equal(loaded.h, hamil.h)

    def test_hubbard_round_trip_ground_energy(self, tmp_path):
        path = tmp_path / "hub.txt"
        save_hamiltonian(hubbard_model(2, 1.0, 4.0, 2.0), path)
        e0, _ = oracle.dense_ground(load_hamiltonian(path))
        assert e0 == pytest.approx(2.0 - 2.0 * np.sqrt(2.0) - 4.0, abs=1e-10)

    def test_symmetry_violation_rejected_naming_indices(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("NMODES 2\nH 1 2 2 1 1.0\n")
        with pytest.raises(ValidationError) as err:
            load_hamiltonian(path)
        assert "(p,q,r,s)" in str(err.value)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("NMODES 2\nF 1 oops 0 0\n")
        with pytest.raises(FormatError) as err:
            load_hamiltonian(path)
        assert "line 2" in str(err.value)

    def test_duplicate_entry_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("NMODES 2\nF 1 1 1.0 0\nF 1 1 1.0 0\n")
        with pytest.raises(FormatError):
            load_hamiltonian(path)

    def test_unknown_record_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("NMODES 2\nG 1 1 1.0\n")
        with pytest.raises(FormatError):
            load_hamiltonian(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(FormatError):
            load_hamiltonian(path)
