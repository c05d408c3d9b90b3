import itertools

import numpy as np
import pytest

from conftest import bell_pair_and_vacuum, bell_pair_covariance, random_operator_string
from ngfermi import oracle
from ngfermi.errors import (
    DimensionError,
    ParityError,
    SingularContractionError,
    SingularUpdateError,
    ValidationError,
)
from ngfermi import wick
from ngfermi.gaussian import (
    covariance_from_xi,
    random_generator,
    random_pure_covariance,
    slater_covariance,
    upsilon,
)
from ngfermi.linalg import BlockContractionKind, block_contract, pfaffian
from ngfermi.wick import (
    OperatorString,
    a_coeff,
    contract,
    enumerate_pairings,
    expectation,
    expectation_from,
    g_matrix,
    gamma_F,
    q_matrix,
    sign_prefactor,
    wrap_angles,
)


def permutation_parity(seq):
    seen = [False] * len(seq)
    parity = 1
    for start in range(len(seq)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = seq[j]
            length += 1
        if length % 2 == 0:
            parity = -parity
    return parity


class TestWrapAngles:
    def test_wrapping_range(self):
        alpha = wrap_angles(np.array([3.5 * np.pi, -np.pi, np.pi, 0.0]))
        assert np.all(alpha > -np.pi) and np.all(alpha <= np.pi)
        assert alpha[1] == pytest.approx(np.pi)  # -pi wraps to +pi

    def test_wrap_preserves_phase_factor(self, rng):
        raw = rng.uniform(-10, 10, size=6)
        np.testing.assert_allclose(
            np.exp(1j * wrap_angles(raw)), np.exp(1j * raw), atol=1e-12
        )


class TestOperatorString:
    def test_odd_length_rejected(self):
        with pytest.raises(ParityError):
            OperatorString(((0, True),))

    def test_too_long_rejected(self):
        with pytest.raises(ValidationError):
            OperatorString(tuple((0, True) for _ in range(14)))


class TestEnumeratePairings:
    def test_length_two(self):
        (pairing,) = enumerate_pairings(2)
        assert pairing.pairs == ((0, 1),)
        assert pairing.sign == 1

    def test_length_four_signs(self):
        pairings = enumerate_pairings(4)
        table = {p.pairs: p.sign for p in pairings}
        assert table == {
            ((0, 1), (2, 3)): 1,
            ((0, 2), (1, 3)): -1,
            ((0, 3), (1, 2)): 1,
        }

    def test_length_six_against_parity_oracle(self):
        pairings = enumerate_pairings(6)
        assert len(pairings) == 15
        for pairing in pairings:
            flat = [i for pair in pairing.pairs for i in pair]
            assert pairing.sign == permutation_parity(flat)

    def test_counts(self):
        assert len(enumerate_pairings(8)) == 105

    def test_odd_rejected(self):
        with pytest.raises(ParityError):
            enumerate_pairings(3)


class TestGammaF:
    def test_zero_phases(self, rng):
        cov = random_pure_covariance(3, rng)
        np.testing.assert_allclose(
            gamma_F(cov, np.zeros(3)), -2.0 * upsilon(3), atol=1e-14
        )

    def test_single_mode_pi(self):
        cov = covariance_from_xi(np.zeros((2, 2)))  # vacuum, gamma = -upsilon
        np.testing.assert_allclose(
            gamma_F(cov, np.array([np.pi])), -2.0 * upsilon(1), atol=1e-14
        )

    def test_skewness(self, rng):
        cov = random_pure_covariance(4, rng)
        alpha = rng.uniform(-np.pi, np.pi, size=4)
        gf = gamma_F(cov, alpha)
        assert np.max(np.abs(gf + gf.T)) < 1e-12


class TestACoeff:
    def test_normalization(self, rng):
        for n in (1, 2, 3, 4):
            cov = random_pure_covariance(n, rng)
            assert abs(a_coeff(cov, np.zeros(n)) - 1.0) < 1e-12

    def test_vacuum_any_phase(self, rng):
        for n in (1, 3):
            alpha = rng.uniform(-np.pi, np.pi, size=n)
            assert abs(a_coeff(-upsilon(n), alpha) - 1.0) < 1e-12

    def test_occupied_mode_flips_sign(self):
        # two modes, mode 0 occupied, mode 1 empty, phase pi on mode 0
        gamma = np.kron(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.diag([1.0, -1.0]))
        val = a_coeff(gamma, np.array([np.pi, 0.0]))
        assert val == pytest.approx(-1.0)

    def test_matches_dense(self, rng):
        for n in (2, 4):
            params = random_generator(n, rng)
            state = oracle.dense_state(params.xi, np.zeros((n, n)))
            alpha = rng.uniform(-np.pi, np.pi, size=n)
            dense = oracle.dense_expectation(state, alpha, ())
            assert abs(a_coeff(covariance_from_xi(params), alpha) - dense) < 1e-12


class TestGMatrix:
    def test_zero_phase_reduction(self, rng):
        cov = random_pure_covariance(3, rng)
        np.testing.assert_allclose(
            g_matrix(cov, np.zeros(3)), cov.gamma + upsilon(3), atol=1e-12
        )

    def test_vacuum_vanishes(self):
        assert np.max(np.abs(g_matrix(-upsilon(2), np.zeros(2)))) < 1e-14

    def test_skew_for_any_phase(self, rng):
        for _ in range(5):
            cov = random_pure_covariance(3, rng)
            alpha = rng.uniform(-np.pi, np.pi, size=3)
            g = g_matrix(cov, alpha)
            assert np.max(np.abs(g + g.T)) < 1e-10

    def test_rank1_matches_direct(self, rng):
        for _ in range(5):
            cov = random_pure_covariance(4, rng)
            alpha = rng.uniform(0.3, np.pi, size=4) * rng.choice([-1.0, 1.0], size=4)
            fast = g_matrix(cov, alpha, method="rank1")
            direct = g_matrix(cov, alpha, method="direct")
            assert np.max(np.abs(fast - direct)) < 1e-10

    def test_rank1_rejects_zero_phase(self, rng):
        cov = random_pure_covariance(3, rng)
        with pytest.raises(ValidationError):
            g_matrix(cov, np.array([0.0, 1.0, 1.0]), method="rank1")

    def test_unknown_method_rejected(self, rng):
        # "direct" and "rank1" are the only inversion paths, for G and for Q
        cov = random_pure_covariance(3, rng)
        alpha = np.array([0.4, 1.1, -0.7])
        for fn in (g_matrix, q_matrix):
            for method in ("auto", "bogus"):
                with pytest.raises(ValidationError, match="unknown"):
                    fn(cov, alpha, method=method)

    def test_rank1_at_vacuum_matches_direct(self, rng):
        # gamma + Upsilon vanishes at the vacuum: the rank-1 seed is the zero
        # matrix and the updates alone must assemble G
        alpha = rng.uniform(0.5, 2.0, size=3)
        np.testing.assert_allclose(
            g_matrix(-upsilon(3), alpha, method="rank1"),
            g_matrix(-upsilon(3), alpha, method="direct"),
            atol=1e-12,
        )

    def test_rank1_singular_update_raises(self):
        # occupations (1/2, 1/2) and alpha(0) = pi: the first rank-1 update's
        # denominator vanishes, which the rank-1 path reports, not hides
        c = s = 1.0 / np.sqrt(2.0)
        cov = slater_covariance([1, 0], [[c, -s], [s, c]])
        with pytest.raises(SingularUpdateError) as err:
            g_matrix(cov, np.array([np.pi, 0.7]), method="rank1")
        assert err.value.step == 0

    def test_singular_contraction_raises(self):
        # equal-weight pair superposition: <e^{i pi n_0}> = 0 and the
        # contraction denominator is singular
        cov = bell_pair_covariance(np.pi / 4)
        with pytest.raises(SingularContractionError):
            g_matrix(cov, np.array([np.pi, 0.0]), method="direct")


class TestQMatrix:
    def test_zero_phase_gives_zero(self, rng):
        cov = random_pure_covariance(3, rng)
        assert np.max(np.abs(q_matrix(cov, np.zeros(3)))) < 1e-14

    def test_rank1_matches_direct(self, rng):
        for _ in range(5):
            cov = random_pure_covariance(4, rng)
            alpha = rng.uniform(0.3, np.pi, size=4) * rng.choice([-1.0, 1.0], size=4)
            fast = q_matrix(cov, alpha, method="rank1")
            direct = q_matrix(cov, alpha, method="direct")
            assert np.max(np.abs(fast - direct)) < 1e-10

    def test_derivative_of_coefficient(self, rng):
        # d log A / d gamma_ij (ordered-entry convention) equals Q_ij
        cov = random_pure_covariance(3, rng)
        alpha = rng.uniform(-np.pi, np.pi, size=3)
        q = q_matrix(cov, alpha)
        step = 1e-6
        for i, j in ((0, 1), (2, 4), (1, 5)):
            d = np.zeros((6, 6))
            d[i, j] = 1.0
            d[j, i] = -1.0
            ap = a_coeff(cov.gamma + step * d, alpha)
            am = a_coeff(cov.gamma - step * d, alpha)
            fd = (ap - am) / (2.0 * step) / a_coeff(cov, alpha)
            assert abs(0.5 * fd - q[i, j]) < 1e-7


def _pair(p, dp, q, dq):
    return ((p, dp), (q, dq))


class TestPairExpectation:
    def test_vacuum_dag_plain_vanishes(self):
        for p in range(2):
            for q in range(2):
                val = expectation(-upsilon(2), np.zeros(2), _pair(p, True, q, False))
                assert abs(val) < 1e-14

    def test_filled_dag_plain_is_identity(self):
        for p in range(3):
            for q in range(3):
                val = expectation(upsilon(3), np.zeros(3), _pair(p, True, q, False))
                assert val == pytest.approx(1.0 if p == q else 0.0)

    def test_all_kinds_match_dense(self, rng):
        n = 3
        params = random_generator(n, rng)
        cov = covariance_from_xi(params)
        alpha = rng.uniform(-np.pi, np.pi, size=n)
        state = oracle.dense_state(params.xi, np.zeros((n, n)))
        # daggers first (dag-plain, dag-dag, plain-plain) and plain before dagger
        for dp, dq in ((True, False), (True, True), (False, False), (False, True)):
            for p in range(n):
                for q in range(n):
                    string = _pair(p, dp, q, dq)
                    dense = oracle.dense_expectation(state, alpha, string)
                    assert abs(dense - expectation(cov, alpha, string)) < 1e-10


class TestExpectation:
    def test_empty_string_is_coefficient(self, rng):
        cov = random_pure_covariance(3, rng)
        alpha = rng.uniform(-np.pi, np.pi, size=3)
        assert expectation(cov, alpha, ()) == pytest.approx(a_coeff(cov, alpha))

    def test_fourth_order_factorization(self, rng):
        # <p+ q+ r s> = <p+ s><q+ r> - <p+ r><q+ s> + <p+ q+><r s>
        n = 4
        cov = random_pure_covariance(n, rng)
        alpha = rng.uniform(-np.pi, np.pi, size=n)
        c = contract(cov, alpha)
        two = {
            (p, dp, q, dq): expectation(cov, alpha, _pair(p, dp, q, dq))
            for p, q in itertools.product(range(n), repeat=2)
            for dp, dq in ((True, False), (True, True), (False, False))
        }
        for p, q, r, s in itertools.product(range(n), repeat=4):
            lhs = expectation_from(c, ((p, True), (q, True), (r, False), (s, False)))
            rhs = (
                two[p, True, s, False] * two[q, True, r, False]
                - two[p, True, r, False] * two[q, True, s, False]
                + two[p, True, q, True] * two[r, False, s, False]
            ) / c.coeff
            assert abs(lhs - rhs) < 1e-10

    def test_matches_dense_all_lengths(self, rng):
        for n in (2, 3, 4):
            params = random_generator(n, rng)
            cov = covariance_from_xi(params)
            alpha = rng.uniform(-np.pi, np.pi, size=n)
            state = oracle.dense_state(params.xi, np.zeros((n, n)))
            c = contract(cov, alpha)
            for length in (0, 2, 4, 6):
                for _ in range(8):
                    s = random_operator_string(n, length, rng)
                    dense = oracle.dense_expectation(state, alpha, s)
                    assert abs(expectation_from(c, s) - dense) < 1e-10

    def test_plain_wick_reduction(self, rng):
        # at zero phases the result equals the textbook Wick sum assembled
        # from gamma + upsilon by a separate, literal implementation
        n = 3
        cov = random_pure_covariance(n, rng)
        g0 = cov.gamma + upsilon(n)

        def literal_pair(first, second):
            (m1, d1), (m2, d2) = first, second
            if d1 and not d2:
                return 0.25j * block_contract(g0, BlockContractionKind.PLUS_MINUS, m1, m2)
            if d1 and d2:
                return 0.25j * block_contract(g0, BlockContractionKind.PLUS_PLUS, m1, m2)
            if not d1 and not d2:
                return 0.25j * block_contract(g0, BlockContractionKind.MINUS_MINUS, m1, m2)
            delta = 1.0 if m1 == m2 else 0.0
            return delta - 0.25j * block_contract(
                g0, BlockContractionKind.PLUS_MINUS, m2, m1
            )

        for _ in range(20):
            s = random_operator_string(n, int(rng.choice([2, 4, 6])), rng)
            total = 0.0 + 0.0j
            for pairing in enumerate_pairings(len(s)):
                prod = 1.0 + 0.0j
                for i, j in pairing.pairs:
                    prod *= literal_pair(s[i], s[j])
                total += pairing.sign * prod
            assert abs(expectation(cov, np.zeros(n), s) - total) < 1e-12

    def test_conjugation_symmetry(self, rng):
        # conj(<e^{i a n} X>) = e^{i phi} <e^{-i a n} X_reversed_flipped>
        # with phi = sum_{plain in X} a - sum_{dagger in X} a
        for n in (2, 3):
            cov = random_pure_covariance(n, rng)
            alpha = rng.uniform(-np.pi, np.pi, size=n)
            for length in (2, 4, 6):
                for _ in range(5):
                    s = random_operator_string(n, length, rng)
                    rev = tuple((m, not d) for m, d in reversed(s))
                    phi = sum(alpha[m] for m, d in s if not d) - sum(
                        alpha[m] for m, d in s if d
                    )
                    lhs = np.conj(expectation(cov, alpha, s))
                    rhs = np.exp(1j * phi) * expectation(cov, -alpha, rev)
                    assert abs(lhs - rhs) < 1e-10

    def test_odd_string_rejected(self, rng):
        cov = random_pure_covariance(2, rng)
        with pytest.raises(ParityError):
            expectation(cov, np.zeros(2), ((0, True),))

    def test_degenerate_coefficient_raises(self):
        cov = bell_pair_covariance(np.pi / 4)
        alpha = np.array([np.pi, 0.0])
        assert abs(a_coeff(cov, alpha)) < 1e-13
        with pytest.raises(SingularContractionError):
            expectation(cov, alpha, ((0, True), (1, True), (1, False), (0, False)))

    def test_empty_string_survives_missing_contraction(self):
        # at the Bell pair with alpha = (pi, 0) the coefficient vanishes and
        # G does not exist, but the empty string is the coefficient alone
        cov = bell_pair_covariance(np.pi / 4)
        alpha = np.array([np.pi, 0.0])
        with pytest.raises(SingularContractionError):
            contract(cov, alpha)
        val = expectation(cov, alpha, ())
        assert val == a_coeff(cov, alpha)
        assert abs(val) < 1e-13

    def test_stacked_bundle_rejected(self, rng):
        cov = random_pure_covariance(3, rng)
        alphas = rng.uniform(-np.pi, np.pi, size=(4, 3))
        stacked = contract(cov, alphas)
        assert stacked.coeff.shape == (4,) and stacked.g_dag_plain.shape == (4, 3, 3)
        with pytest.raises(DimensionError):
            expectation_from(stacked, ((0, True), (1, False)))
        with pytest.raises(DimensionError):
            expectation(cov, alphas, ())

    def test_mode_out_of_range_rejected(self, rng):
        cov = random_pure_covariance(2, rng)
        with pytest.raises(Exception):
            expectation(cov, np.zeros(2), ((5, True), (0, False)))


class TestLMatrix:
    def test_zero_phase_is_identity(self, rng):
        cov = random_pure_covariance(3, rng)
        np.testing.assert_allclose(contract(cov, np.zeros(3)).l, np.eye(6), atol=1e-12)

    def test_derivative_of_contraction_matrix(self, rng):
        # d g_matrix / d gamma_ij (ordered-entry) = (1/2) L Delta_ij L^T
        cov = random_pure_covariance(3, rng)
        alpha = rng.uniform(-np.pi, np.pi, size=3)
        lmat = contract(cov, alpha).l
        step = 1e-6
        for i, j in ((0, 3), (1, 2)):
            d = np.zeros((6, 6))
            d[i, j] = 1.0
            d[j, i] = -1.0
            gp = g_matrix(cov.gamma + step * d, alpha)
            gm = g_matrix(cov.gamma - step * d, alpha)
            fd = (gp - gm) / (2.0 * step)
            analytic = lmat @ d @ lmat.T
            assert np.max(np.abs(0.5 * fd - 0.5 * analytic)) < 1e-6


def _denominator(cov, alpha):
    """D = 1 + (1/2) diag(1 - e^{i alpha}) (Upsilon gamma - 1), written out."""
    n = cov.n_modes
    b = np.tile(1.0 - np.exp(1j * alpha), 2)
    return np.eye(2 * n) + 0.5 * b[:, None] * (upsilon(n) @ cov.gamma - np.eye(2 * n))


def _partly_zero_phases(rng, n, k):
    """k phase vectors: generic angles with every third component exactly zero."""
    alphas = rng.uniform(-np.pi, np.pi, (k, n))
    alphas[:, ::3] = 0.0
    return alphas


class TestGuardIdentities:
    # the singularity guard reads the denominator's inverse from L, and the
    # coefficient vanishes exactly where the denominator is singular
    @pytest.mark.parametrize("n", [2, 5, 9, 12])
    def test_coefficient_squared_is_denominator_determinant(self, n):
        rng = np.random.default_rng(100 + n)
        cov = random_pure_covariance(n, rng)
        for alpha in _partly_zero_phases(rng, n, 4):
            coeff = contract(cov, alpha).coeff
            det = np.linalg.det(_denominator(cov, alpha))
            assert abs(coeff**2 - det) <= 1e-12 * max(1.0, abs(det))

    @pytest.mark.parametrize("n", [2, 5, 9, 12])
    def test_l_is_inverse_transpose_of_denominator(self, n):
        rng = np.random.default_rng(200 + n)
        cov = random_pure_covariance(n, rng)
        alphas = _partly_zero_phases(rng, n, 4)
        stacked = contract(cov, alphas).l
        for alpha, lmat in zip(alphas, stacked):
            ref = np.linalg.inv(_denominator(cov, alpha)).T
            assert np.max(np.abs(lmat - ref)) <= 1e-10 * max(1.0, float(np.max(np.abs(ref))))
            np.testing.assert_array_equal(lmat, contract(cov, alpha).l)


    @pytest.mark.parametrize("n", [2, 5, 9, 12])
    def test_gamma_f_determinant_is_4_to_the_n_denominator_determinant(self, n):
        # Upsilon D = -(1/2) S Gamma_F S^-1: Gamma_F and D are singular together,
        # so D's guard also covers the Q that the evaluator reads from L
        rng = np.random.default_rng(300 + n)
        cov = random_pure_covariance(n, rng)
        for alpha in _partly_zero_phases(rng, n, 4):
            det_f = np.linalg.det(gamma_F(cov, alpha))
            det_d = np.linalg.det(_denominator(cov, alpha))
            assert abs(det_f - 4.0**n * det_d) <= 1e-12 * max(1.0, abs(det_f))

    def test_singular_gamma_f_has_singular_denominator(self):
        cov = bell_pair_and_vacuum()
        alpha = np.array([np.pi, 0.0, 0.7])
        assert abs(np.linalg.det(gamma_F(cov, alpha))) < 1e-14
        assert abs(np.linalg.det(_denominator(cov, alpha))) < 1e-14


class TestPhaseVectorsAsGiven:
    def test_shifted_phase_vector_is_kept_and_gives_the_same_bundle(self, rng):
        # every quantity depends on alpha only through e^{i alpha}; nothing is wrapped
        cov = random_pure_covariance(4, rng)
        alphas = rng.uniform(-np.pi, np.pi, (3, 4))
        alphas[1] = 0.0
        for alpha in (alphas, alphas[0]):
            shifted = alpha + 2.0 * np.pi
            c, ref = contract(cov, shifted), contract(cov, alpha)
            np.testing.assert_array_equal(c.alpha, shifted)
            for name in ("coeff", "g", "l", "g_dag_plain", "g_dag_dag", "g_plain_plain"):
                np.testing.assert_allclose(getattr(c, name), getattr(ref, name), rtol=0, atol=1e-12)
            np.testing.assert_allclose(q_matrix(cov, shifted), q_matrix(cov, alpha), rtol=0, atol=1e-12)
        string = ((0, True), (2, False), (1, True), (3, False))
        assert abs(expectation(cov, alphas[0] + 2.0 * np.pi, string) - expectation(cov, alphas[0], string)) < 1e-12


class TestZeroPhaseClosedForm:
    def test_zero_rows_match_pfaffian_and_solve(self, rng):
        # the closed form against gamma_F, the Pfaffian and the solve, called
        # directly: at alpha = 0 they give exactly these values
        n = 5
        cov = random_pure_covariance(n, rng)
        alphas = rng.uniform(-np.pi, np.pi, (4, n))
        alphas[[0, 2]] = 0.0
        c = contract(cov, alphas)
        zero = np.zeros(n)
        coeff = sign_prefactor(n) * 0.5**n * pfaffian(gamma_F(cov, zero))
        numer = cov.gamma + upsilon(n)
        out = np.linalg.solve(_denominator(cov, zero).T, numer.T).T
        g_ref = 0.5 * (out - out.T)
        sq2 = np.tile(np.sqrt(1.0 - np.exp(1j * zero)), 2)
        q_ref = -0.5 * sq2[:, None] * np.linalg.inv(gamma_F(cov, zero)) * sq2[None, :]
        q = q_matrix(cov, alphas)
        for k in (0, 2):
            assert c.coeff[k] == coeff
            np.testing.assert_array_equal(c.g[k], g_ref)
            np.testing.assert_array_equal(c.l[k], np.eye(2 * n))
            np.testing.assert_array_equal(q[k], 0.5 * (q_ref - q_ref.T))
        # the phased rows are what they are on their own
        for k in (1, 3):
            single = contract(cov, alphas[k])
            assert abs(c.coeff[k] - single.coeff) < 1e-12
            np.testing.assert_allclose(c.g[k], single.g, rtol=0, atol=1e-12)
            np.testing.assert_allclose(q[k], q_matrix(cov, alphas[k]), rtol=0, atol=1e-12)

    def test_sign_prefactor_makes_the_zero_phase_coefficient_one(self, rng):
        # (-1)^ceil(N/2)
        assert [sign_prefactor(n) for n in range(1, 9)] == [-1, -1, 1, 1, -1, -1, 1, 1]
        for n in range(1, 9):
            assert abs(a_coeff(random_pure_covariance(n, rng), np.zeros(n)) - 1.0) < 1e-12

    def test_zero_phase_needs_no_pfaffian_solve_or_svd(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("linear algebra ran for a zero phase vector")

        cov = random_pure_covariance(4, rng)
        for name in ("solve", "inv", "cond"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        monkeypatch.setattr(wick, "a_coeff", forbidden)
        c = contract(cov, np.zeros((1, 4)))
        assert c.coeff[0] == 1.0

    def test_stack_names_the_singular_row(self):
        cov = bell_pair_and_vacuum()
        singular = np.array([np.pi, 0.0, np.pi])
        assert abs(a_coeff(cov, singular)) < 1e-15
        stack = np.array([np.zeros(3), singular])
        for build in (contract, q_matrix):
            with pytest.raises(SingularContractionError) as info:
                build(cov, stack)
            assert info.value.index == 1
            np.testing.assert_array_equal(info.value.alpha, singular)


class TestConditionGuard:
    """The Frobenius bound |M|_F |M^-1|_F >= cond(M) screens; the SVD decides."""

    @staticmethod
    def _diag(*values):
        return np.diag(np.array(values, dtype=complex))

    def _check(self, mats, inverses, monkeypatch):
        svd_rows = []
        cond = np.linalg.cond

        def counting_cond(m, *args):
            svd_rows.append(len(m))
            return cond(m, *args)

        monkeypatch.setattr(np.linalg, "cond", counting_cond)
        alphas = np.arange(len(mats), dtype=float)[:, None] * np.ones(3)
        wick._check_condition(mats, alphas, "test matrix", inverses)
        return svd_rows

    def test_bound_above_limit_but_condition_below_is_accepted(self, monkeypatch):
        # cond = 8e11 <= 1e12, but |M|_F |M^-1|_F = sqrt(3 + s^2) sqrt(3 + 1/s^2) > 1e12
        s = 1.0 / 8e11
        m = self._diag(1.0, 1.0, 1.0, s)
        assert np.linalg.cond(m) <= wick.COND_LIMIT
        assert np.linalg.norm(m) * np.linalg.norm(np.linalg.inv(m)) > wick.COND_LIMIT
        mats = np.stack([np.eye(4, dtype=complex), m])
        svd_rows = self._check(mats, np.linalg.inv(mats), monkeypatch)
        assert svd_rows == [1]  # only the matrix the bound could not clear

    def test_well_conditioned_stack_skips_the_svd(self, monkeypatch):
        mats = np.stack([np.eye(4, dtype=complex), self._diag(1.0, 2.0, 3.0, 1e-3)])
        assert self._check(mats, np.linalg.inv(mats), monkeypatch) == []

    def test_ill_conditioned_matrix_is_rejected_with_its_index(self, monkeypatch):
        mats = np.stack([np.eye(4, dtype=complex), self._diag(1.0, 1.0, 1.0, 1e-6), self._diag(1.0, 1.0, 1.0, 1e-13)])
        with pytest.raises(SingularContractionError) as info:
            self._check(mats, np.linalg.inv(mats), monkeypatch)
        assert info.value.index == 2
        assert "1.000e+13 exceeds 1e+12" in str(info.value)

    def test_exactly_singular_matrix_is_rejected_with_its_index(self, monkeypatch):
        # no inverse exists: every matrix goes through the SVD
        mats = np.stack([np.eye(4, dtype=complex), self._diag(1.0, 1.0, 0.0, 1.0), np.eye(4, dtype=complex)])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(mats)
        with pytest.raises(SingularContractionError) as info:
            self._check(mats, None, monkeypatch)
        assert info.value.index == 1
        np.testing.assert_array_equal(info.value.alpha, np.ones(3))
