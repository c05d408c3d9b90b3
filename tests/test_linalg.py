import numpy as np
import pytest

from ngfermi.errors import DimensionError, SingularUpdateError, ValidationError
from ngfermi.gaussian import upsilon
from ngfermi.linalg import (
    BlockContractionKind,
    block_contract,
    miller_inverse,
    pfaffian,
    skew_exp,
)


def random_skew(dim, rng, complex_entries=False):
    m = rng.standard_normal((dim, dim))
    if complex_entries:
        m = m + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (m - m.T)


class TestPfaffian:
    def test_two_by_two(self):
        a = 0.731
        assert pfaffian(np.array([[0.0, a], [-a, 0.0]])) == pytest.approx(a)

    def test_symplectic_form_four_modes(self):
        # expand by hand: Pf = a12 a34 - a13 a24 + a14 a23 = -1 for sigma (x) 1_2
        assert pfaffian(upsilon(2)) == pytest.approx(-1.0)

    def test_squares_to_determinant(self, rng):
        for _ in range(20):
            s = random_skew(6, rng)
            assert abs(pfaffian(s) ** 2 - np.linalg.det(s)) < 1e-10

    def test_complex_entries(self, rng):
        for _ in range(10):
            s = random_skew(8, rng, complex_entries=True)
            det = np.linalg.det(s)
            assert abs(pfaffian(s) ** 2 - det) < 1e-9 * max(1.0, abs(det))

    def test_congruence_transforms_by_determinant(self, rng):
        for _ in range(10):
            s = random_skew(6, rng)
            q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            lhs = pfaffian(q.T @ s @ q)
            rhs = np.linalg.det(q) * pfaffian(s)
            assert abs(lhs - rhs) < 1e-10

    def test_permutation_congruence(self, rng):
        s = random_skew(6, rng)
        perm = rng.permutation(6)
        p = np.eye(6)[:, perm]
        assert abs(pfaffian(p.T @ s @ p) - np.linalg.det(p) * pfaffian(s)) < 1e-12

    def test_odd_dimension_rejected(self):
        with pytest.raises(DimensionError):
            pfaffian(np.zeros((3, 3)))

    def test_non_skew_rejected(self):
        with pytest.raises(ValidationError):
            pfaffian(np.eye(4))

    def test_empty_matrix(self):
        assert pfaffian(np.zeros((0, 0))) == 1.0

    def test_singular_matrix(self):
        s = np.zeros((4, 4))
        s[0, 1], s[1, 0] = 1.0, -1.0
        assert pfaffian(s) == 0.0


class TestSkewExp:
    def test_zero_gives_identity(self):
        np.testing.assert_allclose(skew_exp(np.zeros((2, 2))), np.eye(2))

    def test_rotation_block(self):
        theta = 0.37
        xi = -1j * np.array([[0.0, theta], [-theta, 0.0]])
        expected = np.array(
            [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
        )
        np.testing.assert_allclose(skew_exp(xi), expected, atol=1e-14)

    def test_orthogonal_unit_determinant(self, rng):
        for n in (2, 3, 4):
            ixi = random_skew(2 * n, rng)
            u = skew_exp(-1j * ixi)
            assert np.max(np.abs(u @ u.T - np.eye(2 * n))) < 1e-12
            assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-10)

    def test_symmetry_violation_rejected(self):
        with pytest.raises(ValidationError):
            skew_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestBlockContract:
    def test_zero_matrix(self):
        for kind in BlockContractionKind:
            assert block_contract(np.zeros((6, 6)), kind, 1, 2) == 0.0

    def test_symplectic_plus_minus_is_diagonal(self):
        ups = upsilon(3)
        for p in range(3):
            for q in range(3):
                val = block_contract(ups, BlockContractionKind.PLUS_MINUS, p, q)
                expected = -2j if p == q else 0.0
                assert val == pytest.approx(expected)

    def test_linearity(self, rng):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        for kind in BlockContractionKind:
            lhs = block_contract(a + b, kind, 2, 3)
            rhs = block_contract(a, kind, 2, 3) + block_contract(b, kind, 2, 3)
            assert lhs == pytest.approx(rhs)

    def test_out_of_range_rejected(self):
        with pytest.raises(DimensionError):
            block_contract(np.zeros((4, 4)), BlockContractionKind.PLUS_PLUS, 2, 0)


class TestMillerInverse:
    def test_empty_updates(self, rng):
        a = rng.standard_normal((4, 4)) + np.eye(4) * 4
        inv = np.linalg.inv(a)
        out = miller_inverse(inv, [])
        np.testing.assert_allclose(out, inv)

    def test_single_update_matches_sherman_morrison(self, rng):
        a = rng.standard_normal((5, 5)) + np.eye(5) * 5
        ainv = np.linalg.inv(a)
        beta = 0.8
        u = rng.standard_normal(5)
        v = rng.standard_normal(5)
        closed = ainv - beta * np.outer(ainv @ u, v @ ainv) / (1.0 + beta * v @ ainv @ u)
        out = miller_inverse(ainv, [(beta, u, v)])
        assert np.max(np.abs(out - closed)) < 1e-12

    def test_update_chain_inverts_sum(self, rng):
        a = rng.standard_normal((6, 6)) + np.eye(6) * 6
        updates = [
            (rng.standard_normal(), rng.standard_normal(6), rng.standard_normal(6))
            for _ in range(5)
        ]
        total = a + sum(b * np.outer(u, v) for b, u, v in updates)
        out = miller_inverse(np.linalg.inv(a), updates)
        assert np.max(np.abs(out @ total - np.eye(6))) < 1e-10

    def test_singular_update_names_step(self):
        # second update makes the running matrix singular: 1 + tr(C^-1 B) = 0
        a = np.eye(2)
        updates = [(1.0, np.eye(2)[:, 0], np.eye(2)[:, 0]),
                   (-1.0, np.eye(2)[:, 1], np.eye(2)[:, 1])]
        with pytest.raises(SingularUpdateError) as err:
            miller_inverse(np.linalg.inv(a), updates)
        assert err.value.step == 1
