import warnings

import numpy as np
import pytest

from ngfermi.errors import DimensionError, SingularUpdateError, ValidationError
from ngfermi.gaussian import GaussianParams, upsilon
from ngfermi.linalg import (
    SKEW_TOL,
    BlockContractionKind,
    block_contract,
    check_skew,
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

    @pytest.mark.parametrize(
        "thetas",
        [
            [np.pi],
            [0.0, 50.0],
            [1.3, 1.3, -np.pi],
            [0.0, 0.0, 2.1, -49.7],
            [np.pi, np.pi, 0.0, 17.0, -17.0],
            [50.0, -50.0, 0.4, 0.4, 0.4, 0.0],
        ],
        ids=lambda t: f"N={len(t)}",
    )
    def test_matches_block_rotations(self, thetas):
        # A = O (+)_j theta_j J2 O^T has exp(A) = O (+)_j R(theta_j) O^T with
        # R(theta) = [[cos, sin], [-sin, cos]]; repeated angles, theta and
        # -theta, 0 and pi give degenerate spectra of iA
        dim = 2 * len(thetas)
        q, r = np.linalg.qr(np.random.default_rng(len(thetas)).standard_normal((dim, dim)))
        o = q * np.sign(np.diag(r))
        blocks = np.zeros((dim, dim))
        rotations = np.zeros((dim, dim))
        for j, theta in enumerate(thetas):
            c, s = np.cos(theta), np.sin(theta)
            blocks[2 * j:2 * j + 2, 2 * j:2 * j + 2] = [[0.0, theta], [-theta, 0.0]]
            rotations[2 * j:2 * j + 2, 2 * j:2 * j + 2] = [[c, s], [-s, c]]
        u = skew_exp(-1j * (o @ blocks @ o.T))
        np.testing.assert_allclose(u, o @ rotations @ o.T, rtol=0, atol=1e-13)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "entries",
        [
            [((0, 1), np.nan), ((1, 0), np.nan)],
            [((0, 3), -1j * np.inf), ((3, 0), 1j * np.inf)],
            [((1, 2), np.inf)],
            [((2, 2), -np.inf)],
        ],
        ids=["nan pair", "imaginary inf pair", "real inf", "inf on the diagonal"],
    )
    def test_non_finite_generator_rejected(self, entries):
        # NaN fails no "deviation > tol" comparison; the screen must name it
        xi = np.zeros((4, 4), dtype=complex)
        for idx, val in entries:
            xi[idx] = val
        with pytest.raises(ValidationError, match="non-finite"):
            skew_exp(xi)
        with pytest.raises(ValidationError, match="non-finite"):
            GaussianParams(xi)


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


def _two_pass_check_skew(mat, tol=SKEW_TOL, what="matrix"):
    """The two-pass rule check_skew must agree with: finiteness first, then
    max|M + M^T| (overflow warnings silenced, the verdict is the point)."""
    mat = np.asarray(mat)
    if not np.all(np.isfinite(mat)):
        raise ValidationError(f"{what} has non-finite entries")
    mat_t = np.swapaxes(mat, -1, -2)
    with np.errstate(all="ignore"):
        dev = np.max(np.abs(mat + mat_t)) if mat.size else 0.0
    if dev > tol:
        raise ValidationError(f"{what} is not skew-symmetric: |M + M^T| = {dev:.3e}")
    return 0.5 * (mat - mat_t)


def _outcome(check, mat):
    try:
        return check(mat, what="test input")
    except ValidationError as exc:
        return type(exc), str(exc)


def _with_entries(base, entries):
    """A copy of base with m[idx] = val for each (idx, val)."""
    out = base.copy()
    for idx, val in entries:
        out[idx] = val
    return out


# (name, entries m[idx] = val set in the last matrix of a stack, or in the single matrix)
_SKEW_CASES = [
    ("skew", []),
    ("within tolerance", [((0, 1), 0.5 + 1e-12)]),
    ("nan on the diagonal", [((2, 2), np.nan)]),
    ("nan off the diagonal", [((0, 3), np.nan)]),
    ("nan mirror pair", [((0, 3), np.nan), ((3, 0), np.nan)]),
    ("+inf/-inf mirror pair", [((0, 1), np.inf), ((1, 0), -np.inf)]),
    ("-inf/+inf mirror pair", [((1, 2), -np.inf), ((2, 1), np.inf)]),
    ("+inf/+inf mirror pair", [((0, 1), np.inf), ((1, 0), np.inf)]),
    ("inf on the diagonal", [((3, 3), np.inf)]),
    ("1e308 + 1e308 overflow pair", [((0, 2), 1e308), ((2, 0), 1e308)]),
    ("finite non-skew pair", [((1, 3), 0.25), ((3, 1), 0.75)]),
    ("finite nonzero diagonal", [((1, 1), 1e-3)]),
]


class TestCheckSkew:
    @pytest.mark.parametrize("stack", [False, True], ids=["single", "stack"])
    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("entries", [c[1] for c in _SKEW_CASES], ids=[c[0] for c in _SKEW_CASES])
    def test_matches_the_two_pass_rule(self, entries, complex_entries, stack, rng):
        base = np.stack([random_skew(4, rng, complex_entries) for _ in range(3)])
        base[-1, 0, 1], base[-1, 1, 0] = 0.5, -0.5  # the pair "within tolerance" perturbs
        mats = [_with_entries(base[-1], entries)]
        if complex_entries:
            # the same entries on the imaginary axis
            mats.append(_with_entries(base[-1], [(idx, 1j * val) for idx, val in entries]))
        for mat in mats:
            if stack:
                mat = np.concatenate([base[:-1], mat[None]])
            expected = _outcome(_two_pass_check_skew, mat)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _outcome(check_skew, mat)
            if isinstance(expected, tuple):
                assert got == expected
            else:
                assert not isinstance(got, tuple)
                np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4, 4), (2, 0, 0)])
    def test_empty_input_passes(self, shape):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = check_skew(np.zeros(shape))
        assert out.shape == shape
        np.testing.assert_array_equal(out, _two_pass_check_skew(np.zeros(shape)))

    def test_non_finite_is_reported_before_non_skew(self):
        mat = _with_entries(np.zeros((4, 4)), [((0, 1), 1.0), ((2, 3), np.nan)])
        with pytest.raises(ValidationError, match="has non-finite entries"):
            check_skew(mat)
