"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single summary line (visible with ``pytest -s`` or on
failure) and asserts the criterion exactly as specified, including runtime
budgets where stated.
"""

import time

import numpy as np
import pytest

from conftest import (
    random_hamiltonian,
    random_operator_string,
    random_symmetric_zero_diag,
)
from ngfermi import oracle
from ngfermi.circuit import emit_ufa, verify_dense
from ngfermi.errors import ValidationError
from ngfermi.gaussian import (
    covariance_from_xi,
    random_generator,
    random_pure_covariance,
    upsilon,
)
from ngfermi.hamiltonian import (
    energy,
    energy_gradient_omega,
    hubbard_model,
    mean_field_h,
    mean_field_o,
)
from ngfermi.linalg import BlockContractionKind, block_contract, pfaffian
from ngfermi.optimizer import (
    RunOptions,
    b_tensor,
    dtau_omega_hitgd,
    initial_state,
    quadratic_form,
    run,
)
from ngfermi.wick import a_coeff, contract, enumerate_pairings, expectation_from, g_matrix, q_matrix

E_EXACT_HUBBARD = 2.0 - 2.0 * np.sqrt(2.0) - 4.0  # exact diagonalization cross-check


def report(name, value, bound, unit="max deviation"):
    print(f"ACCEPTANCE {name}: PASS ({unit} {value:.3e}, bound {bound:.0e})")


def test_01_generalized_wick_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(50):
            params = random_generator(n, rng)
            cov = covariance_from_xi(params)
            alpha = rng.uniform(-np.pi, np.pi, size=n)
            state = oracle.dense_state(params.xi, np.zeros((n, n)))
            bundle = contract(cov, alpha)
            for length in (0, 2, 4, 6):
                for _ in range(5):  # 20 strings per draw across the lengths
                    string = random_operator_string(n, length, rng)
                    dense = oracle.dense_expectation(state, alpha, string)
                    fast = expectation_from(bundle, string)
                    worst = max(worst, abs(dense - fast))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 120.0
    report("1 generalized-Wick oracle equivalence", worst, 1e-9)


def test_02_plain_wick_reduction():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        cov = random_pure_covariance(n, rng)
        g0 = cov.gamma + upsilon(n)

        def classical_pair(first, second):
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

        bundle = contract(cov, np.zeros(n))
        for length in (2, 4, 6):
            string = random_operator_string(n, length, rng)
            classical = sum(
                pairing.sign
                * np.prod([classical_pair(string[i], string[j]) for i, j in pairing.pairs])
                for pairing in enumerate_pairings(length)
            )
            worst = max(worst, abs(expectation_from(bundle, string) - classical))
    assert worst < 1e-12
    report("2 plain-Wick reduction", worst, 1e-12)


def test_03_energy_functional_vs_dense():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    hamil = hubbard_model(2, 1.0, 4.0, 2.0)
    worst = 0.0
    for _ in range(20):
        params = random_generator(4, rng)
        cov = covariance_from_xi(params)
        w = random_symmetric_zero_diag(4, rng, scale=1.5)
        state = oracle.dense_state(params.xi, w)
        _, _, e = energy(cov, w, hamil)
        worst = max(worst, abs(e - oracle.dense_energy(state, hamil)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 30.0
    report("3 energy functional vs dense", worst, 1e-10)


def test_04_coupling_gradient_vs_dense_finite_differences():
    rng = np.random.default_rng(104)
    step = 1e-5
    worst = 0.0
    for _ in range(10):
        hamil = random_hamiltonian(4, rng)
        params = random_generator(4, rng)
        cov = covariance_from_xi(params)
        w = random_symmetric_zero_diag(4, rng)
        grad = energy_gradient_omega(cov, w, hamil)
        scale = max(1.0, float(np.max(np.abs(grad))))
        for i in range(4):
            for j in range(i + 1, 4):
                wp, wm = w.copy(), w.copy()
                wp[i, j] += step
                wp[j, i] += step
                wm[i, j] -= step
                wm[j, i] -= step
                ep = oracle.dense_energy(oracle.dense_state(params.xi, wp), hamil)
                em = oracle.dense_energy(oracle.dense_state(params.xi, wm), hamil)
                fd = (ep - em) / (2.0 * step)
                worst = max(worst, abs(grad[i, j] - 0.5 * fd) / scale)
    assert worst < 1e-6
    report("4 coupling gradient vs dense finite differences", worst, 1e-6, "relative")


def test_05_mean_field_consistency():
    rng = np.random.default_rng(105)
    step = 1e-5
    worst = 0.0
    worst_structure = 0.0
    for _ in range(10):
        hamil = random_hamiltonian(4, rng)
        cov = random_pure_covariance(4, rng)
        w = random_symmetric_zero_diag(4, rng)
        h_m = mean_field_h(cov, w, hamil)
        worst_structure = max(worst_structure, float(np.max(np.abs(h_m + h_m.T))))
        scale = max(1.0, float(np.max(np.abs(h_m))))
        for i in range(8):
            for j in range(i + 1, 8):
                d = np.zeros((8, 8))
                d[i, j] = 1.0
                d[j, i] = -1.0
                ep = energy(cov.gamma + step * d, w, hamil)[2]
                em = energy(cov.gamma - step * d, w, hamil)[2]
                fd_structured = 0.5 * (ep - em) / (2.0 * step)
                worst = max(worst, abs(h_m[i, j] - 4.0 * fd_structured) / scale)
    assert worst < 1e-6
    assert worst_structure < 1e-9
    report("5 mean-field consistency", worst, 1e-6, "relative")


def test_06_flow_tensor_identity():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        cov = random_pure_covariance(n, rng)
        dw = random_symmetric_zero_diag(n, rng)
        tensor = b_tensor(cov)
        o_m = mean_field_o(cov, dw)
        worst = max(
            worst, abs(quadratic_form(tensor, dw) - np.trace(o_m @ o_m).real)
        )
    assert worst < 1e-10
    report("6 flow-tensor quadratic identity", worst, 1e-10)


def test_07_hitgd_cancellation():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 6))
        cov = random_pure_covariance(n, rng)
        grad = random_symmetric_zero_diag(n, rng)
        tensor = b_tensor(cov)
        dw = dtau_omega_hitgd(tensor, grad)
        residual = quadratic_form(tensor, dw) / 8.0 + float(np.sum(grad * dw))
        worst = max(worst, abs(residual))
    assert worst < 1e-10
    report("7 pseudo-inverse cancellation", worst, 1e-10)


def test_08_monotone_optimization():
    start = time.perf_counter()
    hamil = hubbard_model(2, 1.0, 4.0, 2.0)

    # mean-field-initialized run, early stopping disabled to force >= 200 steps
    options = RunOptions(max_steps=210, tol_g=0.0, tol_e=0.0, patience=10_000)
    state0 = initial_state(hamil)
    e_init = state0.energy
    final, records, _ = run(hamil, options, state0)
    energies = [r.energy for r in records]
    accepted = len(records) - 1
    assert accepted >= 200
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    assert E_EXACT_HUBBARD - 1e-9 <= final.energy <= e_init + 1e-12

    # flux couplings must not end above the frozen (Gaussian-only) run from
    # the same initialization; compare converged runs from a symmetry-broken
    # start, where the descent is non-trivial
    base = dict(max_steps=1500, tol_g=1e-8, tol_e=1e-12, patience=15)
    opts_ngs = RunOptions(**base)
    opts_frozen = RunOptions(freeze_omega=True, **base)
    final_ngs, recs_ngs, _ = run(hamil, opts_ngs, initial_state(hamil, seed=11))
    final_frozen, _, _ = run(hamil, opts_frozen, initial_state(hamil, seed=11))
    ngs_energies = [r.energy for r in recs_ngs]
    assert all(b <= a + 1e-12 for a, b in zip(ngs_energies, ngs_energies[1:]))
    assert final_ngs.energy <= final_frozen.energy + 1e-9
    assert E_EXACT_HUBBARD - 1e-9 <= final_ngs.energy

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(
        f"ACCEPTANCE 8 monotone optimization: PASS ({accepted} accepted steps, "
        f"mean-field run E={final.energy:.6f} in [{E_EXACT_HUBBARD:.5f}, {e_init:.5f}]; "
        f"symmetry-broken run E={final_ngs.energy:.6f} <= frozen {final_frozen.energy:.6f} + 1e-9)"
    )


def test_09_rank1_fast_paths():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 6))
        cov = random_pure_covariance(n, rng)
        alpha = rng.uniform(0.2, np.pi, size=n) * rng.choice([-1.0, 1.0], size=n)
        assert np.all(np.abs(1.0 - np.exp(1j * alpha)) > 1e-12)
        worst = max(
            worst,
            float(np.max(np.abs(
                g_matrix(cov, alpha, "rank1") - g_matrix(cov, alpha, "direct")
            ))),
            float(np.max(np.abs(
                q_matrix(cov, alpha, "rank1") - q_matrix(cov, alpha, "direct")
            ))),
        )
        # inject zero phases: the rank-1 path must refuse them
        alpha_zero = alpha.copy()
        alpha_zero[int(rng.integers(0, n))] = 0.0
        for fn in (g_matrix, q_matrix):
            with pytest.raises(ValidationError):
                fn(cov, alpha_zero, "rank1")
    assert worst < 1e-10
    report("9 rank-1 fast paths vs direct inversion", worst, 1e-10)


def test_10_circuit_fidelity():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(20):
        w = random_symmetric_zero_diag(4, rng, scale=np.pi)
        gates = emit_ufa(w)
        worst = max(worst, verify_dense(gates, w))
    assert worst < 1e-10
    # dense couplings: one rotation per qubit, one coupler per pair
    w = random_symmetric_zero_diag(4, rng) + 0.7
    np.fill_diagonal(w, 0.0)
    w = 0.5 * (w + w.T)
    counts = emit_ufa(w).counts()
    assert counts["rz"] == 4
    assert counts["zz"] == 6
    report("10 circuit fidelity", worst, 1e-10)


def test_11_pfaffian_suite():
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(200):
        dim = 2 * int(rng.integers(1, 7))  # up to 12x12
        mat = rng.standard_normal((dim, dim))
        skew = 0.5 * (mat - mat.T)
        det = np.linalg.det(skew)
        worst = max(worst, abs(pfaffian(skew) ** 2 - det) / max(1.0, abs(det)))
    assert worst < 1e-10
    worst_norm = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 6))
        cov = random_pure_covariance(n, rng)
        worst_norm = max(worst_norm, abs(a_coeff(cov, np.zeros(n)) - 1.0))
    assert worst_norm < 1e-12
    report("11 Pfaffian suite", max(worst, worst_norm), 1e-10)
