"""Oracle cross-check suite: every fast path against the dense reference.

Each check draws seeded random instances, evaluates one identity both ways
and reports the worst deviation with its tolerance.  The CLI ``validate``
command prints the table and fails when any deviation exceeds its bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import circuit, gaussian, oracle, optimizer, wick
from . import hamiltonian as ham
from .errors import ValidationError
from .linalg import pfaffian


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation < self.tolerance


def random_symmetric_zero_diag(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    m = rng.uniform(-scale, scale, size=(n, n))
    m = 0.5 * (m + m.T)
    np.fill_diagonal(m, 0.0)
    return m


def random_two_body(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random real tensor with the full antisymmetrized index symmetries."""
    t = rng.standard_normal((n, n, n, n))
    a = t - np.transpose(t, (1, 0, 2, 3))
    b = a - np.transpose(a, (0, 1, 3, 2))
    return 0.5 * (b + np.transpose(b, (3, 2, 1, 0)))


def random_hamiltonian(n: int, rng: np.random.Generator) -> ham.ManyBodyHamiltonian:
    f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f = 0.5 * (f + f.conj().T)
    return ham.ManyBodyHamiltonian(n, f, random_two_body(n, rng))


def random_operator_string(n: int, length: int, rng: np.random.Generator) -> tuple:
    return tuple(
        (int(rng.integers(0, n)), bool(rng.integers(0, 2))) for _ in range(length)
    )


def check_wick_vs_dense(n_modes: int, rng: np.random.Generator, draws: int = 10) -> CheckResult:
    worst = 0.0
    for _ in range(draws):
        params = gaussian.random_generator(n_modes, rng)
        cov = gaussian.covariance_from_xi(params)
        alpha = rng.uniform(-np.pi, np.pi, size=n_modes)
        state = oracle.dense_state(params.xi, np.zeros((n_modes, n_modes)))
        bundle = wick.contract(cov, alpha)
        for length in (0, 2, 4, 6):
            for _ in range(5):
                string = random_operator_string(n_modes, length, rng)
                dense = oracle.dense_expectation(state, alpha, string)
                fast = wick.expectation_from(bundle, string)
                worst = max(worst, abs(dense - fast))
    return CheckResult("generalized Wick vs dense", worst, 1e-9)


def _omega(n_modes: int, rng: np.random.Generator, trial: int, draws: int, scale: float = 1.0) -> np.ndarray:
    """Random couplings for trials 0 .. draws - 1, and zero for one trial more:
    at omega = 0 the evaluator has no phased key and reads the energy from
    the Hamiltonian's quadratic form, not from a contraction bundle."""
    if trial == draws:
        return np.zeros((n_modes, n_modes))
    return random_symmetric_zero_diag(n_modes, rng, scale=scale)


def check_energy_vs_dense(n_modes: int, rng: np.random.Generator, draws: int = 8) -> CheckResult:
    worst = 0.0
    hubbard = ham.hubbard_model(2, 1.0, 4.0, 2.0) if n_modes == 4 else None
    for trial in range(draws + 1):  # the last at omega = 0, on a random Hamiltonian
        hubbard_draw = hubbard is not None and trial % 2 == 0 and trial < draws
        hamil = hubbard if hubbard_draw else random_hamiltonian(n_modes, rng)
        params = gaussian.random_generator(n_modes, rng)
        cov = gaussian.covariance_from_xi(params)
        w = _omega(n_modes, rng, trial, draws, scale=1.5)
        state = oracle.dense_state(params.xi, w)
        _, _, e = ham.energy(cov, w, hamil)
        worst = max(worst, abs(e - oracle.dense_energy(state, hamil)))
    return CheckResult("energy vs dense", worst, 1e-10)


def check_gradient_vs_dense(n_modes: int, rng: np.random.Generator, draws: int = 3) -> CheckResult:
    worst = 0.0
    step = 1e-5
    for trial in range(draws + 1):  # the last at omega = 0
        hamil = random_hamiltonian(n_modes, rng)
        params = gaussian.random_generator(n_modes, rng)
        cov = gaussian.covariance_from_xi(params)
        w = _omega(n_modes, rng, trial, draws)
        grad = ham.energy_gradient_omega(cov, w, hamil)
        scale = max(1.0, float(np.max(np.abs(grad))))
        for i in range(n_modes):
            for j in range(i + 1, n_modes):
                wp, wm = w.copy(), w.copy()
                wp[i, j] += step
                wp[j, i] += step
                wm[i, j] -= step
                wm[j, i] -= step
                ep = oracle.dense_energy(oracle.dense_state(params.xi, wp), hamil)
                em = oracle.dense_energy(oracle.dense_state(params.xi, wm), hamil)
                fd = (ep - em) / (2.0 * step)
                # the ordered-entry gradient is half the symmetric-pair derivative
                worst = max(worst, abs(grad[i, j] - 0.5 * fd) / scale)
    return CheckResult("coupling gradient vs dense finite differences", worst, 1e-6)


def check_mean_field_vs_fd(n_modes: int, rng: np.random.Generator, draws: int = 2) -> CheckResult:
    worst = 0.0
    step = 1e-5
    for trial in range(draws + 1):  # the last at omega = 0
        hamil = random_hamiltonian(n_modes, rng)
        cov = gaussian.random_pure_covariance(n_modes, rng)
        w = _omega(n_modes, rng, trial, draws)
        h_m = ham.mean_field_h(cov, w, hamil)
        scale = max(1.0, float(np.max(np.abs(h_m))))
        g0 = cov.gamma
        two_n = 2 * n_modes
        for i in range(two_n):
            for j in range(i + 1, two_n):
                d = np.zeros((two_n, two_n))
                d[i, j] = 1.0
                d[j, i] = -1.0
                ep = ham.energy(g0 + step * d, w, hamil)[2]
                em = ham.energy(g0 - step * d, w, hamil)[2]
                fd_structured = 0.5 * (ep - em) / (2.0 * step)
                worst = max(worst, abs(h_m[i, j] - 4.0 * fd_structured) / scale)
    return CheckResult("mean-field matrix vs structured finite differences", worst, 1e-6)


def check_b_tensor_identity(n_modes: int, rng: np.random.Generator, draws: int = 10) -> CheckResult:
    worst = 0.0
    for _ in range(draws):
        cov = gaussian.random_pure_covariance(n_modes, rng)
        dw = random_symmetric_zero_diag(n_modes, rng)
        tensor = optimizer.b_tensor(cov)
        o_m = ham.mean_field_o(cov, dw)
        worst = max(
            worst,
            abs(optimizer.quadratic_form(tensor, dw) - np.trace(o_m @ o_m).real),
        )
    return CheckResult("flow-tensor quadratic form vs tr(O^2)", worst, 1e-10)


def check_hitgd_cancellation(n_modes: int, rng: np.random.Generator, draws: int = 10) -> CheckResult:
    worst = 0.0
    for _ in range(draws):
        cov = gaussian.random_pure_covariance(n_modes, rng)
        grad = random_symmetric_zero_diag(n_modes, rng)
        tensor = optimizer.b_tensor(cov)
        dw = optimizer.dtau_omega_hitgd(tensor, grad)
        residual = optimizer.quadratic_form(tensor, dw) / 8.0 + float(np.sum(grad * dw))
        worst = max(worst, abs(residual))
    return CheckResult("pseudo-inverse cancellation identity", worst, 1e-10)


def check_circuit(n_modes: int, rng: np.random.Generator, draws: int = 10) -> CheckResult:
    worst = 0.0
    for _ in range(draws):
        w = random_symmetric_zero_diag(n_modes, rng, scale=np.pi)
        gates = circuit.emit_ufa(w)
        worst = max(worst, circuit.verify_dense(gates, w))
        qasm_unitary = circuit.simulate_qasm_unitary(circuit.to_qasm(gates))
        direct = np.diag(circuit.gate_diagonal(gates) * np.exp(-1j * gates.global_phase))
        worst = max(worst, float(np.max(np.abs(qasm_unitary - direct))))
    return CheckResult("circuit dense fidelity + QASM round trip", worst, 1e-10)


def check_pfaffian(rng: np.random.Generator, draws: int = 40) -> CheckResult:
    worst = 0.0
    for _ in range(draws):
        dim = 2 * int(rng.integers(1, 7))
        mat = rng.standard_normal((dim, dim))
        skew = 0.5 * (mat - mat.T)
        pf = pfaffian(skew)
        det = np.linalg.det(skew)
        scale = max(1.0, abs(det))
        worst = max(worst, abs(pf**2 - det) / scale)
    for _ in range(10):
        cov = gaussian.random_pure_covariance(int(rng.integers(2, 6)), rng)
        a0 = wick.a_coeff(cov, np.zeros(cov.n_modes))
        worst = max(worst, abs(a0 - 1.0))
    return CheckResult("Pfaffian: Pf^2 = det and unit normalization", worst, 1e-10)


def check_rank1_paths(n_modes: int, rng: np.random.Generator, draws: int = 8) -> CheckResult:
    worst = 0.0
    for _ in range(draws):
        cov = gaussian.random_pure_covariance(n_modes, rng)
        alpha = rng.uniform(-np.pi, np.pi, size=n_modes)
        alpha[np.abs(alpha) < 1e-3] = 0.5  # keep the rank-1 path eligible
        g_fast = wick.g_matrix(cov, alpha, method="rank1")
        g_direct = wick.g_matrix(cov, alpha, method="direct")
        q_fast = wick.q_matrix(cov, alpha, method="rank1")
        q_direct = wick.q_matrix(cov, alpha, method="direct")
        worst = max(worst, float(np.max(np.abs(g_fast - g_direct))))
        worst = max(worst, float(np.max(np.abs(q_fast - q_direct))))
        # inject a zero phase: the rank-1 path must refuse it
        alpha[0] = 0.0
        try:
            wick.g_matrix(cov, alpha, method="rank1")
            return CheckResult("rank-1 inverse paths vs direct", np.inf, 1e-10)
        except ValidationError:
            pass
    return CheckResult("rank-1 inverse paths vs direct", worst, 1e-10)


def run_all(n_modes: int = 4, seed: int = 2024) -> list[CheckResult]:
    """Run the whole suite at the given mode count with a fixed seed."""
    if not 1 <= n_modes <= oracle.MAX_EXPONENTIAL_MODES:
        raise ValidationError(
            f"validation needs dense oracles; use 1 <= n_modes <= "
            f"{oracle.MAX_EXPONENTIAL_MODES}, got {n_modes}"
        )
    rng = np.random.default_rng(seed)
    return [
        check_pfaffian(rng),
        check_wick_vs_dense(n_modes, rng),
        check_energy_vs_dense(n_modes, rng),
        check_gradient_vs_dense(n_modes, rng),
        check_mean_field_vs_fd(n_modes, rng),
        check_b_tensor_identity(n_modes, rng),
        check_hitgd_cancellation(n_modes, rng),
        check_circuit(n_modes, rng),
        check_rank1_paths(n_modes, rng),
    ]
