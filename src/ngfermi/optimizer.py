"""Monotone hybrid optimizer: imaginary-time covariance flow + flux-coupling descent.

Each step computes the coupling gradient, turns it into a coupling velocity
(either through the pseudo-inverse of the flow tensor, which cancels the
coupling term in the energy derivative exactly, or through plain gradient
descent), assembles the two mean-field matrices and rotates the covariance
along its imaginary-time flow by a Cayley step, with alternating
Barzilai-Borwein step lengths.  A step that leaves omega where it is (frozen)
rotates the covariance along the limited-memory BFGS direction of its Cayley
generator instead.  A backtracking guard halves the step until the energy
does not increase, so accepted steps are monotone by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NumericsError, StagnationError, ValidationError
from .gaussian import (
    CovarianceMatrix,
    _as_gamma,
    mean_field_covariance,
    random_pure_covariance,
    upsilon,
)
from .hamiltonian import ManyBodyHamiltonian, NonGaussianParams, StateEvaluator, mean_field_o
from .wick import wrap_angles

ENERGY_INCREASE_TOL = 1e-12
# the next step size where the Barzilai-Borwein s.y is not positive, as a multiple of the last
STEP_GROWTH = 1.2
# the (s, y) pairs a frozen step's L-BFGS direction remembers
LBFGS_MEMORY = 5
# the spectral cutoff of the flow matrix's pseudo-inverse, relative to its largest eigenvalue
PINV_RCOND = 1e-8


@dataclass(frozen=True)
class BTensor:
    """Quadratic form of the coupling velocity in the energy derivative.

    ``g`` is twice the mode-occupation vector and ``blocks_sq`` (S) the N x N
    sum of the squared blocks of gamma + Upsilon.  Together they fix the N^4
    tensor, with the pair symmetries and zero where k = l or m = n,

        8 B_klmn = g_l g_m d_kn + g_l g_n d_km + g_k g_m d_ln + g_k g_n d_lm
                   + S_kl (d_km d_ln + d_kn d_lm)

    (d the Kronecker delta), which is read only on the k<l pairs: the
    matricized form (:func:`matricize_b`) is PSD.
    """

    g: np.ndarray
    blocks_sq: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.g.shape[0]


def b_tensor(gamma) -> BTensor:
    """Flow tensor of the covariance matrix; depends on gamma only."""
    g = _as_gamma(gamma)
    n = g.shape[0] // 2
    g0 = g + upsilon(n)
    gvec = np.diag(g[:n, n:]) + 1.0
    blocks_sq = (
        g0[:n, :n] ** 2 + g0[:n, n:] ** 2 + g0[n:, :n] ** 2 + g0[n:, n:] ** 2
    )
    return BTensor(gvec, blocks_sq)


@lru_cache(maxsize=None)
def _pairs(n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """The k<l mode pairs (row-major) as read-only index arrays, once per mode count."""
    rows, cols = np.triu_indices(n_modes, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def matricize_b(tensor: BTensor) -> np.ndarray:
    """Reduced matrix over k<l pairs (row-major): B[(kl),(mn)] = B_klmn.

    On pairs the tensor is diagonal plus rank N: B = (X X^T + diag(d)) / 8 with
    X[(kl), j] = g_l delta_kj + g_k delta_lj and d_kl = blocks_sq[k, l] (the
    term delta_kn delta_lm of the tensor vanishes for k<l, m<n).
    """
    rows, cols = _pairs(tensor.n_modes)
    pairs = np.arange(len(rows))
    x = np.zeros((len(rows), tensor.n_modes))
    x[pairs, rows] = tensor.g[cols]
    x[pairs, cols] = tensor.g[rows]
    return (x @ x.T + np.diag(tensor.blocks_sq[rows, cols])) / 8.0


def quadratic_form(tensor: BTensor, domega: np.ndarray) -> float:
    """sum_klmn domega_kl B_klmn domega_mn for a symmetric zero-diagonal domega.

    Each k<l pair stands for the ordered (k, l) and (l, k) on both sides, so
    the sum is 4 x^T B x over the pairs (:func:`matricize_b`), x_kl = domega_kl.
    """
    rows, cols = _pairs(tensor.n_modes)
    x = np.asarray(domega, dtype=float)[rows, cols]
    return float(4.0 * (x @ matricize_b(tensor) @ x))


def dtau_omega_hitgd(tensor: BTensor, grad: np.ndarray) -> np.ndarray:
    """Coupling velocity from the pseudo-inverse of the reduced flow matrix.

    Solves (1/8) sum_mn B_klmn domega_mn = -grad_kl in the k<l pair basis,
    which makes (1/8) tr(O_m^2) + sum_kl grad_kl domega_kl vanish identically;
    the identity survives any spectral cutoff because P B P = P for the
    truncated pseudo-inverse.  The cutoff ``PINV_RCOND`` (1e-8, relative to
    the largest eigenvalue) is deliberately loose:
    symmetric states carry exact zero modes of the flow tensor that state
    noise lifts to ~1e-12, and retaining them turns noise-level gradients
    into enormous velocities that stall the time stepper.
    """
    n = tensor.n_modes
    grad = np.asarray(grad, dtype=float)
    if grad.shape != (n, n):
        raise ValidationError(f"gradient must be {n}x{n}, got {grad.shape}")
    out = np.zeros((n, n))
    if n < 2:
        return out
    reduced = matricize_b(tensor)
    if not np.all(np.isfinite(reduced)):
        raise ValidationError("flow matrix has non-finite entries")
    rows, cols = _pairs(n)
    rhs = grad[rows, cols]
    # a screen: lambda_min >= min(d)/8 (Weyl) and lambda_max <= (max(d) + 2|g|^2)/8,
    # since X^T X = g g^T + diag(|g|^2 - 2 g_j^2); when these bounds keep every
    # eigenvalue above the cutoff, the pseudo-inverse is the inverse
    d = tensor.blocks_sq[rows, cols]
    if d.min() > PINV_RCOND * (d.max() + 2.0 * (tensor.g @ tensor.g)):
        x = -4.0 * np.linalg.solve(reduced, rhs)
    else:
        # the pseudo-inverse from the eigenvectors of the symmetric PSD matrix: its
        # singular values are |lambda|, so this keeps what pinv's cutoff keeps
        lam, vecs = np.linalg.eigh(reduced)
        keep = np.abs(lam) > PINV_RCOND * np.max(np.abs(lam))
        vecs = vecs[:, keep]
        x = -4.0 * (vecs @ ((vecs.T @ rhs) / lam[keep]))
    out[rows, cols] = out[cols, rows] = x
    return out


def dtau_omega_simple(grad: np.ndarray, c: float) -> np.ndarray:
    """Plain gradient descent velocity -grad / c."""
    if not (c > 0.0):
        raise ValidationError(f"descent coefficient must be positive, got {c}")
    return -np.asarray(grad, dtype=float) / c


def dtau_gamma(gamma, h_fa_m: np.ndarray, o_m: np.ndarray | None = None) -> np.ndarray:
    """Covariance velocity -H - gamma H gamma + i [gamma, O]; real skew, and
    tangent to the purity manifold ({gamma, dgamma} = 0 when gamma^2 = -1).

    ``o_m`` None stands for O = 0 (a zero coupling velocity), whose
    commutator term is exactly zero.
    """
    g = _as_gamma(gamma)
    h = np.asarray(h_fa_m, dtype=float)
    out = -h - g @ h @ g
    if o_m is not None:
        o = np.asarray(o_m, dtype=complex)
        out = out + 1j * (g @ o - o @ g)
        imag_dev = float(np.max(np.abs(out.imag), initial=0.0))
        if imag_dev > 1e-9 * max(1.0, float(np.max(np.abs(out.real)))):
            raise ValidationError(f"covariance velocity has imaginary residue {imag_dev:.3e}")
        out = out.real
    return 0.5 * (out - out.T)


def cayley_generator(gamma, h_fa_m: np.ndarray, o_m: np.ndarray | None = None) -> np.ndarray:
    """Real skew K = (H gamma - gamma H)/2 + Re(-i O); for a pure gamma, [K, gamma]
    is :func:`dtau_gamma`'s velocity.  ``o_m`` None stands for O = 0."""
    g = _as_gamma(gamma)
    h = np.asarray(h_fa_m, dtype=float)
    k = 0.5 * (h @ g - g @ h)
    if o_m is not None:
        k = k + np.asarray(o_m).imag  # Re(-i O) = Im O
    return 0.5 * (k - k.T)


@lru_cache(maxsize=None)
def _identity(size: int) -> tuple[np.ndarray, np.ndarray]:
    """The identity and 1.5 times it, read-only, once per size."""
    eye = np.eye(size)
    eye_3_2 = 1.5 * eye
    eye.flags.writeable = eye_3_2.flags.writeable = False
    return eye, eye_3_2


def cayley_rotate(gamma: CovarianceMatrix, generator: np.ndarray, tau: float) -> CovarianceMatrix:
    """C gamma C^T with the Cayley rotation C = (1 - tau K/2)^-1 (1 + tau K/2).

    C is orthogonal for every tau, so a pure gamma stays pure; d/dtau at 0 is
    [K, gamma].  The solve's rounding grows with tau |K| (1.4e-12 at tau = 1e3,
    N = 5); one Newton-Schulz pass C (3 - C^T C)/2 makes C orthogonal again.
    """
    eye, eye_3_2 = _identity(generator.shape[0])
    half = (0.5 * tau) * generator
    c = np.linalg.solve(eye - half, eye + half)
    c = c @ (eye_3_2 - 0.5 * (c.T @ c))
    x = c @ gamma.gamma @ c.T
    # finite (K is checked), real, and exactly skew by construction
    return CovarianceMatrix._of_skew(0.5 * (x - x.T))


def bb_step_length(state: OptimizerState, options: RunOptions, dgamma: np.ndarray, domega) -> float:
    """First trial length of a step from ``state`` that moves omega, in [dtau_min, dtau_max].

    With the last step's length tau_k and velocities v_k = (dgamma, domega),
    s = tau_k v_k and y = v_k - v_{k+1}; the length alternates between s.s/s.y
    and s.y/y.y (Dai and Fletcher 2005), long first.  domega counts only when
    both steps moved omega.  The first step takes ``dtau0``, and one with
    s.y <= 0, or after a frozen step (which keeps no velocity), takes
    STEP_GROWTH times the last step, capped at ``dtau_max``.
    """
    last = state.last_step
    if last is None:
        return options.dtau0
    if last.dgamma is None:
        return min(last.dtau * STEP_GROWTH, options.dtau_max)
    tau, dgamma_k, domega_k = last.dtau, last.dgamma, last.domega
    y = dgamma_k - dgamma  # s.s, s.y and y.y below leave out the factors of tau
    ss, sy, yy = np.vdot(dgamma_k, dgamma_k), np.vdot(dgamma_k, y), np.vdot(y, y)
    if domega_k is not None and domega is not None:
        y = domega_k - domega
        ss, sy, yy = ss + np.vdot(domega_k, domega_k), sy + np.vdot(domega_k, y), yy + np.vdot(y, y)
    if not sy > 0.0:
        return min(tau * STEP_GROWTH, options.dtau_max)
    length = float(tau * ss / sy if last.long else tau * sy / yy)
    return min(max(length, options.dtau_min), options.dtau_max)


def lbfgs_direction(memory: np.ndarray) -> tuple[np.ndarray, float]:
    """The L-BFGS direction p = H K / theta, and theta = s.y / y.y of the newest pair.

    ``memory`` holds m >= 1 pairs and the generator as rows, all flattened:
    s_0 ... s_{m-1}, then y_0 ... y_{m-1}, oldest first and each with
    s_i.y_i > 0, then K.  H is the inverse-Hessian estimate the pairs update
    from H_0 = theta I, so p.K > 0.  The two-loop recursion (Nocedal 1980)
    runs on inner products alone, since each of its vectors is theta K plus
    a sum of the s_i and y_i: one product with the y_i and K gives every
    inner product it reads, and a second one builds p.
    """
    m = len(memory) // 2
    dots = (memory @ memory[m:].T).tolist()  # row i: x_i.y_0, ..., x_i.y_{m-1}, x_i.K
    s_y, y_y = dots[:m], dots[m:-1]
    theta = s_y[-1][m - 1] / y_y[-1][m - 1]
    alpha = [0.0] * m
    for i in reversed(range(m)):
        row = s_y[i]
        a = row[m]
        for j in range(i + 1, m):
            a -= row[j] * alpha[j]
        alpha[i] = a / row[i]
    diff = [0.0] * m  # alpha_i - beta_i of the second loop
    for i in range(m):
        row = y_y[i]
        y_r = row[m]
        for j in range(m):
            y_r -= row[j] * alpha[j]
        y_r *= theta
        for j in range(i):
            y_r += diff[j] * s_y[j][i]
        diff[i] = alpha[i] - y_r / s_y[i][i]
    # H K / theta = K + sum_i (diff_i / theta) s_i - alpha_i y_i
    coef = [d / theta for d in diff] + [-a for a in alpha] + [1.0]
    return np.dot(coef, memory), theta


def lbfgs_step(
    state: OptimizerState, options: RunOptions, generator: np.ndarray
) -> tuple[np.ndarray, float, np.ndarray]:
    """Direction, first trial length and L-BFGS memory of a frozen step from ``state``.

    A frozen step that reached ``state`` with direction p_k, length tau_k and
    generator K_k gives the pair s = tau_k p_k, y = K_k - K, kept only when
    s.y > 0, with the last LBFGS_MEMORY - 1 pairs it remembers.  The
    generator K is -2 times the energy's gradient in generator coordinates
    (dE = -<X, K>/2 along a rotation by X), so with the pairs'
    inverse-Hessian estimate H the step takes p = H K / theta and first
    tries theta (:func:`lbfgs_direction`), clipped to [dtau_min, dtau_max];
    unclipped, tau p is the quasi-Newton step H K.  With no pair, p = K and
    the length is ``dtau0`` on a run's first step, else STEP_GROWTH times
    the last step, capped at ``dtau_max``.  The memory returned is the
    pairs and K, as :func:`lbfgs_direction` reads them.
    """
    last = state.last_step
    k = generator.ravel()
    memory = k[None]
    if last is not None and last.memory is not None:
        old, m = last.memory, len(last.memory) // 2
        s = last.dtau * last.direction.ravel()
        y = old[-1] - k
        if s @ y > 0.0:
            keep = min(m, LBFGS_MEMORY - 1)
            memory = np.concatenate((old[m - keep:m], s[None], old[2 * m - keep:2 * m], y[None], memory))
        elif m:
            memory = np.concatenate((old[:-1], memory))
    if len(memory) == 1:
        length = options.dtau0 if last is None else min(last.dtau * STEP_GROWTH, options.dtau_max)
        return generator, length, memory
    direction, theta = lbfgs_direction(memory)
    length = min(max(theta, options.dtau_min), options.dtau_max)
    return direction.reshape(generator.shape), length, memory


class LastStep(NamedTuple):
    """The step that reached a state, as the next step's length and direction read it.

    A step that moved omega keeps its velocities ``dgamma`` and ``domega`` and
    whether the next one takes the long Barzilai-Borwein length
    (:func:`bb_step_length`).  A frozen step keeps its direction p and the
    L-BFGS ``memory``, its pairs and generator (:func:`lbfgs_step`); a step
    that moves omega drops them.
    """

    dtau: float
    dgamma: np.ndarray | None = None
    domega: np.ndarray | None = None
    long: bool = False
    direction: np.ndarray | None = None
    memory: np.ndarray | None = None


@dataclass(frozen=True)
class OptimizerState:
    """Live optimizer state: its evaluator, imaginary time and energy.

    ``evaluator`` is the state: its gamma and omega are :attr:`gamma` and
    :attr:`omega`, and it holds the contraction bundles, so the gradient and
    the mean-field matrix of the step that starts from this state reuse the
    bundles its energy was computed from.  ``last_step`` is the
    :class:`LastStep` that reached this state, which the next step's length
    and direction read; a fresh or restarted state has none.
    """

    evaluator: StateEvaluator
    tau: float
    energy: float
    last_step: LastStep | None = field(default=None, repr=False, compare=False)

    @property
    def gamma(self) -> CovarianceMatrix:
        return self.evaluator.gamma

    @property
    def omega(self) -> NonGaussianParams:
        return self.evaluator.omega


@dataclass(frozen=True)
class TrajectoryRecord:
    """Per-step telemetry emitted by :func:`run`.

    ``grad_norm`` is NaN (written as null) where no gradient was computed:
    the step-0 record and every record of a ``freeze_omega`` run.
    ``backtracks`` counts the halvings of the step (0 for step 0).
    """

    step: int
    tau: float
    energy: float
    grad_norm: float
    dtau: float
    purity_err: float
    wall_ms: float
    backtracks: int

    def as_dict(self) -> dict:
        grad = None if np.isnan(self.grad_norm) else self.grad_norm
        return {
            "step": self.step,
            "tau": self.tau,
            "energy": self.energy,
            "grad_norm": grad,
            "dtau": self.dtau,
            "purity_err": self.purity_err,
            "wall_ms": self.wall_ms,
            "backtracks": self.backtracks,
        }


@dataclass(frozen=True)
class RunOptions:
    """Optimizer knobs: update variant, step-size policy, stopping rules.

    ``dtau0`` is the first step's length, ``dtau_max`` caps every later one,
    and halving below ``dtau_min`` raises :class:`StagnationError`, so
    dtau_min <= dtau_max and dtau0 >= dtau_min.  A length is along the
    step's direction: K on a step that moves omega, and on a frozen step
    the L-BFGS direction H K / theta, which is K when no pair is kept.  The
    gradient stop needs the coupling gradient and the covariance velocity
    (:func:`dtau_gamma` with O = 0) both below ``tol_g`` in max-norm, since
    at omega = 0 the first can vanish off a stationary point.  Setting
    ``tol_g`` or ``tol_e`` to exactly 0 disables that stopping rule (the
    comparisons are strict, and a gradient can vanish identically at
    symmetric points).
    """

    omega_update: str = "hitgd"  # "hitgd" | "simple"
    simple_c: float | None = None
    freeze_omega: bool = False
    dtau0: float = 0.1
    dtau_max: float = 1.0
    dtau_min: float = 1e-8
    tol_g: float = 1e-7
    tol_e: float = 1e-11
    patience: int = 10
    max_steps: int = 5000

    def __post_init__(self):
        if self.omega_update not in ("hitgd", "simple"):
            raise ValidationError(f"unknown omega update {self.omega_update!r}")
        if self.omega_update == "simple" and not self.freeze_omega:
            if self.simple_c is None or not (self.simple_c > 0.0):
                raise ValidationError("simple update needs a positive coefficient c")
        for name in ("dtau0", "dtau_max", "dtau_min"):
            if not (getattr(self, name) > 0.0):
                raise ValidationError(f"{name} must be positive")
        if self.dtau_min > self.dtau_max:
            raise ValidationError(f"dtau_min {self.dtau_min} exceeds dtau_max {self.dtau_max}")
        if self.dtau0 < self.dtau_min:
            raise ValidationError(f"dtau0 {self.dtau0} is below dtau_min {self.dtau_min}")
        for name in ("tol_g", "tol_e"):
            if getattr(self, name) < 0.0:
                raise ValidationError(f"{name} must be non-negative")
        if self.max_steps < 1 or self.patience < 1:
            raise ValidationError("max_steps and patience must be at least 1")


@dataclass(frozen=True)
class StepInfo:
    """Diagnostics of one accepted step: its step size and how often it was halved."""

    dtau: float
    backtracks: int


def step(
    state: OptimizerState,
    hamil: ManyBodyHamiltonian,
    options: RunOptions | None = None,
    grad: np.ndarray | None = None,
) -> tuple[OptimizerState, StepInfo]:
    """One accepted Cayley step with backtracking on energy increase.

    ``grad`` is the state's coupling gradient when the caller has it, as
    :func:`run` does.  The coupling velocity comes first, since the
    covariance flow depends on it through the flux mean-field matrix; under
    ``freeze_omega`` or an exactly vanishing gradient it is zero, and no flow
    tensor, solve or flux term is built.  Each trial rotates gamma by
    :func:`cayley_rotate` along one direction and moves omega by
    tau * domega: a step that moves omega takes the generator K and first
    tries :func:`bb_step_length`, a frozen step takes the L-BFGS direction
    and first length of :func:`lbfgs_step`.  A trial is accepted only if the
    energy does not rise by more than 1e-12; otherwise tau is halved, down
    to ``dtau_min`` (then :class:`StagnationError`).
    """
    options = options or RunOptions()
    ev = state.evaluator
    if grad is None and not options.freeze_omega:
        grad = ev.gradient()
    # a zero coupling velocity keeps the omega object, so every trial reuses
    # the state's phase layout, and O = 0
    frozen = options.freeze_omega or not np.any(grad)
    if frozen:
        domega = None
    elif options.omega_update == "hitgd":
        domega = dtau_omega_hitgd(b_tensor(state.gamma), grad)
    else:
        domega = dtau_omega_simple(grad, options.simple_c)
    o_m = None if frozen else mean_field_o(state.gamma, domega)
    h_m = ev.mean_field_h()
    generator = cayley_generator(state.gamma, h_m, o_m)
    if not np.isfinite(generator).all():
        raise NumericsError("covariance flow generator has non-finite entries")
    if frozen:
        direction, dtau, memory = lbfgs_step(state, options, generator)
    else:
        g = state.gamma.gamma
        dgamma = generator @ g - g @ generator
        direction, dtau = generator, bb_step_length(state, options, dgamma, domega)

    backtracks = 0
    while True:
        if dtau < options.dtau_min:
            raise StagnationError(
                f"step size {dtau:.3e} below {options.dtau_min:.0e} without energy decrease"
            )
        new_omega = state.omega if frozen else NonGaussianParams(
            wrap_angles(state.omega.omega + dtau * domega)
        )
        new_gamma = cayley_rotate(state.gamma, direction, dtau)
        trial = StateEvaluator(new_gamma, new_omega, hamil, ev.layout)
        new_energy = trial.energy()[2]
        # the difference, not E + tol: that sum can round up past E + 1e-12
        if new_energy - state.energy <= ENERGY_INCREASE_TOL:
            break
        dtau *= 0.5
        backtracks += 1

    if frozen:
        last = LastStep(dtau, direction=direction, memory=memory)
    else:
        long = state.last_step is None or not state.last_step.long
        last = LastStep(dtau, dgamma=dgamma, domega=domega, long=long)
    new_state = OptimizerState(trial, tau=state.tau + dtau, energy=new_energy, last_step=last)
    return new_state, StepInfo(dtau=dtau, backtracks=backtracks)


def initial_state(
    hamil: ManyBodyHamiltonian,
    *,
    gamma: CovarianceMatrix | None = None,
    omega: NonGaussianParams | None = None,
    filling: float = 0.5,
    seed: int | None = None,
) -> OptimizerState:
    """Starting point: mean-field covariance (default), random, or explicit.

    ``seed`` draws a random pure covariance instead of the mean-field one;
    the couplings start at zero unless given.  Plain arrays are wrapped in
    :class:`CovarianceMatrix` and :class:`NonGaussianParams`.  The options
    do not shape the start (the first step reads ``dtau0`` from the options
    :func:`step` is given), and every argument after ``hamil`` is keyword-only.
    """
    n = hamil.n_modes
    if gamma is None:
        if seed is not None:
            gamma = random_pure_covariance(n, np.random.default_rng(seed))
        else:
            gamma = mean_field_covariance(hamil.f, round(filling * n))
    if omega is None:
        omega = NonGaussianParams(np.zeros((n, n)))
    elif not isinstance(omega, NonGaussianParams):
        omega = NonGaussianParams(omega)
    ev = StateEvaluator(gamma, omega, hamil)
    return OptimizerState(ev, tau=0.0, energy=ev.energy()[2])


def run(
    hamil: ManyBodyHamiltonian,
    options: RunOptions | None = None,
    state: OptimizerState | None = None,
) -> tuple[OptimizerState, list[TrajectoryRecord], str]:
    """Drive :func:`step` until a stopping rule fires.

    Stops when the gradient and the covariance velocity both fall below
    ``tol_g`` (:class:`RunOptions`), when the energy change stays below
    ``tol_e`` for ``patience`` consecutive accepted steps, or after
    ``max_steps`` steps.  Returns the final state, one record per accepted
    step (plus the step-0 baseline), and the stop reason ("gradient",
    "energy", "max_steps").  Each iteration computes the state's coupling
    gradient once, for the stop test and :func:`step` (none under
    ``freeze_omega``).  A record's ``wall_ms`` covers its whole iteration:
    the coupling gradient and the call to :func:`step`.
    """
    options = options or RunOptions()
    if state is None:
        state = initial_state(hamil)
    records = [
        TrajectoryRecord(
            step=0,
            tau=state.tau,
            energy=state.energy,
            grad_norm=float("nan"),
            dtau=0.0,
            purity_err=state.gamma.purity_error,
            wall_ms=0.0,
            backtracks=0,
        )
    ]
    flat_count = 0
    reason = "max_steps"
    for k in range(1, options.max_steps + 1):
        t0 = time.perf_counter()
        grad, grad_norm = None, float("nan")  # NaN fails the stop test below
        if not options.freeze_omega:
            grad = state.evaluator.gradient()
            grad_norm = float(np.max(np.abs(grad), initial=0.0))
        if grad_norm < options.tol_g:
            # a stationary point only if the covariance velocity vanishes too
            # (the step below reads the same h_m, kept by the state's evaluator)
            h_m = state.evaluator.mean_field_h()
            if np.max(np.abs(dtau_gamma(state.gamma, h_m))) < options.tol_g:
                reason = "gradient"
                break
        prev_energy = state.energy
        state, info = step(state, hamil, options, grad=grad)
        records.append(
            TrajectoryRecord(
                step=k,
                tau=state.tau,
                energy=state.energy,
                grad_norm=grad_norm,
                dtau=info.dtau,
                purity_err=state.gamma.purity_error,
                wall_ms=(time.perf_counter() - t0) * 1e3,
                backtracks=info.backtracks,
            )
        )
        if abs(prev_energy - state.energy) < options.tol_e:
            flat_count += 1
            if flat_count >= options.patience:
                reason = "energy"
                break
        else:
            flat_count = 0
    return state, records, reason
