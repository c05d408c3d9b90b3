"""Optimize the two-site Hubbard model and compare against exact results.

Runs the monotone hybrid optimizer from a symmetry-broken random start (the
symmetric mean-field point is a stationary point of both flows for real
Hamiltonians) and reports the trajectory against the exact ground energy.
"""

import numpy as np

from ngfermi import hamiltonian as ham
from ngfermi import oracle
from ngfermi.optimizer import RunOptions, initial_state, run

hamil = ham.hubbard_model(2, t=1.0, u=4.0, mu=2.0)
e_exact, _ = oracle.dense_ground(hamil)
print(f"two-site Hubbard (t=1, U=4, mu=2), exact ground energy {e_exact:.8f}")

options = RunOptions(max_steps=800, tol_g=1e-8, tol_e=1e-12, patience=15)
state0 = initial_state(hamil, seed=42)
print(f"random-init energy {state0.energy:.8f}")

final, records, reason = run(hamil, options, state0)
print(f"\nstopped on '{reason}' after {len(records) - 1} accepted steps")
for r in records[:: max(1, len(records) // 10)]:
    print(
        f"  step {r.step:4d}  tau {r.tau:8.3f}  E {r.energy: .10f}"
        f"  |grad| {r.grad_norm if not np.isnan(r.grad_norm) else 0:.2e}"
        f"  purity {r.purity_err:.1e}"
    )
print(f"  final E {final.energy:.10f}  (exact {e_exact:.10f})")

energies = [r.energy for r in records]
monotone = all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
print(f"\nenergy non-increasing across accepted steps: {monotone}")
print(f"distance to exact ground energy: {final.energy - e_exact:.6f}")
print(f"largest flux coupling |omega|: {np.max(np.abs(final.omega.omega)):.4f}")

# The frozen-coupling (generalized Hartree-Fock) run from the same start.
options_g = RunOptions(
    freeze_omega=True, max_steps=800, tol_g=1e-8, tol_e=1e-12, patience=15
)
final_g, _, _ = run(hamil, options_g, initial_state(hamil, seed=42))
print(f"\nfrozen-coupling run from the same start: E {final_g.energy:.10f}")
print(f"flux-coupled final is lower or equal: {final.energy <= final_g.energy + 1e-9}")
