"""Checks applied to the outputs of every `ngfermi run` start in the benchmark.

A start counts as failed when its exit code is not 0, when it raises, or
when any check below reports a failure.
"""

from __future__ import annotations

import json

from ngfermi import circuit, cli, optimizer
from ngfermi import hamiltonian as ham

EXACT_TOL = 1e-9  # the variational energy may not undercut the exact one
RECOMPUTE_TOL = 1e-10  # reported energy against a recomputation on the checkpoint
PURITY_TOL = 1e-8
CIRCUIT_TOL = 1e-10  # the same gate `ngfermi circuit` applies


def read_trajectory(path) -> list[dict]:
    with open(path, "r", encoding="ascii") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_start(
    exit_code: int,
    records: list[dict],
    checkpoint_path,
    hamil: ham.ManyBodyHamiltonian,
    exact_energy: float,
) -> list[str]:
    """Failures of one start; an empty list means every check passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if not records:
        return ["empty trajectory"]
    failures = []
    energies = [r["energy"] for r in records]
    rise = max((b - a for a, b in zip(energies, energies[1:])), default=0.0)
    if rise > optimizer.ENERGY_INCREASE_TOL:
        failures.append(f"trajectory energy rose by {rise:.3e}")
    final = energies[-1]
    if final < exact_energy - EXACT_TOL:
        failures.append(f"final energy {final:.12g} below the exact {exact_energy:.12g}")
    if not records[-1]["purity_err"] <= PURITY_TOL:
        failures.append(f"final purity error {records[-1]['purity_err']:.3e}")

    gamma, omega, _, stored = cli.load_checkpoint(checkpoint_path)
    recomputed = ham.energy(gamma, omega, hamil)[2]
    for label, reported in (("trajectory", final), ("checkpoint", stored)):
        if not abs(recomputed - reported) <= RECOMPUTE_TOL:
            failures.append(
                f"{label} energy {reported:.17g} differs from the checkpoint "
                f"recomputation {recomputed:.17g}"
            )
    purity = gamma.purity_error
    if not purity <= PURITY_TOL:
        failures.append(f"checkpoint purity error {purity:.3e}")
    deviation = circuit.verify_dense(circuit.emit_ufa(omega), omega)
    if not deviation < CIRCUIT_TOL:
        failures.append(f"circuit deviates from the exact unitary by {deviation:.3e}")
    return failures
