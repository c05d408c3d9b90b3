"""Compiles the flux-attachment unitary into commuting Z-basis gates.

After the Jordan-Wigner mapping, exp((i/2) sum_jk w_jk :n_j n_k:) factors
into one Z rotation per qubit, one ZZ rotation per coupled pair and a global
phase.  Angles are stored in the exponent convention: a gate entry with
angle theta means exp(i theta Z) or exp(i theta Z Z).  With n = (1 - Z)/2,

    exp(i sum_{j<k} w_jk n_j n_k) = e^{i phi} prod_j e^{-(i/4)(sum_k w_jk) Z_j}
                                    prod_{j<k} e^{(i/4) w_jk Z_j Z_k},

with phi = (1/8) sum_{j != k} w_jk.  Note the minus sign on the single-qubit
angles; it is fixed by the dense re-simulation check in :func:`verify_dense`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ResourceLimitError, ValidationError
from .hamiltonian import _as_omega
from .oracle import MAX_EXPONENTIAL_MODES, flux_unitary_diagonal, occupations_of_basis

ANGLE_PRUNE_TOL = 1e-14


@dataclass(frozen=True)
class Gate:
    """One diagonal gate: kind "rz" (single qubit) or "zz" (qubit pair)."""

    kind: str
    qubits: tuple[int, ...]
    angle: float

    def __post_init__(self):
        if self.kind not in ("rz", "zz"):
            raise ValidationError(f"unknown gate kind {self.kind!r}")
        if self.kind == "rz" and len(self.qubits) != 1:
            raise ValidationError("rz acts on exactly one qubit")
        if self.kind == "zz":
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValidationError("zz needs two distinct qubits")


@dataclass(frozen=True)
class GateList:
    """Ordered diagonal gates plus the uncompiled global phase (radians)."""

    n_qubits: int
    gates: tuple[Gate, ...]
    global_phase: float

    def __post_init__(self):
        for gate in self.gates:
            if any(not (0 <= q < self.n_qubits) for q in gate.qubits):
                raise ValidationError(
                    f"gate {gate} addresses qubits outside 0..{self.n_qubits - 1}"
                )

    def counts(self) -> dict[str, int]:
        out = {"rz": 0, "zz": 0}
        for gate in self.gates:
            out[gate.kind] += 1
        return out


def emit_ufa(omega) -> GateList:
    """Gate sequence realizing the flux-attachment unitary for couplings omega.

    Emits one Z rotation per qubit with angle -(1/4) sum_k w_jk and one ZZ
    rotation with angle w_jk / 4 per coupled pair j < k; gates with
    |angle| < 1e-14 are pruned.  The scalar prefactor is recorded as
    ``global_phase`` and not compiled into gates.
    """
    w = _as_omega(omega)
    n = w.shape[0]
    gates: list[Gate] = []
    for j in range(n):
        angle = -0.25 * float(np.sum(w[j, :]))
        if abs(angle) >= ANGLE_PRUNE_TOL:
            gates.append(Gate("rz", (j,), angle))
    for j in range(n):
        for k in range(j + 1, n):
            angle = 0.25 * float(w[j, k])
            if abs(angle) >= ANGLE_PRUNE_TOL:
                gates.append(Gate("zz", (j, k), angle))
    phase = 0.125 * float(np.sum(w) - np.trace(w))
    return GateList(n, tuple(gates), phase)


def gate_diagonal(gates: GateList) -> np.ndarray:
    """Diagonal of the compiled unitary over the Fock basis, global phase included."""
    n = gates.n_qubits
    if n > MAX_EXPONENTIAL_MODES:
        raise ResourceLimitError(
            f"dense gate evaluation capped at {MAX_EXPONENTIAL_MODES} qubits, got {n}"
        )
    occ = occupations_of_basis(n)
    zvals = 1.0 - 2.0 * occ.astype(float)  # Z eigenvalue per (state, qubit)
    total = np.full(2 ** n, gates.global_phase)
    for gate in gates.gates:
        if gate.kind == "rz":
            total += gate.angle * zvals[:, gate.qubits[0]]
        else:
            a, b = gate.qubits
            total += gate.angle * zvals[:, a] * zvals[:, b]
    return np.exp(1j * total)


def verify_dense(gates: GateList, omega) -> float:
    """Max deviation between the compiled unitary and the exact exponential."""
    w = _as_omega(omega, gates.n_qubits)
    exact = flux_unitary_diagonal(w)
    compiled = gate_diagonal(gates)
    return float(np.max(np.abs(compiled - exact)))


def to_qasm(gates: GateList, native_rzz: bool = False) -> str:
    """OpenQASM 2.0 text for the gate list.

    A gate exp(i theta Z) maps to ``rz(-2 theta)`` because
    rz(lambda) = exp(-i lambda Z / 2); exp(i theta Z Z) maps to
    ``cx a,b; rz(-2 theta) b; cx a,b`` (or a single ``rzz`` with
    ``native_rzz``).  The global phase is emitted as a comment line.
    """
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"// global phase: {gates.global_phase:.17g} rad",
        f"qreg q[{gates.n_qubits}];",
    ]
    for gate in gates.gates:
        lam = -2.0 * gate.angle
        if gate.kind == "rz":
            lines.append(f"rz({lam:.17g}) q[{gate.qubits[0]}];")
        elif native_rzz:
            a, b = gate.qubits
            lines.append(f"rzz({lam:.17g}) q[{a}],q[{b}];")
        else:
            a, b = gate.qubits
            lines.append(f"cx q[{a}],q[{b}];")
            lines.append(f"rz({lam:.17g}) q[{b}];")
            lines.append(f"cx q[{a}],q[{b}];")
    return "\n".join(lines) + "\n"


_QASM_PATTERNS = {
    "qreg": re.compile(r"qreg\s+q\[(\d+)\];"),
    "rz": re.compile(r"rz\(([-+0-9.eE]+)\)\s+q\[(\d+)\];"),
    "rzz": re.compile(r"rzz\(([-+0-9.eE]+)\)\s+q\[(\d+)\],q\[(\d+)\];"),
    "cx": re.compile(r"cx\s+q\[(\d+)\],q\[(\d+)\];"),
}


def simulate_qasm_unitary(text: str) -> np.ndarray:
    """Dense unitary of a QASM program using only rz / rzz / cx gates.

    Supports exactly the instruction set :func:`to_qasm` emits; used to check
    that the emitted text reproduces the compiled unitary.
    """
    n = None
    ops: list[tuple[str, tuple[int, ...], float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("//") or line.startswith("OPENQASM") or line.startswith("include"):
            continue
        if m := _QASM_PATTERNS["qreg"].fullmatch(line):
            n = int(m.group(1))
            continue
        if m := _QASM_PATTERNS["rz"].fullmatch(line):
            ops.append(("rz", (int(m.group(2)),), float(m.group(1))))
            continue
        if m := _QASM_PATTERNS["rzz"].fullmatch(line):
            ops.append(("rzz", (int(m.group(2)), int(m.group(3))), float(m.group(1))))
            continue
        if m := _QASM_PATTERNS["cx"].fullmatch(line):
            ops.append(("cx", (int(m.group(1)), int(m.group(2))), 0.0))
            continue
        raise FormatError(f"unsupported QASM line {line!r}", lineno)
    if n is None:
        raise FormatError("missing qreg declaration")
    if n > MAX_EXPONENTIAL_MODES:
        raise ResourceLimitError(f"QASM simulation capped at {MAX_EXPONENTIAL_MODES} qubits")
    dim = 2 ** n
    unitary = np.eye(dim, dtype=complex)
    occ = occupations_of_basis(n)
    for kind, qubits, lam in ops:
        if kind == "rz":
            z = 1.0 - 2.0 * occ[:, qubits[0]].astype(float)
            diag = np.exp(-0.5j * lam * z)
            unitary = diag[:, None] * unitary
        elif kind == "rzz":
            z = (1.0 - 2.0 * occ[:, qubits[0]]) * (1.0 - 2.0 * occ[:, qubits[1]])
            diag = np.exp(-0.5j * lam * z.astype(float))
            unitary = diag[:, None] * unitary
        else:  # cx: flip target bit where control bit is set
            control, target = qubits
            idx = np.arange(dim)
            flipped = np.where((idx >> control) & 1 == 1, idx ^ (1 << target), idx)
            unitary = unitary[flipped, :]
    return unitary


def resource_report(gates: GateList, connectivity: str = "all_to_all") -> dict:
    """Gate counts, a greedy-coloring depth estimate and a routing bound.

    The two-qubit layer is scheduled by greedy edge coloring of the coupling
    graph (all gates commute, so any proper coloring is a valid schedule);
    the depth of that layer is lower-bounded by ceil(log2(max degree + 1)).
    For linear connectivity the SWAP bound routes each pair to adjacency and
    back (2 * (distance - 1) per gate).  For n dense couplings the two-qubit
    count is n(n-1)/2; tallies quoted as n(n+1)/2 count the diagonal
    self-pairings, which generate no gate because the diagonal couplings
    vanish by convention.
    """
    if connectivity not in ("all_to_all", "linear"):
        raise ValidationError(f"unknown connectivity {connectivity!r}")
    counts = gates.counts()
    edges = [g.qubits for g in gates.gates if g.kind == "zz"]
    coloring: list[int] = []
    used_at: dict[int, set[int]] = {}
    for a, b in edges:
        color = 0
        busy = used_at.get(a, set()) | used_at.get(b, set())
        while color in busy:
            color += 1
        coloring.append(color)
        used_at.setdefault(a, set()).add(color)
        used_at.setdefault(b, set()).add(color)
    zz_layers = (max(coloring) + 1) if coloring else 0
    max_degree = max((len(v) for v in used_at.values()), default=0)
    depth_lower = int(np.ceil(np.log2(max_degree + 1))) if max_degree else 0
    swaps = 0
    if connectivity == "linear":
        swaps = sum(2 * (abs(a - b) - 1) for a, b in edges)
    return {
        "n_qubits": gates.n_qubits,
        "rz_count": counts["rz"],
        "zz_count": counts["zz"],
        "total_gates": counts["rz"] + counts["zz"],
        "global_phase": gates.global_phase,
        "zz_depth_layers": zz_layers,
        "zz_depth_lower_bound": depth_lower,
        "connectivity": connectivity,
        "swap_upper_bound": swaps,
        "dense_coupling_zz_count": gates.n_qubits * (gates.n_qubits - 1) // 2,
        "notes": (
            "all gates commute; depth from greedy edge coloring. For dense "
            "couplings the two-qubit count is n(n-1)/2; the n(n+1)/2 tally "
            "includes diagonal self-pairings that emit no gate."
        ),
    }
