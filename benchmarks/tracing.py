"""In-memory span tracer for the benchmark's traced passes.

Each traced function is wrapped at the name its caller resolves, so the
program itself is not changed: ``ngfermi.optimizer`` looks up ``energy``,
``purify``, ``pseudo_inverse`` and its own helpers in its module globals,
``ngfermi.hamiltonian`` looks up ``contract`` and ``expectation_from``, the
lazy bundle in ``ngfermi.wick`` looks up ``a_coeff``, ``g_matrix`` and the
other builders, and ``a_coeff`` imports ``ngfermi.linalg.pfaffian`` at call
time.  A target that no longer exists is recorded as absent, not an error.

A span is ``[name, start, end, parent index, run id]``.  A layer's self time
is its span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (layer name, module whose global the caller resolves, attribute)
TARGETS = (
    ("cli.parse_config", "ngfermi.cli", "parse_config"),
    ("hamiltonian.load_hamiltonian", "ngfermi.hamiltonian", "load_hamiltonian"),
    ("optimizer.initial_state", "ngfermi.optimizer", "initial_state"),
    ("optimizer.step", "ngfermi.optimizer", "step"),
    ("optimizer.b_tensor", "ngfermi.optimizer", "b_tensor"),
    ("optimizer.dtau_omega_hitgd", "ngfermi.optimizer", "dtau_omega_hitgd"),
    ("optimizer.dtau_gamma", "ngfermi.optimizer", "dtau_gamma"),
    ("hamiltonian.energy", "ngfermi.optimizer", "energy"),
    ("hamiltonian.energy_gradient_omega", "ngfermi.optimizer", "energy_gradient_omega"),
    ("hamiltonian.mean_field_h", "ngfermi.optimizer", "mean_field_h"),
    ("hamiltonian.mean_field_o", "ngfermi.optimizer", "mean_field_o"),
    ("gaussian.purify", "ngfermi.optimizer", "purify"),
    ("linalg.pseudo_inverse", "ngfermi.optimizer", "pseudo_inverse"),
    ("wick.contract", "ngfermi.hamiltonian", "contract"),
    ("wick.expectation_from", "ngfermi.hamiltonian", "expectation_from"),
    ("wick.a_coeff", "ngfermi.wick", "a_coeff"),
    ("wick.g_matrix", "ngfermi.wick", "g_matrix"),
    ("wick.q_matrix", "ngfermi.wick", "q_matrix"),
    ("wick.l_matrix", "ngfermi.wick", "l_matrix"),
    ("linalg.block_contract_all", "ngfermi.wick", "block_contract_all"),
    ("linalg.miller_inverse", "ngfermi.wick", "miller_inverse"),
    ("linalg.pfaffian", "ngfermi.linalg", "pfaffian"),
    ("circuit.emit_ufa", "ngfermi.circuit", "emit_ufa"),
    ("circuit.verify_dense", "ngfermi.circuit", "verify_dense"),
)

# Building a bundle is lazy; its work shows up in the builders it calls.
CALLS_ONLY = frozenset({"wick.contract"})


def _phase_key(alpha) -> bytes:
    """The wrapped, rounded phase vector a bundle is keyed by."""
    wrapped = np.mod(np.asarray(alpha, dtype=float), 2.0 * np.pi)
    wrapped = np.where(wrapped > np.pi, wrapped - 2.0 * np.pi, wrapped)
    return np.round(wrapped, 14).tobytes()


class Tracer:
    """Records spans and counters while installed; restores every name on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.run_id = 0
        self.backtracks = 0
        self.trial_energies = 0
        self.bundle_keys: set[tuple] = set()
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for name, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            setattr(module, attr, self._wrap(name, original))
            self._saved.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self._stack.append([len(self.spans) - 1, 0.0])

    def _close(self) -> None:
        end = time.perf_counter()
        index, children = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        self.calls[span[0]] += 1
        self.self_s[span[0]] += duration - children
        if self._stack:
            self._stack[-1][1] += duration

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-1][0]][0] if self._stack else None

    def _observe(self, name: str, args: tuple, result) -> None:
        if name == "wick.contract" and len(args) >= 2:
            state = np.asarray(args[0]).tobytes()
            self.bundle_keys.add((hash(state), _phase_key(args[1])))
        elif name == "optimizer.step":
            info = result[1] if isinstance(result, tuple) and len(result) == 2 else None
            self.backtracks += int(getattr(info, "backtracks", 0))
        elif name == "hamiltonian.energy" and self._parent_name() == "optimizer.step":
            self.trial_energies += 1

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            self._observe(name, args, result)
            return result

        return traced

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer calls and self time, plus the bundle and step counters."""
        out: dict[str, tuple[float, str]] = {}
        for name, _, _ in TARGETS:
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            if name not in CALLS_ONLY:
                out[f"{name}.self_ms"] = (self.self_s.get(name, 0.0) * 1e3, "ms")
        steps = self.calls.get("optimizer.step", 0)
        bundles = self.calls.get("wick.contract", 0)
        out["wick.bundles_per_step"] = (bundles / steps if steps else 0.0, "ratio")
        out["wick.bundle_reuse"] = (len(self.bundle_keys) / bundles if bundles else 0.0, "ratio")
        out["optimizer.steps"] = (steps, "count")
        out["optimizer.backtracks"] = (self.backtracks, "count")
        out["optimizer.accept_ratio"] = (
            steps / self.trial_energies if self.trial_energies else 0.0,
            "ratio",
        )
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "run": run}
                    )
                    + "\n"
                )
