"""Command-line entry point: model generation, optimization runs, validation,
circuit export.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 stagnation.  All run behaviour is controlled by a strict JSON config
(unknown keys are rejected); every floating-point output is serialized with
17 significant digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import circuit, gaussian, optimizer, validate
from . import hamiltonian as ham
from .errors import (
    ConfigError,
    FormatError,
    NgfError,
    NumericsError,
    SingularContractionError,
    StagnationError,
    ValidationError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_STAGNATION = 4

CHECKPOINT_ENERGY_TOL = 1e-10  # stored against recomputed energy on restart


# ---------------------------------------------------------------- checkpoints

def save_checkpoint(path, state: optimizer.OptimizerState) -> None:
    """JSON checkpoint: mode count, row-major gamma and omega, tau, energy."""
    n = state.gamma.n_modes
    payload = {
        "n_modes": n,
        "gamma": state.gamma.gamma.ravel().tolist(),
        "omega": state.omega.omega.ravel().tolist(),
        "tau": state.tau,
        "energy": state.energy,
    }
    # one dumps call takes the C encoder; json.dump streams through the Python one
    text = json.dumps(payload) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_checkpoint(path) -> tuple[gaussian.CovarianceMatrix, ham.NonGaussianParams, float, float]:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # also a directory, a NUL byte, a binary file
        raise FormatError(f"cannot read checkpoint {path!r}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"checkpoint is not valid JSON: {exc}") from exc
    required = {"n_modes", "gamma", "omega", "tau", "energy"}
    if not isinstance(payload, dict) or set(payload) != required:
        raise FormatError(f"checkpoint must be an object with exactly the keys {sorted(required)}")
    n = payload["n_modes"]
    if type(n) is not int or n < 1:  # save_checkpoint writes a JSON integer: not 4.0, not true
        raise FormatError(f"'checkpoint.n_modes' must be a positive integer, got {n!r}")
    try:
        # tau and energy follow the config's rules: finite numbers, not booleans
        tau = _typed(payload, "tau", float, where="checkpoint")
        stored = _typed(payload, "energy", float, where="checkpoint")
        gamma = np.asarray(payload["gamma"], dtype=float).reshape(2 * n, 2 * n)
        omega = np.asarray(payload["omega"], dtype=float).reshape(n, n)
        return gaussian.CovarianceMatrix(gamma), ham.NonGaussianParams(omega), tau, stored
    except (ConfigError, ValidationError, ValueError, TypeError, OverflowError) as exc:
        raise FormatError(f"checkpoint data invalid: {exc}") from exc


# ------------------------------------------------------------- configuration

_TOP_KEYS = {
    "hamiltonian",
    "init",
    "filling",
    "omega_update",
    "freeze_omega",
    "dtau0",
    "dtau_max",
    "dtau_min",
    "tol_g",
    "tol_e",
    "patience",
    "max_steps",
    "outputs",
}


def _reject_unknown(mapping: dict, allowed: set[str], where: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"'{where}' must be an object, got {mapping!r}")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


_KINDS = {int: "an integer", float: "a finite number", str: "a string", bool: "true or false"}


def _typed(section: dict, key: str, kind: type, default=None, where: str = ""):
    """``section[key]`` as an integer, a finite number, a string or a
    boolean (``kind``).

    An absent key gives ``default`` (an error when that is None); a value
    of another JSON type, a boolean for a number, a number past the float
    range (inf/NaN included) or a fraction for an integer is a
    :class:`ConfigError` naming the key.
    """
    name = f"{where}.{key}" if where else key
    if key not in section:
        if default is None:
            raise ConfigError(f"config needs '{name}'")
        return default
    value = section[key]
    if kind in (str, bool):
        ok = isinstance(value, kind)
    else:  # the bound also rejects inf/NaN and integers past the float range
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        ok = number and abs(value) <= sys.float_info.max and (kind is float or value == int(value))
    if not ok:
        raise ConfigError(f"'{name}' must be {_KINDS[kind]}, got {value!r}")
    return kind(value)


def parse_config(payload: dict) -> dict:
    """Validate the run config; returns a dict of resolved pieces."""
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(payload, _TOP_KEYS, "config")
    if "hamiltonian" not in payload:
        raise ConfigError("config needs a 'hamiltonian' section")

    hsec = payload["hamiltonian"]
    if not isinstance(hsec, dict):
        raise ConfigError("'hamiltonian' must be an object")
    try:
        if "path" in hsec:
            _reject_unknown(hsec, {"path"}, "hamiltonian")
            path = _typed(hsec, "path", str, where="hamiltonian")
            try:
                hamil = ham.load_hamiltonian(path)
            except (OSError, ValueError) as exc:  # also a directory, a NUL byte, a binary file
                raise ConfigError(f"cannot read 'hamiltonian.path' {path!r}: {exc}") from exc
        elif hsec.get("model") == "hubbard":
            _reject_unknown(hsec, {"model", "sites", "t", "u", "mu", "periodic"}, "hamiltonian")
            hamil = ham.hubbard_model(
                _typed(hsec, "sites", int, where="hamiltonian"),
                _typed(hsec, "t", float, 1.0, "hamiltonian"),
                _typed(hsec, "u", float, 0.0, "hamiltonian"),
                _typed(hsec, "mu", float, 0.0, "hamiltonian"),
                _typed(hsec, "periodic", bool, False, "hamiltonian"),
            )
        else:
            raise ConfigError("'hamiltonian' needs either 'path' or model: 'hubbard'")
    except (ValidationError, FormatError) as exc:
        # malformed input data is a configuration problem, not a numerical one
        raise ConfigError(str(exc)) from exc

    init = payload.get("init", "meanfield")
    if isinstance(init, dict):
        _reject_unknown(init, {"random_seed", "checkpoint"}, "init")
        if len(init) != 1:
            raise ConfigError("'init' object needs exactly one of random_seed/checkpoint")
        if "checkpoint" in init:
            _typed(init, "checkpoint", str, where="init")
        elif _typed(init, "random_seed", int, where="init") < 0:
            raise ConfigError(f"'init.random_seed' must be non-negative, got {init['random_seed']!r}")
    elif init != "meanfield":
        raise ConfigError(f"unknown init {init!r}")

    update = payload.get("omega_update", "hitgd")
    simple_c = None
    if isinstance(update, dict):
        _reject_unknown(update, {"simple"}, "omega_update")
        if "simple" not in update:
            raise ConfigError("config needs 'omega_update.simple'")
        simple = update["simple"]
        _reject_unknown(simple, {"c"}, "omega_update.simple")
        simple_c = _typed(simple, "c", float, where="omega_update.simple")
        update_name = "simple"
    elif update in ("hitgd", "simple"):
        update_name = update
        if update == "simple":
            raise ConfigError("omega_update 'simple' needs {'simple': {'c': ...}}")
    else:
        raise ConfigError(f"unknown omega_update {update!r}")

    outputs = payload.get("outputs", {})
    _reject_unknown(outputs, {"checkpoint", "trajectory"}, "outputs")
    outputs = {key: _typed(outputs, key, str, where="outputs") for key in outputs}

    defaults = optimizer.RunOptions()
    numbers = {
        key: _typed(payload, key, type(getattr(defaults, key)), getattr(defaults, key))
        for key in ("dtau0", "dtau_max", "dtau_min", "tol_g", "tol_e", "patience", "max_steps")
    }
    try:
        options = optimizer.RunOptions(
            omega_update=update_name,
            simple_c=simple_c,
            freeze_omega=_typed(payload, "freeze_omega", bool, False),
            **numbers,
        )
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc

    filling = _typed(payload, "filling", float, 0.5)
    if not (0.0 <= filling <= 1.0):
        raise ConfigError("filling must lie in [0, 1]")

    return {
        "hamiltonian": hamil,
        "init": init,
        "options": options,
        "outputs": outputs,
        "filling": filling,
    }


def _build_initial_state(resolved: dict) -> optimizer.OptimizerState:
    hamil = resolved["hamiltonian"]
    init = resolved["init"]
    if init == "meanfield":
        return optimizer.initial_state(hamil, filling=resolved["filling"])
    if "random_seed" in init:
        return optimizer.initial_state(hamil, seed=int(init["random_seed"]))
    gamma, omega, tau, stored = load_checkpoint(init["checkpoint"])
    if gamma.n_modes != hamil.n_modes:
        raise ConfigError(f"checkpoint has {gamma.n_modes} modes, the Hamiltonian {hamil.n_modes}")
    with np.errstate(over="ignore", invalid="ignore"):  # entries near the float maximum
        purity = gamma.purity_error
    if not purity <= gaussian.PURITY_TOL:  # also NaN
        raise ConfigError(f"checkpoint gamma is not pure: purity error {purity:.3e}")
    state = optimizer.initial_state(hamil, gamma=gamma, omega=omega)
    # a stored energy that the state does not reproduce means another
    # Hamiltonian (or a damaged file): the restart would not continue that run
    if not abs(state.energy - stored) <= CHECKPOINT_ENERGY_TOL:
        raise ConfigError(
            f"checkpoint energy {stored:.17g} differs from {state.energy:.17g}, "
            f"the energy of its state under this Hamiltonian"
        )
    return dataclasses.replace(state, tau=tau)


# ------------------------------------------------------------------ commands

def cmd_model(args) -> int:
    if args.model != "hubbard":
        raise ConfigError(f"unknown model {args.model!r}")
    try:
        hamil = ham.hubbard_model(args.sites, args.t, args.u, args.mu, args.periodic)
    except ValidationError as exc:  # fewer than 2 sites, or too many to allocate
        raise ConfigError(str(exc)) from exc
    ham.save_hamiltonian(hamil, args.out)
    print(f"wrote {args.out}: hubbard sites={args.sites} modes={hamil.n_modes}")
    return EXIT_OK


def cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # also a directory, a NUL byte, a binary file
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    resolved = parse_config(payload)
    outputs = resolved["outputs"]
    # append mode creates a missing file and truncates none, so a run that
    # restarts from its own checkpoint file still reads it whole
    for key, path in outputs.items():
        try:
            open(path, "a", encoding="ascii").close()
        except OSError as exc:
            raise ConfigError(f"cannot write outputs.{key} {path!r}: {exc}") from exc
    state = _build_initial_state(resolved)
    final, records, reason = optimizer.run(resolved["hamiltonian"], resolved["options"], state)
    if "trajectory" in outputs:
        with open(outputs["trajectory"], "w", encoding="ascii") as fh:
            for record in records:
                fh.write(json.dumps(record.as_dict()) + "\n")
    if "checkpoint" in outputs:
        save_checkpoint(outputs["checkpoint"], final)
    print(
        f"stopped: {reason} after {len(records) - 1} steps, "
        f"tau={final.tau:.17g}, energy={final.energy:.17g}"
    )
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.seed < 0:  # numpy's generators take non-negative seeds only
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    results = validate.run_all(n_modes=args.n_modes, seed=args.seed)
    width = max(len(r.name) for r in results)
    failed = False
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(
            f"{status}  {result.name:<{width}}  max deviation {result.deviation:.3e}"
            f"  (tolerance {result.tolerance:.0e})"
        )
        failed = failed or not result.passed
    return EXIT_NUMERICAL if failed else EXIT_OK


def cmd_circuit(args) -> int:
    _, omega, _, _ = load_checkpoint(args.checkpoint)
    gates = circuit.emit_ufa(omega)
    qasm = circuit.to_qasm(gates, native_rzz=args.native_rzz)
    with open(args.out_qasm, "w", encoding="ascii") as fh:
        fh.write(qasm)
    report = circuit.resource_report(gates, args.connectivity)
    if gates.n_qubits <= 10:
        report["dense_deviation"] = circuit.verify_dense(gates, omega)
        if report["dense_deviation"] >= 1e-10:
            raise NumericsError(
                f"emitted circuit deviates from the exact unitary by "
                f"{report['dense_deviation']:.3e}"
            )
    with open(args.out_report, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    counts = gates.counts()
    print(
        f"wrote {args.out_qasm} ({counts['rz']} rz, {counts['zz']} zz) "
        f"and {args.out_report}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ngfermi",
        description="Variational fermionic ground states with flux-attached Gaussian Ansatz",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="generate a Hamiltonian file")
    p_model.add_argument("model", choices=["hubbard"])
    p_model.add_argument("--sites", type=int, required=True)
    p_model.add_argument("--t", type=float, default=1.0)
    p_model.add_argument("--u", type=float, default=0.0)
    p_model.add_argument("--mu", type=float, default=0.0)
    p_model.add_argument("--periodic", action="store_true")
    p_model.add_argument("--out", required=True)
    p_model.set_defaults(func=cmd_model)

    p_run = sub.add_parser("run", help="optimize from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="run the dense-oracle cross-check suite")
    p_val.add_argument("--n-modes", type=int, default=4)
    p_val.add_argument("--seed", type=int, default=2024)
    p_val.set_defaults(func=cmd_validate)

    p_circ = sub.add_parser("circuit", help="export the coupling circuit from a checkpoint")
    p_circ.add_argument("--checkpoint", required=True)
    p_circ.add_argument("--out-qasm", required=True)
    p_circ.add_argument("--out-report", required=True)
    p_circ.add_argument("--connectivity", choices=["all_to_all", "linear"], default="all_to_all")
    p_circ.add_argument("--native-rzz", action="store_true")
    p_circ.set_defaults(func=cmd_circuit)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FormatError, OSError) as exc:  # OSError: a path that cannot be read or written
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StagnationError as exc:
        print(f"stagnation: {exc}", file=sys.stderr)
        return EXIT_STAGNATION
    except (NumericsError, SingularContractionError, ValidationError, NgfError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
