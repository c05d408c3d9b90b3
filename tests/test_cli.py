import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ngfermi import gaussian, optimizer, oracle
from ngfermi.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    load_checkpoint,
    main,
    parse_config,
    save_checkpoint,
)
from ngfermi.errors import ConfigError
from ngfermi.hamiltonian import energy, hubbard_model, load_hamiltonian
from ngfermi.optimizer import initial_state


def write_config(path, **overrides):
    payload = {
        "hamiltonian": {"model": "hubbard", "sites": 2, "t": 1.0, "u": 4.0, "mu": 2.0},
        "init": {"random_seed": 7},
        "omega_update": "hitgd",
        "max_steps": 12,
        "tol_g": 1e-10,
        "outputs": {},
    }
    payload.update(overrides)
    path.write_text(json.dumps(payload))
    return payload


class TestModelCommand:
    def test_generates_valid_hubbard_file(self, tmp_path, capsys):
        out = tmp_path / "hub.txt"
        code = main(
            ["model", "hubbard", "--sites", "2", "--t", "1", "--u", "4", "--mu", "2",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        hamil = load_hamiltonian(out)
        e0, _ = oracle.dense_ground(hamil)
        assert e0 == pytest.approx(2.0 - 2.0 * np.sqrt(2.0) - 4.0, abs=1e-10)

    def test_single_site_is_usage_error(self, tmp_path, capsys):
        code = main(["model", "hubbard", "--sites", "1", "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG


class TestRunCommand:
    def test_run_writes_monotone_trajectory(self, tmp_path):
        cfg = tmp_path / "run.json"
        traj = tmp_path / "traj.jsonl"
        ckpt = tmp_path / "ckpt.json"
        write_config(cfg, outputs={"trajectory": str(traj), "checkpoint": str(ckpt)})
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        records = [json.loads(line) for line in traj.read_text().splitlines()]
        energies = [r["energy"] for r in records]
        assert len(energies) >= 2
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
        payload = json.loads(ckpt.read_text())
        assert set(payload) == {"n_modes", "gamma", "omega", "tau", "energy"}

    def test_trajectory_records_backtracks(self, tmp_path):
        # a first step of 50 must be halved before the energy stops rising
        cfg = tmp_path / "run.json"
        traj = tmp_path / "traj.jsonl"
        write_config(cfg, init={"random_seed": 1}, dtau0=50.0, max_steps=3, outputs={"trajectory": str(traj)})
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        records = [json.loads(line) for line in traj.read_text().splitlines()]
        documented = {"step", "tau", "energy", "grad_norm", "dtau", "purity_err", "wall_ms", "backtracks"}
        assert all(set(r) == documented for r in records)
        assert records[0]["backtracks"] == 0
        assert records[1]["backtracks"] >= 1
        assert records[1]["dtau"] < 50.0

    def test_frozen_trajectory_has_no_gradient_norm(self, tmp_path):
        cfg = tmp_path / "run.json"
        traj = tmp_path / "traj.jsonl"
        write_config(cfg, freeze_omega=True, max_steps=3, tol_e=0.0, outputs={"trajectory": str(traj)})
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        records = [json.loads(line) for line in traj.read_text().splitlines()]
        assert len(records) == 4
        assert [r["grad_norm"] for r in records] == [None] * 4

    def test_restart_from_checkpoint_never_increases(self, tmp_path):
        cfg = tmp_path / "run.json"
        ckpt = tmp_path / "ckpt.json"
        write_config(cfg, outputs={"checkpoint": str(ckpt)})
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        checkpointed = json.loads(ckpt.read_text())["energy"]

        cfg2 = tmp_path / "run2.json"
        traj2 = tmp_path / "traj2.jsonl"
        write_config(
            cfg2,
            init={"checkpoint": str(ckpt)},
            outputs={"trajectory": str(traj2)},
            max_steps=5,
        )
        assert main(["run", "--config", str(cfg2)]) == EXIT_OK
        records = [json.loads(line) for line in traj2.read_text().splitlines()]
        assert records[0]["energy"] == pytest.approx(checkpointed, abs=1e-12)
        assert all(r["energy"] <= checkpointed + 1e-12 for r in records[1:])

    def test_non_finite_checkpoint_is_config_error(self, tmp_path, capsys):
        hamil = hubbard_model(2, 1.0, 4.0, 2.0)
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, initial_state(hamil, seed=3))
        payload = json.loads(ckpt.read_text())
        payload["gamma"][1] = float("nan")
        ckpt.write_text(json.dumps(payload))
        config = tmp_path / "run.json"
        write_config(config, init={"checkpoint": str(ckpt)})
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "non-finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("dtau_max", 1e-9, "exceeds dtau_max"),
            ("dtau0", 1e-9, "below dtau_min"),
            ("dtau_min", 2.0, "exceeds dtau_max"),
        ],
    )
    def test_impossible_step_sizes_are_config_errors(self, tmp_path, capsys, key, value, message):
        # each used to run and end in a stagnation (exit 4) at Hubbard L=2
        config = tmp_path / "run.json"
        write_config(config, **{key: value})
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_checkpoint_mode_count_mismatch_is_config_error(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, initial_state(hubbard_model(3, 1.0, 4.0, 2.0), seed=3))
        config = tmp_path / "run.json"
        write_config(config, init={"checkpoint": str(ckpt)})  # a 4-mode Hamiltonian
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "6 modes" in err
        assert "Traceback" not in err

    def test_mixed_checkpoint_is_config_error(self, tmp_path, capsys):
        hamil = hubbard_model(2, 1.0, 4.0, 2.0)
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, initial_state(hamil, seed=3))
        payload = json.loads(ckpt.read_text())
        payload["gamma"] = [0.0] * len(payload["gamma"])  # the maximally mixed state
        ckpt.write_text(json.dumps(payload))
        config = tmp_path / "run.json"
        write_config(config, init={"checkpoint": str(ckpt)})
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "purity error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["gamma", "omega"])
    def test_checkpoint_with_huge_pair_has_no_traceback(self, tmp_path, capsys, key):
        # a finite pair near the float maximum: a skew +-1e308 gamma pair is
        # valid but not pure (its purity error overflows), and a symmetric
        # 1e308 omega pair is a valid, finite state
        hamil = hubbard_model(2, 1.0, 4.0, 2.0)
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, initial_state(hamil, seed=3))
        payload = json.loads(ckpt.read_text())
        dim = 2 * payload["n_modes"] if key == "gamma" else payload["n_modes"]
        sign = -1.0 if key == "gamma" else 1.0
        payload[key][1], payload[key][dim] = 1e308, sign * 1e308
        ckpt.write_text(json.dumps(payload))
        config = tmp_path / "run.json"
        write_config(config, init={"checkpoint": str(ckpt)}, max_steps=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["run", "--config", str(config)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if key == "gamma":
            assert code == EXIT_CONFIG and "not pure" in err
        else:
            assert code in (EXIT_OK, EXIT_CONFIG)

    def test_checkpoint_of_another_hamiltonian_is_config_error(self, tmp_path, capsys):
        # same mode count, other interaction: the stored energy is not reproduced
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, initial_state(hubbard_model(2, 1.0, 2.0, 2.0), seed=3))
        config = tmp_path / "run.json"
        write_config(config, init={"checkpoint": str(ckpt)})  # u = 4
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "checkpoint energy" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("tau", float("nan")),
            ("tau", float("inf")),
            ("tau", True),
            ("energy", float("nan")),
            ("energy", float("-inf")),
            ("energy", False),
            ("n_modes", 4.0),
            ("n_modes", True),
            ("n_modes", 0),
        ],
        ids=["tau-nan", "tau-inf", "tau-true", "energy-nan", "energy-minus-inf", "energy-false",
             "n_modes-float", "n_modes-true", "n_modes-zero"],
    )
    def test_malformed_checkpoint_number_is_config_error(self, tmp_path, capsys, key, value):
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, initial_state(hubbard_model(2, 1.0, 4.0, 2.0), seed=3))
        payload = json.loads(ckpt.read_text())
        payload[key] = value
        ckpt.write_text(json.dumps(payload))  # NaN and Infinity as Python's json writes them
        config = tmp_path / "run.json"
        write_config(config, init={"checkpoint": str(ckpt)}, outputs={"trajectory": str(tmp_path / "t.jsonl")})
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"'checkpoint.{key}'" in err
        assert "Traceback" not in err
        assert (tmp_path / "t.jsonl").read_text() == ""

    @pytest.mark.parametrize("path", [".", "ckpt\0.json"], ids=["directory", "nul-byte"])
    def test_unreadable_checkpoint_path_is_config_error(self, tmp_path, capsys, path):
        config = tmp_path / "run.json"
        write_config(config, init={"checkpoint": path})
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"cannot read checkpoint {path!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("output", ["trajectory", "checkpoint"])
    def test_unwritable_output_fails_before_any_step(self, tmp_path, monkeypatch, capsys, output):
        def no_step(*args, **kwargs):
            raise AssertionError("optimizer.step entered")

        monkeypatch.setattr(optimizer, "step", no_step)
        config = tmp_path / "run.json"
        write_config(config, outputs={output: "/nonexistent/dir/t.jsonl"})
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "outputs." + output in err
        assert "Traceback" not in err

    def test_restart_in_place_keeps_the_checkpoint(self, tmp_path):
        # the output probe must not truncate the checkpoint the run restarts from
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, initial_state(hubbard_model(2, 1.0, 4.0, 2.0), seed=3))
        config = tmp_path / "run.json"
        write_config(config, init={"checkpoint": str(ckpt)}, outputs={"checkpoint": str(ckpt)}, max_steps=2)
        assert main(["run", "--config", str(config)]) == EXIT_OK
        assert set(json.loads(ckpt.read_text())) == {"n_modes", "gamma", "omega", "tau", "energy"}

    def test_deterministic_reruns(self, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            cfg = tmp_path / f"run_{tag}.json"
            traj = tmp_path / f"traj_{tag}.jsonl"
            write_config(cfg, outputs={"trajectory": str(traj)})
            assert main(["run", "--config", str(cfg)]) == EXIT_OK
            records = [json.loads(line) for line in traj.read_text().splitlines()]
            outputs.append([(r["tau"], r["energy"], r["dtau"]) for r in records])
        assert outputs[0] == outputs[1]

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        write_config(cfg, tolerance_g=1e-7)  # typo'd key
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG

    def test_malformed_json_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG

    def test_missing_file_rejected(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_corrupted_hamiltonian_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("NMODES 2\nH 1 2 2 1 1.0\n")  # symmetry-incomplete
        cfg = tmp_path / "run.json"
        write_config(cfg, hamiltonian={"path": str(bad)})
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG

    def test_stagnation_exit_code(self, tmp_path):
        cfg = tmp_path / "run.json"
        write_config(
            cfg,
            init={"random_seed": 1},
            dtau0=50.0,
            dtau_max=50.0,
            dtau_min=40.0,
            max_steps=50,
        )
        assert main(["run", "--config", str(cfg)]) == 4

    def test_simple_update_small_c_stays_monotone(self, tmp_path):
        cfg = tmp_path / "run.json"
        traj = tmp_path / "traj.jsonl"
        write_config(
            cfg,
            omega_update={"simple": {"c": 0.05}},  # below the spectral bound
            max_steps=10,
            outputs={"trajectory": str(traj)},
        )
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        records = [json.loads(line) for line in traj.read_text().splitlines()]
        energies = [r["energy"] for r in records]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


class TestParseConfig:
    def test_simple_without_coefficient_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(
                {
                    "hamiltonian": {"model": "hubbard", "sites": 2},
                    "omega_update": "simple",
                }
            )

    def test_bad_init_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(
                {"hamiltonian": {"model": "hubbard", "sites": 2}, "init": "zeros"}
            )

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"dtau0": "abc"}, "dtau0"),
            ({"max_steps": "x"}, "max_steps"),
            ({"max_steps": 2.5}, "max_steps"),
            ({"patience": True}, "patience"),
            ({"tol_g": float("nan")}, "tol_g"),
            ({"filling": "half"}, "filling"),
            ({"hamiltonian": {"model": "hubbard"}}, "hamiltonian.sites"),
            ({"hamiltonian": {"model": "hubbard", "sites": 2, "u": "4"}}, "hamiltonian.u"),
            ({"omega_update": {"simple": {}}}, "omega_update.simple.c"),
            ({"omega_update": {"simple": 3}}, "omega_update.simple"),
            ({"init": {"random_seed": "7"}}, "init.random_seed"),
            ({"init": {"random_seed": -1}}, "init.random_seed"),
            ({"outputs": 3}, "outputs"),
            ({"outputs": {"trajectory": 3}}, "outputs.trajectory"),
            ({"dtau0": 10**400}, "dtau0"),  # past the float range
            ({"freeze_omega": "false"}, "freeze_omega"),
            ({"freeze_omega": 0}, "freeze_omega"),
            ({"hamiltonian": {"model": "hubbard", "sites": 2, "periodic": "false"}}, "hamiltonian.periodic"),
            ({"hamiltonian": {"model": "hubbard", "sites": 2, "periodic": 1}}, "hamiltonian.periodic"),
            ({"hamiltonian": {"path": "."}}, "hamiltonian.path"),
            ({"omega_update": {}}, "omega_update.simple"),
        ],
    )
    def test_malformed_value_is_config_error(self, tmp_path, capsys, overrides, key):
        config = tmp_path / "run.json"
        write_config(config, **overrides)
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"'{key}'" in err
        assert "Traceback" not in err

    def test_zero_tolerance_disables_a_stopping_rule(self):
        # as for RunOptions, 0 turns a stopping rule off and a negative value is an error
        base = {"hamiltonian": {"model": "hubbard", "sites": 2}}
        options = parse_config({**base, "tol_g": 0, "tol_e": 0.0})["options"]
        assert options.tol_g == 0.0 and options.tol_e == 0.0
        with pytest.raises(ConfigError, match="tol_g"):
            parse_config({**base, "tol_g": -1e-7})
        with pytest.raises(ConfigError, match="dtau0"):
            parse_config({**base, "dtau0": 0})

    def test_threads_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="threads"):
            parse_config({"hamiltonian": {"model": "hubbard", "sites": 2}, "threads": 2})
        cfg = tmp_path / "run.json"
        write_config(cfg, threads=2)
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG


# every key parse_config reads from a value, with its documented JSON type
_NAMED = ("init", "omega_update", "hamiltonian.model")  # a string that must be one of a few names
_DOCUMENTED = {
    **dict.fromkeys(
        ["dtau0", "dtau_max", "dtau_min", "tol_g", "tol_e", "patience", "max_steps", "filling",
         "hamiltonian.sites", "hamiltonian.t", "hamiltonian.u", "hamiltonian.mu",
         "init.random_seed", "omega_update.simple.c"],
        "number",
    ),
    **dict.fromkeys(["freeze_omega", "hamiltonian.periodic"], "boolean"),
    **dict.fromkeys(
        ["hamiltonian.path", "init.checkpoint", "outputs.checkpoint", "outputs.trajectory", *_NAMED],
        "string",
    ),
}

_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    return "string" if isinstance(value, str) else "number"


def _config_with(key: str, value) -> dict:
    """A valid base config with ``value`` placed at the dotted ``key``."""
    config = {"hamiltonian": {} if key == "hamiltonian.path" else {"model": "hubbard", "sites": 2}}
    *sections, leaf = key.split(".")
    node = config
    for section in sections:
        node = node.setdefault(section, {})
    node[leaf] = value
    return config


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(key=st.sampled_from(sorted(_DOCUMENTED)), value=_SCALARS)
def test_parse_config_resolves_or_names_the_key(key, value, tmp_path, monkeypatch):
    # a large Hubbard chain would allocate its (2L)^4 two-body tensor
    assume(not (key == "hamiltonian.sites" and _json_type(value) == "number" and not abs(value) <= 8))
    monkeypatch.chdir(tmp_path)  # text at hamiltonian.path names no file of the repository
    leaf = key.split(".")[-1]
    try:
        parse_config(_config_with(key, value))
    except ConfigError as exc:
        assert leaf in str(exc)
        if _json_type(value) != _DOCUMENTED[key] and key not in _NAMED:
            assert f"'{key}'" in str(exc)
    else:
        assert _json_type(value) == _DOCUMENTED[key], f"{key}={value!r} was accepted"


_HAMIL = hubbard_model(2, 1.0, 4.0, 2.0)
_STATE = initial_state(_HAMIL, seed=3)
_CHECKPOINT = {
    "n_modes": 4,
    "gamma": _STATE.gamma.gamma.ravel().tolist(),
    "omega": _STATE.omega.omega.ravel().tolist(),
    "tau": 0.5,
    "energy": _STATE.energy,
}
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6))
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)
# values near a valid one: the right shape or type with one flaw, or valid
_NEAR = st.one_of(
    st.sampled_from(
        [4, 4.0, True, 0, -4, 2**70, 10**400, 1e308, "4", None, [],
         _STATE.gamma.gamma.tolist(), [0.0] * 64, [0.0] * 16, _STATE.energy, _STATE.energy + 1e-9]
    ),
    st.lists(st.sampled_from([0.0, 1.0, -1.0, float("nan"), float("inf")]), min_size=16, max_size=16),
    st.builds(
        lambda k, x: _CHECKPOINT["gamma"][:k] + [x] + _CHECKPOINT["gamma"][k + 1:],
        st.integers(0, 63),
        st.floats(),
    ),
)


def _finite_constant(name):
    raise AssertionError(f"non-finite {name} in the trajectory")


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(key=st.sampled_from(sorted(_CHECKPOINT)), value=st.one_of(_JSON_SCALARS, _NEAR, _JSON))
def test_run_from_a_fuzzed_checkpoint_exits_cleanly(key, value, tmp_path):
    # one key of a valid checkpoint holds any JSON value: the run ends in a
    # documented exit code, never a traceback, and exit 0 only from a valid state
    ckpt, traj, config = tmp_path / "ckpt.json", tmp_path / "t.jsonl", tmp_path / "run.json"
    ckpt.write_text(json.dumps({**_CHECKPOINT, key: value}))
    traj.write_text("")
    write_config(config, init={"checkpoint": str(ckpt)}, max_steps=2, outputs={"trajectory": str(traj)})
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(config)])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code != EXIT_OK:
        return
    payload = json.loads(ckpt.read_text())
    assert type(payload["n_modes"]) is int and payload["n_modes"] == _HAMIL.n_modes
    for name in ("tau", "energy"):
        assert type(payload[name]) in (int, float) and math.isfinite(payload[name])
    gamma, omega, _, stored = load_checkpoint(ckpt)
    assert gamma.purity_error <= gaussian.PURITY_TOL
    assert abs(energy(gamma, omega, _HAMIL)[2] - stored) <= 1e-10
    records = [json.loads(line, parse_constant=_finite_constant) for line in traj.read_text().splitlines()]
    assert records and all(math.isfinite(r["tau"]) for r in records)


class TestValidateCommand:
    def test_passes_at_three_modes(self, capsys):
        assert main(["validate", "--n-modes", "3", "--seed", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 10
        assert "FAIL" not in out

    def test_seed_fixes_draws(self, capsys):
        main(["validate", "--n-modes", "3", "--seed", "5"])
        first = capsys.readouterr().out
        main(["validate", "--n-modes", "3", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second

    def test_mode_cap_is_numerical_failure(self, capsys):
        assert main(["validate", "--n-modes", "11"]) == EXIT_NUMERICAL

    def test_negative_seed_is_config_error(self, capsys):
        assert main(["validate", "--seed", "-1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err


class TestCircuitCommand:
    def make_checkpoint(self, tmp_path, omega):
        state = initial_state(hubbard_model(2, 1.0, 4.0, 2.0), omega=omega)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, state)
        return path

    def test_zero_coupling_gives_header_only_circuit(self, tmp_path):
        ckpt = self.make_checkpoint(tmp_path, np.zeros((4, 4)))
        qasm = tmp_path / "out.qasm"
        report = tmp_path / "report.json"
        code = main(
            ["circuit", "--checkpoint", str(ckpt), "--out-qasm", str(qasm),
             "--out-report", str(report)]
        )
        assert code == EXIT_OK
        body = [
            l for l in qasm.read_text().splitlines()
            if l and not l.startswith(("OPENQASM", "include", "//", "qreg"))
        ]
        assert body == []

    def test_optimized_checkpoint_exports_verified_circuit(self, tmp_path, rng):
        w = rng.uniform(-1.0, 1.0, size=(4, 4))
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        ckpt = self.make_checkpoint(tmp_path, w)
        qasm = tmp_path / "out.qasm"
        report_path = tmp_path / "report.json"
        code = main(
            ["circuit", "--checkpoint", str(ckpt), "--out-qasm", str(qasm),
             "--out-report", str(report_path)]
        )
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["rz_count"] == 4
        assert report["zz_count"] <= 6
        assert report["dense_deviation"] < 1e-10
        text = qasm.read_text()
        assert text.count("rz(") == report["rz_count"] + report["zz_count"]

    def test_checkpoint_round_trip(self, tmp_path, rng):
        # one json.dumps of tolist() arrays writes the bytes json.dump wrote,
        # streaming float() lists, and reads back bit for bit
        w = rng.normal(size=(10, 10))
        omega = w + w.T
        np.fill_diagonal(omega, 0.0)
        state = initial_state(hubbard_model(5, 1.0, 4.0, 2.0), seed=3, omega=omega)
        state = optimizer.OptimizerState(state.evaluator, tau=0.1 + 0.2, energy=state.energy)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, state)
        streamed = io.StringIO()
        json.dump(
            {
                "n_modes": 10,
                "gamma": [float(x) for x in state.gamma.gamma.ravel()],
                "omega": [float(x) for x in state.omega.omega.ravel()],
                "tau": state.tau,
                "energy": state.energy,
            },
            streamed,
        )
        assert path.read_bytes() == (streamed.getvalue() + "\n").encode("ascii")
        gamma, omega_read, tau, energy_read = load_checkpoint(path)
        assert gamma.gamma.tobytes() == state.gamma.gamma.tobytes()
        assert omega_read.omega.tobytes() == state.omega.omega.tobytes()
        assert (tau, energy_read) == (state.tau, state.energy)

    def test_bad_checkpoint_keys_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"n_modes": 2}))
        code = main(
            ["circuit", "--checkpoint", str(path), "--out-qasm",
             str(tmp_path / "a.qasm"), "--out-report", str(tmp_path / "r.json")]
        )
        assert code == EXIT_CONFIG


    @pytest.mark.parametrize("path", [".", "ckpt\0.json"], ids=["directory", "nul-byte"])
    def test_unreadable_checkpoint_path_is_config_error(self, tmp_path, capsys, path):
        code = main(
            ["circuit", "--checkpoint", path, "--out-qasm",
             str(tmp_path / "a.qasm"), "--out-report", str(tmp_path / "r.json")]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"cannot read checkpoint {path!r}" in err
        assert "Traceback" not in err


def _path_case_argv(case, tmp_path):
    """The argv of one CLI path case; a directory stands for an unreadable
    or unwritable file."""
    folder = tmp_path / "folder"
    folder.mkdir()
    ckpt = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, initial_state(hubbard_model(2, 1.0, 4.0, 2.0)))
    circuit = ["circuit", "--checkpoint", str(ckpt)]
    binary = tmp_path / "run.json"
    binary.write_bytes(b"\xff\xfe{")
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"hamiltonian": {"model": "hubbard", "sites": 10**9}}))
    return {
        "run-config-directory": ["run", "--config", str(folder)],
        "run-config-not-utf8": ["run", "--config", str(binary)],
        "model-out-directory": ["model", "hubbard", "--sites", "2", "--out", str(folder)],
        "circuit-qasm-directory": circuit + ["--out-qasm", str(folder), "--out-report", str(tmp_path / "r.json")],
        "circuit-report-directory": circuit + ["--out-qasm", str(tmp_path / "c.qasm"), "--out-report", str(folder)],
        "validate-zero-modes": ["validate", "--n-modes", "0"],
        "validate-negative-modes": ["validate", "--n-modes", "-1"],
        # numpy refuses these tensors' shapes before allocating anything
        "model-too-many-sites": ["model", "hubbard", "--sites", str(10**9), "--out", str(tmp_path / "big.txt")],
        "run-too-many-sites": ["run", "--config", str(big)],
    }[case]


@pytest.mark.parametrize(
    "case, code",
    [
        ("run-config-directory", EXIT_CONFIG),
        ("run-config-not-utf8", EXIT_CONFIG),
        ("model-out-directory", EXIT_CONFIG),
        ("circuit-qasm-directory", EXIT_CONFIG),
        ("circuit-report-directory", EXIT_CONFIG),
        ("validate-zero-modes", EXIT_NUMERICAL),
        ("validate-negative-modes", EXIT_NUMERICAL),
        ("model-too-many-sites", EXIT_CONFIG),
        ("run-too-many-sites", EXIT_CONFIG),
    ],
)
def test_bad_path_or_mode_count_exits_with_its_code(case, code, tmp_path, capsys):
    assert main(_path_case_argv(case, tmp_path)) == code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("source", ["model", "config", "file"])
def test_unallocatable_hamiltonian_is_config_error(source, tmp_path, monkeypatch, capsys):
    # np.zeros raises numpy's MemoryError for any large shape, so nothing is
    # allocated: a 10**6-site chain needs 58 TiB for f, a 10**5-mode file 149 GiB
    real = np.zeros

    def refusing(shape, *args, **kwargs):
        if np.prod(shape, dtype=float) > 1e8:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return real(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", refusing)
    hamiltonian = {"model": "hubbard", "sites": 10**6}
    if source == "file":
        (tmp_path / "h.txt").write_text("NMODES 100000\n")
        hamiltonian = {"path": str(tmp_path / "h.txt")}
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"hamiltonian": hamiltonian}))
    argv = ["run", "--config", str(config)]
    if source == "model":
        argv = ["model", "hubbard", "--sites", str(10**6), "--out", str(tmp_path / "big.txt")]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "GiB for f and h" in err and "Traceback" not in err


def test_module_entry_point_runs_without_warnings():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "ngfermi", "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: ngfermi" in proc.stdout


_SCIPY_FREE_CHILD = """
import json, sys
import ngfermi
from ngfermi import cli
json.dump({"hamiltonian": {"model": "hubbard", "sites": 2, "t": 1.0, "u": 4.0, "mu": 2.0},
           "init": {"random_seed": 1}, "max_steps": 2,
           "outputs": {"checkpoint": "ckpt.json"}}, open("run.json", "w"))
codes = [
    cli.main(["run", "--config", "run.json"]),
    cli.main(["circuit", "--checkpoint", "ckpt.json", "--out-qasm", "c.qasm", "--out-report", "r.json"]),
    cli.main(["validate", "--n-modes", "2"]),
]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_package_runs_without_scipy(tmp_path):
    # numpy is the one runtime dependency: importing the package, a run with a
    # checkpoint, a circuit export and validate load no scipy module
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_CHILD],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"codes": [EXIT_OK, EXIT_OK, EXIT_OK], "scipy": []}
