"""Tests of the benchmark itself: output checks, tolerant tracing, quick mode.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import ngfermi.hamiltonian  # noqa: E402
from ngfermi import cli, oracle  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A real `ngfermi run` on the two-site Hubbard model, with its outputs."""
    tmp = tmp_path_factory.mktemp("run")
    ham_path, config_path = tmp / "hub2.txt", tmp / "run.json"
    trajectory, checkpoint = tmp / "traj.jsonl", tmp / "ckpt.json"
    assert cli.main(["model", "hubbard", "--sites", "2", "--u", "4", "--mu", "2", "--out", str(ham_path)]) == 0
    config = {
        "hamiltonian": {"path": str(ham_path)},
        "init": {"random_seed": 42},
        "max_steps": 8,
        "outputs": {"checkpoint": str(checkpoint), "trajectory": str(trajectory)},
    }
    config_path.write_text(json.dumps(config), encoding="ascii")
    assert cli.main(["run", "--config", str(config_path)]) == 0
    hamil = ngfermi.hamiltonian.load_hamiltonian(ham_path)
    exact = oracle.dense_ground(hamil)[0]
    return checks.read_trajectory(trajectory), checkpoint, hamil, exact


def test_genuine_run_passes_every_check(finished_run):
    records, checkpoint, hamil, exact = finished_run
    assert checks.check_start(0, records, checkpoint, hamil, exact) == []


def test_energy_rise_in_trajectory_is_a_failure(finished_run):
    records, checkpoint, hamil, exact = finished_run
    doctored = [dict(r) for r in records]
    doctored[3]["energy"] = doctored[2]["energy"] + 1e-6
    failures = checks.check_start(0, doctored, checkpoint, hamil, exact)
    assert any("rose" in f for f in failures)


def test_doctored_checkpoint_is_a_failure(finished_run, tmp_path):
    records, checkpoint, hamil, exact = finished_run
    payload = json.loads(checkpoint.read_text(encoding="ascii"))
    payload["energy"] += 1e-6
    doctored = tmp_path / "ckpt.json"
    doctored.write_text(json.dumps(payload), encoding="ascii")
    failures = checks.check_start(0, records, doctored, hamil, exact)
    assert any("checkpoint energy" in f for f in failures)


def test_nonzero_exit_is_a_failure(finished_run):
    _, checkpoint, hamil, exact = finished_run
    assert checks.check_start(3, [], checkpoint, hamil, exact) == ["exit code 3"]


def test_missing_layer_is_reported_absent(monkeypatch):
    monkeypatch.delattr(ngfermi.hamiltonian, "contract")
    with Tracer() as tracer:
        pass
    assert tracer.absent == ["wick.contract"]
    metrics = tracer.layer_metrics()
    assert metrics["wick.contract.calls"] == (0, "count")
    assert metrics["wick.bundles_per_step"] == (0.0, "ratio")


def test_tracer_restores_every_name():
    before = ngfermi.hamiltonian.contract
    with Tracer():
        assert ngfermi.hamiltonian.contract is not before
    assert ngfermi.hamiltonian.contract is before


def test_quick_mode_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {(m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]}
    expected |= {("failed_ratio", "ratio"), ("energy_drop_per_s", "energy/s")}
    printed: dict[str, set] = {}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and not line.startswith("#"):
            workload, name, _, unit = fields
            printed.setdefault(workload, set()).add((name, unit))
    assert set(printed) == {w["name"] for w in spec["workloads"]}
    for workload, pairs in printed.items():
        assert expected <= pairs, (workload, sorted(expected - pairs))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 6
