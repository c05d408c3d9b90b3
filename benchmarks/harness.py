"""Workloads, passes and metrics of the ngfermi benchmark.

A *start* is one `ngfermi run` invocation (`cli.main(["run", ...])`) on a
generated JSON config and Hamiltonian text file, followed by the output
checks in :mod:`checks`.  A *pass* is a workload's fixed list of starts.
One process runs the starts one after another (closed loop, one caller).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

import checks
from ngfermi import cli, optimizer, validate
from ngfermi import hamiltonian as ham
from tracing import Tracer

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
ORACLE_THREADS = min(2, NPROC)  # outside every timed interval
LOAD_SHAPE = "1 process, closed loop, 1 caller"

# Hubbard chain L=5: N=10 modes (the dense oracle's limit), 20 two-body entries.
HUBBARD_ARGS = ["--sites", "5", "--t", "1", "--u", "4", "--mu", "2"]
DENSE_MODES = 4
# The dense Hamiltonian is fixed and the workload seed draws the initial
# states.  Across random Hamiltonians the 15-step gap spans 0.07 to 3.2; for
# Hamiltonian seeds 1 and 2024 it still spans 0.02-3.6 and 0.37-4.1 across
# initial states.  Seed 7's gaps agree across initial states (2.3-2.5 in
# most of 40 starts), so the median gap is steady across workload seeds.
DENSE_HAMILTONIAN_SEED = 7


@dataclass(frozen=True)
class Workload:
    model: str  # "hubbard" or "dense"
    freeze_omega: bool
    starts: int  # `ngfermi run` starts per pass, each from its own random state
    max_steps: int


WORKLOADS = {
    # 2N=20 matrices with few terms per phase vector: bundle linear algebra leads.
    "hubbard-hitgd": Workload("hubbard", False, starts=16, max_steps=15),
    # 2N=8 matrices with 144 two-body terms: per-term Python work leads.
    "dense-hitgd": Workload("dense", False, starts=16, max_steps=15),
    # omega frozen at 0: one phase vector, no coupling gradient; runs to the
    # optimizer's own energy stop (max_steps is only a guard).
    "hubbard-gaussian": Workload("hubbard", True, starts=16, max_steps=1000),
}
QUICK_STARTS = 1
QUICK_MAX_STEPS = 4

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("gap_to_exact", "energy"),
    ("energy_drop_per_s", "energy/s"),
    ("peak_rss_mb", "MB"),
)
# Printed but left out of the JSON result and of BENCHMARK.json:
# failed_ratio is 0 on a good run, and energy_drop_per_s follows from the
# seeded initial energies, gap_to_exact and run_s, while its spread across
# seeds adds the initial-energy spread to the timing noise.
PRINTED_ONLY = frozenset({"energy_drop_per_s", "failed_ratio"})


# ------------------------------------------------------------------ inputs

def _quiet(argv: list[str]) -> int:
    """`ngfermi <argv>` in this process, with its console output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def write_hamiltonian(model: str, directory: Path) -> Path:
    path = directory / f"{model}.txt"
    if model == "hubbard":
        if _quiet(["model", "hubbard", *HUBBARD_ARGS, "--out", str(path)]) != 0:
            raise RuntimeError("`ngfermi model hubbard` failed")
    else:
        rng = np.random.default_rng(DENSE_HAMILTONIAN_SEED)
        ham.save_hamiltonian(validate.random_hamiltonian(DENSE_MODES, rng), path)
    return path


def exact_ground(paths: list[Path]) -> list[dict]:
    """`oracle.dense_ground` per file, in a child process; see oracle_ref.py."""
    env = dict(os.environ)
    env.update({var: str(ORACLE_THREADS) for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, str(HERE / "oracle_ref.py"), *map(str, paths)],
        capture_output=True,
        text=True,
        env=env,
        timeout=150,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@dataclass
class Inputs:
    """Generated inputs of one workload: Hamiltonian file and start configs."""

    workload: Workload
    hamil: ham.ManyBodyHamiltonian
    exact_energy: float
    configs: list[tuple[Path, Path, Path]]  # (config, trajectory, checkpoint)


def start_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def write_configs(name: str, workload: Workload, seed: int, ham_path: Path, directory: Path):
    configs = []
    for k, init_seed in enumerate(start_seeds(seed, workload.starts)):
        path, trajectory, checkpoint = (
            directory / f"{name}-{k}.{suffix}" for suffix in ("config.json", "traj.jsonl", "ckpt.json")
        )
        config = {
            "hamiltonian": {"path": str(ham_path)},
            "init": {"random_seed": init_seed},
            "omega_update": "hitgd",
            "freeze_omega": workload.freeze_omega,
            "max_steps": workload.max_steps,
            "outputs": {"checkpoint": str(checkpoint), "trajectory": str(trajectory)},
        }
        path.write_text(json.dumps(config, indent=2) + "\n", encoding="ascii")
        configs.append((path, trajectory, checkpoint))
    return configs


# ------------------------------------------------------------------ passes

class StepClock:
    """Entry times of `ngfermi.optimizer.step`, the only hook of an untraced pass.

    `optimizer.run` computes the coupling gradient before it calls `step`, so
    the interval between two entries is one whole optimizer iteration.
    """

    def __init__(self):
        self.entries: list[float] = []
        self._original = None

    def __enter__(self) -> "StepClock":
        self._original = getattr(optimizer, "step", None)
        if callable(self._original):
            original, entries = self._original, self.entries

            def step(*args, **kwargs):
                entries.append(time.perf_counter())
                return original(*args, **kwargs)

            optimizer.step = step
        return self

    def __exit__(self, *exc) -> None:
        if callable(self._original):
            optimizer.step = self._original


@dataclass
class Start:
    failures: list[str]
    setup_s: float | None = None
    run_s: float | None = None
    intervals_ms: list[float] = field(default_factory=list)
    energy_drop: float | None = None  # E_initial - E_final
    gap: float | None = None  # E_final - E_exact


def _first_step_entry(tracer: Tracer, root: int) -> float | None:
    for span in tracer.spans[root:]:
        if span[0] == "optimizer.step":
            return span[1]
    return None


def run_start(inputs: Inputs, k: int, clock: StepClock | None, tracer: Tracer | None) -> Start:
    config, trajectory, checkpoint = inputs.configs[k]
    for stale in (trajectory, checkpoint):
        stale.unlink(missing_ok=True)
    gc.collect()
    if clock is not None:
        clock.entries.clear()
    root = len(tracer.spans) if tracer is not None else 0
    span = tracer.span("start") if tracer is not None else contextlib.nullcontext()
    if tracer is not None:
        tracer.run_id = k
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["run", "--config", str(config)])
    except SystemExit as exc:
        code = exc.code
    except Exception:
        return Start([f"`ngfermi run` raised:\n{traceback.format_exc()}"])
    t1 = time.perf_counter()

    first = _first_step_entry(tracer, root) if tracer is not None else None
    if clock is not None and clock.entries:
        first = clock.entries[0]
    try:
        with tracer.span("checks") if tracer is not None else contextlib.nullcontext():
            records = checks.read_trajectory(trajectory) if code == 0 else []
            failures = checks.check_start(
                code, records, checkpoint, inputs.hamil, inputs.exact_energy
            )
    except Exception:
        return Start([f"output checks raised:\n{traceback.format_exc()}"])
    if first is None and not failures:
        failures = ["no optimizer step was entered"]
    if failures:
        return Start([f"{s}\n  (output: {sink.getvalue().strip()})" for s in failures])
    intervals = np.diff(clock.entries) * 1e3 if clock is not None else []
    return Start(
        failures,
        setup_s=first - t0,
        run_s=t1 - first,
        intervals_ms=list(intervals),
        energy_drop=records[0]["energy"] - records[-1]["energy"],
        gap=records[-1]["energy"] - inputs.exact_energy,
    )


@dataclass
class Pass:
    starts: list[Start]
    tracer: Tracer | None = None

    @property
    def ok(self) -> list[Start]:
        return [s for s in self.starts if not s.failures]

    @property
    def run_s(self) -> float:
        return sum(s.run_s for s in self.ok)

    @property
    def energy_drop(self) -> float:
        return sum(s.energy_drop for s in self.ok)


def run_pass(inputs: Inputs, traced: bool) -> Pass:
    if traced:
        with Tracer() as tracer:
            starts = [run_start(inputs, k, None, tracer) for k in range(len(inputs.configs))]
        return Pass(starts, tracer)
    with StepClock() as clock:
        starts = [run_start(inputs, k, clock, None) for k in range(len(inputs.configs))]
    return Pass(starts)


def run_passes(inputs: Inputs, seconds: float, traced: bool, once: bool) -> tuple[list[Pass], list[Pass]]:
    """Untraced passes, interleaved with traced ones when ``traced``.

    Rounds repeat while another round still fits in ``seconds``; there is
    always at least one.
    """
    plain: list[Pass] = []
    trace: list[Pass] = []
    begin = time.perf_counter()
    while True:
        plain.append(run_pass(inputs, traced=False))
        if traced:
            trace.append(run_pass(inputs, traced=True))
        elapsed = time.perf_counter() - begin
        if once or elapsed * (1 + 1 / len(plain)) > seconds:
            return plain, trace


# ----------------------------------------------------------------- metrics

def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def end_to_end(passes: list[Pass]) -> tuple[dict, int]:
    """End-to-end metrics of the untraced passes, and the step sample count."""
    ok = [s for p in passes for s in p.ok]
    intervals = np.array([x for s in ok for x in s.intervals_ms])
    with_runs = [p for p in passes if p.ok and p.run_s > 0.0]
    p50, p90 = np.percentile(intervals, [50, 90]) if intervals.size else (0.0, 0.0)
    values = {
        "setup_s": _median(s.setup_s for s in ok),
        "run_s": _median(p.run_s for p in with_runs),
        "step_ms_p50": float(p50),
        "step_ms_p90": float(p90),
        "gap_to_exact": _median(s.gap for s in ok),
        "energy_drop_per_s": _median(p.energy_drop / p.run_s for p in with_runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}, int(intervals.size)


def per_layer(plain: list[Pass], trace: list[Pass], oracle_ms: float) -> dict:
    """Median over the traced passes of each layer metric, plus the overhead."""
    tables = [p.tracer.layer_metrics() for p in trace]
    out = {
        name: (_median(t[name][0] for t in tables), unit)
        for name, (_, unit) in tables[0].items()
    }
    out["oracle.dense_ground.calls"] = (1, "count")
    out["oracle.dense_ground.self_ms"] = (oracle_ms, "ms")
    traced_run_s = _median(p.run_s for p in trace)
    plain_run_s = _median(p.run_s for p in plain)
    overhead = traced_run_s / plain_run_s - 1.0 if plain_run_s > 0.0 else 0.0
    out["trace.overhead"] = (overhead, "ratio")
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    info = {
        "nproc": NPROC,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
    }
    info.update({var: os.environ.get(var) for var in THREAD_VARS})
    info["oracle_blas_threads"] = ORACLE_THREADS
    info["seed"] = seed
    info["load"] = LOAD_SHAPE
    return info


# --------------------------------------------------------------- execution

def prepare(names: list[str], seed: int, directory: Path, quick: bool) -> tuple[dict, dict]:
    """Inputs for each workload, and the oracle time per Hamiltonian model."""
    models = sorted({WORKLOADS[n].model for n in names})
    paths = {m: write_hamiltonian(m, directory) for m in models}
    exact = dict(zip(models, exact_ground([paths[m] for m in models])))
    hamils = {m: ham.load_hamiltonian(paths[m]) for m in models}
    out = {}
    for name in names:
        workload = WORKLOADS[name]
        if quick:
            workload = replace(
                workload, starts=QUICK_STARTS, max_steps=min(workload.max_steps, QUICK_MAX_STEPS)
            )
        out[name] = Inputs(
            workload,
            hamils[workload.model],
            exact[workload.model]["energy"],
            write_configs(name, workload, seed, paths[workload.model], directory),
        )
    return out, {m: exact[m]["ms"] for m in models}


def _print_table(name: str, metrics: dict) -> None:
    for metric, (value, unit) in metrics.items():
        print(f"{name:<17} {metric:<38} {value:<14.6g} {unit}")


def _report_failures(name: str, passes: list[Pass]) -> None:
    for p in passes:
        for k, start in enumerate(p.starts):
            for failure in start.failures:
                print(f"FAILED {name} start {k}: {failure}", file=sys.stderr)


def execute(names: list[str], seed: int, seconds: float, trace: bool, quick: bool, work: Path) -> int:
    print("# machine " + json.dumps(machine_info(seed)))
    attempted = failed = 0
    result: dict = {}
    work.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        inputs, oracle_ms = prepare(names, seed, Path(tmp), quick)
        for name in names:
            plain, traced = run_passes(inputs[name], seconds, trace, once=quick)
            everything = plain + traced
            attempted += sum(len(p.starts) for p in everything)
            n_failed = sum(len(p.starts) - len(p.ok) for p in everything)
            failed += n_failed
            _report_failures(name, everything)

            e2e, samples = end_to_end(plain)
            print(
                f"# {name}: seed {seed}, {len(plain)} untraced + {len(traced)} traced "
                f"passes of {len(inputs[name].configs)} starts; {samples} step samples "
                f"({samples // 10} beyond p90); exact energy {inputs[name].exact_energy:.12g}"
            )
            e2e["failed_ratio"] = (n_failed / max(1, sum(len(p.starts) for p in everything)), "ratio")
            _print_table(name, e2e)
            if trace:
                layers = per_layer(plain, traced, oracle_ms[inputs[name].workload.model])
                absent = traced[-1].tracer.absent
                if absent:
                    print(f"# {name}: absent layers (reported as 0): {', '.join(absent)}")
                _print_table(name, layers)
                traced[-1].tracer.write_spans(work / f"spans-{name}.jsonl")
            chosen = layers if trace else {m: v for m, v in e2e.items() if m not in PRINTED_ONLY}
            prefix = f"{name}/" if len(names) > 1 else ""
            for metric, (value, unit) in chosen.items():
                result[prefix + metric] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}
        )
    )
    return 0 if failed == 0 else 1
