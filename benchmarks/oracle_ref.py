"""Exact ground energies of Hamiltonian files, computed in a process of their own.

The dense oracle holds 2^N x 2^N complex operators (1024 x 1024 at N=10),
so the benchmark runs it here, before any timed pass, to keep them out of
the peak memory of the process that times `ngfermi run`.

    python3 benchmarks/oracle_ref.py HAMILTONIAN_FILE [...]

prints one JSON list with the energy and the milliseconds spent in
``oracle.dense_ground`` for each file.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ngfermi import hamiltonian, oracle  # noqa: E402


def main(paths: list[str]) -> int:
    out = []
    for path in paths:
        hamil = hamiltonian.load_hamiltonian(path)
        t0 = time.perf_counter()
        energy, _ = oracle.dense_ground(hamil)
        out.append({"energy": energy, "ms": (time.perf_counter() - t0) * 1e3})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
