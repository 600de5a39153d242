"""The benchmark's own test.

    python3 perfbench/selftest.py

Checks, in order:

1. the desk-scale oracle cross-check at n = 3 and 4 finds no problem;
2. every workload's traced run passes its checks, prints every per-layer
   metric with a positive timing, and repeats every count bit-for-bit
   under two different seeds;
3. the benchmark fails, printing no result, in a directory that holds only
   ``BENCHMARK.json`` and the benchmark itself.

Exits 0 when all hold.  Takes a few minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import HERE, OUT, ROOT, load_library
from workloads import WORKLOADS, desk_check

SEEDS = (1, 2)


def traced_run(cwd: Path, workload: str, seed: int) -> tuple[int, str]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return out.returncode, out.stdout


def main() -> int:
    failures = []
    checks, problems = desk_check(load_library(), (3, 4))
    print(f"desk-scale cross-check at n=3..4: {checks} comparisons, {len(problems)} problems")
    failures += problems

    expected = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    for workload in WORKLOADS:
        counts = []
        for seed in SEEDS:
            code, stdout = traced_run(ROOT, workload, seed)
            result = json.loads(stdout.splitlines()[-1])
            metrics = result["metrics"]
            if code != 0 or not result["correct"]:
                failures.append(f"{workload} seed {seed}: exit {code}, {result}")
            if set(metrics) != expected:
                failures.append(f"{workload}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(metrics) ^ expected)}")
            failures += [f"{workload}: {name} is {m['value']}" for name, m in metrics.items()
                         if m["unit"] == "ms" and not m["value"] > 0]
            counts.append({name: m["value"] for name, m in metrics.items()
                           if m["unit"] == "count" or name == "solvers.cost_over_naive"})
        differing = [name for name in counts[0] if counts[0][name] != counts[1][name]]
        print(f"{workload}: {len(counts[0])} counts, {len(differing)} differ between seeds")
        failures += [f"{workload}: {name} {counts[0][name]} != {counts[1][name]}"
                     for name in differing]

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, stdout = traced_run(Path(bare), "cover-bb", 1)
        print(f"bare directory: exit {code}")
        if code == 0 or '"metrics"' in stdout:
            failures.append(f"bare directory run printed a result or exited 0: {stdout!r}")

    for failure in failures:
        print(f"FAILED {failure}")
    print("ok" if not failures else f"{len(failures)} failures")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
