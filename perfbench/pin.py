"""Write ``reference.json``: the digest of every schedule in every workload's
pool, solved once by the library in this checkout.

    python3 perfbench/pin.py

Run it only on a commit whose answers are trusted (the digests in the
repository were made on the commit that introduced the benchmark, whose
answers the desk-scale oracle cross-check confirms).  A change that alters
any schedule then fails the benchmark.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import HERE, OUT, load_library
from workloads import WORKLOADS


def main() -> int:
    lib = load_library()
    reference = {}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        for name, workload in WORKLOADS.items():
            pool = workload.build(lib, Path(workdir))
            digests = {}
            for item in pool:
                result = workload.call(lib, item)()
                problems = workload.verify(lib, item, result)
                if problems:
                    print(f"{name} {item.id}: {problems}", file=sys.stderr)
                    return 1
                digests[item.id] = workload.digest(item, result)
            reference[name] = digests
            print(f"{name}: {len(digests)} schedules")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
