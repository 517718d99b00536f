"""Record the reference results of every task the benchmark can generate.

    python3 benchmarks/record_references.py

Runs each parameter variant of each task template once, at both sizes,
with one BLAS thread, and writes ``benchmarks/references.json``.  Run it
only when the benchmark's tasks change; a program change that moves a
result beyond the tolerance in NOTES.md is a failure, not a new reference.
"""

import json
import os
import shutil
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402


def main() -> int:
    workdir = ROOT / ".bench_out" / "record"
    refs = {}
    try:
        for size in ("tiny", "full"):
            for workload in wl.WORKLOADS:
                for task in wl.all_variants(workload, size, ROOT, workdir / workload / size):
                    refs[task.key] = task.run(**task.args)
                    print(task.key, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {"tolerance": {"rel": wl.REL_TOL, "abs": wl.ABS_TOL}, "tasks": refs}
    (HERE / "references.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
