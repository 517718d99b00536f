"""Self-test of the benchmark.

    python3 benchmarks/selftest.py

1. Smoke pass: every workload at tiny size, one untraced and one traced
   pass, must be correct and print every metric the benchmark declares.
2. The gate cannot pass vacuously: with every gated result of every tiny
   reference moved beyond the tolerance (floats), by one (integers) or
   flipped (verdicts), every task of every workload must fail and name
   each moved result.  References that differ only in a report's size
   and hash must fail nothing.
3. The launcher refuses more BLAS threads than nproc, and a directory that
   holds only the benchmark (no program sources) makes it fail without a
   result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
WORK = ROOT / ".bench_out" / "selftest"
TIMEOUT_S = 300


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd, text=True,
                          capture_output=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke(failures: list):
    spec = declared()
    layer_names = {m["name"] for m in spec["per_layer"]}
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, result, proc = bench("--workload", w["name"], "--seed", "7", "--seconds", "0",
                                       "--size", "tiny", "--trace", str(trace))
            want = layer_names if trace else e2e_names
            if code != 0 or result is None or not result["correct"]:
                failures.append(f"smoke {w['name']} trace {trace}: exit {code}\n"
                                f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            elif set(result["metrics"]) != want:
                failures.append(f"smoke {w['name']} trace {trace}: metrics "
                                f"{sorted(set(result['metrics']) ^ want)} differ")
            elif trace and w["name"] == "dicke-ladder" and \
                    result["metrics"]["rotations.filter_visits"]["value"] != 0:
                failures.append("dicke-ladder calls filter_signatures")


def perturb(value, tol: dict):
    """``value`` moved beyond the gate's tolerance."""
    if isinstance(value, str):      # verdicts: flip one
        return value.replace("PASS", "FAIL", 1) if "PASS" in value else value + ";x=PASS"
    if isinstance(value, int):      # exit codes, compared states
        return value + 1
    return value + 1e3 * (tol["rel"] * abs(value) + tol["abs"])


def run_with(refs: dict, workload: str, name: str):
    """A tiny untraced run against ``refs``; its exit code, result and the
    failures of its result record."""
    path = WORK / f"{name}-references.json"
    path.write_text(json.dumps(refs), encoding="utf-8")
    code, result, proc = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                               "--size", "tiny", "--references", str(path))
    record = ROOT / ".bench_out" / "results" / f"{workload}-tiny-seed7-trace0.json"
    failures = json.loads(record.read_text(encoding="utf-8"))["failures"] if result else []
    return code, result, dict(failures)


def perturbed(failures: list):
    """Every gated result of every tiny reference is moved; each task must
    fail, naming every moved result.  Moving only a report's size and hash
    must fail nothing."""
    from workloads import NOT_GATED
    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    tiny = {key: res for key, res in refs["tasks"].items() if "/tiny/" in key}
    moved = {key: {name: perturb(v, refs["tolerance"]) if name not in NOT_GATED else v
                   for name, v in res.items()} for key, res in tiny.items()}
    for w in declared()["workloads"]:
        code, result, failed = run_with(dict(refs, tasks=moved), w["name"], "perturbed")
        if code == 0 or result is None or result["correct"] or \
                result["failed"] != result["attempted"]:
            failures.append(f"perturbed references not caught on {w['name']}: exit {code}, "
                            f"result {result}")
            continue
        for key, reason in failed.items():
            named = {part.split(": ")[0] for part in reason.split("; ")}
            missed = set(moved[key]) - set(NOT_GATED) - named
            if missed:
                failures.append(f"perturbed {key}: {sorted(missed)} not caught")

    bytes_only = {key: dict(res, report_bytes=res["report_bytes"] + 1, report_sha256="0" * 64)
                  for key, res in tiny.items() if "report_bytes" in res}
    code, result, failed = run_with(dict(refs, tasks=bytes_only), "config-suite", "bytes-only")
    if code != 0 or result is None or not result["correct"] or failed:
        failures.append(f"report size or hash failed a task: exit {code}, {failed}")


def refusals(failures: list):
    too_many = str(len(os.sched_getaffinity(0)) + 1)
    code, result, _ = bench("--workload", "config-suite", "--seed", "1", "--seconds", "0",
                            "--blas-threads", too_many)
    if code == 0 or result is not None:
        failures.append(f"--blas-threads {too_many} was accepted")
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, result, _ = bench("--workload", "config-suite", "--seed", "1", "--seconds", "1",
                            cwd=bare, script=bare / HERE.name / "run.py")
    if code == 0 or result is not None:
        failures.append("a directory without the program produced a result")


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    try:
        for step in (smoke, perturbed, refusals):
            before = len(failures)
            step(failures)
            print(f"{step.__name__}: {'ok' if len(failures) == before else 'FAILED'}",
                  flush=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
