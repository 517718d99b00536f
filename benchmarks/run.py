"""effham benchmark: one workload, timed end to end or traced per layer.

    python3 benchmarks/run.py --workload dicke-ladder --seed 1 --seconds 30 --trace 0

Closed loop, one client: the tasks of a workload run back to back in this
process, pass after pass.  A new pass starts while at least half a typical
pass still fits into ``--seconds``, so a run lasts about ``--seconds``.
Every task result is checked against ``references.json``.  Timings are
scaled to a reference machine speed measured by ``calibration.py`` around
each task; raw timings are printed and recorded next to them.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
runs one counting pass, then alternates untraced and traced passes, and
reports the per-layer times of the traced passes and the counts of the
counting pass.  Fresh interpreters started between tasks give the set-up
time.  Metric names and units come from ``BENCHMARK.json``.  The last line
of standard output is one JSON object; the full record, with the
environment, goes to ``.bench_out/results/``.  See NOTES.md for the
workloads, the metrics and the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60
#: a traced run makes at least one counting and two untraced and two timed passes
TRACE_MIN_PASSES = 5

# a fresh interpreter is ready once the package is imported and one tiny
# model has gone through an effective form
WARM_UP = """
import effham
model = effham.build(effham.ModelSpec(kind="dicke", atoms=1, n_max=4,
                                      omega_field=10.0, omega0=11.0, g=0.02))
effham.closed_form_effective(model, effham.EffectiveScenario("dicke-dispersive"))
"""


def declared_metrics(values: dict[str, float], kind: str) -> dict:
    """``values`` as result metrics, with the units ``BENCHMARK.json``
    declares under ``kind``; the two sets of names must agree."""
    units = {m["name"]: m["unit"]
             for m in json.loads(SPEC.read_text(encoding="utf-8"))[kind]}
    if set(units) != set(values):
        raise RuntimeError(f"{kind} metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(values))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("dicke-ladder", "multiphoton", "config-suite"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1,
                   help="BLAS threads for the program (at most nproc)")
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small models, for the self-test's smoke pass")
    p.add_argument("--references", type=Path, default=HERE / "references.json")
    return p.parse_args(argv)


def fresh_setup(env) -> tuple[float, float]:
    """Start and ready times of a fresh interpreter running the warm-up."""
    code = WARM_UP + "print('ready', flush=True)\n"
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"warm-up interpreter failed: {err.strip()[-500:]}")
    return start, ready


class SetupSampler:
    """Fresh interpreters spread over the run, ``SETUP_REPEATS`` in all.

    Set-up is mostly imports, file reads and page faults, and on a shared
    machine their speed comes in bursts that the calibration kernel does
    not follow.  Interpreters started in one burst at the start of a run
    share its luck; spread over the run, and calibrated like the tasks,
    they do not.
    """

    def __init__(self, env, seconds: float):
        self.env = env
        self.every = seconds / SETUP_REPEATS
        self.spawns: list[tuple[float, float]] = []

    def maybe(self, calib):
        """Start one interpreter if the run has used its share of time
        since the last one, and calibrate after it."""
        if len(self.spawns) < SETUP_REPEATS and (
                not self.spawns or time.perf_counter() - self.spawns[-1][1] >= self.every):
            self.spawns.append(fresh_setup(self.env))
            calib.measure()

    def finish(self, calib):
        """Start the interpreters a short run left out."""
        while len(self.spawns) < SETUP_REPEATS:
            calib.measure()
            self.spawns.append(fresh_setup(self.env))


def blas_info() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "effham" / "__init__.py").is_file():
        print(f"error: no effham sources under {SRC}", file=sys.stderr)
        return 3
    nproc = len(os.sched_getaffinity(0))
    if not 1 <= args.blas_threads <= nproc:
        print(f"error: --blas-threads {args.blas_threads} outside 1..nproc ({nproc})",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)
    env = dict(os.environ, PYTHONPATH=str(SRC))

    import numpy as np
    from calibration import Calibrator

    sys.path.insert(0, str(SRC))
    import effham
    if Path(effham.__file__).resolve().parent != SRC / "effham":
        print(f"error: effham imported from {effham.__file__}, not {SRC}", file=sys.stderr)
        return 3
    import tracer as tr
    import workloads as wl

    exec(WARM_UP, {})
    calib = Calibrator()
    references = json.loads(args.references.read_text(encoding="utf-8"))["tasks"]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tasks = wl.generate(args.workload, args.seed, args.size, ROOT, workdir)
        setup = SetupSampler(env, args.seconds)
        run = run_passes(args, tasks, references, tr, wl, calib, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = run["passes"]
    for p in passes:
        p["raw"] = [end - start for start, end in p["spans"]]
        p["factor"] = [calib.factor(start, end) for start, end in p["spans"]]
        p["latency"] = [r * f for r, f in zip(p["raw"], p["factor"])]
    untraced = [p for p in passes if p["kind"] == "plain"]
    traced = [p for p in passes if p["kind"] == "timed"]
    samples = [x for p in untraced for x in p["latency"]]
    p90 = float(np.percentile(samples, 90))
    beyond = sum(x > p90 for x in samples)

    def pass_median(key, group):
        return statistics.median(sum(p[key]) for p in group)

    setup_samples = {"raw_s": [ready - start for start, ready in setup.spawns],
                     "calibrated_s": [(ready - start) * calib.factor(start, ready)
                                      for start, ready in setup.spawns]}
    e2e = {
        "setup_s": statistics.median(setup_samples["calibrated_s"]),
        "wall_s": pass_median("latency", untraced),
        "task_p50_s": statistics.median(
            statistics.median(p["latency"][i] for p in untraced) for i in range(len(tasks))),
        "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {"setup_s": statistics.median(setup_samples["raw_s"]),
           "wall_s": pass_median("raw", untraced)}
    attempted, failed = run["attempted"], len(run["failures"])
    lines = [f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}",
             f"why: {wl.WHY[args.workload]}",
             f"env: nproc={nproc} blas_threads={args.blas_threads} numpy={np.__version__} "
             f"blas={blas_info()} python={platform.python_version()}",
             f"passes: {len(untraced)} untraced, {len(traced)} traced, "
             f"{len(passes) - len(untraced) - len(traced)} counting; "
             f"{len(tasks)} tasks per pass; {len(samples)} task samples; "
             f"calibration kernel median {statistics.median(calib.values) * 1e3:.1f} ms"]
    e2e_metrics = declared_metrics(e2e, "end_to_end")
    for key, m in e2e_metrics.items():
        extra = f" (raw {raw[key]:.6g} s)" if key in raw else ""
        lines.append(f"{key}: {m['value']:.6g} {m['unit']}{extra}")
    lines.append(f"task_p90_s: {p90:.6g} s" if beyond >= 10 else
                 f"task_p90_s: not reported ({beyond} samples beyond p90, need 10)")
    lines.append(f"fail_frac: {failed / attempted:.6g} ({failed} of {attempted} tasks)")
    lines += [f"FAILED {key}: {why}" for key, why in run["failures"][:10]]

    if args.trace:
        layers = layer_medians(traced)
        layers.update(run["counts"])
        layers["bench.trace_overhead_s"] = pass_median("latency", traced) - e2e["wall_s"]
        metrics = declared_metrics(layers, "per_layer")
        lines += [f"{k}: {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    else:
        metrics = e2e_metrics

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    write_record(args, nproc, np, wl, tasks, calib, e2e, raw, setup_samples, run, result)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def layer_medians(traced: list[dict]) -> dict[str, float]:
    """Per-layer times: medians over traced passes of the per-pass sums,
    each task's self times scaled by its calibration factor."""
    layers: dict[str, list] = {}
    for p in traced:
        for key in p["self"][0]:
            total = sum(s[key] * f for s, f in zip(p["self"], p["factor"]))
            layers.setdefault(key, []).append(total)
    return {key: statistics.median(vals) for key, vals in layers.items()}


def pass_kind(index: int, trace: int) -> str:
    """``plain`` (untraced), ``count`` (traced, ``keep`` predicate counted)
    or ``timed`` (traced).  A traced run counts in its first pass, whose
    times are not used, then alternates plain and timed passes."""
    if not trace:
        return "plain"
    if index == 0:
        return "count"
    return "plain" if index % 2 else "timed"


def run_passes(args, tasks, references, tr, wl, calib, setup) -> dict:
    """Run passes over the task list until the time budget is spent.

    Each pass records its kind and the (start, end) of every task; a timed
    pass also records each task's self times per layer.  The counting pass
    gives the run's counts.  Fresh interpreters for ``setup_s`` start
    between tasks, never inside a task's span.
    """
    tracer = tr.Tracer()
    passes, failures = [], []
    attempted = 0
    counts, last_spans = {}, []
    start = time.perf_counter()
    while len(passes) < (TRACE_MIN_PASSES if args.trace else 1) or \
            time.perf_counter() - start + 0.5 * statistics.median(
                p["spans"][-1][1] - p["spans"][0][0] for p in passes) < args.seconds:
        kind = pass_kind(len(passes), args.trace)
        traced = kind != "plain"
        if traced:
            tracer.reset()
            tracer.install(count_visits=kind == "count")
        reports = identical = report_bytes = 0
        spans = []
        try:
            for task in tasks:
                calib.maybe()
                setup.maybe(calib)
                t0 = time.perf_counter()
                try:
                    if traced:
                        result = tracer.run_task(task.key, task.run, **task.args)
                    else:
                        result = task.run(**task.args)
                    problems = wl.check(result, references.get(task.key))
                except Exception as exc:  # a task that raises is a failed task
                    result, problems = {}, [f"raised {type(exc).__name__}: {exc}"]
                spans.append((t0, time.perf_counter()))
                attempted += 1
                if result.get("exit_code", 0) != 0:
                    problems.append(f"exit code {result['exit_code']}")
                if problems:
                    failures.append((task.key, "; ".join(problems)))
                if "report_sha256" in result:
                    reports += 1
                    report_bytes += result["report_bytes"]
                    ref = references.get(task.key) or {}
                    identical += result["report_sha256"] == ref.get("report_sha256")
        finally:
            if traced:
                tracer.uninstall()
        record = {"kind": kind, "spans": spans}
        if kind == "count":
            counts = dict(tracer.pass_counts(), **{
                "cli.report_bytes": report_bytes, "cli.reports": reports,
                "cli.reports_identical": identical})
        elif kind == "timed":
            record["self"] = [tracer.self_times(task.key) for task in tasks]
            last_spans = list(tracer.spans)
        passes.append(record)
    setup.finish(calib)
    calib.measure()
    return {"passes": passes, "failures": failures, "attempted": attempted,
            "counts": counts, "spans": last_spans}


def write_record(args, nproc, np, wl, tasks, calib, e2e, raw, setup_samples, run, result):
    """Full result record, environment included, under .bench_out/results/."""
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    doc = {
        "workload": args.workload, "why": wl.WHY[args.workload], "seed": args.seed,
        "size": args.size, "seconds": args.seconds, "trace": args.trace,
        "env": {"nproc": nproc, "blas_threads": args.blas_threads,
                "numpy": np.__version__, "blas": blas_info(),
                "python": platform.python_version(), "machine": platform.machine()},
        "tasks": [t.key for t in tasks],
        "end_to_end": e2e,
        "raw": raw,
        "setup": setup_samples,
        "calibration": [[t - calib.stamps[0], v] for t, v in zip(calib.stamps, calib.values)],
        "passes": [dict({k: p[k] for k in ("kind", "raw", "factor", "latency")},
                        spans=[[a - calib.stamps[0], b - calib.stamps[0]] for a, b in p["spans"]])
                   for p in run["passes"]],
        "failures": run["failures"],
        "result": result,
    }
    (results / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    if run["spans"]:
        origin = run["spans"][0][1]
        with open(results / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for name, start, end, parent, task, _ in run["spans"]:
                fh.write(json.dumps({"name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "task": task}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
