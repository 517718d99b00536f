"""Record every benchmark task result of one checkout, or diff two records.

    python3 tools/bit_identity.py record OUT.json [--checkout DIR]
    python3 tools/bit_identity.py diff BEFORE.json AFTER.json

``record`` imports ``effham`` from ``DIR/src`` and the task list from
``DIR/benchmarks`` (default: the checkout this file sits in), runs every
task ``workloads.all_variants`` yields at full size for each workload, once,
with one BLAS thread, and writes the results with floats as hex strings, so
equal records mean bit-identical results.  It also runs ``effham run`` on
each ``configs/*.cfg`` with csv and with json reports, and with a csv report
on the config of every ``config-suite`` task, every variant at both sizes
(the tasks themselves write json), and records each report's exit code and
sha256, and the sha256 of what ``effham list-scenarios`` prints.  Reports
and configs go to a temporary directory; nothing under the checkout is
written.

``diff`` prints every task, report or listing that differs between two
records and exits 1 if any does, 0 if the records agree.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path


def _exact(value):
    """A JSON value that compares equal only for bit-identical floats."""
    if isinstance(value, float):
        return value.hex()
    return value


def _report(cli, config, report: Path, fmt: str) -> dict:
    """Exit code and report sha256 (None when no report was written) of one
    ``effham run``."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["run", str(config), "--output", str(report), "--format", fmt])
    digest = hashlib.sha256(report.read_bytes()).hexdigest() if report.is_file() else None
    return {"exit_code": code, "sha256": digest}


def record(checkout: Path, out: Path) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(checkout / "src"), str(checkout / "benchmarks")]
    import workloads as wl
    from effham import cli

    doc = {"checkout": str(checkout), "tasks": {}, "reports": {}, "listings": {}}
    workdir = Path(tempfile.mkdtemp(prefix="bit-identity-"))
    try:
        for workload in wl.WORKLOADS:
            tasks = wl.all_variants(workload, "full", checkout, workdir / workload)
            for task in tasks:
                result = task.run(**task.args)
                doc["tasks"][task.key] = {k: _exact(v) for k, v in sorted(result.items())}
            print(f"{workload}: {len(tasks)} tasks", flush=True)
        for cfg in sorted((checkout / "configs").glob("*.cfg")):
            for fmt in ("csv", "json"):
                doc["reports"][f"{cfg.name}:{fmt}"] = _report(cli, cfg, workdir / f"{cfg.stem}.{fmt}", fmt)
        for size in ("full", "tiny"):
            for task in wl.all_variants("config-suite", size, checkout, workdir / f"csv-{size}"):
                report = Path(task.args["report"]).with_suffix(".csv")
                doc["reports"][f"{task.key}:csv"] = _report(cli, task.args["config"], report, "csv")
        print(f"configs: {len(doc['reports'])} reports", flush=True)
        with contextlib.redirect_stdout(io.StringIO()) as listing:
            code = cli.main(["list-scenarios"])
        digest = hashlib.sha256(listing.getvalue().encode("utf-8")).hexdigest()
        doc["listings"]["list-scenarios"] = {"exit_code": code, "sha256": digest}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def diff(before: Path, after: Path) -> int:
    a = json.loads(before.read_text(encoding="utf-8"))
    b = json.loads(after.read_text(encoding="utf-8"))
    differing = 0
    for section in ("tasks", "reports", "listings"):
        x_section, y_section = a.get(section, {}), b.get(section, {})
        for key in sorted(set(x_section) | set(y_section)):
            x, y = x_section.get(key), y_section.get(key)
            if x != y:
                differing += 1
                print(f"{section} {key}:\n  before {x}\n  after  {y}")
        print(f"{section}: {len(y_section)} compared")
    print("identical" if not differing else f"{differing} differ")
    return 1 if differing else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="mode", required=True)
    p_rec = sub.add_parser("record", help="record one checkout's results")
    p_rec.add_argument("out", type=Path)
    p_rec.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    p_diff = sub.add_parser("diff", help="compare two records")
    p_diff.add_argument("before", type=Path)
    p_diff.add_argument("after", type=Path)
    args = p.parse_args(argv)
    if args.mode == "record":
        return record(args.checkout.resolve(), args.out)
    return diff(args.before, args.after)


if __name__ == "__main__":
    sys.exit(main())
