"""``tools/size_ladder.py`` on its smallest rungs: one JSON line per rung,
with the stages its docstring names."""

import json
import subprocess
import sys

from tests.conftest import REPO_ROOT

STAGES = {"dicke": ("build", "scenario", "spectra", "effective", "evolve"),
          "cascade": ("build", "scenario", "spectra", "effective", "filter"),
          "xi3": ("build", "scenario", "spectra", "effective")}


def test_smallest_rungs_print_one_line_each(tmp_path):
    out = tmp_path / "ladder.json"
    run = subprocess.run([sys.executable, str(REPO_ROOT / "tools" / "size_ladder.py"),
                          "--atoms", "1", "--cascade", "1:6", "--xi3", "1:6", "--repeats", "1",
                          "--out", str(out)],
                         capture_output=True, text=True, timeout=300, check=True)
    lines = [json.loads(line) for line in run.stdout.splitlines()]
    assert [(r["model"], r["atoms"], r["n_max"], r["dim"]) for r in lines] == [
        ("dicke", 1, 10, 22), ("cascade", 1, 6, 28), ("xi3", 1, 6, 21)]
    for rung in lines:
        timed = {key[:-2] for key in rung if key.endswith("_s")}
        assert timed == set(STAGES[rung["model"]])
        assert all(rung[f"{stage}_s"] >= 0 for stage in timed)
        assert rung["repeats"] == 1 and rung["block_cost"] > 0 and rung["states_compared"] > 0
        assert rung["peak_rss_mb"] > 0
    written = json.loads(out.read_text(encoding="utf-8"))["sizes"]
    assert [{k: v for k, v in r.items() if k != "samples_s"} for r in written] == lines
    assert all(len(samples) == 1 for r in written for samples in r["samples_s"].values())
