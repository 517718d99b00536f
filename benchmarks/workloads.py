"""Workload generators and task runners for the effham benchmark.

A workload is a fixed list of tasks.  ``generate(workload, seed, size)``
turns the seed into that list: every task template has ``VARIANTS``
parameter variants, and the seed picks one variant per template, so the
same seed always gives the same inputs and every input the benchmark can
generate has a recorded reference (see ``record_references.py``).

The program only sees what the generator produces: ``ModelSpec`` records
for the library workloads and config files for ``config-suite``.

Every task returns a dict of named results.  ``check`` compares them with
the reference recorded at the commit that defined the benchmark: strings
and integers must match exactly, floats within ``REL_TOL * |ref| + ABS_TOL``;
a report's size and hash (``NOT_GATED``) are not compared.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from effham import cli, dynamics, models, rotations
from effham.hilbert import basis_state
from effham.models import ModelSpec
from effham.rotations import EffectiveScenario

WORKLOADS = ("dicke-ladder", "multiphoton", "config-suite")

WHY = {
    "dicke-ladder": "dense dim^3 algebra on ~100 small conserved blocks (dims 205-1111); "
                    "where block-graded operators should win; never calls filter_signatures",
    "multiphoton": "staged exponentials, conjugation and the per-entry Python loop of "
                   "filter_signatures at dims 308-340; where the filter and engine work should win",
    "config-suite": "in-process 'effham run' on small configs (dims <= 100): per-call overhead, "
                    "config parsing and report writing; the only workload that exercises cli",
}

#: parameter variants per task template; the seed picks one per template
VARIANTS = 8
#: reference tolerance for float results (see NOTES.md)
REL_TOL = 1e-6
ABS_TOL = 1e-10
#: recorded, but never compared by ``check``
NOT_GATED = ("report_sha256", "report_bytes")


@dataclass
class Task:
    """One unit of work: ``run(**args)`` returns the named results to check."""

    key: str                 # reference key: workload/template/size/variant
    run: object
    args: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# dicke-ladder
# ---------------------------------------------------------------------------

_DICKE_DETUNINGS = (0.6, -0.8, 1.0, -1.2, 1.4, -1.6, 1.8, -2.0)
_DICKE_ATOMS = {"full": (4, 6, 8, 10), "tiny": (1, 2)}
_DICKE_GUARD_RATIO = 0.2


def dicke_task(atoms: int, n_max: int, delta: float) -> dict:
    """Dispersive Dicke model: spectra per block and rotated-frame dynamics."""
    g = _DICKE_GUARD_RATIO * abs(delta) / (atoms * math.sqrt(n_max + 1))
    spec = ModelSpec(kind="dicke", atoms=atoms, n_max=n_max, omega_field=10.0,
                     omega0=10.0 + delta, g=g)
    model = models.build(spec)
    forms = rotations.closed_form_effective(model, EffectiveScenario("dicke-dispersive"))
    masks = models.block_masks(model, skip_truncated=True)
    report = dynamics.compare_spectra(model.h_int, forms.corrected, masks)
    n0 = n_max // 2
    psi0 = basis_state(model.space, (n0,), level=1)
    period = 2 * math.pi * abs(delta) / (g * g * (n0 + 1))
    times = np.linspace(0.0, period, 41)
    exact = dynamics.evolve(model.h_int, psi0, times)
    approx = dynamics.effective_evolution(forms.corrected, psi0, times, rotation=forms.rotation)
    infid = dynamics.infidelity_series(exact, approx)
    return {"max_eig_err": report.max_error,
            "max_infidelity": float(np.max(infid)),
            "deviation_norm": forms.deviation_norm,
            "compared_states": int(sum(int(m.sum()) for m in masks))}


def _dicke_tasks(pick, size: str) -> list[Task]:
    tasks = []
    for atoms in _DICKE_ATOMS[size]:
        v = pick()
        n_max = 10 * atoms if size == "full" else 5 * atoms
        tasks.append(Task(f"dicke-ladder/A{atoms}/{size}/v{v}", dicke_task,
                          {"atoms": atoms, "n_max": n_max, "delta": _DICKE_DETUNINGS[v]}))
    return tasks


# ---------------------------------------------------------------------------
# multiphoton
# ---------------------------------------------------------------------------

_WF = 10.0


def _spectra(model, forms) -> dict:
    masks = models.block_masks(model, skip_truncated=True)
    report = dynamics.compare_spectra(model.h_int, forms.corrected, masks)
    return {"max_eig_err": report.max_error,
            "deviation_norm": forms.deviation_norm,
            "compared_states": int(sum(int(m.sum()) for m in masks))}


def _sector_dynamics(model, forms, psi0, period) -> dict:
    times = np.linspace(0.0, period, 41)
    exact = dynamics.evolve(model.h_int, psi0, times)
    approx = dynamics.effective_evolution(forms.corrected, psi0, times, rotation=forms.rotation)
    return {"max_infidelity": float(np.max(dynamics.infidelity_series(exact, approx))),
            "deviation_norm": forms.deviation_norm}


def cascade_first_stage_task(atoms: int, n_max: int, v: int) -> dict:
    """Four-level cascade: first-stage rotation, spectra and extracted couplings."""
    d2, d3, d4 = 0.9 + 0.04 * v, 1.9 + 0.05 * v, (-0.2, 0.0, 0.2, 0.1)[v % 4]
    spec = ModelSpec(kind="cascade", atoms=atoms, n_max=n_max, omega_field=_WF,
                     energies=(0.0, _WF + d2, 2 * _WF + d3, 3 * _WF + d4),
                     couplings=(0.012 + 0.001 * v, 0.015, 0.018 - 0.001 * v))
    model = models.build(spec)
    forms = rotations.closed_form_effective(model, EffectiveScenario("cascade-first-stage"))
    out = _spectra(model, forms)
    deco = rotations.cascade_first_stage(model)
    out["coupling_err_max"] = max(c.relative_error for c in deco.coupling_checks)
    out["one_photon_residual"] = deco.one_photon_residual
    return out


def four_level_three_photon_task(atoms: int, n_max: int, v: int) -> dict:
    """Four-level cascade on three-photon resonance: sector dynamics."""
    d2, d3 = 1.0 + 0.03 * v, 1.7 + 0.02 * v
    g = (0.010 + 0.0005 * v, 0.012, 0.014 - 0.0005 * v)
    spec = ModelSpec(kind="cascade", atoms=atoms, n_max=n_max, omega_field=_WF,
                     energies=(0.0, _WF + d2, 2 * _WF + d3, 3 * _WF), couplings=g)
    model = models.build(spec)
    forms = rotations.closed_form_effective(model, EffectiveScenario("four-level-three-photon"))
    n0 = min(6, n_max - 1)
    psi0 = basis_state(model.space, (n0,), level=1)
    coupling = g[0] * g[1] * g[2] / (d2 * d3) * math.sqrt(atoms * n0 * (n0 - 1) * (n0 - 2))
    return _sector_dynamics(model, forms, psi0, 2 * math.pi / coupling)


def two_mode_four_task(n_max: tuple, v: int) -> dict:
    """Two-mode four-level chain on the pair resonance: spectra per block."""
    wb = _WF + 1.0
    d2, d3 = 0.5 + 0.025 * v, 2.2 + 0.08 * v
    energies = (0.0, _WF + d2, 2 * _WF + d3, 3 * _WF + d2 + (wb - _WF))
    ga = (0.010 + 0.001 * v, 0.012, 0.014)
    gb = (0.012, 0.014 - 0.001 * v, 0.010)
    spec = ModelSpec(kind="two-mode-four", atoms=1, n_max=n_max, omega_field=_WF,
                     omega_b=wb, energies=energies, couplings=ga, couplings_b=gb)
    model = models.build(spec)
    forms = rotations.closed_form_effective(model, EffectiveScenario("two-mode-four"))
    return _spectra(model, forms)


def xi_far_level_task(atoms: int, n_max: int, v: int) -> dict:
    """Three-level cascade with a far-off 1-2 line: S11 = 0 sector dynamics."""
    d12, d23 = 1.0 + 0.1 * v, 0.02 * (v % 3)
    g12 = 0.2 * d12 / (atoms * math.sqrt(n_max + 1))
    g23 = 0.010 + 0.001 * v
    spec = ModelSpec(kind="xi3", atoms=atoms, n_max=n_max, omega_field=_WF,
                     energies=(0.0, _WF + d12, 2 * _WF + d12 + d23), couplings=(g12, g23))
    model = models.build(spec)
    forms = rotations.closed_form_effective(model, EffectiveScenario("xi-far-level"))
    n0 = n_max // 2
    psi0 = basis_state(model.space, (n0,), level=2)
    period = 2 * math.pi / (g23 * math.sqrt(atoms * n0))
    return _sector_dynamics(model, forms, psi0, 2 * period)


_MULTIPHOTON = {
    # template: (runner, full-size args, tiny args)
    "cascade-first-stage": (cascade_first_stage_task, {"atoms": 3, "n_max": 16},
                            {"atoms": 1, "n_max": 6}),
    "four-level-three-photon": (four_level_three_photon_task, {"atoms": 3, "n_max": 16},
                                {"atoms": 1, "n_max": 6}),
    "two-mode-four": (two_mode_four_task, {"n_max": (8, 8)}, {"n_max": (3, 3)}),
    "xi-far-level": (xi_far_level_task, {"atoms": 6, "n_max": 10}, {"atoms": 1, "n_max": 6}),
}


def _multiphoton_tasks(pick, size: str) -> list[Task]:
    tasks = []
    for name, (runner, full, tiny) in _MULTIPHOTON.items():
        v = pick()
        args = dict(full if size == "full" else tiny, v=v)
        tasks.append(Task(f"multiphoton/{name}/{size}/v{v}", runner, args))
    return tasks


# ---------------------------------------------------------------------------
# config-suite
# ---------------------------------------------------------------------------

def _config_templates(v: int, size: str) -> dict[str, str]:
    """Seeded small configs; together with configs/*.cfg they cover every
    analysis and every model kind."""
    big = size == "full"
    a2 = 2 if big else 1
    n8 = 8 if big else 4
    d = 1.0 + 0.05 * v
    g = 0.02 + 0.002 * v
    return {
        "algebra-xi3": f"""
[model]
kind = xi3
atoms = {a2}
n_max = {n8}
omega_field = 10.0
energies = 0.0, {10 + d}, {20 + d + 0.1}
couplings = {g}, {g}
[analysis]
kind = algebra-check
""",
        "algebra-lambda3": f"""
[model]
kind = lambda3
atoms = {a2}
n_max = {n8}
omega_field = 10.0
energies = 0.0, {0.05 * v}, {10 + d + 0.05 * v}
couplings = {g}, {g}
[analysis]
kind = algebra-check
""",
        "algebra-two-mode": f"""
[model]
kind = two-mode-four
atoms = 1
n_max = {3 if big else 2}, {3 if big else 2}
omega_field = 10.0
omega_b = 11.0
energies = 0.0, {10 + 0.5 * d}, {22.2 + 0.1 * v}, {31 + 0.5 * d}
couplings = 0.01, 0.012, 0.014
couplings_b = 0.012, 0.014, 0.01
[analysis]
kind = algebra-check
""",
        "spectrum-spin": f"""
[model]
kind = spin-in-field
omega = {d}
g = {0.01 + 0.004 * v}
spin_j = {5 if big else 1}
[analysis]
kind = spectrum
scenario = su2-generic
""",
        "spectrum-two-mode": f"""
[model]
kind = two-mode-four
atoms = 1
n_max = {4 if big else 2}, {4 if big else 2}
omega_field = 10.0
omega_b = 11.0
energies = 0.0, {10.5 + 0.025 * v}, {22.2 + 0.08 * v}, {31.5 + 0.025 * v}
couplings = {0.01 + 0.001 * v}, 0.012, 0.014
couplings_b = 0.012, {0.014 - 0.001 * v}, 0.01
[analysis]
kind = spectrum
scenario = two-mode-four
""",
        "spectrum-cascade": f"""
[model]
kind = cascade
atoms = 1
n_max = {10 if big else 4}
omega_field = 10.0
energies = 0.0, {10.9 + 0.04 * v}, {21.9 + 0.05 * v}, 30.0
couplings = {g}, 0.02, 0.02
[analysis]
kind = spectrum
scenario = cascade-first-stage
""",
        "effective-four-level": f"""
[model]
kind = cascade
atoms = 1
n_max = {n8}
omega_field = 10.0
energies = 0.0, {10 + d}, {21.7 + 0.02 * v}, 30.0
couplings = {g}, {g}, {g}
[analysis]
kind = effective
scenario = four-level-three-photon
""",
        "evolve-xi-far": f"""
[model]
kind = xi3
atoms = {a2}
n_max = {n8}
omega_field = 10.0
energies = 0.0, {10 + 2 * d}, {20 + 2 * d}
couplings = {0.01 * d}, {g}
[analysis]
kind = evolve
scenario = xi-far-level
times = 0:{200 + 10 * v}:101
initial_photons = 2
initial_level = 2
""",
        "scaling-dicke-infidelity": f"""
[model]
kind = dicke
atoms = {a2}
n_max = {10 if big else 4}
omega_field = 10.0
omega0 = {10 + d}
g = 0.02
[analysis]
kind = scaling
scenario = dicke-dispersive
metric = infidelity
epsilons = 0.04, 0.02, 0.01
times = 0:{100 + 10 * v}:51
initial_photons = 2
initial_level = 1
""",
        "scaling-spin-offdiag": f"""
[model]
kind = spin-in-field
omega = {d}
g = 0.05
spin_j = {3 if big else 1}
[analysis]
kind = scaling
scenario = su2-generic
metric = offdiag-residual
epsilons = 0.08, 0.04, 0.02
order_threshold = 1.6
""",
        "couplings-seeded": f"""
[model]
kind = cascade
atoms = 1
n_max = 4
omega_field = 10.0
energies = 0.0, 11.0, 21.7, 30.0
couplings = 0.03, 0.03, 0.03
[analysis]
kind = couplings
draws = {100 if big else 20}
seed = {100 + v}
max_order = 3
""",
    }


def config_task(config: str, report: str) -> dict:
    """One in-process ``effham run`` with a JSON report; returns exit code,
    verdicts, check values and the report's size and hash."""
    path = Path(report)
    path.unlink(missing_ok=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(["run", config, "--output", report, "--format", "json"])
    result = {"exit_code": code}
    if not path.is_file():
        return result
    data = path.read_bytes()
    doc = json.loads(data)
    result["verdicts"] = ";".join(
        f"{c['name']}={'PASS' if c['passed'] else 'FAIL'}" for c in doc["checks"])
    for c in doc["checks"]:
        if c["value"] is not None:
            result[f"check:{c['name']}"] = c["value"]
    result["report_bytes"] = len(data)
    result["report_sha256"] = hashlib.sha256(data).hexdigest()
    return result


def _config_tasks(pick, size: str, root: Path, workdir: Path) -> list[Task]:
    tasks = []
    for path in sorted((root / "configs").glob("*.cfg")):
        tasks.append(Task(f"config-suite/shipped:{path.stem}/{size}/v0", config_task,
                          {"config": str(path), "report": str(workdir / f"{path.stem}.json")}))
    names = list(_config_templates(0, size))
    for name in names:
        v = pick()
        cfg = workdir / f"{name}.cfg"
        cfg.write_text(_config_templates(v, size)[name], encoding="utf-8")
        tasks.append(Task(f"config-suite/{name}/{size}/v{v}", config_task,
                          {"config": str(cfg), "report": str(workdir / f"{name}.json")}))
    return tasks


# ---------------------------------------------------------------------------
# generation and checking
# ---------------------------------------------------------------------------

def _tasks(workload: str, pick, size: str, root: Path, workdir: Path) -> list[Task]:
    if workload == "dicke-ladder":
        return _dicke_tasks(pick, size)
    if workload == "multiphoton":
        return _multiphoton_tasks(pick, size)
    if workload == "config-suite":
        return _config_tasks(pick, size, root, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def generate(workload: str, seed: int, size: str, root: Path, workdir: Path) -> list[Task]:
    """The fixed task list of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    return _tasks(workload, lambda: rng.randrange(VARIANTS), size, root, workdir)


def all_variants(workload: str, size: str, root: Path, workdir: Path) -> list[Task]:
    """Every task the generator can produce for one workload and size."""
    seen: dict[str, Task] = {}
    for v in range(VARIANTS):
        vdir = workdir / f"v{v}"
        vdir.mkdir(parents=True, exist_ok=True)
        for task in _tasks(workload, lambda: v, size, root, vdir):
            seen.setdefault(task.key, task)
    return list(seen.values())


def check(result: dict, reference: dict | None) -> list[str]:
    """Mismatches between a task result and its reference (empty when correct).

    The report's hash and size are not compared: roundoff moves the digits
    a report prints, so byte identity is reported on its own as
    ``cli.reports_identical``.
    """
    if reference is None:
        return ["no reference recorded"]
    problems = []
    for name, ref in reference.items():
        if name in NOT_GATED:
            continue
        if name not in result:
            problems.append(f"{name}: missing")
            continue
        got = result[name]
        if isinstance(ref, float) or isinstance(got, float):
            if math.isnan(ref) and math.isnan(got):
                continue
            if not abs(got - ref) <= REL_TOL * abs(ref) + ABS_TOL:
                problems.append(f"{name}: {got!r} != {ref!r}")
        elif got != ref:
            problems.append(f"{name}: {got!r} != {ref!r}")
    for name in result:
        if name not in reference:
            problems.append(f"{name}: not in reference")
    return problems
