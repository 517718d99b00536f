"""Config-driven command line front end.

Subcommands:

* ``effham run CONFIG [--output P] [--format csv|json] [--epsilon LIST] [--seed N]``
* ``effham list-scenarios``
* ``effham validate-config CONFIG``

A run executes one analysis (algebra-check, spectrum, evolve, couplings,
scaling or effective) for one model, prints one line per check, and writes
a machine-readable report.  Exit codes: 0 all checks passed, 1 at least one
check failed, 2 config or usage error (an :class:`~effham.errors.EffhamError`,
or a config or report file that cannot be read or written), 3 internal
error (any other exception).  Reports are deterministic: repeated runs on
the same config are byte identical (no timestamps in the output).
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dynamics, models, rotations
from .algebra import ladder_relation_report, verify_su3_cross_relations
from .errors import ConfigError, EffhamError, ResonanceError
from .hilbert import (DIMENSION_CAP, basis_dimension, basis_state, collective_operator,
                      number_operator)
from .models import ModelSpec
from .rotations import SCENARIOS, EffectiveScenario

OUTPUT_DIR_ENV = "EFFHAM_OUTPUT_DIR"

ANALYSES = ("algebra-check", "spectrum", "evolve", "couplings", "scaling", "effective")
SCALING_METRICS = ("eigenvalue-error", "infidelity", "offdiag-residual")


def _fmt(x) -> str:
    """Scientific notation with 15 significant digits (deterministic)."""
    return f"{float(x):.14e}"


def _fmt_column(values) -> list[str]:
    """:func:`_fmt` of every entry of a float array or a sequence of floats."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return [f"{x:.14e}" for x in values]


@dataclass
class Check:
    name: str
    passed: bool
    value: float | None = None
    threshold: float | None = None
    detail: str = ""


@dataclass
class RunConfig:
    """Parsed and validated run configuration."""

    model: ModelSpec
    analysis: str
    scenario: str | None
    form: str
    epsilons: tuple[float, ...]
    times: tuple[float, ...]
    initial_photons: tuple[int, ...]
    initial_level: int
    initial_occupations: tuple[int, ...] | None
    order_threshold: float
    metric: str
    max_order: int
    draws: int
    seed: int
    max_error: float | None
    output: Path
    fmt: str
    raw: dict[str, dict[str, str]] = field(default_factory=dict)

    def __post_init__(self):
        if self.draws < 1:
            raise ValueError(f"draws must be at least 1, got {self.draws}")
        if self.max_order < 2:
            raise ValueError(f"max_order must be at least 2, got {self.max_order}")
        if self.initial_level < 1:
            raise ValueError(f"initial_level must be at least 1, got {self.initial_level}")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _parse_times(text: str) -> tuple[float, ...]:
    """Either 'start:stop:count' or an explicit comma/space separated list,
    of one finite time at least."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"time grid {text!r} must be start:stop:count")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 2:
            raise ConfigError("time grid needs at least two points")
        times = tuple(np.linspace(start, stop, count))
    else:
        times = _parse_floats(text)
    if not times or not np.isfinite(times).all():
        raise ConfigError(f"time grid {text!r} must hold finite times, one at least")
    return times


#: the optional keys of the [model] section, each with the parser of its text
_MODEL_KEYS = {"atoms": int, "n_max": _parse_ints, "energies": _parse_floats,
               "couplings": _parse_floats, "couplings_b": _parse_floats,
               **dict.fromkeys(("omega_field", "omega_b", "omega", "g", "spin_j", "omega0"), float)}


def _model_spec(section: dict[str, str]) -> ModelSpec:
    kind = section.get("kind")
    if kind is None:
        raise ConfigError("missing model.kind")
    try:
        kwargs = {key: parse(section[key]) for key, parse in _MODEL_KEYS.items() if key in section}
        return ModelSpec(kind=kind, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad model section: {exc}") from exc


def _check_epsilons(epsilons: tuple[float, ...]) -> None:
    """Refuse a scaling grid the order fit cannot use: fewer than three
    values, a value that is not positive and finite, or fewer than three
    distinct values."""
    if len(epsilons) < 3:
        raise ConfigError(f"analysis.epsilons needs at least three values, got {len(epsilons)}")
    for eps in epsilons:
        if not (math.isfinite(eps) and eps > 0):
            raise ConfigError(f"analysis.epsilons must be positive and finite, got {eps!r}")
    if len(set(epsilons)) < 3:
        raise ConfigError(f"analysis.epsilons needs at least three distinct values, "
                          f"got {len(set(epsilons))}")


def _check_basis(cfg: RunConfig) -> None:
    """Refuse a model space over :data:`~effham.hilbert.DIMENSION_CAP` and,
    where the analysis evolves an initial state, one that is not a basis
    label: photons in 0..n_max per mode, and a level in 1..N or N
    non-negative occupations that sum to the atom count."""
    modes, ensemble = models.model_basis(cfg.model)
    dim = basis_dimension(modes, ensemble)
    if dim > DIMENSION_CAP:
        raise ConfigError(f"space dimension {dim} exceeds cap {DIMENSION_CAP}")
    if cfg.analysis != "evolve" and (cfg.analysis, cfg.metric) != ("scaling", "infidelity"):
        return
    photons, occupations, levels = cfg.initial_photons, cfg.initial_occupations, ensemble.levels
    if len(photons) != len(modes):
        raise ConfigError(f"initial_photons must give one entry per mode ({len(modes)}), "
                          f"got {len(photons)}")
    if occupations is None:
        level = cfg.initial_level
        if level > levels:
            raise ConfigError(f"bad initial state: level {level} out of range 1..{levels}")
        occupations = tuple(ensemble.atoms * (k == level) for k in range(1, levels + 1))
    fits = all(0 <= n <= mode.n_max for n, mode in zip(photons, modes))
    if not (fits and len(occupations) == levels and min(occupations) >= 0
            and sum(occupations) == ensemble.atoms):
        raise ConfigError(f"bad initial state: no basis state with label {(photons, occupations)}")


def load_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """Read and validate a sectioned key-value config file; every defect,
    an unreadable file and a value that does not parse included, raises
    :class:`~effham.errors.ConfigError`."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        # every value is read and interpolated here, once, so a bad
        # interpolation raises here too; the rest reads only ``raw``
        raw = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "model" not in raw or "analysis" not in raw:
        raise ConfigError("config needs [model] and [analysis] sections")
    model = _model_spec(raw["model"])
    ana = raw["analysis"]
    analysis = ana.get("kind", "")
    if analysis not in ANALYSES:
        raise ConfigError(f"analysis.kind must be one of {ANALYSES}, got {analysis!r}")
    scenario = ana.get("scenario", None)
    if scenario is not None and scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    if analysis in ("spectrum", "scaling", "effective") and scenario is None:
        raise ConfigError(f"analysis {analysis!r} needs a scenario")
    if scenario is not None and analysis not in ("algebra-check", "couplings"):
        # the analyses that build the scenario's forms
        info = SCENARIOS[scenario]
        if model.kind not in info.model_kinds:
            raise ConfigError(f"scenario {scenario!r} does not apply to model kind {model.kind!r}")
        if analysis == "spectrum" and info.empty_levels:
            raise ConfigError(
                f"scenario {scenario!r} is restricted to an occupation sector; "
                "spectrum comparison is only defined for full-space scenarios")
    form = ana.get("form", "corrected")
    if form not in ("corrected", "printed"):
        raise ConfigError("analysis.form must be corrected or printed")
    metric = ana.get("metric", "eigenvalue-error")
    if metric not in SCALING_METRICS:
        raise ConfigError(f"analysis.metric must be one of {SCALING_METRICS}")

    out_sec = raw.get("output", {})
    overrides = overrides or {}
    out_path = overrides.get("output") or out_sec.get("path", "report.csv")
    fmt = overrides.get("format") or out_sec.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError("output format must be csv or json")
    base = Path(os.environ.get(OUTPUT_DIR_ENV, "."))
    output = Path(out_path)
    if not output.is_absolute():
        output = base / output

    eps_text = overrides.get("epsilon") or ana.get("epsilons", "0.04 0.02 0.01")
    seed = overrides.get("seed")
    try:
        cfg = RunConfig(
            model=model,
            analysis=analysis,
            scenario=scenario,
            form=form,
            epsilons=_parse_floats(eps_text),
            times=_parse_times(ana.get("times", "0:100:201")),
            initial_photons=_parse_ints(ana["initial_photons"]) if "initial_photons" in ana
            else (0,) * models.field_modes(model.kind),
            initial_level=int(ana.get("initial_level", 1)),
            initial_occupations=_parse_ints(ana["initial_occupations"])
            if "initial_occupations" in ana else None,
            order_threshold=float(ana.get("order_threshold", 2.6)),
            metric=metric,
            max_order=int(ana.get("max_order", 3)),
            draws=int(ana.get("draws", 100)),
            seed=int(ana.get("seed", 0) if seed is None else seed),
            max_error=float(ana["max_error"]) if "max_error" in ana else None,
            output=output,
            fmt=fmt,
            raw=raw,
        )
    except ValueError as exc:
        raise ConfigError(f"bad analysis section: {exc}") from exc
    if analysis == "scaling":
        _check_epsilons(cfg.epsilons)
    if analysis != "couplings":  # the analyses that build a model
        _check_basis(cfg)
    return cfg


# ---------------------------------------------------------------------------
# analyses
# ---------------------------------------------------------------------------

def _initial_state(cfg: RunConfig, model: models.ModelInstance) -> np.ndarray:
    """The initial basis state, a label :func:`load_config` has checked."""
    if cfg.initial_occupations is not None:
        return basis_state(model.space, cfg.initial_photons, occupations=cfg.initial_occupations)
    return basis_state(model.space, cfg.initial_photons, level=cfg.initial_level)


def _run_algebra_check(cfg: RunConfig):
    model = models.build(cfg.model)
    checks, rows = [], []
    for name, alg in model.algebras.items():
        rep = ladder_relation_report(alg)
        for rel, val in rep.residuals.items():
            rows.append((f"{name}:{rel}", val, rep.tol))
            checks.append(Check(f"algebra {name}:{rel}", val <= rep.tol, val, rep.tol))
    if cfg.model.kind in ("xi3", "lambda3"):
        space = model.space
        a = model.operators["a"]
        if cfg.model.kind == "xi3":
            y_plus = (a @ a) @ model.operators["S13"]
            mixed = model.operators["S12"] @ model.operators["S32"]
            rep = verify_su3_cross_relations(model.algebras["12"], model.algebras["23"],
                                             y_plus, "xi", mixed_expected=mixed)
        else:
            y_plus = model.operators["S12"] @ (model.operators["S33"] - model.operators["n"])
            rep = verify_su3_cross_relations(model.algebras["13"], model.algebras["23"],
                                             y_plus, "lambda")
        for rel, val in rep.residuals.items():
            rows.append((f"cross:{rel}", val, rep.tol))
            checks.append(Check(f"cross {rel}", val <= rep.tol, val, rep.tol))
        for rel, val in (rep.extras or {}).items():
            rows.append((f"cross:{rel} (informational)", val, math.nan))
    header = ("relation", "residual", "tolerance")
    data = [(r[0], _fmt(r[1]), _fmt(r[2]) if not math.isnan(r[2]) else "") for r in rows]
    return checks, header, data, {}


def _run_spectrum(cfg: RunConfig):
    model = models.build(cfg.model)
    forms = rotations.closed_form_effective(model, EffectiveScenario(cfg.scenario, form=cfg.form))
    h_eff = forms.selected
    masks = models.block_masks(model, skip_truncated=True)
    report = dynamics.compare_spectra(model.h_int, h_eff, masks)
    rows = []
    for b, blk in enumerate(report.blocks):
        err = [abs(x - y) for x, y in zip(blk.exact_ev, blk.eff_ev)]
        rows.extend(zip([b] * len(err), range(len(err)), _fmt_column(blk.exact_ev),
                        _fmt_column(blk.eff_ev), _fmt_column(err)))
    checks = [Check("block-structure", True, report.block_leakage, 1e-10)]
    for name, val in forms.guards.items():
        checks.append(Check(f"guard {name}", True, val))
    if cfg.max_error is not None:
        checks.append(Check("max-eigenvalue-error", report.max_error <= cfg.max_error,
                            report.max_error, cfg.max_error))
    else:
        checks.append(Check("max-eigenvalue-error", True, report.max_error))
    header = ("block_id", "index", "exact_ev", "eff_ev", "abs_err")
    extra = {"max_error": report.max_error, "mean_error": report.mean_error,
             "deviation_printed_vs_corrected": forms.deviation_norm}
    return checks, header, rows, extra


def _default_observables(model: models.ModelInstance):
    obs = {}
    for m in range(len(model.space.modes)):
        obs[f"n{m}" if len(model.space.modes) > 1 else "n"] = number_operator(model.space, m)
    for lvl in range(1, model.space.ensemble.levels + 1):
        obs[f"P{lvl}"] = collective_operator(model.space, lvl, lvl)
    for name, op in model.conserved.items():
        obs[f"<{name}>"] = op
    return obs


def _run_evolve(cfg: RunConfig):
    model = models.build(cfg.model)
    psi0 = _initial_state(cfg, model)
    obs = _default_observables(model)
    traj = dynamics.evolve(model.h_int, psi0, cfg.times, observables=obs)
    checks = [Check("norm-conservation", traj.norm_drift() <= 1e-10,
                    traj.norm_drift(), 1e-10)]
    for name in model.conserved:
        series = traj.observables[f"<{name}>"]
        drift = float(np.ptp(series))
        checks.append(Check(f"conserved <{name}>", drift <= 1e-9, drift, 1e-9))
    columns = ["time"] + list(obs.keys())
    infid = None
    if cfg.scenario is not None:
        forms = rotations.closed_form_effective(model, EffectiveScenario(cfg.scenario, form=cfg.form))
        eff = dynamics.effective_evolution(forms.selected, psi0, cfg.times,
                                           rotation=forms.rotation)
        infid = dynamics.infidelity_series(traj, eff)
        columns.append("infidelity")
    series = [traj.times] + [traj.observables[k] for k in obs]
    if infid is not None:
        series.append(infid)
    rows = list(zip(*map(_fmt_column, series)))
    extra = {}
    if infid is not None:
        extra["max_infidelity"] = float(np.max(infid))
    return checks, tuple(columns), rows, extra


def _sign(rng: np.random.Generator) -> float:
    """A random sign, the draw ``rng.choice([-1.0, 1.0])`` makes, without
    ``choice``'s argument handling."""
    return (-1.0, 1.0)[rng.integers(2)]


def _run_couplings(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    rows = []
    worst = 0.0
    used = 0
    for draw in range(cfg.draws):
        g = rng.uniform(0.01, 0.1, 3).tolist()
        d2 = rng.uniform(0.5, 2.0) * _sign(rng)
        d3 = rng.uniform(0.5, 2.0) * _sign(rng)
        if abs(d3 - d2) < 0.2 or abs(d3) < 0.2 or abs(d2) < 0.2:
            continue
        deltas = [0.0, d2, d3, 0.0]
        table = rotations.coupling_table(g, deltas, max_order=cfg.max_order)
        # the closed forms of the orders the table holds
        compared = [("lam12", table.lam_at(1, 2), g[0] * g[1] * (2 * d2 - d3) / (d2 * (d3 - d2))),
                    ("lam22", table.lam_at(2, 2), g[1] * g[2] * (2 * d3 - d2) / (d3 * (d2 - d3)))]
        if len(table.lam) >= 3:
            compared.append(("lam13", table.lam_at(1, 3), 3 * g[0] * g[1] * g[2] / (d2 * d3)))
        used += 1
        for key, got, closed in compared:
            rel = abs(got - closed) / max(abs(closed), 1e-300)
            worst = max(worst, rel)
            rows.append((draw, key, f"{got:.14e}", f"{closed:.14e}", f"{rel:.14e}"))
    checks = [Check("recurrence-vs-closed-forms", bool(rows) and worst <= 1e-12, worst, 1e-12,
                    detail="" if rows else "no draw compared")]
    header = ("draw", "constant", "recurrence", "closed_form", "rel_err")
    return checks, header, rows, {"draws_used": used}


def _scaled_specs(spec: ModelSpec):
    """``eps -> spec`` with couplings scaled so the expansion parameter is
    ``eps``; a kind other than spin-in-field and dicke is built once here,
    for the amplitudes its scale is set by."""
    if spec.kind == "spin-in-field":
        return lambda eps: ModelSpec(kind=spec.kind, omega=spec.omega,
                                     g=eps * abs(spec.omega), spin_j=spec.spin_j)
    if spec.kind == "dicke":
        delta = abs(spec.omega0 - spec.omega_field)
        return lambda eps: ModelSpec(kind=spec.kind, omega_field=spec.omega_field,
                                     omega0=spec.omega0, g=eps * delta,
                                     atoms=spec.atoms, n_max=spec.n_max)
    detuned = [abs(t.epsilon) for t in models.build(spec).interactions if t.detuning != 0]
    if not any(detuned):
        raise ResonanceError("every coupling is zero or on one-photon resonance: nothing to scale")
    largest = max(detuned)
    return lambda eps: models.with_scaled_couplings(spec, eps / largest)


def _run_scaling(cfg: RunConfig):
    rows = []
    scaled = _scaled_specs(cfg.model)

    def metric(eps: float) -> float:
        model = models.build(scaled(eps))
        forms = rotations.closed_form_effective(model, EffectiveScenario(cfg.scenario, form=cfg.form))
        if cfg.metric == "eigenvalue-error":
            masks = models.block_masks(model, skip_truncated=True)
            report = dynamics.compare_spectra(model.h_int, forms.selected, masks)
            for b, blk in enumerate(report.blocks):
                rows.append((_fmt(eps), _fmt(blk.max_error), b))
            return report.max_error
        if cfg.metric == "offdiag-residual":
            gen, _ = rotations.eliminating_generator(model)
            val = rotations.cancellation_residual(model.h_int, rotations.matrix_exponential(gen))
            rows.append((_fmt(eps), _fmt(val), 0))
            return val
        psi0 = _initial_state(cfg, model)
        traj = dynamics.evolve(model.h_int, psi0, cfg.times)
        eff = dynamics.effective_evolution(forms.selected, psi0, cfg.times,
                                           rotation=forms.rotation)
        val = float(np.max(dynamics.infidelity_series(traj, eff)))
        rows.append((_fmt(eps), _fmt(val), 0))
        return val

    fit = dynamics.scaling_study(metric, cfg.epsilons)
    passed = (not math.isnan(fit.order)) and fit.order >= cfg.order_threshold
    checks = [Check("scaling-order", passed, fit.order, cfg.order_threshold,
                    detail=f"residual={fit.residual:.3g} saturated={fit.saturated}")]
    header = ("epsilon", "metric", "block_id")
    extra = {"fitted_order": fit.order, "fit_residual": fit.residual,
             "saturated": fit.saturated}
    return checks, header, rows, extra


def _run_effective(cfg: RunConfig):
    model = models.build(cfg.model)
    forms = rotations.closed_form_effective(model, EffectiveScenario(cfg.scenario, form=cfg.form))
    rows = [("deviation_norm", _fmt(forms.deviation_norm)),
            ("deviation_relative", _fmt(forms.deviation_relative))]
    checks = []
    for name, val in forms.guards.items():
        rows.append((f"guard:{name}", _fmt(val)))
        checks.append(Check(f"guard {name}", True, val))
    for note in forms.notes:
        rows.append(("note", note))
    checks.append(Check("forms-built", True, forms.deviation_norm))
    header = ("quantity", "value")
    return checks, header, rows, {"notes": list(forms.notes)}


_RUNNERS = {
    "algebra-check": _run_algebra_check,
    "spectrum": _run_spectrum,
    "evolve": _run_evolve,
    "couplings": _run_couplings,
    "scaling": _run_scaling,
    "effective": _run_effective,
}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _write_csv(path: Path, header, rows, checks, extra):
    lines = ["# effham report", f"# columns: {','.join(header)}"]
    for key, val in extra.items():
        lines.append(f"# {key} = {val}")
    for chk in checks:
        status = "PASS" if chk.passed else "FAIL"
        lines.append(f"# check {chk.name}: {status}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, cfg: RunConfig, header, rows, checks, extra):
    doc = {
        "config": cfg.raw,
        "checks": [{"name": c.name, "passed": bool(c.passed),
                    "value": None if c.value is None else float(c.value),
                    "threshold": None if c.threshold is None else float(c.threshold),
                    "detail": c.detail} for c in checks],
        "data": {"columns": list(header),
                 "rows": [[str(x) for x in row] for row in rows],
                 "extra": {k: (v if isinstance(v, (list, str, bool)) else float(v))
                           for k, v in extra.items()}},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _classified(call) -> int:
    """``call()``'s exit code, or the code of the exception it raises: 2 for
    a config or usage error, 3 for any other, reported as internal."""
    try:
        return call()
    except (EffhamError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - every other exception is a defect
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def run(config_path: str, overrides: dict | None = None) -> int:
    """Execute one configured analysis; returns the process exit code."""
    return _classified(lambda: _run(config_path, overrides))


def _run(config_path: str, overrides: dict | None) -> int:
    cfg = load_config(config_path, overrides)
    checks, header, rows, extra = _RUNNERS[cfg.analysis](cfg)
    for chk in checks:
        status = "PASS" if chk.passed else "FAIL"
        parts = [f"[{status}] {chk.name}"]
        if chk.value is not None:
            parts.append(f"value={chk.value:.6g}")
        if chk.threshold is not None:
            parts.append(f"threshold={chk.threshold:.6g}")
        if chk.detail:
            parts.append(chk.detail)
        print(" ".join(parts))
    if cfg.fmt == "csv":
        _write_csv(cfg.output, header, rows, checks, extra)
    else:
        _write_json(cfg.output, cfg, header, rows, checks, extra)
    print(f"report written to {cfg.output}")
    return 0 if all(c.passed for c in checks) else 1


def list_scenarios() -> int:
    """Print the table of effective-Hamiltonian scenarios."""
    width = max(len(s) for s in SCENARIOS)
    print(f"{'scenario':{width}}  {'model':14}  guards / effective form")
    print("-" * 100)
    for info in SCENARIOS.values():
        kinds = ",".join(info.model_kinds)
        print(f"{info.identifier:{width}}  {kinds:14}  {info.guards}")
        print(f"{'':{width}}  {'':14}  {info.sketch}")
    print(f"{len(SCENARIOS)} scenarios")
    return 0


def validate_config(config_path: str) -> int:
    def check() -> int:
        load_config(config_path)
        print(f"config ok: {config_path}")
        return 0
    return _classified(check)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built at its first use and kept: parsing
    leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="effham",
        description="Build model Hamiltonians, apply small nonlinear rotations, "
                    "and verify the resulting effective forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured analysis")
    p_run.add_argument("config")
    p_run.add_argument("--output", help="override the report path")
    p_run.add_argument("--format", choices=("csv", "json"), help="override the report format")
    p_run.add_argument("--epsilon", help="override the epsilon grid (comma separated)")
    p_run.add_argument("--seed", type=int, help="override the RNG seed")

    sub.add_parser("list-scenarios", help="print the scenario table")

    p_val = sub.add_parser("validate-config", help="check a config file")
    p_val.add_argument("config")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "run":
        overrides = {"output": args.output, "format": args.format,
                     "epsilon": args.epsilon, "seed": args.seed}
        return run(args.config, {k: v for k, v in overrides.items() if v is not None})
    if args.command == "list-scenarios":
        return list_scenarios()
    return validate_config(args.config)


if __name__ == "__main__":
    raise SystemExit(main())
