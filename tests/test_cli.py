import json
import sys

import jsonschema
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from effham import cli, models
from tests.conftest import REPO_ROOT

CONFIGS = REPO_ROOT / "configs"
FIXTURES = REPO_ROOT / "tests" / "data"


def _run(args):
    return cli.main([str(a) for a in args])


class TestRun:
    def test_happy_path_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = _run(["run", CONFIGS / "dicke_spectrum.cfg", "--output", out])
        assert code == 0
        text = out.read_text()
        lines = text.splitlines()
        assert "block_id,index,exact_ev,eff_ev,abs_err" in lines
        assert any(line.startswith("#") for line in lines)
        assert "[PASS]" in capsys.readouterr().out

    def test_zero_detuning_guard_is_config_error(self, tmp_path, capsys):
        code = _run(["run", FIXTURES / "dispersive_zero_detuning.cfg",
                     "--output", tmp_path / "r.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error" in err

    def test_printed_form_fails_scaling_threshold(self, tmp_path, capsys):
        # the printed dispersive bracket is wrong at second order, so the
        # fitted convergence order lands near 2 and the check fails
        code = _run(["run", FIXTURES / "dicke_printed_scaling.cfg",
                     "--output", tmp_path / "r.csv"])
        assert code == 1
        assert "[FAIL] scaling-order" in capsys.readouterr().out

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        assert _run(["run", tmp_path / "nope.cfg"]) == 2

    def test_sector_scenario_rejected_for_spectrum(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("""
[model]
kind = xi3
n_max = 4
omega_field = 10.0
energies = 0.0, 11.0, 20.0
couplings = 0.04, 0.04

[analysis]
kind = spectrum
scenario = xi-two-photon

[output]
path = r.csv
""")
        assert _run(["run", cfg, "--output", tmp_path / "r.csv"]) == 2

    @pytest.mark.parametrize("name", ["lambda_effective.cfg", "dicke_spectrum.cfg",
                                      "couplings.cfg"])
    def test_json_report_matches_schema(self, tmp_path, name):
        out = tmp_path / "report.json"
        code = _run(["run", CONFIGS / name, "--output", out, "--format", "json"])
        assert code == 0
        doc = json.loads(out.read_text())
        schema = json.loads((REPO_ROOT / "docs" / "report_schema.json").read_text())
        jsonschema.validate(doc, schema)
        assert doc["checks"] and all(c["passed"] for c in doc["checks"])

    def test_epsilon_override_changes_grid(self, tmp_path):
        out = tmp_path / "scaling.csv"
        code = _run(["run", CONFIGS / "dicke_scaling.cfg", "--output", out,
                     "--epsilon", "0.08,0.04,0.02"])
        assert code == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("epsilon")]
        eps_seen = {row.split(",")[0] for row in rows}
        assert len(eps_seen) == 3
        assert any(e.startswith("8.0") for e in eps_seen)

    def test_seed_override_changes_draws(self, tmp_path):
        out1, out2, out3 = (tmp_path / f"r{i}.csv" for i in range(3))
        _run(["run", CONFIGS / "couplings.cfg", "--output", out1, "--seed", "1"])
        _run(["run", CONFIGS / "couplings.cfg", "--output", out2, "--seed", "2"])
        _run(["run", CONFIGS / "couplings.cfg", "--output", out3, "--seed", "1"])
        assert out1.read_bytes() != out2.read_bytes()
        assert out1.read_bytes() == out3.read_bytes()

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        code = _run(["run", CONFIGS / "dicke_scaling.cfg"])
        assert code == 0
        assert (tmp_path / "out" / "dicke_scaling.csv").exists()

    def test_evolve_run_records_infidelity(self, tmp_path):
        out = tmp_path / "evolve.csv"
        code = _run(["run", CONFIGS / "xi_two_photon_evolve.cfg", "--output", out])
        assert code == 0
        header = [l for l in out.read_text().splitlines() if l.startswith("time,")][0]
        assert header.split(",")[0] == "time"
        assert "infidelity" in header

    def test_evolve_from_occupations_on_listed_times(self, tmp_path):
        # initial_occupations names the same state as initial_level, and an
        # explicit times list gives one row per listed time
        text = ("[model]\nkind = dicke\natoms = 2\nn_max = 4\nomega_field = 10.0\n"
                "omega0 = 11.0\ng = 0.04\n[analysis]\nkind = evolve\ntimes = 0, 0.5, 2.5\n"
                "initial_photons = 1\n")
        reports = {}
        for name, state in (("level", "initial_level = 1"), ("occupations", "initial_occupations = 2, 0"),
                            ("mixed", "initial_occupations = 1, 1")):
            cfg, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.csv"
            cfg.write_text(text + state + "\n")
            assert _run(["run", cfg, "--output", out]) == 0
            reports[name] = out.read_bytes()
        assert reports["occupations"] == reports["level"] != reports["mixed"]
        rows = [l for l in reports["mixed"].decode().splitlines() if l[:1].isdigit()]
        assert [float(r.split(",")[0]) for r in rows] == [0.0, 0.5, 2.5]

    def test_initial_occupations_off_the_basis_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[model]\nkind = dicke\natoms = 2\nn_max = 4\nomega_field = 10.0\n"
                       "omega0 = 11.0\ng = 0.04\n[analysis]\nkind = evolve\n"
                       "initial_occupations = 3, 0\n")
        assert _run(["run", cfg, "--output", tmp_path / "r.csv"]) == 2
        assert "no basis state with label ((0,), (3, 0))" in capsys.readouterr().err

    def test_algebra_check_run(self, tmp_path):
        cfg = tmp_path / "alg.cfg"
        cfg.write_text("""
[model]
kind = xi3
n_max = 4
omega_field = 10.0
energies = 0.0, 11.0, 20.0
couplings = 0.04, 0.04

[analysis]
kind = algebra-check

[output]
path = alg.csv
""")
        out = tmp_path / "alg.csv"
        assert _run(["run", cfg, "--output", out]) == 0
        assert "relation,residual,tolerance" in out.read_text()


    def test_algebra_check_on_a_62_level_chain(self, tmp_path, capsys):
        # the basis lookup keys 62 occupation columns exactly
        levels = 62
        cfg = tmp_path / "chain.cfg"
        cfg.write_text("[model]\nkind = cascade\natoms = 1\nn_max = 3\nomega_field = 10.0\n"
                       "energies = " + ", ".join(str(11.0 * k) for k in range(levels)) + "\n"
                       "couplings = " + ", ".join(["0.01"] * (levels - 1)) + "\n"
                       "[analysis]\nkind = algebra-check\n")
        out = tmp_path / "alg.csv"
        assert _run(["validate-config", cfg]) == 0
        assert _run(["run", cfg, "--output", out]) == 0
        assert "relation,residual,tolerance" in out.read_text()


class TestOtherCommands:
    def test_list_scenarios(self, capsys):
        assert _run(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "dicke-dispersive" in out
        assert "four-level-three-photon" in out
        assert "8 scenarios" in out

    @pytest.mark.parametrize("name", [p.name for p in sorted(CONFIGS.glob("*.cfg"))])
    def test_validate_config_ok(self, capsys, name):
        assert _run(["validate-config", CONFIGS / name]) == 0

    def test_validate_config_bad(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[model]\nkind = nonsense\n\n[analysis]\nkind = spectrum\n")
        assert _run(["validate-config", cfg]) == 2

    def test_validate_config_missing_section(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[model]\nkind = dicke\n")
        assert _run(["validate-config", cfg]) == 2


#: config files configparser cannot parse, by what is wrong with them
UNPARSABLE = {
    "no section header": "kind = dicke\n[analysis]\nkind = spectrum\n",
    "duplicate key": "[model]\nkind = dicke\nkind = xi3\n[analysis]\nkind = spectrum\n",
    "bad interpolation": "[model]\nkind = dicke\n[analysis]\nkind = spec%trum\n",
}


@pytest.mark.parametrize("command", ["run", "validate-config"])
@pytest.mark.parametrize("defect", list(UNPARSABLE))
def test_unparsable_config_is_usage_error(tmp_path, capsys, command, defect):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(UNPARSABLE[defect])
    assert _run([command, cfg]) == 2
    assert "cannot parse config file" in capsys.readouterr().err


class TestDeterminism:
    @pytest.mark.parametrize("name", [p.name for p in sorted(CONFIGS.glob("*.cfg"))])
    def test_repeated_runs_are_byte_identical(self, tmp_path, name):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert _run(["run", CONFIGS / name, "--output", out1]) == 0
        assert _run(["run", CONFIGS / name, "--output", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()


_TWO_MODE = ("[model]\nkind = two-mode-four\nomega_field = 10\nomega_b = 11\n"
             "energies = 0, 10.5, 22.2, 31.5\ncouplings = 0.01, 0.012, 0.014\n")

_XI_TWO_PHOTON = ("[model]\nkind = xi3\nenergies = 0, 11, 20\nomega_field = 10\n"
                  "couplings = 0.04, 0.04\natoms = 1\nn_max = 4\n")

_SCALING = "[model]\nkind = dicke\n[analysis]\nkind = scaling\nscenario = dicke-dispersive\n"

_DICKE_EVOLVE = "[model]\nkind = dicke\natoms = 2\nn_max = 4\n[analysis]\nkind = evolve\n"

_SPIN_EVOLVE = ("[model]\nkind = spin-in-field\nspin_j = 1\nomega = 1\ng = 0.1\n"
                "[analysis]\nkind = evolve\ntimes = 0:1:3\n")

#: configs whose values do not parse or do not make a model, by what is
#: wrong, with the words of the error that name the rule
BAD_VALUES = {
    "model number": ("[model]\nkind = dicke\natoms = three\n[analysis]\nkind = algebra-check\n",
                     "invalid literal"),
    "model list": ("[model]\nkind = dicke\nn_max = 4, x\n[analysis]\nkind = algebra-check\n",
                   "invalid literal"),
    "analysis number": ("[model]\nkind = dicke\n[analysis]\nkind = algebra-check\nseed = x\n",
                        "invalid literal"),
    "time grid": ("[model]\nkind = dicke\n[analysis]\nkind = evolve\ntimes = 0:b:5\n",
                  "could not convert"),
    "coupling count": ("[model]\nkind = cascade\nenergies = 0, 11, 21.7, 30\nomega_field = 10\n"
                       "couplings = 0.03\n[analysis]\nkind = algebra-check\n",
                       "needs one coupling per transition (3), got 1"),
    "xi3 levels": ("[model]\nkind = xi3\nenergies = 0, 11\nomega_field = 10\ncouplings = 0.02\n"
                   "[analysis]\nkind = algebra-check\n", "needs 3 level energies, got 2"),
    "lambda3 couplings": ("[model]\nkind = lambda3\nenergies = 0, 0.1, 11\nomega_field = 10\n"
                          "couplings = 0.02\n[analysis]\nkind = algebra-check\n",
                          "needs one coupling per transition (2), got 1"),
    "two-mode levels": ("[model]\nkind = two-mode-four\nomega_field = 10\nomega_b = 11\n"
                        "energies = 0, 10.5, 22.2\ncouplings = 0.01, 0.012\n"
                        "couplings_b = 0.012, 0.014\nn_max = 3, 3\n[analysis]\nkind = algebra-check\n",
                        "needs 4 level energies, got 3"),
    "two-mode couplings": (_TWO_MODE + "couplings_b = 0.012, 0.014\nn_max = 3, 3\n"
                           "[analysis]\nkind = algebra-check\n",
                           "needs one mode-b coupling per transition (3), got 2"),
    "two-mode truncations": (_TWO_MODE + "couplings_b = 0.012, 0.014, 0.01\nn_max = 3\n"
                             "[analysis]\nkind = algebra-check\n",
                             "needs one truncation per mode (2), got 1"),
    "two truncations for one mode": ("[model]\nkind = dicke\nn_max = 4, 9\n[analysis]\n"
                                     "kind = algebra-check\n",
                                     "a dicke model needs one truncation per mode (1), got 2"),
    "three truncations for one mode": (_XI_TWO_PHOTON.replace("n_max = 4", "n_max = 4, 9, 7")
                                       + "[analysis]\nkind = algebra-check\n",
                                       "a xi3 model needs one truncation per mode (1), got 3"),
    "g nan": ("[model]\nkind = dicke\ng = nan\n[analysis]\nkind = algebra-check\n",
              "g must be finite, got nan"),
    "no draws": ("[model]\nkind = dicke\n[analysis]\nkind = couplings\ndraws = 0\n",
                 "draws must be at least 1, got 0"),
    "draws not integer": ("[model]\nkind = dicke\n[analysis]\nkind = couplings\ndraws = 2.5\n",
                          "invalid literal for int()"),
    "max_order not integer": ("[model]\nkind = dicke\n[analysis]\nkind = couplings\n"
                              "max_order = three\n", "invalid literal for int()"),
    "max_order 1": ("[model]\nkind = dicke\n[analysis]\nkind = couplings\nmax_order = 1\n",
                    "max_order must be at least 2, got 1"),
    "max_order 0": ("[model]\nkind = dicke\n[analysis]\nkind = couplings\nmax_order = 0\n",
                    "max_order must be at least 2, got 0"),
    "one epsilon": (_SCALING + "epsilons = 0.02\n", "needs at least three values, got 1"),
    "two epsilons": (_SCALING + "epsilons = 0.04, 0.02\n", "needs at least three values, got 2"),
    "negative epsilons": (_SCALING + "epsilons = -0.04, -0.02, -0.01\n",
                          "must be positive and finite, got -0.04"),
    "zero epsilon": (_SCALING + "epsilons = 0.04, 0.02, 0\n", "must be positive and finite, got 0.0"),
    "nan epsilon": (_SCALING + "epsilons = 0.04, nan, 0.01\n", "must be positive and finite, got nan"),
    "inf epsilon": (_SCALING + "epsilons = inf, 0.02, 0.01\n", "must be positive and finite, got inf"),
    "equal epsilons": (_SCALING + "epsilons = 0.02, 0.02, 0.02\n",
                       "needs at least three distinct values, got 1"),
    "initial_level 0": ("[model]\nkind = dicke\natoms = 2\nn_max = 4\n[analysis]\nkind = evolve\n"
                        "times = 0:1:3\ninitial_level = 0\n", "initial_level must be at least 1, got 0"),
    "initial_level 3": (_DICKE_EVOLVE + "initial_level = 3\n", "level 3 out of range 1..2"),
    "two photon numbers for one mode": (_DICKE_EVOLVE + "initial_photons = 1, 1\n",
                                        "initial_photons must give one entry per mode (1), got 2"),
    "photon number for a spin": (_SPIN_EVOLVE + "initial_photons = 0\n",
                                 "initial_photons must give one entry per mode (0), got 1"),
    "occupations of one atom": (_DICKE_EVOLVE + "initial_occupations = 1, 0\n",
                                "no basis state with label ((0,), (1, 0))"),
    "photons above n_max": (_DICKE_EVOLVE + "initial_photons = 9\n",
                            "no basis state with label ((9,), (2, 0))"),
    "infidelity from level 3": (_SCALING + "metric = infidelity\ninitial_level = 3\n",
                                "level 3 out of range 1..2"),
    "space over the cap": ("[model]\nkind = dicke\natoms = 100\nn_max = 1000\n[analysis]\n"
                           "kind = spectrum\nscenario = dicke-dispersive\n",
                           "space dimension 101101 exceeds cap 20000"),
    "time grid of two fields": (_DICKE_EVOLVE + "times = 0:1\n", "must be start:stop:count"),
    "time grid of one point": (_DICKE_EVOLVE + "times = 0:1:1\n", "needs at least two points"),
    "empty time list": (_DICKE_EVOLVE + "times =\n", "must hold finite times, one at least"),
    "nan time": (_DICKE_EVOLVE + "times = nan, 1\n", "must hold finite times"),
    "inf time": (_DICKE_EVOLVE + "times = inf\n", "must hold finite times"),
    "time grid to nan": (_DICKE_EVOLVE + "times = 0:nan:5\n", "must hold finite times"),
    "time past the float range": (_DICKE_EVOLVE + "times = 0, 1e400\n", "must hold finite times"),
    "no model kind": ("[model]\natoms = 2\n[analysis]\nkind = algebra-check\n", "missing model.kind"),
    "unknown analysis": ("[model]\nkind = dicke\n[analysis]\nkind = fit\n",
                         "analysis.kind must be one of"),
    "unknown scenario": ("[model]\nkind = dicke\n[analysis]\nkind = effective\nscenario = nope\n",
                         "unknown scenario 'nope'"),
    "spectrum without a scenario": ("[model]\nkind = dicke\n[analysis]\nkind = spectrum\n",
                                    "analysis 'spectrum' needs a scenario"),
    "unknown form": (_SCALING + "form = exact\n", "analysis.form must be corrected or printed"),
    "unknown metric": (_SCALING + "metric = fidelity\n", "analysis.metric must be one of"),
    "xml report": ("[model]\nkind = dicke\n[analysis]\nkind = algebra-check\n[output]\nformat = xml\n",
                   "output format must be csv or json"),
    "scenario of another kind": ("[model]\nkind = dicke\nomega_field = 10\nomega0 = 11\ng = 0.04\n"
                                 "[analysis]\nkind = effective\nscenario = xi-two-photon\n",
                                 "scenario 'xi-two-photon' does not apply to model kind 'dicke'"),
    "spectrum on a sector": (_XI_TWO_PHOTON + "[analysis]\nkind = spectrum\nscenario = xi-two-photon\n",
                             "scenario 'xi-two-photon' is restricted to an occupation sector"),
}


@pytest.mark.parametrize("defect", list(BAD_VALUES))
def test_bad_value_is_config_error(tmp_path, capsys, defect):
    text, rule = BAD_VALUES[defect]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    for command in (["run", cfg, "--output", tmp_path / "r.csv"], ["validate-config", cfg]):
        assert _run(command) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and rule in err


def test_couplings_check_fails_when_no_draw_is_compared(tmp_path, capsys):
    # seed 10 skips its one draw (a detuning step under 0.2), so the
    # recurrence is compared with nothing and the check must not pass
    cfg = tmp_path / "one.cfg"
    cfg.write_text((CONFIGS / "couplings.cfg").read_text()
                   .replace("draws = 200", "draws = 1").replace("seed = 7", "seed = 10"))
    out = tmp_path / "r.csv"
    assert _run(["run", cfg, "--output", out]) == 1
    assert "[FAIL] recurrence-vs-closed-forms" in capsys.readouterr().out
    assert "# draws_used = 0" in out.read_text().splitlines()


@pytest.mark.parametrize("energies, couplings", [("0, 10, 20", "0.04, 0.04"),
                                                 ("0, 11, 20", "0, 0")])
def test_scaling_with_nothing_to_scale_is_config_error(tmp_path, capsys, energies, couplings):
    # both one-photon steps on resonance, or both couplings zero: no
    # coupling has an amplitude the scaling study could scale to its epsilons
    cfg = tmp_path / "resonant.cfg"
    cfg.write_text(f"[model]\nkind = xi3\nenergies = {energies}\nomega_field = 10\n"
                   f"couplings = {couplings}\natoms = 1\nn_max = 4\n[analysis]\nkind = scaling\n"
                   "scenario = xi-two-photon\nmetric = offdiag-residual\n")
    assert _run(["run", cfg, "--output", tmp_path / "r.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nothing to scale" in err


def test_failed_model_validation_is_internal_error(tmp_path, capsys, monkeypatch):
    # a built model that fails its own checks is a defect of the library,
    # not of the config
    def broken(model):
        raise ValueError("constructed Hamiltonian is not Hermitian")

    monkeypatch.setattr(models, "_validate", broken)
    assert _run(["run", CONFIGS / "dicke_spectrum.cfg", "--output", tmp_path / "r.csv"]) == 3
    assert capsys.readouterr().err.startswith("internal error: ValueError")


def test_unwritable_report_is_usage_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert _run(["run", CONFIGS / "dicke_spectrum.cfg", "--output", blocker / "r.csv"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("raised", [ValueError("bug"), KeyError("bug"), ZeroDivisionError()])
def test_internal_error_exits_3(tmp_path, capsys, monkeypatch, raised):
    def broken(cfg):
        raise raised

    monkeypatch.setitem(cli._RUNNERS, "spectrum", broken)
    assert _run(["run", CONFIGS / "dicke_spectrum.cfg", "--output", tmp_path / "r.csv"]) == 3
    assert capsys.readouterr().err.startswith(f"internal error: {type(raised).__name__}")
    assert not (tmp_path / "r.csv").exists()


def test_epsilon_override_below_three_values_is_config_error(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert _run(["run", CONFIGS / "dicke_scaling.cfg", "--output", out, "--epsilon", "0.04,0.02"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "needs at least three values, got 2" in err
    assert not out.exists()


def test_initial_state_is_checked_where_it_is_evolved_only(tmp_path, capsys):
    # spectrum and the eigenvalue-error scaling metric never read the
    # initial state, so a level off the basis does not refuse them
    for name in ("dicke_spectrum.cfg", "dicke_scaling.cfg"):
        cfg = tmp_path / name
        cfg.write_text((CONFIGS / name).read_text().replace("[analysis]", "[analysis]\ninitial_level = 9"))
        assert _run(["validate-config", cfg]) == 0
    assert "config ok" in capsys.readouterr().out


@pytest.mark.parametrize("text", [_SPIN_EVOLVE, _TWO_MODE + "couplings_b = 0.012, 0.014, 0.01\n"
                                  "n_max = 3, 3\n[analysis]\nkind = evolve\ntimes = 0:1:3\n"],
                         ids=["spin", "two modes"])
def test_evolve_starts_from_no_photons_in_every_mode_by_default(tmp_path, capsys, text):
    # without initial_photons the state holds 0 photons in each field mode
    # of the kind: none for a spin, two for the two-mode chain
    cfg = tmp_path / "evolve.cfg"
    cfg.write_text(text)
    assert _run(["validate-config", cfg]) == 0
    assert _run(["run", cfg, "--output", tmp_path / "r.csv"]) == 0
    config = cli.load_config(cfg)
    assert config.initial_photons == (0,) * len(models.build(config.model).space.modes)


def test_epsilon_grid_is_checked_for_scaling_only(tmp_path, capsys):
    # the same grid is refused for scaling, and left alone by spectrum,
    # which does not read it
    scaling, spectrum = tmp_path / "scaling.cfg", tmp_path / "spectrum.cfg"
    scaling.write_text((CONFIGS / "dicke_scaling.cfg").read_text()
                       .replace("epsilons = 0.04, 0.02, 0.01", "epsilons = -1"))
    spectrum.write_text((CONFIGS / "dicke_spectrum.cfg").read_text()
                        .replace("[analysis]", "[analysis]\nepsilons = -1"))
    assert _run(["validate-config", scaling]) == 2
    assert _run(["validate-config", spectrum]) == 0


def test_couplings_at_max_order_2_compares_the_second_order(tmp_path, capsys):
    cfg = tmp_path / "second.cfg"
    cfg.write_text((CONFIGS / "couplings.cfg").read_text().replace("max_order = 3", "max_order = 2"))
    out = tmp_path / "r.csv"
    assert _run(["validate-config", cfg]) == 0
    assert _run(["run", cfg, "--output", out]) == 0
    assert "[PASS] recurrence-vs-closed-forms" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    draws_used = int(next(l for l in lines if l.startswith("# draws_used")).split("=")[1])
    rows = [l.split(",") for l in lines[lines.index("draw,constant,recurrence,closed_form,rel_err") + 1:]]
    assert {r[1] for r in rows} == {"lam12", "lam22"}
    # draws_used counts draws compared, two rows each at this order
    assert draws_used == len({r[0] for r in rows}) == len(rows) // 2 > 0


@given(st.integers(0, 2**32 - 1))
def test_couplings_signs_draw_as_generator_choice(seed):
    # the draws of _run_couplings, made once with Generator.choice and once
    # with the sign helper, interleaved with uniform as the loop makes them
    reference, fast = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        assert reference.uniform(0.01, 0.1, 3).tolist() == fast.uniform(0.01, 0.1, 3).tolist()
        for _ in range(2):
            assert reference.uniform(0.5, 2.0) == fast.uniform(0.5, 2.0)
            assert reference.choice([-1.0, 1.0]) == cli._sign(fast)


def test_scaling_builds_the_unscaled_model_once(tmp_path, monkeypatch):
    built = []
    build = models.build

    def counting(spec):
        built.append(spec)
        return build(spec)

    monkeypatch.setattr(models, "build", counting)
    cfg = tmp_path / "xi3.cfg"
    cfg.write_text("[model]\nkind = xi3\nenergies = 0, 11, 20\nomega_field = 10\n"
                   "couplings = 0.04, 0.04\natoms = 1\nn_max = 4\n[analysis]\nkind = scaling\n"
                   "scenario = xi-two-photon\nmetric = offdiag-residual\nepsilons = 0.04, 0.02, 0.01\n"
                   "order_threshold = 0.9\n")
    assert _run(["run", cfg, "--output", tmp_path / "r.csv"]) == 0
    # the unscaled model once, for the scale, then one model per epsilon
    assert len(built) == 4


def test_analysis_values_are_interpolated(tmp_path):
    cfg = tmp_path / "interp.cfg"
    cfg.write_text("[model]\nkind = dicke\n[analysis]\nkind = couplings\nbase = 5\n"
                   "draws = %(base)s\nmax_order = %(base)s\nseed = 1%(base)s\n")
    run = cli.load_config(cfg)
    assert (run.draws, run.max_order, run.seed) == (5, 5, 15)
    assert run.raw["analysis"]["draws"] == "5"


def test_parser_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    config = CONFIGS / "couplings.cfg"
    plain = tmp_path / "out" / "couplings.csv"
    seeded = tmp_path / "seeded.json"
    assert _run(["run", config, "--seed", "3", "--format", "json", "--output", seeded]) == 0
    assert _run(["list-scenarios"]) == 0
    assert _run(["validate-config", config]) == 0
    assert _run(["run", config]) == 0
    after_others = plain.read_bytes()
    assert cli._parser() is cli._parser()
    cli._parser.cache_clear()
    assert _run(["run", config]) == 0
    assert plain.read_bytes() == after_others
    # neither the json format nor the seed of the first run carried over
    assert after_others.startswith(b"# effham report\n")
    assert _run(["run", config, "--seed", "3", "--output", tmp_path / "seeded.csv"]) == 0
    assert (tmp_path / "seeded.csv").read_bytes() != after_others
    for argv in (["run"], ["run", config, "--format", "xml"], ["frobnicate"], []):
        with pytest.raises(SystemExit) as exc:
            _run(argv)
        assert exc.value.code == 2
    assert _run(["run", config]) == 0
    assert plain.read_bytes() == after_others
