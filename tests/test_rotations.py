import logging
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

import effham as eh
from effham import rotations
from effham.errors import (AnalysisError, EffhamError, GuardViolationError,
                           ResonanceError)


def _series_expm(mat, order=60):
    """Independent oracle: plain Taylor series at high order."""
    out = np.eye(mat.shape[0], dtype=complex)
    term = np.eye(mat.shape[0], dtype=complex)
    for k in range(1, order + 1):
        term = term @ mat / k
        out = out + term
    return out


class TestMatrixExponential:
    def test_zero_gives_identity(self):
        space = eh.enumerate_basis([2], eh.EnsembleSpec(2, 1))
        assert (eh.matrix_exponential(eh.zero(space)) - eh.identity(space)).norm() == 0.0

    def test_antihermitian_gives_unitary(self, rng):
        space = eh.enumerate_basis([4], eh.EnsembleSpec(2, 2))
        mat = rng.normal(size=(space.dim,) * 2) + 1j * rng.normal(size=(space.dim,) * 2)
        gen = eh.OperatorMatrix(space, mat - mat.conj().T)
        u = eh.matrix_exponential(gen)
        assert u.is_unitary(1e-12)

    def test_two_level_rotation_closed_form(self):
        # exp[eps (S+ - S-)] for a single two-level atom is the real rotation
        # [[cos eps, -sin eps], [sin eps, cos eps]] in the (ground, excited) basis
        space = eh.enumerate_basis([], eh.EnsembleSpec(2, 1))
        _, sp, sm = eh.spin_operators(space)
        eps = 0.37
        u = eh.matrix_exponential(eps * (sp - sm))
        series = _series_expm(eps * (sp - sm).matrix)
        assert np.linalg.norm(u.matrix - series) <= 1e-13
        c, s = math.cos(eps), math.sin(eps)
        expected = np.array([[c, -s], [s, c]])
        assert np.linalg.norm(u.matrix - expected) <= 1e-13

    def test_general_matrix_against_series_and_scipy(self, rng):
        space = eh.enumerate_basis([3], eh.EnsembleSpec(2, 1))
        mat = rng.normal(size=(space.dim,) * 2) + 1j * rng.normal(size=(space.dim,) * 2)
        op = eh.OperatorMatrix(space, 0.8 * mat)  # decidedly non-normal
        out = eh.matrix_exponential(op).matrix
        assert np.linalg.norm(out - _series_expm(op.matrix, order=80)) <= 1e-11
        assert np.linalg.norm(out - scipy.linalg.expm(np.asarray(op.matrix))) <= 1e-11

    def test_large_norm_uses_squaring(self, rng):
        space = eh.enumerate_basis([2], eh.EnsembleSpec(2, 1))
        mat = rng.normal(size=(space.dim,) * 2) + 1j * rng.normal(size=(space.dim,) * 2)
        op = eh.OperatorMatrix(space, 6.0 * mat)
        out = eh.matrix_exponential(op).matrix
        ref = scipy.linalg.expm(np.asarray(op.matrix))
        assert np.linalg.norm(out - ref) <= 1e-9 * max(1.0, np.linalg.norm(ref))

    def test_rejects_nonfinite(self):
        space = eh.enumerate_basis([], eh.EnsembleSpec(2, 1))
        bad = eh.OperatorMatrix(space, np.array([[np.inf, 0], [0, 0]]))
        with pytest.raises(ValueError):
            eh.matrix_exponential(bad)


class TestSmallRotation:
    def test_zero_amplitude_is_identity(self, dicke_model):
        alg = dicke_model.interaction("jc").algebra
        u = eh.small_rotation(eh.RotationSpec(alg, 0.0))
        assert (u - eh.identity(dicke_model.space)).norm() <= 1e-15

    def test_amplitude_limits(self, dicke_model):
        alg = dicke_model.interaction("jc").algebra
        with pytest.raises(GuardViolationError):
            eh.RotationSpec(alg, 1.2)
        with pytest.raises(GuardViolationError):
            eh.RotationSpec(alg, 0.5)

    def test_large_amplitude_is_silent_by_default(self, dicke_model, capsys, monkeypatch):
        # without pytest's own capturing handlers on the root logger, a
        # library with no handler of its own would reach logging.lastResort,
        # which writes to stderr
        monkeypatch.setattr(logging.getLogger(), "handlers", [])
        with pytest.raises(GuardViolationError):
            eh.RotationSpec(dicke_model.interaction("jc").algebra, 0.5)
        assert capsys.readouterr().err == ""

    def test_exact_angle_diagonalizes_two_level(self):
        # tan(2 alpha) = 2 g / omega cancels the coupling completely
        omega, g = 1.0, 0.1
        m = eh.build(eh.ModelSpec(kind="spin-in-field", omega=omega, g=g, spin_j=2.0))
        alpha = 0.5 * math.atan2(2 * g, omega)
        u = eh.small_rotation(eh.RotationSpec(m.interaction("spin").algebra, alpha))
        rotated = eh.conjugate(m.h_int, u)
        assert eh.offdiagonal_residual(rotated) <= 1e-12
        scale = omega * math.sqrt(1 + 4 * g * g / omega ** 2)
        expected = np.array([mm * scale for mm in np.arange(-2.0, 3.0)])
        assert np.allclose(np.sort(rotated.diagonal().real), expected, atol=1e-12)

    def test_first_order_cancellation_ratio(self):
        # the off-diagonal fraction surviving one small rotation scales as eps^2
        residuals = []
        for g in (0.1, 0.05, 0.025):
            m = eh.build(eh.ModelSpec(kind="dicke", omega_field=10.0, omega0=11.0,
                                      g=g, atoms=1, n_max=6))
            gen, _ = eh.eliminating_generator(m)
            u = eh.matrix_exponential(gen)
            residuals.append(eh.cancellation_residual(m.h_int, u))
        for big, small in zip(residuals, residuals[1:]):
            assert 3.4 <= big / small <= 4.6


class TestConjugate:
    def test_identity(self, dicke_model):
        u = eh.identity(dicke_model.space)
        assert (eh.conjugate(dicke_model.h_int, u) - dicke_model.h_int).norm() == 0.0

    def test_spectrum_preserved(self, rng, dicke_model):
        mat = rng.normal(size=(dicke_model.space.dim,) * 2)
        h = eh.OperatorMatrix(dicke_model.space, mat + mat.T)
        gen, _ = eh.eliminating_generator(dicke_model)
        u = eh.matrix_exponential(gen)
        before = np.linalg.eigvalsh(h.matrix)
        after = np.linalg.eigvalsh(eh.conjugate(h, u).matrix)
        assert np.allclose(before, after, atol=1e-10)

    def test_rejects_nonunitary(self, dicke_model):
        with pytest.raises(ValueError):
            eh.conjugate(dicke_model.h_int, 2.0 * eh.identity(dicke_model.space))


class TestEffectiveSu2:
    def test_pure_spin_matches_rescaled_splitting(self):
        m = eh.build(eh.ModelSpec(kind="spin-in-field", omega=1.0, g=0.1, spin_j=1.5))
        alg = m.interaction("spin").algebra
        h_eff = eh.effective_su2(alg, 1.0, 0.1)
        s3 = m.operators["S3"]
        assert (h_eff - (1.0 + 2 * 0.01) * s3).norm() <= 1e-12

    def test_dicke_block_values(self, dicke_model):
        alg = dicke_model.interaction("jc").algebra
        delta, g = 1.0, dicke_model.spec.g
        h_eff = eh.effective_su2(alg, delta, g)
        for n in range(5):
            idx = dicke_model.space.index((n,), (0, 1))
            assert h_eff.matrix[idx, idx].real == pytest.approx(
                delta / 2 + g * g / delta * (n + 1), abs=1e-14)

    def test_zero_coupling(self, dicke_model):
        alg = dicke_model.interaction("jc").algebra
        h_eff = eh.effective_su2(alg, 1.0, 0.0)
        assert (h_eff - alg.x3).norm() <= 1e-14

    def test_zero_detuning_rejected(self, dicke_model):
        alg = dicke_model.interaction("jc").algebra
        with pytest.raises(GuardViolationError):
            eh.effective_su2(alg, 0.0, 0.1)

    def test_guard_rejected(self, dicke_model):
        alg = dicke_model.interaction("jc").algebra
        with pytest.raises(GuardViolationError):
            eh.effective_su2(alg, 1.0, 0.4)


class TestCouplingTable:
    def test_frozen_example(self):
        table = eh.coupling_table([1.0, 1.0, 1.0], [0.0, 10.0, -10.0, 0.0])
        assert table.lam_at(1, 2) == pytest.approx(-0.15, abs=1e-15)

    def test_closed_forms(self, rng):
        for _ in range(50):
            g = rng.uniform(0.01, 0.1, 3)
            d2 = rng.uniform(0.5, 2.0) * rng.choice([-1, 1])
            d3 = rng.uniform(0.5, 2.0) * rng.choice([-1, 1])
            if abs(d3 - d2) < 0.2:
                continue
            table = eh.coupling_table(g, [0.0, d2, d3, 0.0])
            lam12 = g[0] * g[1] * (2 * d2 - d3) / (d2 * (d3 - d2))
            lam22 = g[1] * g[2] * (2 * d3 - d2) / (d3 * (d2 - d3))
            lam13 = 3 * g[0] * g[1] * g[2] / (d2 * d3)
            assert table.lam_at(1, 2) == pytest.approx(lam12, rel=1e-12)
            assert table.lam_at(2, 2) == pytest.approx(lam22, rel=1e-12)
            assert table.lam_at(1, 3) == pytest.approx(lam13, rel=1e-12)

    def test_one_photon_resonance_rejected(self):
        with pytest.raises(ResonanceError):
            eh.coupling_table([0.1, 0.1], [0.0, 1.0, 1.0])

    def test_couplings_decrease_with_order(self, rng):
        for _ in range(20):
            g = rng.uniform(0.01, 0.05, 3)
            table = eh.coupling_table(g, [0.0, 1.0, 2.1, 0.6])
            for i in (1, 2):
                assert abs(table.lam_at(i, 2)) < abs(table.lam_at(i, 1))
            assert abs(table.lam_at(1, 3)) < min(abs(table.lam_at(1, 2)),
                                                 abs(table.lam_at(2, 2)))

    def test_four_level_constants(self):
        table = eh.four_level_constants([0.03, 0.03, 0.03], [0.0, 1.0, 1.7, 0.0])
        assert table.alpha2 is not None and len(table.alpha2) == 2
        assert table.alpha2[0] == pytest.approx(table.lam_at(1, 2) / 1.7, rel=1e-12)
        assert table.alpha2[1] == pytest.approx(table.lam_at(2, 2) / -1.0, rel=1e-12)

    def test_four_level_resonances_rejected(self):
        with pytest.raises(ResonanceError):
            eh.four_level_constants([0.03, 0.03, 0.03], [0.0, 1.0, -1.0, 0.0])


class TestOffdiagonalResidual:
    def test_diagonal_gives_zero(self, dicke_model):
        assert eh.offdiagonal_residual(dicke_model.h_diag) == 0.0

    def test_two_level_value(self):
        m = eh.build(eh.ModelSpec(kind="spin-in-field", omega=1.0, g=0.1, spin_j=1.0))
        sp, sm = m.operators["S+"], m.operators["S-"]
        coupling = 0.1 * (sp + sm)
        expected = coupling.norm() / m.h_int.norm()
        assert eh.offdiagonal_residual(m.h_int) == pytest.approx(expected, rel=1e-12)

    def test_group_labels(self, dicke_model):
        # labelling every state by its excitation-number block hides the coupling
        n = dicke_model.conserved["N"].diagonal().real
        labels = [round(float(x), 6) for x in n]
        assert eh.offdiagonal_residual(dicke_model.h_int, labels) <= 1e-14


class TestCorrectedEigenstate:
    def test_zero_generator(self, dicke_model):
        gen = eh.zero(dicke_model.space)
        out = eh.corrected_eigenstate(gen, 3, order="exact")
        expect = np.zeros(dicke_model.space.dim)
        expect[3] = 1.0
        assert np.allclose(out, expect, atol=1e-15)

    def test_first_order_series(self, dicke_model):
        gen, _ = eh.eliminating_generator(dicke_model)
        m = dicke_model.space.index((0,), (0, 1))
        out = eh.corrected_eigenstate(gen, m, order=1)
        vec = np.zeros(dicke_model.space.dim, dtype=complex)
        vec[m] = 1.0
        expect = vec - gen.matrix @ vec
        assert np.allclose(out, expect, atol=1e-15)

    def test_exact_matches_eigenvector_scaling(self):
        # infidelity of the rotated basis state against the matched exact
        # eigenvector shrinks fast with the rotation amplitude
        def infid(g):
            m = eh.build(eh.ModelSpec(kind="dicke", omega_field=10.0, omega0=11.0,
                                      g=g, atoms=1, n_max=6))
            gen, _ = eh.eliminating_generator(m)
            idx = m.space.index((1,), (0, 1))
            psi = eh.corrected_eigenstate(gen, idx, order="exact")
            w, v = np.linalg.eigh(m.h_int.matrix)
            overlaps = np.abs(v.conj().T @ psi) ** 2
            return 1.0 - float(np.max(overlaps))

        fit = eh.scaling_study(infid, [0.1, 0.05, 0.025])
        assert fit.order >= 3.0

    def test_bad_index(self, dicke_model):
        with pytest.raises(ValueError):
            eh.corrected_eigenstate(eh.zero(dicke_model.space), 10_000)

    def test_normalization_by_order(self, dicke_model):
        gen, eps = eh.eliminating_generator(dicke_model)
        m = dicke_model.space.index((2,), (0, 1))
        exact = eh.corrected_eigenstate(gen, m, order="exact")
        assert abs(np.linalg.norm(exact) - 1.0) <= 1e-12
        # truncated series is only near-normalized: deficit of order eps^2
        first = eh.corrected_eigenstate(gen, m, order=1)
        deficit = abs(np.linalg.norm(first) - 1.0)
        amp = abs(eps["jc"])
        assert 0 < deficit <= 5 * amp ** 2


class TestClosedFormEffective:
    def test_dicke_zero_coupling_exact(self):
        m = eh.build(eh.ModelSpec(kind="dicke", omega_field=10.0, omega0=11.0,
                                  g=0.0, atoms=1, n_max=4))
        forms = eh.closed_form_effective(m, eh.EffectiveScenario("dicke-dispersive"))
        assert (forms.corrected - m.h_diag).norm() <= 1e-14
        assert forms.deviation_norm <= 1e-14

    def test_dicke_guard_violation(self):
        m = eh.build(eh.ModelSpec(kind="dicke", omega_field=10.0, omega0=10.0,
                                  g=0.05, atoms=1, n_max=4))
        with pytest.raises(GuardViolationError):
            eh.closed_form_effective(m, eh.EffectiveScenario("dicke-dispersive"))

    def test_wrong_pairing_rejected(self, dicke_model):
        with pytest.raises(EffhamError):
            eh.closed_form_effective(dicke_model, eh.EffectiveScenario("lambda-dispersive"))

    def test_unknown_scenario_rejected(self):
        with pytest.raises(EffhamError):
            eh.EffectiveScenario("nonsense")

    def test_two_photon_matrix_element(self, xi_two_photon_model):
        m = xi_two_photon_model
        forms = eh.closed_form_effective(m, eh.EffectiveScenario("xi-two-photon"))
        g12, g23 = m.spec.couplings
        d12 = m.detunings["12"]
        for n in (2, 3, 4):
            r = m.space.index((n - 2,), (0, 0, 1))
            c = m.space.index((n,), (1, 0, 0))
            elem = forms.corrected.matrix[r, c].real
            assert abs(elem) == pytest.approx(
                abs(g12 * g23 / d12) * math.sqrt(n * (n - 1)), rel=1e-10)
        # printed form flags a sign deviation but the same magnitude
        r = m.space.index((0,), (0, 0, 1))
        c = m.space.index((2,), (1, 0, 0))
        assert abs(forms.printed.matrix[r, c]) == pytest.approx(
            abs(forms.corrected.matrix[r, c]), rel=1e-10)
        assert forms.deviation_norm > 0

    def test_two_photon_requires_resonance(self):
        spec = eh.ModelSpec(kind="xi3", energies=(0.0, 11.0, 20.5), omega_field=10.0,
                            couplings=(0.04, 0.04), atoms=1, n_max=4)
        with pytest.raises(ResonanceError):
            eh.closed_form_effective(eh.build(spec), eh.EffectiveScenario("xi-two-photon"))

    def test_far_level_printed_equals_corrected_in_sector(self):
        spec = eh.ModelSpec(kind="xi3", energies=(0.0, 11.0, 21.05), omega_field=10.0,
                            couplings=(0.05, 0.05), atoms=2, n_max=6)
        forms = eh.closed_form_effective(eh.build(spec), eh.EffectiveScenario("xi-far-level"))
        assert forms.deviation_norm <= 1e-12

    def test_lambda_printed_equals_corrected_for_degenerate_levels(self, lambda_model):
        forms = eh.closed_form_effective(lambda_model,
                                         eh.EffectiveScenario("lambda-dispersive"))
        assert forms.deviation_norm <= 1e-12
        assert forms.sector_mask is None

    @pytest.mark.parametrize("fixture,scenario", [
        ("dicke_model", "dicke-dispersive"),
        ("xi_two_photon_model", "xi-two-photon"),
        ("lambda_model", "lambda-dispersive"),
        ("four_level_model", "four-level-three-photon"),
        ("four_level_model", "cascade-first-stage"),
        ("xi_far_level_model", "xi-far-level"),
        ("two_mode_model", "two-mode-four"),
    ])
    def test_effective_commutes_with_conserved(self, fixture, scenario, request):
        m = request.getfixturevalue(fixture)
        forms = eh.closed_form_effective(m, eh.EffectiveScenario(scenario))
        for op in m.conserved.values():
            assert eh.commutator(forms.corrected, op).norm() <= 1e-10

    def test_selected_form_follows_flag(self, dicke_model):
        printed = eh.closed_form_effective(
            dicke_model, eh.EffectiveScenario("dicke-dispersive", form="printed"))
        assert (printed.selected - printed.printed).norm() == 0.0

    def test_three_photon_coefficient(self, four_level_model):
        m = four_level_model
        forms = eh.closed_form_effective(m, eh.EffectiveScenario("four-level-three-photon"))
        g = m.spec.couplings[0]
        d2, d3 = m.detunings["2"], m.detunings["3"]
        n = 4
        r = m.space.index((n - 3,), (0, 0, 0, 1))
        c = m.space.index((n,), (1, 0, 0, 0))
        pred = g ** 3 / (d2 * d3) * math.sqrt(n * (n - 1) * (n - 2))
        assert forms.corrected.matrix[r, c].real == pytest.approx(pred, rel=0.05)

    def test_later_stage_amplitudes_match_closed_forms(self, monkeypatch):
        # the fitted amplitudes of the two later four-level stages against
        # the hand derivation, at A = 3 where the dipole-dipole crosses are
        # nonzero: 0.5 alpha2[i] for a^2 S^{i,i+2}, and for S^{i,i+1} S^{j+1,j}
        # 0.5 (eps_i g_j + eps_j g_i) / (D_{i+1} - D_i + D_j - D_{j+1}).  The
        # two differ at relative O(eps^2), so halving the couplings quarters
        # the gap.  The hops of a stage hold disjoint entries, so each one's
        # amplitude is its coefficient in the stage's generator.
        generators = []
        exponential = rotations.matrix_exponential

        def spy(op):
            generators.append(op)
            return exponential(op)

        monkeypatch.setattr(rotations, "matrix_exponential", spy)

        def gaps(scale):
            wf = 10.0
            g = (0.015 * scale, 0.01 * scale, 0.0125 * scale)
            spec = eh.ModelSpec(kind="cascade", energies=(0.0, wf + 1.0, 2 * wf + 1.7, 3 * wf),
                                omega_field=wf, couplings=g, atoms=3, n_max=8)
            m = eh.build(spec, require_resonance=True)
            generators.clear()
            eh.closed_form_effective(m, eh.EffectiveScenario("four-level-three-photon"))
            _, two_photon, dipole = generators
            d = [m.detunings[str(j)] for j in range(1, 5)]
            table = eh.four_level_constants(g, d)
            ops = m.operators
            a2 = ops["a"] @ ops["a"]
            pairs = [(two_photon, a2 @ ops[f"S{i}{i + 2}"], 0.5 * table.alpha2[i - 1]) for i in (1, 2)]
            for i, j in ((1, 2), (1, 3), (2, 3)):
                closed = (0.5 * (table.eps[i - 1] * g[j - 1] + table.eps[j - 1] * g[i - 1])
                          / (d[i] - d[i - 1] + d[j - 1] - d[j]))
                pairs.append((dipole, ops[f"S{i}{i + 1}"] @ ops[f"S{j + 1}{j}"], closed))
            assert all(hop.norm() > 0 for _, hop, _ in pairs)
            return np.array([abs(eh.fit_coefficient(gen, hop) / closed - 1)
                             for gen, hop, closed in pairs])

        full, half = gaps(1.0), gaps(0.5)
        assert np.all(full < 1e-2)
        assert np.all((3.8 <= full / half) & (full / half <= 4.2))

    @pytest.mark.parametrize("spec, scenario", [
        (eh.ModelSpec(kind="cascade", energies=(0.0, 11.0, 21.7, 30.0), omega_field=10.0,
                      couplings=(0.03, 0.03, 0.03), atoms=2, n_max=2), "four-level-three-photon"),
        (eh.ModelSpec(kind="xi3", energies=(0.0, 11.0, 21.05), omega_field=10.0,
                      couplings=(0.01, 0.01), atoms=1, n_max=2), "xi-far-level"),
    ])
    def test_hops_only_at_the_cutoff_are_skipped(self, spec, scenario, monkeypatch):
        # at n_max = 2 every a^2 S^{i,i+2} entry moves a state with 2
        # photons, so no coefficient can be fitted away from the cutoff: the
        # two-photon stage is the zero generator, and the forms are built
        generators = []
        exponential = rotations.matrix_exponential

        def spy(op):
            generators.append(op)
            return exponential(op)

        monkeypatch.setattr(rotations, "matrix_exponential", spy)
        forms = eh.closed_form_effective(eh.build(spec), eh.EffectiveScenario(scenario))
        assert generators[1].norm() == 0.0
        assert math.isfinite(forms.deviation_norm)

    def test_three_photon_dipole_resonance_rejected(self):
        wf = 10.0
        spec = eh.ModelSpec(kind="cascade", energies=(0.0, wf + 1.0, 2 * wf - 1.0, 3 * wf),
                            omega_field=wf, couplings=(0.03, 0.03, 0.03), atoms=1, n_max=6)
        with pytest.raises(ResonanceError):
            eh.closed_form_effective(eh.build(spec),
                                     eh.EffectiveScenario("four-level-three-photon"))


class TestCascadeFirstStage:
    def test_zero_couplings_leave_diagonal(self):
        wf = 10.0
        spec = eh.ModelSpec(kind="cascade", energies=(0.0, wf + 1.0, 2 * wf + 1.7, 3 * wf),
                            omega_field=wf, couplings=(0.0, 0.0, 0.0), atoms=1, n_max=4)
        deco = eh.cascade_first_stage(eh.build(spec))
        assert deco.h_d.norm() <= 1e-14
        assert deco.h_nd.norm() <= 1e-14
        assert all(op.norm() <= 1e-14 for op in deco.multiphoton.values())
        assert (deco.transformed - deco.h0).norm() <= 1e-14

    def test_three_photon_coupling_extraction(self, four_level_model):
        deco = eh.cascade_first_stage(four_level_model)
        for chk in deco.coupling_checks:
            assert chk.relative_error <= 0.05, (chk.photons, chk.start_level)

    def test_one_photon_residual_is_higher_order(self, four_level_model):
        # the photon-enhanced amplitude eps*sqrt(n+1) is the real expansion
        # parameter; the surviving one-photon sector is second order in it
        m = four_level_model
        deco = eh.cascade_first_stage(m)
        v_norm = (m.h_int - m.h_diag).norm()
        amp = max(eh.dispersive_guard(m, t.name).ratio for t in m.interactions)
        assert deco.one_photon_residual <= 2 * amp ** 2 * v_norm

    def test_stark_part_matches_leading_pattern(self, four_level_model):
        # diagonal shift extracted from conjugation vs the closed-form pattern
        m = four_level_model
        deco = eh.cascade_first_stage(m)
        lead = eh.cascade_stark_leading(m)
        safe = eh.photon_safe_mask(m.space, 1)
        diff = (deco.h_d - lead).project(safe).norm()
        amp = max(eh.dispersive_guard(m, t.name).ratio for t in m.interactions)
        assert diff <= 2 * amp ** 2 * lead.project(safe).norm() + 1e-12

    def test_requires_cascade_model(self, dicke_model):
        with pytest.raises(EffhamError):
            eh.cascade_first_stage(dicke_model)

    @pytest.mark.parametrize("levels", [3, 5])
    def test_printed_form_on_su_n_chains(self, levels):
        # the paper's su(N) chain: away from four levels the printed
        # dipole-dipole part lists every pair of steps, with no note
        wf = 10.0
        energies = (0.0, wf + 1.0, 2 * wf + 1.7, 3 * wf + 0.4, 4 * wf + 2.3)[:levels]
        spec = eh.ModelSpec(kind="cascade", energies=energies, omega_field=wf,
                            couplings=(0.01,) * (levels - 1), atoms=2, n_max=8)
        m = eh.build(spec)
        forms = eh.closed_form_effective(m, eh.EffectiveScenario("cascade-first-stage"))
        assert forms.notes == ()
        assert forms.deviation_relative <= 5e-6
        report = eh.compare_spectra(m.h_int, forms.corrected, eh.block_masks(m, skip_truncated=True))
        assert report.max_error <= 1e-8
        # without the pairs the printed form is more than ten times further off
        eps = eh.coupling_table(spec.couplings, [m.detunings[str(j)] for j in range(1, levels + 1)]).eps
        pairs = eh.zero(m.space)
        for i in range(1, levels):
            for j in range(i + 1, levels):
                cross = eh.collective_operator(m.space, i, i + 1) @ eh.collective_operator(m.space, j + 1, j)
                pairs = pairs + 0.005 * (eps[i - 1] + eps[j - 1]) * (cross + cross.dag())
        safe = eh.photon_safe_mask(m.space, 1)
        assert (forms.printed - pairs - forms.corrected).project(safe).norm() > 10 * forms.deviation_norm


class TestTwoModeScenario:
    def _model(self):
        wa, wb = 10.0, 11.0
        return eh.build(eh.ModelSpec(
            kind="two-mode-four",
            energies=(0.0, wa + 0.7, 2 * wa + 2.6, 3 * wa + 1.7),
            omega_field=wa, omega_b=wb,
            couplings=(0.02, 0.015, 0.025), couplings_b=(0.018, 0.022, 0.02),
            atoms=1, n_max=(4, 4)))

    def test_mixed_coupling_extraction(self):
        m = self._model()
        forms = eh.closed_form_effective(m, eh.EffectiveScenario("two-mode-four"))
        deltas = [m.detunings[str(j)] for j in range(1, 5)]
        xi2 = eh.two_mode_pair_coupling(m.spec.couplings, m.spec.couplings_b, deltas)
        r = m.space.index((1, 1), (0, 0, 0, 1))
        c = m.space.index((2, 2), (0, 1, 0, 0))
        elem = forms.corrected.matrix[r, c].real
        assert elem == pytest.approx(xi2 * 2.0, rel=0.05)  # sqrt(2*2) = 2

    def test_pair_coupling_closed_form_guard(self):
        with pytest.raises(ResonanceError):
            eh.two_mode_pair_coupling([0.1] * 3, [0.1] * 3, [0.0, 1.0, 1.0, 2.0])

    def test_two_mode_tables_shift_mode_b_steps(self):
        deltas = [0.0, 0.7, 2.6, 1.7]
        _, tb = eh.two_mode_tables([0.02] * 3, [0.03] * 3, deltas, 1.0)
        # mode-b amplitudes use the gap-shifted steps
        assert tb.eps[0] == pytest.approx(0.03 / (0.7 - 1.0), rel=1e-12)


@given(seed=st.integers(0, 2 ** 32 - 1))
def test_measured_step_is_relative_to_the_energies(seed):
    # a diagonal part that does not scale X+ by one step is refused, and the
    # true one accepted with the same D up to the scale, at every energy
    # scale 10^k, k in [-14, 14] (Dicke X+ at A = 2, n_max = 6)
    model = eh.build(eh.ModelSpec(kind="dicke", omega_field=10.0, omega0=11.0,
                                  g=0.04, atoms=2, n_max=6))
    xplus = model.interactions[0].algebra.xplus
    rng = np.random.default_rng(seed)
    random = eh.OperatorMatrix(model.space, np.diag(rng.normal(size=model.space.dim)))
    step = rotations.measured_step(model.h_diag, xplus)
    for k in range(-14, 15):
        scale = 10.0 ** k
        assert rotations.measured_step(scale * model.h_diag, xplus) == pytest.approx(
            scale * step, rel=1e-12, abs=0)
        with pytest.raises(AnalysisError):
            rotations.measured_step(scale * random, xplus)


def _refuse_four_level_on_five_levels():
    model = eh.build(eh.ModelSpec(kind="cascade", energies=(0.0, 11.0, 21.7, 30.0, 41.3),
                                  omega_field=10.0, couplings=(0.03,) * 4, n_max=4))
    eh.closed_form_effective(model, eh.EffectiveScenario("four-level-three-photon"))


def _refuse_zero_step():
    model = eh.build(eh.ModelSpec(kind="cascade", energies=(0.0, 10.0, 21.0, 30.0),
                                  omega_field=10.0, couplings=(0.03,) * 3, n_max=4))
    eh.eliminating_generator(model)


@pytest.mark.parametrize("call, error, rule", [
    (lambda: eh.four_level_constants((0.03,) * 3, (0.0, 1.0, 0.0, 2.0)), ResonanceError,
     "two-photon resonance between levels 1 and 3"),
    (_refuse_four_level_on_five_levels, EffhamError, "the three-photon scenario needs a four-level cascade"),
    (_refuse_zero_step, ResonanceError, "one-photon resonance on transition 1"),
])
def test_rotations_refuse_resonances_and_other_chains(call, error, rule):
    with pytest.raises(error, match=rule):
        call()
