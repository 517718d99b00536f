import math

import numpy as np
import pytest

import effham as eh
from effham import hilbert
from effham.errors import AnalysisError, SpaceMismatchError


def _resonant_jc(g=0.1, n_max=3):
    return eh.build(eh.ModelSpec(kind="dicke", omega_field=5.0, omega0=5.0,
                                 g=g, atoms=1, n_max=n_max))


class TestEvolve:
    def test_time_zero_returns_initial_state(self, dicke_model):
        psi0 = eh.basis_state(dicke_model.space, (1,), level=2)
        traj = eh.evolve(dicke_model.h_int, psi0, [0.0, 1.0])
        assert np.allclose(traj.states[0], psi0, atol=1e-14)

    def test_resonant_rabi_oscillation(self):
        # |0,e> under the resonant coupling: P_e(t) = cos^2(g t)
        m = _resonant_jc()
        g = m.spec.g
        psi0 = eh.basis_state(m.space, (0,), level=2)
        pe = eh.collective_operator(m.space, 2, 2)
        times = np.linspace(0.0, 40.0, 161)
        traj = eh.evolve(m.h_int, psi0, times, observables={"Pe": pe})
        assert np.allclose(traj.observables["Pe"], np.cos(g * times) ** 2, atol=1e-10)

    def test_eigenstate_populations_frozen(self, dicke_model):
        w, v = np.linalg.eigh(dicke_model.h_int.matrix)
        psi0 = v[:, 3]
        times = np.linspace(0.0, 50.0, 40)
        traj = eh.evolve(dicke_model.h_int, psi0, times)
        pops = np.abs(traj.states) ** 2
        assert np.allclose(pops, pops[0], atol=1e-12)

    def test_norm_conserved_long_horizon(self, xi_two_photon_model):
        psi0 = eh.basis_state(xi_two_photon_model.space, (2,), level=1)
        times = np.linspace(0.0, 5e4, 200)
        traj = eh.evolve(xi_two_photon_model.h_int, psi0, times)
        assert traj.norm_drift() <= 1e-10

    def test_conserved_expectation_constant(self, xi_two_photon_model):
        m = xi_two_photon_model
        psi0 = (eh.basis_state(m.space, (2,), level=1)
                + eh.basis_state(m.space, (1,), level=2)) / math.sqrt(2)
        times = np.linspace(0.0, 300.0, 120)
        traj = eh.evolve(m.h_int, psi0, times, observables={"N": m.conserved["N"]})
        assert np.ptp(traj.observables["N"]) <= 1e-9

    def test_pattern_only_observables_are_never_materialised(self, monkeypatch):
        m = eh.build(eh.ModelSpec(kind="dicke", omega_field=10.0, omega0=11.0,
                                  g=0.04, atoms=3, n_max=6))
        observables = {"n": m.operators["n"], "S3": m.operators["S3"], "S+": m.operators["S+"],
                       "a": m.operators["a"], "N": m.conserved["N"]}
        assert all(len(op.ladder.rows) == 1 for op in observables.values())
        dense = {name: np.array(op.matrix) for name, op in observables.items()}
        built = []
        materialise = hilbert._materialise
        monkeypatch.setattr(hilbert, "_materialise", lambda p: built.append(p) or materialise(p))
        psi0 = (eh.basis_state(m.space, (2,), level=1)
                + eh.basis_state(m.space, (1,), level=2)) / math.sqrt(2)
        traj = eh.evolve(m.h_int, psi0, np.linspace(0.0, 30.0, 41), observables=observables)
        assert built == []
        for name, mat in dense.items():
            ref = np.real(np.einsum("ti,ij,tj->t", traj.states.conj(), mat, traj.states))
            assert np.allclose(traj.observables[name], ref, rtol=0, atol=1e-12)

    def test_rejects_nonhermitian(self, dicke_model):
        a = dicke_model.operators["a"]
        psi0 = eh.basis_state(dicke_model.space, (0,), level=1)
        with pytest.raises(ValueError):
            eh.evolve(a, psi0, [0.0, 1.0])

    def test_rejects_unnormalized(self, dicke_model):
        psi0 = 2.0 * eh.basis_state(dicke_model.space, (0,), level=1)
        with pytest.raises(ValueError):
            eh.evolve(dicke_model.h_int, psi0, [0.0, 1.0])

    def test_rejects_a_nan_state(self, dicke_model):
        # a NaN norm fails the normalisation guard
        psi0 = eh.basis_state(dicke_model.space, (0,), level=1)
        psi0[-1] = np.nan
        with pytest.raises(ValueError, match="normalized"):
            eh.evolve(dicke_model.h_int, psi0, [0.0, 1.0])

    @pytest.mark.parametrize("times", [[0.0, np.nan], [np.inf], []], ids=["nan", "inf", "empty"])
    def test_rejects_a_time_grid_without_finite_times(self, dicke_model, times):
        psi0 = eh.basis_state(dicke_model.space, (1,), level=2)
        with pytest.raises(ValueError, match="times must be finite, one at least"):
            eh.evolve(dicke_model.h_int, psi0, times)
        with pytest.raises(ValueError, match="times must be finite, one at least"):
            eh.effective_evolution(dicke_model.h_int, psi0, times)

    def test_evolve_refuses_a_state_off_the_space(self, dicke_model):
        psi0 = np.append(eh.basis_state(dicke_model.space, (1,), level=2), 0.0)
        with pytest.raises(SpaceMismatchError):
            eh.evolve(dicke_model.h_int, psi0, [0.0, 1.0])

    def test_effective_evolution_refuses_a_state_off_the_space(self, dicke_model):
        forms = eh.closed_form_effective(dicke_model, eh.EffectiveScenario("dicke-dispersive"))
        psi0 = np.append(eh.basis_state(dicke_model.space, (1,), level=2), 0.0)
        for rotation in (None, forms.rotation):
            with pytest.raises(SpaceMismatchError):
                eh.effective_evolution(forms.corrected, psi0, [0.0, 1.0], rotation=rotation)


class TestFidelity:
    def test_self_and_orthogonal(self, dicke_model):
        a = eh.basis_state(dicke_model.space, (0,), level=1)
        b = eh.basis_state(dicke_model.space, (1,), level=1)
        assert eh.fidelity(a, a) == pytest.approx(1.0, abs=1e-15)
        assert eh.fidelity(a, b) == 0.0

    def test_global_phase_invariance(self, dicke_model, rng):
        v = rng.normal(size=dicke_model.space.dim) + 1j * rng.normal(size=dicke_model.space.dim)
        v = v / np.linalg.norm(v)
        assert eh.fidelity(v, np.exp(1j * 0.7) * v) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            eh.fidelity(np.ones(3), np.ones(4))


class TestCompareSpectra:
    def test_identical_operators(self, dicke_model):
        masks = eh.block_masks(dicke_model)
        rep = eh.compare_spectra(dicke_model.h_int, dicke_model.h_int, masks)
        assert rep.max_error == 0.0

    def test_two_level_second_order_error(self):
        # frozen oracle: per-level error |omega (sqrt(1+4 eps^2) - 1 - 2 eps^2)| / 2
        omega, g = 1.0, 0.1
        m = eh.build(eh.ModelSpec(kind="spin-in-field", omega=omega, g=g, spin_j=0.5))
        forms = eh.closed_form_effective(m, eh.EffectiveScenario("su2-generic"))
        rep = eh.compare_spectra(m.h_int, forms.corrected,
                                 [np.ones(m.space.dim, dtype=bool)])
        expected = abs(omega * (math.sqrt(1 + 4 * g * g) - 1 - 2 * g * g)) / 2
        assert expected == pytest.approx(9.80486407213084e-05, abs=1e-12)
        assert rep.max_error == pytest.approx(expected, rel=1e-9)

    def test_dicke_lowest_block_error_bound(self):
        delta, g = 1.0, 0.02
        m = eh.build(eh.ModelSpec(kind="dicke", omega_field=10.0, omega0=11.0,
                                  g=g, atoms=1, n_max=4))
        forms = eh.closed_form_effective(m, eh.EffectiveScenario("dicke-dispersive"))
        # block containing |0,e>, |1,g>
        mask = np.zeros(m.space.dim, dtype=bool)
        mask[m.space.index((0,), (0, 1))] = True
        mask[m.space.index((1,), (1, 0))] = True
        rep = eh.compare_spectra(m.h_int, forms.corrected, [mask])
        assert rep.max_error <= 2 * g ** 4 / delta ** 3

    def test_block_leakage_rejected(self, dicke_model):
        # a mask that cuts through a coupled pair must be refused
        mask = np.zeros(dicke_model.space.dim, dtype=bool)
        mask[dicke_model.space.index((0,), (0, 1))] = True
        with pytest.raises(AnalysisError):
            eh.compare_spectra(dicke_model.h_int, dicke_model.h_diag, [mask])

    @pytest.mark.parametrize("exact_first", [True, False], ids=["in h_eff", "in h_exact"])
    def test_nan_between_blocks_rejected(self, dicke_model, exact_first):
        # a NaN leakage fails the guard in either input, so the blocks'
        # errors (0 here: the NaN lies off every block) are not reported
        a = np.array(dicke_model.h_int.matrix)
        vacuum = dicke_model.space.index((0,), (1, 0))
        a[vacuum, vacuum + 5] = np.nan
        pair = (dicke_model.h_int, eh.OperatorMatrix(dicke_model.space, a))
        with pytest.raises(AnalysisError, match="leak"):
            eh.compare_spectra(*(pair if exact_first else pair[::-1]), eh.block_masks(dicke_model))

    def test_no_blocks_rejected(self, dicke_model):
        # comparing nothing must not read as a zero error
        with pytest.raises(AnalysisError):
            eh.compare_spectra(dicke_model.h_int, dicke_model.h_int, [])

    @pytest.mark.parametrize("empty", ["index list", "mask"])
    def test_empty_block_rejected(self, dicke_model, empty):
        # an empty block compares nothing, whichever way it is given
        dim = dicke_model.space.dim
        block = [] if empty == "index list" else np.zeros(dim, dtype=bool)
        with pytest.raises(AnalysisError, match="block 1 is empty"):
            eh.compare_spectra(dicke_model.h_int, dicke_model.h_int, [[0], block])
        if empty == "index list":
            with pytest.raises(AnalysisError, match="block 0 is empty"):
                eh.compare_spectra(dicke_model.h_int, dicke_model.h_int, [[]])

    def test_overlapping_blocks_rejected(self, dicke_model):
        # blocks partition the states they hold: a state in two is refused
        masks = eh.block_masks(dicke_model)
        with pytest.raises(AnalysisError, match="block 6 holds a state of block 0"):
            eh.compare_spectra(dicke_model.h_int, dicke_model.h_int, masks + masks[:2])

    def test_compared_states_count_the_covered_states(self, dicke_model):
        # a partition with some blocks left out: the states of the rest
        masks = eh.block_masks(dicke_model, skip_truncated=False)[::2]
        rep = eh.compare_spectra(dicke_model.h_int, dicke_model.h_int, masks)
        assert 0 < rep.compared_states < dicke_model.space.dim
        assert rep.compared_states == sum(int(m.sum()) for m in masks)
        assert rep.compared_states == sum(blk.size for blk in rep.blocks)

    def test_two_mode_smallest_cutoff_compares_one_state(self):
        # the known vacuous pass: at n_max = (1, 1) only the vacuum's block
        # is untruncated, so the comparison of 16 states covers 1 and reads
        # a zero error; the coverage makes that visible
        spec = eh.ModelSpec(kind="two-mode-four", energies=(0.0, 10.7, 22.6, 31.7),
                            omega_field=10.0, omega_b=11.0, couplings=(0.02, 0.015, 0.025),
                            couplings_b=(0.018, 0.022, 0.02), n_max=(1, 1))
        m = eh.build(spec)
        forms = eh.closed_form_effective(m, eh.EffectiveScenario("two-mode-four"))
        rep = eh.compare_spectra(m.h_int, forms.corrected, eh.block_masks(m))
        assert m.space.dim == 16
        assert rep.compared_states == 1 and rep.max_error == 0.0

    def test_blocks_carry_compared_eigenvalues(self, dicke_model):
        masks = eh.block_masks(dicke_model)
        rep = eh.compare_spectra(dicke_model.h_int, dicke_model.h_diag, masks)
        for mask, blk in zip(masks, rep.blocks):
            idx = np.where(mask)[0]
            sub = dicke_model.h_int.matrix[np.ix_(idx, idx)]
            assert np.array_equal(blk.exact_ev, np.linalg.eigvalsh(sub))
            err = np.abs(np.asarray(blk.exact_ev) - np.asarray(blk.eff_ev))
            assert blk.max_error == err.max()


@pytest.mark.parametrize("fixture, scenario", [
    ("spin_model", "su2-generic"),
    ("dicke_model", "dicke-dispersive"),
    ("xi_two_photon_model", "xi-two-photon"),
    ("lambda_model", "lambda-dispersive"),
    ("four_level_model", "four-level-three-photon"),
    ("xi_far_level_model", "xi-far-level"),
    ("two_mode_model", "two-mode-four"),
])
def test_block_masks_partition_the_compared_states(fixture, scenario, request):
    # the calling contract of the benchmark: the masks of the untruncated
    # blocks are pairwise disjoint, so the states compared are their sizes summed
    model = request.getfixturevalue(fixture)
    masks = eh.block_masks(model, skip_truncated=True)
    assert np.sum(masks, axis=0).max() == 1  # each state in one mask at most
    forms = eh.closed_form_effective(model, eh.EffectiveScenario(scenario))
    rep = eh.compare_spectra(model.h_int, forms.corrected, masks)
    assert rep.compared_states == sum(int(k.sum()) for k in masks)


class TestScalingStudy:
    def test_two_level_effective_error_order_four(self):
        def metric(eps):
            m = eh.build(eh.ModelSpec(kind="spin-in-field", omega=1.0, g=eps, spin_j=0.5))
            forms = eh.closed_form_effective(m, eh.EffectiveScenario("su2-generic"))
            rep = eh.compare_spectra(m.h_int, forms.corrected,
                                     [np.ones(m.space.dim, dtype=bool)])
            return rep.max_error

        fit = eh.scaling_study(metric, [0.1, 0.05, 0.025])
        assert fit.reliable
        assert 3.7 <= fit.order <= 4.3

    def test_rotation_cancellation_order_two(self):
        def metric(eps):
            m = eh.build(eh.ModelSpec(kind="dicke", omega_field=10.0, omega0=11.0,
                                      g=eps, atoms=1, n_max=6))
            gen, _ = eh.eliminating_generator(m)
            return eh.cancellation_residual(m.h_int, eh.matrix_exponential(gen))

        fit = eh.scaling_study(metric, [0.1, 0.05, 0.025])
        assert fit.reliable
        assert 1.8 <= fit.order <= 2.2

    def test_saturation_reported(self):
        fit = eh.scaling_study(lambda eps: 0.0, [0.1, 0.05, 0.025])
        assert fit.saturated
        assert math.isnan(fit.order)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            eh.scaling_study(lambda eps: eps, [0.1, 0.05])

    def test_needs_three_distinct_points(self):
        # equal epsilons leave the order fit rank-deficient
        with pytest.raises(ValueError, match="three distinct"):
            eh.scaling_study(lambda eps: eps, [0.02, 0.02, 0.02])
        with pytest.raises(ValueError, match="three distinct"):
            eh.scaling_study(lambda eps: eps, [0.1, 0.05, 0.1])

    def test_fit_needs_three_distinct_usable_points(self):
        # the grid is distinct, but only one of its values is above saturation
        fit = eh.scaling_study(lambda eps: eps if eps == 0.1 else 0.0, [0.1, 0.1, 0.1, 0.05, 0.025])
        assert fit.saturated and math.isnan(fit.order)

    def test_effective_dynamics_fidelity_order(self):
        # rotated-frame effective evolution converges with order >= 1.8 over
        # one period of the slow (Stark-scale) beat
        delta = 1.0

        def metric(eps):
            m = eh.build(eh.ModelSpec(kind="dicke", omega_field=10.0, omega0=11.0,
                                      g=eps, atoms=1, n_max=6))
            forms = eh.closed_form_effective(m, eh.EffectiveScenario("dicke-dispersive"))
            psi0 = (eh.basis_state(m.space, (0,), level=2)
                    + eh.basis_state(m.space, (1,), level=2)
                    + eh.basis_state(m.space, (2,), level=2)) / math.sqrt(3)
            horizon = 2 * math.pi * delta / eps ** 2
            times = np.linspace(0.0, horizon, 240)
            exact = eh.evolve(m.h_int, psi0, times)
            approx = eh.effective_evolution(forms.corrected, psi0, times,
                                            rotation=forms.rotation)
            return float(np.max(eh.infidelity_series(exact, approx)))

        fit = eh.scaling_study(metric, [0.1, 0.05, 0.025])
        assert fit.order >= 1.8

    def test_frame_correction_helps(self, dicke_model):
        m = dicke_model
        forms = eh.closed_form_effective(m, eh.EffectiveScenario("dicke-dispersive"))
        psi0 = (eh.basis_state(m.space, (0,), level=2)
                + eh.basis_state(m.space, (1,), level=1)) / math.sqrt(2)
        times = np.linspace(0.0, 200.0, 120)
        exact = eh.evolve(m.h_int, psi0, times)
        rotated = eh.effective_evolution(forms.corrected, psi0, times,
                                         rotation=forms.rotation)
        bare = eh.effective_evolution(forms.corrected, psi0, times)
        err_rot = float(np.max(eh.infidelity_series(exact, rotated)))
        err_bare = float(np.max(eh.infidelity_series(exact, bare)))
        assert err_rot < err_bare


class TestEffectiveFrequency:
    def test_resonant_population_frequency(self):
        m = _resonant_jc(g=0.1)
        psi0 = eh.basis_state(m.space, (0,), level=2)
        pe = eh.collective_operator(m.space, 2, 2)
        times = np.linspace(0.0, 100.0, 1500)
        traj = eh.evolve(m.h_int, psi0, times, observables={"Pe": pe})
        freq = eh.effective_frequency(traj, "Pe")
        assert freq == pytest.approx(0.1 / math.pi, rel=1e-4)

    def test_constant_series_rejected(self, dicke_model):
        psi0 = eh.basis_state(dicke_model.space, (0,), level=1)
        times = np.linspace(0.0, 10.0, 50)
        traj = eh.evolve(dicke_model.h_int, psi0, times,
                         observables={"N": dicke_model.conserved["N"]})
        with pytest.raises(AnalysisError):
            eh.effective_frequency(traj, "N")

    def test_too_short_series_rejected(self):
        m = _resonant_jc(g=0.1)
        psi0 = eh.basis_state(m.space, (0,), level=2)
        pe = eh.collective_operator(m.space, 2, 2)
        times = np.linspace(0.0, 20.0, 200)  # less than one full period
        traj = eh.evolve(m.h_int, psi0, times, observables={"Pe": pe})
        with pytest.raises(AnalysisError):
            eh.effective_frequency(traj, "Pe")

    def test_two_photon_transfer_frequency(self, xi_two_photon_model):
        # slow 1-3 transfer at the rate set by the effective coupling and the
        # residual Stark detuning
        m = xi_two_photon_model
        forms = eh.closed_form_effective(m, eh.EffectiveScenario("xi-two-photon"))
        r = m.space.index((0,), (0, 0, 1))
        c = m.space.index((2,), (1, 0, 0))
        coup = forms.corrected.matrix[r, c].real
        det = (forms.corrected.matrix[c, c] - forms.corrected.matrix[r, r]).real
        rabi = math.sqrt(det ** 2 + 4 * coup ** 2)
        psi0 = eh.basis_state(m.space, (2,), level=1)
        period = 2 * math.pi / rabi
        times = np.linspace(0.0, 2.3 * period, 700)
        p3 = eh.collective_operator(m.space, 3, 3)
        traj = eh.evolve(m.h_int, psi0, times, observables={"P3": p3})
        freq = eh.effective_frequency(traj, "P3")
        assert freq == pytest.approx(rabi / (2 * math.pi), rel=0.05)


class TestObservableSpace:
    """An observable must live on the evolved operator's space, also when
    it has the same dimension."""

    def _setup(self):
        model = eh.build(eh.ModelSpec(kind="dicke", omega_field=10.0, omega0=11.0,
                                      g=0.04, atoms=1, n_max=1))
        spin = eh.build(eh.ModelSpec(kind="spin-in-field", omega=1.0, g=0.1, spin_j=1.5))
        assert model.space.dim == spin.space.dim == 4
        forms = eh.closed_form_effective(model, eh.EffectiveScenario("dicke-dispersive"))
        psi0 = eh.basis_state(model.space, (0,), level=1)
        return model, forms, psi0, {"S3": spin.operators["S3"]}

    def test_evolve_refuses_a_foreign_observable(self):
        model, _, psi0, obs = self._setup()
        with pytest.raises(SpaceMismatchError):
            eh.evolve(model.h_int, psi0, [0.0, 1.0], observables=obs)

    def test_effective_evolution_refuses_a_foreign_observable(self):
        _, forms, psi0, obs = self._setup()
        with pytest.raises(SpaceMismatchError):
            eh.effective_evolution(forms.corrected, psi0, [0.0, 1.0],
                                   rotation=forms.rotation, observables=obs)
