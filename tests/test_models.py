import dataclasses
import math

import numpy as np
import pytest

import effham as eh
from effham.errors import GuardViolationError, ResonanceError
from effham import models
from effham.models import MODEL_KINDS


def _block_eigvals(model, mask):
    idx = np.where(mask)[0]
    return np.linalg.eigvalsh(model.h_int.matrix[np.ix_(idx, idx)])


class TestSpinInField:
    def test_uncoupled_levels(self):
        m = eh.build(eh.ModelSpec(kind="spin-in-field", omega=1.0, g=0.0, spin_j=0.5))
        assert np.allclose(np.linalg.eigvalsh(m.h_int.matrix), [-0.5, 0.5], atol=1e-14)

    def test_exact_two_level_splitting(self):
        # closed form +-(1/2) sqrt(1 + 4 g^2 / omega^2), four significant figures
        m = eh.build(eh.ModelSpec(kind="spin-in-field", omega=1.0, g=0.3, spin_j=0.5))
        evs = np.linalg.eigvalsh(m.h_int.matrix)
        exact = 0.5 * math.sqrt(1 + 4 * 0.3 ** 2)
        assert evs[1] == pytest.approx(exact, abs=1e-12)
        assert evs[1] == pytest.approx(0.5831, abs=5e-5)

    @pytest.mark.parametrize("spin_j", [0.5, 1.0, 2.5, 5.0])
    def test_spectrum_is_rescaled_ladder(self, spin_j):
        omega, g = 1.0, 0.2
        m = eh.build(eh.ModelSpec(kind="spin-in-field", omega=omega, g=g, spin_j=spin_j))
        evs = np.sort(np.linalg.eigvalsh(m.h_int.matrix))
        scale = omega * math.sqrt(1 + 4 * g * g / omega ** 2)
        expected = np.array([m_ * scale for m_ in np.arange(-spin_j, spin_j + 1)])
        assert np.allclose(evs, expected, atol=1e-12)

    def test_rejects_bad_spin(self):
        with pytest.raises(ValueError):
            eh.ModelSpec(kind="spin-in-field", omega=1.0, g=0.1, spin_j=0.3)


class TestDicke:
    def test_excitation_number_conserved(self, dicke_model):
        n = dicke_model.conserved["N"]
        assert eh.commutator(dicke_model.h_int, n).norm() <= 1e-12

    @pytest.mark.parametrize("n", [0, 1, 2, 4])
    def test_single_atom_block_eigenvalues(self, dicke_model, n):
        # 2x2 oracle on {|n,e>, |n+1,g>}: eigenvalues +- sqrt(D^2/4 + g^2 (n+1))
        model = dicke_model
        delta, g = model.detunings["delta"], model.spec.g
        i1 = model.space.index((n,), (0, 1))
        i2 = model.space.index((n + 1,), (1, 0))
        sub = model.h_int.matrix[np.ix_([i1, i2], [i1, i2])]
        evs = np.linalg.eigvalsh(sub)
        rabi = math.sqrt(delta ** 2 / 4 + g * g * (n + 1))
        assert np.allclose(evs, [-rabi, rabi], atol=1e-12)
        # and the block really is closed: these rows couple to nothing else
        mask = np.zeros(model.space.dim, dtype=bool)
        mask[[i1, i2]] = True
        assert np.linalg.norm(model.h_int.matrix[np.ix_(mask, ~mask)]) <= 1e-14

    def test_total_hamiltonian_split(self, dicke_model):
        m = dicke_model
        full = (m.spec.omega_field * m.operators["n"]
                + m.spec.omega0 * m.operators["S3"]
                + m.spec.g * (m.operators["a"] @ m.operators["S+"]
                              + (m.operators["a"] @ m.operators["S+"]).dag()))
        assert (m.h_free + m.h_int - full).norm() <= 1e-12


class TestXi:
    def test_excitation_number_conserved(self, xi_two_photon_model):
        n = xi_two_photon_model.conserved["N"]
        assert eh.commutator(xi_two_photon_model.h_int, n).norm() <= 1e-12

    def test_detunings(self, xi_two_photon_model):
        assert xi_two_photon_model.detunings["12"] == pytest.approx(1.0)
        assert xi_two_photon_model.detunings["23"] == pytest.approx(-1.0)

    def test_no_second_coupling_reduces_to_two_level_chain(self):
        spec = eh.ModelSpec(kind="xi3", energies=(0.0, 11.0, 21.5), omega_field=10.0,
                            couplings=(0.05, 0.0), atoms=1, n_max=4)
        m = eh.build(spec)
        # independent construction of the expected interaction
        space = m.space
        a = eh.annihilator(space, 0)
        s11 = eh.collective_operator(space, 1, 1)
        s33 = eh.collective_operator(space, 3, 3)
        hop = a @ eh.collective_operator(space, 1, 2)
        expected = (-1.0) * s11 + 0.5 * s33 + 0.05 * (hop + hop.dag())
        assert (m.h_int - expected).norm() <= 1e-12

    def test_two_photon_block_spectrum_against_oracle(self, xi_two_photon_model):
        # N = 1 block for one atom: {|2,1>, |1,2>, |0,3>}; brute-force 3x3
        m = xi_two_photon_model
        g = m.spec.couplings[0]
        idx = [m.space.index((2,), (1, 0, 0)),
               m.space.index((1,), (0, 1, 0)),
               m.space.index((0,), (0, 0, 1))]
        oracle = np.array([
            [-1.0, g * math.sqrt(2), 0.0],
            [g * math.sqrt(2), 0.0, g * 1.0],
            [0.0, g * 1.0, -1.0]])
        sub = m.h_int.matrix[np.ix_(idx, idx)].real
        assert np.allclose(sub, oracle, atol=1e-14)
        evs = np.linalg.eigvalsh(m.h_int.matrix[np.ix_(idx, idx)])
        assert np.allclose(evs, np.linalg.eigvalsh(oracle), atol=1e-12)


class TestLambda:
    def test_conserved(self, lambda_model):
        for name in ("N", "population"):
            op = lambda_model.conserved[name]
            assert eh.commutator(lambda_model.h_int, op).norm() <= 1e-12

    def test_vacuum_lower_level_is_stationary_under_coupling(self, lambda_model):
        # no photons + atom in level 1: only the diagonal detuning term acts
        m = lambda_model
        psi = eh.basis_state(m.space, (0,), level=1)
        out = m.h_int.apply(psi)
        diag = m.h_diag.apply(psi)
        assert np.linalg.norm(out - diag) <= 1e-14

    def test_degenerate_lower_levels_block_spectrum(self, lambda_model):
        # n=1 sector {|1,1>, |1,2>, |0,3>} with D31 = D32 = 1, g13 = g23 = g
        m = lambda_model
        g = m.spec.couplings[0]
        idx = [m.space.index((1,), (1, 0, 0)),
               m.space.index((1,), (0, 1, 0)),
               m.space.index((0,), (0, 0, 1))]
        oracle = np.array([
            [-1.0, 0.0, g],
            [0.0, -1.0, g],
            [g, g, 0.0]])
        evs = np.linalg.eigvalsh(m.h_int.matrix[np.ix_(idx, idx)])
        assert np.allclose(evs, np.linalg.eigvalsh(oracle), atol=1e-12)


class TestCascade:
    def test_inversion_weights(self):
        assert eh.inversion_weights(4) == (3, 4, 3)
        assert eh.inversion_weights(3) == (2, 2)

    def test_first_detuning_vanishes(self, four_level_model):
        assert four_level_model.detunings["1"] == 0.0

    def test_conserved(self, four_level_model):
        n = four_level_model.conserved["N"]
        assert eh.commutator(four_level_model.h_int, n).norm() <= 1e-12

    def test_split_is_exact(self, four_level_model):
        m = four_level_model
        space = m.space
        full = m.spec.omega_field * m.operators["n"]
        for i, e in enumerate(m.spec.energies, start=1):
            full = full + e * m.operators[f"S{i}{i}"]
        for i, g in enumerate(m.spec.couplings, start=1):
            hop = m.operators["a"] @ m.operators[f"S{i}{i + 1}"]
            full = full + g * (hop + hop.dag())
        assert (m.h_free + m.h_int - full).norm() <= 1e-11

    def test_resonance_enforcement(self):
        spec = eh.ModelSpec(kind="cascade", energies=(0.0, 11.0, 21.7, 30.5),
                            omega_field=10.0, couplings=(0.03, 0.03, 0.03), n_max=4)
        with pytest.raises(ResonanceError):
            eh.build(spec, require_resonance=True)
        eh.build(spec)  # fine without the resonance request

    def test_needs_three_levels(self):
        # the record refuses the shape, before any builder runs
        with pytest.raises(ValueError, match="at least 3 level energies"):
            eh.ModelSpec(kind="cascade", energies=(0.0, 1.0),
                         omega_field=0.5, couplings=(0.1,), n_max=2)

    def test_level_operators_of_a_long_chain_have_distinct_names(self):
        # from level 10 up "S{i}{j}" would give S^{1,11} and S^{11,1} one name
        energies = [k * 10.0 + 0.5 * k + 0.13 * k * k for k in range(11)]
        m = eh.build(eh.ModelSpec(kind="cascade", energies=energies, omega_field=10.0,
                                  couplings=[0.01] * 10, atoms=1, n_max=2))
        assert models.level_key(1, 2) == "S12"
        assert len({models.level_key(i, j) for i in range(1, 12) for j in range(1, 12)}) == 121
        for i, j in ((1, 11), (11, 1), (10, 11), (2, 2)):
            assert np.array_equal(m.operators[models.level_key(i, j)].matrix,
                                  eh.collective_operator(m.space, i, j).matrix)


class TestTwoModeFour:
    def _spec(self):
        wa, wb = 10.0, 11.0
        return eh.ModelSpec(kind="two-mode-four",
                            energies=(0.0, wa + 0.7, 2 * wa + 2.6, 3 * wa + 1.7),
                            omega_field=wa, omega_b=wb,
                            couplings=(0.02, 0.02, 0.02),
                            couplings_b=(0.02, 0.02, 0.02),
                            atoms=1, n_max=(3, 3))

    def test_conserved(self):
        m = eh.build(self._spec())
        assert eh.commutator(m.h_int, m.conserved["N"]).norm() <= 1e-12

    def test_no_b_couplings_reduces_to_single_mode_cascade(self):
        import dataclasses
        spec = dataclasses.replace(self._spec(), couplings_b=(0.0, 0.0, 0.0))
        m = eh.build(spec)
        single = eh.build(eh.ModelSpec(kind="cascade", energies=spec.energies,
                                       omega_field=spec.omega_field,
                                       couplings=spec.couplings, atoms=1,
                                       n_max=spec.n_max[0]))
        # restrict to the n_b = 0 sector and compare with the single-mode model
        keep = [i for i in range(m.space.dim) if m.space.photons(i)[1] == 0]
        sub = m.h_int.matrix[np.ix_(keep, keep)]
        assert np.allclose(sub, single.h_int.matrix, atol=1e-12)

    def test_small_block_spectrum_oracle(self):
        # one a-photon, no b-photons, atom in level 1 couples only to |0,0;2>_a
        m = eh.build(self._spec())
        i1 = m.space.index((1, 0), (1, 0, 0, 0))
        i2 = m.space.index((0, 0), (0, 1, 0, 0))
        i3 = m.space.index((0, 1), (1, 0, 0, 0))  # same N but b-photon branch
        idx = [i1, i2, i3]
        d2, gap = 0.7, 1.0
        ga1, gb1 = 0.02, 0.02
        oracle = np.array([
            [0.0, ga1, 0.0],
            [ga1, d2, gb1],
            [0.0, gb1, gap]])
        sub = m.h_int.matrix[np.ix_(idx, idx)].real
        assert np.allclose(sub, oracle, atol=1e-14)

    def test_positive_gap_convention(self):
        import dataclasses
        spec = dataclasses.replace(self._spec(), omega_b=9.0)
        with pytest.raises(GuardViolationError):
            eh.build(spec, require_positive_gap=True)
        eh.build(spec)

    def test_resonance_enforcement(self):
        spec = self._spec()  # E4 - E1 = 31.7 != 3 * 11
        with pytest.raises(ResonanceError):
            eh.build(spec, require_resonance=True)


class TestGuardsAndBlocks:
    def test_dispersive_guard_zero_coupling(self):
        m = eh.build(eh.ModelSpec(kind="dicke", omega_field=10.0, omega0=11.0,
                                  g=0.0, atoms=1, n_max=3))
        res = eh.dispersive_guard(m, "jc")
        assert res.ratio == 0.0 and res.valid

    def test_dispersive_guard_arithmetic(self):
        m = eh.build(eh.ModelSpec(kind="dicke", omega_field=10.0, omega0=11.0,
                                  g=0.05, atoms=1, n_max=3))
        res = eh.dispersive_guard(m, "jc")
        assert res.ratio == pytest.approx(0.05 * 2.0, abs=1e-12)
        assert res.valid

    def test_dispersive_guard_zero_detuning(self):
        m = eh.build(eh.ModelSpec(kind="dicke", omega_field=10.0, omega0=10.0,
                                  g=0.05, atoms=1, n_max=3))
        res = eh.dispersive_guard(m, "jc")
        assert not res.valid and math.isinf(res.ratio)

    @pytest.mark.parametrize("atoms", [1, 3])
    def test_dispersive_guard_spin_ignores_atoms(self, atoms):
        # the spin's size comes from spin_j; atoms is documented as ignored
        m = eh.build(eh.ModelSpec(kind="spin-in-field", omega=1.0, g=0.1,
                                  spin_j=1, atoms=atoms))
        res = eh.dispersive_guard(m, "spin")
        assert res.ratio == 0.1 and res.valid

    @pytest.mark.parametrize("fixture", ["dicke_model", "xi_two_photon_model",
                                         "lambda_model", "four_level_model"])
    def test_block_decomposition_is_exact(self, fixture, request):
        model = request.getfixturevalue(fixture)
        blocks = eh.conserved_blocks(model)
        assert sum(len(b.indices) for b in blocks) == model.space.dim
        for blk in blocks:
            mask = np.zeros(model.space.dim, dtype=bool)
            mask[list(blk.indices)] = True
            out = model.h_int.matrix[np.ix_(mask, ~mask)]
            assert np.linalg.norm(out) <= 1e-14

    def test_truncation_flagging(self, dicke_model):
        blocks = eh.conserved_blocks(dicke_model)
        flagged = [b for b in blocks if b.touches_truncation]
        top = dicke_model.spec.n_max[0]
        assert flagged
        for blk in flagged:
            assert any(dicke_model.space.photons(i)[0] == top for i in blk.indices)

    @pytest.mark.parametrize("fixture", ["dicke_model", "xi_two_photon_model",
                                         "lambda_model", "four_level_model"])
    def test_h_free_commutes_with_h_int(self, fixture, request):
        # the free part is a function of the conserved operators, so the
        # interaction-picture comparison is exact
        m = request.getfixturevalue(fixture)
        assert eh.commutator(m.h_free, m.h_int).norm() <= 1e-10


def _blocks_per_state_loop(model):
    """The per-state loop ``conserved_blocks`` replaced, kept as its reference."""
    space = model.space
    diags = [op.diagonal().real for op in model.conserved.values()]
    groups = {}
    for idx in range(space.dim):
        key = tuple(round(float(d[idx]), 9) for d in diags)
        groups.setdefault(key, []).append(idx)
    tops = tuple(m.n_max for m in space.modes)
    return [eh.Block(key=key, indices=tuple(groups[key]),
                     touches_truncation=any(any(space.photons(i)[m] == tops[m]
                                                for m in range(len(tops)))
                                            for i in groups[key]))
            for key in sorted(groups)]


@pytest.mark.parametrize("fixture", ["spin_model", "dicke_model", "xi_two_photon_model",
                                     "lambda_model", "four_level_model", "xi_far_level_model",
                                     "two_mode_model"])
def test_conserved_blocks_match_per_state_loop(fixture, request):
    model = request.getfixturevalue(fixture)
    got, ref = eh.conserved_blocks(model), _blocks_per_state_loop(model)
    assert [(b.key, b.indices, b.touches_truncation) for b in got] == \
        [(b.key, b.indices, b.touches_truncation) for b in ref]
    assert all(type(x) is float for b in got for x in b.key)
    assert all(type(i) is int for b in got for i in b.indices)


@pytest.mark.parametrize("first", ["S3", "n"])
def test_blocks_of_two_varying_charges_sort_by_the_first(dicke_model, first):
    # every fixture has one charge that varies; with two, the blocks sort
    # by the first operator's value, then the second's, as the loop's keys
    charges = {"S3": dicke_model.operators["S3"], "n": dicke_model.operators["n"]}
    second = "n" if first == "S3" else "S3"
    model = dataclasses.replace(dicke_model, conserved={first: charges[first], second: charges[second]})
    got, ref = eh.conserved_blocks(model), _blocks_per_state_loop(model)
    assert len(got) == model.space.dim  # each state a block of its own
    assert [(b.key, b.indices, b.touches_truncation) for b in got] == \
        [(b.key, b.indices, b.touches_truncation) for b in ref]


@pytest.mark.parametrize("fixture", ["spin_model", "dicke_model", "xi_two_photon_model",
                                     "lambda_model", "four_level_model", "xi_far_level_model",
                                     "two_mode_model"])
def test_block_masks_match_masks_of_the_blocks(fixture, request):
    # the masks come from the labels, the blocks from their members: one
    # grouping, so the same blocks in the same order either way
    model = request.getfixturevalue(fixture)
    blocks = eh.conserved_blocks(model)
    for skip in (True, False):
        ref = []
        for blk in blocks:
            if not (skip and blk.touches_truncation):
                mask = np.zeros(model.space.dim, dtype=bool)
                mask[list(blk.indices)] = True
                ref.append(mask)
        got = eh.block_masks(model, skip_truncated=skip)
        assert len(got) == len(ref) and all(np.array_equal(g, r) for g, r in zip(got, ref))
        assert all(g.dtype == bool and g.shape == (model.space.dim,) for g in got)


_SMALLEST = {
    "spin-in-field": dict(omega=1.0, g=0.1, spin_j=0.5),
    "spin-in-field, j = 3/2": dict(omega=1.0, g=0.1, spin_j=1.5),
    "dicke": dict(omega_field=10.0, omega0=11.0, g=0.04, n_max=1),
    "xi3": dict(energies=(0.0, 11.0, 20.0), omega_field=10.0, couplings=(0.04, 0.04), n_max=1),
    "lambda3": dict(energies=(0.0, 0.0, 11.0), omega_field=10.0, couplings=(0.05, 0.05), n_max=1),
    "cascade": dict(energies=(0.0, 11.0, 21.7, 30.0), omega_field=10.0,
                    couplings=(0.03, 0.03, 0.03), n_max=1),
    "two-mode-four": dict(energies=(0.0, 10.7, 22.6, 31.7), omega_field=10.0, omega_b=11.0,
                          couplings=(0.02, 0.015, 0.025), couplings_b=(0.018, 0.022, 0.02),
                          n_max=(1, 1)),
}


@pytest.mark.parametrize("name", sorted(_SMALLEST))
def test_smallest_cutoff_keeps_an_untruncated_block(name):
    # the vacuum with every atom in the ground level has the least charge
    # and no photon, so it never touches a cutoff n_max >= 1; a model with
    # no conserved operator is one untruncated block
    kind = name.split(",")[0]
    model = eh.build(eh.ModelSpec(kind=kind, **_SMALLEST[name]))
    masks = eh.block_masks(model, skip_truncated=True)
    assert masks and all(m.any() for m in masks)


def test_smallest_cutoff_cases_cover_every_kind():
    assert {name.split(",")[0] for name in _SMALLEST} == set(MODEL_KINDS)


@pytest.mark.parametrize("name", sorted(_SMALLEST))
def test_conserved_operators_are_diagonal_patterns(name):
    model = eh.build(eh.ModelSpec(kind=name.split(",")[0], **_SMALLEST[name]))
    for op in model.conserved.values():
        assert len(op.ladder.rows) == 1 and op.is_diagonal(0.0)


def test_validate_reads_the_charge_off_h_int(dicke_model):
    a = dicke_model.operators["a"]
    n = dicke_model.conserved["N"]
    assert models._validate(dicke_model) is dicke_model
    # the same diagonal made from its dense array is accepted too
    dense_n = eh.OperatorMatrix(dicke_model.space, n.matrix)
    assert models._validate(dataclasses.replace(dicke_model, conserved={"N": dense_n}))
    # a Hermitian h_int that changes the excitation number
    broken = dataclasses.replace(dicke_model, h_int=dicke_model.h_int + 1e-6 * (a + a.dag()))
    with pytest.raises(ValueError, match=r"\[h_int, N\]"):
        models._validate(broken)
    # operators off the diagonal, h_int itself commuting with h_int
    assert eh.commutator(dicke_model.h_int, dicke_model.h_int).norm() == 0.0
    for off in (dicke_model.h_int, dicke_model.operators["S+"] + dicke_model.operators["S-"]):
        with pytest.raises(ValueError, match="not diagonal"):
            models._validate(dataclasses.replace(dicke_model, conserved={"N": n, "H": off}))


def test_validate_rejects_a_nan_charge(dicke_model):
    # a NaN on the diagonal of N, at a state where h_int has an entry, makes the
    # residual NaN, which fails the conservation check
    n = np.array(dicke_model.conserved["N"].matrix)
    coupled = dicke_model.h_int.entries()[0][0]
    n[coupled, coupled] = np.nan
    charge = eh.OperatorMatrix(dicke_model.space, n)
    with pytest.raises(ValueError, match=r"\[h_int, N\]"):
        models._validate(dataclasses.replace(dicke_model, conserved={"N": charge}))


def test_validate_is_relative_to_both_norms(dicke_model):
    # an h_int that changes the excitation number by 1e-6 (a + a^dag) is
    # refused at every scale 10^k of h_int and of N, where a floor at 1 let
    # it pass once ||h_int|| or ||N|| fell below 1
    a, n = dicke_model.operators["a"], dicke_model.conserved["N"]
    broken = dicke_model.h_int + 1e-6 * (a + a.dag())
    for k in range(-14, 15):
        scale = 10.0 ** k
        for h, charge in ((scale * dicke_model.h_int, n), (dicke_model.h_int, scale * n)):
            assert models._validate(dataclasses.replace(dicke_model, h_int=h, conserved={"N": charge}))
        for h, charge in ((scale * broken, n), (broken, scale * n)):
            with pytest.raises(ValueError, match=r"\[h_int, N\]"):
                models._validate(dataclasses.replace(dicke_model, h_int=h, conserved={"N": charge}))


def _levels(n):
    return [f"S{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]


def _steps(spec, omega):
    """One-photon steps E_{i+1} - E_i - omega of a cascade, written out."""
    e = spec.energies
    return [e[i + 1] - e[i] - omega for i in range(len(e) - 1)]


#: per fixture: the interactions as (name, mode, detuning), then the keys of
#: detunings, operators and conserved, in the order a model lists them
_CONTRACT = {
    "spin_model": lambda s: ([("spin", None, s.omega)], ["omega"], ["S3", "S+", "S-"], []),
    "dicke_model": lambda s: ([("jc", 0, s.omega0 - s.omega_field)], ["delta"],
                              ["S3", "S+", "S-", "a", "n"], ["N"]),
    "xi_two_photon_model": lambda s: (
        [(name, 0, d) for name, d in zip(("12", "23"), _steps(s, s.omega_field))],
        ["12", "23"], _levels(3) + ["a", "n"], ["N"]),
    "lambda_model": lambda s: (
        [("13", 0, s.energies[2] - s.energies[0] - s.omega_field),
         ("23", 0, s.energies[2] - s.energies[1] - s.omega_field)],
        ["31", "32"], _levels(3) + ["a", "n"], ["N", "population"]),
    "four_level_model": lambda s: (
        [(str(i), 0, d) for i, d in enumerate(_steps(s, s.omega_field), start=1)],
        ["1", "2", "3", "4"], _levels(4) + ["a", "n"], ["N"]),
    "two_mode_model": lambda s: (
        [term for i, d in enumerate(_steps(s, s.omega_field), start=1)
         for term in ((f"a{i}", 0, d), (f"b{i}", 1, d - (s.omega_b - s.omega_field)))],
        ["1", "2", "3", "4", "gap"], _levels(4) + ["a", "b", "na", "nb"], ["N"]),
}


def test_contract_covers_every_kind(request):
    kinds = {request.getfixturevalue(name).spec.kind for name in _CONTRACT}
    assert kinds == set(MODEL_KINDS)


@pytest.mark.parametrize("fixture", sorted(_CONTRACT))
def test_model_data_contract(fixture, request):
    # scenarios and reports look terms, detunings and operators up by name
    model = request.getfixturevalue(fixture)
    interactions, detunings, operators, conserved = _CONTRACT[fixture](model.spec)
    got = [(t.name, t.mode, t.detuning) for t in model.interactions]
    assert [(n, m) for n, m, _ in got] == [(n, m) for n, m, _ in interactions]
    assert [d for _, _, d in got] == pytest.approx([d for _, _, d in interactions], rel=1e-12)
    assert [t.algebra.name for t in model.interactions] == [t.name for t in model.interactions]
    assert list(model.detunings) == detunings
    assert list(model.operators) == operators
    assert list(model.conserved) == conserved


@pytest.mark.parametrize("fixture", sorted(_CONTRACT))
def test_h_int_is_h_diag_plus_the_couplings_in_order(fixture, request):
    model = request.getfixturevalue(fixture)
    total = model.h_diag.matrix
    for term in model.interactions:
        alg = term.algebra
        dense = term.g * (alg.xplus.matrix + alg.xminus.matrix)
        assert np.array_equal(term.coupling.matrix, dense)
        total = total + dense
    assert np.array_equal(model.h_int.matrix, total)


@pytest.mark.parametrize("field", ["atoms", "energies", "omega_field", "omega_b", "couplings",
                                   "couplings_b", "omega", "g", "spin_j", "omega0"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spec_refuses_a_non_finite_field(field, bad):
    good = eh.ModelSpec(kind="dicke", omega_field=10.0, omega0=11.0, g=0.02)
    value = (bad,) if isinstance(getattr(good, field), tuple) else bad
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        dataclasses.replace(good, **{field: value})


@pytest.mark.parametrize("fields, rule", [
    (dict(kind="dicke", atoms=0), "atoms must be >= 1"),
    (dict(kind="dicke", n_max=0), "field truncations must be positive"),
    (dict(kind="cascade", energies=(0.0, 11.0, 10.0), couplings=(0.01, 0.01)),
     "cascade level energies must be strictly increasing"),
    (dict(kind="lambda3", energies=(0.0, 11.0, 5.0), couplings=(0.01, 0.01)),
     "the shared level of a Lambda system must lie highest"),
])
def test_spec_refuses_what_no_builder_takes(fields, rule):
    with pytest.raises(ValueError, match=rule):
        eh.ModelSpec(**fields)


@pytest.mark.parametrize("kind, fields", [
    ("dicke", {}),
    ("xi3", dict(energies=(0.0, 11.0, 21.0), couplings=(0.01, 0.01))),
    ("lambda3", dict(energies=(0.0, 0.1, 11.0), couplings=(0.01, 0.01))),
    ("cascade", dict(energies=(0.0, 11.0, 21.7, 30.0), couplings=(0.01, 0.01, 0.01))),
    ("two-mode-four", dict(energies=(0.0, 10.5, 22.2, 31.5), couplings=(0.01,) * 3,
                           couplings_b=(0.01,) * 3)),
])
def test_spec_takes_one_truncation_per_field_mode(kind, fields):
    # a truncation the builder would drop is refused, not ignored
    modes = models.field_modes(kind)
    spec = eh.ModelSpec(kind=kind, n_max=(3,) * modes, **fields)
    assert len(models.model_basis(spec)[0]) == modes
    for count in (modes - 1, modes + 1):
        with pytest.raises(ValueError, match=rf"needs one truncation per mode \({modes}\), got {count}"):
            eh.ModelSpec(kind=kind, n_max=(3,) * count, **fields)


def test_spin_reads_no_truncation():
    spin = eh.ModelSpec(kind="spin-in-field", spin_j=1.0, n_max=(4, 9))
    assert models.model_basis(spin)[0] == () and models.model_basis(eh.ModelSpec(kind="spin-in-field"))[0] == ()
