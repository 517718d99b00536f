import gc
import math
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

import effham as eh
from effham import rotations
from effham.errors import DimensionCapError, SpaceMismatchError
from tests.conftest import FOUR_LEVEL_SPEC


def test_basis_dimensions():
    assert eh.enumerate_basis([1], eh.EnsembleSpec(2, 1)).dim == 4
    assert eh.enumerate_basis([], eh.EnsembleSpec(3, 2)).dim == 6
    assert eh.enumerate_basis([3, 2], eh.EnsembleSpec(4, 1)).dim == 4 * 3 * 4


def test_ensemble_dimension_formula():
    for atoms in (1, 2, 3, 5):
        dim = eh.EnsembleSpec(3, atoms).dim
        assert dim == (atoms + 1) * (atoms + 2) // 2


def test_dimension_cap():
    with pytest.raises(DimensionCapError):
        eh.enumerate_basis([10000], eh.EnsembleSpec(2, 3))
    # custom cap
    with pytest.raises(DimensionCapError):
        eh.enumerate_basis([5], eh.EnsembleSpec(2, 1), cap=10)


def test_basis_roundtrip_is_bijection():
    space = eh.enumerate_basis([2, 3], eh.EnsembleSpec(3, 2))
    seen = set()
    for i in range(space.dim):
        photons, occ = space.photons(i), space.occupations(i)
        assert sum(occ) == 2
        assert space.index(photons, occ) == i
        seen.add((photons, occ))
    assert len(seen) == space.dim


@pytest.mark.parametrize("photons, occupations", [
    ((3, 0), (2, 0, 0)),  # photons above the cutoff of the first mode
    ((-1, 0), (2, 0, 0)),
    ((2 ** 70, 0), (2, 0, 0)),
    ((0, 0), (1, 0, 0)),  # occupations that do not sum to the atom count
    ((0, 0), (3, -1, 0)),
    ((0,), (2, 0, 0)),  # one photon number short
    ((0, 0, 0), (2, 0)),  # the right count of numbers, split at the wrong place
    ((0, 0), (2, 0, 0, 0)),
])
def test_index_of_a_label_off_the_basis_names_it(photons, occupations):
    space = eh.enumerate_basis([2, 3], eh.EnsembleSpec(3, 2))
    label = re.escape(str((photons, occupations)))
    with pytest.raises(ValueError, match=f"no basis state with label {label}"):
        space.index(photons, occupations)


def test_basis_order_modes_slowest():
    space = eh.enumerate_basis([1], eh.EnsembleSpec(2, 1))
    assert space.labels == (((0,), (1, 0)), ((0,), (0, 1)),
                            ((1,), (1, 0)), ((1,), (0, 1)))


def test_annihilator_matrix_elements():
    space = eh.enumerate_basis([5], eh.EnsembleSpec(2, 1))
    a = eh.annihilator(space, 0)
    vac = eh.basis_state(space, (0,), level=1)
    assert np.linalg.norm(a.apply(vac)) == 0.0
    four = eh.basis_state(space, (4,), level=1)
    three = eh.basis_state(space, (3,), level=1)
    assert three.conj() @ a.apply(four) == pytest.approx(2.0)


def test_canonical_commutator_below_truncation():
    space = eh.enumerate_basis([5], eh.EnsembleSpec(2, 1))
    a = eh.annihilator(space, 0)
    comm = eh.commutator(a, a.dag())
    # exact identity on every state below the cutoff
    for n in range(5):
        for level in (1, 2):
            v = eh.basis_state(space, (n,), level=level)
            assert np.allclose(comm.apply(v), v, atol=1e-12)


def test_annihilator_rejects_bad_mode():
    space = eh.enumerate_basis([2], eh.EnsembleSpec(2, 1))
    with pytest.raises(ValueError):
        eh.annihilator(space, 1)


def test_collective_single_atom_transition():
    space = eh.enumerate_basis([], eh.EnsembleSpec(2, 1))
    s12 = eh.collective_operator(space, 1, 2)
    lvl1 = eh.basis_state(space, (), level=1)
    lvl2 = eh.basis_state(space, (), level=2)
    assert np.allclose(s12.apply(lvl1), lvl2, atol=1e-15)
    assert np.linalg.norm(s12.apply(lvl2)) == 0.0


@pytest.mark.parametrize("levels,atoms", [(2, 1), (2, 3), (3, 2), (4, 1)])
def test_populations_sum_to_atom_count(levels, atoms):
    space = eh.enumerate_basis([], eh.EnsembleSpec(levels, atoms))
    total = eh.zero(space)
    for i in range(1, levels + 1):
        total = total + eh.collective_operator(space, i, i)
    assert (total - atoms * eh.identity(space)).norm() <= 1e-12


def test_collective_commutator_two_level():
    space = eh.enumerate_basis([], eh.EnsembleSpec(2, 2))
    s12 = eh.collective_operator(space, 1, 2)
    s21 = eh.collective_operator(space, 2, 1)
    s11 = eh.collective_operator(space, 1, 1)
    s22 = eh.collective_operator(space, 2, 2)
    assert (eh.commutator(s12, s21) - (s22 - s11)).norm() <= 1e-12


@pytest.mark.parametrize("levels", [2, 3, 4])
@pytest.mark.parametrize("atoms", [1, 2, 3])
def test_collective_algebra_relations(levels, atoms):
    # [S^{ij}, S^{kl}] = d_{il} S^{kj} - d_{jk} S^{il} in the transition
    # convention S^{ij}: i -> j
    space = eh.enumerate_basis([], eh.EnsembleSpec(levels, atoms))
    ops = {(i, j): eh.collective_operator(space, i, j)
           for i in range(1, levels + 1) for j in range(1, levels + 1)}
    for (i, j), sij in ops.items():
        for (k, l), skl in ops.items():
            expected = eh.zero(space)
            if i == l:
                expected = expected + ops[(k, j)]
            if j == k:
                expected = expected - ops[(i, l)]
            assert (eh.commutator(sij, skl) - expected).norm() <= 1e-12


@pytest.mark.parametrize("atoms", [1, 2, 3, 10])
def test_spin_ladder_matrix_elements(atoms):
    space = eh.enumerate_basis([], eh.EnsembleSpec(2, atoms))
    s3, sp, sm = eh.spin_operators(space)
    j = atoms / 2
    assert (eh.commutator(s3, sp) - sp).norm() <= 1e-12
    assert (eh.commutator(sp, sm) - 2 * s3).norm() <= 1e-12
    # ladder amplitudes against the closed form
    for m_int in range(atoms):
        m = -j + m_int
        occ = (atoms - m_int, m_int)          # m = (k2 - k1)/2
        occ_up = (atoms - m_int - 1, m_int + 1)
        v = eh.basis_state(space, (), occupations=occ)
        w = eh.basis_state(space, (), occupations=occ_up)
        amp = w.conj() @ sp.apply(v)
        assert amp == pytest.approx(math.sqrt((j - m) * (j + m + 1)), abs=1e-12)


def test_operator_space_mismatch():
    s1 = eh.enumerate_basis([1], eh.EnsembleSpec(2, 1))
    s2 = eh.enumerate_basis([2], eh.EnsembleSpec(2, 1))
    with pytest.raises(SpaceMismatchError):
        eh.commutator(eh.identity(s1), eh.identity(s2))


def test_operator_matrix_is_immutable():
    space = eh.enumerate_basis([1], eh.EnsembleSpec(2, 1))
    op = eh.identity(space)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0
    with pytest.raises(AttributeError):
        op.matrix = np.zeros((4, 4))
    op.norm()  # kept on the operator, which still takes no assignment
    for name in ("_memo", "_ladder", "space", "anything"):
        with pytest.raises(AttributeError):
            setattr(op, name, None)


def test_operator_matrix_copies_its_input():
    space = eh.enumerate_basis([1], eh.EnsembleSpec(2, 1))
    arr = np.eye(space.dim, dtype=complex)
    op = eh.OperatorMatrix(space, arr)
    arr[0, 1] = 5.0
    assert arr.flags.writeable
    assert np.array_equal(op.matrix, np.eye(space.dim))
    assert op.is_diagonal(0.0)


def test_tiny_offdiagonal_is_not_exactly_diagonal():
    # the squares of 1e-170 underflow, so only the count of off-diagonal
    # nonzeros can tell that the operator is not diagonal at tol 0
    space = eh.enumerate_basis([1], eh.EnsembleSpec(2, 1))
    m = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    m[0, 1] = m[1, 0] = 1e-170
    op = eh.OperatorMatrix(space, m)
    assert not op.is_diagonal(0.0) and op.is_diagonal(1e-12)


def test_commutator_with_self_vanishes(rng):
    space = eh.enumerate_basis([2], eh.EnsembleSpec(2, 1))
    mat = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    op = eh.OperatorMatrix(space, mat)
    assert eh.commutator(op, op).norm() == 0.0


def test_hermiticity_predicates():
    space = eh.enumerate_basis([1], eh.EnsembleSpec(2, 1))
    h = eh.number_operator(space, 0)
    assert h.is_hermitian()
    a = eh.annihilator(space, 0)
    assert not a.is_hermitian()
    u = eh.matrix_exponential(1j * h)
    assert u.is_unitary(1e-12)


# -- constructors against the per-state loops they replace ------------------

def _reference_annihilator(space, mode):
    mat = np.zeros((space.dim, space.dim))
    for col, (photons, occ) in enumerate(space.labels):
        n = photons[mode]
        if n == 0:
            continue
        lowered = photons[:mode] + (n - 1,) + photons[mode + 1:]
        mat[space.index(lowered, occ), col] = math.sqrt(n)
    return mat


def _reference_number(space, mode):
    return np.diag(np.asarray([lab[0][mode] for lab in space.labels], dtype=float))


def _reference_collective(space, i, j):
    mat = np.zeros((space.dim, space.dim))
    ii, jj = i - 1, j - 1
    for col, (photons, occ) in enumerate(space.labels):
        if i == j:
            mat[col, col] = occ[ii]
            continue
        if occ[ii] == 0:
            continue
        moved = list(occ)
        moved[ii] -= 1
        moved[jj] += 1
        mat[space.index(photons, tuple(moved)), col] = math.sqrt(occ[ii] * (occ[jj] + 1))
    return mat


@pytest.mark.parametrize("fixture", ["spin_model", "dicke_model", "xi_far_level_model",
                                     "lambda_model", "four_level_model", "two_mode_model"])
def test_constructors_match_per_state_loops(fixture, request):
    space = request.getfixturevalue(fixture).space
    assert np.array_equal(eh.identity(space).matrix, np.eye(space.dim))
    assert np.array_equal(eh.zero(space).matrix, np.zeros((space.dim, space.dim)))
    for mode in range(len(space.modes)):
        a = _reference_annihilator(space, mode)
        assert np.array_equal(eh.annihilator(space, mode).matrix, a)
        assert np.array_equal(eh.creator(space, mode).matrix, a.T)
        assert np.array_equal(eh.number_operator(space, mode).matrix, _reference_number(space, mode))
    levels = space.ensemble.levels
    for i in range(1, levels + 1):
        for j in range(1, levels + 1):
            assert np.array_equal(eh.collective_operator(space, i, j).matrix,
                                  _reference_collective(space, i, j))


def test_constructors_build_a_new_operator_on_each_call(four_level_model):
    # the model holds its elementary operators; a constructor keeps nothing
    # on the space and builds a fresh operator with the same entries
    ops, space = four_level_model.operators, four_level_model.space
    built = {"a": lambda: eh.annihilator(space, 0), "n": lambda: eh.number_operator(space, 0),
             "S12": lambda: eh.collective_operator(space, 1, 2),
             "S33": lambda: eh.collective_operator(space, 3, 3)}
    for name, build in built.items():
        first, second = build(), build()
        assert first is not second and first is not ops[name]
        assert np.array_equal(first.matrix, ops[name].matrix)
        assert np.array_equal(second.matrix, ops[name].matrix)
    for build in (lambda: eh.identity(space), lambda: eh.zero(space),
                  lambda: eh.creator(space, 0), lambda: eh.collective_inversion(space, 1, 4)):
        first, second = build(), build()
        assert first is not second and np.array_equal(first.matrix, second.matrix)


@pytest.mark.parametrize("scenario", ["cascade-first-stage", "four-level-three-photon"])
def test_a_model_is_freed_without_the_cyclic_collector(scenario):
    # no operator is kept on its space, so a model, its space and its
    # operators form no reference cycle: they go when the last reference does
    gc.disable()
    try:
        model = eh.build(FOUR_LEVEL_SPEC, require_resonance=True)
        forms = eh.closed_form_effective(model, eh.EffectiveScenario(scenario))
        space = weakref.ref(model.space)
        del model, forms
        assert space() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("level", [0, -1, 3])
def test_basis_state_refuses_a_level_outside_the_ensemble(level):
    # a level below 1 would index the occupations from their end
    space = eh.enumerate_basis([2], eh.EnsembleSpec(levels=2, atoms=2))
    with pytest.raises(ValueError, match=f"level {level} out of range 1..2"):
        eh.basis_state(space, (0,), level=level)
    assert eh.basis_state(space, (0,), level=2)[space.index((0,), (0, 2))] == 1


def test_constructor_rejects_label_outside_the_basis():
    # a hand-made basis missing the state the ladder operator lands in
    space = eh.SpaceDescriptor(modes=(eh.FockTruncation(2),), ensemble=eh.EnsembleSpec(2, 1),
                               labels=(((0,), (1, 0)), ((2,), (1, 0))))
    with pytest.raises(ValueError):
        eh.annihilator(space, 0)


def _moved_reference(space, move) -> np.ndarray:
    """The dense operator that takes each basis state to ``move(label)``, a
    (label, amplitude) pair or None, built from a dict of label tuples."""
    index = {label: i for i, label in enumerate(space.labels)}
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for j, label in enumerate(space.labels):
        moved = move(label)
        if moved is not None:
            out[index[moved[0]], j] = moved[1]
    return out


def _moved_atom(i, j):
    def move(label):
        photons, occ = label
        if not occ[i - 1]:
            return None
        new = list(occ)
        new[i - 1] -= 1
        new[j - 1] += 1
        return (photons, tuple(new)), math.sqrt(occ[i - 1] * (occ[j - 1] + 1))
    return move


def _lowered_photon(label):
    (n,), occ = label
    return (((n - 1,), occ), math.sqrt(n)) if n else None


@pytest.mark.parametrize("modes", [[], [2]])
def test_ladder_operators_on_a_64_level_chain_match_a_label_dict(modes):
    # a mixed radix over 64 occupation columns passes int64; the state keys
    # stay exact and every moved label is found
    space = eh.enumerate_basis(modes, eh.EnsembleSpec(64, 1))
    for i, j in [(1, 2), (2, 1), (1, 64), (64, 1), (63, 64), (31, 32)]:
        op = eh.collective_operator(space, i, j)
        assert np.array_equal(op.matrix, _moved_reference(space, _moved_atom(i, j)))
    if modes:
        ref = _moved_reference(space, _lowered_photon)
        assert np.array_equal(eh.annihilator(space, 0).matrix, ref)
        assert space.index((2,), (0,) * 63 + (1,)) == space.dim - 1
    with pytest.raises(ValueError):
        space.index((0,) * len(modes), (2,) + (0,) * 63)


def test_only_hilbert_knows_the_stack():
    # every other module reads and writes operators through OperatorMatrix
    # and hilbert's functions, so the stack layout can change in one place
    package = Path(eh.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "hilbert.py":
            text = path.read_text(encoding="utf-8")
            assert not re.search(r"LadderPattern|_pattern_operator|\.ladder\b", text), path.name
    assert not any(hasattr(rotations, name) for name in ("_block_stacks", "_assemble", "_stacked_norm"))


def test_block_refuses_an_index_outside_the_space():
    # row -1 would read the slot of the stack's unused entries, and row dim
    # the entries of no state: both raise before a block is written or read
    model = eh.build(eh.ModelSpec(kind="dicke", omega_field=10.0, omega0=11.0, g=0.04, atoms=2, n_max=4))
    rotation = eh.closed_form_effective(model, eh.EffectiveScenario("dicke-dispersive")).rotation
    for op in (model.h_int, rotation):
        assert op.dim == 15
        for rows, cols in (([-1], [14]), ([15], [0, 1]), ([[0, 1], [2, 3]], [[0, 1], [2, -1]])):
            with pytest.raises(IndexError, match=r"out of range 0\.\.14"):
                op.block(rows, cols)
    assert rotation._unformed.left.all()


def test_apply_refuses_a_state_off_the_space(dicke_model):
    h = dicke_model.h_int
    for vec in (np.ones(2 * h.dim), np.ones(h.dim + 1), np.ones((2 * h.dim, 1)), np.complex128(1.0)):
        with pytest.raises(SpaceMismatchError):
            h.apply(vec)


_TWO_LEVELS = eh.enumerate_basis([2], eh.EnsembleSpec(2, 1))
_THREE_LEVELS = eh.enumerate_basis([2], eh.EnsembleSpec(3, 1))


@pytest.mark.parametrize("call, rule", [
    (lambda: eh.FockTruncation(-1), "n_max must be a non-negative integer, got -1"),
    (lambda: eh.EnsembleSpec(1, 1), "an ensemble needs at least two levels"),
    (lambda: eh.OperatorMatrix(_TWO_LEVELS, np.zeros((6, 5))), "operator matrix must be square"),
    (lambda: eh.OperatorMatrix(_TWO_LEVELS, np.eye(5)), "matrix dimension 5 != space dimension 6"),
    (lambda: eh.annihilator(_TWO_LEVELS, 1), "mode index 1 out of range"),
    (lambda: eh.collective_operator(_TWO_LEVELS, 1, 3), re.escape("level indices (1, 3) out of range 1..2")),
    (lambda: eh.spin_operators(_THREE_LEVELS), "spin operators require a two-level ensemble"),
    (lambda: eh.basis_state(_TWO_LEVELS, (0,)), "give either occupations or level"),
])
def test_spaces_and_operators_refuse_what_they_cannot_be(call, rule):
    with pytest.raises(ValueError, match=rule):
        call()
