import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import effham as eh
from effham.errors import AnalysisError, LadderRelationError, SpaceMismatchError


def _dicke_algebra(atoms=1, n_max=6):
    space = eh.enumerate_basis([n_max], eh.EnsembleSpec(2, atoms))
    s3, sp, _ = eh.spin_operators(space)
    a = eh.annihilator(space, 0)
    return space, eh.build_deformed("jc", s3, a @ sp)


def test_pure_spin_structure_is_twice_s3():
    space = eh.enumerate_basis([], eh.EnsembleSpec(2, 3))
    s3, sp, _ = eh.spin_operators(space)
    alg = eh.build_deformed("spin", s3, sp)
    assert (alg.structure - 2 * s3).norm() <= 1e-12


def test_dicke_structure_on_lowest_states():
    # direct evaluation of (n+1) S+S- - n S-S+ on |0,e> and |0,g>
    space, alg = _dicke_algebra()
    e_idx = space.index((0,), (0, 1))
    g_idx = space.index((0,), (1, 0))
    d = alg.structure.diagonal().real
    assert d[e_idx] == pytest.approx(1.0, abs=1e-12)
    assert d[g_idx] == pytest.approx(0.0, abs=1e-12)


def test_build_rejects_ladder_violation():
    space = eh.enumerate_basis([2], eh.EnsembleSpec(2, 1))
    s3, sp, _ = eh.spin_operators(space)
    a = eh.annihilator(space, 0)
    # a alone commutes with S3, so the ladder relation fails
    with pytest.raises(LadderRelationError):
        eh.build_deformed("bad", s3, a)


def test_build_rejects_a_nan_ladder_residual(dicke_model):
    # a NaN in X+ makes the ladder residual NaN, which fails its guard
    alg = dicke_model.interactions[0].algebra
    a = np.array(alg.xplus.matrix)
    a[tuple(np.argwhere(a)[0])] = np.nan
    with pytest.raises(LadderRelationError, match=r"\[X3, X\+\] - X\+ has norm nan"):
        eh.build_deformed("bad", alg.x3, eh.OperatorMatrix(dicke_model.space, a))


def test_build_rejects_a_nan_structure_residual(dicke_model):
    # X+ at 1e160 keeps the ladder relation exact, but its structure
    # operator overflows to inf and [structure, X3] holds NaN, which fails
    alg = dicke_model.interactions[0].algebra
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(LadderRelationError, match="does not commute"):
            eh.build_deformed("bad", alg.x3, 1e160 * alg.xplus)


def test_build_rejects_nonhermitian_x3():
    space = eh.enumerate_basis([], eh.EnsembleSpec(2, 1))
    _, sp, _ = eh.spin_operators(space)
    with pytest.raises(LadderRelationError):
        eh.build_deformed("bad", sp, sp)


def test_build_rejects_space_mismatch():
    s1 = eh.enumerate_basis([], eh.EnsembleSpec(2, 1))
    s2 = eh.enumerate_basis([], eh.EnsembleSpec(2, 2))
    with pytest.raises(SpaceMismatchError):
        eh.build_deformed("bad", eh.spin_operators(s1)[0], eh.spin_operators(s2)[1])


def test_structure_adjoint_consistency():
    _, alg = _dicke_algebra(atoms=2, n_max=4)
    assert alg.structure.is_hermitian(1e-12)
    assert (alg.xminus - alg.xplus.dag()).norm() == 0.0


def test_ladder_relation_report_passes_for_builtin():
    _, alg = _dicke_algebra(atoms=2, n_max=4)
    rep = eh.ladder_relation_report(alg)
    assert rep.passed, rep.residuals


def test_structure_samples_pure_spin():
    space = eh.enumerate_basis([], eh.EnsembleSpec(2, 4))
    s3, sp, _ = eh.spin_operators(space)
    alg = eh.build_deformed("spin", s3, sp)
    samples = eh.structure_polynomial_samples(alg)
    assert {s.x3 for s in samples} == {-2.0, -1.0, 0.0, 1.0, 2.0}
    for s in samples:
        assert s.value == pytest.approx(2 * s.x3, abs=1e-12)


@pytest.mark.parametrize("atoms", [1, 2, 3, 4])
def test_structure_samples_dicke(atoms):
    # brute-force check over the whole space: P = C2 - m^2 + (2n+1) m,
    # with the (m, N)-labels taken from the conserved excitation number
    space, alg = _dicke_algebra(atoms=atoms, n_max=6)
    s3 = eh.collective_inversion(space, 1, 2)
    n_exc = eh.number_operator(space, 0) + s3
    j = atoms / 2
    casimir = j * (j + 1)
    samples = eh.structure_polynomial_samples(alg, conserved=[n_exc])
    assert samples
    for s in samples:
        m = s.x3
        n = s.conserved[0] - m
        if n > 5:          # states at the cutoff miss the raising direction
            continue
        assert s.value == pytest.approx(casimir - m * m + (2 * n + 1) * m, abs=1e-12)


def test_structure_samples_xi_sector():
    # on states with empty level 1 the 1-2 structure reduces to S22*(n+1)
    space = eh.enumerate_basis([5], eh.EnsembleSpec(3, 2))
    a = eh.annihilator(space, 0)
    s12 = eh.collective_operator(space, 1, 2)
    alg = eh.build_deformed("12", eh.collective_inversion(space, 1, 2), a @ s12)
    d = alg.structure.diagonal().real
    s22 = eh.collective_operator(space, 2, 2).diagonal().real
    for idx in range(space.dim):
        occ = space.occupations(idx)
        n = space.photons(idx)[0]
        if occ[0] == 0 and n < 5:
            assert d[idx] == pytest.approx(s22[idx] * (n + 1), abs=1e-12)


def test_structure_samples_rejects_nondiagonal_conserved():
    space, alg = _dicke_algebra()
    sp = eh.collective_operator(space, 1, 2)
    with pytest.raises(AnalysisError):
        eh.structure_polynomial_samples(alg, conserved=[sp])


def _xi_algebras(atoms, n_max=4):
    space = eh.enumerate_basis([n_max], eh.EnsembleSpec(3, atoms))
    a = eh.annihilator(space, 0)
    alg12 = eh.build_deformed("12", eh.collective_inversion(space, 1, 2),
                              a @ eh.collective_operator(space, 1, 2))
    alg23 = eh.build_deformed("23", eh.collective_inversion(space, 2, 3),
                              a @ eh.collective_operator(space, 2, 3))
    return space, a, alg12, alg23


@pytest.mark.parametrize("atoms", [1, 2, 3])
def test_xi_cross_relations(atoms):
    space, a, alg12, alg23 = _xi_algebras(atoms)
    y_plus = (a @ a) @ eh.collective_operator(space, 1, 3)
    mixed = eh.collective_operator(space, 1, 2) @ eh.collective_operator(space, 3, 2)
    rep = eh.verify_su3_cross_relations(alg12, alg23, y_plus, "xi", mixed_expected=mixed)
    assert rep.passed, rep.residuals
    assert max(rep.residuals.values()) <= 1e-12
    if atoms == 1:
        # the simplified statement: the mixed bracket vanishes outright
        assert rep.extras["mixed_vs_zero"] <= 1e-12
    else:
        # for several atoms the mixed bracket is a genuine two-atom operator
        assert rep.extras["mixed_vs_zero"] > 1e-6


@pytest.mark.parametrize("atoms", [1, 2, 3])
def test_lambda_cross_relations(atoms):
    space = eh.enumerate_basis([4], eh.EnsembleSpec(3, atoms))
    a = eh.annihilator(space, 0)
    alg13 = eh.build_deformed("13", eh.collective_inversion(space, 1, 3),
                              a @ eh.collective_operator(space, 1, 3))
    alg23 = eh.build_deformed("23", eh.collective_inversion(space, 2, 3),
                              a @ eh.collective_operator(space, 2, 3))
    transfer = eh.collective_operator(space, 1, 2) @ (
        eh.collective_operator(space, 3, 3) - eh.number_operator(space, 0))
    rep = eh.verify_su3_cross_relations(alg13, alg23, transfer, "lambda")
    assert rep.passed, rep.residuals
    assert max(rep.residuals.values()) <= 1e-12


def test_cross_relations_space_mismatch():
    space, a, alg12, alg23 = _xi_algebras(1)
    other = eh.enumerate_basis([3], eh.EnsembleSpec(3, 1))
    with pytest.raises(SpaceMismatchError):
        eh.verify_su3_cross_relations(alg12, alg23, eh.identity(other))


def test_ladder_from_structure_satisfies_identity(rng):
    # random chain-closing structure functions: phi returns to its base
    # value one step above the top, so a finite module exists
    for _ in range(5):
        length = int(rng.integers(3, 9))
        alpha = float(rng.uniform(0.2, 3.0))
        shift = float(rng.uniform(-5.0, 5.0))
        y0 = np.arange(0.0, float(length)) + shift

        def phi(y, a=alpha, lo=y0[0], hi=y0[-1] + 1.0):
            return a * (y - lo) * (hi - y) + 7.0

        alg = eh.ladder_from_structure("chain", phi, y0)
        lhs = eh.commutator(alg.xminus, alg.xplus)
        expected = np.diag([phi(v + 1) - phi(v) for v in y0])
        assert np.linalg.norm(lhs.matrix - expected) <= 1e-12
        rep = eh.ladder_relation_report(alg)
        assert rep.passed


def test_ladder_from_structure_rejects_open_chain():
    # a monotone phi cannot close any finite chain
    with pytest.raises(ValueError):
        eh.ladder_from_structure("bad", lambda y: y, np.arange(0.0, 4.0))

    # closing but dipping below the base value inside the chain
    def dipping(y):
        return (y - 0.0) * (4.0 - y) * (y - 2.5)

    with pytest.raises(ValueError):
        eh.ladder_from_structure("bad", dipping, np.arange(0.0, 4.0))


def test_chain_closure_is_relative_to_the_structure_function():
    # phi(y) = c (2y(4-y) + 7) closes the chain 0..3; a tilt of 1e-4 c y
    # leaves phi(4) - phi(0) = 4e-4 c, refused at every scale 10^k, where a
    # floor at 1 let it pass once c < 1e-5
    y0 = np.arange(0.0, 4.0)
    for k in range(-14, 15):
        c = 10.0 ** k
        eh.ladder_from_structure("closed", lambda y: c * (2 * y * (4 - y) + 7), y0)
        with pytest.raises(ValueError, match="does not close the chain"):
            eh.ladder_from_structure("open", lambda y: c * (2 * y * (4 - y) + 7) + c * 1e-4 * y, y0)


#: wrong X3 for X+ = a S+ (whose X3 is S3), as multiples of the residual
#: [X3, X+] - X+ they leave: S3 + c n leaves -c X+, 2 S3 leaves X+
_WRONG_X3 = {"S3 + n": 1.0, "S3 - 0.5 n": -0.5, "S3 + 1e-6 n": 1e-6, "2 S3": None}


@given(wrong=st.sampled_from(sorted(_WRONG_X3)))
def test_ladder_relation_is_relative_to_x_plus(wrong):
    # the residual scales with X+, so neither verdict may change when X+ is
    # scaled by 10^k, k in [-14, 14]
    space = eh.enumerate_basis([6], eh.EnsembleSpec(2, 2))
    s3, sp, _ = eh.spin_operators(space)
    xplus = eh.annihilator(space, 0) @ sp
    c = _WRONG_X3[wrong]
    x3 = 2.0 * s3 if c is None else s3 + c * eh.number_operator(space, 0)
    for k in range(-14, 15):
        scaled = 10.0 ** k * xplus
        eh.build_deformed("right", s3, scaled)
        with pytest.raises(LadderRelationError):
            eh.build_deformed("wrong", x3, scaled)


def test_structure_check_is_relative_to_the_structure():
    # X3 = S3 + 1e-10 (|0><1| + |1><0|) passes the ladder relation (its
    # residual is 1.5e-11 of ||X+||) but [S, X3] is 9.4e-12 of ||S||, S =
    # [X+, X-]: refused at every scale 10^k of X+, where a floor at 1 let it
    # pass once ||S|| < 1
    space = eh.enumerate_basis([6], eh.EnsembleSpec(2, 2))
    s3, sp, _ = eh.spin_operators(space)
    xplus = eh.annihilator(space, 0) @ sp
    tilt = np.zeros((space.dim, space.dim))
    tilt[0, 1] = tilt[1, 0] = 1e-10
    x3 = s3 + eh.OperatorMatrix(space, tilt)
    for k in range(-14, 15):
        scaled = 10.0 ** k * xplus
        eh.build_deformed("right", s3, scaled)
        with pytest.raises(LadderRelationError, match="does not commute with X3"):
            eh.build_deformed("wrong", x3, scaled)
