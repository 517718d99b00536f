"""Property tests for the structure-aware kernels.

Every operator is a stack of column maps.  A product of two stacks whose
entries are single products is composed from the stacks instead of calling
BLAS, and ``evolve`` diagonalises only the subspace the initial state can
reach; both must agree with the plain dense computation.  The exponential
and the conjugation run per connected component of the nonzero pattern:
they must agree with the dense computation too, hold the dense assembly of
their blocks bit for bit, leave exact zeros off the blocks, and let none
of their checks miss a block.  The Hermiticity, conservation and
block-leakage checks read only the nonzero entries: they must decide as the
dense formulas do and allocate less than one dense array.  What an operator
keeps (its nonzero entries, components and norm) must equal what a fresh
copy finds, and the back-rotation of ``effective_evolution`` on the reached
columns must reproduce the full dense product.  Sums of stacks must hold
the dense operation's entries bit for bit, an array made into a stack must
materialise to itself, and every reader of a stack must agree with the
dense array.  The Hermiticity and diagonality checks scale by the operator's own
size, so their verdicts do not depend on the unit.  Norms and inner
products read from the stack must have the bits of NumPy's dense
reductions, and hold no dense array.
"""

import contextlib
import dataclasses
import functools
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import effham as eh
from effham import cli, dynamics, hilbert, models, rotations
from effham.hilbert import EnsembleSpec, FockTruncation, SpaceDescriptor
from tests.conftest import REPO_ROOT

EPS = np.finfo(float).eps


def _space(dim: int) -> SpaceDescriptor:
    """A ``dim``-state space: one Fock mode, the single atom in its ground level."""
    return SpaceDescriptor(modes=(FockTruncation(dim - 1),), ensemble=EnsembleSpec(2, 1),
                           labels=tuple(((k,), (1, 0)) for k in range(dim)))


def _dense(rng, dim: int, density: float) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.where(rng.random((dim, dim)) < density, m, 0.0)


@st.composite
def products(draw, complex_diagonal: bool):
    """(space, diagonal array, dense array, diagonal-on-the-left) for one product."""
    dim = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = rng.normal(size=dim) * 10.0 ** rng.integers(-3, 4, size=dim)
    d[rng.random(dim) < 0.2] = 0.0
    if complex_diagonal:
        d = d + 1j * rng.normal(size=dim)
    x = _dense(rng, dim, draw(st.sampled_from([0.1, 0.5, 1.0])))
    return _space(dim), np.diag(d), x, draw(st.booleans())


@given(products(complex_diagonal=False))
def test_real_diagonal_factor_is_exact(case):
    space, d, x, left = case
    lhs, rhs = (d, x) if left else (x, d)
    a, b = eh.OperatorMatrix(space, lhs), eh.OperatorMatrix(space, rhs)
    assert np.array_equal((a @ b).matrix, lhs @ rhs)
    assert np.array_equal(eh.commutator(a, b).matrix, lhs @ rhs - rhs @ lhs)


@given(products(complex_diagonal=True))
def test_complex_diagonal_factor_within_ulps(case):
    space, d, x, left = case
    lhs, rhs = (d, x) if left else (x, d)
    a, b = eh.OperatorMatrix(space, lhs), eh.OperatorMatrix(space, rhs)
    dd = np.abs(np.diag(d))
    row, col = dd[:, None] * np.abs(x), np.abs(x) * dd[None, :]
    scale = row if left else col
    assert np.all(np.abs((a @ b).matrix - lhs @ rhs) <= 8 * EPS * scale)
    assert np.all(np.abs(eh.commutator(a, b).matrix - (lhs @ rhs - rhs @ lhs))
                  <= 8 * EPS * (row + col))


def test_diagonal_scan_sees_every_offdiagonal_entry():
    space = _space(5)
    ones = eh.OperatorMatrix(space, np.ones((5, 5)))
    for i in range(5):
        for j in range(5):
            if i == j:
                continue
            m = np.zeros((5, 5))
            m[i, j] = 1e-300
            for arr in (m, np.asfortranarray(m)):
                # taken for diagonal, m would scale the rows of ``ones`` by 0
                assert np.all((eh.OperatorMatrix(space, arr) @ ones).matrix[i] == 1e-300)


def _partial_permutation(rng, dim: int) -> np.ndarray:
    """Real values, negatives and exact zeros included, at most one per row and column."""
    cols = np.arange(dim) if rng.random() < 0.25 else rng.permutation(dim)
    vals = rng.normal(size=dim) * 10.0 ** rng.integers(-3, 4, size=dim)
    vals[rng.random(dim) < 0.2] = 0.0
    m = np.zeros((dim, dim))
    m[np.arange(dim), cols] = vals
    return m


@st.composite
def ladder_products(draw):
    """(space, partial permutation, partner, partial permutation on the left)."""
    dim = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    partner = draw(st.sampled_from(["real", "complex", "ladder"]))
    if partner == "ladder":
        x = _partial_permutation(rng, dim)
    else:
        x = _dense(rng, dim, draw(st.sampled_from([0.1, 0.5, 1.0])))
        x = x.real if partner == "real" else x
    if draw(st.booleans()):
        x = np.asfortranarray(x)
    return _space(dim), _partial_permutation(rng, dim), x, draw(st.booleans())


def _blas_bits(got: np.ndarray, ref: np.ndarray) -> bool:
    """Equal entries, so equal bits in every nonzero real or imaginary part,
    and every zero part +0.

    BLAS's own sign of an all-zero sum depends on how its kernel blocks
    the matrix (OpenBLAS gives -0 at some sizes, 2, 3 and 33 among them,
    and +0 at others), so a zero is checked for the canonical +0 instead.
    """
    return np.array_equal(got, ref) and not _negative_zero(got)


def _negative_zero(m: np.ndarray) -> bool:
    """Some zero real or imaginary part is -0."""
    return any(np.signbit(part[part == 0]).any() for part in (m.real, m.imag))


def _fresh_stack(op):
    """The stack the public constructor makes of ``op``'s dense array."""
    return eh.OperatorMatrix(op.space, op.matrix).ladder


@contextlib.contextmanager
def _blockwise_calls():
    """The operands of every product or commutator formed block by block
    (:func:`hilbert.blockwise`) while the block runs."""
    calls = []
    real = hilbert.blockwise
    hilbert.blockwise = lambda kernel, *ops: calls.append(ops) or real(kernel, *ops)
    try:
        yield calls
    finally:
        hilbert.blockwise = real


@contextlib.contextmanager
def _series_stacks():
    """The block stacks ``rotations._expm1`` is called with while the
    block runs, each passed on unchanged."""
    real, stacks = rotations._expm1, []
    with mock.patch.object(rotations, "_expm1", lambda b, *norm1: stacks.append(b) or real(b, *norm1)):
        yield stacks


def _same_pattern(carried, scanned) -> bool:
    """Equal values, and equal rows wherever the value is nonzero."""
    if scanned is None:
        return False
    full = scanned.values != 0
    return (np.array_equal(carried.values, scanned.values)
            and np.array_equal(carried.rows[full], scanned.rows[full]))


@given(ladder_products())
def test_ladder_factor_matches_blas_bits(case):
    space, p, x, left = case
    lhs, rhs = (p, x) if left else (x, p)
    a, b = eh.OperatorMatrix(space, lhs), eh.OperatorMatrix(space, rhs)
    for got, ref in (((a @ b).matrix, lhs @ rhs),
                     (eh.commutator(a, b).matrix, lhs @ rhs - rhs @ lhs)):
        assert got.flags.c_contiguous
        assert _blas_bits(got, ref)


@given(ladder_products(), st.sampled_from([2.0, -0.5, 1j, 0.0]))
def test_carried_pattern_equals_fresh_scan(case, scalar):
    # a stack carried through arithmetic equals the one the constructor
    # makes of its dense array: map by map where both have one map, else
    # entry by entry
    space, p, x, left = case
    a, b = eh.OperatorMatrix(space, p), eh.OperatorMatrix(space, x)
    assert len(a.ladder.rows) == 1
    for op in (a.dag(), scalar * a, (scalar * a @ a).dag(), a @ b if left else b @ a):
        fresh = _fresh_stack(op)
        if len(op.ladder.rows) == len(fresh.rows) == 1:
            assert _same_pattern(op.ladder, fresh)
        assert _same_entries(op, hilbert._materialise(fresh))


@given(ladder_products())
def test_transpose_is_the_scan_of_the_transpose(case):
    space, p, x, left = case
    # map by map where the transpose has one map; the order of the nonzeros
    # of a row with several is the stack's, so entry by entry there
    for m in (p, x):
        op = eh.OperatorMatrix(space, m)
        t, fresh = op.ladder.transpose(), eh.OperatorMatrix(space, m.T)
        if len(t.rows) == 1:
            assert _same_pattern(t, fresh.ladder) and _same_pattern(t.transpose(), op.ladder)
        assert _same_entries(fresh, hilbert._materialise(t))
        assert _same_entries(op, hilbert._materialise(t.transpose()))


def _bits(m: np.ndarray) -> bytes:
    """The entries bit for bit, signs of zero included, in row-major order."""
    return np.ascontiguousarray(m).tobytes()


@pytest.mark.parametrize("scalar", [np.inf, -np.inf, np.nan, complex(np.inf, 1.0)])
def test_nonfinite_scalar_product_is_the_dense_product(scalar):
    # a non-finite factor meets every +0 off the stack, as in the dense array
    rng = np.random.default_rng(7)
    space = _space(9)
    for op in (eh.OperatorMatrix(space, _dense(rng, 9, 0.3)), eh.annihilator(space)):
        with np.errstate(invalid="ignore"):
            ref = _bits(op.matrix * scalar)
            assert _bits((op * scalar).matrix) == ref and _bits((scalar * op).matrix) == ref


def _off_pattern(*ops) -> np.ndarray:
    """The entries off the stacks of every one of ``ops``."""
    off = np.ones((ops[0].dim, ops[0].dim), dtype=bool)
    for op in ops:
        rows = op.ladder.rows
        placed = rows >= 0  # an unused entry is nowhere
        off[rows[placed], np.broadcast_to(np.arange(op.dim), rows.shape)[placed]] = False
    return off


#: unary steps that keep an operator one map but change the signs and
#: the places of its values
_SHAPES = {"neg": lambda op: -op, "dag": lambda op: op.dag(), "times -0.5": lambda op: -0.5 * op,
           "times 1j": lambda op: 1j * op, "times 2": lambda op: 2.0 * op}


@st.composite
def pattern_operands(draw):
    """(a, b, mask): one-map stacks made from random partial
    permutations with real values, zeros and negatives included, by the
    same unary steps; b has its nonzeros where a has (or at a subset of
    those places) half of the time."""
    dim = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    space = _space(dim)
    p = _partial_permutation(rng, dim)
    if draw(st.booleans()):
        # + 0.0 makes every zero +0, which the constructor does not hold
        q = np.where(rng.random((dim, dim)) < 0.8, p * rng.normal(size=(dim, dim)), 0.0) + 0.0
    else:
        q = _partial_permutation(rng, dim)
    eye = eh.identity(space)
    a, b = eh.OperatorMatrix(space, p) @ eye, eh.OperatorMatrix(space, q) @ eye
    for step in draw(st.lists(st.sampled_from(sorted(_SHAPES)), max_size=3)):
        a, b = _SHAPES[step](a), _SHAPES[step](b)
    b = _SHAPES[draw(st.sampled_from(sorted(_SHAPES)))](b)
    assert len(a.ladder.rows) == len(b.ladder.rows) == 1
    return a, b, rng.random(dim) < 0.7


def _same_entries(op, ref: np.ndarray) -> bool:
    """``op.entries()`` lists the nonzeros of ``ref`` as ``np.nonzero`` does."""
    r, c, v = op.entries()
    return bool(np.array_equal(np.stack([r, c]), np.stack(np.nonzero(ref))) and np.array_equal(v, ref[r, c]))


def _shared_places(a, b) -> bool:
    live = (a.matrix != 0) | (b.matrix != 0)
    return bool(np.all(live.sum(axis=0) <= 1) and np.all(live.sum(axis=1) <= 1))


@given(pattern_operands())
def test_pattern_only_results_match_dense_arithmetic(case):
    a, b, mask = case
    x, y = np.array(a.matrix), np.array(b.matrix)  # dense copies in the same order
    entrywise = [(a.dag(), x.conj().T), (-0.5 * a, x * complex(-0.5)), (0.0 * a, x * 0j), (-a, -x),
                 (a + b, x + y), (a - b, x - y), (a.project(mask), np.where(np.outer(mask, mask), x, 0.0))]
    for got, ref in entrywise:
        m = got.matrix
        assert m.dtype == complex and not m.flags.writeable
        assert np.array_equal(m, ref) and m.flags.c_contiguous
        assert not _negative_zero(m[_off_pattern(got)])
        assert _same_entries(got, ref)
        if len(got.ladder.rows) == 1 and _shared_places(a, b):
            assert _same_pattern(got.ladder, _fresh_stack(got))
    with _blockwise_calls() as calls:  # single products only: composed, not block-wise
        products = ((a @ b, x @ y), (eh.commutator(a, b), x @ y - y @ x))
    assert not calls
    for got, ref in products:
        m = got.matrix
        assert m.dtype == complex and not m.flags.writeable and m.flags.c_contiguous
        assert _blas_bits(m, ref)
        if len(got.ladder.rows) == 1:
            assert _same_pattern(got.ladder, _fresh_stack(got))


@given(pattern_operands())
def test_pattern_only_readers_match_dense_bits(case):
    a, b, mask = case
    x, y = np.array(a.matrix), np.array(b.matrix)
    dense = eh.OperatorMatrix(a.space, x)
    rows, cols = np.flatnonzero(mask), np.flatnonzero(~mask)
    assert a.norm() == np.linalg.norm(x)
    assert a.diagonal().tobytes() == x.diagonal().tobytes()
    assert a.offdiagonal_norm() == dense.offdiagonal_norm()
    assert a.inner(b) == np.sum(np.conj(x) * y)
    assert _bits(a.block(rows)) == _bits(x[np.ix_(rows, rows)])
    assert _bits(a.block(rows, cols)) == _bits(x[np.ix_(rows, cols)])
    r, c, v = a.entries()
    assert np.array_equal(np.stack([r, c]), np.stack(np.nonzero(x))) and np.array_equal(v, x[r, c])
    psi = np.linspace(1.0, 2.0, a.dim) + 0.5j
    assert np.allclose(a.apply(psi), x @ psi, rtol=1e-15, atol=0)
    assert a.is_hermitian() == dense.is_hermitian()
    h = a + a.dag()
    assert h.is_hermitian() and h.is_hermitian() == eh.OperatorMatrix(a.space, h.matrix).is_hermitian()


def test_sum_with_two_nonzeros_in_one_row_is_a_stack():
    # one map whose two nonzeros share row 0: a product with it as the left
    # factor sums two products at (0, j), so it is formed block-wise, and its
    # action on a state sums the row
    space = _space(2)
    a = hilbert._pattern_operator(space, hilbert.LadderPattern(np.array([[0, 0]]),
                                                               np.array([[1.0 + 0j, 0.0]])))
    b = hilbert._pattern_operator(space, hilbert.LadderPattern(np.array([[1, 0]]),
                                                               np.array([[0.0, 2.0 + 0j]])))
    total = a + b
    ref = np.array([[1.0, 2.0], [0.0, 0.0]])
    assert len(total.ladder.rows) == 1
    assert np.array_equal(total.matrix, ref) and len(total.dag().ladder.rows) == 2
    x = np.array([[0.5, -1.0], [3.0, 0.25]])
    with _blockwise_calls() as calls:
        assert np.array_equal((total @ eh.OperatorMatrix(space, x)).matrix, ref @ x)
    assert len(calls) == 1
    assert np.array_equal(total.apply(np.array([1.0, 1j])), ref @ np.array([1.0, 1j]))


def test_cancelled_entry_keeps_its_place():
    # a - b cancels to +0 at (1, 1), where the entries off its pattern are
    # -0; c, all zeros, points its empty column 1 at row 0, so the sum
    # must keep that +0 where it is
    space = _space(2)
    eye = eh.identity(space)
    a = -1.0 * (eh.OperatorMatrix(space, np.diag([0.0, -1.0])) @ eye)
    b = eh.OperatorMatrix(space, np.eye(2)) @ eye
    c = -1.0 * (eh.OperatorMatrix(space, np.zeros((2, 2))) @ eye)
    got = (a - b) + c
    assert _bits(got.matrix) == _bits((a.matrix - b.matrix) + c.matrix)


def test_zero_products_meet_nothing():
    # both columns of a point at row 0; b's column 0 holds 1 in row 0 and
    # an explicit zero in row 1, so a @ b forms 1 * 1 and 1 * 0 at (0, 0):
    # one nonzero product, which stays a composed stack, not a block-wise sum
    space = _space(2)
    a = hilbert._pattern_operator(space, hilbert.LadderPattern(np.array([[0, 0]]), np.ones((1, 2)) + 0j))
    b = hilbert._pattern_operator(space, hilbert.LadderPattern(np.array([[0, 1], [1, -1]]),
                                                               np.array([[1.0, 2.0], [0.0, 0.0]]) + 0j))
    with _blockwise_calls() as calls:
        got = a @ b
    assert not calls and np.array_equal(got.matrix, a.matrix @ b.matrix)
    # where every product is zero, one map is left, and the product reads as 0
    c = eh.OperatorMatrix(space, [[1.0, 0.0], [1.0, 0.0]]) @ eh.OperatorMatrix(space, [[0.0, 0.0], [0.0, 1.0]])
    assert len(c.ladder.rows) == 1 and not c.matrix.any() and not c.apply(np.ones(2)).any()


def test_hermiticity_from_pattern_counts_each_entry_once():
    # column 1 is empty and its index points at row 0, while row 1 holds
    # the only off-diagonal nonzero beside a unit diagonal entry:
    # ||m - m^H|| = 9.9e-13 sits just inside 1e-12 of ||m|| = 1, and
    # counting the lone entry twice would give 1.4e-12
    space = _space(3)
    m = np.array([[0.0, 0.0, 0.0], [7e-13, 0.0, 0.0], [0.0, 0.0, 1.0]])
    op = eh.OperatorMatrix(space, m) @ eh.identity(space)
    assert len(op.ladder.rows) == 1
    assert op.is_hermitian() and eh.OperatorMatrix(space, m).is_hermitian()
    assert not op.is_hermitian(0.7e-12)


@pytest.mark.parametrize("scenario", ["cascade-first-stage", "four-level-three-photon"])
def test_build_and_closed_form_scan_no_array(four_level_model, scenario, monkeypatch):
    # only the public constructor turns an array into a stack; the library
    # builds its stacks knowing their entries
    scanned = []
    real_scan = hilbert._array_stack

    def spy(m):
        scanned.append(m.shape)
        return real_scan(m)

    monkeypatch.setattr(hilbert, "_array_stack", spy)
    model = eh.build(four_level_model.spec, require_resonance=True)
    eh.closed_form_effective(model, eh.EffectiveScenario(scenario))
    assert scanned == []
    eh.OperatorMatrix(model.space, np.eye(model.space.dim))
    assert len(scanned) == 1


def test_ladder_scan_sees_every_second_nonzero():
    # the constructor keeps both nonzeros: two maps where they share a
    # column, one map where they share a row
    space = _space(4)
    for j in range(4):
        for i in range(4):
            for k in range(4):
                if i == k:
                    continue
                m = np.zeros((4, 4))
                m[i, j], m[k, j] = 1.0, 1e-300  # two nonzeros in column j
                for arr, maps in ((m, 2), (m.T, 1), (np.asfortranarray(m), 2),
                                  (np.asfortranarray(m.T), 1)):
                    op = eh.OperatorMatrix(space, arr)
                    assert len(op.ladder.rows) == maps and len(op.entries()[0]) == 2
                    assert _bits(op.matrix) == _bits(np.array(arr, dtype=complex))


@st.composite
def block_hamiltonians(draw):
    """(space, Hermitian h block diagonal under a permutation, its blocks as masks).

    The blocks are a few, one block of the whole space, or all single states.
    """
    dim = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_cuts = draw(st.integers(1, min(5, dim - 1)) | st.sampled_from([0, dim - 1]))
    cuts = np.sort(rng.choice(np.arange(1, dim), size=n_cuts, replace=False))
    perm = rng.permutation(dim)
    h = np.zeros((dim, dim), dtype=complex)
    masks = []
    for idx in np.split(perm, cuts):
        a = _dense(rng, len(idx), 1.0)
        h[np.ix_(idx, idx)] = a + a.conj().T
        mask = np.zeros(dim, dtype=bool)
        mask[idx] = True
        masks.append(mask)
    return _space(dim), h, masks


def _full_eigh_reference(h: np.ndarray, psi: np.ndarray, t: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (np.exp(-1j * np.outer(t, w)) * (v.conj().T @ psi)) @ v.T


TIMES = np.linspace(0.0, 3.0, 7)


@given(block_hamiltonians(), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_evolve_stays_in_reachable_blocks(case, seed, two_blocks):
    space, h, masks = case
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(masks), size=min(len(masks), 2 if two_blocks else 1), replace=False)
    support = np.any([masks[k] for k in chosen], axis=0)
    psi = np.where(support, rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim), 0.0)
    psi /= np.linalg.norm(psi)
    traj = eh.evolve(eh.OperatorMatrix(space, h), psi, TIMES)
    ref = _full_eigh_reference(h, psi, TIMES)
    assert np.max(np.abs(traj.states - ref)) <= 1e-12
    assert np.all(traj.states[:, ~support] == 0)


@given(st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
def test_evolve_diagonal_closed_form(dim, seed):
    rng = np.random.default_rng(seed)
    d = rng.normal(size=dim)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    h = np.diag(d)
    traj = eh.evolve(eh.OperatorMatrix(_space(dim), h), psi, TIMES)
    assert np.array_equal(traj.states, np.exp(-1j * np.outer(TIMES, d)) * psi)
    assert np.max(np.abs(traj.states - _full_eigh_reference(h, psi, TIMES))) <= 1e-12


@pytest.fixture
def eigh_sizes(monkeypatch):
    """Dimensions of every matrix ``np.linalg.eigh`` is called on."""
    sizes = []
    real_eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])  # the size of each matrix of a stack
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return sizes


def test_dicke_basis_state_diagonalises_its_block_only(dicke_model, eigh_sizes):
    space = dicke_model.space
    start = space.index((3,), (1, 0))
    block = next(b for b in eh.conserved_blocks(dicke_model) if start in b.indices)
    psi = eh.basis_state(space, photons=(3,), occupations=(1, 0))
    eh.evolve(dicke_model.h_int, psi, TIMES)
    assert eigh_sizes and max(eigh_sizes) <= len(block.indices) < space.dim


def test_dicke_kernels_see_blocks_only(dicke_model, eigh_sizes):
    # neither the exponential's series nor an eigh sees more than one block
    largest = max(len(b.indices) for b in eh.conserved_blocks(dicke_model))
    with _series_stacks() as stacks:
        forms = eh.closed_form_effective(dicke_model, eh.EffectiveScenario("dicke-dispersive"))
        eh.conjugate(dicke_model.h_int, forms.rotation)
    psi = eh.basis_state(dicke_model.space, photons=(3,), occupations=(1, 0))
    eh.evolve(dicke_model.h_int, psi, TIMES)
    series_sizes = [b.shape[-1] for b in stacks]
    assert series_sizes and max(series_sizes) <= largest < dicke_model.space.dim
    assert eigh_sizes and max(eigh_sizes) <= largest


def test_dicke_effective_evolution_exponentiates_the_reached_block_only():
    # A = 10, n_max = 100 (dim 1111, 101 excitation blocks) at a dicke-ladder
    # benchmark setting: the spectra need no exponential, and the evolution
    # from one basis state exponentiates the one block its state lies in,
    # with the bits of the whole exponential
    atoms, n_max, delta = 10, 100, 0.6
    g = 0.2 * abs(delta) / (atoms * math.sqrt(n_max + 1))
    model = eh.build(eh.ModelSpec(kind="dicke", atoms=atoms, n_max=n_max, omega_field=10.0,
                                  omega0=10.0 + delta, g=g))
    scenario = eh.EffectiveScenario("dicke-dispersive")
    psi = eh.basis_state(model.space, (n_max // 2,), level=1)
    with _series_stacks() as stacks:
        forms = eh.closed_form_effective(model, scenario)
        eh.compare_spectra(model.h_int, forms.corrected, eh.block_masks(model, skip_truncated=True))
        assert stacks == []
        got = eh.effective_evolution(forms.corrected, psi, TIMES, rotation=forms.rotation)
    gen, _ = eh.eliminating_generator(model)
    (reached,) = [part for part in hilbert.components(gen) if np.flatnonzero(psi)[0] in part]
    assert [b.shape for b in stacks] == [(1, len(reached), len(reached))] and len(reached) == atoms + 1
    full = eh.closed_form_effective(_unkept(model), scenario).rotation
    full.ladder  # every block formed before the evolution reads it
    ref = eh.effective_evolution(forms.corrected, psi, TIMES, rotation=full)
    assert _bits(got.states) == _bits(ref.states)


def test_spectrum_run_exponentiates_nothing(tmp_path):
    report = tmp_path / "r.csv"
    with _series_stacks() as stacks:
        assert cli.main(["run", str(REPO_ROOT / "configs" / "dicke_spectrum.cfg"), "--output", str(report)]) == 0
    assert report.is_file() and stacks == []


def test_dicke_effective_evolution_needs_no_eigh(dicke_model, monkeypatch):
    forms = eh.closed_form_effective(dicke_model, eh.EffectiveScenario("dicke-dispersive"))
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(a))
    psi = eh.basis_state(dicke_model.space, photons=(3,), occupations=(1, 0))
    traj = eh.effective_evolution(forms.corrected, psi, TIMES, rotation=forms.rotation)
    assert not calls
    assert traj.norm_drift() < 1e-12


def test_dicke_model_keeps_patterned_operators_without_arrays(dicke_model):
    term = dicke_model.interactions[0]
    alg = term.algebra
    held = [dicke_model.h_free, dicke_model.h_diag, dicke_model.conserved["N"],
            *dicke_model.operators.values(), alg.x3, alg.xplus, alg.xminus, alg.structure,
            dicke_model.h_int, term.coupling]
    assert all(len(op.ladder.rows) <= 3 for op in held)
    # diagonal, raising and lowering: up to three nonzeros per column; the
    # structure operator [X+, X-] is diagonal, one map
    assert len(dicke_model.h_int.ladder.rows) == 3 and len(term.coupling.ladder.rows) == 2
    assert len(alg.structure.ladder.rows) == 1


def test_dicke_analysis_materialises_no_pattern_only_operator(dicke_model, monkeypatch):
    forms = eh.closed_form_effective(dicke_model, eh.EffectiveScenario("dicke-dispersive"))
    assert len(forms.corrected.ladder.rows) == 1
    built = []
    real = hilbert._materialise

    def spy(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(hilbert, "_materialise", spy)
    report = eh.compare_spectra(dicke_model.h_int, forms.corrected, eh.block_masks(dicke_model))
    psi = eh.basis_state(dicke_model.space, photons=(3,), occupations=(1, 0))
    eh.evolve(dicke_model.h_int, psi, TIMES)
    eh.effective_evolution(forms.corrected, psi, TIMES, rotation=forms.rotation)
    assert report.blocks and not built


def _same_block(masks) -> np.ndarray:
    return np.any([np.outer(m, m) for m in masks], axis=0)


@given(block_hamiltonians(), st.sampled_from([1e-3, 0.3, 3.0]),
       st.booleans(), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_blockwise_exponential_and_conjugation_match_dense(case, size, anti, seed, patterned):
    space, h, masks = case
    a = size * h / np.linalg.norm(h) * (1j if anti else 1.0)
    w, v = np.linalg.eigh(-1j * a if anti else a)
    ref = (v * np.exp(1j * w if anti else w)) @ v.conj().T
    op = eh.OperatorMatrix(space, a)
    parts = hilbert.components(op)
    assert [tuple(p) for p in parts] == sorted(tuple(np.flatnonzero(k)) for k in masks)
    got = eh.matrix_exponential(op)
    m = got.matrix
    assert np.max(np.abs(m - ref)) <= 1e-13 * max(1.0, np.linalg.norm(a))
    # the stack holds the dense assembly of the blocks bit for bit, the
    # signs of its zeros included, in as many maps as the largest block
    assert _bits(m) == _bits(_assembled(op, [op], lambda b: rotations._expm1(b[0]) + np.eye(b.shape[-1])))
    assert len(got.ladder.rows) == max(len(p) for p in parts)
    off = m[~_same_block(masks)]
    assert np.all(off == 0) and not np.signbit(off.real).any() and not np.signbit(off.imag).any()
    if not anti:
        return
    assert got.is_unitary(1e-12)
    rng = np.random.default_rng(seed)
    if patterned:  # a one-map operand
        x = eh.OperatorMatrix(space, _partial_permutation(rng, space.dim)) @ eh.identity(space)
        assert len(x.ladder.rows) == 1
    else:  # its own sparse pattern joins blocks of u
        x = _dense(rng, space.dim, 0.05)
        x = eh.OperatorMatrix(space, x + x.conj().T)
    out = eh.conjugate(x, got).matrix
    assert np.max(np.abs(out - m @ x.matrix @ m.conj().T)) <= 1e-13 * max(1.0, x.norm())
    assert _bits(out) == _bits(_assembled(x, [got, x], lambda b: b[0] @ b[1] @ rotations._adjoint(b[0])))


def _assembled(op, ops, form) -> np.ndarray:
    """The dense reference of a block-wise result: ``form`` of the blocks of
    ``ops`` on each stack of components of their joint pattern, written
    into an array of +0."""
    out = np.zeros((op.dim, op.dim), dtype=complex)
    for _, idx in hilbert.size_groups(hilbert.components(*ops)):
        out[idx[:, :, None], idx[:, None, :]] = form(np.array([o.block(idx) for o in ops]))
    return out


@st.composite
def patterned_generators(draw):
    """(space, array): blocks of 1-4 states under a random permutation,
    sizes repeating so that several blocks share a size group, each block
    drawn at its own scale and density, anti-Hermitian or not."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    anti = draw(st.booleans())
    dim = sum(sizes)
    a = np.zeros((dim, dim), dtype=complex)
    for idx in np.split(rng.permutation(dim), np.cumsum(sizes)[:-1]):
        b = _dense(rng, len(idx), draw(st.sampled_from([0.5, 1.0]))) * 10.0 ** rng.uniform(-4, 0.7)
        a[np.ix_(idx, idx)] = b - b.conj().T if anti else b
    return _space(dim), a


@st.composite
def reads(draw, dim: int):
    """A read of an operator: ("apply", vector), ("block", rows, cols) or
    ("stack", index stack), each on a random support."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["apply", "block", "stack"]))
    if kind == "apply":
        live = rng.random(dim) < draw(st.sampled_from([0.0, 0.1, 0.5]))
        return kind, np.where(live, rng.normal(size=dim) + 1j * rng.normal(size=dim), 0.0)
    if kind == "block":
        return (kind, rng.choice(dim, size=rng.integers(0, dim + 1), replace=False),
                rng.choice(dim, size=rng.integers(0, dim + 1), replace=False))
    width = int(rng.integers(1, dim + 1))
    return kind, np.array([rng.choice(dim, size=width, replace=False)
                           for _ in range(rng.integers(1, 4))])


def _read(op, read):
    kind, *args = read
    return op.apply(*args) if kind == "apply" else op.block(*args)


def _touched(labels: np.ndarray, read) -> set:
    """The components a read writes: those of the support of an ``apply``,
    those that meet both the rows and the columns of a ``block``."""
    kind, *args = read
    if kind == "apply":
        return set(labels[np.flatnonzero(args[0])].tolist())
    rows, cols = args[0], args[-1]
    return set(labels[rows.ravel()].tolist()) & set(labels[cols.ravel()].tolist())


@settings(max_examples=60)
@given(patterned_generators(), st.data())
def test_partial_reads_give_the_bits_of_the_whole_exponential(case, data):
    # any order of apply and block reads, then a full read, gives the bits
    # of the exponential formed at once, each size group whole; each read
    # exponentiates the blocks of the components it touches, once
    space, a = case
    op = eh.OperatorMatrix(space, a)
    whole = hilbert.blockwise(lambda b: rotations._expm1(b) + np.eye(b.shape[-1]), op)
    labels = hilbert.component_labels(op)
    formed: set = set()
    with _series_stacks() as stacks:
        got = eh.matrix_exponential(op)
        for read in data.draw(st.lists(reads(space.dim), max_size=5)):
            assert _bits(_read(got, read)) == _bits(_read(whole, read))
            formed |= _touched(labels, read)
            assert sum(map(len, stacks)) == len(formed)
        m = got.matrix
    assert sum(map(len, stacks)) == len(set(labels.tolist()))
    assert _bits(m) == _bits(whole.matrix)
    assert np.array_equal(got.ladder.rows, whole.ladder.rows)
    assert _bits(got.ladder.values) == _bits(whole.ladder.values)


@settings(max_examples=20)
@given(patterned_generators(), st.sampled_from([np.nan, np.inf, complex(0, -np.inf)]),
       st.integers(0, 2 ** 32 - 1))
def test_nonfinite_generator_raises_where_it_is_exponentiated(case, bad, seed):
    space, a = case
    i, j = np.random.default_rng(seed).integers(0, space.dim, size=2)
    a[i, j] = bad
    with pytest.raises(ValueError, match="non-finite"):
        eh.matrix_exponential(eh.OperatorMatrix(space, a))


STAGED = pytest.mark.parametrize("fixture, scenario", [("xi_far_level_model", "xi-far-level"),
                                                       ("four_level_model", "four-level-three-photon")])


@STAGED
def test_stage_product_is_formed_where_it_is_read(fixture, scenario, request, monkeypatch):
    # the total rotation of two or three stages, read from one basis state,
    # writes the blocks of that state's component only and exponentiates
    # nothing: every stage was read whole when the product was made; read
    # whole, it has the bits of the stage product formed at once
    model = _unkept(request.getfixturevalue(fixture))
    generators, stages, exponential = [], [], rotations.matrix_exponential
    monkeypatch.setattr(rotations, "matrix_exponential",
                        lambda g: generators.append(g) or stages.append(exponential(g)) or stages[-1])
    forms = eh.closed_form_effective(model, eh.EffectiveScenario(scenario))
    start = model.space.dim // 2
    psi = np.zeros(model.space.dim, dtype=complex)
    psi[start] = 1.0
    with _series_stacks() as stacks:
        moved = forms.rotation.apply(psi)
    assert len(stages) > 1 and forms.rotation is not stages[-1]
    assert stacks == []
    joint = hilbert.component_labels(*generators)
    written = ~forms.rotation._unformed.left
    assert np.array_equal(written, joint == joint[start]) and written.sum() < model.space.dim
    whole = hilbert.blockwise(lambda *b: functools.reduce(np.matmul, reversed(b)), *stages)
    assert _bits(moved) == _bits(whole.apply(psi))
    assert _bits(forms.rotation.matrix) == _bits(whole.matrix)
    assert np.array_equal(forms.rotation.ladder.rows, whole.ladder.rows)


@STAGED
def test_no_operator_waits_on_the_blocks_of_another(fixture, scenario, request, monkeypatch):
    # every operator whose blocks are formed on read holds its operands'
    # stacks, every block written, and no operand
    model = _unkept(request.getfixturevalue(fixture))
    pending, real = [], hilbert._pattern_operator
    monkeypatch.setattr(hilbert, "_pattern_operator",
                        lambda space, ladder, unformed=None: pending.append(unformed) or real(space, ladder, unformed))
    eh.closed_form_effective(model, eh.EffectiveScenario(scenario))
    sources = [src for unformed in pending if unformed is not None for src in unformed.sources]
    assert sources and all(isinstance(src, hilbert.LadderPattern) for src in sources)


def _with_one_bad_block(dicke_model, bad):
    """The Dicke rotation with the block of the vacuum, its smallest
    component and a state no other state is joined to, replaced."""
    forms = eh.closed_form_effective(dicke_model, eh.EffectiveScenario("dicke-dispersive"))
    block = min(eh.conserved_blocks(dicke_model), key=lambda b: len(b.indices))
    assert len(block.indices) == 1
    idx = np.array(block.indices)
    u = np.array(forms.rotation.matrix)
    u[np.ix_(idx, idx)] = bad(u[np.ix_(idx, idx)])
    return eh.OperatorMatrix(dicke_model.space, u)


@pytest.mark.parametrize("bad", [lambda b: (1 + 1e-8) * b, lambda b: 0 * b,
                                 lambda b: np.full_like(b, np.nan)],
                         ids=["scaled", "lost state", "nan"])
def test_conjugate_sees_one_nonunitary_block(dicke_model, bad):
    eh.conjugate(dicke_model.h_int, _with_one_bad_block(dicke_model, lambda b: b))  # passes
    with pytest.raises(ValueError, match="unitary"):
        eh.conjugate(dicke_model.h_int, _with_one_bad_block(dicke_model, bad))


def test_nonnormal_input_exponentiates():
    space = _space(3)
    jordan = np.diag([1.0, 1.0], k=1)  # nilpotent: exp is 1 + J + J^2 / 2
    out = eh.matrix_exponential(eh.OperatorMatrix(space, jordan)).matrix
    assert np.allclose(out, np.eye(3) + jordan + jordan @ jordan / 2, rtol=0, atol=1e-15)


@pytest.mark.parametrize("pair, lone", [(np.array([[0.2, 0.1j], [-0.1j, -0.3]]), 0.5 + 0.5j),
                                        (np.array([[0.2j, 0.1], [-0.1, -0.3j]]), 0.5)],
                         ids=["hermitian pair", "anti-hermitian pair"])
def test_mixed_blocks_exponentiate(pair, lone):
    # neither Hermitian nor anti-Hermitian as a whole, though the pair is one of them
    m = np.zeros((3, 3), dtype=complex)
    m[:2, :2], m[2, 2] = pair, lone
    out = eh.matrix_exponential(eh.OperatorMatrix(_space(3), m)).matrix
    assert abs(out[2, 2] - np.exp(lone)) <= 1e-15
    assert np.max(np.abs(out[:2, :2] - scipy.linalg.expm(pair))) <= 1e-15


@pytest.mark.parametrize("where", [(3, 3), (2, 4)], ids=["lone state", "own pair"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_nonfinite_entry_in_any_block_raises(bad, where):
    m = np.zeros((5, 5), dtype=complex)
    m[0, 1], m[1, 0] = 0.3, -0.3  # one anti-Hermitian block; the bad entry forms another
    m[where] = bad
    with pytest.raises(ValueError, match="non-finite"):
        eh.matrix_exponential(eh.OperatorMatrix(_space(5), m))


# -- checks that read the nonzeros --------------------------------------------

def _hermitian_reference(m: np.ndarray, tol: float) -> bool:
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails
        return bool(np.linalg.norm(m - m.conj().T) <= tol * np.linalg.norm(m))


_HERMITICITY_CASES = ["hermitian", "lone entry", "lone 0.8 tol", "defect 0.1 tol", "defect 10 tol",
                      "nan", "inf", "zero", "pattern"]


@st.composite
def hermiticity_cases(draw):
    """(space, array, tol): Hermitian arrays, dense or with a ladder
    pattern, and the same with one lone or perturbed entry, a defect just
    inside or well outside ``tol``, or a non-finite entry."""
    dim = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(_HERMITICITY_CASES))
    tol = draw(st.sampled_from([1e-12, 1e-10, 1e-6]))
    if kind == "pattern" or draw(st.booleans()):
        p = _partial_permutation(rng, dim) * np.exp(1j * rng.normal(size=dim))
        h = p + p.conj().T if draw(st.booleans()) else p
    else:
        x = _dense(rng, dim, draw(st.sampled_from([0.1, 0.5, 1.0])))
        h = x + x.conj().T  # exactly Hermitian
    i, j = rng.integers(0, dim, size=2)
    if kind == "lone entry" and i != j:
        h[i, j], h[j, i] = 1.0 + rng.normal(), 0.0
    elif kind == "lone 0.8 tol" and i != j:
        # inside tol on its own, outside once its empty mirror counts too
        h[i, j] = h[j, i] = 0.0
        h[i, j] = 0.8 * tol * np.linalg.norm(h)
    elif kind.startswith("defect"):
        size = 0.1 if kind == "defect 0.1 tol" else 10.0
        h[i, j] += size * tol * np.linalg.norm(h) * (1.0 if i != j else 1j)
    elif kind in ("nan", "inf"):
        h[i, j] = np.nan if kind == "nan" else draw(st.sampled_from([np.inf, -np.inf, 1j * np.inf]))
        if draw(st.booleans()):
            h[j, i] = np.conj(h[i, j])
    elif kind == "zero":
        h = np.zeros((dim, dim), dtype=complex)
    return _space(dim), h, tol


@given(hermiticity_cases())
def test_hermiticity_from_nonzeros_matches_dense_reference(case):
    space, m, tol = case
    # one map for the arrays with a ladder pattern, several for the others
    assert eh.OperatorMatrix(space, m).is_hermitian(tol) == _hermitian_reference(m, tol)


def test_entries_scan_lists_nonzeros_in_nonzero_order():
    m = _dense(np.random.default_rng(5), 9, 0.4)
    m[2, 3] = -0.0  # a signed zero is no entry, though the stack holds it
    for arr in (m, np.asfortranarray(m), m.T):
        op = eh.OperatorMatrix(_space(9), arr)
        assert _bits(op.matrix) == _bits(arr)
        r, c, v = op.entries()
        assert np.array_equal(np.stack([r, c]), np.stack(np.nonzero(arr)))
        assert np.array_equal(v, arr[r, c])


def _leakage_per_mask(ops, masks) -> float:
    """The block leakage as one gather per mask: ``max_b ||h[b, ~b]||``
    relative to ``||h||``, the larger over ``ops``."""
    leakage = 0.0
    for h in ops:
        out = max(float(np.linalg.norm(h.block(np.flatnonzero(m), np.flatnonzero(~m)))) for m in masks)
        if out:
            leakage = max(leakage, out / h.norm())
    return leakage


@st.composite
def leakage_cases(draw):
    """(space, h_exact, h_eff, blocks, leaks): two Hermitian arrays block
    diagonal in a random partition, optionally with couplings between its
    parts, and as blocks the parts, all of them or some left out."""
    dim = draw(st.integers(2, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    part = rng.integers(0, draw(st.integers(1, 12)), size=dim)  # more than 8 parts too
    same = part[:, None] == part[None, :]
    arrays = []
    for storage in draw(st.lists(st.sampled_from(["dense", "pattern"]), min_size=2, max_size=2)):
        if storage == "pattern":
            m = np.diag(rng.normal(size=dim)).astype(complex)
        else:
            x = _dense(rng, dim, draw(st.sampled_from([0.3, 1.0])))
            m = np.where(same, x + x.conj().T, 0.0)
        arrays.append(m)
    leaks = draw(st.booleans())
    if leaks:
        i, j = rng.integers(0, dim, size=2)
        arrays[0][i, j] += 10.0 ** rng.integers(-14, 1)
        arrays[0][j, i] = np.conj(arrays[0][i, j])
    blocks = [part == k for k in np.unique(part)]
    if draw(st.booleans()):  # a partition with some parts left out: states in no block
        kept = rng.random(len(blocks)) < 0.5
        kept[rng.integers(0, len(blocks))] = True  # one block at least
        blocks = [b for b, k in zip(blocks, kept) if k]
    if draw(st.booleans()):
        blocks = [np.flatnonzero(b) for b in blocks]  # index lists
    return _space(dim), arrays[0], arrays[1], blocks, leaks


@given(leakage_cases())
def test_block_leakage_matches_per_mask_gathers(case):
    space, x, y, blocks, may_leak = case
    ops = [eh.OperatorMatrix(space, x), eh.OperatorMatrix(space, y)]
    masks = [np.isin(np.arange(space.dim), b) if b.dtype != bool else b for b in blocks]
    ref = _leakage_per_mask(ops, masks)
    got = eh.compare_spectra(*ops, blocks, block_tol=np.inf).block_leakage
    assert got == pytest.approx(ref, rel=1e-14, abs=0)
    if not may_leak:
        assert got == 0.0


def test_block_diagonal_pair_leaks_exactly_zero(dicke_model):
    forms = eh.closed_form_effective(dicke_model, eh.EffectiveScenario("dicke-dispersive"))
    for h_eff in (forms.corrected, eh.conjugate(dicke_model.h_int, forms.rotation)):
        report = eh.compare_spectra(dicke_model.h_int, h_eff, eh.block_masks(dicke_model))
        assert report.block_leakage == 0.0


@given(leakage_cases(), st.integers(-170, 170), st.integers(-14, 14))
def test_block_leakage_is_unit_free(case, two, ten):
    # relative to ||h|| alone: a power of two scales every norm exactly, and
    # any other factor moves the ratio by its roundoff only
    space, x, y, blocks, _ = case
    ops = [eh.OperatorMatrix(space, x), eh.OperatorMatrix(space, y)]
    base = eh.compare_spectra(*ops, blocks, block_tol=np.inf).block_leakage
    assume(base > 0)
    for c, rel in ((2.0 ** two, 0.0), (10.0 ** ten, 1e-14)):
        got = eh.compare_spectra(*(c * op for op in ops), blocks, block_tol=np.inf).block_leakage
        assert got == pytest.approx(base, rel=rel, abs=0)


def _compare_per_mask(h_exact, h_eff, blocks):
    """``compare_spectra`` as a loop over one mask per block, the reference
    its labels must reproduce: the report's fields, floats as hex strings."""
    masks = []
    for blk in blocks:
        sel = np.asarray(blk)
        m = np.zeros(h_exact.dim, dtype=bool)
        if sel.size:
            m[sel] = True
        masks.append(m)
    leakage = 0.0
    for h in (h_exact, h_eff):
        rows, cols, v = h.entries()
        out = max(float(np.linalg.norm(v[m[rows] & ~m[cols]])) for m in masks)
        leakage = max(leakage, out / h.norm() if out else 0.0)
    idx = [np.flatnonzero(m) for m in masks]
    spectra = {}
    for members, stack in hilbert.size_groups(idx):
        pairs = zip(np.linalg.eigvalsh(h_exact.block(stack)), np.linalg.eigvalsh(h_eff.block(stack)))
        spectra.update(zip(members, pairs))
    per_block = []
    errs_all = []
    for b in range(len(masks)):
        ev_exact, ev_eff = spectra[b]
        err = np.abs(ev_exact - ev_eff)
        per_block.append(dynamics.BlockErrors(key=(float(b),), max_error=float(err.max()),
                                              mean_error=float(err.mean()), size=len(idx[b]),
                                              exact_ev=tuple(ev_exact.tolist()),
                                              eff_ev=tuple(ev_eff.tolist())))
        errs_all.extend(err.tolist())
    errs_all = np.asarray(errs_all)
    return _hexed(per_block, float(errs_all.max()), float(errs_all.mean()), leakage,
                  int(np.any(masks, axis=0).sum()))


def _hexed(blocks, max_error, mean_error, leakage, compared):
    """A report's fields with every float as its hex string, so that equal
    values mean equal bits."""
    def one(x):
        return tuple(map(one, x)) if isinstance(x, tuple) else x.hex() if isinstance(x, float) else x
    rows = [tuple(one(getattr(b, f.name)) for f in dataclasses.fields(b)) for b in blocks]
    return rows, one(max_error), one(mean_error), one(leakage), compared


@given(leakage_cases(), st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_compare_spectra_matches_the_per_mask_loop(case, singles, seed):
    # partitions whole or in part, as masks or index lists, with one-state
    # blocks of states no block holds added as masks or index lists: every
    # field bit for bit
    space, x, y, blocks, _ = case
    rng = np.random.default_rng(seed)
    free = np.ones(space.dim, dtype=bool)
    for b in blocks:
        free[b] = False
    for i in rng.permutation(np.flatnonzero(free))[:singles]:
        blocks.append(np.arange(space.dim) == i if rng.random() < 0.5 else [int(i)])
    ops = [eh.OperatorMatrix(space, x), eh.OperatorMatrix(space, y)]
    got = eh.compare_spectra(*ops, blocks, block_tol=np.inf)
    ref = _compare_per_mask(*ops, blocks)
    assert _hexed(got.blocks, got.max_error, got.mean_error, got.block_leakage,
                  got.compared_states) == ref


def _apply_whole_stack(op, vec) -> np.ndarray:
    """``op.apply(vec)`` over every column of the stack, the reference the
    support-only read must reproduce."""
    v = np.asarray(vec, dtype=complex)
    t = op.ladder.transpose()
    out = (t.values[0] * v[t.rows[0]].T).T
    for rows, values in zip(t.rows[1:], t.values[1:]):
        out += (values * v[rows].T).T
    return out


@pytest.mark.parametrize("fixture, scenario, labels", [
    ("dicke_model", "dicke-dispersive", [((3,), 1)]),
    ("dicke_model", "dicke-dispersive", [((3,), 1), ((1,), 2)]),
    ("xi_far_level_model", "xi-far-level", [((3,), 2)]),
    ("xi_far_level_model", "xi-far-level", [((3,), 2), ((1,), 3)]),
], ids=["dicke", "dicke two blocks", "xi-far-level", "xi-far-level two blocks"])
def test_support_evolution_matches_the_full_space_formulas(fixture, scenario, labels, request):
    # the rotated state read from the support's columns of U, and the
    # closed-form phases of the support alone: bit for bit the whole-space
    # formulas wherever those are nonzero, and exactly 0 elsewhere
    model = request.getfixturevalue(fixture)
    forms = eh.closed_form_effective(model, eh.EffectiveScenario(scenario))
    psi = _two_blocks(model.space, *labels)
    rotated, ref = forms.rotation.apply(psi), _apply_whole_stack(forms.rotation, psi)
    live = ref != 0
    assert 0 < np.count_nonzero(live) < model.space.dim
    assert _bits(rotated[live]) == _bits(ref[live]) and not rotated[~live].any()
    diagonal = eh.OperatorMatrix(model.space, np.diag(forms.corrected.diagonal()))
    times = np.linspace(0.0, 40.0, 41)
    for h in (forms.corrected, diagonal):
        if not h.is_diagonal(0.0):
            continue
        got = eh.evolve(h, rotated, times).states
        full = np.exp(-1j * np.outer(times, h.diagonal().real)) * rotated
        assert _bits(got[:, live]) == _bits(full[:, live]) and not got[:, ~live].any()


def _signed_parts(rng, n: int) -> np.ndarray:
    """Normal numbers, +0 and -0 in equal shares."""
    kind = rng.integers(0, 3, size=n)
    return np.where(kind == 0, rng.normal(size=n), np.where(kind == 1, 0.0, -0.0))


def _signed_pattern(rng, dim: int, rows=None) -> hilbert.LadderPattern:
    """A one-map stack with ±0 parts: nonzeros on a random partial
    permutation (on ``rows`` when given), and zero columns of +0 or -0
    parts pointing at random rows."""
    rows = rng.permutation(dim) if rows is None else rows.copy()
    full = rng.random(dim) < 0.75
    rows[~full] = rng.integers(0, dim, size=np.count_nonzero(~full))
    values = np.empty(dim, dtype=complex)
    values.real, values.imag = _signed_parts(rng, dim), _signed_parts(rng, dim)
    values.real[full & (values == 0)] = 1.0
    values[~full] = np.where(rng.random(np.count_nonzero(~full)) < 0.5, 0.0, -0.0) + 0j
    values.imag[~full] = np.where(rng.random(np.count_nonzero(~full)) < 0.5, 0.0, -0.0)
    return hilbert.LadderPattern(rows[None, :], values[None, :])


def _signed_stack(rng, space, maps: int):
    """(stack, dense array): the sum or difference of ``maps`` signed
    one-map patterns, as operators and as the same dense arithmetic.  Each
    later map points its zero columns at the places an earlier one holds,
    and shares all of its rows with it half of the time."""
    parts = [_signed_pattern(rng, space.dim)]
    for _ in range(maps - 1):
        earlier = parts[rng.integers(len(parts))].rows[0]
        later = _signed_pattern(rng, space.dim, earlier if rng.random() < 0.5 else None)
        empty = later.values[0] == 0
        later.rows[0][empty] = earlier[empty]
        parts.append(later)
    op = hilbert._pattern_operator(space, parts[0])
    ref = np.array(op.matrix)
    for part in parts[1:]:
        other = hilbert._pattern_operator(space, part)
        if rng.random() < 0.5:
            op, ref = op + other, ref + other.matrix
        else:
            op, ref = op - other, ref - other.matrix
    return op, ref


def _sum_close(got: np.ndarray, x: np.ndarray, y: np.ndarray) -> bool:
    """``got`` is ``x @ y`` up to the roundoff of sums of ``dim`` complex
    products per entry."""
    return bool(np.all(np.abs(got - x @ y) <= 4 * (len(x) + 2) * EPS * (np.abs(x) @ np.abs(y))))


def _product_close(got: np.ndarray, x: np.ndarray, y: np.ndarray) -> bool:
    """``got`` is ``x @ y`` up to the rounding of one complex product per
    entry."""
    return bool(np.all(np.abs(got - x @ y) <= 4 * EPS * (np.abs(x) @ np.abs(y))))


@given(st.integers(1, 12), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_pattern_sums_match_dense_bits(dim, maps_a, maps_b, seed):
    # stacks hold every entry of a sum, signed zeros included, so sums,
    # projections, blocks, diagonals and sums with a dense operand are the
    # dense operation bit for bit; a scalar multiple, an adjoint and a
    # product of single products equal it by value
    rng = np.random.default_rng(seed)
    space = _space(dim)
    (a, x), (b, y) = _signed_stack(rng, space, maps_a), _signed_stack(rng, space, maps_b)
    assert _bits(a.matrix) == _bits(x) and a.matrix.flags.c_contiguous
    for got, ref in ((a + b, x + y), (a - b, x - y), (b - a, y - x)):
        assert _bits(got.matrix) == _bits(ref)
    for s in (-0.5, 0.3 - 2j, 0.0):
        got = (s * a).matrix
        assert np.array_equal(got, x * s)
        assert not _negative_zero(got[_off_pattern(a)])
    assert np.array_equal(a.dag().matrix, x.conj().T) and _same_entries(a.dag(), x.conj().T)
    with _blockwise_calls() as calls:
        prod = a @ b
    if not calls:
        assert _product_close(prod.matrix, x, y) and not _negative_zero(prod.matrix)
    else:
        # NumPy's products of the blocks, the dense blocks' bits, with +0
        # off the blocks; the dense product within the roundoff of its sums
        assert _bits(prod.matrix) == _bits(_assembled(a, [a, b], lambda blk: blk[0] @ blk[1]))
        assert _sum_close(prod.matrix, x, y)
    mask = rng.random(dim) < 0.6
    assert _bits(a.project(mask).matrix) == _bits(np.where(np.outer(mask, mask), x, 0.0))
    assert _same_entries(a, x) and _bits(a.diagonal()) == _bits(x.diagonal())
    rows, cols = np.flatnonzero(mask), np.flatnonzero(~mask)
    assert _bits(a.block(rows)) == _bits(x[np.ix_(rows, rows)])
    assert _bits(a.block(rows, cols)) == _bits(x[np.ix_(rows, cols)])
    # rows in any order, one asked for twice, and stacks of two blocks that
    # share states or not
    shuffled, half = rng.permutation(dim), dim // 2
    apart = np.stack([shuffled[:half], shuffled[half:2 * half]])
    for r, c in ((shuffled, rows), (np.append(shuffled, shuffled[0]), shuffled),
                 (np.stack([shuffled, shuffled[::-1]]), np.stack([shuffled[::-1], shuffled])),
                 (apart, apart), (apart, apart[::-1])):
        assert _bits(a.block(r, c)) == _bits(x[r[..., :, None], c[..., None, :]])
    psi = np.linspace(1.0, 2.0, dim) + 0.5j
    assert _product_close(a.apply(psi), x, psi)
    dense = eh.OperatorMatrix(space, x)
    assert [tuple(c) for c in hilbert.components(a)] == [tuple(c) for c in hilbert.components(dense)]
    assert a.inner(b) == np.sum(np.conj(x) * y)
    assert a.norm() == np.linalg.norm(x) and a.is_hermitian() == dense.is_hermitian()
    z = np.empty((dim, dim), dtype=complex)
    z.real = _signed_parts(rng, dim * dim).reshape(dim, dim)
    z.imag = _signed_parts(rng, dim * dim).reshape(dim, dim)
    c = eh.OperatorMatrix(space, z)
    for got, ref in ((a + c, x + z), (c - a, z - x), (a - c, x - z)):
        assert _bits(got.matrix) == _bits(ref)


def _nonfinite_pattern(rng, dim: int) -> hilbert.LadderPattern:
    """A one-map stack with inf, -inf, NaN or 1 parts in about a tenth of
    its columns, on a random permutation, and +0 in the others."""
    hit = rng.random(dim) < 0.1
    values = np.zeros(dim, dtype=complex)
    parts = np.array([np.inf, -np.inf, np.nan, 1.0])
    values.real[hit] = rng.choice(parts, np.count_nonzero(hit))
    values.imag[hit] = rng.choice(parts, np.count_nonzero(hit))
    return hilbert.LadderPattern(rng.permutation(dim)[None, :], values[None, :])


def _hex(z) -> tuple[str, str]:
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _reductions(a, b, labels) -> tuple:
    """The bits of every reduction of ``a`` (and ``b``), read afresh."""
    a = _fresh(a)
    return (a.norm().hex(), a.offdiagonal_norm().hex(), _hex(a.inner(b)), _hex(a.inner(a + b)),
            rotations.offdiagonal_residual(a, labels).hex())


#: dims 65-96 give every residue of dim^2 mod hilbert._GROUP (64); dims
#: 1-3 and 8 hold at most one group, and one leaf of NumPy's pairwise sum
_REDUCTION_DIMS = [1, 2, 3, 8, *range(65, 97)]


@pytest.mark.parametrize("dim", _REDUCTION_DIMS)
@settings(max_examples=12)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 32 - 1), st.booleans(),
       st.booleans())
def test_stack_reductions_are_the_dense_bits(dim, maps_a, maps_b, seed, diagonal, nonfinite):
    """``norm``, ``offdiagonal_norm``, ``inner`` and the labelled
    ``offdiagonal_residual`` of stacks of 1-4 maps with signed zeros, a
    full diagonal or not, and inf and NaN parts or not, have the bits of
    the dense reductions, read from the stack (both size thresholds at 0)
    and at the default thresholds.  The inner product with ``a + b`` meets
    every nonzero of ``a``, so that the order of its sum shows.

    Kept at dim <= 100, where OpenBLAS runs ``ddot`` on one thread.  Above
    that it splits the vector among its threads, and the dense norm's own
    bits depend on the thread count: 102 of 200 random stacks of dims
    105-299 read differently on 1 and 2 threads (OpenBLAS 0.3.31, 2-core
    x86-64).  The stack's reductions equal the dense ones on one thread.
    """
    rng = np.random.default_rng(seed)
    space = _space(dim)
    (a, x), (b, y) = _signed_stack(rng, space, maps_a), _signed_stack(rng, space, maps_b)
    extras = [np.diag(rng.normal(size=dim) + 1j * rng.normal(size=dim))] if diagonal else []
    if nonfinite:
        extras.append(hilbert._pattern_operator(space, _nonfinite_pattern(rng, dim)).matrix)
    for m in extras:
        a, x = a + eh.OperatorMatrix(space, m), x + m
    labels = rng.integers(0, 3, size=dim)
    with np.errstate(invalid="ignore", over="ignore"):
        total = np.linalg.norm(x)
        apart = np.linalg.norm(np.where(labels[:, None] == labels[None, :], 0.0, x))
        expected = (total.hex(), np.linalg.norm(x - np.diag(x.diagonal())).hex(),
                    _hex(np.sum(x.conj() * y)), _hex(np.sum(x.conj() * (x + y))),
                    (0.0 if total == 0 else apart / total).hex())
        with mock.patch.multiple(hilbert, _STACK_NORM_DIM=0, _STACK_SUM_DIM=0):
            assert _reductions(a, b, labels) == expected
        assert _reductions(a, b, labels) == expected


def test_stack_inner_leaves_numpy_ma_unimported():
    # the stack's inner product (dim 1111, over _STACK_SUM_DIM) walks the
    # parting depths of its sum without np.unique, whose first call on a
    # 1-D array imports numpy.ma (about 1 MB); checked in a fresh interpreter
    code = ("import sys, effham as eh\n"
            "m = eh.build(eh.ModelSpec(kind='dicke', omega_field=10.0, omega0=10.6, g=0.001,"
            " atoms=10, n_max=100))\n"
            "assert m.space.dim == 1111 and 'numpy.ma' not in sys.modules\n"
            "m.h_int.inner(m.h_int)\n"
            "print('numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert out.stdout.strip() == "False"


def test_dicke_closed_form_peaks_below_a_quarter_dense_array():
    # at dim 600, above hilbert._STACK_SUM_DIM, neither the norms nor the
    # inner product of measured_step build a dense array
    model = eh.build(eh.ModelSpec(kind="dicke", omega_field=10.0, omega0=10.6, g=0.0024,
                                  atoms=5, n_max=99))
    assert model.space.dim == 600
    scenario = eh.EffectiveScenario("dicke-dispersive")
    peak = _peak_bytes(lambda: eh.closed_form_effective(_unkept(model), scenario))
    assert peak < model.space.dim ** 2 * 16 / 4


def test_xi_far_level_closed_form_peaks_below_a_quarter_dense_array():
    # the second-order commutators of xi-far-level collide in both orders;
    # formed block by block they build no dim^2 array (the dense products
    # held several at once: about 270 MB traced here)
    atoms, n_max = 10, 30
    model = eh.build(eh.ModelSpec(kind="xi3", omega_field=10.0, energies=(0.0, 11.0, 21.0),
                                  couplings=(0.2 / (atoms * math.sqrt(n_max + 1)), 0.01),
                                  atoms=atoms, n_max=n_max))
    assert model.space.dim == 2046
    scenario = eh.EffectiveScenario("xi-far-level")
    peak = _peak_bytes(lambda: eh.closed_form_effective(_unkept(model), scenario))
    assert peak < model.space.dim ** 2 * 16 / 4


def _unkept(model):
    """A copy of ``model`` that has kept nothing, so that a closed form on it
    builds its generator, rotation and conjugation afresh."""
    return dataclasses.replace(model)


def test_offdiagonal_residual_labels_match_pairwise_loop(dicke_model):
    h, rng = dicke_model.h_int, np.random.default_rng(3)
    for labels in ([lab[0][0] % 3 for lab in dicke_model.space.labels],  # repeating ints
                   [tuple(rng.integers(0, 2, size=2)) for _ in range(h.dim)],
                   list(dicke_model.space.labels)):
        same = np.asarray([[x == y for y in labels] for x in labels])
        ref = float(np.linalg.norm(np.where(same, 0.0, h.matrix))) / h.norm()
        assert eh.offdiagonal_residual(h, labels) == ref


def _peak_bytes(call) -> int:
    """The peak of the memory traced while ``call`` runs, after one warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fixture, scenario", [(None, "dicke-dispersive"),
                                               ("four_level_model", "four-level-three-photon")],
                         ids=["dicke dim 124", "four-level"])
def test_checks_allocate_less_than_one_dense_array(fixture, scenario, request):
    # at dim 124 Python's own fixed allocations are far below dim^2 x 16 bytes
    model = (request.getfixturevalue(fixture) if fixture else
             eh.build(eh.ModelSpec(kind="dicke", omega_field=10.0, omega0=11.0, g=0.004,
                                   atoms=3, n_max=30)))
    forms = eh.closed_form_effective(model, eh.EffectiveScenario(scenario))
    masks = eh.block_masks(model)
    h = model.h_int
    # a stack of column maps: the diagonal, and a raising and a lowering
    # map per transition
    assert len(h.ladder.rows) <= 1 + 2 * len(model.interactions)
    bound = h.dim ** 2 * 16
    m = h.matrix
    assert _peak_bytes(lambda: m - m.conj().T) > bound  # the dense check these replace
    for call in (h.is_hermitian, lambda: models._validate(model),
                 lambda: eh.compare_spectra(h, forms.corrected, masks)):
        assert _peak_bytes(call) < bound


@st.composite
def scaled_checks(draw):
    """(space, array, tol, verdict, kind): a Hermitian or diagonal array,
    with or without a ladder pattern, with one defect of 0, 0.1 or 10
    times ``tol`` relative to its own norm, and the verdict the defect
    implies."""
    dim = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["hermitian", "diagonal"]))
    tol = draw(st.sampled_from([1e-12, 1e-10]))
    if kind == "diagonal":
        h = np.diag(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    elif draw(st.booleans()):
        p = _partial_permutation(rng, dim) * np.exp(1j * rng.normal(size=dim))
        h = p + p.conj().T
    else:
        x = _dense(rng, dim, draw(st.sampled_from([0.3, 1.0])))
        h = x + x.conj().T
    size = draw(st.sampled_from([0.0, 0.1, 10.0]))
    i, j = rng.choice(dim, size=2, replace=False)
    h[i, j] += size * tol * np.linalg.norm(h)
    return _space(dim), h, tol, size < 1, kind


@given(scaled_checks(), st.integers(-170, 170))
def test_hermiticity_and_diagonality_are_unit_free(case, k):
    # the checks scale by the operator's own size: the verdict is the same
    # at every 10^k, where a floor at 1 would pass any defect below 1, and
    # where sums of squares would underflow (below ~1e-162) or overflow
    space, h, tol, verdict, kind = case
    for m in (h, h * 10.0 ** k):
        op = eh.OperatorMatrix(space, m)
        check = op.is_hermitian if kind == "hermitian" else op.is_diagonal
        assert check(tol) == verdict


@pytest.mark.parametrize("size", [1e-170, 1e-160, 1e160, 1e170])
def test_tiny_and_huge_defects_fail(size):
    # 1 at (0, 0) and 1j at (0, 1), at any size: neither diagonal nor Hermitian
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[0, 1] = size, 1j * size
    op = eh.OperatorMatrix(_space(4), m)
    assert not op.is_diagonal(1e-12) and not op.is_hermitian(1e-12)
    assert eh.OperatorMatrix(_space(4), m + m.conj().T).is_hermitian(1e-12)


#: the 4-level cascade at A = 3, n_max = 16 (dim 340) on three-photon resonance
CASCADE_340 = eh.ModelSpec(kind="cascade", energies=(0.0, 11.0, 21.7, 30.0), omega_field=10.0,
                           couplings=(0.03, 0.03, 0.03), atoms=3, n_max=16)


def test_cascade_build_and_generator_hold_no_dense_array():
    # couplings, h_int and the generator are stacks; the one dense array
    # alive at a time is the transient operand of the inner product
    # <X+, [h, X+]> of measured_step, below hilbert._STACK_SUM_DIM
    def build_and_generator():
        model = models.build(CASCADE_340)
        return model, rotations.eliminating_generator(model)[0]

    model, gen = build_and_generator()
    held = [model.h_int, gen, *(term.coupling for term in model.interactions)]
    assert model.space.dim == 340
    assert [len(op.ladder.rows) for op in held] == [7, 6, 2, 2, 2]
    assert _peak_bytes(build_and_generator) < 1.5 * model.space.dim ** 2 * 16


@pytest.mark.parametrize("scenario", ["four-level-three-photon", "cascade-first-stage"])
def test_closed_form_holds_stacks_no_taller_than_a_block(scenario):
    # the rotation and the conjugated and filtered forms hold as many maps
    # as the largest block they were formed on, not dim (a dense rotation,
    # conjugation and filter held several arrays at once)
    model = eh.build(CASCADE_340, require_resonance=True)
    forms = eh.closed_form_effective(model, eh.EffectiveScenario(scenario))
    largest = max(len(part) for part in hilbert.components(forms.rotation, model.h_int))
    assert largest == 20 < model.space.dim
    assert len(forms.rotation.ladder.rows) == largest
    assert all(len(op.ladder.rows) <= largest for op in (forms.printed, forms.corrected))
    bound = 2 * model.space.dim ** 2 * 16
    assert _peak_bytes(lambda: eh.closed_form_effective(_unkept(model), eh.EffectiveScenario(scenario))) < bound


def test_cascade_decomposition_holds_stacks_no_taller_than_a_block():
    model = eh.build(CASCADE_340)
    deco = eh.cascade_first_stage(model)
    largest = max(len(part) for part in hilbert.components(deco.rotation, model.h_int))
    assert largest == 20 < model.space.dim
    held = [deco.transformed, deco.h0, deco.h_d, deco.h_nd, deco.rotation, *deco.multiphoton.values()]
    assert all(len(op.ladder.rows) <= largest for op in held)
    assert len(deco.h_d.ladder.rows) == 1  # a diagonal: one map


# -- what an operator keeps ---------------------------------------------------

def _fresh(op: eh.OperatorMatrix) -> eh.OperatorMatrix:
    """A copy of ``op`` built from copies of its stack, with nothing kept."""
    p = op.ladder
    return hilbert._pattern_operator(op.space, hilbert.LadderPattern(p.rows.copy(), p.values.copy()))


_READS = {"entries": lambda op: op.entries(), "components": lambda op: hilbert.components(op),
          "labels": lambda op: [hilbert.component_labels(op)], "norm": lambda op: op.norm()}


@st.composite
def kept_cases(draw):
    """(operator, order of reads, mask): an operator made of an array, C- or
    F-ordered, or a one-map stack with signed zeros, and reads in any order,
    repeats included."""
    dim = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    storage = draw(st.sampled_from(["C", "F", "pattern"]))
    if storage == "pattern":
        op = hilbert._pattern_operator(_space(dim), _signed_pattern(rng, dim))
    else:
        m = _dense(rng, dim, draw(st.sampled_from([0.1, 0.5])))
        op = eh.OperatorMatrix(_space(dim), m if storage == "C" else np.asfortranarray(m))
    reads = draw(st.lists(st.sampled_from(sorted(_READS)), min_size=1, max_size=6))
    return op, reads, rng.random(dim) < 0.5


@given(kept_cases())
def test_kept_reads_equal_a_fresh_operators(case):
    op, reads, mask = case
    for name in reads:
        got, ref = _READS[name](op), _READS[name](_fresh(op))
        if name == "norm":
            assert got == ref
        else:
            assert len(got) == len(ref)
            for g, r in zip(got, ref):
                assert _bits(g) == _bits(r)
    if "entries" in reads:
        assert "entries" in op._memo
        rows, cols, _ = op.entries()
        assert not rows.flags.writeable and not cols.flags.writeable
    if "components" in reads:
        assert all(not part.flags.writeable for part in hilbert.components(op))
    if "labels" in reads:
        label = hilbert.component_labels(op)
        assert not label.flags.writeable
        for part in hilbert.components(op):
            assert (label[part] == part[0]).all()
    other = eh.OperatorMatrix(op.space, np.diag(np.arange(op.dim) + 1.0))
    results = [op + op, op - op, op + other, other - op, -op, 2.0 * op, 1j * op, op @ op,
               op @ other, other @ op, op.dag(), op.project(mask), eh.commutator(op, other)]
    assert all(r._memo == {} for r in results)


def test_components_are_found_and_not_kept(dicke_model, rng):
    # no caller asks a single operator for its components twice, so neither
    # the parts nor the labels stay on the operator
    m = _dense(rng, 12, 0.2)
    for op in (dicke_model.h_int, eh.OperatorMatrix(_space(12), m)):
        before = set(op._memo)  # h_int keeps the entries its checks read
        parts, label = hilbert.components(op), hilbert.component_labels(op)
        assert set(op._memo) == before
        fresh = _fresh(op)
        assert [_bits(p) for p in parts] == [_bits(p) for p in hilbert.components(fresh)]
        assert _bits(label) == _bits(hilbert.component_labels(fresh))
        assert not label.flags.writeable
        assert all(not part.flags.writeable for part in parts)
        assert all((label[part] == part[0]).all() for part in parts)


def test_dicke_task_scans_h_int_once(dicke_model, monkeypatch):
    # one dicke-ladder task body: every reader of h_int's nonzeros (the
    # Hermiticity and conservation checks of the build, the block leakage,
    # the Hermiticity check and components of evolve) shares one listing
    # of its stack, and no dense array is scanned into a stack
    scanned, listed = [], []
    real, real_listing = hilbert._array_stack, hilbert._row_major

    def spy(m):
        scanned.append(m)
        return real(m)

    def listing(d, *entries):
        listed.append(entries[0])
        return real_listing(d, *entries)

    monkeypatch.setattr(hilbert, "_array_stack", spy)
    monkeypatch.setattr(hilbert, "_row_major", listing)
    model = eh.build(dicke_model.spec)
    forms = eh.closed_form_effective(model, eh.EffectiveScenario("dicke-dispersive"))
    eh.compare_spectra(model.h_int, forms.corrected, eh.block_masks(model, skip_truncated=True))
    psi = eh.basis_state(model.space, (3,), level=1)
    exact = eh.evolve(model.h_int, psi, TIMES)
    approx = eh.effective_evolution(forms.corrected, psi, TIMES, rotation=forms.rotation)
    assert not scanned
    assert sum(len(rows) == len(model.h_int.entries()[0]) for rows in listed) == 1
    assert np.max(eh.infidelity_series(exact, approx)) < 1e-3


@given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1), st.sampled_from(["C", "F"]))
def test_pattern_with_dense_sums_match_dense_bits(dim, seed, order):
    rng = np.random.default_rng(seed)
    space = _space(dim)
    a = hilbert._pattern_operator(space, _signed_pattern(rng, dim))
    x = np.empty((dim, dim), dtype=complex)
    x.real = _signed_parts(rng, dim * dim).reshape(dim, dim)
    x.imag = _signed_parts(rng, dim * dim).reshape(dim, dim)
    x = np.asfortranarray(x) if order == "F" else x
    b = eh.OperatorMatrix(space, x)  # every entry of x that is not +0 held
    y = a.matrix
    for got, ref in ((a + b, y + x), (a - b, y - x), (b + a, x + y), (b - a, x - y)):
        m = got.matrix
        assert not m.flags.writeable and m.flags.c_contiguous
        assert _bits(m) == _bits(ref)


# -- the back-rotation of effective_evolution --------------------------------

def _dense_back_rotation(h_eff, psi, times, rotation) -> np.ndarray:
    """The rotated-frame states rotated back by the full dense product, the
    reference the column-wise back-rotation must reproduce."""
    inner = eh.evolve(h_eff, rotation.apply(psi), times)
    return inner.states @ rotation.matrix.conj()


def _two_blocks(space, *labels) -> np.ndarray:
    """The normalised sum of the basis states ``(photons, level)`` in ``labels``."""
    psi = sum(eh.basis_state(space, photons, level=level) for photons, level in labels)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("fixture, scenario, labels", [
    ("dicke_model", "dicke-dispersive", [((3,), 1)]),
    ("dicke_model", "dicke-dispersive", [((3,), 1), ((1,), 2)]),
    ("xi_far_level_model", "xi-far-level", [((3,), 2)]),
    ("xi_far_level_model", "xi-far-level", [((3,), 2), ((1,), 3)]),
], ids=["dicke", "dicke two blocks", "xi-far-level", "xi-far-level two blocks"])
def test_back_rotation_matches_the_dense_product(fixture, scenario, labels, request):
    # bit for bit wherever the dense product is nonzero; its zeros are
    # zeros here too, though a zero sum BLAS forms may carry a sign that
    # the +0 of an unreached column does not
    model = request.getfixturevalue(fixture)
    forms = eh.closed_form_effective(model, eh.EffectiveScenario(scenario))
    psi = _two_blocks(model.space, *labels)
    times = np.linspace(0.0, 40.0, 41)
    got = eh.effective_evolution(forms.corrected, psi, times, rotation=forms.rotation).states
    ref = _dense_back_rotation(forms.corrected, psi, times, forms.rotation)
    live = ref != 0
    assert np.count_nonzero(live.any(axis=0)) < model.space.dim
    assert _bits(got[live]) == _bits(ref[live])
    assert not np.any(got[~live])


def test_back_rotation_allocates_less_than_one_dense_array():
    # the dim-124 Dicke model of test_checks_allocate_less_than_one_dense_array,
    # at few enough times that the (times x dim) states stay far below dim^2
    model = eh.build(eh.ModelSpec(kind="dicke", omega_field=10.0, omega0=11.0, g=0.004,
                                  atoms=3, n_max=30))
    forms = eh.closed_form_effective(model, eh.EffectiveScenario("dicke-dispersive"))
    psi = eh.basis_state(model.space, (15,), level=1)
    bound = model.space.dim ** 2 * 16
    assert _peak_bytes(lambda: forms.rotation.matrix.conj()) >= bound  # the copy it replaces
    assert _peak_bytes(lambda: eh.effective_evolution(forms.corrected, psi, TIMES,
                                                      rotation=forms.rotation)) < bound


# -- block-wise products, the stopped series, unitarity -----------------------

def _blocky(rng, dim: int, density: float, cuts: int) -> np.ndarray:
    """A complex array block diagonal under a random permutation, in
    ``cuts + 1`` blocks, with entries drawn at ``density``."""
    m = np.zeros((dim, dim), dtype=complex)
    cut = np.sort(rng.choice(np.arange(1, dim), size=min(cuts, dim - 1), replace=False))
    for idx in np.split(rng.permutation(dim), cut):
        m[np.ix_(idx, idx)] = _dense(rng, len(idx), density)
    return m


@st.composite
def colliding_operands(draw):
    """(space, x, y, collide): two block-diagonal arrays on blocks of their
    own, or on the same blocks; ``collide`` where some product of full
    blocks of two or more states sums several terms in both orders."""
    dim = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.sampled_from([0.3, 1.0]))
    cuts = draw(st.integers(0, min(6, dim - 1)))
    x = _blocky(rng, dim, density, cuts)
    if draw(st.booleans()):  # the same blocks
        live = x != 0
        y = np.where(live, _dense(rng, dim, 1.0), 0.0)
        collide = density == 1.0 and cuts < dim - 1
    else:
        y = _blocky(rng, dim, density, draw(st.integers(0, dim - 1)))
        collide = False
    if draw(st.booleans()):
        x, y = x.real + 0.0, y.real + 0.0
    return _space(dim), x, y, collide


@given(colliding_operands())
def test_blockwise_products_match_dense_products(case):
    # products whose terms collide are formed on the blocks of the joint
    # pattern alone: the dense products within the roundoff of their sums,
    # and exact +0 off the blocks, where the dense sums may hold -0
    space, x, y, collide = case
    a, b = eh.OperatorMatrix(space, x), eh.OperatorMatrix(space, y)
    inside = np.zeros((space.dim, space.dim), dtype=bool)
    for part in hilbert.components(a, b):
        inside[np.ix_(part, part)] = True
    with _blockwise_calls() as calls:
        got = [(a @ b, x @ y, np.abs(x) @ np.abs(y)),
               (eh.commutator(a, b), x @ y - y @ x, np.abs(x) @ np.abs(y) + np.abs(y) @ np.abs(x))]
    assert len(calls) == 2 or not collide
    for op, ref, size in got:
        m = op.matrix
        assert np.all(np.abs(m - ref) <= 4 * (space.dim + 2) * EPS * size)
        assert not m[~inside].any() and not _negative_zero(m[~inside])


def _expm1_all_terms(b: np.ndarray) -> np.ndarray:
    """``rotations._expm1`` with every one of its 20 series terms: the
    reference the stopped series must reproduce."""
    norm1 = float(np.abs(b).sum(axis=-2).max())
    target = rotations._SCALE_TARGET
    squarings = max(0, int(math.ceil(math.log2(norm1 / target)))) if norm1 > target else 0
    b = b / (2.0 ** squarings)
    term = out = b
    for k in range(2, rotations._TAYLOR_ORDER + 1):
        term = term @ b / k
        out = out + term
    for _ in range(squarings):
        out = 2.0 * out + out @ out
    return out


#: fixtures on which an entry of U - 1 lies far below the norm the series
#: stops by, so the stopped series keeps 2^-80 of the largest entry, not every bit
_SERIES_WITHIN = {"two_mode_model", "lambda_model"}


@pytest.mark.parametrize("fixture, scenario", [
    ("dicke_model", "dicke-dispersive"),
    ("four_level_model", "four-level-three-photon"),
    ("four_level_model", "cascade-first-stage"),
    ("xi_far_level_model", "xi-far-level"),
    ("xi_two_photon_model", "xi-two-photon"),
    ("two_mode_model", "two-mode-four"),
    ("lambda_model", "lambda-dispersive"),
])
def test_stopped_series_is_the_full_series_on_the_fixtures(fixture, scenario, request):
    # every block stack the engine exponentiates, the later stages' too:
    # bit for bit, or within 2^-80 of the largest entry of U - 1
    model = request.getfixturevalue(fixture)
    with _series_stacks() as stacks:
        forms = eh.closed_form_effective(_unkept(model), eh.EffectiveScenario(scenario))
        forms.rotation.ladder  # a rotation no analysis reads is formed on this read, each stack whole
    assert stacks
    stopped = 0
    for b in stacks:
        got, ref = rotations._expm1(b), _expm1_all_terms(b)
        if fixture in _SERIES_WITHIN:
            assert np.max(np.abs(got - ref)) <= 2.0 ** -80 * np.max(np.abs(ref))
        else:
            assert _bits(got) == _bits(ref)
        eta = float(np.abs(b).sum(axis=-2).max())
        stopped += eta ** 19 / math.factorial(19) <= rotations._SERIES_CUTOFF * eta
    assert stopped  # the series stopped early somewhere, so the test compares something


@given(st.integers(1, 6), st.floats(-6.0, 0.0), st.booleans(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30)
def test_stopped_series_matches_mpmath(size, log_scale, anti, seed):
    # blocks up to the scaled norm the series runs at, where it is used as
    # it is, with no doubling: within a few ulps of ||U - 1||
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(2, size, size)) + 1j * rng.normal(size=(2, size, size))
    if anti:
        b = b - rotations._adjoint(b)
    b = b * (rotations._SCALE_TARGET * 10.0 ** log_scale / np.abs(b).sum(axis=-2).max())
    got = rotations._expm1(b)
    with mpmath.workdps(40):
        for block, g in zip(b, got):
            exact = mpmath.expm(mpmath.matrix(block.tolist())) - mpmath.eye(size)
            ref = np.array(exact.tolist(), dtype=complex)
            assert np.max(np.abs(g - ref)) <= 4 * EPS * np.linalg.norm(ref)


@st.composite
def unitarity_cases(draw):
    """(space, array, defect): a block-diagonal unitary, perturbed at one
    entry, possibly off its blocks, by 0 or by far more than the tolerance."""
    dim = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = _blocky(rng, dim, draw(st.sampled_from([0.3, 1.0])), draw(st.integers(0, dim)))
    w, v = np.linalg.eigh(h + h.conj().T)
    u = (v * np.exp(1j * w * draw(st.sampled_from([0.01, 1.0, 30.0])))) @ v.conj().T
    u = np.where(np.abs(u) > 1e-300, u, 0.0)
    defect = draw(st.sampled_from([0.0, 1e-9, 1e-3, np.nan]))
    i, j = rng.integers(0, dim, size=2)
    u[i, j] += defect
    return _space(dim), u, defect


@given(unitarity_cases())
def test_unitarity_verdict_matches_the_dense_check(case):
    # the defect summed block by block decides as the dense m^dag m - 1 does
    space, u, defect = case
    dense = hilbert.unitary_within(float(np.linalg.norm(u.conj().T @ u - np.eye(space.dim))), 1e-12, space.dim)
    assert eh.OperatorMatrix(space, u).is_unitary(1e-12) == dense == (defect == 0.0)


def test_unitarity_check_writes_no_block_stack(dicke_model):
    # is_unitary sums the defects of the blocks it reads and keeps none
    rotation = eh.closed_form_effective(dicke_model, eh.EffectiveScenario("dicke-dispersive")).rotation
    assert rotation.ladder.rows.shape[0] > 1  # every block formed
    with mock.patch.object(hilbert, "blocks_on_read", side_effect=AssertionError("a block stack was written")):
        assert rotation.is_unitary()


def test_engine_looks_up_no_conjugation_it_holds(four_level_model, monkeypatch):
    # the engine carries h_int as the stages so far leave it, so it conjugates
    # each stage once and never asks a rotation for a conjugation it made
    kept, made, again = hilbert.OperatorMatrix._kept, [], []

    def spy(op, key, find):
        if isinstance(key, tuple) and key[0] == "conjugate":
            (again if key in op._memo else made).append(key)
        return kept(op, key, find)

    monkeypatch.setattr(hilbert.OperatorMatrix, "_kept", spy)
    eh.closed_form_effective(_unkept(four_level_model), eh.EffectiveScenario("four-level-three-photon"))
    assert len(made) == 3 and again == []  # one per stage


def test_first_stage_is_found_once_per_model(four_level_model):
    # cascade_first_stage reuses the generator, rotation and conjugation
    # that closed_form_effective built on the same model
    model = _unkept(four_level_model)
    forms = eh.closed_form_effective(model, eh.EffectiveScenario("cascade-first-stage"))
    with mock.patch.object(hilbert, "blockwise", side_effect=AssertionError("formed again")):
        deco = eh.cascade_first_stage(model)
        gen, eps = eh.eliminating_generator(model)
        assert eh.matrix_exponential(gen) is forms.rotation is deco.rotation
        assert eh.conjugate(model.h_int, deco.rotation) is deco.transformed
    again, eps_again = eh.eliminating_generator(model)
    assert again is gen and eps_again == eps and eps_again is not eps
    # a copy of the model finds its own, with the same bits
    fresh, fresh_eps = eh.eliminating_generator(_unkept(model))
    assert fresh is not gen and fresh_eps == eps
    assert _bits(fresh.matrix) == _bits(gen.matrix)
    # a named subset is a generator of its own
    assert eh.eliminating_generator(model, ["1"])[0] is not gen
