"""Property tests for the structure-aware kernels.

A factor of ``@`` or ``commutator`` with at most one nonzero per row and
column (a ladder pattern, the diagonal included) turns the product into a
gather of the other factor's rows or columns instead of a BLAS call, and
``evolve`` diagonalises only the subspace the initial state can reach; both
must agree with the plain dense computation.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import effham as eh
from effham import hilbert
from effham.hilbert import EnsembleSpec, FockTruncation, SpaceDescriptor

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
    return np.array_equal(got, ref) and not any(
        np.signbit(part[part == 0]).any() for part in (got.real, got.imag))


def _fresh_scan(op):
    return eh.OperatorMatrix(op.space, op.matrix).ladder


def _same_pattern(carried, scanned) -> bool:
    """Equal values, and equal indices wherever the value is nonzero."""
    if scanned is None:
        return False
    full = scanned.col_values != 0, scanned.row_values != 0
    return (np.array_equal(carried.col_values, scanned.col_values)
            and np.array_equal(carried.row_values, scanned.row_values)
            and np.array_equal(carried.rows[full[0]], scanned.rows[full[0]])
            and np.array_equal(carried.cols[full[1]], scanned.cols[full[1]]))


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
    space, p, x, left = case
    a, b = eh.OperatorMatrix(space, p), eh.OperatorMatrix(space, x)
    assert a.ladder is not None
    carried = [a.dag(), scalar * a, (scalar * a @ a).dag()]
    if b.ladder is not None:
        carried.append(a @ b if left else b @ a)
    for op in carried:
        assert isinstance(op._ladder, hilbert.LadderPattern)  # set without a scan
        assert _same_pattern(op._ladder, _fresh_scan(op))


@pytest.mark.parametrize("scenario", ["cascade-first-stage", "four-level-three-photon"])
def test_closed_form_scans_each_operator_once(four_level_model, scenario, monkeypatch):
    scanned = []
    real_scan = hilbert._scan

    def spy(m):
        scanned.append(m)  # holding the array keeps every id distinct
        return real_scan(m)

    monkeypatch.setattr(hilbert, "_scan", spy)
    eh.closed_form_effective(four_level_model, eh.EffectiveScenario(scenario))
    ids = [id(m) for m in scanned]
    assert ids and len(ids) == len(set(ids))


def test_ladder_scan_sees_every_second_nonzero():
    space = _space(4)
    for j in range(4):
        for i in range(4):
            for k in range(4):
                if i == k:
                    continue
                m = np.zeros((4, 4))
                m[i, j], m[k, j] = 1.0, 1e-300  # two nonzeros in column j
                for arr in (m, m.T, np.asfortranarray(m), np.asfortranarray(m.T)):
                    assert eh.OperatorMatrix(space, arr).ladder is None


@st.composite
def block_hamiltonians(draw):
    """(space, Hermitian h block diagonal under a permutation, its blocks as masks)."""
    dim = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cuts = np.sort(rng.choice(np.arange(1, dim), size=draw(st.integers(1, min(5, dim - 1))),
                              replace=False))
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
        sizes.append(np.shape(a)[0])
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


def test_dicke_effective_evolution_needs_no_eigh(dicke_model, monkeypatch):
    forms = eh.closed_form_effective(dicke_model, eh.EffectiveScenario("dicke-dispersive"))
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(a))
    psi = eh.basis_state(dicke_model.space, photons=(3,), occupations=(1, 0))
    traj = eh.effective_evolution(forms.corrected, psi, TIMES, rotation=forms.rotation)
    assert not calls
    assert traj.norm_drift() < 1e-12
