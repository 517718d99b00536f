"""Tensor-product Hilbert spaces and the elementary operators on them.

A space is an ordered list of truncated Fock modes tensored with the
symmetric collective subspace of an ensemble of identical N-level atoms.
The collective subspace is realized with Schwinger bosons: N auxiliary
occupation numbers summing to the atom count A.  That construction gives
exactly the symmetric irrep, so collective operators are plain bosonic
bilinears and all u(N) relations hold to machine precision.

Basis order is deterministic: lexicographic with the field modes as the
slowest indices, then atomic occupations with the ground level filled
first, e.g. for two levels and one atom the order is
``|n=0;(1,0)>, |n=0;(0,1)>, |n=1;(1,0)>, ...``.

Entries are ``complex128`` and operators are immutable, so values can be
shared freely between threads.  Most operators the models build have at
most one nonzero per row and per column: the diagonal ones (populations,
photon numbers, ``X3``, the structure operators) and the ladder operators
(``a``, ``S^{ij}``, ``a^k S^{ij}`` and their adjoints).  Such an operator
is a column map, its :class:`LadderPattern`: the row and the value of the
one entry of each column.  An operator's storage is fixed when it is made:

* pattern-only, O(dim): the column map, with +0 at every other entry.  The
  public constructor stores an array this way when it has a pattern, and
  an operation that knows its result has one makes one: the constructors
  below, ``dag``, ``-`` and scalar ``*`` of a pattern-only operator, ``@``
  and :func:`commutator` of two of them, ``+`` and ``-`` of two whose sum
  keeps one nonzero per row and column, and :meth:`OperatorMatrix.project`;
* dense, a frozen ``dim x dim`` array.  Every other result is dense, and a
  dense result is not searched for a pattern.

``matrix`` of a pattern-only operator builds the C-ordered dense array on
each access and does not keep it.  The library's own readers (diagonals,
blocks, entries, the checks) take the column map; the norms reduce over the
dense array, so their bits are NumPy's.  An operator keeps what it has once
found about itself: the places of a dense operator's nonzeros, its
components and its norm.

A pattern-only factor of ``@`` or :func:`commutator` whose partner is dense
turns the product into a gather of the partner's rows or columns scaled by
the pattern values, in place of a dim^3 BLAS product; for real pattern
values every entry equals the dense product's.  Every product is C-ordered
like BLAS's output.

:func:`components` gives the connected components of the joint nonzero
pattern of operators: the blocks every function of them is block diagonal
in, which the exponential, the conjugation and the evolution run on.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from typing import NamedTuple

import numpy as np

from .errors import DimensionCapError, SpaceMismatchError

#: Hard cap on the total space dimension for dense matrices.
DIMENSION_CAP = 20000


@dataclass(frozen=True)
class FockTruncation:
    """A bosonic mode kept up to ``n_max`` photons (dimension ``n_max + 1``)."""

    n_max: int

    def __post_init__(self):
        if int(self.n_max) != self.n_max or self.n_max < 0:
            raise ValueError(f"n_max must be a non-negative integer, got {self.n_max!r}")
        object.__setattr__(self, "n_max", int(self.n_max))

    @property
    def dim(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True)
class EnsembleSpec:
    """``atoms`` identical systems with ``levels`` internal levels (symmetric subspace)."""

    levels: int
    atoms: int

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError("an ensemble needs at least two levels")
        if self.atoms < 1:
            raise ValueError("an ensemble needs at least one atom")

    @property
    def dim(self) -> int:
        """Dimension of the symmetric subspace, C(A + N - 1, N - 1)."""
        return math.comb(self.atoms + self.levels - 1, self.levels - 1)


def _occupations(levels: int, atoms: int) -> list[tuple[int, ...]]:
    """All occupation tuples summing to ``atoms``, ground level filled first."""
    if levels == 1:
        return [(atoms,)]
    out = []
    for k in range(atoms, -1, -1):
        out.extend((k,) + rest for rest in _occupations(levels - 1, atoms - k))
    return out


Label = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class SpaceDescriptor:
    """Enumerated basis of a modes x ensemble tensor product.

    ``labels[i]`` is ``(photons, occupations)`` for basis state ``i``.
    """

    modes: tuple[FockTruncation, ...]
    ensemble: EnsembleSpec
    labels: tuple[Label, ...]

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def _index(self) -> dict[Label, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def _label_array(self) -> np.ndarray:
        """The labels as integers, one row per state: photons, then occupations."""
        return np.array([p + o for p, o in self.labels], dtype=np.int64).reshape(self.dim, -1)

    @cached_property
    def _sorted_keys(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(radix, sorted keys, basis index of each) for :meth:`_lookup`."""
        labels = self._label_array
        radix = labels.max(axis=0) + 1
        keys = np.ravel_multi_index(labels.T, radix)
        order = np.argsort(keys)
        return radix, keys[order], order

    @cached_property
    def _operators(self) -> dict:
        """The elementary operators built on this space, by constructor call."""
        return {}

    def _lookup(self, labels: np.ndarray) -> np.ndarray:
        """Basis indices of the rows of an integer label array laid out like
        ``_label_array``; raises if one is not a basis state."""
        radix, keys, order = self._sorted_keys
        wanted = np.ravel_multi_index(labels.T, radix, mode="clip")
        found = order[np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)]
        if not np.array_equal(self._label_array[found], labels):
            raise ValueError("no basis state with a requested label")
        return found

    def index(self, photons, occupations) -> int:
        """Basis index of the state with the given photon numbers and occupations."""
        key = (tuple(int(n) for n in photons), tuple(int(k) for k in occupations))
        try:
            return self._index[key]
        except KeyError:
            raise ValueError(f"no basis state with label {key}") from None

    def photons(self, i: int) -> tuple[int, ...]:
        return self.labels[i][0]

    def occupations(self, i: int) -> tuple[int, ...]:
        return self.labels[i][1]


def enumerate_basis(modes, ensemble: EnsembleSpec, cap: int = DIMENSION_CAP) -> SpaceDescriptor:
    """Build the basis for the given modes and ensemble.

    ``modes`` may contain :class:`FockTruncation` instances or plain
    non-negative integers (interpreted as ``n_max``).  The total dimension
    is checked against ``cap`` before any matrix is allocated.
    """
    mode_specs = tuple(m if isinstance(m, FockTruncation) else FockTruncation(m) for m in modes)
    dim = ensemble.dim
    for m in mode_specs:
        dim *= m.dim
    if dim > cap:
        raise DimensionCapError(f"space dimension {dim} exceeds cap {cap}")

    occ = _occupations(ensemble.levels, ensemble.atoms)
    photon_grids: list[tuple[int, ...]] = [()]
    for m in mode_specs:
        photon_grids = [g + (n,) for g in photon_grids for n in range(m.dim)]
    labels = tuple((g, o) for g in photon_grids for o in occ)
    return SpaceDescriptor(modes=mode_specs, ensemble=ensemble, labels=labels)


class LadderPattern(NamedTuple):
    """The column map of an operator with at most one nonzero per row and
    per column: ``matrix[rows[j], j] == values[j]``, every other entry is +0,
    and no two nonzeros share a row.

    An empty column has value 0 and an arbitrary row, so a pattern is
    compared by its values and by its rows where the values are nonzero.
    """

    rows: np.ndarray
    values: np.ndarray

    @property
    def is_diagonal(self) -> bool:
        """Every nonzero sits on the diagonal."""
        return not np.count_nonzero((self.rows != _own(len(self.rows))) & (self.values != 0))

    def transpose(self) -> "LadderPattern":
        """The column map of the transpose, which is this pattern's row map:
        entry ``i`` gives the column and the value of row ``i``'s nonzero,
        and an empty row points at its own index with value +0."""
        full = np.flatnonzero(self.values)
        rows, values = np.arange(len(self.rows)), np.zeros(len(self.rows), dtype=complex)
        rows[self.rows[full]] = full
        values[self.rows[full]] = self.values[full]
        return LadderPattern(rows, values)


class OperatorMatrix:
    """Complex operator bound to a :class:`SpaceDescriptor` basis.

    Supports ``+``, ``-``, scalar ``*``, ``@`` and adjoint via :meth:`dag`.
    Operators are immutable; arithmetic returns new instances.  ``matrix``
    is the read-only dense array whichever way the operator is stored (see
    the module docstring).
    """

    __slots__ = ("space", "_dense", "_ladder", "_memo")

    def __init__(self, space: SpaceDescriptor, matrix: np.ndarray):
        arr = np.array(matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("operator matrix must be square")
        if arr.shape[0] != space.dim:
            raise ValueError(f"matrix dimension {arr.shape[0]} != space dimension {space.dim}")
        ladder = _scan(arr)
        self._set(space, None if ladder is not None else arr, ladder)

    def _set(self, space: SpaceDescriptor, dense, ladder) -> None:
        if dense is not None:
            dense.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "_dense", dense)
        object.__setattr__(self, "_ladder", ladder)
        object.__setattr__(self, "_memo", {})

    def _kept(self, key: str, find):
        """``find()``, called on the first request for ``key`` and kept: an
        operator never changes, so its nonzero places, components and norm
        are found once (two threads at worst find the same value twice).
        Every new operator starts with nothing kept."""
        memo = self._memo
        if key not in memo:
            memo[key] = find()
        return memo[key]

    def _result(self, arr: np.ndarray) -> "OperatorMatrix":
        """A dense operator on this space around ``arr``, a fresh array
        nothing else holds, so it is frozen in place instead of copied."""
        out = object.__new__(OperatorMatrix)
        out._set(self.space, arr, None)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("OperatorMatrix is immutable")

    # -- helpers -----------------------------------------------------------
    def _check(self, other: "OperatorMatrix"):
        if self.space is not other.space and self.space != other.space:
            raise SpaceMismatchError("operators live on different spaces")

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def matrix(self) -> np.ndarray:
        """The dense array, read-only.  A pattern-only operator builds it,
        C-ordered with +0 off its pattern, on each access and does not keep
        it."""
        if self._dense is not None:
            return self._dense
        arr = _materialise(self._ladder)
        arr.setflags(write=False)
        return arr

    @property
    def ladder(self) -> LadderPattern | None:
        """The :class:`LadderPattern` of a pattern-only operator; None for a
        dense one."""
        return self._ladder

    def dag(self) -> "OperatorMatrix":
        """Hermitian adjoint."""
        if self._dense is None:
            t = self._ladder.transpose()
            return _pattern_operator(self.space, LadderPattern(t.rows, t.values.conj()))
        return self._result(self._dense.conj().T)

    def norm(self) -> float:
        """Frobenius norm of the dense array, found once and kept."""
        if self._dense is None and not np.count_nonzero(self._ladder.values):
            return 0.0
        return self._kept("norm", lambda: float(np.linalg.norm(self.matrix)))

    def nonzero_norm(self) -> float:
        """Frobenius norm of :meth:`entries`' values, with no dense array.  Its
        last bits can differ from :meth:`norm`'s, so it serves checks only."""
        return float(np.linalg.norm(self.entries()[2]))

    def diagonal(self) -> np.ndarray:
        if self._dense is None:
            p = self._ladder
            return np.where(p.rows == _own(self.dim), p.values, 0.0)
        return self._dense.diagonal().copy()

    def offdiagonal_norm(self) -> float:
        """Frobenius norm of the operator with its diagonal set to zero."""
        if self._dense is None and self._ladder.is_diagonal:
            return 0.0
        m = self.matrix
        return float(np.linalg.norm(m - np.diag(m.diagonal())))

    def is_diagonal(self, tol: float) -> bool:
        """The off-diagonal part is at most ``tol`` relative to the norm (or to 1)."""
        off = self.offdiagonal_norm()
        return off == 0.0 or off <= tol * max(1.0, self.norm())

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        """``||m - m^dag|| <= tol * max(1, ||m||)`` (Frobenius), read from the
        nonzero entries only; a NaN entry, or an inf that meets its mirror
        entry, fails."""
        # each nonzero v at (r, c) leaves v - conj(back) there, back the
        # entry at (c, r); where back is 0 it also leaves -conj(v) at (c, r)
        rows, cols, v = self.entries()
        back = self._at(cols, rows)
        diff, lone = v - back.conj(), np.where(back == 0, v, 0.0)
        defect2 = np.vdot(diff, diff).real + np.vdot(lone, lone).real
        return math.sqrt(defect2) <= tol * max(1.0, math.sqrt(np.vdot(v, v).real))

    def is_unitary(self, tol: float = 1e-12) -> bool:
        m = self.matrix
        return unitary_within(float(np.linalg.norm(m.conj().T @ m - np.eye(self.dim))), tol, self.dim)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """``matrix @ vec`` for a state or a ``(dim, k)`` stack of states as columns."""
        v = np.asarray(vec, dtype=complex)
        if self._dense is None:
            t = self._ladder.transpose()
            return (t.values * v[t.rows].T).T
        return self._dense @ v

    def block(self, rows: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """``matrix[np.ix_(rows, cols)]`` (``cols`` defaults to ``rows``), a
        fresh C-ordered array; a pattern-only operator builds only the block.

        ``rows`` and ``cols`` may also be stacks of index arrays, shape
        ``(count, size)``, for a stack of ``count`` blocks.
        """
        rows = np.asarray(rows)
        cols = rows if cols is None else np.asarray(cols)
        return self._at(rows[..., :, None], cols[..., None, :])

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of the nonzero entries, in row-major
        order as ``np.nonzero`` lists them: from the column map of a
        pattern-only operator, from the kept places of a dense one's
        nonzeros."""
        if self._dense is None:
            t = self._ladder.transpose()
            rows = np.flatnonzero(t.values)
            return rows, t.rows[rows], t.values[rows]
        rows, cols = self._places()
        return rows, cols, self._dense[rows, cols]

    def _places(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows and columns of a dense operator's nonzeros, found by one
        :func:`_nonzero_places` scan and kept."""
        return self._kept("places", lambda: _frozen(*_nonzero_places(self._dense)))

    def _at(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The entries at ``(rows[k], cols[k])``, the two index arrays
        broadcast against each other."""
        if self._dense is not None:
            return self._dense[rows, cols]
        p = self._ladder
        return np.where(p.rows[cols] == rows, p.values[cols], 0.0)

    def inner(self, other: "OperatorMatrix"):
        """``sum(conj(self) * other)`` over all entries, summed as NumPy sums
        the dense product."""
        self._check(other)
        if self._dense is None and other._dense is None:
            prod = _aligned(_conj_times, self._ladder, other._ladder)
            if prod is not None:
                return np.sum(_materialise(prod))
        return np.sum(np.conj(self.matrix) * other.matrix)

    def project(self, mask: np.ndarray) -> "OperatorMatrix":
        """Compress to the subspace selected by the boolean ``mask`` (P A P)."""
        m = np.asarray(mask, dtype=bool)
        if self._dense is None:
            rows, values = self._ladder
            return _pattern_operator(self.space, LadderPattern(rows, np.where(m[rows] & m, values, 0.0)))
        return self._result(np.where(np.outer(m, m), self._dense, 0.0))

    # -- arithmetic --------------------------------------------------------
    def _entrywise(self, op, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check(other)
        if self._dense is None and other._dense is None:
            p, q = self._ladder, other._ladder
            aligned = _aligned(op, p, q)
            if aligned is not None:
                return _pattern_operator(self.space, aligned)
            # op(P, Q) of the two materialised arrays, written into P's:
            # P's entries meet +0 where Q's entry sits in another row, and
            # every entry of Q meets what P holds at its place
            out, own = _materialise(p), _own(self.dim)
            apart = q.rows != p.rows
            out[p.rows[apart], own[apart]] = op(p.values[apart], 0.0)
            out[q.rows, own] = op(out[q.rows, own], q.values)
            return self._result(out)
        if self._dense is None or other._dense is None:
            # op(P, Q) with one operand pattern-only, written into one fresh
            # array, C-ordered as NumPy orders a result with a C-ordered
            # operand: the dense operand meets +0 off the pattern's places,
            # then every place of the pattern holds op of the two entries
            out, own = np.empty((self.dim, self.dim), dtype=complex), _own(self.dim)
            if self._dense is None:
                p, dense = self._ladder, other._dense
                op(0.0, dense, out=out)
                out[p.rows, own] = op(p.values, dense[p.rows, own])
            else:
                p, dense = other._ladder, self._dense
                op(dense, 0.0, out=out)
                out[p.rows, own] = op(dense[p.rows, own], p.values)
            return self._result(out)
        return self._result(op(self._dense, other._dense))

    def __add__(self, other):
        return self._entrywise(np.add, other)

    def __sub__(self, other):
        return self._entrywise(np.subtract, other)

    def __neg__(self):
        if self._dense is None:
            return _pattern_operator(self.space, LadderPattern(self._ladder.rows, -self._ladder.values))
        return self._result(-self._dense)

    def __mul__(self, scalar):
        s = complex(scalar)
        if self._dense is None and cmath.isfinite(s):
            return _pattern_operator(self.space, LadderPattern(self._ladder.rows, self._ladder.values * s))
        return self._result(self.matrix * s)

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check(other)
        if self._dense is None and other._dense is None:
            return _pattern_operator(self.space, _compose(self._ladder, other._ladder))
        return self._result(_product(self, other))

    def __repr__(self):
        return f"OperatorMatrix(dim={self.dim})"


def _pattern_operator(space: SpaceDescriptor, ladder: LadderPattern) -> OperatorMatrix:
    """A pattern-only operator with column map ``ladder``."""
    out = object.__new__(OperatorMatrix)
    out._set(space, None, ladder)
    return out


def _materialise(p: LadderPattern) -> np.ndarray:
    """The dense array of a pattern-only operator, fresh and writable."""
    d = len(p.rows)
    out = np.zeros((d, d), dtype=complex)
    out[p.rows, _own(d)] = p.values
    return out


@lru_cache(maxsize=64)
def _own(d: int) -> np.ndarray:
    """``arange(d)``, shared and read-only."""
    own = np.arange(d)
    own.setflags(write=False)
    return own


def _conj_times(x, y):
    return np.conj(x) * y


def _aligned(op, p: LadderPattern, q: LadderPattern) -> LadderPattern | None:
    """The column map of ``op`` applied entry by entry to the operators with
    column maps ``p`` and ``q``, or None if that has two nonzeros in one
    column or in one row.

    Where ``p`` and ``q`` point a column at one row, that row holds ``op``
    of the two values.  Where they point it at different rows, each value
    meets +0 from the other operand, as in the dense arrays: ``q``'s row is
    kept if its value is nonzero, else ``p``'s (``op(0, zero)`` is +0), so
    every entry has the dense operation's bits except a signed zero
    ``op(p value, 0)`` beside a nonzero, which the column map cannot hold.
    An empty column points at an arbitrary row, so the rows of the
    nonzeros are counted even where the two maps agree.
    """
    same = p.rows == q.rows
    if same.all():
        rows, values = p.rows, op(p.values, q.values)
    else:
        take_q = (q.values != 0) & ~same
        if (take_q & (p.values != 0)).any():
            return None
        at_p = op(p.values, np.where(same, q.values, 0.0))
        rows, values = np.where(take_q, q.rows, p.rows), np.where(take_q, op(0.0, q.values), at_p)
    if np.bincount(rows[values != 0], minlength=1).max() > 1:
        return None
    return LadderPattern(rows, values)


# -- constructors -----------------------------------------------------------

def _per_space(build):
    """Build each elementary operator once per space: operators are
    immutable, and a model and its scenarios ask for the same ones again."""
    @wraps(build)
    def cached(space: SpaceDescriptor, *args, **kwargs) -> OperatorMatrix:
        key = (build.__name__, args, tuple(sorted(kwargs.items())))
        built = space._operators.get(key)
        if built is None:
            built = space._operators[key] = build(space, *args, **kwargs)
        return built
    return cached


def _column_operator(space: SpaceDescriptor, rows: np.ndarray, values) -> OperatorMatrix:
    """The operator whose column ``j`` holds ``values[j]`` in row ``rows[j]``
    and nothing else; a column with value 0 is empty."""
    return _pattern_operator(space, LadderPattern(rows, np.asarray(values, dtype=complex)))


@_per_space
def identity(space: SpaceDescriptor) -> OperatorMatrix:
    return _column_operator(space, _own(space.dim), np.ones(space.dim))


@_per_space
def zero(space: SpaceDescriptor) -> OperatorMatrix:
    return _column_operator(space, _own(space.dim), np.zeros(space.dim))


@_per_space
def annihilator(space: SpaceDescriptor, mode_index: int = 0) -> OperatorMatrix:
    """Photon annihilation operator ``a`` on the selected mode.

    ``<n-1|a|n> = sqrt(n)``; the truncation only removes the raising
    direction out of the top Fock level.
    """
    if not 0 <= mode_index < len(space.modes):
        raise ValueError(f"mode index {mode_index} out of range")
    labels = space._label_array
    n = labels[:, mode_index]
    occupied = n > 0
    lowered = labels[occupied]
    lowered[:, mode_index] -= 1
    rows = np.arange(space.dim)
    rows[occupied] = space._lookup(lowered)
    return _column_operator(space, rows, np.sqrt(n))


@_per_space
def creator(space: SpaceDescriptor, mode_index: int = 0) -> OperatorMatrix:
    return annihilator(space, mode_index).dag()


@_per_space
def number_operator(space: SpaceDescriptor, mode_index: int = 0) -> OperatorMatrix:
    if not 0 <= mode_index < len(space.modes):
        raise ValueError(f"mode index {mode_index} out of range")
    return _column_operator(space, _own(space.dim), space._label_array[:, mode_index])


@_per_space
def collective_operator(space: SpaceDescriptor, i: int, j: int) -> OperatorMatrix:
    """Collective atomic operator taking one atom from level ``i`` to level ``j``.

    Levels are 1-based.  For a single atom this is ``|j><i|``; in general it
    is the Schwinger bilinear on the symmetric subspace, so the diagonal
    operators (``i == j``) count the population of level ``i``.
    """
    nlev = space.ensemble.levels
    if not (1 <= i <= nlev and 1 <= j <= nlev):
        raise ValueError(f"level indices ({i}, {j}) out of range 1..{nlev}")
    labels = space._label_array
    ii, jj = len(space.modes) + i - 1, len(space.modes) + j - 1
    if i == j:
        return _column_operator(space, _own(space.dim), labels[:, ii])
    able = labels[:, ii] > 0
    moved = labels[able]
    moved[:, ii] -= 1
    moved[:, jj] += 1
    rows = np.arange(space.dim)
    rows[able] = space._lookup(moved)
    return _column_operator(space, rows, np.sqrt(labels[:, ii] * (labels[:, jj] + 1)))


@_per_space
def collective_inversion(space: SpaceDescriptor, i: int, j: int) -> OperatorMatrix:
    """Half population difference ``(S^{jj} - S^{ii}) / 2`` between levels ``i < j``."""
    return 0.5 * (collective_operator(space, j, j) - collective_operator(space, i, i))


def spin_operators(space: SpaceDescriptor) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """(S3, S+, S-) for a two-level ensemble; the collective spin is j = A/2."""
    if space.ensemble.levels != 2:
        raise ValueError("spin operators require a two-level ensemble")
    s_plus = collective_operator(space, 1, 2)
    return collective_inversion(space, 1, 2), s_plus, s_plus.dag()


def commutator(lhs: OperatorMatrix, rhs: OperatorMatrix) -> OperatorMatrix:
    """``lhs @ rhs - rhs @ lhs`` on a shared space."""
    lhs._check(rhs)
    if lhs.ladder is not None and rhs.ladder is not None:
        return lhs @ rhs - rhs @ lhs
    out = _product(lhs, rhs)
    out -= _product(rhs, lhs)
    return lhs._result(out)


def unitary_within(defect: float, tol: float, dim: int) -> bool:
    """Whether a unitarity defect ``||U^dag U - 1||`` (Frobenius) passes at
    ``tol``, scaled by ``max(1, sqrt(dim))``; a NaN defect never passes."""
    return defect <= tol * max(1.0, math.sqrt(dim))


def components(*ops: OperatorMatrix) -> list[np.ndarray]:
    """The connected components of the joint nonzero pattern of ``ops``.

    States ``i`` and ``j`` are joined when an operator has a nonzero at
    ``(i, j)`` or ``(j, i)``, and a state no nonzero touches is a component
    of its own.  Each component is a sorted index array, and they come in
    the order of their first index.  Every sum and product of the operators,
    their exponential included, is block diagonal in these components with
    exact zeros outside them, whatever the model.  An operator with a ladder
    pattern gives its nonzeros in O(dim), any other the kept places of its
    nonzeros.  The components of a single operator are found once and kept.
    """
    if len(ops) == 1:
        return list(ops[0]._kept("components", lambda: _components(ops)))
    return _components(ops)


def _components(ops) -> list[np.ndarray]:
    rows, cols = [], []
    for op in ops:
        p = op.ladder
        if p is None:
            r, c = op._places()
        else:
            c = np.flatnonzero(p.values)
            r = p.rows[c]
        rows.append(r)
        cols.append(c)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    # every state points at the smallest state of its component when no
    # nonzero joins two roots: hook each root to the smallest root across
    # its nonzeros, then point every state straight at its root
    root = np.arange(ops[0].dim)
    while True:
        low = np.minimum(root[rows], root[cols])
        hooked = root.copy()
        np.minimum.at(hooked, root[rows], low)
        np.minimum.at(hooked, root[cols], low)
        if np.array_equal(hooked, root):
            break
        while not np.array_equal(root, hooked):
            root, hooked = hooked, hooked[hooked]
    order = np.argsort(root, kind="stable")
    return list(_frozen(*np.split(order, np.flatnonzero(np.diff(root[order])) + 1)))


def _nonzero_places(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the nonzero entries of the square array ``m``, in
    row-major order: one pass over a boolean array, faster than
    ``np.nonzero`` of a complex one."""
    return np.divmod(np.flatnonzero(m != 0), m.shape[1])


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays``, made read-only in place, so that kept ones can be handed out."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _scan(m: np.ndarray) -> LadderPattern | None:
    """The ladder pattern of the square array ``m``, or None.

    More nonzeros than rows rule a pattern out after one count.  Otherwise
    the first nonzero of every column is located; the array is a pattern if
    these are all of its nonzeros and no two of them share a row.
    """
    d = m.shape[0]
    nonzero = m != 0
    n = np.count_nonzero(nonzero)
    if n > d:
        return None
    rows = nonzero.argmax(axis=0)
    values = m[rows, np.arange(d)]
    full = values != 0
    if np.count_nonzero(full) < n or np.bincount(rows[full], minlength=1).max() > 1:
        return None
    return LadderPattern(rows, values)


def _compose(pa: LadderPattern, pb: LadderPattern) -> LadderPattern:
    """The pattern of ``A @ B``: column ``j`` of ``B`` picks column
    ``pb.rows[j]`` of ``A``.  Each value is the product :func:`_product`'s
    gathers form, in their operand order, with every zero +0."""
    return LadderPattern(pa.rows[pb.rows], pa.values[pb.rows] * pb.values + 0.0)


def _product(a: OperatorMatrix, b: OperatorMatrix) -> np.ndarray:
    """``a @ b`` as a fresh C-ordered array.

    If ``a`` is pattern-only, row ``i`` of the product is row ``t.rows[i]``
    of ``b`` times ``t.values[i]``, ``t`` the transpose of ``a``'s column
    map; else if ``b`` is, column ``j`` is column ``rows[j]`` of ``a`` times
    ``values[j]``.  Otherwise it is BLAS's product.  The skipped terms of
    the dense product are exact zeros, so for real pattern values every
    entry equals that of ``a @ b``.  Adding 0 turns the -0 of a negative
    value times 0 into +0, the zero BLAS gives at most sizes (some of its
    edge kernels give -0), because LAPACK reads the sign of a zero.
    """
    if a.ladder is not None:
        t = a.ladder.transpose()
        out = np.ascontiguousarray(b.matrix[t.rows])
        np.multiply(t.values[:, None], out, out=out)
    else:
        pb = b.ladder
        if pb is None:
            return a.matrix @ b.matrix
        out = np.ascontiguousarray(np.take(a.matrix, pb.rows, axis=1))
        out *= pb.values
    out += 0.0
    return out


def photon_safe_mask(space: SpaceDescriptor, margin: int = 1) -> np.ndarray:
    """States at least ``margin`` photons below every mode truncation.

    Operator identities that involve ``a a^dag`` hold on the truncated
    space only away from the top Fock level; comparisons are restricted to
    this mask.
    """
    tops = np.array([m.n_max for m in space.modes], dtype=np.int64)
    return np.all(space._label_array[:, :len(tops)] <= tops - margin, axis=1)


def occupation_sector_mask(space: SpaceDescriptor, empty_levels) -> np.ndarray:
    """States with zero population in each of the given (1-based) levels."""
    empties = [len(space.modes) + lvl - 1 for lvl in empty_levels]
    return np.all(space._label_array[:, empties] == 0, axis=1)


def basis_state(space: SpaceDescriptor, photons=(), occupations=None, level: int | None = None) -> np.ndarray:
    """Unit vector for one basis label.

    ``level`` is a shorthand for putting every atom in that (1-based) level.
    """
    if occupations is None:
        if level is None:
            raise ValueError("give either occupations or level")
        occupations = [0] * space.ensemble.levels
        occupations[level - 1] = space.ensemble.atoms
    vec = np.zeros(space.dim, dtype=complex)
    vec[space.index(tuple(photons), tuple(occupations))] = 1.0
    return vec
