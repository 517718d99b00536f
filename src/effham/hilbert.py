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
(``a``, ``S^{ij}``, ``a^k S^{ij}`` and their adjoints).  Where the nonzero
of each row and column sits is the operator's :class:`LadderPattern`, and
an operator is stored one of two ways:

* dense, a frozen ``dim x dim`` array; its pattern, if it has one, is found
  by one O(dim^2) scan on first use and kept;
* pattern-only, O(dim): the pattern, the value of every entry off it (a
  zero, with its sign) and the memory order of the dense array.  An
  operation that already knows the pattern of its result makes one: the
  constructors below, ``dag``, ``-`` and scalar ``*`` of a pattern-only
  operator, ``@`` and :func:`commutator` of two patterned operators, ``+``
  and ``-`` of pattern-only operators whose nonzeros sit in the same
  places, and :meth:`OperatorMatrix.project`.  Everything else is dense.

Both storages hold the same array bit for bit, signs of zero and memory
order included, because LAPACK reads the sign of a zero and the order of
an array changes how BLAS and NumPy's reductions round.  ``matrix`` of a
pattern-only operator builds that array on each access and does not keep
it; the library's own readers (norms, diagonals, blocks, the checks) take
the pattern where that gives the dense result's bits.

A patterned factor of ``@`` or :func:`commutator` whose partner is dense
and has no pattern turns the product into a gather of the partner's rows
or columns scaled by the pattern values, in place of a dim^3 BLAS product;
for real pattern values every entry equals the dense product's.  Every
product is C-ordered like BLAS's output.

:func:`components` gives the connected components of the joint nonzero
pattern of operators: the blocks every function of them is block diagonal
in, which the exponential, the conjugation and the evolution run on.
"""

from __future__ import annotations

import cmath
import math
import operator
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
    """Where the only nonzero of each column and of each row sits.

    ``matrix[rows[j], j] == col_values[j]`` and ``matrix[i, cols[i]] ==
    row_values[i]``.  An empty column has value 0 and an arbitrary row,
    an empty row likewise, so a pattern is compared by its values and by
    its indices where the values are nonzero.
    """

    rows: np.ndarray
    col_values: np.ndarray
    cols: np.ndarray
    row_values: np.ndarray

    @property
    def is_diagonal(self) -> bool:
        """Every nonzero sits on the diagonal."""
        return not np.count_nonzero((self.rows != _own(len(self.rows))) & (self.col_values != 0))


#: marks a dense operator whose ladder pattern has not been looked for yet
_UNSCANNED = object()


class OperatorMatrix:
    """Complex operator bound to a :class:`SpaceDescriptor` basis.

    Supports ``+``, ``-``, scalar ``*``, ``@`` and adjoint via :meth:`dag`.
    Operators are immutable; arithmetic returns new instances.  ``matrix``
    is the read-only dense array whichever way the operator is stored (see
    the module docstring).
    """

    __slots__ = ("space", "_dense", "_ladder", "_zero", "_fortran")

    def __init__(self, space: SpaceDescriptor, matrix: np.ndarray):
        arr = np.array(matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("operator matrix must be square")
        if arr.shape[0] != space.dim:
            raise ValueError(f"matrix dimension {arr.shape[0]} != space dimension {space.dim}")
        self._set(space, arr, _UNSCANNED)

    def _set(self, space: SpaceDescriptor, dense, ladder, zero=0j, fortran=False) -> None:
        if dense is not None:
            dense.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "_dense", dense)
        object.__setattr__(self, "_ladder", ladder)
        object.__setattr__(self, "_zero", zero)
        object.__setattr__(self, "_fortran", fortran)

    def _result(self, arr: np.ndarray, ladder=_UNSCANNED) -> "OperatorMatrix":
        """A dense operator on this space around ``arr``, a fresh array
        nothing else holds, so it is frozen in place instead of copied."""
        out = object.__new__(OperatorMatrix)
        out._set(self.space, arr, ladder)
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
        """The dense array, read-only.  A pattern-only operator builds it on
        each access and does not keep it."""
        if self._dense is not None:
            return self._dense
        arr = _materialise(self._ladder, self._zero, self._fortran)
        arr.setflags(write=False)
        return arr

    @property
    def ladder(self) -> LadderPattern | None:
        """The :class:`LadderPattern`, or None if a row or column has two nonzeros.

        A dense operator finds it by one scan on first use and keeps it; an
        idempotent write, so threads sharing the operator at worst scan it
        twice.
        """
        if self._ladder is _UNSCANNED:
            object.__setattr__(self, "_ladder", _scan(self._dense))
        return self._ladder

    def dag(self) -> "OperatorMatrix":
        """Hermitian adjoint."""
        p = self._ladder
        if isinstance(p, LadderPattern):
            p = LadderPattern(p.cols, p.row_values.conj(), p.rows, p.col_values.conj())
        if self._dense is None:
            # the dense adjoint is a transposed view, so its order flips
            return _pattern_operator(self.space, p, self._zero.conjugate(), not self._fortran)
        return self._result(self._dense.conj().T, p)

    def norm(self) -> float:
        """Frobenius norm."""
        if self._dense is None and not np.count_nonzero(self._ladder.col_values):
            return 0.0
        return float(np.linalg.norm(self.matrix))

    def diagonal(self) -> np.ndarray:
        if self._dense is None:
            p = self._ladder
            return np.where(p.rows == _own(self.dim), p.col_values, self._zero)
        return self._dense.diagonal().copy()

    def offdiagonal_norm(self) -> float:
        """Frobenius norm of the operator with its diagonal set to zero."""
        if self._dense is None:
            p = self._ladder
            if not np.count_nonzero((p.rows != _own(self.dim)) & (p.col_values != 0)):
                return 0.0
        m = self.matrix
        return float(np.linalg.norm(m - np.diag(m.diagonal())))

    def is_diagonal(self, tol: float) -> bool:
        """The off-diagonal part is at most ``tol`` relative to the norm (or to 1)."""
        off = self.offdiagonal_norm()
        return off == 0.0 or off <= tol * max(1.0, self.norm())

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        if self._dense is not None:
            m = self._dense
            return float(np.linalg.norm(m - m.conj().T)) <= tol * max(1.0, self.norm())
        # each nonzero c at (rows[j], j) leaves c - conj(back) there, back
        # the entry at (j, rows[j]); where back is 0 it also leaves -conj(c)
        # at (j, rows[j])
        p = self._ladder
        c = p.col_values
        back = np.where((p.cols == p.rows) & (c != 0), p.row_values, 0.0)
        diff, lone = c - back.conj(), np.where(back == 0, c, 0.0)
        defect2 = np.vdot(diff, diff).real + np.vdot(lone, lone).real
        return math.sqrt(defect2) <= tol * max(1.0, math.sqrt(np.vdot(c, c).real))

    def is_unitary(self, tol: float = 1e-12) -> bool:
        m = self.matrix
        return unitary_within(float(np.linalg.norm(m.conj().T @ m - np.eye(self.dim))), tol, self.dim)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        v = np.asarray(vec, dtype=complex)
        if self._dense is None:
            return self._ladder.row_values * v[self._ladder.cols]
        return self._dense @ v

    def expect(self, vec: np.ndarray) -> complex:
        v = np.asarray(vec, dtype=complex)
        return complex(v.conj() @ self.apply(v))

    def block(self, rows: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """``matrix[np.ix_(rows, cols)]`` (``cols`` defaults to ``rows``), a
        fresh C-ordered array; a pattern-only operator builds only the block.

        ``rows`` and ``cols`` may also be stacks of index arrays, shape
        ``(count, size)``, for a stack of ``count`` blocks.
        """
        rows = np.asarray(rows)
        cols = rows if cols is None else np.asarray(cols)
        if self._dense is not None:
            return self._dense[rows[..., :, None], cols[..., None, :]]
        p = self._ladder
        hit = rows[..., :, None] == p.rows[cols][..., None, :]
        return np.where(hit, p.col_values[cols][..., None, :], self._zero)

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of the nonzero entries, in row-major
        order as ``np.nonzero`` lists them."""
        if self._dense is None:
            p = self._ladder
            rows = np.flatnonzero(p.row_values)
            return rows, p.cols[rows], p.row_values[rows]
        rows, cols = np.nonzero(self._dense)
        return rows, cols, self._dense[rows, cols]

    def inner(self, other: "OperatorMatrix"):
        """``sum(conj(self) * other)`` over all entries, summed as NumPy sums
        the dense product."""
        self._check(other)
        if self._dense is None and other._dense is None:
            prod = _aligned(_conj_times, self, other)
            if prod is not None:
                return np.sum(_materialise(*prod))
        return np.sum(np.conj(self.matrix) * other.matrix)

    def project(self, mask: np.ndarray) -> "OperatorMatrix":
        """Compress to the subspace selected by the boolean ``mask`` (P A P)."""
        m = np.asarray(mask, dtype=bool)
        p = self._ladder
        if self._dense is None and _is_plus_zero(self._zero):
            # every entry outside the block becomes +0, the zero off the pattern
            inside_c, inside_r = m[p.rows] & m, m & m[p.cols]
            return _pattern_operator(self.space, LadderPattern(
                p.rows, np.where(inside_c, p.col_values, 0.0),
                p.cols, np.where(inside_r, p.row_values, 0.0)))
        return self._result(np.where(np.outer(m, m), self.matrix, 0.0))

    # -- arithmetic --------------------------------------------------------
    def _entrywise(self, op, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check(other)
        if self._dense is None and other._dense is None:
            aligned = _aligned(op, self, other)
            if aligned is not None:
                return _pattern_operator(self.space, *aligned)
        return self._result(op(self.matrix, other.matrix))

    def __add__(self, other):
        return self._entrywise(operator.add, other)

    def __sub__(self, other):
        return self._entrywise(operator.sub, other)

    def __neg__(self):
        if self._dense is None:
            p = self._ladder
            return _pattern_operator(self.space, LadderPattern(p.rows, -p.col_values, p.cols, -p.row_values),
                                     -self._zero, self._fortran)
        return self._result(-self._dense)

    def __mul__(self, scalar):
        s = complex(scalar)
        p = self._ladder
        if isinstance(p, LadderPattern):
            p = LadderPattern(p.rows, p.col_values * s, p.cols, p.row_values * s)
        else:
            p = _UNSCANNED  # times 0, an operator without a pattern gets one
        if self._dense is None:
            if cmath.isfinite(s):
                return _pattern_operator(self.space, p, self._zero * s, self._fortran)
            return self._result(self.matrix * s)
        return self._result(self._dense * s, p)

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check(other)
        pa, pb = self.ladder, other.ladder
        if pa is not None and pb is not None:
            return _pattern_operator(self.space, _compose(pa, pb))
        return self._result(_product(self, other))

    def __repr__(self):
        return f"OperatorMatrix(dim={self.dim})"


def _pattern_operator(space: SpaceDescriptor, ladder: LadderPattern, zero=0j,
                      fortran: bool = False) -> OperatorMatrix:
    """A pattern-only operator: ``ladder``, ``zero`` at every other entry,
    and a dense array in Fortran order if ``fortran``."""
    out = object.__new__(OperatorMatrix)
    out._set(space, None, ladder, complex(zero), fortran)
    return out


def _materialise(p: LadderPattern, zero: complex, fortran: bool) -> np.ndarray:
    """The dense array of a pattern-only operator, fresh and writable."""
    d = len(p.rows)
    order = "F" if fortran else "C"
    if _is_plus_zero(zero):
        out = np.zeros((d, d), dtype=complex, order=order)
    else:
        out = np.full((d, d), zero, dtype=complex, order=order)
    out[p.rows, _own(d)] = p.col_values
    return out


@lru_cache(maxsize=64)
def _own(d: int) -> np.ndarray:
    """``arange(d)``, shared and read-only."""
    own = np.arange(d)
    own.setflags(write=False)
    return own


def _is_plus_zero(z: complex) -> bool:
    return z == 0 and math.copysign(1.0, z.real) > 0 and math.copysign(1.0, z.imag) > 0


def _same(x: np.ndarray, y: np.ndarray) -> bool:
    return x is y or x.tobytes() == y.tobytes()


def _live(values: np.ndarray, zero: complex) -> np.ndarray:
    """Which pattern values differ, bit for bit, from the entries off it."""
    bits = values.view(np.uint64).reshape(-1, 2)
    re, im = np.array([zero.real, zero.imag]).view(np.uint64)
    return (bits[:, 0] != re) | (bits[:, 1] != im)


def _conj_times(x, y):
    return np.conj(x) * y


def _aligned(op, a: OperatorMatrix, b: OperatorMatrix):
    """The storage ``(pattern, zero, fortran)`` of ``op`` applied entry by
    entry to two pattern-only operators, or None if that is not pattern-only.

    It is when no column, and no row, holds live entries of the two in
    different places, a live entry being a pattern value that is not bit
    for bit the zero off the pattern: the result holds ``op`` of the two
    entries there and ``op`` of the two zeros everywhere else.  Patterns
    with the same indices pass at once; a column with nonzeros in two rows
    fails at once.  The dense array is C-ordered unless both are
    Fortran-ordered, as NumPy orders the result of ``op``.
    """
    p, q = a._ladder, b._ladder
    if _same(p.rows, q.rows) and _same(p.cols, q.cols):
        rows, cols = p.rows, p.cols
    else:
        both = (p.col_values != 0) & (q.col_values != 0)
        if not _same(p.rows[both], q.rows[both]):
            return None
        live_p, live_q = _live(p.col_values, a._zero), _live(q.col_values, b._zero)
        both = live_p & live_q
        if not _same(p.rows[both], q.rows[both]):
            return None
        mine_p, mine_q = _live(p.row_values, a._zero), _live(q.row_values, b._zero)
        both = mine_p & mine_q
        if not _same(p.cols[both], q.cols[both]):
            return None
        rows, cols = np.where(live_p, p.rows, q.rows), np.where(mine_p, p.cols, q.cols)
    ladder = LadderPattern(rows, op(p.col_values, q.col_values), cols, op(p.row_values, q.row_values))
    return ladder, complex(op(a._zero, b._zero)), a._fortran and b._fortran


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


def _diagonal_operator(space: SpaceDescriptor, values: np.ndarray) -> OperatorMatrix:
    own = _own(space.dim)
    values = np.asarray(values, dtype=complex)
    return _pattern_operator(space, LadderPattern(own, values, own, values))


def _column_operator(space: SpaceDescriptor, rows: np.ndarray, values: np.ndarray) -> OperatorMatrix:
    """The operator whose column ``j`` holds ``values[j]`` in row ``rows[j]``
    and nothing else; a column with value 0 is empty."""
    values = np.asarray(values, dtype=complex)
    full = np.flatnonzero(values)
    cols, row_values = np.arange(space.dim), np.zeros(space.dim, dtype=complex)
    cols[rows[full]] = full
    row_values[rows[full]] = values[full]
    return _pattern_operator(space, LadderPattern(rows, values, cols, row_values))


@_per_space
def identity(space: SpaceDescriptor) -> OperatorMatrix:
    return _diagonal_operator(space, np.ones(space.dim))


@_per_space
def zero(space: SpaceDescriptor) -> OperatorMatrix:
    return _diagonal_operator(space, np.zeros(space.dim))


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
    return _diagonal_operator(space, space._label_array[:, mode_index])


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
        return _diagonal_operator(space, labels[:, ii])
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
    if lhs.space is not rhs.space and lhs.space != rhs.space:
        raise SpaceMismatchError("commutator operands live on different spaces")
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
    pattern gives its nonzeros in O(dim), any other by one scan of its array.
    """
    rows, cols = [], []
    for op in ops:
        p = op.ladder
        if p is None:
            # one pass over a boolean array, faster than np.nonzero of a complex one
            r, c = np.divmod(np.flatnonzero(op._dense != 0), op.dim)
        else:
            c = np.flatnonzero(p.col_values)
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
    return np.split(order, np.flatnonzero(np.diff(root[order])) + 1)


def _scan(m: np.ndarray) -> LadderPattern | None:
    """The ladder pattern of the square array ``m``, or None.

    More nonzeros than rows rule a pattern out after one count.  Otherwise
    the first nonzero of every row and of every column is located; the
    array is a pattern if these are all of its nonzeros.
    """
    d = m.shape[0]
    nonzero = m != 0
    n = np.count_nonzero(nonzero)
    if n > d:
        return None
    own = np.arange(d)
    rows, cols = nonzero.argmax(axis=0), nonzero.argmax(axis=1)
    col_values, row_values = m[rows, own], m[own, cols]
    if np.count_nonzero(col_values) < n or np.count_nonzero(row_values) < n:
        return None
    return LadderPattern(rows, col_values, cols, row_values)


def _compose(pa: LadderPattern, pb: LadderPattern) -> LadderPattern:
    """The pattern of ``A @ B``, each value the product :func:`_product`'s
    gathers form, in their operand order, with every zero +0."""
    return LadderPattern(pa.rows[pb.rows], pa.col_values[pb.rows] * pb.col_values + 0.0,
                         pb.cols[pa.cols], pa.row_values * pb.row_values[pa.cols] + 0.0)


def _product(a: OperatorMatrix, b: OperatorMatrix) -> np.ndarray:
    """``a @ b`` as a fresh C-ordered array.

    If ``a`` has a ladder pattern, row ``i`` of the product is row
    ``cols[i]`` of ``b`` times ``row_values[i]``; else if ``b`` has one,
    column ``j`` is column ``rows[j]`` of ``a`` times ``col_values[j]``.
    The skipped terms of the dense product are exact zeros, so for real
    pattern values every entry equals that of ``a @ b``.  Adding 0 turns
    the -0 of a negative value times 0 into +0, the zero BLAS gives at most
    sizes (some of its edge kernels give -0), because LAPACK reads the sign
    of a zero.
    """
    pa = a.ladder
    if pa is not None:
        out = np.ascontiguousarray(b.matrix[pa.cols])
        np.multiply(pa.row_values[:, None], out, out=out)
    else:
        pb = b.ladder
        if pb is None:
            return a.matrix @ b.matrix
        out = np.ascontiguousarray(np.take(a.matrix, pb.rows, axis=1))
        out *= pb.col_values
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
