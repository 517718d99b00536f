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
shared freely between threads.  Every operator is a stack of column maps,
its :class:`LadderPattern`, O(k dim) for ``k`` maps.  The operators the
models build are sums of ladder operators: the diagonal ones (populations,
photon numbers, ``X3``, the structure operators) and ``a``, ``S^{ij}``,
``a^k S^{ij}`` and their adjoints have at most one nonzero per column,
couplings ``g (X+ + X-)`` and generators ``eps (X+ - X-)`` two, ``h_int`` a
few.  Rotations and the conjugated and filtered forms are block diagonal,
so they hold as many maps as their largest block has states.

The public constructor keeps every entry of its array that is not +0, a -0
included, so the stack materialises to that array bit for bit.  ``dag``,
``project``, ``-`` and scalar ``*`` act on the stack, and ``+`` and ``-``
of two stacks hold the dense operation's entries bit for bit, signed zeros
included.  Scalar ``*`` scales the values only, so the zeros off a stack
stay +0 where the dense product has -0 for a negative factor; a non-finite
factor multiplies the dense array.  ``@`` and :func:`commutator` keep every
entry of the product that is a single product, formed by NumPy in the
operand order with every zero +0; for real values it equals BLAS's.  Where
two products land on one entry, the product is formed block by block on
the joint components of the factors (:func:`blockwise`), where it is block
diagonal, with +0 off the blocks, so no product builds a dim^2 array.

``matrix`` builds the C-ordered dense array on each access and does not
keep it.  The library's own readers (diagonals, blocks, entries, ``apply``,
the checks) read the stack.  ``norm``, ``offdiagonal_norm`` and ``inner``
give the bits of NumPy's reductions of the dense array (``np.linalg.norm``
on one BLAS thread, ``np.sum``): at small dimensions they reduce over a
transient dense array, and from :data:`_STACK_NORM_DIM` and
:data:`_STACK_SUM_DIM` up over the stack's nonzero entries in the dense
reductions' order (:func:`_frobenius`, :func:`_pairwise_sum`), with no
dim^2 array.  ``apply`` reads only the columns on the support of its
vector.  An operator keeps what its readers ask of it again: its nonzero
entries, its norm, and its nonzero entries grouped by transition signature
(:meth:`OperatorMatrix.signatures`), one ``np.unique`` of the differences
of the space's integer state keys.  Its components and their labels are
found on each request.  The blocks of an operator of
:func:`blocks_on_read` are formed per component on first read: ``apply``
and ``block`` form those of the states they read, and every other read
all that are left, so no reader sees a block that is not formed.

The constructors build a new operator on each call and keep nothing on the
space; a model keeps the elementary operators it builds in ``operators``.

:func:`components` gives the connected components of the joint nonzero
pattern of operators: the blocks every function of them is block diagonal
in; :func:`component_labels` names each state's component by its smallest
state, which the evolution finds its span with.  :func:`blocks_on_read` is
the one writer of block stacks: it gathers the blocks of each operand,
grouped by size, in one pass over the operand's stack and writes a
kernel's blocks into one stack, each component's on the first read that
touches it.  :func:`blockwise` writes every block at once.  The
exponential and the product of rotation stages are one call of
:func:`blocks_on_read` each, the conjugation, the unitarity check and
every product whose terms collide one call of :func:`blockwise`, so no
other module reads or writes a stack.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionCapError, SpaceMismatchError

#: Hard cap on the total space dimension.  Only ``matrix`` and the
#: reductions at small dimensions build a ``dim x dim`` array.
DIMENSION_CAP = 20000

#: From these dimensions up ``norm`` and ``offdiagonal_norm``, and
#: ``inner``, reduce over the stack; below them over a transient dense
#: array, which is as fast there (at most 1 and 4 MB; measured on the Dicke
#: operators, the stack is the faster from dim ~200 and ~550 up).  Both
#: ways give the same bits.
_STACK_NORM_DIM = 256
_STACK_SUM_DIM = 512

#: The entries of an aligned group that :func:`_frobenius` keeps or drops
#: as a whole: a multiple of the four lanes of BLAS's strided ``ddot``.
_GROUP = 64

#: The longest run NumPy's pairwise sum of a complex array adds as a leaf:
#: 128 doubles.
_LEAF = 64


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
    Each state also has one exact integer key (:meth:`_key`), which the
    label lookups and the signature grouping read.
    """

    modes: tuple[FockTruncation, ...]
    ensemble: EnsembleSpec
    labels: tuple[Label, ...]

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def _label_array(self) -> np.ndarray:
        """The labels as integers, one row per state: photons, then occupations."""
        return np.array([p + o for p, o in self.labels], dtype=np.int64).reshape(self.dim, -1)

    @cached_property
    def _radix(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lowest value, span, place value) of each label column for
        :meth:`_key`: a mixed radix of ``2 span + 1`` per column, the first
        column the most significant.  The places are int64 where the product
        of the radices fits, and with it every key and every difference of
        two keys (at most half that product in size), else Python integers,
        exact at any size."""
        columns = np.ascontiguousarray(self._label_array.T)  # reduced faster by rows
        low = columns.min(axis=1)
        span = columns.max(axis=1) - low
        places = [1]
        for s in span[:0:-1].tolist():
            places.append(places[-1] * (2 * s + 1))
        exact = places[-1] * (2 * int(span[0]) + 1) <= np.iinfo(np.int64).max
        return low, span, np.array(places[::-1], dtype=np.int64 if exact else object)

    def _key(self, labels: np.ndarray) -> np.ndarray:
        """The key of each row of an integer label array laid out like
        ``_label_array``: its offsets from the lowest values in the mixed
        radix of :attr:`_radix`.  The keys of distinct basis states differ,
        and ``key(a) - key(b)`` names ``a - b`` (:meth:`_differences`).  A
        label outside the columns' ranges may share a state's key.  An int64
        key is formed modulo 2^64, so it is exact wherever it fits."""
        low, _, place = self._radix
        return labels @ place - low @ place

    @cached_property
    def _keys(self) -> np.ndarray:
        """The key of each basis state (:meth:`_key`), read-only."""
        return _frozen(self._key(self._label_array))[0]

    def _differences(self, keys: np.ndarray) -> list[Label]:
        """The ``(dphot, docc)`` label difference each difference of two
        state keys names.  Its digits are balanced, each in ``[-span,
        span]``, so adding the key of all spans gives plain digits in
        ``[0, 2 span]``."""
        _, span, place = self._radix
        plain = (keys + span @ place)[:, None] // place % (2 * span + 1)
        split = len(self.modes)
        return [(tuple(d[:split]), tuple(d[split:])) for d in (plain - span).tolist()]

    @cached_property
    def _sorted_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted keys, basis index of each) for :meth:`_lookup`."""
        order = np.argsort(self._keys)
        return self._keys[order], order

    def _lookup(self, labels: np.ndarray) -> np.ndarray:
        """Basis indices of the rows of an integer label array laid out like
        ``_label_array``; raises if one is not a basis state."""
        keys, order = self._sorted_keys
        found = order[np.minimum(np.searchsorted(keys, self._key(labels)), len(keys) - 1)]
        if not np.array_equal(self._label_array[found], labels):
            raise ValueError("no basis state with a requested label")
        return found

    def index(self, photons, occupations) -> int:
        """Basis index of the state with the given photon numbers and occupations."""
        key = (tuple(int(n) for n in photons), tuple(int(k) for k in occupations))
        if tuple(map(len, key)) == (len(self.modes), self.ensemble.levels):
            with suppress(ValueError, OverflowError):
                return int(self._lookup(np.array([key[0] + key[1]], dtype=np.int64))[0])
        raise ValueError(f"no basis state with label {key}")

    def photons(self, i: int) -> tuple[int, ...]:
        return self.labels[i][0]

    def occupations(self, i: int) -> tuple[int, ...]:
        return self.labels[i][1]


def basis_dimension(modes: tuple[FockTruncation, ...], ensemble: EnsembleSpec) -> int:
    """The dimension of the modes x ensemble space, found without enumerating it."""
    return math.prod((m.dim for m in modes), start=ensemble.dim)


def enumerate_basis(modes, ensemble: EnsembleSpec, cap: int = DIMENSION_CAP) -> SpaceDescriptor:
    """Build the basis for the given modes and ensemble.

    ``modes`` may contain :class:`FockTruncation` instances or plain
    non-negative integers (interpreted as ``n_max``).  The total dimension
    is checked against ``cap`` before any matrix is allocated.
    """
    mode_specs = tuple(m if isinstance(m, FockTruncation) else FockTruncation(m) for m in modes)
    dim = basis_dimension(mode_specs, ensemble)
    if dim > cap:
        raise DimensionCapError(f"space dimension {dim} exceeds cap {cap}")

    occ = _occupations(ensemble.levels, ensemble.atoms)
    photon_grids: list[tuple[int, ...]] = [()]
    for m in mode_specs:
        photon_grids = [g + (n,) for g in photon_grids for n in range(m.dim)]
    labels = tuple((g, o) for g in photon_grids for o in occ)
    return SpaceDescriptor(modes=mode_specs, ensemble=ensemble, labels=labels)


class LadderPattern(NamedTuple):
    """A stack of ``k`` column maps, ``rows`` and ``values`` of shape
    ``(k, dim)``: map ``m`` puts ``values[m, j]`` at ``(rows[m, j], j)``, and
    every entry off the stack is +0.

    No two entries of a stack share a place, so each entry is the operator's
    entry there, a signed zero included: a stack may hold a zero at a place,
    as it holds every entry of an array it was made of that is not +0.  An
    unused entry of a stack of several maps has row -1 and value 0: it is
    nowhere.  A zero column of one map may point at any row (the
    constructors point it at the diagonal), so a stack is compared by its
    values and by its rows where the values are nonzero.
    """

    rows: np.ndarray
    values: np.ndarray

    def nonzeros(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of the nonzero entries, map by map."""
        full = np.flatnonzero(self.values)
        return self.rows.ravel()[full], full % self.rows.shape[1], self.values.ravel()[full]

    def transpose(self) -> "LadderPattern":
        """The stack of the transpose: map ``m`` holds the ``m``-th nonzero
        of every row, in the order :meth:`nonzeros` lists them."""
        rows, cols, values = self.nonzeros()
        return _stacked(self.rows.shape[1], cols, rows, values)


class OperatorMatrix:
    """Complex operator bound to a :class:`SpaceDescriptor` basis, stored as
    a :class:`LadderPattern` stack (see the module docstring).

    Supports ``+``, ``-``, scalar ``*``, ``@`` and adjoint via :meth:`dag`.
    Operators are immutable; arithmetic returns new instances.  ``matrix``
    is the read-only dense array.
    """

    __slots__ = ("space", "_stack", "_memo", "_unformed")

    def __init__(self, space: SpaceDescriptor, matrix: np.ndarray):
        arr = np.array(matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("operator matrix must be square")
        if arr.shape[0] != space.dim:
            raise ValueError(f"matrix dimension {arr.shape[0]} != space dimension {space.dim}")
        self._set(space, _array_stack(arr))

    def _set(self, space: SpaceDescriptor, ladder: LadderPattern, unformed=None) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "_stack", ladder)
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_unformed", unformed)

    @property
    def _ladder(self) -> LadderPattern:
        """The stack with every block written (:func:`blocks_on_read`)."""
        if self._unformed is not None:
            self._form()
        return self._stack

    def _form(self, *reads: np.ndarray) -> None:
        """Write the blocks not yet written (:func:`blocks_on_read`) of the
        components that meet every index array of ``reads``; of every
        component without ``reads``.  A component is marked written after
        its blocks are, so two threads at worst write the same bits twice."""
        pending = self._unformed
        if pending is None:
            return
        left, stacks = pending.left, pending.stacks
        if reads or not left.all():
            met = []
            for states in reads:
                met.append(np.zeros(self.dim, dtype=bool))
                met[-1][states] = True
            chosen = []
            for idx in stacks:
                pick = left[idx[:, 0]]
                for m in met:
                    pick &= m[idx].any(axis=1)
                if pick.any():
                    chosen.append(idx[pick])
            stacks = chosen
        if stacks:
            _write_blocks(self._stack, pending.kernel, pending.sources, stacks)
            for idx in stacks:
                left[idx] = False
        if not left.any():
            object.__setattr__(self, "_unformed", None)

    def _kept(self, key: str, find):
        """``find()``, called on the first request for ``key`` and kept: an
        operator never changes, so its nonzero entries, norm and signature
        groups are found once (two threads at worst find the same value twice).
        Every new operator starts with nothing kept."""
        memo = self._memo
        if key not in memo:
            memo[key] = find()
        return memo[key]

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
        """The dense array, read-only, C-ordered with +0 off the stack, built
        on each access and not kept."""
        arr = _materialise(self._ladder)
        arr.setflags(write=False)
        return arr

    @property
    def ladder(self) -> LadderPattern:
        """The :class:`LadderPattern` stack the operator is stored as."""
        return self._ladder

    def dag(self) -> "OperatorMatrix":
        """Hermitian adjoint."""
        rows, cols, values = self._ladder.nonzeros()
        return _pattern_operator(self.space, _stacked(self.dim, cols, rows, values.conj()))

    def norm(self) -> float:
        """Frobenius norm, ``np.linalg.norm(self.matrix)`` bit for bit on one
        BLAS thread (:func:`_frobenius`), found once and kept."""
        return self._kept("norm", lambda: _frobenius(self.dim, *self._ladder.nonzeros()))

    def diagonal(self) -> np.ndarray:
        own = _own(self.dim)
        return self._at(own, own)

    def offdiagonal_norm(self, groups: np.ndarray | None = None) -> float:
        """Frobenius norm of ``m - diag(m.diagonal())``, or, with ``groups``
        (one integer per basis state), of ``m`` with every entry between two
        states of one group set to 0, as :meth:`norm` gives it."""
        rows, cols, v = self._ladder.nonzeros()
        if groups is None:
            v = np.where(rows == cols, v - v, v)  # 0, or NaN where v is not finite
        else:
            apart = groups[rows] != groups[cols]
            rows, cols, v = rows[apart], cols[apart], v[apart]
        return _frobenius(self.dim, rows, cols, v)

    def is_diagonal(self, tol: float) -> bool:
        """The off-diagonal entries have at most ``tol`` times the norm of all
        entries, read from the nonzeros; a NaN entry fails.  At ``tol`` 0 any
        off-diagonal nonzero fails, also one whose square underflows.  Both
        norms are taken of the entries scaled by :func:`_unit_exponent`, so
        no square underflows or overflows."""
        rows, cols, v = self.entries()
        off = v[rows != cols]
        if not off.size:
            return True
        e = _unit_exponent(v)
        return tol > 0 and np.linalg.norm(_scaled(off, e)) <= tol * np.linalg.norm(_scaled(v, e))

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        """``||m - m^dag|| <= tol * ||m||`` (Frobenius), read from the nonzero
        entries only, scaled as :meth:`is_diagonal` scales them; a NaN
        entry, or an inf that meets its mirror entry, fails."""
        # each nonzero v at (r, c) leaves v - conj(back) there, back the
        # entry at (c, r); where back is 0 it also leaves -conj(v) at (c, r)
        rows, cols, v = self.entries()
        e = _unit_exponent(v)
        v, back = _scaled(v, e), _scaled(self._at(cols, rows), e)
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails
            diff = v - back.conj()
        lone = np.where(back == 0, v, 0.0)
        defect2 = _squares(diff) + _squares(lone)
        return math.sqrt(defect2) <= tol * math.sqrt(_squares(v))

    def is_unitary(self, tol: float = 1e-12) -> bool:
        """``||m^dag m - 1||`` (Frobenius) passes :func:`unitary_within` at
        ``tol``; the defect is summed block by block on the components of
        ``m``, where ``m^dag m`` is block diagonal, as
        :func:`~effham.rotations.conjugate` sums it."""
        defects = []
        blockwise(lambda b: defects.append(unitarity_defect(b)) or b, self)
        return unitary_within(math.hypot(*defects), tol, self.dim)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """``matrix @ vec`` for a state or a ``(dim, k)`` stack of states as
        columns, with no dense array: each entry sums its row's nonzero
        products in the order of the transposed stack's maps, a single
        product where the row holds one nonzero.  Only the columns on the
        support of ``vec`` are read, and only their components' blocks are
        written (:func:`blocks_on_read`), so an entry is the sum of the
        products of the whole stack bit for bit wherever that is not zero,
        and 0 in a row no support column reaches."""
        v = np.asarray(vec, dtype=complex)
        live = np.flatnonzero(v.reshape(self.dim, -1).any(axis=1))
        self._form(live)
        p = self._stack
        rows, cols, values = LadderPattern(p.rows[:, live], p.values[:, live]).nonzeros()
        t = _stacked(self.dim, live[cols], rows, values)  # the transpose of those columns
        out = (t.values[0] * v[t.rows[0]].T).T
        for rows, values in zip(t.rows[1:], t.values[1:]):
            out += (values * v[rows].T).T  # an unused entry adds 0
        return out

    def block(self, rows: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """``matrix[np.ix_(rows, cols)]`` (``cols`` defaults to ``rows``), a
        fresh C-ordered array built from the stack alone.

        ``rows`` and ``cols`` may also be stacks of index arrays, shape
        ``(count, size)``, for a stack of ``count`` blocks.  Only the blocks
        of the components that meet both ``rows`` and ``cols`` are written
        (:func:`blocks_on_read`).
        """
        rows = np.asarray(rows)
        cols = rows if cols is None else np.asarray(cols)
        self._form(rows.ravel(), cols.ravel())
        p = self._stack
        if len(p.rows) > 1 and rows.size and rows.shape[:-1] == cols.shape[:-1]:
            # each entry of the requested columns looks its row up among
            # the requested rows: place[i] is 1 + the position of row i in
            # the flattened blocks, 0 where i is not requested (row -1
            # reads the extra last slot), so the cost is the stack's entries
            # in those columns, not each block's size squared
            r = rows.reshape(-1, rows.shape[-1])
            c = cols.reshape(len(r), -1)
            count, n, width = r.shape + c.shape[1:]
            flat = np.arange(1, r.size + 1)
            place = np.zeros(self.dim + 1, dtype=np.intp)
            place[r.ravel()] = flat
            if (place[r.ravel()] == flat).all():  # no row is asked for twice
                at = place[p.rows[:, c]] - 1
                hit = at // n == np.arange(count)[:, None]
                out = np.zeros(r.size * width, dtype=complex)
                out[(at * width + np.arange(width))[hit]] = p.values[:, c][hit]
                return out.reshape(rows.shape[:-1] + (n, width))
        return _stack_at(p, rows[..., :, None], cols[..., None, :])

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of the nonzero entries, in row-major
        order as ``np.nonzero`` lists them, read from the stack once and
        kept."""
        return self._kept("entries", lambda: _frozen(*_row_major(self.dim, *self._ladder.nonzeros())))

    def _at(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The entries at ``(rows[k], cols[k])``, the two index arrays
        broadcast against each other."""
        return _stack_at(self._ladder, rows, cols)

    def inner(self, other: "OperatorMatrix"):
        """``np.sum(self.matrix.conj() * other.matrix)`` bit for bit
        (:func:`_pairwise_sum`)."""
        self._check(other)
        product = _combined(_conj_times, self._ladder, other._ladder)
        if self.dim < _STACK_SUM_DIM:
            return np.sum(_materialise(product))
        rows, cols, values = product.nonzeros()
        flat = rows * self.dim + cols
        order = np.argsort(flat)
        return _pairwise_sum(self.dim ** 2, flat[order], values[order])

    def signatures(self) -> list[Label]:
        """The distinct transition signatures ``(dphot, docc)`` (row label
        minus column label) of the nonzero entries, in the order of their
        keys (:func:`_signature_groups`), found once and kept."""
        return self._kept("signatures", lambda: _signature_groups(self))[2]

    def keeping_signatures(self, kept) -> "OperatorMatrix":
        """The operator with every nonzero entry whose signature is
        ``signatures()[g]`` with ``kept[g]`` false set to +0, every other
        entry as it is: a copy of the values with the same rows."""
        cells, group, _ = self._kept("signatures", lambda: _signature_groups(self))
        p = self._ladder
        values = p.values.copy()
        values.ravel()[cells[~np.asarray(kept, dtype=bool)[group]]] = 0.0
        return _pattern_operator(self.space, LadderPattern(p.rows, values))

    def project(self, mask: np.ndarray) -> "OperatorMatrix":
        """Compress to the subspace selected by the boolean ``mask`` (P A P)."""
        m = np.asarray(mask, dtype=bool)
        rows, values = self._ladder
        return _pattern_operator(self.space, LadderPattern(rows, np.where(m[rows] & m, values, 0.0)))

    # -- arithmetic --------------------------------------------------------
    def _entrywise(self, op, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check(other)
        return _pattern_operator(self.space, _combined(op, self._ladder, other._ladder))

    def __add__(self, other):
        return self._entrywise(np.add, other)

    def __sub__(self, other):
        return self._entrywise(np.subtract, other)

    def __neg__(self):
        return _pattern_operator(self.space, LadderPattern(self._ladder.rows, -self._ladder.values))

    def __mul__(self, scalar):
        s = complex(scalar)
        if cmath.isfinite(s):
            return _pattern_operator(self.space, LadderPattern(self._ladder.rows, self._ladder.values * s))
        return _pattern_operator(self.space, _array_stack(self.matrix * s))

    __rmul__ = __mul__

    def __matmul__(self, other):
        """The product: :func:`_compose` of the stacks where every entry is a
        single product, else NumPy's products of the blocks on the joint
        components of the factors (:func:`blockwise`)."""
        self._check(other)
        composed = _compose(self._ladder, other._ladder)
        if composed is None:
            return blockwise(np.matmul, self, other)
        return _pattern_operator(self.space, composed)

    def __repr__(self):
        return f"OperatorMatrix(dim={self.dim})"


def _pattern_operator(space: SpaceDescriptor, ladder: LadderPattern,
                      unformed: _Unformed | None = None) -> OperatorMatrix:
    """An operator with stack ``ladder``, and the blocks it has not written
    yet (:func:`blocks_on_read`)."""
    out = object.__new__(OperatorMatrix)
    out._set(space, ladder, unformed)
    return out


def _signature_groups(op: OperatorMatrix) -> tuple[np.ndarray, np.ndarray, list[Label]]:
    """The nonzero entries of ``op``'s stack grouped by transition
    signature: the flat place of each in the stack, its group, and the
    distinct signatures.  Each entry is grouped by ``key[row] - key[col]``
    of the space's state keys, which names its signature, with one
    ``np.unique``, and only the distinct differences are decoded."""
    p, keys = op._ladder, op.space._keys
    cells = np.flatnonzero(p.values)
    distinct, group = np.unique(keys[p.rows.ravel()[cells]] - keys[cells % op.dim], return_inverse=True)
    return cells, group, op.space._differences(distinct)


def _stack_at(p: LadderPattern, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The entries of the stack ``p`` at ``(rows[k], cols[k])``."""
    if len(p.rows) == 1:
        return np.where(p.rows[0][cols] == rows, p.values[0][cols], 0.0)
    # one entry at most holds each place: the first map that hits it
    hit = p.rows[:, cols] == rows
    return np.where(hit.any(axis=0), p.values[hit.argmax(axis=0), cols], 0.0)


def _materialise(p: LadderPattern) -> np.ndarray:
    """The dense array of a stack, fresh, writable and C-ordered: every
    entry of the stack written into one more row than the array has, the
    one an entry with row -1 writes to."""
    d = p.rows.shape[1]
    out = np.zeros((d + 1, d), dtype=complex)
    out[p.rows, _own(d)] = p.values
    return out[:d]


def _frobenius(d: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> float:
    """``np.linalg.norm`` of the ``d x d`` array with ``values`` at
    ``(rows, cols)``, no two at one place, and +0 elsewhere, bit for bit,
    with no dim^2 array from :data:`_STACK_NORM_DIM` up.

    NumPy's norm of a complex array is two strided BLAS ``ddot`` calls,
    over the real and over the imaginary parts.  On one thread each adds
    the squares of every aligned group of four entries into fixed lanes,
    in order, then the last ``n mod 4`` one by one.  A group of zeros adds
    exact zeros to sums that are never -0, so the norm of the row-major
    array with every aligned group of :data:`_GROUP` entries that holds no
    nonzero dropped, and the last ``d^2 mod _GROUP`` entries kept as they
    are, has the same bits.  On more threads ``ddot`` splits its vector
    among them by length, so the dense norm's own bits depend on the
    thread count from ``d^2 > 10^4`` up, and the short vector's may differ.
    """
    if not values.any():
        return 0.0
    if d < _STACK_NORM_DIM:
        dense = np.zeros((d, d), dtype=complex)
        dense[rows, cols] = values
        return float(np.linalg.norm(dense))
    n, flat = d * d, rows * d + cols
    whole = n - n % _GROUP
    head = flat < whole
    kept, slot = np.unique(flat[head] // _GROUP, return_inverse=True)
    short = np.zeros(len(kept) * _GROUP + n - whole, dtype=complex)
    short[slot * _GROUP + flat[head] % _GROUP] = values[head]
    short[len(kept) * _GROUP + flat[~head] - whole] = values[~head]
    return float(np.linalg.norm(short))


def _pairwise_sum(n: int, places: np.ndarray, values: np.ndarray) -> complex:
    """``np.sum`` of the complex vector of length ``n`` holding ``values``
    at the sorted ``places`` and 0 elsewhere, bit for bit, from the entries
    alone.

    NumPy sums a run of at most :data:`_LEAF` entries as a leaf: entry
    ``i`` goes to lane ``i % 4`` in order, the lanes are added as
    ``(r0 + r1) + (r2 + r3)``, then the last ``length % 4`` entries one by
    one (every entry, in a leaf of fewer than four).  A longer run is split
    after ``length // 8 * 4`` entries and the sums of its halves added.
    The result is ``0 +`` the root's sum.  Adding an exact zero changes no
    sum but the sign of a zero one, and the result never keeps a -0, so
    only the leaves that hold an entry are summed and only the nodes above
    them add.  Each entry walks down the tree to its leaf, keeping the
    turns it took as the bits of ``path``; two neighbours part at the node
    given by the highest bit in which their paths differ, and neighbouring
    sums are added deepest parting node first.
    """
    if not len(places):
        return np.complex128(0)
    rel, length = places.copy(), np.full(len(places), n)
    path = np.zeros(len(places), dtype=np.int64)
    while length.max() > _LEAF:
        half = np.where(length > _LEAF, length >> 3 << 2, length)  # a leaf stays put
        right = rel >= half
        rel -= half * right
        length = np.where(right, length - half, half)
        path = path << 1 | right
    part = np.frexp(path[1:] ^ path[:-1])[1]  # 0 within a leaf
    new = part > 0
    leaf = np.concatenate([[0], np.cumsum(new)])
    lane = rel < np.where(length < 4, 0, length & -4)
    lanes = np.zeros((leaf[-1] + 1, 4), dtype=complex)
    np.add.at(lanes, (leaf[lane], rel[lane] & 3), values[lane])  # in order
    sums = (lanes[:, 0] + lanes[:, 1]) + (lanes[:, 2] + lanes[:, 3])
    np.add.at(sums, leaf[~lane], values[~lane])
    part = part[new]
    for depth in np.flatnonzero(np.bincount(part)):  # the deepest parting node first
        last = part == depth
        sums[:-1][last] += sums[1:][last]
        sums = sums[np.concatenate([[True], ~last])]
        part = part[~last]
    return 0j + sums[0]


def _squares(x: np.ndarray) -> float:
    """The sum of the squared real and imaginary parts of the contiguous
    complex ``x``, summed as reals: the complex product of an inf with its
    conjugate has a NaN part."""
    parts = x.view(np.float64)
    return float(np.dot(parts, parts))


def _unit_exponent(v: np.ndarray) -> int:
    """The exponent ``e`` of the largest real or imaginary part of ``v``,
    which lies in ``[2^(e-1), 2^e)``; 0 where that part is 0 or not finite.
    Scaled by ``2^-e`` (:func:`_scaled`), the squares of the parts sum to at
    most the part count and lose to underflow only parts below 2^-511 of
    the largest.  A power of two scales exactly, so a ratio of norms, and
    the verdict of a check on it, keeps its bits wherever the entries and
    their squares are normal numbers."""
    top = float(np.abs(np.ascontiguousarray(v).view(np.float64)).max(initial=0.0))
    return math.frexp(top)[1] if math.isfinite(top) else 0


def _scaled(v: np.ndarray, e: int) -> np.ndarray:
    """The complex ``v`` times ``2^-e``, part by part."""
    return np.ldexp(np.ascontiguousarray(v).view(np.float64), -e).view(complex)


def _array_stack(arr: np.ndarray) -> LadderPattern:
    """The stack of the square complex array ``arr``: every entry whose bits
    are not those of +0, a -0 part included, so that it materialises to
    ``arr`` bit for bit."""
    d = arr.shape[0]
    bits = np.ascontiguousarray(arr).view(np.uint64).reshape(d, d, 2)
    rows, cols = np.divmod(np.flatnonzero(bits[..., 0] | bits[..., 1]), d)
    return _stacked(d, rows, cols, arr[rows, cols])


@lru_cache(maxsize=64)
def _own(d: int) -> np.ndarray:
    """``arange(d)``, shared and read-only."""
    own = np.arange(d)
    own.setflags(write=False)
    return own


def _conj_times(x, y):
    return np.conj(x) * y


def _stacked(d: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> LadderPattern:
    """The stack of the ``d x d`` operator with ``values`` at ``(rows, cols)``,
    no two at one place: map ``m`` holds the ``m``-th of them in each
    column.  An unused entry is nowhere, or, in a stack of one map, at the
    diagonal with value 0."""
    counts = np.bincount(cols, minlength=d)
    k = counts.max(initial=1)
    if k == 1:
        out_rows, slot = np.arange(d)[None, :], 0
    else:
        order = np.argsort(cols, kind="stable")
        rows, cols, values = rows[order], cols[order], values[order]
        out_rows, slot = np.full((k, d), -1), np.arange(len(cols)) - (np.cumsum(counts) - counts)[cols]
    out_values = np.zeros(out_rows.shape, dtype=complex)
    out_rows[slot, cols] = rows
    out_values[slot, cols] = values
    return LadderPattern(out_rows, out_values)


def _row_major(d: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray):
    """The entries sorted by row, then column."""
    order = np.argsort(rows * d + cols)
    return rows[order], cols[order], values[order]


def _combined(op, p: LadderPattern, q: LadderPattern) -> LadderPattern:
    """The stack of ``op`` applied entry by entry to the operators with
    stacks ``p`` and ``q``, bit for bit the dense operation's entries.

    Where both hold an entry at one place, ``p``'s map holds ``op`` of the
    two values and ``q``'s entry goes nowhere (map by map, where two stacks
    of one map have the same rows).  Every other entry of ``p`` meets +0, every
    other entry of ``q`` meets +0 in ``q``'s map, and off
    both stacks ``op(+0, +0)`` is +0 as in the dense arrays.  A map of ``q``
    left with zeros only is dropped: ``op(+0, 0)`` is +0 for ``+`` and
    ``-``, as off the stack, and :meth:`OperatorMatrix.inner` does not see
    the sign of a zero.
    """
    if len(q.rows) == 1:
        same = p.rows == q.rows
        if len(p.rows) == 1 and same.all():
            return LadderPattern(p.rows, op(p.values, q.values))
        met = np.where(same, q.values, 0j)
        hit = same if len(p.rows) == 1 else same.any(axis=0, keepdims=True)
    else:
        same = p.rows[:, None] == q.rows[None]
        met = np.where(same.any(axis=1), q.values[same.argmax(axis=1), _own(p.rows.shape[1])], 0j)
        hit = same.any(axis=0)
    rows_q, values_q = np.where(hit, -1, q.rows), np.where(hit, 0j, op(0j, q.values))
    kept = values_q.any(axis=1)
    if not kept.all():
        rows_q, values_q = rows_q[kept], values_q[kept]
    return LadderPattern(np.concatenate([p.rows, rows_q]), np.concatenate([op(p.values, met), values_q]))


# -- constructors -----------------------------------------------------------

def _column_operator(space: SpaceDescriptor, rows: np.ndarray, values) -> OperatorMatrix:
    """The operator whose column ``j`` holds ``values[j]`` in row ``rows[j]``
    and nothing else; a column with value 0 is empty."""
    return _pattern_operator(space, LadderPattern(rows[None, :], np.asarray(values, dtype=complex)[None, :]))


def diagonal_operator(space: SpaceDescriptor, values) -> OperatorMatrix:
    """The operator with ``values`` on its diagonal and nothing else."""
    return _column_operator(space, _own(space.dim), values)


def identity(space: SpaceDescriptor) -> OperatorMatrix:
    return diagonal_operator(space, np.ones(space.dim))


def zero(space: SpaceDescriptor) -> OperatorMatrix:
    return diagonal_operator(space, np.zeros(space.dim))


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


def creator(space: SpaceDescriptor, mode_index: int = 0) -> OperatorMatrix:
    return annihilator(space, mode_index).dag()


def number_operator(space: SpaceDescriptor, mode_index: int = 0) -> OperatorMatrix:
    if not 0 <= mode_index < len(space.modes):
        raise ValueError(f"mode index {mode_index} out of range")
    return diagonal_operator(space, space._label_array[:, mode_index])


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
        return diagonal_operator(space, labels[:, ii])
    able = labels[:, ii] > 0
    moved = labels[able]
    moved[:, ii] -= 1
    moved[:, jj] += 1
    rows = np.arange(space.dim)
    rows[able] = space._lookup(moved)
    return _column_operator(space, rows, np.sqrt(labels[:, ii] * (labels[:, jj] + 1)))


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
    """``lhs @ rhs - rhs @ lhs`` on a shared space.  Where products meet on
    one entry in either order, both products and their difference are
    formed block by block on the joint components of the factors
    (:func:`blockwise`), with +0 off the blocks."""
    lhs._check(rhs)
    p, q = lhs._ladder, rhs._ladder
    pq, qp = _compose(p, q), _compose(q, p)
    if pq is None or qp is None:
        return blockwise(lambda a, b: a @ b - b @ a, lhs, rhs)
    return _pattern_operator(lhs.space, _combined(np.subtract, pq, qp))


def unitary_within(defect: float, tol: float, dim: int) -> bool:
    """Whether a unitarity defect ``||U^dag U - 1||`` (Frobenius) passes at
    ``tol``, scaled by ``max(1, sqrt(dim))``; a NaN defect never passes."""
    return defect <= tol * max(1.0, math.sqrt(dim))


def unitarity_defect(blocks: np.ndarray) -> float:
    """``||B^dag B - 1||`` (Frobenius) over a ``(count, size, size)`` stack
    of blocks ``B``."""
    return float(np.linalg.norm(blocks.conj().swapaxes(-1, -2) @ blocks - np.eye(blocks.shape[-1])))


def components(*ops: OperatorMatrix) -> list[np.ndarray]:
    """The connected components of the joint nonzero pattern of ``ops``.

    States ``i`` and ``j`` are joined when an operator has a nonzero at
    ``(i, j)`` or ``(j, i)``, and a state no nonzero touches is a component
    of its own.  Each component is a sorted, read-only index array, and they
    come in the order of their first index.  Every sum and product of the
    operators, their exponential included, is block diagonal in these
    components with exact zeros outside them, whatever the model.  The
    nonzeros are read from the stacks on each call; nothing is kept.
    """
    root = _components(ops)
    order = np.argsort(root, kind="stable")
    ends = [*(np.flatnonzero(np.diff(root[order])) + 1).tolist(), len(order)]
    return list(_frozen(*(order[start:end] for start, end in zip([0, *ends], ends))))


def component_labels(*ops: OperatorMatrix) -> np.ndarray:
    """The label of each state's component (:func:`components`): its
    smallest state, read-only.  Two states lie in one component exactly
    when their labels are equal."""
    return _components(ops)


def _components(ops) -> np.ndarray:
    rows, cols = [], []
    for op in ops:
        r, c, _ = op._ladder.nonzeros()
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
    return _frozen(root)[0]


def size_groups(parts) -> list[tuple[list[int], np.ndarray]]:
    """The index arrays ``parts`` grouped by length, shortest first: for
    each length, the positions in ``parts`` of the arrays of that length and
    their ``(count, length)`` stack, for stacked kernels."""
    by_size: dict[int, list[int]] = {}
    for k, part in enumerate(parts):
        by_size.setdefault(len(part), []).append(k)
    return [(members, np.array([parts[k] for k in members])) for _, members in sorted(by_size.items())]


def blockwise(kernel, *ops: OperatorMatrix) -> OperatorMatrix:
    """The operator that holds ``kernel`` of the blocks of ``ops`` on the
    joint components of ``ops`` (:func:`components`), and +0 everywhere
    else: :func:`blocks_on_read` on those components, every block written
    at once."""
    stacks = [idx for _, idx in size_groups(components(*ops))]
    out = _unwritten(ops, stacks)
    _write_blocks(out._stack, kernel, [op._ladder for op in ops], stacks)
    return out


class _Unformed(NamedTuple):
    """What an operator of :func:`blocks_on_read` needs to write the blocks
    it has not written yet."""

    kernel: Callable
    sources: tuple  # per operand, its stack, or the operand while it has blocks to write
    stacks: list[np.ndarray]  # the (count, size) component stacks, one per size
    left: np.ndarray  # left[i]: the blocks of state i's component are not written yet


def blocks_on_read(kernel, parts, *ops: OperatorMatrix) -> OperatorMatrix:
    """The operator that holds ``kernel`` of the blocks of ``ops`` on the
    components ``parts``, and +0 everywhere else, each component's blocks
    written on the first read that touches it.

    ``parts`` are sorted index arrays that cover every state once, and every
    nonzero of ``ops`` and of the result lies inside one of them.  They are
    grouped by size (:func:`size_groups`).  For a stack of components of one
    size ``kernel`` gets one ``(count, size, size)`` stack of blocks per
    operand, in the order of ``ops``, and returns the result's blocks as one
    such stack.  The blocks of an operand are those
    :meth:`OperatorMatrix.block` gives, gathered for every size in one pass
    over its stack (:func:`_gathered`) after the operand has written its
    own blocks there.  The result's blocks are written into a stack of as
    many maps as the largest block has states, where map ``m`` of column
    ``idx[c, j]`` holds row ``idx[c, m]`` and value ``blocks[c, m, j]``.
    Every entry inside a block is kept, a zero and its sign too, since
    LAPACK reads that sign; an unused entry, and every entry of a component
    not yet written, is nowhere.  This is the one writer of block stacks.

    :meth:`OperatorMatrix.apply` and :meth:`OperatorMatrix.block` write the
    components of the states they read; every other read writes every
    component left, so it sees the whole operator.
    """
    stacks = [idx for _, idx in size_groups(parts)]
    # a written operand is held by its stack alone, so that an operand that
    # keeps the result (a generator its exponential) forms no cycle with it
    sources = tuple(op if op._unformed is not None else op._stack for op in ops)
    return _unwritten(ops, stacks, _Unformed(kernel, sources, stacks, np.ones(ops[0].dim, dtype=bool)))


def _unwritten(ops, stacks, unformed: _Unformed | None = None) -> OperatorMatrix:
    """An operator on the space of ``ops`` whose stack has as many maps as
    the largest component of ``stacks`` has states, none of them written."""
    for op in ops[1:]:
        ops[0]._check(op)
    size, d = stacks[-1].shape[1], ops[0].dim
    ladder = LadderPattern(np.full((size, d), -1), np.zeros((size, d), dtype=complex))
    return _pattern_operator(ops[0].space, ladder, unformed)


def _write_blocks(p: LadderPattern, kernel, sources, stacks) -> None:
    """Write ``kernel`` of the blocks of the operands on each component
    stack of ``stacks`` into the stack ``p`` (:func:`blocks_on_read`).  A
    source is an operand's stack, or an operand that first writes its own
    blocks on those components."""
    read = []
    for src in sources:
        if isinstance(src, OperatorMatrix):
            src._form(np.concatenate([idx.ravel() for idx in stacks]))
            src = src._stack
        read.append(src)
    gathered = [_gathered(src, stacks) for src in read]
    for g, idx in enumerate(stacks):
        s = idx.shape[1]
        p.rows[:s, idx] = idx.T[:, :, None]
        p.values[:s, idx] = kernel(*(blocks[g] for blocks in gathered)).transpose(1, 0, 2)


def _gathered(p: LadderPattern, stacks) -> list[np.ndarray]:
    """The ``(count, size, size)`` block stack of the stack ``p`` on each of
    the ``(count, size)`` index stacks ``stacks``, no state in two:
    ``block(idx)`` of each, bit for bit, from one pass over ``p``.

    Each entry of ``p`` whose row lies in its column's block goes to its
    place in that block, a stored zero with its sign too, and every other
    place of a block is +0.  The blocks of all sizes lie one after another
    in one array; a state in no block, and an unused entry's row -1, which
    reads the extra last state, have block -1."""
    d = p.rows.shape[1]
    block = np.full(d + 1, -1)  # the block of each state, counted over all sizes
    start = np.zeros(d, dtype=np.intp)  # where its block starts in the array
    pos = np.zeros(d + 1, dtype=np.intp)  # its place in its block
    width = np.zeros(d, dtype=np.intp)  # its block's size
    blocks = offset = covered = 0
    for idx in stacks:
        count, s = idx.shape
        block[idx] = np.arange(blocks, blocks + count)[:, None]
        start[idx] = (offset + s * s * np.arange(count))[:, None]
        pos[idx] = np.arange(s)
        width[idx] = s
        blocks, offset, covered = blocks + count, offset + count * s * s, covered + idx.size
    inside = block[p.rows] == block[:d]
    if covered < d:
        inside &= block[:d] >= 0
    flat = start + pos[p.rows] * width + pos[:d]
    out = np.zeros(offset, dtype=complex)
    out[flat[inside]] = p.values[inside]
    ends = np.cumsum([idx.size * idx.shape[1] for idx in stacks]).tolist()
    return [out[start:end].reshape(idx.shape + idx.shape[1:])
            for start, end, idx in zip([0, *ends], ends, stacks)]


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays``, made read-only in place, so that kept ones can be handed out."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _compose(pa: LadderPattern, pb: LadderPattern) -> LadderPattern | None:
    """The stack of ``A @ B``, or None where two nonzero products land on
    one entry.  Column ``j`` of ``B`` picks, per map, column ``pb.rows[m, j]``
    of every map of ``A``: where ``B`` has one map, each product lands at a
    place of its own, as the entries of one column of ``A`` do.  A zero
    product, the product of an entry of ``B`` that is nowhere included,
    stands for nothing: it points at the diagonal in a stack of one map, as
    the constructors' zero columns do, else nowhere, so that only nonzero
    products can meet, and a map of zero products only is dropped.  Each
    value is ``A``'s entry times ``B``'s, formed by NumPy; the skipped terms
    of the dense product are exact zeros, so for real values every entry
    equals that of BLAS's product.  Adding 0 makes every zero +0, also the
    -0 of a negative value times 0, because LAPACK reads the sign of a
    zero."""
    d = pa.rows.shape[1]
    if len(pa.rows) == len(pb.rows) == 1:
        rows, values = pa.rows[0][pb.rows[0]], pa.values[0][pb.rows[0]] * pb.values[0] + 0.0
        return LadderPattern(np.where(values != 0, rows, _own(d))[None, :], values[None, :])
    rows = pa.rows[:, pb.rows].reshape(-1, d)
    values = (pa.values[:, pb.rows] * pb.values + 0.0).reshape(-1, d)
    full = values != 0
    kept = full.any(axis=1)
    kept[0] |= not kept.any()  # a stack keeps one map at least
    rows, values, full = rows[kept], values[kept], full[kept]
    rows = np.where(full, rows, _own(d) if len(rows) == 1 else -1)
    if len(pb.rows) > 1:
        marked = np.where(rows < 0, -1 - np.arange(len(rows))[:, None], rows)
        marked.sort(axis=0)
        if (marked[1:] == marked[:-1]).any():
            return None
    return LadderPattern(rows, values)


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
        if not 1 <= level <= space.ensemble.levels:
            raise ValueError(f"level {level} out of range 1..{space.ensemble.levels}")
        occupations = [0] * space.ensemble.levels
        occupations[level - 1] = space.ensemble.atoms
    vec = np.zeros(space.dim, dtype=complex)
    vec[space.index(tuple(photons), tuple(occupations))] = 1.0
    return vec
