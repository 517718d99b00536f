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

Everything is stored dense ``complex128``; matrices are frozen (read-only)
after construction, so values can be shared freely between threads.  Most
operators the models build have at most one nonzero per row and per
column: the diagonal ones (populations, photon numbers, ``X3``, the
structure operators) and the ladder operators (``a``, ``S^{ij}``,
``a^k S^{ij}`` and their adjoints).  Each operator finds this
:class:`LadderPattern` with one O(dim^2) scan, at most once; products,
adjoints and scalar multiples inherit it without a scan.  A patterned factor turns
``@`` and :func:`commutator` into a gather of the other factor's rows or
columns scaled by the pattern values, in place of a dim^3 BLAS product;
for real pattern values every entry equals the dense product's.  Every
product is C-ordered like BLAS's output, because the layout of an operand
changes how later BLAS calls round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
        return bool(np.all((self.rows == np.arange(len(self.rows))) | (self.col_values == 0)))


#: marks an operator whose ladder pattern has not been looked for yet
_UNSCANNED = object()


class OperatorMatrix:
    """Dense complex operator bound to a :class:`SpaceDescriptor` basis.

    Supports ``+``, ``-``, scalar ``*``, ``@`` and adjoint via :meth:`dag`.
    The underlying array is read-only; arithmetic returns new instances.
    """

    __slots__ = ("space", "matrix", "_ladder")

    def __init__(self, space: SpaceDescriptor, matrix: np.ndarray):
        arr = np.array(matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("operator matrix must be square")
        if arr.shape[0] != space.dim:
            raise ValueError(f"matrix dimension {arr.shape[0]} != space dimension {space.dim}")
        self._freeze(space, arr, _UNSCANNED)

    def _freeze(self, space: SpaceDescriptor, arr: np.ndarray, ladder) -> None:
        arr.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "_ladder", ladder)

    def _result(self, arr: np.ndarray, ladder=_UNSCANNED) -> "OperatorMatrix":
        """An operator on this space around ``arr``, a fresh arithmetic result
        nothing else holds, so it is frozen in place instead of copied."""
        out = object.__new__(OperatorMatrix)
        out._freeze(self.space, arr, ladder)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("OperatorMatrix is immutable")

    # -- helpers -----------------------------------------------------------
    def _check(self, other: "OperatorMatrix"):
        if self.space != other.space:
            raise SpaceMismatchError("operators live on different spaces")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def ladder(self) -> LadderPattern | None:
        """The :class:`LadderPattern`, or None if a row or column has two nonzeros.

        Found by one scan on first use and kept; an idempotent write, so
        threads sharing the operator at worst scan it twice.
        """
        if self._ladder is _UNSCANNED:
            object.__setattr__(self, "_ladder", _scan(self.matrix))
        return self._ladder

    def dag(self) -> "OperatorMatrix":
        """Hermitian adjoint."""
        p = self._ladder
        if isinstance(p, LadderPattern):
            p = LadderPattern(p.cols, p.row_values.conj(), p.rows, p.col_values.conj())
        return self._result(self.matrix.conj().T, p)

    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.linalg.norm(self.matrix))

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal().copy()

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return float(np.linalg.norm(self.matrix - self.matrix.conj().T)) <= tol * max(1.0, self.norm())

    def is_unitary(self, tol: float = 1e-12) -> bool:
        eye = np.eye(self.dim)
        return float(np.linalg.norm(self.matrix.conj().T @ self.matrix - eye)) <= tol * max(1.0, float(np.sqrt(self.dim)))

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(vec, dtype=complex)

    def expect(self, vec: np.ndarray) -> complex:
        v = np.asarray(vec, dtype=complex)
        return complex(v.conj() @ (self.matrix @ v))

    def project(self, mask: np.ndarray) -> "OperatorMatrix":
        """Compress to the subspace selected by the boolean ``mask`` (P A P)."""
        m = np.asarray(mask, dtype=bool)
        out = np.where(np.outer(m, m), self.matrix, 0.0)
        return OperatorMatrix(self.space, out)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        self._check(other)
        return self._result(self.matrix + other.matrix)

    def __sub__(self, other):
        self._check(other)
        return self._result(self.matrix - other.matrix)

    def __neg__(self):
        return self._result(-self.matrix)

    def __mul__(self, scalar):
        s = complex(scalar)
        p = self._ladder
        if isinstance(p, LadderPattern):
            p = LadderPattern(p.rows, p.col_values * s, p.cols, p.row_values * s)
        else:
            p = _UNSCANNED  # times 0, an operator without a pattern gets one
        return self._result(self.matrix * s, p)

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check(other)
        pa, pb = self.ladder, other.ladder
        composed = _UNSCANNED
        if pa is not None and pb is not None:
            # the products the gathers make, in their operand order, so bit for bit
            composed = LadderPattern(pa.rows[pb.rows], pa.col_values[pb.rows] * pb.col_values,
                                     pb.cols[pa.cols], pa.row_values * pb.row_values[pa.cols])
        return self._result(_product(self, other), composed)

    def __repr__(self):
        return f"OperatorMatrix(dim={self.dim})"


# -- constructors -----------------------------------------------------------

def identity(space: SpaceDescriptor) -> OperatorMatrix:
    return OperatorMatrix(space, np.eye(space.dim))


def zero(space: SpaceDescriptor) -> OperatorMatrix:
    return OperatorMatrix(space, np.zeros((space.dim, space.dim)))


def annihilator(space: SpaceDescriptor, mode_index: int = 0) -> OperatorMatrix:
    """Photon annihilation operator ``a`` on the selected mode.

    ``<n-1|a|n> = sqrt(n)``; the truncation only removes the raising
    direction out of the top Fock level.
    """
    if not 0 <= mode_index < len(space.modes):
        raise ValueError(f"mode index {mode_index} out of range")
    mat = np.zeros((space.dim, space.dim))
    for col, (photons, occ) in enumerate(space.labels):
        n = photons[mode_index]
        if n == 0:
            continue
        lowered = photons[:mode_index] + (n - 1,) + photons[mode_index + 1:]
        mat[space.index(lowered, occ), col] = math.sqrt(n)
    return OperatorMatrix(space, mat)


def creator(space: SpaceDescriptor, mode_index: int = 0) -> OperatorMatrix:
    return annihilator(space, mode_index).dag()


def number_operator(space: SpaceDescriptor, mode_index: int = 0) -> OperatorMatrix:
    if not 0 <= mode_index < len(space.modes):
        raise ValueError(f"mode index {mode_index} out of range")
    diag = [lab[0][mode_index] for lab in space.labels]
    return OperatorMatrix(space, np.diag(np.asarray(diag, dtype=float)))


def collective_operator(space: SpaceDescriptor, i: int, j: int) -> OperatorMatrix:
    """Collective atomic operator taking one atom from level ``i`` to level ``j``.

    Levels are 1-based.  For a single atom this is ``|j><i|``; in general it
    is the Schwinger bilinear on the symmetric subspace, so the diagonal
    operators (``i == j``) count the population of level ``i``.
    """
    nlev = space.ensemble.levels
    if not (1 <= i <= nlev and 1 <= j <= nlev):
        raise ValueError(f"level indices ({i}, {j}) out of range 1..{nlev}")
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
        amp = math.sqrt(occ[ii] * (occ[jj] + 1))
        mat[space.index(photons, tuple(moved)), col] = amp
    return OperatorMatrix(space, mat)


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
    if lhs.space != rhs.space:
        raise SpaceMismatchError("commutator operands live on different spaces")
    out = _product(lhs, rhs)
    out -= _product(rhs, lhs)
    return lhs._result(out)


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
    tops = tuple(m.n_max for m in space.modes)
    return np.asarray([
        all(lab[0][m] <= tops[m] - margin for m in range(len(tops)))
        for lab in space.labels], dtype=bool)


def occupation_sector_mask(space: SpaceDescriptor, empty_levels) -> np.ndarray:
    """States with zero population in each of the given (1-based) levels."""
    empties = [lvl - 1 for lvl in empty_levels]
    return np.asarray([
        all(lab[1][k] == 0 for k in empties) for lab in space.labels], dtype=bool)


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
