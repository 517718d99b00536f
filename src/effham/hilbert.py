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
operators the models build are diagonal (populations, photon numbers,
``X3``, the structure operators, the diagonal Hamiltonians), so ``@`` and
:func:`commutator` check each operand for a diagonal with one O(dim^2)
scan and scale rows or columns in place of a dim^3 BLAS product; for a real
diagonal the result equals the dense product entry for entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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


class OperatorMatrix:
    """Dense complex operator bound to a :class:`SpaceDescriptor` basis.

    Supports ``+``, ``-``, scalar ``*``, ``@`` and adjoint via :meth:`dag`.
    The underlying array is read-only; arithmetic returns new instances.
    """

    __slots__ = ("space", "matrix")

    def __init__(self, space: SpaceDescriptor, matrix: np.ndarray):
        arr = np.array(matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("operator matrix must be square")
        if arr.shape[0] != space.dim:
            raise ValueError(f"matrix dimension {arr.shape[0]} != space dimension {space.dim}")
        arr.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "matrix", arr)

    def __setattr__(self, name, value):
        raise AttributeError("OperatorMatrix is immutable")

    # -- helpers -----------------------------------------------------------
    def _check(self, other: "OperatorMatrix"):
        if self.space != other.space:
            raise SpaceMismatchError("operators live on different spaces")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dag(self) -> "OperatorMatrix":
        """Hermitian adjoint."""
        return OperatorMatrix(self.space, self.matrix.conj().T)

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
        return OperatorMatrix(self.space, self.matrix + other.matrix)

    def __sub__(self, other):
        self._check(other)
        return OperatorMatrix(self.space, self.matrix - other.matrix)

    def __neg__(self):
        return OperatorMatrix(self.space, -self.matrix)

    def __mul__(self, scalar):
        return OperatorMatrix(self.space, self.matrix * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check(other)
        a, b = self.matrix, other.matrix
        return OperatorMatrix(self.space, _product(a, b, _diagonal(a), _diagonal(b)))

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
    a, b = lhs.matrix, rhs.matrix
    da, db = _diagonal(a), _diagonal(b)
    return OperatorMatrix(lhs.space, _product(a, b, da, db) - _product(b, a, db, da))


def _diagonal(m: np.ndarray) -> np.ndarray | None:
    """The diagonal of the square array ``m`` if every off-diagonal entry is 0, else None.

    The off-diagonal entries of a C-ordered ``d x d`` array are the last
    ``d`` of each row of its first ``d^2 - 1`` entries laid out as
    ``(d - 1) x (d + 1)``, so the scan reads each entry once and copies
    nothing (an F-ordered array is scanned through its transpose).
    """
    d = m.shape[0]
    flat = m if m.flags.c_contiguous else m.T
    if flat.reshape(-1)[:-1].reshape(d - 1, d + 1)[:, 1:].any():
        return None
    return m.diagonal()


def _product(a: np.ndarray, b: np.ndarray, da: np.ndarray | None, db: np.ndarray | None) -> np.ndarray:
    """``a @ b``, given the diagonals ``da``/``db`` of diagonal operands (else None).

    A diagonal factor scales the rows or columns of the other one.  The
    skipped terms of the dense product are exact zeros, so for a real
    diagonal every entry equals that of ``a @ b``.  Adding 0 turns the -0
    of a negative entry times 0 into the +0 that BLAS gives for the
    models' products, so LAPACK, which reads the sign of a zero, later
    sees the same bits.
    """
    if da is None and db is None:
        return a @ b
    out = da[:, None] * b if da is not None else a * db[None, :]
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
