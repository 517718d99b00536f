"""Small nonlinear rotations and closed-form effective Hamiltonians.

The core move: for ``H = h_diag + g (X+ + X-)`` with ``[h_diag, X+] = D X+``
and ``eps = g / D`` small, the unitary ``U = exp[eps (X+ - X-)]`` cancels
the coupling to first order and leaves, at second order,

    h_diag + (g^2 / D) [X+, X-],

a dynamical Stark shift built from the measured structure operator.

Every scenario is that move, run by one engine, :func:`closed_form_effective`:
check the model kind, evaluate the guards, build the rotation stages, take
the corrected form, keep the resonant transition signatures, and measure
the printed form against it on the validity sector.  Each stage is one
anti-Hermitian generator: the first removes the named one-photon
transitions, each later one the hops the earlier stages generate, by one
fitted rule (:func:`_fitted_stage`).  This is the order-by-order scheme of
Bravyi, DiVincenzo & Loss, Ann. Phys. 326, 2793 (2011).  What differs
between scenarios is data in the rows of :data:`SCENARIOS`, so a new
scenario is one row plus a printed-form function.

For each scenario two operators are produced: the textbook closed form as
commonly printed (``printed``), and the form obtained mechanically from the
measured structure operator, from the second-order rotation algebra, or from
full numerical conjugation followed by a resonant-sector projection
(``corrected``).  Several printed forms carry sign or coefficient slips; the
corrected form is validated against exact diagonalization and is the
default for downstream comparisons, with the printed-form deviation
reported rather than silently adopted.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations

import numpy as np

from .algebra import VERIFICATION_TOL, DeformedAlgebra
from .errors import AnalysisError, EffhamError, ResonanceError
from .hilbert import (OperatorMatrix, blocks_on_read, blockwise, commutator, components,
                      diagonal_operator, identity, occupation_sector_mask, photon_safe_mask,
                      unitarity_defect, unitary_within, zero)
from .models import ModelInstance, amplitude_guard, dispersive_guards, level_key, resonant

_TAYLOR_ORDER = 20
#: The scaled 1-norm eta is at most this.  The series stops before the
#: first term whose 1-norm bound eta^k / k! is at most _SERIES_CUTOFF * eta;
#: at eta = 1/2 that is term 19, within the cap of _TAYLOR_ORDER terms.
_SCALE_TARGET = 0.5
_SERIES_CUTOFF = 2.0 ** -72


# ---------------------------------------------------------------------------
# matrix exponential
# ---------------------------------------------------------------------------

def matrix_exponential(op: OperatorMatrix) -> OperatorMatrix:
    """``exp(A)``, formed block by block, each component's blocks on the
    first read that touches it.

    ``exp(A)`` is block diagonal on the connected components of the nonzero
    pattern of A (:func:`~effham.hilbert.components`), whatever A is, so
    each block is exponentiated on its own: the cost is the sum of the block
    sizes cubed, not dim^3, and every entry outside the blocks is +0.  The
    blocks are formed per component on first read
    (:func:`~effham.hilbert.blocks_on_read`): ``apply`` and ``block`` form
    those of the states they read, any other read all that are left.  A
    block goes through scaling and squaring of the series of ``exp(B) - 1``
    (scaled 1-norm ``eta`` at most 1/2), and 1 is added once at the end.
    The series stops once the 1-norm bound ``eta^k / k!`` of the next term
    is at most ``2^-72 eta``, after 20 terms at most (:func:`_expm1`).  The
    scaling and the stopping bound come from the largest column 1-norm of
    all the blocks of one size, summed in row order from A's nonzeros here,
    so a block has the same bits whichever blocks are formed with it.  The
    entries of ``U - 1`` of a small rotation thereby keep their relative
    precision, and rotations are unitary to machine precision.  Non-finite
    entries raise here.  The exponential is kept on ``op``.
    """
    def exponential():
        _, cols, values = op.entries()
        if not np.isfinite(values).all():
            raise ValueError("matrix exponential of a non-finite matrix")
        parts = components(op)
        sizes = np.array([len(part) for part in parts])
        norm1 = np.zeros(sizes.max() + 1)  # the largest column 1-norm per block size
        np.maximum.at(norm1, np.repeat(sizes, sizes),
                      np.bincount(cols, weights=np.abs(values), minlength=op.dim)[np.concatenate(parts)])
        return blocks_on_read(lambda b: _expm1(b, float(norm1[b.shape[-1]])) + np.eye(b.shape[-1]), parts, op)
    return op._kept("exponential", exponential)


def _expm1(b: np.ndarray, norm1: float | None = None) -> np.ndarray:
    """``exp(B) - 1`` for each block of the stack ``b``: the Taylor series
    of ``exp(B / 2^s) - 1``, then ``s`` doublings
    ``exp(2B) - 1 = 2 (exp(B) - 1) + (exp(B) - 1)^2``, with one ``s`` for
    the whole stack.

    ``s`` brings ``norm1``, the largest column 1-norm of a block (by
    default of a block of ``b``), to ``eta <= 1/2``.  The series stops
    before term ``k`` once that term's 1-norm bound ``eta^k / k!`` is at
    most :data:`_SERIES_CUTOFF` ``* eta``, about 2^-20 of an ulp of ``eta``
    (the stopping rule of Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
    (2011)), and after :data:`_TAYLOR_ORDER` terms at most.  An entry far
    smaller than ``eta`` may still differ in its last bits from the full
    series'."""
    if norm1 is None:
        norm1 = float(np.abs(b).sum(axis=-2).max())
    squarings = max(0, int(math.ceil(math.log2(norm1 / _SCALE_TARGET)))) if norm1 > _SCALE_TARGET else 0
    b = b / (2.0 ** squarings)
    eta = bound = norm1 / 2.0 ** squarings
    term = out = b
    for k in range(2, _TAYLOR_ORDER + 1):
        bound = bound * eta / k
        if bound <= _SERIES_CUTOFF * eta:
            break
        term = term @ b / k
        out = out + term
    for _ in range(squarings):
        out = 2.0 * out + out @ out
    return out


def _adjoint(b: np.ndarray) -> np.ndarray:
    return b.conj().swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RotationSpec:
    """A deformed algebra with a rotation amplitude ``epsilon`` the amplitude rule admits."""

    algebra: DeformedAlgebra
    epsilon: float

    def __post_init__(self):
        amplitude_guard("the rotation", self.epsilon)

    @property
    def generator(self) -> OperatorMatrix:
        return self.epsilon * (self.algebra.xplus - self.algebra.xminus)


def small_rotation(spec: RotationSpec) -> OperatorMatrix:
    """``U = exp[eps (X+ - X-)]``; unitary, identity at eps = 0."""
    return matrix_exponential(spec.generator)


def conjugate(h: OperatorMatrix, u: OperatorMatrix) -> OperatorMatrix:
    """Rotated operator ``U H U^dag`` (spectrum preserved).

    It is formed block by block on the connected components of the joint
    nonzero pattern of ``U`` and ``H``, where the result is block diagonal,
    with +0 outside the blocks.  ``U`` must be unitary at
    :data:`~effham.algebra.VERIFICATION_TOL`, scaled as in
    :meth:`~effham.hilbert.OperatorMatrix.is_unitary`; its defect
    ``||U^dag U - 1||`` is the root of the sum of the squared defects of the
    blocks, every state (an isolated one too) lying in one block.  The
    result is kept on ``u`` for each ``h`` (operators hash by identity), so
    it lives as long as the rotation (a long-lived ``h`` conjugated by many
    rotations holds none of them).
    """
    def conjugated():
        defects = []

        def kernel(hb, b):
            defects.append(unitarity_defect(b))
            return b @ hb @ _adjoint(b)
        out = blockwise(kernel, h, u)
        if not unitary_within(math.hypot(*defects), VERIFICATION_TOL, u.dim):
            raise ValueError("conjugation requires a unitary matrix")
        return out
    return u._kept(("conjugate", h), conjugated)


def _stage_product(stages, generators) -> OperatorMatrix:
    """The total rotation ``U_n ... U_1`` of the ``stages``
    ``U_k = exp(G_k)``, first stage rightmost, ``G_k`` the ``generators``.
    It is formed block by block on the components of the generators' joint
    nonzero pattern, each component's blocks on the first read that touches
    it (:func:`~effham.hilbert.blocks_on_read`), from the stages' blocks on
    that component alone."""
    if len(stages) == 1:
        return stages[0]
    return blocks_on_read(lambda *blocks: reduce(np.matmul, reversed(blocks)),
                          components(*generators), *stages)


def conjugate_stages(h: OperatorMatrix, stages) -> OperatorMatrix:
    """Apply a sequence of rotations, first stage innermost."""
    out = h
    for u in stages:
        out = conjugate(out, u)
    return out


def _sum(pieces, start: OperatorMatrix | None = None) -> OperatorMatrix | None:
    """``start + p1 + p2 + ...`` accumulated left to right; None when empty."""
    total = start
    for piece in pieces:
        total = piece if total is None else total + piece
    return total


def _stark_pieces(model: ModelInstance, number: str, couplings, eps):
    """Per adjacent step: ``g_i eps_i [n (S^{i+1,i+1} - S^{ii}) + (S^{ii}+1) S^{i+1,i+1}]``,
    ``n`` the model's operator named ``number``."""
    ops = model.operators
    n_op, eye = ops[number], identity(model.space)
    for i, g in enumerate(couplings, start=1):
        s_low, s_up = ops[level_key(i, i)], ops[level_key(i + 1, i + 1)]
        yield g * eps[i - 1] * (n_op @ (s_up - s_low) + (s_low + eye) @ s_up)


def _resonant(*channels):
    """Signature predicate keeping the diagonal and the resonant channels.

    A channel ``(photon change, i, j)`` moves atoms between levels i and j
    while the photon numbers change by ``photon change``, or by its negative.
    """
    def keep(dph, docc):
        return (not any(dph) and not any(docc)) or any(
            dph in (tuple(ph), tuple(-x for x in ph)) and docc[i - 1] and docc[j - 1]
            for ph, i, j in channels)
    return keep


def _multiphoton_hops(model: ModelInstance, table: CouplingTable):
    """``(k, i, a^k S^{i,i+k}, (k-1)/k! lam_i^(k))`` per k-photon transition of a cascade."""
    nlev = model.space.ensemble.levels
    a = a_k = model.operators["a"]
    for k in range(2, nlev):
        a_k = a_k @ a
        for i in range(1, nlev - k + 1):
            hop = a_k @ model.operators[level_key(i, i + k)]
            yield k, i, hop, (k - 1) / math.factorial(k) * table.lam_at(i, k)


def _level_detunings(model: ModelInstance) -> list[float]:
    """Multiphoton detunings D_1..D_N of a chain model."""
    return [model.detunings[str(j)] for j in range(1, model.space.ensemble.levels + 1)]


# ---------------------------------------------------------------------------
# second-order closed forms
# ---------------------------------------------------------------------------

def effective_su2(alg: DeformedAlgebra, delta: float, g: float) -> OperatorMatrix:
    """Second-order effective Hamiltonian ``delta*X3 + (g^2/delta)*[X+, X-]``.

    Diagonal in the product basis whenever the structure operator is, which
    holds for every built-in deformation.
    """
    amplitude_guard("g/delta", g / delta if delta else math.inf)
    if not alg.structure.is_diagonal(1e-10):
        raise AnalysisError("structure operator is not diagonal in the product basis")
    return delta * alg.x3 + (g * g / delta) * alg.structure


# ---------------------------------------------------------------------------
# coupling recurrence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingTable:
    """Effective multiphoton couplings from the step-mixing recurrence.

    ``eps[i]`` is the one-photon rotation amplitude of step ``i+1``;
    ``lam[n-1][i-1]`` is the order-n coupling between levels ``i`` and
    ``i+n``.  ``alpha2`` is filled for the four-level chain: the closed-form
    amplitudes of its two-photon hops, which its guard reads.
    """

    eps: tuple[float, ...]
    lam: tuple[tuple[float, ...], ...]
    alpha2: tuple[float, ...] | None = None

    def lam_at(self, i: int, order: int) -> float:
        return self.lam[order - 1][i - 1]


def coupling_table(couplings, deltas, max_order: int | None = None) -> CouplingTable:
    """Build the triangular table of effective couplings.

    ``deltas`` are the multiphoton detunings D_1..D_N (D_1 is conventionally
    zero) and ``couplings`` the N-1 one-photon couplings.  The recurrence is

        lam_i^(1)   = g_i,
        lam_i^(n+1) = eps_{i+n} lam_i^(n) - eps_i lam_{i+1}^(n),

    with ``eps_i = g_i / (D_{i+1} - D_i)``.  A vanishing ``D_{i+1} - D_i``
    is a one-photon resonance and raises :class:`ResonanceError`.
    """
    g = [float(x) for x in couplings]
    d = [float(x) for x in deltas]
    if len(d) != len(g) + 1:
        raise ValueError("need one detuning per level (one more than couplings)")
    steps = [d[i + 1] - d[i] for i in range(len(g))]
    if any(resonant(s, d[i + 1], d[i]) for i, s in enumerate(steps)):
        raise ResonanceError("one-photon resonance: a detuning step vanishes")
    eps = [gi / si for gi, si in zip(g, steps)]
    n_levels = len(d)
    max_order = n_levels - 1 if max_order is None else min(max_order, n_levels - 1)
    lam: list[tuple[float, ...]] = [tuple(g)]
    for n in range(1, max_order):
        prev = lam[-1]
        row = tuple(eps[i + n] * prev[i] - eps[i] * prev[i + 1]
                    for i in range(len(prev) - 1))
        lam.append(row)
    return CouplingTable(eps=tuple(eps), lam=tuple(lam))


def four_level_constants(couplings, deltas) -> CouplingTable:
    """Coupling table for a four-level chain plus its two-photon amplitudes.

    ``alpha2[i-1] = lam_i^(2) / (D_{i+2} - D_i)`` removes the hop
    ``a^2 S^{i,i+2}``.  A vanishing denominator, or a vanishing
    ``D_{i+1} - D_i + D_j - D_{j+1}`` of steps ``i < j``, is a two-photon or
    dipole-dipole resonance and raises.
    """
    table = coupling_table(couplings, deltas, max_order=3)
    d = [float(x) for x in deltas]
    if len(d) != 4:
        raise ValueError("four-level constants need exactly four detunings")
    alpha2 = []
    for i in (1, 2):
        den = d[i + 1] - d[i - 1]
        if resonant(den, d[i + 1], d[i - 1]):
            raise ResonanceError(f"two-photon resonance between levels {i} and {i + 2}")
        alpha2.append(table.lam_at(i, 2) / den)
    for i, j in combinations(range(1, 4), 2):
        den = (d[i] - d[i - 1]) + (d[j - 1] - d[j])
        if resonant(den, d[i], d[i - 1], d[j - 1], d[j]):
            raise ResonanceError(f"dipole-dipole resonance for step pair ({i}, {j})")
    return CouplingTable(eps=table.eps, lam=table.lam, alpha2=tuple(alpha2))


def two_mode_pair_coupling(couplings_a, couplings_b, deltas) -> float:
    """Printed closed form of the mixed two-mode coupling on the 2-4 transition."""
    d = [float(x) for x in deltas]
    ga, gb = [float(x) for x in couplings_a], [float(x) for x in couplings_b]
    for hi, lo in ((3, 2), (2, 1)):
        if resonant(d[hi] - d[lo], d[hi], d[lo]):
            raise ResonanceError("one-photon resonance in the mixed-coupling closed form")
    return ga[2] * gb[1] / (d[3] - d[2]) - gb[2] * ga[1] / (d[2] - d[1])


def two_mode_tables(couplings_a, couplings_b, deltas, gap):
    """Per-mode coupling tables for the two-mode four-level chain.

    Mode-b detunings are shifted by the mode gap per absorbed photon.
    """
    return (coupling_table(couplings_a, deltas),
            coupling_table(couplings_b, [d - i * gap for i, d in enumerate(deltas)]))


# ---------------------------------------------------------------------------
# residuals and eigenstate corrections
# ---------------------------------------------------------------------------

def offdiagonal_residual(h: OperatorMatrix, labels=None) -> float:
    """Frobenius norm of the off-diagonal part of ``h`` divided by ``||h||``.

    With ``labels`` (one hashable per basis state) entries between equal
    labels count as diagonal, so the residual measures leakage between the
    labelled groups.
    """
    total = h.norm()
    if total == 0:
        return 0.0
    if labels is None:
        return h.offdiagonal_norm() / total
    lab = list(labels)
    if len(lab) != h.dim:
        raise ValueError("labels must cover the basis")
    codes: dict = {}
    return h.offdiagonal_norm(np.array([codes.setdefault(a, len(codes)) for a in lab])) / total


def cancellation_residual(h: OperatorMatrix, u: OperatorMatrix) -> float:
    """Surviving off-diagonal fraction after rotating ``h`` by ``u``.

    Normalized to the off-diagonal norm of the unrotated operator, so a
    first-order-cancelling rotation gives a value of order epsilon^2.
    """
    before = h.offdiagonal_norm()
    if before == 0:
        return 0.0
    return conjugate(h, u).offdiagonal_norm() / before


def corrected_eigenstate(generator: OperatorMatrix, m: int, order="exact") -> np.ndarray:
    """Approximate eigenvector ``U^dag |m>`` for the rotation ``U = exp(generator)``.

    ``order="exact"`` applies the full ``exp(-generator)``; integer orders
    apply the truncated exponential series, which is near-normalized (the
    deficit is O(eps^2)).  The truncated series is used directly; printed
    second-order expansions that disagree with it are not adopted.
    """
    dim = generator.dim
    if not 0 <= m < dim:
        raise ValueError(f"basis index {m} out of range")
    vec = np.zeros(dim, dtype=complex)
    vec[m] = 1.0
    if order == "exact":
        u_dag = matrix_exponential(-1 * generator)
        return u_dag.apply(vec)
    n = int(order)
    if n < 0:
        raise ValueError("order must be 'exact' or a non-negative integer")
    out = vec.copy()
    term = vec.copy()
    for k in range(1, n + 1):
        term = -generator.apply(term) / k
        out = out + term
    return out


# ---------------------------------------------------------------------------
# transition signatures and projections
# ---------------------------------------------------------------------------

def filter_signatures(h: OperatorMatrix, keep) -> OperatorMatrix:
    """Zero every entry whose transition signature fails ``keep(dphot, docc)``.

    ``dphot``/``docc`` are tuples (row label minus column label).  Diagonal
    entries have all-zero signatures; ``keep`` decides those too.  ``keep``
    is called once per distinct signature among the nonzero entries.  Each
    basis state has one integer key, a mixed radix of its labels in which
    ``key[row] - key[col]`` names the signature, so the entries are grouped
    by that difference with one ``np.unique`` and only the distinct ones are
    decoded (:meth:`~effham.hilbert.OperatorMatrix.signatures`).  The
    grouping is kept on ``h``, so filtering one operator again, as
    :func:`cascade_first_stage` splits the operator the
    ``cascade-first-stage`` filter reads, groups nothing twice.  A rejected
    entry becomes +0; every other entry, a stored -0 too, keeps its bits.
    """
    return _keep_signatures(h, h.signatures(), keep)


def _keep_signatures(h: OperatorMatrix, signatures, keep) -> OperatorMatrix:
    """:func:`filter_signatures` of ``h``, given its distinct signatures."""
    return h.keeping_signatures([bool(keep(dph, docc)) for dph, docc in signatures])


def fit_coefficient(h: OperatorMatrix, template: OperatorMatrix,
                    mask: np.ndarray | None = None) -> float:
    """Least-squares coefficient c minimizing ``||h - c * template||`` on a mask."""
    rows, cols, t = template.entries()
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        inside = mask[rows] & mask[cols]
        rows, cols, t = rows[inside], cols[inside], t[inside]
    denom = float(np.sum(np.abs(t) ** 2))
    if denom == 0:
        raise AnalysisError("template vanishes on the requested region")
    return float(np.real(np.sum(np.conj(t) * h._at(rows, cols))) / denom)


# ---------------------------------------------------------------------------
# elimination generators
# ---------------------------------------------------------------------------

def measured_step(h_diag: OperatorMatrix, xplus: OperatorMatrix) -> float:
    """The scalar D with ``[h_diag, X+] = D X+``, measured from the matrices.

    The residual ``||[h_diag, X+] - D X+||`` may be at most 1e-10 of
    ``||X+|| max|diag(h_diag)|``, the energy scale that
    :func:`~effham.models.resonant` uses, so the verdict is unit-free.
    """
    comm = commutator(h_diag, xplus)
    size = xplus.norm()
    if size == 0:
        raise AnalysisError("cannot measure a detuning step against a zero operator")
    d = float(np.real(xplus.inner(comm)) / size ** 2)
    resid = (comm - d * xplus).norm()
    if resid > 1e-10 * size * float(np.abs(h_diag.diagonal()).max()):
        raise AnalysisError("diagonal part does not scale X+ by a single step")
    return d


def eliminating_generator(model: ModelInstance, names=None):
    """Anti-Hermitian generator removing the named couplings to first order.

    Returns ``(G, eps)`` where ``eps`` maps interaction names to the
    rotation amplitudes ``g / D`` with measured steps D.  Raises on
    one-photon resonances (on the scale of ``h_diag``) and on large amplitudes.
    ``G`` is found once per model and ``names`` and kept; each call gets its
    own copy of ``eps``.
    """
    key = ("generator", None if names is None else tuple(names))
    if key not in model.kept:
        model.kept[key] = _generator(model, names)
    gen, eps = model.kept[key]
    return gen, dict(eps)


def _generator(model: ModelInstance, names):
    chosen = model.interactions if names is None else [model.interaction(n) for n in names]
    pieces = []
    eps: dict[str, float] = {}
    scale = float(np.abs(model.h_diag.diagonal()).max())
    for term in chosen:
        d = measured_step(model.h_diag, term.algebra.xplus)
        if resonant(d, scale):
            raise ResonanceError(f"one-photon resonance on transition {term.name}")
        e = term.g / d
        amplitude_guard(f"transition {term.name}", e)
        eps[term.name] = e
        pieces.append(e * (term.algebra.xplus - term.algebra.xminus))
    return _sum(pieces) or zero(model.space), eps


def _second_order(model: ModelInstance, gen: OperatorMatrix, eliminate, retain=()):
    """Second-order rotated Hamiltonian
    ``h_diag + V_retain + 0.5 [G, V_elim] + [G, V_retain]`` for the
    generator G that eliminates the named couplings.
    """
    terms = [model.interaction(name) for name in eliminate]
    v_elim = _sum(t.coupling for t in terms)
    h2 = model.h_diag + 0.5 * commutator(gen, v_elim)
    for name in retain:
        v = model.interaction(name).coupling
        h2 = h2 + v + commutator(gen, v)
    return h2


def _fitted_stage(model: ModelInstance, hops, rotated: OperatorMatrix) -> OperatorMatrix:
    """Later-stage generator ``sum (c/D)(Y - Y^dag)`` over the ``hops`` Y:
    ``c`` is Y's coefficient in ``rotated`` (``h_int`` after the earlier
    stages), fitted away from the Fock cutoff, ``D`` its measured step.  A
    hop with no entries there moves only states at the cutoff and is skipped."""
    safe = photon_safe_mask(model.space, 1)
    pieces = ((fit_coefficient(rotated, y, mask=safe) / measured_step(model.h_diag, y))
              * (y - y.dag()) for y in hops if y.project(safe).norm() != 0)
    return _sum(pieces) or zero(model.space)


# ---------------------------------------------------------------------------
# cascade first stage: conjugation and pattern split
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingCheck:
    """Extracted vs predicted coupling for one multiphoton transition."""

    start_level: int
    photons: int
    extracted: float
    predicted: float

    @property
    def relative_error(self) -> float:
        if self.predicted == 0:
            return math.inf if self.extracted else 0.0
        return abs(self.extracted - self.predicted) / abs(self.predicted)


@dataclass(frozen=True)
class CascadeDecomposition:
    """Pattern split of the once-rotated cascade Hamiltonian.

    ``h0`` is the bare detuning part; ``h_d`` the rotation-induced diagonal
    (Stark) part; ``h_nd`` the photon-conserving dipole-dipole part;
    ``multiphoton[k]`` the k-photon transition sector.  ``one_photon_residual``
    is the norm of the imperfectly-cancelled one-photon sector (third order
    in the rotation amplitudes).
    """

    transformed: OperatorMatrix
    h0: OperatorMatrix
    h_d: OperatorMatrix
    h_nd: OperatorMatrix
    multiphoton: dict[int, OperatorMatrix]
    one_photon_residual: float
    rotation: OperatorMatrix
    table: CouplingTable
    coupling_checks: tuple[CouplingCheck, ...]


def cascade_first_stage(model: ModelInstance) -> CascadeDecomposition:
    """Rotate a single-mode cascade to kill one-photon transitions, then split.

    The transformed Hamiltonian is split by transition signature (photon
    change vs level-occupation change), and the k-photon coupling constants
    are extracted by least squares away from the truncation edge and
    compared against the recurrence predictions ``(k-1)/k! * lam^(k)``.
    """
    if model.spec.kind != "cascade":
        raise EffhamError("cascade_first_stage expects a cascade model")
    nlev = model.space.ensemble.levels
    table = coupling_table(model.spec.couplings, _level_detunings(model))
    gen, _ = eliminating_generator(model)
    u = matrix_exponential(gen)
    transformed = conjugate(model.h_int, u)

    h_d = diagonal_operator(model.space, transformed.diagonal()) - model.h_diag
    groups = transformed.signatures()
    h_nd = _keep_signatures(transformed, groups, lambda dph, docc: sum(dph) == 0 and any(docc))
    multi = {k: _keep_signatures(transformed, groups,
                                 lambda dph, docc, kk=k: abs(sum(dph)) == kk)
             for k in range(2, nlev)}
    residual = _keep_signatures(transformed, groups,
                                lambda dph, docc: abs(sum(dph)) == 1).norm()

    safe = photon_safe_mask(model.space, margin=1)
    checks = tuple(CouplingCheck(start_level=i, photons=k, predicted=predicted,
                                 extracted=fit_coefficient(multi[k], hop, mask=safe))
                   for k, i, hop, predicted in _multiphoton_hops(model, table))
    return CascadeDecomposition(
        transformed=transformed, h0=model.h_diag, h_d=h_d, h_nd=h_nd,
        multiphoton=multi, one_photon_residual=float(residual), rotation=u,
        table=table, coupling_checks=checks)


def cascade_stark_leading(model: ModelInstance) -> OperatorMatrix:
    """Leading diagonal (Stark) part generated by the first cascade rotation.

    Per adjacent step: ``g_i eps_i [n (S^{i+1,i+1} - S^{ii}) + (S^{ii}+1) S^{i+1,i+1}]``.
    """
    table = coupling_table(model.spec.couplings, _level_detunings(model))
    return _sum(_stark_pieces(model, "n", model.spec.couplings, table.eps))


# ---------------------------------------------------------------------------
# scenario pieces: guards, later-stage hops, printed forms
# ---------------------------------------------------------------------------

def _prepare_su2(model: ModelInstance):
    omega, g = model.spec.omega, model.spec.g
    return {"g_over_omega": amplitude_guard("g/omega", g / omega if omega else math.inf)}


def _prepare_xi_far_level(model: ModelInstance):
    d12, d23 = model.detunings["12"], model.detunings["23"]
    g12, g23 = model.spec.couplings
    eps13 = g12 * g23 / (d12 * (d12 + d23)) if (d12 + d23) else math.inf
    return {"eps13": amplitude_guard("the second-stage 1-3 transition", eps13)}


def _prepare_xi_two_photon(model: ModelInstance):
    d12, d23 = model.detunings["12"], model.detunings["23"]
    if not resonant(d12 + d23, *model.spec.energies, model.spec.omega_field):
        raise ResonanceError(
            f"two-photon resonance requires D12 = -D23, got {d12:.6g} vs {-d23:.6g}")
    return {}


def _prepare_cascade_first_stage(model: ModelInstance):
    table = coupling_table(model.spec.couplings, _level_detunings(model))
    return {f"eps{i + 1}": abs(e) for i, e in enumerate(table.eps)}


def _prepare_four_level(model: ModelInstance):
    if model.space.ensemble.levels != 4:
        raise EffhamError("the three-photon scenario needs a four-level cascade")
    deltas = _level_detunings(model)
    if not resonant(deltas[3], *model.spec.energies, model.spec.omega_field):
        raise ResonanceError(f"three-photon resonance needs D4 = 0, got {deltas[3]:.3e}")
    table = four_level_constants(model.spec.couplings, deltas)
    guards = {f"eps{i + 1}": abs(e) for i, e in enumerate(table.eps)}
    guards["alpha2_max"] = max(abs(x) for x in table.alpha2)
    return guards


def _two_photon_hops(model: ModelInstance) -> list[OperatorMatrix]:
    """``a^2 S^{i,i+2}`` along the chain."""
    ops = model.operators
    a2 = ops["a"] @ ops["a"]
    return [a2 @ ops[level_key(i, i + 2)] for i in range(1, model.space.ensemble.levels - 1)]


def _dipole_dipole_hops(model: ModelInstance) -> list[OperatorMatrix]:
    """``S^{i,i+1} S^{j+1,j}`` for each pair of steps ``i < j``."""
    ops = model.operators
    return [ops[level_key(i, i + 1)] @ ops[level_key(j + 1, j)]
            for i, j in combinations(range(1, model.space.ensemble.levels), 2)]


def _printed_su2(model: ModelInstance) -> OperatorMatrix:
    omega, g = model.spec.omega, model.spec.g
    return (omega + 2 * g * g / omega) * model.operators["S3"]


def _printed_dicke(model: ModelInstance) -> OperatorMatrix:
    delta, g = model.detunings["delta"], model.spec.g
    s3, n_op = model.operators["S3"], model.operators["n"]
    a_count = model.spec.atoms
    casimir = (a_count / 2) * (a_count / 2 + 1)
    eye = identity(model.space)
    return delta * s3 + (g * g / delta) * (
        s3 @ s3 - 2 * (n_op + eye) @ s3 - casimir * eye)


def _printed_xi_far_level(model: ModelInstance) -> OperatorMatrix:
    d12, d23 = model.detunings["12"], model.detunings["23"]
    g12, g23 = model.spec.couplings
    ops = model.operators
    eye = identity(model.space)
    return (d23 * ops["S33"] + g23 * (ops["a"] @ ops["S23"] + (ops["a"] @ ops["S23"]).dag())
            + (g12 ** 2 / d12) * ops["S22"] @ (ops["n"] + eye))


def _printed_xi_two_photon(model: ModelInstance) -> OperatorMatrix:
    d12 = model.detunings["12"]
    g12, g23 = model.spec.couplings
    ops = model.operators
    eye = identity(model.space)
    a2 = ops["a"] @ ops["a"]
    s3_13 = 0.5 * (ops["S33"] - ops["S11"])
    n_op = ops["n"]
    return ((g12 * g23 / d12) * (a2 @ ops["S13"] + (a2 @ ops["S13"]).dag())
            + (s3_13 + (model.spec.atoms / 2) * eye)
            @ ((g23 ** 2 - g12 ** 2) / d12 * n_op + (g23 ** 2 / d12) * eye)
            + model.spec.atoms * (g12 ** 2 / d12) * n_op)


def _printed_lambda(model: ModelInstance) -> OperatorMatrix:
    ops = model.operators
    eye = identity(model.space)
    d31, d32 = model.detunings["31"], model.detunings["32"]
    g13, g23 = model.spec.couplings
    n_op = ops["n"]
    transfer = (ops["S12"] + ops["S21"]) @ (ops["S33"] - n_op)
    return (-d31 * ops["S11"] - d32 * ops["S22"]
            + (g13 ** 2 / d31) * ((ops["S11"] + eye) @ ops["S33"] + n_op @ (ops["S33"] - ops["S11"]))
            + (g23 ** 2 / d32) * ((ops["S22"] + eye) @ ops["S33"] + n_op @ (ops["S33"] - ops["S22"]))
            + (g13 * g23 / d31) * transfer)


def _printed_cascade_first_stage(model: ModelInstance) -> OperatorMatrix:
    ops = model.operators
    nlev = model.space.ensemble.levels
    table = coupling_table(model.spec.couplings, _level_detunings(model))
    printed = model.h_diag + cascade_stark_leading(model)
    g = model.spec.couplings
    if nlev == 4:
        pairs = [(1, 3), (1, 2)]
    else:
        pairs = [(i, j) for i in range(1, nlev) for j in range(i + 1, nlev)]
    for i, j in pairs:
        coeff = 0.5 * (table.eps[i - 1] * g[j - 1] + table.eps[j - 1] * g[i - 1])
        cross = ops[level_key(i, i + 1)] @ ops[level_key(j + 1, j)]
        printed = printed + coeff * (cross + cross.dag())
    hops = _multiphoton_hops(model, table)
    return _sum((coeff * (hop + hop.dag()) for _, _, hop, coeff in hops), start=printed)


def _printed_four_level(model: ModelInstance) -> OperatorMatrix:
    ops = model.operators
    eye = identity(model.space)
    g1, g2, g3 = model.spec.couplings
    d2, d3 = model.detunings["2"], model.detunings["3"]
    a3 = ops["a"] @ ops["a"] @ ops["a"]
    s3_14 = 0.5 * (ops["S44"] - ops["S11"])
    n_op = ops["n"]
    return ((g1 * g2 * g3 / (d2 * d3)) * (a3 @ ops["S14"] + (a3 @ ops["S14"]).dag())
            - (s3_14 + (model.spec.atoms / 2) * eye)
            @ ((g1 ** 2 / d2 - g3 ** 2 / d3) * n_op + (g3 ** 2 / d3) * eye)
            + model.spec.atoms * (g1 ** 2 / d2) * n_op)


def _printed_two_mode(model: ModelInstance) -> OperatorMatrix:
    deltas = _level_detunings(model)
    xi2 = two_mode_pair_coupling(model.spec.couplings, model.spec.couplings_b, deltas)
    table_a, table_b = two_mode_tables(model.spec.couplings, model.spec.couplings_b,
                                       deltas, model.detunings["gap"])
    ops = model.operators
    printed = _sum(chain(_stark_pieces(model, "na", model.spec.couplings, table_a.eps),
                         _stark_pieces(model, "nb", model.spec.couplings_b, table_b.eps)),
                   start=model.h_diag)
    hop2 = (ops["a"] @ ops["a"]) @ ops["S13"]
    hop3 = (ops["b"] @ ops["b"] @ ops["b"]) @ ops["S14"]
    hop_ab = (ops["a"] @ ops["b"]) @ ops["S24"]
    return (printed
            + 0.5 * table_a.lam_at(1, 2) * (hop2 + hop2.dag())
            + (1.0 / 3.0) * table_b.lam_at(1, 3) * (hop3 + hop3.dag())
            + xi2 * (hop_ab + hop_ab.dag()))


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EffectiveScenario:
    """A named effective-Hamiltonian construction plus the form to prefer."""

    identifier: str
    form: str = "corrected"  # or "printed"

    def __post_init__(self):
        if self.identifier not in SCENARIOS:
            raise EffhamError(f"unknown scenario {self.identifier!r}")
        if self.form not in ("corrected", "printed"):
            raise ValueError("form must be 'corrected' or 'printed'")


@dataclass(frozen=True)
class ScenarioInfo:
    """One scenario as data for the engine, :func:`closed_form_effective`."""

    identifier: str
    model_kinds: tuple[str, ...]
    guards: str  # validity conditions, as printed by list-scenarios
    sketch: str  # effective form, likewise
    printed: Callable  # model -> the printed closed form
    corrected_from: str = "conjugation"  # or "structure", "second-order"; see the engine
    dispersive: tuple[tuple[str, str], ...] = ()  # (transition, guard name) pairs
    prepare: Callable | None = None  # model -> further guards; raises on violation
    eliminate: tuple[str, ...] | None = None  # first-stage transitions; None: all
    retain: tuple[str, ...] = ()  # couplings kept at second order
    amplitude_key: str | None = None  # guard name format of the first-stage amplitudes
    stages: tuple[Callable, ...] = ()  # later stages: model -> hops, see _fitted_stage
    keep: Callable | None = None  # filter_signatures predicate; None: no filter
    empty_levels: tuple[int, ...] = ()  # validity sector; none: the full space
    notes: tuple[str, ...] | Callable = ()  # printed-form deviations, or model -> notes


SCENARIOS: dict[str, ScenarioInfo] = {s.identifier: s for s in (
    ScenarioInfo("su2-generic", ("spin-in-field",), "|g/omega| < 0.3",
                 "omega*S3 + (g^2/omega)*[S+,S-]",
                 printed=_printed_su2, corrected_from="structure", prepare=_prepare_su2),
    ScenarioInfo("dicke-dispersive", ("dicke",), "A*g*sqrt(n_max+1)/|Delta| < 0.3",
                 "Delta*S3 + (g^2/Delta)*P(S3, n)",
                 printed=_printed_dicke, corrected_from="structure",
                 dispersive=(("jc", "dispersive_ratio"),),
                 notes=("printed Stark bracket differs in sign from the measured "
                        "structure operator",)),
    ScenarioInfo("xi-far-level", ("xi3",),
                 "far-off 1-2 transition: A*g12*sqrt(n_max+1)/|D12| < 0.3",
                 "D23*S33 + g23*(a S23+ + h.c.) + (g12^2/D12)*S22*(n+1) on the S11=0 sector",
                 printed=_printed_xi_far_level, corrected_from="second-order",
                 dispersive=(("12", "dispersive_ratio_12"),), prepare=_prepare_xi_far_level,
                 eliminate=("12",), retain=("23",), stages=(_two_photon_hops,),
                 keep=lambda dph, docc: not (abs(sum(dph)) == 2 and docc[0] and docc[2]),
                 empty_levels=(1,)),
    ScenarioInfo("xi-two-photon", ("xi3",),
                 "two-photon resonance D12 = -D23; |eps12|, |eps23| < 0.3",
                 "(g12*g23/D12)*(a^2 S13+ + h.c.) + Stark shifts on the S22=0 sector",
                 printed=_printed_xi_two_photon, corrected_from="second-order",
                 prepare=_prepare_xi_two_photon, eliminate=("12", "23"), amplitude_key="eps{}",
                 empty_levels=(2,),
                 notes=("printed two-photon form differs in overall sign from the "
                        "rotation algebra",)),
    ScenarioInfo("lambda-dispersive", ("lambda3",),
                 "both one-photon transitions dispersive (ratio < 0.3)",
                 "Stark shifts + (g13*g23/D)*(S12+ + S12-)*(S33 - n): photonless 1-2 transfer",
                 printed=_printed_lambda, corrected_from="second-order",
                 dispersive=(("13", "dispersive_ratio_13"), ("23", "dispersive_ratio_23")),
                 eliminate=("13", "23"),
                 notes=("printed transfer coefficient uses 1/D31 alone; the rotation algebra gives "
                        "the symmetric (1/D31 + 1/D32)/2, identical for degenerate lower levels",)),
    ScenarioInfo("cascade-first-stage", ("cascade",),
                 "all one-photon steps off resonance, |eps_i| < 0.3",
                 "h0 + h_d + h_nd + sum_k (k-1)/k! lam^(k) (a^k S+^{i,i+k} + h.c.)",
                 printed=_printed_cascade_first_stage, prepare=_prepare_cascade_first_stage,
                 keep=lambda dph, docc: abs(sum(dph)) != 1,
                 notes=lambda model: ("printed dipole-dipole part lists the (1,3) and (1,2) step "
                                      "pairs only",) if model.space.ensemble.levels == 4 else ()),
    ScenarioInfo("four-level-three-photon", ("cascade",),
                 "D4 = 0; no one-/two-photon or dipole-dipole resonances",
                 "(g1*g2*g3/(D2*D3))*(a^3 S14+ + h.c.) + Stark shifts on the S22=S33=0 sector",
                 printed=_printed_four_level, prepare=_prepare_four_level,
                 stages=(_two_photon_hops, _dipole_dipole_hops),
                 keep=_resonant(((3,), 1, 4)), empty_levels=(2, 3),
                 notes=("printed Stark pattern disagrees with the rotation algebra in the photon-"
                        "dependent terms; the corrected form is taken from conjugation",)),
    ScenarioInfo("two-mode-four", ("two-mode-four",),
                 "all one-photon steps of both modes off resonance, |eps| < 0.3",
                 "two-photon (a^2 S13+), three-photon (b^3 S14+) and mixed (a b S24+) channels",
                 printed=_printed_two_mode, amplitude_key="eps_{}",
                 keep=_resonant(((2, 0), 1, 3), ((0, 3), 1, 4), ((1, 1), 2, 4)),
                 notes=("printed mixed coupling holds on the E4 - E2 = omega_a + omega_b "
                        "resonance; off it the rotation algebra adds mode-gap corrections",)),
)}


@dataclass(frozen=True)
class EffectiveForms:
    """Printed and corrected effective Hamiltonians for one scenario.

    ``deviation_norm`` is the Frobenius norm of (printed - corrected), on
    the scenario's validity sector when there is one.  ``rotation`` is the
    total unitary with ``corrected ~ U h_int U^dag`` (sector-projected).
    """

    scenario: EffectiveScenario
    printed: OperatorMatrix
    corrected: OperatorMatrix
    rotation: OperatorMatrix
    deviation_norm: float
    deviation_relative: float
    guards: dict[str, float]
    sector_mask: np.ndarray | None = None
    notes: tuple[str, ...] = ()

    @property
    def selected(self) -> OperatorMatrix:
        return self.printed if self.scenario.form == "printed" else self.corrected


def closed_form_effective(model: ModelInstance, scenario: EffectiveScenario) -> EffectiveForms:
    """Build the printed and corrected effective Hamiltonians for a scenario.

    Guards (dispersive ratios, resonance conditions, rotation amplitudes)
    are evaluated first and raise on violation.  The deviation between the
    two forms is measured on the scenario's validity sector.
    """
    info = SCENARIOS[scenario.identifier]
    if model.spec.kind not in info.model_kinds:
        raise EffhamError(
            f"scenario {scenario.identifier!r} does not apply to model kind {model.spec.kind!r}")
    guards = dispersive_guards(model, info.dispersive)
    if info.prepare is not None:
        guards.update(info.prepare(model))

    gen, eps = eliminating_generator(model, info.eliminate)
    # the printed forms divide by the one-photon steps checked above
    printed = info.printed(model)
    if info.amplitude_key is not None:
        guards.update((info.amplitude_key.format(name), abs(e)) for name, e in eps.items())
    generators, stages = [gen], [matrix_exponential(gen)]
    rotated = model.h_int  # as the stages before the last leave it
    for hops in info.stages:
        rotated = conjugate(rotated, stages[-1])
        generators.append(_fitted_stage(model, hops(model), rotated))
        stages.append(matrix_exponential(generators[-1]))
    rotation = _stage_product(stages, generators)

    if info.corrected_from == "structure":
        (term,) = model.interactions
        corrected = effective_su2(term.algebra, term.detuning, term.g)
    elif info.corrected_from == "second-order":
        corrected = _second_order(model, gen, info.eliminate, info.retain)
    else:
        corrected = conjugate(rotated, stages[-1])
    if info.keep is not None:
        corrected = filter_signatures(corrected, info.keep)

    sector = occupation_sector_mask(model.space, info.empty_levels) if info.empty_levels else None
    notes = info.notes(model) if callable(info.notes) else info.notes
    # deviation is measured away from the Fock cutoff, where the measured
    # structure operators are exact (cutoff-touching blocks are flagged
    # elsewhere and never enter comparisons)
    dev_mask = photon_safe_mask(model.space, 1)
    if sector is not None:
        dev_mask = dev_mask & sector
    # projecting after the subtraction gives the same entries as
    # projecting both forms
    diff = (printed - corrected).project(dev_mask).norm()
    ref = corrected.project(dev_mask).norm()
    return EffectiveForms(
        scenario=scenario, printed=printed, corrected=corrected, rotation=rotation,
        deviation_norm=diff, deviation_relative=diff / max(ref, 1e-300),
        guards=guards, sector_mask=sector, notes=tuple(notes))
