"""Polynomially deformed ladder algebras and their numerical verification.

A deformed algebra is a triple (X3, X+, X-) that keeps the ladder relation
``[X3, X+-] = +-X+-`` of su(2) while ``[X+, X-]`` is allowed to be an
arbitrary diagonal operator (a polynomial in X3 and the integrals of
motion).  The triple is stored together with that measured commutator,
called the structure operator here: it is what enters second-order
effective Hamiltonians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, LadderRelationError, SpaceMismatchError
from .hilbert import (EnsembleSpec, OperatorMatrix, SpaceDescriptor,
                      commutator, enumerate_basis, photon_safe_mask)

#: residuals accepted when constructing objects
CONSTRUCTION_TOL = 1e-12
#: residuals accepted when verifying relations
VERIFICATION_TOL = 1e-10


@dataclass(frozen=True)
class DeformedAlgebra:
    """A named generator triple plus its measured structure operator."""

    name: str
    x3: OperatorMatrix
    xplus: OperatorMatrix
    xminus: OperatorMatrix
    structure: OperatorMatrix

    @property
    def space(self) -> SpaceDescriptor:
        return self.x3.space


@dataclass(frozen=True)
class RelationReport:
    """Residual norms of a set of commutation relations, checked at one tolerance.

    ``extras`` carries informational norms that do not enter the pass/fail
    verdict (e.g. deviations of simplified printed forms that only hold in
    special cases).
    """

    name: str
    residuals: dict[str, float]
    tol: float
    extras: dict[str, float] | None = None

    @property
    def passed(self) -> bool:
        return all(r <= self.tol for r in self.residuals.values())


def build_deformed(name: str, x3: OperatorMatrix, xplus: OperatorMatrix) -> DeformedAlgebra:
    """Assemble a deformed algebra from a diagonal generator and a raising operator.

    ``X-`` is taken as the adjoint of ``X+`` and the structure operator is
    measured as ``[X+, X-]``.  Construction fails if the inputs do not share
    a space, if ``X3`` is not Hermitian, if the ladder relation
    ``[X3, X+] = X+`` fails beyond :data:`VERIFICATION_TOL` relative to
    ``||X+||``, or if the structure operator fails to commute with ``X3``
    beyond :data:`CONSTRUCTION_TOL` relative to its own norm.  Neither
    scale has a floor, so no verdict depends on the unit of ``X+``; a NaN
    residual fails.
    """
    if x3.space != xplus.space:
        raise SpaceMismatchError("X3 and X+ live on different spaces")
    if not x3.is_hermitian(CONSTRUCTION_TOL):
        raise LadderRelationError(f"{name}: X3 is not Hermitian")
    # each residual is measured first: an exact 0 needs no scale
    ladder = (commutator(x3, xplus) - xplus).norm()
    if ladder and not ladder <= VERIFICATION_TOL * xplus.norm():
        raise LadderRelationError(
            f"{name}: [X3, X+] - X+ has norm {ladder:.3e} (tol {VERIFICATION_TOL:.1e})")
    xminus = xplus.dag()
    structure = commutator(xplus, xminus)
    comm = commutator(structure, x3).norm()
    if comm and not comm <= CONSTRUCTION_TOL * structure.norm():
        raise LadderRelationError(f"{name}: structure operator does not commute with X3")
    return DeformedAlgebra(name=name, x3=x3, xplus=xplus, xminus=xminus, structure=structure)


def _require_diagonal(op: OperatorMatrix, what: str, tol: float):
    if not op.is_diagonal(tol):
        raise AnalysisError(f"{what} is not diagonal in the product basis at tolerance {tol:.1e}")


@dataclass(frozen=True)
class StructureSample:
    """One joint eigenvalue of (X3, conserved...) with the structure value there."""

    x3: float
    conserved: tuple[float, ...]
    value: float


def structure_polynomial_samples(alg: DeformedAlgebra, conserved=(), tol: float = VERIFICATION_TOL
                                 ) -> list[StructureSample]:
    """Tabulate the structure operator against the joint (X3, conserved) eigenvalues.

    All inputs must be diagonal in the stored product basis (which holds for
    every built-in model deformation).  States sharing a joint eigenvalue
    must carry the same structure value; a mismatch means the structure is
    not a function of the chosen labels and raises :class:`AnalysisError`.
    """
    _require_diagonal(alg.x3, "X3", tol)
    _require_diagonal(alg.structure, "structure operator", tol)
    cons = list(conserved)
    for k, op in enumerate(cons):
        if op.space != alg.space:
            raise SpaceMismatchError("conserved operator on a different space")
        _require_diagonal(op, f"conserved[{k}]", tol)

    x3d = alg.x3.diagonal().real
    pd = alg.structure.diagonal().real
    cdiags = [op.diagonal().real for op in cons]
    table: dict[tuple, float] = {}
    for idx in range(alg.space.dim):
        key = (round(float(x3d[idx]), 9), tuple(round(float(c[idx]), 9) for c in cdiags))
        val = float(pd[idx])
        if key in table and abs(table[key] - val) > max(tol, tol * abs(val)):
            raise AnalysisError(
                f"structure value not a function of the given labels at {key}: "
                f"{table[key]:.6g} vs {val:.6g}")
        table.setdefault(key, val)
    samples = [StructureSample(x3=k[0], conserved=k[1], value=v) for k, v in table.items()]
    samples.sort(key=lambda s: (s.conserved, s.x3))
    return samples


def verify_su3_cross_relations(alg_a: DeformedAlgebra, alg_b: DeformedAlgebra,
                               y_plus: OperatorMatrix, pattern: str = "xi",
                               mixed_expected: OperatorMatrix | None = None,
                               tol: float = CONSTRUCTION_TOL) -> RelationReport:
    """Residuals of the cross relations tying two deformed su(2) pairs together.

    ``pattern="xi"`` (cascade configuration, pairs 1-2 and 2-3): checks
    ``[A+, B+] = -Y+``, ``[A-, B-] = Y+^dag`` and the mixed bracket
    ``[A+, B-]``, which vanishes for a single atom.  For several atoms the
    mixed bracket equals a two-atom operator; pass it as ``mixed_expected``
    to check the exact identity (the residual against zero is reported
    either way).

    ``pattern="lambda"`` (pairs 1-3 and 2-3 sharing the upper level): checks
    ``[A+, B-] = Y+``, ``[A-, B+] = -Y+^dag`` and ``[A+, B+] = 0``, where
    ``Y+`` is the photonless transfer operator.

    The mixed brackets involve ``a a^dag`` and are therefore exact only
    away from the Fock cutoff; residuals are evaluated with the top photon
    level of each mode projected out.
    """
    if alg_a.space != alg_b.space or y_plus.space != alg_a.space:
        raise SpaceMismatchError("cross-relation operands live on different spaces")
    safe = photon_safe_mask(alg_a.space, 1)

    def resid(op: OperatorMatrix) -> float:
        return op.project(safe).norm()

    res: dict[str, float] = {}
    extras: dict[str, float] = {}
    if pattern == "xi":
        res["raise_raise"] = resid(commutator(alg_a.xplus, alg_b.xplus) + y_plus)
        res["lower_lower"] = resid(commutator(alg_a.xminus, alg_b.xminus) - y_plus.dag())
        mixed = commutator(alg_a.xplus, alg_b.xminus)
        if mixed_expected is not None:
            res["mixed"] = resid(mixed - mixed_expected)
            extras["mixed_vs_zero"] = resid(mixed)
        else:
            res["mixed"] = resid(mixed)
    elif pattern == "lambda":
        res["raise_lower"] = resid(commutator(alg_a.xplus, alg_b.xminus) - y_plus)
        res["lower_raise"] = resid(commutator(alg_a.xminus, alg_b.xplus) + y_plus.dag())
        res["raise_raise"] = resid(commutator(alg_a.xplus, alg_b.xplus))
    else:
        raise ValueError(f"unknown pattern {pattern!r}")
    return RelationReport(name=f"{alg_a.name}/{alg_b.name}:{pattern}",
                          residuals=res, tol=tol, extras=extras or None)


def ladder_relation_report(alg: DeformedAlgebra, tol: float = VERIFICATION_TOL) -> RelationReport:
    """Residuals of the defining relations of one deformed algebra."""
    res = {
        "ladder_plus": (commutator(alg.x3, alg.xplus) - alg.xplus).norm(),
        "ladder_minus": (commutator(alg.x3, alg.xminus) + alg.xminus).norm(),
        "adjoint": (alg.xminus - alg.xplus.dag()).norm(),
        "structure": (commutator(alg.xplus, alg.xminus) - alg.structure).norm(),
        "structure_diag": alg.structure.offdiagonal_norm(),
    }
    return RelationReport(name=alg.name, residuals=res, tol=tol)


def ladder_from_structure(name: str, phi, y0_values) -> DeformedAlgebra:
    """Build a one-chain deformed algebra from a structure function.

    Given a scalar function ``phi`` and consecutive weights ``y0_values``
    (unit spacing), returns generators with ``Y0`` diagonal and
    ``[Y-, Y+] = phi(Y0 + 1) - phi(Y0)`` exactly, on a chain whose lowest
    weight state is annihilated by ``Y-``.  The squared ladder amplitudes
    are ``phi(y_m) - phi(y_0)``, so ``phi`` must exceed its base value in
    the chain interior and return to it one step above the top
    (``phi(y_top + 1) = phi(y_0)``): that closure condition is what makes a
    finite-dimensional module possible at all, exactly as for a spin chain.
    """
    y0 = [float(v) for v in y0_values]
    if len(y0) < 2:
        raise ValueError("need at least two chain states")
    if any(abs((b - a) - 1.0) > 1e-12 for a, b in zip(y0, y0[1:])):
        raise ValueError("y0 values must be consecutive with unit spacing")
    base = phi(y0[0])
    top = phi(y0[-1] + 1.0)
    scale = max(abs(base), *(abs(phi(v)) for v in y0))
    if abs(top - base) > 1e-9 * scale:
        raise ValueError(
            "structure function does not close the chain: need phi(y_top + 1) = phi(y_0) "
            f"(got {top:.6g} vs {base:.6g}); no finite module satisfies the identity")
    amps = []
    for v in y0[1:]:
        delta = phi(v) - base
        if delta <= 0:
            raise ValueError("phi must exceed its base value inside the chain "
                             "(non-positive ladder weight)")
        amps.append(np.sqrt(delta))
    space = enumerate_basis([], EnsembleSpec(levels=2, atoms=len(y0) - 1))
    mat3 = np.diag(np.asarray(y0, dtype=float))
    matp = np.zeros((len(y0), len(y0)))
    for m, amp in enumerate(amps):
        matp[m + 1, m] = amp
    return build_deformed(name, OperatorMatrix(space, mat3), OperatorMatrix(space, matp))
