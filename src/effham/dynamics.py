"""Exact time evolution, fidelities, spectra comparison, and scaling fits.

Evolution goes through the eigendecomposition of the invariant subspace
the initial state lies in (a diagonal generator needs none), so
trajectories are exact for arbitrary horizons and norm is conserved to
machine precision.  The comparison helpers quantify how well an effective
Hamiltonian reproduces the exact spectra (per conserved block) and
dynamics (fidelity in the rotated frame), and fit empirical convergence
orders from epsilon sweeps.

Both checks cost what the blocks and the state's support cost, not the
whole space.  A spectrum comparison reads its blocks once, into one
label per state: the block that holds it, or none, since blocks may not
overlap.  The block leakage compares the labels at the two ends of each
nonzero.
An evolution runs on the support of its initial state: the states whose
component label (:func:`~effham.hilbert.component_labels`) is that of a
support state, or the support alone under a diagonal generator; a
rotation is applied from the columns on the support only.  A rotation's
blocks are formed per component on first read
(:func:`~effham.hilbert.blocks_on_read`), so an evolution from a basis
state exponentiates only the blocks its state reaches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AnalysisError, SpaceMismatchError
from .hilbert import OperatorMatrix, component_labels, size_groups

NORM_TOL = 1e-10
#: metric values at or below this are taken as roundoff and left out of a scaling fit
SATURATION = 1e-14
#: largest rms log10 residual of a scaling fit whose order is trusted
FIT_RESIDUAL_LIMIT = 0.15
#: smallest peak prominence, as a share of the series span, that counts as an oscillation peak
MIN_PROMINENCE = 0.25


@dataclass(frozen=True)
class Trajectory:
    """Sampled pure-state evolution plus named expectation-value series."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), dim)
    observables: dict[str, np.ndarray] = field(default_factory=dict)

    def norm_drift(self) -> float:
        return float(np.max(np.abs(1.0 - np.linalg.norm(self.states, axis=1))))


def evolve(h: OperatorMatrix, psi0: np.ndarray, times, observables=None) -> Trajectory:
    """Evolve ``psi0`` under the Hermitian ``h`` at the requested times.

    Only the support of ``psi0`` and what ``h`` reaches from it evolve.  A
    diagonal ``h`` evolves in closed form, with the phases of the support's
    states alone.  Otherwise the states are expanded in one
    eigendecomposition of ``h`` restricted to the span of the support: the
    states whose component label (:func:`~effham.hilbert.component_labels`,
    the connected components of the nonzero pattern of ``h``) is the label
    of a support state.  That span is invariant under ``h``, so the
    restriction is exact.  Either way every state outside it keeps
    amplitude exactly 0.

    ``observables`` maps names to operators whose expectation values are
    recorded along the trajectory.  The times must be finite, one at
    least; a NaN in the state or the evolved norms fails its guard.
    """
    if not h.is_hermitian(1e-10):
        raise ValueError("evolution requires a Hermitian generator")
    psi = np.asarray(psi0, dtype=complex)
    if not abs(np.linalg.norm(psi) - 1.0) <= NORM_TOL:
        raise ValueError("initial state must be normalized")
    t = np.asarray(list(times), dtype=float)
    if not t.size or not np.isfinite(t).all():
        raise ValueError("evolution times must be finite, one at least")
    states = np.zeros((len(t), len(psi)), dtype=complex)
    support = np.flatnonzero(psi)
    if h.is_diagonal(0.0):
        # eigh reads only the real part of a Hermitian diagonal
        states[:, support] = np.exp(-1j * np.outer(t, h.diagonal().real[support])) * psi[support]
    else:
        label = component_labels(h)
        met = np.zeros(len(psi), dtype=bool)
        met[label[support]] = True
        span = np.flatnonzero(met[label])
        w, v = np.linalg.eigh(h.block(span))
        coeff = v.conj().T @ psi[span]
        phases = np.exp(-1j * np.outer(t, w))
        states[:, span] = (phases * coeff) @ v.T  # (T, dim) in the original basis
    drift = Trajectory(t, states).norm_drift()
    if not drift <= NORM_TOL:
        raise AnalysisError(f"norm drift {drift:.3e} beyond tolerance")
    return Trajectory(times=t, states=states, observables=_expectations(h, states, observables))


def _expectations(h: OperatorMatrix, states: np.ndarray, observables) -> dict[str, np.ndarray]:
    """The expectation series of each named observable along ``states``, each
    applied as it is stored; every observable must live on ``h``'s space."""
    obs = {}
    for name, op in (observables or {}).items():
        if op.space != h.space:
            raise SpaceMismatchError(f"observable {name} on a different space")
        obs[name] = np.real(np.einsum("ti,ti->t", states.conj(), op.apply(states.T).T))
    return obs


def effective_evolution(h_eff: OperatorMatrix, psi0: np.ndarray, times,
                        rotation: OperatorMatrix | None = None,
                        observables=None) -> Trajectory:
    """Evolution under an effective Hamiltonian, by default in the rotated frame.

    With a rotation U (the one that produced ``h_eff`` from the exact
    interaction), the returned states are ``U^dag exp(-i h_eff t) U psi0``,
    which is directly comparable with the exact evolution.  Without a
    rotation the bare comparison is returned; the frame corrections it
    omits are first order in the rotation amplitude and time independent.

    ``U psi0`` reads only the columns of U on the support of ``psi0``
    (:meth:`~effham.hilbert.OperatorMatrix.apply`), and the rotated-frame
    states evolve on their own support (:func:`evolve`).  Only the columns
    of U that the support of the rotated-frame states reaches can be
    nonzero in the result, so only those are formed; each still sums over
    every state, as the full product does.  U is read through ``apply``
    and ``block`` alone, so of a rotation formed per component on first
    read only the components those states meet are formed.
    """
    psi = np.asarray(psi0, dtype=complex)
    if rotation is None:
        return evolve(h_eff, psi, times, observables)
    inner = evolve(h_eff, rotation.apply(psi), times)
    every = np.arange(rotation.dim)
    reached = np.flatnonzero(np.any(inner.states, axis=0))
    cols = np.flatnonzero(np.any(rotation.block(reached, every), axis=0))
    states = np.zeros_like(inner.states)
    # row k: (U^dag psi_k)^T = psi_k^T conj(U)
    states[:, cols] = inner.states @ rotation.block(every, cols).conj()
    return Trajectory(times=inner.times, states=states,
                      observables=_expectations(h_eff, states, observables))


def fidelity(psi: np.ndarray, phi: np.ndarray) -> float:
    """Squared overlap |<psi|phi>|^2 (phase invariant)."""
    a = np.asarray(psi, dtype=complex)
    b = np.asarray(phi, dtype=complex)
    if a.shape != b.shape:
        raise SpaceMismatchError("states have different dimensions")
    return float(np.abs(np.vdot(a, b)) ** 2)


def infidelity_series(exact: Trajectory, approx: Trajectory) -> np.ndarray:
    """1 - F(t) between two trajectories on the same time grid."""
    if exact.states.shape != approx.states.shape:
        raise SpaceMismatchError("trajectories are not comparable")
    overlap = np.abs(np.einsum("ti,ti->t", exact.states.conj(), approx.states)) ** 2
    return 1.0 - overlap


@dataclass(frozen=True)
class BlockErrors:
    key: tuple[float, ...]
    max_error: float
    mean_error: float
    size: int
    exact_ev: tuple[float, ...]
    eff_ev: tuple[float, ...]


@dataclass(frozen=True)
class ComparisonReport:
    """Per-block eigenvalue errors, the block leakage of the inputs, and the
    number of distinct states the blocks cover."""

    blocks: tuple[BlockErrors, ...]
    max_error: float
    mean_error: float
    block_leakage: float
    compared_states: int


def compare_spectra(h_exact: OperatorMatrix, h_eff: OperatorMatrix, blocks,
                    block_tol: float = 1e-10) -> ComparisonReport:
    """Sorted-eigenvalue differences inside each conserved block.

    ``blocks`` is an iterable of boolean masks or index lists, read once
    into one label per state: the block that holds it, -1 for none.  Blocks
    may not overlap, and an empty ``blocks``, or an empty block in it,
    compares nothing; each is an error.  ``compared_states`` counts the
    labelled states.  Both inputs must be block diagonal: the larger
    leakage of the two (:func:`_leakage`, exactly 0 for an exactly
    block-diagonal ``h``) beyond ``block_tol``, or a NaN one, is an error.
    The blocks of one size (:func:`~effham.hilbert.size_groups`) are
    diagonalised in one stacked ``eigvalsh`` call, each block as on its
    own, and their errors are reduced in one call per size; degenerate
    clusters are compared as sorted multisets.  ``max_error`` and
    ``mean_error`` reduce every error in block order.
    """
    h_exact._check(h_eff)
    blocks = list(blocks)
    if not blocks:
        raise AnalysisError("no blocks to compare")
    label = np.full(h_exact.dim, -1)
    for b, blk in enumerate(blocks):
        sel = np.asarray(blk)
        held = label[sel] if sel.size else sel
        if not held.size:
            raise AnalysisError(f"block {b} is empty")
        if held.max() >= 0:
            raise AnalysisError(f"block {b} holds a state of block {int(held.max())}")
        label[sel] = b
    leakage = float(np.max([_leakage(h, label) for h in (h_exact, h_eff)]))  # NaN if either is
    if not leakage <= block_tol:
        raise AnalysisError(f"operators leak between blocks (relative norm {leakage:.3e})")
    ends = np.cumsum(np.bincount(label + 1, minlength=len(blocks) + 1)).tolist()
    states = np.argsort(label, kind="stable")  # the unlabelled, then block by block in basis order
    errs = np.empty(h_exact.dim)
    per_block: list = [None] * len(blocks)
    for members, stack in size_groups([states[a:z] for a, z in zip(ends, ends[1:])]):
        ev_exact = np.linalg.eigvalsh(h_exact.block(stack))
        ev_eff = np.linalg.eigvalsh(h_eff.block(stack))
        err = np.abs(ev_exact - ev_eff)
        errs[stack] = err  # block b's k-th error at its k-th state
        for b, most, mean, exact, eff in zip(members, err.max(axis=1).tolist(), err.mean(axis=1).tolist(),
                                             ev_exact.tolist(), ev_eff.tolist()):
            per_block[b] = BlockErrors(key=(float(b),), max_error=most, mean_error=mean,
                                       size=stack.shape[1], exact_ev=tuple(exact), eff_ev=tuple(eff))
    errs = errs[states[ends[0]:]]
    return ComparisonReport(blocks=tuple(per_block),
                            max_error=float(errs.max()),
                            mean_error=float(errs.mean()),
                            block_leakage=leakage,
                            compared_states=len(errs))


def _leakage(h: OperatorMatrix, label: np.ndarray) -> float:
    """``max_b ||h[b, ~b]||_F / ||h||`` over the blocks ``b`` of ``label``
    (the block of each state, -1 for none); 0 for an ``h`` with no entries.

    A nonzero leaks where its row is in a block and its column is not in
    that block.  The leaking entries are grouped by the block of their row
    with a stable sort, so each block's norm reads its entries in the order
    of :meth:`~effham.hilbert.OperatorMatrix.entries`, and a norm is taken
    only for the blocks one of them leaves."""
    rows, cols, v = h.entries()
    row_label = label[rows]
    cross = (row_label >= 0) & (row_label != label[cols])
    if not cross.any():
        return 0.0
    order = np.argsort(row_label[cross], kind="stable")
    row_label, v = row_label[cross][order], v[cross][order]
    cuts = np.flatnonzero(row_label[1:] != row_label[:-1]) + 1
    out = max(float(np.linalg.norm(part)) for part in np.split(v, cuts))
    return out / h.norm() if out else 0.0


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares slope of log(metric) against log(epsilon)."""

    order: float
    intercept: float
    residual: float  # rms residual in log10 space
    epsilons: tuple[float, ...]
    values: tuple[float, ...]
    saturated: bool

    @property
    def reliable(self) -> bool:
        """The fitted order is only meaningful when the log-log fit is tight:
        unsaturated, with a residual of at most :data:`FIT_RESIDUAL_LIMIT`."""
        return (not self.saturated) and self.residual <= FIT_RESIDUAL_LIMIT


def scaling_study(metric, eps_grid) -> ScalingFit:
    """Fit the convergence order of ``metric(eps)`` over a geometric epsilon grid.

    Grid points whose metric is at most :data:`SATURATION` are dropped and
    the fit is flagged saturated; the grid needs three distinct values, and
    the fit three distinct usable ones.
    """
    eps = [float(e) for e in eps_grid]
    if len(set(eps)) < 3:
        raise ValueError("need at least three distinct epsilon values")
    vals = [float(metric(e)) for e in eps]
    usable = [(e, v) for e, v in zip(eps, vals) if v > SATURATION]
    saturated = len(usable) < len(vals)
    if len({e for e, _ in usable}) < 3:
        return ScalingFit(order=math.nan, intercept=math.nan, residual=math.inf,
                          epsilons=tuple(eps), values=tuple(vals), saturated=True)
    le = np.log10([e for e, _ in usable])
    lv = np.log10([v for _, v in usable])
    slope, intercept = np.polyfit(le, lv, 1)
    fitted = slope * le + intercept
    residual = float(np.sqrt(np.mean((lv - fitted) ** 2)))
    return ScalingFit(order=float(slope), intercept=float(intercept), residual=residual,
                      epsilons=tuple(eps), values=tuple(vals), saturated=saturated)


def _prominence(s: np.ndarray, p: int) -> float:
    """Height of peak ``p`` above the higher of its two surrounding bases."""
    n = len(s)
    left = s[p]
    k = p - 1
    while k >= 0 and s[k] <= s[p]:
        left = min(left, s[k])
        k -= 1
    right = s[p]
    k = p + 1
    while k < n and s[k] <= s[p]:
        right = min(right, s[k])
        k += 1
    return float(s[p] - max(left, right))


def effective_frequency(traj: Trajectory, observable: str) -> float:
    """Dominant oscillation frequency of a recorded observable.

    Measured from the mean spacing of successive maxima, refined with a
    three-point parabolic fit.  Only peaks whose prominence is at least
    :data:`MIN_PROMINENCE` times the series span count, which makes the
    extraction immune to the small fast ripple that nonresonant channels
    superpose on a slow transfer; at least two such peaks are required.
    Note populations oscillate at twice the underlying amplitude frequency,
    so a resonant two-level transfer with coupling c yields ``c / pi``.
    """
    if observable not in traj.observables:
        raise KeyError(observable)
    s = np.asarray(traj.observables[observable], dtype=float)
    t = traj.times
    span = float(np.max(s) - np.min(s))
    if span < 1e-12:
        raise AnalysisError(f"series {observable!r} is constant")
    peaks = []
    for i in range(1, len(s) - 1):
        if not (s[i - 1] < s[i] >= s[i + 1]):
            continue
        if _prominence(s, i) < MIN_PROMINENCE * span:
            continue
        denom = s[i - 1] - 2 * s[i] + s[i + 1]
        shift = 0.5 * (s[i - 1] - s[i + 1]) / denom if denom != 0 else 0.0
        peaks.append(t[i] + shift * (t[i + 1] - t[i]))
    if len(peaks) < 2:
        raise AnalysisError(f"series {observable!r} shows fewer than two oscillation peaks")
    spacing = float(np.mean(np.diff(peaks)))
    return 1.0 / spacing
