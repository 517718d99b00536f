"""Exact time evolution, fidelities, spectra comparison, and scaling fits.

Evolution goes through the eigendecomposition of the invariant subspace
the initial state lies in (a diagonal generator needs none), so
trajectories are exact for arbitrary horizons and norm is conserved to
machine precision.  The
comparison helpers quantify how well an effective Hamiltonian reproduces
the exact spectra (per conserved block) and dynamics (fidelity in the
rotated frame), and fit empirical convergence orders from epsilon sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AnalysisError, SpaceMismatchError
from .hilbert import OperatorMatrix, components, size_groups

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

    A diagonal ``h`` evolves in closed form.  Otherwise the states are
    expanded in one eigendecomposition of ``h`` restricted to the union of
    the connected components of its nonzero pattern
    (:func:`~effham.hilbert.components`) that meet the support of ``psi0``.
    That span is invariant under ``h``, so the restriction is exact and
    every state outside it keeps amplitude exactly 0.

    ``observables`` maps names to operators whose expectation values are
    recorded along the trajectory.
    """
    if not h.is_hermitian(1e-10):
        raise ValueError("evolution requires a Hermitian generator")
    psi = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > NORM_TOL:
        raise ValueError("initial state must be normalized")
    t = np.asarray(list(times), dtype=float)
    if h.is_diagonal(0.0):
        # eigh reads only the real part of a Hermitian diagonal
        states = np.exp(-1j * np.outer(t, h.diagonal().real)) * psi
    else:
        span = np.zeros(len(psi), dtype=bool)
        span[np.concatenate([part for part in components(h) if np.any(psi[part])])] = True
        w, v = np.linalg.eigh(h.block(np.flatnonzero(span)))
        coeff = v.conj().T @ psi[span]
        phases = np.exp(-1j * np.outer(t, w))
        states = np.zeros((len(t), len(psi)), dtype=complex)
        states[:, span] = (phases * coeff) @ v.T  # (T, dim) in the original basis
    drift = Trajectory(t, states).norm_drift()
    if drift > NORM_TOL:
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

    Only the columns of U that the support of the rotated-frame states
    reaches can be nonzero in the result, so only those are formed; each
    still sums over every state, as the full product does.
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
    """Per-block eigenvalue errors and the block leakage of the inputs."""

    blocks: tuple[BlockErrors, ...]
    max_error: float
    mean_error: float
    block_leakage: float


def compare_spectra(h_exact: OperatorMatrix, h_eff: OperatorMatrix, blocks,
                    block_tol: float = 1e-10) -> ComparisonReport:
    """Sorted-eigenvalue differences inside each conserved block.

    ``blocks`` is an iterable of boolean masks or index lists.  Both inputs
    must be block diagonal with respect to them: the leakage of ``h`` is
    ``max_b ||h[b, ~b]||_F / max(1, ||h||)`` over the blocks ``b`` (which
    may overlap), read from the nonzero entries of ``h``, and exactly 0 for
    an exactly block-diagonal ``h``; the larger leakage of the two inputs
    beyond ``block_tol`` is an error.  The blocks of one size are
    diagonalised in one stacked ``eigvalsh`` call, each block as on its own;
    degenerate clusters are compared as sorted multisets.  An empty
    ``blocks``, or an empty block in it, compares nothing and is an error.
    """
    h_exact._check(h_eff)
    masks = []
    for b, blk in enumerate(blocks):
        sel = np.asarray(blk)
        m = np.zeros(h_exact.dim, dtype=bool)
        if sel.size:
            m[sel] = True
        if not m.any():
            raise AnalysisError(f"block {b} is empty")
        masks.append(m)
    if not masks:
        raise AnalysisError("no blocks to compare")
    leakage = max(_leakage(h, masks) for h in (h_exact, h_eff))
    if leakage > block_tol:
        raise AnalysisError(f"operators leak between blocks (relative norm {leakage:.3e})")
    idx = [np.flatnonzero(m) for m in masks]
    spectra = {}
    for members, stack in size_groups(idx):
        pairs = zip(np.linalg.eigvalsh(h_exact.block(stack)), np.linalg.eigvalsh(h_eff.block(stack)))
        spectra.update(zip(members, pairs))
    per_block = []
    errs_all = []
    for b in range(len(masks)):
        ev_exact, ev_eff = spectra[b]
        err = np.abs(ev_exact - ev_eff)
        per_block.append(BlockErrors(key=(float(b),), max_error=float(err.max()),
                                     mean_error=float(err.mean()), size=len(idx[b]),
                                     exact_ev=tuple(ev_exact.tolist()),
                                     eff_ev=tuple(ev_eff.tolist())))
        errs_all.extend(err.tolist())
    errs_all = np.asarray(errs_all)
    return ComparisonReport(blocks=tuple(per_block),
                            max_error=float(errs_all.max()),
                            mean_error=float(errs_all.mean()),
                            block_leakage=leakage)


def _leakage(h: OperatorMatrix, masks) -> float:
    """``max_b ||h[b, ~b]||_F / max(1, ||h||)`` over the boolean ``masks``.

    Only a nonzero between two states that lie in different sets of masks
    can leak, so the masks are checked on those entries alone."""
    rows, cols, v = h.entries()
    stack = np.array(masks)
    member = np.packbits(stack, axis=0)  # column i: the masks holding state i, 8 to a byte
    cross = (member[:, rows] != member[:, cols]).any(axis=0)
    if not cross.any():
        return 0.0
    rows, cols, v = rows[cross], cols[cross], v[cross]
    out = max(float(np.linalg.norm(v[m[rows] & ~m[cols]])) for m in stack)
    return out / max(1.0, h.norm()) if out else 0.0


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
    the fit is flagged saturated; at least three usable points are required.
    """
    eps = [float(e) for e in eps_grid]
    if len(eps) < 3:
        raise ValueError("need at least three epsilon values")
    vals = [float(metric(e)) for e in eps]
    usable = [(e, v) for e, v in zip(eps, vals) if v > SATURATION]
    saturated = len(usable) < len(vals)
    if len(usable) < 3:
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
