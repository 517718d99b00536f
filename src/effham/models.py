"""Model factories: driven spins, Dicke, three-level cascades/Lambda, N-level chains.

Each builder returns a :class:`ModelInstance` holding the free part
``h_free``, the interaction ``h_int`` (diagonal detuning part plus coupling
terms), the integrals of motion, and one deformed algebra per coupling
term.  The split is exact: ``h_free + h_int`` reproduces the full lab-frame
Hamiltonian including the scalar constants that are usually dropped, so
interaction-picture comparisons cost nothing.

A builder states the physics: the space, the detunings, the diagonal part,
the excitation number, the transitions and the free part.  One assembler,
:func:`_model`, builds the algebras and coupling terms from that, sums
``h_int`` and validates the result.

All couplings are real, energies are in units with hbar = 1.

Every validity guard lives in the guard section below, one unit-free rule
per kind: amplitude (:func:`amplitude_guard`), dispersive ratio
(:func:`dispersive_guard`) and resonance (:func:`resonant`), so no verdict
depends on the unit of energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import hilbert
from .algebra import VERIFICATION_TOL, DeformedAlgebra, build_deformed
from .errors import GuardViolationError, ResonanceError
from .hilbert import (EnsembleSpec, FockTruncation, OperatorMatrix, SpaceDescriptor,
                      annihilator, collective_inversion, collective_operator,
                      enumerate_basis, identity, number_operator, photon_safe_mask)

MODEL_KINDS = ("spin-in-field", "dicke", "xi3", "lambda3", "cascade", "two-mode-four")

#: rotation amplitudes and ratios g/Delta are trusted below this magnitude
AMPLITUDE_LIMIT = 0.3
#: dimensionless dispersive ratio above which a regime is flagged invalid
DISPERSIVE_LIMIT = 0.3
#: share of the largest energy it is built from below which a quantity counts as zero
RESONANCE_TOL = 1e-9


@dataclass(frozen=True)
class ModelSpec:
    """Parameter record for one model family; unused fields stay at defaults.

    kind            one of :data:`MODEL_KINDS`
    atoms           ensemble size A (ignored by spin-in-field, which uses spin_j)
    n_max           Fock truncation per mode
    energies        bare level energies E_i (cascade-like kinds)
    omega_field     single-mode field frequency (or mode a for two modes)
    omega_b         second mode frequency (two-mode kind)
    couplings       one coupling per allowed transition, in level order
    couplings_b     mode-b couplings (two-mode kind)
    omega, g, spin_j   spin-in-field parameters
    omega0          atomic transition frequency (dicke)

    The record refuses, with a ``ValueError`` naming the rule, a number that
    is not finite and every level, coupling or truncation count the kind's
    builder cannot take.
    """

    kind: str
    atoms: int = 1
    n_max: tuple[int, ...] = (6,)
    energies: tuple[float, ...] = ()
    omega_field: float = 0.0
    omega_b: float = 0.0
    couplings: tuple[float, ...] = ()
    couplings_b: tuple[float, ...] = ()
    omega: float = 1.0
    g: float = 0.0
    spin_j: float = 0.5
    omega0: float = 0.0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if isinstance(self.n_max, int):
            object.__setattr__(self, "n_max", (self.n_max,))
        else:
            object.__setattr__(self, "n_max", tuple(int(n) for n in self.n_max))
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))
        object.__setattr__(self, "couplings", tuple(float(g) for g in self.couplings))
        object.__setattr__(self, "couplings_b", tuple(float(g) for g in self.couplings_b))
        for name, value in vars(self).items():
            numbers = value if isinstance(value, tuple) else (value,)
            if name != "kind" and not all(map(math.isfinite, numbers)):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.atoms < 1:
            raise ValueError("atoms must be >= 1")
        _check_shape(self)
        if self.kind != "spin-in-field" and any(n < 1 for n in self.n_max):
            raise ValueError("field truncations must be positive")
        if self.kind in ("xi3", "cascade", "two-mode-four"):
            if any(b <= a for a, b in zip(self.energies, self.energies[1:])):
                raise ValueError("cascade level energies must be strictly increasing")
        if self.kind == "lambda3":
            if self.energies[2] <= max(self.energies[0], self.energies[1]):
                raise ValueError("the shared level of a Lambda system must lie highest")
        if self.kind == "spin-in-field":
            a2 = 2 * self.spin_j
            if abs(a2 - round(a2)) > 1e-12 or round(a2) < 1:
                raise ValueError("spin_j must be a positive integer or half-integer")


#: level energies each kind's builder reads; a cascade reads at least this many
_LEVELS = {"xi3": 3, "lambda3": 3, "cascade": 3, "two-mode-four": 4}
#: field modes of the kinds that have other than one
_MODES = {"spin-in-field": 0, "two-mode-four": 2}


def field_modes(kind: str) -> int:
    """The number of field modes of a model kind."""
    return _MODES.get(kind, 1)


def model_basis(spec: ModelSpec) -> tuple[tuple[FockTruncation, ...], EnsembleSpec]:
    """The basis the kind's builder builds its space on: the truncation of
    each field mode, and an ensemble of one level per level energy (two for
    the spin and Dicke kinds) and ``atoms`` atoms (2j for a spin j)."""
    modes = tuple(FockTruncation(n) for n in spec.n_max[:field_modes(spec.kind)])
    levels = len(spec.energies) if spec.kind in _LEVELS else 2
    atoms = int(round(2 * spec.spin_j)) if spec.kind == "spin-in-field" else spec.atoms
    return modes, EnsembleSpec(levels=levels, atoms=atoms)


def _check_shape(spec: ModelSpec) -> None:
    """Refuse a level, coupling or truncation count the kind's builder
    cannot take: one truncation per field mode (a spin has none and reads
    none), and one coupling per transition (two-mode: per mode)."""
    modes = field_modes(spec.kind)
    if modes and len(spec.n_max) != modes:
        raise ValueError(f"a {spec.kind} model needs one truncation per mode ({modes}), "
                         f"got {len(spec.n_max)}")
    if spec.kind not in _LEVELS:
        return
    n, levels, least = len(spec.energies), _LEVELS[spec.kind], spec.kind == "cascade"
    if n < levels if least else n != levels:
        raise ValueError(f"a {spec.kind} model needs {'at least ' * least}{levels} "
                         f"level energies, got {n}")
    if len(spec.couplings) != n - 1:
        raise ValueError(f"a {spec.kind} model needs one coupling per transition "
                         f"({n - 1}), got {len(spec.couplings)}")
    if spec.kind == "two-mode-four":
        if len(spec.couplings_b) != n - 1:
            raise ValueError(f"a two-mode-four model needs one mode-b coupling per transition "
                             f"({n - 1}), got {len(spec.couplings_b)}")


@dataclass(frozen=True)
class Interaction:
    """One coupling term ``g (X+ + X-)`` with its one-photon detuning."""

    name: str
    g: float
    detuning: float
    algebra: DeformedAlgebra
    mode: int | None = 0

    @property
    def epsilon(self) -> float:
        return self.g / self.detuning

    @property
    def coupling(self) -> OperatorMatrix:
        """The coupling term ``g (X+ + X-)``."""
        return self.g * (self.algebra.xplus + self.algebra.xminus)


@dataclass(frozen=True)
class ModelInstance:
    """A constructed model: operators, integrals of motion, deformed algebras."""

    spec: ModelSpec
    space: SpaceDescriptor
    h_free: OperatorMatrix
    h_int: OperatorMatrix
    h_diag: OperatorMatrix
    interactions: tuple[Interaction, ...]
    conserved: dict[str, OperatorMatrix]
    detunings: dict[str, float]
    operators: dict[str, OperatorMatrix] = field(default_factory=dict)
    #: what the rotations find once per model (the elimination generators),
    #: fresh for every instance, a replaced one included
    kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def interaction(self, name: str) -> Interaction:
        for term in self.interactions:
            if term.name == name:
                return term
        raise KeyError(name)

    @property
    def algebras(self) -> dict[str, DeformedAlgebra]:
        return {t.name: t.algebra for t in self.interactions}


def _validate(model: ModelInstance) -> ModelInstance:
    """Check that both Hamiltonians are Hermitian and that ``h_int``
    commutes with every conserved operator, which must be exactly diagonal.

    With ``C = diag(c)``, ``[h_int, C]`` is nonzero only where ``h_int`` is:
    ``v c[j] - c[i] v`` at each nonzero ``v`` at ``(i, j)``, the entries the
    dense products would form, so the residual reads ``h_int``'s nonzeros.
    Its norm may be at most :data:`~effham.algebra.VERIFICATION_TOL` times
    the norms of both operators, with no floor, so the verdict does not
    depend on their units; a NaN residual fails.
    """
    h = model.h_int
    if not h.is_hermitian(1e-12) or not model.h_free.is_hermitian(1e-12):
        raise ValueError("constructed Hamiltonian is not Hermitian")
    rows, cols, v = h.entries()
    for name, op in model.conserved.items():
        op_rows, op_cols, _ = op.entries()
        if not np.array_equal(op_rows, op_cols):
            raise ValueError(f"conserved operator {name} is not diagonal in the product basis")
        c = op.diagonal()
        # an exact 0, the usual case, needs no scale
        resid = float(np.linalg.norm(v * c[cols] - c[rows] * v))
        if resid and not resid <= VERIFICATION_TOL * h.norm() * op.norm():
            raise ValueError(f"[h_int, {name}] != 0")
    return model


def _model(spec: ModelSpec, space: SpaceDescriptor, h_diag: OperatorMatrix, transitions,
           h_free: OperatorMatrix, conserved, detunings, operators) -> ModelInstance:
    """The validated model with one coupling term per ``(name, g, detuning,
    X3, X+, mode)`` in ``transitions``, each on the deformed algebra of
    ``(X3, X+)``, and ``h_int = h_diag + sum of the couplings`` in that order."""
    terms = tuple(Interaction(name, g, detuning, build_deformed(name, x3, xplus), mode)
                  for name, g, detuning, x3, xplus, mode in transitions)
    h_int = h_diag
    for term in terms:
        h_int = h_int + term.coupling
    return _validate(ModelInstance(
        spec=spec, space=space, h_free=h_free, h_int=h_int, h_diag=h_diag,
        interactions=terms, conserved=conserved, detunings=detunings, operators=operators))


# ---------------------------------------------------------------------------
# spin in a static field
# ---------------------------------------------------------------------------

def build_spin_in_field(spec: ModelSpec) -> ModelInstance:
    """Single collective spin j in a field: ``H = omega*S3 + g*(S+ + S-)``.

    Realized as A = 2j two-level atoms; there is no field mode and no
    integral of motion beyond the Casimir.
    """
    space = enumerate_basis(*model_basis(spec))
    s3, sp, sm = hilbert.spin_operators(space)
    return _model(spec, space, spec.omega * s3, [("spin", spec.g, spec.omega, s3, sp, None)],
                  hilbert.zero(space), {}, {"omega": spec.omega}, {"S3": s3, "S+": sp, "S-": sm})


# ---------------------------------------------------------------------------
# Dicke / Tavis-Cummings
# ---------------------------------------------------------------------------

def build_dicke(spec: ModelSpec) -> ModelInstance:
    """A two-level atoms and one mode in the rotating-wave approximation.

    ``h_int = Delta*S3 + g*(a S+ + a^dag S-)`` with ``Delta = omega0 - omega_f``
    and the excitation number ``N = a^dag a + S3`` conserved.
    """
    space = enumerate_basis(*model_basis(spec))
    s3, sp, sm = hilbert.spin_operators(space)
    a, n = annihilator(space, 0), number_operator(space, 0)
    delta = spec.omega0 - spec.omega_field
    n_exc = n + s3
    return _model(spec, space, delta * s3, [("jc", spec.g, delta, s3, a @ sp, 0)],
                  spec.omega_field * n_exc, {"N": n_exc}, {"delta": delta},
                  {"S3": s3, "S+": sp, "S-": sm, "a": a, "n": n})


# ---------------------------------------------------------------------------
# three-level cascade (Xi)
# ---------------------------------------------------------------------------

def level_key(i: int, j: int) -> str:
    """The name of ``S^{ij}`` in ``operators``: ``S12``, or ``S1,11`` once a level has two digits."""
    return f"S{i}{j}" if i < 10 and j < 10 else f"S{i},{j}"


def _level_ops(space: SpaceDescriptor) -> dict[str, OperatorMatrix]:
    nlev = space.ensemble.levels
    return {level_key(i, j): collective_operator(space, i, j)
            for i in range(1, nlev + 1) for j in range(1, nlev + 1)}


def build_xi3(spec: ModelSpec) -> ModelInstance:
    """Three-level cascade (dipole transitions 1-2 and 2-3) in one mode.

    Detunings ``D12 = E2 - E1 - omega_f`` and ``D23 = E3 - E2 - omega_f``;
    conserved excitation ``N = a^dag a + S33 - S11``.  The interaction keeps
    the scalar ``E2 * A`` inside ``h_free`` so the split is exact.
    """
    e1, e2, e3 = spec.energies
    wf = spec.omega_field
    g12, g23 = spec.couplings
    space = enumerate_basis(*model_basis(spec))
    ops = _level_ops(space)
    a, n = annihilator(space, 0), number_operator(space, 0)
    d12, d23 = e2 - e1 - wf, e3 - e2 - wf
    n_exc = n + ops["S33"] - ops["S11"]
    transitions = [("12", g12, d12, collective_inversion(space, 1, 2), a @ ops["S12"], 0),
                   ("23", g23, d23, collective_inversion(space, 2, 3), a @ ops["S23"], 0)]
    return _model(spec, space, (-d12) * ops["S11"] + d23 * ops["S33"], transitions,
                  wf * n_exc + (e2 * spec.atoms) * identity(space), {"N": n_exc},
                  {"12": d12, "23": d23}, {**ops, "a": a, "n": n})


# ---------------------------------------------------------------------------
# three-level Lambda
# ---------------------------------------------------------------------------

def build_lambda3(spec: ModelSpec) -> ModelInstance:
    """Lambda configuration: two lower levels coupled to a shared upper level 3.

    Detunings ``D31 = E3 - E1 - omega_f`` and ``D32 = E3 - E2 - omega_f``;
    conserved excitation ``N = a^dag a + S33`` (and the total population).
    """
    e1, e2, e3 = spec.energies
    wf = spec.omega_field
    g13, g23 = spec.couplings
    space = enumerate_basis(*model_basis(spec))
    ops = _level_ops(space)
    a, n = annihilator(space, 0), number_operator(space, 0)
    d31, d32 = e3 - e1 - wf, e3 - e2 - wf
    n_exc = n + ops["S33"]
    transitions = [("13", g13, d31, collective_inversion(space, 1, 3), a @ ops["S13"], 0),
                   ("23", g23, d32, collective_inversion(space, 2, 3), a @ ops["S23"], 0)]
    population = ops["S11"] + ops["S22"] + ops["S33"]
    return _model(spec, space, (-d31) * ops["S11"] + (-d32) * ops["S22"], transitions,
                  wf * n_exc + ((e3 - wf) * spec.atoms) * identity(space),
                  {"N": n_exc, "population": population}, {"31": d31, "32": d32},
                  {**ops, "a": a, "n": n})


# ---------------------------------------------------------------------------
# N-level cascade chain
# ---------------------------------------------------------------------------

def inversion_weights(n_levels: int) -> tuple[int, ...]:
    """Weights mu_i = i (N - i) of the inversion operators in the excitation number."""
    return tuple(i * (n_levels - i) for i in range(1, n_levels))


def cascade_detunings(energies, omega_field: float) -> tuple[float, ...]:
    """Multiphoton detunings D_j = E_j - E_1 - (j - 1) omega_f (D_1 = 0)."""
    e1 = energies[0]
    return tuple(e - e1 - j * omega_field for j, e in enumerate(energies))


def _chain(ops, inversions, n_exc: OperatorMatrix, h_diag: OperatorMatrix, deltas):
    """``n_exc + sum_i mu_i inversions[i]`` and ``h_diag + sum_j D_j S^{jj}`` of a chain."""
    for w, s3 in zip(inversion_weights(len(deltas)), inversions):
        n_exc = n_exc + w * s3
    for j, d in enumerate(deltas, start=1):
        h_diag = h_diag + d * ops[level_key(j, j)]
    return n_exc, h_diag


def build_cascade_n(spec: ModelSpec, require_resonance: bool = False) -> ModelInstance:
    """N-level cascade chain coupled to one mode on every adjacent transition.

    The conserved excitation is ``a^dag a + sum_i mu_i S3^{i,i+1}`` with
    ``mu_i = i (N - i)``.  With ``require_resonance`` the (N-1)-photon
    condition ``D_N = 0`` is enforced by :func:`resonant`.
    """
    nlev = len(spec.energies)
    wf = spec.omega_field
    deltas = cascade_detunings(spec.energies, wf)
    if require_resonance and not resonant(deltas[-1], *spec.energies, wf):
        raise ResonanceError(
            f"multiphoton resonance requested but D_{nlev} = {deltas[-1]:.3e}")
    space = enumerate_basis(*model_basis(spec))
    ops = _level_ops(space)
    inversions = [collective_inversion(space, i, i + 1) for i in range(1, nlev)]
    a, n = annihilator(space, 0), number_operator(space, 0)
    n_exc, h_diag = _chain(ops, inversions, n, hilbert.zero(space), deltas)
    transitions = [(str(i), g, deltas[i] - deltas[i - 1], inversions[i - 1],
                    a @ ops[level_key(i, i + 1)], 0)
                   for i, g in enumerate(spec.couplings, start=1)]
    e_mid = 0.5 * (spec.energies[-1] + spec.energies[0])
    h_free = wf * n_exc + ((e_mid - 0.5 * deltas[-1]) * spec.atoms) * identity(space)
    return _model(spec, space, h_diag, transitions, h_free, {"N": n_exc},
                  {str(j): d for j, d in enumerate(deltas, start=1)},
                  {**ops, "a": a, "n": n})


# ---------------------------------------------------------------------------
# four-level cascade with two modes
# ---------------------------------------------------------------------------

def build_two_mode_four(spec: ModelSpec, require_resonance: bool = False,
                        require_positive_gap: bool = False) -> ModelInstance:
    """Four-level cascade driven by two modes a and b on every adjacent transition.

    Detunings are taken against mode a, ``D_j = E_j - E_1 - (j-1) omega_a``,
    and the mode gap ``delta = omega_b - omega_a`` enters the diagonal part
    as ``delta * b^dag b``.  ``require_resonance`` enforces the three-photon
    condition ``E4 - E1 = 3 omega_b`` by :func:`resonant`;
    ``require_positive_gap`` enforces the sign convention ``delta > 0``.
    """
    wa, wb = spec.omega_field, spec.omega_b
    gap = wb - wa
    if require_positive_gap and gap <= 0:
        raise GuardViolationError(f"mode gap delta = {gap:.3e} must be positive")
    if require_resonance and not resonant(spec.energies[3] - spec.energies[0] - 3 * wb,
                                          *spec.energies, wa, wb):
        raise ResonanceError("three-photon resonance E4 - E1 = 3 omega_b requested but violated")
    deltas = cascade_detunings(spec.energies, wa)
    space = enumerate_basis(*model_basis(spec))
    ops = _level_ops(space)
    inversions = [collective_inversion(space, i, i + 1) for i in range(1, 4)]
    a, b = annihilator(space, 0), annihilator(space, 1)
    na, nb = number_operator(space, 0), number_operator(space, 1)
    n_exc, h_diag = _chain(ops, inversions, na + nb, gap * nb, deltas)
    transitions = []
    for i, s3 in enumerate(inversions, start=1):
        raising = ops[f"S{i}{i + 1}"]
        d_step = deltas[i] - deltas[i - 1]
        transitions.append((f"a{i}", spec.couplings[i - 1], d_step, s3, a @ raising, 0))
        transitions.append((f"b{i}", spec.couplings_b[i - 1], d_step - gap, s3, b @ raising, 1))
    e_mid = 0.5 * (spec.energies[3] + spec.energies[0])
    h_free = wa * n_exc + ((e_mid - 0.5 * deltas[-1]) * spec.atoms) * identity(space)
    detunings = {str(j): d for j, d in enumerate(deltas, start=1)}
    detunings["gap"] = gap
    return _model(spec, space, h_diag, transitions, h_free, {"N": n_exc}, detunings,
                  {**ops, "a": a, "b": b, "na": na, "nb": nb})


_BUILDERS = {
    "spin-in-field": build_spin_in_field,
    "dicke": build_dicke,
    "xi3": build_xi3,
    "lambda3": build_lambda3,
    "cascade": build_cascade_n,
    "two-mode-four": build_two_mode_four,
}


def build(spec: ModelSpec, **kwargs) -> ModelInstance:
    """Dispatch to the builder for ``spec.kind``."""
    return _BUILDERS[spec.kind](spec, **kwargs)


# ---------------------------------------------------------------------------
# guards and block structure
# ---------------------------------------------------------------------------

def amplitude_guard(what: str, amplitude: float) -> float:
    """The amplitude rule: a rotation amplitude or a ratio ``g / Delta``
    is trusted while ``|amplitude| < AMPLITUDE_LIMIT``.  Returns
    ``|amplitude|``; raises :class:`GuardViolationError` otherwise, a NaN too."""
    if not abs(amplitude) < AMPLITUDE_LIMIT:
        raise GuardViolationError(
            f"rotation amplitude {amplitude:.3g} on {what} exceeds {AMPLITUDE_LIMIT}")
    return abs(amplitude)


def resonant(value: float, *energies: float) -> bool:
    """The resonance rule: ``value``, built from ``energies`` (detunings,
    level energies, field frequencies), counts as zero when
    ``|value| <= RESONANCE_TOL * max|energies|``.  A vanishing denominator
    and a required resonance that fails both raise :class:`ResonanceError`."""
    return abs(value) <= RESONANCE_TOL * max(abs(e) for e in energies)


@dataclass(frozen=True)
class GuardResult:
    """Dispersive-limit check of one coupling term: its ratio
    ``A g sqrt(n_max + 1) / |detuning|`` (``|g| / |detuning|`` without a
    field mode), valid below :data:`DISPERSIVE_LIMIT`."""

    ratio: float
    valid: bool


def dispersive_guard(model: ModelInstance, transition: str) -> GuardResult:
    """Evaluate the dispersive condition for one coupling term.

    A field coupling uses ``atoms * sqrt(n_max + 1)``, with the retained
    ``n_max``, as the pessimistic collective scale.  A term without a field
    mode (the spin in a classical field, whose size is set by ``spin_j``,
    not ``atoms``) checks ``|g| / |detuning|`` alone.  A zero detuning is
    flagged invalid with an infinite ratio.
    """
    term = model.interaction(transition)
    if term.detuning == 0:
        return GuardResult(ratio=math.inf, valid=False)
    if term.mode is None:
        ratio = abs(term.g) / abs(term.detuning)
    else:
        photon_scale = math.sqrt(model.spec.n_max[term.mode] + 1)
        ratio = model.spec.atoms * abs(term.g) * photon_scale / abs(term.detuning)
    return GuardResult(ratio=ratio, valid=ratio < DISPERSIVE_LIMIT)


def dispersive_guards(model: ModelInstance, transitions) -> dict[str, float]:
    """Dispersive ratios of ``(transition, guard name)`` pairs; raises
    :class:`GuardViolationError` on the first invalid one."""
    guards = {}
    for name, key in transitions:
        guard = dispersive_guard(model, name)
        guards[key] = guard.ratio
        if not guard.valid:
            raise GuardViolationError(
                f"dispersive ratio {guard.ratio:.3g} on transition {name} "
                f"outside validity (< {DISPERSIVE_LIMIT})")
    return guards


@dataclass(frozen=True)
class Block:
    """One joint eigenspace of the diagonal conserved operators."""

    key: tuple[float, ...]
    indices: tuple[int, ...]
    touches_truncation: bool


def _grouped(model: ModelInstance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The conserved blocks as labels: ``(label, keys, truncated)``.

    ``label[i]`` is the block of state ``i``, ``keys[b]`` the block's joint
    eigenvalues of the conserved operators, rounded to 9 decimals, and
    ``truncated[b]`` whether the block holds a state at the Fock cutoff of
    a mode.  Blocks come in the sorted order of their keys, first operator
    first, as ``np.unique(axis=0)`` gives them: a stable ``lexsort`` of the
    rows and a comparison of neighbours.  A model with no conserved
    operator is one block with an empty key.
    """
    space = model.space
    diags = np.empty((space.dim, len(model.conserved)))
    for k, (name, op) in enumerate(model.conserved.items()):
        if not op.is_diagonal(1e-12):
            raise ValueError(f"conserved operator {name} is not diagonal in the product basis")
        diags[:, k] = op.diagonal().real
    rounded = np.round(diags, 9)
    order = np.lexsort(rounded.T[::-1]) if len(model.conserved) else np.arange(space.dim)
    ranked = rounded[order]
    first = np.ones(space.dim, dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    label = np.empty(space.dim, dtype=np.intp)
    label[order] = np.cumsum(first) - 1
    at_top = ~photon_safe_mask(space, 1)
    truncated = np.bincount(label, weights=at_top, minlength=np.count_nonzero(first)) > 0
    return label, ranked[first], truncated


def conserved_blocks(model: ModelInstance) -> list[Block]:
    """Group basis states by the joint eigenvalues of the conserved operators.

    The blocks are those of :func:`_grouped`, each holding its states in
    basis order.  Blocks containing a state at the Fock truncation edge of
    any mode are flagged, since their spectra and dynamics are affected by
    the cutoff.
    """
    label, keys, truncated = _grouped(model)
    members = np.argsort(label, kind="stable").tolist()
    ends = np.cumsum(np.bincount(label)).tolist()
    return [Block(key=tuple(key), indices=tuple(members[start:end]), touches_truncation=flag)
            for key, start, end, flag in zip(keys.tolist(), [0, *ends], ends, truncated.tolist())]


def block_masks(model: ModelInstance, skip_truncated: bool = True) -> list[np.ndarray]:
    """Boolean masks for each conserved block of :func:`_grouped`, in the
    order of :func:`conserved_blocks`, optionally skipping cutoff-touching
    ones; one comparison of the labels builds them all."""
    label, _, truncated = _grouped(model)
    kept = np.flatnonzero(~truncated) if skip_truncated else np.arange(len(truncated))
    return list(label == kept[:, None])


def with_scaled_couplings(spec: ModelSpec, factor: float) -> ModelSpec:
    """Copy of ``spec`` with every coupling constant multiplied by ``factor``."""
    return replace(spec,
                   g=spec.g * factor,
                   couplings=tuple(g * factor for g in spec.couplings),
                   couplings_b=tuple(g * factor for g in spec.couplings_b))
