"""Extended-precision oracle for the scenario pins of ``tests/test_scenarios.py``.

    python3 tools/oracle.py [--out OUT.json] [--checkout DIR]

For every scenario, on the fixture model its pins are recorded on (dim <=
100), this recomputes the four pinned norms with ``mpmath`` at
``mp.dps = 40``: ``deviation_norm``, ``||corrected||``, ``||printed||``
and ``||rotation - 1||``.  The inputs are the float64 operators the engine
builds before any exponential, taken as exact: ``h_int``, the printed form,
each rotation generator (as the engine hands it to
``matrix_exponential``) and, where the corrected form does not come from
conjugation, the corrected form itself.  Everything after that runs in
mpmath, one block of the conserved charge at a time (``conserved_blocks``
of the model), so every mp matrix is small:

* each stage ``exp(G)`` by ``mp.expm`` (Taylor series with scaling and
  squaring, not an eigendecomposition), and their product;
* the conjugation ``R h_int R^dag`` and the signature filter, where the
  scenario takes its corrected form from conjugation;
* the projection on the deviation mask (below the Fock cutoff, inside the
  validity sector) and the Frobenius norms.

Every input must be block diagonal in the conserved charge; an entry
outside the blocks is an error.  Every later-stage generator (those of
``xi-far-level`` and ``four-level-three-photon``) carries amplitudes the
engine fits in float64 from its own conjugation of the earlier stages.
The oracle takes them as exact like any input, so it must be re-run when
the fit changes; the fit's roundoff moves ``||rotation - 1||`` by less
than 1e-18, far below the distances the pins are held to.  Guards are ratios of
model parameters that never pass through the engine's linear algebra, and
are not recomputed.

The oracle is written to ``OUT.json`` (default
``tests/data/scenario_oracle.json``) as decimal strings of 30 significant
digits.  For each quantity the table printed beside it gives the engine's
value and its distance to the oracle, and the pin's distance.  ``effham``
and the test fixtures are imported from ``DIR`` (default: the checkout this
file sits in), so a parent checkout can be measured against the same
oracle.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal
from pathlib import Path

import mpmath
import numpy as np

DPS = 40
QUANTITIES = ("deviation_norm", "corrected_norm", "printed_norm", "rotation_defect")


def _mp(block: np.ndarray) -> mpmath.matrix:
    """The complex float64 block as an exact mp matrix."""
    return mpmath.matrix([[mpmath.mpc(float(z.real), float(z.imag)) for z in row]
                          for row in block])


def _sq(m: mpmath.matrix) -> mpmath.mpf:
    """Squared Frobenius norm."""
    return mpmath.fsum(abs(m[i, j]) ** 2 for i in range(m.rows) for j in range(m.cols))


def _block_ids(model, blocks) -> np.ndarray:
    ids = np.empty(model.space.dim, dtype=int)
    for k, blk in enumerate(blocks):
        ids[list(blk.indices)] = k
    return ids


def _require_block_diagonal(name: str, m: np.ndarray, ids: np.ndarray) -> None:
    if np.any(m[ids[:, None] != ids[None, :]]):
        raise SystemExit(f"{name} has entries between blocks of the conserved charge")


def _deviation_mask(model, empty_levels) -> np.ndarray:
    """States below every Fock cutoff, with the scenario's empty levels empty."""
    space = model.space
    labels = np.array([p + o for p, o in space.labels], dtype=int).reshape(space.dim, -1)
    nmodes = len(space.modes)
    mask = np.ones(space.dim, dtype=bool)
    for m, mode in enumerate(space.modes):
        mask &= labels[:, m] <= mode.n_max - 1
    for level in empty_levels:
        mask &= labels[:, nmodes + level - 1] == 0
    return mask


def scenario_oracle(eh, rotations, model, identifier: str) -> tuple[dict, dict]:
    """The four pinned norms of one scenario in mp, and the engine's floats."""
    info = rotations.SCENARIOS[identifier]
    generators = []
    engine_exp = rotations.matrix_exponential

    def capture(op):
        generators.append(op.matrix.copy())
        return engine_exp(op)

    rotations.matrix_exponential = capture
    try:
        forms = eh.closed_form_effective(model, eh.EffectiveScenario(identifier))
    finally:
        rotations.matrix_exponential = engine_exp
    engine = dict(zip(QUANTITIES, (forms.deviation_norm, forms.corrected.norm(),
                                   forms.printed.norm(),
                                   (forms.rotation - eh.identity(model.space)).norm())))

    by_conjugation = info.corrected_from == "conjugation"
    inputs = {"h_int": model.h_int.matrix, "printed": forms.printed.matrix}
    if not by_conjugation:
        inputs["corrected"] = forms.corrected.matrix
    inputs.update((f"generator {k}", g) for k, g in enumerate(generators))
    blocks = eh.conserved_blocks(model)
    ids = _block_ids(model, blocks)
    for name, m in inputs.items():
        _require_block_diagonal(name, m, ids)

    labels = [p + o for p, o in model.space.labels]
    split = len(model.space.modes)
    dev_mask = _deviation_mask(model, info.empty_levels)
    total = dict.fromkeys(QUANTITIES, mpmath.mpf(0))
    for blk in blocks:
        idx = np.array(blk.indices)
        cut = np.ix_(idx, idx)
        n = len(idx)
        rotation = mpmath.eye(n)
        for g in generators:
            rotation = mpmath.expm(_mp(g[cut])) * rotation
        printed = _mp(inputs["printed"][cut])
        if by_conjugation:
            corrected = rotation * _mp(inputs["h_int"][cut]) * rotation.H
            if info.keep is not None:
                for i in range(n):
                    for j in range(n):
                        sig = np.subtract(labels[idx[i]], labels[idx[j]]).tolist()
                        if not info.keep(tuple(sig[:split]), tuple(sig[split:])):
                            corrected[i, j] = 0
        else:
            corrected = _mp(inputs["corrected"][cut])
        inside = dev_mask[idx]
        total["deviation_norm"] += mpmath.fsum(
            abs(printed[i, j] - corrected[i, j]) ** 2
            for i in range(n) for j in range(n) if inside[i] and inside[j])
        total["corrected_norm"] += _sq(corrected)
        total["printed_norm"] += _sq(printed)
        total["rotation_defect"] += _sq(rotation - mpmath.eye(n))
    return {q: mpmath.sqrt(v) for q, v in total.items()}, engine


def _distance(value: float, oracle: str) -> float:
    return float(abs(Decimal(value) - Decimal(oracle)))


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent.parent
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", type=Path, default=here / "tests" / "data" / "scenario_oracle.json")
    p.add_argument("--checkout", type=Path, default=here)
    args = p.parse_args(argv)
    checkout = args.checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "tests")]
    import conftest
    import test_scenarios
    import effham as eh
    from effham import rotations

    mpmath.mp.dps = DPS
    doc = {"dps": DPS, "quantities": list(QUANTITIES), "scenarios": {}}
    print(f"{'scenario':24} {'quantity':16} {'oracle':>32} {'engine dist':>11} {'pin dist':>11}")
    for identifier, fixture in test_scenarios.FIXTURES.items():
        model = getattr(conftest, fixture).__wrapped__()
        oracle, engine = scenario_oracle(eh, rotations, model, identifier)
        values = {q: mpmath.nstr(v, 30, min_fixed=1, max_fixed=0) for q, v in oracle.items()}
        doc["scenarios"][identifier] = {"fixture": fixture, "dim": model.space.dim,
                                        "values": values}
        pins = test_scenarios.PINNED[identifier][0]
        for q, pin in zip(QUANTITIES, pins):
            print(f"{identifier:24} {q:16} {values[q]:>32} "
                  f"{_distance(engine[q], values[q]):11.3e} {_distance(pin, values[q]):11.3e}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
