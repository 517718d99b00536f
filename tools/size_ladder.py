"""Time three models up a ladder of sizes: build, scenario, spectra, evolutions and filtering.

    python3 tools/size_ladder.py [--checkout DIR] [--atoms 1 5 10 20 40] [--cascade 3:16 4:20]
                                 [--xi3 6:10 10:30 12:50] [--repeats 3] [--out OUT.json]

For each atom count A the Dicke model with ``n_max = 10 A`` (dim 22, 306,
1111, 4221 and 16441 for the defaults), for each ``A:n_max`` of ``--cascade`` the
four-level cascade of the benchmark's multiphoton workload (dim 340 and 735
for the defaults), and for each ``A:n_max`` of ``--xi3`` the three-level
cascade of its xi-far-level task (dim 308, 2046 and 4641 for the defaults)
runs in a fresh interpreter with one BLAS thread, importing ``effham`` from
``DIR/src`` (default: the checkout this file sits in).
Each repeat of a rung times these stages of one pass on a freshly built
model, in this order:

* ``build``: ``effham.build`` of the model;
* ``scenario``: ``closed_form_effective`` with ``dicke-dispersive``,
  ``four-level-three-photon`` or ``xi-far-level`` (as the multiphoton task
  at variant 0).  The Dicke rotation is not formed there: its blocks are
  exponentiated on first read, so the exponential of the blocks the
  evolution reaches is timed under ``effective``.  The product of the
  rotation stages reads every stage whole when it is made, so the xi3
  rung's ``scenario`` includes the exponential of its second stage, which
  no conjugation reads;
* ``spectra``: ``block_masks`` of the model and ``compare_spectra`` of
  ``h_int`` against the scenario's corrected form on them;
* ``effective``: ``effective_evolution`` of the corrected form with the
  scenario's rotation, from the rung's initial state at its 41 times: for
  Dicke ``|n_max/2 photons, ground>`` over one effective period, for the
  cascades the multiphoton task's;
* ``evolve``, Dicke only: ``evolve`` of ``h_int`` from the same state at
  the same times;
* ``filter``, cascade only: ``filter_signatures`` with the
  ``cascade-first-stage`` predicate, applied to ``conjugate(h_int,
  matrix_exponential(G))``, ``G`` from ``eliminating_generator``; the
  conjugation runs outside the timed span, and the operator is new on each
  repeat, so its signatures are grouped each time.

The Dicke parameters follow the benchmark's dicke-ladder task at detuning
0.6: the coupling sits at a fifth of the dispersive guard.  Every rung also
records, outside the timed stages, its block cost ``block_cost``, the sum
of ``block_size^3`` over the conserved blocks, against which the stage
times should scale, and ``states_compared``, the states the spectra's
blocks cover.  The median of each stage over the repeats and the peak
resident memory of the interpreter are printed as one JSON line per size
and, with ``--out``, written to a file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

DELTA = 0.6
GUARD_RATIO = 0.2


def _coverage(eh, model) -> dict:
    """The block cost and the states the spectra compare (those of the
    blocks clear of the Fock cutoff, which partition them), for one model."""
    blocks = eh.conserved_blocks(model)
    return {"block_cost": sum(len(blk.indices) ** 3 for blk in blocks),
            "states_compared": sum(len(blk.indices) for blk in blocks if not blk.touches_truncation)}


def _dicke(eh, atoms: int, n_max: int):
    """The Dicke model of the dicke-ladder task at detuning 0.6, its
    scenario, and the initial state and last time of its evolution."""
    g = GUARD_RATIO * DELTA / (atoms * math.sqrt(n_max + 1))
    n0 = n_max // 2
    return (eh.ModelSpec(kind="dicke", atoms=atoms, n_max=n_max, omega_field=10.0,
                         omega0=10.0 + DELTA, g=g),
            "dicke-dispersive", ((n0,), 1), 2 * math.pi * DELTA / (g * g * (n0 + 1)))


def _cascade(eh, atoms: int, n_max: int):
    """The four-level cascade of the multiphoton task, its scenario, and
    the initial state (photons, level) and last time of its evolution."""
    wf, g = 10.0, (0.010, 0.012, 0.014)
    n0 = min(6, n_max - 1)
    coupling = g[0] * g[1] * g[2] / (1.0 * 1.7) * math.sqrt(atoms * n0 * (n0 - 1) * (n0 - 2))
    return (eh.ModelSpec(kind="cascade", atoms=atoms, n_max=n_max, omega_field=wf,
                         energies=(0.0, wf + 1.0, 2 * wf + 1.7, 3 * wf), couplings=g),
            "four-level-three-photon", ((n0,), 1), 2 * math.pi / coupling)


def _xi3(eh, atoms: int, n_max: int):
    """The three-level cascade of the multiphoton xi-far-level task at
    variant 0 (D12 = 1, D23 = 0, g12 at a fifth of the dispersive guard),
    its scenario, and the initial state and last time of its evolution."""
    wf, g23 = 10.0, 0.010
    n0 = n_max // 2
    return (eh.ModelSpec(kind="xi3", atoms=atoms, n_max=n_max, omega_field=wf,
                         energies=(0.0, wf + 1.0, 2 * wf + 1.0),
                         couplings=(0.2 / (atoms * math.sqrt(n_max + 1)), g23)),
            "xi-far-level", ((n0,), 2), 4 * math.pi / (g23 * math.sqrt(atoms * n0)))


CHAINS = {"dicke": _dicke, "cascade": _cascade, "xi3": _xi3}


def measure(kind: str, atoms: int, n_max: int, repeats: int) -> dict:
    """One size of one model, in this interpreter: the median stage times and peak RSS."""
    import numpy as np

    import effham as eh

    spec, scenario, (photons, level), end = CHAINS[kind](eh, atoms, n_max)
    times = np.linspace(0.0, end, 41)
    samples = {"build": [], "scenario": [], "spectra": [], "effective": []}
    for _ in range(repeats):
        t0 = time.perf_counter()
        model = eh.build(spec)
        t1 = time.perf_counter()
        forms = eh.closed_form_effective(model, eh.EffectiveScenario(scenario))
        t2 = time.perf_counter()
        eh.compare_spectra(model.h_int, forms.corrected, eh.block_masks(model))
        t3 = time.perf_counter()
        psi0 = eh.basis_state(model.space, photons, level=level)
        eh.effective_evolution(forms.corrected, psi0, times, rotation=forms.rotation)
        t4 = time.perf_counter()
        for stage, seconds in zip(samples, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            samples[stage].append(seconds)
        del forms
        if kind == "dicke":
            t5 = time.perf_counter()
            eh.evolve(model.h_int, psi0, times)
            samples.setdefault("evolve", []).append(time.perf_counter() - t5)
        elif kind == "cascade":
            gen, _ = eh.eliminating_generator(model)
            rotated = eh.conjugate(model.h_int, eh.matrix_exponential(gen))
            t5 = time.perf_counter()
            eh.filter_signatures(rotated, eh.SCENARIOS["cascade-first-stage"].keep)
            samples.setdefault("filter", []).append(time.perf_counter() - t5)
            del rotated
        dim, coverage = model.space.dim, _coverage(eh, model)
        del model
    return {"model": kind, "atoms": atoms, "n_max": n_max, "dim": dim,
            "repeats": repeats, **coverage,
            **{f"{stage}_s": statistics.median(v) for stage, v in samples.items()},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "samples_s": samples}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    p.add_argument("--atoms", type=int, nargs="*", default=[1, 5, 10, 20, 40])
    p.add_argument("--cascade", nargs="*", default=["3:16", "4:20"], metavar="A:N_MAX")
    p.add_argument("--xi3", nargs="*", default=["6:10", "10:30", "12:50"], metavar="A:N_MAX")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--out", type=Path)
    p.add_argument("--child", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    checkout = args.checkout.resolve()
    if args.child is not None:
        sys.path.insert(0, str(checkout / "src"))
        kind, atoms, n_max = args.child.split(":")
        print(json.dumps(measure(kind, int(atoms), int(n_max), args.repeats)))
        return 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sizes = []
    rungs = ([f"dicke:{a}:{10 * a}" for a in args.atoms] + [f"cascade:{r}" for r in args.cascade]
             + [f"xi3:{r}" for r in args.xi3])
    for rung in rungs:
        out = subprocess.run([sys.executable, __file__, "--checkout", str(checkout),
                              "--repeats", str(args.repeats), "--child", rung],
                             env=env, check=True, capture_output=True, text=True).stdout
        sizes.append(json.loads(out.splitlines()[-1]))
        print(json.dumps({k: v for k, v in sizes[-1].items() if k != "samples_s"}), flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps({"checkout": str(checkout), "sizes": sizes}, indent=1) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
