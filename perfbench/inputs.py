"""Seeded workload inputs, generated by the benchmark itself.

Everything here depends only on numpy and the workload seed, never on
``tbscatter`` helpers, so a change to the package cannot change what the
benchmark feeds it. Specs are written in the package's network-spec JSON
layout (``json.dumps(doc, indent=2)``), which is what a user would hand the
CLI.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

ENSEMBLE_TRIALS = 20
SWEEP_SITES_A = 128
SWEEP_SITES_B = 128
SWEEP_ARGS = ("--k-min", "0.1", "--k-max", "3.0", "--steps", "51")
SWEEP_STEPS = 51
WAVE_LENGTH = 600
WAVE_SIGMA = 15.0
WAVE_K0_RANGE = (0.7, 2.4)
CRITERION7_K0 = math.pi / 3.0

# Golden-ratio stride: any prefix of the unit sequence covers the k0 range
# evenly, so a run's mix of slow (small sin k0) and fast units, and with it
# its throughput, does not hinge on how many units fit in the time.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (g + g.conj().T)


def _nonzero_complex(rng: np.random.Generator, min_abs: float = 0.05) -> complex:
    while True:
        z = complex(rng.standard_normal(), rng.standard_normal())
        if abs(z) >= min_abs:
            return z


def _pairs(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def write_spec(path: Path, center: dict) -> None:
    """Write a center dict (kappa, g_left, g_right, joints, H_A, H_B, H_AB)."""
    doc = {
        "kappa": float(center["kappa"]),
        "g_left": [center["g_left"].real, center["g_left"].imag],
        "g_right": [center["g_right"].real, center["g_right"].imag],
        "joint_left": int(center["joint_left"]),
        "joint_right": int(center["joint_right"]),
        "H_A": _pairs(center["H_A"]),
        "H_B": _pairs(center["H_B"]) if center["H_B"].size else [],
        "H_AB": _pairs(center["H_AB"]) if center["H_AB"].size else [],
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def read_spec(path) -> dict:
    """Inverse of write_spec, by plain JSON; used by the correctness checks."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))

    def matrix(rows, shape):
        if not rows:
            return np.zeros(shape, dtype=np.complex128)
        return np.array([[complex(re, im) for re, im in row] for row in rows])

    n_a = len(doc["H_A"])
    n_b = len(doc["H_B"])
    return {
        "kappa": doc["kappa"],
        "g_left": complex(*doc["g_left"]),
        "g_right": complex(*doc["g_right"]),
        "joint_left": doc["joint_left"],
        "joint_right": doc["joint_right"],
        "H_A": matrix(doc["H_A"], (n_a, n_a)),
        "H_B": matrix(doc["H_B"], (n_b, n_b)),
        "H_AB": matrix(doc["H_AB"], (n_a, n_b)),
    }


def sweep_center(rng: np.random.Generator) -> dict:
    """A valid 256-site center, coupling drawn as the verify ensemble draws it:
    up to 10x the infinity norm of cluster A."""
    n_a, n_b = SWEEP_SITES_A, SWEEP_SITES_B
    h_a = _hermitian(rng, n_a)
    h_b = _hermitian(rng, n_b)
    g = rng.standard_normal((n_a, n_b)) + 1j * rng.standard_normal((n_a, n_b))
    norm_a = float(np.abs(h_a).sum(axis=1).max())
    target = rng.uniform(0.0, 10.0) * max(norm_a, 1e-2)
    h_ab = g * (target / float(np.abs(g).sum(axis=1).max()))
    joints = rng.choice(n_a, size=2, replace=False) + 1
    return {
        "kappa": float(rng.uniform(0.3, 2.0)) * float(rng.choice([-1.0, 1.0])),
        "g_left": _nonzero_complex(rng),
        "g_right": _nonzero_complex(rng),
        "joint_left": int(joints[0]),
        "joint_right": int(joints[1]),
        "H_A": h_a,
        "H_B": h_b,
        "H_AB": h_ab,
    }


def criterion7_center() -> dict:
    """The folded balanced 4-site ring (gamma = 1) of acceptance criterion 7."""
    s = -math.sqrt(2.0)
    return {
        "kappa": 1.0,
        "g_left": 1.0 + 0j,
        "g_right": 1.0 + 0j,
        "joint_left": 1,
        "joint_right": 2,
        "H_A": np.array([[0, 0, s], [0, 0, s], [s, s, 0]], dtype=np.complex128),
        "H_B": np.zeros((1, 1), dtype=np.complex128),
        "H_AB": np.array([[0], [0], [1j]], dtype=np.complex128),
    }


def hermitian_cluster(rng: np.random.Generator, n_a: int, k0: float) -> dict:
    """Hermitian cluster (n_b = 0) with leads on sites 1 and n_a, |g| in [0.6, 1.2].

    H_A is scaled to infinity norm 1: its spectrum then lies inside the lead
    band, and the finite system's norm, which sets the CLI's RK4 step, stays
    in [2, 2.2], so a unit's cost depends on k0 alone. A non-Hermitian random
    cluster would grow eigenmodes in the finite system and void the oracle.
    Clusters with a resonance at k0 too narrow to empty within
    ``hermitian_t_final`` are drawn again: see ``_traps_packet``.
    """
    while True:
        h_a = _hermitian(rng, n_a)
        h_a /= float(np.abs(h_a).sum(axis=1).max())
        g = [
            rng.uniform(0.6, 1.2) * complex(math.cos(p), math.sin(p))
            for p in rng.uniform(0.0, 2.0 * math.pi, 2)
        ]
        if not _traps_packet(h_a, g, k0):
            break
    return {
        "kappa": 1.0,
        "g_left": g[0],
        "g_right": g[1],
        "joint_left": 1,
        "joint_right": n_a,
        "H_A": h_a,
        "H_B": np.zeros((0, 0), dtype=np.complex128),
        "H_AB": np.zeros((n_a, 0), dtype=np.complex128),
    }


def hermitian_t_final(k0: float) -> float:
    """Run time that ends with the packet center halfway down the right lead.

    The CLI's default stops 4.5 sigma past the joint, which the non-Hermitian
    criterion-7 ring needs, before its growing modes take over. A Hermitian
    cluster has no growing modes, and the extra time lets waves delayed by a
    resonance leave the center, so that the masses are asymptotic. The CLI
    puts the packet at x0 = -length/2, and kappa = 1.
    """
    return WAVE_LENGTH / (2.0 * math.sin(k0))


def _traps_packet(h_a: np.ndarray, g: list[complex], k0: float) -> bool:
    """True when a resonance inside the packet's energy window outlives the run.

    Resonances are the eigenvalues z of H_A plus the lead self-energies
    -|g|^2 e^{ik0} on the joints (kappa = 1). One of width Gamma = -2 Im z
    still holds exp(-Gamma t) of its share a time t after the packet has
    passed the joint. The time counted starts once the packet's tail, 3 sigma
    behind its center, has passed. Requiring Gamma t >= 8 inside +-6 energy
    stds of E0 bounds the trapped mass below 1e-3, against the 2e-2 oracle
    tolerance.
    """
    v = 2.0 * math.sin(k0)
    energy_std = v / (2.0 * WAVE_SIGMA)
    t_decay = (WAVE_LENGTH / 2.0 - 3.0 * WAVE_SIGMA) / v
    h = h_a.copy()
    h[0, 0] -= abs(g[0]) ** 2 * complex(math.cos(k0), math.sin(k0))
    h[-1, -1] -= abs(g[1]) ** 2 * complex(math.cos(k0), math.sin(k0))
    z = np.linalg.eigvals(h)
    near = np.abs(z.real + 2.0 * math.cos(k0)) <= 6.0 * energy_std
    return bool(np.any(near & (-2.0 * z.imag * t_decay < 8.0)))


def build_units(workload: str, seed: int, count: int, workdir: Path) -> dict:
    """Warm-up unit plus ``count`` timed units, each as CLI argv and check data.

    Returns {"warmup": unit, "units": [unit, ...]}; a unit is a dict with
    ``argv`` (the CLI arguments), ``work`` (units of throughput it completes)
    and whatever its correctness check needs.
    """
    rng = np.random.default_rng([seed, {"ensemble": 1, "sweep": 2, "wavepacket": 3}[workload]])
    workdir.mkdir(parents=True, exist_ok=True)
    units = []
    if workload == "ensemble":
        seeds = rng.integers(0, 2**31 - 1, size=count + 1)
        for i, s in enumerate(seeds):
            units.append({
                "argv": ["verify", "--suite", "all", "--trials", str(ENSEMBLE_TRIALS),
                         "--seed", str(int(s))],
                "work": 3 * ENSEMBLE_TRIALS,
                "name": f"verify seed {int(s)}",
            })
    elif workload == "sweep":
        for i in range(count + 1):
            spec = workdir / f"center-{i}.json"
            write_spec(spec, sweep_center(rng))
            units.append({
                "argv": ["spectrum", "--spec", str(spec), *SWEEP_ARGS,
                         "--out", str(workdir / f"spectrum-{i}.csv")],
                "work": SWEEP_STEPS,
                "name": f"sweep center {i}",
                "spec": str(spec),
                # Points of this unit compared against the formula route.
                "formula_picks": [int(p) for p in rng.choice(SWEEP_STEPS, size=2, replace=False)],
            })
    elif workload == "wavepacket":
        offset_k = float(rng.uniform())
        offset_n = int(rng.integers(5))
        cases = []
        for j in range(count):
            frac = (offset_k + j * _GOLDEN) % 1.0
            k0 = WAVE_K0_RANGE[0] + frac * (WAVE_K0_RANGE[1] - WAVE_K0_RANGE[0])
            cases.append(("hermitian", hermitian_cluster(rng, 2 + (offset_n + j) % 5, k0), k0))
        # The warm-up is a random cluster; criterion 7's ring is the first timed unit.
        cases.insert(1, ("criterion7", criterion7_center(), CRITERION7_K0))
        for i, (kind, center, k0) in enumerate(cases):
            spec = workdir / f"cluster-{i}.json"
            write_spec(spec, center)
            t_final = [] if kind == "criterion7" else ["--t-final", repr(hermitian_t_final(k0))]
            units.append({
                "argv": ["wavepacket", "--spec", str(spec), "--k0", repr(k0),
                         "--length", str(WAVE_LENGTH), "--sigma", repr(WAVE_SIGMA), *t_final,
                         "--out", str(workdir / f"probe-{i}.csv")],
                "work": 1,
                "name": f"{kind} unit {i}, k0={k0:.4f}",
                "kind": kind,
                "spec": str(spec),
                "k0": k0,
            })
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"warmup": units[0], "units": units[1:]}
