"""Per-unit correctness checks, run outside the timed region.

The tolerances are pinned here, at the values of ``verify.py`` and the
acceptance gate when the benchmark was written, so that a change under
``src/`` cannot loosen what the benchmark accepts. Each check returns a list
of problems; an empty list means the unit passed.
"""

from __future__ import annotations

import math
import re

import numpy as np

DEFICIT_TOL = 1e-10
FORMULA_AGREEMENT_TOL = 1e-10
ORACLE_TOL = 2e-2
NORM_DRIFT_TOL = 1e-3

# verify check name -> (comparison, pinned tolerance). The printed tolerance
# is ignored; the measured value must satisfy the pinned one.
VERIFY_PINNED = {
    "max |1 - |r|^2 - |t|^2|": ("<=", 1e-10),
    "max cross-solver |dr|, |dt|": ("<=", 1e-10),
    "max cross-solver interior gap (scaled)": ("<=", 1e-10),
    "max substitute-back residual (scaled)": ("<=", 1e-10),
    "negative control: ring deficit vs closed form": ("<=", 1e-10),
    "negative control: unbalanced ring deficit is nonzero": (">", 1e-2),
    "negative control: Hermitian-coupling mutants show nonzero deficit": (">", 1e-6),
    "max |Im det D| / |det D|": ("<=", 1e-10),
    "max |invD_ij - conj(invD_ji)| (LU route)": ("<=", 1e-9),
    "max |invD_ij - conj(invD_ji)| (cofactor route)": ("<=", 1e-9),
    "max cofactor-vs-LU gap (relative, floor 1)": ("<=", 1e-9),
    "max joint-coefficient reality defect (relative)": ("<=", 1e-10),
    "max |U H U^T - folded blocks|": ("<=", 1e-12),
    "max parity-time defect of assembled graph": ("<=", 1e-12),
    "max folded-coupling entry outside gain/loss diagonal": ("<=", 0.0),
    "max end-to-end |1 - |r|^2 - |t|^2|": ("<=", 1e-10),
    "parity-time defect detects an asymmetric ring": (">", 0.1),
}
# Checks that must be present: the conservation identity itself.
VERIFY_REQUIRED = ("max |1 - |r|^2 - |t|^2|", "max end-to-end |1 - |r|^2 - |t|^2|")
VERIFY_SUITES = ("conservation", "appendix", "ptfold")

_CHECK_LINE = re.compile(
    r"^\s+\[(PASS|FAIL)\] (.+?): measured (\S+) \(required (<=|>|==) (\S+)\)"
)


def check_verify(code: int, output: str) -> list[str]:
    """Exit code 0, all three suites reported, every check line PASS and
    within its pinned tolerance."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    for suite in VERIFY_SUITES:
        if f"suite {suite}:" not in output:
            problems.append(f"suite {suite} missing from output")
    seen = set()
    for line in output.splitlines():
        m = _CHECK_LINE.match(line)
        if not m:
            if re.match(r"^\s+\[", line):
                problems.append(f"unparsed check line: {line.strip()}")
            continue
        mark, name, measured = m.group(1), m.group(2), float(m.group(3))
        seen.add(name)
        if mark != "PASS":
            problems.append(f"check failed: {line.strip()}")
        if name in VERIFY_PINNED:
            comparison, tol = VERIFY_PINNED[name]
            ok = measured <= tol if comparison == "<=" else measured > tol
            if not ok:
                problems.append(f"{name}: measured {measured:.6e}, pinned {comparison} {tol:.1e}")
    for name in VERIFY_REQUIRED:
        if name not in seen:
            problems.append(f"check {name!r} missing from output")
    return problems


def parse_spectrum_csv(text: str) -> list[tuple[float, float, float, float, str]]:
    lines = text.splitlines()
    if not lines or lines[0] != "k,T,R,deficit,status":
        raise ValueError("missing or wrong CSV header")
    rows = []
    for line in lines[1:]:
        k, t, r, d, status = line.split(",")
        rows.append((float(k), float(t), float(r), float(d), status))
    return rows


def check_spectrum(code: int, text: str | None, steps: int) -> list[str]:
    """Exit code 0, ``steps`` rows, |deficit| <= 1e-10 at every ok point."""
    if code != 0:
        return [f"exit code {code}"]
    if text is None:
        return ["no CSV written"]
    try:
        rows = parse_spectrum_csv(text)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"]
    problems = []
    if len(rows) != steps:
        problems.append(f"{len(rows)} rows, expected {steps}")
    for k, _, _, deficit, status in rows:
        if status not in ("ok", "pole", "singular"):
            problems.append(f"k={k!r}: unknown status {status!r}")
        elif status == "ok" and not abs(deficit) <= DEFICIT_TOL:
            problems.append(f"k={k!r}: |deficit| {abs(deficit):.3e} > {DEFICIT_TOL:.0e}")
    return problems


def check_formula_agreement(rows, picks, solve_formula) -> list[str]:
    """The picked ok points agree with the formula route on T and R.

    ``solve_formula(k)`` returns (r, t); points whose status is not ok are
    skipped, since the formula route has no answer there.
    """
    problems = []
    for i in picks:
        if i >= len(rows):
            continue
        k, t_csv, r_csv, _, status = rows[i]
        if status != "ok":
            continue
        r, t = solve_formula(k)
        gap = max(abs(abs(t) ** 2 - t_csv), abs(abs(r) ** 2 - r_csv))
        if not gap <= FORMULA_AGREEMENT_TOL:
            problems.append(f"k={k!r}: formula vs CSV gap {gap:.3e} > {FORMULA_AGREEMENT_TOL:.0e}")
    return problems


_FINAL = {
    "p_left": re.compile(r"^final p_left = (\S+)", re.M),
    "p_right": re.compile(r"^final p_right = (\S+)", re.M),
    "norm": re.compile(r"^final total norm = (\S+)", re.M),
}


def parse_wavepacket_output(output: str) -> dict:
    values = {}
    for key, pattern in _FINAL.items():
        m = pattern.search(output)
        if not m:
            raise ValueError(f"no '{key}' line in output")
        values[key] = float(m.group(1))
    return values


def momentum_average(values_at, k0: float, sigma: float, points: int = 41) -> np.ndarray:
    """Average of ``values_at(k)`` over the packet's Gaussian momentum
    distribution (std 1/(2 sigma)), by the trapezoid rule over +-5 std."""
    std = 1.0 / (2.0 * sigma)
    ks = np.linspace(k0 - 5.0 * std, k0 + 5.0 * std, points)
    ks = ks[(ks > 0.0) & (ks < math.pi)]
    w = np.exp(-0.5 * ((ks - k0) / std) ** 2)
    vals = np.array([values_at(float(k)) for k in ks])
    return np.trapezoid(w[:, None] * vals, ks, axis=0) / np.trapezoid(w, ks)


def check_wavepacket(code: int, output: str, probe_text: str | None, kind: str,
                     k0: float, sigma: float, solve_formula) -> list[str]:
    """Final masses against the plane-wave oracle.

    The criterion-7 ring is compared with T and R at k0 (as the acceptance
    gate does); Hermitian clusters with T and R averaged over the packet's
    momentum distribution, and their norm must stay within 1e-3 of 1.
    ``solve_formula(k)`` returns (r, t).
    """
    if code != 0:
        return [f"exit code {code}"]
    try:
        final = parse_wavepacket_output(output)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if probe_text is None:
        problems.append("no probe CSV written")
    else:
        lines = probe_text.splitlines()
        if len(lines) < 3 or lines[0] != "time,p_left,p_center,p_right,total_norm":
            problems.append("probe CSV has no header or no rows")
        else:
            last = [float(x) for x in lines[-1].split(",")]
            if last[1] != final["p_left"] or last[3] != final["p_right"]:
                problems.append("last probe row disagrees with the printed final masses")
    if kind == "criterion7":
        r, t = solve_formula(k0)
        t_ref, r_ref = abs(t) ** 2, abs(r) ** 2
    else:
        t_ref, r_ref = momentum_average(
            lambda k: [abs(x) ** 2 for x in reversed(solve_formula(k))], k0, sigma
        )
        if not abs(final["norm"] - 1.0) <= NORM_DRIFT_TOL:
            problems.append(f"|norm - 1| = {abs(final['norm'] - 1.0):.3e} > {NORM_DRIFT_TOL:.0e}")
    for key, ref in (("p_right", t_ref), ("p_left", r_ref)):
        gap = abs(final[key] - ref)
        if not gap <= ORACLE_TOL:
            problems.append(f"{key} {final[key]:.6f} vs plane wave {ref:.6f}: gap {gap:.3e}")
    return problems
