"""The benchmark's correctness checks must reject corrupted outputs.

Run with ``python3 -m pytest perfbench``; needs no timing and no package
install.
"""

import math

import numpy as np

import checks
import tracing

VERIFY_OK = """\
verify trials=20 seed=5 suites=conservation,appendix,ptfold
input sha256=0123456789abcdef
suite conservation: trials=20 seed=5 elapsed=0.23s
  [PASS] max |1 - |r|^2 - |t|^2|: measured 8.326673e-15 (required <= 1.000000e-10)  worst at trial 18
  [PASS] negative control: unbalanced ring deficit is nonzero: measured 9.272768e-01 (required > 1.000000e-02)
suite appendix: trials=20 seed=5 elapsed=0.48s
  [PASS] max cofactor-vs-LU gap (relative, floor 1): measured 9.036561e-16 (required <= 1.000000e-09)
suite ptfold: trials=20 seed=5 elapsed=0.02s
  [PASS] max end-to-end |1 - |r|^2 - |t|^2|: measured 1.128871e-15 (required <= 1.000000e-10)
  [PASS] all folded centers pass structural validation: measured 4.000000e+01 (required == 4.000000e+01)
total wall time 0.73s
"""


def test_verify_output_passes():
    assert checks.check_verify(0, VERIFY_OK) == []


def test_verify_failures_are_caught():
    assert checks.check_verify(2, VERIFY_OK) == ["exit code 2"]
    failed = VERIFY_OK.replace("[PASS] max cofactor", "[FAIL] max cofactor")
    assert len(checks.check_verify(0, failed)) == 1
    # A loosened tolerance printed by the program does not loosen the check.
    loose = VERIFY_OK.replace(
        "measured 8.326673e-15 (required <= 1.000000e-10)",
        "measured 3.000000e-09 (required <= 1.000000e-08)",
    )
    assert any("pinned" in p for p in checks.check_verify(0, loose))
    no_suite = VERIFY_OK.replace("suite ptfold:", "suite other:")
    assert checks.check_verify(0, no_suite) == ["suite ptfold missing from output"]
    no_deficit = "\n".join(
        line for line in VERIFY_OK.splitlines() if "end-to-end" not in line
    )
    assert len(checks.check_verify(0, no_deficit)) == 1


def _csv(rows):
    lines = ["k,T,R,deficit,status"]
    lines += [f"{k!r},{t!r},{r!r},{1.0 - t - r!r},{s}" for k, t, r, s in rows]
    return "\n".join(lines) + "\n"


ROWS = [(0.1 + 0.1 * i, 0.25 + 0.01 * i, 0.75 - 0.01 * i, "ok") for i in range(5)]


def test_spectrum_csv_passes():
    assert checks.check_spectrum(0, _csv(ROWS), 5) == []


def test_perturbed_deficit_is_a_failure():
    text = _csv(ROWS).splitlines()
    k, t, r, _, status = text[3].split(",")
    text[3] = f"{k},{t},{r},2e-10,{status}"
    problems = checks.check_spectrum(0, "\n".join(text) + "\n", 5)
    assert len(problems) == 1 and "deficit" in problems[0]


def test_spectrum_shape_failures():
    assert checks.check_spectrum(0, _csv(ROWS[:4]), 5) == ["4 rows, expected 5"]
    assert checks.check_spectrum(1, _csv(ROWS), 5) == ["exit code 1"]
    assert checks.check_spectrum(0, None, 5) == ["no CSV written"]
    assert "header" in checks.check_spectrum(0, "k,T\n1,2\n", 5)[0]
    # Flagged points carry NaN and are not held to the deficit bound.
    flagged = ROWS[:4] + [(0.5, math.nan, math.nan, "singular")]
    assert checks.check_spectrum(0, _csv(flagged), 5) == []
    unknown = ROWS[:4] + [(0.5, 0.5, 0.5, "maybe")]
    assert "unknown status" in checks.check_spectrum(0, _csv(unknown), 5)[0]


def test_formula_agreement():
    rows = checks.parse_spectrum_csv(_csv(ROWS))

    def exact(k):
        i = round((k - 0.1) / 0.1)
        t2, r2 = ROWS[i][1], ROWS[i][2]
        return complex(math.sqrt(r2)), complex(math.sqrt(t2))

    assert checks.check_formula_agreement(rows, [0, 3], exact) == []

    def off(k):
        r, t = exact(k)
        return r, t * (1.0 + 1e-9)

    assert len(checks.check_formula_agreement(rows, [0, 3], off)) == 2
    pole = [(k, t, r, d, "pole") for k, t, r, d, _ in rows]
    assert checks.check_formula_agreement(pole, [0, 3], off) == []


def _wave_output(p_left, p_right, norm):
    return (f"final p_left = {p_left!r}  plane-wave R = 0.5\n"
            f"final p_right = {p_right!r}  plane-wave T = 0.5\n"
            f"final total norm = {norm!r}\n")


def _probe(p_left, p_right, norm):
    return ("time,p_left,p_center,p_right,total_norm\n0.0,1.0,0.0,0.0,1.0\n"
            f"9.5,{p_left!r},0.0,{p_right!r},{norm!r}\n")


def _flat(k):
    return complex(math.sqrt(0.36)), complex(math.sqrt(0.64))


def test_wavepacket_passes():
    args = ("hermitian", 1.0, 15.0, _flat)
    out = _wave_output(0.36, 0.64, 1.0)
    assert checks.check_wavepacket(0, out, _probe(0.36, 0.64, 1.0), *args) == []


def test_wavepacket_failures():
    args = ("hermitian", 1.0, 15.0, _flat)
    off = _wave_output(0.36, 0.61, 0.97)
    problems = checks.check_wavepacket(0, off, _probe(0.36, 0.61, 0.97), *args)
    assert any("norm" in p for p in problems) and any("p_right" in p for p in problems)
    good = _wave_output(0.36, 0.64, 1.0)
    mismatch = checks.check_wavepacket(0, good, _probe(0.35, 0.64, 1.0), *args)
    assert mismatch == ["last probe row disagrees with the printed final masses"]
    # The criterion-7 ring is compared at k0 only; its norm is not checked.
    ring = _wave_output(0.36, 0.64, 1.01)
    assert checks.check_wavepacket(0, ring, _probe(0.36, 0.64, 1.01), "criterion7",
                                   1.0, 15.0, _flat) == []
    assert checks.check_wavepacket(0, "no result\n", None, *args)[0].startswith("no ")


def test_momentum_average():
    avg = checks.momentum_average(lambda k: [1.0, k], 1.2, 15.0)
    assert np.allclose(avg, [1.0, 1.2], atol=1e-12)


def test_tracer_self_time_and_missing_calls():
    tracer = tracing.Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("inner", inner)

    def outer(x):
        return traced_inner(x) * 2

    traced_outer = tracer.wrap("outer", outer)
    assert traced_outer(1) == 4  # inactive: passes through, records nothing
    tracer.active = True
    assert traced_outer(1) == 4
    agg = tracer.aggregate()
    assert agg["outer"]["calls"] == 1 and agg["inner"]["calls"] == 1
    assert agg["outer"]["self_ms"] <= agg["outer"]["total_ms"] - agg["inner"]["total_ms"] + 1e-9
    metrics = {f"{q}.calls": (0, "count") for q in tracing.REQUIRED["sweep"]}
    assert tracing.missing_calls(metrics, "sweep") == list(tracing.REQUIRED["sweep"])


def test_raising_oracle_fails_the_unit_not_the_run(tmp_path):
    import worker

    out = tmp_path / "probe.csv"
    out.write_text(_probe(0.36, 0.64, 1.0))
    unit = {"out": str(out), "kind": "hermitian", "k0": 1.0,
            "spec": str(tmp_path / "missing.json"), "name": "unit"}
    problems = worker.Checker("wavepacket")(unit, 0, _wave_output(0.36, 0.64, 1.0))
    assert len(problems) == 1 and problems[0].startswith("check raised")
