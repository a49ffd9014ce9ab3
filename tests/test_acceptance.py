"""Acceptance suite: one test per criterion, at the stated tolerances.

Every test prints a [PASS]/[FAIL] line with the measured values (visible
with ``pytest -s``).  Four interior-case Monte Carlo criteria are marked as
strict expected failures.  Three of them (c04a, c07, c08) pin quantities
that converge to their limits at the rate
sigma^-2 ~ sqrt(8 |a| |b| (gamma+delta) / m) (about 4/sqrt(m) for the
canonical design), so at the sizes they fix the exact finite-size values
sit far outside the stated windows.  c05's window is centred on 0.5, the
interior var(diff) limit that ``limit_law`` gave before its factor 2 was
fixed; the corrected limit is 1.0, and var(sum) is far above its ceiling at
the size c05 fixes (see its reason).  The assertions are kept at the stated
tolerances rather than loosened.  The measured values and the sizes
that would be needed are printed by each test.
"""

import math
import time

import numpy as np
import pytest

from spatialar import (
    BoundaryPoint,
    ExperimentConfig,
    ModelParams,
    NearlyUnstableDesign,
    Schedule,
    Tolerances,
    TriangleWindow,
    condition_statistic,
    cov_closed,
    expected_B,
    pmf_s,
    run_clt,
    sigma_sq,
    verify_cov,
    verify_covlim,
    verify_detB,
    verify_prop1,
    verify_score,
)
from spatialar.covariance import d_factor
from spatialar.harness import (
    _matrix_rel_dev,
    _prop1_target,
    dumps_canonical,
    scaled_expected_B,
)

from fieldref import triangle_indices

GRID_VALUES = (-0.45, -0.25, -0.1, 0.1, 0.25, 0.45)
GRID = [(a, b) for a in GRID_VALUES for b in GRID_VALUES
        if abs(a) + abs(b) <= 0.9]

INTERIOR = NearlyUnstableDesign(BoundaryPoint.from_pair(0.5, 0.5),
                                Schedule.constant(1.0), Schedule.constant(1.0))
BOUNDARY = NearlyUnstableDesign(BoundaryPoint.from_pair(1.0, 0.0),
                                Schedule.constant(2.0), Schedule.constant(1.0))


def report(n, ok, detail, elapsed):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail} "
          f"({elapsed:.1f}s)")


def test_c01_four_way_oracle_equivalence():
    t0 = time.perf_counter()
    r = verify_cov(values=GRID_VALUES, lag_max=6, tol=1e-8)
    elapsed = time.perf_counter() - t0
    report(1, r["pass"] and elapsed < 10,
           f"worst four-way deviation {r['worst_dev']:.2e} over "
           f"{r['n_points']} grid points (tol 1e-8)", elapsed)
    assert r["pass"], r
    assert elapsed < 10.0


def test_c02_yule_walker_and_origin_identities():
    t0 = time.perf_counter()
    worst_yw = worst_origin = 0.0
    lags = np.arange(-21, 21)
    k, l = lags[1:, None], lags[None, 1:]  # the lags -20..20 of the check
    for a, b in GRID:
        # r[i, j] = R[lags[i], lags[j]]; lag (0, 0) sits at r[21, 21]
        r = cov_closed(ModelParams(a, b), lags[:, None], lags[None, :])
        dev = np.abs(r[1:, 1:] - a * r[:-1, 1:] - b * r[1:, :-1])
        worst_yw = max(worst_yw, float(np.max(dev[(k >= 1) | (l >= 1)])))
        worst_origin = max(worst_origin, abs(
            r[21, 21] - a * r[20, 21] - b * r[21, 20] - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_yw <= 1e-10 and worst_origin <= 1e-10 and elapsed < 5
    report(2, ok, f"recursion identity worst {worst_yw:.2e}, "
                  f"origin worst {worst_origin:.2e} (tol 1e-10)", elapsed)
    assert worst_yw <= 1e-10 and worst_origin <= 1e-10
    assert elapsed < 5.0


def test_c03_expected_B_exact_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for a, b in GRID:
        p = ModelParams(a, b)
        r00, r_off = cov_closed(p, [0, -1], [0, 1])
        for s in range(1, 21):
            pts = triangle_indices(TriangleWindow.balanced(s))
            diag = math.fsum(r00 for _ in pts)
            off = math.fsum(r_off for _ in pts)
            eb = expected_B(p, s)
            worst = max(worst, abs(diag - eb[0, 0]), abs(off - eb[0, 1]))
    spot = expected_B(ModelParams(0.25, 0.25), 2)
    spot_dev = max(abs(spot[0, 0] - 3.4641016), abs(spot[0, 1] - 0.2487113))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and spot_dev <= 1e-6 and elapsed < 5
    report(3, ok, f"brute-force vs closed form worst {worst:.2e} (tol 1e-8), "
                  f"spot value dev {spot_dev:.2e}", elapsed)
    assert worst <= 1e-8 and spot_dev <= 1e-6
    assert elapsed < 5.0


@pytest.mark.xfail(
    strict=True,
    reason="the scaled-mean off-diagonal is D_m = (1-x)/(1+x) with "
    "x = sigma^-2 ~ 2/sqrt(m): its deviation from the limit 1 is ~22% at "
    "m = 256 (0.2173) and falls below 10% only at m = s = 1415 (0.0944 at "
    "1600); exact computation, no Monte Carlo noise involved")
def test_c04a_prop1_interior_final_deviation():
    t0 = time.perf_counter()
    r = verify_prop1(INTERIOR, [(64, 64), (128, 128), (256, 256)])
    elapsed = time.perf_counter() - t0
    report("4a", r["pass"],
           f"interior deviations {[f'{d:.3f}' for d in r['deviations']]} "
           f"(decreasing: {r['strictly_decreasing']}; need final < 0.10)",
           elapsed)
    assert r["strictly_decreasing"]
    assert r["final_deviation"] < 0.10
    assert elapsed < 10.0


def test_c04a_reason_prop1_deviation_falls_below_10pct_at_1415():
    # exact: verify_prop1's deviation falls strictly with m = s, reads
    # 0.2173 at 256 and 0.0944 at 1600 (to 5e-5), and first falls below
    # its 0.10 tolerance at m = s = 1415
    r = verify_prop1(INTERIOR, [(m, m) for m in range(256, 1601)])
    devs = dict(zip(range(256, 1601), r["deviations"]))
    assert r["strictly_decreasing"]
    assert devs[256] == pytest.approx(0.2173, abs=5e-5)
    assert devs[1414] >= 0.10 > devs[1415]
    assert devs[1600] == pytest.approx(0.0944, abs=5e-5)


def test_c04b_prop1_boundary():
    t0 = time.perf_counter()
    ladder = [(m, math.ceil(m**1.25)) for m in (16, 32, 64)]
    r = verify_prop1(BOUNDARY, ladder)
    elapsed = time.perf_counter() - t0
    report("4b", r["pass"] and elapsed < 10,
           f"boundary deviations {[f'{d:.3f}' for d in r['deviations']]} "
           f"toward Theta(-0.2679492) (final < 0.10)", elapsed)
    assert r["pass"], r
    assert elapsed < 10.0


@pytest.mark.xfail(
    strict=True,
    reason="the window [0.35, 0.65] is centred on 0.5, limit_law's var(diff) "
    "before its factor 2 was fixed; the corrected limit is 4|a||b| = 1.0, "
    "which the first-order s^2 / v'E[B]v from expected_B approaches as "
    "1.167, 1.031, 1.008 and 1.002 at m = s = 128, 4096, 65536 and 2^20. "
    "var(sum)'s first-order value s^2 / u'E[B]u is 0.206 at m = s = 128, "
    "against the 0.05 ceiling, and falls below it only at m = s = 1754")
def test_c05_interior_clt_monte_carlo():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(INTERIOR, [(128, 128)], reps=1000, master_seed=501,
                           tolerances=Tolerances(0.3, 0.05))
    rep = run_clt(cfg)
    pv = rep.per_size[0]["proj_var"]
    elapsed = time.perf_counter() - t0
    ok = 0.35 <= pv["diff"] <= 0.65 and pv["sum"] < 0.05
    report(5, ok, f"interior m=s=128: var(diff)={pv['diff']:.3f} "
                  f"(window [0.35, 0.65] around the pre-fix 0.5; limit 1.0), "
                  f"var(sum)={pv['sum']:.3f} "
                  f"(< 0.05)", elapsed)
    assert 0.35 <= pv["diff"] <= 0.65
    assert pv["sum"] < 0.05
    assert elapsed < 120.0


def test_c05_reason_first_order_sum_variance_falls_below_ceiling_at_1754():
    # exact: the first-order var(sum) s^2 / u'E[B]u, u = (1, 1)/sqrt(2),
    # falls strictly with m = s, reads 0.2055 at 128 (to 5e-5) and first
    # falls below c05's 0.05 ceiling at m = s = 1754 (0.050007 at 1753 and
    # 0.049992 at 1754, to 5e-7)
    def var_sum(m):
        (b11, b12), (_, b22) = expected_B(INTERIOR.params_at(m), m).tolist()
        return m * m / ((b11 + b22 + 2.0 * b12) / 2.0)
    v = [var_sum(m) for m in range(128, 1755)]
    assert all(b < a for a, b in zip(v, v[1:]))
    assert v[0] == pytest.approx(0.2055, abs=5e-5)
    assert v[-2] == pytest.approx(0.050007, abs=5e-7)
    assert v[-1] == pytest.approx(0.049992, abs=5e-7)
    assert v[-2] >= 0.05 > v[-1]


def test_c06_boundary_clt_monte_carlo():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(BOUNDARY, [(32, 181)], reps=500, master_seed=601,
                           tolerances=Tolerances(0.3, 0.05))
    rep = run_clt(cfg)
    rec = rep.per_size[0]
    emp = np.array(rec["scaled_cov"])
    target = np.array([[4.3094011, 1.1547005], [1.1547005, 4.3094011]])
    worst = float(np.max(np.abs(emp - target) / np.abs(target)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.30 and elapsed < 120
    report(6, ok, f"boundary (m,s)=(32,181): worst elementwise deviation "
                  f"{worst:.3f} from Theta^-1 (tol 0.30)", elapsed)
    assert worst <= 0.30
    assert elapsed < 120.0


@pytest.mark.xfail(
    strict=True,
    reason="the first-order scaled determinant c s^-4 det E[B] at m = s = 64 "
    "is 0.472 (the Monte Carlo mean 0.476 +- 0.005), 33% below the target "
    "T11 / Sigma11 = 0.7071; it enters the 20% window only at m = s = 262")
def test_c07_determinant_monte_carlo():
    t0 = time.perf_counter()
    r = verify_detB(INTERIOR, 64, 64, reps=500, master_seed=701)
    elapsed = time.perf_counter() - t0
    report(7, r["pass"], f"scaled det mean {r['scaled_mean']:.4f} "
                         f"(target {r['target']:.4f}, tol 20%, "
                         f"SE {r['std_error']:.4f})", elapsed)
    assert r["pass"], r
    assert elapsed < 60.0


def test_c07_reason_first_order_determinant_enters_window_at_262():
    # exact: the first-order scaled determinant c s^-4 det E[B] rises
    # strictly with m = s, reads 0.4720 at 64 against verify_detB's target
    # 0.7071 (to 5e-5), and first enters the 20% window, i.e. reaches
    # 0.8 x 0.7071, at m = s = 262 (0.56552 at 261 and 0.56574 at 262, to 5e-6)
    def scaled_det(m):
        (b11, b12), (b21, b22) = expected_B(INTERIOR.params_at(m), m).tolist()
        return condition_statistic(INTERIOR, m, 1) * m**-4.0 * (b11 * b22 - b12 * b21)
    d = [scaled_det(m) for m in range(64, 263)]
    target = verify_detB(INTERIOR, 64, 64, reps=2)["target"]
    assert all(a < b for a, b in zip(d, d[1:]))
    assert d[0] == pytest.approx(0.4720, abs=5e-5)
    assert target == pytest.approx(0.7071, abs=5e-5)
    assert d[-2] == pytest.approx(0.56552, abs=5e-6)
    assert d[-1] == pytest.approx(0.56574, abs=5e-6)
    assert d[-2] < 0.8 * target <= d[-1]


@pytest.mark.xfail(
    strict=True,
    reason="the scaled score covariance equals the scaled E[B] exactly; at "
    "m = s = 128 its off-diagonal is 0.2506 = 0.3577 x D_m, the scaled "
    "diagonal 0.3577 times D_m = 0.7006, i.e. 29% below the limit 0.3536; "
    "this exact first-order deviation falls below 20% only at m = s = 310")
def test_c08_score_monte_carlo():
    t0 = time.perf_counter()
    r = verify_score(INTERIOR, 128, 128, reps=1000, master_seed=801)
    elapsed = time.perf_counter() - t0
    report(8, r["pass"], f"scaled score covariance dev {r['elementwise_dev']:.3f} "
                         f"from 0.3536 x ones (tol 20%)", elapsed)
    assert r["pass"], r
    assert elapsed < 120.0


def test_c08_reason_scaled_E_B_at_128():
    # exact: at m = s = 128 the scaled E[B] (= the scaled score covariance)
    # has diagonal 0.3577 and off-diagonal 0.2506 = 0.3577 x D_m with
    # D_m = 0.7006, to 5e-5; the limit's 0.3536 x D_m would be 0.2477
    p = INTERIOR.params_at(128)
    eb = scaled_expected_B(INTERIOR, 128, 128)
    d_m = d_factor(p)
    assert eb[0, 0] == pytest.approx(0.3577, abs=5e-5)
    assert eb[0, 1] == pytest.approx(0.2506, abs=5e-5)
    assert d_m == pytest.approx(0.7006, abs=5e-5)
    assert abs(eb[0, 1] - eb[0, 0] * d_m) <= 1e-15
    assert _prop1_target(INTERIOR, 128)[0, 0] * d_m == pytest.approx(0.2477, abs=5e-5)


def test_c08_reason_first_order_deviation_falls_below_20pct_at_310():
    # exact: verify_score's metric evaluated on the scaled E[B] falls
    # strictly with m = s, reads 0.291 at 128 (to 5e-4) and first falls
    # below its 0.20 tolerance at m = s = 310
    def dev(m):
        return _matrix_rel_dev(scaled_expected_B(INTERIOR, m, m),
                               _prop1_target(INTERIOR, m))
    devs = [dev(m) for m in range(128, 311)]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[0] == pytest.approx(0.291, abs=5e-4)
    assert devs[-2] >= 0.20 > devs[-1]


def test_c09_property_suites():
    t0 = time.perf_counter()
    # scaled-covariance bounds with 1e-6 headroom + off-diagonal halving
    covlim_ok = True
    for design in (INTERIOR, BOUNDARY):
        r = verify_covlim(design, m=10_000_000, n_probe=8000)
        covlim_ok = covlim_ok and r["pass"]

    # frozen regression ceiling for the scaled first-difference sweep;
    # recorded 0.249 at the saturation end, frozen with headroom
    DIFF_CEILING = 0.30
    sweep_max = {}
    for q in (0.9, 0.99, 0.999):
        worst = 0.0
        for frac in (0.25, 0.5, 0.75):
            a = q * frac
            p = ModelParams(a, q - a)
            ab = a * (q - a)
            for k in range(-40, 41):
                for l in range(-40, 41):
                    dev = abs(cov_closed(p, k - 1, l + 1) - cov_closed(p, k, l))
                    worst = max(worst, ab**1.5 * dev)
        sweep_max[q] = worst
    diff_ok = max(sweep_max.values()) <= DIFF_CEILING
    # saturation near the unstable boundary: increments must shrink
    saturating = (sweep_max[0.999] - sweep_max[0.99]
                  < sweep_max[0.99] - sweep_max[0.9])

    # frozen ceilings for the binomial-sum pmf bounds (recorded 0.24 / 0.20)
    PMF_DIFF_CEILING, PMF_MAX_CEILING = 0.30, 0.25
    w_diff = w_max = 0.0
    for a, b in [(0.45, 0.45), (0.72, 0.18), (0.3, 0.6), (0.1, 0.8)]:
        nu = a / (a + b)
        for k in (2, 5, 20, 80, 200):
            for l in (2, 5, 20, 80, 200):
                pm = np.array([pmf_s(k, l, nu, i) for i in range(k + l + 1)])
                w_max = max(w_max, a * b * math.sqrt(k + l) * pm.max())
                w_diff = max(w_diff, a * b * (k + l) * np.abs(np.diff(pm)).max())
    pmf_ok = w_diff <= PMF_DIFF_CEILING and w_max <= PMF_MAX_CEILING

    elapsed = time.perf_counter() - t0
    ok = covlim_ok and diff_ok and saturating and pmf_ok and elapsed < 30
    report(9, ok, f"covlim bounds {covlim_ok}; difference sweep max "
                  f"{max(sweep_max.values()):.3f} <= {DIFF_CEILING} "
                  f"(saturating: {saturating}); pmf sweeps {w_diff:.3f}/"
                  f"{w_max:.3f} <= {PMF_DIFF_CEILING}/{PMF_MAX_CEILING}",
           elapsed)
    assert covlim_ok and diff_ok and saturating and pmf_ok
    assert elapsed < 30.0


def test_c10_determinism():
    t0 = time.perf_counter()
    texts = []
    for workers in (1, 2):
        cfg = ExperimentConfig(INTERIOR, [(16, 16), (32, 32)], reps=100,
                               master_seed=1001)
        rep = run_clt(cfg, workers=workers)
        texts.append(dumps_canonical(rep.to_canonical_dict())
                     + "".join(dumps_canonical(r.tolist()) for r in rep.raw))
    elapsed = time.perf_counter() - t0
    ok = texts[0] == texts[1]
    report(10, ok and elapsed < 60,
           "reports byte-identical across reruns and worker counts", elapsed)
    assert texts[0] == texts[1]
    assert elapsed < 60.0
