"""Acceptance suite: end-to-end checks at their contractual tolerances.

Each test prints one `ACCEPTANCE <n> (<name>): PASS|FAIL` line (run with
`pytest tests/test_acceptance.py -s` to see them live). The suite is
deterministic: every randomized check draws from a fixed counter-based
generator.
"""
import math
import subprocess
import sys
import time

import mpmath as mp
import numpy as np
import pytest

from certunlearn import (INFINITE, InitSpec, NoiseSchedule, ProblemConstants,
                         Regime, RenyiBound, SyntheticSpec, binary_search_sigma,
                         converted_epsilon, d2d_sigma_thm9, d2d_sigma_thm28,
                         find_min_k, learn_epsilon0, logistic_objective, lsi_cap,
                         make_rng, make_synthetic, multiclass_objective, pngd_step,
                         quadratic_objective, rdp_to_dp, sequential_k_schedule,
                         unlearn_epsilon, get_preset)
from certunlearn.harness import ExperimentConfig, run_unlearn_one

mp.mp.dps = 50

# Published noise table the calibration must reproduce (rows: preset).
# The smallest cells carry the original search's absolute slack (~1e-4) on
# top of 4-decimal rounding, so deviations up to ~4% from the continuous
# optimum are expected there; the 2% gate is asserted as contracted.
TABLE_SIGMA = {
    "mnist38": (0.1872, 0.094, 0.0190, 0.0096, 0.0049, 0.0021),
    "cifar10-binary": (0.2431, 0.1220, 0.0250, 0.0125, 0.0064, 0.0028),
    "cifar10-multi": (0.0473, 0.0238, 0.0049, 0.0025, 0.0012, 0.0005),
}
EPS_GRID = (0.05, 0.1, 0.5, 1.0, 2.0, 5.0)
# the published table prints 4 decimals, so a cell's value is known only to
# within half a printed step
TABLE_HALF_STEP = 0.5e-4

# totals fixed by the independent recursive oracle before the build
SEQ_TOTALS = {5: 26726, 10: 11847, 20: 6858}


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number} ({name}): {status}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)


def test_criterion_1_sigma_calibration_tables():
    """Reproduce the published sigma-calibration table within 2% per cell."""
    t0 = time.perf_counter()
    failures, details = [], []
    for preset_name, expected in TABLE_SIGMA.items():
        preset = get_preset(preset_name)
        for eps_hat, sigma_ref in zip(EPS_GRID, expected):
            sigma = binary_search_sigma(eps_hat, preset.delta, 1, preset.pc,
                                        preset.regime, S=1, eta=preset.eta)
            rel = abs(sigma - sigma_ref) / sigma_ref
            if rel > 0.02:
                failures.append(f"{preset_name} eps={eps_hat}: got {sigma:.6g} "
                                f"vs {sigma_ref} ({100 * rel:.2f}%)")
            details.append((preset_name, eps_hat, sigma, sigma_ref, rel))
    elapsed = time.perf_counter() - t0
    for name, eps_hat, sigma, ref, rel in details:
        half_steps = abs(sigma - ref) / TABLE_HALF_STEP  # diagnostic only
        print(f"  sigma-table {name} eps={eps_hat}: {sigma:.6g} "
              f"(reference {ref}, dev {100 * rel:.2f}%, "
              f"{half_steps:.1f} printed half-steps)")
    ok = not failures and elapsed < 5.0
    report(1, "sigma-calibration tables", ok,
           f"{len(details) - len(failures)}/{len(details)} cells within 2%, "
           f"{elapsed:.2f}s")
    assert elapsed < 5.0, f"calibration took {elapsed:.2f}s (budget 5s)"
    assert not failures, "cells outside 2%: " + "; ".join(failures)


def test_criterion_2_closed_form_cross_checks():
    """(a) exact decay-slope identity; (b) alpha optimizer vs brute force."""
    # (a) log eps_K - log eps_0 == -eta*m*K/alpha at machine precision
    worst_identity = 0.0
    for eta in (0.05, 0.3, 1.0):
        for m in (0.1, 0.7):
            pc = ProblemConstants(L=1.0, m=m, M=1.0, R=10.0, n=100, d=2, lam=m)
            ns = NoiseSchedule(eta=eta, sigma=1.0, T=INFINITE, K=0)
            eps0 = learn_epsilon0(pc, ns, Regime.STRONGLY_CONVEX)
            for K in (1, 10, 137):
                bound = unlearn_epsilon(eps0, pc, ns, Regime.STRONGLY_CONVEX, K=K)
                for alpha in (1.5, 2.0, 20.0, 1000.0):
                    target = -eta * m * K / alpha
                    if abs(target) < 1e-2:
                        continue  # identity unmeasurable below log() noise
                    got = math.log(bound(alpha)) - math.log(eps0(alpha))
                    worst_identity = max(worst_identity,
                                         abs(got - target) / abs(target))
    identity_ok = worst_identity <= 1e-12

    # (b) grid+golden optimizer agrees with a 1e5-point brute force
    rng = make_rng(20240605)
    brute_alpha = 1.0 + np.logspace(-6, math.log10(1e6 - 1.0), 10 ** 5)
    worst_opt = 0.0
    for _ in range(50):
        m = float(rng.uniform(1e-3, 0.5))
        pc = ProblemConstants(L=1.0, m=m, M=float(rng.uniform(0.5, 2.0)),
                              R=10.0, n=int(rng.integers(50, 10 ** 5)), d=2, lam=m)
        ns = NoiseSchedule(eta=1.0, sigma=float(rng.uniform(0.005, 2.0)),
                           T=INFINITE, K=0)
        k = int(rng.integers(0, 200))
        delta = float(rng.uniform(1e-7, 1e-2))
        bound = unlearn_epsilon(learn_epsilon0(pc, ns, Regime.STRONGLY_CONVEX),
                                pc, ns, Regime.STRONGLY_CONVEX, K=k)
        eps, _ = rdp_to_dp(bound, delta)
        brute = float(np.min(np.asarray(bound(brute_alpha))
                             + math.log(1.0 / delta) / (brute_alpha - 1.0)))
        worst_opt = max(worst_opt, abs(eps - brute) / brute)
    opt_ok = worst_opt <= 1e-3

    ok = identity_ok and opt_ok
    report(2, "closed-form cross-checks", ok,
           f"identity dev {worst_identity:.2e}, optimizer dev {worst_opt:.2e}")
    assert identity_ok, f"decay identity off by {worst_identity:.3e} (tol 1e-12)"
    assert opt_ok, f"alpha optimizer off brute force by {worst_opt:.3e} (tol 1e-3)"


def test_criterion_3_d2d_formula_oracle(tmp_path):
    """Both noise formulas match an arbitrary-precision oracle to 1e-12."""
    rng = make_rng(77)
    worst = 0.0
    for _ in range(100):
        m = float(rng.uniform(1e-3, 0.5))
        L = m + float(rng.uniform(1e-2, 2.0))
        eps = float(rng.uniform(0.05, 5.0))
        delta = float(rng.uniform(1e-6, 1e-3))
        I = int(rng.integers(1, 60))
        M = float(rng.uniform(0.5, 4.0))
        n = int(rng.integers(100, 10 ** 5))
        d = int(rng.integers(2, 2048))

        got9 = d2d_sigma_thm9(eps, delta, I, M, m, n, L)
        g = (mp.mpf(L) - m) / (mp.mpf(L) + m)
        li = mp.log(1 / mp.mpf(delta))
        ref9 = float(4 * mp.sqrt(2) * M * g ** I
                     / (m * n * (1 - g ** I) * (mp.sqrt(li + eps) - mp.sqrt(li))))
        worst = max(worst, abs(got9 - ref9) / ref9)

        cal = d2d_sigma_thm28(eps, delta, M, m, n, L, d)
        b2 = 2 * mp.log(2 / mp.mpf(delta))
        gI = g ** cal.I_min
        ref28 = float(8 * M * gI / (m * n * (1 - gI) * (
            mp.sqrt(b2 + 3 * eps) - mp.sqrt(b2 + 2 * eps))))
        worst = max(worst, abs(cal.sigma - ref28) / ref28)

    # the published-table comparison is emitted as a diagnostic, never gated
    out = tmp_path / "d2d_report.csv"
    code = subprocess.run(
        [sys.executable, "-m", "certunlearn.cli", "d2d", "--preset", "mnist38",
         "--eps", "1", "--out", str(out)], capture_output=True).returncode
    emitted = code == 0 and out.exists() and "ratio" in out.read_text().splitlines()[0]

    ok = worst <= 1e-12 and emitted
    report(3, "delete-to-descent formula oracle", ok,
           f"max rel dev {worst:.2e}; diagnostic report emitted: {emitted}")
    assert worst <= 1e-12
    assert emitted


def _random_sc_bundle(rng):
    m = float(rng.uniform(1e-3, 0.5))
    pc = ProblemConstants(L=m + float(rng.uniform(0.05, 1.0)), m=m,
                          M=float(rng.uniform(0.5, 2.0)), R=10.0,
                          n=int(rng.integers(100, 10 ** 5)), d=3, lam=m)
    ns = NoiseSchedule(eta=1.0 / pc.L, sigma=float(rng.uniform(0.005, 1.0)),
                       T=INFINITE, K=0)
    delta = float(rng.uniform(1e-7, 1e-2))
    return pc, ns, delta


def test_criterion_4_monotonicity_suites():
    """Randomized property suites, >= 200 bundles each, under 30 s."""
    t0 = time.perf_counter()
    rng = make_rng(4242)
    n_bundles = 200

    # (a) certified loss never grows with more fine-tuning steps
    for _ in range(n_bundles):
        pc, ns, _ = _random_sc_bundle(rng)
        eps0 = learn_epsilon0(pc, ns, Regime.STRONGLY_CONVEX)
        alphas = np.array([1.5, 3.0, 30.0, 3000.0])
        prev = np.asarray(unlearn_epsilon(eps0, pc, ns, Regime.STRONGLY_CONVEX,
                                          K=0)(alphas))
        for k in (1, 2, 5, 11):
            cur = np.asarray(unlearn_epsilon(eps0, pc, ns, Regime.STRONGLY_CONVEX,
                                             K=k)(alphas))
            assert np.all(cur <= prev), "eps_K increased with K"
            prev = cur

    # (b) learning loss falls with n and sigma, grows quadratically with S
    for _ in range(n_bundles):
        pc, ns, _ = _random_sc_bundle(rng)
        slope = learn_epsilon0(pc, ns, Regime.STRONGLY_CONVEX).slope
        bigger_n = learn_epsilon0(pc.with_(n=2 * pc.n), ns,
                                  Regime.STRONGLY_CONVEX).slope
        bigger_sigma = learn_epsilon0(pc, ns.with_(sigma=1.7 * ns.sigma),
                                      Regime.STRONGLY_CONVEX).slope
        s4 = learn_epsilon0(pc, ns, Regime.STRONGLY_CONVEX, S=4).slope
        assert bigger_n < slope and bigger_sigma < slope
        assert s4 == pytest.approx(16.0 * slope, rel=1e-12)

    # (c) calibrated sigma is one-sided minimal
    count_c = 0
    while count_c < n_bundles:
        pc, ns, delta = _random_sc_bundle(rng)
        eps_hat = float(rng.uniform(0.05, 5.0))
        k_hat = int(rng.integers(1, 5))
        try:
            sigma = binary_search_sigma(eps_hat, delta, k_hat, pc,
                                        Regime.STRONGLY_CONVEX, S=1, eta=ns.eta)
        except Exception:
            continue
        if sigma <= 2e-6:   # boundary solutions have nothing below to refute
            continue
        ns_ok = ns.with_(sigma=sigma)
        assert find_min_k(eps_hat, delta, pc, ns_ok, Regime.STRONGLY_CONVEX,
                          S=1) <= k_hat
        ns_bad = ns.with_(sigma=sigma * (1.0 - 2e-4))
        assert find_min_k(eps_hat, delta, pc, ns_bad, Regime.STRONGLY_CONVEX,
                          S=1) > k_hat, "shrunk sigma still feasible"
        count_c += 1

    # (d) least step count is exact on both sides
    for _ in range(n_bundles):
        pc, ns, delta = _random_sc_bundle(rng)
        eps_hat = float(rng.uniform(0.02, 2.0))
        k = find_min_k(eps_hat, delta, pc, ns, Regime.STRONGLY_CONVEX, S=1,
                       k_max=10 ** 6)
        assert converted_epsilon(pc, ns, Regime.STRONGLY_CONVEX, 1, k,
                                 delta) <= eps_hat
        if k > 0:
            assert converted_epsilon(pc, ns, Regime.STRONGLY_CONVEX, 1, k - 1,
                                     delta) > eps_hat
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    report(4, "monotonicity suites", ok, f"4x{n_bundles} bundles in {elapsed:.1f}s")
    assert ok, f"suites took {elapsed:.1f}s (budget 30s)"


def test_criterion_5_pngd_correctness():
    """Ball membership, noise scale, contraction, and gradient checks."""
    # (a) ball membership across 1e4 random steps
    rng = make_rng(55)
    R = 1.25
    obj = quadratic_objective(np.array([4.0, -2.0, 0.5, 1.0]), 1.5, radius=R)
    w = np.zeros(4)
    worst_norm = 0.0
    for _ in range(10 ** 4):
        w = pngd_step(w, obj.grad, 0.3, 1.2, R, rng)
        worst_norm = max(worst_norm, float(np.linalg.norm(w)))
    ball_ok = worst_norm <= R + 1e-12

    # (b) pre-projection increment variance ~ 2*eta*sigma^2 over 1e5 draws
    eta, sigma = 0.25, 0.7
    rng = make_rng(56)
    d, steps = 1000, 100
    w = np.zeros(d)
    increments = []
    for _ in range(steps):
        w2 = pngd_step(w, lambda x: np.zeros_like(x), eta, sigma, 1e18, rng)
        increments.append(w2 - w)
        w = w2
    samples = np.concatenate(increments)
    target = 2.0 * eta * sigma ** 2
    se = target * math.sqrt(2.0 / (samples.size - 1))
    var_dev = abs(samples.var(ddof=1) - target)
    noise_ok = var_dev <= 3.0 * se

    # (c) noiseless strongly convex contraction at the closed-form rate
    # (rate 0.75 and center 0 are binary-exact, so only the tolerance under
    # test is in play, not representation error)
    m_curv, eta_c = 0.5, 0.5
    qobj = quadratic_objective(np.zeros(2), m_curv, radius=100.0)
    x = np.array([3.0, 4.0])
    contraction_ok = True
    dist0 = 5.0
    rng = make_rng(57)
    for t in range(1, 41):
        x = pngd_step(x, qobj.grad, eta_c, 0.0, 100.0, rng)
        expect = 0.75 ** t * dist0
        if abs(np.linalg.norm(x) - expect) > 1e-10 * expect:
            contraction_ok = False
            break

    # (d) analytic gradients vs central differences, both objectives
    def central(loss, w, eps=1e-6):
        g = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        while not it.finished:
            i = it.multi_index
            wp, wm = w.copy(), w.copy()
            wp[i] += eps
            wm[i] -= eps
            g[i] = (loss(wp) - loss(wm)) / (2 * eps)
            it.iternext()
        return g

    rng = make_rng(58)
    X = rng.standard_normal((30, 5))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    from certunlearn import Dataset

    bin_data = Dataset(features=X, labels=(rng.integers(0, 2, 30) * 2 - 1).astype(int),
                       normalized=True)
    bobj = logistic_objective(bin_data, lam=0.03)
    labels = rng.integers(0, 3, 30)
    onehot = np.zeros((30, 3), dtype=int)
    onehot[np.arange(30), labels] = 1
    multi_data = Dataset(features=X, labels=onehot, normalized=True)
    mobj = multiclass_objective(multi_data, lam=0.03)
    grad_ok = True
    for _ in range(50):
        wb = rng.standard_normal(5)
        if not np.allclose(bobj.grad(wb), central(bobj.loss, wb), rtol=1e-5,
                           atol=1e-10):
            grad_ok = False
        wm = rng.standard_normal((5, 3))
        if not np.allclose(mobj.grad(wm), central(mobj.loss, wm), rtol=1e-5,
                           atol=1e-10):
            grad_ok = False

    ok = ball_ok and noise_ok and contraction_ok and grad_ok
    report(5, "pngd correctness", ok,
           f"ball={ball_ok} noise(dev {var_dev:.2e} vs 3SE {3 * se:.2e})={noise_ok} "
           f"contraction={contraction_ok} gradients={grad_ok}")
    assert ball_ok and noise_ok and contraction_ok and grad_ok


@pytest.mark.slow
def test_criterion_6_unlearning_matches_retraining():
    """Desk-scale: unlearned accuracy within 2 pooled stds of retrained."""
    t0 = time.perf_counter()
    base = dict(preset="synthetic", eps_targets=(1.0,), trials=100, seed=2024,
                n_iter=3000, k_budget=1, out="unused.csv")
    unlearned = run_unlearn_one(ExperimentConfig(method="langevin", **base))[0]
    retrained = run_unlearn_one(ExperimentConfig(method="retrain", **base))[0]
    pooled = math.sqrt((unlearned.acc_std ** 2 + retrained.acc_std ** 2) / 2.0)
    gap = abs(unlearned.acc_mean - retrained.acc_mean)
    elapsed = time.perf_counter() - t0
    ok = gap <= 2.0 * pooled and elapsed < 300.0
    report(6, "unlearning vs retraining", ok,
           f"unlearned {unlearned.acc_mean:.4f}+-{unlearned.acc_std:.4f}, "
           f"retrained {retrained.acc_mean:.4f}+-{retrained.acc_std:.4f}, "
           f"gap {gap:.4f} vs 2*pooled {2 * pooled:.4f}, {elapsed:.0f}s")
    assert unlearned.error is None and retrained.error is None
    assert gap <= 2.0 * pooled
    assert elapsed < 300.0


@pytest.mark.slow
def test_criterion_7_sequential_schedule_consistency():
    """Base-case collapse plus batch-size ordering of total step counts."""
    preset = get_preset("mnist38")
    # collapse: one batch equals the single-shot search
    sigma = 0.02
    ks = sequential_k_schedule(1.0, preset.delta, sigma, 5, 5, preset.pc,
                               preset.regime, eta=preset.eta)
    ns = NoiseSchedule(eta=preset.eta, sigma=sigma, T=INFINITE, K=0)
    collapse_ok = ks == [find_min_k(1.0, preset.delta, preset.pc, ns,
                                    preset.regime, S=5)]

    totals = {}
    for b in (5, 10, 20):
        schedule = sequential_k_schedule(1.0, preset.delta, 0.03, 100, b,
                                         preset.pc, preset.regime, eta=preset.eta)
        totals[b] = sum(schedule)
    ordering_ok = totals[5] > totals[10] > totals[20]
    frozen_ok = totals == SEQ_TOTALS
    ok = collapse_ok and ordering_ok and frozen_ok
    report(7, "sequential schedule consistency", ok,
           f"collapse={collapse_ok}, totals={totals} (oracle {SEQ_TOTALS})")
    assert collapse_ok
    assert ordering_ok
    assert frozen_ok


def test_criterion_8_end_to_end_determinism(tmp_path):
    """Reruns with one master seed emit byte-identical CSV files."""
    def run(tag, args):
        out = tmp_path / f"{tag}.csv"
        code = subprocess.run(
            [sys.executable, "-m", "certunlearn.cli", *args, "--out", str(out)],
            capture_output=True).returncode
        assert code == 0
        return out

    identical = True
    cal_args = ["calibrate-sigma", "--preset", "mnist38", "--eps", "0.5,1,2"]
    a = run("cal_a", cal_args)
    b = run("cal_b", cal_args)
    identical &= a.read_bytes() == b.read_bytes()

    exp_args = ["unlearn-one", "--preset", "synthetic", "--eps", "1",
                "--trials", "3", "--n-iter", "60", "--seed", "99"]
    c = run("run_a", exp_args)
    d = run("run_b", exp_args)
    identical &= c.read_bytes() == d.read_bytes()
    identical &= (tmp_path / "run_a.trials.csv").read_bytes() == \
        (tmp_path / "run_b.trials.csv").read_bytes()

    seq_args = ["sequential", "--preset", "mnist38", "--sigma", "0.02",
                "--eps", "1", "--batch", "5", "--total-removals", "10",
                "--trials", "0"]
    e = run("seq_a", seq_args)
    f = run("seq_b", seq_args)
    identical &= e.read_bytes() == f.read_bytes()
    identical &= (tmp_path / "seq_a.plot.csv").read_bytes() == \
        (tmp_path / "seq_b.plot.csv").read_bytes()

    report(8, "end-to-end determinism", identical, "3 protocols, byte-compared")
    assert identical
