import hashlib
import math
import re
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certunlearn import (BudgetUnreachable, CapOverflow, INFINITE, NoFeasibleSigma,
                         NoiseSchedule, ProblemConstants, Regime, RenyiBound, VacuousBound,
                         binary_search_sigma, calibrate, converted_epsilon, default_c0,
                         find_min_k, learn_epsilon0, lsi_unlearn_trace, rdp_to_dp,
                         sequential_epsilon, sequential_k_schedule, unlearn_epsilon,
                         unlearn_rate)
from certunlearn import accountant, get_preset
from certunlearn.accountant import ALPHA_GRID

mp.mp.dps = 40

# frozen by the independent high-precision oracle (20k-point alpha grid +
# golden refinement, cross-checked in mpmath) before this package was built
ORACLE_SIGMA = {
    "mnist38": (0.18780331288, 0.0940213657285, 0.0189925297516,
                0.00961075875781, 0.00491652049967, 0.00208958398495),
    "cifar10-binary": (0.243116422679, 0.121713683414, 0.0245923860723,
                       0.0124486848788, 0.00637161887569, 0.00271170745857),
    "cifar10-multi": (0.0471750956357, 0.0236133797916, 0.00476341106993,
                      0.00240679245069, 0.00122783121527, 0.000518349685025),
}
EPS_GRID = (0.05, 0.1, 0.5, 1.0, 2.0, 5.0)

ORACLE_SEQ_TOTALS = {5: 26726, 10: 11847, 20: 6858}
ORACLE_SEQ_HEADS = {5: [359, 721, 796], 10: [785, 1053, 1093], 20: [1172, 1397, 1416]}
ORACLE_FIND_K_S100 = 2012          # sigma=0.03, eps=1, S=100, mnist38
ORACLE_SEQ_EPS_I3_A2 = 5.468127728167355e-09   # b=5 schedule, alpha=2
# b=1, 300 removals, sigma=0.03, eps=1, mnist38: head, last K and total
ORACLE_SEQ_B1_300 = ([0, 0, 29], 24218, 3677992)


def _ns(preset, sigma, k=0):
    return NoiseSchedule(eta=preset.eta, sigma=sigma, T=INFINITE, K=k)


def _recursive_sequential_epsilon(alpha, sigma, b, i, K_list, pc, regime, eta=None,
                                  C0=None, batch_sizes=None):
    """The recursive sequential accountant, one stack frame per request: the
    reference the iterative sequential_epsilon must match bit for bit."""
    if eta is None:
        eta = 1.0 / pc.L
    sizes = list(batch_sizes) if batch_sizes is not None else [b] * i
    ns0 = NoiseSchedule(eta=eta, sigma=sigma, T=INFINITE, K=0)
    if C0 is None:
        C0 = default_c0(pc, ns0, regime)

    decays = []
    c_start = C0
    for j in range(i):
        k_j = int(K_list[j])
        ns_j = NoiseSchedule(eta=eta, sigma=sigma, T=INFINITE, K=k_j)
        if regime is Regime.STRONGLY_CONVEX:
            decays.append(k_j * unlearn_rate(pc, ns_j, regime, c_start))
        else:
            trace = lsi_unlearn_trace(pc, ns_j, regime, c_start, k_j)
            decays.append(math.fsum(unlearn_rate(pc, ns_j, regime, c)
                                    for c in trace.values[:k_j]))
            c_start = float(trace.values[-1])

    def slope_for(size):
        return learn_epsilon0(pc, ns0, regime, S=size, C0=C0).meta["slope"]

    def evaluate(a, j):
        decay = np.exp(-decays[j - 1] / a)
        if j == 1:
            return decay * slope_for(sizes[0]) * a
        weight = (a - 0.5) / (a - 1.0)
        prev = evaluate(2.0 * a, j - 1)
        return decay * weight * (slope_for(sizes[j - 1]) * 2.0 * a + prev)

    arr = np.asarray(alpha, dtype=float)
    out = evaluate(arr, i)
    if np.ndim(alpha) == 0:
        return float(out)
    return out


# constants whose LSI caps stay small, so convex and non-convex traces saturate
# within a few dozen steps and requests hand each other distinct constants
_SMALL_CAP_PC = ProblemConstants(L=1.0, m=0.0, M=0.1, R=0.5, n=100, d=5)


def _cold_least_k(ok, k_max, guess=0):
    """The K search without a starting guess (which it ignores): galloping
    doubling from 0, then bisection. The warm search must agree with it."""
    if ok(0):
        return 0
    lo, hi = 0, min(1, k_max)
    while not ok(hi):
        if hi >= k_max:
            return None
        lo, hi = hi, min(2 * hi, k_max)
    while hi - lo > 1:  # lo fails, hi passes
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _schedule_or_error(*args, **kwargs):
    try:
        return sequential_k_schedule(*args, **kwargs)
    except BudgetUnreachable as exc:
        return type(exc)


@st.composite
def _searches(draw):
    """(k_max, threshold or None when unreachable, starting guess)."""
    k_max = draw(st.integers(0, 10 ** 6))
    t = draw(st.one_of(st.none(), st.integers(0, k_max)))
    near = [0, k_max, k_max + 1, -1] + ([t, t - 1, t + 1] if t is not None else [])
    guess = draw(st.one_of(st.sampled_from(near), st.integers(-10 ** 7, 10 ** 7)))
    return k_max, t, guess


class TestLeastK:
    @settings(max_examples=400, deadline=None)
    @given(_searches())
    def test_warm_search_matches_cold_within_log_probes(self, case):
        k_max, t, guess = case
        probed = []

        def ok(k):
            assert 0 <= k <= max(k_max, 0)
            probed.append(k)
            return t is not None and k >= t

        got = calibrate._least_k(ok, k_max, guess)
        assert got == _cold_least_k(lambda k: t is not None and k >= t, k_max)
        reach = k_max + 1 if t is None else t
        assert len(probed) <= 2 * math.ceil(math.log2(abs(guess - reach) + 1)) + 3

    def test_guess_zero_probes_as_the_cold_search(self):
        for t in (0, 1, 5, 1000, 2013, None):
            seqs = []
            for search in (calibrate._least_k, _cold_least_k):
                probed = []
                search(lambda k: probed.append(k) or (t is not None and k >= t), 2012)
                seqs.append(probed)
            assert seqs[0] == seqs[1]


class TestFindMinK:
    def test_zero_when_target_already_met(self, mnist):
        ns = _ns(mnist, 0.03)
        base = converted_epsilon(mnist.pc, ns, mnist.regime, 1, 0, mnist.delta)
        k = find_min_k(2.0 * base, mnist.delta, mnist.pc, ns, mnist.regime, S=1)
        assert k == 0

    def test_calibrated_sigma_needs_exactly_one_step(self, mnist):
        sigma = binary_search_sigma(1.0, mnist.delta, 1, mnist.pc, mnist.regime,
                                    S=1, eta=mnist.eta)
        ns = _ns(mnist, sigma)
        assert find_min_k(1.0, mnist.delta, mnist.pc, ns, mnist.regime, S=1) == 1

    def test_batch_100_at_sigma_003(self, mnist):
        ns = _ns(mnist, 0.03)
        k = find_min_k(1.0, mnist.delta, mnist.pc, ns, mnist.regime, S=100)
        assert k == ORACLE_FIND_K_S100
        ok = converted_epsilon(mnist.pc, ns, mnist.regime, 100, k, mnist.delta)
        bad = converted_epsilon(mnist.pc, ns, mnist.regime, 100, k - 1, mnist.delta)
        assert ok <= 1.0 < bad

    def test_unreachable_target_raises(self, mnist):
        ns = _ns(mnist, 0.03)
        with pytest.raises(BudgetUnreachable):
            find_min_k(1e-9, mnist.delta, mnist.pc, ns, mnist.regime, S=1,
                       k_max=10 ** 4)

    def test_k_max_boundary_not_skipped_by_galloping(self, mnist):
        # answers just under a non-power-of-two cap must still be found
        ns = _ns(mnist, 0.03)
        args = (1.0, mnist.delta, mnist.pc, ns, mnist.regime)
        assert find_min_k(*args, S=100, k_max=2013) == ORACLE_FIND_K_S100
        assert find_min_k(*args, S=100, k_max=2012) == ORACLE_FIND_K_S100
        with pytest.raises(BudgetUnreachable):
            find_min_k(*args, S=100, k_max=2011)

    def test_one_learning_curve_per_search(self, mnist, monkeypatch):
        # the learning curve does not depend on K, so every K probe shares one
        calls = []
        learned = accountant._learned

        def counting(*args, **kwargs):
            calls.append(args)
            return learned(*args, **kwargs)

        monkeypatch.setattr(calibrate, "_learned", counting)
        ns = _ns(mnist, 0.03)
        k = find_min_k(1.0, mnist.delta, mnist.pc, ns, mnist.regime, S=100)
        assert k == ORACLE_FIND_K_S100
        assert len(calls) == 1


def _record_optimize(monkeypatch, points=()):
    """Record every _optimize_order call of the calibration searches: its
    curve, delta, target, result and its golden-section curve evaluations,
    and the last of `points` recorded before it, if any."""
    optimize = calibrate._optimize_order
    calls = []

    def recording(on_grid, curve, delta, target=None, floor=None):
        refined = []

        def counting(a):
            refined.append(a)
            return curve(a)
        out = optimize(on_grid, counting, delta, target, floor)
        calls.append({"curve": curve, "delta": delta, "target": target, "out": out,
                      "evals": len(refined), "refined": bool(refined),
                      "at": points[-1] if points else None})
        return out

    monkeypatch.setattr(calibrate, "_optimize_order", recording)
    return calls


def _rdp_to_dp_pairs(bound, delta):
    """rdp_to_dp(bound, delta) and every (eps, alpha) pair it evaluates: the
    grid minimum and each golden-section probe."""
    log_inv_delta = math.log(1.0 / delta)
    pairs = []

    def recording(a):
        v = bound(a)
        pairs.append((v + log_inv_delta / (a - 1.0), a))
        return v
    on_grid = bound(ALPHA_GRID)
    exact = accountant._optimize_order(on_grid, recording, delta)
    obj = on_grid + log_inv_delta / (ALPHA_GRID - 1.0)
    i = int(np.argmin(obj))
    return exact, pairs + [(float(obj[i]), float(ALPHA_GRID[i]))]


def _assert_probe_matches_rdp_to_dp(probe, bound, delta, eps_hat):
    # a probe stops refining once its verdict is known, so its pair is one
    # rdp_to_dp evaluates, at or above rdp_to_dp's minimum
    exact, pairs = _rdp_to_dp_pairs(bound, delta)
    assert probe["target"] == eps_hat
    assert (probe["out"][0] <= eps_hat) == (exact[0] <= eps_hat)
    if "verdict" in probe:
        assert probe["verdict"] == (exact[0] <= eps_hat)
    assert probe["out"][0] >= exact[0]
    assert probe["out"] in pairs


def _record_probe_points(monkeypatch):
    """Record the (schedule, K) at which each sigma or K probe builds its
    unlearned curve: every probe takes the decay sum at its K."""
    points = []
    decay_sum = calibrate._decay_sum

    def at_decay(pc, ns, regime, C0, K):
        points.append((ns, K))
        return decay_sum(pc, ns, regime, C0, K)
    monkeypatch.setattr(calibrate, "_decay_sum", at_decay)
    return points


class TestGridCertifiedProbes:
    @pytest.mark.parametrize("preset_name", ["mnist", "cifar_multi"])
    @pytest.mark.parametrize("k_hat", [1, 5])
    @pytest.mark.parametrize("S", [1, 5])
    def test_probes_reach_rdp_to_dp_verdict(self, preset_name, k_hat, S, request,
                                            monkeypatch):
        pr = request.getfixturevalue(preset_name)
        calls = _record_optimize(monkeypatch, _record_probe_points(monkeypatch))
        sigma = binary_search_sigma(1.0, pr.delta, k_hat, pr.pc, pr.regime, S=S,
                                    eta=pr.eta)
        # below the calibrated sigma, the least K exceeds the budget
        k = find_min_k(1.0, pr.delta, pr.pc, _ns(pr, 0.5 * sigma), pr.regime, S=S)
        monkeypatch.undo()
        assert k > k_hat and len(calls) > 20
        for call in calls:
            # each probe against rdp_to_dp on the public chain at its (sigma, K)
            ns, K = call["at"]
            bound = unlearn_epsilon(learn_epsilon0(pr.pc, ns, pr.regime, S=S), pr.pc, ns,
                                    pr.regime, K=K)
            _assert_probe_matches_rdp_to_dp(call, bound, call["delta"], 1.0)
        refined = [c["refined"] for c in calls]
        assert any(refined) and not all(refined)


def _unlearned_case(preset, sigma, S, K):
    """An unlearned curve, the targeted verdict the sigma and K searches reach
    on it, and its floor: the curve never decreases in alpha."""
    ns = NoiseSchedule(eta=preset.eta, sigma=sigma, T=INFINITE, K=K)
    bound = unlearn_epsilon(learn_epsilon0(preset.pc, ns, preset.regime, S=S), preset.pc,
                            ns, preset.regime, K=K)
    slope, decay = calibrate._Stream(preset.pc, ns, preset.regime).admit(S, K)
    return (bound,
            lambda target: calibrate._converted(slope, decay, preset.delta, {}, target) <= target,
            lambda a, b: bound(a), preset.delta)


def _stream_case(preset, sigma, ks, sizes):
    """The curve after a stream of requests, the targeted verdict the
    schedule search reaches on it, and its floor."""
    stream = calibrate._Stream(preset.pc, _ns(preset, sigma), preset.regime)
    for size, k in zip(sizes, ks):
        stream.admit(size, k)
    on_grid = stream.curve(ALPHA_GRID)
    at = calibrate._scalar_curve(stream.slopes, stream.decays)
    bound = RenyiBound(lambda a: sequential_epsilon(
        a, sigma, 1, len(ks), ks, preset.pc, preset.regime, eta=preset.eta,
        batch_sizes=sizes))

    def verdict(target):
        return calibrate._optimize_order(on_grid, at, preset.delta, target, at)[0] <= target
    return bound, verdict, at, preset.delta


_UNLEARNED_CASES = 24


def _verdict_cases(mnist, cifar_multi):
    rng = np.random.default_rng(1401)
    cases = [_unlearned_case(pr, float(10.0 ** rng.uniform(-2.5, -0.5)),
                             int(rng.integers(1, 10)), int(rng.integers(0, 3000)))
             for pr in (mnist, cifar_multi) for _ in range(_UNLEARNED_CASES // 2)]
    for i in (1, 2, 3, 5, 8, 13, 21, 40):
        ks = rng.integers(0, 3000, size=i).tolist()
        cases.append(_stream_case(mnist, 0.03, ks, rng.integers(1, 8, size=i).tolist()))
    # near request 1010 the top orders overflow float64 on part of the grid
    cases.append(_stream_case(mnist, 0.03, [20000] * 1010, [5] * 1010))
    return cases


def _verdict_mismatches(cases):
    """(case, target) pairs where the targeted verdict differs from
    rdp_to_dp's, at targets just around rdp_to_dp's eps and at the grid's."""
    bad = []
    for n, (bound, verdict, _, delta) in enumerate(cases):
        log_inv_delta = math.log(1.0 / delta)
        exact = rdp_to_dp(bound, delta)[0]
        grid = float(np.min(bound(ALPHA_GRID) + log_inv_delta / (ALPHA_GRID - 1.0)))
        targets = [exact * (1.0 + r) for r in (1e-12, -1e-12, 1e-6, -1e-6)] + [grid]
        bad += [(n, t) for t in targets if verdict(t) != (exact <= t)]
    return bad


class TestEarlyExits:
    """The sigma and K probes stop refining the order once the verdict is
    known; every verdict stays rdp_to_dp's."""

    @pytest.fixture(scope="class")
    def cases(self, mnist, cifar_multi):
        return _verdict_cases(mnist, cifar_multi)

    def test_verdicts_match_rdp_to_dp(self, cases):
        assert _verdict_mismatches(cases) == []

    def test_swapped_floor_endpoints_are_caught(self, cases, monkeypatch):
        # a floor taken at the wrong ends of its bracket bounds from above
        optimize = calibrate._optimize_order

        def swapped(on_grid, curve, delta, target=None, floor=None):
            return optimize(on_grid, curve, delta, target,
                            None if floor is None else lambda a, b: floor(b, a))
        monkeypatch.setattr(calibrate, "_optimize_order", swapped)
        bad = {n for n, _ in _verdict_mismatches(cases)}
        # caught on both an unlearned curve and a stream
        assert min(bad) < _UNLEARNED_CASES <= max(bad)

    def test_floors_bound_their_brackets_from_below(self, cases):
        rng = np.random.default_rng(7)
        nans = 0
        for bound, _, floor, _ in cases:
            for lo in 1.0 + 10.0 ** rng.uniform(-6.0, 6.0, 20):
                hi = lo * (1.0 + 10.0 ** rng.uniform(-10.0, -1.0))
                low = floor(lo, hi)
                nans += math.isnan(low)
                for a in np.linspace(lo, hi, 7):
                    assert not low > bound(float(a))
        assert nans > 0  # the 1010-request stream's overflowing brackets

    def test_stream_search_evaluates_a_third_of_the_orders(self, mnist, monkeypatch):
        # the full refinement of every failing probe took 3388 evaluations
        calls = _record_optimize(monkeypatch)
        ks = sequential_k_schedule(1.0, mnist.delta, 0.03, 100, 5, mnist.pc, mnist.regime,
                                   eta=mnist.eta)
        assert sum(ks) == ORACLE_SEQ_TOTALS[5]
        assert sum(call["evals"] for call in calls) <= 3388 // 3


class TestBinarySearchSigma:
    @pytest.mark.parametrize("preset_name", sorted(ORACLE_SIGMA))
    def test_matches_frozen_oracle(self, preset_name, request):
        preset = {"mnist38": "mnist", "cifar10-binary": "cifar_bin",
                  "cifar10-multi": "cifar_multi"}[preset_name]
        preset = request.getfixturevalue(preset)
        got = [binary_search_sigma(e, preset.delta, 1, preset.pc, preset.regime,
                                   S=1, eta=preset.eta) for e in EPS_GRID]
        assert got == pytest.approx(ORACLE_SIGMA[preset_name], rel=1e-9)

    def test_minimality(self, mnist):
        sigma = binary_search_sigma(0.5, mnist.delta, 1, mnist.pc, mnist.regime,
                                    S=1, eta=mnist.eta)
        shrunk = sigma * (1.0 - 2e-4)
        ns = _ns(mnist, shrunk)
        assert find_min_k(0.5, mnist.delta, mnist.pc, ns, mnist.regime, S=1) > 1

    def test_no_feasible_sigma(self, mnist):
        with pytest.raises(NoFeasibleSigma):
            binary_search_sigma(1.0, mnist.delta, 1, mnist.pc, mnist.regime,
                                S=1, sigma_lo=1e-6, sigma_hi=2e-6, eta=mnist.eta)

    def test_convex_overflowing_probes_do_not_certify(self):
        # the LSI caps overflow below sigma ~ 0.015 (default sigma_lo is 1e-6),
        # so the bisection must treat those probes as infeasible, not raise
        pc = ProblemConstants(L=1.0, m=0.0, M=0.1, R=0.1, n=10, d=5)
        sigma = binary_search_sigma(1.0, 1e-4, 5, pc, Regime.CONVEX, sigma_hi=4.0)

        def cert(s):
            ns = NoiseSchedule(eta=1.0, sigma=s, T=INFINITE, K=5)
            return converted_epsilon(pc, ns, Regime.CONVEX, 1, 5, 1e-4)
        assert 0.4 < sigma < 0.45
        assert cert(sigma) <= 1.0 < cert(sigma / (1.0 + 1e-4))
        with pytest.raises(CapOverflow):
            cert(1e-6)

    def test_empty_convex_bracket_raises_typed_error(self):
        pc = ProblemConstants(L=1.0, m=0.0, M=0.1, R=0.1, n=10, d=5)
        with pytest.raises(CapOverflow):  # the upfront find_min_k at sigma_hi
            binary_search_sigma(1.0, 1e-4, 5, pc, Regime.CONVEX, sigma_hi=1e-3)
        with pytest.raises(NoFeasibleSigma):
            binary_search_sigma(1.0, 1e-4, 5, pc, Regime.CONVEX, sigma_hi=0.3)

    # numpy's exp may differ in the last bit across platforms and versions
    @pytest.mark.skipif(sys.version_info[:2] != (3, 11) or np.__version__ != "2.4.6",
                        reason="the digest was computed on Python 3.11, numpy 2.4.6")
    def test_sigma_grid_bits_are_pinned(self):
        # perfbench's 108 calibrate cells in nested order: each sigma and its
        # certificate as float hex, hashed; the first 16 hex digits of sha256
        lines = []
        for name in ("mnist38", "cifar10-binary", "cifar10-multi"):
            pr = get_preset(name)
            for eps in EPS_GRID:
                for k in (1, 2, 5):
                    for S in (1, 5):
                        sigma = binary_search_sigma(eps, pr.delta, k, pr.pc, pr.regime,
                                                    S=S, eta=pr.eta)
                        cert = converted_epsilon(pr.pc, _ns(pr, sigma, k), pr.regime, S, k,
                                                 pr.delta)
                        lines.append(f"{name},{eps!r},{k},{S},{sigma.hex()},{cert.hex()}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        assert digest == "d7be1c41013e6023"

    # numpy's exp may differ in the last bit across platforms and versions
    @pytest.mark.skipif(sys.version_info[:2] != (3, 11) or np.__version__ != "2.4.6",
                        reason="the digest was computed on Python 3.11, numpy 2.4.6")
    def test_convex_and_nonconvex_bits_are_pinned(self):
        # the regimes the benchmark does not run, at L=1, m=0, M=1, R=0.5,
        # n=1e4, eta=1, delta=1e-4, K=5, sigma_hi=4: sigma searches whose first
        # probe overflows the LSI cap, certificates
        # and K searches around the calibrated sigma, ending in K, a typed
        # error or BudgetUnreachable's best eps; then a search whose first
        # probe is infinite at every order. Values as float hex, hashed.
        lines = []

        def record(tag, fn):
            try:
                value = fn()
                lines.append(f"{tag},{value.hex() if isinstance(value, float) else value}")
            except (BudgetUnreachable, CapOverflow, VacuousBound) as exc:
                best = getattr(exc, "best", None)
                lines.append(f"{tag},{type(exc).__name__},{exc},"
                             f"{'' if best is None else best.hex()}")

        pc = ProblemConstants(L=1.0, m=0.0, M=1.0, R=0.5, n=10 ** 4, d=1)
        for regime in (Regime.CONVEX, Regime.NONCONVEX):
            sigma = binary_search_sigma(1.0, 1e-4, 5, pc, regime, sigma_hi=4.0)
            lines.append(f"{regime.value},sigma,{sigma.hex()}")
            for s in (sigma, 0.5 * sigma, 2.0 * sigma, 0.1):
                ns = NoiseSchedule(eta=1.0, sigma=s, T=INFINITE, K=0)
                for k in (0, 1, 5, 40):
                    record(f"{regime.value},cert,{s.hex()},{k}",
                           lambda: converted_epsilon(pc, ns, regime, 1, k, 1e-4))
                for eps in (1.0, 0.3):
                    record(f"{regime.value},k,{s.hex()},{eps}",
                           lambda: find_min_k(eps, 1e-4, pc, ns, regime, k_max=1000))
        tiny = ProblemConstants(L=1.0, m=1e-9, M=1.0, R=0.5, n=1, d=1)
        sc = Regime.STRONGLY_CONVEX
        record("sc,sigma", lambda: binary_search_sigma(1.0, 1e-4, 5, tiny, sc,
                                                       sigma_lo=1e-150, sigma_hi=1e6))
        record("sc,cert", lambda: converted_epsilon(tiny, NoiseSchedule(eta=1.0, sigma=1e-150),
                                                    sc, 1, 5, 1e-4))
        assert sum("CapOverflow" in line for line in lines) == 12
        assert lines[-1].startswith("sc,cert,VacuousBound,")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        assert digest == "c5fcb663c7479d01"

    def test_one_check_per_probe(self, mnist, monkeypatch):
        # the prologue: find_min_k at sigma_hi builds its learning slope and
        # C0 (c, v), which checks the chain for every K probe, then runs each
        # K probe's order search unchecked (p); each sigma probe then makes
        # one default_c0 call, one validate_schedule call and one order search
        events = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)
            return wrapped
        for module, name, tag in ((accountant, "validate_schedule", "v"),
                                  (accountant, "default_c0", "c"),
                                  (calibrate, "_optimize_order", "p")):
            monkeypatch.setattr(module, name, counting(tag, getattr(module, name)))
        binary_search_sigma(1.0, mnist.delta, 1, mnist.pc, mnist.regime, S=1, eta=mnist.eta)
        trace = "".join(events)
        assert re.fullmatch(r"cv(p)+(cvp)+", trace), trace
        assert trace.count("cvp") >= 20


class TestSequential:
    def test_single_request_matches_unlearn_chain(self, mnist):
        sigma, b, k = 0.03, 5, 37
        ns = _ns(mnist, sigma, k)
        direct = unlearn_epsilon(learn_epsilon0(mnist.pc, ns, mnist.regime, S=b),
                                 mnist.pc, ns, mnist.regime, K=k)
        for a in (1.5, 2.0, 30.0):
            got = sequential_epsilon(a, sigma, b, 1, [k], mnist.pc, mnist.regime,
                                     eta=mnist.eta)
            assert got == pytest.approx(direct(a), rel=1e-13)

    def test_second_request_with_no_steps_has_no_decay(self, mnist):
        sigma, b = 0.03, 5
        slope = learn_epsilon0(mnist.pc, _ns(mnist, sigma), mnist.regime,
                               S=b).meta["slope"]

        def eps1(a):
            return math.exp(-mnist.eta * mnist.pc.m * 4 / a) * slope * a

        a = 3.0
        got = sequential_epsilon(a, sigma, b, 2, [4, 0], mnist.pc, mnist.regime,
                                 eta=mnist.eta)
        expect = (a - 0.5) / (a - 1.0) * (slope * 2 * a + eps1(2 * a))
        assert got == pytest.approx(expect, rel=1e-13)

    def test_frozen_third_request_value(self, mnist):
        heads = [359, 721, 796]
        got = sequential_epsilon(2.0, 0.03, 5, 3, heads, mnist.pc, mnist.regime,
                                 eta=mnist.eta)
        assert got == pytest.approx(ORACLE_SEQ_EPS_I3_A2, rel=1e-9)

    def test_third_request_against_mpmath(self, mnist):
        # independent arbitrary-precision recursion
        heads = [359, 721, 796]
        m, n, M = mp.mpf("0.0119"), 11982, 1
        eta = 1 / (mp.mpf("0.25") + m)
        sig = mp.mpf("0.03")

        def eps0(a, s):
            return 4 * a * s * s * M * M / (m * sig ** 2 * n ** 2)

        def rec(a, i):
            decay = mp.e ** (-eta * m * heads[i - 1] / a)
            if i == 1:
                return decay * eps0(a, 5)
            w = (a - mp.mpf("0.5")) / (a - 1)
            return decay * w * (eps0(2 * a, 5) + rec(2 * a, i - 1))

        expect = float(rec(mp.mpf(2), 3))
        got = sequential_epsilon(2.0, 0.03, 5, 3, heads, mnist.pc, mnist.regime,
                                 eta=mnist.eta)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_schedule_collapses_to_find_min_k(self, mnist):
        sigma = 0.02
        ks = sequential_k_schedule(1.0, mnist.delta, sigma, 5, 5, mnist.pc,
                                   mnist.regime, eta=mnist.eta)
        ns = _ns(mnist, sigma)
        assert ks == [find_min_k(1.0, mnist.delta, mnist.pc, ns, mnist.regime, S=5)]

    @pytest.mark.slow
    @pytest.mark.parametrize("b", [5, 10, 20])
    def test_schedule_matches_frozen_oracle(self, mnist, b):
        ks = sequential_k_schedule(1.0, mnist.delta, 0.03, 100, b, mnist.pc,
                                   mnist.regime, eta=mnist.eta)
        assert ks[:3] == ORACLE_SEQ_HEADS[b]
        assert sum(ks) == ORACLE_SEQ_TOTALS[b]
        assert all(k2 >= k1 for k1, k2 in zip(ks, ks[1:]))

    @pytest.mark.parametrize("b", [1, 3, 7])
    def test_warm_schedule_equals_cold_search(self, mnist, b, monkeypatch):
        args = (1.0, mnist.delta, 0.03, 100, b, mnist.pc, mnist.regime)
        warm = sequential_k_schedule(*args, eta=mnist.eta)
        monkeypatch.setattr(calibrate, "_least_k", _cold_least_k)
        assert warm == sequential_k_schedule(*args, eta=mnist.eta)
        if b == 1:
            assert sum(warm) == 421661

    @pytest.mark.parametrize("regime", [Regime.CONVEX, Regime.NONCONVEX])
    def test_warm_small_cap_schedules_equal_cold_search(self, regime, monkeypatch):
        # eps=1 leaves early requests at K=0 and later ones rising; eps=0.3
        # adds streams that run out of budget
        cases = [(eps, 1e-3, sigma, 12, b, _SMALL_CAP_PC, regime)
                 for eps in (1.0, 0.3) for sigma in (1.0, 2.0) for b in (1, 2)]
        warm = [_schedule_or_error(*c, k_max=5000, eta=1.0) for c in cases]
        monkeypatch.setattr(calibrate, "_least_k", _cold_least_k)
        assert warm == [_schedule_or_error(*c, k_max=5000, eta=1.0) for c in cases]
        assert any(isinstance(w, list) and sum(w) > 0 for w in warm)

    @pytest.mark.slow
    def test_long_single_removal_schedule_matches_frozen_oracle(self, mnist):
        ks = sequential_k_schedule(1.0, mnist.delta, 0.03, 300, 1, mnist.pc,
                                   mnist.regime, eta=mnist.eta)
        head, last, total = ORACLE_SEQ_B1_300
        assert (ks[:3], ks[-1], sum(ks), len(ks)) == (head, last, total, 300)

    def test_k_max_caps_every_request(self, mnist):
        # a target one step meets is out of reach when no step is allowed
        sigma = 0.03
        one_step = RenyiBound(lambda a: sequential_epsilon(a, sigma, 5, 1, [1], mnist.pc,
                                                           mnist.regime, eta=mnist.eta))
        eps_hat, _ = rdp_to_dp(one_step, mnist.delta)
        args = (eps_hat, mnist.delta, sigma, 5, 5, mnist.pc, mnist.regime)
        assert sequential_k_schedule(*args, eta=mnist.eta) == [1]
        with pytest.raises(BudgetUnreachable):
            sequential_k_schedule(*args, k_max=0, eta=mnist.eta)

    def test_uneven_final_batch_uses_actual_size(self, mnist):
        ks = sequential_k_schedule(1.0, mnist.delta, 0.02, 7, 5, mnist.pc,
                                   mnist.regime, eta=mnist.eta)
        assert len(ks) == 2
        # a same-size second batch can only need more steps than the smaller one
        ks_full = sequential_k_schedule(1.0, mnist.delta, 0.02, 10, 5, mnist.pc,
                                        mnist.regime, eta=mnist.eta)
        assert ks_full[0] == ks[0]
        assert ks[1] <= ks_full[1]

    @pytest.mark.parametrize("regime", ["strongly-convex", "convex", "non-convex"])
    def test_matches_recursive_reference_exactly(self, mnist, regime):
        if regime == "strongly-convex":
            pc, reg, eta, k_hi = mnist.pc, mnist.regime, mnist.eta, 3000
        else:
            pc, eta, k_hi = _SMALL_CAP_PC, 1.0, 40
            reg = Regime.CONVEX if regime == "convex" else Regime.NONCONVEX
        rng = np.random.default_rng(20240119)
        for _ in range(12):
            i = int(rng.integers(1, 31))
            sigma = float(rng.choice([0.01, 0.03, 0.2])) if pc is mnist.pc else 1.0
            ks = rng.integers(0, k_hi, size=i).tolist()
            sizes = rng.integers(1, 8, size=i).tolist()
            args = (sigma, 5, i, ks, pc, reg)
            kw = dict(eta=eta, batch_sizes=sizes)
            np.testing.assert_array_equal(
                sequential_epsilon(ALPHA_GRID, *args, **kw),
                _recursive_sequential_epsilon(ALPHA_GRID, *args, **kw))
            # the schedule search's probe evaluator on the same requests
            stream = calibrate._Stream(pc, NoiseSchedule(eta=eta, sigma=sigma), reg)
            for size, k in zip(sizes, ks):
                stream.admit(size, k)
            probe = calibrate._scalar_curve(stream.slopes, stream.decays)
            for a in np.concatenate([ALPHA_GRID[::97], 1.0 + 10.0 ** rng.uniform(-6, 6, 20)]):
                want = _recursive_sequential_epsilon(float(a), *args, **kw)
                for got in (sequential_epsilon(float(a), *args, **kw), probe(float(a))):
                    assert got == want and isinstance(got, float)

    def test_k_probes_certify_what_rdp_to_dp_certifies(self, mnist, monkeypatch):
        # every K probe of the schedule search reaches rdp_to_dp's verdict on
        # sequential_epsilon at that K, with an (eps, alpha) rdp_to_dp evaluates
        probes = []
        search = calibrate._least_k
        requests = []
        calls = _record_optimize(monkeypatch)

        def recording_search(ok, k_max, guess=0):
            requests.append(len(requests))

            def recording_ok(k):  # one _optimize_order call per probe
                verdict = ok(k)
                probes.append(dict(calls[-1], req=requests[-1], k=k, verdict=verdict))
                return verdict
            return search(recording_ok, k_max, guess)

        monkeypatch.setattr(calibrate, "_least_k", recording_search)
        sigma, b = 0.03, 5
        ks = sequential_k_schedule(1.0, mnist.delta, sigma, 17, b, mnist.pc, mnist.regime,
                                   eta=mnist.eta)
        monkeypatch.undo()
        assert len(ks) == 4 and len(probes) > 4 * 10
        sizes = [5, 5, 5, 2]
        for probe in probes:
            req, k = probe["req"], probe["k"]
            schedule = ks[:req] + [k]
            bound = RenyiBound(lambda a: sequential_epsilon(
                a, sigma, b, req + 1, schedule, mnist.pc, mnist.regime, eta=mnist.eta,
                batch_sizes=sizes))
            _assert_probe_matches_rdp_to_dp(probe, bound, mnist.delta, 1.0)
        refined = [p["refined"] for p in probes]
        assert any(refined) and not all(refined)

    @pytest.mark.filterwarnings("error")
    def test_long_stream_ends_in_certificate_or_typed_error(self, mnist):
        # request i enters at order alpha * 2^(i-1), which overflows float64 on
        # part of the alpha grid near i = 1010 and on all of it by i = 1100;
        # those orders are +inf without an overflow warning
        for i, vacuous in ((1010, False), (1100, True)):
            args = (0.03, 5, i, [20000] * i, mnist.pc, mnist.regime)
            curve = sequential_epsilon(ALPHA_GRID, *args, eta=mnist.eta)
            assert not np.isnan(curve).any() and np.isinf(curve).any()
            assert sequential_epsilon(1e6, *args, eta=mnist.eta) == math.inf
            bound = RenyiBound(lambda a: sequential_epsilon(a, *args, eta=mnist.eta))
            if vacuous:
                with pytest.raises(VacuousBound):
                    rdp_to_dp(bound, mnist.delta)
            else:
                eps, alpha = rdp_to_dp(bound, mnist.delta)
                assert math.isfinite(eps) and math.isfinite(alpha)

    @pytest.mark.parametrize("eps_hat", [-1.0, 0.0, math.nan])
    def test_schedule_rejects_a_target_find_min_k_rejects(self, mnist, eps_hat):
        with pytest.raises(ValueError, match="eps_hat must be positive"):
            sequential_k_schedule(eps_hat, mnist.delta, 0.03, 17, 5, mnist.pc, mnist.regime,
                                  eta=mnist.eta)

    def test_one_schedule_check_per_batch_size(self, mnist, monkeypatch):
        # the learning slope of each batch size checks the schedule for every
        # K probe; 17 removals at b=5 are batches of 5, 5, 5 and 2
        calls = []
        check = accountant.validate_schedule

        def counting(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)
        monkeypatch.setattr(accountant, "validate_schedule", counting)
        ks = sequential_k_schedule(1.0, mnist.delta, 0.03, 17, 5, mnist.pc, mnist.regime,
                                   eta=mnist.eta)
        assert ks[:3] == ORACLE_SEQ_HEADS[5]
        assert len(calls) == 2

    def test_rejects_bad_indices(self, mnist):
        with pytest.raises(ValueError):
            sequential_epsilon(2.0, 0.03, 5, 0, [], mnist.pc, mnist.regime)
        with pytest.raises(ValueError):
            sequential_epsilon(2.0, 0.03, 5, 2, [3], mnist.pc, mnist.regime)
        with pytest.raises(ValueError):
            sequential_epsilon(1.0, 0.03, 5, 1, [3], mnist.pc, mnist.regime)
        # nan compares False both ways, so it must be rejected, not evaluated
        for order in (math.nan, np.array(math.nan), np.array([2.0, math.nan])):
            with pytest.raises(ValueError, match="alpha"):
                sequential_epsilon(order, 0.03, 5, 2, [10, 10], mnist.pc, mnist.regime)


def _delta_entries(pr, delta):
    """Every library entry that converts a Renyi curve at this delta."""
    ns = _ns(pr, 0.03, 1)
    return {
        "converted_epsilon": lambda: converted_epsilon(pr.pc, ns, pr.regime, 1, 1, delta),
        "find_min_k": lambda: find_min_k(1.0, delta, pr.pc, ns, pr.regime),
        "binary_search_sigma": lambda: binary_search_sigma(1.0, delta, 1, pr.pc, pr.regime,
                                                           eta=pr.eta),
        "rdp_to_dp": lambda: rdp_to_dp(learn_epsilon0(pr.pc, ns, pr.regime), delta),
        "sequential_k_schedule": lambda: sequential_k_schedule(
            1.0, delta, 0.03, 17, 5, pr.pc, pr.regime, eta=pr.eta),
    }


_DELTA_ENTRY_NAMES = list(_delta_entries(get_preset("mnist38"), 0.5))


class TestDeltaRange:
    """Below the least normal float, 1/delta can overflow and the order term
    with it; the library rejects such a delta as the CLI and d2d do, rather
    than calling every curve vacuous."""

    @pytest.mark.parametrize("entry", _DELTA_ENTRY_NAMES)
    def test_subnormal_delta_is_a_range_error(self, mnist, entry):
        message = f"delta must be in [{sys.float_info.min!r}, 1), got 1e-310"
        with pytest.raises(ValueError, match=re.escape(message)):
            _delta_entries(mnist, 1e-310)[entry]()

    @pytest.mark.parametrize("entry", _DELTA_ENTRY_NAMES)
    def test_least_normal_delta_certifies(self, mnist, entry):
        out = _delta_entries(mnist, sys.float_info.min)[entry]()
        assert np.isfinite(out).all() and np.greater(out, 0).all()


class TestConvertedEpsilonChain:
    def test_certificate_reverifiable_from_row(self, mnist):
        # the emitted (sigma, K) pair alone re-derives the certificate
        sigma = binary_search_sigma(2.0, mnist.delta, 1, mnist.pc, mnist.regime,
                                    S=1, eta=mnist.eta)
        ns = _ns(mnist, sigma, 1)
        bound = unlearn_epsilon(learn_epsilon0(mnist.pc, ns, mnist.regime, S=1),
                                mnist.pc, ns, mnist.regime, K=1)
        eps, _ = rdp_to_dp(bound, mnist.delta)
        assert eps <= 2.0
        assert eps == converted_epsilon(mnist.pc, ns, mnist.regime, 1, 1, mnist.delta)
