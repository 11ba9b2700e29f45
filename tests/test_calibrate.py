import math

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

        def counting(*args, **kwargs):
            calls.append(args)
            return learn_epsilon0(*args, **kwargs)

        monkeypatch.setattr(calibrate, "learn_epsilon0", counting)
        ns = _ns(mnist, 0.03)
        k = find_min_k(1.0, mnist.delta, mnist.pc, ns, mnist.regime, S=100)
        assert k == ORACLE_FIND_K_S100
        assert len(calls) == 1


def _record_optimize(monkeypatch):
    """Record every _optimize_order call of the calibration searches: its
    curve, delta, target, result and whether it refined the order."""
    optimize = calibrate._optimize_order
    calls = []

    def recording(on_grid, curve, delta, target=None):
        refined = []

        def counting(a):
            refined.append(a)
            return curve(a)
        out = optimize(on_grid, counting, delta, target)
        calls.append({"curve": curve, "delta": delta, "target": target, "out": out,
                      "refined": bool(refined)})
        return out

    monkeypatch.setattr(calibrate, "_optimize_order", recording)
    return calls


def _assert_probe_matches_rdp_to_dp(probe, bound, delta, eps_hat):
    exact = rdp_to_dp(bound, delta)
    assert probe["target"] == eps_hat
    assert (probe["out"][0] <= eps_hat) == (exact[0] <= eps_hat)
    if "verdict" in probe:
        assert probe["verdict"] == (exact[0] <= eps_hat)
    if probe["refined"]:
        assert probe["out"] == exact
    else:  # skipped only where the grid alone certifies
        assert probe["out"][0] <= eps_hat


class TestGridCertifiedProbes:
    @pytest.mark.parametrize("preset_name", ["mnist", "cifar_multi"])
    @pytest.mark.parametrize("k_hat", [1, 5])
    @pytest.mark.parametrize("S", [1, 5])
    def test_probes_reach_rdp_to_dp_verdict(self, preset_name, k_hat, S, request,
                                            monkeypatch):
        pr = request.getfixturevalue(preset_name)
        calls = _record_optimize(monkeypatch)
        sigma = binary_search_sigma(1.0, pr.delta, k_hat, pr.pc, pr.regime, S=S,
                                    eta=pr.eta)
        # below the calibrated sigma, the least K exceeds the budget
        k = find_min_k(1.0, pr.delta, pr.pc, _ns(pr, 0.5 * sigma), pr.regime, S=S)
        monkeypatch.undo()
        assert k > k_hat and len(calls) > 20
        for call in calls:
            _assert_probe_matches_rdp_to_dp(call, call["curve"], call["delta"], 1.0)
        refined = [c["refined"] for c in calls]
        assert any(refined) and not all(refined)


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
            for a in np.concatenate([ALPHA_GRID[::97], 1.0 + 10.0 ** rng.uniform(-6, 6, 20)]):
                got = sequential_epsilon(float(a), *args, **kw)
                assert got == _recursive_sequential_epsilon(float(a), *args, **kw)
                assert isinstance(got, float)

    def test_k_probes_certify_what_rdp_to_dp_certifies(self, mnist, monkeypatch):
        # every K probe of the schedule search reaches rdp_to_dp's verdict on
        # sequential_epsilon at that K, and a probe that refines the order
        # returns exactly rdp_to_dp's (eps, alpha)
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
