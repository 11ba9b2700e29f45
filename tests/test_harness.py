import numpy as np
import pytest

from certunlearn import (CapOverflow, ConfigError, Dataset, INFINITE, NoiseSchedule,
                         ProblemConstants, UnlearningRequest, apply_request, binary_search_sigma,
                         converted_epsilon, default_c0, evaluate, get_preset,
                         objective_for, sequential_k_schedule)
from certunlearn import d2d as _d2d
from certunlearn.constants import model_constants
from certunlearn.data import SyntheticSpec, make_synthetic, save_dataset
from certunlearn import harness
from certunlearn import pngd as _pngd
from certunlearn.harness import (ExperimentConfig, TrialResult, _load_data,
                                 emit_results, plot_data_path,
                                 replacement_seed, run_calibrate_sigma,
                                 run_evaluate, run_sequential,
                                 run_tradeoff_sweep, run_unlearn_one, trial_seed,
                                 trials_log_path)


def tiny_cfg(**kw):
    base = dict(preset="synthetic", method="langevin", eps_targets=(1.0,),
                trials=3, seed=7, n_iter=150, out="unused.csv")
    base.update(kw)
    return ExperimentConfig(**base)


# The per-protocol trial bodies that the single request-stream runner
# replaced, kept as references (the one-index draw helper inlined): the
# runner must reproduce each trial's weights and accuracy bit for bit.
def _ref_one_trial(cfg, preset, sigma, unlearn_steps, objective, test, t):
    pc = preset.pc
    data = objective.data
    rng = _pngd.make_rng(trial_seed(cfg.seed, t))
    req = UnlearningRequest(indices=(int(rng.integers(0, data.n)),),
                            replacement_seed=replacement_seed(cfg.seed, t))
    updated = apply_request(data, req)
    updated_objective = objective_for(updated, lam=preset.lam)

    if cfg.method in ("langevin", "retrain"):
        ns = NoiseSchedule(eta=preset.eta, sigma=sigma, T=cfg.n_iter, K=unlearn_steps)
        c0 = default_c0(pc, ns, preset.regime)
        init = _pngd.InitSpec(mean=cfg.init_mean, variance=c0)
        if cfg.method == "langevin":
            w = _pngd.train(objective, ns, init, rng)
            w = _pngd.unlearn(w, updated_objective, unlearn_steps, ns, rng)
        else:
            w = _pngd.train(updated_objective, ns, init, rng)
    else:
        shape = ((data.d, data.n_classes) if data.is_multiclass else (data.d,))
        init_w = _pngd.draw_init(_pngd.InitSpec(mean=cfg.init_mean, variance=1.0),
                                 shape, pc.R, rng)
        w = _d2d.d2d_train(objective, cfg.n_iter, init_w)
        w = _d2d.d2d_unlearn(w, updated_objective, unlearn_steps, sigma, rng)
    return evaluate(w, test)[1]


def _ref_sequential_trial(cfg, preset, sigma, schedule, batch, objective, test, t):
    pc = preset.pc
    data = current = objective.data
    rng = _pngd.make_rng(trial_seed(cfg.seed, t))
    removal_order = rng.choice(data.n, size=cfg.s_total, replace=False)
    if cfg.method == "langevin":
        ns = NoiseSchedule(eta=preset.eta, sigma=sigma, T=cfg.n_iter, K=0)
        c0 = default_c0(pc, ns, preset.regime)
        w = _pngd.train(objective, ns,
                        _pngd.InitSpec(mean=cfg.init_mean, variance=c0), rng)
    else:
        shape = ((data.d, data.n_classes) if data.is_multiclass else (data.d,))
        init_w = _pngd.draw_init(_pngd.InitSpec(mean=cfg.init_mean, variance=1.0),
                                 shape, pc.R, rng)
        w = _d2d.d2d_train(objective, cfg.n_iter, init_w)

    for r, steps in enumerate(schedule):
        lo, hi = r * batch, min((r + 1) * batch, cfg.s_total)
        idx = tuple(int(i) for i in removal_order[lo:hi])
        req = UnlearningRequest(indices=idx,
                                replacement_seed=replacement_seed(cfg.seed, t, r))
        current = apply_request(current, req)
        updated_objective = objective_for(current, lam=preset.lam)
        if cfg.method == "langevin":
            ns = NoiseSchedule(eta=preset.eta, sigma=sigma, T=0, K=steps)
            w = _pngd.unlearn(w, updated_objective, steps, ns, rng)
        else:
            w = _d2d.d2d_unlearn(w, updated_objective, steps, sigma, rng)
    return evaluate(w, test)[1]


def _ref_sweep_trial(cfg, preset, sigma, k, objective, test, t):
    # the old sweep trial drew its removal set after training; the runner
    # draws every removal order first, so the draw moves ahead of train
    pc = preset.pc
    data = objective.data
    rng = _pngd.make_rng(trial_seed(cfg.seed, t))
    removal = rng.choice(data.n, size=cfg.s_total, replace=False)
    ns = NoiseSchedule(eta=preset.eta, sigma=sigma, T=cfg.n_iter, K=k)
    c0 = default_c0(pc, ns, preset.regime)
    w = _pngd.train(objective, ns, _pngd.InitSpec(mean=cfg.init_mean, variance=c0), rng)
    req = UnlearningRequest(indices=tuple(int(i) for i in removal),
                            replacement_seed=replacement_seed(cfg.seed, t))
    updated = apply_request(data, req)
    w = _pngd.unlearn(w, objective_for(updated, lam=preset.lam), k, ns, rng)
    return evaluate(w, test)[1]


def _whole_split(blocks):
    """The test split the runner scores, as one Dataset."""
    features, labels = zip(*blocks)
    return Dataset(np.concatenate(features), np.concatenate(labels), normalized=False)


def _ref_evaluate_accs(cfg):
    preset = cfg.resolved_preset()
    sigma = cfg.sigma if cfg.sigma is not None else 0.03
    data, test_blocks = _load_data(cfg)
    test = _whole_split(test_blocks())
    objective = objective_for(data, lam=preset.lam)
    ns = NoiseSchedule(eta=preset.eta, sigma=sigma, T=cfg.n_iter, K=0)
    c0 = default_c0(preset.pc, ns, preset.regime)
    accs = []
    for t in range(max(cfg.trials, 1)):
        rng = _pngd.make_rng(trial_seed(cfg.seed, t))
        w = _pngd.train(objective, ns,
                        _pngd.InitSpec(mean=cfg.init_mean, variance=c0), rng)
        accs.append(evaluate(w, test)[1])
    return accs


def _trial_inputs(cfg):
    preset = cfg.resolved_preset()
    data, test_blocks = _load_data(cfg)
    return preset, objective_for(data, lam=preset.lam), _whole_split(test_blocks())


# softmax regression on 300 rows of 6 features in 3 classes: 18 weights
_THREE_CLASS = ProblemConstants(L=1.002, m=0.002, M=2.0, R=100.0, n=300, d=18, lam=0.002)


@pytest.fixture
def weights(monkeypatch):
    """Bytes of every weight vector scored by the runner or evaluated by a
    reference: accuracy alone is too coarse to tell two trajectories apart."""
    seen = []
    real_accuracies, real_evaluate = harness._accuracies, evaluate

    def scoring(ws, blocks):
        seen.extend(np.asarray(w).tobytes() for w in ws)
        return real_accuracies(ws, blocks)

    def recording(w, data, *args, **kwargs):
        seen.append(np.asarray(w).tobytes())
        return real_evaluate(w, data, *args, **kwargs)
    monkeypatch.setattr(harness, "_accuracies", scoring)
    monkeypatch.setitem(globals(), "evaluate", recording)
    return seen


def _assert_same_trials(weights, accs, reference):
    """The runner's accuracies (already computed) and weight vectors equal
    the reference's, bit for bit."""
    got = list(weights)
    weights.clear()
    assert accs == reference()
    assert got == weights and got


class TestRunnerMatchesReferences:
    @pytest.mark.parametrize("kw", [
        dict(method="langevin"), dict(method="retrain"), dict(method="d2d_thm9"),
        dict(method="d2d_thm28"), dict(method="langevin", k_budget=3),
        dict(method="langevin", constants=_THREE_CLASS, n_classes=3, n_iter=80),
        dict(method="langevin", data_path="train.csv", trials=8),
    ], ids=["langevin", "retrain", "d2d_thm9", "d2d_thm28", "k_budget_3", "three_class",
            "test_is_train"])
    def test_unlearn_one(self, kw, weights, tmp_path, monkeypatch):
        if "data_path" in kw:  # with no test file, the trials evaluate on the training set
            monkeypatch.chdir(tmp_path)
            save_dataset(make_synthetic(SyntheticSpec(), seed=5), kw["data_path"])
        cfg = tiny_cfg(**kw)
        preset, objective, test = _trial_inputs(cfg)
        row, = run_unlearn_one(cfg)
        assert row.error is None
        steps = row.k_total if cfg.method == "d2d_thm28" else cfg.k_budget
        _assert_same_trials(weights, row.per_trial_acc, lambda: [
            _ref_one_trial(cfg, preset, row.sigma, steps, objective, test, t)
            for t in range(cfg.trials)])

    @pytest.mark.parametrize("kw", [
        dict(method="langevin", sigma=0.3, s_total=5, batch=2),
        dict(method="d2d_thm28", s_total=3),
    ], ids=["langevin_uneven_batch", "d2d_thm28"])
    def test_sequential(self, kw, weights):
        cfg = tiny_cfg(trials=2, n_iter=100, **kw)
        preset, objective, test = _trial_inputs(cfg)
        row, = run_sequential(cfg)[0]
        pc = preset.pc
        if cfg.method == "langevin":
            schedule = sequential_k_schedule(1.0, preset.delta, cfg.sigma,
                                             cfg.s_total, cfg.batch, pc, preset.regime,
                                             eta=preset.eta)
            batch = cfg.batch
        else:
            cal = _d2d.d2d_sigma_thm28(1.0, preset.delta, pc.M, pc.m, pc.n,
                                       pc.L, pc.d)
            schedule = [cal.iterations(i) for i in range(1, cfg.s_total + 1)]
            batch = 1
        assert sum(schedule) == row.k_total and len(row.per_trial_acc) == 2
        assert all(k > 0 for k in schedule[1:])  # later requests move the weights
        _assert_same_trials(weights, row.per_trial_acc, lambda: [
            _ref_sequential_trial(cfg, preset, row.sigma, schedule, batch, objective,
                                  test, t) for t in range(cfg.trials)])

    def test_sweep(self, weights):
        cfg = tiny_cfg(sigma_grid=(0.3, 0.5), s_total=3, trials=2, n_iter=60)
        preset, objective, test = _trial_inputs(cfg)
        rows, _ = run_tradeoff_sweep(cfg)
        assert rows[0].k_total > 0
        _assert_same_trials(weights, [row.per_trial_acc for row in rows], lambda: [
            [_ref_sweep_trial(cfg, preset, row.sigma, row.k_total, objective, test, t)
             for t in range(cfg.trials)] for row in rows])

    @pytest.mark.parametrize("trials", [2, 0])
    def test_evaluate(self, trials, weights):
        cfg = tiny_cfg(trials=trials, sigma=0.05, n_iter=120)
        row, = run_evaluate(cfg)
        assert len(row.per_trial_acc) == max(trials, 1)
        _assert_same_trials(weights, row.per_trial_acc, lambda: _ref_evaluate_accs(cfg))


class TestTrialRunner:
    @pytest.mark.parametrize("trials", [0, 2])
    def test_loads_data_once_and_only_for_trials(self, trials, monkeypatch):
        loads = []
        real = harness._load_data
        monkeypatch.setattr(harness, "_load_data", lambda cfg: loads.append(cfg) or real(cfg))
        rows = run_unlearn_one(tiny_cfg(eps_targets=(1.0, 2.0), trials=trials, n_iter=20))
        assert [len(r.per_trial_acc) for r in rows] == [trials, trials]
        assert len(loads) == min(trials, 1)
        rows, _ = run_tradeoff_sweep(tiny_cfg(sigma_grid=(0.3, 0.5), trials=trials, n_iter=20))
        assert [len(r.per_trial_acc) for r in rows] == [trials, trials]
        assert len(loads) == 2 * min(trials, 1)


class TestTrialMemory:
    def test_sequential_trial_holds_no_more_than_unlearn_one(self, extra_bytes):
        # every request of a trial writes its rows into the loaded data: no copy of X
        cfg = tiny_cfg(n_iter=2)
        objective = objective_for(make_synthetic(SyntheticSpec(n=20000, d=100), seed=3),
                                  lam=0.002)  # X: 16 MB

        def peak(requests):
            return extra_bytes(lambda: harness._run_trial(
                cfg, "langevin", 0.5, requests, objective, 0))
        one, sequential = peak([(1, 2)]), peak([(1, 2)] * 3)
        assert one <= 0.25 * objective.data.features.nbytes
        assert sequential <= 1.05 * one

    def test_run_holds_the_training_matrix_and_no_test_split(self, extra_bytes):
        # the generated test split (a quarter of the rows: 4 MB) is drawn and
        # scored a row block at a time, after the trials
        def run(n, d):
            return run_unlearn_one(tiny_cfg(constants=model_constants(n, (d,), 0.002),
                                            trials=2, n_iter=2))
        run(400, 10)  # numpy's lazy imports and caches are not the run's
        assert extra_bytes(lambda: run(20000, 100)) <= 1.1 * 20000 * 100 * 8  # X: 16 MB


def _data_bytes(data):
    return data.features.tobytes(), data.labels.tobytes()


class TestTrialPutsDataBack:
    """A trial writes its requests' rows into the loaded training data and
    puts the original rows back, also when it raises."""

    @pytest.fixture
    def objective(self):
        return objective_for(make_synthetic(SyntheticSpec(n=300, d=5), seed=1), lam=0.002)

    @pytest.mark.parametrize("method,requests", [
        ("langevin", [(1, 2)]), ("retrain", [(1, 2)]), ("d2d_thm9", [(1, 2)]),
        ("langevin", [(2, 2)] * 3),
    ], ids=["langevin", "retrain", "d2d_thm9", "langevin_sequence"])
    def test_rows_put_back(self, objective, method, requests):
        before = _data_bytes(objective.data)
        harness._run_trial(tiny_cfg(n_iter=5), method, 0.5, requests, objective, 0)
        assert _data_bytes(objective.data) == before

    @pytest.mark.parametrize("method,engine", [("langevin", "unlearn"), ("retrain", "train")])
    def test_rows_put_back_when_the_trial_raises(self, objective, method, engine, monkeypatch):
        before, replaced = _data_bytes(objective.data), []

        def fail(*args, **kwargs):
            replaced.append(_data_bytes(objective.data) != before)
            raise RuntimeError("engine failed")
        monkeypatch.setattr(harness._pngd, engine, fail)
        with pytest.raises(RuntimeError, match="engine failed"):
            harness._run_trial(tiny_cfg(n_iter=5), method, 0.5, [(2, 2)] * 3, objective, 0)
        assert replaced == [True]  # it raised after a request wrote its rows
        assert _data_bytes(objective.data) == before


class TestConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(ConfigError):
            tiny_cfg(method="gradient-ascent")

    @pytest.mark.parametrize("field,value", [
        ("delta", 0.0), ("delta", 1.0), ("delta", float("nan")), ("k_budget", -1),
        ("batch", 0), ("s_total", 0), ("n_iter", -1), ("sigma", 0.0),
        ("sigma", float("inf")), ("sigma", float("nan")), ("sigma_grid", (0.1, 0.0)),
        ("sigma_grid", (float("nan"),)), ("eps_targets", (float("nan"),)),
        ("init_mean", float("nan")), ("init_mean", float("inf")), ("preset", "bogus"),
        ("sigma", 1e200), ("sigma", 1e-300), ("sigma_grid", (float("inf"),)),
        ("sigma_grid", (0.5, 1e151)), ("sigma", -1.0), ("trials", 1.5), ("seed", 1.5),
        ("k_budget", 1.5), ("batch", 1.5), ("s_total", 2.5), ("n_iter", 2.5),
    ])
    def test_rejects_out_of_range_numbers(self, field, value):
        with pytest.raises(ConfigError):
            tiny_cfg(**{field: value})

    def test_delta_defaults_to_reciprocal_n(self):
        cfg = tiny_cfg()
        pc = harness._certified(cfg)
        assert cfg.resolved_delta(pc) == pytest.approx(1.0 / 2000)
        assert tiny_cfg(delta=1e-6).resolved_delta(pc) == 1e-6
        # with a trained objective, its constants and 1/n of its rows
        objective = objective_for(make_synthetic(SyntheticSpec(n=300, d=5), seed=1), lam=0.002)
        assert harness._certified(cfg, objective) is objective.constants
        assert cfg.resolved_delta(objective.constants) == 1.0 / 300

    def test_trials_default_is_100(self):
        assert ExperimentConfig().trials == 100

    def test_explicit_constants_override_preset(self):
        from certunlearn import ProblemConstants

        pc = ProblemConstants(L=0.251, m=0.001, M=1.0, R=100.0, n=500, d=6,
                              lam=0.001)
        cfg = tiny_cfg(constants=pc, trials=1, n_iter=40)
        preset = cfg.resolved_preset()
        assert preset.pc == pc
        assert harness._certified(cfg) == pc and cfg.resolved_delta(pc) == 1.0 / 500
        rows = run_unlearn_one(cfg)
        assert rows[0].error is None and 0.0 <= rows[0].acc_mean <= 1.0


class TestConstantsBundle:
    """An explicit constants bundle must equal the constants of the model it
    certifies: those of the objective the trials trained, or of the model
    the bundle names when no chain runs."""

    _PC = ProblemConstants(L=0.251, m=0.001, M=1.0, R=100.0, n=500, d=6, lam=0.001)

    @pytest.mark.parametrize("protocol,kw", [
        (run_unlearn_one, {}), (run_sequential, dict(sigma=0.3)),
        (run_tradeoff_sweep, dict(sigma_grid=(0.5,))), (run_evaluate, {}),
    ], ids=["unlearn-one", "sequential", "sweep", "evaluate"])
    def test_trial_protocols(self, tmp_path, protocol, kw):
        data = tmp_path / "data.csv"
        save_dataset(make_synthetic(SyntheticSpec(n=400, d=5), seed=1), str(data))
        with pytest.raises(ConfigError, match=r"in n=500 \(model 400\), d=6 \(model 5\)$"):
            protocol(tiny_cfg(constants=self._PC, data_path=str(data), trials=1, n_iter=5, **kw))
        with pytest.raises(ConfigError, match=r"in L=0\.3 \(model 0\.251\)$"):
            protocol(tiny_cfg(constants=self._PC.with_(L=0.3), trials=0, **kw))

    def test_no_chain(self):
        with pytest.raises(ConfigError, match=r"in L=0\.3 \(model 0\.251\)$"):
            run_calibrate_sigma(tiny_cfg(constants=self._PC.with_(L=0.3)))
        # the clip and parameter count of softmax regression on 3 classes
        with pytest.raises(ConfigError, match=r"in M=1\.0 \(model 2\.0\)$"):
            run_unlearn_one(tiny_cfg(constants=_THREE_CLASS.with_(M=1.0), n_classes=3,
                                     trials=0))


class TestCalibrateSigma:
    def test_feasible_target_and_error_row(self):
        cfg = tiny_cfg(preset="mnist38", eps_targets=(1.0, 1e-9), seed=4)
        ok, bad = run_calibrate_sigma(cfg)
        preset = cfg.resolved_preset()
        delta = preset.delta
        sigma = binary_search_sigma(1.0, delta, 1, preset.pc, preset.regime, S=1,
                                    eta=preset.eta)
        ns = NoiseSchedule(eta=preset.eta, sigma=sigma, T=INFINITE, K=1)
        cert = converted_epsilon(preset.pc, ns, preset.regime, 1, 1, delta)
        assert (ok.method, ok.sigma, ok.epsilon_achieved, ok.k_total, ok.seed) == \
            ("langevin", sigma, cert, 1, 4)
        assert ok.error is None and cert <= 1.0 and ok.per_trial_acc == []
        assert bad.epsilon_target == 1e-9 and "unreachable" in bad.error
        assert (bad.sigma, bad.epsilon_achieved, bad.k_total) == (None, None, None)

    def test_cap_overflow_is_an_error_row(self, monkeypatch):
        search = harness.binary_search_sigma

        def overflowing_first(eps_hat, *args, **kw):
            if eps_hat == 2.0:
                raise CapOverflow(800.0)
            return search(eps_hat, *args, **kw)
        monkeypatch.setattr(harness, "binary_search_sigma", overflowing_first)
        bad, ok = run_calibrate_sigma(tiny_cfg(preset="mnist38", eps_targets=(2.0, 1.0)))
        assert (bad.epsilon_target, bad.sigma) == (2.0, None)
        assert bad.error == str(CapOverflow(800.0))
        expected, = run_calibrate_sigma(tiny_cfg(preset="mnist38", eps_targets=(1.0,)))
        assert (ok.error, ok.sigma) == (None, expected.sigma)


class TestUnlearnOne:
    def test_rows_carry_reverifiable_certificates(self):
        cfg = tiny_cfg(eps_targets=(1.0, 2.0))
        rows = run_unlearn_one(cfg)
        preset = cfg.resolved_preset()
        for row in rows:
            assert row.error is None
            assert row.epsilon_achieved <= row.epsilon_target
            ns = NoiseSchedule(eta=preset.eta, sigma=row.sigma, T=INFINITE,
                               K=row.k_total)
            again = converted_epsilon(preset.pc, ns, preset.regime, 1,
                                      row.k_total, preset.delta)
            assert again == row.epsilon_achieved
            assert 0.0 <= row.acc_mean <= 1.0
            assert row.acc_std >= 0.0

    def test_infeasible_target_yields_error_row_not_abort(self):
        cfg = tiny_cfg(eps_targets=(1e-9, 1.0), trials=1, n_iter=30)
        rows = run_unlearn_one(cfg)
        assert rows[0].error is not None and rows[0].acc_mean is None
        assert rows[1].error is None

    def test_memory_level_determinism(self):
        a = run_unlearn_one(tiny_cfg())
        b = run_unlearn_one(tiny_cfg())
        assert [r.per_trial_acc for r in a] == [r.per_trial_acc for r in b]

    def test_retrain_method_reports_zero_epsilon(self):
        rows = run_unlearn_one(tiny_cfg(method="retrain", trials=1, n_iter=50))
        assert rows[0].epsilon_achieved == 0.0
        assert rows[0].k_total == 50


class TestSequential:
    def test_schedule_only_run_without_trials(self, mnist):
        cfg = tiny_cfg(preset="mnist38", sigma=0.02, trials=0,
                       s_total=10, batch=5)
        rows, plot = run_sequential(cfg)
        assert rows[0].acc_mean is None
        assert len(plot) == 2
        assert plot[0][0] == 5 and plot[1][0] == 10
        assert plot[1][1] >= plot[0][1] > 0
        assert rows[0].k_total == plot[1][1]

    def test_requires_sigma(self):
        with pytest.raises(ConfigError, match="sigma"):
            run_sequential(tiny_cfg(trials=0, s_total=4, batch=2))

    def test_d2d_thm28_schedule(self):
        cfg = tiny_cfg(preset="mnist38", method="d2d_thm28", trials=0, s_total=5)
        rows, plot = run_sequential(cfg)
        assert len(plot) == 5
        increments = np.diff([0] + [p[1] for p in plot])
        assert np.all(increments >= 92)

    def test_accuracy_stream_runs(self):
        cfg = tiny_cfg(sigma=0.3, trials=2, s_total=4, batch=2, n_iter=100)
        rows, _ = run_sequential(cfg)
        assert rows[0].acc_mean is not None
        assert len(rows[0].per_trial_acc) == 2


class TestSingleTarget:
    @pytest.mark.parametrize("protocol,kw", [
        (run_sequential, dict(sigma=0.3)), (run_tradeoff_sweep, dict(sigma_grid=(0.5,))),
    ], ids=["sequential", "sweep"])
    def test_second_target_rejected(self, protocol, kw):
        with pytest.raises(ConfigError, match="one eps target"):
            protocol(tiny_cfg(trials=0, eps_targets=(1.0, 5.0), **kw))

    def test_sweep_rows_are_langevin(self):
        rows, _ = run_tradeoff_sweep(tiny_cfg(method="retrain", sigma_grid=(0.5,), trials=0))
        assert [row.method for row in rows] == ["langevin"]

    def test_evaluate_row_carries_the_default_target(self):
        row, = run_evaluate(tiny_cfg(trials=1, sigma=0.05, n_iter=20, eps_targets=(7.0,)))
        assert row.epsilon_target == ExperimentConfig().eps_targets[0] == 1.0

    def test_d2d_thm9_without_steps_is_an_error_row(self):
        row, = run_unlearn_one(tiny_cfg(method="d2d_thm9", k_budget=0, trials=0))
        assert row.sigma is None and "I must be >= 1" in row.error


class TestSweep:
    def test_structure_and_monotone_k(self):
        cfg = tiny_cfg(sigma_grid=(0.2, 0.5, 1.0), s_total=5, trials=1, n_iter=60)
        rows, plot = run_tradeoff_sweep(cfg)
        ks = [r.k_total for r in rows]
        assert all(a >= b for a, b in zip(ks, ks[1:]))
        eps0 = [p[1] for p in plot]
        assert all(a > b for a, b in zip(eps0, eps0[1:]))
        for row in rows:
            assert row.epsilon_achieved <= row.epsilon_target

    def test_needs_grid(self):
        with pytest.raises(ConfigError, match="grid"):
            run_tradeoff_sweep(tiny_cfg())


class TestEvaluate:
    def test_single_training_row(self):
        rows = run_evaluate(tiny_cfg(trials=2, sigma=0.05, n_iter=200))
        assert rows[0].method == "evaluate"
        assert 0.5 <= rows[0].acc_mean <= 1.0


class TestEmission:
    def test_single_row_two_lines(self, tmp_path):
        out = tmp_path / "r.csv"
        emit_results([TrialResult("langevin", 0.1, 1.0, 0.9, 3, 0.8, 0.01,
                                  None, 0)], str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("method,sigma")

    def test_reemit_byte_identical(self, tmp_path):
        rows = [TrialResult("langevin", 0.1, 1.0, 0.9, 3, 0.8, 0.01, None, 0,
                            per_trial_acc=[0.8, 0.81])]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(rows, str(a))
        emit_results(rows, str(b))
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.trials.csv").read_bytes() == \
            (tmp_path / "b.trials.csv").read_bytes()

    def test_refuses_empty_table(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], str(tmp_path / "x.csv"))

    def test_unwritable_path_raises_oserror(self):
        with pytest.raises(OSError):
            emit_results([TrialResult("m", 1.0, 1.0, 1.0, 1, None, None, None, 0)],
                         "/nonexistent-dir/x.csv")

    def test_trial_log_reproduces_aggregates(self, tmp_path):
        cfg = tiny_cfg(trials=5, n_iter=60)
        rows = run_unlearn_one(cfg)
        out = tmp_path / "res.csv"
        emit_results(rows, str(out))
        log_lines = (tmp_path / "res.trials.csv").read_text().splitlines()[1:]
        accs = np.array([float(l.split(",")[-1]) for l in log_lines])
        assert abs(accs.mean() - rows[0].acc_mean) < 1e-12
        assert abs(accs.std(ddof=1) - rows[0].acc_std) < 1e-12
        seeds = [int(l.split(",")[4]) for l in log_lines]
        assert seeds == [trial_seed(cfg.seed, t) for t in range(5)]

    def test_wall_ms_empty_without_timing(self, tmp_path):
        cfg = tiny_cfg(trials=1, n_iter=30)
        rows = run_unlearn_one(cfg)
        out = tmp_path / "t.csv"
        emit_results(rows, str(out))
        fields = out.read_text().splitlines()[1].split(",")
        assert fields[7] == ""

    def test_timing_opt_in(self, tmp_path):
        cfg = tiny_cfg(trials=1, n_iter=30, timing=True)
        rows = run_unlearn_one(cfg)
        assert rows[0].wall_ms is not None and rows[0].wall_ms > 0.0

    def test_path_helpers(self):
        assert trials_log_path("x.csv") == "x.trials.csv"
        assert plot_data_path("out/run.csv") == "out/run.plot.csv"
