import numpy as np
import pytest

from certunlearn import (ConfigError, INFINITE, NoiseSchedule, converted_epsilon,
                         get_preset)
from certunlearn.harness import (ExperimentConfig, TrialResult, emit_results,
                                 plot_data_path, run_evaluate, run_sequential,
                                 run_tradeoff_sweep, run_unlearn_one, trial_seed,
                                 trials_log_path)


def tiny_cfg(**kw):
    base = dict(preset="synthetic", method="langevin", eps_targets=(1.0,),
                trials=3, seed=7, n_iter=150, out="unused.csv")
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(ConfigError):
            tiny_cfg(method="gradient-ascent")

    @pytest.mark.parametrize("field,value", [
        ("delta", 0.0), ("delta", 1.0), ("delta", float("nan")), ("k_budget", -1),
        ("batch", 0), ("s_total", 0), ("n_iter", -1), ("sigma", 0.0),
        ("sigma", float("inf")), ("sigma", float("nan")), ("sigma_grid", (0.1, 0.0)),
        ("sigma_grid", (float("nan"),)), ("eps_targets", (float("nan"),)),
        ("init_mean", float("nan")), ("init_mean", float("inf")),
    ])
    def test_rejects_out_of_range_numbers(self, field, value):
        with pytest.raises(ConfigError):
            tiny_cfg(**{field: value})

    def test_delta_defaults_to_reciprocal_n(self):
        cfg = tiny_cfg()
        assert cfg.resolved_delta() == pytest.approx(1.0 / 2000)
        assert tiny_cfg(delta=1e-6).resolved_delta() == 1e-6

    def test_trials_default_is_100(self):
        assert ExperimentConfig().trials == 100

    def test_explicit_constants_override_preset(self):
        from certunlearn import ProblemConstants

        pc = ProblemConstants(L=0.251, m=0.001, M=1.0, R=100.0, n=500, d=6,
                              lam=0.001)
        cfg = tiny_cfg(constants=pc, trials=1, n_iter=40)
        preset = cfg.resolved_preset()
        assert preset.pc is pc
        assert cfg.resolved_delta() == pytest.approx(1.0 / 500)
        rows = run_unlearn_one(cfg)
        assert rows[0].error is None and 0.0 <= rows[0].acc_mean <= 1.0


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
                                      row.k_total, cfg.resolved_delta())
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
