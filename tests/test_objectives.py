import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from certunlearn import (Dataset, InitSpec, NoiseSchedule, UnlearningRequest,
                         apply_request, d2d_train, d2d_unlearn, default_c0, evaluate,
                         logistic_objective, make_rng, make_synthetic,
                         multiclass_objective, objective_for, pngd_step, project_ball,
                         quadratic_objective, regime_for, SyntheticSpec, train, unlearn)
from certunlearn import objectives
from certunlearn.objectives import _BLOCK_BYTES, _row_norms, normalize_rows, one_hot
from certunlearn.pngd import draw_init


def binary_data(n=40, d=6, seed=0):
    rng = make_rng(seed)
    X = rng.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    y = rng.integers(0, 2, n) * 2 - 1
    return Dataset(features=X, labels=y.astype(int), normalized=True)


def onehot_data(n=40, d=6, c=4, seed=0):
    rng = make_rng(seed)
    X = rng.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    labels = rng.integers(0, c, n)
    Y = np.zeros((n, c), dtype=int)
    Y[np.arange(n), labels] = 1
    return Dataset(features=X, labels=Y, normalized=True)


def logistic_per_sample(data, w):
    """Raw (pre-clip) per-sample data gradients of the logistic loss."""
    coef, _ = ref_coef_scale(data, w)
    return coef[:, None] * data.features


def softmax_per_sample(data, W):
    """Raw (pre-clip) per-sample data gradients x (p - y)^T of the softmax loss."""
    X = data.features
    Z = X @ W
    E = np.exp(Z - Z.max(axis=1, keepdims=True))
    return X[:, :, None] * (E / E.sum(axis=1, keepdims=True) - data.labels)[:, None, :]


def central_diff(loss, w, eps=1e-6):
    g = np.zeros_like(w, dtype=float)
    it = np.nditer(w, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        wp, wm = w.copy(), w.copy()
        wp[idx] += eps
        wm[idx] -= eps
        g[idx] = (loss(wp) - loss(wm)) / (2.0 * eps)
        it.iternext()
    return g


class TestDatasetValidation:
    def test_rejects_non_unit_rows_when_marked_normalized(self):
        X = np.ones((3, 2))
        with pytest.raises(ValueError, match="normalized"):
            Dataset(features=X, labels=np.array([1, -1, 1]), normalized=True)

    def test_rejects_bad_binary_labels(self):
        X = np.eye(3)
        with pytest.raises(ValueError, match="binary labels"):
            Dataset(features=X, labels=np.array([0, 1, 2]), normalized=True)

    def test_rejects_non_onehot(self):
        X = np.eye(3)
        Y = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(ValueError, match="one-hot"):
            Dataset(features=X, labels=Y, normalized=True)


class TestLogistic:
    def test_zero_weights_closed_form(self):
        data = binary_data()
        obj = logistic_objective(data, lam=0.01)
        w = np.zeros(data.d)
        assert evaluate(w, data, 0.01)[0] == pytest.approx(math.log(2.0), rel=1e-12)
        expect = -0.5 * data.labels[:, None] * data.features
        assert logistic_per_sample(data, w) == pytest.approx(expect, rel=1e-12)
        assert obj.grad(w) == pytest.approx(expect.mean(axis=0), rel=1e-12, abs=1e-15)

    def test_unit_norm_inputs_never_clip(self):
        data = binary_data(seed=3)
        obj = logistic_objective(data, lam=0.0)
        rng = make_rng(1)
        for _ in range(50):
            w = 10.0 * rng.standard_normal(data.d)
            per_sample = logistic_per_sample(data, w)
            norms = np.linalg.norm(per_sample, axis=1)
            assert np.all(norms <= 1.0 + 1e-12)
            # mean of per-sample grads + reg equals the clipped update
            expect = per_sample.mean(axis=0)
            assert obj.grad(w) == pytest.approx(expect, rel=1e-12, abs=1e-15)

    def test_mnist_constants(self):
        data = binary_data()
        obj = logistic_objective(data, lam=0.0119)
        pc = obj.constants
        assert pc.L == pytest.approx(0.2619, rel=1e-12)
        assert pc.m == 0.0119
        assert pc.M == 1.0

    def test_default_lambda_follows_n(self):
        data = binary_data(n=50)
        assert logistic_objective(data).constants.lam == pytest.approx(5e-5, rel=1e-12)

    def test_rejects_unnormalized_without_override(self):
        X = 2.0 * np.eye(3)
        data = Dataset(features=X, labels=np.array([1, -1, 1]), normalized=False)
        with pytest.raises(ValueError, match="normalized"):
            logistic_objective(data)
        with pytest.raises(ValueError, match="normalized"):
            multiclass_objective(Dataset(features=X, labels=np.eye(3, dtype=int),
                                         normalized=False))

    def test_gradient_matches_finite_differences(self):
        data = binary_data(n=25, d=5, seed=9)
        obj = logistic_objective(data, lam=0.037)

        def loss(v):
            return evaluate(v, data, 0.037)[0]

        rng = make_rng(4)
        for _ in range(20):
            w = rng.standard_normal(5)
            assert obj.grad(w) == pytest.approx(central_diff(loss, w), rel=1e-5)

    def test_strong_monotonicity_modulus(self):
        data = binary_data(n=30, d=4, seed=5)
        lam = 0.05
        obj = logistic_objective(data, lam=lam)
        rng = make_rng(8)
        for _ in range(60):
            u, v = rng.standard_normal(4), rng.standard_normal(4)
            gap = np.dot(obj.grad(u) - obj.grad(v), u - v)
            assert gap >= lam * np.sum((u - v) ** 2) * (1.0 - 1e-9)


class TestMulticlass:
    def test_zero_weights_uniform(self):
        data = onehot_data(c=5)
        obj = multiclass_objective(data, lam=0.02)
        W = np.zeros((data.d, 5))
        assert evaluate(W, data, 0.02)[0] == pytest.approx(math.log(5.0), rel=1e-12)
        grads = softmax_per_sample(data, W)
        expect = data.features[:, :, None] * (0.2 - data.labels)[:, None, :]
        assert grads == pytest.approx(expect, rel=1e-12)
        assert obj.grad(W) == pytest.approx(expect.mean(axis=0), rel=1e-12, abs=1e-15)

    def test_constants(self):
        data = onehot_data()
        obj = multiclass_objective(data, lam=0.0499)
        assert obj.constants.L == pytest.approx(1.0499, rel=1e-12)
        assert obj.constants.m == 0.0499
        assert obj.constants.M == 2.0

    def test_unit_norm_grad_within_clip(self):
        data = onehot_data(seed=2)
        obj = multiclass_objective(data, lam=0.0)
        rng = make_rng(6)
        for _ in range(30):
            W = 5.0 * rng.standard_normal((data.d, data.n_classes))
            per_sample = softmax_per_sample(data, W)
            norms = np.linalg.norm(per_sample.reshape(data.n, -1), axis=1)
            assert np.all(norms <= 2.0 + 1e-12)
            # the clip never fires, so the update is the plain mean
            assert obj.grad(W) == pytest.approx(per_sample.mean(axis=0), rel=1e-12, abs=1e-15)

    def test_gradient_matches_finite_differences(self):
        data = onehot_data(n=15, d=4, c=3, seed=7)
        obj = multiclass_objective(data, lam=0.021)

        def loss(V):
            return evaluate(V, data, 0.021)[0]

        rng = make_rng(10)
        for _ in range(10):
            W = rng.standard_normal((4, 3))
            assert obj.grad(W) == pytest.approx(central_diff(loss, W), rel=1e-5)

    def test_shape_mismatch_rejected(self):
        data = onehot_data(c=3)
        obj = multiclass_objective(data, lam=0.1)
        with pytest.raises(ValueError, match="shape"):
            obj.grad(np.zeros((data.d, 4)))
        with pytest.raises(ValueError, match="shape"):
            evaluate(np.zeros((data.d, 4)), data, 0.1)


class TestQuadratic:
    def test_gradient_at_center_and_offset(self):
        center = np.array([1.0, -2.0])
        obj = quadratic_objective(center, 0.7)
        assert np.array_equal(obj.grad(center), np.zeros(2))
        off = center + np.array([1.0, 0.0])
        assert obj.grad(off) == pytest.approx([0.7, 0.0], rel=1e-15)

    def test_constants_equal_curvature(self):
        obj = quadratic_objective(np.zeros(3), 0.4)
        assert obj.constants.L == obj.constants.m == 0.4


class TestObjectiveFor:
    def test_builder_and_shape_follow_the_labels(self):
        binary = objective_for(binary_data(), lam=0.01, radius=5.0)
        onehot = objective_for(onehot_data(c=3), lam=0.01, radius=5.0)
        assert (binary.shape, binary.constants.R) == ((6,), 5.0)
        assert (onehot.shape, onehot.constants.d) == ((6, 3), 18)
        assert quadratic_objective(np.zeros(4), 1.0).shape == (4,)


class TestApplyRequest:
    def test_empty_request_is_identity(self):
        data = binary_data()
        req = UnlearningRequest(indices=(), replacement_seed=1)
        assert apply_request(data, req) is data

    def test_deterministic_under_seed(self):
        data = binary_data()
        req = UnlearningRequest(indices=tuple(range(data.n)), replacement_seed=42)
        a = apply_request(data, req)
        b = apply_request(data, req)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_locality(self):
        data = binary_data()
        req = UnlearningRequest(indices=(5,), replacement_seed=3)
        out = apply_request(data, req)
        mask = np.arange(data.n) != 5
        assert np.array_equal(out.features[mask], data.features[mask])
        assert np.array_equal(out.labels[mask], data.labels[mask])
        assert not np.array_equal(out.features[5], data.features[5])

    def test_replacement_rows_unit_norm_by_default(self):
        data = binary_data()
        req = UnlearningRequest(indices=(0, 1, 2), replacement_seed=9)
        out = apply_request(data, req)
        assert np.linalg.norm(out.features[:3], axis=1) == pytest.approx(
            np.ones(3), rel=1e-12)

    def test_multiclass_replacement_labels_one_hot(self):
        data = onehot_data()
        req = UnlearningRequest(indices=(1, 3), replacement_seed=5)
        out = apply_request(data, req)
        assert np.all(out.labels.sum(axis=1) == 1)

    def test_bad_indices(self):
        data = binary_data()
        with pytest.raises(IndexError):
            apply_request(data, UnlearningRequest(indices=(data.n,), replacement_seed=0))
        with pytest.raises(ValueError, match="distinct"):
            UnlearningRequest(indices=(1, 1), replacement_seed=0)


class TestEvaluate:
    def test_zero_params_tie_goes_positive(self):
        data = binary_data()
        _, acc = evaluate(np.zeros(data.d), data)
        assert acc == pytest.approx(np.mean(data.labels == 1))

    def test_true_separator_is_perfect(self):
        rng = make_rng(12)
        w_star = rng.standard_normal(5)
        X = rng.standard_normal((100, 5))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        y = np.where(X @ w_star >= 0, 1, -1)
        data = Dataset(features=X, labels=y.astype(int), normalized=True)
        _, acc = evaluate(w_star, data)
        assert acc == 1.0

    def test_multiclass_argmax(self):
        data = onehot_data(c=3)
        W = np.zeros((data.d, 3))
        _, acc = evaluate(W, data)
        # all-zero scores: argmax tie resolves to class 0
        assert acc == pytest.approx(np.mean(np.argmax(data.labels, axis=1) == 0))

    @pytest.mark.parametrize("c", [2, 3])
    def test_loss_is_the_written_out_loss(self, c):
        data = binary_data() if c == 2 else onehot_data(c=c)
        w = make_rng(13).standard_normal((data.d,) if c == 2 else (data.d, c))
        scores = data.features @ w
        if c == 2:
            mean = np.mean(np.logaddexp(0.0, -(data.labels * scores)))
        else:
            Z = scores - scores.max(axis=1, keepdims=True)
            log_probs = Z - np.log(np.exp(Z).sum(axis=1, keepdims=True))
            mean = np.mean(-np.sum(data.labels * log_probs, axis=1))
        assert evaluate(w, data, lam=0.25)[0] == float(mean + 0.5 * 0.25 * np.sum(w * w))

    def test_synthetic_well_separated(self):
        data = make_synthetic(SyntheticSpec(n=400, d=10), seed=21)
        u = (data.features[data.labels == 1].mean(axis=0)
             - data.features[data.labels == -1].mean(axis=0))
        _, acc = evaluate(u, data)
        assert acc > 0.95


# Reference: the coefficient -y/(1 + exp(y x.w)) and the all-rows clip that
# the lean logistic gradient must reproduce bit for bit.
def ref_coef_scale(data, w, M=1.0):
    X, y = data.features, data.labels.astype(float)
    with np.errstate(over="ignore"):
        coef = -y / (1.0 + np.exp(y * (X @ w)))
    norms = np.abs(coef) * np.linalg.norm(X, axis=1)
    scale = np.where(norms > M, M / np.where(norms > 0, norms, 1.0), 1.0)
    return coef, scale


def ref_grad(data, lam, w):
    coef, scale = ref_coef_scale(data, w)
    return data.features.T @ (coef * scale) / data.n + lam * w


def ref_project_ball(v, R):
    v = np.asarray(v, dtype=float)
    norm = float(np.sqrt(np.sum(v * v)))
    return v if norm <= R else v * (R / norm)


def long_row_data(n=300, d=7, seed=0):
    """Binary data marked normalized, with row norms spread over 1 +- 9e-13
    (inside the unit-norm tolerance), so the rows longer than 1 can clip."""
    rng = make_rng(seed)
    X = rng.standard_normal((n, d))
    X *= rng.uniform(1.0 - 9e-13, 1.0 + 9e-13, (n, 1)) / np.linalg.norm(X, axis=1, keepdims=True)
    y = rng.integers(0, 2, n) * 2 - 1
    return Dataset(features=X, labels=y.astype(int), normalized=True)


class TestExactGradient:
    """The logistic gradient equals the reference formula exactly."""

    def test_normalized_synthetic(self):
        data = make_synthetic(SyntheticSpec(n=2000, d=20), seed=0)
        obj = logistic_objective(data, lam=0.002)
        rng = make_rng(2)
        for scale in (0.0, 0.1, 1.0, 10.0, 100.0):
            for _ in range(10):
                w = scale * rng.standard_normal(data.d)
                assert np.array_equal(obj.grad(w), ref_grad(data, 0.002, w))

    def test_unnormalized_clip_fires(self):
        data = long_row_data()
        obj = logistic_objective(data, lam=0.01)
        rng = make_rng(3)
        fired = 0
        for _ in range(200):
            w = 10.0 ** rng.uniform(0, 3) * rng.standard_normal(data.d)
            fired += np.any(ref_coef_scale(data, w)[1] < 1.0)
            assert np.array_equal(obj.grad(w), ref_grad(data, 0.01, w))
        assert fired > 100

    def test_zero_coef_on_long_rows_warns_nothing(self):
        data = long_row_data(seed=4)
        obj = logistic_objective(data, lam=0.01)
        rng = make_rng(5)
        w = 1e4 * rng.standard_normal(data.d)
        coef, scale = ref_coef_scale(data, w)
        long = np.linalg.norm(data.features, axis=1) > 1.0
        assert np.any(coef[long] == 0.0) and np.any(scale < 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = obj.grad(w)
        assert np.array_equal(got, ref_grad(data, 0.01, w))

    def test_project_ball(self):
        rng = make_rng(8)
        for shape in ((9,), (6, 4)):
            for _ in range(200):
                v = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(shape)
                R = 10.0 ** rng.uniform(-2, 3)
                assert np.array_equal(project_ball(v, R), ref_project_ball(v, R))


def unit_row_coef(t, label):
    """The logistic coefficient at margin t for a row labelled `label`, read
    off grad on the one-row dataset X = [[1]] with lam = 0: X @ w is w, and
    grad(w) is the coefficient itself (a -0 reads back as +0)."""
    obj = logistic_objective(Dataset(features=np.ones((1, 1)), labels=np.array([label])),
                             lam=0.0)
    return np.array([obj.grad(np.array([label * ti]))[0] for ti in t])


def sigmoid_chain_coef(t, label):
    """The earlier (sigmoid(t) - 1) * y, with the two-branch sigmoid, which
    cancels as sigmoid(t) nears 1."""
    e = np.exp(-np.abs(t))
    return (np.where(t >= 0, 1.0, e) / (1.0 + e) - 1.0) * label


class TestCoefficientPrecision:
    """The logistic coefficient -y/(1 + exp(t)) against mpmath at 50 digits:
    a relative error within four unit roundoffs (2**-53) wherever exp(t) is
    finite, |coef| <= 1 exactly, and a signed 0 with no warning where exp(t)
    overflows."""

    T = np.concatenate([np.linspace(-745.0, 708.0, 20001), [0.0, -0.0, 20.0, 36.0, 40.0]])

    @pytest.fixture(scope="class")
    def exact(self):
        with mp.workdps(50):
            return [1 / (1 + mp.exp(mp.mpf(float(t)))) for t in self.T]

    def rel_errors(self, coef, exact):
        """Relative errors of coef(T, label) against the exact coefficient,
        per label, once |coef| <= 1 holds exactly."""
        errs = {}
        with mp.workdps(50):
            for label in (1, -1):
                got = coef(self.T, label)
                assert np.all(np.abs(got) <= 1.0)
                errs[label] = np.array([float(abs(mp.mpf(float(g)) + label * x) / x)
                                        for g, x in zip(got, exact)])
        return errs

    def assert_precise(self, coef, exact):
        for errs in self.rel_errors(coef, exact).values():
            assert errs.max() <= 4 * 2.0 ** -53

    def test_within_four_ulps_and_at_most_one(self, exact):
        self.assert_precise(unit_row_coef, exact)

    def test_signed_zero_past_exp_overflow(self):
        t = np.linspace(709.8, 1e4, 1001)[1:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for label in (1, -1):
                assert np.all(unit_row_coef(t, label) == 0.0)

    def test_the_sigmoid_chain_fails(self, exact):
        # the earlier formula loses the coefficient to cancellation
        with pytest.raises(AssertionError):
            self.assert_precise(sigmoid_chain_coef, exact)
        errs = self.rel_errors(sigmoid_chain_coef, exact)
        at = {t: int(np.flatnonzero(self.T == t)[0]) for t in (20.0, 40.0)}
        for label in (1, -1):
            assert errs[label][at[20.0]] == pytest.approx(3.6e-8, rel=0.05)
            assert errs[label][at[40.0]] == 1.0


def same_state(a, b):
    """Generator states are equal (Philox keeps its counter in arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


class TestExactTrajectory:
    """Engine runs with the logistic gradient and with the reference gradient
    from the same seed end in the same weights and generator state."""

    def reference_pair(self):
        data = make_synthetic(SyntheticSpec(n=300, d=8), seed=11)
        updated = apply_request(data, UnlearningRequest(indices=(17,), replacement_seed=3))
        pair = []
        for d in (data, updated):
            obj = logistic_objective(d, lam=0.01)
            ref = dataclasses.replace(obj, grad=lambda w, d=d: ref_grad(d, 0.01, w))
            pair.append((obj, ref))
        return pair

    def test_train_then_unlearn(self):
        (obj, ref), (obj2, ref2) = self.reference_pair()
        ns = NoiseSchedule(eta=1.0, sigma=0.05, T=300, K=20)
        ends = []
        for o, o2 in ((obj, obj2), (ref, ref2)):
            rng = make_rng(21)
            w = train(o, ns, InitSpec(mean=50.0, variance=0.5), rng)
            w = unlearn(w, o2, ns.K, ns, rng)
            ends.append((w, rng.bit_generator.state))
        assert np.array_equal(ends[0][0], ends[1][0])
        assert same_state(ends[0][1], ends[1][1])

    def test_d2d_train_then_unlearn(self):
        (obj, ref), (obj2, ref2) = self.reference_pair()
        ends = []
        for o, o2 in ((obj, obj2), (ref, ref2)):
            rng = make_rng(22)
            w = d2d_train(o, 300, np.full(8, 40.0))
            w = d2d_unlearn(w, o2, 10, 0.05, rng)
            ends.append((w, rng.bit_generator.state))
        assert np.array_equal(ends[0][0], ends[1][0])
        assert same_state(ends[0][1], ends[1][1])


def composition_data(kind):
    """Binary, three-class or two-column one-hot data, and the same data with
    rows 4 and 77 replaced."""
    data = make_synthetic(SyntheticSpec(n=150, d=6, n_classes=3 if kind == "three_class" else 2),
                          seed=21)
    if kind == "two_class_softmax":
        data = Dataset(features=data.features, labels=one_hot((data.labels + 1) // 2, 2))
    return data, apply_request(data, UnlearningRequest(indices=(4, 77), replacement_seed=3))


_KINDS = ["binary", "three_class", "two_class_softmax"]


class TestEngineCompositions:
    """Training then unlearning, on either model and at a radius that binds,
    is the step loop it stands for, bit for bit."""

    @pytest.mark.parametrize("radius", [100.0, 0.3])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_pngd(self, kind, radius):
        obj, obj2 = (objective_for(d, radius=radius) for d in composition_data(kind))
        pc = obj.constants
        ns = NoiseSchedule(eta=1.0 / pc.L, sigma=0.05, T=40, K=3)
        init = InitSpec(mean=1000.0, variance=default_c0(pc, ns, regime_for(pc)))
        rng, ref_rng = make_rng(9), make_rng(9)
        trained = train(obj, ns, init, rng)
        w = unlearn(trained, obj2, ns.K, ns, rng)
        ref = draw_init(init, obj.shape, radius, ref_rng)
        for o, steps in ((obj, ns.T), (obj2, ns.K)):
            for _ in range(steps):
                ref = pngd_step(ref, o.grad, ns.eta, ns.sigma, radius, ref_rng)
        assert w.tobytes() == ref.tobytes() and w.shape == obj.shape
        assert same_state(rng.bit_generator.state, ref_rng.bit_generator.state)
        assert not np.array_equal(w, trained)  # unlearning moves the weights
        assert np.linalg.norm(w) <= radius * (1.0 + 1e-12)

    @pytest.mark.parametrize("radius", [100.0, 0.3])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_d2d(self, kind, radius):
        obj, obj2 = (objective_for(d, radius=radius) for d in composition_data(kind))
        step = 2.0 / (obj.constants.L + obj.constants.m)
        rng, ref_rng = make_rng(9), make_rng(9)
        init = draw_init(InitSpec(mean=1000.0, variance=1.0), obj.shape, radius, rng)
        w = d2d_unlearn(d2d_train(obj, 40, init), obj2, 4, 0.5, rng)
        ref = draw_init(InitSpec(mean=1000.0, variance=1.0), obj.shape, radius, ref_rng)
        for o, steps in ((obj, 40), (obj2, 4)):
            ref = project_ball(ref, radius)  # each call projects its start
            for _ in range(steps):
                ref = project_ball(ref - step * o.grad(ref), radius)
        ref = ref + 0.5 * ref_rng.standard_normal(ref.shape)  # one perturbation, not projected
        assert w.tobytes() == ref.tobytes()
        assert same_state(rng.bit_generator.state, ref_rng.bit_generator.state)

    @pytest.mark.parametrize("kind", ["binary", "three_class"])
    def test_trained_model_fits_the_clusters(self, kind):
        c, d, steps, floor = (2, 8, 1500, 0.95) if kind == "binary" else (3, 10, 800, 0.9)
        data = make_synthetic(SyntheticSpec(n=400, d=d, n_classes=c), seed=15 + c)
        obj = objective_for(data)
        pc = obj.constants
        ns = NoiseSchedule(eta=1.0 / pc.L, sigma=0.02, T=steps)
        init = InitSpec(mean=1000.0, variance=default_c0(pc, ns, regime_for(pc)))
        w = train(obj, ns, init, make_rng(0))
        assert w.shape == obj.shape and evaluate(w, data)[1] > floor

    def test_d2d_trained_model_fits_the_clusters(self):
        obj = objective_for(make_synthetic(SyntheticSpec(n=400, d=8), seed=17))
        init = draw_init(InitSpec(mean=1000.0, variance=1.0), obj.shape, 100.0, make_rng(2))
        w = d2d_train(obj, 300, init)
        assert np.array_equal(w, d2d_train(obj, 300, init))
        assert evaluate(w, obj.data)[1] > 0.95


class TestRowBlocks:
    """Row-wise passes over an n-by-d array work on row blocks of about
    _BLOCK_BYTES, giving the one-call results bit for bit."""

    @pytest.mark.parametrize("d", [1, 20, 724])
    def test_row_norms_equal_one_norm_call(self, d):
        block = _BLOCK_BYTES // (8 * d)
        rng = make_rng(d)
        for n in (0, 1, block - 1, block, block + 1, 3 * block + 7):
            X = rng.standard_normal((n, d)) * 7.0
            want = np.linalg.norm(X, axis=1).tobytes()
            assert _row_norms(X).tobytes() == want, n
            for other in (np.asfortranarray(X), X[:, ::-1], X[::2]):  # other layouts
                assert _row_norms(other).tobytes() == np.linalg.norm(other, axis=1).tobytes()

    @pytest.mark.parametrize("make,build", [(binary_data, logistic_objective),
                                            (onehot_data, multiclass_objective)])
    def test_objective_reads_the_norm_check_pass(self, make, build, monkeypatch):
        data = make(n=300, d=9)
        passes = []
        monkeypatch.setattr(objectives, "_row_norms",
                            lambda X: passes.append(X.shape) or _row_norms(X))
        build(Dataset(data.features, data.labels))
        assert passes == [(300, 9)]  # the Dataset check's

    def test_normalize_rows_returns_a_new_array(self):
        X = make_rng(4).standard_normal((300, 9))
        X[7] = 0.0
        before = X.copy()
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        want = X / np.where(norms == 0.0, 1.0, norms)
        out = normalize_rows(X)
        assert out.tobytes() == want.tobytes()
        assert np.array_equal(X, before) and out is not X
        assert normalize_rows(np.arange(6).reshape(2, 3)).dtype == np.float64
        with pytest.raises(ValueError):  # numpy's AxisError, as from the one call
            normalize_rows(np.ones(3))


class TestDataPathMemory:
    """No stage of a trial's data path builds an n-by-d temporary: each
    allocates at most its output (if that is an n-by-d array) plus a quarter
    of X."""

    @pytest.fixture(scope="class")
    def data(self):
        return make_synthetic(SyntheticSpec(n=20000, d=100), seed=3)  # X: 16 MB

    @pytest.mark.parametrize("stage,bound", [
        ("make_synthetic", 1.25), ("logistic_objective", 0.25), ("Dataset", 0.25),
        ("apply_request", 1.25), ("multiclass_objective", 0.25)])
    def test_peak_per_stage(self, data, stage, bound, extra_bytes):
        spec = SyntheticSpec(n=data.n, d=data.d)
        onehot = np.zeros((data.n, 2), dtype=int)
        onehot[np.arange(data.n), (data.labels + 1) // 2] = 1
        multi = Dataset(features=data.features, labels=onehot)
        run = {
            "make_synthetic": lambda: make_synthetic(spec, seed=3),
            "logistic_objective": lambda: logistic_objective(data),
            "Dataset": lambda: Dataset(features=data.features, labels=data.labels),
            "apply_request": lambda: apply_request(
                data, UnlearningRequest(indices=(5, 17), replacement_seed=9)),
            "multiclass_objective": lambda: multiclass_objective(multi),
        }[stage]
        assert extra_bytes(run) <= bound * data.features.nbytes
