import dataclasses

import numpy as np
import pytest

from certunlearn import (D2DClassifier, Dataset, InitSpec, NoiseSchedule, NoisyGDClassifier,
                         SyntheticSpec, d2d_train, default_c0, estimators, make_rng,
                         make_synthetic, regime_for, train, unlearn)
from certunlearn.objectives import objective_for
from certunlearn.pngd import draw_init
from certunlearn.validation import check_array, check_is_fitted, check_X_y


@pytest.fixture(scope="module")
def blobs():
    data = make_synthetic(SyntheticSpec(n=400, d=8), seed=17)
    return data.features, data.labels


@pytest.fixture(scope="module")
def blobs_multi():
    data = make_synthetic(SyntheticSpec(n=400, d=10, n_classes=3), seed=18)
    return data.features, np.argmax(data.labels, axis=1)


class TestValidationHelpers:
    def test_check_array_rejects_1d_and_nan(self):
        with pytest.raises(ValueError, match="2-D"):
            check_array(np.zeros(3))
        with pytest.raises(ValueError, match="NaN"):
            check_array(np.array([[np.nan, 0.0]]))

    def test_check_x_y_shape_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            check_X_y(np.zeros((3, 2)), np.zeros(4, dtype=int))

    def test_check_is_fitted(self):
        est = NoisyGDClassifier()
        with pytest.raises(RuntimeError, match="not fitted"):
            check_is_fitted(est)


class TestParamsProtocol:
    def test_get_set_round_trip(self):
        est = NoisyGDClassifier(sigma=0.2, n_iter=123)
        params = est.get_params()
        assert params["sigma"] == 0.2 and params["n_iter"] == 123
        clone = NoisyGDClassifier(**params)
        assert clone.get_params() == params
        est.set_params(sigma=0.5)
        assert est.sigma == 0.5
        with pytest.raises(ValueError, match="invalid parameter"):
            est.set_params(bogus=1)

    def test_repr_lists_params(self):
        text = repr(D2DClassifier(n_iter=7))
        assert "D2DClassifier" in text and "n_iter=7" in text

    def test_sklearn_clone_compatibility(self, blobs):
        base = pytest.importorskip("sklearn.base")
        X, y = blobs
        est = NoisyGDClassifier(sigma=0.04, n_iter=50, random_state=6)
        cloned = base.clone(est)
        assert cloned.get_params() == est.get_params()
        a = est.fit(X, y).coef_
        b = cloned.fit(X, y).coef_
        assert np.array_equal(a, b)


@pytest.mark.parametrize("cls,param", [
    (NoisyGDClassifier, dict(init_mean=np.nan)), (D2DClassifier, dict(init_mean=np.nan)),
    (NoisyGDClassifier, dict(sigma=np.nan)),
])
def test_fit_rejects_nan_hyperparameters(blobs, cls, param):
    X, y = blobs
    with pytest.raises(ValueError, match="init mean|sigma"):
        cls(n_iter=5, **param).fit(X, y)


class TestNoisyGDClassifier:
    def test_fit_predict_score(self, blobs):
        X, y = blobs
        est = NoisyGDClassifier(sigma=0.02, n_iter=1500, random_state=0)
        est.fit(X, y)
        assert est.coef_.shape == (X.shape[1],)
        assert set(np.unique(est.predict(X))) <= {-1, 1}
        assert est.score(X, y) > 0.95

    def test_same_seed_reproduces(self, blobs):
        X, y = blobs
        a = NoisyGDClassifier(sigma=0.05, n_iter=100, random_state=4).fit(X, y)
        b = NoisyGDClassifier(sigma=0.05, n_iter=100, random_state=4).fit(X, y)
        assert np.array_equal(a.coef_, b.coef_)

    def test_unlearn_moves_coefficients(self, blobs):
        X, y = blobs
        est = NoisyGDClassifier(sigma=0.05, n_iter=200, random_state=1).fit(X, y)
        before = est.coef_.copy()
        X2 = X.copy()
        X2[0] = X2[0][::-1]
        est.unlearn(X2, y, k=3)
        assert not np.array_equal(before, est.coef_)

    def test_multiclass_fit(self, blobs_multi):
        X, y = blobs_multi
        est = NoisyGDClassifier(sigma=0.02, n_iter=800, random_state=0)
        est.fit(X, y)
        assert est.coef_.shape == (X.shape[1], 3)
        assert est.score(X, y) > 0.9

    def test_predict_requires_fit(self, blobs):
        X, _ = blobs
        with pytest.raises(RuntimeError, match="not fitted"):
            NoisyGDClassifier().predict(X)

    def test_rejects_negative_class_ids(self):
        X = np.eye(3)
        with pytest.raises(ValueError, match="labels"):
            NoisyGDClassifier(n_iter=1).fit(X, np.array([-2, 0, 1]))


class TestD2DClassifier:
    def test_fit_is_deterministic_given_seed(self, blobs):
        X, y = blobs
        a = D2DClassifier(n_iter=300, random_state=2).fit(X, y)
        b = D2DClassifier(n_iter=300, random_state=2).fit(X, y)
        assert np.array_equal(a.coef_, b.coef_)
        assert a.score(X, y) > 0.95

    def test_unlearn_adds_requested_noise(self, blobs):
        X, y = blobs
        est = D2DClassifier(n_iter=300, random_state=2).fit(X, y)
        w = est.coef_.copy()
        est.unlearn(X, y, i=0, noise_std=0.0)
        assert np.array_equal(est.coef_, w)


# The estimators are adapters over the engines: the references below compose
# the engine calls directly, with the label encoding, the prediction rule
# and the loss written out here, and the estimators must match them bit for
# bit after fit and after every unlearn.
def _ref_data(X, y):
    """-1/+1 labels stay binary; 0..c-1 labels become one-hot rows."""
    if set(np.unique(y).tolist()) <= {-1, 1}:
        return Dataset(features=X, labels=y.astype(int), normalized=False)
    return Dataset(features=X, labels=np.eye(int(y.max()) + 1, dtype=int)[y],
                   normalized=False)


def _ref_objective(X, y, radius, lam=None):
    return objective_for(_ref_data(X, y), lam=lam, radius=radius, allow_unnormalized=True)


def _ref_outputs(w, X, y, objective):
    scores = X @ w
    if w.ndim == 1:
        pred = np.where(scores >= 0.0, 1, -1)
        loss = np.mean(np.logaddexp(0.0, -(y * scores))) + 0.5 * objective.lam * (w @ w)
    else:
        pred = np.argmax(scores, axis=1)
        Z = scores - scores.max(axis=1, keepdims=True)
        log_probs = Z - np.log(np.exp(Z).sum(axis=1, keepdims=True))
        Y = objective.data.labels
        loss = np.mean(-np.sum(Y * log_probs, axis=1)) + 0.5 * objective.lam * np.sum(w * w)
    return scores, pred, float(np.mean(pred == y)), float(loss)


def _ref_noisy_gd(X, y, updates, sigma, n_iter, k, radius, seed):
    objective = _ref_objective(X, y, radius)
    pc = objective.constants
    ns = NoiseSchedule(eta=1.0 / pc.L, sigma=sigma, T=n_iter, K=k)
    rng = make_rng(seed)
    init = InitSpec(mean=1000.0, variance=default_c0(pc, ns, regime_for(pc)))
    coefs = [train(objective, ns, init, rng)]
    for Xu, yu in updates:
        updated = _ref_objective(Xu, yu, radius)
        ns_u = NoiseSchedule(eta=1.0 / updated.constants.L, sigma=sigma, T=0, K=k)
        coefs.append(unlearn(coefs[-1], updated, k, ns_u, rng))
    return coefs


def _ref_d2d(X, y, updates, n_iter, steps, noise, radius, internal, seed):
    objective = _ref_objective(X, y, radius)
    rng = make_rng(seed)
    init = draw_init(InitSpec(mean=1000.0, variance=1.0), objective.shape, radius, rng)
    clean = d2d_train(objective, n_iter, init)
    coefs = [clean]
    for Xu, yu in updates:
        start = clean if internal else coefs[-1]
        clean = d2d_train(_ref_objective(Xu, yu, radius), steps, start)
        coefs.append(clean + noise * rng.standard_normal(clean.shape))
    return coefs


def _labelled(kind):
    """(X, y, updates): features, labels and two post-removal datasets."""
    three = kind == "three_class"
    data = make_synthetic(SyntheticSpec(n=150, d=6, n_classes=3 if three else 2), seed=21)
    X = data.features * (3.0 if kind == "unnormalized" else 1.0)
    y = np.argmax(data.labels, axis=1) if three else data.labels.copy()
    if kind == "zero_one":
        y = (y + 1) // 2  # {0, 1}: the estimators fit a 2-class softmax
    rng = np.random.default_rng(3)
    updates = []
    for row in (4, 77):
        Xu, yu = X.copy(), y.copy()
        Xu[row] = rng.standard_normal(X.shape[1])
        yu[row] = y[row + 1]
        updates.append((Xu, yu))
    return X, y, updates


def _assert_matches(est, coefs, updates, radius, check_loss):
    assert np.array_equal(est.coef_, coefs[0])
    for (Xu, yu), ref in zip(updates, coefs[1:]):
        est.unlearn(Xu, yu)
        assert est.coef_.tobytes() == ref.tobytes()
    Xu, yu = updates[-1]
    scores, pred, acc, loss = _ref_outputs(coefs[-1], Xu, yu, _ref_objective(Xu, yu, radius))
    assert est.decision_function(Xu).tobytes() == scores.tobytes()
    assert np.array_equal(est.predict(Xu), pred)
    # an all-zero score: sign(0) -> +1, and argmax ties go to class 0
    assert est.predict(np.zeros((1, Xu.shape[1]))).tolist() == [1 if pred.min() < 0 else 0]
    assert est.score(Xu, yu) == acc
    if check_loss:
        assert est.loss(Xu, yu) == loss


_KINDS = ["binary", "three_class", "unnormalized", "zero_one"]


class TestEstimatorsAreEngineAdapters:
    @pytest.mark.parametrize("radius", [100.0, 0.3])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_noisy_gd(self, kind, radius):
        X, y, updates = _labelled(kind)
        est = NoisyGDClassifier(sigma=0.05, n_iter=40, k_unlearn=3, radius=radius,
                                random_state=9).fit(X, y)
        coefs = _ref_noisy_gd(X, y, updates, 0.05, 40, 3, radius, 9)
        _assert_matches(est, coefs, updates, radius, check_loss=True)

    @pytest.mark.parametrize("internal", [False, True])
    @pytest.mark.parametrize("radius", [100.0, 0.3])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_d2d(self, kind, radius, internal):
        X, y, updates = _labelled(kind)
        est = D2DClassifier(n_iter=40, i_unlearn=4, noise_std=0.5, radius=radius,
                            internal_state=internal, random_state=9).fit(X, y)
        coefs = _ref_d2d(X, y, updates, 40, 4, 0.5, radius, internal, 9)
        _assert_matches(est, coefs, updates, radius, check_loss=False)

    @pytest.mark.parametrize("internal", [False, True])
    def test_d2d_unlearn_takes_i_gradient_steps(self, internal, monkeypatch):
        X, y, updates = _labelled("binary")
        est = D2DClassifier(n_iter=10, noise_std=0.5, internal_state=internal).fit(X, y)
        calls = []

        def counted(data, **kw):
            obj = objective_for(data, **kw)
            grad = obj.grad
            return dataclasses.replace(obj, grad=lambda w: calls.append(1) or grad(w))
        monkeypatch.setattr(estimators, "objective_for", counted)
        est.unlearn(*updates[0], i=5)
        assert len(calls) == 5

    def test_loss_reads_the_objectives_lam(self):
        X, y, _ = _labelled("binary")
        est = NoisyGDClassifier(n_iter=5, lam=0.25).fit(X, y)
        expect = _ref_outputs(est.coef_, X, y, _ref_objective(X, y, 100.0, lam=0.25))[3]
        assert est.loss(X, y) == expect


class TestParamsAreTheFields:
    def test_names_order_and_repr(self):
        assert list(NoisyGDClassifier().get_params()) == [
            "sigma", "eta", "n_iter", "k_unlearn", "lam", "radius", "init_mean",
            "random_state"]
        assert list(D2DClassifier().get_params()) == [
            "n_iter", "i_unlearn", "noise_std", "lam", "radius", "init_mean",
            "internal_state", "random_state"]
        assert repr(NoisyGDClassifier(sigma=0.2)) == (
            "NoisyGDClassifier(sigma=0.2, eta=None, n_iter=10000, k_unlearn=1, lam=None, "
            "radius=100.0, init_mean=1000.0, random_state=0)")

    def test_equality_is_identity(self):
        a, b = D2DClassifier(), D2DClassifier()
        assert a != b and a == a and len({a, b}) == 2
        assert a.coef_ is None
