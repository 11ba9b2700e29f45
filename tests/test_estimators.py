import numpy as np
import pytest

from certunlearn import (D2DClassifier, NoisyGDClassifier, SyntheticSpec,
                         make_synthetic)
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
