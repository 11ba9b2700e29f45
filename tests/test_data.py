import math

import numpy as np
import pytest

from certunlearn import (DatasetFormatError, SyntheticSpec, load_dataset,
                         make_synthetic, save_dataset)
from certunlearn.data import one_hot
from certunlearn.pngd import make_rng


def test_one_hot_rows():
    labels = np.array([2, 0, 1, 2])
    assert np.array_equal(one_hot(labels, 4), np.eye(4, dtype=int)[labels])
    assert one_hot(labels, 4).dtype == np.eye(1, dtype=int).dtype


class TestRoundTrip:
    def test_binary_bit_identical(self, tmp_path):
        data = make_synthetic(SyntheticSpec(n=50, d=7), seed=3)
        path = tmp_path / "bin.csv"
        save_dataset(data, str(path))
        loaded = load_dataset(str(path))
        assert np.array_equal(loaded.features, data.features)
        assert np.array_equal(loaded.labels, data.labels)
        assert loaded.normalized == data.normalized

    def test_multiclass_bit_identical(self, tmp_path):
        data = make_synthetic(SyntheticSpec(n=60, d=9, n_classes=4), seed=5)
        path = tmp_path / "multi.csv"
        save_dataset(data, str(path))
        loaded = load_dataset(str(path))
        assert np.array_equal(loaded.features, data.features)
        assert np.array_equal(loaded.labels, data.labels)

    def test_reemit_byte_identical(self, tmp_path):
        data = make_synthetic(SyntheticSpec(n=25, d=4), seed=8)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(data, str(p1))
        save_dataset(data, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestParseErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(str(path))
        assert err.value.line == 1

    def test_missing_header(self, tmp_path):
        path = tmp_path / "noheader.csv"
        path.write_text("1.0,2.0,1\n")
        with pytest.raises(DatasetFormatError, match="header"):
            load_dataset(str(path))

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("# d=2 c=2 normalized=0\n1.0,0.0,1\n1.0,1\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_dataset(str(path))

    def test_non_numeric_feature(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# d=2 c=2 normalized=0\n1.0,xyz,1\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(str(path))

    def test_bad_binary_label(self, tmp_path):
        path = tmp_path / "lbl.csv"
        path.write_text("# d=1 c=2 normalized=0\n1.0,1\n0.5,3\n")
        with pytest.raises(DatasetFormatError, match="-1 or \\+1"):
            load_dataset(str(path))

    def test_row_off_unit_norm_reports_its_line(self, tmp_path):
        data = make_synthetic(SyntheticSpec(n=12, d=3), seed=4)
        path = tmp_path / "norm.csv"
        save_dataset(data, str(path))
        lines = path.read_text().splitlines()
        lines[8] = "0.5,0.5,0.5," + lines[8].rsplit(",", 1)[1]  # row 7
        lines.insert(2, "")  # a blank line shifts every later row by one
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="normalized=1") as err:
            load_dataset(str(path))
        assert err.value.line == 10
        path.write_text(path.read_text().replace("normalized=1", "normalized=0"))
        assert not load_dataset(str(path)).normalized

    def test_label_error_line_counts_blank_lines(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("# d=1 c=2 normalized=0\n1.0,1\n\n0.5,3\n")
        with pytest.raises(DatasetFormatError, match="line 4"):
            load_dataset(str(path))

    def test_out_of_range_class(self, tmp_path):
        path = tmp_path / "cls.csv"
        path.write_text("# d=1 c=3 normalized=0\n1.0,0\n0.5,7\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_dataset(str(path))

    def test_header_only(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("# d=2 c=2 normalized=0\n")
        with pytest.raises(DatasetFormatError, match="no data rows"):
            load_dataset(str(path))


class TestSynthetic:
    def test_deterministic(self):
        a = make_synthetic(SyntheticSpec(n=30, d=5), seed=9)
        b = make_synthetic(SyntheticSpec(n=30, d=5), seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_rows_unit_norm(self):
        data = make_synthetic(SyntheticSpec(n=100, d=12), seed=2)
        assert np.linalg.norm(data.features, axis=1) == pytest.approx(
            np.ones(100), abs=1e-12)

    def test_separability_oracle(self):
        # margin along the true direction predicts near-perfect separability
        data = make_synthetic(SyntheticSpec(n=2000, d=20, separation=3.0), seed=13)
        pos = data.features[data.labels == 1]
        neg = data.features[data.labels == -1]
        u = pos.mean(axis=0) - neg.mean(axis=0)
        acc = np.mean(np.where(data.features @ u >= 0, 1, -1) == data.labels)
        assert acc > 0.95

    def test_geometry_seed_shares_distribution(self):
        a = make_synthetic(SyntheticSpec(n=30, d=5), seed=1)
        b = make_synthetic(SyntheticSpec(n=30, d=5), seed=2, geometry_seed=1)
        c = make_synthetic(SyntheticSpec(n=30, d=5), seed=2, geometry_seed=99)
        assert not np.array_equal(a.features, b.features)
        # same geometry, different geometry -> different class means
        bu = b.features[b.labels == 1].mean(axis=0)
        cu = c.features[c.labels == 1].mean(axis=0)
        au = a.features[a.labels == 1].mean(axis=0)
        assert np.dot(au, bu) > np.abs(np.dot(au, cu))

    @pytest.mark.parametrize("spec", [
        SyntheticSpec(n=2000, d=20), SyntheticSpec(n=3000, d=30, n_classes=4, noise=1.5),
        SyntheticSpec(n=11982, d=724)], ids=["binary", "4-class", "mnist-shape"])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_bytes_equal_the_one_expression(self, spec, seed):
        """Built in place, the data equal the unit rows of
        means[labels] + noise*Z computed as whole n-by-d arrays."""
        geo, rng = make_rng(seed), make_rng(seed ^ 0x73616D70)
        if spec.n_classes == 2:
            u = geo.standard_normal((1, spec.d))
            u = (u / np.linalg.norm(u, axis=1, keepdims=True))[0]
            means = np.stack([u, -u]) * spec.separation / 2.0
        else:
            frame, _ = np.linalg.qr(geo.standard_normal((spec.d, spec.n_classes)))
            means = frame.T * spec.separation / math.sqrt(2.0)
        labels = rng.integers(0, spec.n_classes, size=spec.n)
        X = means[labels] + spec.noise * rng.standard_normal((spec.n, spec.d))
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        X = X / np.where(norms == 0.0, 1.0, norms)
        data = make_synthetic(spec, seed)
        assert data.features.tobytes() == X.tobytes()
        got = data.labels if spec.n_classes == 2 else np.argmax(data.labels, axis=1)
        assert np.array_equal(got, labels * 2 - 1 if spec.n_classes == 2 else labels)

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            make_synthetic(SyntheticSpec(n=2, d=1, n_classes=3), seed=0)
