import numpy as np
import pytest

from certunlearn import (DatasetFormatError, SyntheticSpec, load_dataset,
                         make_synthetic, save_dataset)
from certunlearn.data import one_hot


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

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            make_synthetic(SyntheticSpec(n=2, d=1, n_classes=3), seed=0)
