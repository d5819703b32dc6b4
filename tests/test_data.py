"""CSV ingestion, chronological splits, normalization, windows, synthetic data."""

import numpy as np
import pytest

from hgmts.autodiff import ContractError
from hgmts.data import (
    Dataset,
    NormalizationStats,
    SplitSpec,
    denormalize,
    load_csv,
    manifest,
    normalize,
    split,
    split_bounds,
    window_count,
    window_list,
    windows,
)
from hgmts.synthetic import generate_coupled, write_csv


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_small_file(self, tmp_path):
        path = write(tmp_path, "ts,a,b\n1,1.0,2.0\n2,3.0,4.0\n3,5.0,6.0\n")
        ds = load_csv(path)
        assert ds.values.shape == (3, 2)
        assert ds.channels == ["a", "b"]
        np.testing.assert_array_equal(ds.values, [[1, 2], [3, 4], [5, 6]])

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "ts,temp,load\n1,1.0,2.0\n2,oops,4.0\n")
        with pytest.raises(ContractError, match=r"row 2.*'temp'"):
            load_csv(path)

    def test_bad_last_cell_of_a_late_row_named(self, tmp_path):
        rows = "".join(f"{t},{t}.5,{2 * t}.25,{3 * t}\n" for t in range(1, 40))
        path = write(tmp_path, f"ts,a,b,c\n{rows}40,1.0,2.0,x7\n")
        with pytest.raises(ContractError, match=r"non-numeric value 'x7' at row 40, column 'c'"):
            load_csv(path)

    def test_non_finite_cells_name_row_and_column(self, tmp_path):
        path = write(tmp_path, "ts,a,b\n1,1.0,nan\n2,inf,2.0\n")
        with pytest.raises(ContractError, match=r"non-finite.*row 1.*'b'"):
            load_csv(path)
        path = write(tmp_path, "ts,a,b\n1,1.0,2.0\n2,-inf,2.0\n", name="neg.csv")
        with pytest.raises(ContractError, match=r"non-finite.*row 2.*'a'"):
            load_csv(path)

    def test_non_monotone_timestamps_rejected(self, tmp_path):
        path = write(tmp_path, "ts,a\n1,1.0\n3,2.0\n2,3.0\n")
        with pytest.raises(ContractError, match="non-monotone"):
            load_csv(path)

    def test_iso_timestamps_accepted(self, tmp_path):
        path = write(tmp_path, "date,a\n2016-07-01 00:00,1.0\n2016-07-01 00:15,2.0\n")
        assert load_csv(path).length == 2

    def test_missing_value_rejected_unless_forward_fill(self, tmp_path):
        path = write(tmp_path, "ts,a,b\n1,1.0,2.0\n2,,4.0\n")
        with pytest.raises(ContractError, match=r"missing value.*row 2"):
            load_csv(path)
        ds = load_csv(path, forward_fill=True)
        np.testing.assert_array_equal(ds.values, [[1, 2], [1, 4]])

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "ts,a,b\n1,1.0,2.0\n2,3.0\n")
        with pytest.raises(ContractError, match="row 2"):
            load_csv(path)

    @pytest.mark.parametrize("cells", [["-0.0", "1e-320", " 2.5 "], ["1_000", "-0.0", "7"]])
    def test_cells_parse_as_float_does(self, tmp_path, cells):
        """numpy's reader takes the first row; the second goes the row-by-row way."""
        path = write(tmp_path, "ts,a,b,c\n1,0.1,2e-308,-3\n2," + ",".join(cells) + "\n")
        want = np.array([[0.1, 2e-308, -3.0], [float(c) for c in cells]])
        assert load_csv(path).values.tobytes() == want.tobytes()

    def test_overflowing_cell_is_named(self, tmp_path):
        path = write(tmp_path, "ts,a,b\n1,1.0,2.0\n2,3.0,1e400\n")
        with pytest.raises(ContractError, match=r"non-finite value '1e400' at row 2, column 'b'"):
            load_csv(path)

    def test_crlf_file_parses_as_float_does(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"ts,a,b\r\n1,0.1,-0.0\r\n2,1e-320,2.5\r\n")
        ds = load_csv(path)
        assert ds.channels == ["a", "b"] and ds.timestamps == ["1", "2"]
        want = np.array([[0.1, -0.0], [1e-320, 2.5]])
        assert ds.values.tobytes() == want.tobytes()


class TestSplit:
    def test_seventy_ten_twenty(self):
        ds = Dataset("d", np.arange(200.0).reshape(100, 2), ["a", "b"])
        train, val, test = split(ds, SplitSpec(0.7, 0.1, 0.2))
        assert (train.length, val.length, test.length) == (70, 10, 20)

    def test_sixty_twenty_twenty(self):
        ds = Dataset("d", np.zeros((100, 1)), ["a"])
        train, val, test = split(ds, SplitSpec(0.6, 0.2, 0.2))
        assert (train.length, val.length, test.length) == (60, 20, 20)

    def test_floor_boundaries_on_small_series(self):
        assert split_bounds(10, SplitSpec(0.7, 0.1, 0.2)) == (7, 8)
        ds = Dataset("d", np.zeros((10, 1)), ["a"])
        train, val, test = split(ds, SplitSpec(0.7, 0.1, 0.2))
        assert (train.length, val.length, test.length) == (7, 1, 2)

    def test_segments_disjoint_ordered_and_cover(self):
        values = np.arange(50.0).reshape(50, 1)
        ds = Dataset("d", values, ["a"])
        train, val, test = split(ds, SplitSpec(0.7, 0.1, 0.2))
        recombined = np.concatenate([train.values, val.values, test.values])
        np.testing.assert_array_equal(recombined, values)

    def test_bad_fractions_rejected(self):
        with pytest.raises(ContractError):
            SplitSpec(0.5, 0.2, 0.2)

    def test_parse(self):
        spec = SplitSpec.parse("0.6,0.2,0.2")
        assert (spec.train, spec.val, spec.test) == (0.6, 0.2, 0.2)


class TestNormalization:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(-10, 10, (40, 3)) * np.array([1.0, 5.0, 0.1])
        ds = Dataset("d", values, ["a", "b", "c"])
        stats = NormalizationStats.from_train(values)
        back = denormalize(normalize(ds, stats).values.T, stats).T
        np.testing.assert_allclose(back, values, atol=1e-10)

    def test_denormalize_matches_invert_for_node_major_blocks(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(-5, 5, (30, 4))
        stats = NormalizationStats.from_train(values)
        pred = rng.uniform(-1, 1, (4, 6))  # N x K block
        np.testing.assert_allclose(denormalize(pred, stats),
                                   (pred.T * stats.std + stats.mean).T, atol=1e-12)

    def test_constant_channel_guarded_with_warning(self):
        values = np.column_stack([np.arange(10.0), np.full(10, 3.0)])
        with pytest.warns(UserWarning, match="constant"):
            stats = NormalizationStats.from_train(values)
        assert stats.std[1] == 1.0
        assert stats.guarded == [1]
        normalized = stats.apply(values)
        np.testing.assert_array_equal(normalized[:, 1], np.zeros(10))

    def test_normalized_train_split_has_zero_mean_unit_std(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(-3, 3, (200, 5))
        stats = NormalizationStats.from_train(values)
        normalized = stats.apply(values)
        np.testing.assert_allclose(normalized.mean(axis=0), 0.0, atol=1e-8)
        np.testing.assert_allclose(normalized.std(axis=0), 1.0, atol=1e-8)

    def test_stats_never_see_val_or_test(self):
        rng = np.random.default_rng(3)
        ds = Dataset("d", rng.uniform(-1, 1, (100, 2)), ["a", "b"])
        train, _, _ = split(ds, SplitSpec(0.7, 0.1, 0.2))
        stats = NormalizationStats.from_train(train.values)
        recomputed = NormalizationStats.from_train(ds.values[:70])
        np.testing.assert_array_equal(stats.mean, recomputed.mean)
        np.testing.assert_array_equal(stats.std, recomputed.std)


class TestWindows:
    def test_count_formula(self):
        values = np.arange(20.0).reshape(10, 2)
        assert len(window_list(values, 3, 2)) == 6
        assert window_count(10, 3, 2) == 6

    def test_exactly_one_window(self):
        values = np.arange(10.0).reshape(5, 2)
        assert len(window_list(values, 3, 2)) == 1

    def test_no_window_when_span_too_short(self):
        values = np.arange(8.0).reshape(4, 2)
        assert window_list(values, 3, 2) == []

    def test_target_follows_input_immediately(self):
        values = np.arange(12.0).reshape(12, 1)  # channel value equals time index
        for x, y in windows(values, 4, 3):
            assert y[0, 0] == x[0, -1] + 1
            np.testing.assert_array_equal(np.diff(y[0]), 1.0)

    def test_shapes_are_node_major(self):
        values = np.arange(24.0).reshape(8, 3)
        x, y = next(windows(values, 4, 2))
        assert x.shape == (3, 4)
        assert y.shape == (3, 2)

    def test_bad_lengths_rejected(self):
        with pytest.raises(ContractError):
            window_list(np.zeros((5, 1)), 0, 2)


class TestManifest:
    def test_contents(self):
        ds = Dataset("demo", np.zeros((50, 3)), ["a", "b", "c"], frequency="hourly")
        text = manifest(ds, SplitSpec(0.7, 0.1, 0.2))
        assert "demo" in text
        assert "series: 3" in text
        assert "length: 50" in text
        assert "train [0, 35) val [35, 40) test [40, 50)" in text


class TestSyntheticGenerator:
    @pytest.mark.parametrize("arg, value", [("n_series", 0), ("length", 0),
                                            ("coupling_lag", 0), ("noise_std", -0.1),
                                            ("seed", -1)])
    def test_impossible_sizes_rejected(self, arg, value):
        with pytest.raises(ContractError, match=arg):
            generate_coupled(**{arg: value})

    def test_shapes_and_determinism(self):
        a, coupling_a = generate_coupled(n_series=6, length=300, seed=9)
        b, coupling_b = generate_coupled(n_series=6, length=300, seed=9)
        assert a.values.shape == (300, 6)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(coupling_a, coupling_b)

    def test_coupling_is_sparse_known_and_stable(self):
        _, coupling = generate_coupled(n_series=8, length=100, seed=0, parents_per_node=2)
        assert coupling.shape == (8, 8)
        np.testing.assert_array_equal(np.diag(coupling), 0.0)
        assert ((coupling > 0).sum(axis=1) == 2).all()
        assert coupling.sum(axis=1).max() < 1.0  # stable recursion

    def test_walk_sources_restrict_parents(self):
        _, coupling = generate_coupled(n_series=8, length=100, seed=0,
                                       parents_per_node=1, walk_sources=2)
        np.testing.assert_array_equal(coupling[:2], 0.0)  # sources are exogenous
        assert ((coupling[2:] > 0).sum(axis=1) == 1).all()
        assert (np.nonzero(coupling[2:])[1] < 2).all()  # parents are sources

    def test_coupling_influences_children(self):
        base, coupling = generate_coupled(n_series=4, length=400, seed=4,
                                          parents_per_node=1, walk_sources=1,
                                          noise_std=0.0, walk_std=0.3)
        child = int(np.nonzero(coupling[:, 0])[0][0])
        silent, _ = generate_coupled(n_series=4, length=400, seed=4,
                                     parents_per_node=1, walk_sources=1,
                                     noise_std=0.0, walk_std=0.0)
        # removing the source walk changes the child series through the lag term
        assert np.abs(base.values[:, child] - silent.values[:, child]).max() > 0.01

    def test_csv_roundtrip(self, tmp_path):
        ds, _ = generate_coupled(n_series=3, length=50, seed=1)
        path = tmp_path / "synth.csv"
        write_csv(ds, path)
        loaded = load_csv(path)
        assert loaded.channels == ds.channels
        np.testing.assert_allclose(loaded.values, ds.values, atol=0)
