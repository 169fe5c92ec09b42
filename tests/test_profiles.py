import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divtim.errors import ConfigError, FormatError
from divtim.profiles import (MISSING, ProfileSet, derive_numeric_preferences,
                             load_numeric_matrix, load_profiles, quantile_discretize,
                             save_profiles, synth_profiles)

# chi-square critical value, 9 degrees of freedom, p = 0.01
CHI2_9_P01 = 21.666


def test_load_sparse_row():
    ps = load_profiles(io.StringIO("A1,A2,A3\na1,,c2\n"), node_labels=["0"])
    assert np.count_nonzero(ps.codes[0] != MISSING) == 2
    # the middle attribute has no values, so c2 follows a1 directly
    assert ps.values[0] == [0, 1]


def test_load_all_empty_row():
    ps = load_profiles(io.StringIO("A1,A2\n,\n"), node_labels=["0"])
    assert np.count_nonzero(ps.codes[0] != MISSING) == 0


def test_global_value_counts():
    ps = load_profiles(io.StringIO("A1\na1\na1\nb\n"), node_labels=["0", "1", "2"])
    code_a1 = ps.schema.domains[0].index("a1")
    assert ps.value_counts[code_a1] == 2
    assert ps.value_counts.sum() == 3


def test_value_ids_are_offset_per_attribute():
    full = synth_profiles(200, m=3, domain_sizes=[4, 1, 6], seed=5)
    codes = full.codes.copy()
    codes[::3, 1] = MISSING
    codes[::5, 2] = MISSING
    ps = ProfileSet(schema=full.schema, codes=codes)
    offsets, sizes = [0, 4, 5], [4, 1, 6]
    for v, ids in enumerate(ps.values):
        present = [j for j in range(3) if codes[v, j] != MISSING]
        assert ids == [offsets[j] + int(codes[v, j]) for j in present]
        for j, i in zip(present, ids):
            assert offsets[j] <= i < offsets[j] + sizes[j]
    assert len(ps.value_counts) == sum(sizes)
    assert ps.value_counts.sum() == np.count_nonzero(ps.codes != MISSING)


def test_reload_idempotence(tmp_path):
    ps = synth_profiles(40, m=4, domain_sizes=5, seed=3)
    path = tmp_path / "profiles.csv"
    save_profiles(ps, str(path))
    back = load_profiles(str(path), node_labels=[str(v) for v in range(40)])
    assert np.array_equal(ps.codes, back.codes)


def test_synth_deterministic():
    a = synth_profiles(100, m=3, domain_sizes=6, seed=42)
    b = synth_profiles(100, m=3, domain_sizes=6, seed=42)
    assert np.array_equal(a.codes, b.codes)
    c = synth_profiles(100, m=3, domain_sizes=6, seed=43)
    assert not np.array_equal(a.codes, c.codes)


def test_synth_single_value_domain():
    ps = synth_profiles(20, m=2, domain_sizes=1, seed=1)
    assert np.all(ps.codes == 0)


def test_synth_uniform_chi_square():
    ps = synth_profiles(5000, m=10, domain_sizes=10, distribution="uniform", seed=7)
    expected = 5000 / 10
    for j in range(10):
        counts = np.bincount(ps.codes[:, j], minlength=10)
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < CHI2_9_P01


def test_synth_exponential_chi_square():
    n, size = 20000, 10
    ps = synth_profiles(n, m=1, domain_sizes=size, distribution="exponential", seed=11)
    # index i has truncated mass (e^{-(i-1)} - e^{-i}) / (1 - e^{-size})
    weights = np.exp(-np.arange(size)) - np.exp(-np.arange(1, size + 1))
    weights /= 1.0 - np.exp(-size)
    expected = n * weights
    counts = np.bincount(ps.codes[:, 0], minlength=size)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < CHI2_9_P01


def test_quantile_median_split():
    ps = quantile_discretize(np.array([[1.0], [2.0], [3.0], [4.0]]), bins=2, attr_names=["A1"])
    assert [ps.schema.domains[0][c] for c in ps.codes[:, 0]] == ["1", "1", "2", "2"]


def test_quantile_constant_column():
    ps = quantile_discretize(np.full((5, 1), 3.3), bins=4, attr_names=["A1"])
    assert np.all(ps.codes[:, 0] == 0)


def test_quantile_identity_bins():
    vals = np.arange(1.0, 11.0).reshape(-1, 1)
    ps = quantile_discretize(vals, bins=10, attr_names=["A1"])
    assert list(ps.codes[:, 0]) == list(range(10))


def test_quantile_rejects_empty_column():
    with pytest.raises(FormatError):
        quantile_discretize(np.full((3, 1), np.nan), bins=2, attr_names=["A1"])
    with pytest.raises(ConfigError):
        quantile_discretize(np.ones((3, 1)), bins=1, attr_names=["A1"])


@given(st.lists(st.floats(-100, 100), min_size=4, max_size=30),
       st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_quantile_monotone(values, bins):
    mat = np.asarray(values).reshape(-1, 1)
    ps = quantile_discretize(mat, bins=bins, attr_names=["A1"])
    order = np.argsort(values, kind="stable")
    labels = ps.codes[order, 0]
    assert np.all(np.diff(labels) >= 0)


def test_numeric_preferences_row_scaling():
    out = derive_numeric_preferences(np.array([[2.0, 4.0], [0.0, 0.0], [5.0, 0.0]]))
    assert np.allclose(out[0], [0.5, 1.0])
    assert np.allclose(out[1], [0.0, 0.0])
    assert np.allclose(out[2], [1.0, 0.0])


def test_numeric_preferences_reject_negative():
    with pytest.raises(FormatError):
        derive_numeric_preferences(np.array([[-1.0]]))


def test_numeric_matrix_loader():
    mat, names = load_numeric_matrix(io.StringIO("node,x,y\nn2,3,4\nn1,1,2\n"), ["n1", "n2"])
    assert names == ["x", "y"]
    assert np.allclose(mat, [[1, 2], [3, 4]])   # rows in node order, not file order


def test_keyed_profile_rows(tmp_path):
    csv_text = "node,A1\nb,x\na,y\n"
    ps = load_profiles(io.StringIO(csv_text), node_labels=["a", "b"])
    assert ps.schema.domains[0][ps.codes[0, 0]] == "y"
    assert ps.schema.domains[0][ps.codes[1, 0]] == "x"
