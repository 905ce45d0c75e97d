import math

import numpy as np
import pytest

from conftest import random_walk_series
from oracles import observation_table
from quantrl import (
    IndicatorSpec,
    NormalizationKind,
    compute_feature_matrix,
    default_specs,
    fit,
    l2_normalize,
    min_max,
    pearson_corr_matrix,
    select_uncorrelated,
    sigmoid_norm,
    window_log,
    z_score,
)
from quantrl.errors import EmptyInput, NonPositiveValue, ZeroVector
from quantrl.normalize import CorrelationMatrix


def test_fit_basic():
    stats = fit([1.0, 2.0, 3.0])
    assert stats.mean == 2.0
    assert stats.std == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)
    assert stats.min == 1.0 and stats.max == 3.0


def test_fit_constant():
    stats = fit([4.0, 4.0, 4.0])
    assert stats.std == 0.0 and stats.min == stats.max == 4.0


def test_fit_empty():
    with pytest.raises(EmptyInput):
        fit([])


def test_min_max_endpoints_and_midpoint():
    stats = fit([2.0, 4.0, 6.0])
    assert min_max(2.0, stats) == 0.0
    assert min_max(6.0, stats) == 1.0
    assert min_max(4.0, stats) == 0.5
    assert min_max(5.0, stats) == 0.75


def test_min_max_constant_column():
    stats = fit([3.0, 3.0])
    assert min_max(3.0, stats) == 0.0


def test_z_score_examples():
    stats = fit([1.0, 2.0, 3.0])
    z = z_score(np.array([1.0, 2.0, 3.0]), stats)
    assert z == pytest.approx([-1.224744871391589, 0.0, 1.224744871391589], abs=1e-12)
    assert z_score(stats.mean, stats) == 0.0
    assert z_score(5.0, fit([2.0, 2.0])) == 0.0


def test_sigmoid_examples():
    stats = fit([1.0, 2.0, 3.0])
    assert sigmoid_norm(stats.mean, stats) == 0.5
    assert sigmoid_norm(stats.mean + stats.std, stats) == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-15)
    assert sigmoid_norm(7.0, fit([2.0, 2.0])) == 0.5


def test_sigmoid_monotone():
    rng = np.random.default_rng(0)
    stats = fit(rng.normal(size=100))
    for _ in range(200):
        a, b = sorted(rng.normal(scale=10.0, size=2))
        if a < b:
            assert sigmoid_norm(a, stats) < sigmoid_norm(b, stats)


def test_l2_examples():
    assert l2_normalize([3.0, 4.0]) == pytest.approx([0.6, 0.8], abs=1e-15)
    unit = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(l2_normalize(unit), unit)
    with pytest.raises(ZeroVector):
        l2_normalize([0.0, 0.0])


def test_l2_scale_invariance():
    rng = np.random.default_rng(1)
    v = rng.normal(size=20)
    base = l2_normalize(v)
    for scale in (0.001, 3.0, 1e6):
        assert np.allclose(l2_normalize(v * scale), base, atol=1e-12)


def test_window_log_examples():
    window = np.array([[100.0, 100.0], [110.0, 90.0]])
    out = window_log(window)
    assert out[0, 0] == 0.0
    assert out[1, 0] == pytest.approx(10.0 * math.log(1.1), abs=1e-12)
    with pytest.raises(NonPositiveValue):
        window_log(np.array([[100.0, -1.0]]))
    with pytest.raises(NonPositiveValue):
        window_log(np.array([[0.0, 1.0]]))


# --- property blocks (1000 generated inputs each) ----------------------------


def test_property_min_max_in_unit_interval():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        values = rng.normal(scale=rng.uniform(0.1, 100.0), size=rng.integers(2, 30))
        stats = fit(values)
        out = min_max(values, stats)
        assert (out >= 0.0).all() and (out <= 1.0).all()


def test_property_z_score_standardizes():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        values = rng.normal(loc=rng.uniform(-50, 50), scale=rng.uniform(0.1, 10.0), size=rng.integers(3, 40))
        stats = fit(values)
        if stats.std == 0.0:
            continue
        z = z_score(values, stats)
        assert abs(z.mean()) <= 1e-9
        assert abs(z.std() - 1.0) <= 1e-9


def test_property_sigmoid_open_interval():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        values = rng.normal(scale=rng.uniform(1e-6, 1e6), size=rng.integers(2, 20))
        stats = fit(values)
        out = sigmoid_norm(values * rng.uniform(1.0, 100.0), stats)
        assert (out > 0.0).all() and (out < 1.0).all()


def test_property_l2_unit_norm():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        values = rng.normal(size=rng.integers(2, 50)) * rng.uniform(1e-3, 1e3)
        if not np.any(values):
            continue
        out = l2_normalize(values)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


def test_property_window_log_anchor_zero():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        window = rng.uniform(0.1, 200.0, size=(rng.integers(1, 8), rng.integers(1, 8)))
        assert window_log(window)[0, 0] == 0.0


# --- correlation matrix -------------------------------------------------------


@pytest.fixture(scope="module")
def walk_matrix():
    series = random_walk_series(505, seed=11)
    return compute_feature_matrix(series, default_specs())


def test_corr_self_and_negation(walk_matrix):
    matrix = pearson_corr_matrix(walk_matrix, NormalizationKind.MIN_MAX)
    assert np.allclose(np.diag(matrix.values), 1.0)
    series = random_walk_series(60, seed=3)
    fm = compute_feature_matrix(series, [IndicatorSpec("MOM", 1, name="X")])
    x = fm.to_array()[1:, 0]
    corr = np.corrcoef(np.column_stack([x, -x]), rowvar=False)
    assert corr[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_corr_matrix_invariants(walk_matrix):
    matrix = pearson_corr_matrix(walk_matrix, NormalizationKind.MIN_MAX)
    assert matrix.values.shape == (20, 20)
    assert np.array_equal(matrix.values, matrix.values.T)
    assert (matrix.values >= -1.0).all() and (matrix.values <= 1.0).all()
    assert np.allclose(np.diag(matrix.values), 1.0)


def test_corr_min_max_matches_raw_pearson(walk_matrix):
    # Pearson is invariant under positive-slope affine maps
    matrix = pearson_corr_matrix(walk_matrix, NormalizationKind.MIN_MAX)
    start = walk_matrix.warmup
    raw = walk_matrix.to_array()[start:]
    expected = np.corrcoef(raw, rowvar=False)
    assert np.abs(matrix.values - expected).max() <= 1e-9


def test_corr_zscore_matches_minmax(walk_matrix):
    a = pearson_corr_matrix(walk_matrix, NormalizationKind.MIN_MAX)
    b = pearson_corr_matrix(walk_matrix, NormalizationKind.Z_SCORE)
    assert np.abs(a.values - b.values).max() <= 1e-9


def test_corr_degenerate_column():
    series = random_walk_series(80, seed=4)
    fm = compute_feature_matrix(series, [IndicatorSpec("SMA", 1, name="C"), IndicatorSpec("SMA", 2, name="S")])
    # overwrite one column with a constant via a flat synthetic series
    from conftest import make_series

    flat = make_series(np.full(80, 10.0))
    fm_flat = compute_feature_matrix(flat, [IndicatorSpec("SMA", 1, name="C"), IndicatorSpec("MOM", 1, name="M")])
    matrix = pearson_corr_matrix(fm_flat, NormalizationKind.MIN_MAX)
    assert set(matrix.degenerate) == {"C", "M"}
    assert matrix.values[0, 1] == 0.0
    assert matrix.values[0, 0] == 1.0
    assert pearson_corr_matrix(fm, NormalizationKind.MIN_MAX).degenerate == ()


def test_corr_csv_round_trip(tmp_path, walk_matrix):
    matrix = pearson_corr_matrix(walk_matrix, NormalizationKind.MIN_MAX)
    out = tmp_path / "corr.csv"
    matrix.to_csv(out)
    lines = out.read_text().splitlines()
    assert len(lines) == 21
    assert lines[0].split(",")[1:] == list(matrix.names)
    loaded = CorrelationMatrix.read_csv(out)
    assert loaded.names == matrix.names
    assert np.array_equal(loaded.values, matrix.values)


def test_select_uncorrelated_threshold_one(walk_matrix):
    matrix = pearson_corr_matrix(walk_matrix, NormalizationKind.MIN_MAX)
    assert select_uncorrelated(matrix, 1.0) == list(matrix.names)


def test_select_uncorrelated_duplicate_dropped():
    series = random_walk_series(60, seed=6)
    fm = compute_feature_matrix(series, [
        IndicatorSpec("SMA", 5, name="A"),
        IndicatorSpec("SMA", 5, name="B"),
        IndicatorSpec("MOM", 5, name="C"),
    ])
    matrix = pearson_corr_matrix(fm, NormalizationKind.MIN_MAX)
    for threshold in (0.2, 0.9, 1.0):
        kept = select_uncorrelated(matrix, threshold)
        assert "A" in kept and "B" not in kept


def test_select_uncorrelated_brute_force_oracle(walk_matrix):
    matrix = pearson_corr_matrix(walk_matrix, NormalizationKind.MIN_MAX)
    threshold = 0.9
    kept = select_uncorrelated(matrix, threshold)
    # exhaustive pairwise check of the greedy contract
    kept_idx = [matrix.names.index(name) for name in kept]
    for a_pos, a in enumerate(kept_idx):
        for b in kept_idx[:a_pos]:
            assert abs(matrix.values[b, a]) < threshold
    for j, name in enumerate(matrix.names):
        if name in kept:
            continue
        prior = [i for i in kept_idx if i < j]
        assert any(abs(matrix.values[i, j]) >= threshold for i in prior), name


def test_correlation_matrix_validation():
    with pytest.raises(ValueError):
        CorrelationMatrix(("a", "b"), np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValueError):
        CorrelationMatrix(("a", "b"), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        CorrelationMatrix(("a",), np.array([[0.9]]))


# --- one dispatch, bit-equal to the per-column reference ---------------------------


def _pin_features(kind, series):
    """Indicators over both signs plus a constant and an all-zero column; strictly
    positive columns only for WindowLog."""
    from quantrl import FeatureColumn, FeatureMatrix

    specs = [IndicatorSpec("SMA", 3), IndicatorSpec("TEMA", 4), IndicatorSpec("ATR", 5), IndicatorSpec("SAR")]
    if kind != NormalizationKind.WINDOW_LOG:
        specs += [IndicatorSpec("MOM", 2), IndicatorSpec("MACD", fast=3, slow=7), IndicatorSpec("BOP")]
    columns = list(compute_feature_matrix(series, specs).columns)
    n = len(series)
    columns.append(FeatureColumn("flat", np.r_[np.nan, np.nan, np.full(n - 2, 7.5)], 2, "RSI"))
    if kind != NormalizationKind.WINDOW_LOG:
        columns.append(FeatureColumn("zero", np.zeros(n), 0, "CMO"))
    return FeatureMatrix(tuple(columns))


def _expected_table(features, kind, window, flag, stats=None):
    import oracles

    raw = features.to_array()
    normalized = oracles.o_normalized_features(raw, features.warmup, kind.value, stats)
    windows = oracles.o_observation_table(normalized, features.warmup + window - 1, window, kind.value)
    if not flag:
        return windows
    rows = np.empty((len(windows), 2, windows.shape[1] + 1))
    rows[:, :, :-1] = windows[:, None]
    rows[:, :, -1] = (0.0, 1.0)
    return rows.reshape(2 * len(windows), -1)


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("kind, frozen", [
    *[(kind, False) for kind in NormalizationKind],
    (NormalizationKind.MIN_MAX, True), (NormalizationKind.Z_SCORE, True), (NormalizationKind.SIGMOID, True),
])
def test_env_normalization_bit_equal_to_per_column_reference(kind, frozen, flag):
    from quantrl import EnvConfig, OhlcvSeries, TradingEnv

    series = random_walk_series(160, seed=21)
    features = _pin_features(kind, series)
    stats = None
    if frozen:
        head = _pin_features(kind, OhlcvSeries(series.symbol, series.bars[:90]))
        stats = [fit(col.defined) for col in head.columns]
    for window in (1, 4):
        env = TradingEnv(series, features, EnvConfig(window_size=window, normalization=kind,
                                                     include_position_flag=flag), stats=stats)
        reference_stats = None if stats is None else [(s.mean, s.std, s.min, s.max) for s in stats]
        expected = _expected_table(features, kind, window, flag, reference_stats)
        table = observation_table(env)
        assert table.shape == expected.shape
        assert table.tobytes() == expected.tobytes()


@pytest.mark.parametrize("base", list(NormalizationKind))
def test_corr_bit_equal_to_per_column_reference(base):
    """per_family overrides spanning all five kinds, with raw-constant columns
    whose override (L2, WindowLog) must never see them."""
    import oracles
    from quantrl import FeatureColumn, FeatureMatrix

    series = random_walk_series(300, seed=22)
    positive = ["SMA", "TEMA", "ATR", "ADX", "SAR"]
    mixed = ["MOM", "MACD", "CCI", "BOP", "OBV"]
    specs = [IndicatorSpec(kind) for kind in positive + mixed] + [IndicatorSpec("SMA", 30, name="SMA_copy")]
    columns = list(compute_feature_matrix(series, specs).columns)
    columns.insert(3, FeatureColumn("flat", np.full(len(series), 2.0), 0, "RSI"))
    columns.append(FeatureColumn("zero", np.zeros(len(series)), 0, "CMO"))
    features = FeatureMatrix(tuple(columns))
    kinds = list(NormalizationKind)
    shift = kinds.index(base)
    overrides = {name: kinds[(i + shift) % 5] for i, name in enumerate(positive)}
    signed = [k for k in kinds if k != NormalizationKind.WINDOW_LOG]
    overrides.update({name: signed[(i + shift) % 4] for i, name in enumerate(mixed)})
    overrides.update({"RSI": NormalizationKind.WINDOW_LOG, "CMO": NormalizationKind.L2})
    matrix = pearson_corr_matrix(features, base, overrides)
    col_kinds = [overrides.get(col.kind, base).value for col in features.columns]
    expected, degenerate = oracles.o_corr_matrix(features.to_array()[features.warmup :], col_kinds)
    assert matrix.values.tobytes() == expected.tobytes()
    assert matrix.degenerate == tuple(features.names[j] for j in degenerate) == ("flat", "zero")


@pytest.mark.parametrize("kind", [NormalizationKind.L2, NormalizationKind.WINDOW_LOG])
def test_env_takes_frozen_stats_for_l2_and_window_log(kind):
    """L2 scales by the frozen column norm (a zero norm maps to 0); WindowLog is
    stateless and ignores the stats."""
    import oracles
    from quantrl import EnvConfig, OhlcvSeries, TradingEnv

    series = random_walk_series(160, seed=21)
    features = _pin_features(kind, series)
    head = _pin_features(kind, OhlcvSeries(series.symbol, series.bars[:90]))
    stats = [fit(col.defined) for col in head.columns]
    config = EnvConfig(window_size=4, normalization=kind, include_position_flag=False)
    table = observation_table(TradingEnv(series, features, config, stats=stats))
    fitted = observation_table(TradingEnv(series, features, config))
    if kind == NormalizationKind.WINDOW_LOG:
        assert table.tobytes() == fitted.tobytes()
        return
    assert [s.norm for s in stats] == [float(np.sqrt(np.sum(c.defined * c.defined))) for c in head.columns]
    raw = features.to_array()
    normalized = raw.copy()
    for j, s in enumerate(stats):
        normalized[features.warmup :, j] = raw[features.warmup :, j] / s.norm if s.norm > 0.0 else 0.0
    expected = oracles.o_observation_table(normalized, features.warmup + 3, 4, "L2")
    assert table.tobytes() == expected.tobytes()
    assert not np.array_equal(table, fitted)
