import numpy as np
import pytest

import oracles
from conftest import make_series, random_walk_series
from quantrl import IndicatorSpec, OhlcvSeries, compute_feature_matrix, default_specs
from quantrl.errors import PeriodTooLong
from quantrl.indicators import (
    adx, atr, bop, cci, cmo, dema, ema, macd, mfi, mom, obv, roc, rsi, sar,
    sma, stochastic, stochrsi, tema, trima, trix, uo, wma,
)

TOL = 1e-9


@pytest.fixture(scope="module")
def walk():
    return random_walk_series(500, seed=7)


def column_close(series):
    return series.closes()


def assert_matches_oracle(column, oracle_values, tol=TOL):
    oracle_defined = [i for i, v in enumerate(oracle_values) if v is not None]
    assert column.warmup == oracle_defined[0]
    for i in range(column.warmup):
        assert np.isnan(column.values[i])
    diffs = [abs(column.values[i] - oracle_values[i]) for i in oracle_defined]
    assert max(diffs) <= tol


def test_sma_oracle(walk):
    close = column_close(walk)
    assert_matches_oracle(sma(close, 14), oracles.o_sma(list(close), 14))


def test_sma_example():
    col = sma([1, 2, 3, 4, 5], 3)
    assert np.isnan(col.values[0]) and np.isnan(col.values[1])
    assert col.values[2:].tolist() == [2.0, 3.0, 4.0]


def test_wma_oracle(walk):
    close = column_close(walk)
    assert_matches_oracle(wma(close, 14), oracles.o_wma(list(close), 14))


def test_wma_example():
    assert wma([1, 2, 3], 3).values[-1] == pytest.approx(7.0 / 3.0, abs=1e-15)


def test_ema_recurrence_oracle():
    close = np.arange(1.0, 11.0)
    assert_matches_oracle(ema(close, 3), oracles.o_ema(list(close), 3), tol=1e-12)


def test_ema_constant_fixed_point():
    col = ema(np.full(50, 42.0), 10)
    assert np.allclose(col.defined, 42.0)


def test_ema_period_one_is_identity():
    close = np.array([3.0, 1.0, 4.0, 1.5])
    assert np.array_equal(ema(close, 1).values, close)


def test_ema_oracle_on_walk(walk):
    close = column_close(walk)
    assert_matches_oracle(ema(close, 30), oracles.o_ema(list(close), 30))


def test_trima_oracle(walk):
    close = column_close(walk)
    for n in (4, 5, 30):
        assert_matches_oracle(trima(close, n), oracles.o_trima(list(close), n))


def test_dema_tema_oracle(walk):
    close = column_close(walk)
    assert_matches_oracle(dema(close, 30), oracles.o_dema(list(close), 30))
    assert_matches_oracle(tema(close, 30), oracles.o_tema(list(close), 30))


def test_trix_oracle(walk):
    close = column_close(walk)
    assert_matches_oracle(trix(close, 10), oracles.o_trix(list(close), 10))


def test_trix_constant_is_zero():
    col = trix(np.full(40, 5.0), 10)
    assert np.allclose(col.defined, 0.0)


def test_macd_oracle(walk):
    close = column_close(walk)
    line, sig = macd(close, 12, 26, 9)
    o_line, o_sig = oracles.o_macd(list(close), 12, 26, 9)
    assert_matches_oracle(line, o_line)
    assert_matches_oracle(sig, o_sig)


def test_macd_constant_zero():
    line, sig = macd(np.full(60, 7.0), 12, 26, 9)
    assert np.allclose(line.defined, 0.0)
    assert np.allclose(sig.defined, 0.0)


def test_macd_positive_on_ramp():
    line, _ = macd(np.arange(1.0, 80.0), 12, 26, 9)
    assert (line.defined > 0).all()


def test_mom_roc_oracle(walk):
    close = column_close(walk)
    assert_matches_oracle(mom(close, 10), oracles.o_mom(list(close), 10))
    assert_matches_oracle(roc(close, 10), oracles.o_roc(list(close), 10))


def test_mom_roc_constant_zero():
    close = np.full(30, 9.0)
    assert np.allclose(mom(close, 10).defined, 0.0)
    assert np.allclose(roc(close, 10).defined, 0.0)


def test_rsi_oracle(walk):
    close = column_close(walk)
    assert_matches_oracle(rsi(close, 14), oracles.o_rsi(list(close), 14))


def test_rsi_known_sequence():
    # Wilder example-style input, checked against the direct-formula oracle
    close = [44.0, 44.34, 44.09, 44.15, 43.61, 44.33, 44.83, 45.10, 45.42,
             45.84, 46.08, 45.89, 46.03, 45.61, 46.28, 46.28, 46.00, 46.03,
             46.41, 46.22, 45.64]
    assert_matches_oracle(rsi(np.array(close), 14), oracles.o_rsi(close, 14))


def test_rsi_all_rising_is_100():
    col = rsi(np.arange(1.0, 40.0), 14)
    assert np.allclose(col.defined, 100.0)


def test_cmo_oracle(walk):
    close = column_close(walk)
    assert_matches_oracle(cmo(close, 14), oracles.o_cmo(list(close), 14))


def test_stochrsi_oracle(walk):
    close = column_close(walk)
    assert_matches_oracle(stochrsi(close, 14), oracles.o_stochrsi(list(close), 14))


def test_stochastic_oracle(walk):
    k, d = stochastic(walk.highs(), walk.lows(), walk.closes(), 14, 3)
    assert_matches_oracle(k, oracles.o_stoch_k(list(walk.highs()), list(walk.lows()), list(walk.closes()), 14))
    assert_matches_oracle(d, oracles.o_stoch_d(list(walk.highs()), list(walk.lows()), list(walk.closes()), 14, 3))


def test_stochastic_extremes():
    # close at the period high -> 100; at the period low -> 0
    high = np.full(6, 5.0)
    low = np.full(6, 1.0)
    k_hi, _ = stochastic(high, low, high, 3, 1)
    assert np.allclose(k_hi.defined, 100.0)
    k_lo, _ = stochastic(high, low, low, 3, 1)
    assert np.allclose(k_lo.defined, 0.0)


def test_obv_oracle(walk):
    col = obv(walk.closes(), walk.volumes())
    expected = oracles.o_obv(list(walk.closes()), list(walk.volumes()))
    assert np.allclose(col.values, expected, atol=TOL)


def test_obv_example():
    col = obv([1.0, 2.0, 2.0, 1.0], [10.0, 10.0, 10.0, 10.0])
    assert col.values.tolist() == [0.0, 10.0, 10.0, 0.0]


def test_obv_flat_is_zero():
    col = obv(np.full(10, 3.0), np.full(10, 7.0))
    assert np.allclose(col.values, 0.0)


def test_mfi_oracle(walk):
    col = mfi(walk.highs(), walk.lows(), walk.closes(), walk.volumes(), 14)
    assert_matches_oracle(col, oracles.o_mfi(
        list(walk.highs()), list(walk.lows()), list(walk.closes()), list(walk.volumes()), 14))


def test_mfi_all_up_is_100():
    closes = np.arange(10.0, 40.0)
    series = make_series(closes)
    col = mfi(series.highs(), series.lows(), series.closes(), series.volumes(), 14)
    assert np.allclose(col.defined, 100.0)


def test_atr_oracle(walk):
    col = atr(walk.highs(), walk.lows(), walk.closes(), 14)
    assert_matches_oracle(col, oracles.o_atr(list(walk.highs()), list(walk.lows()), list(walk.closes()), 14))


def test_flat_bars_atr_bop_zero():
    flat = np.full(30, 5.0)
    assert np.allclose(atr(flat, flat, flat, 14).defined, 0.0)
    assert np.allclose(bop(flat, flat, flat, flat).values, 0.0)


def test_bop_example():
    col = bop([2.0], [4.0], [1.0], [3.0])
    assert col.values[0] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_bop_oracle(walk):
    col = bop(walk.opens(), walk.highs(), walk.lows(), walk.closes())
    assert np.allclose(col.values, oracles.o_bop(
        list(walk.opens()), list(walk.highs()), list(walk.lows()), list(walk.closes())), atol=TOL)


def test_cci_oracle(walk):
    col = cci(walk.highs(), walk.lows(), walk.closes(), 14)
    assert_matches_oracle(col, oracles.o_cci(list(walk.highs()), list(walk.lows()), list(walk.closes()), 14))


def test_adx_oracle(walk):
    col = adx(walk.highs(), walk.lows(), walk.closes(), 14)
    assert_matches_oracle(col, oracles.o_adx(list(walk.highs()), list(walk.lows()), list(walk.closes()), 14))


def test_uo_oracle(walk):
    col = uo(walk.highs(), walk.lows(), walk.closes(), (7, 14, 28))
    assert_matches_oracle(col, oracles.o_uo(
        list(walk.highs()), list(walk.lows()), list(walk.closes()), 7, 14, 28))


def test_sar_oracle(walk):
    col = sar(walk.highs(), walk.lows(), walk.closes())
    expected = oracles.o_sar(list(walk.highs()), list(walk.lows()), list(walk.closes()))
    assert_matches_oracle(col, expected)


def test_bounded_ranges(walk):
    assert (rsi(walk.closes(), 14).defined >= 0).all() and (rsi(walk.closes(), 14).defined <= 100).all()
    m = mfi(walk.highs(), walk.lows(), walk.closes(), walk.volumes(), 14).defined
    assert (m >= 0).all() and (m <= 100).all()
    k, d = stochastic(walk.highs(), walk.lows(), walk.closes(), 14, 3)
    assert (k.defined >= 0).all() and (k.defined <= 100).all()
    assert (d.defined >= 0).all() and (d.defined <= 100).all()
    u = uo(walk.highs(), walk.lows(), walk.closes()).defined
    assert (u >= 0).all() and (u <= 100).all()
    a = adx(walk.highs(), walk.lows(), walk.closes(), 14).defined
    assert (a >= 0).all() and (a <= 100).all()
    sr = stochrsi(walk.closes(), 14).defined
    assert (sr >= 0).all() and (sr <= 1).all()
    c = cmo(walk.closes(), 14).defined
    assert (c >= -100).all() and (c <= 100).all()
    b = bop(walk.opens(), walk.highs(), walk.lows(), walk.closes()).values
    assert (b >= -1).all() and (b <= 1).all()


@pytest.mark.parametrize("n", [2, 5, 14])
def test_warmup_lengths(walk, n):
    close = walk.closes()
    high, low, vol = walk.highs(), walk.lows(), walk.volumes()
    expected = [
        (sma(close, n), n - 1),
        (wma(close, n), n - 1),
        (ema(close, n), n - 1),
        (trima(close, n), n - 1),
        (dema(close, n), 2 * n - 2),
        (tema(close, n), 3 * n - 3),
        (trix(close, n), 3 * n - 2),
        (mom(close, n), n),
        (roc(close, n), n),
        (rsi(close, n), n),
        (cmo(close, n), n),
        (stochrsi(close, n), 2 * n - 1),
        (atr(high, low, close, n), n),
        (cci(high, low, close, n), n - 1),
        (adx(high, low, close, n), 2 * n - 1),
        (mfi(high, low, close, vol, n), n),
    ]
    for col, warm in expected:
        assert col.warmup == warm, col.name
        assert np.isnan(col.values[:warm]).all()
        assert np.isfinite(col.values[warm:]).all()


def test_warmup_special_cases(walk):
    k, d = stochastic(walk.highs(), walk.lows(), walk.closes(), 14, 3)
    assert k.warmup == 13 and d.warmup == 15
    line, sig = macd(walk.closes(), 12, 26, 9)
    assert line.warmup == 25 and sig.warmup == 33
    assert uo(walk.highs(), walk.lows(), walk.closes(), (7, 14, 28)).warmup == 28
    assert sar(walk.highs(), walk.lows(), walk.closes()).warmup == 1
    assert obv(walk.closes(), walk.volumes()).warmup == 0
    assert bop(walk.opens(), walk.highs(), walk.lows(), walk.closes()).warmup == 0


WINDOW_LOCAL = [
    lambda s: sma(s.closes(), 9),
    lambda s: wma(s.closes(), 9),
    lambda s: trima(s.closes(), 9),
    lambda s: mom(s.closes(), 9),
    lambda s: roc(s.closes(), 9),
    lambda s: cmo(s.closes(), 9),
    lambda s: stochastic(s.highs(), s.lows(), s.closes(), 9, 3)[0],
    lambda s: stochastic(s.highs(), s.lows(), s.closes(), 9, 3)[1],
    lambda s: cci(s.highs(), s.lows(), s.closes(), 9),
    lambda s: uo(s.highs(), s.lows(), s.closes(), (4, 8, 16)),
    lambda s: bop(s.opens(), s.highs(), s.lows(), s.closes()),
    lambda s: mfi(s.highs(), s.lows(), s.closes(), s.volumes(), 9),
]


@pytest.mark.parametrize("build", WINDOW_LOCAL)
def test_shift_equivariance_window_local(walk, build):
    # suffix computation equals the suffix of the full computation after warm-up
    from quantrl import OhlcvSeries

    offset = 100
    suffix = OhlcvSeries(walk.symbol, walk.bars[offset:])
    full = build(walk)
    part = build(suffix)
    lo = part.warmup
    assert np.allclose(part.values[lo:], full.values[offset + lo :], atol=TOL)


def test_obv_recurrence(walk):
    # start-dependent indicator: assert the documented recurrence instead
    col = obv(walk.closes(), walk.volumes()).values
    closes, volumes = walk.closes(), walk.volumes()
    assert col[0] == 0.0
    for t in range(1, len(closes)):
        if closes[t] > closes[t - 1]:
            assert col[t] == col[t - 1] + volumes[t]
        elif closes[t] < closes[t - 1]:
            assert col[t] == col[t - 1] - volumes[t]
        else:
            assert col[t] == col[t - 1]


@pytest.mark.parametrize("kind", ["BOP", "CCI", "ADX", "UO", "CMO", "STOCH_K", "STOCH_D", "STOCHRSI", "MFI"])
def test_degenerate_denominator_reads_zero(kind):
    """A zero denominator reads exactly 0: on a fully flat series, and on a flat
    stretch at the rows whose window lies inside it. There each kind's window is
    its warm-up; ADX and STOCHRSI smooth over all history, so only the fully flat
    series reaches their rule."""
    flat = np.full(60, 5.0)
    flat_series = make_series(flat, opens=flat, highs=flat, lows=flat)
    column = compute_feature_matrix(flat_series, [IndicatorSpec(kind)]).columns[0]
    assert (column.defined == 0.0).all()
    if kind not in ("ADX", "STOCHRSI"):
        walk = random_walk_series(200, seed=7)
        lo, hi = 80, 130
        ohlc = [walk.opens().copy(), walk.highs().copy(), walk.lows().copy(), walk.closes().copy()]
        for values in ohlc:
            values[lo:hi] = walk.closes()[lo]
        opens, highs, lows, closes = ohlc
        stretch = make_series(closes, opens=opens, highs=highs, lows=lows, volumes=walk.volumes())
        column = compute_feature_matrix(stretch, [IndicatorSpec(kind)]).columns[0]
        assert (column.values[lo + column.warmup : hi] == 0.0).all()
        assert (column.defined[:lo] != 0.0).any()
    if kind == "MFI":
        falling = make_series(np.linspace(200.0, 100.0, 80))
        assert (mfi(falling.highs(), falling.lows(), falling.closes(), falling.volumes(), 14).defined == 0.0).all()


def test_period_too_long():
    with pytest.raises(PeriodTooLong):
        sma(np.arange(1.0, 5.0), 10)
    with pytest.raises(PeriodTooLong):
        tema(np.arange(1.0, 10.0), 4)  # needs 3*4-2 = 10 bars
    with pytest.raises(PeriodTooLong):
        rsi(np.arange(1.0, 5.0), 4)


def test_feature_matrix_default_specs(walk505=None):
    series = random_walk_series(505, seed=11)
    matrix = compute_feature_matrix(series, default_specs())
    assert matrix.width == 20
    # matrix warm-up is the max of per-column warm-ups
    assert matrix.warmup == max(c.warmup for c in matrix.columns)
    assert matrix.warmup == 87  # TEMA(30): 3n-3


def test_feature_matrix_single_sma1_equals_close(walk):
    matrix = compute_feature_matrix(walk, [IndicatorSpec("SMA", 1)])
    assert np.array_equal(matrix.to_array()[:, 0], walk.closes())


def test_feature_matrix_duplicate_names_error(walk):
    with pytest.raises(ValueError, match="duplicate"):
        compute_feature_matrix(walk, [IndicatorSpec("SMA", 5), IndicatorSpec("SMA", 5)])


def test_feature_matrix_error_names_spec():
    series = random_walk_series(20, seed=1)
    with pytest.raises(PeriodTooLong, match="TEMA_30"):
        compute_feature_matrix(series, [IndicatorSpec("TEMA", 30)])


def test_feature_matrix_csv_export(tmp_path, walk):
    matrix = compute_feature_matrix(walk, [IndicatorSpec("SMA", 5), IndicatorSpec("RSI", 5)])
    out = tmp_path / "features.csv"
    matrix.to_csv(out, walk.dates())
    lines = out.read_text().splitlines()
    assert lines[0] == "Date,SMA_5,RSI_5"
    assert len(lines) == len(walk) + 1
    # warm-up cells are empty
    first = lines[1].split(",")
    assert first[1] == "" and first[2] == ""


def test_feature_matrix_csv_bytes_equal_csv_writer(tmp_path, walk):
    import csv

    matrix = compute_feature_matrix(walk, [IndicatorSpec("SMA", 5, name='a, "b"'), IndicatorSpec("BOP"),
                                           IndicatorSpec("ADX", 6)])
    path = tmp_path / "features.csv"
    matrix.to_csv(path, walk.dates())
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["Date"] + matrix.names)
        for i, day in enumerate(walk.dates()):
            writer.writerow([day.isoformat()] + ["" if i < c.warmup else repr(float(c.values[i])) for c in matrix.columns])
    assert path.read_bytes() == expected.read_bytes()
    assert path.read_bytes().startswith(b'Date,"a, ""b""",BOP,ADX_6\r\n')


def test_spec_validation():
    with pytest.raises(ValueError):
        IndicatorSpec("MACD", fast=26, slow=12)
    with pytest.raises(ValueError):
        IndicatorSpec("UO", periods=(14, 7, 28))
    with pytest.raises(ValueError):
        IndicatorSpec("SMA", 0)
    with pytest.raises(ValueError):
        IndicatorSpec("NOPE")
    for kind in ("STOCH_K", "STOCH_D"):
        with pytest.raises(ValueError, match=f"^{kind}: d_period"):
            IndicatorSpec(kind, d_period=0)
    assert IndicatorSpec("RSI").period == 14


@pytest.mark.parametrize("t", [120, 150, 299, 399])
def test_default_indicators_are_causal(walk, t):
    """Every default column computed on bars[:t] equals the first t rows of the
    full computation bit for bit, NaN in the same warm-up cells: no indicator
    value depends on a later bar."""
    full = compute_feature_matrix(walk, default_specs())
    prefix = compute_feature_matrix(OhlcvSeries(walk.symbol, walk.bars[:t]), default_specs())
    assert prefix.names == full.names and len(full.names) == 20
    for head, whole in zip(prefix.columns, full.columns):
        assert head.warmup == whole.warmup, head.name
        assert head.values.tobytes() == whole.values[:t].tobytes(), head.name


def test_every_kind_through_feature_matrix_equals_direct_call(walk):
    """Each config kind, with non-default parameters, yields through
    compute_feature_matrix exactly the column its indicator function returns."""
    from quantrl.indicators import KINDS

    o, h, lo, c, v = walk.opens(), walk.highs(), walk.lows(), walk.closes(), walk.volumes()
    cases = [
        (IndicatorSpec("SMA", 7), sma(c, 7)),
        (IndicatorSpec("OBV"), obv(c, v)),
        (IndicatorSpec("MOM", 4), mom(c, 4)),
        (IndicatorSpec("STOCH_K", 9), stochastic(h, lo, c, 9, 3)[0]),
        (IndicatorSpec("STOCH_D", 9, d_period=5), stochastic(h, lo, c, 9, 5)[1]),
        (IndicatorSpec("STOCH_D", 6, d_period=2, name="slow d"), stochastic(h, lo, c, 6, 2, names=("x", "slow d"))[1]),
        (IndicatorSpec("MACD", fast=5, slow=13, signal=4), macd(c, 5, 13, 4)[0]),
        (IndicatorSpec("MACD_SIGNAL", fast=5, slow=13, signal=4), macd(c, 5, 13, 4)[1]),
        (IndicatorSpec("CCI", 11), cci(h, lo, c, 11)),
        (IndicatorSpec("ADX", 8), adx(h, lo, c, 8)),
        (IndicatorSpec("TRIX", 6), trix(c, 6)),
        (IndicatorSpec("ROC", 3), roc(c, 3)),
        (IndicatorSpec("SAR", accel_start=0.01, accel_step=0.03, accel_max=0.15), sar(h, lo, c, 0.01, 0.03, 0.15)),
        (IndicatorSpec("TEMA", 5), tema(c, 5)),
        (IndicatorSpec("TRIMA", 8), trima(c, 8)),
        (IndicatorSpec("WMA", 6), wma(c, 6)),
        (IndicatorSpec("DEMA", 7), dema(c, 7)),
        (IndicatorSpec("MFI", 10), mfi(h, lo, c, v, 10)),
        (IndicatorSpec("CMO", 9), cmo(c, 9)),
        (IndicatorSpec("STOCHRSI", 6), stochrsi(c, 6)),
        (IndicatorSpec("UO", periods=(3, 8, 20)), uo(h, lo, c, (3, 8, 20))),
        (IndicatorSpec("BOP"), bop(o, h, lo, c)),
        (IndicatorSpec("ATR", 5), atr(h, lo, c, 5)),
        (IndicatorSpec("RSI", 6, name="my, rsi"), rsi(c, 6, "my, rsi")),
    ]
    assert {spec.kind for spec, _ in cases} == set(KINDS)
    matrix = compute_feature_matrix(walk, [spec for spec, _ in cases])
    for (spec, expected), column in zip(cases, matrix.columns):
        assert column.name == spec.column_name == expected.name
        assert (column.warmup, column.kind) == (expected.warmup, expected.kind) == (column.warmup, spec.kind)
        assert column.values.tobytes() == expected.values.tobytes(), spec
