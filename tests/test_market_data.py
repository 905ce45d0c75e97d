from datetime import date

import numpy as np
import pytest

from quantrl import Bar, OhlcvSeries, load_csv, save_csv, slice_by_date
from quantrl.errors import EmptySeries, InvariantViolation, MalformedRow
from quantrl.market_data import bar_rule_violation

from conftest import random_walk_series

HEADER = "Date,Open,High,Low,Close,Volume\n"


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_minimal_valid_file(tmp_path):
    path = write(tmp_path, HEADER + "2020-01-01,1,2,0.5,1.5,100\n2020-01-02,1.5,2,1,2,100\n")
    series = load_csv(path)
    assert len(series) == 2
    assert series.bars[0].close == 1.5
    assert series.symbol == "data"


def test_high_below_low_rejected(tmp_path):
    path = write(tmp_path, HEADER + "2020-01-01,1,2,0.5,1.5,100\n2020-01-02,1.5,1.4,1.6,1.5,100\n")
    with pytest.raises(InvariantViolation) as err:
        load_csv(path)
    assert err.value.line_no == 3


def test_unparsable_field(tmp_path):
    path = write(tmp_path, HEADER + "2020-01-01,1,2,0.5,oops,100\n2020-01-02,1.5,2,1,2,100\n")
    with pytest.raises(MalformedRow) as err:
        load_csv(path)
    assert err.value.line_no == 2


def test_bad_header(tmp_path):
    path = write(tmp_path, "date,o,h,l,c,v\n2020-01-01,1,2,0.5,1.5,100\n")
    with pytest.raises(MalformedRow) as err:
        load_csv(path)
    assert err.value.line_no == 1


def test_bad_date(tmp_path):
    path = write(tmp_path, HEADER + "01/02/2020,1,2,0.5,1.5,100\n2020-01-02,1.5,2,1,2,100\n")
    with pytest.raises(MalformedRow):
        load_csv(path)


def test_single_row_is_empty_series(tmp_path):
    path = write(tmp_path, HEADER + "2020-01-01,1,2,0.5,1.5,100\n")
    with pytest.raises(EmptySeries):
        load_csv(path)


def test_unsorted_rows_are_sorted(tmp_path):
    path = write(tmp_path, HEADER + "2020-01-03,1,2,0.5,1.5,100\n2020-01-01,1,2,0.5,1.5,100\n")
    series = load_csv(path)
    assert [b.timestamp for b in series.bars] == [date(2020, 1, 1), date(2020, 1, 3)]


def test_duplicate_dates_rejected(tmp_path):
    path = write(tmp_path, HEADER + "2020-01-01,1,2,0.5,1.5,100\n2020-01-01,1,2,0.5,1.5,100\n")
    with pytest.raises(InvariantViolation, match="duplicate"):
        load_csv(path)


def test_zero_volume_accepted(tmp_path):
    path = write(tmp_path, HEADER + "2020-01-01,1,2,0.5,1.5,0\n2020-01-02,1.5,2,1,2,100\n")
    assert load_csv(path).bars[0].volume == 0.0


def test_nonfinite_rejected(tmp_path):
    path = write(tmp_path, HEADER + "2020-01-01,1,2,0.5,nan,100\n2020-01-02,1.5,2,1,2,100\n")
    with pytest.raises(InvariantViolation):
        load_csv(path)


def test_505_row_count_oracle(tmp_path, walk505):
    # independent oracle: count the data lines we wrote
    path = tmp_path / "walk.csv"
    save_csv(walk505, path)
    line_count = sum(1 for line in path.read_text().splitlines() if line.strip())
    assert line_count - 1 == 505
    assert len(load_csv(path)) == 505


def test_round_trip_identity(tmp_path):
    series = random_walk_series(60, seed=3)
    path = tmp_path / "rt.csv"
    save_csv(series, path)
    loaded = load_csv(path, symbol=series.symbol)
    assert loaded == series


def test_round_trip_identity_on_generated_bars(tmp_path):
    # property: round trip over many seeded series
    for seed in range(10):
        series = random_walk_series(30, seed=seed)
        path = tmp_path / f"s{seed}.csv"
        save_csv(series, path)
        assert load_csv(path, symbol="WALK") == series


def test_loaded_series_satisfies_invariants(tmp_path):
    series = random_walk_series(80, seed=5)
    path = tmp_path / "inv.csv"
    save_csv(series, path)
    loaded = load_csv(path)
    closes = loaded.closes()
    assert (closes > 0).all()
    for bar in loaded.bars:
        assert bar_rule_violation(bar) is None
    stamps = [b.timestamp for b in loaded.bars]
    assert all(a < b for a, b in zip(stamps, stamps[1:]))


def test_slice_identity():
    series = random_walk_series(40, seed=1)
    sliced = slice_by_date(series, series.bars[0].timestamp, date(2099, 1, 1))
    assert sliced == series


def test_slice_empty_window():
    series = random_walk_series(40, seed=1)
    day = series.bars[5].timestamp
    with pytest.raises(EmptySeries):
        slice_by_date(series, day, day)


def test_slice_start_after_end():
    series = random_walk_series(40, seed=1)
    with pytest.raises(ValueError):
        slice_by_date(series, date(2021, 1, 1), date(2020, 1, 1))


def test_slice_filter_oracle():
    series = random_walk_series(400, seed=2)
    start, end = date(2020, 6, 1), date(2020, 7, 1)
    sliced = slice_by_date(series, start, end)
    expected = [b for b in series.bars if start <= b.timestamp < end]
    assert list(sliced.bars) == expected
    assert all(b.timestamp.month == 6 for b in sliced.bars)


def test_series_needs_two_bars():
    with pytest.raises(EmptySeries):
        OhlcvSeries("X", (Bar(date(2020, 1, 1), 1, 2, 0.5, 1.5, 10),))


@pytest.mark.parametrize("stamp", ["20200102", "2020-W01-3", "2020-1-2", "2020-01-02T00:00"])
def test_only_yyyy_mm_dd_dates_accepted(tmp_path, stamp):
    # date.fromisoformat takes the first two from Python 3.11 on; the format does not.
    path = write(tmp_path, HEADER + f"{stamp},1,2,0.5,1.5,100\n2020-01-03,1.5,2,1,2,100\n")
    with pytest.raises(MalformedRow) as err:
        load_csv(path)
    assert err.value.line_no == 2
    assert stamp in str(err.value)


@pytest.mark.parametrize("fault", ["non_utf8", "long_field"])
def test_unreadable_line_is_data_error(tmp_path, capsys, fault):
    import json

    from quantrl.runner.cli import EXIT_DATA, cli

    bad = b"2020-01-03,1.5,2,1,2,1\xff00\n" if fault == "non_utf8" else b"2020-01-03," + b"1" * 140_000 + b"\n"
    path = tmp_path / "bad.csv"
    path.write_bytes(HEADER.encode() + b"2020-01-01,1,2,0.5,1.5,100\n2020-01-02,1.5,2,1,2,100\n" + bad)
    with pytest.raises(MalformedRow) as err:
        load_csv(path)
    assert err.value.line_no == 4
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data": {"path": str(path)}, "output_dir": str(tmp_path / "out")}))
    assert cli(["ingest", "--config", str(config)]) == EXIT_DATA
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["type"] == "MalformedRow"


def test_rule_mask_agrees_with_bar_rule_violation():
    """Every bar over edge values in each field: equal OHLC, zero volume, zero,
    signed-zero and negative prices, NaN and +-inf. Both functions read one rule
    table, so the oracle's scalar rules are the independent reference."""
    import itertools

    from oracles import o_bar_rule
    from quantrl.market_data import rule_mask

    edges = [0.5, 1.0, 2.0, 0.0, -0.0, -1.0, float("nan"), float("inf"), float("-inf")]
    bars = list(itertools.product(edges, repeat=5))
    mask = rule_mask(np.array(bars).T.copy())
    rules = [bar_rule_violation(Bar(date(2020, 1, 1), *bar)) for bar in bars]
    assert rules == [o_bar_rule(*bar) for bar in bars]
    expected = [rule is not None for rule in rules]
    assert mask.tolist() == expected
    assert 0 < sum(expected) < len(expected)


def test_constructor_names_first_bad_bar():
    good = [Bar(date(2020, 1, d), 1.0, 2.0, 0.5, 1.5, 10.0) for d in range(1, 6)]
    broken = good[:2] + [Bar(date(2020, 1, 3), 1.0, 0.9, 0.5, 1.5, 10.0)] + good[3:]
    with pytest.raises(InvariantViolation, match=r"^bar 2 \(2020-01-03\): high below max\(open, close\)$"):
        OhlcvSeries("X", broken)
    with pytest.raises(InvariantViolation, match=r"^bar 3: timestamps not strictly increasing$"):
        OhlcvSeries("X", good[:3] + [good[1]] + good[4:])
    with pytest.raises(InvariantViolation, match=r"^bar 1 \(2020-01-01\): non-finite field$"):
        OhlcvSeries("X", [good[1], Bar(date(2020, 1, 1), 1.0, 2.0, 0.5, float("nan"), 1.0)])


def test_columns_are_read_only_views():
    series = random_walk_series(50, seed=4)
    columns = [series.opens(), series.highs(), series.lows(), series.closes(), series.volumes()]
    for column, field in zip(columns, ["open", "high", "low", "close", "volume"]):
        assert column.flags.c_contiguous and not column.flags.writeable
        assert column.tolist() == [getattr(b, field) for b in series.bars]
        with pytest.raises(ValueError):
            column[0] = 1.0
    assert series.dates() == [b.timestamp for b in series.bars]
    assert OhlcvSeries(series.symbol, series.bars) == series
    sliced = slice_by_date(series, series.dates()[10], series.dates()[20])
    assert np.shares_memory(sliced.closes(), series.closes())
    assert sliced.bars == series.bars[10:20]
    assert not sliced.closes().flags.writeable


def test_slice_bounds_between_and_outside_dates():
    series = random_walk_series(30, seed=6)  # one bar a day from 2020-01-02
    assert slice_by_date(series, date(2019, 1, 1), date(2020, 1, 5)).dates() == series.dates()[:3]
    assert len(slice_by_date(series, date(2020, 1, 30), date(2099, 1, 1))) == 2
    with pytest.raises(EmptySeries, match=r"1 bars in \[2020-01-31, 2099-01-01\)"):
        slice_by_date(series, date(2020, 1, 31), date(2099, 1, 1))


def test_save_csv_bytes_equal_csv_writer(tmp_path):
    import csv

    series = random_walk_series(40, seed=8)
    path = tmp_path / "s.csv"
    save_csv(series, path)
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["Date", "Open", "High", "Low", "Close", "Volume"])
        for b in series.bars:
            writer.writerow([b.timestamp.isoformat(), repr(b.open), repr(b.high), repr(b.low), repr(b.close),
                             repr(b.volume)])
    assert path.read_bytes() == expected.read_bytes()
