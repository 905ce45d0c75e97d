"""Seeded fuzz of CSV ingestion against the row-wise reference loader.

Valid files are generated from a seed and then mutated (fields dropped, added,
swapped or replaced; rules broken; dates duplicated or shuffled; blank lines,
quoted fields and NUL bytes inserted). ``load_csv`` must return the series the
reference returns, or raise the same error type with the same line number and
message. Undecodable bytes and over-long fields, which the reference lets escape
as UnicodeDecodeError and csv.Error, are checked on their own: the loader
reports them as MalformedRow on the offending line.
"""

import csv
import json
from datetime import date, timedelta

import numpy as np
import pytest

from oracles import OracleRejected, o_load_csv
from quantrl import load_csv
from quantrl.errors import MalformedRow, QuantrlError
from quantrl.runner.cli import EXIT_DATA, EXIT_OK, cli

HEADER = "Date,Open,High,Low,Close,Volume"
# Rejected by date.fromisoformat on every supported Python, so both loaders agree.
BAD_DATES = ["2020-13-01", "2020-02-30", "01/02/2020", "", "2020-01-0x", "0000-01-01", "2020-1-2",
             "2020/01/02", "2020-01-02T00:00", "2020-01-02 00:00", "２０２０-01-02"]
BAD_NUMBERS = ["abc", "", "0x10", "--1", "1.2.3", "1e", "１", "1 0", "+-2"]
SPECIAL_NUMBERS = ["nan", "NaN", "inf", "-inf", "Infinity", "-1.5", "0", "-0.0", "1e400", "1e-320",
                   " 12.5 ", "1_0", "1e2", "+7"]
BLANK_LINES = ["", "   ", ",,,,,", " , , , , , ", "\t", ",", '""']
HEADER_VARIANTS = [" Date , Open,High,Low,Close,Volume ", "date,open,high,low,close,volume",
                   "Date,Open,High,Low,Close", "Date,Open,High,Low,Close,Volume,Adj", "", '"Date",Open,High,Low,Close,Volume']


def valid_rows(rng, n):
    day = date(2010, 1, 1) + timedelta(days=int(rng.integers(0, 4000)))
    close = float(rng.uniform(5.0, 200.0))
    style = rng.integers(0, 3)
    rows = []
    for _ in range(n):
        day += timedelta(days=int(rng.integers(1, 4)))
        opened, close = close, close * float(np.exp(rng.normal(0.0, 0.02)))
        high = max(opened, close) * (1.0 + abs(float(rng.normal(0.0, 0.01))))
        low = min(opened, close) * (1.0 - abs(float(rng.normal(0.0, 0.01))))
        volume = float(rng.integers(0, 3)) * float(rng.integers(0, 10**6))
        fmt = repr if style == 0 else (lambda x: f"{x:.4f}") if style == 1 else (lambda x: f"{x:.9g}")
        rows.append([day.isoformat(), *(fmt(x) for x in (opened, high, low, close)), fmt(volume)])
    return rows


def pick_row(rng, rows):
    return rows[int(rng.integers(0, len(rows)))] if rows else []


def pick_field(rng, row):
    return int(rng.integers(0, len(row))) if row else 0


def m_drop_field(rng, rows):
    row = pick_row(rng, rows)
    if row:
        del row[pick_field(rng, row)]


def m_extra_field(rng, rows):
    pick_row(rng, rows).append(str(rng.choice(["1", "", "x"])))


def m_swap_fields(rng, rows):
    row = pick_row(rng, rows)
    if len(row) > 1:
        i, j = rng.choice(len(row), 2, replace=False)
        row[i], row[j] = row[j], row[i]


def m_bad_date(rng, rows):
    row = pick_row(rng, rows)
    if row:
        row[0] = str(rng.choice(BAD_DATES))


def m_bad_number(rng, rows):
    row = pick_row(rng, rows)
    if len(row) > 1:
        row[int(rng.integers(1, len(row)))] = str(rng.choice(BAD_NUMBERS))


def m_special_number(rng, rows):
    row = pick_row(rng, rows)
    if len(row) > 1:
        row[int(rng.integers(1, len(row)))] = str(rng.choice(SPECIAL_NUMBERS))


def m_break_rule(rng, rows):
    row = pick_row(rng, rows)
    if len(row) == 6:
        o, h, lo, c = row[1:5]
        row[1:5] = [[h, o, lo, c], [o, lo, h, c], [o, h, lo, h + "1"], [lo, h, o, c], [o, c, lo, h]][
            int(rng.integers(0, 5))]


def m_duplicate_date(rng, rows):
    src, dst = pick_row(rng, rows), pick_row(rng, rows)
    if src and dst:
        dst[0] = src[0]


def m_shuffle(rng, rows):
    rows[:] = [rows[i] for i in rng.permutation(len(rows))]


def m_blank_line(rng, rows):
    rows.insert(int(rng.integers(0, len(rows) + 1)), [str(rng.choice(BLANK_LINES))])


def m_whitespace(rng, rows):
    row = pick_row(rng, rows)
    if row:
        i = pick_field(rng, row)
        row[i] = str(rng.choice([" ", "\t", "  "])) + row[i] + str(rng.choice(["", " ", " "]))


def m_quote(rng, rows):
    row = pick_row(rng, rows)
    if row:
        i = pick_field(rng, row)
        row[i] = str(rng.choice(['"{}"', '"{},5"', '"{}\n7"', '"{}""x"', '"{}', '{}"'])).format(row[i])


def m_nul(rng, rows):
    row = pick_row(rng, rows)
    if row:
        i = pick_field(rng, row)
        k = int(rng.integers(0, len(row[i]) + 1))
        row[i] = row[i][:k] + "\x00" + row[i][k:]


def m_truncate(rng, rows):
    del rows[int(rng.integers(0, 3)):]


MUTATIONS = [m_drop_field, m_extra_field, m_swap_fields, m_bad_date, m_bad_number, m_special_number,
             m_break_rule, m_duplicate_date, m_shuffle, m_blank_line, m_whitespace, m_quote, m_nul,
             m_truncate]


def render(rng, header, rows):
    newline = str(rng.choice(["\n", "\r\n"]))
    lines = [header] + [",".join(row) for row in rows]
    return newline.join(lines) + (newline if rng.random() < 0.8 else "")


def fuzz_file(seed):
    """One mutated file's text; mutations 0-3 of them, sometimes on the header.
    Every tenth file is long enough to span several of the loader's row blocks."""
    rng = np.random.default_rng([seed, 2024])
    rows = valid_rows(rng, int(rng.integers(1, 25) if seed % 10 else rng.integers(250, 800)))
    for _ in range(int(rng.integers(0, 4))):
        MUTATIONS[int(rng.integers(0, len(MUTATIONS)))](rng, rows)
    header = HEADER if rng.random() < 0.93 else str(rng.choice(HEADER_VARIANTS))
    return render(rng, header, rows)


def outcome(load, path):
    """("ok", rows) or ("error", type name, line number, message)."""
    try:
        result = load(path)
    except OracleRejected as exc:
        return ("error", exc.kind, exc.line_no, exc.message)
    except QuantrlError as exc:
        return ("error", type(exc).__name__, getattr(exc, "line_no", None), str(exc))
    if isinstance(result, list):
        return ("ok", result)
    return ("ok", [(b.timestamp, b.open, b.high, b.low, b.close, b.volume) for b in result.bars])


@pytest.mark.parametrize("block", range(8))
def test_load_csv_agrees_with_row_wise_reference(tmp_path, block):
    outcomes = set()
    for seed in range(block * 100, block * 100 + 100):
        path = tmp_path / f"f{seed}.csv"
        path.write_bytes(fuzz_file(seed).encode("utf-8"))
        expected = outcome(o_load_csv, path)
        assert outcome(load_csv, path) == expected, (seed, path.read_bytes()[:400])
        outcomes.add(expected[1] if expected[0] == "error" else "ok")
    # the mutations reach every outcome, not only rejections
    assert outcomes == {"ok", "MalformedRow", "InvariantViolation", "EmptySeries"}


def test_fuzz_series_equal_after_valid_mutations(tmp_path):
    """Mutations that keep a file valid (shuffle, blank lines, spacing, quoting) load the same series."""
    rng = np.random.default_rng(5)
    rows = valid_rows(rng, 30)
    plain = tmp_path / "plain.csv"
    plain.write_text(render(rng, HEADER, rows))
    mutated = [[f" {r[0]} ", f'"{r[1]}"', f"{r[2]} ", f"\t{r[3]}", r[4], r[5]] for r in rows]
    mutated = [mutated[i] for i in rng.permutation(len(mutated))]
    mutated[5:5] = [[""], [" , , , , , "], ["   "]]
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(render(rng, " Date , Open,High,Low,Close,Volume", mutated))
    assert load_csv(shuffled, symbol="S") == load_csv(plain, symbol="S")
    assert outcome(load_csv, shuffled) == outcome(o_load_csv, shuffled)


def undecodable(text_bytes, rng):
    k = int(rng.integers(0, len(text_bytes) + 1))
    return text_bytes[:k] + bytes(rng.choice([b"\xff", b"\xc3\x28", b"\xe2\x82", b"\x80"])) + text_bytes[k:]


@pytest.mark.parametrize("kind", ["non_utf8", "long_field"])
def test_loader_names_line_of_undecodable_or_overlong_field(tmp_path, kind):
    """The two deliberate differences from the reference: it raises
    UnicodeDecodeError / csv.Error, the loader MalformedRow on that line."""
    rng = np.random.default_rng(11)
    for trial in range(40):
        rows = valid_rows(rng, int(rng.integers(3, 20)))
        target = int(rng.integers(0, len(rows)))
        lines = [HEADER.encode()] + [",".join(row).encode() for row in rows]
        field = int(rng.integers(0, 6))
        fields = lines[target + 1].split(b",")
        if kind == "non_utf8":
            fields[field] = undecodable(fields[field], rng)
            escaped = (UnicodeDecodeError,)
        else:
            fields[field] = b"1" * (csv.field_size_limit() + int(rng.integers(1, 5000)))
            escaped = (csv.Error,)
        lines[target + 1] = b",".join(fields)
        path = tmp_path / f"{kind}{trial}.csv"
        path.write_bytes(b"\r\n".join(lines) + b"\r\n")
        with pytest.raises(escaped):
            o_load_csv(path)
        with pytest.raises(MalformedRow) as err:
            load_csv(path)
        assert err.value.line_no == target + 2


@pytest.mark.parametrize("later", ["non_utf8", "long_field", "field_count"])
def test_first_failing_line_decides(tmp_path, later):
    """A bad bar on line 3 is reported even when line 9 cannot be read at all."""
    rows = [",".join(r).encode() for r in valid_rows(np.random.default_rng(3), 10)]
    rows[1] = b"2030-01-01,1,0.5,2,1,10"  # line 3: high below low
    rows[7] = {"non_utf8": rows[7] + b"\xff", "long_field": b"9" * 200_000,
               "field_count": b"2030-01-02,1,2"}[later]
    path = tmp_path / "two_faults.csv"
    path.write_bytes(HEADER.encode() + b"\n" + b"\n".join(rows) + b"\n")
    with pytest.raises(QuantrlError) as err:
        load_csv(path)
    assert (type(err.value).__name__, err.value.line_no) == ("InvariantViolation", 3)


def test_ingest_exits_0_or_3_with_one_json_line(tmp_path, capsys):
    rng = np.random.default_rng(19)
    cases = [fuzz_file(seed).encode("utf-8") for seed in range(900, 960)]
    valid = HEADER.encode() + b"\n" + b"\n".join(",".join(r).encode() for r in valid_rows(rng, 12)) + b"\n"
    cases += [undecodable(valid, rng) for _ in range(5)]
    cases += [valid.replace(b"\n", b"," + b"7" * 140_000 + b"\n", 3), b"", b"\x00\x00", b"\xff\xfe"]
    codes = set()
    for i, data in enumerate(cases):
        path = tmp_path / f"in{i}.csv"
        path.write_bytes(data)
        config = tmp_path / f"c{i}.json"
        config.write_text(json.dumps({"data": {"path": str(path)}, "output_dir": str(tmp_path / f"out{i}")}))
        code = cli(["ingest", "--config", str(config)])
        err = capsys.readouterr().err.splitlines()
        assert code in (EXIT_OK, EXIT_DATA), (i, err)
        assert len(err) == (code == EXIT_DATA), (i, err)
        if err:
            assert json.loads(err[0])["error"] == "data"
        codes.add(code)
    assert codes == {EXIT_OK, EXIT_DATA}
