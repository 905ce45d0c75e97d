"""Checks of the pipeline's artifacts against computations made apart from quantrl.

Every check reads the files a stage wrote and the input CSV the benchmark
wrote, recomputes what the file should hold, and raises CheckFailed on the
first disagreement. Nothing here imports quantrl; the indicator and metric
oracles come from tests/oracles.py, which shares no code with the package.
"""

from __future__ import annotations

import csv
import json
import math
import re
import struct
from pathlib import Path

import numpy as np

import oracles

REL_TOL = 1e-9
SHORT, LONG = 0, 1
# render_report writes repr() of numpy scalars, which numpy >= 2 spells np.float64(x)
NUMPY_SCALAR = re.compile(r"np\.float64\((.*)\)")


class CheckFailed(Exception):
    """An artifact disagrees with its independent recomputation."""


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def read_ohlcv(path: Path, start: str | None = None, end: str | None = None) -> dict[str, list]:
    """Columns of a canonical OHLCV CSV, rows with start <= date < end."""
    rows = [r for r in _rows(path)[1:] if r and (start is None or r[0] >= start) and (end is None or r[0] < end)]
    return {
        "date": [r[0] for r in rows],
        "open": [float(r[1]) for r in rows],
        "high": [float(r[2]) for r in rows],
        "low": [float(r[3]) for r in rows],
        "close": [float(r[4]) for r in rows],
        "volume": [float(r[5]) for r in rows],
    }


# --- two-state dynamic program over always-in-market position paths ------------


def log_return_bounds(closes: list[float], commission: float) -> tuple[float, float]:
    """(worst, best) total log return of any Long/Short path over the bars.

    The path holds a position over each step closes[t] -> closes[t+1],
    starts Short, and pays log(1 - commission) on each change of side.
    """
    flip = math.log(1.0 - commission)
    # (worst, best) over paths that end in each position; before the first
    # step the path is Short, and Long is unreachable.
    short, long_ = (0.0, 0.0), (math.inf, -math.inf)
    for t in range(len(closes) - 1):
        step = math.log(closes[t + 1] / closes[t])
        (s_lo, s_hi), (l_lo, l_hi) = short, long_
        short = (min(s_lo, l_lo + flip) - step, max(s_hi, l_hi + flip) - step)
        long_ = (min(l_lo, s_lo + flip) + step, max(l_hi, s_hi + flip) + step)
    return min(short[0], long_[0]), max(short[1], long_[1])


def exhaustive_best_log_return(closes: list[float], commission: float) -> float:
    """Best log return by enumerating all 2^steps position paths."""
    steps = len(closes) - 1
    factors = np.log(np.asarray(closes[1:]) / np.asarray(closes[:-1]))
    flip = math.log(1.0 - commission)
    best = -math.inf
    chunk = 1 << 12  # small blocks keep the check's memory out of the workload's peak RSS
    for lo in range(0, 1 << steps, chunk):
        idx = np.arange(lo, min(lo + chunk, 1 << steps), dtype=np.int64)
        bits = (idx[:, None] >> np.arange(steps)) & 1
        flips = bits[:, 0] + np.abs(np.diff(bits, axis=1)).sum(axis=1)
        best = max(best, float(((2.0 * bits - 1.0) @ factors + flips * flip).max()))
    return best


# --- backtest bundle --------------------------------------------------------------


def equity_is_numeric(path: Path) -> bool:
    """Every equity.csv cell is a plain decimal number."""
    try:
        for row in _rows(path)[1:]:
            float(row[1])
    except (ValueError, IndexError):
        return False
    return True


def _equity_column(path: Path) -> list[float]:
    """equity.csv values; a np.float64(x) cell is read as x (counted apart, see equity_is_numeric)."""
    rows = _rows(path)
    if rows[0] != ["step", "equity"]:
        raise CheckFailed(f"{path}: header {rows[0]}")
    return [number(row[1]) for row in rows[1:]]


def number(cell: str) -> float:
    match = NUMPY_SCALAR.fullmatch(cell)
    return float(match.group(1) if match else cell)


def _ledger(path: Path) -> list[dict]:
    rows = _rows(path)
    if rows[0] != ["step", "action", "position", "price", "reward", "equity"]:
        raise CheckFailed(f"{path}: header {rows[0]}")
    return [{"step": int(r[0]), "position": int(r[2]), "price": float(r[3]), "equity": float(r[5])}
            for r in rows[1:]]


def _episode_start(closes: list[float], ledger: list[dict], path: Path) -> int:
    """The greedy episode runs to the last bar, so it starts len(ledger) bars earlier."""
    start = len(closes) - 1 - len(ledger)
    if start < 0 or [r["price"] for r in ledger] != closes[start + 1:]:
        raise CheckFailed(f"{path}: ledger prices are not the closes after bar {start}")
    return start


def check_equity(out: Path, closes: list[float], commission: float, initial_cash: float) -> None:
    """equity.csv equals the equity compounded from ledger.csv positions and the data closes."""
    ledger = _ledger(out / "ledger.csv")
    start = _episode_start(closes, ledger, out / "ledger.csv")
    equity, position, expected = initial_cash, SHORT, [initial_cash]
    for k, row in enumerate(ledger):
        if row["position"] not in (SHORT, LONG):
            raise CheckFailed(f"ledger row {k}: position {row['position']}")
        if row["position"] != position:
            equity *= 1.0 - commission
            position = row["position"]
        p_prev, p_now = closes[start + k], closes[start + k + 1]
        equity *= p_now / p_prev if position == LONG else p_prev / p_now
        expected.append(equity)
        if not _close(row["equity"], equity):
            raise CheckFailed(f"ledger row {k}: equity {row['equity']!r}, recomputed {equity!r}")
    written = _equity_column(out / "equity.csv")
    if len(written) != len(expected):
        raise CheckFailed(f"equity.csv has {len(written)} rows, ledger implies {len(expected)}")
    for k, (got, want) in enumerate(zip(written, expected)):
        if not _close(got, want):
            raise CheckFailed(f"equity.csv row {k}: {got!r}, recomputed {want!r}")


def _trade_returns(closes: list[float], positions: list[int], start: int, commission: float) -> list[float]:
    """Flip-paired trade returns; the open position closes at the last bar without commission."""
    def gross(direction, entry, exit_):
        return exit_ / entry if direction == LONG else entry / exit_

    direction, entry_idx, held, returns = SHORT, start, SHORT, []
    for k, position in enumerate(positions):
        if position != held:
            flip_at = start + k
            if flip_at > entry_idx:
                returns.append(gross(direction, closes[entry_idx], closes[flip_at]) * (1.0 - commission) - 1.0)
            direction, entry_idx, held = position, flip_at, position
    last = len(closes) - 1
    if last > entry_idx:
        returns.append(gross(direction, closes[entry_idx], closes[last]) - 1.0)
    return returns


def check_report(out: Path, closes: list[float], commission: float) -> None:
    """report.json equals o_metrics of equity.csv; trades recounted from the ledger."""
    report = json.loads((out / "report.json").read_text())
    equity = _equity_column(out / "equity.csv")
    expected = oracles.o_metrics(equity)
    ledger = _ledger(out / "ledger.csv")
    start = _episode_start(closes, ledger, out / "ledger.csv")
    trades = _trade_returns(closes, [r["position"] for r in ledger], start, commission)
    expected["n_trades"] = len(trades)
    expected["win_rate_pct"] = 100.0 * sum(r > 0.0 for r in trades) / len(trades) if trades else 0.0
    if set(report) != set(expected):
        raise CheckFailed(f"report.json keys {sorted(report)}")
    for key, want in expected.items():
        if not _close(float(report[key]), want):
            raise CheckFailed(f"report.json {key}: {report[key]!r}, recomputed {want!r}")


def check_bounds(out: Path, closes: list[float], commission: float) -> tuple[float, float]:
    """The backtest's log return lies between the worst and best path's. Returns (achieved, best)."""
    equity = _equity_column(out / "equity.csv")
    start = len(closes) - len(equity)
    worst, best = log_return_bounds(closes[start:], commission)
    achieved = math.log(equity[-1] / equity[0])
    if not worst - REL_TOL <= achieved <= best + REL_TOL:
        raise CheckFailed(f"log return {achieved!r} outside [{worst!r}, {best!r}]")
    return achieved, best


def check_backtest(out: Path, closes: list[float], commission: float, initial_cash: float) -> tuple[float, float]:
    check_equity(out, closes, commission, initial_cash)
    check_report(out, closes, commission)
    return check_bounds(out, closes, commission)


# --- training artifacts --------------------------------------------------------


def check_policy(path: Path, layer_sizes: list[int]) -> None:
    """policy.bin parses by its documented layout, with finite parameters."""
    data = path.read_bytes()
    if data[:4] != b"QRLP":
        raise CheckFailed(f"{path}: bad magic")
    version, n_layers = struct.unpack_from("<II", data, 4)
    sizes = list(struct.unpack_from(f"<{n_layers + 1}I", data, 12))
    if version != 1 or sizes != layer_sizes:
        raise CheckFailed(f"{path}: version {version}, layer sizes {sizes}, expected {layer_sizes}")
    offset = 12 + 4 * (n_layers + 1)
    params = np.frombuffer(data, dtype="<f8", offset=offset)
    if len(params) != sum(a * b + b for a, b in zip(sizes, sizes[1:])) or len(data) != offset + 8 * len(params):
        raise CheckFailed(f"{path}: payload is {len(data) - offset} bytes")
    if not np.isfinite(params).all():
        raise CheckFailed(f"{path}: non-finite parameters")


def check_training_log(path: Path, total_timesteps: int, episode_steps: int) -> None:
    """Timesteps increase strictly and end within one episode of total_timesteps."""
    rows = _rows(path)
    if rows[0][:3] != ["timestep", "episode_return", "loss"]:
        raise CheckFailed(f"{path}: header {rows[0]}")
    steps = [int(r[0]) for r in rows[1:]]
    if not steps:
        raise CheckFailed(f"{path}: no episode logged")
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise CheckFailed(f"{path}: timesteps not strictly increasing")
    if steps[-1] > total_timesteps or steps[-1] <= total_timesteps - episode_steps:
        raise CheckFailed(f"{path}: last timestep {steps[-1]} for {total_timesteps} total")


# --- features and correlation -----------------------------------------------------


def _default_oracles(bars: dict[str, list]) -> dict[str, list]:
    o, h, l, c, v = bars["open"], bars["high"], bars["low"], bars["close"], bars["volume"]
    return {
        "SMA_30": oracles.o_sma(c, 30), "OBV": oracles.o_obv(c, v), "MOM_10": oracles.o_mom(c, 10),
        "STOCH_K_14": oracles.o_stoch_k(h, l, c, 14), "MACD_12_26": oracles.o_macd(c, 12, 26, 9)[0],
        "CCI_14": oracles.o_cci(h, l, c, 14), "ADX_14": oracles.o_adx(h, l, c, 14),
        "TRIX_10": oracles.o_trix(c, 10), "ROC_10": oracles.o_roc(c, 10), "SAR": oracles.o_sar(h, l, c),
        "TEMA_30": oracles.o_tema(c, 30), "TRIMA_30": oracles.o_trima(c, 30), "WMA_30": oracles.o_wma(c, 30),
        "DEMA_30": oracles.o_dema(c, 30), "MFI_14": oracles.o_mfi(h, l, c, v, 14), "CMO_14": oracles.o_cmo(c, 14),
        "STOCHRSI_14": oracles.o_stochrsi(c, 14), "UO_7_14_28": oracles.o_uo(h, l, c, 7, 14, 28),
        "BOP": oracles.o_bop(o, h, l, c), "ATR_14": oracles.o_atr(h, l, c, 14),
    }


def check_features(path: Path, bars: dict[str, list]) -> None:
    """features.csv of the default 20-indicator set equals the brute-force oracles."""
    rows = _rows(path)
    names = rows[0][1:]
    expected = _default_oracles(bars)
    if rows[0][0] != "Date" or sorted(names) != sorted(expected):
        raise CheckFailed(f"{path}: columns {rows[0]}")
    if [r[0] for r in rows[1:]] != bars["date"]:
        raise CheckFailed(f"{path}: dates differ from the data segment")
    for j, name in enumerate(names, start=1):
        for t, (row, want) in enumerate(zip(rows[1:], expected[name])):
            cell = row[j]
            if (cell == "") != (want is None) or (want is not None and not _close(float(cell), want)):
                raise CheckFailed(f"{path}: {name} row {t}: {cell!r}, oracle {want!r}")


def check_corr(corr_path: Path, features_path: Path, selected_path: Path) -> None:
    """corr.csv is symmetric with unit diagonal and equals np.corrcoef of the raw
    feature columns (min-max scaling leaves Pearson unchanged); every selected
    pair is below the threshold."""
    rows = _rows(corr_path)
    names = rows[0][1:]
    matrix = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
    if [r[0] for r in rows[1:]] != names or matrix.shape != (len(names), len(names)):
        raise CheckFailed(f"{corr_path}: malformed")
    if not np.array_equal(matrix, matrix.T):
        raise CheckFailed(f"{corr_path}: not symmetric")
    if not (np.diag(matrix) == 1.0).all():
        raise CheckFailed(f"{corr_path}: diagonal not 1")
    feats = _rows(features_path)
    if feats[0][1:] != names:
        raise CheckFailed(f"{features_path}: columns differ from corr.csv")
    raw = np.array([[float(x) for x in r[1:]] for r in feats[1:] if all(r[1:])])
    reference = np.corrcoef(raw, rowvar=False)
    worst = float(np.abs(matrix - reference).max())
    if worst > REL_TOL:
        raise CheckFailed(f"{corr_path}: differs from np.corrcoef by {worst:.3e}")
    selected = json.loads(selected_path.read_text())
    kept = [names.index(n) for n in selected["selected"]]
    for a in kept:
        for b in kept:
            if a != b and abs(matrix[a, b]) >= selected["threshold"]:
                raise CheckFailed(f"{selected_path}: {names[a]}/{names[b]} corr {matrix[a, b]!r}")


def check_ingest(path: Path, bars: dict[str, list]) -> None:
    """data.csv re-emits exactly the configured segment."""
    got = read_ohlcv(path)
    if got != bars:
        raise CheckFailed(f"{path}: differs from the configured data segment")


def check_compare(path: Path, reports: list[dict]) -> None:
    """compare.csv holds one column per report; trade counts match."""
    rows = {r[0]: r[1:] for r in _rows(path)}
    if len(rows.get("metric", [])) != len(reports):
        raise CheckFailed(f"{path}: {len(rows.get('metric', []))} columns for {len(reports)} reports")
    if rows["n_trades"] != [str(r["n_trades"]) for r in reports]:
        raise CheckFailed(f"{path}: n_trades {rows['n_trades']}")
