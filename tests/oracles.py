"""Independent brute-force oracles used to validate the library.

Everything here is written directly from the defining formulas with plain
Python loops and window recomputation - no shared code with the package
and no incremental shortcuts beyond the definitions themselves. The
exceptions use the package: ``observe`` reads its env's current
observation and ``observation_table`` all of its observation rows from
the env's window table,
``o_run_policy`` and ``o_train_on_policy`` drive their env bar by bar, and
the four ``o_*_loss*``
bodies run its network passes, which ``o_forward_cached`` and
``o_mlp_backward`` pin separately.
"""

import csv
import math
from datetime import date

import numpy as np


def o_sma(close, n):
    out = [None] * len(close)
    for t in range(n - 1, len(close)):
        out[t] = sum(close[t - n + 1 : t + 1]) / n
    return out


def o_wma(close, n):
    out = [None] * len(close)
    denom = sum(range(1, n + 1))
    for t in range(n - 1, len(close)):
        window = close[t - n + 1 : t + 1]
        out[t] = sum((i + 1) * window[i] for i in range(n)) / denom
    return out


def o_ema(close, n):
    out = [None] * len(close)
    if n > len(close):
        return out
    k = 2.0 / (n + 1.0)
    value = sum(close[:n]) / n
    out[n - 1] = value
    for t in range(n, len(close)):
        value = k * close[t] + (1.0 - k) * value
        out[t] = value
    return out


def o_trima(close, n):
    n1 = math.ceil((n + 1) / 2)
    n2 = math.floor((n + 1) / 2)
    first = o_sma(close, n1)
    out = [None] * len(close)
    for t in range(n - 1, len(close)):
        out[t] = sum(first[t - n2 + 1 : t + 1]) / n2
    return out


def o_dema(close, n):
    e1 = o_ema(close, n)
    e2_in = [v for v in e1 if v is not None]
    e2 = o_ema(e2_in, n)
    out = [None] * len(close)
    for t in range(2 * (n - 1), len(close)):
        out[t] = 2.0 * e1[t] - e2[t - (n - 1)]
    return out


def o_tema(close, n):
    e1 = o_ema(close, n)
    e2 = o_ema([v for v in e1 if v is not None], n)
    e3 = o_ema([v for v in e2 if v is not None], n)
    out = [None] * len(close)
    for t in range(3 * (n - 1), len(close)):
        out[t] = 3.0 * e1[t] - 3.0 * e2[t - (n - 1)] + e3[t - 2 * (n - 1)]
    return out


def o_trix(close, n):
    e1 = o_ema(close, n)
    e2 = o_ema([v for v in e1 if v is not None], n)
    e3 = o_ema([v for v in e2 if v is not None], n)
    e3_full = [None] * len(close)
    for t in range(3 * (n - 1), len(close)):
        e3_full[t] = e3[t - 2 * (n - 1)]
    out = [None] * len(close)
    for t in range(3 * (n - 1) + 1, len(close)):
        out[t] = 100.0 * (e3_full[t] - e3_full[t - 1]) / e3_full[t - 1]
    return out


def o_macd(close, fast, slow, signal):
    ef = o_ema(close, fast)
    es = o_ema(close, slow)
    line = [None] * len(close)
    for t in range(slow - 1, len(close)):
        line[t] = ef[t] - es[t]
    sig_vals = o_ema([v for v in line if v is not None], signal)
    sig = [None] * len(close)
    for t in range(slow + signal - 2, len(close)):
        sig[t] = sig_vals[t - (slow - 1)]
    return line, sig


def o_mom(close, n):
    return [None] * n + [close[t] - close[t - n] for t in range(n, len(close))]


def o_roc(close, n):
    return [None] * n + [100.0 * (close[t] - close[t - n]) / close[t - n] for t in range(n, len(close))]


def _rsi_from_averages(avg_gain, avg_loss):
    if avg_loss == 0.0:
        return 100.0 if avg_gain > 0.0 else 0.0
    return 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)


def o_rsi(close, n):
    out = [None] * len(close)
    gains = [max(close[t] - close[t - 1], 0.0) for t in range(1, len(close))]
    losses = [max(close[t - 1] - close[t], 0.0) for t in range(1, len(close))]
    if n > len(gains):
        return out
    avg_gain = sum(gains[:n]) / n
    avg_loss = sum(losses[:n]) / n
    out[n] = _rsi_from_averages(avg_gain, avg_loss)
    for t in range(n + 1, len(close)):
        avg_gain = (avg_gain * (n - 1) + gains[t - 1]) / n
        avg_loss = (avg_loss * (n - 1) + losses[t - 1]) / n
        out[t] = _rsi_from_averages(avg_gain, avg_loss)
    return out


def o_cmo(close, n):
    out = [None] * len(close)
    for t in range(n, len(close)):
        diffs = [close[i] - close[i - 1] for i in range(t - n + 1, t + 1)]
        gains = sum(d for d in diffs if d > 0)
        losses = sum(-d for d in diffs if d < 0)
        total = gains + losses
        out[t] = 100.0 * (gains - losses) / total if total > 0 else 0.0
    return out


def o_stoch_k(high, low, close, n):
    out = [None] * len(close)
    for t in range(n - 1, len(close)):
        hh = max(high[t - n + 1 : t + 1])
        ll = min(low[t - n + 1 : t + 1])
        out[t] = 100.0 * (close[t] - ll) / (hh - ll) if hh > ll else 0.0
    return out


def o_stoch_d(high, low, close, n, d):
    k = o_stoch_k(high, low, close, n)
    out = [None] * len(close)
    for t in range(n + d - 2, len(close)):
        out[t] = sum(k[t - d + 1 : t + 1]) / d
    return out


def o_stochrsi(close, n):
    r = o_rsi(close, n)
    out = [None] * len(close)
    for t in range(2 * n - 1, len(close)):
        window = r[t - n + 1 : t + 1]
        hi, lo = max(window), min(window)
        # RSI on a flat stretch differs only in its last ulps: a span of at most
        # 8 ulps of the window's largest |RSI| is rounding, and reads 0
        out[t] = (r[t] - lo) / (hi - lo) if hi - lo > 8 * math.ulp(max(abs(v) for v in window)) else 0.0
    return out


def o_obv(close, volume):
    out = [0.0]
    for t in range(1, len(close)):
        if close[t] > close[t - 1]:
            out.append(out[-1] + volume[t])
        elif close[t] < close[t - 1]:
            out.append(out[-1] - volume[t])
        else:
            out.append(out[-1])
    return out


def o_mfi(high, low, close, volume, n):
    tp = [(high[t] + low[t] + close[t]) / 3.0 for t in range(len(close))]
    out = [None] * len(close)
    for t in range(n, len(close)):
        pos = neg = 0.0
        for i in range(t - n + 1, t + 1):
            flow = tp[i] * volume[i]
            if tp[i] > tp[i - 1]:
                pos += flow
            elif tp[i] < tp[i - 1]:
                neg += flow
        if neg > 0.0:
            out[t] = 100.0 - 100.0 / (1.0 + pos / neg)
        else:
            out[t] = 100.0 if pos > 0.0 else 0.0
    return out


def _tr(high, low, close, t):
    return max(high[t] - low[t], abs(high[t] - close[t - 1]), abs(low[t] - close[t - 1]))


def o_atr(high, low, close, n):
    out = [None] * len(close)
    trs = [_tr(high, low, close, t) for t in range(1, len(close))]
    if n > len(trs):
        return out
    value = sum(trs[:n]) / n
    out[n] = value
    for t in range(n + 1, len(close)):
        value = (value * (n - 1) + trs[t - 1]) / n
        out[t] = value
    return out


def o_bop(opens, high, low, close):
    out = []
    for t in range(len(close)):
        span = high[t] - low[t]
        out.append((close[t] - opens[t]) / span if span > 0 else 0.0)
    return out


def o_cci(high, low, close, n):
    tp = [(high[t] + low[t] + close[t]) / 3.0 for t in range(len(close))]
    out = [None] * len(close)
    for t in range(n - 1, len(close)):
        window = tp[t - n + 1 : t + 1]
        mean = sum(window) / n
        mad = sum(abs(v - mean) for v in window) / n
        out[t] = (tp[t] - mean) / (0.015 * mad) if max(window) > min(window) else 0.0
    return out


def o_adx(high, low, close, n):
    length = len(close)
    plus_dm, minus_dm, trs = [], [], []
    for t in range(1, length):
        up = high[t] - high[t - 1]
        down = low[t - 1] - low[t]
        plus_dm.append(up if (up > down and up > 0) else 0.0)
        minus_dm.append(down if (down > up and down > 0) else 0.0)
        trs.append(_tr(high, low, close, t))

    def wilder(xs):
        vals = [None] * len(xs)
        value = sum(xs[:n]) / n
        vals[n - 1] = value
        for i in range(n, len(xs)):
            value = (value * (n - 1) + xs[i]) / n
            vals[i] = value
        return vals

    avg_plus, avg_minus, avg_tr = wilder(plus_dm), wilder(minus_dm), wilder(trs)
    dx = []
    for i in range(n - 1, len(trs)):
        if avg_tr[i] and avg_tr[i] > 0:
            dip = 100.0 * avg_plus[i] / avg_tr[i]
            dim = 100.0 * avg_minus[i] / avg_tr[i]
        else:
            dip = dim = 0.0
        dx.append(100.0 * abs(dip - dim) / (dip + dim) if dip + dim > 0 else 0.0)
    out = [None] * length
    value = sum(dx[:n]) / n
    out[2 * n - 1] = value
    for i in range(n, len(dx)):
        value = (value * (n - 1) + dx[i]) / n
        out[i + n] = value
    return out


def o_uo(high, low, close, p1, p2, p3):
    bp, tr = [], []
    for t in range(1, len(close)):
        lo = min(low[t], close[t - 1])
        hi = max(high[t], close[t - 1])
        bp.append(close[t] - lo)
        tr.append(hi - lo)
    out = [None] * len(close)
    for t in range(p3, len(close)):
        i = t - 1  # bp/tr index for bar t

        def ratio(p):
            b = sum(bp[i - p + 1 : i + 1])
            r = sum(tr[i - p + 1 : i + 1])
            return b / r if r > 0 else 0.0

        out[t] = 100.0 * (4.0 * ratio(p1) + 2.0 * ratio(p2) + ratio(p3)) / 7.0
    return out


def o_sar(high, low, close, start=0.02, step=0.02, cap=0.2):
    out = [None] * len(close)
    rising = close[1] >= close[0]
    if rising:
        value, ep = low[0], max(high[0], high[1])
    else:
        value, ep = high[0], min(low[0], low[1])
    af = start
    out[1] = value
    for t in range(2, len(close)):
        value = value + af * (ep - value)
        if rising:
            value = min(value, low[t - 1], low[t - 2])
            if low[t] < value:
                rising, value, ep, af = False, ep, low[t], start
            elif high[t] > ep:
                ep, af = high[t], min(af + step, cap)
        else:
            value = max(value, high[t - 1], high[t - 2])
            if high[t] > value:
                rising, value, ep, af = True, ep, high[t], start
            elif low[t] < ep:
                ep, af = low[t], min(af + step, cap)
        out[t] = value
    return out


# --- metric oracles (spreadsheet-style arithmetic) ---------------------------


def o_metrics(curve, rf=0.0, periods_per_year=252):
    """Direct-formula performance block from an equity list."""
    rets = [curve[t] / curve[t - 1] - 1.0 for t in range(1, len(curve))]
    n = len(rets)
    mean_excess = sum(r - rf for r in rets) / n
    var = sum((r - rf - mean_excess) ** 2 for r in rets) / n
    sigma = math.sqrt(var)
    downside = math.sqrt(sum(min(r - rf, 0.0) ** 2 for r in rets) / n)
    total = curve[-1] / curve[0] - 1.0
    ann = (1.0 + total) ** (periods_per_year / n) - 1.0
    peak, mdd = curve[0], 0.0
    for v in curve:
        peak = max(peak, v)
        mdd = max(mdd, (peak - v) / peak)
    return {
        "return_pct": total * 100.0,
        "return_ann_pct": ann * 100.0,
        "vol_ann_pct": sigma * math.sqrt(periods_per_year) * 100.0,
        "sharpe": (mean_excess * periods_per_year) / (sigma * math.sqrt(periods_per_year)) if sigma > 0 else 0.0,
        "sortino": (mean_excess * periods_per_year) / (downside * math.sqrt(periods_per_year)) if downside > 0 else 0.0,
        "calmar": ann / mdd if mdd > 0 else 0.0,
        "max_drawdown_pct": mdd * 100.0,
    }


# --- network passes and optimizers, allocating every array ------------------------
# The MLP forward/backward bodies as they were before workspaces existed: every
# intermediate is a fresh array. The workspace passes must equal them bit for bit.


def o_forward_cached(policy, x):
    cache = []
    h = np.asarray(x, dtype=float)
    last = len(policy.weights) - 1
    for i, (w, b) in enumerate(zip(policy.weights, policy.biases)):
        cache.append(h)
        h = h @ w + b
        if i != last:
            h = np.tanh(h)
    return h, cache


def o_mlp_backward(policy, cache, grad_out):
    grad_w, grad_b = [], []
    delta = np.asarray(grad_out, dtype=float)
    for i in range(len(policy.weights) - 1, -1, -1):
        if i != len(policy.weights) - 1:
            activated = cache[i + 1]
            delta = delta * (1.0 - activated * activated)
        grad_w.insert(0, np.matmul(cache[i].T, delta))
        grad_b.insert(0, delta.sum(axis=0))
        if i > 0:
            delta = delta @ policy.weights[i].T
    return np.concatenate([p.ravel() for pair in zip(grad_w, grad_b) for p in pair])


# --- the four losses, one body each --------------------------------------------------
# The DQN, value, policy-gradient and PPO losses as they were before they shared
# one squared-error body and one softmax-policy body. The shared bodies must
# equal them bit for bit, with and without a workspace.


def o_q_loss_and_grads(online, states, actions, targets, workspace=None):
    from quantrl.agents.mlp import forward_cached, mlp_backward

    q_all, cache = forward_cached(online, states, workspace)
    rows = np.arange(len(actions))
    delta = q_all[rows, actions] - targets
    loss = float(np.add.reduce(delta * delta) / len(delta))
    grad_out = np.zeros_like(q_all)
    grad_out[rows, actions] = 2.0 * delta / len(actions)
    return loss, mlp_backward(online, cache, grad_out, workspace)


def o_value_loss(critic, states, returns, workspace=None):
    from quantrl.agents.mlp import forward_cached, mlp_backward

    values, cache = forward_cached(critic, states, workspace)
    delta = values[:, 0] - returns
    loss = float(np.add.reduce(delta * delta) / len(delta))
    grad_out = np.zeros_like(values)
    grad_out[:, 0] = 2.0 * delta / len(returns)
    return loss, mlp_backward(critic, cache, grad_out, workspace)


def o_policy_gradient_loss(actor, states, actions, advantages, entropy_coef, workspace=None):
    from quantrl.agents.mlp import forward_cached, log_softmax, mlp_backward

    logits, cache = forward_cached(actor, states, workspace)
    logp = log_softmax(logits)
    probs = np.exp(logp)
    batch = len(actions)
    rows = np.arange(batch)
    logp_taken = logp[rows, actions]
    entropy = -(probs * logp).sum(axis=1)
    loss = float(-(logp_taken * advantages).mean() - entropy_coef * entropy.mean())
    one_hot = np.zeros_like(logits)
    one_hot[rows, actions] = 1.0
    grad_logits = -(advantages[:, None] * (one_hot - probs)) / batch
    grad_logits += entropy_coef * probs * (logp + entropy[:, None]) / batch
    return loss, mlp_backward(actor, cache, grad_logits, workspace)


def o_ppo_policy_loss(actor, states, actions, logp_old, advantages, clip_range, entropy_coef, workspace=None):
    from quantrl.agents.mlp import forward_cached, log_softmax, mlp_backward

    logits, cache = forward_cached(actor, states, workspace)
    logp = log_softmax(logits)
    probs = np.exp(logp)
    batch = len(actions)
    rows = np.arange(batch)
    ratio = np.exp(logp[rows, actions] - logp_old)
    surr1 = ratio * advantages
    surr2 = np.clip(ratio, 1.0 - clip_range, 1.0 + clip_range) * advantages
    entropy = -(probs * logp).sum(axis=1)
    loss = float(-np.minimum(surr1, surr2).mean() - entropy_coef * entropy.mean())
    active = surr1 <= surr2
    one_hot = np.zeros_like(logits)
    one_hot[rows, actions] = 1.0
    grad_ratio = np.where(active, advantages, 0.0) * ratio
    grad_logits = -(grad_ratio[:, None] * (one_hot - probs)) / batch
    grad_logits += entropy_coef * probs * (logp + entropy[:, None]) / batch
    return loss, mlp_backward(actor, cache, grad_logits, workspace)


# --- CSV ingestion, one row at a time ------------------------------------------------
# The loader as it was before series became columnar: it reads each row, checks it
# and keeps it as a tuple, then sorts by date and rejects duplicates. It reports a
# rejection as OracleRejected, naming the error type the package raises; undecodable
# bytes and csv.Error escape from it unconverted.

O_CSV_HEADER = ["Date", "Open", "High", "Low", "Close", "Volume"]


class OracleRejected(Exception):
    def __init__(self, kind, line_no, message):
        super().__init__(message)
        self.kind = kind
        self.line_no = line_no
        self.message = message


def _o_reject(kind, line_no, detail):
    where = f"line {line_no}: " if line_no is not None else ""
    raise OracleRejected(kind, line_no, where + detail)


def o_bar_rule(o, h, lo, c, v):
    if not all(math.isfinite(x) for x in (o, h, lo, c, v)):
        return "non-finite field"
    if min(o, h, lo, c) <= 0:
        return "price not strictly positive"
    if v < 0:
        return "negative volume"
    if lo > min(o, c):
        return "low above min(open, close)"
    if h < max(o, c):
        return "high below max(open, close)"
    if lo > h:
        return "low above high"
    return None


def _o_parse_row(line_no, row):
    if len(row) != 6:
        _o_reject("MalformedRow", line_no, f"expected 6 fields, got {len(row)}")
    try:
        ts = date.fromisoformat(row[0].strip())
    except ValueError as exc:
        _o_reject("MalformedRow", line_no, f"bad date {row[0]!r}: {exc}")
    numbers = []
    for field_name, text in zip(O_CSV_HEADER[1:], row[1:]):
        try:
            numbers.append(float(text))
        except ValueError:
            _o_reject("MalformedRow", line_no, f"bad {field_name} {text!r}")
    return (ts, *numbers)


def o_load_csv(path):
    """(timestamp, open, high, low, close, volume) tuples sorted by date."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            _o_reject("EmptySeries", None, f"{path}: empty file")
        if [h.strip() for h in header] != O_CSV_HEADER:
            _o_reject("MalformedRow", 1, f"expected header {','.join(O_CSV_HEADER)!r}, got {','.join(header)!r}")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not field.strip() for field in row):
                continue
            bar = _o_parse_row(line_no, row)
            rule = o_bar_rule(*bar[1:])
            if rule is not None:
                _o_reject("InvariantViolation", line_no, rule)
            rows.append((line_no, bar))
    if len(rows) < 2:
        _o_reject("EmptySeries", None, f"{path}: {len(rows)} valid rows, need at least 2")
    rows.sort(key=lambda item: item[1][0])
    for (_, prev), (line_no, cur) in zip(rows, rows[1:]):
        if cur[0] == prev[0]:
            _o_reject("InvariantViolation", line_no, f"duplicate date {cur[0]}")
    return [bar for _, bar in rows]


# --- feature normalization, one column at a time ------------------------------------
# The env's and the correlation matrix's normalization as they were before one
# dispatch served both: each column is fitted with 1-D reductions and scaled on
# its own, L2 and WindowLog are handled inline, and no frozen stats are taken for
# them. Kinds are the NormalizationKind values ("MinMax", "ZScore", "Sigmoid",
# "L2", "WindowLog"). The package must equal these bodies bit for bit.


def o_fit(values):
    """(mean, std, min, max) of a 1-D column, population std."""
    return float(values.mean()), float(values.std()), float(values.min()), float(values.max())


def o_scale(kind, values, stats):
    mean, std, lo, hi = stats
    if kind == "MinMax":
        return np.zeros_like(values) if hi - lo == 0.0 else (values - lo) / (hi - lo)
    if kind == "ZScore":
        return np.zeros_like(values) if std == 0.0 else (values - mean) / std
    if kind == "Sigmoid":
        if std == 0.0:
            return np.full_like(values, 0.5)
        z = np.clip((values - mean) / std, -700.0, 700.0)
        return np.clip(1.0 / (1.0 + np.exp(-z)), np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    raise ValueError(kind)


def o_l2(values):
    norm = float(np.sqrt(np.sum(values * values)))
    return values / norm if norm > 0.0 else np.zeros_like(values)


def o_window_log(window):
    """log(s_ij / s_00) * 10, s_00 the window's first cell."""
    return np.log(window / window.flat[0]) * 10.0


def o_normalized_features(raw, warmup, kind, stats=None):
    """The env's (n_bars, width) normalized features, NaN in warm-up rows; raw
    features for WindowLog, which is applied per observation window. ``stats``
    are (mean, std, min, max) tuples, for the three fitted kinds only."""
    defined = raw[warmup:]
    if kind == "WindowLog":
        if np.any(defined <= 0.0):
            raise ValueError("WindowLog needs strictly positive features")
        return raw
    out = np.full_like(raw, np.nan)
    for j in range(raw.shape[1]):
        column = defined[:, j]
        if kind == "L2":
            out[warmup:, j] = o_l2(column)
        else:
            out[warmup:, j] = o_scale(kind, column, o_fit(column) if stats is None else stats[j])
    return out


def o_observation_table(normalized, start, window, kind):
    """One flattened window per cursor from ``start`` to the last bar."""
    rows = [normalized[cursor - window + 1 : cursor + 1] for cursor in range(start, len(normalized))]
    if kind == "WindowLog":
        rows = [o_window_log(block) for block in rows]
    return np.array([block.ravel() for block in rows])


def o_corr_transform(common, kinds):
    """The correlation matrix's per-column scaling of the commonly defined rows:
    a raw-constant column is degenerate and zeroed; WindowLog anchors a column at
    its first row. Returns (transformed, degenerate column indices in order)."""
    transformed = np.empty_like(common)
    degenerate = []
    for j, kind in enumerate(kinds):
        values = common[:, j]
        if np.ptp(values) == 0.0:
            degenerate.append(j)
            transformed[:, j] = 0.0
        elif kind == "WindowLog":
            if np.any(values <= 0.0):
                raise ValueError("WindowLog needs strictly positive features")
            transformed[:, j] = o_window_log(values)
        elif kind == "L2":
            transformed[:, j] = o_l2(values)
        else:
            transformed[:, j] = o_scale(kind, values, o_fit(values))
    return transformed, degenerate


def o_corr_matrix(common, kinds):
    """Pearson matrix of ``o_corr_transform``'s columns with the degenerate rules,
    exact +-1 for identical or negated centred columns. Returns (matrix,
    degenerate column indices in the order they were found)."""
    transformed, degenerate = o_corr_transform(common, kinds)
    k = common.shape[1]
    live = [j for j in range(k) if j not in degenerate]
    for j in live[:]:
        if np.ptp(transformed[:, j]) == 0.0:
            live.remove(j)
            degenerate.append(j)
    matrix = np.eye(k)
    if len(live) >= 2:
        sub = np.corrcoef(transformed[:, live], rowvar=False)
        sub = np.clip((sub + sub.T) / 2.0, -1.0, 1.0)
        np.fill_diagonal(sub, 1.0)
        for a, ja in enumerate(live):
            for b, jb in enumerate(live):
                matrix[ja, jb] = sub[a, b]
        for a, ja in enumerate(live):
            za = transformed[:, ja] - transformed[:, ja].mean()
            for jb in live[a + 1 :]:
                zb = transformed[:, jb] - transformed[:, jb].mean()
                if np.array_equal(za, zb):
                    matrix[ja, jb] = matrix[jb, ja] = 1.0
                elif np.array_equal(za, -zb):
                    matrix[ja, jb] = matrix[jb, ja] = -1.0
    return matrix, degenerate


# --- the env's current observation and the per-bar greedy backtest ----------------


def observation_table(env):
    """Every observation row of ``env`` (see ``TradingEnv.observation_index``), in
    order, built from its window table: with the flag, each window twice, first
    with the Short flag 0 and then with the Long flag 1; without it, the windows."""
    if not env.config.include_position_flag:
        return env._windows.copy()
    flags = np.tile([0.0, 1.0], len(env._windows))[:, None]
    return np.hstack((np.repeat(env._windows, 2, axis=0), flags))


def observe(env):
    """The observation at the env's cursor and position: a read-only view of
    its window table's row for the cursor, window_size x n_features, plus the
    position flag when the env has one. Agents read the same values as
    observation rows (``env.observations(env.observation_index)``)."""
    from quantrl.trading_env import ObservationWindow

    values = env._windows[env.cursor - env.start_cursor].reshape(env.config.window_size, -1)
    return ObservationWindow(values, float(env.position) if env.config.include_position_flag else None)


# run_policy's body from before action tables and TradingEnv.replay: one env.step,
# one ledger row and one format per bar. It drives the package's env, since
# TradingEnv.step stays the reference that replay must equal bit for bit.


def o_run_policy(env, policy):
    from quantrl.agents.mlp import mlp_forward
    from quantrl.backtest import EquityCurve, Trade
    from quantrl.trading_env import Position

    def _gross(direction, entry_px, exit_px):
        return exit_px / entry_px if direction is Position.LONG else entry_px / exit_px

    env.reset()
    commission = env.config.commission
    closes = env.series.closes()
    entry_idx = env.start_cursor
    entry_px = float(closes[entry_idx])
    direction = env.position
    trades = []
    # Each row's greedy action from one forward pass over every observation row,
    # zero-padded to whole 8-row gemm tiles.
    table = observation_table(env)
    padded = np.pad(table, ((0, -len(table) % 8), (0, 0)))
    actions = np.argmax(mlp_forward(policy, padded)[: len(table)], axis=1).tolist()
    done = False
    while not done:
        flip_at = env.cursor
        result = env.step(actions[env.observation_index])
        if env.position is not direction:
            exit_px = float(closes[flip_at])
            if flip_at > entry_idx:
                ret = _gross(direction, entry_px, exit_px) * (1.0 - commission) - 1.0
                trades.append(Trade(direction, entry_idx, entry_px, flip_at, exit_px, ret, ret > 0.0))
            direction = env.position
            entry_idx, entry_px = flip_at, exit_px
        done = result.done
    last_idx = env.cursor
    if last_idx > entry_idx:
        exit_px = float(closes[last_idx])
        ret = _gross(direction, entry_px, exit_px) - 1.0
        trades.append(Trade(direction, entry_idx, entry_px, last_idx, exit_px, ret, ret > 0.0))
    curve = EquityCurve(np.array([env.config.initial_cash, *env.ledger.equity]))
    return env.ledger, curve, trades


# train_on_policy's body from before rollout segments: one env.step per action,
# each step's threshold looked up in one sell_thresholds pass over every observation
# row, zero-padded to whole 8-row gemm tiles, per actor. It looks up
# a2c.sell_thresholds at call time, so a test that patches it patches both loops.


def o_train_on_policy(env_factory, hp, seed, update, batch_rows=None):
    from types import SimpleNamespace

    from quantrl.agents import a2c
    from quantrl.agents.common import Learner, TrainingLog, TrainingRecord
    from quantrl.agents.mlp import init_mlp
    from quantrl.errors import TrainingDiverged

    env = env_factory()
    rng = np.random.default_rng(seed)
    actor = init_mlp([env.observation_size, *hp.hidden_sizes, 2], rng)
    critic = init_mlp([env.observation_size, *hp.hidden_sizes, 1], rng)
    rows = hp.n_steps if batch_rows is None else batch_rows
    rollout = SimpleNamespace(rows=np.zeros(hp.n_steps + 1, dtype=np.intp), actions=np.zeros(hp.n_steps, dtype=np.int64),
                              rewards=np.zeros(hp.n_steps), dones=np.zeros(hp.n_steps, dtype=bool), states=None)
    actor_learner, critic_learner = Learner(actor, hp, rows), Learner(critic, hp, rows)
    log = TrainingLog()
    table = observation_table(env)
    padded = np.pad(table, ((0, -len(table) % 8), (0, 0)))
    thresholds = a2c.sell_thresholds(actor, padded)[: len(table)].tolist()
    env.reset()
    rollout.rows[0] = env.observation_index
    episode_return = 0.0
    last_loss = float("nan")
    steps = fill = 0
    while steps < hp.total_timesteps:
        threshold = thresholds[env.observation_index]
        if math.isnan(threshold):
            raise TrainingDiverged(steps + 1, float("nan"))
        action = int(rng.random() >= threshold)
        result = env.step(action)
        episode_return += result.reward
        steps += 1
        if result.done:
            log.append(TrainingRecord(steps, episode_return, last_loss))
            episode_return = 0.0
            env.reset()
        rollout.actions[fill], rollout.rewards[fill], rollout.dones[fill] = action, result.reward, result.done
        fill += 1
        rollout.rows[fill] = env.observation_index
        if fill == hp.n_steps:
            observations = env.observations(rollout.rows)
            rollout.states = observations[:-1]
            last_loss = update(actor_learner, critic_learner, rollout, observations[-1], rng)
            if not math.isfinite(last_loss):
                raise TrainingDiverged(steps, last_loss)
            thresholds = a2c.sell_thresholds(actor, padded)[: len(table)].tolist()
            rollout.rows[0] = rollout.rows[-1]
            fill = 0
    return a2c.ActorCritic(actor, critic), log


def o_ledger_csv(records):
    """ledger.csv as it was written, one f-string per record."""
    lines = [f"{r.step},{int(r.action)},{int(r.position)},{r.price!r},{r.reward!r},{r.equity!r}\r\n"
             for r in records]
    return "".join(["step,action,position,price,reward,equity\r\n", *lines])


def o_trades_csv(trades):
    """trades.csv as it was written, one f-string per trade."""
    lines = [f"{t.direction.name},{t.entry_idx},{t.entry_px!r},{t.exit_idx},{t.exit_px!r},{t.ret!r},{int(t.win)}\n"
             for t in trades]
    return "".join(["direction,entry_idx,entry_px,exit_idx,exit_px,ret,win\n", *lines])
