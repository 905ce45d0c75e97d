"""Command-line pipeline: ingest -> features -> corr -> train -> backtest.

Exit codes: 0 success, 2 config error, 3 data error, 4 runtime error.
Errors print one machine-readable JSON line on stderr. Log verbosity
comes from the QUANTRL_LOG environment variable (debug/info/warning/error).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields
from datetime import timedelta
from pathlib import Path

from .. import __version__
from ..agents import a2c_train, dqn_train, load_policy, ppo_train, save_policy
from ..atomic import atomic_open
from ..backtest import PerformanceReport, compute_report, render_report, run_policy
from ..errors import (
    CorruptFile, EmptySeries, InvariantViolation, MalformedRow, NonPositiveValue, PeriodTooLong, SchemaError,
    SeriesTooShort, TooFewSamples,
)
from ..indicators import compute_feature_matrix
from ..market_data import load_csv, save_csv, slice_by_date
from ..normalize import pearson_corr_matrix, select_uncorrelated
from ..trading_env import TradingEnv
from .config import ExperimentConfig, config_hash, load_config
from .manifest import RunManifest

logger = logging.getLogger("quantrl")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4

REPORT_FIELDS = tuple(field.name for field in fields(PerformanceReport))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quantrl", description="RL trading laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_runner(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override config output_dir")
        return p

    add_runner("ingest", "validate a data file and re-emit the canonical CSV")
    add_runner("features", "write the indicator feature matrix")
    corr = add_runner("corr", "write the correlation matrix and selected indicators")
    corr.add_argument("--threshold", type=float, default=0.9,
                      help="|corr| cutoff for the greedy selection (default 0.9)")
    add_runner("train", "train the configured agent, write policy + log + manifest")
    backtest = add_runner("backtest", "run the saved policy greedily and write the report bundle")
    backtest.add_argument("--policy", default=None, help="policy file (default <out>/policy.bin)")

    report = sub.add_parser("report", help="print a saved report.json as a table")
    report.add_argument("report", help="path to report.json")

    compare = sub.add_parser("compare", help="merge several report.json files into one table")
    compare.add_argument("reports", nargs="+", help="report.json paths")
    compare.add_argument("--out", default=None, help="also write compare.csv here")
    return parser


def _effective_config(args) -> ExperimentConfig:
    from .config import resolve_config

    cfg = load_config(args.config)
    resolved = cfg.resolved
    if args.seed is not None:
        resolved = {**resolved, "seed": args.seed}
    if args.out is not None:
        resolved = {**resolved, "output_dir": args.out}
    if resolved is not cfg.resolved:
        cfg = resolve_config(resolved)
    return cfg


class _Unreadable(Exception):
    """An OSError while reading an input file: a data error that keeps the OS
    error's type and names the file. One while writing stays a runtime error."""

    def __init__(self, path, error: OSError):
        super().__init__(f"{path}: {error.strerror or error}")
        self.error_type = type(error).__name__


def _read_input(read, path):
    """``read(path)``, with an OSError raised as ``_Unreadable``."""
    try:
        return read(path)
    except OSError as exc:
        raise _Unreadable(path, exc) from exc


def _load_series(cfg: ExperimentConfig):
    if cfg.data.path is None:
        raise SchemaError("data.path", "this command needs a data file")
    series = _read_input(load_csv, cfg.data.path)
    if cfg.data.start is not None or cfg.data.end is not None:
        dates = series.dates()
        start = cfg.data.start or dates[0]
        end = cfg.data.end or dates[-1] + timedelta(days=1)
        if start > end:  # the one bound given lies beyond the data
            raise EmptySeries(f"{series.symbol}: 0 bars in [{start}, {end}), the data covers {dates[0]}..{dates[-1]}")
        series = slice_by_date(series, start, end)
    return series


def _build_env(cfg: ExperimentConfig) -> TradingEnv:
    series = _load_series(cfg)
    features = compute_feature_matrix(series, cfg.specs)
    return TradingEnv(series, features, cfg.env)


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_ingest(args) -> int:
    cfg = _effective_config(args)
    series = _load_series(cfg)
    out = _out_dir(cfg) / "data.csv"
    save_csv(series, out)
    dates = series.dates()
    print(f"wrote {out} ({len(series)} bars, {dates[0]}..{dates[-1]})")
    return EXIT_OK


def _cmd_features(args) -> int:
    cfg = _effective_config(args)
    series = _load_series(cfg)
    features = compute_feature_matrix(series, cfg.specs)
    out = _out_dir(cfg) / "features.csv"
    features.to_csv(out, series.dates())
    print(f"wrote {out} ({features.width} columns, warm-up {features.warmup})")
    return EXIT_OK


def _cmd_corr(args) -> int:
    if not 0.0 <= args.threshold <= 1.0:
        raise SchemaError("--threshold", f"must be in [0, 1], got {args.threshold}")
    cfg = _effective_config(args)
    series = _load_series(cfg)
    features = compute_feature_matrix(series, cfg.specs)
    matrix = pearson_corr_matrix(features, cfg.normalization, cfg.per_family or None)
    selected = select_uncorrelated(matrix, args.threshold)
    out = _out_dir(cfg)
    matrix.to_csv(out / "corr.csv")
    with atomic_open(out / "selected.json") as handle:
        handle.write(json.dumps(
            {"threshold": args.threshold, "selected": selected, "degenerate": list(matrix.degenerate)},
            indent=2) + "\n")
    print(f"wrote {out / 'corr.csv'} and {out / 'selected.json'} ({len(selected)}/{features.width} kept)")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _effective_config(args)
    env_factory = lambda: _build_env(cfg)  # noqa: E731 - tiny factory
    logger.info("training %s for %d steps (seed %d)", cfg.algorithm, cfg.hyperparams.total_timesteps, cfg.seed)
    if cfg.algorithm == "DQN":
        policy, log = dqn_train(env_factory, cfg.hyperparams, cfg.seed)
    elif cfg.algorithm == "A2C":
        ac, log = a2c_train(env_factory, cfg.hyperparams, cfg.seed)
        policy = ac.actor
    else:
        ac, log = ppo_train(env_factory, cfg.hyperparams, cfg.seed)
        policy = ac.actor
    out = _out_dir(cfg)
    policy_path = out / "policy.bin"
    log_path = out / "training_log.csv"
    save_policy(policy, policy_path)
    log.to_csv(log_path)
    manifest = RunManifest(
        config_hash=config_hash(cfg.resolved),
        artifacts={"policy": str(policy_path), "training_log": str(log_path)},
        version=__version__,
    )
    manifest.write(out / "manifest.json")
    print(f"wrote {policy_path}, {log_path}, {out / 'manifest.json'} ({len(log)} episodes)")
    return EXIT_OK


def _cmd_backtest(args) -> int:
    cfg = _effective_config(args)
    out = _out_dir(cfg)
    policy = _read_input(load_policy, Path(args.policy) if args.policy else out / "policy.bin")
    env = _build_env(cfg)
    ledger, curve, trades = run_policy(env, policy)
    report = compute_report(curve, trades)
    paths = render_report(report, ledger, curve, trades, out, env.start_cursor)
    manifest = RunManifest(
        config_hash=config_hash(cfg.resolved),
        artifacts={name: str(path) for name, path in paths.items()},
        version=__version__,
    )
    manifest.write(out / "backtest_manifest.json")
    print(f"wrote {paths['report']} (return {report.return_pct:.3f}%, {report.n_trades} trades)")
    return EXIT_OK


def _read_report(path: str) -> PerformanceReport:
    """A saved report.json; CorruptFile unless it is one object holding exactly the report's metrics,
    each of its field's type."""
    data = _read_input(Path.read_bytes, Path(path))
    try:
        return PerformanceReport.from_dict(json.loads(data.decode("utf-8")))
    except (ValueError, TypeError) as exc:  # bad JSON or UTF-8 is a ValueError; a wrong shape, a TypeError
        raise CorruptFile(f"{path}: not a report: {exc}") from None


def _print_reports(columns: list[tuple[str, PerformanceReport]]) -> list[tuple[str, ...]]:
    """Print the metrics as a table with one column per (heading, report); return its rows."""
    rows = [("metric", *(heading for heading, _ in columns))]
    for key in REPORT_FIELDS:
        values = (getattr(report, key) for _, report in columns)
        rows.append((key, *(f"{v:.6f}" if isinstance(v, float) else str(v) for v in values)))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    print("\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows))
    return rows


def _cmd_report(args) -> int:
    _print_reports([("value", _read_report(args.report))])
    return EXIT_OK


def _compare_headings(paths: list[str]) -> list[str]:
    """Each report's parent directory name (the path itself when it has none), lengthened
    by further parent directories while it equals another report's heading."""
    names = [parent.relative_to(parent.anchor).parts for parent in (Path(path).parent for path in paths)]
    depths = [1] * len(paths)
    while True:
        headings = ["/".join(parts[-depth:]) or path for parts, depth, path in zip(names, depths, paths)]
        grow = [i for i, heading in enumerate(headings) if headings.count(heading) > 1 and depths[i] < len(names[i])]
        if not grow:
            return headings
        for i in grow:
            depths[i] += 1


def _cmd_compare(args) -> int:
    reports = [_read_report(path) for path in args.reports]
    rows = _print_reports(list(zip(_compare_headings(args.reports), reports)))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with atomic_open(out / "compare.csv") as handle:
            for row in rows:
                handle.write(",".join(row) + "\n")
        print(f"wrote {out / 'compare.csv'}")
    return EXIT_OK


_HANDLERS = {
    "ingest": _cmd_ingest,
    "features": _cmd_features,
    "corr": _cmd_corr,
    "train": _cmd_train,
    "backtest": _cmd_backtest,
    "report": _cmd_report,
    "compare": _cmd_compare,
}

_DATA_ERRORS = (MalformedRow, InvariantViolation, EmptySeries, NonPositiveValue, PeriodTooLong, SeriesTooShort,
                TooFewSamples, CorruptFile)


def _emit_error(kind: str, exc: Exception, type_name: str | None = None) -> None:
    line = json.dumps({"error": kind, "type": type_name or type(exc).__name__, "message": str(exc)})
    print(line, file=sys.stderr)


def cli(argv: list[str]) -> int:
    level = os.environ.get("QUANTRL_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except SchemaError as exc:
        _emit_error("config", exc)
        return EXIT_CONFIG
    except _DATA_ERRORS as exc:
        _emit_error("data", exc)
        return EXIT_DATA
    except _Unreadable as exc:
        _emit_error("data", exc, exc.error_type)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - last-resort CLI boundary
        logger.debug("unhandled error", exc_info=True)
        _emit_error("runtime", exc)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
