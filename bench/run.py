"""quantrl pipeline benchmark.

    python3 bench/run.py --workload dqn_default --seed 1 --seconds 40 --trace 0

Runs one workload (or, without --workload, each workload in its own fresh
process) from the root of a source checkout: it writes the workload's seeded
inputs under .bench_out/, drives the quantrl CLI in-process through whole
rounds of ingest -> features -> corr -> train -> backtest -> compare until the
time is up, checks the artifacts against computations made apart from quantrl,
and prints one JSON object as its last line. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer calls and self time. See bench/README.md.
"""

import os

# Pinned before numpy loads: two BLAS threads make default DQN slower and noisier on 2 CPUs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("dqn_default", "universe_onpolicy", "zigzag_oracle")
CHUNK_STEPS = 300  # training steps per rate sample (whole episodes)
# Rate samples are summarised by their lower quartile. On a shared 2-CPU host the
# CPU runs the same code up to 2x faster at times, and the share of fast time
# drifts from minute to minute; the median follows that share more than the lower
# quartile does, and lower quantiles catch rare stalls (README).
RATE_QUANTILE = 0.25


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a fresh interpreter, so each has its own peak RSS."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def machine() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"python": platform.python_version(), "numpy": np.__version__,
              "blas": f"{blas.get('name')} {blas.get('version')}", "nproc": os.cpu_count(),
              "affinity": len(os.sched_getaffinity(0)), "platform": platform.platform(),
              "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"]}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads and config:
                    config.restype = ctypes.c_char_p
                    record["blas_threads"] = int(threads())
                    record["blas_runtime"] = config().decode()
                    return record
    return record


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def quantile(values, q):
    import numpy as np

    return float(np.quantile(np.asarray(values, dtype=float), q))


def median(values):
    return quantile(values, 0.5)


def training_chunk_rates(clock) -> dict[str, list[float]]:
    """Steps per second between episode ends, in chunks of at least CHUNK_STEPS, per algorithm.

    The first episode of each call is left out: it also holds the env set-up
    and, for DQN, the steps before the buffer holds one batch.
    """
    rates: dict[str, list[float]] = {}
    calls = sorted(clock.train_calls, key=lambda call: call[2])
    for i, (algorithm, _, _, _, first) in enumerate(calls):
        last = calls[i + 1][4] if i + 1 < len(calls) else len(clock.episodes)
        episodes = clock.episodes[first:last]
        samples = rates.setdefault(algorithm, [])
        if not episodes:
            continue
        t_prev, s_prev = episodes[0]
        for t, s in episodes[1:]:
            if s - s_prev >= CHUNK_STEPS:
                samples.append((s - s_prev) / (t - t_prev))
                t_prev, s_prev = t, s
    return rates


def train_steps_per_s(clock) -> float:
    """All training steps over the time they take at each algorithm's RATE_QUANTILE chunk rate."""
    steps: dict[str, int] = {}
    for algorithm, total, *_ in clock.train_calls:
        steps[algorithm] = steps.get(algorithm, 0) + total
    rates = training_chunk_rates(clock)
    return sum(steps.values()) / sum(n / quantile(rates[a], RATE_QUANTILE) for a, n in steps.items())


def stage_kind(argv) -> tuple:
    """Stages of one kind run the same command on the same config, so they set up the same data."""
    return (argv[0], argv[argv.index("--config") + 1] if "--config" in argv else None)


def setup_s(samples: dict[tuple, list[float]], n_rounds: int) -> float:
    """Set-up time of one round, each stage's share taken at the median of its kind's samples."""
    return sum(len(times) / n_rounds * median(times) for times in samples.values())


def quiet(cli, argv) -> int:
    """One in-process CLI call with its progress lines swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli(argv)


class Run:
    """What one run of a workload collects, stage by stage and round by round."""

    def __init__(self, hooks, trace: bool):
        self.hooks, self.trace = hooks, trace
        self.attempted = self.failed = 0
        self.failures: set[str] = set()
        self.pipeline_s: list[float] = []
        self.backtest_rates: list[float] = []
        self.setup_samples: dict[tuple, list[float]] = {}
        self.layer_rounds: list[tuple] = []  # traced: (calls, self_s) per round

    def stage(self, argv, cli) -> None:
        import checks

        hooks = self.hooks
        if not self.trace:
            bars, spent, setup = hooks.bars, hooks.backtest_s, hooks.setup_s
        code = quiet(cli, argv)
        problem = f"exit {code}" if code != 0 else None
        if not self.trace:
            self.setup_samples.setdefault(stage_kind(argv), []).append(hooks.setup_s - setup)
        if argv[0] == "backtest" and code == 0:
            if not self.trace:
                self.backtest_rates.append((hooks.bars - bars) / (hooks.backtest_s - spent))
            # a bundle whose equity.csv is not plain numbers counts as a failed operation
            if not checks.equity_is_numeric(Path(argv[argv.index("--out") + 1]) / "equity.csv"):
                problem = "equity.csv holds non-numeric cells"
        self.attempted += 1
        if problem:
            self.failed += 1
            self.failures.add(f"{argv[0]}: {problem}")

    def round(self, stages, cli) -> None:
        before = self.hooks.snapshot() if self.trace else None
        t0 = perf_counter()
        for argv in stages:
            self.stage(argv, cli)
        self.pipeline_s.append(perf_counter() - t0)
        if self.trace:
            calls, self_s = self.hooks.snapshot()
            self.layer_rounds.append((calls - before[0], self_s - before[1]))

    def metrics(self) -> dict:
        if self.trace:
            metrics = {}
            for i, fn in enumerate(self.hooks.names):
                metrics[f"{fn}.calls"] = {"value": median([c[i] for c, _ in self.layer_rounds]), "unit": "count"}
                metrics[f"{fn}.self_s"] = {"value": median([t[i] for _, t in self.layer_rounds]), "unit": "s"}
            return metrics
        return {
            "setup_s": {"value": setup_s(self.setup_samples, len(self.pipeline_s)), "unit": "s"},
            "train_steps_per_s": {"value": train_steps_per_s(self.hooks), "unit": "steps/s"},
            "backtest_bars_per_s": {"value": quantile(self.backtest_rates, RATE_QUANTILE), "unit": "bars/s"},
            "pipeline_s": {"value": median(self.pipeline_s), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }

    def spread_info(self) -> dict:
        """Low quantiles and medians of the rate samples, for tuning the estimators."""
        if self.trace:
            return {}
        summary = lambda r: [len(r), quantile(r, 0.1), quantile(r, RATE_QUANTILE), median(r)]  # noqa: E731
        return {"train_chunk_rates_n_q10_q25_q50": {a: summary(r) for a, r in training_chunk_rates(self.hooks).items()},
                "backtest_rates_n_q10_q25_q50": summary(self.backtest_rates)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import instrument
    from quantrl.runner.cli import cli
    from workloads import WORKLOADS

    work = ROOT / ".bench_out" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = WORKLOADS[name](work, seed)
    hooks = instrument.Tracer() if trace else instrument.Clock()
    run, figures, reference, error = Run(hooks, trace), {}, None, None
    begin = perf_counter()
    with hooks:
        while True:
            run.round(plan.stages, cli)
            digests = {str(p.relative_to(work)): sha256(p) for p in plan.repeated if p.exists()}
            try:
                if reference is None:
                    figures = plan.check()
                    reference = digests
                elif digests != reference:
                    changed = sorted(k for k in digests if digests[k] != reference.get(k))
                    raise checks.CheckFailed(f"round {len(run.pipeline_s)} bytes differ from round 1: {changed}")
            except Exception as exc:  # noqa: BLE001 - any check error makes the run incorrect
                error = f"check failed: {type(exc).__name__}: {exc}"
                break
            if perf_counter() - begin + max(run.pipeline_s) > seconds:
                break
    if trace:
        hooks.write_spans(work / "spans.npz")
    metrics = run.metrics()
    info = {"workload": name, "seed": seed, "trace": trace, "rounds": len(run.pipeline_s), "machine": machine(),
            "failed_operations": sorted(run.failures), "pipeline_s_rounds": run.pipeline_s,
            **run.spread_info(), **figures}
    for label, path in plan.digests.items():
        print(f"sha256 {sha256(path) if path.exists() else '-'} {label}")
    print("info " + json.dumps(info, sort_keys=True))
    if error:
        print(f"FAILED: {error}", file=sys.stderr)
    result = {"correct": error is None, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    samples = {"episodes": hooks.episodes, "train_calls": hooks.train_calls,
               "backtest_rates": run.backtest_rates} if not trace else {}
    (work / "result.json").write_text(json.dumps({**result, "info": info, "samples": samples}) + "\n")
    return result


def use_source_tree() -> bool:
    """Import quantrl and its test oracles from the checkout this file sits in."""
    if not (ROOT / "src" / "quantrl" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no quantrl source tree (src/quantrl, tests/oracles.py) under {ROOT}", file=sys.stderr)
        return False
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    return True


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    if args.workload is None:
        return run_all(args)
    if not use_source_tree():
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
