"""Self-test of the benchmark's checks at tiny sizes.

    python3 bench/selftest.py

Runs every workload's stages and checks once with small step counts, then
feeds each check a deliberately corrupted copy of an artifact and requires
the check to fail: a perturbed equity row, a return above the optimum, an
asymmetric corr entry, a wrong indicator value, a non-finite policy weight and
a training log whose timesteps go backwards. Exits 0 when every case behaves.
"""

import math
import shutil
import sys

import run

TINY = {"dqn_default": {"steps": 1_000, "n_seeds": 1},
        "universe_onpolicy": {"steps": 1_000, "n_symbols": 1},
        "zigzag_oracle": {"steps": 4_000}}  # enough for one of the five seeds to reach the optimum


def rewrite(path, edit):
    """Apply edit(list of lines) -> list of lines to a text file."""
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def set_cell(lines, row, col, transform):
    cells = lines[row].split(",")
    cells[col] = transform(cells[col])
    lines[row] = ",".join(cells)
    return lines


def expect_failure(label, check, *args):
    import checks

    try:
        check(*args)
    except checks.CheckFailed as exc:
        print(f"PASS corrupted {label}: {exc}")
        return True
    print(f"FAIL corrupted {label}: check accepted it")
    return False


def main() -> int:
    if not run.use_source_tree():
        return 2
    import checks
    from quantrl.runner.cli import cli
    import workloads

    base = run.ROOT / ".bench_out" / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    ok = True
    for name, sizes in TINY.items():
        plan = workloads.WORKLOADS[name](base / name, 0, **sizes)
        codes = [run.quiet(cli, argv) for argv in plan.stages]
        if any(codes):
            print(f"FAIL {name}: stage exit codes {codes}")
            return 1
        plan.check()
        print(f"PASS {name}: {len(plan.stages)} stages, all checks")

    work = base / "dqn_default"
    closes = checks.read_ohlcv(work / "inputs" / "WALK.csv")["close"][workloads.DQN_TRAIN_BARS:]
    bundle = work / "test_0"

    copy = shutil.copytree(bundle, base / "bad_equity")
    rewrite(copy / "equity.csv", lambda lines: set_cell(lines, 5, 1, lambda v: repr(checks.number(v) * (1 + 1e-6))))
    ok &= expect_failure("equity row", checks.check_equity, copy, closes, 0.0, 10_000.0)

    copy = shutil.copytree(bundle, base / "above_optimum")
    n_equity = len((copy / "equity.csv").read_text().splitlines()) - 1
    _, best = checks.log_return_bounds(closes[len(closes) - n_equity:], 0.0)
    rewrite(copy / "equity.csv", lambda lines: set_cell(lines, len(lines) - 1, 1,
                                                        lambda v: repr(10_000.0 * math.exp(best + 1e-3))))
    ok &= expect_failure("return above the optimum", checks.check_bounds, copy, closes, 0.0)

    sym = base / "universe_onpolicy" / "SYM0"
    copy = shutil.copytree(sym / "corr", base / "bad_corr")
    rewrite(copy / "corr.csv", lambda lines: set_cell(lines, 1, 2, lambda v: repr(float(v) + 1e-6)))
    ok &= expect_failure("corr entry", checks.check_corr, copy / "corr.csv", sym / "features" / "features.csv",
                         copy / "selected.json")

    copy = shutil.copytree(sym / "features", base / "bad_features")
    rewrite(copy / "features.csv", lambda lines: set_cell(lines, len(lines) - 1, 1, lambda v: repr(float(v) * 1.001)))
    bars = checks.read_ohlcv(base / "universe_onpolicy" / "inputs" / "SYM0.csv")
    train_bars = {key: column[:workloads.UNIVERSE_TRAIN_BARS] for key, column in bars.items()}
    ok &= expect_failure("indicator value", checks.check_features, copy / "features.csv", train_bars)

    copy = shutil.copytree(work / "train_0", base / "bad_policy")
    raw = bytearray((copy / "policy.bin").read_bytes())
    raw[-8:] = bytes.fromhex("000000000000f87f")  # little-endian NaN
    (copy / "policy.bin").write_bytes(bytes(raw))
    ok &= expect_failure("policy weight", checks.check_policy, copy / "policy.bin", [201, 64, 64, 2])

    rewrite(copy / "training_log.csv", lambda lines: lines[:1] + lines[1:][::-1])
    ok &= expect_failure("training log order", checks.check_training_log, copy / "training_log.csv",
                         TINY["dqn_default"]["steps"], 1_000)
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
