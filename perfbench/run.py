"""Benchmark of the newmansum CLI on four fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]   # all workloads

Run from the root of a checkout: the package is imported from its ``src/``.
A run sets up (imports the package, generates the workload's inputs), then
calls ``newmansum.cli.main`` in this process, one operation after the
other, in whole rounds of the workload's operations until ``--seconds`` have
passed.  While each untraced timed operation runs, ``speed`` samples the
machine's speed with a fixed reference block, and every time the run
reports is scaled to the reference speed.  Every operation's output is checked after
the timed loop.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``tracing`` with ``--trace 1``.
A line before it records the environment.  With no ``--workload`` every
workload runs in a fresh process and a table of all metrics is printed.
"""

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

from speed import Speed
from tracing import METRICS as TRACED_METRICS, Tracer, install
from workloads import WORKLOADS, Result

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("core", "oracle", "analysis", "verify", "cli")
END_TO_END = {"setup_s": "s", "wall_s": "s", "heap_growth_mib": "MiB"}
# The traced figures, plus the run's unscaled wall time and mean block time.
LAYER_METRICS = {**TRACED_METRICS, "bench.raw_wall_s": "s", "bench.block_ms": "ms"}
SETUP_SAMPLES = 9
SETUP_SPEED_S = 0.1          # reference blocks run after each set-up
HASH_SEED = "0"
MIN_BLOCKS = 100             # reference blocks a run's scale rests on, at least


def import_program():
    """``newmansum.cli`` from this checkout's ``src/``; exits if it is missing."""
    if not (SRC / "newmansum" / "__init__.py").is_file():
        sys.exit(f"perfbench: no newmansum package under {SRC}")
    sys.path.insert(0, str(SRC))
    import newmansum.cli
    return newmansum.cli


def set_up(workload, seed, workdir):
    """Import the package and generate the inputs; returns (seconds, cli, ops)."""
    t0 = perf_counter()
    cli = import_program()
    ops = WORKLOADS[workload](seed, workdir)
    return perf_counter() - t0, cli, ops


def scaled_set_up(workload, seed, workdir):
    """set_up, with its time scaled by the speed measured right after it."""
    seconds, cli, ops = set_up(workload, seed, workdir)
    speed = Speed()
    speed.run(SETUP_SPEED_S)
    return seconds * speed.scale, cli, ops


def setup_probe(workload, seed, workdir):
    """Scaled set-up time in a fresh interpreter, where the import is not cached."""
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
           "--setup-only", str(workdir)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        sys.exit(out.stderr.strip() or f"perfbench: set-up probe exited with {out.returncode}")
    return float(out.stdout.split()[-1])


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_op(main, op, out_path, speed=None):
    """One CLI call with stdout to out_path, timed up to its return or raise.
    With `speed`, the machine's speed is sampled during the call, and the
    time of the blocks is left out of the call's time."""
    rc = error = None
    sampling = contextlib.nullcontext() if speed is None else speed.sampling()
    with open(out_path, "w") as out, contextlib.redirect_stdout(out), sampling:
        blocks_s = 0.0 if speed is None else speed.seconds
        t0 = perf_counter()
        try:
            rc = main(op.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:      # a failed operation; counted, not fatal
            error = exc
        seconds = perf_counter() - t0
        if speed is not None:
            seconds -= speed.seconds - blocks_s
    return Result(rc, error, seconds)


def run_round(main, ops, workdir, speed=None):
    """All ops once, sampling the speed into `speed` when it is given.
    Returns (bytes written, [(result, output files)])."""
    outcomes = []
    for i, op in enumerate(ops):
        files = [workdir / f"op{i}.out"]
        res = run_op(main, op, files[0], speed)
        if op.out_file and op.out_file.exists():
            files.append(op.out_file)
        outcomes.append((res, files))
    written = sum(f.stat().st_size for _, files in outcomes for f in files)
    return written, outcomes


def measure(cli, ops, workdir, seconds, trace):
    """Round 0 runs untimed under tracemalloc: it warms up, gives the heap
    growth, and its outputs are kept for the checks.  Then whole timed rounds
    run until `seconds` pass, sampling the speed; with trace, untraced and
    traced rounds alternate, and only the untraced ones are sampled.

    Returns (round 0's results with their outputs, heap growth in MiB, every
    round as (tracer values or None, [(result, output digests)]), round 0 first,
    the Speed measured over the timed rounds).
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, outcomes = run_round(cli.main, ops, workdir)
        heap_mib = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        tracemalloc.stop()
    first_dir = workdir / "first"
    first_dir.mkdir()
    first = []
    for i, (res, files) in enumerate(outcomes):
        copies = [shutil.copyfile(f, first_dir / f"op{i}-{f.name}") for f in files]
        res.stdout = copies[0].read_text()
        res.file_text = copies[1].read_text() if len(copies) > 1 else None
        first.append(res)
    rounds = [(None, [(res, [digest(f) for f in files]) for res, files in outcomes])]

    modules = {name: sys.modules[f"newmansum.{name}"] for name in LAYERS}
    speed = Speed()
    deadline = perf_counter() + seconds
    while len(rounds) == 1 or perf_counter() < deadline:
        for traced in (False, True) if trace else (False,):
            values = None
            if not traced:
                written, outcomes = run_round(cli.main, ops, workdir, speed)
            else:
                tracer = Tracer()
                uninstall = install(tracer, modules)
                try:
                    # no sampling: a block would count in whichever span is open
                    written, outcomes = run_round(tracer.wrap("cli", cli.main), ops, workdir)
                finally:
                    uninstall()
                values = tracer.values
                values["cli.output_mib"] = written / 2 ** 20
                enumerated = values["oracle.enumerated"]
                values["oracle.ns_per_int"] = values["oracle.s"] / enumerated * 1e9 if enumerated else 0.0
            rounds.append((values, [(res, [digest(f) for f in files]) for res, files in outcomes]))
    # An operation shorter than speed.INTERVAL_S is never interrupted, so a
    # workload of short operations would leave too few blocks to scale by.
    while speed.blocks < MIN_BLOCKS:
        speed.run_block()
    return first, heap_mib, rounds, speed


def mean_round(rounds):
    """Mean time of one round, unscaled, over `rounds`."""
    return sum(res.seconds for outcomes in rounds for res, _ in outcomes) / len(rounds)


def check(ops, first, rounds):
    """Problems found in the outputs; empty when every output is correct."""
    problems = [f"op {i} ({' '.join(op.argv)[:60]}): {p}"
                for i, (op, res) in enumerate(zip(ops, first)) if (p := op.check(res))]

    def signature(outcome):
        res, digests = outcome
        return res.rc, repr(res.error), digests
    for n, (_, outcomes) in enumerate(rounds[1:], 1):
        for i, (a, b) in enumerate(zip(rounds[0][1], outcomes)):
            if signature(a) != signature(b):
                problems.append(f"op {i}: round {n} output differs from round 0")
    return problems


def environment(cli):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {
        "python": sys.version.split()[0],
        "mpmath": version("mpmath"),
        "numpy": version("numpy"),
        "kernel": cli.oracle.KERNEL_BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_workload(workload, seed, seconds, trace):
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        setups = [setup_probe(workload, seed, workdir) for _ in range(SETUP_SAMPLES - 1)]
        setup_s, cli, ops = scaled_set_up(workload, seed, workdir)
        setups.append(setup_s)
        first, heap_mib, rounds, speed = measure(cli, ops, workdir, seconds, trace)
        problems = check(ops, first, rounds)

    untraced = [outcomes for values, outcomes in rounds[1:] if values is None]
    traced = [(values, outcomes) for values, outcomes in rounds if values is not None]
    if trace:
        # Counts repeat in every round; times are means over the traced rounds.
        metrics = {name: statistics.fmean(values[name] for values, _ in traced)
                   * (speed.scale if unit in ("s", "ns") else 1)
                   for name, unit in TRACED_METRICS.items() if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (mean_round([outcomes for _, outcomes in traced])
                                       - mean_round(untraced)) * speed.scale
        metrics["bench.raw_wall_s"] = mean_round(untraced)
        metrics["bench.block_ms"] = speed.block_ms
        units = LAYER_METRICS
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": mean_round(untraced) * speed.scale,
                   "heap_growth_mib": heap_mib}
        units = END_TO_END
    outcomes = [o for _, r in rounds for o in r]
    for p in problems:
        print(f"perfbench: {workload}: {p}", file=sys.stderr)
    print("env " + json.dumps(environment(cli)))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(res.failed for res, _ in outcomes),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if not problems else 1


def run_all(seed, seconds, trace):
    """Every workload in a fresh process; prints one table."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(out.stderr)
        lines = out.stdout.splitlines()
        if out.returncode != 0 and not lines:
            print(f"{workload}: exit code {out.returncode}, no result")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= out.returncode != 0
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {str(result['correct']).lower()}")
        print(f"  {lines[-2]}")
        for name, m in result["metrics"].items():
            print(f"  {name:<22} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None):
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashes decide where names land in the interpreter's dicts.
        # A random seed per process moved the same code's times by up to
        # 10 % from run to run, so every run uses the same one.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload; all of them in turn when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        print(scaled_set_up(args.workload, args.seed, Path(args.setup_only))[0])
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
