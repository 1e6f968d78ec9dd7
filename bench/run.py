"""Benchmark of vibsim: one closed-loop client, all operations in one process.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload design --seed 1 --seconds 15 --trace 0

A run builds its workload's pool of operations (from the seed where the
workload is seeded) and runs whole passes over it ("rounds"), each from empty operator caches, until
``--seconds`` have gone by.  Every operation's outputs are checked.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

SETUP_REPEATS = 5


@dataclass
class Record:
    timed: bool  # counts in op_p50_s and ops_per_s if it also passes
    seconds: float
    cpu_s: float
    failure: str | None = None
    wrong: bool = False


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def execute(op, tracer=None, op_id: int = -1) -> Record:
    """Run one operation, time it, then check its outputs (untimed)."""
    from workloads import ContractFault, StoppedShort, WrongOutput

    if tracer is not None:
        tracer.op_id = op_id
    cpu0 = _cpu()
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a raised error is the operation's failure
        rec = Record(op.expected_failure is None, time.perf_counter() - start, _cpu() - cpu0)
        rec.failure = f"{op.label}: raised {type(exc).__name__}: {exc}"
        return rec
    finally:
        if tracer is not None:
            tracer.op_id = -1
    rec = Record(op.expected_failure is None, time.perf_counter() - start, _cpu() - cpu0)
    try:
        op.check(result)
    except (ContractFault, StoppedShort) as exc:
        rec.failure = f"{op.label}: {exc}"
    except (WrongOutput, OSError, KeyError, ValueError) as exc:
        rec.failure = f"{op.label}: wrong output: {exc}"
        rec.wrong = True
    return rec


def measure_setup(root: Path) -> float:
    """Median wall time of a fresh interpreter importing ``vibsim.cli``,
    which loads the bundled fixtures; one unmeasured import first."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, "-c", "import vibsim.cli"]
    times = []
    for k in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        subprocess.run(cmd, cwd=root, env=env, check=True)
        if k:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, work: Path) -> dict:
    import tracing
    from workloads import CUTOFFS, WORKLOADS

    ops = WORKLOADS[workload](seed, work)
    tracer = tracing.Tracer() if trace else None
    records: list[Record] = []
    timed: list[Record] = []
    traced: list[tuple[int, Record]] = []
    cache_hits = cache_misses = 0
    start = time.perf_counter()
    rounds = 0
    while True:
        # every round starts from empty operator caches, so a run that fits
        # in two rounds measures the same thing as one that needs a single one
        tracing.clear_caches()
        tracing_round = trace and rounds % 2 == 1
        if tracing_round:
            tracer.install()
        for op in ops:
            op_id = len(records)
            before = tracing.cache_counts() if tracing_round else None
            rec = execute(op, tracer if tracing_round else None, op_id)
            if tracing_round:
                traced.append((op_id, rec))
                if rec.timed and not rec.failure:  # the operations the metrics cover
                    hits, misses = tracing.cache_counts()
                    cache_hits += hits - before[0]
                    cache_misses += misses - before[1]
            else:
                timed.append(rec)
            records.append(rec)
        if tracing_round:
            tracer.uninstall()
        rounds += 1
        if time.perf_counter() - start >= seconds and (not trace or rounds >= 2):
            break

    failures = [r for r in records if r.failure]
    reasons = Counter(r.failure for r in failures)
    for reason, count in sorted(reasons.items()):
        print(f"[{workload}] failed x{count}: {reason}", file=sys.stderr)
    ok = [r for r in timed if r.timed and not r.failure]
    durations = [r.seconds for r in ok]
    p50 = statistics.median(durations) if durations else 0.0
    print(f"[{workload}] seed {seed}: {len(ops)} operations per round, {rounds} rounds, "
          f"{len(records)} attempted, {len(failures)} failed",
          file=sys.stderr)

    if trace:
        ok_traced = {i: r for i, r in traced if r.timed and not r.failure}
        traced_p50 = statistics.median(r.seconds for r in ok_traced.values()) if ok_traced else 0.0
        metrics = tracing.layer_metrics(
            tracer, set(ok_traced), CUTOFFS, (cache_hits, cache_misses),
            sum(r.cpu_s for r in ok_traced.values()), traced_p50 - p50)
        out = root / "bench/.work/traces"
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{workload}-seed{seed}.json").write_text(json.dumps({
            "fields": ["name", "start_ns", "end_ns", "parent", "op_id", "tag"],
            "spans": tracer.spans}))
    else:
        metrics = {
            "setup_s": (measure_setup(root), "s"),
            "op_p50_s": (p50, "s"),
            "ops_per_s": (len(ok) / sum(durations) if durations else 0.0, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return {
        "correct": bool(durations) and not any(r.wrong for r in records),
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("design", "tomography", "spectra"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src/vibsim/__init__.py").is_file():
        print("error: run from the root of a vibsim checkout (src/vibsim not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / f"bench/.work/run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
