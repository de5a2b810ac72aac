"""artdiff benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py            # every workload, one after another

Run from the root of a source checkout; the program is imported from
src/. One process and one closed-loop client: each operation starts when
the previous one has finished. A run sets the workload up several times
(setup_s is the median), then runs whole rounds of the workload's
operations for about --seconds. The last line of standard output
is one JSON object: correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end ones; with --trace 1 rounds alternate
untraced and traced, and the metrics are the per-layer ones (mean per
traced round) plus the tracing overhead. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUPS = 3


def _scaled_sum(round_times: dict) -> float:
    return sum(scaled for ops in round_times.values() for _, scaled in ops)


def measure(workload, rec, seconds: float, tracer=None) -> list[tuple[float, float]]:
    """Run whole rounds for about ``seconds``: another round starts only if
    it is expected to end nearer to ``seconds`` than stopping now. With a
    tracer, rounds come in (untraced, traced) pairs; returns each pair's
    scaled op-time sums."""
    pairs = []
    start = time.perf_counter()
    repeats = 0
    while True:
        rec.begin_round()
        workload.round(rec)
        plain = _scaled_sum(rec.end_round())
        if tracer is not None:
            pairs.append((plain, traced_round(workload, rec, tracer)))
        repeats += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / repeats / 2 >= seconds:
            return pairs


def traced_round(workload, rec, tracer) -> float:
    """One round with the tracer installed; returns its scaled op-time sum."""
    tracer.install()
    tracer.on = True
    begin = tracer.mark()
    rec.begin_round()
    workload.round(rec)
    tracer.on = False
    tracer.marks.append((begin, tracer.mark()))
    tracer.uninstall()
    return _scaled_sum(rec.end_round())


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracer as tracing
    from workloads import WORKLOADS, Recorder, timed

    work = WORK / f"{name}-{seed}-{'traced' if trace else 'plain'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](seed, work)
        setups = [timed(workload.setup, workload.setup_calibration)[1:] for _ in range(SETUPS)]

        tracer = tracing.Tracer() if trace else None
        rec = Recorder(workload.calibration, pause=tracer)
        pairs = measure(workload, rec, seconds, tracer)
        workload.finish(rec)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        tracer.write(WORK / "traces" / f"{name}-{seed}.npz")
        per_round = [tracer.layer_values(b, e) for b, e in tracer.marks]
        metrics = {}
        for metric, unit, how, _ in tracing.PER_LAYER:
            values = [r[metric] for r in per_round]
            if how != "self" and len(set(values)) > 1:
                print(f"note: {metric} differs between traced rounds: {values}", file=sys.stderr)
            value = values[0] if len(set(values)) == 1 else statistics.fmean(values)
            metrics[metric] = {"value": value, "unit": unit}
        overhead = statistics.median(t for _, t in pairs) / statistics.median(p for p, _ in pairs)
        metrics["trace.overhead_pct"] = {"value": 100.0 * (overhead - 1.0), "unit": "%"}
        print(f"{name:13s} {'trace.overhead_pct':28s} {100.0 * (overhead - 1.0):14.4f} %")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": {"value": statistics.median(s for _, s in setups), "unit": "s"},
                   "peak_rss_mb": {"value": peak_mb, "unit": "MB"}}
        for i, kind in enumerate(workload.kinds, 1):
            metrics[f"op{i}_ms"] = {"value": 1e3 * rec.median_of_round_means(kind, scaled=True),
                                    "unit": "ms"}
            print(f"{name:13s} {f'op{i}_ms unscaled ({kind})':28s} "
                  f"{1e3 * rec.median_of_round_means(kind):14.4f} ms")
        for label, value, unit in workload.figures(rec) + [
                ("setup_s unscaled", statistics.median(e for e, _ in setups), "s"),
                ("peak_rss_mb", peak_mb, "MB")]:
            print(f"{name:13s} {label:28s} {value:14.4f} {unit}")
    print(f"{name:13s} rounds {len(rec.rounds)} attempted {rec.attempted} failed {rec.failed} "
          f"correct {rec.correct}")
    return {"correct": rec.correct, "attempted": rec.attempted, "failed": rec.failed,
            "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak memory."""
    from workloads import WORKLOADS

    summary = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                               str(args.seed), "--seconds", str(args.seconds), "--trace",
                               str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "artdiff" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
