"""Print every metric of the benchmark, for every workload, in one command.

    python3 perfbench/report.py [--seed 7]

For each workload this makes one untraced and one traced run of
``run.py``, each as long as ``run_seconds`` in ``BENCHMARK.json``, and
prints, from the untraced run, the end-to-end metrics of
the benchmark's specification (``error_rate`` and the stream's
scrape latencies included) with units and the sample count behind each
figure; from the traced run, every per-layer metric, the tracing
overhead, and the two checks that the layers account for the whole:

* on ``batch``, each backend's per-policy ``*.wall_s`` summed against
  that backend's untraced sweep wall;
* on ``stream``, ``session.engine_s + session.fold_s`` against the summed
  step time of a cycle.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = ROOT / ".bench_build" / "perfbench" / "runs"
WORKLOADS = ("batch", "events", "stream", "registry")

#: The fourteen end-to-end figures the benchmark was specified with.
SPEC_METRICS = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("error_rate", "failed/attempted"),
    ("python_jobs_per_s", "jobs/s"),
    ("c_jobs_per_s", "jobs/s"),
    ("trials_per_s", "trials/s"),
    ("python_step_p50_ms", "ms"),
    ("python_step_p99_ms", "ms"),
    ("c_step_p50_ms", "ms"),
    ("c_step_p99_ms", "ms"),
    ("python_scrape_p50_ms", "ms"),
    ("python_scrape_p90_ms", "ms"),
    ("c_scrape_p50_ms", "ms"),
    ("c_scrape_p90_ms", "ms"),
)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return json.loads((RUNS / f"{workload}-s{seed}-t{trace}.json").read_text())


def _end_to_end(rec: dict) -> None:
    metrics, samples = rec["metrics"], rec["samples"]
    scrapes, scrape_n = rec.get("scrapes", {}), rec.get("scrape_samples", {})
    for name, unit in SPEC_METRICS:
        if name == "error_rate":
            value, n = rec["failed"] / rec["attempted"], rec["attempted"]
        elif name in metrics:
            value, n = metrics[name], samples[name]
        elif f"http.{name}" in scrapes:
            value, n = scrapes[f"http.{name}"], scrape_n[f"http.{name}"]
        else:
            print(f"  {name:24s} {'n/a':>14s} {unit}")
            continue
        print(f"  {name:24s} {value:14.6g} {unit:16s} n={n}")


def _accounting(traced: dict) -> None:
    layer = traced["metrics"]
    print(f"  tracing overhead (traced cycle / untraced cycle - 1): "
          f"{layer['bench.trace_overhead']:+.3f}")
    if traced["workload"] in ("batch", "events"):
        for b in ("python", "c"):
            summed = sum(v for k, v in layer.items() if k.startswith(f"{b}.wall_s."))
            base = traced["untraced_wall"][b]
            overhead = traced["reference_per_cycle"][b] / traced["untraced_reference"][b] - 1
            print(f"  {b}: sum of {b}.wall_s.* = {summed:.3f} s per sweep against the same "
                  f"run's untraced sweep of {base:.3f} s ({summed / base - 1:+.3f} in host "
                  f"seconds; {overhead:+.3f} in reference seconds, the tracing overhead of "
                  f"its calls)")
    if traced["workload"] == "stream":
        engine, fold = layer["session.engine_s"], layer["session.fold_s"]
        print(f"  session.engine_s {engine:.3f} s + session.fold_s {fold:.3f} s = summed step "
              f"time {engine + fold:.3f} s per cycle over {layer['session.windows']:.0f} windows; "
              f"engine share {engine / (engine + fold):.3f}; engine time within steps: "
              f"{'yes' if fold >= 0 else 'NO'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for workload in WORKLOADS:
        untraced = _run(workload, args.seed, seconds, 0)
        traced = _run(workload, args.seed, seconds, 1)
        print(f"== {workload} (seed {args.seed}, {untraced['cycles']} untraced cycles)")
        print(" end-to-end, untraced:")
        _end_to_end(untraced)
        print(" c-requested calls that did not run on the kernel:")
        for call, reason in sorted(untraced["fallbacks"].items() or traced["fallbacks"].items()):
            print(f"  {call:28s} {reason or 'ran on the kernel'}")
        print(f" per-layer, traced ({traced['cycles']} cycles; values per cycle):")
        for name, value in traced["metrics"].items():
            print(f"  {name:36s} {value:14.6g} n={traced['samples'][name]}")
        print(" accounting:")
        _accounting(traced)
    return 0


if __name__ == "__main__":
    sys.exit(main())
