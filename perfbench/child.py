"""Fresh-interpreter entry points of the benchmark.

``setup``     times one set-up in a fresh interpreter: ``import repro``,
              building the workload's tree and inputs, and
              ``select_backend("c")`` against the warm kernel cache.
``registry``  runs one pass of the registry subset, serial with the cache
              off, so the LP memo starts empty and its disk layer is off.

Each prints one JSON object on its last line.  ``run.py`` starts these
with ``PYTHONPATH`` pointing at the checkout's ``src`` and root.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _setup(workload: str, seed: int) -> dict:
    """One set-up, timed from interpreter start; returns its phases."""
    import repro  # noqa: F401

    import_s = perf_counter() - _T0
    from perfbench import inputs

    t = perf_counter()
    events_s = 0.0
    if workload == "batch":
        inputs.batch_instances(seed)
    elif workload == "events":
        instance = inputs.events_instance(seed)
        e = perf_counter()
        inputs.event_deck(instance, seed)
        events_s = perf_counter() - e
    elif workload == "stream":
        inputs.arrival_source(inputs.build_tree(), seed)
    else:
        import repro.analysis.runner  # noqa: F401
    instance_s = perf_counter() - t - events_s
    t = perf_counter()
    from repro.sim.backends import select_backend

    select_backend("c")
    select_ms = (perf_counter() - t) * 1e3
    return {
        "setup_s": perf_counter() - _T0,
        "import_s": import_s,
        "instance_s": instance_s,
        "events_s": events_s,
        "select_ms": select_ms,
    }


def _registry(manifest_dir: str, counters: bool) -> dict:
    """One pass, one experiment at a time, each between two host-speed
    calibrations (a single call over the four ids runs them the same way)."""
    from pathlib import Path

    from repro import api
    from perfbench.inputs import REGISTRY_IDS
    from perfbench.workloads import CAL_NOMINAL_S, calibrate

    experiments = []
    after = calibrate()
    for exp_id in REGISTRY_IDS:
        before = after
        started = perf_counter()
        (outcome,) = api.run_experiments(
            exp_ids=[exp_id],
            parallel=1,
            use_cache=False,
            collect_counters=counters,
            manifest_dir=manifest_dir,
        )
        wall = perf_counter() - started
        after = calibrate()
        manifest = Path(manifest_dir) / f"{exp_id}.manifest.json"
        trials = json.loads(manifest.read_text())["trials"]
        experiments.append({
            "id": exp_id,
            "wall_s": wall,
            "scale": CAL_NOMINAL_S / ((before + after) / 2),
            "trials": outcome.trials_total,
            "jobs": sum(int(t["params"].get("n", 0)) for t in trials),
            "trial_walls": [t["wall_seconds"] for t in trials],
            "passed": bool(outcome.result.passed),
            "counters": outcome.counters.as_dict() if outcome.counters else {},
        })
    return {"experiments": experiments}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--workload", required=True)
    p_setup.add_argument("--seed", type=int, required=True)
    p_reg = sub.add_parser("registry")
    p_reg.add_argument("--manifest-dir", required=True)
    p_reg.add_argument("--counters", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        out = _setup(args.workload, args.seed)
    else:
        out = _registry(args.manifest_dir, args.counters)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
