"""Run one benchmark workload against the dblinst sources of this checkout.

    python3 benchmark/run.py --workload closure --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Lines before it print the same
metrics with their units, and every failed op by kind and cause.  A log
of every op's shape and latency (and, when traced, every span) is
written under ``.benchmark_run/``.  See benchmark/README.md.
"""

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".benchmark_run")

WORKLOADS = ("closure", "joins", "search", "cli")
DEFAULT_SEED = 1          # the recorded baseline seed
SETUP_REPEATS = 5         # setup_s is the median of these
MIN_OPS = 100             # latencies per run, at least


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    started = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dblinst", "__init__.py")):
        print("error: no dblinst sources under {}".format(SRC), file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("DBLINST_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    harness = importlib.import_module("harness")
    spans = importlib.import_module("spans")
    workload = importlib.import_module("workloads." + args.workload)
    for module, _, _, _ in spans.ENTRY_POINTS:
        importlib.import_module(module)
    import_s = time.perf_counter() - started
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    workdir = os.path.join(OUT_DIR, "{}-seed{}-{}".format(
        args.workload, args.seed, os.getpid()))
    setups = []

    def set_up():
        """Build the inputs and warm up once; returns (ops, probes)."""
        t0 = time.perf_counter()
        path = os.path.join(workdir, "setup{}".format(len(setups)))
        os.makedirs(path)
        built = workload.build(random.Random(args.seed), path)
        for op in harness.first_of_each_kind(built[0]):     # warm-up
            harness.execute(op)
        setups.append(time.perf_counter() - t0)
        return built

    try:
        ops, probes = set_up()
        # the inputs live for the whole run: keep them out of the
        # collector's scans, so pauses depend on what the ops allocate
        gc.collect()
        gc.freeze()
        # the other set-ups are spread over the run, so that their median
        # samples the host's speed as the passes do
        breaks = [(args.seconds * i / SETUP_REPEATS, set_up)
                  for i in range(1, SETUP_REPEATS)]
        tracer = spans.Tracer() if args.trace else None
        record = harness.run(ops, args.seconds, MIN_OPS, probes, tracer,
                             breaks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_s = import_s + statistics.median(setups)

    untraced = harness.op_latencies(
        [p for p in record.passes if not p.traced])
    if args.trace:
        traced = harness.op_latencies([p for p in record.passes if p.traced])
        values = tracer.metrics()
        values["trace.overhead"] = 1 - sum(untraced) / sum(traced)
        values["known_defect.failures"] = (sum(record.probe_failures.values())
                                           / len(record.passes))
        wanted = spec["per_layer"]
    else:
        values = {
            "ops_per_s": len(untraced) / sum(untraced),
            "op_p50_s": statistics.median(untraced),
            "op_p90_s": harness.percentile(untraced, 90),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    log = write_log(args, record, metrics, setups, import_s)
    if tracer is not None:
        tracer.write(log[:-len(".json")] + "-spans.jsonl")
    report(args, record, metrics, log)
    print(json.dumps({"correct": record.failed() == 0,
                      "attempted": record.attempted(),
                      "failed": record.failed(), "metrics": metrics}))
    return 0


def write_log(args, record, metrics, setups, import_s):
    """Every op's kind, shape and latencies, the passes, and the
    failures."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "{}-seed{}-trace{}.json".format(
        args.workload, args.seed, args.trace))
    per_op = [[] for _ in record.ops]
    for p in record.passes:
        for i, t in enumerate(p.latencies):
            per_op[i].append(t)
    doc = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "import_s": import_s, "setup_repeats_s": setups,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s,
                    "ops": len(p.latencies),
                    "latencies_s": p.latencies}
                   for p in record.passes],
        "ops": [{"index": i, "kind": op.kind, "shape": op.shape,
                 "median_s": statistics.median(ts), "runs": len(ts)}
                for i, (op, ts) in enumerate(zip(record.ops, per_op))],
        "failures": [{"kind": k, "cause": c, "count": n}
                     for (k, c), n in sorted(record.failures.items())],
        "known_defects": [{"kind": k, "cause": c, "count": n}
                          for (k, c), n in sorted(record.probe_failures.items())],
        "metrics": metrics,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return path


def report(args, record, metrics, log):
    print("{} seed={} trace={}: {} passes, {} ops, {} failed".format(
        args.workload, args.seed, args.trace, len(record.passes),
        record.attempted(), record.failed()))
    for name, m in metrics.items():
        print("  {:28s} {:>14.6g} {}".format(name, m["value"], m["unit"]))
    print("  {:28s} {:>14.6g} ratio".format(
        "fail_share", record.failed() / record.attempted()))
    print("failed ops by kind and cause:{}".format(
        "" if record.failures else " none"))
    for (kind, cause), n in sorted(record.failures.items()):
        print("  {} x{}: {}".format(kind, n, cause))
    print("known defects (probes, run outside the op counts):{}".format(
        "" if record.probe_failures else " none failed"))
    for (kind, cause), n in sorted(record.probe_failures.items()):
        print("  {} x{}: {}".format(kind, n, cause))
    print("log: {}".format(os.path.relpath(log, ROOT)))


if __name__ == "__main__":
    sys.exit(main())
