"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workload train_toy --seeds 0-9 [--trace 1] [--out FILE]
    python3 perfbench/sweep.py --workload eval_toy --seeds 0-3 --overhead

Each run is its own process (``run.py``) measuring for ``BENCHMARK.json``'s
``run_seconds``, as the benchmark's own runs do. For every metric this
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread, the interquartile distance as a share of the median, next
to the metric's bound from ``BENCHMARK.json``. ``--out`` writes the same summary
as JSON, for a baseline.

``--overhead`` runs each seed untraced and traced back to back, in
alternating order, and summarises the tracing overhead of each pair,
1 - traced samples/s / untraced samples/s: this host's speed drifts over
minutes, so only runs close in time compare.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(results, bounds):
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": bounds.get(name),
            "values": values,
        }
    return summary


def overhead(workload, seed_list, seconds):
    shares = []
    for i, seed in enumerate(seed_list):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        rate = {trace: one_run(workload, seed, seconds, trace)["metrics"]
                for trace in order}
        shares.append(1 - rate[1]["trace.samples_per_s"]["value"]
                      / rate[0]["samples_per_s"]["value"])
    q1, median, q3 = statistics.quantiles(shares, n=4) if len(shares) > 1 else shares * 3
    return {"seeds": seed_list, "median": median, "q1": q1, "q3": q3, "pairs": shares}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--overhead", action="store_true",
                        help="paired untraced/traced runs: tracing overhead")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in args.workload:
        if args.overhead:
            report[workload] = overhead(workload, args.seeds, seconds)
            print(f"{workload}: tracing overhead median {report[workload]['median']:.4f} "
                  f"(q1 {report[workload]['q1']:.4f}, q3 {report[workload]['q3']:.4f}) "
                  f"over {len(args.seeds)} pairs", flush=True)
            continue
        results = [one_run(workload, seed, seconds, args.trace) for seed in args.seeds]
        summary = summarise(results, bounds)
        report[workload] = {
            "seeds": args.seeds, "seconds": seconds, "trace": args.trace,
            "all_correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": summary,
        }
        print(f"{workload}: {len(results)} runs, all correct {report[workload]['all_correct']}, "
              f"{report[workload]['failed']}/{report[workload]['attempted']} failed")
        for name, s in summary.items():
            bound = "" if s["bound"] is None else f"  bound {s['bound']}"
            print(f"  {name:34s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}{bound}",
                  flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
