"""surgdepth benchmark: one workload, one closed loop, one JSON result line.

    python3 perfbench/run.py --workload train_toy --seed 0 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` every traced call is recorded as a span and the result holds
the per-layer metrics, normalised per operation (train step, eval sample or
forward). Lines before the last one are a human-readable report; the last
line is the JSON object. Scratch files go to ``.bench_out/``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")


def nproc():
    return len(os.sched_getaffinity(0))


# BLAS threads are fixed before numpy is first imported.
BLAS_THREADS = nproc()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "surgdepth")):
    sys.exit(f"no surgdepth sources under {SRC}: run from a source checkout")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

# The operation each workload's latency and per-layer figures are counted in.
OPERATION = {"train_toy": "train step", "eval_toy": "eval sample",
             "infer_vitb_half": "forward"}
# Spans that start a new op id in a traced run; train_toy counts steps itself.
SAMPLE_SPAN = {"eval_toy": "model.forward", "infer_vitb_half": "model.forward"}


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}", "nproc": nproc(),
            "blas_threads": BLAS_THREADS}


def end_to_end(run):
    # Every operation failing leaves no latencies: charge the window to them.
    latencies = run.latencies or [run.window_s / max(run.attempted, 1)]
    return {
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "samples_per_s": (run.samples / run.window_s, "1/s"),
        "setup_s": (statistics.median(run.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(run, tracer):
    """Per-layer metrics from the spans inside the timed window."""
    start, end = run.window
    totals = spans.layer_totals(tracer.spans, start, end)
    empty = dict(calls=0, self_s=0.0, total_s=0.0, out_bytes=0, taped_bytes=0, flops=0)
    ops = max(run.ops, 1)
    out = {}
    for op in spans.TENSOR_OPS:
        t = totals.get("tensor." + op, empty)
        out[f"tensor.{op}.self_s"] = (t["self_s"] / ops, "s")
        out[f"tensor.{op}.calls"] = (t["calls"] / ops, "count")
        out[f"tensor.{op}.out_bytes"] = (t["out_bytes"] / ops, "B")
        if op in spans.FLOP_OPS:
            out[f"tensor.{op}.flops"] = (t["flops"] / ops, "flop")
    taped = sum(t["taped_bytes"] for name, t in totals.items() if name.startswith("tensor."))
    forwards = totals.get("model.forward", empty)["calls"]
    out["tensor.taped_bytes"] = (taped / forwards if forwards else 0, "B")
    for name in spans.MODULE_NAMES:
        t = totals.get(name, empty)
        out[f"{name}.self_s"] = (t["self_s"] / ops, "s")
        out[f"{name}.total_s"] = (t["total_s"] / ops, "s")
        out[f"{name}.calls"] = (t["calls"] / ops, "count")
    before_end = [rec for rec in tracer.spans if rec[spans.START] < end]
    for name, metric in (("data.load_dataset", "data.load_dataset.s"),
                         ("checkpoint.load", "checkpoint.load.s"),
                         ("checkpoint.save", "checkpoint.save.s")):
        times = spans.durations(before_end, name)
        out[metric] = (statistics.median(times) if times else 0.0, "s")
    out["checkpoint.bytes"] = (max(spans.file_bytes(before_end, "checkpoint.load"),
                                   spans.file_bytes(before_end, "checkpoint.save")), "B")
    out["trace.samples_per_s"] = (run.samples / run.window_s, "1/s")
    return out


def report(args, run, metrics):
    """Human-readable lines printed ahead of the JSON result."""
    env = environment()
    op = OPERATION[args.workload]
    lines = [
        f"workload {args.workload}, seed {args.seed} (scene seed "
        f"{workloads.scene_seed(args.seed)}), trace {args.trace}: closed loop, 1 caller",
        f"python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
        f"nproc {env['nproc']}, BLAS threads {env['blas_threads']}",
        f"{run.attempted} {op}s attempted, {run.failed} failed "
        f"(error_rate {run.failed / max(run.attempted, 1):.4g}) in {run.window_s:.2f} s",
    ]
    n = len(run.latencies)
    if n >= 100:  # at least ten samples beyond p90
        p90 = 1000 * statistics.quantiles(run.latencies, n=10)[-1]
        lines.append(f"latency per {op}: p50 {1000 * statistics.median(run.latencies):.3f} ms, "
                     f"p90 {p90:.3f} ms over {n} samples")
    elif n:
        lines.append(f"latency per {op}: p50 {1000 * statistics.median(run.latencies):.3f} ms "
                     f"over {n} samples (too few for p90)")
    lines.append(", ".join(f"{k} {v:.6g}" for k, v in run.quality.items()))
    lines += [f"gate: {e}" for e in run.errors]
    if args.trace:
        lines.append(f"per-layer values are per {op}; traced samples/s "
                     f"{run.samples / run.window_s:.4g}")
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fn = workloads.WORKLOADS[args.workload]
    stored = workloads.load_reference()
    work = os.path.join(OUT, f"run-{args.workload}-{os.getpid()}")
    cache = os.path.join(OUT, "cache")
    os.makedirs(work)
    try:
        if args.trace:
            tracer = spans.Tracer(SAMPLE_SPAN.get(args.workload))
            with tracer.installed():
                run = fn(args.seed, args.seconds, work, cache, stored, tracer)
            tracer.write(os.path.join(OUT, f"trace-{args.workload}.jsonl"))
            metrics = per_layer(run, tracer)
        else:
            run = fn(args.seed, args.seconds, work, cache, stored)
            metrics = end_to_end(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in report(args, run, metrics):
        print(line)
    print(json.dumps({
        "correct": run.failed == 0 and not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
