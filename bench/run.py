#!/usr/bin/env python3
"""phasecond benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 bench/run.py --workload desk-train --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all

Run from the repository root. One workload runs in this process and the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. `--workload all` runs every workload untraced and
traced, each in its own process, and prints both sets of metrics and the
tracing overhead. Run files (checkpoints, traces, results) go to .bench_runs/.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = os.path.join(ROOT, ".bench_runs")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def die(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_phasecond():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "phasecond", "__init__.py")):
        die(f"no phasecond sources under {src}; run from a repository checkout")
    sys.path.insert(0, src)
    import phasecond
    if os.path.dirname(os.path.abspath(phasecond.__file__)) != os.path.join(src, "phasecond"):
        die(f"imported phasecond from {phasecond.__file__}, not from {src}")


def load_spec():
    with open(BENCHMARK, encoding="utf-8") as fh:
        return json.load(fh)


def run_one(args, spec):
    import environment
    import workloads
    from spans import Recorder, summarize

    env = environment.record(ROOT)
    os.makedirs(RUNS, exist_ok=True)
    workdir = os.path.join(RUNS, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    recorder = Recorder().install() if args.trace else None
    run = workloads.Run(args.seconds, recorder, workdir)
    metrics = {}
    try:
        metrics = workloads.WORKLOADS[args.workload](run, args.seed)
    except Exception:  # the workload's failure is reported in the result
        run.attempted += 1
        run.failure(f"{args.workload} raised")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if recorder is not None:
        recorder.uninstall()
        layer_metrics, self_s, bwd = summarize(recorder, run.counts)
        for name in ("tensor.nodes_per_example", "encoders.lstm_rows", "attention.ls_flops"):
            run.exact[name] = layer_metrics[name][0]
        share = bwd["rows_s"] / bwd["backward_s"] if bwd["backward_s"] else 0.0
        run.check("backward rows sum to tensor.backward_ms within 10%",
                  abs(share - 1.0) <= 0.10, f"{share:.4f} of tensor.backward_ms")
        run.info["layer_self_s"] = self_s
        run.info["trace_missing"] = recorder.missing
        trace_path = os.path.join(RUNS, f"trace-{args.workload}-s{args.seed}.json")
        recorder.write(trace_path)
        run.info["trace_file"] = os.path.relpath(trace_path, ROOT)

    key = f"{args.workload}|seed={args.seed}|code={env['code_sha256']}"
    mismatched = environment.compare_exact(os.path.join(RUNS, "exact_counts.json"), key, run.exact)
    run.check("exact counts repeat", not mismatched, ", ".join(mismatched) or "ok")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = {name: value for name, (value, _unit) in layer_metrics.items()}
    else:
        values = metrics
    out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
           for m in wanted if math.isfinite(values.get(m["name"], math.nan))}
    correct = (all(c["ok"] for c in run.checks) and run.failed == 0
               and len(out) == len(wanted))

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    aliases = dict(zip(("task_s", "task_examples_per_s"), workloads.TASK_NAMES[args.workload]))
    for name, value in metrics.items():
        print(f"e2e {name} = {value!r}" + (f"  ({aliases[name]})" if name in aliases else ""))
    if args.trace:
        for name, (value, unit) in layer_metrics.items():
            print(f"layer {name} = {value!r} {unit}")
        for layer, seconds in sorted(run.info["layer_self_s"].items()):
            print(f"self {layer} = {seconds!r} s")
    for c in run.checks:
        print(f"check {'PASS' if c['ok'] else 'FAIL'} {c['check']}: {c['detail']}")
    for name, value in run.info.items():
        if name not in ("layer_self_s", "latencies_ms"):
            print(f"info {name} = {json.dumps(value)}")

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "e2e": metrics, "checks": run.checks, "info": run.info,
              "exact": run.exact, "attempted": run.attempted, "failed": run.failed}
    if args.trace:
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()}
    with open(os.path.join(RUNS, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=str)

    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": out}))


def _run_child(workload, seed, seconds, trace):
    """One workload in its own process: (last-line result, full result file)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stderr, file=sys.stderr)
        die(f"{workload} trace {trace} exited with {proc.returncode}")
    print(f"== {workload} trace {trace}: {time.perf_counter() - t0:.1f} s wall")
    path = os.path.join(RUNS, f"result-{workload}-s{seed}-t{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.loads(lines[-1]), json.load(fh)


def run_all(args, spec):
    """Every workload untraced and traced, each in its own process."""
    from spans import LAYERS

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        plain, plain_full = _run_child(workload, args.seed, args.seconds, 0)
        traced, traced_full = _run_child(workload, args.seed, args.seconds, 1)
        ok = ok and plain["correct"] and traced["correct"]
        print(f"{workload}: correct {plain['correct']}, attempted {plain['attempted']}, "
              f"failed {plain['failed']} (traced run: correct {traced['correct']}, "
              f"attempted {traced['attempted']}, failed {traced['failed']})")
        print(f"  {'metric':24} {'untraced':>14} {'traced':>14} {'overhead':>9}  unit")
        for name, entry in plain["metrics"].items():
            base, with_trace = entry["value"], traced_full["e2e"][name]
            print(f"  {name:24} {base:14.6g} {with_trace:14.6g} "
                  f"{(with_trace / base - 1.0) * 100.0:+8.1f}%  {units[name]}")
        for name, value in plain_full["info"].items():
            if name != "latencies_ms":
                print(f"  info {name} = {json.dumps(value)}")
        for check in plain_full["checks"] + traced_full["checks"]:
            print(f"  check {'PASS' if check['ok'] else 'FAIL'} {check['check']}: "
                  f"{check['detail']}")
        for name, entry in traced["metrics"].items():
            print(f"  {name:30} {entry['value']:16.6g} {entry['unit']}")
        # Tracing overhead on backward(): the traced rows against backward()
        # timed without tracing in the other process. Reported, not checked:
        # two processes differ by machine noise as well.
        untraced_ms = plain_full["info"].get("backward_ms_per_example")
        if untraced_ms:
            rows = sum(traced["metrics"][f"{layer}.bwd_ms"]["value"] for layer in LAYERS)
            rows += traced["metrics"]["tensor.walk_self_ms"]["value"]
            print(f"  traced backward rows {rows:.4g} ms = {rows / untraced_ms:.3f} x "
                  f"untraced backward() {untraced_ms:.4g} ms per example")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="minimum measured time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(BENCHMARK):
        die(f"missing {BENCHMARK}")
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        sys.exit(run_all(args, spec))
    if args.workload not in names:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
    import_phasecond()
    run_one(args, spec)


if __name__ == "__main__":
    main()
