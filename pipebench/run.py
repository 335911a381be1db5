#!/usr/bin/env python3
"""End-to-end Elivagar pipeline benchmark.

Builds pipebench/pipeline_bench from the checkout's sources (CMake,
Release, build tree under .bench_build/), runs one workload for a time
budget and prints every metric by name and unit. The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

  python3 pipebench/run.py --workload pipeline-4q --seed 1 --seconds 60 --trace 0

--trace 0 reports the end-to-end metrics of untraced iterations, at a
reference host speed (host_factor); the table also shows them raw.
--trace 1 reports the per-layer metrics of a traced run (spans written
to .bench_build/traces/). METRICS.md defines every metric.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "pipebench"
GOLDEN = HERE / "golden.json"
# Metric names and units are declared once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# The workload seed whose iterations are compared against golden.json.
GOLDEN_SEED = 1
# Seconds one host-probe slice takes at the reference host speed. The
# end-to-end times are reported at that speed (see host_factor).
REFERENCE_PROBE_S = 2.4e-3
REL_TOL = 1e-9

# Registry counters attributed per layer; layer -> span names.
SIM_COUNTERS = {
    "sim.sv_fused_runs": ("sim.sv.fused_runs", ["cnr", "repcap", "train", "infer"]),
    "sim.superop_applies": ("sim.superop_applies", ["cnr", "infer"]),
    "sim.fusion_ops_merged": ("fusion.ops_merged", ["cnr", "repcap", "train", "infer"]),
}
LAYER_SPANS = {
    "cnr": ["core.cnr"],
    "repcap": ["core.repcap"],
    "train": ["qml.train"],
    "infer": ["qml.infer.ideal", "qml.infer.noisy"],
}
SEARCH_SPANS = ["core.generate", "core.cnr", "core.select", "core.repcap", "core.rank"]


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no Elivagar sources under {ROOT}; run from a full checkout")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--target", "pipeline_bench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD / "pipeline_bench"


def run_bench(binary, args, timeout):
    cmd = [str(binary)] + [str(a) for a in args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"pipeline_bench exceeded {timeout} s")
    if proc.returncode != 0:
        fail(f"pipeline_bench exited with {proc.returncode}")
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    prov = next(r["provenance"] for r in records if r["type"] == "provenance")
    iters = [r for r in records if r["type"] == "iteration"]
    summary = next(r for r in records if r["type"] == "summary")
    return prov, iters, summary


RANKING_KEYS = ["pool_digest", "best_digest", "survivors", "cnr", "repcap",
                "score", "best_score", "acc_ideal", "acc_noisy", "cnr_executions",
                "repcap_executions", "train_executions"]


def ranking(it):
    return {k: it[k] for k in RANKING_KEYS}


def close(a, b):
    # pipeline_bench prints non-finite values as null.
    return a is not None and abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def golden_mismatch(it, gold):
    """Why `it` differs from its golden digest ("" when it matches)."""
    for key in ["pool_digest", "survivors", "best_digest", "acc_ideal", "acc_noisy"]:
        if it[key] != gold[key]:
            return f"{key} differs from golden"
    for key in ["cnr", "repcap", "score"]:
        if len(it[key]) != len(gold[key]) or not all(
                close(a, b) for a, b in zip(it[key], gold[key])):
            return f"{key} differs from golden beyond {REL_TOL} relative"
    return ""


def check(workload, seed, iters):
    """Failure reasons per iteration (same order as `iters`)."""
    golden = {}
    if seed == GOLDEN_SEED and GOLDEN.is_file():
        golden = json.loads(GOLDEN.read_text()).get(workload, {})
    reference = {}
    for it in iters:
        if it["mode"] == "untraced" and "error" not in it:
            reference.setdefault(it["iteration"], ranking(it))
    reasons = []
    for it in iters:
        why = list(it["failures"])
        if "error" in it:
            why.append(f"threw: {it['error']}")
        else:
            gold = golden.get(str(it["iteration"]))
            if gold:
                mismatch = golden_mismatch(it, gold)
                if mismatch:
                    why.append(mismatch)
            ref = reference.get(it["iteration"])
            if ref is not None and ranking(it) != ref:
                why.append(f"{it['mode']} ranking at {it['threads']} thread(s) "
                           "differs bit-wise from the first untraced run")
        reasons.append(why)
    return reasons


def upper_percentile(values):
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 20:
        return None
    p = int(100 * (1 - 10 / n))
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def host_factor(it):
    """How much slower than the reference the host ran this iteration.

    The median of the iteration's host-probe slices (a fixed workload of
    the benchmark's own, run between the stages) over REFERENCE_PROBE_S.
    """
    return statistics.median(it["probe_s"]) / REFERENCE_PROBE_S


def stage_time(it, name):
    """An iteration's time for `name`: the median over the pipeline's own
    stage and its repeats, where the stage has them (setup, infer)."""
    return statistics.median([it[name]] + it.get("repeat_" + name, []))


def end_to_end(iters, summary, threads):
    """Medians over the untraced iterations at the workload's threads.

    Each iteration's times are divided by its host_factor, so a shared
    host's drift in speed between runs cancels while a change in the
    program's own time does not. Also returns the raw (wall and CPU)
    samples and the factors.
    """
    ok = [it for it in iters if it["mode"] == "untraced"
          and it["threads"] == threads and "error" not in it]
    if not ok:
        fail("no untraced iteration completed")
    names = [m["name"] for m in SPEC["end_to_end"] if m["name"] != "peak_rss_mb"]
    factors = [host_factor(it) for it in ok]
    raw = {name: [stage_time(it, name) for it in ok] for name in names}
    samples = {name: [v / f for v, f in zip(raw[name], factors)] for name in names}
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["peak_rss_mb"] = summary["peak_rss_mb"]
    return values, samples, raw, factors


def span_sum(spans, names):
    return sum(s["end_s"] - s["start_s"] for s in spans if s["name"] in names)


def per_layer(trace_path, iters, threads, good):
    """Per-layer medians over the traced iterations in `good`."""
    spans = json.loads(Path(trace_path).read_text())["spans"]
    by_iter = {}
    for s in spans:
        if s["iteration"] in good:
            by_iter.setdefault(s["iteration"], []).append(s)
    if not by_iter:
        fail("no traced iteration completed")
    rows = []
    for it in sorted(by_iter):
        group = by_iter[it]
        named = lambda n: [s for s in group if s["name"] == n]  # noqa: E731
        root = named("iteration")[0]
        wall = root["end_s"] - root["start_s"]
        layers = [s for s in group if s["parent"] == root["id"]]
        cnr = named("core.cnr")
        repcap = named("core.repcap")
        probe = named("noise.probe")[0]["args"]
        infer_probe = named("qml.infer.probe")[0]["args"]
        train = named("qml.train")[0]
        compile_s = probe["first_s"] - probe["repeat_s"]
        row = {
            "core.generate.busy_s": span_sum(group, ["core.generate"]),
            "core.generate.calls": len(named("core.generate")),
            "core.cnr.busy_s": span_sum(group, ["core.cnr"]),
            "core.cnr.executions": sum(s["args"]["executions"] for s in cnr),
            "core.cnr.candidate_p50_ms": 1e3 * statistics.median(
                s["end_s"] - s["start_s"] for s in cnr),
            "noise.compile_s": compile_s,
            "noise.apply_s": probe["repeat_s"],
            "noise.compile_share": compile_s / probe["first_s"],
            "noise.sim_construct_ms": probe["construct_ms_p50"],
            "core.select.keep_ratio": len(repcap) / len(cnr),
            "core.repcap.busy_s": span_sum(group, ["core.repcap"]),
            "core.repcap.executions": sum(s["args"]["executions"] for s in repcap),
            "core.repcap.candidate_p50_ms": 1e3 * statistics.median(
                s["end_s"] - s["start_s"] for s in repcap),
            "qml.train.busy_s": span_sum(group, ["qml.train"]),
            "qml.train.executions": train["args"]["executions"],
            "qml.train.epoch_ms": 1e3 * (train["end_s"] - train["start_s"])
            / train["args"]["epochs"],
            "qml.infer.ideal_s": span_sum(group, ["qml.infer.ideal"]),
            "qml.infer.noisy_s": span_sum(group, ["qml.infer.noisy"]),
            "qml.infer.noisy_sample_us": infer_probe["warm_us_p50"],
            "qml.infer.noisy_cold_us": infer_probe["cold_us"],
            "obs.span_coverage": sum(s["end_s"] - s["start_s"] for s in layers) / wall,
            "_traced_total_s": wall,
            "_search_busy_s": span_sum(group, SEARCH_SPANS),
        }
        for metric, (counter, layer_names) in SIM_COUNTERS.items():
            for layer in layer_names:
                row[f"{metric}.{layer}"] = sum(
                    s["counters"].get(counter, 0) for s in group
                    if s["name"] in LAYER_SPANS[layer])
        rows.append(row)

    def untraced_median(key, at_threads):
        values = [it[key] for it in iters if it["mode"] == "untraced"
                  and it["threads"] == at_threads and "error" not in it]
        return statistics.median(values)

    metrics = {}
    for key in rows[0]:
        metrics[key] = statistics.median(r[key] for r in rows)
    search_busy = metrics.pop("_search_busy_s")
    traced_total = metrics.pop("_traced_total_s")
    metrics["parallel.search_speedup"] = search_busy / untraced_median("search_s", threads)
    metrics["parallel.train_speedup"] = (metrics["qml.train.busy_s"]
                                         / untraced_median("train_s", threads))
    metrics["obs.trace_overhead"] = traced_total / untraced_median("total_s", 1) - 1
    return metrics


def with_units(values, declared):
    """Attach units; the computed metrics must be exactly the declared ones."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def record_golden(binary, workload, iterations):
    """Rewrite `workload`'s entry of golden.json from the current build."""
    _, iters, _ = run_bench(binary, ["--workload", workload, "--seed", GOLDEN_SEED,
                                      "--seconds", 0, "--iterations", iterations], 900)
    bad = [it for it in iters if it["failures"] or "error" in it]
    if bad:
        fail(f"refusing to record golden digests from failing iterations: {bad[0]}")
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    exact = ["pool_digest", "best_digest", "survivors", "acc_ideal", "acc_noisy"]
    # 12 significant digits keep the 1e-9 relative check exact enough.
    rounded = lambda v: [float(f"{x:.12g}") for x in v]  # noqa: E731
    golden[workload] = {
        str(it["iteration"]): {**{k: it[k] for k in exact},
                               **{k: rounded(it[k]) for k in ["cnr", "repcap", "score"]}}
        for it in iters}
    lines = []
    for name in sorted(golden):
        rows = [f'  {json.dumps(i)}: {json.dumps(d, sort_keys=True, separators=(",", ":"))}'
                for i, d in sorted(golden[name].items(), key=lambda kv: int(kv[0]))]
        lines.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(iters)} golden iterations of {workload}", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-golden", type=int, metavar="ITERATIONS",
                        help="rewrite golden.json for this workload at the "
                        "golden seed and exit")
    args = parser.parse_args()

    binary = build()
    if args.record_golden:
        record_golden(binary, args.workload, args.record_golden)
        return

    bench_args = ["--workload", args.workload, "--seed", args.seed,
                   "--seconds", args.seconds]
    trace_path = None
    if args.trace:
        trace_path = ROOT / ".bench_build" / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        bench_args += ["--trace-out", trace_path]
    prov, iters, summary = run_bench(binary, bench_args, args.seconds + 120)
    threads = prov["threads"]

    reasons = check(args.workload, args.seed, iters)
    failed = sum(1 for r in reasons if r)
    for it, why in zip(iters, reasons):
        for reason in why:
            print(f"FAILED {it['mode']} iteration {it['iteration']}: {reason}",
                  file=sys.stderr)

    print(f"# provenance: {json.dumps(prov, sort_keys=True)}")
    if args.trace:
        good = {it["iteration"] for it in iters
                if it["mode"] == "traced" and "error" not in it}
        metrics = with_units(per_layer(trace_path, iters, threads, good),
                             SPEC["per_layer"])
        traced = sum(1 for it in iters if it["mode"] == "traced")
        print(f"# per-layer medians over {traced} traced iteration(s); spans in {trace_path}")
        for name, m in metrics.items():
            print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    else:
        values, samples, raw, factors = end_to_end(iters, summary, threads)
        metrics = with_units(values, SPEC["end_to_end"])
        print(f"# end-to-end medians per iteration ({threads} thread(s)) at the "
              f"reference host speed; host_factor median "
              f"{statistics.median(factors):.4g} (raw = as measured)")
        for name, m in metrics.items():
            n = len(samples.get(name, [])) or 1
            tail = upper_percentile(samples.get(name, []))
            extra = f"  p{tail[0]}={tail[1]:.6g}" if tail else ""
            if name in raw:
                extra += f"  raw={statistics.median(raw[name]):.6g}"
            print(f"{name:12s} {m['value']:>12.6g} {m['unit']:3s} n={n}{extra}")
    print(json.dumps({"correct": failed == 0 and len(iters) > 0,
                      "attempted": len(iters), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
