#!/usr/bin/env python3
"""Real-path end-to-end benchmark for numastream.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds e2ebench/harness.cpp against the
repository's src/ tree (Release, into .bench_build/ or $CARGO_TARGET_DIR),
runs one workload, checks every delivered chunk, and prints each metric
by name with its unit, a `meta` line describing the run, and, as the last
line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
A run with any failed operation exits 1 and reports no metrics.
See e2ebench/NOTES.md for the workloads and what each metric attributes.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("tomo_full_lz4", "binned_lz4_paced")
HARNESS_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "pipeline.h")):
        raise SystemExit("e2ebench: no numastream src/ tree next to e2ebench/")
    build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(build_root), "e2ebench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(build_dir)  # configured for another checkout
    if not os.path.isfile(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "e2e_harness",
                    "-j", str(os.cpu_count() or 1)], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "e2e_harness")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    if shutil.which("git") and os.path.exists(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    return None


def source_digest():
    """sha256 over src/ and e2ebench/, so runs from a checkout without git
    history can still be matched to the code they measured."""
    h = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                if name.endswith(".pyc") or not os.path.isfile(path):
                    continue
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_harness(binary, args):
    done = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, timeout=HARNESS_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"e2ebench: harness exited with {done.returncode}")
    return json.loads(done.stdout)


def phase_ok(phase):
    return phase["sender_status"] == "OK" and phase["receiver_status"] == "OK"


def end_to_end(raw):
    u = raw["untraced"]
    chunks = u["chunks"]
    cb = raw["chunk_bytes"]
    return {
        "throughput_gbps": (stats.throughput_gbps(chunks, cb), "Gbit/s"),
        "cpu_s_per_gb": (stats.cpu_s_per_gb(
            u["cpu_s"], stats.delivered_raw_bytes(chunks, cb)), "s/GB"),
        "latency_p50_ms": (stats.percentile(stats.latencies_ms(chunks), 50), "ms"),
        "compression_ratio": (u["sender"]["raw_bytes"] / u["sender"]["wire_bytes"],
                              "ratio"),
        "setup_s": (statistics.median(raw["setup"]["cpu_s"]), "s"),
        "mem_peak_mb": (stats.heap_peak_mb(u["mem"]), "MB"),
    }


def per_layer(raw):
    u, t, layers = raw["untraced"], raw["traced"], raw["layers"]
    cb = raw["chunk_bytes"]
    s, r = u["sender"], u["receiver"]
    closed = raw["rate_hz"] == 0
    e2e_cpu = stats.cpu_s_per_gb(u["cpu_s"], stats.delivered_raw_bytes(u["chunks"], cb))
    costs = stats.layer_cpu_s_per_gb(layers, s["wire_bytes"] / s["raw_bytes"])
    msg = layers["msg"]
    if closed:
        before = stats.throughput_gbps(u["chunks"], cb)
        after = stats.throughput_gbps(t["chunks"], cb)
    else:
        before = stats.percentile(stats.latencies_ms(u["chunks"]), 50)
        after = stats.percentile(stats.latencies_ms(t["chunks"]), 50)
    tc = t["chunks"]
    p50 = lambda values: stats.percentile(values, 50)
    return {
        "codec.lz4_compress_mbps": (stats.median_rate(layers["lz4_compress"]) / 1e6, "MB/s"),
        "codec.lz4_decompress_mbps": (stats.median_rate(layers["lz4_decompress"]) / 1e6,
                                      "MB/s"),
        "codec.xxhash32_gbps": (stats.median_rate(layers["xxhash32"]) / 1e9, "GB/s"),
        "codec.frame_encode_mbps": (stats.median_rate(layers["frame_encode"]) / 1e6, "MB/s"),
        "codec.frame_decode_mbps": (stats.median_rate(layers["frame_decode"]) / 1e6, "MB/s"),
        "msg.send_recv_gbps": (msg["wire_bytes"] * 8 / msg["wall_s"] / 1e9, "Gbit/s"),
        "msg.us_per_message": (msg["wall_s"] / msg["messages"] * 1e6, "us"),
        "queue.handoff_us_p50": (p50(layers["queue"]["handoff_ns"]) / 1e3, "us"),
        "pipeline.compress_busy_frac": (stats.busy_fraction(
            s["compress_busy_s"], s["elapsed_s"], s["compress_threads"]), "fraction"),
        "pipeline.send_busy_frac": (stats.busy_fraction(
            s["send_busy_s"], s["elapsed_s"], s["send_threads"]), "fraction"),
        "pipeline.receive_busy_frac": (stats.busy_fraction(
            r["receive_busy_s"], r["elapsed_s"], r["receive_threads"]), "fraction"),
        "pipeline.decompress_busy_frac": (stats.busy_fraction(
            r["decompress_busy_s"], r["elapsed_s"], r["decompress_threads"]), "fraction"),
        "pipeline.unattributed_cpu_s_per_gb": (
            stats.unattributed_cpu_s_per_gb(e2e_cpu, costs), "s/GB"),
        "trace.sender_ms_p50": (p50(stats.stage_ms(tc, "handout", "write_end")), "ms"),
        "trace.wire_ms_p50": (p50(stats.stage_ms(tc, "write_start", "read_end")), "ms"),
        "trace.receiver_ms_p50": (p50(stats.stage_ms(tc, "read_end", "deliver")), "ms"),
        "trace.overhead_pct": (stats.overhead_pct(
            before, after, "higher" if closed else "lower"), "%"),
        "loadgen.late_ms_max": (max(stats.lateness_ms(u["chunks"])), "ms"),
        "mem.rss_peak_mb": (stats.rss_peak_mb(u["mem"])[0], "MB"),
    }


def check(raw):
    """(attempted, failed, problems) over every pipeline run in `raw`."""
    attempted = failed = 0
    problems = []
    for name in ("untraced", "traced"):
        phase = raw.get(name)
        if phase is None:
            continue
        a, f = stats.accounting(phase["chunks"], phase_ok(phase))
        attempted += a
        failed += f
        if not phase_ok(phase):
            problems.append(f"{name}: sender {phase['sender_status']}, "
                            f"receiver {phase['receiver_status']}")
        if phase["trace_errors"]:
            problems.append(f"{name}: {phase['trace_errors']} unparseable streams")
            failed += phase["trace_errors"]
        if f:
            problems.append(f"{name}: {f} of {a} chunks not delivered intact")
    setup = raw.get("setup")
    if setup is not None:
        attempted += len(setup["cpu_s"])
        if setup["status"] != "OK":
            failed += 1
            problems.append(f"setup: {setup['status']}")
    layers = raw.get("layers")
    if layers is not None:
        msg = layers["msg"]
        attempted += msg["sent"]
        if msg["send_status"] != "OK" or msg["recv_status"] != "OK" \
                or msg["messages"] != msg["sent"]:
            failed += max(msg["sent"] - msg["messages"], 1)
            problems.append(f"msg: sent {msg['sent']}, received {msg['messages']}, "
                            f"{msg['send_status']} / {msg['recv_status']}")
    return attempted, failed, problems


def metadata(raw, args, load_start, load_end):
    u = raw["untraced"]
    latencies = stats.latencies_ms(u["chunks"])
    _, mem_method = stats.rss_peak_mb(u["mem"])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": raw["nproc"],
        "pipeline_workers": raw["workers"],
        "numa_domains": raw["numa_domains"],
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "cpu_model": cpu_model(),
        "build_type": raw["build_type"],
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "codec": raw["codec"],
        "chunk_bytes": raw["chunk_bytes"],
        "pool_chunks": raw["pool_chunks"],
        "rate_hz": raw["rate_hz"],
        "closed_loop_clients": raw["window"],
        "generate_s": raw["generate_s"],
        "latency_ms": stats.summarize(latencies),
        "generator_late_ms": stats.summarize(stats.lateness_ms(u["chunks"])),
        "mem_method": mem_method,
        "setup_wall_s": (statistics.median(raw["setup"]["wall_s"])
                         if "setup" in raw else None),
        "queue": ({k: raw["layers"]["queue"][k] for k in ("capacity", "rings")}
                  if "layers" in raw else None),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    load_start = os.getloadavg()[0]
    raw = run_harness(binary, args)
    load_end = os.getloadavg()[0]

    meta = metadata(raw, args, load_start, load_end)
    if raw["workers"] > raw["nproc"]:
        log(f"warning: {raw['workers']} pipeline workers on {raw['nproc']} CPUs; "
            "latency and throughput will include time-slicing")
    attempted, failed, problems = check(raw)
    for problem in problems:
        log(f"e2ebench: {problem}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {}}
    if failed == 0:
        metrics = end_to_end(raw) if args.trace == 0 else per_layer(raw)
        for name, (value, unit) in metrics.items():
            print(f"{name:38s} {value:14.6g} {unit}")
            result["metrics"][name] = {"value": value, "unit": unit}
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
