"""Arithmetic that turns the harness's raw measurements into metrics.

Everything here is a pure function of the JSON that e2e_harness prints, so
test_stats.py can pin each rule down without running a pipeline.
"""

import math
import statistics

# Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, p):
    """Linear-interpolated percentile `p` (0-100) of `values`."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n):
    """Highest percentile on TAIL_LADDER with at least MIN_BEYOND of `n`
    samples beyond it, or None when not even the median qualifies."""
    best = None
    for p in TAIL_LADDER:
        # Round to absorb float error in n * (100 - p) / 100.
        if round(n * (100.0 - p) / 100.0, 9) >= MIN_BEYOND:
            best = p
    return best


def summarize(values):
    """Median plus the tail percentile the sample count supports."""
    n = len(values)
    tail = tail_percentile(n)
    return {
        "samples": n,
        "p50": percentile(values, 50) if n else None,
        "tail_p": tail,
        "tail": percentile(values, tail) if tail is not None else None,
    }


def accounting(chunks, statuses_ok):
    """(attempted, failed) for one streaming phase.

    A chunk is attempted once its generator released it. It fails unless it
    was delivered exactly once with bytes equal to its input. A pipeline run
    that returned a non-OK Status is itself a failure even when every chunk
    arrived."""
    attempted = sum(1 for r in chunks["release"] if r >= 0)
    good = sum(
        1
        for r, d, m, k in zip(chunks["release"], chunks["deliver"],
                              chunks["match"], chunks["deliveries"])
        if r >= 0 and d >= 0 and m == 1 and k == 1)
    failed = attempted - good
    if not statuses_ok and failed == 0:
        failed = 1
    return max(attempted, 1), failed


def _delivered(chunks):
    return [i for i, d in enumerate(chunks["deliver"]) if d >= 0]


def latencies_ms(chunks):
    """Per-chunk latency from due time to sink delivery.

    The due time is the schedule slot in the open loop and, in the closed
    loop, the delivery that freed the chunk's client slot; never the moment
    the chunk was sent. A chunk that waited behind a stalled pipeline, or
    behind a late generator, carries that wait in its latency."""
    return [(chunks["deliver"][i] - chunks["due"][i]) / 1e6
            for i in _delivered(chunks)]


def lateness_ms(chunks):
    """How late the generator released each chunk: after its due time, or
    in the closed loop after the pipeline asked for it, whichever came
    later (a chunk the pipeline was too busy to ask for is not the
    generator's delay)."""
    return [(r - max(d, q)) / 1e6
            for r, d, q in zip(chunks["release"], chunks["due"], chunks["request"])
            if r >= 0 and d >= 0]


def stage_ms(chunks, start, end):
    """Per-chunk interval between two recorded events, in ms."""
    return [(e - s) / 1e6 for s, e in zip(chunks[start], chunks[end])
            if s >= 0 and e >= 0]


def throughput_gbps(chunks, chunk_bytes, windows=10):
    """Verified raw Gbit/s: the median over `windows` equal slices of the
    delivered chunks (ordered by delivery) of the slice's bits over the time
    since the previous slice ended; the first slice counts from the first
    due time. Slicing keeps one stall from another tenant from deciding
    the whole run."""
    good = sorted(d for d, m in zip(chunks["deliver"], chunks["match"])
                  if d >= 0 and m == 1)
    if not good:
        return 0.0
    dues = [d for d in chunks["due"] if d >= 0]
    windows = max(1, min(windows, len(good)))
    edges = [round(k * len(good) / windows) for k in range(windows + 1)]
    rates = []
    previous_end = min(dues)
    for a, b in zip(edges, edges[1:]):
        end = good[b - 1]
        span = (end - previous_end) / 1e9
        rates.append((b - a) * chunk_bytes * 8 / span / 1e9 if span > 0 else 0.0)
        previous_end = end
    return statistics.median(rates)


def delivered_raw_bytes(chunks, chunk_bytes):
    return sum(1 for d, m in zip(chunks["deliver"], chunks["match"])
               if d >= 0 and m == 1) * chunk_bytes


def cpu_s_per_gb(cpu_s, raw_bytes):
    """Process CPU seconds per raw GB (1e9 bytes) delivered."""
    return cpu_s / (raw_bytes / 1e9) if raw_bytes > 0 else 0.0


def heap_peak_mb(mem):
    """Mean over 100 ms intervals of the interval's peak live heap bytes
    above the level before streaming, in MB (1e6 B).

    The peak of a whole run is set by the rarest overlap of buffers. A
    median interval peak jumps between modes when about half the intervals
    see an overlap (the paced workload: 11.4 or 16.4 MB, depending on
    whether latency exceeds the 50 ms release period). The mean moves
    smoothly with the share of intervals that do."""
    peaks = mem["heap_interval_peak_bytes"]
    return statistics.fmean(peaks) / 1e6 if peaks else 0.0


def rss_peak_mb(mem):
    """(peak RSS above the pre-streaming RSS in MB (1e6 B), method).

    The harness resets the kernel's RSS high-water mark through
    /proc/self/clear_refs before streaming, so VmHWM afterwards is the peak
    of the streaming phase alone. When the kernel refuses the reset, VmHWM
    still holds the peak since process start (input pool included), so the
    harness's 1 ms RSS samples are used instead and the method says so."""
    if mem["hwm_reset"]:
        peak, method = mem["hwm_kb"], "vmhwm_reset"
    else:
        peak, method = mem["sampled_max_kb"], "rss_sampled_1ms"
    return max(peak - mem["rss_before_kb"], 0) * 1024 / 1e6, method


def busy_fraction(busy_s, elapsed_s, threads):
    return busy_s / (elapsed_s * threads) if elapsed_s > 0 and threads > 0 else 0.0


def median_rate(rates):
    return statistics.median(rates) if rates else 0.0


def layer_cpu_s_per_gb(layers, wire_per_raw):
    """CPU seconds per raw GB that the codec, frame and msg layers cost in
    single-thread isolation, plus the harness's own copy-and-compare.

    frame_encode and frame_decode already include the codec call and the
    frame's hashing, so the codec is not counted separately. The msg cost
    is measured per wire byte and scaled by the stream's wire/raw ratio."""
    per_gb = lambda rates: 1e9 / median_rate(rates) if rates else 0.0
    msg = layers["msg"]
    msg_per_wire_gb = (msg["cpu_s"] / (msg["wire_bytes"] / 1e9)
                       if msg["wire_bytes"] > 0 else 0.0)
    return {
        "frame_encode": per_gb(layers["frame_encode"]),
        "frame_decode": per_gb(layers["frame_decode"]),
        "msg": msg_per_wire_gb * wire_per_raw,
        "harness": per_gb(layers["harness_copy_compare"]),
    }


def unattributed_cpu_s_per_gb(e2e_cpu_s_per_gb, layer_costs):
    """End-to-end CPU per GB minus what the layers account for: the
    pipeline's orchestration overhead (threads, queues, wake-ups)."""
    return e2e_cpu_s_per_gb - sum(layer_costs.values())


def overhead_pct(untraced, traced, better):
    """How much worse the traced run read than the untraced one, in %."""
    if better == "higher":
        return (untraced - traced) / untraced * 100.0 if untraced else 0.0
    return (traced - untraced) / untraced * 100.0 if untraced else 0.0
