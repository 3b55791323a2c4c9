// OverloadCounters: one pipeline's overload-protection ledger.
//
// The complement of FaultCounters: where that ledger accounts for injected
// transport faults and the recovery they provoked, this one accounts for
// *pressure* — admission decisions the budget made, frames the shed policies
// dropped, credit stalls the flow-control window imposed, streams evicted
// for falling behind, and how the graceful drain ended. Same accountability
// rule: a chunk that entered an overloaded pipeline is either delivered or
// shows up in exactly one counter here — never silently gone.
//
// Counters are relaxed atomics (touched at chunk granularity); the list
// below generates them, the comparable snapshot() struct and
// overload_table() through the ledger schema (metrics/ledger.h).
#pragma once

#include "metrics/ledger.h"

// In pressure order: shedding first, then the flow control and admission
// machinery that prevented worse, then the gauges.
#define NS_OVERLOAD_COUNTERS(X)                                              \
  /* Load shedding (core/pipeline.cpp shed policies). */                     \
  X(shed_newest, "incoming frames dropped at admission")                     \
  X(shed_oldest, "queued frames dropped to admit newer ones")                \
  X(priority_evictions, "queued frames evicted for higher priority")         \
  /* Credit-based flow control (msg/socket.h credit frames). */              \
  X(credit_stalls, "times a sender ran dry and had to wait")                 \
  X(credit_grants, "credit frames issued by the receiver")                   \
  /* Memory budget admission (core/budget.h). */                             \
  X(budget_stalls, "admissions that had to wait for releases")               \
  X(budget_rejections, "admissions denied outright (shed instead)")          \
  /* Slow-consumer protection. */                                            \
  X(slow_streams_evicted, "streams cut for missing the floor")               \
  X(evicted_chunks, "frames dropped for evicted streams")                    \
  /* Graceful drain (core/drain.h). */                                       \
  X(drain_requests, "coordinated flushes started")                           \
  X(drain_timeouts, "flushes that hit the deadline and forced")              \
  X(peak_bytes_in_flight,                                                    \
    "high-water mark of bytes concurrently charged to the memory budget")

namespace numastream {

/// Plain-value copy of OverloadCounters, comparable and printable.
struct OverloadCountersSnapshot {
  NS_LEDGER_SNAPSHOT(OverloadCountersSnapshot, NS_OVERLOAD_COUNTERS)

  /// Every frame dropped by a shed policy, whatever the policy was.
  [[nodiscard]] std::uint64_t total_shed() const noexcept {
    return shed_newest + shed_oldest + priority_evictions;
  }
};

/// Thread-safe counter set shared by a pipeline's workers.
class OverloadCounters {
 public:
  NS_LEDGER_COUNTERS(OverloadCounters, OverloadCountersSnapshot,
                     NS_OVERLOAD_COUNTERS)

  /// Raises peak_bytes_in_flight to at least `bytes` (monotonic gauge).
  void record_peak(std::uint64_t bytes) {
    raise_to_max(peak_bytes_in_flight, bytes);
  }
};

/// Renders a snapshot as a two-column table ("counter", "count"). With
/// `nonzero_only`, clean counters are elided so unstressed runs print short.
inline TextTable overload_table(const OverloadCountersSnapshot& snapshot,
                                bool nonzero_only = false) {
  return ledger_table(snapshot, nonzero_only);
}

}  // namespace numastream
