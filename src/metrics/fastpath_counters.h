// FastPathCounters: the lock-free chunk path's ledger.
//
// Accounts for what the fastpath subsystem (DESIGN.md §15) did during a
// run: ring handoffs taken instead of mutex-queue handoffs, and waiter
// parkings on the fan-in queues' eventcounts (a healthy pipeline parks
// rarely — the rings absorb the jitter).
//
// Counters are relaxed atomics, each padded to its own cache line
// (PaddedCounter): compressors, senders, receivers and decompressors all
// bump their own members on the hot path. The list below generates them,
// the comparable snapshot() struct and fastpath_table() through the ledger
// schema (metrics/ledger.h).
#pragma once

#include "metrics/ledger.h"

#define NS_FASTPATH_COUNTERS(X)                                              \
  X(ring_pushes, "elements through the fan-in rings")                        \
  X(ring_parks, "waits that actually parked a thread")

namespace numastream {

/// Plain-value copy of FastPathCounters, comparable and printable.
struct FastPathCountersSnapshot {
  NS_LEDGER_SNAPSHOT(FastPathCountersSnapshot, NS_FASTPATH_COUNTERS)
};

/// Thread-safe counter set shared by the fan-in queues.
class FastPathCounters {
 public:
  NS_LEDGER_COUNTERS(FastPathCounters, FastPathCountersSnapshot,
                     NS_FASTPATH_COUNTERS)
};

/// Renders a snapshot as a two-column table ("counter", "count"). With
/// `nonzero_only`, clean counters are elided so fastpath-off runs print
/// nothing.
inline TextTable fastpath_table(const FastPathCountersSnapshot& snapshot,
                                bool nonzero_only = false) {
  return ledger_table(snapshot, nonzero_only);
}

}  // namespace numastream
