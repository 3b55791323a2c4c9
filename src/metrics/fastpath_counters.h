// FastPathCounters: the lock-free chunk path's ledger.
//
// Accounts for what the fastpath subsystem (DESIGN.md §15) did during a
// run: ring handoffs taken instead of mutex-queue handoffs, waiter parkings
// on the fan-in queues' eventcounts (a healthy pipeline parks rarely — the
// rings absorb the jitter), and the NUMA-local chunk pool's lease traffic.
// pool_hits vs pool_misses is the headline: a hit recycles an 11 MiB buffer
// already resident on the worker's home domain, a miss pays a fresh
// allocation plus first-touch faulting. pool_discards counts returns the
// pool turned away because the shelf was full (the buffer frees normally —
// never a leak, the exactly-once test in fastpath_test.cpp pins this down).
//
// Counters are relaxed atomics, each padded to its own cache line
// (PaddedCounter): compressors, senders, receivers and decompressors all
// bump their own members on the hot path. The list below generates them,
// the comparable snapshot() struct and fastpath_table() through the ledger
// schema (metrics/ledger.h).
#pragma once

#include "metrics/ledger.h"

// The ring traffic first, then the pool's lease lifecycle in the order a
// buffer experiences it.
#define NS_FASTPATH_COUNTERS(X)                                              \
  /* Ring handoffs. */                                                       \
  X(ring_pushes, "elements through the fan-in rings")                        \
  X(ring_parks, "waits that actually parked a thread")                       \
  /* Pool traffic. */                                                        \
  X(pool_leases, "buffers handed out")                                       \
  X(pool_hits, "leases served by recycling")                                 \
  X(pool_misses, "leases that had to allocate")                              \
  X(pool_recycles, "buffers returned and shelved")                           \
  X(pool_discards, "returns dropped (shelf full)")

namespace numastream {

/// Plain-value copy of FastPathCounters, comparable and printable.
struct FastPathCountersSnapshot {
  NS_LEDGER_SNAPSHOT(FastPathCountersSnapshot, NS_FASTPATH_COUNTERS)
};

/// Thread-safe counter set shared by the fan-in queues and the chunk pool.
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
