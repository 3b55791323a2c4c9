// HealthCounters: one pipeline's self-healing ledger.
//
// The third ledger next to FaultCounters (injected transport faults) and
// OverloadCounters (pressure): this one accounts for what the health
// monitor saw and what the runtime did about it — degradations detected,
// resources declared failed, recoveries observed, placements recomputed and
// workers live-migrated, plus how long the pipeline spent below its
// baseline. The self-healing path is deterministic in simulation, so these
// counters double as the bit-identity fingerprint of a recovery scenario:
// same seed, same snapshot.
//
// Counters are relaxed atomics; the list below generates them, the
// comparable snapshot() struct and health_table() through the ledger schema
// (metrics/ledger.h).
#pragma once

#include "metrics/ledger.h"

// In incident order: what was detected, then what the runtime did, then how
// long the incident lasted.
#define NS_HEALTH_COUNTERS(X)                                                \
  /* State-machine transitions (core/health.h HealthMonitor). */             \
  X(degraded_detections, "healthy -> degraded transitions")                  \
  X(failure_detections, "degraded -> failed transitions")                    \
  X(recoveries, "returns to healthy after a demotion")                       \
  /* What the runtime did about it. */                                       \
  X(replans, "placements recomputed against a health mask")                  \
  X(migrations, "workers re-pinned at a chunk boundary")                     \
  X(time_in_degraded_ms,                                                     \
    "total virtual/wall milliseconds any tracked resource spent not-healthy")

namespace numastream {

/// Plain-value copy of HealthCounters, comparable and printable.
struct HealthCountersSnapshot {
  NS_LEDGER_SNAPSHOT(HealthCountersSnapshot, NS_HEALTH_COUNTERS)
};

/// Thread-safe counter set shared by a pipeline's workers and its health
/// monitor.
class HealthCounters {
 public:
  NS_LEDGER_COUNTERS(HealthCounters, HealthCountersSnapshot, NS_HEALTH_COUNTERS)
};

/// Renders a snapshot as a two-column table ("counter", "count"). With
/// `nonzero_only`, clean counters are elided so healthy runs print short.
inline TextTable health_table(const HealthCountersSnapshot& snapshot,
                              bool nonzero_only = false) {
  return ledger_table(snapshot, nonzero_only);
}

}  // namespace numastream
