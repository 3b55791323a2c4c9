// Golden-output pins for the eight counter ledgers (metrics/ledger.h).
//
// Every family is driven the same way: counter i, in list order, is set to
// i + 1, so each value also pins its row's position. The expected strings
// were captured from the hand-written per-family renderers the schema
// replaced, so a drift in any name, in row order, in the "clean" rule or in
// the nonzero_only rule fails here. The registry half checks that
// register_ledger() adds exactly one "<prefix>.<name>" per counter, reading
// the live value, and that a name clash rolls the whole batch back.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "metrics/chaos_counters.h"
#include "metrics/fastpath_counters.h"
#include "metrics/fault_counters.h"
#include "metrics/federation_counters.h"
#include "metrics/health_counters.h"
#include "metrics/overload_counters.h"
#include "metrics/resume_counters.h"
#include "metrics/scrub_counters.h"
#include "obs/registry.h"

namespace numastream {
namespace {

struct FaultLedger {
  using Counters = FaultCounters;
  using Snapshot = FaultCountersSnapshot;
  static constexpr const char* kPrefix = "fault";
  static TextTable table(const Snapshot& s, bool nonzero_only) {
    return fault_table(s, nonzero_only);
  }
  static constexpr const char* kDense =
      "injected_disconnects=1 injected_torn_writes=2 injected_bitflips=3 "
      "injected_short_writes=4 injected_stalls=5 injected_throttles=6 "
      "injected_crashes=7 injected_accept_failures=8 reconnects=9 "
      "dial_retries=10 connections_recycled=11 message_resyncs=12 "
      "frame_resyncs=13 corrupt_frames=14 dropped_frames=15 "
      "duplicate_frames=16 degraded_chunks=17 watchdog_trips=18";
  static constexpr const char* kDenseTable = R"(
counter                   count
-------------------------------
injected_disconnects          1
injected_torn_writes          2
injected_bitflips             3
injected_short_writes         4
injected_stalls               5
injected_throttles            6
injected_crashes              7
injected_accept_failures      8
reconnects                    9
dial_retries                 10
connections_recycled         11
message_resyncs              12
frame_resyncs                13
corrupt_frames               14
dropped_frames               15
duplicate_frames             16
degraded_chunks              17
watchdog_trips               18
)";
  static constexpr const char* kSparse =
      "injected_torn_writes=2 injected_short_writes=4 injected_throttles=6 "
      "injected_accept_failures=8 dial_retries=10 message_resyncs=12 "
      "corrupt_frames=14 duplicate_frames=16 watchdog_trips=18";
  static constexpr const char* kSparseTable = R"(
counter                   count
-------------------------------
injected_torn_writes          2
injected_short_writes         4
injected_throttles            6
injected_accept_failures      8
dial_retries                 10
message_resyncs              12
corrupt_frames               14
duplicate_frames             16
watchdog_trips               18
)";
};

struct OverloadLedger {
  using Counters = OverloadCounters;
  using Snapshot = OverloadCountersSnapshot;
  static constexpr const char* kPrefix = "overload";
  static TextTable table(const Snapshot& s, bool nonzero_only) {
    return overload_table(s, nonzero_only);
  }
  static constexpr const char* kDense =
      "shed_newest=1 shed_oldest=2 priority_evictions=3 credit_stalls=4 "
      "credit_grants=5 budget_stalls=6 budget_rejections=7 "
      "slow_streams_evicted=8 evicted_chunks=9 drain_requests=10 "
      "drain_timeouts=11 peak_bytes_in_flight=12";
  static constexpr const char* kDenseTable = R"(
counter               count
---------------------------
shed_newest               1
shed_oldest               2
priority_evictions        3
credit_stalls             4
credit_grants             5
budget_stalls             6
budget_rejections         7
slow_streams_evicted      8
evicted_chunks            9
drain_requests           10
drain_timeouts           11
peak_bytes_in_flight     12
)";
  static constexpr const char* kSparse =
      "shed_oldest=2 credit_stalls=4 budget_stalls=6 slow_streams_evicted=8 "
      "drain_requests=10 peak_bytes_in_flight=12";
  static constexpr const char* kSparseTable = R"(
counter               count
---------------------------
shed_oldest               2
credit_stalls             4
budget_stalls             6
slow_streams_evicted      8
drain_requests           10
peak_bytes_in_flight     12
)";
};

struct HealthLedger {
  using Counters = HealthCounters;
  using Snapshot = HealthCountersSnapshot;
  static constexpr const char* kPrefix = "health";
  static TextTable table(const Snapshot& s, bool nonzero_only) {
    return health_table(s, nonzero_only);
  }
  static constexpr const char* kDense =
      "degraded_detections=1 failure_detections=2 recoveries=3 replans=4 "
      "migrations=5 time_in_degraded_ms=6";
  static constexpr const char* kDenseTable = R"(
counter              count
--------------------------
degraded_detections      1
failure_detections       2
recoveries               3
replans                  4
migrations               5
time_in_degraded_ms      6
)";
  static constexpr const char* kSparse =
      "failure_detections=2 replans=4 time_in_degraded_ms=6";
  static constexpr const char* kSparseTable = R"(
counter              count
--------------------------
failure_detections       2
replans                  4
time_in_degraded_ms      6
)";
};

struct ResumeLedger {
  using Counters = ResumeCounters;
  using Snapshot = ResumeCountersSnapshot;
  static constexpr const char* kPrefix = "resume";
  static TextTable table(const Snapshot& s, bool nonzero_only) {
    return resume_table(s, nonzero_only);
  }
  static constexpr const char* kDense =
      "crashes_observed=1 resume_handshakes=2 journal_records_written=3 "
      "journal_records_replayed=4 torn_records_truncated=5 "
      "duplicates_suppressed=6 duplicate_deliveries_suppressed=7 "
      "replayed_chunks=8 rework_bytes=9 recovery_wall_ms=10";
  static constexpr const char* kDenseTable = R"(
counter                          count
--------------------------------------
crashes_observed                     1
resume_handshakes                    2
journal_records_written              3
journal_records_replayed             4
torn_records_truncated               5
duplicates_suppressed                6
duplicate_deliveries_suppressed      7
replayed_chunks                      8
rework_bytes                         9
recovery_wall_ms                    10
)";
  static constexpr const char* kSparse =
      "resume_handshakes=2 journal_records_replayed=4 duplicates_suppressed=6 "
      "replayed_chunks=8 recovery_wall_ms=10";
  static constexpr const char* kSparseTable = R"(
counter                   count
-------------------------------
resume_handshakes             2
journal_records_replayed      4
duplicates_suppressed         6
replayed_chunks               8
recovery_wall_ms             10
)";
};

struct FederationLedger {
  using Counters = FederationCounters;
  using Snapshot = FederationCountersSnapshot;
  static constexpr const char* kPrefix = "federation";
  static TextTable table(const Snapshot& s, bool nonzero_only) {
    return federation_table(s, nonzero_only);
  }
  static constexpr const char* kDense =
      "repl_records_shipped=1 repl_appends_acked=2 repl_lag_records_max=3 "
      "heartbeats_sent=4 peer_failures_detected=5 degraded_peers_detected=6 "
      "failovers=7 streams_reresolved=8 failover_wall_ms=9 epoch=10 "
      "fenced_appends_rejected=11 rebalance_triggers=12 handoffs_planned=13 "
      "handoffs_completed=14 handoffs_aborted=15 handoff_streams_moved=16 "
      "handoff_wall_ms=17";
  static constexpr const char* kDenseTable = R"(
counter                  count
------------------------------
repl_records_shipped         1
repl_appends_acked           2
repl_lag_records_max         3
heartbeats_sent              4
peer_failures_detected       5
degraded_peers_detected      6
failovers                    7
streams_reresolved           8
failover_wall_ms             9
epoch                       10
fenced_appends_rejected     11
rebalance_triggers          12
handoffs_planned            13
handoffs_completed          14
handoffs_aborted            15
handoff_streams_moved       16
handoff_wall_ms             17
)";
  static constexpr const char* kSparse =
      "repl_appends_acked=2 heartbeats_sent=4 degraded_peers_detected=6 "
      "streams_reresolved=8 epoch=10 rebalance_triggers=12 "
      "handoffs_completed=14 handoff_streams_moved=16";
  static constexpr const char* kSparseTable = R"(
counter                  count
------------------------------
repl_appends_acked           2
heartbeats_sent              4
degraded_peers_detected      6
streams_reresolved           8
epoch                       10
rebalance_triggers          12
handoffs_completed          14
handoff_streams_moved       16
)";
};

struct ScrubLedger {
  using Counters = ScrubCounters;
  using Snapshot = ScrubCountersSnapshot;
  static constexpr const char* kPrefix = "scrub";
  static TextTable table(const Snapshot& s, bool nonzero_only) {
    return scrub_table(s, nonzero_only);
  }
  static constexpr const char* kDense =
      "records_scanned=1 scrub_passes=2 corrupt_records_found=3 "
      "ranges_quarantined=4 ranges_repaired=5 ranges_unrepairable=6 "
      "digest_rounds=7 ranges_compared=8 ranges_diverged=9 records_pulled=10 "
      "records_pushed=11 repair_verify_failures=12 fenced_scrubs_rejected=13 "
      "records_rotted=14 stale_records_dropped=15 failover_lost_records=16";
  static constexpr const char* kDenseTable = R"(
counter                 count
-----------------------------
records_scanned             1
scrub_passes                2
corrupt_records_found       3
ranges_quarantined          4
ranges_repaired             5
ranges_unrepairable         6
digest_rounds               7
ranges_compared             8
ranges_diverged             9
records_pulled             10
records_pushed             11
repair_verify_failures     12
fenced_scrubs_rejected     13
records_rotted             14
stale_records_dropped      15
failover_lost_records      16
)";
  static constexpr const char* kSparse =
      "scrub_passes=2 ranges_quarantined=4 ranges_unrepairable=6 "
      "ranges_compared=8 records_pulled=10 repair_verify_failures=12 "
      "records_rotted=14 failover_lost_records=16";
  static constexpr const char* kSparseTable = R"(
counter                 count
-----------------------------
scrub_passes                2
ranges_quarantined          4
ranges_unrepairable         6
ranges_compared             8
records_pulled             10
repair_verify_failures     12
records_rotted             14
failover_lost_records      16
)";
};

struct FastPathLedger {
  using Counters = FastPathCounters;
  using Snapshot = FastPathCountersSnapshot;
  static constexpr const char* kPrefix = "fastpath";
  static TextTable table(const Snapshot& s, bool nonzero_only) {
    return fastpath_table(s, nonzero_only);
  }
  static constexpr const char* kDense = "ring_pushes=1 ring_parks=2";
  static constexpr const char* kDenseTable = R"(
counter      count
------------------
ring_pushes      1
ring_parks       2
)";
  static constexpr const char* kSparse = "ring_parks=2";
  static constexpr const char* kSparseTable = R"(
counter     count
-----------------
ring_parks      2
)";
};

struct ChaosLedger {
  using Counters = ChaosCounters;
  using Snapshot = ChaosCountersSnapshot;
  static constexpr const char* kPrefix = "chaos";
  static TextTable table(const Snapshot& s, bool nonzero_only) {
    return chaos_table(s, nonzero_only);
  }
  static constexpr const char* kDense =
      "partitions_cut=1 partitions_healed=2 frames_dropped=3 frames_delayed=4 "
      "frames_duplicated=5 frames_reordered=6 acks_dropped=7 virtual_micros=8 "
      "episodes_run=9 events_injected=10 probes_fired=11 violations_found=12 "
      "shrink_steps=13 schedules_shrunk=14";
  static constexpr const char* kDenseTable = R"(
counter            count
------------------------
partitions_cut         1
partitions_healed      2
frames_dropped         3
frames_delayed         4
frames_duplicated      5
frames_reordered       6
acks_dropped           7
virtual_micros         8
episodes_run           9
events_injected       10
probes_fired          11
violations_found      12
shrink_steps          13
schedules_shrunk      14
)";
  static constexpr const char* kSparse =
      "partitions_healed=2 frames_delayed=4 frames_reordered=6 "
      "virtual_micros=8 events_injected=10 violations_found=12 "
      "schedules_shrunk=14";
  static constexpr const char* kSparseTable = R"(
counter            count
------------------------
partitions_healed      2
frames_delayed         4
frames_reordered       6
virtual_micros         8
events_injected       10
violations_found      12
schedules_shrunk      14
)";
};

// Golden tables are written after a newline so the raw strings line up.
std::string golden_table(const char* raw) { return raw + 1; }

// Sets counter i to i + 1 (every counter) or, with `odd_only`, only the
// odd-indexed ones, leaving the even-indexed ones at zero.
template <typename Counters>
void fill(Counters& counters, bool odd_only) {
  std::uint64_t i = 0;
  for (const auto& field : Counters::fields()) {
    if (!odd_only || i % 2 == 1) {
      counters.*field.member = i + 1;
    }
    ++i;
  }
}

// "a=1 b=2" -> {{"a", 1}, {"b", 2}}.
std::vector<std::pair<std::string, double>> parse_summary(const char* line) {
  std::vector<std::pair<std::string, double>> out;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    out.emplace_back(token.substr(0, eq), std::stod(token.substr(eq + 1)));
  }
  return out;
}

template <typename Ledger>
class LedgerGoldenTest : public ::testing::Test {};

using Ledgers =
    ::testing::Types<FaultLedger, OverloadLedger, HealthLedger, ResumeLedger,
                     FederationLedger, ScrubLedger, FastPathLedger,
                     ChaosLedger>;
// Suites read LedgerGoldenTest/fault, LedgerGoldenTest/overload, ...
struct LedgerName {
  template <typename Ledger>
  static std::string GetName(int) {
    return Ledger::kPrefix;
  }
};
TYPED_TEST_SUITE(LedgerGoldenTest, Ledgers, LedgerName);

TYPED_TEST(LedgerGoldenTest, DenseRendersMatchGoldens) {
  typename TypeParam::Counters counters;
  fill(counters, /*odd_only=*/false);
  const auto snapshot = counters.snapshot();
  EXPECT_EQ(snapshot.to_string(), TypeParam::kDense);
  EXPECT_EQ(TypeParam::table(snapshot, false).render(),
            golden_table(TypeParam::kDenseTable));
  EXPECT_EQ(TypeParam::table(snapshot, true).render(),
            golden_table(TypeParam::kDenseTable));
}

TYPED_TEST(LedgerGoldenTest, SparseRendersElideZeros) {
  typename TypeParam::Counters counters;
  fill(counters, /*odd_only=*/true);
  const auto snapshot = counters.snapshot();
  EXPECT_EQ(snapshot.to_string(), TypeParam::kSparse);
  EXPECT_EQ(TypeParam::table(snapshot, true).render(),
            golden_table(TypeParam::kSparseTable));
  EXPECT_EQ(TypeParam::table(snapshot, false).row_count(),
            TypeParam::Counters::fields().size());
}

TYPED_TEST(LedgerGoldenTest, ZeroLedgerIsClean) {
  const typename TypeParam::Snapshot zero{};
  EXPECT_EQ(zero.to_string(), "clean");
  EXPECT_EQ(TypeParam::table(zero, true).render(),
            "counter  count\n--------------\n");
  EXPECT_EQ(TypeParam::table(zero, false).row_count(),
            TypeParam::Counters::fields().size());
  EXPECT_EQ(typename TypeParam::Counters().snapshot(), zero);
}

TYPED_TEST(LedgerGoldenTest, EveryCounterOwnsACacheLine) {
  EXPECT_EQ(sizeof(typename TypeParam::Counters),
            TypeParam::Counters::fields().size() * kCacheLineBytes);
}

TYPED_TEST(LedgerGoldenTest, RegistersOneMetricPerCounter) {
  typename TypeParam::Counters counters;
  fill(counters, /*odd_only=*/false);
  obs::MetricsRegistry registry;
  ASSERT_TRUE(registry.register_ledger(TypeParam::kPrefix, counters).is_ok());

  const auto expected = parse_summary(TypeParam::kDense);
  EXPECT_EQ(registry.size(), expected.size());
  const auto snap = registry.snapshot(0);
  for (const auto& [name, value] : expected) {
    const std::string metric = std::string(TypeParam::kPrefix) + "." + name;
    EXPECT_TRUE(snap.has(metric)) << metric;
    EXPECT_DOUBLE_EQ(snap.value(metric), value) << metric;
  }
}

TYPED_TEST(LedgerGoldenTest, NameClashRollsTheBatchBack) {
  typename TypeParam::Counters counters;
  // Clash on the last row, so every earlier row registers and must be
  // rolled back.
  const auto fields = TypeParam::Counters::fields();
  const std::string last =
      std::string(TypeParam::kPrefix) + "." + fields.back().name;
  obs::MetricsRegistry registry;
  std::atomic<std::uint64_t> squatter{0};
  ASSERT_TRUE(registry.register_counter(last, &squatter).is_ok());
  EXPECT_FALSE(registry.register_ledger(TypeParam::kPrefix, counters).is_ok());
  EXPECT_EQ(registry.size(), 1U);
  EXPECT_TRUE(registry.snapshot(0).has(last));
}

}  // namespace
}  // namespace numastream
