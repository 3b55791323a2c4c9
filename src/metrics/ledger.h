// Ledger schema: one declarative list per counter family generates the
// whole ledger.
//
// Every counter family (fault, overload, health, resume, federation, scrub,
// fastpath, chaos) names each of its counters exactly once, in an X-macro
// of (name, doc) rows in its own header (one row per line, continued with
// backslashes):
//
//   #define NS_FAULT_COUNTERS(X)
//     X(reconnects, "sender re-dialed a dead connection")
//     X(dial_retries, "backoff retries inside dials")
//
// and expands that list into its two structs:
//
//   struct FaultCountersSnapshot {
//     NS_LEDGER_SNAPSHOT(FaultCountersSnapshot, NS_FAULT_COUNTERS)
//   };
//   class FaultCounters {
//    public:
//     NS_LEDGER_COUNTERS(FaultCounters, FaultCountersSnapshot,
//                        NS_FAULT_COUNTERS)
//   };
//
// The snapshot gets one plain uint64 field per row, a defaulted ==, and
// to_string(); the counter class gets one PaddedCounter per row and
// snapshot(). Both get a constexpr fields() table of (name, member) in list
// order, which drives every generic consumer: ledger_to_string(),
// ledger_table() and MetricsRegistry::register_ledger(). List order is the
// render order, so a family's rows read in incident order.
//
// Counters are statistics, not synchronization: every access is relaxed.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "metrics/padded_counter.h"
#include "metrics/table.h"

namespace numastream {

/// One row of a ledger's fields() table.
template <typename Owner, typename Value>
struct LedgerField {
  const char* name;
  Value Owner::*member;
};

/// "name=value" for every nonzero counter, space-separated, in list order;
/// "clean" when all are zero.
template <typename Snapshot>
std::string ledger_to_string(const Snapshot& snapshot) {
  std::string out;
  for (const auto& field : Snapshot::fields()) {
    const std::uint64_t value = snapshot.*field.member;
    if (value == 0) {
      continue;
    }
    if (!out.empty()) {
      out += " ";
    }
    out += field.name;
    out += "=";
    out += std::to_string(value);
  }
  return out.empty() ? "clean" : out;
}

/// Two-column ("counter", "count") table, one row per counter in list
/// order. With `nonzero_only`, clean counters are elided so quiet runs print
/// short.
template <typename Snapshot>
TextTable ledger_table(const Snapshot& snapshot, bool nonzero_only) {
  TextTable table({"counter", "count"});
  for (const auto& field : Snapshot::fields()) {
    const std::uint64_t value = snapshot.*field.member;
    if (nonzero_only && value == 0) {
      continue;
    }
    table.add_row({field.name, std::to_string(value)});
  }
  return table;
}

/// Raises `counter` to at least `value`: a monotone max (peaks, epochs),
/// not a sum.
inline void raise_to_max(PaddedCounter& counter, std::uint64_t value) {
  std::uint64_t seen = counter.load(std::memory_order_relaxed);
  while (seen < value && !counter.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

/// Adds `amount` to one counter of an optional ledger. Owners built without
/// a ledger pass null, which (like a zero amount) is a no-op.
template <typename Counters>
void bump(PaddedCounter Counters::*field, Counters* counters,
          std::uint64_t amount = 1) {
  if (counters != nullptr && amount != 0) {
    (counters->*field).fetch_add(amount, std::memory_order_relaxed);
  }
}

// Row expanders for a family's X-macro list; `doc` documents the row only.
#define NS_LEDGER_VALUE_(name, doc) std::uint64_t name = 0;
#define NS_LEDGER_COUNTER_(name, doc) PaddedCounter name;
#define NS_LEDGER_LOAD_(name, doc) s.name = name.load(std::memory_order_relaxed);
#define NS_LEDGER_ROW_(name, doc) LedgerField<Self, Value>{#name, &Self::name},

#define NS_LEDGER_FIELDS_(Type, ValueType, LIST) \
  static constexpr auto fields() {               \
    using Self = Type;                           \
    using Value = ValueType;                     \
    return std::array{LIST(NS_LEDGER_ROW_)};     \
  }

/// Body of a family's plain-value snapshot: comparable and printable.
#define NS_LEDGER_SNAPSHOT(Type, LIST)                                    \
  LIST(NS_LEDGER_VALUE_)                                                  \
  friend bool operator==(const Type&, const Type&) = default;             \
  NS_LEDGER_FIELDS_(Type, std::uint64_t, LIST)                            \
  /** One-line summary of the nonzero counters ("clean" when all zero). */ \
  [[nodiscard]] std::string to_string() const { return ledger_to_string(*this); }

/// Body of a family's thread-safe counter set, one cache line per counter.
#define NS_LEDGER_COUNTERS(Type, SnapshotType, LIST) \
  LIST(NS_LEDGER_COUNTER_)                           \
  NS_LEDGER_FIELDS_(Type, PaddedCounter, LIST)       \
  [[nodiscard]] SnapshotType snapshot() const {      \
    SnapshotType s;                                  \
    LIST(NS_LEDGER_LOAD_)                            \
    return s;                                        \
  }

}  // namespace numastream
