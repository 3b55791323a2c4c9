// PaddedCounter: a cache-line-isolated atomic counter.
//
// The counter ledgers (metrics/ledger.h) are blocks of a dozen-plus
// adjacent counters. Packed as plain std::atomic<uint64_t> members that is
// 8 counters per 64-byte line, and different pipeline threads increment
// different members, so physically independent counters ping-pong the same
// line between cores: classic false sharing, measured at several-x on the
// counter-increment micro in bench/micro_queue (BM_CounterIncrement vs
// BM_PaddedCounterIncrement).
//
// PaddedCounter IS-A std::atomic<uint64_t> (fetch_add / load / store call
// sites unchanged) whose alignment pads it to a full cache line, so each
// counter owns its line. The ledger schema generates every ledger member as
// one, so all eight ledgers share this single storage type.
#pragma once

#include <atomic>
#include <cstdint>

namespace numastream {

inline constexpr std::size_t kCacheLineBytes = 64;

struct alignas(kCacheLineBytes) PaddedCounter : std::atomic<std::uint64_t> {
  PaddedCounter() noexcept : std::atomic<std::uint64_t>(0) {}
  explicit PaddedCounter(std::uint64_t initial) noexcept
      : std::atomic<std::uint64_t>(initial) {}
  // The implicitly-deleted copy assignment would otherwise hide the base's
  // `operator=(uint64_t)` that call sites like `counters.x = 2` rely on.
  using std::atomic<std::uint64_t>::operator=;
};

static_assert(alignof(PaddedCounter) == kCacheLineBytes);
static_assert(sizeof(PaddedCounter) == kCacheLineBytes);

}  // namespace numastream
