// NodeConfig text format: golden bytes, checked values, and round trips.
//
// The golden strings pin serialize() byte for byte for a config with every
// directive moved off its default and for the ConfigGenerator plan of the
// paper's four-stream scenario; they were captured from the hand-written
// serializer that the descriptor table replaced, so any drift in directive
// order, attribute order or number formatting fails here.
#include <gtest/gtest.h>

#include <concepts>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/config_generator.h"
#include "topo/topology.h"

namespace numastream {
namespace {

// ---------------------------------------------------------------- golden

NodeConfig every_directive_config() {
  NodeConfig c;
  c.node_name = "updraft1";
  c.role = NodeRole::kSender;
  c.codec_name = "lz4hc";
  c.chunk_bytes = 4194304;
  c.queue_capacity = 16;
  c.recovery.reconnect = true;
  c.recovery.retry.max_attempts = 7;
  c.recovery.retry.initial_backoff_us = 1500;
  c.recovery.retry.max_backoff_us = 90000;
  c.recovery.retry.multiplier = 1.5;
  c.recovery.retry.jitter = 0.25;
  c.recovery.retry.max_elapsed_us = 400000;
  c.recovery.max_consecutive_corrupt = 4;
  c.recovery.degrade_watermark = 12;
  c.recovery.watchdog_ms = 2500;
  c.overload.budget_bytes = 67108864;
  c.overload.credit_window = 6;
  c.overload.shed_policy = ShedPolicy::kDropNewest;
  c.overload.high_watermark = 14;
  c.overload.low_watermark = 6;
  c.overload.drain_deadline_ms = 3000;
  c.overload.slow_stream_floor = 2;
  c.overload.slow_grace_ms = 500;
  c.overload.default_priority = -1;
  c.overload.priorities = {{.stream_id = 0, .priority = 5},
                           {.stream_id = 3, .priority = -2}};
  c.health.window_ms = 250;
  c.health.ewma_alpha = 0.25;
  c.health.degraded_ratio = 0.8;
  c.health.failed_ratio = 0.4;
  c.health.breach_windows = 2;
  c.health.recover_windows = 4;
  c.health.baseline_windows = 5;
  c.observe.trace = true;
  c.observe.ring_capacity = 2048;
  c.observe.latency = true;
  c.observe.sample_ms = 100;
  c.resume.session = 424242;
  c.resume.ack_interval = 16;
  c.cluster.gateways = 3;
  c.cluster.self = 1;
  c.cluster.vnodes = 32;
  c.cluster.heartbeat_ms = 50;
  c.cluster.miss_windows = 4;
  c.rebalance.window_ms = 200;
  c.rebalance.imbalance_ratio = 1.25;
  c.rebalance.hysteresis_windows = 3;
  c.rebalance.cooldown_windows = 6;
  c.rebalance.max_concurrent = 2;
  c.rebalance.drain_degraded = false;
  c.scrub.cadence_ms = 1000;
  c.scrub.range_records = 128;
  c.scrub.budget_records = 512;
  c.scrub.repair_concurrency = 2;
  c.fastpath.rings = true;
  constexpr int kOs = NumaBinding::kOsChoice;
  c.tasks = {
      TaskGroupConfig{.type = TaskType::kCompress,
                      .count = 8,
                      .bindings = {NumaBinding{.execution_domain = 0, .memory_domain = kOs},
                                   NumaBinding{.execution_domain = 1, .memory_domain = kOs}},
                      .stream_id = 0},
      TaskGroupConfig{.type = TaskType::kSend,
                      .count = 2,
                      .bindings = {NumaBinding{.execution_domain = 1, .memory_domain = 1}},
                      .stream_id = 0},
      TaskGroupConfig{.type = TaskType::kCompress,
                      .count = 4,
                      .bindings = {NumaBinding{.execution_domain = kOs, .memory_domain = 0}}},
  };
  return c;
}

constexpr const char* kEveryDirectiveGolden =
    "node updraft1\n"
    "role sender\n"
    "codec lz4hc\n"
    "chunk_bytes 4194304\n"
    "queue_capacity 16\n"
    "recovery reconnect=on max_attempts=7 backoff_us=1500 max_backoff_us=90000 "
    "multiplier=1.5 jitter=0.25 retry_budget_us=400000 corrupt_limit=4 "
    "degrade_watermark=12 watchdog_ms=2500\n"
    "overload budget_bytes=67108864 credit_window=6 shed=drop_newest "
    "high_watermark=14 low_watermark=6 drain_deadline_ms=3000 slow_floor=2 "
    "slow_grace_ms=500 default_priority=-1\n"
    "priority stream=0 value=5\n"
    "priority stream=3 value=-2\n"
    "health window_ms=250 ewma_alpha=0.25 degraded_ratio=0.8 failed_ratio=0.4 "
    "breach_windows=2 recover_windows=4 baseline_windows=5\n"
    "observe trace=on ring_capacity=2048 latency=on sample_ms=100\n"
    "resume session=424242 ack_interval=16\n"
    "cluster gateways=3 self=1 vnodes=32 heartbeat_ms=50 miss_windows=4\n"
    "rebalance window_ms=200 imbalance_ratio=1.25 hysteresis_windows=3 "
    "cooldown_windows=6 max_concurrent=2 drain_degraded=off\n"
    "scrub cadence_ms=1000 range_records=128 budget_records=512 "
    "repair_concurrency=2\n"
    "fastpath rings=on\n"
    "task compress count=8 exec=0,1 mem=os stream=0\n"
    "task send count=2 exec=1 mem=1 stream=0\n"
    "task compress count=4 exec=os mem=0\n";

TEST(ConfigGoldenTest, EveryDirectiveAtNonDefaultValues) {
  const NodeConfig config = every_directive_config();
  ASSERT_TRUE(config.validate(lynxdtn_topology()).is_ok());
  EXPECT_EQ(config.serialize(), kEveryDirectiveGolden);

  auto parsed = NodeConfig::parse(kEveryDirectiveGolden);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().serialize(), kEveryDirectiveGolden);
}

std::string plan_sender(const char* node, const char* compress_exec,
                        const char* send_domain, int stream) {
  const std::string id = std::to_string(stream);
  return std::string("node ") + node +
         "\nrole sender\ncodec lz4\nchunk_bytes 11059200\nqueue_capacity 8\n"
         "task compress count=32 exec=" + compress_exec + " mem=0 stream=" + id +
         "\ntask send count=4 exec=" + send_domain + " mem=" + send_domain +
         " stream=" + id + "\n";
}

TEST(ConfigGoldenTest, PaperFourStreamPlan) {
  ConfigGenerator generator(
      lynxdtn_topology(),
      {updraft_topology("updraft1"), updraft_topology("updraft2"),
       polaris_topology("polaris1"), polaris_topology("polaris2")});
  WorkloadSpec spec;
  spec.num_streams = 4;
  auto plan = generator.generate(spec, PlacementStrategy::kNumaAware);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();

  std::string receiver =
      "node lynxdtn\nrole receiver\ncodec lz4\nchunk_bytes 11059200\n"
      "queue_capacity 8\n";
  for (int stream = 0; stream < 4; ++stream) {
    const std::string id = std::to_string(stream);
    receiver += "task receive count=4 exec=1 mem=1 stream=" + id + "\n";
    receiver += "task decompress count=4 exec=0 mem=0 stream=" + id + "\n";
  }
  EXPECT_EQ(plan.value().receiver.serialize(), receiver);

  ASSERT_EQ(plan.value().senders.size(), 4U);
  EXPECT_EQ(plan.value().senders[0].serialize(), plan_sender("updraft1", "0,1", "1", 0));
  EXPECT_EQ(plan.value().senders[1].serialize(), plan_sender("updraft2", "0,1", "1", 1));
  EXPECT_EQ(plan.value().senders[2].serialize(), plan_sender("polaris1", "0", "0", 2));
  EXPECT_EQ(plan.value().senders[3].serialize(), plan_sender("polaris2", "0", "0", 3));
}

// ---------------------------------------------------------------- values

TEST(ConfigValueParseTest, MalformedValuesAreParseErrors) {
  // Each line was accepted before values were parsed whole into their
  // field's own type: wrapped, truncated, or with the tail dropped.
  const struct {
    const char* line;
    const char* needle;  // what the error must name
  } kCases[] = {
      {"chunk_bytes -1", "chunk_bytes"},                  // wrapped to 2^64-1
      {"overload budget_bytes=-5", "budget_bytes"},       // wrapped to 2^64-5
      {"cluster vnodes=-1", "vnodes"},                    // wrapped to 2^32-1
      {"queue_capacity 12abc", "queue_capacity"},         // read as 12
      {"task compress count=1 stream=7x", "stream"},      // read as 7
      {"task compress count=3x", "count"},                // read as 3
      {"cluster gateways=4294967298", "gateways"},        // truncated to 2
      {"scrub range_records=4294967296", "range_records"},  // truncated to 0
      {"priority stream=4294967296 value=1", "stream"},   // truncated to 0
      {"health ewma_alpha=nan", "ewma_alpha"},            // NaN != NaN
      {"rebalance imbalance_ratio=inf", "imbalance_ratio"},
      {"codec lz4 junk", "codec"},                        // tail dropped
      {"chunk_bytes 64 128", "chunk_bytes"},              // tail dropped
      {"node a b", "node"},                               // tail dropped
  };
  for (const auto& test_case : kCases) {
    // The line under test comes first, so its error is line 1's; the rest
    // is a valid sender (named by the line itself when it is `node`).
    const std::string line = test_case.line;
    const std::string text = line + (line.starts_with("node ") ? "\n" : "\nnode x\n") +
                             "role sender\ntask compress count=1\ntask send count=1\n";
    const auto parsed = NodeConfig::parse(text);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << test_case.line;
    if (parsed.ok()) {
      continue;
    }
    const std::string message = parsed.status().message();
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(message.rfind("config line 1: ", 0), 0U) << message;
    EXPECT_NE(message.find(test_case.needle), std::string::npos) << message;
  }
}

// ---------------------------------------------------------------- round trip

// Fills fields with seeded random values over each field type's full range.
class Randomizer {
 public:
  explicit Randomizer(std::uint64_t seed) : rng_(seed) {}

  template <typename... T>
  void fill(T&... fields) {
    (set(fields), ...);
  }

  void set(bool& value) { value = (rng_() & 1U) != 0; }

  template <std::integral T>
  void set(T& value) {
    value = std::uniform_int_distribution<T>(std::numeric_limits<T>::min(),
                                             std::numeric_limits<T>::max())(rng_);
  }

  // Mostly unit-interval fractions (every ratio knob lives there), sometimes
  // large magnitudes; either way a full 17-digit mantissa.
  void set(double& value) {
    const double unit = std::uniform_real_distribution<double>(0, 1)(rng_);
    value = (rng_() % 4 == 0) ? (unit - 0.5) * 1e12 : unit;
  }

  void set(ShedPolicy& value) { value = static_cast<ShedPolicy>(rng_() % 4); }
  void set(NodeRole& value) { value = (rng_() & 1U) != 0 ? NodeRole::kSender : NodeRole::kReceiver; }
  void set(TaskType& value) { value = static_cast<TaskType>(rng_() % 4); }

  void set(std::string& value) {
    static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789_.-";
    value.assign(1 + rng_() % 12, 'x');
    for (char& c : value) {
      c = kAlphabet[rng_() % (sizeof(kAlphabet) - 1)];
    }
  }

  int domain() { return rng_() % 3 == 0 ? NumaBinding::kOsChoice : static_cast<int>(rng_() % 4); }
  std::size_t below(std::size_t n) { return rng_() % n; }

 private:
  std::mt19937_64 rng_;
};

NodeConfig random_config(Randomizer& random) {
  NodeConfig c;
  random.fill(c.node_name, c.role, c.codec_name, c.chunk_bytes, c.queue_capacity);
  random.fill(c.recovery.reconnect, c.recovery.retry.max_attempts,
              c.recovery.retry.initial_backoff_us, c.recovery.retry.max_backoff_us,
              c.recovery.retry.multiplier, c.recovery.retry.jitter,
              c.recovery.retry.max_elapsed_us, c.recovery.max_consecutive_corrupt,
              c.recovery.degrade_watermark, c.recovery.watchdog_ms);
  random.fill(c.overload.budget_bytes, c.overload.credit_window, c.overload.shed_policy,
              c.overload.high_watermark, c.overload.low_watermark,
              c.overload.drain_deadline_ms, c.overload.slow_stream_floor,
              c.overload.slow_grace_ms, c.overload.default_priority);
  c.overload.priorities.resize(random.below(4));
  for (StreamPriority& entry : c.overload.priorities) {
    random.fill(entry.stream_id, entry.priority);
  }
  random.fill(c.health.window_ms, c.health.ewma_alpha, c.health.degraded_ratio,
              c.health.failed_ratio, c.health.breach_windows, c.health.recover_windows,
              c.health.baseline_windows);
  random.fill(c.observe.trace, c.observe.ring_capacity, c.observe.latency,
              c.observe.sample_ms);
  random.fill(c.resume.session, c.resume.ack_interval);
  random.fill(c.cluster.gateways, c.cluster.self, c.cluster.vnodes,
              c.cluster.heartbeat_ms, c.cluster.miss_windows);
  random.fill(c.rebalance.window_ms, c.rebalance.imbalance_ratio,
              c.rebalance.hysteresis_windows, c.rebalance.cooldown_windows,
              c.rebalance.max_concurrent, c.rebalance.drain_degraded);
  random.fill(c.scrub.cadence_ms, c.scrub.range_records, c.scrub.budget_records,
              c.scrub.repair_concurrency);
  random.fill(c.fastpath.rings);
  c.tasks.resize(random.below(4));
  for (TaskGroupConfig& group : c.tasks) {
    random.fill(group.type, group.count, group.stream_id);
    if (group.stream_id < 0) {
      group.stream_id = -1;  // every negative id means "all streams"
    }
    // The text form carries one memory domain per group.
    const int memory = random.domain();
    group.bindings.resize(1 + random.below(3));
    for (NumaBinding& binding : group.bindings) {
      binding = NumaBinding{.execution_domain = random.domain(), .memory_domain = memory};
    }
  }
  return c;
}

TEST(ConfigRoundTripPropertyTest, RandomBlocksSurviveSerializeParse) {
  Randomizer random(0x5eed'c0f1'9ULL);
  for (int trial = 0; trial < 200; ++trial) {
    const NodeConfig original = random_config(random);
    const std::string text = original.serialize();
    SCOPED_TRACE("trial " + std::to_string(trial) + ":\n" + text);
    auto parsed = NodeConfig::parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    const NodeConfig& back = parsed.value();
    EXPECT_EQ(back.node_name, original.node_name);
    EXPECT_EQ(back.role, original.role);
    EXPECT_EQ(back.codec_name, original.codec_name);
    EXPECT_EQ(back.chunk_bytes, original.chunk_bytes);
    EXPECT_EQ(back.queue_capacity, original.queue_capacity);
    EXPECT_TRUE(back.recovery == original.recovery);
    EXPECT_TRUE(back.overload == original.overload);
    EXPECT_TRUE(back.health == original.health);
    EXPECT_TRUE(back.observe == original.observe);
    EXPECT_TRUE(back.resume == original.resume);
    EXPECT_TRUE(back.cluster == original.cluster);
    EXPECT_TRUE(back.rebalance == original.rebalance);
    EXPECT_TRUE(back.scrub == original.scrub);
    EXPECT_TRUE(back.fastpath == original.fastpath);
    ASSERT_EQ(back.tasks.size(), original.tasks.size());
    for (std::size_t i = 0; i < back.tasks.size(); ++i) {
      EXPECT_EQ(back.tasks[i].type, original.tasks[i].type);
      EXPECT_EQ(back.tasks[i].count, original.tasks[i].count);
      EXPECT_EQ(back.tasks[i].stream_id, original.tasks[i].stream_id);
      ASSERT_EQ(back.tasks[i].bindings.size(), original.tasks[i].bindings.size());
      for (std::size_t j = 0; j < back.tasks[i].bindings.size(); ++j) {
        EXPECT_EQ(back.tasks[i].bindings[j].execution_domain,
                  original.tasks[i].bindings[j].execution_domain);
        EXPECT_EQ(back.tasks[i].bindings[j].memory_domain,
                  original.tasks[i].bindings[j].memory_domain);
      }
    }
    EXPECT_EQ(back.serialize(), text);
  }
}

TEST(ConfigRoundTripPropertyTest, DoublesUseShortestRoundTripText) {
  auto parsed = NodeConfig::parse("node x\nhealth ewma_alpha=0.123456789\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().health.ewma_alpha, 0.123456789);
  EXPECT_NE(parsed.value().serialize().find(" ewma_alpha=0.123456789 "),
            std::string::npos)
      << parsed.value().serialize();
}

}  // namespace
}  // namespace numastream
