// Fast-path subsystem tests (DESIGN.md §15): the fastpath config directive,
// the StageChannel dispatch wrapper, and the whole ring pipeline over real
// sockets.
#include <gtest/gtest.h>

#include <thread>

#include "core/pipeline.h"
#include "core/stage_channel.h"
#include "metrics/fastpath_counters.h"
#include "msg/tcp.h"
#include "topo/discover.h"

namespace numastream {
namespace {

// --------------------------------------------------------------- config

TEST(FastPathConfigTest, DefaultIsOffAndSerializesToNothing) {
  NodeConfig config;
  config.node_name = "n";
  config.role = NodeRole::kSender;
  config.tasks = {TaskGroupConfig{.type = TaskType::kSend, .count = 1}};
  EXPECT_FALSE(config.fastpath.enabled());
  EXPECT_EQ(config.serialize().find("fastpath"), std::string::npos);
}

TEST(FastPathConfigTest, RoundTripsThroughText) {
  NodeConfig config;
  config.node_name = "n";
  config.role = NodeRole::kSender;
  config.tasks = {TaskGroupConfig{.type = TaskType::kSend, .count = 1}};
  config.fastpath.rings = true;
  const std::string text = config.serialize();
  EXPECT_NE(text.find("fastpath rings=on\n"), std::string::npos);
  auto parsed = NodeConfig::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().fastpath, config.fastpath);
}

TEST(FastPathConfigTest, DuplicateDirectiveRejected) {
  const auto status = NodeConfig::parse(
      "node n\nrole sender\ntask send count=1\n"
      "fastpath rings=on\nfastpath rings=off\n");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), StatusCode::kInvalidArgument);
}

TEST(FastPathConfigTest, PoolBuffersAttributeRejected) {
  // The chunk pool is gone; its attribute is a parse error naming it, as
  // the removed `chaos` directive is.
  const auto result = NodeConfig::parse(
      "node n\nrole sender\ntask send count=1\nfastpath pool_buffers=4\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("pool_buffers"), std::string::npos)
      << result.status().message();
}

TEST(FastPathConfigTest, RingsRejectEvictingShedPolicies) {
  // A lock-free ring cannot scan-and-remove interior elements, so rings=on
  // with drop_oldest/priority_evict must fail validation loudly. (Parsing
  // succeeds — cross-policy checks live in validate(), which the pipeline
  // runs before any thread starts.)
  auto topo = discover_topology();
  ASSERT_TRUE(topo.ok());
  for (const char* shed : {"drop_oldest", "priority_evict"}) {
    const auto result = NodeConfig::parse(
        "node n\nrole sender\ntask send count=1\n"
        "overload budget_bytes=0 credit_window=0 shed=" +
        std::string(shed) +
        " high_watermark=4 low_watermark=2\n"
        "fastpath rings=on\n");
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    const Status status = result.value().validate(topo.value());
    ASSERT_FALSE(status.is_ok()) << shed;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.to_string().find("fastpath rings=on is incompatible"),
              std::string::npos);
  }
  // block and drop_newest stay compatible.
  const auto compatible = NodeConfig::parse(
      "node n\nrole sender\ntask send count=1\n"
      "overload budget_bytes=0 credit_window=0 shed=drop_newest "
      "high_watermark=4 low_watermark=2\n"
      "fastpath rings=on\n");
  ASSERT_TRUE(compatible.ok());
  EXPECT_TRUE(compatible.value().validate(topo.value()).is_ok());
}

// -------------------------------------------------------- stage channel

TEST(StageChannelTest, MutexModeRoundTrip) {
  StageChannel<int> channel(4, 2, /*rings=*/false);
  EXPECT_FALSE(channel.lock_free());
  ASSERT_TRUE(channel.push(1).is_ok());
  ASSERT_TRUE(channel.push(2).is_ok());
  EXPECT_EQ(channel.pop(0).value(), 1);
  EXPECT_EQ(channel.pop(1).value(), 2);  // any consumer index works
  channel.close();
  EXPECT_FALSE(channel.pop(0).has_value());
}

TEST(StageChannelTest, RingModeRoundTripAndCounters) {
  FastPathCounters counters;
  {
    StageChannel<int> channel(8, 2, /*rings=*/true, &counters);
    EXPECT_TRUE(channel.lock_free());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(channel.push(i).is_ok());
    }
    int drained = 0;
    while (channel.try_pop_any().has_value()) {
      ++drained;
    }
    EXPECT_EQ(drained, 6);
    channel.close();
  }  // destructor flushes parks
  const auto snap = counters.snapshot();
  EXPECT_EQ(snap.ring_pushes, 6U);
}

TEST(StageChannelTest, RingModeCancelViaSignal) {
  FastPathCounters counters;
  CancelSignal cancel;
  StageChannel<int> channel(4, 1, /*rings=*/true, &counters);
  channel.bind_cancel(&cancel);
  std::thread consumer([&] {
    EXPECT_FALSE(channel.pop(0, cancel.flag()).has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cancel.raise();
  consumer.join();
}

// ------------------------------------------------------ ring pipeline

TEST(FastpathPipelineTest, FullPipelineWithRingsAndPool) {
  auto topo_result = discover_topology();
  ASSERT_TRUE(topo_result.ok());
  const MachineTopology topo = std::move(topo_result).value();
  TomoConfig tomo;
  tomo.rows = 64;
  tomo.cols = 100;
  tomo.num_spheres = 4;

  NodeConfig sender_config;
  sender_config.node_name = "fp-sender";
  sender_config.role = NodeRole::kSender;
  sender_config.chunk_bytes = tomo.chunk_bytes();
  sender_config.tasks = {
      TaskGroupConfig{.type = TaskType::kCompress, .count = 3},
      TaskGroupConfig{.type = TaskType::kSend, .count = 2},
  };
  sender_config.fastpath.rings = true;
  NodeConfig receiver_config;
  receiver_config.node_name = "fp-receiver";
  receiver_config.role = NodeRole::kReceiver;
  receiver_config.chunk_bytes = tomo.chunk_bytes();
  receiver_config.tasks = {
      TaskGroupConfig{.type = TaskType::kReceive, .count = 2},
      TaskGroupConfig{.type = TaskType::kDecompress, .count = 2},
  };
  receiver_config.fastpath.rings = true;

  auto listener = TcpListener::bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value()->port();

  const std::uint64_t kChunks = 25;
  TomoChunkSource source(tomo, 1, kChunks);
  CountingSink sink;

  SenderStats sender_stats;
  std::thread sender_thread([&] {
    StreamSender sender(topo, sender_config);
    auto stats =
        sender.run(source, [&] { return tcp_connect("127.0.0.1", port); });
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    sender_stats = stats.value();
  });

  CountingSink receiver_sink;
  StreamReceiver receiver(topo, receiver_config);
  auto stats = receiver.run(*listener.value(), receiver_sink);
  sender_thread.join();
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();

  EXPECT_EQ(receiver_sink.chunks(), kChunks);
  EXPECT_EQ(stats.value().raw_bytes, kChunks * tomo.chunk_bytes());
  EXPECT_EQ(stats.value().corrupt_frames, 0U);
  EXPECT_EQ(stats.value().wire_bytes, sender_stats.wire_bytes);

  // The fastpath actually ran: every chunk crossed a ring on both ends.
  EXPECT_EQ(sender_stats.fastpath.ring_pushes, kChunks);
  EXPECT_EQ(stats.value().fastpath.ring_pushes, kChunks);
}

TEST(FastpathPipelineTest, MutexModeStatsStayZero) {
  // With the directive off (the default) the pipeline must not report any
  // fastpath activity — the counters are the proof the default path is
  // byte-for-byte the pre-fastpath runtime.
  auto topo_result = discover_topology();
  ASSERT_TRUE(topo_result.ok());
  const MachineTopology topo = std::move(topo_result).value();
  TomoConfig tomo;
  tomo.rows = 64;
  tomo.cols = 100;
  tomo.num_spheres = 4;

  NodeConfig sender_config;
  sender_config.node_name = "fp-off-sender";
  sender_config.role = NodeRole::kSender;
  sender_config.chunk_bytes = tomo.chunk_bytes();
  sender_config.tasks = {
      TaskGroupConfig{.type = TaskType::kCompress, .count = 1},
      TaskGroupConfig{.type = TaskType::kSend, .count = 1},
  };
  NodeConfig receiver_config;
  receiver_config.node_name = "fp-off-receiver";
  receiver_config.role = NodeRole::kReceiver;
  receiver_config.chunk_bytes = tomo.chunk_bytes();
  receiver_config.tasks = {
      TaskGroupConfig{.type = TaskType::kReceive, .count = 1},
      TaskGroupConfig{.type = TaskType::kDecompress, .count = 1},
  };

  auto listener = TcpListener::bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value()->port();

  TomoChunkSource source(tomo, 1, 5);
  SenderStats sender_stats;
  std::thread sender_thread([&] {
    StreamSender sender(topo, sender_config);
    auto stats =
        sender.run(source, [&] { return tcp_connect("127.0.0.1", port); });
    ASSERT_TRUE(stats.ok());
    sender_stats = stats.value();
  });
  CountingSink sink;
  StreamReceiver receiver(topo, receiver_config);
  auto stats = receiver.run(*listener.value(), sink);
  sender_thread.join();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(sender_stats.fastpath.ring_pushes, 0U);
  EXPECT_EQ(stats.value().fastpath.ring_pushes, 0U);
}

}  // namespace
}  // namespace numastream
