// Real-path benchmark harness: streams pre-generated tomography chunks
// through core/pipeline's StreamSender and StreamReceiver over TCP loopback,
// in one process, and prints the raw measurements as one JSON object on
// stdout. e2ebench/run.py turns them into metrics (e2ebench/stats.py).
//
//   e2e_harness --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0: repeated cold set-ups, then one streaming phase.
// --trace 1: the same streaming phase untraced, then traced, then single-
//            thread timings of the codec, msg and queue layers.
//
// Tracing lives entirely in this file: it wraps the public seams the
// pipeline already exposes (ChunkSource, ChunkSink, the ByteStream returned
// by ConnectFn and the streams a Listener accepts) and locates message
// boundaries with decode_message_header. Nothing inside the program is
// instrumented, and the untraced phase runs the default NodeConfig with
// only codec, chunk size and task counts set.
#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "codec/codec.h"
#include "codec/frame.h"
#include "codec/lz4.h"
#include "codec/xxhash.h"
#include "core/pipeline.h"
#include "core/stage_channel.h"
#include "msg/message.h"
#include "msg/socket.h"
#include "msg/tcp.h"
#include "topo/discover.h"

using namespace numastream;

namespace {

using Clock = std::chrono::steady_clock;

/// The benchmark's workloads; e2ebench/NOTES.md says why each exists.
struct Workload {
  const char* name;
  const char* codec;
  std::uint32_t rows;  ///< generated projection geometry (before binning)
  std::uint32_t cols;
  bool bin2x2;         ///< average 2x2 pixel blocks after generation
  std::size_t pool;    ///< distinct pre-generated chunks, cycled
  double rate_hz;      ///< open-loop release rate; 0 = closed loop
  std::uint64_t window;  ///< closed loop: chunks in flight (clients)

  [[nodiscard]] std::size_t chunk_bytes() const {
    const std::size_t pixels = static_cast<std::size_t>(rows) * cols;
    return (bin2x2 ? pixels / 4 : pixels) * 2;
  }
};

constexpr Workload kWorkloads[] = {
    {"tomo_full_lz4", "lz4", 2048, 2700, false, 8, 0, 2},
    {"binned_lz4_paced", "lz4", 2048, 2700, true, 16, 15, 0},
};

/// Cold set-ups timed per --trace 0 run; run.py reports their median.
constexpr int kSetupReps = 101;
/// Open-loop schedules start this long after the pipeline is launched, so
/// the first due time does not race the generator's first copy.
constexpr auto kScheduleLead = std::chrono::milliseconds(50);
/// Wall-time budget of each single-thread layer timing (--trace 1).
constexpr double kMicroSeconds = 0.4;

const Clock::time_point g_base = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - g_base)
      .count();
}

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_base).count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    return CPU_COUNT(&set);
  }
  return static_cast<int>(std::thread::hardware_concurrency());
}

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "e2e_harness: %s\n", what.c_str());
  std::exit(1);
}

// ---------------------------------------------------------------- inputs ---

Bytes bin_2x2(const Bytes& full, std::uint32_t rows, std::uint32_t cols) {
  const auto px = [&](std::size_t r, std::size_t c) {
    const std::size_t i = (r * cols + c) * 2;
    return static_cast<std::uint32_t>(full[i]) |
           (static_cast<std::uint32_t>(full[i + 1]) << 8);
  };
  Bytes out(static_cast<std::size_t>(rows / 2) * (cols / 2) * 2);
  std::size_t o = 0;
  for (std::size_t r = 0; r + 1 < rows; r += 2) {
    for (std::size_t c = 0; c + 1 < cols; c += 2) {
      const std::uint32_t v =
          (px(r, c) + px(r, c + 1) + px(r + 1, c) + px(r + 1, c + 1) + 2) / 4;
      out[o++] = static_cast<std::uint8_t>(v & 0xFF);
      out[o++] = static_cast<std::uint8_t>(v >> 8);
    }
  }
  return out;
}

/// Renders the workload's chunk pool from `seed` on up to 4 threads. Each
/// pool entry comes from its own phantom (TomoConfig.seed derived from
/// `seed` and the entry), so a run averages over several phantoms and one
/// seed's sphere layout cannot decide how compressible the whole run is.
std::vector<Bytes> make_pool(const Workload& w, std::uint64_t seed) {
  std::vector<Bytes> pool(w.pool);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  const int workers = std::max(1, std::min(online_cpus(), 4));
  for (int t = 0; t < workers; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < pool.size(); i = next++) {
        TomoConfig config;
        config.rows = w.rows;
        config.cols = w.cols;
        config.seed = seed * pool.size() + i;
        Bytes projection = TomoGenerator(config).projection(i);
        pool[i] = w.bin2x2 ? bin_2x2(projection, w.rows, w.cols) : std::move(projection);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  return pool;
}

// ---------------------------------------------------------------- ledger ---

/// Per-chunk timestamps in ns since g_base; -1 = never happened.
struct ChunkTimes {
  std::int64_t due = -1;          ///< open loop: schedule; closed loop: slot opened
  std::int64_t request = -1;      ///< closed loop: next() called
  std::int64_t release = -1;      ///< generator released the chunk
  std::int64_t handout = -1;      ///< ChunkSource::next returned it
  std::int64_t write_start = -1;  ///< traced: write of its message began
  std::int64_t write_end = -1;    ///< traced: message fully written
  std::int64_t read_end = -1;     ///< traced: last byte of its message read
  std::int64_t deliver = -1;      ///< ChunkSink::deliver called
  bool match = false;             ///< delivered bytes equal the input
  int deliveries = 0;
};

class Ledger {
 public:
  template <typename F>
  void update(std::uint64_t sequence, F&& f) {
    std::lock_guard<std::mutex> lock(mu_);
    if (sequence >= rows_.size()) {
      rows_.resize(sequence + 1);
    }
    f(rows_[sequence]);
  }

  std::vector<ChunkTimes> rows() {
    std::lock_guard<std::mutex> lock(mu_);
    return rows_;
  }

 private:
  std::mutex mu_;
  std::vector<ChunkTimes> rows_;
};

/// Closed-loop admission for `window` clients: each client issues its next
/// chunk when its previous one is delivered, so chunk k is due at the
/// (k - window + 1)-th delivery; the first `window` chunks are due at start.
class ClientWindow {
 public:
  explicit ClientWindow(std::uint64_t window) : window_(window) {}

  void delivered(std::int64_t t) {
    std::lock_guard<std::mutex> lock(mu_);
    delivered_at_.push_back(t);
    cv_.notify_all();
  }

  /// Blocks until chunk `k` is due; returns its due time, or nullopt when
  /// `stop` passes first.
  std::optional<std::int64_t> admit(std::uint64_t k, std::int64_t start_ns,
                                    Clock::time_point stop) {
    if (k < window_) {
      return start_ns;
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_until(lock, stop,
                        [&] { return delivered_at_.size() > k - window_; })) {
      return std::nullopt;
    }
    return delivered_at_[k - window_];
  }

 private:
  const std::uint64_t window_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::int64_t> delivered_at_;
};

/// Closed loop: hands out copies of the pool, cycling, as the client window
/// admits them, until `stop`.
class PoolSource final : public ChunkSource {
 public:
  PoolSource(const std::vector<Bytes>& pool, Ledger& ledger, ClientWindow& window,
             Clock::time_point start, Clock::time_point stop)
      : pool_(pool), ledger_(ledger), window_(window), start_ns_(to_ns(start)),
        stop_(stop) {}

  std::optional<Chunk> next() override {
    const std::int64_t requested = now_ns();
    const std::uint64_t k = issued_;  // one compressor: next() is not concurrent
    const auto due = window_.admit(k, start_ns_, stop_);
    if (!due || Clock::now() >= stop_) {
      return std::nullopt;
    }
    ++issued_;
    Chunk chunk;
    chunk.sequence = k;
    chunk.payload = pool_[k % pool_.size()];
    const std::int64_t released = now_ns();
    ledger_.update(k, [&](ChunkTimes& t) {
      t.due = *due;
      t.request = requested;
      t.release = released;
      t.handout = released;
    });
    return chunk;
  }

 private:
  const std::vector<Bytes>& pool_;
  Ledger& ledger_;
  ClientWindow& window_;
  std::int64_t start_ns_;
  Clock::time_point stop_;
  std::uint64_t issued_ = 0;
};

/// Open loop: a generator thread releases one pool copy every 1/rate
/// seconds into an unbounded queue, whether or not the pipeline keeps up;
/// next() takes from that queue. A chunk's latency therefore counts from its
/// due time, including any wait a stalled pipeline imposes on it.
class PacedSource final : public ChunkSource {
 public:
  PacedSource(const std::vector<Bytes>& pool, Ledger& ledger, double rate_hz,
              Clock::time_point first_due, Clock::time_point stop)
      : pool_(pool), ledger_(ledger) {
    generator_ = std::thread([this, rate_hz, first_due, stop] {
      generate(rate_hz, first_due, stop);
    });
  }

  ~PacedSource() override { generator_.join(); }

  PacedSource(const PacedSource&) = delete;
  PacedSource& operator=(const PacedSource&) = delete;

  std::optional<Chunk> next() override {
    std::unique_lock<std::mutex> lock(mu_);
    ready_cv_.wait(lock, [&] { return !ready_.empty() || done_; });
    if (ready_.empty()) {
      return std::nullopt;
    }
    Chunk chunk = std::move(ready_.front());
    ready_.pop_front();
    lock.unlock();
    const std::int64_t handed = now_ns();
    ledger_.update(chunk.sequence, [&](ChunkTimes& t) { t.handout = handed; });
    return chunk;
  }

 private:
  void generate(double rate_hz, Clock::time_point first_due, Clock::time_point stop) {
    for (std::uint64_t k = 0;; ++k) {
      const auto due = first_due + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(
                                           static_cast<double>(k) / rate_hz));
      if (due >= stop) {
        break;
      }
      Chunk chunk;
      chunk.sequence = k;
      chunk.payload = pool_[k % pool_.size()];
      std::this_thread::sleep_until(due);
      const std::int64_t released = now_ns();
      ledger_.update(k, [&](ChunkTimes& t) {
        t.due = to_ns(due);
        t.release = released;
      });
      std::lock_guard<std::mutex> lock(mu_);
      ready_.push_back(std::move(chunk));
      ready_cv_.notify_one();
    }
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
    ready_cv_.notify_all();
  }

  const std::vector<Bytes>& pool_;
  Ledger& ledger_;
  std::mutex mu_;
  std::condition_variable ready_cv_;
  std::deque<Chunk> ready_;
  bool done_ = false;
  std::thread generator_;  // last: started after the members it uses
};

/// Compares every delivered chunk byte for byte with the input it came from.
class VerifyingSink final : public ChunkSink {
 public:
  VerifyingSink(const std::vector<Bytes>& pool, Ledger& ledger, ClientWindow* window)
      : pool_(pool), ledger_(ledger), window_(window) {}

  void deliver(Chunk chunk) override {
    const std::int64_t delivered = now_ns();
    const bool match =
        chunk.stream_id == 0 && chunk.payload == pool_[chunk.sequence % pool_.size()];
    ledger_.update(chunk.sequence, [&](ChunkTimes& t) {
      t.deliver = delivered;
      t.match = match;
      ++t.deliveries;
    });
    if (window_ != nullptr) {
      window_->delivered(delivered);
    }
  }

 private:
  const std::vector<Bytes>& pool_;
  Ledger& ledger_;
  ClientWindow* window_;
};

// --------------------------------------------------------------- tracing ---

/// Follows NSM1 message boundaries in one direction of a byte stream.
class WireParser {
 public:
  /// Consumes `data`; for each data message calls started(seq) when its
  /// header completes and finished(seq) when its last body byte is consumed.
  template <typename Started, typename Finished>
  void feed(ByteSpan data, Started&& started, Finished&& finished) {
    std::size_t i = 0;
    while (i < data.size() && !failed_) {
      if (body_left_ > 0) {
        const std::size_t take = static_cast<std::size_t>(
            std::min<std::uint64_t>(body_left_, data.size() - i));
        body_left_ -= take;
        i += take;
        if (body_left_ == 0 && is_data_) {
          finished(sequence_);
        }
        continue;
      }
      const std::size_t take = std::min(kMessageHeaderSize - have_, data.size() - i);
      std::memcpy(header_ + have_, data.data() + i, take);
      have_ += take;
      i += take;
      if (have_ < kMessageHeaderSize) {
        continue;
      }
      have_ = 0;
      auto header = decode_message_header(ByteSpan(header_, kMessageHeaderSize));
      if (!header.ok()) {
        failed_ = true;
        return;
      }
      const Message& m = header.value().message;
      is_data_ = !(m.end_of_stream || m.credit || m.resume || m.repl || m.handoff ||
                   m.scrub);
      sequence_ = m.sequence;
      body_left_ = header.value().body_size;
      if (is_data_) {
        started(sequence_);
        if (body_left_ == 0) {
          finished(sequence_);
        }
      }
    }
  }

  [[nodiscard]] bool failed() const noexcept { return failed_; }

 private:
  std::uint8_t header_[kMessageHeaderSize] = {};
  std::size_t have_ = 0;
  std::uint64_t body_left_ = 0;
  std::uint64_t sequence_ = 0;
  bool is_data_ = false;
  bool failed_ = false;
};

/// Forwards every ByteStream call unchanged (write_all_vec stays vectored)
/// and stamps message write/read boundaries into the ledger.
class TracingStream final : public ByteStream {
 public:
  TracingStream(std::unique_ptr<ByteStream> inner, Ledger& ledger,
                std::atomic<std::uint64_t>& errors)
      : inner_(std::move(inner)), ledger_(ledger), errors_(errors) {}

  ~TracingStream() override {
    if (out_.failed() || in_.failed()) {
      errors_.fetch_add(1);
    }
  }

  Status write_all(ByteSpan data) override {
    return traced_write({data}, [&] { return inner_->write_all(data); });
  }

  Status write_all_vec(std::initializer_list<ByteSpan> spans) override {
    return traced_write(spans, [&] { return inner_->write_all_vec(spans); });
  }

  Result<std::size_t> read_some(MutableByteSpan out) override {
    auto n = inner_->read_some(out);
    if (n.ok() && n.value() > 0) {
      const std::int64_t t = now_ns();
      in_.feed(
          ByteSpan(out.data(), n.value()), [](std::uint64_t) {},
          [&](std::uint64_t seq) {
            ledger_.update(seq, [&](ChunkTimes& c) { c.read_end = t; });
          });
    }
    return n;
  }

  void shutdown_write() override { inner_->shutdown_write(); }
  void cancel() noexcept override { inner_->cancel(); }

 private:
  template <typename Write>
  Status traced_write(std::initializer_list<ByteSpan> spans, Write&& write) {
    const std::int64_t t0 = now_ns();
    std::vector<std::uint64_t> started;
    std::vector<std::uint64_t> finished;
    for (const ByteSpan& span : spans) {
      out_.feed(
          span, [&](std::uint64_t seq) { started.push_back(seq); },
          [&](std::uint64_t seq) { finished.push_back(seq); });
    }
    const Status status = write();
    const std::int64_t t1 = now_ns();
    for (const std::uint64_t seq : started) {
      ledger_.update(seq, [&](ChunkTimes& c) { c.write_start = t0; });
    }
    if (status.is_ok()) {
      for (const std::uint64_t seq : finished) {
        ledger_.update(seq, [&](ChunkTimes& c) { c.write_end = t1; });
      }
    }
    return status;
  }

  std::unique_ptr<ByteStream> inner_;
  Ledger& ledger_;
  std::atomic<std::uint64_t>& errors_;
  WireParser out_;
  WireParser in_;
};

class TracingListener final : public Listener {
 public:
  TracingListener(Listener& inner, Ledger& ledger, std::atomic<std::uint64_t>& errors)
      : inner_(inner), ledger_(ledger), errors_(errors) {}

  Result<std::unique_ptr<ByteStream>> accept() override {
    auto stream = inner_.accept();
    if (!stream.ok()) {
      return stream;
    }
    return std::unique_ptr<ByteStream>(
        std::make_unique<TracingStream>(std::move(stream).value(), ledger_, errors_));
  }

  void close() override { inner_.close(); }

 private:
  Listener& inner_;
  Ledger& ledger_;
  std::atomic<std::uint64_t>& errors_;
};

// ---------------------------------------------------------------- memory ---

long status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len && line[len] == ':') {
      return std::strtol(line.c_str() + len + 1, nullptr, 10);
    }
  }
  return -1;
}

// Live heap bytes, counted by replacing the global operator new/delete.
// The program allocates exactly as before (malloc/free underneath); the
// harness only adds to a counter. Unlike RSS, the count does not depend on
// which freed pages the allocator happens to reuse.
std::atomic<std::int64_t> g_heap_live{0};
std::atomic<std::int64_t> g_heap_peak{0};

void heap_note(void* p, bool allocated) {
  const auto n = static_cast<std::int64_t>(::malloc_usable_size(p));
  if (!allocated) {
    g_heap_live.fetch_sub(n, std::memory_order_relaxed);
    return;
  }
  const std::int64_t live = g_heap_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::int64_t peak = g_heap_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_heap_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

/// Memory over one streaming phase, two ways.
///
/// Heap: the peak of live heap bytes in each kHeapInterval, so run.py can
/// report a median interval peak that one rare overlap of buffers cannot
/// move.
///
/// RSS: resets the kernel's high-water mark (VmHWM) through
/// /proc/self/clear_refs and reads it at the end; when that write is
/// refused, samples VmRSS every millisecond instead and reports that it did.
class MemWatch {
 public:
  static constexpr auto kHeapInterval = std::chrono::milliseconds(100);

  MemWatch() {
    heap_before_ = g_heap_live.load();
    g_heap_peak.store(heap_before_);
    rss_before_kb_ = status_kb("VmRSS");
    const int fd = ::open("/proc/self/clear_refs", O_WRONLY | O_CLOEXEC);
    if (fd >= 0) {
      hwm_reset_ = ::write(fd, "5", 1) == 1;
      ::close(fd);
    }
    sampler_ = std::thread([this] {
      const auto tick = hwm_reset_ ? kHeapInterval : std::chrono::milliseconds(1);
      auto next_interval = Clock::now() + kHeapInterval;
      while (!stop_.load()) {
        std::this_thread::sleep_for(tick);
        if (!hwm_reset_) {
          sampled_max_kb_ = std::max(sampled_max_kb_, status_kb("VmRSS"));
        }
        if (Clock::now() >= next_interval) {
          next_interval += kHeapInterval;
          const std::int64_t peak = g_heap_peak.exchange(g_heap_live.load());
          heap_interval_peaks_.push_back(peak - heap_before_);
        }
      }
    });
  }

  ~MemWatch() { finish(); }

  MemWatch(const MemWatch&) = delete;
  MemWatch& operator=(const MemWatch&) = delete;

  void finish() {
    if (hwm_kb_ < 0) {
      hwm_kb_ = status_kb("VmHWM");
    }
    stop_.store(true);
    if (sampler_.joinable()) {
      sampler_.join();
    }
  }

  // Read only after finish().
  [[nodiscard]] bool hwm_reset() const { return hwm_reset_; }
  [[nodiscard]] long rss_before_kb() const { return rss_before_kb_; }
  [[nodiscard]] long hwm_kb() const { return hwm_kb_; }
  [[nodiscard]] long sampled_max_kb() const { return sampled_max_kb_; }
  [[nodiscard]] const std::vector<std::int64_t>& heap_interval_peaks() const {
    return heap_interval_peaks_;
  }

 private:
  std::int64_t heap_before_ = 0;
  long rss_before_kb_ = -1;
  long hwm_kb_ = -1;
  bool hwm_reset_ = false;
  long sampled_max_kb_ = -1;                       // sampler thread only
  std::vector<std::int64_t> heap_interval_peaks_;  // sampler thread only
  std::atomic<bool> stop_{false};
  std::thread sampler_;  // last: started after the members it uses
};

// ------------------------------------------------------------------ json ---

class Json {
 public:
  Json& open(char bracket) {
    comma();
    out_ += bracket;
    first_ = true;
    return *this;
  }
  Json& close(char bracket) {
    out_ += bracket;
    first_ = false;
    return *this;
  }
  Json& key(const char* name) {
    comma();
    out_ += '"';
    out_ += name;
    out_ += "\":";
    first_ = true;
    return *this;
  }
  Json& str(const std::string& text) {
    comma();
    out_ += '"';
    for (const char c : text) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ += ' ';
      } else {
        out_ += c;
      }
    }
    out_ += '"';
    return *this;
  }
  Json& num(double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    return raw(buf);
  }
  Json& num(std::int64_t value) { return raw(std::to_string(value)); }
  Json& num(std::uint64_t value) { return raw(std::to_string(value)); }
  Json& num(int value) { return raw(std::to_string(value)); }
  Json& boolean(bool value) { return raw(value ? "true" : "false"); }

  template <typename T, typename F>
  Json& array(const std::vector<T>& items, F&& field) {
    open('[');
    for (const T& item : items) {
      num(field(item));
    }
    return close(']');
  }

  [[nodiscard]] const std::string& text() const { return out_; }

 private:
  Json& raw(const std::string& token) {
    comma();
    out_ += token;
    return *this;
  }
  void comma() {
    if (!first_) {
      out_ += ',';
    }
    first_ = false;
  }

  std::string out_;
  bool first_ = true;
};

// ------------------------------------------------------------- streaming ---

NodeConfig node_config(const Workload& w, const MachineTopology& topo, NodeRole role) {
  NodeConfig config;
  config.node_name = topo.hostname();
  config.role = role;
  config.codec_name = w.codec;
  config.chunk_bytes = w.chunk_bytes();
  if (role == NodeRole::kSender) {
    config.tasks = {TaskGroupConfig{.type = TaskType::kCompress, .count = 1},
                    TaskGroupConfig{.type = TaskType::kSend, .count = 1}};
  } else {
    config.tasks = {TaskGroupConfig{.type = TaskType::kReceive, .count = 1},
                    TaskGroupConfig{.type = TaskType::kDecompress, .count = 1}};
  }
  return config;
}

int pipeline_workers(const Workload& w, const MachineTopology& topo) {
  const NodeConfig s = node_config(w, topo, NodeRole::kSender);
  const NodeConfig r = node_config(w, topo, NodeRole::kReceiver);
  return s.thread_count(TaskType::kCompress) + s.thread_count(TaskType::kSend) +
         r.thread_count(TaskType::kReceive) + r.thread_count(TaskType::kDecompress);
}

struct PipelineOutcome {
  Status sender = Status::ok();
  Status receiver = Status::ok();
  SenderStats sender_stats;
  ReceiverStats receiver_stats;
};

/// Runs one sender and one receiver pipeline against each other over TCP
/// loopback; `wrap` optionally replaces the sender's dialled stream and the
/// listener the receiver accepts from.
template <typename WrapStream>
PipelineOutcome run_pipelines(const Workload& w, const MachineTopology& topo,
                              ChunkSource& source, ChunkSink& sink, Listener* accept_from,
                              TcpListener& listener, WrapStream&& wrap) {
  PipelineOutcome outcome;
  const std::uint16_t port = listener.port();
  const ConnectFn connect = [&]() -> Result<std::unique_ptr<ByteStream>> {
    auto stream = tcp_connect("127.0.0.1", port);
    if (!stream.ok()) {
      return stream;
    }
    return wrap(std::move(stream).value());
  };
  StreamSender sender(topo, node_config(w, topo, NodeRole::kSender));
  StreamReceiver receiver(topo, node_config(w, topo, NodeRole::kReceiver));
  std::thread sender_thread([&] {
    auto stats = sender.run(source, connect);
    if (stats.ok()) {
      outcome.sender_stats = stats.value();
    } else {
      outcome.sender = stats.status();
      listener.close();  // a receiver still waiting in accept() gives up
    }
  });
  auto stats = receiver.run(accept_from != nullptr ? *accept_from : listener, sink);
  sender_thread.join();
  if (stats.ok()) {
    outcome.receiver_stats = stats.value();
  } else {
    outcome.receiver = stats.status();
  }
  return outcome;
}

void write_status(Json& j, const char* name, const Status& status) {
  j.key(name).str(status.is_ok() ? std::string("OK") : status.to_string());
}

/// One measured streaming phase of `seconds`, written as a JSON object.
void stream_phase(Json& j, const Workload& w, const MachineTopology& topo,
                  const std::vector<Bytes>& pool, double seconds, bool traced) {
  Ledger ledger;
  std::atomic<std::uint64_t> trace_errors{0};
  auto bound = TcpListener::bind("127.0.0.1", 0);
  if (!bound.ok()) {
    die("bind: " + bound.status().to_string());
  }
  TcpListener& listener = *bound.value();
  TracingListener tracing(listener, ledger, trace_errors);
  ClientWindow window(w.window);
  VerifyingSink sink(pool, ledger, w.rate_hz > 0 ? nullptr : &window);

  ::malloc_trim(0);  // free pages left by earlier phases leave the RSS
  MemWatch mem;
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  std::unique_ptr<ChunkSource> source;
  if (w.rate_hz > 0) {
    source = std::make_unique<PacedSource>(pool, ledger, w.rate_hz,
                                           start + kScheduleLead, stop);
  } else {
    source = std::make_unique<PoolSource>(pool, ledger, window, start, stop);
  }
  const PipelineOutcome outcome = run_pipelines(
      w, topo, *source, sink, traced ? &tracing : nullptr, listener,
      [&](std::unique_ptr<ByteStream> stream) -> Result<std::unique_ptr<ByteStream>> {
        if (!traced) {
          return stream;
        }
        return std::unique_ptr<ByteStream>(
            std::make_unique<TracingStream>(std::move(stream), ledger, trace_errors));
      });
  source.reset();  // joins the open-loop generator
  const double cpu1 = process_cpu_seconds();
  mem.finish();

  const std::vector<ChunkTimes> rows = ledger.rows();
  j.open('{');
  write_status(j, "sender_status", outcome.sender);
  write_status(j, "receiver_status", outcome.receiver);
  const SenderStats& s = outcome.sender_stats;
  const ReceiverStats& r = outcome.receiver_stats;
  j.key("sender").open('{');
  j.key("chunks").num(s.chunks).key("raw_bytes").num(s.raw_bytes);
  j.key("wire_bytes").num(s.wire_bytes).key("elapsed_s").num(s.elapsed_seconds);
  j.key("compress_busy_s").num(s.compress_busy_seconds);
  j.key("send_busy_s").num(s.send_busy_seconds);
  j.key("compress_threads").num(s.compress_threads);
  j.key("send_threads").num(s.send_threads).close('}');
  j.key("receiver").open('{');
  j.key("chunks").num(r.chunks).key("raw_bytes").num(r.raw_bytes);
  j.key("wire_bytes").num(r.wire_bytes).key("elapsed_s").num(r.elapsed_seconds);
  j.key("corrupt_frames").num(r.corrupt_frames);
  j.key("receive_busy_s").num(r.receive_busy_seconds);
  j.key("decompress_busy_s").num(r.decompress_busy_seconds);
  j.key("receive_threads").num(r.receive_threads);
  j.key("decompress_threads").num(r.decompress_threads).close('}');
  j.key("cpu_s").num(cpu1 - cpu0);
  j.key("mem").open('{');
  j.key("hwm_reset").boolean(mem.hwm_reset());
  j.key("rss_before_kb").num(mem.rss_before_kb());
  j.key("hwm_kb").num(mem.hwm_kb());
  j.key("sampled_max_kb").num(mem.sampled_max_kb());
  j.key("heap_interval_peak_bytes")
      .array(mem.heap_interval_peaks(), [](std::int64_t v) { return v; })
      .close('}');
  j.key("traced").boolean(traced);
  j.key("trace_errors").num(trace_errors.load());
  j.key("chunks").open('{');
  j.key("due").array(rows, [](const ChunkTimes& t) { return t.due; });
  j.key("request").array(rows, [](const ChunkTimes& t) { return t.request; });
  j.key("release").array(rows, [](const ChunkTimes& t) { return t.release; });
  j.key("handout").array(rows, [](const ChunkTimes& t) { return t.handout; });
  j.key("deliver").array(rows, [](const ChunkTimes& t) { return t.deliver; });
  j.key("match").array(rows, [](const ChunkTimes& t) { return t.match ? 1 : 0; });
  j.key("deliveries").array(rows, [](const ChunkTimes& t) { return t.deliveries; });
  if (traced) {
    j.key("write_start").array(rows, [](const ChunkTimes& t) { return t.write_start; });
    j.key("write_end").array(rows, [](const ChunkTimes& t) { return t.write_end; });
    j.key("read_end").array(rows, [](const ChunkTimes& t) { return t.read_end; });
  }
  j.close('}');
  j.close('}');
}

/// Empty source: the sender dials, sends end-of-stream and tears down.
class EmptySource final : public ChunkSource {
 public:
  std::optional<Chunk> next() override { return std::nullopt; }
};

/// Times `reps` cold set-ups: topology discovery, listener bind, sender and
/// receiver construction, dial/accept and end-of-stream teardown. Records
/// each one's wall time and the CPU time all threads spent on it.
void setup_phase(Json& j, const Workload& w, int reps) {
  std::vector<double> wall;
  std::vector<double> cpu;
  std::string failure;
  for (int k = 0; k < reps; ++k) {
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    {
      auto topo = discover_topology();
      if (!topo.ok()) {
        die("topology: " + topo.status().to_string());
      }
      auto bound = TcpListener::bind("127.0.0.1", 0);
      if (!bound.ok()) {
        die("bind: " + bound.status().to_string());
      }
      EmptySource source;
      CountingSink sink;
      const PipelineOutcome outcome = run_pipelines(
          w, topo.value(), source, sink, nullptr, *bound.value(),
          [](std::unique_ptr<ByteStream> s) -> Result<std::unique_ptr<ByteStream>> {
            return s;
          });
      if (!outcome.sender.is_ok() || !outcome.receiver.is_ok()) {
        failure = outcome.sender.is_ok() ? outcome.receiver.to_string()
                                         : outcome.sender.to_string();
      }
    }
    wall.push_back(seconds_between(t0, Clock::now()));
    cpu.push_back(process_cpu_seconds() - cpu0);
  }
  j.open('{');
  j.key("wall_s").array(wall, [](double t) { return t; });
  j.key("cpu_s").array(cpu, [](double t) { return t; });
  j.key("status").str(failure.empty() ? std::string("OK") : failure);
  j.close('}');
}

// ---------------------------------------------------------- layer timings ---

std::atomic<std::uint64_t> g_sink{0};  // keeps timed results observable

/// Calls `call(i)` round-robin over `inputs` for kMicroSeconds (at least
/// `min_calls` times); returns each call's rate in bytes/s.
template <typename Call>
std::vector<double> time_calls(std::size_t inputs, std::size_t min_calls, Call&& call) {
  std::vector<double> rates;
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(kMicroSeconds));
  for (std::size_t i = 0; rates.size() < min_calls || Clock::now() < end; ++i) {
    const auto t0 = Clock::now();
    const std::size_t bytes = call(i % inputs);
    const double s = seconds_between(t0, Clock::now());
    rates.push_back(static_cast<double>(bytes) / std::max(s, 1e-9));
  }
  return rates;
}

void write_rates(Json& j, const char* name, const std::vector<double>& rates) {
  j.key(name).array(rates, [](double r) { return r; });
}

/// PushSocket::send -> PullSocket::recv of pre-encoded frames over one
/// loopback connection, for `seconds`.
void msg_phase(Json& j, const std::vector<Bytes>& frames, double seconds) {
  auto bound = TcpListener::bind("127.0.0.1", 0);
  if (!bound.ok()) {
    die("bind: " + bound.status().to_string());
  }
  std::vector<Message> messages(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    messages[i].body = frames[i];
  }
  const std::uint16_t port = bound.value()->port();
  std::uint64_t sent = 0;
  Status send_status = Status::ok();
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  std::thread pusher([&] {
    auto stream = tcp_connect("127.0.0.1", port);
    if (!stream.ok()) {
      send_status = stream.status();
      bound.value()->close();
      return;
    }
    PushSocket push(std::move(stream).value());
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    while (Clock::now() < end && send_status.is_ok()) {
      Message& m = messages[sent % messages.size()];
      m.sequence = sent;
      send_status = push.send(m);
      ++sent;
    }
    if (send_status.is_ok()) {
      send_status = push.finish(0);
    }
  });
  std::uint64_t received = 0;
  std::uint64_t wire_bytes = 0;
  Status recv_status = Status::ok();
  auto accepted = bound.value()->accept();
  if (accepted.ok()) {
    PullSocket pull(std::move(accepted).value());
    while (true) {
      auto m = pull.recv();
      if (!m.ok()) {
        recv_status = m.status();
        break;
      }
      if (m.value().end_of_stream) {
        break;
      }
      ++received;
    }
    wire_bytes = pull.bytes_received();
  } else {
    recv_status = accepted.status();
  }
  pusher.join();
  const double wall = seconds_between(start, Clock::now());
  const double cpu = process_cpu_seconds() - cpu0;
  j.open('{');
  write_status(j, "send_status", send_status);
  write_status(j, "recv_status", recv_status);
  j.key("messages").num(received).key("sent").num(sent);
  j.key("wire_bytes").num(wire_bytes);
  j.key("wall_s").num(wall).key("cpu_s").num(cpu);
  j.close('}');
}

/// Cross-thread StageChannel push -> pop of workload-size Messages at the
/// default NodeConfig capacity and handoff mode. Four messages circulate
/// through a return channel, so bodies are allocated once.
void queue_phase(Json& j, std::size_t body_bytes, double seconds) {
  const NodeConfig defaults;
  StageChannel<Message> forward(defaults.queue_capacity, 1, defaults.fastpath.rings);
  StageChannel<Message> back(defaults.queue_capacity, 1, defaults.fastpath.rings);
  for (int i = 0; i < 4; ++i) {
    Message m;
    m.body.assign(body_bytes, static_cast<std::uint8_t>(i));
    if (!back.push(std::move(m)).is_ok()) {
      die("queue: return channel refused a message");
    }
  }
  std::thread producer([&] {
    const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
    while (Clock::now() < end) {
      auto m = back.pop(0);
      if (!m) {
        break;
      }
      m->sequence = static_cast<std::uint64_t>(now_ns());
      if (!forward.push(std::move(*m)).is_ok()) {
        break;
      }
    }
    forward.close();
  });
  std::vector<std::int64_t> handoff_ns;
  while (auto m = forward.pop(0)) {
    handoff_ns.push_back(now_ns() - static_cast<std::int64_t>(m->sequence));
    if (!back.push(std::move(*m)).is_ok()) {
      break;
    }
  }
  back.close();
  producer.join();
  j.open('{');
  j.key("capacity").num(static_cast<std::uint64_t>(defaults.queue_capacity));
  j.key("rings").boolean(defaults.fastpath.rings);
  j.key("handoff_ns").array(handoff_ns, [](std::int64_t v) { return v; });
  j.close('}');
}

void layer_phase(Json& j, const Workload& w, const std::vector<Bytes>& pool) {
  const Codec* codec = codec_by_name(w.codec);
  if (codec == nullptr) {
    die(std::string("unknown codec ") + w.codec);
  }
  const std::size_t n = pool.size();
  Bytes scratch(lz4_compress_bound(w.chunk_bytes()));
  std::vector<Bytes> compressed(n);
  std::vector<Bytes> frames(n);
  Bytes raw_out(w.chunk_bytes());

  j.open('{');
  write_rates(j, "lz4_compress", time_calls(n, std::min<std::size_t>(n, 4), [&](std::size_t i) {
                auto r = lz4_compress_block(pool[i], scratch);
                if (!r.ok()) {
                  die("lz4 compress: " + r.status().to_string());
                }
                if (compressed[i].empty()) {
                  compressed[i].assign(scratch.begin(), scratch.begin() + r.value());
                }
                return pool[i].size();
              }));
  std::vector<std::size_t> have;  // inputs the compress timing reached
  for (std::size_t i = 0; i < n; ++i) {
    if (!compressed[i].empty()) {
      have.push_back(i);
    }
  }
  write_rates(j, "lz4_decompress", time_calls(have.size(), 4, [&](std::size_t k) {
                const std::size_t i = have[k];
                auto r = lz4_decompress_block(compressed[i], raw_out);
                if (!r.ok() || r.value() != pool[i].size()) {
                  die("lz4 decompress failed");
                }
                return pool[i].size();
              }));
  write_rates(j, "xxhash32", time_calls(n, 4, [&](std::size_t i) {
                g_sink.fetch_add(xxhash32(pool[i]), std::memory_order_relaxed);
                return pool[i].size();
              }));
  write_rates(j, "frame_encode", time_calls(n, std::min<std::size_t>(n, 4), [&](std::size_t i) {
                Bytes frame = encode_frame(*codec, pool[i]);
                if (frames[i].empty()) {
                  frames[i] = std::move(frame);
                }
                return pool[i].size();
              }));
  have.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (!frames[i].empty()) {
      have.push_back(i);
    }
  }
  write_rates(j, "frame_decode", time_calls(have.size(), 4, [&](std::size_t k) {
                const std::size_t i = have[k];
                auto r = decode_frame_content(frames[i]);
                if (!r.ok() || r.value() != pool[i]) {
                  die("frame decode failed");
                }
                return pool[i].size();
              }));
  // What the harness itself spends per chunk: the source's copy out of the
  // pool and the sink's byte-for-byte comparison.
  write_rates(j, "harness_copy_compare", time_calls(n, 4, [&](std::size_t i) {
                const Bytes copy = pool[i];
                g_sink.fetch_add(copy == pool[i] ? 1 : 0, std::memory_order_relaxed);
                return pool[i].size();
              }));
  std::vector<Bytes> wire_frames;
  for (const std::size_t i : have) {
    wire_frames.push_back(frames[i]);
  }
  j.key("msg");
  msg_phase(j, wire_frames, 2.5 * kMicroSeconds);
  j.key("queue");
  queue_phase(j, w.chunk_bytes(), 2.5 * kMicroSeconds);
  j.close('}');
}

}  // namespace

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  heap_note(p, true);
  return p;
}

void* operator new[](std::size_t n) { return operator new(n); }

void operator delete(void* p) noexcept {
  if (p != nullptr) {
    heap_note(p, false);
    std::free(p);
  }
}

void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      die("unknown flag " + flag);
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr || !(seconds > 0) || (trace != 0 && trace != 1)) {
    die("usage: e2e_harness --workload NAME --seed N --seconds S --trace 0|1");
  }
  const Workload& w = *workload;

  auto topo = discover_topology();
  if (!topo.ok()) {
    die("topology: " + topo.status().to_string());
  }
  const auto gen0 = Clock::now();
  const std::vector<Bytes> pool = make_pool(w, seed);
  const double generate_s = seconds_between(gen0, Clock::now());

  Json j;
  j.open('{');
  j.key("workload").str(w.name).key("seed").num(seed).key("seconds").num(seconds);
  j.key("trace").num(trace).key("codec").str(w.codec);
  j.key("rate_hz").num(w.rate_hz);
  j.key("window").num(w.window);
  j.key("pool_chunks").num(static_cast<std::uint64_t>(pool.size()));
  j.key("chunk_bytes").num(static_cast<std::uint64_t>(w.chunk_bytes()));
  j.key("generate_s").num(generate_s);
  j.key("nproc").num(online_cpus());
  j.key("workers").num(pipeline_workers(w, topo.value()));
  j.key("numa_domains").num(static_cast<std::uint64_t>(topo.value().domain_count()));
  j.key("build_type").str(E2E_BUILD_TYPE);
  if (trace == 0) {
    j.key("setup");
    setup_phase(j, w, kSetupReps);
  }
  j.key("untraced");
  stream_phase(j, w, topo.value(), pool, seconds, false);
  if (trace == 1) {
    j.key("traced");
    stream_phase(j, w, topo.value(), pool, seconds, true);
    j.key("layers");
    layer_phase(j, w, pool);
  }
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}
