// Micro-benchmarks of the real (non-simulated) codec substrate on the host
// running the build: LZ4 block codec, delta+RLE codec, xxHash, and the frame
// wrapper, on synthetic tomographic data. These numbers are hardware-local;
// the figure benches use the calibrated simulator instead.
//
// BENCH_micro_codec.json carries every benchmark's rate in MB/s (10^6
// bytes) under "mb_per_s" and, for the compressors, the compression ratio
// under "ratio", keyed by benchmark name.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "codec/codec.h"
#include "codec/frame.h"
#include "codec/lz4.h"
#include "codec/xxhash.h"
#include "common/rng.h"
#include "data/tomo.h"

namespace numastream {
namespace {

// A quarter-size projection keeps iterations snappy while exercising the
// same code paths as the full 11 MB chunk.
Bytes projection_sample() {
  TomoConfig config;
  config.rows = 512;
  config.cols = 1350;
  static const Bytes sample = TomoGenerator(config).projection(1);
  return sample;
}

// The full 2048x2700 projection that the tomo_full_lz4 workload streams.
Bytes full_projection_sample() {
  static const Bytes sample = TomoGenerator(TomoConfig{}).projection(1);
  return sample;
}

Bytes random_sample(std::size_t size) {
  Bytes data(size);
  Rng rng(99);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.next_u64());
  }
  return data;
}

void BM_Lz4CompressTomo(benchmark::State& state) {
  const Bytes input = projection_sample();
  Bytes output(lz4_compress_bound(input.size()));
  for (auto _ : state) {
    auto written = lz4_compress_block(input, output);
    benchmark::DoNotOptimize(written.value());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
  const auto written = lz4_compress_block(input, output);
  state.counters["ratio"] =
      static_cast<double>(input.size()) / static_cast<double>(written.value());
}
BENCHMARK(BM_Lz4CompressTomo);

void BM_Lz4DecompressTomo(benchmark::State& state) {
  const Bytes input = projection_sample();
  const Bytes compressed = lz4_compress(input);
  Bytes output(input.size());
  for (auto _ : state) {
    auto produced = lz4_decompress_block(compressed, output);
    benchmark::DoNotOptimize(produced.value());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_Lz4DecompressTomo);

void BM_Lz4CompressTomoFull(benchmark::State& state) {
  const Bytes input = full_projection_sample();
  Bytes output(lz4_compress_bound(input.size()));
  for (auto _ : state) {
    auto written = lz4_compress_block(input, output);
    benchmark::DoNotOptimize(written.value());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
  const auto written = lz4_compress_block(input, output);
  state.counters["ratio"] =
      static_cast<double>(input.size()) / static_cast<double>(written.value());
}
BENCHMARK(BM_Lz4CompressTomoFull)->Unit(benchmark::kMillisecond);

void BM_Lz4DecompressTomoFull(benchmark::State& state) {
  const Bytes input = full_projection_sample();
  const Bytes compressed = lz4_compress(input);
  Bytes output(input.size());
  for (auto _ : state) {
    auto produced = lz4_decompress_block(compressed, output);
    benchmark::DoNotOptimize(produced.value());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_Lz4DecompressTomoFull)->Unit(benchmark::kMillisecond);

void BM_Lz4CompressIncompressible(benchmark::State& state) {
  const Bytes input = random_sample(1 << 20);
  Bytes output(lz4_compress_bound(input.size()));
  for (auto _ : state) {
    auto written = lz4_compress_block(input, output);
    benchmark::DoNotOptimize(written.value());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_Lz4CompressIncompressible);

void BM_Lz4HcCompressTomo(benchmark::State& state) {
  const Bytes input = projection_sample();
  Bytes output(lz4_compress_bound(input.size()));
  for (auto _ : state) {
    auto written = lz4hc_compress_block(input, output);
    benchmark::DoNotOptimize(written.value());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
  const auto written = lz4hc_compress_block(input, output);
  state.counters["ratio"] =
      static_cast<double>(input.size()) / static_cast<double>(written.value());
}
BENCHMARK(BM_Lz4HcCompressTomo);

void BM_DeltaRleCompressTomo(benchmark::State& state) {
  const Codec* codec = codec_by_id(CodecId::kDeltaRle);
  const Bytes input = projection_sample();
  Bytes output(codec->max_compressed_size(input.size()));
  for (auto _ : state) {
    auto written = codec->compress(input, output);
    benchmark::DoNotOptimize(written.value());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
  const auto written = codec->compress(input, output);
  state.counters["ratio"] =
      static_cast<double>(input.size()) / static_cast<double>(written.value());
}
BENCHMARK(BM_DeltaRleCompressTomo);

void BM_XxHash32(benchmark::State& state) {
  const Bytes input = random_sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(xxhash32(input));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_XxHash32)->Arg(1 << 10)->Arg(1 << 20);

void BM_XxHash64(benchmark::State& state) {
  const Bytes input = random_sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(xxhash64(input));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_XxHash64)->Arg(1 << 10)->Arg(1 << 20);

void BM_FrameRoundTrip(benchmark::State& state) {
  const Codec* codec = codec_by_id(CodecId::kLz4);
  const Bytes input = projection_sample();
  for (auto _ : state) {
    const Bytes frame = encode_frame(*codec, input);
    auto decoded = decode_frame_content(frame);
    benchmark::DoNotOptimize(decoded.ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_FrameRoundTrip);

/// The usual console output, plus each benchmark's rate and ratio for the
/// JSON artifact (the last run wins when a benchmark repeats).
class RateReporter : public benchmark::ConsoleReporter {
 public:
  RateReporter()
      : ConsoleReporter(isatty(STDOUT_FILENO) != 0 ? OO_ColorTabular
                                                    : OO_Tabular) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) {
        continue;
      }
      const auto bytes = run.counters.find("bytes_per_second");
      if (bytes != run.counters.end()) {
        mb_per_s.emplace_back(run.benchmark_name(), bytes->second.value / 1e6);
      }
      const auto r = run.counters.find("ratio");
      if (r != run.counters.end()) {
        ratio.emplace_back(run.benchmark_name(), r->second.value);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<std::pair<std::string, double>> mb_per_s;
  std::vector<std::pair<std::string, double>> ratio;
};

void write_object(bench::JsonWriter& json, const std::string& key,
                  const std::vector<std::pair<std::string, double>>& values) {
  json.begin_object(key);
  for (const auto& [name, value] : values) {
    json.field(name, value);
  }
  json.end_object();
}

}  // namespace
}  // namespace numastream

int main(int argc, char** argv) {
  const numastream::bench::BenchClock bench_clock;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  numastream::RateReporter reporter;
  const std::size_t benchmarks_run =
      benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  numastream::bench::JsonWriter json =
      numastream::bench::bench_json("micro_codec", bench_clock.seconds());
  json.field("benchmarks_run", static_cast<double>(benchmarks_run));
  numastream::write_object(json, "mb_per_s", reporter.mb_per_s);
  numastream::write_object(json, "ratio", reporter.ratio);
  if (!json.write(numastream::bench::json_artifact_path(
          "BENCH_micro_codec.json"))) {
    std::fprintf(stderr, "failed to write BENCH_micro_codec.json\n");
    return 1;
  }
  return 0;
}
