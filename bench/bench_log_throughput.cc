// Experiment E2 (§4.1): "read/write throughput remains constant independent
// of log size", plus the sparse-index ablation (DESIGN.md §5) and the
// concurrent-append legs for the reserve → encode → ordered-commit pipeline
// (encoding overlaps across appender threads; only the reservation counter
// and the final ordered write serialize).
//
// Paper shape to reproduce: append and tail-read throughput flat as the log
// grows from 10^4 to 10^6 records; sparse index keeps random seeks cheap
// without the dense index's memory cost.
//
// --json[=path] emits the google-benchmark JSON report (for
// scripts/bench_compare.py) in addition to the console table.

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/random.h"
#include "storage/disk.h"
#include "storage/log.h"

namespace liquid::storage {
namespace {

std::vector<Record> MakeBatch(int n, Random* rng) {
  std::vector<Record> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    out.push_back(Record::KeyValue("key" + std::to_string(rng->Uniform(1000)),
                                   rng->Bytes(100)));
  }
  return out;
}

/// Append throughput at a given pre-existing log size.
void BM_AppendAtLogSize(benchmark::State& state) {
  const int64_t prefill = state.range(0);
  MemDisk disk;
  SystemClock clock;
  LogConfig config;
  config.segment_bytes = 4 << 20;
  auto log = Log::Open(&disk, nullptr, "l/", config, &clock);
  Random rng(42);
  // Pre-grow the log to the target size.
  auto fill = MakeBatch(1000, &rng);
  for (int64_t have = 0; have < prefill; have += 1000) {
    for (auto& r : fill) r.offset = -1;
    LIQUID_CHECK_OK((*log)->AppendBatch(&fill));
  }
  auto batch = MakeBatch(100, &rng);
  for (auto _ : state) {
    for (auto& r : batch) r.offset = -1;
    benchmark::DoNotOptimize((*log)->AppendBatch(&batch));
  }
  state.SetItemsProcessed(state.iterations() * 100);
  state.counters["log_records"] = static_cast<double>((*log)->end_offset());
}
BENCHMARK(BM_AppendAtLogSize)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMicrosecond);

/// Tail-read throughput (consumer following the head) at a given log size.
void BM_TailReadAtLogSize(benchmark::State& state) {
  const int64_t prefill = state.range(0);
  MemDisk disk;
  SystemClock clock;
  LogConfig config;
  config.segment_bytes = 4 << 20;
  auto log = Log::Open(&disk, nullptr, "l/", config, &clock);
  Random rng(42);
  auto fill = MakeBatch(1000, &rng);
  for (int64_t have = 0; have < prefill; have += 1000) {
    for (auto& r : fill) r.offset = -1;
    LIQUID_CHECK_OK((*log)->AppendBatch(&fill));
  }
  const int64_t end = (*log)->end_offset();
  std::vector<Record> out;
  for (auto _ : state) {
    out.clear();
    // Read the most recent ~100 records (the head of the log).
    benchmark::DoNotOptimize(
        bench::ReadRecords(**log, end - 100, 64 * 1024, &out));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_TailReadAtLogSize)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMicrosecond);

/// Random offset reads under different index granularities (ablation).
void BM_RandomReadIndexAblation(benchmark::State& state) {
  const size_t index_interval = static_cast<size_t>(state.range(0));
  MemDisk disk;
  SystemClock clock;
  LogConfig config;
  config.segment_bytes = 4 << 20;
  config.index_interval_bytes = index_interval;
  auto log = Log::Open(&disk, nullptr, "l/", config, &clock);
  Random rng(42);
  auto fill = MakeBatch(1000, &rng);
  for (int64_t have = 0; have < 200'000; have += 1000) {
    for (auto& r : fill) r.offset = -1;
    LIQUID_CHECK_OK((*log)->AppendBatch(&fill));
  }
  const int64_t end = (*log)->end_offset();
  std::vector<Record> out;
  Random pick(7);
  for (auto _ : state) {
    out.clear();
    const int64_t offset = static_cast<int64_t>(pick.Uniform(end));
    benchmark::DoNotOptimize(bench::ReadRecords(**log, offset, 4096, &out));
  }
  state.counters["index_interval"] = static_cast<double>(index_interval);
}
BENCHMARK(BM_RandomReadIndexAblation)
    ->Arg(0)            // Dense: every record indexed.
    ->Arg(4096)         // Default sparse.
    ->Arg(1 << 30)      // Effectively no index: scan from segment start.
    ->Unit(benchmark::kMicrosecond);

/// Throughput as a function of record size (payload scaling).
void BM_AppendRecordSize(benchmark::State& state) {
  const size_t value_bytes = static_cast<size_t>(state.range(0));
  MemDisk disk;
  SystemClock clock;
  auto log = Log::Open(&disk, nullptr, "l/", LogConfig{}, &clock);
  Random rng(42);
  std::vector<Record> batch;
  for (int i = 0; i < 100; ++i) {
    batch.push_back(Record::KeyValue("k", rng.Bytes(value_bytes)));
  }
  for (auto _ : state) {
    for (auto& r : batch) r.offset = -1;
    benchmark::DoNotOptimize((*log)->AppendBatch(&batch));
  }
  state.SetBytesProcessed(state.iterations() * 100 *
                          static_cast<int64_t>(value_bytes));
}
BENCHMARK(BM_AppendRecordSize)->Arg(100)->Arg(1024)->Arg(10240)->Unit(
    benchmark::kMicrosecond);

/// Concurrent appenders on ONE shared log: measures the append pipeline
/// directly. Offsets are reserved under a short lock, encoding runs with no
/// lock held, and writers commit in reservation order — so aggregate
/// throughput should grow with threads until the ordered write serializes.
void BM_AppendConcurrent(benchmark::State& state) {
  // Shared across the benchmark's threads; only thread 0 touches these
  // outside the timed loop (google-benchmark's documented setup pattern: a
  // barrier separates setup from every thread's first iteration).
  static std::unique_ptr<MemDisk> disk;
  static std::unique_ptr<Log> log;
  static SystemClock clock;
  if (state.thread_index() == 0) {
    disk = std::make_unique<MemDisk>();
    LogConfig config;
    config.segment_bytes = 4 << 20;
    log = std::move(Log::Open(disk.get(), nullptr, "l/", config, &clock))
              .value();
  }
  Random rng(42 + state.thread_index());
  auto batch = MakeBatch(100, &rng);
  for (auto _ : state) {
    for (auto& r : batch) r.offset = -1;
    benchmark::DoNotOptimize(log->AppendBatch(&batch));
  }
  state.SetItemsProcessed(state.iterations() * 100);
  if (state.thread_index() == 0) {
    state.counters["log_records"] = static_cast<double>(log->end_offset());
    log.reset();
    disk.reset();
  }
}
BENCHMARK(BM_AppendConcurrent)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace liquid::storage

int main(int argc, char** argv) {
  // Translate the repo-wide `--json[=path]` convention (see check.sh's bench
  // leg and bench_pipeline_latency) into google-benchmark's reporter flags.
  std::vector<char*> args;
  std::vector<std::string> extra;  // Owns storage for synthesized flags.
  const char* json_path = nullptr;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = "BENCH_log_throughput.json";
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (json_path != nullptr) {
    extra.push_back(std::string("--benchmark_out=") + json_path);
    extra.push_back("--benchmark_out_format=json");
    for (std::string& flag : extra) args.push_back(flag.data());
  }
  int final_argc = static_cast<int>(args.size());
  benchmark::Initialize(&final_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(final_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
