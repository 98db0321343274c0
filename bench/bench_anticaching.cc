// Experiment E3 (§4.1 "anti-caching"): head-of-log reads are served from RAM
// (the freshly appended pages stay cached until flushed behind); rewind reads
// pay simulated disk cost on first touch, after which sequential prefetching
// warms them ("after typically a few seconds, successive reads become fast
// due to prefetching").
//
// Paper shape: tail reads orders of magnitude cheaper than cold rewinds;
// a second sequential pass over rewound data approaches tail-read speed.
// BM_AppendIntoFullDirtyCache measures the write side: the cost of one
// append into a cache full of dirty pages, at two cache sizes.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench_util.h"
#include "common/clock.h"
#include "common/random.h"
#include "storage/disk.h"
#include "storage/log.h"
#include "storage/page_cache.h"

namespace liquid::storage {
namespace {

constexpr int64_t kLogRecords = 200'000;
constexpr size_t kValueBytes = 100;

struct Rig {
  std::unique_ptr<MemDisk> disk;
  std::unique_ptr<PageCache> cache;
  std::unique_ptr<Log> log;
  SystemClock clock;
};

std::unique_ptr<Rig> BuildRig(size_t cache_mb) {
  auto rig = std::make_unique<Rig>();
  rig->disk = std::make_unique<MemDisk>(DiskLatencyModel::ScaledHdd());
  PageCacheConfig cache_config;
  cache_config.capacity_bytes = cache_mb << 20;
  cache_config.flush_after_ms = 50;
  cache_config.readahead_pages = 8;
  rig->cache = std::make_unique<PageCache>(cache_config, &rig->clock);
  LogConfig config;
  config.segment_bytes = 8 << 20;
  auto log = Log::Open(rig->disk.get(), rig->cache.get(), "l/", config,
                       &rig->clock);
  rig->log = std::move(log).value();

  Random rng(42);
  std::vector<Record> batch;
  for (int i = 0; i < 1000; ++i) {
    batch.push_back(Record::KeyValue("k", rng.Bytes(kValueBytes)));
  }
  for (int64_t have = 0; have < kLogRecords; have += 1000) {
    for (auto& r : batch) r.offset = -1;
    LIQUID_CHECK_OK(rig->log->AppendBatch(&batch));
  }
  return rig;
}

/// Consumer following the head: always hits the freshly written pages.
void BM_TailRead(benchmark::State& state) {
  auto rig = BuildRig(16);
  std::vector<Record> out;
  for (auto _ : state) {
    out.clear();
    LIQUID_CHECK_OK(bench::ReadRecords(
        *rig->log, rig->log->end_offset() - 100, 64 * 1024, &out));
  }
  state.counters["cache_hit_pct"] =
      100.0 * static_cast<double>(rig->cache->hits()) /
      static_cast<double>(rig->cache->hits() + rig->cache->misses() + 1);
}
BENCHMARK(BM_TailRead)->Unit(benchmark::kMicrosecond)->Iterations(200);

/// Rewind to the beginning: cold pages, disk-bound on first pass. The cache
/// is far smaller than the log, so every iteration rewinds cold.
void BM_RewindReadCold(benchmark::State& state) {
  auto rig = BuildRig(1);  // 1 MiB cache: the 20+MB log cannot fit.
  std::vector<Record> out;
  int64_t offset = 0;
  for (auto _ : state) {
    out.clear();
    LIQUID_CHECK_OK(bench::ReadRecords(*rig->log, offset, 64 * 1024, &out));
    offset += 50'000;  // Jump far: defeat read-ahead between iterations.
    if (offset > kLogRecords - 1000) offset = 0;
  }
  state.counters["cache_hit_pct"] =
      100.0 * static_cast<double>(rig->cache->hits()) /
      static_cast<double>(rig->cache->hits() + rig->cache->misses() + 1);
}
BENCHMARK(BM_RewindReadCold)->Unit(benchmark::kMicrosecond)->Iterations(200);

/// Sequential rewind scan: the first pass pays disk, prefetch amortizes it.
void BM_RewindReadSequential(benchmark::State& state) {
  auto rig = BuildRig(64);  // Cache large enough once warmed.
  std::vector<Record> out;
  int64_t offset = 0;
  for (auto _ : state) {
    out.clear();
    LIQUID_CHECK_OK(bench::ReadRecords(*rig->log, offset, 64 * 1024, &out));
    offset = out.empty() ? 0 : out.back().offset + 1;
    if (offset >= kLogRecords) offset = 0;
  }
  state.counters["cache_hit_pct"] =
      100.0 * static_cast<double>(rig->cache->hits()) /
      static_cast<double>(rig->cache->hits() + rig->cache->misses() + 1);
}
BENCHMARK(BM_RewindReadSequential)
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(800);

/// Appends into a cache that is full of dirty pages: the simulated clock
/// stands still, so no page's flush window ever closes and every append
/// force-evicts the least recently used page, as under a sustained produce
/// load whose cache holds only pages younger than flush_after_ms. One
/// iteration is one NoteAppend of one whole page; the argument is the
/// number of resident pages. Eviction that scans the resident pages costs
/// more per append as the cache grows; the LRU sets keep it flat.
void BM_AppendIntoFullDirtyCache(benchmark::State& state) {
  const auto resident_pages = static_cast<size_t>(state.range(0));
  SimulatedClock clock(0);
  PageCacheConfig config;
  config.page_size = 4096;
  config.capacity_bytes = resident_pages * config.page_size;
  config.flush_after_ms = 1000;
  PageCache cache(config, &clock);
  const uint64_t file = cache.NewFileId();
  const std::string page(config.page_size, 'x');
  uint64_t offset = 0;
  for (size_t i = 0; i < resident_pages; ++i) {
    cache.NoteAppend(file, offset, page);
    offset += page.size();
  }
  const int64_t forced_before = cache.forced_evictions();
  for (auto _ : state) {
    cache.NoteAppend(file, offset, page);
    offset += page.size();
  }
  state.counters["forced_per_append"] =
      static_cast<double>(cache.forced_evictions() - forced_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_AppendIntoFullDirtyCache)
    ->Arg(2048)
    ->Arg(16384)
    ->Unit(benchmark::kNanosecond);

/// Random access without any page cache: every read pays the disk.
void BM_RandomReadNoCache(benchmark::State& state) {
  MemDisk disk{DiskLatencyModel::ScaledHdd()};
  SystemClock clock;
  LogConfig config;
  config.segment_bytes = 8 << 20;
  auto log = Log::Open(&disk, nullptr, "l/", config, &clock);
  Random rng(42);
  std::vector<Record> batch;
  for (int i = 0; i < 1000; ++i) {
    batch.push_back(Record::KeyValue("k", rng.Bytes(kValueBytes)));
  }
  for (int64_t have = 0; have < 50'000; have += 1000) {
    for (auto& r : batch) r.offset = -1;
    LIQUID_CHECK_OK((*log)->AppendBatch(&batch));
  }
  std::vector<Record> out;
  Random pick(7);
  for (auto _ : state) {
    out.clear();
    LIQUID_CHECK_OK(bench::ReadRecords(
        **log, static_cast<int64_t>(pick.Uniform(50'000)), 4096, &out));
  }
}
BENCHMARK(BM_RandomReadNoCache)->Unit(benchmark::kMicrosecond)->Iterations(200);

}  // namespace
}  // namespace liquid::storage

BENCHMARK_MAIN();
