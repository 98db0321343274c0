// Experiment E4 (§4.1 "log compaction"): compaction of a keyed feed keeps
// only the latest record per key, shrinking the changelog and making state
// recovery faster ("performing log compaction not only reduces the changelog
// size, but it also allows for faster recovery").
//
// Paper shape: size reduction grows with updates-per-key; recovery from the
// compacted log is roughly updates-per-key times faster.

#include <cstdio>
#include <map>

#include "bench_util.h"
#include "common/clock.h"
#include "common/random.h"
#include "storage/disk.h"
#include "storage/log.h"

namespace liquid::storage {
namespace {

using bench::Fmt;
using bench::Stopwatch;
using bench::Table;

/// Builds a keyed log with `keys` distinct keys receiving `updates_per_key`
/// updates each (Zipf-ordered arrivals), then measures compaction and the
/// state-recovery scan before/after.
void RunSweep() {
  Table table({"keys", "updates/key", "bytes_before", "bytes_after",
               "size_reduction", "recover_before_us", "recover_after_us",
               "recovery_speedup"});

  for (int updates_per_key : {2, 8, 32, 128}) {
    const int keys = 2000;
    MemDisk disk;
    SystemClock clock;
    LogConfig config;
    config.segment_bytes = 256 * 1024;
    config.compaction_enabled = true;
    auto log = Log::Open(&disk, nullptr, "c/", config, &clock);
    Random rng(42);

    for (int round = 0; round < updates_per_key; ++round) {
      std::vector<Record> batch;
      batch.reserve(keys);
      for (int k = 0; k < keys; ++k) {
        batch.push_back(Record::KeyValue("user" + std::to_string(k),
                                         rng.Bytes(64)));
      }
      LIQUID_CHECK_OK((*log)->AppendBatch(&batch));
    }

    // Recovery = replay every surviving record into a state map.
    auto recover = [&]() -> std::pair<int64_t, size_t> {
      Stopwatch timer;
      std::map<std::string, std::string> state;
      int64_t cursor = (*log)->start_offset();
      std::vector<Record> chunk;
      while (cursor < (*log)->end_offset()) {
        chunk.clear();
        LIQUID_CHECK_OK(bench::ReadRecords(**log, cursor, 1 << 20, &chunk));
        if (chunk.empty()) break;
        for (auto& record : chunk) state[record.key] = record.value;
        cursor = chunk.back().offset + 1;
      }
      return {timer.ElapsedUs(), state.size()};
    };

    const uint64_t bytes_before = (*log)->size_bytes();
    auto [before_us, before_keys] = recover();

    auto stats = (*log)->Compact();
    const uint64_t bytes_after = (*log)->size_bytes();
    auto [after_us, after_keys] = recover();

    if (!stats.ok() || before_keys != after_keys) {
      std::printf("ERROR: compaction changed the materialized view!\n");
      return;
    }
    table.AddRow({std::to_string(keys), std::to_string(updates_per_key),
                  std::to_string(bytes_before), std::to_string(bytes_after),
                  Fmt(static_cast<double>(bytes_before) /
                          static_cast<double>(bytes_after),
                      1) + "x",
                  std::to_string(before_us), std::to_string(after_us),
                  Fmt(static_cast<double>(before_us) /
                          static_cast<double>(after_us + 1),
                      1) + "x"});
  }
  table.Print(
      "E4: log compaction — changelog size & recovery time (2000 keys)");
}

/// Skewed updates (profile-update shape): the hot keys dominate, compaction
/// wins even more.
void RunSkewed() {
  Table table({"distribution", "records", "bytes_before", "bytes_after",
               "size_reduction"});
  for (double theta : {0.5, 0.9, 0.99}) {
    MemDisk disk;
    SystemClock clock;
    LogConfig config;
    config.segment_bytes = 256 * 1024;
    config.compaction_enabled = true;
    auto log = Log::Open(&disk, nullptr, "z/", config, &clock);
    ZipfGenerator zipf(5000, theta, 7);
    Random rng(1);
    const int total = 50'000;
    std::vector<Record> batch;
    for (int i = 0; i < total; ++i) {
      batch.push_back(Record::KeyValue("user" + std::to_string(zipf.Next()),
                                       rng.Bytes(64)));
      if (batch.size() == 1000) {
        LIQUID_CHECK_OK((*log)->AppendBatch(&batch));
        batch.clear();
      }
    }
    const uint64_t before = (*log)->size_bytes();
    LIQUID_CHECK_OK((*log)->Compact());
    const uint64_t after = (*log)->size_bytes();
    table.AddRow({"zipf(theta=" + Fmt(theta, 2) + ")", std::to_string(total),
                  std::to_string(before), std::to_string(after),
                  Fmt(static_cast<double>(before) / static_cast<double>(after),
                      1) + "x"});
  }
  table.Print("E4b: compaction under skewed (profile-update) workloads");
}

}  // namespace
}  // namespace liquid::storage

int main() {
  liquid::storage::RunSweep();
  liquid::storage::RunSkewed();
  return 0;
}
