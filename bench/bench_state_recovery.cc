// Experiment E9 (§3.2, §4.1): stateful task recovery from the changelog.
// Restore time grows with changelog length; compacting the changelog first
// makes recovery proportional to the number of LIVE keys instead
// ("performing log compaction not only reduces the changelog size, but it
// also allows for faster recovery").
//
// A job commit publishes one changelog record per key it changed since the
// previous commit, so the job commits after every update round: each round
// updates every key once, and the changelog holds updates_per_key x keys
// records, the superseded ones included.
//
// Usage: bench_state_recovery [--json[=path]]
//   --json also writes the table to BENCH_state_recovery.json (or `path`).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "core/liquid.h"
#include "messaging/broker.h"
#include "processing/operators.h"

namespace liquid::core {
namespace {

using bench::Fmt;
using bench::Stopwatch;
using bench::Table;

constexpr int kKeys = 1000;

struct RecoveryResult {
  int updates_per_key;
  int64_t changelog_records;
  int64_t restore_us;
  int64_t compacted_restore_us;
};

void WriteJson(const char* path, const std::vector<RecoveryResult>& results) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"benchmark\": \"state_recovery\",\n  \"keys\": " << kKeys
      << ",\n  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const RecoveryResult& r = results[i];
    out << "    {\"updates_per_key\": " << r.updates_per_key
        << ", \"changelog_records\": " << r.changelog_records
        << ", \"restore_us\": " << r.restore_us
        << ", \"restore_after_compaction_us\": " << r.compacted_restore_us
        << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  if (!out) {
    std::fprintf(stderr, "warning: could not write %s\n", path);
  } else {
    std::printf("wrote %s\n", path);
  }
}

void Run(const char* json_path) {
  Table table({"updates_per_key", "changelog_records", "restore_us",
               "restore_after_compaction_us", "speedup"});
  std::vector<RecoveryResult> results;

  for (int updates_per_key : {1, 4, 16, 64}) {
    Liquid::Options options;
    options.cluster.num_brokers = 3;
    auto liquid = Liquid::Start(options);
    FeedOptions feed;
    feed.partitions = 1;
    LIQUID_CHECK_OK((*liquid)->CreateSourceFeed("events", feed));

    processing::JobConfig config;
    config.name = "counter";
    config.inputs = {"events"};
    config.stores = {{"counts", processing::StoreConfig::Kind::kInMemory, true}};
    config.poll_max_records = 4096;
    {
      auto job = (*liquid)->SubmitJob(config, [] {
        return std::make_unique<processing::KeyedCounterTask>("counts");
      });
      auto producer = (*liquid)->NewProducer();
      for (int round = 0; round < updates_per_key; ++round) {
        for (int k = 0; k < kKeys; ++k) {
          LIQUID_CHECK_OK(producer->Send("events", storage::Record::KeyValue(
                                       "user" + std::to_string(k), "e")));
        }
        LIQUID_CHECK_OK(producer->Flush());
        LIQUID_CHECK_OK((*job)->RunUntilIdle());  // Ends with a commit.
      }
      LIQUID_CHECK_OK((*liquid)->StopJob("counter"));
    }

    const std::string changelog =
        processing::Job::ChangelogTopic("counter", "counts");
    const messaging::TopicPartition changelog_tp{changelog, 0};
    auto leader = (*liquid)->cluster()->LeaderFor(changelog_tp);
    const int64_t changelog_records = *(*leader)->LogEndOffset(changelog_tp);

    // Restore on a fresh "machine" (container rescheduled): time to first
    // readiness.
    auto measure_restore = [&]() -> int64_t {
      storage::MemDisk fresh_disk;
      Stopwatch timer;
      auto job = processing::Job::Create(
          (*liquid)->cluster(), (*liquid)->offsets(), (*liquid)->groups(),
          &fresh_disk, config, [] {
            return std::make_unique<processing::KeyedCounterTask>("counts");
          });
      LIQUID_CHECK_OK((*job)->RunOnce());  // Triggers eager task creation + restore.
      const int64_t us = timer.ElapsedUs();
      LIQUID_CHECK_OK((*job)->Stop());
      return us;
    };

    const int64_t restore_us = measure_restore();
    // Compact the changelog (broker-side maintenance, §4.1), then restore.
    LIQUID_CHECK_OK((*leader)->CompactPartition(changelog_tp));
    const int64_t compacted_us = measure_restore();

    results.push_back(
        {updates_per_key, changelog_records, restore_us, compacted_us});
    table.AddRow({std::to_string(updates_per_key),
                  std::to_string(changelog_records),
                  std::to_string(restore_us), std::to_string(compacted_us),
                  Fmt(static_cast<double>(restore_us) /
                          static_cast<double>(compacted_us + 1),
                      1) + "x"});
  }
  table.Print(
      "E9: stateful-task recovery from changelog (1000 live keys, one commit "
      "per update round; restore on a fresh machine)");
  if (json_path != nullptr) WriteJson(json_path, results);
}

}  // namespace
}  // namespace liquid::core

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = "BENCH_state_recovery.json";
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "usage: %s [--json[=path]]\n", argv[0]);
      return 2;
    }
  }
  liquid::core::Run(json_path);
  return 0;
}
