// TSan stress: readers go through Job::GetStore while the job's thread runs
// RunOnce and Commit, so every read of a changelogged store races the task's
// mutations of its dirty set and the commit that applies the set to the kv
// store.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "processing/job.h"
#include "processing/operators.h"
#include "processing_test_util.h"

namespace liquid::processing {
namespace {

using storage::Record;

class StateStoreStressTest : public ProcessingTestBase {};

TEST_F(StateStoreStressTest, ReadsDuringRunOnceAndCommitSeeMonotoneCounts) {
  constexpr int kPartitions = 2;
  constexpr int kKeys = 20;
  constexpr int kRecords = 6000;
  CreateTopic("in", kPartitions);
  std::vector<Record> input;
  std::map<std::string, int64_t> reference;
  for (int i = 0; i < kRecords; ++i) {
    const std::string key = "k" + std::to_string(i % kKeys);
    input.push_back(Record::KeyValue(key, "e"));
    ++reference[key];
  }
  Produce("in", input);

  JobConfig config;
  config.name = "stress";
  config.inputs = {"in"};
  config.poll_max_records = 50;
  config.stores = {{"counts", StoreConfig::Kind::kPersistent, true}};
  auto job = MakeJob(
      config, [] { return std::make_unique<KeyedCounterTask>("counts"); });

  std::atomic<bool> done{false};
  std::atomic<int64_t> violations{0};
  auto reader = [&] {
    // Counts only grow: a read must never see a commit's apply half done.
    std::map<std::pair<int, std::string>, int64_t> last;
    while (!done.load()) {
      for (int p = 0; p < kPartitions; ++p) {
        KeyValueStore* store = job->GetStore(p, "counts");
        if (store == nullptr) continue;
        for (int k = 0; k < kKeys; ++k) {
          const std::string key = "k" + std::to_string(k);
          auto value = store->Get(key);
          if (!value.ok()) {
            if (!value.status().IsNotFound()) violations.fetch_add(1);
            continue;
          }
          const int64_t count = std::strtoll(value->c_str(), nullptr, 10);
          int64_t& seen = last[{p, key}];
          if (count < seen) violations.fetch_add(1);
          seen = count;
        }
        std::string previous;
        int64_t visited = 0;
        const Status scan =
            store->ForEach([&](const Slice& key, const Slice&) {
              if (visited++ > 0 && key.ToString() <= previous) {
                violations.fetch_add(1);  // Out of key order.
              }
              previous = key.ToString();
            });
        if (!scan.ok()) violations.fetch_add(1);
        // Count and ForEach are separate reads: a key may appear between
        // them, but none disappears.
        auto count = store->Count();
        if (!count.ok() || *count < visited) violations.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) readers.emplace_back(reader);

  int64_t processed = 0;
  for (int round = 0; processed < kRecords && round < 10'000; ++round) {
    auto n = job->RunOnce();
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    processed += *n;
    if (round % 3 == 2) LIQUID_ASSERT_OK(job->Commit());
  }
  LIQUID_ASSERT_OK(job->Commit());
  done.store(true);
  for (auto& thread : readers) thread.join();

  EXPECT_EQ(processed, kRecords);
  EXPECT_EQ(violations.load(), 0);
  std::map<std::string, int64_t> totals;
  for (int p = 0; p < kPartitions; ++p) {
    KeyValueStore* store = job->GetStore(p, "counts");
    ASSERT_NE(store, nullptr);
    LIQUID_ASSERT_OK(store->ForEach([&](const Slice& key, const Slice& value) {
      totals[key.ToString()] +=
          std::strtoll(value.ToString().c_str(), nullptr, 10);
    }));
  }
  EXPECT_EQ(totals, reference);
  LIQUID_ASSERT_OK(job->Stop());
}

}  // namespace
}  // namespace liquid::processing
