#include <gtest/gtest.h>

#include <cstdlib>

#include "processing/job.h"
#include "processing/operators.h"
#include "processing_test_util.h"

namespace liquid::processing {
namespace {

using messaging::TopicPartition;
using storage::Record;

/// Stateful-task failure recovery via the changelog (§3.2: "the processing
/// layer publish[es] state updates to a changelog ... after failure, state is
/// reconstructed from the changelog") — experiment E9's correctness side.
class RecoveryTest : public ProcessingTestBase {
 protected:
  JobConfig CounterConfig(const std::string& name, bool changelog = true) {
    JobConfig config;
    config.name = name;
    config.inputs = {"in"};
    config.stores = {{"counts", StoreConfig::Kind::kInMemory, changelog}};
    return config;
  }

  int64_t StoredCount(Job* job, const std::string& key, int partition = 0) {
    KeyValueStore* store =
        job->GetStore(TopicPartition{"in", partition}, "counts");
    if (store == nullptr) return -1;
    auto value = store->Get(key);
    if (!value.ok()) return 0;
    return std::strtoll(value->c_str(), nullptr, 10);
  }
};

TEST_F(RecoveryTest, StateRestoredFromChangelogAfterTaskLoss) {
  CreateTopic("in", 1);
  std::vector<Record> records;
  for (int i = 0; i < 30; ++i) {
    records.push_back(Record::KeyValue("user" + std::to_string(i % 3), "e"));
  }
  Produce("in", records);

  {
    auto job = MakeJob(CounterConfig("counter"),
                       [] { return std::make_unique<KeyedCounterTask>("counts"); });
    ASSERT_TRUE(job->RunUntilIdle().ok());
    EXPECT_EQ(StoredCount(job.get(), "user0"), 10);
    ASSERT_TRUE(job->Stop().ok());
  }

  // The container is rescheduled on a NEW machine: fresh state disk, state
  // must come back from the changelog feed alone.
  storage::MemDisk fresh_disk;
  auto job = MakeJob(CounterConfig("counter"),
                     [] { return std::make_unique<KeyedCounterTask>("counts"); },
                     &fresh_disk);
  ASSERT_TRUE(job->RunUntilIdle().ok());  // No new input.
  EXPECT_EQ(StoredCount(job.get(), "user0"), 10);
  EXPECT_EQ(StoredCount(job.get(), "user1"), 10);
  EXPECT_EQ(StoredCount(job.get(), "user2"), 10);
  EXPECT_GT(job->metrics()
                ->GetCounter("job.counter.restored_records")
                ->value(),
            0);
}

TEST_F(RecoveryTest, RecoveredStateContinuesIncrementally) {
  CreateTopic("in", 1);
  std::vector<Record> first;
  for (int i = 0; i < 10; ++i) first.push_back(Record::KeyValue("k", "e"));
  Produce("in", first);
  {
    auto job = MakeJob(CounterConfig("cont"),
                       [] { return std::make_unique<KeyedCounterTask>("counts"); });
    ASSERT_TRUE(job->RunUntilIdle().ok());
    ASSERT_TRUE(job->Stop().ok());
  }
  // More data while down.
  Produce("in", first);

  storage::MemDisk fresh_disk;
  auto job = MakeJob(CounterConfig("cont"),
                     [] { return std::make_unique<KeyedCounterTask>("counts"); },
                     &fresh_disk);
  ASSERT_TRUE(job->RunUntilIdle().ok());
  // 10 restored + 10 newly processed, no double counting of the first batch.
  EXPECT_EQ(StoredCount(job.get(), "k"), 20);
}

TEST_F(RecoveryTest, WithoutChangelogStateIsLost) {
  CreateTopic("in", 1);
  std::vector<Record> records;
  for (int i = 0; i < 10; ++i) records.push_back(Record::KeyValue("k", "e"));
  Produce("in", records);
  {
    auto job =
        MakeJob(CounterConfig("lossy", /*changelog=*/false),
                [] { return std::make_unique<KeyedCounterTask>("counts"); });
    ASSERT_TRUE(job->RunUntilIdle().ok());
    EXPECT_EQ(StoredCount(job.get(), "k"), 10);
    ASSERT_TRUE(job->Stop().ok());
  }
  storage::MemDisk fresh_disk;
  auto job = MakeJob(CounterConfig("lossy", /*changelog=*/false),
                     [] { return std::make_unique<KeyedCounterTask>("counts"); },
                     &fresh_disk);
  ASSERT_TRUE(job->RunUntilIdle().ok());
  // Offsets were committed, state was not replicated: counts are gone. This
  // is exactly why changelogs exist.
  EXPECT_LE(StoredCount(job.get(), "k"), 0);
}

TEST_F(RecoveryTest, ChangelogIsCompactedKeyedFeed) {
  CreateTopic("in", 1);
  // Many updates to few keys.
  std::vector<Record> records;
  for (int i = 0; i < 200; ++i) {
    records.push_back(Record::KeyValue("k" + std::to_string(i % 4), "e"));
  }
  Produce("in", records);
  // A commit publishes one changelog record per key it dirtied, so each of
  // the 50 rounds of 4 updates gets its own commit: the changelog then holds
  // every update, and compaction has superseded records to drop.
  JobConfig job_config = CounterConfig("compacting");
  job_config.poll_max_records = 4;
  auto job = MakeJob(job_config,
                     [] { return std::make_unique<KeyedCounterTask>("counts"); });
  for (int round = 0; round < 50; ++round) {
    auto processed = job->RunOnce();
    ASSERT_TRUE(processed.ok());
    ASSERT_EQ(*processed, 4) << round;
    LIQUID_ASSERT_OK(job->Commit());
  }

  const std::string changelog = Job::ChangelogTopic("compacting", "counts");
  auto config = cluster_->GetTopicConfig(changelog);
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->log.compaction_enabled);
  EXPECT_EQ(ReadAll(TopicPartition{changelog, 0}).size(), 200u);

  // Compact and verify only the latest update per key survives the cleaned
  // portion while restore still yields correct state (§4.1: "performing log
  // compaction not only reduces the changelog size, but it also allows for
  // faster recovery").
  const TopicPartition changelog_tp{changelog, 0};
  auto leader = cluster_->LeaderFor(changelog_tp);
  auto stats = (*leader)->CompactPartition(changelog_tp);
  ASSERT_TRUE(stats.ok());

  ASSERT_TRUE(job->Stop().ok());
  storage::MemDisk fresh_disk;
  auto restored = MakeJob(CounterConfig("compacting"),
                          [] { return std::make_unique<KeyedCounterTask>("counts"); },
                          &fresh_disk);
  ASSERT_TRUE(restored->RunUntilIdle().ok());
  EXPECT_EQ(StoredCount(restored.get(), "k0"), 50);
  EXPECT_EQ(StoredCount(restored.get(), "k3"), 50);
}

TEST_F(RecoveryTest, PersistentStoreSkipsChangelogWhenDiskSurvives) {
  CreateTopic("in", 1);
  std::vector<Record> records;
  for (int i = 0; i < 10; ++i) records.push_back(Record::KeyValue("k", "e"));
  Produce("in", records);

  JobConfig config;
  config.name = "durable";
  config.inputs = {"in"};
  config.stores = {{"counts", StoreConfig::Kind::kPersistent, true}};
  {
    auto job = MakeJob(config,
                       [] { return std::make_unique<KeyedCounterTask>("counts"); });
    ASSERT_TRUE(job->RunUntilIdle().ok());
    ASSERT_TRUE(job->Stop().ok());
  }
  // Same disk (restart on the same machine): state is already there; the
  // changelog replay is idempotent (latest value per key overwrites).
  auto job = MakeJob(config,
                     [] { return std::make_unique<KeyedCounterTask>("counts"); });
  ASSERT_TRUE(job->RunUntilIdle().ok());
  EXPECT_EQ(StoredCount(job.get(), "k"), 10);
}

}  // namespace
}  // namespace liquid::processing
