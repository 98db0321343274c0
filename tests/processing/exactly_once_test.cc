#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "processing/job.h"
#include "processing/operators.h"
#include "processing_test_util.h"

namespace liquid::processing {
namespace {

using messaging::TopicPartition;
using storage::Record;

/// Exactly-once read-process-write (§4.3 "ongoing effort to design and
/// implement support for exactly-once semantics"): outputs, changelog updates
/// and input checkpoints commit atomically; a crash mid-cycle leaves an
/// aborted transaction whose effects are invisible, so replay produces no
/// duplicates for read_committed consumers.
class ExactlyOnceTest : public ProcessingTestBase {
 protected:
  void SetUp() override {
    ProcessingTestBase::SetUp();
    txn_ = std::make_unique<messaging::TransactionCoordinator>(cluster_.get(),
                                                               offsets_.get());
    CreateTopic("in", 1);
    CreateTopic("out", 1);
  }

  JobConfig ForwarderConfig(bool exactly_once) {
    JobConfig config;
    config.name = "fwd";
    config.inputs = {"in"};
    config.exactly_once = exactly_once;
    return config;
  }

  TaskFactory Forwarder() {
    return [] {
      return std::make_unique<MapTask>(
          "out", [](const messaging::ConsumerRecord& envelope) {
            return std::optional<Record>(envelope.record);
          });
    };
  }

  std::unique_ptr<Job> MakeEoJob(const JobConfig& config) {
    auto job = Job::Create(cluster_.get(), offsets_.get(), coordinator_.get(),
                           &state_disk_, config, Forwarder(), "0", txn_.get());
    EXPECT_TRUE(job.ok()) << job.status().ToString();
    return std::move(job).value();
  }

  /// Values visible to a read_committed consumer of "out".
  std::vector<std::string> CommittedOutput(const std::string& group) {
    messaging::ConsumerConfig config;
    config.group = group;
    config.read_committed = true;
    messaging::Consumer consumer(cluster_.get(), offsets_.get(),
                                 coordinator_.get(), group + "-m", config);
    LIQUID_EXPECT_OK(consumer.Subscribe({"out"}));
    std::vector<std::string> values;
    for (int i = 0; i < 20; ++i) {
      auto records = consumer.Poll(256);
      if (!records.ok()) break;
      for (const auto& envelope : *records) {
        values.push_back(envelope.record.value);
      }
    }
    return values;
  }

  std::unique_ptr<messaging::TransactionCoordinator> txn_;
};

TEST_F(ExactlyOnceTest, RequiresCoordinator) {
  auto job = Job::Create(cluster_.get(), offsets_.get(), coordinator_.get(),
                         &state_disk_, ForwarderConfig(true), Forwarder());
  EXPECT_TRUE(job.status().IsInvalidArgument());
}

TEST_F(ExactlyOnceTest, HappyPathDeliversEverythingOnce) {
  std::vector<Record> input;
  for (int i = 0; i < 25; ++i) {
    input.push_back(Record::KeyValue("k", "v" + std::to_string(i)));
  }
  Produce("in", input);

  auto job = MakeEoJob(ForwarderConfig(true));
  ASSERT_TRUE(job->RunUntilIdle().ok());
  ASSERT_TRUE(job->Stop().ok());
  EXPECT_EQ(CommittedOutput("check").size(), 25u);
}

TEST_F(ExactlyOnceTest, CrashBeforeCommitProducesNoDuplicates) {
  std::vector<Record> input;
  for (int i = 0; i < 10; ++i) {
    input.push_back(Record::KeyValue("k", "v" + std::to_string(i)));
  }
  Produce("in", input);

  {
    // First incarnation processes everything but CRASHES before committing:
    // its transaction stays open, its offsets were never checkpointed.
    auto job = MakeEoJob(ForwarderConfig(true));
    ASSERT_TRUE(job->RunOnce().ok());  // Processes + produces inside the txn.
    ASSERT_TRUE(job->Kill().ok());     // SIGKILL: no commit.
  }
  // Nothing is visible: the transaction never committed.
  EXPECT_TRUE(CommittedOutput("mid").empty());

  // The next incarnation fences the zombie (aborting its txn), re-reads the
  // input from the last committed offset (0) and commits.
  auto job = MakeEoJob(ForwarderConfig(true));
  ASSERT_TRUE(job->RunUntilIdle().ok());
  ASSERT_TRUE(job->Stop().ok());

  auto values = CommittedOutput("final");
  ASSERT_EQ(values.size(), 10u);  // Exactly once, despite the replay.
  std::map<std::string, int> counts;
  for (const auto& value : values) counts[value]++;
  for (const auto& [value, count] : counts) {
    EXPECT_EQ(count, 1) << value;
  }
}

TEST_F(ExactlyOnceTest, AtLeastOnceBaselineDuplicatesUnderSameCrash) {
  // The contrast case: without exactly_once the same crash yields duplicates
  // (output flushed, offsets not committed -> replay re-emits).
  std::vector<Record> input;
  for (int i = 0; i < 10; ++i) {
    input.push_back(Record::KeyValue("k", "v" + std::to_string(i)));
  }
  Produce("in", input);

  {
    auto job = MakeJob(ForwarderConfig(false), Forwarder());
    ASSERT_TRUE(job->RunOnce().ok());  // Outputs flushed immediately.
    ASSERT_TRUE(job->Kill().ok());     // Crash before checkpoint.
  }
  auto job = MakeJob(ForwarderConfig(false), Forwarder());
  ASSERT_TRUE(job->RunUntilIdle().ok());
  ASSERT_TRUE(job->Stop().ok());

  EXPECT_EQ(CommittedOutput("dup-check").size(), 20u);  // Each record twice.
}

TEST_F(ExactlyOnceTest, OffsetsAdvanceOnlyOnCommit) {
  std::vector<Record> input{Record::KeyValue("k", "v")};
  Produce("in", input);
  const TopicPartition tp{"in", 0};

  {
    auto job = MakeEoJob(ForwarderConfig(true));
    ASSERT_TRUE(job->RunOnce().ok());
    // Crash: offsets must NOT have advanced.
    ASSERT_TRUE(job->Kill().ok());
  }
  EXPECT_TRUE(offsets_->Fetch("job.fwd", tp).status().IsNotFound());

  auto job = MakeEoJob(ForwarderConfig(true));
  ASSERT_TRUE(job->RunUntilIdle().ok());
  ASSERT_TRUE(job->Stop().ok());
  EXPECT_EQ(offsets_->Fetch("job.fwd", tp)->offset, 1);
}

TEST_F(ExactlyOnceTest, StatefulExactlyOnceCountsAreExact) {
  JobConfig config;
  config.name = "eo-counter";
  config.inputs = {"in"};
  config.exactly_once = true;
  config.stores = {{"counts", StoreConfig::Kind::kInMemory, true}};

  std::vector<Record> input;
  for (int i = 0; i < 12; ++i) input.push_back(Record::KeyValue("user", "e"));
  Produce("in", input);

  auto factory = [] { return std::make_unique<KeyedCounterTask>("counts"); };
  {
    auto job = Job::Create(cluster_.get(), offsets_.get(), coordinator_.get(),
                           &state_disk_, config, factory, "0", txn_.get());
    ASSERT_TRUE((*job)->RunOnce().ok());
    ASSERT_TRUE((*job)->Kill().ok());  // Crash: txn (incl. changelog) aborted.
  }
  // Restart on a fresh machine: the aborted changelog entries are invisible
  // to the read_committed restore, so the count is rebuilt exactly.
  storage::MemDisk fresh;
  auto job = Job::Create(cluster_.get(), offsets_.get(), coordinator_.get(),
                         &fresh, config, factory, "0", txn_.get());
  ASSERT_TRUE((*job)->RunUntilIdle().ok());
  KeyValueStore* store = (*job)->GetStore(0, "counts");
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(*store->Get("user"), "12");  // Not 24.
  ASSERT_TRUE((*job)->Stop().ok());
}

// A crash on the same machine: the restarted job finds the state disk as the
// crash left it. The kv store must hold no state of the aborted transaction,
// since the read_committed restore replays only committed changelog records
// and has nothing to overwrite it with.
class SameDiskRestartTest : public ExactlyOnceTest {
 protected:
  JobConfig CounterConfig() {
    JobConfig config;
    config.name = "eo-same-disk";
    config.inputs = {"in"};
    config.exactly_once = true;
    config.stores = {{"counts", StoreConfig::Kind::kPersistent, true}};
    return config;
  }

  std::unique_ptr<Job> MakeCounter(const JobConfig& config) {
    auto factory = [] {
      return std::make_unique<KeyedCounterTask>("counts", "out");
    };
    auto job = Job::Create(cluster_.get(), offsets_.get(), coordinator_.get(),
                           &state_disk_, config, factory, "0", txn_.get());
    EXPECT_TRUE(job.ok()) << job.status().ToString();
    return std::move(job).value();
  }

  void ProduceOneKey(int records) {
    std::vector<Record> input;
    for (int i = 0; i < records; ++i) {
      input.push_back(Record::KeyValue("user", "e"));
    }
    Produce("in", input);
  }

  /// Restarts on the same state disk, runs to the end and returns the count.
  std::string CountAfterRestart(const JobConfig& config) {
    auto job = MakeCounter(config);
    EXPECT_TRUE(job->RunUntilIdle().ok());
    KeyValueStore* store = job->GetStore(0, "counts");
    EXPECT_NE(store, nullptr);
    std::string count;
    if (store != nullptr) {
      auto stored = store->Get("user");
      if (stored.ok()) count = *stored;
    }
    LIQUID_EXPECT_OK(job->Stop());
    return count;
  }
};

TEST_F(SameDiskRestartTest, AbortedTransactionLeavesNoStateOnTheDisk) {
  ProduceOneKey(12);
  const JobConfig config = CounterConfig();
  {
    auto job = MakeCounter(config);
    auto processed = job->RunOnce();  // All 12, inside the transaction.
    ASSERT_TRUE(processed.ok());
    ASSERT_EQ(*processed, 12);
    LIQUID_ASSERT_OK(job->Kill());  // Crash before the commit.
  }
  EXPECT_EQ(CountAfterRestart(config), "12");  // Not 24.
}

TEST_F(SameDiskRestartTest, OrderedReadsInTheTransactionWriteNothingThrough) {
  // The task's Window() scans the store in key order (ForEach) while the
  // transaction is open; the scan must not write dirty keys through.
  ProduceOneKey(12);
  JobConfig config = CounterConfig();
  config.poll_max_records = 6;
  config.window_interval_ms = 1;
  {
    auto job = MakeCounter(config);
    for (int round = 0; round < 2; ++round) {
      clock_.AdvanceMs(5);  // Each round ends with a Window() call.
      auto processed = job->RunOnce();
      ASSERT_TRUE(processed.ok());
      ASSERT_EQ(*processed, 6);
    }
    LIQUID_ASSERT_OK(job->Kill());
  }
  EXPECT_EQ(CountAfterRestart(config), "12");
}

TEST_F(SameDiskRestartTest, WindowOnlyStateChangesCommitInTheirOwnTransaction) {
  // Window() may change state in a round that processed no input, when no
  // transaction is open; the commit opens one for those changelog records.
  JobConfig config;
  config.name = "eo-window";
  config.inputs = {"in"};
  config.exactly_once = true;
  config.window_interval_ms = 1000;
  config.stores = {{"windows", StoreConfig::Kind::kInMemory, true}};
  auto factory = [] {
    return std::make_unique<WindowedAggregateTask>("windows", "out", 1000);
  };
  Produce("in", {Record::KeyValue("a", "5", /*ts_ms=*/100),
                 Record::KeyValue("a", "7", /*ts_ms=*/1500)});
  const std::string closed = WindowedAggregateTask::WindowKey(0, "a");
  const std::string open = WindowedAggregateTask::WindowKey(1000, "a");
  {
    auto job = Job::Create(cluster_.get(), offsets_.get(), coordinator_.get(),
                           &state_disk_, config, factory, "0", txn_.get());
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    auto processed = (*job)->RunOnce();
    ASSERT_TRUE(processed.ok());
    ASSERT_EQ(*processed, 2);
    LIQUID_ASSERT_OK((*job)->Commit());
    clock_.AdvanceMs(2000);
    processed = (*job)->RunOnce();  // No input; Window() drops `closed`.
    ASSERT_TRUE(processed.ok());
    ASSERT_EQ(*processed, 0);
    KeyValueStore* live = (*job)->GetStore(0, "windows");
    ASSERT_NE(live, nullptr);
    EXPECT_TRUE(live->Get(closed).status().IsNotFound());
    LIQUID_ASSERT_OK((*job)->Stop());
  }
  storage::MemDisk fresh;
  auto job = Job::Create(cluster_.get(), offsets_.get(), coordinator_.get(),
                         &fresh, config, factory, "0", txn_.get());
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_TRUE((*job)->RunOnce().ok());  // Restores from the changelog.
  KeyValueStore* store = (*job)->GetStore(0, "windows");
  ASSERT_NE(store, nullptr);
  EXPECT_TRUE(store->Get(closed).status().IsNotFound());
  EXPECT_EQ(*store->Get(open), "7");
  LIQUID_ASSERT_OK((*job)->Stop());
}

TEST_F(SameDiskRestartTest, ExactlyOnceRequiresTheChangelogRestore) {
  JobConfig config = CounterConfig();
  config.restore_from_changelog = false;
  auto job = Job::Create(
      cluster_.get(), offsets_.get(), coordinator_.get(), &state_disk_, config,
      [] { return std::make_unique<KeyedCounterTask>("counts"); }, "0",
      txn_.get());
  EXPECT_TRUE(job.status().IsInvalidArgument()) << job.status().ToString();
}

// The consumer keeps the undelivered tail of each fetch. A checkpoint must
// name the next record the job has not processed, never the end of the
// fetch: commit while records are buffered, crash, restart, and every input
// must be counted exactly once.
TEST_F(ExactlyOnceTest, CommitWhileInputIsBufferedSkipsAndRepeatsNothing) {
  JobConfig config;
  config.name = "eo-buffered";
  config.inputs = {"in"};
  config.exactly_once = true;
  config.poll_max_records = 16;
  config.stores = {{"counts", StoreConfig::Kind::kPersistent, true}};

  std::vector<Record> input;
  std::map<std::string, int> reference;  // The fold: count by key.
  for (int i = 0; i < 200; ++i) {
    const std::string key = "k" + std::to_string(i % 7);
    input.push_back(Record::KeyValue(key, "e"));
    ++reference[key];
  }
  Produce("in", input);
  const TopicPartition tp{"in", 0};

  auto factory = [] { return std::make_unique<KeyedCounterTask>("counts"); };
  {
    auto job = Job::Create(cluster_.get(), offsets_.get(), coordinator_.get(),
                           &state_disk_, config, factory, "0", txn_.get());
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    // One fetch reads all 200 records; three polls deliver 48 of them.
    for (int i = 0; i < 3; ++i) {
      auto processed = (*job)->RunOnce();
      ASSERT_TRUE(processed.ok());
      ASSERT_EQ(*processed, 16);
    }
    LIQUID_ASSERT_OK((*job)->Commit());
    EXPECT_EQ(offsets_->Fetch("job.eo-buffered", tp)->offset, 48);
    // Process more inside a transaction that the crash leaves open.
    ASSERT_TRUE((*job)->RunOnce().ok());
    LIQUID_ASSERT_OK((*job)->Kill());
  }
  // A fresh machine: the store is rebuilt from the committed changelog, and
  // the input resumes at the committed offset.
  storage::MemDisk fresh;
  auto job = Job::Create(cluster_.get(), offsets_.get(), coordinator_.get(),
                         &fresh, config, factory, "0", txn_.get());
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_TRUE((*job)->RunUntilIdle().ok());
  KeyValueStore* store = (*job)->GetStore(0, "counts");
  ASSERT_NE(store, nullptr);
  for (const auto& [key, count] : reference) {
    auto stored = store->Get(key);
    ASSERT_TRUE(stored.ok()) << key;
    EXPECT_EQ(*stored, std::to_string(count)) << key;
  }
  LIQUID_ASSERT_OK((*job)->Stop());
  EXPECT_EQ(offsets_->Fetch("job.eo-buffered", tp)->offset, 200);
}

}  // namespace
}  // namespace liquid::processing
