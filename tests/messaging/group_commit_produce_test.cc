// Broker-level group commit: acks=all on a sync_mode=group topic maps the
// ack onto the fsync group (Broker::Produce awaits durability after the
// replication push), so the E7b invariant extends to single-node crashes —
// records acknowledged with acks=all survive the broker losing everything
// that was never fsynced; batches whose group sync failed are NOT
// acknowledged and may be lost.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "messaging/broker.h"
#include "messaging/cluster.h"
#include "storage/log.h"

#include "read_util.h"
#include "test_util.h"

namespace liquid::messaging {
namespace {

class GroupCommitProduceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.num_brokers = 1;
    cluster_ = std::make_unique<Cluster>(config, &clock_);
    ASSERT_TRUE(cluster_->Start().ok());
    TopicConfig topic;
    topic.partitions = 1;
    topic.replication_factor = 1;
    topic.log.sync_mode = storage::SyncMode::kGroup;
    ASSERT_TRUE(cluster_->CreateTopic("t", topic).ok());
  }

  // Some tests arm the process-wide fault registry; always restore the
  // disarmed production state, even when an ASSERT bails out early.
  void TearDown() override { FaultRegistry::Default()->Clear(); }

  Result<ProduceResponse> Produce(AckMode acks, const std::string& value,
                                  int64_t producer_id = storage::kNoProducerId,
                                  int32_t first_sequence = -1) {
    auto leader = cluster_->LeaderFor(tp_);
    if (!leader.ok()) return leader.status();
    std::vector<storage::Record> batch{storage::Record::KeyValue("k", value)};
    return (*leader)->Produce(tp_, std::move(batch), acks, producer_id,
                              first_sequence);
  }

  Status ProduceOne(AckMode acks, const std::string& value) {
    return Produce(acks, value).status();
  }

  int64_t CountFetchable() {
    auto leader = cluster_->LeaderFor(tp_);
    EXPECT_TRUE(leader.ok()) << leader.status().ToString();
    int64_t count = 0;
    int64_t cursor = 0;
    while (true) {
      auto fetch = (*leader)->Fetch(tp_, cursor, 1 << 20, -1);
      if (!fetch.ok() || fetch->batches.empty()) break;
      count += static_cast<int64_t>(Decoded(*fetch).size());
      cursor = fetch->next_fetch_offset;
    }
    return count;
  }

  const TopicPartition tp_{"t", 0};
  SimulatedClock clock_{1000};
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(GroupCommitProduceTest, AcksAllWaitsForGroupDurability) {
  for (int i = 0; i < 10; ++i) {
    LIQUID_ASSERT_OK(ProduceOne(AckMode::kAll, "v" + std::to_string(i)));
  }
  // Every acked record is fsynced: at least one group sync ran, and the
  // backing store would survive losing all unsynced bytes.
  EXPECT_GE(cluster_->disk(0)->sync_ops(), 1);
  cluster_->disk(0)->SimulateCrash();
  ASSERT_TRUE(cluster_->StopBroker(0).ok());
  ASSERT_TRUE(cluster_->RestartBroker(0).ok());
  EXPECT_EQ(CountFetchable(), 10);
}

TEST_F(GroupCommitProduceTest, FailedGroupSyncFailsTheAck) {
  LIQUID_ASSERT_OK(ProduceOne(AckMode::kAll, "durable"));
  cluster_->disk(0)->SetSyncFaultHook(
      [](const std::string&) { return Status::IOError("injected"); });
  // acks=all cannot be honoured while fsync fails; acks=1 still succeeds
  // (it never promised durability).
  EXPECT_FALSE(ProduceOne(AckMode::kAll, "lost?").ok());
  LIQUID_ASSERT_OK(ProduceOne(AckMode::kLeader, "unsynced"));

  // Crash: only the fsynced prefix survives — exactly the acked-all data.
  cluster_->disk(0)->SimulateCrash();
  cluster_->disk(0)->SetSyncFaultHook(nullptr);
  ASSERT_TRUE(cluster_->StopBroker(0).ok());
  ASSERT_TRUE(cluster_->RestartBroker(0).ok());
  EXPECT_EQ(CountFetchable(), 1);
}

TEST_F(GroupCommitProduceTest, FailedAppendRollsBackTheSequence) {
  // An append rejected before it reached the log must roll back the
  // idempotence sequence advance, or the producer's retry of that batch
  // would be dropped as a duplicate and never land.
  const int64_t pid = 7;
  LIQUID_ASSERT_OK(Produce(AckMode::kAll, "v0", pid, 0).status());

  FaultSiteConfig append_fault;
  append_fault.kind = FaultActionKind::kFail;
  append_fault.fail_code = StatusCode::kIOError;
  append_fault.max_triggers = 1;
  FaultRegistry::Default()->Arm("log.append.before", append_fault);
  EXPECT_FALSE(Produce(AckMode::kAll, "v1", pid, 1).ok());
  FaultRegistry::Default()->Clear();

  // The retry with the same sequence must be accepted, not deduplicated.
  auto resp = Produce(AckMode::kAll, "v1", pid, 1);
  LIQUID_ASSERT_OK(resp.status());
  EXPECT_EQ(resp->base_offset, 1);
  EXPECT_EQ(CountFetchable(), 2);
}

TEST_F(GroupCommitProduceTest, TxnMarkerIsReportedWrittenOnlyOnceDurable) {
  // A commit marker decides what read_committed consumers see, so it is an
  // acks=all write: while fsync fails it cannot be reported written unless
  // it survives the crash anyway.
  auto broker = cluster_->LeaderFor(tp_);
  LIQUID_ASSERT_OK(broker.status());
  const int64_t pid = 11;
  LIQUID_ASSERT_OK((*broker)->BeginPartitionTxn(tp_, pid));
  LIQUID_ASSERT_OK(Produce(AckMode::kAll, "txn-data", pid, 0).status());
  cluster_->disk(0)->SetSyncFaultHook(
      [](const std::string&) { return Status::IOError("injected"); });
  const Status marker = (*broker)->WriteTxnMarker(tp_, pid, /*committed=*/true);

  cluster_->disk(0)->SimulateCrash();
  cluster_->disk(0)->SetSyncFaultHook(nullptr);
  ASSERT_TRUE(cluster_->StopBroker(0).ok());
  ASSERT_TRUE(cluster_->RestartBroker(0).ok());
  auto end = cluster_->broker(0)->LogEndOffset(tp_);
  LIQUID_ASSERT_OK(end.status());
  EXPECT_TRUE(!marker.ok() || *end == 2)
      << "marker reported written but lost: log end " << *end;
}

TEST_F(GroupCommitProduceTest, ResendOfABatchWhoseSyncFailedIsAckedOnlyOnceDurable) {
  // The batch lands but its sync fails, so it is not acknowledged. The
  // producer's resend is a duplicate (same sequence) and must not be acked
  // on the strength of the dedup check alone: it waits for durability like
  // the original, and succeeds once the fault clears.
  const int64_t pid = 9;
  LIQUID_ASSERT_OK(Produce(AckMode::kAll, "v0", pid, 0).status());
  std::atomic<bool> fail{true};
  cluster_->disk(0)->SetSyncFaultHook([&fail](const std::string&) {
    return fail.load() ? Status::IOError("injected") : Status::OK();
  });
  EXPECT_FALSE(Produce(AckMode::kAll, "v1", pid, 1).ok());
  EXPECT_FALSE(Produce(AckMode::kAll, "v1", pid, 1).ok());

  fail.store(false);
  auto resend = Produce(AckMode::kAll, "v1", pid, 1);
  LIQUID_ASSERT_OK(resend.status());
  EXPECT_EQ(resend->base_offset, -1);  // Deduplicated, not appended again.

  cluster_->disk(0)->SimulateCrash();
  cluster_->disk(0)->SetSyncFaultHook(nullptr);
  ASSERT_TRUE(cluster_->StopBroker(0).ok());
  ASSERT_TRUE(cluster_->RestartBroker(0).ok());
  EXPECT_EQ(CountFetchable(), 2);
}

}  // namespace
}  // namespace liquid::messaging
