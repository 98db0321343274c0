#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/clock.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "messaging/broker.h"
#include "messaging/cluster.h"
#include "messaging/consumer.h"
#include "messaging/group_coordinator.h"
#include "messaging/offset_manager.h"
#include "messaging/producer.h"
#include "storage/disk.h"

#include "read_util.h"
#include "test_util.h"

namespace liquid::messaging {
namespace {

/// Broker-failure handling: leader re-election from the ISR, durability
/// trade-offs across ack levels, unclean election (§4.3, experiment E8).
class FailoverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.num_brokers = 3;
    cluster_ = std::make_unique<Cluster>(config, &clock_);
    ASSERT_TRUE(cluster_->Start().ok());
  }

  // Some tests arm the process-wide fault registry; always restore the
  // disarmed production state, even when an ASSERT bails out early.
  void TearDown() override { FaultRegistry::Default()->Clear(); }

  void CreateTopic(const std::string& name, int rf, bool unclean = false) {
    TopicConfig config;
    config.partitions = 1;
    config.replication_factor = rf;
    config.unclean_leader_election = unclean;
    ASSERT_TRUE(cluster_->CreateTopic(name, config).ok());
  }

  int Produce(const TopicPartition& tp, int count, AckMode acks) {
    int succeeded = 0;
    for (int i = 0; i < count; ++i) {
      auto leader = cluster_->LeaderFor(tp);
      if (!leader.ok()) continue;
      std::vector<storage::Record> batch{
          storage::Record::KeyValue("k", "v" + std::to_string(i))};
      if ((*leader)->Produce(tp, batch, acks).ok()) ++succeeded;
    }
    return succeeded;
  }

  int64_t CommittedRecords(const TopicPartition& tp) {
    auto leader = cluster_->LeaderFor(tp);
    if (!leader.ok()) return -1;
    int64_t total = 0;
    int64_t cursor = 0;
    while (true) {
      auto fetch = (*leader)->Fetch(tp, cursor, 1 << 20, -1);
      if (!fetch.ok() || fetch->batches.empty()) break;
      total += static_cast<int64_t>(Decoded(*fetch).size());
      cursor = fetch->next_fetch_offset;
    }
    return total;
  }

  SimulatedClock clock_{1000};
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(FailoverTest, LeaderDeathTriggersReElectionFromIsr) {
  CreateTopic("t", 3);
  const TopicPartition tp{"t", 0};
  ASSERT_EQ(Produce(tp, 5, AckMode::kAll), 5);

  auto before = cluster_->GetPartitionState(tp);
  LIQUID_ASSERT_OK(cluster_->StopBroker(before->leader));
  cluster_->ReplicationTick();  // Surviving followers fetch from the new
  cluster_->ReplicationTick();  // leader, re-advancing the high-watermark.

  auto after = cluster_->GetPartitionState(tp);
  EXPECT_NE(after->leader, before->leader);
  EXPECT_GT(after->leader_epoch, before->leader_epoch);
  // The new leader came from the old ISR.
  EXPECT_TRUE(std::find(before->isr.begin(), before->isr.end(), after->leader) !=
              before->isr.end());
  // No committed data lost (acks=all).
  EXPECT_EQ(CommittedRecords(tp), 5);
}

TEST_F(FailoverTest, AcksAllLosesNothingAcrossFailover) {
  CreateTopic("t", 3);
  const TopicPartition tp{"t", 0};
  const int acked = Produce(tp, 20, AckMode::kAll);
  LIQUID_ASSERT_OK(cluster_->StopBroker(cluster_->GetPartitionState(tp)->leader));
  cluster_->ReplicationTick();
  cluster_->ReplicationTick();
  EXPECT_EQ(CommittedRecords(tp), acked);
}

TEST_F(FailoverTest, AcksLeaderMayLoseUnreplicatedRecords) {
  CreateTopic("t", 3);
  const TopicPartition tp{"t", 0};
  // No replication ticks: records sit only on the leader.
  const int acked = Produce(tp, 20, AckMode::kLeader);
  ASSERT_EQ(acked, 20);
  LIQUID_ASSERT_OK(cluster_->StopBroker(cluster_->GetPartitionState(tp)->leader));
  const int64_t survived = CommittedRecords(tp);
  // The durability trade-off (§4.3): acknowledged-but-unreplicated data is
  // gone after failover.
  EXPECT_LT(survived, acked);
}

TEST_F(FailoverTest, AcksLeaderKeepsReplicatedRecords) {
  CreateTopic("t", 3);
  const TopicPartition tp{"t", 0};
  Produce(tp, 20, AckMode::kLeader);
  cluster_->ReplicationTick();  // Replicate...
  cluster_->ReplicationTick();  // ...and advance the HW.
  LIQUID_ASSERT_OK(cluster_->StopBroker(cluster_->GetPartitionState(tp)->leader));
  cluster_->ReplicationTick();
  cluster_->ReplicationTick();
  EXPECT_EQ(CommittedRecords(tp), 20);
}

TEST_F(FailoverTest, PartitionGoesOfflineWithoutIsrCandidates) {
  CreateTopic("t", 2, /*unclean=*/false);
  const TopicPartition tp{"t", 0};
  auto state = cluster_->GetPartitionState(tp);
  // Kill both replicas.
  for (int replica : state->replicas) {
    LIQUID_ASSERT_OK(cluster_->StopBroker(replica));
  }
  auto offline = cluster_->GetPartitionState(tp);
  EXPECT_EQ(offline->leader, -1);
  EXPECT_TRUE(cluster_->LeaderFor(tp).status().IsUnavailable());
}

TEST_F(FailoverTest, OfflinePartitionRecoversWhenReplicaReturns) {
  CreateTopic("t", 2);
  const TopicPartition tp{"t", 0};
  ASSERT_EQ(Produce(tp, 3, AckMode::kAll), 3);
  auto state = cluster_->GetPartitionState(tp);
  for (int replica : state->replicas) {
    LIQUID_ASSERT_OK(cluster_->StopBroker(replica));
  }
  ASSERT_EQ(cluster_->GetPartitionState(tp)->leader, -1);

  // Sequential failures shrink the ISR: by the time the second replica dies
  // it is the sole ISR member, so recovery requires it (or both) back.
  for (int replica : state->replicas) {
    ASSERT_TRUE(cluster_->RestartBroker(replica).ok());
  }
  auto recovered = cluster_->GetPartitionState(tp);
  EXPECT_NE(recovered->leader, -1);
  EXPECT_EQ(CommittedRecords(tp), 3);  // Data survived on disk.
}

TEST_F(FailoverTest, UncleanElectionTradesDataForAvailability) {
  CreateTopic("t", 2, /*unclean=*/true);
  const TopicPartition tp{"t", 0};
  auto state = cluster_->GetPartitionState(tp);
  const int leader = state->leader;
  int follower = -1;
  for (int replica : state->replicas) {
    if (replica != leader) follower = replica;
  }

  // Isolate the follower (it falls out of the ISR), then keep writing.
  LIQUID_ASSERT_OK(cluster_->StopBroker(follower));
  ASSERT_EQ(Produce(tp, 10, AckMode::kAll), 10);
  ASSERT_EQ(cluster_->GetPartitionState(tp)->isr.size(), 1u);

  // Bring the stale follower back, then kill the leader: only a NON-ISR
  // replica is available.
  ASSERT_TRUE(cluster_->RestartBroker(follower).ok());
  LIQUID_ASSERT_OK(cluster_->StopBroker(leader));

  auto after = cluster_->GetPartitionState(tp);
  EXPECT_EQ(after->leader, follower);  // Unclean: stale replica leads.
  EXPECT_LT(CommittedRecords(tp), 10);  // Data loss is the price.
}

TEST_F(FailoverTest, CleanConfigKeepsPartitionOfflineInsteadOfLosingData) {
  CreateTopic("t", 2, /*unclean=*/false);
  const TopicPartition tp{"t", 0};
  auto state = cluster_->GetPartitionState(tp);
  const int leader = state->leader;
  int follower = -1;
  for (int replica : state->replicas) {
    if (replica != leader) follower = replica;
  }
  LIQUID_ASSERT_OK(cluster_->StopBroker(follower));
  ASSERT_EQ(Produce(tp, 10, AckMode::kAll), 10);
  ASSERT_TRUE(cluster_->RestartBroker(follower).ok());
  // The restarted follower is not yet back in the ISR; the leader dies.
  LIQUID_ASSERT_OK(cluster_->StopBroker(leader));
  EXPECT_EQ(cluster_->GetPartitionState(tp)->leader, -1);  // Offline, no loss.
}

TEST_F(FailoverTest, RestartedLeaderComesBackAsFollowerAndCatchesUp) {
  CreateTopic("t", 3);
  const TopicPartition tp{"t", 0};
  ASSERT_EQ(Produce(tp, 5, AckMode::kAll), 5);
  const int old_leader = cluster_->GetPartitionState(tp)->leader;
  LIQUID_ASSERT_OK(cluster_->StopBroker(old_leader));
  ASSERT_EQ(Produce(tp, 5, AckMode::kAll), 5);  // New leader takes writes.

  ASSERT_TRUE(cluster_->RestartBroker(old_leader).ok());
  const int new_leader = cluster_->GetPartitionState(tp)->leader;
  EXPECT_NE(new_leader, old_leader);
  cluster_->ReplicationTick();
  cluster_->ReplicationTick();
  EXPECT_EQ(*cluster_->broker(old_leader)->LogEndOffset(tp), 10);
  // And it rejoined the ISR.
  auto state = cluster_->GetPartitionState(tp);
  EXPECT_TRUE(std::find(state->isr.begin(), state->isr.end(), old_leader) !=
              state->isr.end());
}

TEST_F(FailoverTest, EpochFencingPreventsZombieLeader) {
  CreateTopic("t", 3);
  const TopicPartition tp{"t", 0};
  ASSERT_EQ(Produce(tp, 2, AckMode::kAll), 2);
  auto before = cluster_->GetPartitionState(tp);
  Broker* old_leader = cluster_->broker(before->leader);
  LIQUID_ASSERT_OK(cluster_->StopBroker(before->leader));

  // The dead ("zombie") leader cannot serve anything.
  std::vector<storage::Record> batch{storage::Record::KeyValue("k", "zombie")};
  EXPECT_TRUE(old_leader->Produce(tp, batch, AckMode::kLeader)
                  .status()
                  .IsUnavailable());
  EXPECT_TRUE(old_leader->Fetch(tp, 0, 1024, -1).status().IsUnavailable());
}

TEST_F(FailoverTest, AckedPrefixSurvivesRestartUnderFsyncFault) {
  // Durable topic: every acks=all batch is fsynced on each replica it counts
  // before the ack (DESIGN.md §6c).
  TopicConfig config;
  config.partitions = 1;
  config.replication_factor = 3;
  config.log.sync_mode = storage::SyncMode::kGroup;
  ASSERT_TRUE(cluster_->CreateTopic("t", config).ok());
  const TopicPartition tp{"t", 0};
  ASSERT_EQ(Produce(tp, 10, AckMode::kAll), 10);

  // Injected fsync fault (chaos site "log.sync.before"): while the disk
  // refuses to sync, nothing new can be acknowledged.
  FaultSiteConfig fsync_fault;
  fsync_fault.kind = FaultActionKind::kFail;
  fsync_fault.fail_code = StatusCode::kIOError;
  FaultRegistry::Default()->Arm("log.sync.before", fsync_fault);
  EXPECT_EQ(Produce(tp, 5, AckMode::kAll), 0);

  // Power-cycle every replica, dropping unsynced writes like a real crash.
  // The fault stays armed until every replica is down: a committer retry
  // of a sync requested during the fault could otherwise still make the
  // refused records durable before the crash.
  auto state = cluster_->GetPartitionState(tp);
  for (int replica : state->replicas) {
    LIQUID_ASSERT_OK(cluster_->StopBroker(replica));
    cluster_->disk(replica)->SimulateCrash();
  }
  FaultRegistry::Default()->Clear();
  for (int replica : state->replicas) {
    LIQUID_ASSERT_OK(cluster_->RestartBroker(replica));
  }
  cluster_->ReplicationTick();
  cluster_->ReplicationTick();

  // Exactly the acked prefix survives: the ten acknowledged records were
  // fsynced before their acks; the five refused ones never became durable.
  EXPECT_EQ(CommittedRecords(tp), 10);
}

TEST_F(FailoverTest, AckedRecordsSurviveWholeIsrPowerCycleWhenFollowerSyncsFail) {
  // A follower counts toward acks=all only once its copy is durable. Here
  // both followers accept every push but can never fsync: they must leave
  // the ISR instead of being counted, so that after every replica loses its
  // unsynced bytes — followers restarting first, eager to win the election —
  // the acked records are still there.
  TopicConfig config;
  config.partitions = 1;
  config.replication_factor = 3;
  config.log.sync_mode = storage::SyncMode::kGroup;
  ASSERT_TRUE(cluster_->CreateTopic("t", config).ok());
  const TopicPartition tp{"t", 0};
  auto state = cluster_->GetPartitionState(tp);
  LIQUID_ASSERT_OK(state.status());
  const int leader = state->leader;
  std::vector<int> followers;
  for (int replica : state->replicas) {
    if (replica == leader) continue;
    followers.push_back(replica);
    cluster_->disk(replica)->SetSyncFaultHook(
        [](const std::string&) { return Status::IOError("injected"); });
  }
  ASSERT_EQ(followers.size(), 2u);
  Counter* sync_failures = MetricsRegistry::Default()->GetCounter(
      "liquid.log.t-0.group_commit_sync_failures");
  const int64_t sync_failures_before = sync_failures->value();

  // min.insync.replicas=1: the leader alone may keep acknowledging.
  const int acked = Produce(tp, 10, AckMode::kAll);
  ASSERT_EQ(acked, 10);
  // A failing follower sync is visible, and the failing followers left the
  // ISR.
  EXPECT_GT(sync_failures->value(), sync_failures_before);
  state = cluster_->GetPartitionState(tp);
  LIQUID_ASSERT_OK(state.status());
  EXPECT_EQ(state->isr, std::vector<int>{leader});

  // Power-cycle every replica; the followers come back first.
  for (int replica : state->replicas) {
    LIQUID_ASSERT_OK(cluster_->StopBroker(replica));
    cluster_->disk(replica)->SimulateCrash();
  }
  for (int follower : followers) {
    LIQUID_ASSERT_OK(cluster_->RestartBroker(follower));
  }
  LIQUID_ASSERT_OK(cluster_->RestartBroker(leader));
  cluster_->ReplicationTick();
  cluster_->ReplicationTick();

  EXPECT_EQ(CommittedRecords(tp), acked);
}

TEST_F(FailoverTest, ConsumersResumeFromCommittedOffsetsAfterRestart) {
  CreateTopic("t", 3);
  const TopicPartition tp{"t", 0};
  ASSERT_EQ(Produce(tp, 10, AckMode::kAll), 10);

  storage::MemDisk offsets_disk;
  auto offsets = OffsetManager::Open(&offsets_disk, "offsets/", &clock_);
  LIQUID_ASSERT_OK(offsets.status());
  GroupCoordinator coordinator(cluster_.get());

  // First consumer incarnation: read six records, then checkpoint while the
  // offset log's append is transiently failing — the unified retry
  // discipline (DESIGN.md §7) must absorb the injected faults.
  Counter* retries =
      MetricsRegistry::Default()->GetCounter("liquid.offsets.retries_total");
  const int64_t retries_before = retries->value();
  {
    ConsumerConfig consumer_config;
    consumer_config.group = "g";
    Consumer consumer(cluster_.get(), offsets->get(), &coordinator, "c1",
                      consumer_config);
    LIQUID_ASSERT_OK(consumer.Subscribe({"t"}));
    auto records = consumer.Poll(6);
    LIQUID_ASSERT_OK(records.status());
    ASSERT_EQ(records->size(), 6u);

    FaultSiteConfig commit_fault;
    commit_fault.kind = FaultActionKind::kFail;
    commit_fault.fail_code = StatusCode::kUnavailable;
    commit_fault.max_triggers = 2;
    FaultRegistry::Default()->Arm("offsets.commit.before_append", commit_fault);
    LIQUID_ASSERT_OK(consumer.Commit());
    FaultRegistry::Default()->Clear();
    EXPECT_GE(retries->value() - retries_before, 2);

    // Crash the consumer (no final commit) so resume depends purely on the
    // durable checkpoint.
    LIQUID_ASSERT_OK(consumer.CloseWithoutCommit());
  }

  // Restart the partition leader: offsets and data must both replay.
  const int leader = cluster_->GetPartitionState(tp)->leader;
  LIQUID_ASSERT_OK(cluster_->StopBroker(leader));
  LIQUID_ASSERT_OK(cluster_->RestartBroker(leader));
  cluster_->ReplicationTick();
  cluster_->ReplicationTick();

  // Re-open the offset manager from its backing log (checkpoint replay)...
  offsets->reset();
  auto recovered = OffsetManager::Open(&offsets_disk, "offsets/", &clock_);
  LIQUID_ASSERT_OK(recovered.status());
  auto committed = (*recovered)->Fetch("g", tp);
  LIQUID_ASSERT_OK(committed.status());
  EXPECT_EQ(committed->offset, 6);

  // ...and a fresh member of the same group resumes exactly there.
  ConsumerConfig consumer_config;
  consumer_config.group = "g";
  Consumer resumed(cluster_.get(), recovered->get(), &coordinator, "c2",
                   consumer_config);
  LIQUID_ASSERT_OK(resumed.Subscribe({"t"}));
  std::vector<ConsumerRecord> rest;
  while (true) {
    auto records = resumed.Poll(32);
    LIQUID_ASSERT_OK(records.status());
    if (records->empty()) break;
    rest.insert(rest.end(), records->begin(), records->end());
  }
  ASSERT_EQ(rest.size(), 4u);
  EXPECT_EQ(rest.front().record.offset, 6);
  EXPECT_EQ(rest.front().record.value, "v6");
  EXPECT_EQ(rest.back().record.value, "v9");
}

}  // namespace
}  // namespace liquid::messaging
