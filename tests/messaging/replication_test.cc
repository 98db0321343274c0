#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "messaging/broker.h"
#include "messaging/cluster.h"
#include "messaging/producer.h"

#include "read_util.h"
#include "test_util.h"

namespace liquid::messaging {
namespace {

/// A one-record leader push carrying `offset`, encoded as the leader would.
storage::EncodedBatch PushBatch(int64_t offset) {
  std::vector<storage::Record> records{storage::Record::KeyValue("k", "v")};
  records[0].offset = offset;
  return storage::EncodedBatch::Encode(records);
}

/// Leader/follower replication, high-watermark and ISR behaviour (§4.3).
class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.num_brokers = 3;
    cluster_ = std::make_unique<Cluster>(config, &clock_);
    ASSERT_TRUE(cluster_->Start().ok());
  }

  void CreateTopic(const std::string& name, int rf, int min_insync = 1) {
    TopicConfig config;
    config.partitions = 1;
    config.replication_factor = rf;
    config.min_insync_replicas = min_insync;
    ASSERT_TRUE(cluster_->CreateTopic(name, config).ok());
  }

  Status ProduceOne(const TopicPartition& tp, AckMode acks,
                    const std::string& value = "v") {
    auto leader = cluster_->LeaderFor(tp);
    if (!leader.ok()) return leader.status();
    std::vector<storage::Record> batch{storage::Record::KeyValue("k", value)};
    return (*leader)->Produce(tp, batch, acks).status();
  }

  /// The values `broker` serves to a consumer from `from` to its high
  /// watermark (only a leader serves fetches).
  std::vector<std::string> Served(Broker* broker, const TopicPartition& tp,
                                  int64_t from) {
    std::vector<std::string> values;
    int64_t cursor = from;
    while (true) {
      auto fetch = broker->Fetch(tp, cursor, 1 << 20, -1);
      if (!fetch.ok() || fetch->batches.empty()) break;
      for (const auto& record : Decoded(*fetch)) values.push_back(record.value);
      cursor = fetch->next_fetch_offset;
    }
    return values;
  }

  /// Stops every alive broker but `survivor`, the published leader of `tp`
  /// last, so that `survivor` is elected with an ISR of itself alone and
  /// serves everything it holds.
  Broker* LeaveOnly(int survivor, const TopicPartition& tp) {
    auto state = cluster_->GetPartitionState(tp);
    EXPECT_TRUE(state.ok());
    const int published = state.ok() ? state->leader : -1;
    for (int id : cluster_->AliveBrokerIds()) {
      if (id != survivor && id != published) {
        EXPECT_TRUE(cluster_->StopBroker(id).ok()) << id;
      }
    }
    if (published != survivor && published >= 0) {
      EXPECT_TRUE(cluster_->StopBroker(published).ok()) << published;
    }
    auto leader = cluster_->LeaderFor(tp);
    EXPECT_TRUE(leader.ok()) << leader.status().ToString();
    return leader.ok() ? *leader : nullptr;
  }

  SimulatedClock clock_{1000};
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(ReplicationTest, AcksAllReplicatesSynchronously) {
  CreateTopic("t", 3);
  const TopicPartition tp{"t", 0};
  ASSERT_TRUE(ProduceOne(tp, AckMode::kAll).ok());
  // All replicas hold the record immediately, HW advanced.
  auto state = cluster_->GetPartitionState(tp);
  for (int replica : state->replicas) {
    EXPECT_EQ(*cluster_->broker(replica)->LogEndOffset(tp), 1) << replica;
  }
  auto leader = cluster_->LeaderFor(tp);
  EXPECT_EQ(*(*leader)->HighWatermark(tp), 1);
}

TEST_F(ReplicationTest, AcksLeaderReplicatesLazilyViaPull) {
  CreateTopic("t", 3);
  const TopicPartition tp{"t", 0};
  ASSERT_TRUE(ProduceOne(tp, AckMode::kLeader).ok());
  auto state = cluster_->GetPartitionState(tp);
  int followers_with_data = 0;
  for (int replica : state->replicas) {
    if (replica == state->leader) continue;
    if (*cluster_->broker(replica)->LogEndOffset(tp) == 1) ++followers_with_data;
  }
  EXPECT_EQ(followers_with_data, 0);  // Not replicated yet.

  cluster_->ReplicationTick();
  for (int replica : state->replicas) {
    EXPECT_EQ(*cluster_->broker(replica)->LogEndOffset(tp), 1) << replica;
  }
}

TEST_F(ReplicationTest, HighWatermarkAdvancesWithFollowerFetches) {
  CreateTopic("t", 3);
  const TopicPartition tp{"t", 0};
  ASSERT_TRUE(ProduceOne(tp, AckMode::kLeader).ok());
  auto leader = cluster_->LeaderFor(tp);
  EXPECT_EQ(*(*leader)->HighWatermark(tp), 0);
  cluster_->ReplicationTick();  // Followers fetch the record.
  cluster_->ReplicationTick();  // Next fetch reports their new LEO.
  EXPECT_EQ(*(*leader)->HighWatermark(tp), 1);
}

TEST_F(ReplicationTest, FollowerHighWatermarkPropagates) {
  CreateTopic("t", 3);
  const TopicPartition tp{"t", 0};
  ASSERT_TRUE(ProduceOne(tp, AckMode::kAll).ok());
  cluster_->ReplicationTick();  // Followers learn the leader's HW.
  auto state = cluster_->GetPartitionState(tp);
  for (int replica : state->replicas) {
    EXPECT_EQ(*cluster_->broker(replica)->HighWatermark(tp), 1) << replica;
  }
}

TEST_F(ReplicationTest, DeadFollowerShrinksIsrOnAcksAll) {
  CreateTopic("t", 3, /*min_insync=*/2);
  const TopicPartition tp{"t", 0};
  auto state_before = cluster_->GetPartitionState(tp);
  ASSERT_EQ(state_before->isr.size(), 3u);

  // Kill one follower.
  int victim = -1;
  for (int replica : state_before->replicas) {
    if (replica != state_before->leader) victim = replica;
  }
  cluster_->broker(victim)->Stop();

  ASSERT_TRUE(ProduceOne(tp, AckMode::kAll).ok());  // min_insync=2 still met.
  auto state_after = cluster_->GetPartitionState(tp);
  EXPECT_EQ(state_after->isr.size(), 2u);
  for (int member : state_after->isr) EXPECT_NE(member, victim);
}

TEST_F(ReplicationTest, MinInsyncViolationRejectsAcksAll) {
  CreateTopic("t", 3, /*min_insync=*/3);
  const TopicPartition tp{"t", 0};
  auto state = cluster_->GetPartitionState(tp);
  int victim = -1;
  for (int replica : state->replicas) {
    if (replica != state->leader) victim = replica;
  }
  cluster_->broker(victim)->Stop();
  // First produce shrinks the ISR to 2 after the failed push...
  Status first = ProduceOne(tp, AckMode::kAll);
  EXPECT_TRUE(first.IsUnavailable());
  // ...and subsequent ones are rejected before appending.
  EXPECT_TRUE(ProduceOne(tp, AckMode::kAll).IsUnavailable());
  // acks=1 still works (availability at reduced durability).
  EXPECT_TRUE(ProduceOne(tp, AckMode::kLeader).ok());
}

TEST_F(ReplicationTest, RecoveredFollowerCatchesUpAndRejoinsIsr) {
  CreateTopic("t", 3, /*min_insync=*/2);
  const TopicPartition tp{"t", 0};
  auto state = cluster_->GetPartitionState(tp);
  int victim = -1;
  for (int replica : state->replicas) {
    if (replica != state->leader) victim = replica;
  }
  cluster_->broker(victim)->Stop();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ProduceOne(tp, AckMode::kAll).ok());
  }
  EXPECT_EQ(cluster_->GetPartitionState(tp)->isr.size(), 2u);

  ASSERT_TRUE(cluster_->RestartBroker(victim).ok());
  cluster_->ReplicationTick();  // Catch up.
  cluster_->ReplicationTick();  // Report LEO == leader LEO: rejoin ISR.
  EXPECT_EQ(*cluster_->broker(victim)->LogEndOffset(tp), 5);
  EXPECT_EQ(cluster_->GetPartitionState(tp)->isr.size(), 3u);
}

TEST_F(ReplicationTest, ToleratesNMinus1FailuresWithAcksAll) {
  CreateTopic("t", 3, /*min_insync=*/1);
  const TopicPartition tp{"t", 0};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ProduceOne(tp, AckMode::kAll, "v" + std::to_string(i)).ok());
  }
  // Kill 2 of 3 brokers (N-1 failures of the ISR, §4.3).
  auto state = cluster_->GetPartitionState(tp);
  int killed = 0;
  for (int replica : state->replicas) {
    if (killed == 2) break;
    cluster_->broker(replica)->Stop();
    ++killed;
  }
  // The surviving replica leads and has all committed data.
  auto leader = cluster_->LeaderFor(tp);
  ASSERT_TRUE(leader.ok());
  auto fetch = (*leader)->Fetch(tp, 0, 1 << 20, -1);
  ASSERT_TRUE(fetch.ok());
  EXPECT_EQ(Decoded(*fetch).size(), 3u);
}

TEST_F(ReplicationTest, ConcurrentAcksAllPushesReachFollowersInAppendOrder) {
  // Two acks=all producers on one partition. The first batch's push to its
  // first follower is held up, so the second batch's push reaches that
  // follower first and finds a gap. The follower fills the gap by pulling
  // from the leader, which already holds the first batch: the second
  // produce neither waits for the delayed push nor drops the follower from
  // the ISR, and every follower ends with both batches in append order.
  CreateTopic("t", 3, /*min_insync=*/2);
  const TopicPartition tp{"t", 0};
  auto leader = cluster_->LeaderFor(tp);
  LIQUID_ASSERT_OK(leader.status());
  const std::string site = "broker.replicate.before_append";
  FaultSiteConfig delay;
  delay.kind = FaultActionKind::kDelay;
  delay.delay_us = 300'000;
  delay.max_triggers = 1;
  FaultRegistry::Default()->Arm(site, delay);

  Status first = Status::OK();
  std::atomic<bool> first_done{false};
  std::thread slow([&] {
    std::vector<storage::Record> batch{storage::Record::KeyValue("k", "1")};
    first = (*leader)->Produce(tp, batch, AckMode::kAll).status();
    first_done.store(true);
  });
  // The first batch is appended and its push is in the delay.
  while (FaultRegistry::Default()->triggers(site) == 0 && !first_done.load()) {
    std::this_thread::yield();
  }
  std::vector<storage::Record> batch{storage::Record::KeyValue("k", "2")};
  const auto second_t0 = std::chrono::steady_clock::now();
  const Status second = (*leader)->Produce(tp, batch, AckMode::kAll).status();
  const auto second_wait = std::chrono::steady_clock::now() - second_t0;
  slow.join();
  FaultRegistry::Default()->Clear();

  LIQUID_EXPECT_OK(first);
  LIQUID_EXPECT_OK(second);
  auto state = cluster_->GetPartitionState(tp);
  EXPECT_EQ(state->isr.size(), 3u);
  EXPECT_EQ((*leader)->metrics()->GetCounter("isr.shrinks")->value(), 0);
  for (int replica : state->replicas) {
    EXPECT_EQ(*cluster_->broker(replica)->LogEndOffset(tp), 2) << replica;
  }
  // No head-of-line blocking: the second produce does not wait out the
  // first one's 300 ms delay.
  EXPECT_LT(second_wait, std::chrono::milliseconds(150));
}

TEST_F(ReplicationTest, FollowerRejectsStaleEpochPush) {
  CreateTopic("t", 2);
  const TopicPartition tp{"t", 0};
  auto state = cluster_->GetPartitionState(tp);
  int follower = -1;
  for (int replica : state->replicas) {
    if (replica != state->leader) follower = replica;
  }
  const storage::EncodedBatch batch = PushBatch(0);
  // Push with an epoch lower than current: rejected.
  Status st = cluster_->broker(follower)->AppendEncodedAsFollower(
      tp, batch, state->leader_epoch - 1, 0);
  EXPECT_TRUE(st.IsFailedPrecondition());
  // An epoch the follower has not been told about yet: rejected as well.
  st = cluster_->broker(follower)->AppendEncodedAsFollower(
      tp, batch, state->leader_epoch + 1, 0);
  EXPECT_TRUE(st.IsFailedPrecondition());
  EXPECT_EQ(*cluster_->broker(follower)->LogEndOffset(tp), 0);
}

TEST_F(ReplicationTest, FollowerBehindPushFillsTheGapFromTheLeader) {
  CreateTopic("t", 2);
  const TopicPartition tp{"t", 0};
  auto state = cluster_->GetPartitionState(tp);
  int follower = -1;
  for (int replica : state->replicas) {
    if (replica != state->leader) follower = replica;
  }
  Counter* gap_fills = MetricsRegistry::Default()->GetCounter(
      "liquid.broker." + std::to_string(follower) + ".replicate_gap_fills");
  const int64_t fills_before = gap_fills->value();
  // Two records the follower never fetched, then an acks=all batch whose
  // push starts past the follower's end: the follower pulls the gap from
  // the leader and lands the push.
  ASSERT_TRUE(ProduceOne(tp, AckMode::kNone, "a").ok());
  ASSERT_TRUE(ProduceOne(tp, AckMode::kNone, "b").ok());
  EXPECT_EQ(*cluster_->broker(follower)->LogEndOffset(tp), 0);
  LIQUID_EXPECT_OK(ProduceOne(tp, AckMode::kAll, "c"));
  EXPECT_EQ(*cluster_->broker(follower)->LogEndOffset(tp), 3);
  EXPECT_EQ(gap_fills->value() - fills_before, 1);
  EXPECT_EQ(cluster_->GetPartitionState(tp)->isr.size(), 2u);

  // A gap the leader cannot fill (it holds nothing at offset 10) is still
  // refused.
  const storage::EncodedBatch batch = PushBatch(10);
  Status st = cluster_->broker(follower)->AppendEncodedAsFollower(
      tp, batch, state->leader_epoch, 0);
  EXPECT_TRUE(st.IsOutOfRange()) << st.ToString();
  EXPECT_EQ(*cluster_->broker(follower)->LogEndOffset(tp), 3);
}

TEST_F(ReplicationTest, DuplicatePushIsIdempotent) {
  CreateTopic("t", 2);
  const TopicPartition tp{"t", 0};
  auto state = cluster_->GetPartitionState(tp);
  int follower = -1;
  for (int replica : state->replicas) {
    if (replica != state->leader) follower = replica;
  }
  const storage::EncodedBatch batch = PushBatch(0);
  ASSERT_TRUE(cluster_->broker(follower)
                  ->AppendEncodedAsFollower(tp, batch, state->leader_epoch, 0)
                  .ok());
  // Same push again (leader retry): no duplicate append.
  ASSERT_TRUE(cluster_->broker(follower)
                  ->AppendEncodedAsFollower(tp, batch, state->leader_epoch, 0)
                  .ok());
  EXPECT_EQ(*cluster_->broker(follower)->LogEndOffset(tp), 1);
}

TEST_F(ReplicationTest, Kip101TruncatesDivergentSuffixBelowLeaderLeo) {
  // Regression for the scenario the randomized test found (seed 7): broker X
  // leads epoch E and appends an UNCOMMITTED record at offset N; X dies;
  // broker Y leads epoch E+1 and commits several records at N, N+1, ...; X
  // returns as follower. X's log end (N+1) is below Y's (N+3), so a naive
  // min(LEO, LEO) truncation would keep X's divergent record at N — and if X
  // ever led again, an acknowledged record would silently vanish.
  CreateTopic("t", 3, /*min_insync=*/1);
  const TopicPartition tp{"t", 0};

  // Commit a common prefix.
  ASSERT_TRUE(ProduceOne(tp, AckMode::kAll, "common").ok());

  auto state = cluster_->GetPartitionState(tp);
  const int first_leader = state->leader;
  // First leader appends an uncommitted record: kill a follower so the push
  // path can't reach everyone... simpler: write with acks=0 (local only).
  ASSERT_TRUE(ProduceOne(tp, AckMode::kNone, "divergent-uncommitted").ok());

  // First leader dies; a new leader (from the ISR) takes over and commits
  // DIFFERENT records at the same offsets.
  LIQUID_ASSERT_OK(cluster_->StopBroker(first_leader));
  ASSERT_TRUE(ProduceOne(tp, AckMode::kAll, "committed-1").ok());
  ASSERT_TRUE(ProduceOne(tp, AckMode::kAll, "committed-2").ok());

  // The deposed leader returns as follower and reconciles via epochs.
  ASSERT_TRUE(cluster_->RestartBroker(first_leader).ok());
  cluster_->ReplicationTick();
  cluster_->ReplicationTick();

  // The old leader's log must now EXACTLY match the new leader's.
  const int new_leader = cluster_->GetPartitionState(tp)->leader;
  ASSERT_NE(new_leader, first_leader);
  EXPECT_EQ(*cluster_->broker(first_leader)->LogEndOffset(tp),
            *cluster_->broker(new_leader)->LogEndOffset(tp));

  // And if every OTHER broker dies, the restored replica serves the committed
  // records, not its divergent ghost.
  Broker* survivor = LeaveOnly(first_leader, tp);
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(Served(survivor, tp, 0),
            (std::vector<std::string>{"common", "committed-1", "committed-2"}));
}

TEST_F(ReplicationTest, PullResponseFromADeposedLeaderIsRefused) {
  // A follower's pull stalls inside the old leader's Fetch while the third
  // broker takes over at the next epoch and the follower reconciles with
  // it. The stalled response holds the old leader's unreplicated record;
  // landed after the KIP-101 truncation, it would sit at an offset where
  // the new leader has a different record.
  CreateTopic("t", 3, /*min_insync=*/1);
  const TopicPartition tp{"t", 0};
  ASSERT_TRUE(ProduceOne(tp, AckMode::kAll, "common").ok());
  auto state = cluster_->GetPartitionState(tp);
  ASSERT_TRUE(state.ok());
  int follower = -1;
  int new_leader = -1;
  for (int replica : state->replicas) {
    if (replica == state->leader) continue;
    (follower < 0 ? follower : new_leader) = replica;
  }
  ASSERT_TRUE(ProduceOne(tp, AckMode::kNone, "divergent").ok());
  auto config = cluster_->GetTopicConfig("t");
  ASSERT_TRUE(config.ok());
  PartitionState next = *state;
  next.leader = new_leader;
  next.leader_epoch = state->leader_epoch + 1;
  next.isr = {new_leader, follower};

  const std::string site = "broker.fetch.before_read";
  FaultSiteConfig delay;
  delay.kind = FaultActionKind::kDelay;
  delay.delay_us = 300'000;
  delay.max_triggers = 1;
  FaultRegistry::Default()->Arm(site, delay);
  std::thread pull([&] {
    LIQUID_EXPECT_OK(cluster_->broker(follower)->ReplicateFromLeaders());
  });
  while (FaultRegistry::Default()->hits(site) == 0) std::this_thread::yield();

  LIQUID_EXPECT_OK(
      cluster_->broker(new_leader)->BecomeLeader(tp, next, *config));
  LIQUID_EXPECT_OK(
      cluster_->broker(follower)->BecomeFollower(tp, next, *config));
  std::vector<storage::Record> batch{
      storage::Record::KeyValue("k", "committed")};
  LIQUID_EXPECT_OK(cluster_->broker(new_leader)
                       ->Produce(tp, batch, AckMode::kLeader)
                       .status());
  pull.join();
  FaultRegistry::Default()->Clear();
  cluster_->ReplicationTick();

  EXPECT_EQ(*cluster_->broker(follower)->LogEndOffset(tp), 2);
  Broker* survivor = LeaveOnly(follower, tp);
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(Served(survivor, tp, 0),
            (std::vector<std::string>{"common", "committed"}));
}

TEST_F(ReplicationTest, PushFromANewLeaderBeforeBecomeFollowerIsRefused) {
  // The controller tells the new leader before the followers. A push from
  // the new leader that reaches a follower in between must be refused:
  // accepted, it would raise the follower's epoch, BecomeFollower would see
  // no epoch change and skip KIP-101 reconciliation, and the follower would
  // keep its divergent record where the leader has an acked one.
  CreateTopic("t", 3, /*min_insync=*/1);
  const TopicPartition tp{"t", 0};
  ASSERT_TRUE(ProduceOne(tp, AckMode::kAll, "common").ok());
  auto state = cluster_->GetPartitionState(tp);
  ASSERT_TRUE(state.ok());
  int follower = -1;
  int new_leader = -1;
  for (int replica : state->replicas) {
    if (replica == state->leader) continue;
    (follower < 0 ? follower : new_leader) = replica;
  }
  ASSERT_TRUE(ProduceOne(tp, AckMode::kNone, "divergent").ok());
  LIQUID_ASSERT_OK(cluster_->broker(follower)->ReplicateFromLeaders());
  ASSERT_EQ(*cluster_->broker(follower)->LogEndOffset(tp), 2);

  auto config = cluster_->GetTopicConfig("t");
  ASSERT_TRUE(config.ok());
  PartitionState next = *state;
  next.leader = new_leader;
  next.leader_epoch = state->leader_epoch + 1;
  next.isr = {new_leader, follower};
  LIQUID_ASSERT_OK(
      cluster_->coord()->Set(paths::PartitionStatePath(tp), next.Serialize()));

  LIQUID_ASSERT_OK(
      cluster_->broker(new_leader)->BecomeLeader(tp, next, *config));
  std::vector<storage::Record> batch{
      storage::Record::KeyValue("k", "committed")};
  LIQUID_EXPECT_OK(
      cluster_->broker(new_leader)->Produce(tp, batch, AckMode::kAll).status());
  LIQUID_ASSERT_OK(
      cluster_->broker(follower)->BecomeFollower(tp, next, *config));
  cluster_->ReplicationTick();
  cluster_->ReplicationTick();

  Broker* survivor = LeaveOnly(follower, tp);
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(Served(survivor, tp, 0),
            (std::vector<std::string>{"common", "committed"}));
}

TEST_F(ReplicationTest, PushDuringFollowerReconciliationIsRefused) {
  // BecomeFollower takes the new epoch in its first locked scope, then asks
  // the new leader where its divergent suffix starts with no lock held. An
  // acks=all push that lands in between is sliced off against that suffix
  // (the follower "already has" its offset) and counts toward the leader's
  // HW; the truncation that follows then removes the acked record, and a
  // follower left as the only survivor would serve without it.
  CreateTopic("t", 3, /*min_insync=*/1);
  const TopicPartition tp{"t", 0};
  ASSERT_TRUE(ProduceOne(tp, AckMode::kAll, "common").ok());
  auto state = cluster_->GetPartitionState(tp);
  ASSERT_TRUE(state.ok());
  int follower = -1;
  int new_leader = -1;
  for (int replica : state->replicas) {
    if (replica == state->leader) continue;
    (follower < 0 ? follower : new_leader) = replica;
  }
  ASSERT_TRUE(ProduceOne(tp, AckMode::kNone, "divergent").ok());
  LIQUID_ASSERT_OK(cluster_->broker(follower)->ReplicateFromLeaders());
  ASSERT_EQ(*cluster_->broker(follower)->LogEndOffset(tp), 2);

  auto config = cluster_->GetTopicConfig("t");
  ASSERT_TRUE(config.ok());
  PartitionState next = *state;
  next.leader = new_leader;
  next.leader_epoch = state->leader_epoch + 1;
  next.isr = {new_leader, follower};
  LIQUID_ASSERT_OK(
      cluster_->coord()->Set(paths::PartitionStatePath(tp), next.Serialize()));
  LIQUID_ASSERT_OK(
      cluster_->broker(new_leader)->BecomeLeader(tp, next, *config));

  const std::string site = "broker.become_follower.before_epoch_query";
  FaultSiteConfig delay;
  delay.kind = FaultActionKind::kDelay;
  delay.delay_us = 300'000;
  delay.max_triggers = 1;
  FaultRegistry::Default()->Arm(site, delay);
  std::thread reconcile([&] {
    LIQUID_EXPECT_OK(
        cluster_->broker(follower)->BecomeFollower(tp, next, *config));
  });
  while (FaultRegistry::Default()->hits(site) == 0) std::this_thread::yield();
  std::vector<storage::Record> batch{
      storage::Record::KeyValue("k", "committed")};
  LIQUID_EXPECT_OK(
      cluster_->broker(new_leader)->Produce(tp, batch, AckMode::kAll).status());
  reconcile.join();
  FaultRegistry::Default()->Clear();

  // The acked record is covered by the leader's HW. A follower the leader
  // still counts in its ISR must hold it.
  EXPECT_EQ(*cluster_->broker(new_leader)->HighWatermark(tp), 2);
  const int64_t follower_end = *cluster_->broker(follower)->LogEndOffset(tp);
  auto published = cluster_->GetPartitionState(tp);
  ASSERT_TRUE(published.ok());
  const bool counted = std::find(published->isr.begin(), published->isr.end(),
                                 follower) != published->isr.end();
  EXPECT_FALSE(counted && follower_end < 2)
      << "the ISR counts follower " << follower << " at log end "
      << follower_end << ", below the acked record";

  // The refused follower rejoins through the pull.
  cluster_->ReplicationTick();
  cluster_->ReplicationTick();
  Broker* survivor = LeaveOnly(follower, tp);
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(Served(survivor, tp, 0),
            (std::vector<std::string>{"common", "committed"}));
}

TEST_F(ReplicationTest, FollowerCatchesUpPastTheLeadersRetention) {
  // Retention on the leader deletes segments a stopped follower never
  // fetched. The restarted follower's fetch position is below the leader's
  // log start, so it takes up at that start and leaves the gap below it.
  TopicConfig config;
  config.replication_factor = 3;
  config.log.segment_bytes = 256;
  config.log.retention_bytes = 1024;
  LIQUID_ASSERT_OK(cluster_->CreateTopic("t", config));
  const TopicPartition tp{"t", 0};
  ASSERT_TRUE(ProduceOne(tp, AckMode::kAll, "first").ok());
  auto state = cluster_->GetPartitionState(tp);
  ASSERT_TRUE(state.ok());
  const int leader_id = state->leader;
  int follower = -1;
  for (int replica : state->replicas) {
    if (replica != leader_id) follower = replica;
  }
  LIQUID_ASSERT_OK(cluster_->StopBroker(follower));
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(
        ProduceOne(tp, AckMode::kAll, "value-" + std::to_string(i)).ok());
  }
  Broker* leader = cluster_->broker(leader_id);
  LIQUID_ASSERT_OK(leader->RunLogMaintenance());
  auto bounds = leader->OffsetBounds(tp);
  ASSERT_TRUE(bounds.ok());
  const int64_t leader_start = bounds->first;
  ASSERT_GT(leader_start, 1);  // Past the stopped follower's log end.
  const std::vector<std::string> expected = Served(leader, tp, leader_start);
  ASSERT_FALSE(expected.empty());

  LIQUID_ASSERT_OK(cluster_->RestartBroker(follower));
  cluster_->ReplicationTick();  // Catch up from the leader's log start.
  cluster_->ReplicationTick();  // Report LEO == leader LEO: rejoin ISR.
  EXPECT_EQ(*cluster_->broker(follower)->LogEndOffset(tp),
            *leader->LogEndOffset(tp));

  Broker* survivor = LeaveOnly(follower, tp);
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(Served(survivor, tp, leader_start), expected);
}

TEST_F(ReplicationTest, FollowerCatchesUpAcrossTheLeadersCompactedGap) {
  // Compaction on the leader removes offsets a stopped follower never
  // fetched. The leader's log still starts at 0, but has a hole right past
  // the follower's end: the follower's fetch returns the first frame past
  // the hole, and the follower takes the hole as the leader has it.
  TopicConfig config;
  config.replication_factor = 3;
  config.log.segment_bytes = 256;
  config.log.compaction_enabled = true;
  LIQUID_ASSERT_OK(cluster_->CreateTopic("t", config));
  const TopicPartition tp{"t", 0};
  auto state = cluster_->GetPartitionState(tp);
  ASSERT_TRUE(state.ok());
  const int leader_id = state->leader;
  Broker* leader = cluster_->broker(leader_id);
  std::vector<storage::Record> first{storage::Record::KeyValue("a", "a0")};
  LIQUID_ASSERT_OK(leader->Produce(tp, first, AckMode::kAll).status());
  int follower = -1;
  for (int replica : state->replicas) {
    if (replica != leader_id) follower = replica;
  }
  LIQUID_ASSERT_OK(cluster_->StopBroker(follower));
  for (int i = 0; i < 40; ++i) {
    std::vector<storage::Record> batch{
        storage::Record::KeyValue("k", "k" + std::to_string(i))};
    LIQUID_ASSERT_OK(leader->Produce(tp, batch, AckMode::kAll).status());
  }
  auto compacted = leader->CompactPartition(tp);
  ASSERT_TRUE(compacted.ok());
  ASSERT_LT(compacted->records_after, compacted->records_before);
  const std::vector<std::string> expected = Served(leader, tp, 0);
  ASSERT_EQ(expected.front(), "a0");
  ASSERT_LT(expected.size(), 41u);  // The hole is past offset 0.

  LIQUID_ASSERT_OK(cluster_->RestartBroker(follower));
  cluster_->ReplicationTick();
  cluster_->ReplicationTick();
  EXPECT_EQ(*cluster_->broker(follower)->LogEndOffset(tp),
            *leader->LogEndOffset(tp));

  Broker* survivor = LeaveOnly(follower, tp);
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(Served(survivor, tp, 0), expected);
}

TEST_F(ReplicationTest, EndOffsetForEpochAnswers) {
  CreateTopic("t", 1);  // rf=1: single broker, epochs change via reassignment.
  const TopicPartition tp{"t", 0};
  Broker* leader = *cluster_->LeaderFor(tp);
  ASSERT_TRUE(ProduceOne(tp, AckMode::kAll, "e0-a").ok());
  ASSERT_TRUE(ProduceOne(tp, AckMode::kAll, "e0-b").ok());

  // Exact epoch: end is the log end (it is the newest epoch).
  auto answer = leader->EndOffsetForEpoch(tp, 0);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->first, 0);
  EXPECT_EQ(answer->second, 2);

  // Requesting a NEWER epoch than any local one returns the newest <= it.
  answer = leader->EndOffsetForEpoch(tp, 7);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->first, 0);
  EXPECT_EQ(answer->second, 2);

  // Requesting an epoch below every local one signals total divergence.
  answer = leader->EndOffsetForEpoch(tp, -1);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->first, -1);
}

TEST_F(ReplicationTest, RecordsCarryLeaderEpoch) {
  CreateTopic("t", 3);
  const TopicPartition tp{"t", 0};
  ASSERT_TRUE(ProduceOne(tp, AckMode::kAll, "before").ok());
  const int old_leader = cluster_->GetPartitionState(tp)->leader;
  LIQUID_ASSERT_OK(cluster_->StopBroker(old_leader));
  ASSERT_TRUE(ProduceOne(tp, AckMode::kAll, "after").ok());

  auto leader = cluster_->LeaderFor(tp);
  cluster_->ReplicationTick();
  cluster_->ReplicationTick();
  auto fetch = (*leader)->Fetch(tp, 0, 1 << 20, -1);
  ASSERT_TRUE(fetch.ok());
  const std::vector<storage::Record> records = Decoded(*fetch);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_LT(records[0].leader_epoch, records[1].leader_epoch);
}

}  // namespace
}  // namespace liquid::messaging
