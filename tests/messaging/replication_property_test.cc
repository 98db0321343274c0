#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "common/clock.h"
#include "common/random.h"
#include "messaging/broker.h"
#include "messaging/cluster.h"

#include "read_util.h"
#include "test_util.h"

namespace liquid::messaging {
namespace {

/// Randomized fault-injection property test: under arbitrary interleavings of
/// produces (all ack levels), broker crashes, restarts and replication ticks,
/// the replication protocol must preserve its §4.3 invariants:
///   I1. every record acknowledged with acks=all survives to the end;
///   I2. committed data (below the HW) is identical on every replica —
///       replicas never diverge on the committed prefix;
///   I3. HW <= LEO on every replica;
///   I4. offsets served to consumers are strictly increasing with no
///       duplicates.
class ReplicationPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplicationPropertyTest, InvariantsHoldUnderRandomFaults) {
  SimulatedClock clock(1000);
  ClusterConfig config;
  config.num_brokers = 3;
  Cluster cluster(config, &clock);
  ASSERT_TRUE(cluster.Start().ok());
  TopicConfig topic;
  topic.partitions = 1;
  topic.replication_factor = 3;
  topic.min_insync_replicas = 1;
  ASSERT_TRUE(cluster.CreateTopic("t", topic).ok());
  const TopicPartition tp{"t", 0};

  Random rng(GetParam());
  std::set<std::string> acked_all;  // Values acknowledged with acks=all.
  int sequence = 0;

  for (int step = 0; step < 400; ++step) {
    const double dice = rng.NextDouble();
    if (dice < 0.55) {
      // Produce with a random ack level.
      auto leader = cluster.LeaderFor(tp);
      if (!leader.ok()) continue;
      const AckMode acks = rng.Bernoulli(0.5)   ? AckMode::kAll
                           : rng.Bernoulli(0.5) ? AckMode::kLeader
                                                : AckMode::kNone;
      const std::string value = "v" + std::to_string(sequence++);
      std::vector<storage::Record> batch{storage::Record::KeyValue("k", value)};
      auto resp = (*leader)->Produce(tp, batch, acks);
      if (resp.ok() && acks == AckMode::kAll) acked_all.insert(value);
    } else if (dice < 0.70) {
      cluster.ReplicationTick();
    } else if (dice < 0.85) {
      // Crash a random alive broker — but never the last replica alive.
      auto alive = cluster.AliveBrokerIds();
      if (alive.size() <= 1) continue;
      LIQUID_ASSERT_OK(cluster.StopBroker(
          alive[rng.Uniform(static_cast<uint64_t>(alive.size()))]));
    } else {
      // Restart a random dead broker.
      std::vector<int> dead;
      for (int id : cluster.BrokerIds()) {
        if (!cluster.broker(id)->alive()) dead.push_back(id);
      }
      if (dead.empty()) continue;
      LIQUID_ASSERT_OK(cluster.RestartBroker(
          dead[rng.Uniform(static_cast<uint64_t>(dead.size()))]));
    }
  }

  // Quiesce: revive everyone and let replication converge.
  for (int id : cluster.BrokerIds()) {
    if (!cluster.broker(id)->alive()) {
      LIQUID_ASSERT_OK(cluster.RestartBroker(id));
    }
  }
  for (int i = 0; i < 6; ++i) cluster.ReplicationTick();

  auto leader = cluster.LeaderFor(tp);
  ASSERT_TRUE(leader.ok());
  const int64_t hw = *(*leader)->HighWatermark(tp);

  // I3 + I2: every replica agrees on the committed prefix.
  std::map<int, std::vector<std::string>> committed_values;
  for (int id : cluster.BrokerIds()) {
    Broker* broker = cluster.broker(id);
    if (!broker->HostsPartition(tp)) continue;
    const int64_t leo = *broker->LogEndOffset(tp);
    const int64_t replica_hw = *broker->HighWatermark(tp);
    EXPECT_LE(replica_hw, leo) << "broker " << id;
    EXPECT_EQ(leo, *(*leader)->LogEndOffset(tp))
        << "broker " << id << " did not converge";
  }

  // I4 + collect the committed stream from the leader.
  std::vector<storage::Record> all;
  int64_t cursor = 0;
  while (cursor < hw) {
    auto fetch = (*leader)->Fetch(tp, cursor, 1 << 20, -1);
    ASSERT_TRUE(fetch.ok());
    if (fetch->batches.empty()) break;
    for (const auto& record : Decoded(*fetch)) {
      if (!all.empty()) {
        EXPECT_GT(record.offset, all.back().offset);
      }
      all.push_back(record);
    }
    cursor = all.back().offset + 1;
  }

  // I1: nothing acked with acks=all is missing.
  std::set<std::string> present;
  for (const auto& record : all) present.insert(record.value);
  for (const std::string& value : acked_all) {
    EXPECT_TRUE(present.count(value)) << "lost acks=all record " << value;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicationPropertyTest,
                         ::testing::Values(1ull, 7ull, 42ull, 1337ull, 9001ull,
                                           31415ull, 271828ull, 999983ull));

}  // namespace
}  // namespace liquid::messaging
