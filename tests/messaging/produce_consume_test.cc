#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/clock.h"
#include "messaging/broker.h"
#include "messaging/cluster.h"
#include "messaging/consumer.h"
#include "messaging/offset_manager.h"
#include "messaging/producer.h"

#include "read_util.h"
#include "test_util.h"

namespace liquid::messaging {
namespace {

/// End-to-end produce/consume paths through the messaging layer (Fig. 3).
class ProduceConsumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.num_brokers = 3;
    cluster_ = std::make_unique<Cluster>(config, &clock_);
    ASSERT_TRUE(cluster_->Start().ok());
    auto offsets = OffsetManager::Open(&offsets_disk_, "offsets/", &clock_);
    ASSERT_TRUE(offsets.ok());
    offsets_ = std::move(offsets).value();
    coordinator_ = std::make_unique<GroupCoordinator>(cluster_.get());
  }

  void CreateTopic(const std::string& name, int partitions, int rf = 2) {
    TopicConfig config;
    config.partitions = partitions;
    config.replication_factor = rf;
    ASSERT_TRUE(cluster_->CreateTopic(name, config).ok());
  }

  std::unique_ptr<Consumer> NewConsumer(const std::string& group,
                                        const std::string& member) {
    ConsumerConfig config;
    config.group = group;
    return std::make_unique<Consumer>(cluster_.get(), offsets_.get(),
                                      coordinator_.get(), member, config);
  }

  SimulatedClock clock_{1000};
  std::unique_ptr<Cluster> cluster_;
  storage::MemDisk offsets_disk_;
  std::unique_ptr<OffsetManager> offsets_;
  std::unique_ptr<GroupCoordinator> coordinator_;
};

TEST_F(ProduceConsumeTest, RoundTripSinglePartition) {
  CreateTopic("t", 1);
  Producer producer(cluster_.get(), ProducerConfig{});
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        producer.Send("t", storage::Record::KeyValue("k" + std::to_string(i),
                                                     "v" + std::to_string(i)))
            .ok());
  }
  ASSERT_TRUE(producer.Flush().ok());
  EXPECT_EQ(producer.records_sent(), 100);

  auto consumer = NewConsumer("g", "c1");
  ASSERT_TRUE(consumer->Subscribe({"t"}).ok());
  std::vector<ConsumerRecord> all;
  while (true) {
    auto records = consumer->Poll(32);
    ASSERT_TRUE(records.ok());
    if (records->empty()) break;
    all.insert(all.end(), records->begin(), records->end());
  }
  ASSERT_EQ(all.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(all[i].record.key, "k" + std::to_string(i));
    EXPECT_EQ(all[i].record.offset, i);  // Per-partition total order (§3.1).
  }
}

TEST_F(ProduceConsumeTest, HashPartitioningIsStableByKey) {
  CreateTopic("t", 4);
  Producer producer(cluster_.get(), ProducerConfig{});
  // Same key many times: always the same partition.
  for (int i = 0; i < 20; ++i) {
    LIQUID_ASSERT_OK(producer.Send("t", storage::Record::KeyValue("stable-key", "v")));
  }
  LIQUID_ASSERT_OK(producer.Flush());
  int partitions_with_data = 0;
  for (int p = 0; p < 4; ++p) {
    auto leader = cluster_->LeaderFor(TopicPartition{"t", p});
    if (*(*leader)->LogEndOffset(TopicPartition{"t", p}) > 0) {
      ++partitions_with_data;
    }
  }
  EXPECT_EQ(partitions_with_data, 1);
}

TEST_F(ProduceConsumeTest, RoundRobinSpreadsLoad) {
  CreateTopic("t", 4);
  ProducerConfig config;
  config.partitioner = PartitionerType::kRoundRobin;
  config.batch_max_records = 1;  // Send immediately.
  Producer producer(cluster_.get(), config);
  for (int i = 0; i < 40; ++i) {
    LIQUID_ASSERT_OK(producer.Send("t", storage::Record::KeyValue("k", "v")));
  }
  LIQUID_ASSERT_OK(producer.Flush());
  for (int p = 0; p < 4; ++p) {
    auto leader = cluster_->LeaderFor(TopicPartition{"t", p});
    EXPECT_EQ(*(*leader)->LogEndOffset(TopicPartition{"t", p}), 10);
  }
}

TEST_F(ProduceConsumeTest, CustomPartitionerRoutesSemantically) {
  CreateTopic("t", 2);
  Producer producer(cluster_.get(), ProducerConfig{});
  producer.SetCustomPartitioner(
      [](const storage::Record& record, int) {
        return record.key.size() % 2 == 0 ? 0 : 1;
      });
  LIQUID_ASSERT_OK(producer.Send("t", storage::Record::KeyValue("ab", "v")));   // -> 0
  LIQUID_ASSERT_OK(producer.Send("t", storage::Record::KeyValue("abc", "v")));  // -> 1
  LIQUID_ASSERT_OK(producer.Flush());
  auto l0 = cluster_->LeaderFor(TopicPartition{"t", 0});
  auto l1 = cluster_->LeaderFor(TopicPartition{"t", 1});
  EXPECT_EQ(*(*l0)->LogEndOffset(TopicPartition{"t", 0}), 1);
  EXPECT_EQ(*(*l1)->LogEndOffset(TopicPartition{"t", 1}), 1);
}

TEST_F(ProduceConsumeTest, ProduceToNonLeaderIsRejected) {
  CreateTopic("t", 1, 3);
  const TopicPartition tp{"t", 0};
  auto state = cluster_->GetPartitionState(tp);
  // Find a follower broker.
  int follower = -1;
  for (int replica : state->replicas) {
    if (replica != state->leader) follower = replica;
  }
  ASSERT_GE(follower, 0);
  std::vector<storage::Record> batch{storage::Record::KeyValue("k", "v")};
  auto resp =
      cluster_->broker(follower)->Produce(tp, batch, AckMode::kLeader);
  EXPECT_TRUE(resp.status().IsNotLeader());
}

TEST_F(ProduceConsumeTest, ConsumerSeekRewindsAndRereads) {
  CreateTopic("t", 1);
  Producer producer(cluster_.get(), ProducerConfig{});
  for (int i = 0; i < 10; ++i) {
    LIQUID_ASSERT_OK(producer.Send("t", storage::Record::KeyValue("k", std::to_string(i))));
  }
  LIQUID_ASSERT_OK(producer.Flush());

  auto consumer = NewConsumer("g", "c1");
  LIQUID_ASSERT_OK(consumer->Subscribe({"t"}));
  auto first = consumer->Poll(100);
  ASSERT_EQ(first->size(), 10u);
  // Rewindability (§3.1): seek back and read the same data again.
  ASSERT_TRUE(consumer->Seek(TopicPartition{"t", 0}, 5).ok());
  auto again = consumer->Poll(100);
  ASSERT_EQ(again->size(), 5u);
  EXPECT_EQ(again->front().record.offset, 5);
}

TEST_F(ProduceConsumeTest, SeekToTimestampFindsData) {
  CreateTopic("t", 1);
  Producer producer(cluster_.get(), ProducerConfig{});
  clock_.SetMs(10000);
  LIQUID_ASSERT_OK(producer.Send("t", storage::Record::KeyValue("k", "early")));
  LIQUID_ASSERT_OK(producer.Flush());
  clock_.SetMs(20000);
  LIQUID_ASSERT_OK(producer.Send("t", storage::Record::KeyValue("k", "late")));
  LIQUID_ASSERT_OK(producer.Flush());

  auto consumer = NewConsumer("g", "c1");
  LIQUID_ASSERT_OK(consumer->Subscribe({"t"}));
  ASSERT_TRUE(consumer->SeekToTimestamp(15000).ok());
  auto records = consumer->Poll(10);
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ(records->front().record.value, "late");
}

TEST_F(ProduceConsumeTest, CommitAndResumeAfterConsumerRestart) {
  CreateTopic("t", 1);
  Producer producer(cluster_.get(), ProducerConfig{});
  for (int i = 0; i < 10; ++i) {
    LIQUID_ASSERT_OK(producer.Send("t", storage::Record::KeyValue("k", std::to_string(i))));
  }
  LIQUID_ASSERT_OK(producer.Flush());

  {
    auto consumer = NewConsumer("g", "c1");
    LIQUID_ASSERT_OK(consumer->Subscribe({"t"}));
    auto records = consumer->Poll(4);
    ASSERT_EQ(records->size(), 4u);
    ASSERT_TRUE(consumer->Commit().ok());
    LIQUID_ASSERT_OK(consumer->Close());
  }
  // New member of the same group resumes from the committed offset.
  auto consumer = NewConsumer("g", "c2");
  LIQUID_ASSERT_OK(consumer->Subscribe({"t"}));
  auto records = consumer->Poll(100);
  ASSERT_EQ(records->size(), 6u);
  EXPECT_EQ(records->front().record.offset, 4);
}

TEST_F(ProduceConsumeTest, TwoGroupsEachSeeAllData) {
  // Pub/sub semantics ACROSS groups (§3.1, Fig. 3).
  CreateTopic("t", 2);
  Producer producer(cluster_.get(), ProducerConfig{});
  for (int i = 0; i < 20; ++i) {
    LIQUID_ASSERT_OK(producer.Send("t", storage::Record::KeyValue("k" + std::to_string(i), "v")));
  }
  LIQUID_ASSERT_OK(producer.Flush());

  for (const char* group_name : {"g1", "g2"}) {
    const std::string group(group_name);
    auto consumer = NewConsumer(group, group + "-member");
    LIQUID_ASSERT_OK(consumer->Subscribe({"t"}));
    size_t total = 0;
    while (true) {
      auto records = consumer->Poll(64);
      if (records->empty()) break;
      total += records->size();
    }
    EXPECT_EQ(total, 20u) << group;
  }
}

TEST_F(ProduceConsumeTest, FetchSeesOnlyCommittedData) {
  // With rf=3 and lazy replication, the HW lags until followers pull.
  CreateTopic("t", 1, 3);
  const TopicPartition tp{"t", 0};
  auto leader = cluster_->LeaderFor(tp);
  std::vector<storage::Record> batch{storage::Record::KeyValue("k", "v")};
  ASSERT_TRUE((*leader)->Produce(tp, batch, AckMode::kLeader).ok());
  // No replication tick yet: HW is still 0, consumers see nothing.
  auto fetch = (*leader)->Fetch(tp, 0, 1 << 20, -1);
  ASSERT_TRUE(fetch.ok());
  EXPECT_TRUE(fetch->batches.empty());
  EXPECT_EQ(fetch->log_end_offset, 1);

  cluster_->ReplicationTick();
  cluster_->ReplicationTick();  // Second tick advances HW from follower LEOs.
  fetch = (*leader)->Fetch(tp, 0, 1 << 20, -1);
  EXPECT_EQ(Decoded(*fetch).size(), 1u);
}

TEST_F(ProduceConsumeTest, ProducerRetriesAfterLeaderFailover) {
  CreateTopic("t", 1, 3);
  const TopicPartition tp{"t", 0};
  ProducerConfig config;
  config.acks = AckMode::kAll;
  config.batch_max_records = 1;
  Producer producer(cluster_.get(), config);
  ASSERT_TRUE(producer.Send("t", storage::Record::KeyValue("k", "v1")).ok());

  const int old_leader = cluster_->GetPartitionState(tp)->leader;
  LIQUID_ASSERT_OK(cluster_->StopBroker(old_leader));
  // The producer refreshes metadata and retries transparently.
  ASSERT_TRUE(producer.Send("t", storage::Record::KeyValue("k", "v2")).ok());
  ASSERT_TRUE(producer.Flush().ok());
  const int new_leader = cluster_->GetPartitionState(tp)->leader;
  EXPECT_NE(new_leader, old_leader);
  EXPECT_GE(*cluster_->broker(new_leader)->LogEndOffset(tp), 1);
}

}  // namespace
}  // namespace liquid::messaging
