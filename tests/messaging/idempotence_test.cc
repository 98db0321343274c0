#include <gtest/gtest.h>

#include <memory>

#include "common/clock.h"
#include "messaging/broker.h"
#include "messaging/cluster.h"
#include "messaging/producer.h"

#include "read_util.h"

namespace liquid::messaging {
namespace {

/// Delivery guarantees (§4.3): at-least-once by default, plus the optional
/// idempotent-producer extension (the paper's "ongoing effort to design and
/// implement support for exactly-once semantics").
class IdempotenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.num_brokers = 3;
    cluster_ = std::make_unique<Cluster>(config, &clock_);
    ASSERT_TRUE(cluster_->Start().ok());
    TopicConfig topic;
    topic.partitions = 1;
    topic.replication_factor = 2;
    ASSERT_TRUE(cluster_->CreateTopic("t", topic).ok());
  }

  int64_t LogEnd() {
    auto leader = cluster_->LeaderFor(tp_);
    return *(*leader)->LogEndOffset(tp_);
  }

  SimulatedClock clock_{1000};
  std::unique_ptr<Cluster> cluster_;
  const TopicPartition tp_{"t", 0};
};

TEST_F(IdempotenceTest, PlainProducerRetryDuplicates) {
  // Without idempotence, a retried batch lands twice: at-least-once.
  auto leader = cluster_->LeaderFor(tp_);
  std::vector<storage::Record> batch{storage::Record::KeyValue("k", "v")};
  ASSERT_TRUE((*leader)->Produce(tp_, batch, AckMode::kLeader).ok());
  ASSERT_TRUE((*leader)->Produce(tp_, batch, AckMode::kLeader).ok());
  EXPECT_EQ(LogEnd(), 2);
}

TEST_F(IdempotenceTest, IdempotentRetryIsDeduplicated) {
  auto leader = cluster_->LeaderFor(tp_);
  std::vector<storage::Record> batch{storage::Record::KeyValue("k", "v")};
  const int64_t pid = 77;
  ASSERT_TRUE((*leader)->Produce(tp_, batch, AckMode::kLeader, pid, 0).ok());
  // Simulated lost ack -> client retries the same (pid, seq) batch.
  auto retry = (*leader)->Produce(tp_, batch, AckMode::kLeader, pid, 0);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->base_offset, -1);  // Marked as duplicate.
  EXPECT_EQ(LogEnd(), 1);             // Exactly one copy in the log.
}

TEST_F(IdempotenceTest, SequenceGapRejected) {
  auto leader = cluster_->LeaderFor(tp_);
  std::vector<storage::Record> batch{storage::Record::KeyValue("k", "v")};
  const int64_t pid = 78;
  ASSERT_TRUE((*leader)->Produce(tp_, batch, AckMode::kLeader, pid, 0).ok());
  // Sequence 2 skips 1: out of order.
  auto gap = (*leader)->Produce(tp_, batch, AckMode::kLeader, pid, 2);
  EXPECT_TRUE(gap.status().IsInvalidArgument());
}

TEST_F(IdempotenceTest, DistinctProducersDoNotInterfere) {
  auto leader = cluster_->LeaderFor(tp_);
  std::vector<storage::Record> batch{storage::Record::KeyValue("k", "v")};
  ASSERT_TRUE((*leader)->Produce(tp_, batch, AckMode::kLeader, 1, 0).ok());
  ASSERT_TRUE((*leader)->Produce(tp_, batch, AckMode::kLeader, 2, 0).ok());
  EXPECT_EQ(LogEnd(), 2);
}

TEST_F(IdempotenceTest, ProducerClientTracksSequencesPerPartition) {
  ProducerConfig config;
  config.idempotent = true;
  config.batch_max_records = 2;
  Producer producer(cluster_.get(), config);
  EXPECT_GT(producer.producer_id(), 0);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        producer.Send("t", storage::Record::KeyValue("k", std::to_string(i)))
            .ok());
  }
  ASSERT_TRUE(producer.Flush().ok());
  EXPECT_EQ(LogEnd(), 10);
  // Records carry the producer id and dense sequences.
  auto leader = cluster_->LeaderFor(tp_);
  cluster_->ReplicationTick();
  cluster_->ReplicationTick();
  auto fetch = (*leader)->Fetch(tp_, 0, 1 << 20, -1);
  const std::vector<storage::Record> records = Decoded(*fetch);
  ASSERT_EQ(records.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(records[i].producer_id, producer.producer_id());
    EXPECT_EQ(records[i].sequence, i);
  }
}

TEST_F(IdempotenceTest, AtLeastOnceConsumerSeesDuplicatesOnReplay) {
  // The at-least-once contract (§4.3): replaying from an old offset re-reads
  // data; keyed idempotent updates make that harmless for applications.
  auto leader = cluster_->LeaderFor(tp_);
  for (int i = 0; i < 5; ++i) {
    std::vector<storage::Record> batch{
        storage::Record::KeyValue("k", std::to_string(i))};
    ASSERT_TRUE((*leader)->Produce(tp_, batch, AckMode::kAll).ok());
  }
  auto first = (*leader)->Fetch(tp_, 0, 1 << 20, -1);
  auto replay = (*leader)->Fetch(tp_, 0, 1 << 20, -1);
  const std::vector<storage::Record> first_records = Decoded(*first);
  const std::vector<storage::Record> replay_records = Decoded(*replay);
  ASSERT_EQ(first_records.size(), replay_records.size());
  // Same offsets, same payloads: replay is deterministic.
  for (size_t i = 0; i < first_records.size(); ++i) {
    EXPECT_EQ(first_records[i].offset, replay_records[i].offset);
    EXPECT_EQ(first_records[i].value, replay_records[i].value);
  }
}

}  // namespace
}  // namespace liquid::messaging
