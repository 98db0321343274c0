#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "messaging/broker.h"
#include "messaging/cluster.h"
#include "messaging/metadata.h"
#include "storage/record.h"

#include "read_util.h"
#include "test_util.h"

namespace liquid::messaging {
namespace {

// Contention stress for the sharded broker hot path: producers hammer one
// broker's partitions from many threads — disjoint (each thread owns a
// partition, the per-replica-lock best case) and overlapping (every thread
// touches every partition, exercising replica-lock handoff) — while a fetcher
// reads concurrently and a churner reassigns replicas (StopReplica /
// BecomeLeader), forcing writer-vs-reader traffic on the broker's membership
// lock. Assertions are on final committed state; the interleavings are the
// point, and ThreadSanitizer checks them when scripts/check.sh runs the suite
// with -DLIQUID_SANITIZE=thread.
class ParallelProduceStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.num_brokers = 1;
    cluster_ = std::make_unique<Cluster>(config, &clock_);
    ASSERT_TRUE(cluster_->Start().ok());
  }

  Broker* CreateTopic(const std::string& name, int partitions) {
    TopicConfig topic;
    topic.partitions = partitions;
    topic.replication_factor = 1;
    EXPECT_TRUE(cluster_->CreateTopic(name, topic).ok());
    return cluster_->broker(0);
  }

  SimulatedClock clock_{1000};
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(ParallelProduceStressTest, DisjointPartitionsFullyParallel) {
  constexpr int kThreads = 8;
  constexpr int kBatches = 100;
  Broker* broker = CreateTopic("disjoint", kThreads);

  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([broker, t] {
      const TopicPartition tp{"disjoint", t};
      for (int i = 0; i < kBatches; ++i) {
        std::vector<storage::Record> batch;
        batch.push_back(storage::Record::KeyValue(
            "t" + std::to_string(t), "v" + std::to_string(i)));
        LIQUID_ASSERT_OK(broker->Produce(tp, std::move(batch), AckMode::kLeader));
      }
    });
  }
  for (auto& thread : producers) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    auto end = broker->LogEndOffset(TopicPartition{"disjoint", t});
    LIQUID_ASSERT_OK(end);
    EXPECT_EQ(*end, kBatches);
  }
}

TEST_F(ParallelProduceStressTest, OverlappingPartitionsWithConcurrentFetch) {
  constexpr int kThreads = 6;
  constexpr int kPartitions = 3;
  constexpr int kBatches = 100;
  Broker* broker = CreateTopic("overlap", kPartitions);

  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([broker, t] {
      for (int i = 0; i < kBatches; ++i) {
        // Every thread cycles over every partition: replica locks hand off
        // between threads on each batch.
        const TopicPartition tp{"overlap", (t + i) % kPartitions};
        std::vector<storage::Record> batch;
        batch.push_back(storage::Record::KeyValue(
            "t" + std::to_string(t), "v" + std::to_string(i)));
        LIQUID_ASSERT_OK(broker->Produce(tp, std::move(batch), AckMode::kLeader));
      }
    });
  }

  // Committed reads (consumer path) and shared-buffer reads (replica path)
  // race the appends.
  std::thread fetcher([broker, &stop] {
    std::vector<int64_t> cursors(kPartitions, 0);
    while (!stop.load()) {
      for (int p = 0; p < kPartitions; ++p) {
        const TopicPartition tp{"overlap", p};
        auto consumer = broker->Fetch(tp, cursors[p], 1 << 16, -1);
        if (consumer.ok()) cursors[p] = consumer->next_fetch_offset;
        broker->Fetch(tp, 0, 1 << 14, /*replica_id=*/9).status();
      }
    }
  });

  for (auto& thread : producers) thread.join();
  stop.store(true);
  fetcher.join();

  int64_t total = 0;
  for (int p = 0; p < kPartitions; ++p) {
    auto end = broker->LogEndOffset(TopicPartition{"overlap", p});
    LIQUID_ASSERT_OK(end);
    total += *end;
  }
  EXPECT_EQ(total, int64_t{kThreads} * kBatches);
}

TEST_F(ParallelProduceStressTest, ReplicaReassignmentDuringProduce) {
  constexpr int kThreads = 4;
  constexpr int kBatches = 150;
  Broker* broker = CreateTopic("steady", kThreads);

  // The churn partition is repeatedly dropped and re-hosted while producers
  // target both it and the steady partitions: produce paths pin replicas with
  // a shared membership hold, reassignment takes it exclusively.
  const TopicPartition churn_tp{"churn", 0};
  TopicConfig churn_topic;
  churn_topic.partitions = 1;
  churn_topic.replication_factor = 1;
  ASSERT_TRUE(cluster_->CreateTopic("churn", churn_topic).ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([broker, churn_tp, t] {
      for (int i = 0; i < kBatches; ++i) {
        const TopicPartition tp =
            i % 3 == 0 ? churn_tp : TopicPartition{"steady", t};
        std::vector<storage::Record> batch;
        batch.push_back(storage::Record::KeyValue(
            "t" + std::to_string(t), "v" + std::to_string(i)));
        // The churn partition may momentarily not be hosted (NotFound) or
        // mid-reassignment (NotLeader); both are expected here.
        broker->Produce(tp, std::move(batch), AckMode::kLeader).status();
      }
    });
  }

  std::thread churner([this, broker, churn_tp, &stop] {
    auto config = cluster_->GetTopicConfig("churn");
    ASSERT_TRUE(config.ok());
    int epoch = 100;
    while (!stop.load()) {
      broker->StopReplica(churn_tp, /*delete_data=*/false).ok();
      PartitionState state;
      state.leader = 0;
      state.leader_epoch = ++epoch;
      state.replicas = {0};
      state.isr = {0};
      LIQUID_ASSERT_OK(broker->BecomeLeader(churn_tp, state, *config));
    }
  });

  for (auto& thread : producers) thread.join();
  stop.store(true);
  churner.join();

  // Steady partitions saw no reassignment: every batch must have landed.
  for (int t = 0; t < kThreads; ++t) {
    auto end = broker->LogEndOffset(TopicPartition{"steady", t});
    LIQUID_ASSERT_OK(end);
    EXPECT_EQ(*end, kBatches - kBatches / 3);
  }
  // The churn partition still works after the dust settles.
  std::vector<storage::Record> batch{storage::Record::KeyValue("k", "v")};
  LIQUID_ASSERT_OK(broker->Produce(churn_tp, std::move(batch), AckMode::kLeader));
}

// Pins the encode-once contract: a replica fetch's shared buffer must hold
// exactly the bytes a consumer fetch yields when its decoded records are
// re-encoded — including traced records, whose trace block rides in the wire
// format.
TEST_F(ParallelProduceStressTest, SharedBufferFetchMatchesDeepCopyBytes) {
  Broker* broker = CreateTopic("bytes", 1);
  const TopicPartition tp{"bytes", 0};

  std::vector<storage::Record> batch;
  batch.push_back(storage::Record::KeyValue("k0", "plain"));
  storage::Record traced = storage::Record::KeyValue("k1", "traced-value");
  traced.trace_id = 0xabcdef12345678ull;
  traced.span_id = 0x1122334455ull;
  traced.ingest_us = 987654;
  batch.push_back(traced);
  batch.push_back(storage::Record::Tombstone("k2"));
  storage::Record no_key = storage::Record::ValueOnly("anonymous");
  batch.push_back(no_key);
  LIQUID_ASSERT_OK(broker->Produce(tp, std::move(batch), AckMode::kLeader));

  // Replica path: shared immutable buffer.
  auto replica_fetch = broker->Fetch(tp, 0, 1 << 20, /*replica_id=*/7);
  LIQUID_ASSERT_OK(replica_fetch);
  ASSERT_EQ(replica_fetch->batches.size(), 1u);
  const storage::EncodedBatch& shared_batch = replica_fetch->batches[0];
  ASSERT_EQ(shared_batch.record_count(), 4u);
  const Slice shared = shared_batch.bytes();

  // Consumer path: the same frames decoded to Record structs, re-encoded.
  auto consumer_fetch = broker->Fetch(tp, 0, 1 << 20, -1);
  LIQUID_ASSERT_OK(consumer_fetch);
  const std::vector<storage::Record> records = Decoded(*consumer_fetch);
  ASSERT_EQ(records.size(), 4u);
  std::string reencoded;
  for (const storage::Record& record : records) {
    storage::EncodeRecord(record, &reencoded);
  }
  EXPECT_EQ(std::string(shared.data(), shared.size()), reencoded);

  // The traced record's context survives the shared-buffer round trip.
  auto decoded = shared_batch.DecodeFrame(1);
  LIQUID_ASSERT_OK(decoded);
  EXPECT_EQ(decoded->trace_id, traced.trace_id);
  EXPECT_EQ(decoded->span_id, traced.span_id);
  EXPECT_EQ(decoded->ingest_us, traced.ingest_us);
}

}  // namespace
}  // namespace liquid::messaging
