#include "messaging/transaction.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/clock.h"
#include "common/metrics.h"
#include "messaging/broker.h"
#include "messaging/cluster.h"
#include "messaging/consumer.h"
#include "messaging/producer.h"

#include "read_util.h"
#include "test_util.h"

namespace liquid::messaging {
namespace {

/// Transactions / exactly-once (§4.3 "ongoing effort"): atomic multi-
/// partition publishing, read_committed isolation, zombie fencing, and
/// offsets-in-transaction.
class TransactionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.num_brokers = 3;
    cluster_ = std::make_unique<Cluster>(config, &clock_);
    ASSERT_TRUE(cluster_->Start().ok());
    offsets_ =
        std::move(OffsetManager::Open(&offsets_disk_, "o/", &clock_)).value();
    group_coordinator_ = std::make_unique<GroupCoordinator>(cluster_.get());
    txn_ = std::make_unique<TransactionCoordinator>(cluster_.get(),
                                                    offsets_.get());
    TopicConfig topic;
    topic.partitions = 2;
    topic.replication_factor = 2;
    ASSERT_TRUE(cluster_->CreateTopic("out", topic).ok());
  }

  std::unique_ptr<Producer> NewTxnProducer(const std::string& txn_id) {
    ProducerConfig config;
    config.transactional_id = txn_id;
    config.partitioner = PartitionerType::kRoundRobin;
    config.batch_max_records = 1;
    auto producer = std::make_unique<Producer>(cluster_.get(), config);
    EXPECT_TRUE(producer->InitTransactions(txn_.get()).ok());
    return producer;
  }

  std::vector<std::string> ReadCommitted(const std::string& group) {
    ConsumerConfig config;
    config.group = group;
    config.read_committed = true;
    Consumer consumer(cluster_.get(), offsets_.get(), group_coordinator_.get(),
                      group + "-m", config);
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

  SimulatedClock clock_{1000};
  std::unique_ptr<Cluster> cluster_;
  storage::MemDisk offsets_disk_;
  std::unique_ptr<OffsetManager> offsets_;
  std::unique_ptr<GroupCoordinator> group_coordinator_;
  std::unique_ptr<TransactionCoordinator> txn_;
};

TEST_F(TransactionTest, CommittedDataVisibleToReadCommitted) {
  auto producer = NewTxnProducer("t1");
  ASSERT_TRUE(producer->BeginTransaction().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        producer->Send("out", storage::Record::KeyValue("k", "v" + std::to_string(i)))
            .ok());
  }
  ASSERT_TRUE(producer->CommitTransaction().ok());
  EXPECT_EQ(ReadCommitted("g1").size(), 10u);
}

TEST_F(TransactionTest, OpenTransactionInvisibleUntilCommit) {
  auto producer = NewTxnProducer("t1");
  ASSERT_TRUE(producer->BeginTransaction().ok());
  LIQUID_ASSERT_OK(producer->Send("out", storage::Record::KeyValue("k", "pending")));
  LIQUID_ASSERT_OK(producer->Flush());
  // read_committed sees nothing; read_uncommitted (default) sees the record.
  EXPECT_TRUE(ReadCommitted("g1").empty());
  ConsumerConfig dirty_config;
  dirty_config.group = "dirty";
  Consumer dirty(cluster_.get(), offsets_.get(), group_coordinator_.get(), "m",
                 dirty_config);
  LIQUID_ASSERT_OK(dirty.Subscribe({"out"}));
  size_t uncommitted_seen = 0;
  for (int i = 0; i < 10; ++i) uncommitted_seen += dirty.Poll(64)->size();
  EXPECT_EQ(uncommitted_seen, 1u);

  ASSERT_TRUE(producer->CommitTransaction().ok());
  EXPECT_EQ(ReadCommitted("g2").size(), 1u);
}

TEST_F(TransactionTest, AbortedDataNeverVisible) {
  auto producer = NewTxnProducer("t1");
  ASSERT_TRUE(producer->BeginTransaction().ok());
  for (int i = 0; i < 5; ++i) {
    LIQUID_ASSERT_OK(producer->Send("out", storage::Record::KeyValue("k", "doomed")));
  }
  ASSERT_TRUE(producer->AbortTransaction().ok());

  // Next transaction commits normally: only its data shows.
  ASSERT_TRUE(producer->BeginTransaction().ok());
  LIQUID_ASSERT_OK(producer->Send("out", storage::Record::KeyValue("k", "survivor")));
  ASSERT_TRUE(producer->CommitTransaction().ok());

  auto values = ReadCommitted("g1");
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], "survivor");
}

TEST_F(TransactionTest, AbortedDataStaysHiddenAfterLeaderFailover) {
  // Aborted ranges are leader memory. A promoted follower must rebuild them
  // from the log's transactional records and markers, or read_committed
  // consumers see the aborted data after failover.
  auto producer = NewTxnProducer("t1");
  LIQUID_ASSERT_OK(producer->BeginTransaction());
  for (int i = 0; i < 4; ++i) {
    LIQUID_ASSERT_OK(
        producer->Send("out", storage::Record::KeyValue("k", "doomed")));
  }
  LIQUID_ASSERT_OK(producer->AbortTransaction());
  LIQUID_ASSERT_OK(producer->BeginTransaction());
  LIQUID_ASSERT_OK(
      producer->Send("out", storage::Record::KeyValue("k", "survivor")));
  LIQUID_ASSERT_OK(producer->CommitTransaction());

  const TopicPartition tp{"out", 0};
  const int old_leader = cluster_->GetPartitionState(tp)->leader;
  LIQUID_ASSERT_OK(cluster_->StopBroker(old_leader));
  ASSERT_NE(cluster_->GetPartitionState(tp)->leader, old_leader);

  const std::vector<std::string> values = ReadCommitted("after-failover");
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], "survivor");
}

TEST_F(TransactionTest, MultiPartitionAtomicity) {
  auto producer = NewTxnProducer("t1");
  // Round-robin spreads the batch over both partitions; abort removes all.
  ASSERT_TRUE(producer->BeginTransaction().ok());
  for (int i = 0; i < 8; ++i) {
    LIQUID_ASSERT_OK(producer->Send("out", storage::Record::KeyValue("k", "none")));
  }
  ASSERT_TRUE(producer->AbortTransaction().ok());
  ASSERT_TRUE(producer->BeginTransaction().ok());
  for (int i = 0; i < 8; ++i) {
    LIQUID_ASSERT_OK(producer->Send("out", storage::Record::KeyValue("k", "all")));
  }
  ASSERT_TRUE(producer->CommitTransaction().ok());

  auto values = ReadCommitted("g1");
  ASSERT_EQ(values.size(), 8u);
  for (const auto& value : values) EXPECT_EQ(value, "all");
}

TEST_F(TransactionTest, ZombieFencingAbortsPredecessor) {
  auto zombie = NewTxnProducer("shared-id");
  ASSERT_TRUE(zombie->BeginTransaction().ok());
  LIQUID_ASSERT_OK(zombie->Send("out", storage::Record::KeyValue("k", "zombie-write")));
  LIQUID_ASSERT_OK(zombie->Flush());
  // The zombie stalls; a new incarnation with the SAME transactional id
  // initializes — the coordinator aborts the zombie's open transaction.
  auto successor = NewTxnProducer("shared-id");
  ASSERT_TRUE(successor->BeginTransaction().ok());
  LIQUID_ASSERT_OK(successor->Send("out", storage::Record::KeyValue("k", "successor-write")));
  ASSERT_TRUE(successor->CommitTransaction().ok());

  auto values = ReadCommitted("g1");
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], "successor-write");
}

TEST_F(TransactionTest, OffsetsCommitAtomicallyWithOutputs) {
  const TopicPartition input{"in", 0};
  TopicConfig topic;
  topic.partitions = 1;
  ASSERT_TRUE(cluster_->CreateTopic("in", topic).ok());

  // Committed transaction applies the buffered offsets.
  ASSERT_TRUE(txn_->InitProducer("rw").ok());
  ASSERT_TRUE(txn_->Begin("rw").ok());
  OffsetCommit commit;
  commit.offset = 42;
  ASSERT_TRUE(txn_->AddOffsets("rw", "job", input, commit).ok());
  ASSERT_TRUE(txn_->End("rw", /*commit=*/true).ok());
  EXPECT_EQ(offsets_->Fetch("job", input)->offset, 42);

  // Aborted transaction discards them.
  ASSERT_TRUE(txn_->Begin("rw").ok());
  commit.offset = 99;
  ASSERT_TRUE(txn_->AddOffsets("rw", "job", input, commit).ok());
  ASSERT_TRUE(txn_->End("rw", /*commit=*/false).ok());
  EXPECT_EQ(offsets_->Fetch("job", input)->offset, 42);  // Unchanged.
}

TEST_F(TransactionTest, LastStableOffsetTracksOngoingTxns) {
  TopicConfig topic;
  topic.partitions = 1;
  topic.replication_factor = 1;
  ASSERT_TRUE(cluster_->CreateTopic("lso", topic).ok());
  const TopicPartition tp{"lso", 0};
  Broker* leader = *cluster_->LeaderFor(tp);

  // Plain committed record first.
  std::vector<storage::Record> plain{storage::Record::KeyValue("k", "v")};
  LIQUID_ASSERT_OK(leader->Produce(tp, plain, AckMode::kAll));
  EXPECT_EQ(*leader->LastStableOffset(tp), 1);

  // Ongoing txn pins the LSO at its first offset.
  ASSERT_TRUE(leader->BeginPartitionTxn(tp, 777).ok());
  std::vector<storage::Record> txn_rec{storage::Record::KeyValue("k", "t")};
  txn_rec[0].producer_id = 777;
  LIQUID_ASSERT_OK(leader->Produce(tp, txn_rec, AckMode::kAll));
  LIQUID_ASSERT_OK(leader->Produce(tp, plain, AckMode::kAll));  // Later plain write.
  EXPECT_EQ(*leader->LastStableOffset(tp), 1);  // Still pinned.

  ASSERT_TRUE(leader->WriteTxnMarker(tp, 777, /*committed=*/true).ok());
  EXPECT_EQ(*leader->LastStableOffset(tp), *leader->HighWatermark(tp));
}

TEST_F(TransactionTest, RetentionPrunesAbortedRangesItDeleted) {
  TopicConfig topic;
  topic.partitions = 1;
  topic.replication_factor = 1;
  topic.log.segment_bytes = 1024;
  topic.log.retention_bytes = 4096;
  ASSERT_TRUE(cluster_->CreateTopic("pruned", topic).ok());
  const TopicPartition tp{"pruned", 0};
  Broker* leader = *cluster_->LeaderFor(tp);

  ASSERT_TRUE(leader->BeginPartitionTxn(tp, 777).ok());
  std::vector<storage::Record> doomed{storage::Record::KeyValue("k", "doomed")};
  LIQUID_ASSERT_OK(leader->Produce(tp, doomed, AckMode::kAll, 777, 0));
  ASSERT_TRUE(leader->WriteTxnMarker(tp, 777, /*committed=*/false).ok());
  auto fetch = leader->Fetch(tp, 0, 1 << 20, -1, "", /*read_committed=*/true);
  LIQUID_ASSERT_OK(fetch.status());
  ASSERT_EQ(fetch->aborted.size(), 1u);
  EXPECT_TRUE(Decoded(*fetch).empty());

  // Enough later data that retention deletes the aborted range and its
  // marker; a fetch from offset 0 then carries no stale range.
  for (int i = 0; i < 100; ++i) {
    std::vector<storage::Record> plain{
        storage::Record::KeyValue("k", std::string(100, 'v'))};
    LIQUID_ASSERT_OK(leader->Produce(tp, plain, AckMode::kAll));
  }
  LIQUID_ASSERT_OK(leader->RunLogMaintenance());
  fetch = leader->Fetch(tp, 0, 1 << 20, -1, "", /*read_committed=*/true);
  LIQUID_ASSERT_OK(fetch.status());
  ASSERT_GT(fetch->log_start_offset, 2);
  EXPECT_TRUE(fetch->aborted.empty());
  EXPECT_FALSE(Decoded(*fetch).empty());
}

TEST_F(TransactionTest, FetchCountsOnlyTheRecordsConsumersSee) {
  // The broker serves aborted data and markers as frames and the consumer
  // drops them, but fetch_records counts what the consumer keeps. An
  // aborted range hides only its own producer's records: a plain record
  // written inside it stays visible.
  TopicConfig topic;
  topic.partitions = 1;
  topic.replication_factor = 1;
  ASSERT_TRUE(cluster_->CreateTopic("mixed", topic).ok());
  const TopicPartition tp{"mixed", 0};
  Broker* leader = *cluster_->LeaderFor(tp);
  ASSERT_TRUE(leader->BeginPartitionTxn(tp, 777).ok());
  std::vector<storage::Record> doomed{storage::Record::KeyValue("k", "doomed")};
  std::vector<storage::Record> plain{storage::Record::KeyValue("k", "plain")};
  LIQUID_ASSERT_OK(leader->Produce(tp, doomed, AckMode::kAll, 777, 0));
  LIQUID_ASSERT_OK(leader->Produce(tp, plain, AckMode::kAll));
  LIQUID_ASSERT_OK(leader->Produce(tp, doomed, AckMode::kAll, 777, 1));
  ASSERT_TRUE(leader->WriteTxnMarker(tp, 777, /*committed=*/false).ok());

  Counter* fetched = MetricsRegistry::Default()->GetCounter(
      "liquid.broker." + std::to_string(leader->id()) + ".fetch_records");
  const int64_t before = fetched->value();
  auto fetch = leader->Fetch(tp, 0, 1 << 20, -1, "", /*read_committed=*/true);
  LIQUID_ASSERT_OK(fetch.status());
  EXPECT_EQ(fetch->next_fetch_offset, 4);  // 3 records and the marker.
  const std::vector<storage::Record> records = Decoded(*fetch);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].value, "plain");
  EXPECT_EQ(fetched->value() - before, 1);
}

TEST_F(TransactionTest, ControlMarkersNeverDelivered) {
  auto producer = NewTxnProducer("t1");
  LIQUID_ASSERT_OK(producer->BeginTransaction());
  LIQUID_ASSERT_OK(producer->Send("out", storage::Record::KeyValue("k", "v")));
  LIQUID_ASSERT_OK(producer->CommitTransaction());
  // Even a read_uncommitted consumer never sees control markers.
  ConsumerConfig config;
  config.group = "g";
  config.read_committed = true;
  Consumer consumer(cluster_.get(), offsets_.get(), group_coordinator_.get(),
                    "m", config);
  LIQUID_ASSERT_OK(consumer.Subscribe({"out"}));
  for (int i = 0; i < 10; ++i) {
    auto records = consumer.Poll(64);
    for (const auto& envelope : *records) {
      EXPECT_FALSE(envelope.record.is_control);
    }
  }
}

TEST_F(TransactionTest, FollowerCopyOfMarkerIsDurableUnderGroupSync) {
  // The leader counts a follower's copy of a transaction marker toward the
  // marker's replication, so under sync_mode=group the marker write awaits
  // that copy's fsync — like any other acks=all batch.
  TopicConfig topic;
  topic.partitions = 1;
  topic.replication_factor = 2;
  topic.log.sync_mode = storage::SyncMode::kGroup;
  ASSERT_TRUE(cluster_->CreateTopic("durable", topic).ok());
  const TopicPartition tp{"durable", 0};

  auto producer = NewTxnProducer("t1");
  LIQUID_ASSERT_OK(producer->BeginTransaction());
  for (int i = 0; i < 3; ++i) {
    LIQUID_ASSERT_OK(producer->Send(
        "durable", storage::Record::KeyValue("k", "v" + std::to_string(i))));
  }
  LIQUID_ASSERT_OK(producer->CommitTransaction());

  auto state = cluster_->GetPartitionState(tp);
  LIQUID_ASSERT_OK(state.status());
  const int64_t leader_end =
      *cluster_->broker(state->leader)->LogEndOffset(tp);
  ASSERT_EQ(leader_end, 4);  // Three records and the commit marker.
  int follower = -1;
  for (int replica : state->replicas) {
    if (replica != state->leader) follower = replica;
  }
  ASSERT_GE(follower, 0);
  ASSERT_EQ(*cluster_->broker(follower)->LogEndOffset(tp), leader_end);

  // Power-cycle the follower, dropping everything it never fsynced. No
  // replication tick runs, so its log holds exactly what reached its disk.
  LIQUID_ASSERT_OK(cluster_->StopBroker(follower));
  cluster_->disk(follower)->SimulateCrash();
  LIQUID_ASSERT_OK(cluster_->RestartBroker(follower));
  EXPECT_EQ(*cluster_->broker(follower)->LogEndOffset(tp), leader_end);
}

TEST_F(TransactionTest, CoordinatorStateMachineGuards) {
  EXPECT_TRUE(txn_->Begin("unknown").IsNotFound());
  ASSERT_TRUE(txn_->InitProducer("t").ok());
  EXPECT_TRUE(txn_->End("t", true).IsFailedPrecondition());  // Nothing open.
  ASSERT_TRUE(txn_->Begin("t").ok());
  EXPECT_TRUE(txn_->Begin("t").IsFailedPrecondition());  // Already open.
  EXPECT_TRUE(txn_->InFlight("t"));
  ASSERT_TRUE(txn_->End("t", false).ok());
  EXPECT_FALSE(txn_->InFlight("t"));
}

}  // namespace
}  // namespace liquid::messaging
