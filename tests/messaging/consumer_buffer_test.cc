// A consumer keeps the records of its last fetch that a poll did not
// deliver, per partition, and serves the next poll from them. Every case
// here acts while such a buffer holds records: positions and commits must
// name the next undelivered record, and a seek, a rebalance or a
// read_committed filter must never deliver a record twice or skip one.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "messaging/cluster.h"
#include "messaging/consumer.h"
#include "messaging/group_coordinator.h"
#include "messaging/offset_manager.h"
#include "messaging/producer.h"
#include "messaging/transaction.h"

#include "test_util.h"

namespace liquid::messaging {
namespace {

class ConsumerBufferTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.num_brokers = 1;
    cluster_ = std::make_unique<Cluster>(config, &clock_);
    ASSERT_TRUE(cluster_->Start().ok());
    offsets_ =
        std::move(OffsetManager::Open(&offsets_disk_, "o/", &clock_)).value();
    coordinator_ = std::make_unique<GroupCoordinator>(cluster_.get());
    txn_ =
        std::make_unique<TransactionCoordinator>(cluster_.get(), offsets_.get());
  }

  void CreateTopic(const std::string& name, int partitions) {
    TopicConfig config;
    config.partitions = partitions;
    config.replication_factor = 1;
    ASSERT_TRUE(cluster_->CreateTopic(name, config).ok());
  }

  // `count` records round-robin over the partitions, values "v<first + i>".
  void Produce(const std::string& topic, int first, int count) {
    ProducerConfig config;
    config.partitioner = PartitionerType::kRoundRobin;
    Producer producer(cluster_.get(), config);
    for (int i = first; i < first + count; ++i) {
      LIQUID_ASSERT_OK(producer.Send(
          topic, storage::Record::KeyValue("k", "v" + std::to_string(i))));
    }
    LIQUID_ASSERT_OK(producer.Flush());
  }

  std::unique_ptr<Consumer> NewConsumer(const std::string& group,
                                        const std::string& member,
                                        bool read_committed = false) {
    ConsumerConfig config;
    config.group = group;
    config.read_committed = read_committed;
    return std::make_unique<Consumer>(cluster_.get(), offsets_.get(),
                                      coordinator_.get(), member, config);
  }

  static std::vector<int64_t> Offsets(const std::vector<ConsumerRecord>& got) {
    std::vector<int64_t> offsets;
    for (const ConsumerRecord& cr : got) offsets.push_back(cr.record.offset);
    return offsets;
  }

  static std::vector<int64_t> Range(int64_t from, int64_t to) {
    std::vector<int64_t> offsets;
    for (int64_t o = from; o < to; ++o) offsets.push_back(o);
    return offsets;
  }

  static Counter* GroupCounter(const std::string& group,
                               const std::string& name) {
    return MetricsRegistry::Default()->GetCounter("liquid.consumer." + group +
                                                  "." + name);
  }

  SimulatedClock clock_{1000};
  std::unique_ptr<Cluster> cluster_;
  storage::MemDisk offsets_disk_;
  std::unique_ptr<OffsetManager> offsets_;
  std::unique_ptr<GroupCoordinator> coordinator_;
  std::unique_ptr<TransactionCoordinator> txn_;
};

TEST_F(ConsumerBufferTest, PollsServeOneFetchAndCommitTheNextUndelivered) {
  CreateTopic("t", 1);
  Produce("t", 0, 100);
  const TopicPartition tp{"t", 0};
  auto consumer = NewConsumer("buffer-serve", "m");
  LIQUID_ASSERT_OK(consumer->Subscribe({"t"}));
  Counter* fetched = GroupCounter("buffer-serve", "fetched_records");
  Counter* delivered = GroupCounter("buffer-serve", "records");
  const int64_t fetched_before = fetched->value();
  const int64_t delivered_before = delivered->value();

  auto first = consumer->Poll(10);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(Offsets(*first), Range(0, 10));
  // One fetch decoded all 100; the other 90 wait in the buffer.
  EXPECT_EQ(fetched->value() - fetched_before, 100);
  EXPECT_EQ(delivered->value() - delivered_before, 10);
  EXPECT_EQ(*consumer->Position(tp), 10);
  EXPECT_EQ(consumer->Positions().at(tp), 10);
  EXPECT_EQ(MetricsRegistry::Default()
                ->GetGauge("liquid.consumer.buffer-serve.lag." + tp.ToString())
                ->value(),
            90);
  LIQUID_ASSERT_OK(consumer->Commit());
  EXPECT_EQ(offsets_->Fetch("buffer-serve", tp)->offset, 10);

  // The next polls come from the buffer: no fetch decodes anything again.
  auto second = consumer->Poll(80);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(Offsets(*second), Range(10, 90));
  EXPECT_EQ(fetched->value() - fetched_before, 100);
  LIQUID_ASSERT_OK(consumer->Commit());
  EXPECT_EQ(offsets_->Fetch("buffer-serve", tp)->offset, 90);

  // Draining the buffer leaves room, so the same poll fetches again.
  Produce("t", 100, 20);
  auto third = consumer->Poll(50);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(Offsets(*third), Range(90, 120));
  EXPECT_EQ(fetched->value() - fetched_before, 120);
  EXPECT_EQ(delivered->value() - delivered_before, 120);
  EXPECT_EQ(*consumer->Position(tp), 120);
}

TEST_F(ConsumerBufferTest, SeekInsideAndPastTheBufferDropsIt) {
  CreateTopic("t", 1);
  Produce("t", 0, 100);
  const TopicPartition tp{"t", 0};
  auto consumer = NewConsumer("buffer-seek", "m");
  LIQUID_ASSERT_OK(consumer->Subscribe({"t"}));
  ASSERT_EQ(consumer->Poll(10)->size(), 10u);  // Buffers 10..99.

  // Inside the buffer: forward, then back behind what was delivered.
  LIQUID_ASSERT_OK(consumer->Seek(tp, 50));
  EXPECT_EQ(*consumer->Position(tp), 50);
  EXPECT_EQ(Offsets(*consumer->Poll(5)), Range(50, 55));
  LIQUID_ASSERT_OK(consumer->Seek(tp, 3));
  EXPECT_EQ(Offsets(*consumer->Poll(5)), Range(3, 8));

  // Past the buffer: records the buffered fetch never read.
  Produce("t", 100, 100);
  LIQUID_ASSERT_OK(consumer->Seek(tp, 150));
  EXPECT_EQ(Offsets(*consumer->Poll(5)), Range(150, 155));
  EXPECT_EQ(*consumer->Position(tp), 155);
}

TEST_F(ConsumerBufferTest, SeekToTimestampDropsEveryBuffer) {
  CreateTopic("t", 1);
  Produce("t", 0, 30);
  auto consumer = NewConsumer("buffer-seek-ts", "m");
  LIQUID_ASSERT_OK(consumer->Subscribe({"t"}));
  ASSERT_EQ(consumer->Poll(10)->size(), 10u);  // Buffers 10..29.
  LIQUID_ASSERT_OK(consumer->SeekToTimestamp(0));  // Every record is newer.
  EXPECT_EQ(Offsets(*consumer->Poll(5)), Range(0, 5));
}

TEST_F(ConsumerBufferTest, RebalanceWhileBufferedDeliversEachRecordOnce) {
  CreateTopic("t", 2);
  Produce("t", 0, 40);  // 20 per partition.
  auto m1 = NewConsumer("buffer-rebalance", "m1");
  LIQUID_ASSERT_OK(m1->Subscribe({"t"}));
  ASSERT_EQ(m1->Assignment().size(), 2u);

  // Two polls of 5: each visits one partition first, so both partitions
  // end up with 15 records buffered.
  std::multiset<std::string> seen;
  for (int i = 0; i < 2; ++i) {
    auto got = m1->Poll(5);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), 5u);
    for (const ConsumerRecord& cr : *got) seen.insert(cr.record.value);
  }
  for (const auto& [tp, position] : m1->Positions()) {
    EXPECT_EQ(position, 5) << tp.ToString();
  }
  LIQUID_ASSERT_OK(m1->Commit());

  // m2 joins: one of m1's partitions, buffer and all, moves to m2, which
  // resumes at m1's committed position, delivers some, commits and leaves.
  auto m2 = NewConsumer("buffer-rebalance", "m2");
  LIQUID_ASSERT_OK(m2->Subscribe({"t"}));
  for (Consumer* c : {m1.get(), m2.get()}) {
    auto got = c->Poll(7);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), 7u);
    for (const ConsumerRecord& cr : *got) seen.insert(cr.record.value);
    EXPECT_EQ(c->Assignment().size(), 1u);
  }
  LIQUID_ASSERT_OK(m2->Commit());
  LIQUID_ASSERT_OK(m2->CloseWithoutCommit());

  // The partition comes back to m1, which must resume at m2's commit, not
  // serve what it buffered before it lost the partition.
  for (int round = 0; round < 10; ++round) {
    auto got = m1->Poll(7);
    ASSERT_TRUE(got.ok());
    for (const ConsumerRecord& cr : *got) seen.insert(cr.record.value);
  }
  EXPECT_EQ(m1->Assignment().size(), 2u);
  ASSERT_EQ(seen.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(seen.count("v" + std::to_string(i)), 1u) << i;
  }
}

TEST_F(ConsumerBufferTest, ReadCommittedBufferStraddlesAnAbortedRange) {
  CreateTopic("t", 1);
  ProducerConfig config;
  config.transactional_id = "straddle";
  Producer producer(cluster_.get(), config);
  LIQUID_ASSERT_OK(producer.InitTransactions(txn_.get()));
  // Offsets: committed 0..4 + marker 5, aborted 6..10 + marker 11,
  // committed 12..16 + marker 17.
  const auto transaction = [&](int first, bool commit) {
    LIQUID_ASSERT_OK(producer.BeginTransaction());
    for (int i = first; i < first + 5; ++i) {
      LIQUID_ASSERT_OK(producer.Send(
          "t", storage::Record::KeyValue("k", "v" + std::to_string(i))));
    }
    if (commit) {
      LIQUID_ASSERT_OK(producer.CommitTransaction());
    } else {
      LIQUID_ASSERT_OK(producer.AbortTransaction());
    }
  };
  transaction(0, true);
  transaction(5, false);
  transaction(10, true);
  const TopicPartition tp{"t", 0};

  Counter* fetched = GroupCounter("buffer-rc", "fetched_records");
  const int64_t fetched_before = fetched->value();
  auto consumer = NewConsumer("buffer-rc", "m1", /*read_committed=*/true);
  LIQUID_ASSERT_OK(consumer->Subscribe({"t"}));
  EXPECT_EQ(Offsets(*consumer->Poll(3)), (std::vector<int64_t>{0, 1, 2}));
  EXPECT_EQ(fetched->value() - fetched_before, 10);
  // The buffer still holds 3, 4 and 12..16: the position stops at the next
  // undelivered record, before the marker and the aborted range.
  EXPECT_EQ(Offsets(*consumer->Poll(2)), (std::vector<int64_t>{3, 4}));
  EXPECT_EQ(*consumer->Position(tp), 5);
  LIQUID_ASSERT_OK(consumer->Commit());
  EXPECT_EQ(offsets_->Fetch("buffer-rc", tp)->offset, 5);
  // The next poll jumps the aborted range from the buffer.
  EXPECT_EQ(Offsets(*consumer->Poll(1)), (std::vector<int64_t>{12}));
  EXPECT_EQ(*consumer->Position(tp), 13);
  LIQUID_ASSERT_OK(consumer->CloseWithoutCommit());

  // A member resuming at the commit re-reads across the aborted range and
  // sees only the committed records, then passes the last marker.
  auto resumed = NewConsumer("buffer-rc", "m2", /*read_committed=*/true);
  LIQUID_ASSERT_OK(resumed->Subscribe({"t"}));
  EXPECT_EQ(Offsets(*resumed->Poll(100)),
            (std::vector<int64_t>{12, 13, 14, 15, 16}));
  EXPECT_EQ(*resumed->Position(tp), 18);
}

}  // namespace
}  // namespace liquid::messaging
