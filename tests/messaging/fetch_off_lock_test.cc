#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "messaging/broker.h"
#include "messaging/cluster.h"
#include "messaging/metadata.h"
#include "storage/record.h"

#include "read_util.h"
#include "test_util.h"

namespace liquid::messaging {
namespace {

using SteadyClock = std::chrono::steady_clock;

// Broker::Fetch reads the log after releasing the partition lock
// (DESIGN.md §5a): a slow read must not hold up producers of the same
// partition.
class FetchOffLockTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.num_brokers = 1;
    cluster_ = std::make_unique<Cluster>(config, &clock_);
    LIQUID_ASSERT_OK(cluster_->Start());
    TopicConfig topic;
    topic.partitions = 1;
    topic.replication_factor = 1;
    LIQUID_ASSERT_OK(cluster_->CreateTopic("t", topic));
  }

  void TearDown() override { FaultRegistry::Default()->Clear(); }

  SimulatedClock clock_{1000};
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(FetchOffLockTest, ProduceCompletesWhileAFetchReadIsDelayed) {
  const TopicPartition tp{"t", 0};
  Broker* leader = *cluster_->LeaderFor(tp);
  std::vector<storage::Record> backlog;
  for (int i = 0; i < 10; ++i) {
    backlog.push_back(storage::Record::KeyValue("k", "v" + std::to_string(i)));
  }
  LIQUID_ASSERT_OK(leader->Produce(tp, backlog, AckMode::kLeader));

  // The consumer fetch's first log read stalls for 200 ms (a cold disk).
  FaultSiteConfig delay;
  delay.kind = FaultActionKind::kDelay;
  delay.delay_us = 200'000;
  delay.max_triggers = 1;
  FaultRegistry::Default()->Arm("log.read.before", delay);

  SteadyClock::time_point fetch_done;
  Status fetch_status;
  std::thread fetcher([&] {
    fetch_status = leader->Fetch(tp, 0, 1 << 20, -1).status();
    fetch_done = SteadyClock::now();
  });
  // Wait until the fetch is inside the delayed read.
  const SteadyClock::time_point give_up =
      SteadyClock::now() + std::chrono::seconds(10);
  while (FaultRegistry::Default()->triggers("log.read.before") == 0 &&
         SteadyClock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(FaultRegistry::Default()->triggers("log.read.before"), 1);

  std::vector<storage::Record> one{storage::Record::KeyValue("k", "live")};
  LIQUID_EXPECT_OK(leader->Produce(tp, one, AckMode::kLeader));
  const SteadyClock::time_point produce_done = SteadyClock::now();
  fetcher.join();
  LIQUID_EXPECT_OK(fetch_status);
  // The produce finished while the fetch was still reading, with at least
  // half of the delay to spare. Were the read under the partition lock, the
  // produce would finish after the fetch.
  EXPECT_LT(produce_done + std::chrono::milliseconds(100), fetch_done);
}

TEST_F(FetchOffLockTest, BudgetedFetchesReturnContiguousOffsets) {
  // Segments smaller than a cache page and budgets around one segment: a
  // fetch gathers several ReadEncoded steps, and a consumer looping on
  // next_fetch_offset must be handed every offset once, in order, never
  // skipping the unread rest of a segment. Once over a roomy page cache
  // (pinned pages, one segment per step) and once over a one-page cache
  // that leaves closed segments cold (the copying path).
  ClusterConfig cold_config;
  cold_config.num_brokers = 1;
  cold_config.broker.page_cache.capacity_bytes = 4096;
  cold_config.broker.page_cache.flush_after_ms = 0;
  Cluster cold(cold_config, &clock_);
  LIQUID_ASSERT_OK(cold.Start());
  for (Cluster* cluster : {cluster_.get(), &cold}) {
    SCOPED_TRACE(cluster == &cold ? "cold cache" : "warm cache");
    TopicConfig topic;
    topic.partitions = 1;
    topic.replication_factor = 1;
    topic.log.segment_bytes = 1024;
    LIQUID_ASSERT_OK(cluster->CreateTopic("small", topic));
    const TopicPartition tp{"small", 0};
    Broker* leader = *cluster->LeaderFor(tp);
    constexpr int64_t kRecords = 200;
    for (int b = 0; b < kRecords / 5; ++b) {
      std::vector<storage::Record> batch;
      for (int i = 0; i < 5; ++i) {
        batch.push_back(storage::Record::KeyValue(
            "key-" + std::to_string(b) + "-" + std::to_string(i),
            "v" + std::to_string(b * 5 + i)));
      }
      LIQUID_ASSERT_OK(leader->Produce(tp, batch, AckMode::kLeader));
    }

    for (const size_t budget : {size_t{300}, size_t{1500}}) {
      SCOPED_TRACE("max_bytes " + std::to_string(budget));
      int64_t expected = 0;
      int multi_step_fetches = 0;
      while (expected < kRecords) {
        auto resp = leader->Fetch(tp, expected, budget, -1);
        LIQUID_ASSERT_OK(resp.status());
        ASSERT_FALSE(resp->batches.empty()) << "at " << expected;
        if (resp->batches.size() > 1) ++multi_step_fetches;
        const int64_t first = expected;
        for (const storage::EncodedBatch& batch : resp->batches) {
          for (const storage::BatchFrame& frame : batch.frames()) {
            ASSERT_EQ(frame.offset, expected++) << "fetch from " << first;
          }
        }
        ASSERT_EQ(resp->next_fetch_offset, expected);
        const std::vector<storage::Record> records = Decoded(*resp);
        ASSERT_EQ(records.size(), static_cast<size_t>(expected - first));
        for (const storage::Record& record : records) {
          EXPECT_EQ(record.value, "v" + std::to_string(record.offset));
        }
      }
      // Pinned steps stop at a segment's end, so a budget over one segment
      // takes several.
      if (cluster != &cold && budget > topic.log.segment_bytes) {
        EXPECT_GT(multi_step_fetches, 0);
      }
    }
  }
}

// Consumer fetches (read_uncommitted and read_committed) race produces,
// transaction markers, leader->follower truncation, retention and
// compaction. ThreadSanitizer checks the interleaving when scripts/check.sh
// runs the suite; the assertions check what the readers were handed.
class FetchOffLockStressTest : public ::testing::Test {
 protected:
  // One record a reader was handed, with the bound its response carried.
  struct Delivery {
    int64_t offset;
    std::string value;
    int64_t high_watermark;
  };

  void SetUp() override {
    ClusterConfig config;
    config.num_brokers = 2;
    cluster_ = std::make_unique<Cluster>(config, &clock_);
    LIQUID_ASSERT_OK(cluster_->Start());
    topic_.partitions = 1;
    topic_.replication_factor = 2;
    topic_.log.segment_bytes = 2048;
    topic_.log.retention_bytes = 24 * 1024;
    topic_.log.compaction_enabled = true;
    LIQUID_ASSERT_OK(cluster_->CreateTopic("t", topic_));
  }

  void Acked(int64_t base, const std::vector<storage::Record>& records) {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < records.size(); ++i) {
      acked_.emplace(base + static_cast<int64_t>(i), records[i].value);
    }
  }

  SimulatedClock clock_{1000};
  std::unique_ptr<Cluster> cluster_;
  TopicConfig topic_;
  std::mutex mu_;
  // Every (offset, value) a produce acknowledged. Truncation can hand an
  // offset to a later record, so one offset may carry several values.
  std::set<std::pair<int64_t, std::string>> acked_;
  std::set<int> committed_txns_;
};

TEST_F(FetchOffLockStressTest, ReadersSeeOnlyAckedRecordsBelowTheirBound) {
  const TopicPartition tp{"t", 0};
  const PartitionState initial = *cluster_->GetPartitionState(tp);
  const int leader_id = initial.leader;
  Broker* leader = cluster_->broker(leader_id);
  constexpr int kRecords = 400;
  constexpr int kTxns = 40;
  constexpr int kChurns = 15;

  std::atomic<int> writers_left{3};
  // Serializes whole transactions against leadership churn: a marker needs
  // the leader state its transaction began under.
  std::mutex control_mu;

  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int i = 0; i < kRecords; ++i) {
      std::vector<storage::Record> batch{storage::Record::KeyValue(
          "k" + std::to_string(i % 32), "w-" + std::to_string(i))};
      for (int attempt = 0; attempt < 100; ++attempt) {
        auto resp = leader->Produce(tp, batch, AckMode::kLeader);
        if (resp.ok()) {
          Acked(resp->base_offset, batch);
          break;
        }
        std::this_thread::yield();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    writers_left.fetch_sub(1);
  });
  threads.emplace_back([&] {
    for (int txn = 0; txn < kTxns; ++txn) {
      std::lock_guard<std::mutex> control(control_mu);
      const int64_t pid = 1000 + txn;
      const bool commit = txn % 2 == 0;
      if (!leader->BeginPartitionTxn(tp, pid).ok()) continue;
      std::vector<storage::Record> batch;
      for (int j = 0; j < 3; ++j) {
        batch.push_back(storage::Record::KeyValue(
            "t" + std::to_string(txn),
            std::string(commit ? "c-" : "a-") + std::to_string(txn)));
      }
      auto resp = leader->Produce(tp, batch, AckMode::kLeader, pid, 0);
      if (resp.ok()) Acked(resp->base_offset, batch);
      const bool committed = commit && resp.ok();
      if (leader->WriteTxnMarker(tp, pid, committed).ok() && committed) {
        std::lock_guard<std::mutex> lock(mu_);
        committed_txns_.insert(txn);
      }
    }
    writers_left.fetch_sub(1);
  });
  threads.emplace_back([&] {
    // Demote the leader (truncating it to its high watermark, which lags
    // while the follower is in the ISR) and promote it again under a newer
    // epoch.
    int epoch = initial.leader_epoch;
    for (int i = 0; i < kChurns; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      std::lock_guard<std::mutex> control(control_mu);
      PartitionState state = initial;
      state.leader = -1;
      state.leader_epoch = ++epoch;
      LIQUID_EXPECT_OK(leader->BecomeFollower(tp, state, topic_));
      state.leader = leader_id;
      state.leader_epoch = ++epoch;
      LIQUID_EXPECT_OK(leader->BecomeLeader(tp, state, topic_));
    }
    writers_left.fetch_sub(1);
  });
  threads.emplace_back([&] {
    while (writers_left.load() > 0) {
      cluster_->ReplicationTick();
      LIQUID_EXPECT_OK(leader->RunLogMaintenance());
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  std::vector<std::vector<Delivery>> delivered(2);
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      const bool read_committed = r == 1;
      int64_t cursor = 0;
      while (writers_left.load() > 0) {
        // A pause between polls, as a consumer takes: back-to-back shared
        // holds of the broker's membership lock (std::shared_mutex prefers
        // readers) would starve the exclusive hold leadership changes need.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        auto resp = leader->Fetch(tp, cursor, 1024, -1, "", read_committed);
        if (!resp.ok()) continue;  // NotLeader while demoted.
        for (const storage::Record& record : Decoded(*resp)) {
          delivered[r].push_back(
              Delivery{record.offset, record.value, resp->high_watermark});
          EXPECT_FALSE(record.is_control);
          if (read_committed) {
            EXPECT_NE(record.value.rfind("a-", 0), 0u);
          }
        }
        // Caught up: rewind and re-read what retention and compaction left.
        cursor = resp->batches.empty() ? 0 : resp->next_fetch_offset;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // What survived, read once everything is quiet.
  std::map<int64_t, std::string> final_log;
  for (int64_t cursor = 0;;) {
    auto resp = leader->Fetch(tp, cursor, 1 << 20, -1);
    LIQUID_ASSERT_OK(resp.status());
    if (resp->batches.empty()) break;
    for (const storage::Record& record : Decoded(*resp)) {
      final_log[record.offset] = record.value;
    }
    cursor = resp->next_fetch_offset;
  }
  for (int r = 0; r < 2; ++r) {
    for (const Delivery& d : delivered[r]) {
      EXPECT_LT(d.offset, d.high_watermark);
      EXPECT_EQ(acked_.count({d.offset, d.value}), 1u)
          << "offset " << d.offset << " value " << d.value;
      // Delivered offsets lie below the high watermark, which truncation
      // never crosses: a record that is still there is the one delivered.
      auto kept = final_log.find(d.offset);
      if (kept != final_log.end()) {
        EXPECT_EQ(kept->second, d.value);
      }
      if (r == 1 && d.value.rfind("c-", 0) == 0) {
        EXPECT_EQ(committed_txns_.count(std::stoi(d.value.substr(2))), 1u);
      }
    }
  }
  EXPECT_FALSE(delivered[0].empty());
}

}  // namespace
}  // namespace liquid::messaging
