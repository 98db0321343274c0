#include "core/liquid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "common/clock.h"
#include "processing/operators.h"

#include "read_util.h"
#include "test_util.h"

namespace liquid::core {
namespace {

class LiquidTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Liquid::Options options;
    options.cluster.num_brokers = 3;
    options.clock = &clock_;
    auto liquid = Liquid::Start(options);
    ASSERT_TRUE(liquid.ok()) << liquid.status().ToString();
    liquid_ = std::move(liquid).value();
  }

  SimulatedClock clock_{1000};
  std::unique_ptr<Liquid> liquid_;
};

TEST_F(LiquidTest, StartsBothLayers) {
  EXPECT_EQ(liquid_->cluster()->AliveBrokerIds().size(), 3u);
  EXPECT_NE(liquid_->offsets(), nullptr);
  EXPECT_NE(liquid_->groups(), nullptr);
}

TEST_F(LiquidTest, SourceFeedMetadata) {
  FeedOptions options;
  options.partitions = 2;
  options.replication_factor = 2;
  ASSERT_TRUE(liquid_->CreateSourceFeed("user-activity", options).ok());
  auto metadata = liquid_->GetFeedMetadata("user-activity");
  ASSERT_TRUE(metadata.ok());
  EXPECT_EQ(metadata->kind, FeedKind::kSourceOfTruth);
  EXPECT_TRUE(metadata->producer_job.empty());
  EXPECT_EQ(metadata->created_ms, 1000);
}

TEST_F(LiquidTest, DerivedFeedCarriesLineage) {
  ASSERT_TRUE(liquid_->CreateSourceFeed("raw", FeedOptions{}).ok());
  ASSERT_TRUE(liquid_
                  ->CreateDerivedFeed("cleaned", FeedOptions{}, "cleaner-job",
                                      "v2.1", {"raw"})
                  .ok());
  auto metadata = liquid_->GetFeedMetadata("cleaned");
  ASSERT_TRUE(metadata.ok());
  EXPECT_EQ(metadata->kind, FeedKind::kDerived);
  EXPECT_EQ(metadata->producer_job, "cleaner-job");
  EXPECT_EQ(metadata->code_version, "v2.1");
  ASSERT_EQ(metadata->upstream_feeds.size(), 1u);
  EXPECT_EQ(metadata->upstream_feeds[0], "raw");
}

TEST_F(LiquidTest, LineageWalksTransitively) {
  LIQUID_ASSERT_OK(liquid_->CreateSourceFeed("raw", FeedOptions{}));
  LIQUID_ASSERT_OK(liquid_->CreateDerivedFeed("normalized", FeedOptions{}, "norm", "v1", {"raw"}));
  LIQUID_ASSERT_OK(liquid_->CreateDerivedFeed("sessions", FeedOptions{}, "sess", "v1",
                             {"normalized"}));
  auto lineage = liquid_->GetLineage("sessions");
  ASSERT_TRUE(lineage.ok());
  EXPECT_EQ(lineage->size(), 3u);
  EXPECT_TRUE(std::find(lineage->begin(), lineage->end(), "raw") !=
              lineage->end());
}

TEST_F(LiquidTest, FeedMetadataSerializationRoundTrip) {
  FeedMetadata metadata;
  metadata.kind = FeedKind::kDerived;
  metadata.producer_job = "job-x";
  metadata.code_version = "v3";
  metadata.upstream_feeds = {"a", "b"};
  metadata.created_ms = 777;
  auto parsed = FeedMetadata::Parse(metadata.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->kind, FeedKind::kDerived);
  EXPECT_EQ(parsed->producer_job, "job-x");
  EXPECT_EQ(parsed->code_version, "v3");
  EXPECT_EQ(parsed->upstream_feeds, metadata.upstream_feeds);
  EXPECT_EQ(parsed->created_ms, 777);
}

TEST_F(LiquidTest, MissingFeedIsNotFound) {
  EXPECT_TRUE(liquid_->GetFeedMetadata("ghost").status().IsNotFound());
  EXPECT_TRUE(liquid_->GetLineage("ghost").status().IsNotFound());
}

TEST_F(LiquidTest, ProduceConsumeThroughFacade) {
  ASSERT_TRUE(liquid_->CreateSourceFeed("events", FeedOptions{}).ok());
  auto producer = liquid_->NewProducer();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        producer->Send("events", storage::Record::KeyValue("k", "v")).ok());
  }
  ASSERT_TRUE(producer->Flush().ok());
  auto consumer = liquid_->NewConsumer("readers", "r1");
  ASSERT_TRUE(consumer->Subscribe({"events"}).ok());
  auto records = consumer->Poll(100);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 10u);
}

TEST_F(LiquidTest, SubmitAndStopJob) {
  LIQUID_ASSERT_OK(liquid_->CreateSourceFeed("in", FeedOptions{}));
  processing::JobConfig config;
  config.name = "etl";
  config.inputs = {"in"};
  config.stores = {{"c", processing::StoreConfig::Kind::kInMemory, false}};
  auto job = liquid_->SubmitJob(config, [] {
    return std::make_unique<processing::KeyedCounterTask>("c");
  });
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(liquid_->GetJob("etl"), *job);

  // Duplicate submission rejected (ETL-as-a-service keeps names unique).
  auto duplicate = liquid_->SubmitJob(config, [] {
    return std::make_unique<processing::KeyedCounterTask>("c");
  });
  EXPECT_TRUE(duplicate.status().IsAlreadyExists());

  ASSERT_TRUE(liquid_->StopJob("etl").ok());
  EXPECT_EQ(liquid_->GetJob("etl"), nullptr);
  EXPECT_TRUE(liquid_->StopJob("etl").IsNotFound());
}

TEST_F(LiquidTest, SubmittedJobProcessesData) {
  LIQUID_ASSERT_OK(liquid_->CreateSourceFeed("in", FeedOptions{}));
  auto producer = liquid_->NewProducer();
  for (int i = 0; i < 20; ++i) {
    LIQUID_ASSERT_OK(producer->Send("in", storage::Record::KeyValue("user", "e")));
  }
  LIQUID_ASSERT_OK(producer->Flush());

  processing::JobConfig config;
  config.name = "count";
  config.inputs = {"in"};
  config.stores = {{"c", processing::StoreConfig::Kind::kInMemory, true}};
  auto job = liquid_->SubmitJob(config, [] {
    return std::make_unique<processing::KeyedCounterTask>("c");
  });
  ASSERT_TRUE(job.ok());
  auto processed = (*job)->RunUntilIdle();
  ASSERT_TRUE(processed.ok());
  EXPECT_EQ(*processed, 20);
  auto* store = (*job)->GetStore(0, "c");
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(*store->Get("user"), "20");
}

TEST_F(LiquidTest, FacadeExposesAllCoordinators) {
  EXPECT_NE(liquid_->transactions(), nullptr);
  EXPECT_NE(liquid_->admin(), nullptr);
  auto description = liquid_->admin()->DescribeCluster();
  EXPECT_EQ(description.alive_brokers.size(), 3u);
}

TEST_F(LiquidTest, ExactlyOnceJobThroughFacade) {
  LIQUID_ASSERT_OK(liquid_->CreateSourceFeed("in", FeedOptions{}));
  LIQUID_ASSERT_OK(liquid_->CreateSourceFeed("out", FeedOptions{}));
  auto producer = liquid_->NewProducer();
  for (int i = 0; i < 5; ++i) {
    LIQUID_ASSERT_OK(producer->Send("in", storage::Record::KeyValue("k", std::to_string(i))));
  }
  LIQUID_ASSERT_OK(producer->Flush());

  processing::JobConfig config;
  config.name = "eo";
  config.inputs = {"in"};
  config.exactly_once = true;  // The facade supplies the txn coordinator.
  auto job = liquid_->SubmitJob(config, [] {
    return std::make_unique<processing::MapTask>(
        "out", [](const messaging::ConsumerRecord& envelope) {
          return std::optional<storage::Record>(envelope.record);
        });
  });
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_TRUE((*job)->RunUntilIdle().ok());
  ASSERT_TRUE(liquid_->StopJob("eo").ok());

  messaging::ConsumerConfig consumer_config;
  consumer_config.group = "check";
  consumer_config.read_committed = true;
  messaging::Consumer consumer(liquid_->cluster(), liquid_->offsets(),
                               liquid_->groups(), "m", consumer_config);
  LIQUID_ASSERT_OK(consumer.Subscribe({"out"}));
  size_t seen = 0;
  for (int i = 0; i < 10; ++i) seen += consumer.Poll(64)->size();
  EXPECT_EQ(seen, 5u);
}

TEST_F(LiquidTest, RunMaintenanceCompactsAndEvicts) {
  core::FeedOptions compacted;
  compacted.log.compaction_enabled = true;
  compacted.log.segment_bytes = 2048;
  LIQUID_ASSERT_OK(liquid_->CreateSourceFeed("keyed", compacted));
  auto producer = liquid_->NewProducer();
  for (int round = 0; round < 50; ++round) {
    for (int k = 0; k < 20; ++k) {
      LIQUID_ASSERT_OK(producer->Send("keyed", storage::Record::KeyValue(
                                  "key" + std::to_string(k), "update")));
    }
  }
  LIQUID_ASSERT_OK(producer->Flush());
  const messaging::TopicPartition tp{"keyed", 0};
  auto leader = liquid_->cluster()->LeaderFor(tp);
  // Capture the broker's log size before and after maintenance: the compactor
  // shrinks the keyed feed.
  auto fetch_before = (*leader)->Fetch(tp, 0, 100 << 20, -1);
  ASSERT_TRUE(liquid_->RunMaintenance().ok());
  auto fetch_after = (*leader)->Fetch(tp, 0, 100 << 20, -1);
  EXPECT_LT(Decoded(*fetch_after).size(), Decoded(*fetch_before).size());
  // The materialized view is intact: 20 distinct keys with latest values.
  std::set<std::string> keys;
  int64_t cursor = 0;
  while (true) {
    auto fetch = (*leader)->Fetch(tp, cursor, 1 << 20, -1);
    if (!fetch.ok() || fetch->batches.empty()) break;
    for (const auto& record : Decoded(*fetch)) keys.insert(record.key);
    cursor = fetch->next_fetch_offset;
  }
  EXPECT_EQ(keys.size(), 20u);
}

}  // namespace
}  // namespace liquid::core
