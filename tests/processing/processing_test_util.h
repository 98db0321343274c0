#ifndef LIQUID_TESTS_PROCESSING_PROCESSING_TEST_UTIL_H_
#define LIQUID_TESTS_PROCESSING_PROCESSING_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "messaging/broker.h"
#include "messaging/cluster.h"
#include "messaging/producer.h"
#include "processing/job.h"
#include "test_util.h"

namespace liquid::processing {

/// Shared fixture wiring a cluster + offset manager + group coordinator for
/// processing-layer tests.
class ProcessingTestBase : public ::testing::Test {
 protected:
  void SetUp() override {
    messaging::ClusterConfig config;
    config.num_brokers = 3;
    cluster_ = std::make_unique<messaging::Cluster>(config, &clock_);
    ASSERT_TRUE(cluster_->Start().ok());
    auto offsets =
        messaging::OffsetManager::Open(&offsets_disk_, "offsets/", &clock_);
    ASSERT_TRUE(offsets.ok());
    offsets_ = std::move(offsets).value();
    coordinator_ =
        std::make_unique<messaging::GroupCoordinator>(cluster_.get());
  }

  void CreateTopic(const std::string& name, int partitions, int rf = 1) {
    messaging::TopicConfig config;
    config.partitions = partitions;
    config.replication_factor = rf;
    ASSERT_TRUE(cluster_->CreateTopic(name, config).ok());
  }

  void Produce(const std::string& topic,
               const std::vector<storage::Record>& records) {
    messaging::Producer producer(cluster_.get(), messaging::ProducerConfig{});
    for (const auto& record : records) {
      ASSERT_TRUE(producer.Send(topic, record).ok());
    }
    ASSERT_TRUE(producer.Flush().ok());
  }

  std::unique_ptr<Job> MakeJob(JobConfig config, TaskFactory factory,
                               storage::Disk* state_disk = nullptr,
                               const std::string& instance = "0") {
    auto job = Job::Create(cluster_.get(), offsets_.get(), coordinator_.get(),
                           state_disk != nullptr ? state_disk : &state_disk_,
                           std::move(config), std::move(factory), instance);
    EXPECT_TRUE(job.ok()) << job.status().ToString();
    return std::move(job).value();
  }

  /// All records currently committed in one partition.
  std::vector<storage::Record> ReadAll(const messaging::TopicPartition& tp) {
    std::vector<storage::Record> out;
    auto leader = cluster_->LeaderFor(tp);
    if (!leader.ok()) return out;
    int64_t cursor = 0;
    while (true) {
      auto resp = (*leader)->Fetch(tp, cursor, 1 << 20, -1);
      if (!resp.ok() || resp->batches.empty()) break;
      cursor = resp->next_fetch_offset;
      EXPECT_TRUE(resp->DecodeRecords(&out).ok());
    }
    return out;
  }

  SimulatedClock clock_{1000};
  std::unique_ptr<messaging::Cluster> cluster_;
  storage::MemDisk offsets_disk_;
  std::unique_ptr<messaging::OffsetManager> offsets_;
  std::unique_ptr<messaging::GroupCoordinator> coordinator_;
  storage::MemDisk state_disk_;
};

}  // namespace liquid::processing

#endif  // LIQUID_TESTS_PROCESSING_PROCESSING_TEST_UTIL_H_
