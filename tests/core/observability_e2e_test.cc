// End-to-end observability tests: trace propagation across the whole stack
// (producer -> broker -> consumer -> job -> downstream feed) and consumer-lag
// visibility for dead consumers. See OBSERVABILITY.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/liquid.h"
#include "messaging/lag_monitor.h"

#include "test_util.h"

namespace liquid::core {
namespace {

/// Every NowUs() observation advances time by 1us, so two sequential
/// observations are strictly ordered — which makes span-timestamp
/// monotonicity assertions deterministic (a plain SimulatedClock would give
/// every hop the same timestamp; a SystemClock could too, at us resolution).
class TickingClock : public Clock {
 public:
  int64_t NowMs() const override { return now_us_.load() / 1000; }
  int64_t NowUs() const override { return now_us_.fetch_add(1) + 1; }
  void SleepMs(int64_t ms) override { now_us_.fetch_add(ms * 1000); }

 private:
  mutable std::atomic<int64_t> now_us_{1'000'000};
};

/// Forwards every input record's value to a downstream feed.
class ForwardTask : public processing::StreamTask {
 public:
  explicit ForwardTask(std::string output) : output_(std::move(output)) {}

  Status Process(const messaging::ConsumerRecord& envelope,
                 processing::MessageCollector* collector,
                 processing::TaskCoordinator*) override {
    return collector->Send(output_,
                           storage::Record::KeyValue(envelope.record.key,
                                                     envelope.record.value));
  }

 private:
  std::string output_;
};

class ObservabilityE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceCollector::Default()->Clear();
    TraceCollector::Default()->SetSampleRate(1.0);
    MetricsRegistry::Default()->ResetAllForTest();
    Liquid::Options options;
    options.cluster.num_brokers = 3;
    options.clock = &clock_;
    auto liquid = Liquid::Start(options);
    ASSERT_TRUE(liquid.ok()) << liquid.status().ToString();
    liquid_ = std::move(liquid).value();
  }

  void TearDown() override {
    liquid_.reset();
    // The collector and registry are process-wide; leave them quiescent for
    // whatever test runs next in this binary.
    TraceCollector::Default()->SetSampleRate(0.0);
    TraceCollector::Default()->Clear();
    MetricsRegistry::Default()->ResetAllForTest();
  }

  TickingClock clock_;
  std::unique_ptr<Liquid> liquid_;
};

TEST_F(ObservabilityE2eTest, TraceFollowsRecordThroughJobToDownstreamFeed) {
  LIQUID_ASSERT_OK(liquid_->CreateSourceFeed("events", FeedOptions{}));
  LIQUID_ASSERT_OK(liquid_->CreateDerivedFeed("events-copied", FeedOptions{},
                                              "copy", "v1", {"events"}));

  processing::JobConfig config;
  config.name = "copy";
  config.inputs = {"events"};
  config.commit_interval_ms = 0;
  auto job = liquid_->SubmitJob(
      config, [] { return std::make_unique<ForwardTask>("events-copied"); });
  LIQUID_ASSERT_OK(job.status());

  auto producer = liquid_->NewProducer();
  LIQUID_ASSERT_OK(producer->Send(
      "events", storage::Record::KeyValue("k", "hello")));
  LIQUID_ASSERT_OK(producer->Flush());
  LIQUID_ASSERT_OK((*job)->RunUntilIdle());

  // The downstream record must carry the SAME trace id the producer stamped
  // on the input record.
  auto consumer = liquid_->NewConsumer("verify", "v0");
  LIQUID_ASSERT_OK(consumer->Subscribe({"events-copied"}));
  std::vector<messaging::ConsumerRecord> got;
  for (int attempt = 0; attempt < 10 && got.empty(); ++attempt) {
    auto batch = consumer->Poll(16);
    LIQUID_ASSERT_OK(batch.status());
    got = std::move(batch).value();
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].record.value, "hello");
  ASSERT_TRUE(got[0].record.traced());
  const uint64_t trace_id = got[0].record.trace_id;

  const auto spans = TraceCollector::Default()->Trace(trace_id);
  ASSERT_GE(spans.size(), 4u);
  std::set<std::string> hops;
  std::map<std::string, int64_t> first_start;
  std::vector<int64_t> starts;
  for (const Span& span : spans) {
    EXPECT_EQ(span.trace_id, trace_id);
    EXPECT_GE(span.end_us, span.start_us);
    hops.insert(span.name);
    auto it = first_start.find(span.name);
    if (it == first_start.end() || span.start_us < it->second) {
      first_start[span.name] = span.start_us;
    }
    starts.push_back(span.start_us);
  }
  // One hop of each kind at minimum: produce + append on the input feed,
  // fetch into the job, the task's process, then produce/append/fetch again
  // on the derived feed — all under one trace id.
  EXPECT_TRUE(hops.count("produce")) << "hops missing produce";
  EXPECT_TRUE(hops.count("append")) << "hops missing append";
  EXPECT_TRUE(hops.count("fetch")) << "hops missing fetch";
  EXPECT_TRUE(hops.count("process")) << "hops missing process";

  // Span start timestamps are strictly monotonic: every hop observed the
  // ticking clock after the previous one.
  std::sort(starts.begin(), starts.end());
  for (size_t i = 1; i < starts.size(); ++i) {
    EXPECT_LT(starts[i - 1], starts[i]);
  }
  // And the hop order matches the data path.
  EXPECT_LT(first_start["produce"], first_start["append"]);
  EXPECT_LT(first_start["append"], first_start["fetch"]);
  EXPECT_LT(first_start["fetch"], first_start["process"]);

  // Latency metrics derived from the trace timestamps are live.
  MetricsRegistry* metrics = MetricsRegistry::Default();
  EXPECT_GE(metrics->GetHistogram("liquid.job.copy.process_us")->count(), 1);
  EXPECT_GE(metrics->GetHistogram("liquid.job.copy.e2e_latency_us")->count(),
            1);
  EXPECT_GE(
      metrics->GetHistogram("liquid.consumer.verify.e2e_latency_us")->count(),
      1);
  const std::string text = metrics->RenderPrometheus();
  EXPECT_NE(text.find("liquid_consumer_verify_e2e_latency_us_count 1"),
            std::string::npos);
  EXPECT_NE(text.find("liquid_job_copy_process_us_count"), std::string::npos);
}

TEST_F(ObservabilityE2eTest, DeadConsumerLagKeepsGrowing) {
  LIQUID_ASSERT_OK(liquid_->CreateSourceFeed("clicks", FeedOptions{}));
  auto producer = liquid_->NewProducer();
  auto send_batch = [&](int n) {
    for (int i = 0; i < n; ++i) {
      LIQUID_ASSERT_OK(producer->Send(
          "clicks", storage::Record::ValueOnly("c" + std::to_string(i))));
    }
    LIQUID_ASSERT_OK(producer->Flush());
  };
  send_batch(10);

  // A healthy consumer catches up and commits: zero lag.
  auto consumer = liquid_->NewConsumer("laggy", "m0");
  LIQUID_ASSERT_OK(consumer->Subscribe({"clicks"}));
  size_t seen = 0;
  while (seen < 10) {
    auto batch = consumer->Poll(64);
    LIQUID_ASSERT_OK(batch.status());
    seen += batch->size();
  }
  LIQUID_ASSERT_OK(consumer->Commit());

  auto lag = messaging::CollectConsumerLag(liquid_->cluster(),
                                           liquid_->offsets(),
                                           liquid_->clock());
  auto find_group = [&](const std::vector<messaging::GroupLag>& groups)
      -> const messaging::GroupLag* {
    for (const auto& group : groups) {
      if (group.group == "laggy") return &group;
    }
    return nullptr;
  };
  const messaging::GroupLag* laggy = find_group(lag);
  ASSERT_NE(laggy, nullptr);
  EXPECT_EQ(laggy->total_lag, 0);

  // The consumer dies; traffic continues. Lag derived from committed offsets
  // keeps growing even though nobody is polling.
  LIQUID_ASSERT_OK(consumer->Close());
  send_batch(10);
  clock_.SleepMs(5000);

  lag = messaging::CollectConsumerLag(liquid_->cluster(), liquid_->offsets(),
                                      liquid_->clock());
  laggy = find_group(lag);
  ASSERT_NE(laggy, nullptr);
  EXPECT_EQ(laggy->total_lag, 10);
  EXPECT_GE(laggy->max_checkpoint_age_ms, 5000);

  // The gauges land in the default registry and the Prometheus exposition.
  MetricsRegistry* metrics = MetricsRegistry::Default();
  EXPECT_EQ(metrics->GetGauge("liquid.consumer.laggy.lag")->value(), 10);
  EXPECT_GE(metrics->GetGauge("liquid.consumer.laggy.checkpoint_age_ms")
                ->value(),
            5000);
  const std::string text = metrics->RenderPrometheus();
  EXPECT_NE(text.find("liquid_consumer_laggy_lag 10\n"), std::string::npos);

  // Ten more records, still dead: strictly worse.
  send_batch(10);
  lag = messaging::CollectConsumerLag(liquid_->cluster(), liquid_->offsets(),
                                      liquid_->clock());
  laggy = find_group(lag);
  ASSERT_NE(laggy, nullptr);
  EXPECT_EQ(laggy->total_lag, 20);
  const std::string table = messaging::FormatLagTable(lag);
  EXPECT_NE(table.find("laggy"), std::string::npos);
  EXPECT_NE(table.find("clicks-0"), std::string::npos);
}

TEST_F(ObservabilityE2eTest, SamplingOffLeavesRecordsUntraced) {
  TraceCollector::Default()->SetSampleRate(0.0);
  LIQUID_ASSERT_OK(liquid_->CreateSourceFeed("plain", FeedOptions{}));
  auto producer = liquid_->NewProducer();
  LIQUID_ASSERT_OK(
      producer->Send("plain", storage::Record::KeyValue("k", "v")));
  LIQUID_ASSERT_OK(producer->Flush());

  auto consumer = liquid_->NewConsumer("quiet", "m0");
  LIQUID_ASSERT_OK(consumer->Subscribe({"plain"}));
  std::vector<messaging::ConsumerRecord> got;
  for (int attempt = 0; attempt < 10 && got.empty(); ++attempt) {
    auto batch = consumer->Poll(16);
    LIQUID_ASSERT_OK(batch.status());
    got = std::move(batch).value();
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_FALSE(got[0].record.traced());
  EXPECT_TRUE(TraceCollector::Default()->Snapshot().empty());
  // No trace means no e2e sample either — but the record still counts.
  EXPECT_EQ(
      MetricsRegistry::Default()
          ->GetHistogram("liquid.consumer.quiet.e2e_latency_us")
          ->count(),
      0);
  EXPECT_EQ(MetricsRegistry::Default()
                ->GetCounter("liquid.consumer.quiet.records")
                ->value(),
            1);
}

/// A replicated record gets one "replicate" span on each follower, with
/// the same parent as its leader's "append" span, whichever way the
/// follower took the leader's bytes: the acks=all push, or the pull that
/// catches up an acks=1 record.
class ReplicateSpanTest
    : public ObservabilityE2eTest,
      public ::testing::WithParamInterface<messaging::AckMode> {};

TEST_P(ReplicateSpanTest, EachFollowerRecordsOneParentedLikeAppend) {
  FeedOptions feed;
  feed.replication_factor = 3;
  LIQUID_ASSERT_OK(liquid_->CreateSourceFeed("events", feed));
  messaging::ProducerConfig config;
  config.acks = GetParam();
  auto producer = liquid_->NewProducer(config);
  LIQUID_ASSERT_OK(
      producer->Send("events", storage::Record::KeyValue("k", "v")));
  LIQUID_ASSERT_OK(producer->Flush());
  // Two pull rounds: the first lands an acks=1 record on both followers,
  // the second must not land (or trace) it again.
  liquid_->cluster()->ReplicationTick();
  liquid_->cluster()->ReplicationTick();

  std::vector<Span> appends;
  for (const Span& span : TraceCollector::Default()->Snapshot()) {
    if (span.name == "append" && span.detail == "events-0") {
      appends.push_back(span);
    }
  }
  ASSERT_EQ(appends.size(), 1u);
  std::set<std::string> followers;
  for (const Span& span : TraceCollector::Default()->Trace(
           appends[0].trace_id)) {
    if (span.name != "replicate") continue;
    EXPECT_EQ(span.parent_span_id, appends[0].parent_span_id);
    EXPECT_TRUE(followers.insert(span.detail).second) << span.detail;
  }
  EXPECT_EQ(followers.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Paths, ReplicateSpanTest,
    ::testing::Values(messaging::AckMode::kAll, messaging::AckMode::kLeader),
    [](const ::testing::TestParamInfo<messaging::AckMode>& info) {
      return info.param == messaging::AckMode::kAll ? "Push" : "Pull";
    });

}  // namespace
}  // namespace liquid::core
