// liquid-top: an in-process observability console for the Liquid stack.
//
// Everything in this repository runs inside one process, so unlike the real
// `top` there is no external cluster to attach to. Instead the tool boots a
// small demo stack (one source feed, one enrichment job publishing a derived
// feed, one healthy consumer group and one deliberately dead one), drives
// traffic through it with tracing enabled, and then renders the observability
// surfaces an operator would use:
//
//   * the per-group / per-partition consumer-lag table (committed offsets vs
//     high watermarks, via messaging::CollectConsumerLag), showing the dead
//     group's lag growing while the healthy group keeps up;
//   * the process-wide metrics registry, as a human summary, as Prometheus
//     text exposition (--prometheus) or as JSON (--json);
//   * one sampled record's end-to-end trace tree (produce -> append ->
//     fetch -> process -> downstream hops).
//
// Usage:
//   liquid-top [--prometheus] [--json] [--records=N] [--sample-rate=R]
//
// See OBSERVABILITY.md for the metric naming scheme and a walkthrough that
// uses this tool to diagnose consumer lag.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/liquid.h"
#include "messaging/lag_monitor.h"

namespace {

using liquid::MetricsRegistry;
using liquid::Span;
using liquid::TraceCollector;

/// Demo enrichment task: uppercases the value, counts per-key messages in a
/// changelogged store, and republishes to the derived feed.
class EnrichTask : public liquid::processing::StreamTask {
 public:
  liquid::Status Process(const liquid::messaging::ConsumerRecord& envelope,
                         liquid::processing::MessageCollector* collector,
                         liquid::processing::TaskCoordinator*) override {
    auto* store = context_->GetStore("counts");
    if (store != nullptr) {
      int64_t count = 0;
      auto existing = store->Get(envelope.record.key);
      if (existing.ok()) count = std::atoll(existing->c_str());
      // liquid-lint: allow(hot-alloc): demo enrichment task: the serialized store value is its output; Put requires owned bytes.
      LIQUID_RETURN_NOT_OK(
          store->Put(envelope.record.key, std::to_string(count + 1)));
    }
    std::string enriched = envelope.record.value;
    for (char& c : enriched) c = static_cast<char>(std::toupper(c));
    return collector->Send(
        "page-views-enriched",
        liquid::storage::Record::KeyValue(envelope.record.key, enriched));
  }

  liquid::Status Init(liquid::processing::TaskContext* context) override {
    context_ = context;
    return liquid::Status::OK();
  }

 private:
  liquid::processing::TaskContext* context_ = nullptr;
};

/// Polls until the consumer sees no new committed data.
void Drain(liquid::messaging::Consumer* consumer) {
  while (true) {
    auto batch = consumer->Poll(64);
    LIQUID_CHECK_OK(batch.status());
    if (batch->empty()) break;
  }
}

int64_t ParseInt(const char* arg, int64_t fallback) {
  char* end = nullptr;
  const long long v = std::strtoll(arg, &end, 10);
  return (end == arg || *end != '\0') ? fallback : v;
}

void PrintTrace(const TraceCollector& collector, uint64_t trace_id) {
  std::printf("TRACE %llu (one sampled record end to end)\n",
              static_cast<unsigned long long>(trace_id));
  for (const Span& span : collector.Trace(trace_id)) {
    std::printf("  %-10s %-28s span=%-4llu parent=%-4llu %lldus\n",
                span.name.c_str(), span.detail.c_str(),
                static_cast<unsigned long long>(span.span_id),
                static_cast<unsigned long long>(span.parent_span_id),
                static_cast<long long>(span.end_us - span.start_us));
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool prometheus = false;
  bool json = false;
  int64_t records = 200;
  double sample_rate = 0.1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--prometheus") == 0) {
      prometheus = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strncmp(argv[i], "--records=", 10) == 0) {
      records = ParseInt(argv[i] + 10, records);
    } else if (std::strncmp(argv[i], "--sample-rate=", 14) == 0) {
      sample_rate = std::atof(argv[i] + 14);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--prometheus] [--json] [--records=N] "
                   "[--sample-rate=R]\n",
                   argv[0]);
      return 2;
    }
  }

  TraceCollector::Default()->SetSampleRate(sample_rate);

  liquid::core::Liquid::Options options;
  options.cluster.num_brokers = 3;
  auto stack = liquid::core::Liquid::Start(options);
  if (!stack.ok()) {
    std::fprintf(stderr, "start failed: %s\n",
                 stack.status().ToString().c_str());
    return 1;
  }
  liquid::core::Liquid* liq = stack->get();

  liquid::core::FeedOptions feed_options;
  feed_options.partitions = 2;
  feed_options.replication_factor = 2;
  LIQUID_CHECK_OK(liq->CreateSourceFeed("page-views", feed_options));
  LIQUID_CHECK_OK(liq->CreateDerivedFeed("page-views-enriched", feed_options,
                                         "enrich", "v1", {"page-views"}));

  liquid::processing::JobConfig job_config;
  job_config.name = "enrich";
  job_config.inputs = {"page-views"};
  job_config.stores = {{"counts"}};
  job_config.commit_interval_ms = 0;  // Checkpoint on every RunOnce.
  auto job = liq->SubmitJob(job_config, [] {
    return std::make_unique<EnrichTask>();
  });
  LIQUID_CHECK_OK(job.status());

  auto producer = liq->NewProducer();
  auto audit = liq->NewConsumer("audit", "audit-0");
  auto laggard = liq->NewConsumer("laggard", "laggard-0");
  LIQUID_CHECK_OK(audit->Subscribe({"page-views"}));
  LIQUID_CHECK_OK(laggard->Subscribe({"page-views"}));

  // Phase 1: both groups keep up.
  const char* const kUsers[] = {"alice", "bob", "carol"};
  for (int64_t i = 0; i < records / 2; ++i) {
    LIQUID_CHECK_OK(producer->Send(
        "page-views", liquid::storage::Record::KeyValue(
                          kUsers[i % 3], "view:/page/" + std::to_string(i))));
  }
  LIQUID_CHECK_OK(producer->Flush());
  LIQUID_CHECK_OK((*job)->RunUntilIdle());
  Drain(audit.get());
  Drain(laggard.get());
  LIQUID_CHECK_OK(audit->Commit());
  LIQUID_CHECK_OK(laggard->Commit());

  // Phase 2: the laggard dies; traffic continues, so its committed offsets
  // freeze and its lag grows.
  LIQUID_CHECK_OK(laggard->Close());
  for (int64_t i = records / 2; i < records; ++i) {
    LIQUID_CHECK_OK(producer->Send(
        "page-views", liquid::storage::Record::KeyValue(
                          kUsers[i % 3], "view:/page/" + std::to_string(i))));
  }
  LIQUID_CHECK_OK(producer->Flush());
  LIQUID_CHECK_OK((*job)->RunUntilIdle());
  Drain(audit.get());
  LIQUID_CHECK_OK(audit->Commit());

  auto lag = liquid::messaging::CollectConsumerLag(liq->cluster(),
                                                   liq->offsets(), liq->clock());

  MetricsRegistry* metrics = MetricsRegistry::Default();
  if (prometheus) {
    std::fputs(metrics->RenderPrometheus().c_str(), stdout);
    return 0;
  }
  if (json) {
    std::fputs(metrics->RenderJson().c_str(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }

  std::printf("liquid-top: %lld records, sample rate %.2f\n\n",
              static_cast<long long>(records),
              TraceCollector::Default()->sample_rate());
  std::fputs(liquid::messaging::FormatLagTable(lag).c_str(), stdout);
  std::printf(
      "\nThe 'laggard' group stopped committing before the second half of\n"
      "the traffic: its lag stays high and its checkpoint age keeps\n"
      "growing, while 'audit' and 'job.enrich' remain caught up.\n\n");

  const auto spans = TraceCollector::Default()->Snapshot();
  uint64_t sample_trace = 0;
  std::map<std::string, int64_t> by_hop;
  for (const Span& span : spans) {
    ++by_hop[span.name];
    if (span.name == "process") sample_trace = span.trace_id;
  }
  std::printf("SPANS (%zu retained, %lld recorded, %lld dropped)\n",
              spans.size(),
              static_cast<long long>(TraceCollector::Default()->recorded()),
              static_cast<long long>(TraceCollector::Default()->dropped()));
  for (const auto& [hop, count] : by_hop) {
    std::printf("  %-10s %lld\n", hop.c_str(), static_cast<long long>(count));
  }
  std::fputc('\n', stdout);
  if (sample_trace != 0) PrintTrace(*TraceCollector::Default(), sample_trace);

  std::printf("\nKey gauges (full set: --prometheus or --json):\n");
  for (const auto& [name, value] : metrics->GaugeValues()) {
    if (name.find(".lag") != std::string::npos ||
        name.find("checkpoint_age") != std::string::npos) {
      std::printf("  %-48s %lld\n", name.c_str(),
                  static_cast<long long>(value));
    }
  }
  return 0;
}
