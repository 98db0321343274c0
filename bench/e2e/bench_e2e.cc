// bench_e2e: the repository benchmark. It drives the whole stack through the
// public client APIs only (core::Liquid, Producer::SendBatch, Consumer::Poll
// and Seek, Job::Create/RunOnce/Commit, plus the counters the cluster already
// exports), so internal layers can change without this file changing.
//
// Four workloads, each run in its own process so the process-wide metrics
// registry starts from zero (see README.md for why each exists):
//
//   ingest       closed loop, 3 producer threads, 100-record acks=all batches
//   tail         open loop at 2,000 rec/s over a 30 MB backlog, one tail reader
//   tail_rewind  tail plus a reader re-scanning the backlog from offset 0
//   job          count-by-key exactly-once job over a preloaded input, commits
//                every 100 ms, then state restored on a fresh disk 3 times
//
// Usage:
//   bench_e2e --workload=<name> --seed=<n> [--seconds=<s>] [--trace]
//             [--json=<path>]
//   bench_e2e                      all four workloads once, one process each
//   bench_e2e --smoke              all four, ~2 s each, reduced sizes
//   bench_e2e --negative-control   feeds the delivery checker one dropped and
//                                  one duplicated record; must exit non-zero
//
// Every metric is printed as "metric <name> <value> <unit>". Any correctness
// violation makes the exit code 1.

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/liquid.h"
#include "processing/job.h"
#include "processing/operators.h"
#include "storage/disk.h"
#include "workload/generators.h"

extern char** environ;

namespace liquid::bench_e2e {
namespace {

using messaging::TopicPartition;
using storage::Record;

// ---- Fixed set-up (README.md "Fixed set-up") ----
constexpr int kBrokers = 3;
constexpr int kPartitions = 3;
constexpr int kReplicationIntervalMs = 5;
constexpr double kTraceSampleRate = 0.01;
// The window is cut into slices of this length. Each headline metric is
// computed per slice and the run reports the median over slices, so a
// transient stall on a shared host moves one slice, not the run. Traced runs
// alternate traced and untraced slices, so one run yields both the
// per-layer spans and the tracing overhead.
constexpr int64_t kSliceNs = 1'000'000'000;
// A slice's latency quantiles count only with at least this many samples.
constexpr size_t kMinSliceSamples = 50;
// A position no partition reaches: parks a partition during a single-partition
// read-back or once a rewind pass has covered it.
constexpr int64_t kParked = int64_t{1} << 62;

const char* const kWorkloads[] = {"ingest", "tail", "tail_rewind", "job"};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// SplitMix64: derives independent generator seeds from the run seed.
uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  bool smoke = false;
  bool negative_control = false;
  std::string json_path;
};

/// Input sizes. `small` is the smoke-test scale.
struct Sizes {
  int setups;                  // set-ups per run; setup_s is their median
  int ingest_warmup_batches;   // per producer thread
  int tail_backlog_records;    // over all partitions
  double tail_warmup_s;
  // Over all partitions. Each partition's changelog must stay under one
  // 1 MiB restore fetch (README.md, "Known defect").
  int job_input_records;
};

Sizes SizesFor(bool small) {
  if (small) return Sizes{1, 20, 30'000, 0.2, 6'000};
  return Sizes{3, 200, 300'000, 0.5, 36'000};
}

// ---- Statistics over raw samples (exact, no histogram bucketing) ----

double Quantile(std::vector<int64_t>* samples, double q) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  const double pos = q * static_cast<double>(samples->size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>((*samples)[lo]) +
         static_cast<double>((*samples)[hi] - (*samples)[lo]) * frac;
}

double Mean(const std::vector<int64_t>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (int64_t v : samples) sum += static_cast<double>(v);
  return sum / static_cast<double>(samples.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// A sample stamped with the time it belongs to: (time ns, value).
using Timed = std::pair<int64_t, int64_t>;

/// Quantile q of each slice of `samples` holding enough samples; `parity`
/// keeps only even (0) or odd (1) slices, -1 keeps all.
std::vector<double> SliceQuantiles(const std::vector<Timed>& samples,
                                   int64_t start_ns, double q, int parity) {
  std::map<int64_t, std::vector<int64_t>> slices;
  for (const auto& [t, value] : samples) {
    if (t >= start_ns) slices[(t - start_ns) / kSliceNs].push_back(value);
  }
  std::vector<double> out;
  for (auto& [slice, values] : slices) {
    if (values.size() < kMinSliceSamples) continue;
    if (parity >= 0 && slice % 2 != parity) continue;
    out.push_back(Quantile(&values, q));
  }
  return out;
}

/// Records completed per second in each whole slice of the window, from
/// (completion time, records) events.
std::vector<double> SliceRates(const std::vector<Timed>& completions,
                               int64_t start_ns, double seconds) {
  std::vector<double> rates(static_cast<size_t>(std::max(1.0, seconds)), 0.0);
  for (const auto& [t, records] : completions) {
    if (t < start_ns) continue;
    const size_t slice = static_cast<size_t>((t - start_ns) / kSliceNs);
    if (slice < rates.size()) rates[slice] += static_cast<double>(records);
  }
  return rates;
}

// ---- The report: every metric by name with its unit, plus verdicts ----

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {std::isfinite(value) ? value : 0.0, unit};
  }

  void Violation(const std::string& what) {
    if (violations_.size() < 20) {
      std::fprintf(stderr, "VIOLATION: %s\n", what.c_str());
    }
    violations_.push_back(what);
  }

  bool correct() const { return violations_.empty(); }

  int64_t attempted = 0;
  int64_t failed = 0;

  void Print(const std::string& workload) const {
    for (const auto& [name, metric] : metrics_) {
      std::printf("metric %s %.9g %s\n", name.c_str(), metric.first,
                  metric.second.c_str());
    }
    std::printf("ops attempted=%lld failed=%lld\n",
                static_cast<long long>(attempted),
                static_cast<long long>(failed));
    std::printf("verdict %s: %s (%zu violation(s))\n", workload.c_str(),
                correct() ? "PASS" : "FAIL", violations_.size());
  }

  bool WriteJson(const std::string& path, const Options& options) const {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"workload\": \"" << options.workload << "\", \"seed\": "
        << options.seed << ", \"seconds\": " << options.seconds
        << ", \"trace\": " << (options.trace ? "true" : "false")
        << ", \"correct\": " << (correct() ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"violations\": " << violations_.size() << ", \"metrics\": {";
    bool first = true;
    char value[64];
    for (const auto& [name, metric] : metrics_) {
      std::snprintf(value, sizeof(value), "%.9g", metric.first);
      out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
          << ", \"unit\": \"" << metric.second << "\"}";
      first = false;
    }
    out << "}}\n";
    return static_cast<bool>(out);
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> violations_;
};

// ---- The stack under test ----

std::unique_ptr<core::Liquid> StartStack() {
  core::Liquid::Options options;
  options.cluster.num_brokers = kBrokers;
  // Modelled device costs, charged by busy-waiting in MemDisk.
  options.cluster.disk_latency.write_seek_us = 5;
  options.cluster.disk_latency.read_seek_us = 80;
  options.cluster.disk_latency.sync_us = 200;
  options.cluster.broker.page_cache.capacity_bytes = 8u << 20;
  options.cluster.broker.page_cache.flush_after_ms = 200;
  auto liquid = core::Liquid::Start(options);
  LIQUID_CHECK_OK(liquid);
  // Contended acks=all pushes can reach a follower out of order; it answers
  // OutOfRange and leaves the ISR. Only the pull path lets it catch up and
  // rejoin, so without this thread the ISR shrinks below min.insync for good.
  (*liquid)->cluster()->StartReplicationThread(kReplicationIntervalMs);
  return std::move(liquid).value();
}

void CreateFeed(core::Liquid* liquid, const std::string& name,
                int64_t retention_bytes = -1) {
  core::FeedOptions feed;
  feed.partitions = kPartitions;
  feed.replication_factor = 3;
  feed.min_insync_replicas = 2;
  feed.log.segment_bytes = 8u << 20;
  feed.log.sync_mode = storage::SyncMode::kGroup;
  feed.log.retention_bytes = retention_bytes;
  LIQUID_CHECK_OK(liquid->CreateSourceFeed(name, feed));
}

std::unique_ptr<messaging::Producer> NewProducer(core::Liquid* liquid) {
  messaging::ProducerConfig config;
  config.acks = messaging::AckMode::kAll;
  config.idempotent = true;
  // Rides out an ISR below min.insync until the replication thread restores
  // it (~3 s budget; the default ~31 ms can expire under contended acks=all).
  config.retry.max_attempts = 50;
  return liquid->NewProducer(config);
}

std::pair<int64_t, int64_t> Bounds(messaging::Cluster* cluster,
                                   const TopicPartition& tp) {
  auto leader = cluster->LeaderFor(tp);
  LIQUID_CHECK_OK(leader);
  auto bounds = (*leader)->OffsetBounds(tp);
  LIQUID_CHECK_OK(bounds);
  return *bounds;
}

void RunThreads(int n, const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int i = 0; i < n; ++i) threads.emplace_back(body, i);
  for (auto& thread : threads) thread.join();
}

// ---- Generated inputs ----

std::vector<std::vector<Record>> GenerateBatches(uint64_t seed, int records,
                                                 int batch_records,
                                                 uint64_t users,
                                                 size_t value_bytes) {
  workload::ProfileUpdateGenerator::Options options;
  options.num_users = users;
  options.value_bytes = value_bytes;
  options.seed = seed;
  workload::ProfileUpdateGenerator generator(options);
  std::vector<std::vector<Record>> batches;
  for (int i = 0; i < records; i += batch_records) {
    std::vector<Record> batch;
    const int n = std::min(batch_records, records - i);
    batch.reserve(n);
    for (int j = 0; j < n; ++j) batch.push_back(generator.Next(0));
    batches.push_back(std::move(batch));
  }
  return batches;
}

/// Order-dependent FNV-1a fold over key and value bytes: equal only when the
/// same records arrive in the same order.
uint64_t Fold(uint64_t h, const Record& record) {
  auto mix = [&h](const std::string& bytes) {
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= 0xff;
    h *= 1099511628211ull;
  };
  mix(record.key);
  mix(record.value);
  return h;
}
constexpr uint64_t kFoldSeed = 1469598103934665603ull;

// ---- Tracing from the benchmark's side ----

struct TracedRecord {
  uint64_t trace_id;
  uint64_t span_id;
};

/// SendBatch leaves sampling to its caller (Producer::Send samples single
/// records); the benchmark samples its batches the same way.
std::vector<TracedRecord> StampTraces(std::vector<Record>* batch) {
  std::vector<TracedRecord> traced;
  TraceCollector* tracer = TraceCollector::Default();
  if (!tracer->enabled()) return traced;
  for (Record& record : *batch) {
    if (!tracer->ShouldSample()) continue;
    record.trace_id = tracer->NewTraceId();
    record.span_id = tracer->NewSpanId();
    record.ingest_us = SystemClock::Default()->NowUs();
    traced.push_back({record.trace_id, record.span_id});
  }
  return traced;
}

/// One benchmark span per traced record around a public call, parented like
/// the program's own hops so they nest in the same trace.
void RecordClientSpans(const std::vector<TracedRecord>& traced, int64_t t0_ns,
                       int64_t t1_ns, const char* name,
                       const std::string& detail) {
  TraceCollector* tracer = TraceCollector::Default();
  for (const TracedRecord& record : traced) {
    tracer->Record(Span{record.trace_id, tracer->NewSpanId(), record.span_id,
                        t0_ns / 1000, t1_ns / 1000, name, detail});
  }
}

/// Alternates traced and untraced slices of a traced run.
class TraceSlices {
 public:
  TraceSlices(bool enabled, int64_t start_ns)
      : enabled_(enabled), start_ns_(start_ns) {}

  bool Traced(int64_t t_ns) const {
    if (!enabled_) return false;
    return t_ns < start_ns_ || ((t_ns - start_ns_) / kSliceNs) % 2 == 0;
  }

  /// Applies the slice of the current time to the process-wide collector.
  void Tick() {
    if (!enabled_) return;
    TraceCollector::Default()->SetSampleRate(Traced(NowNs()) ? kTraceSampleRate
                                                             : 0.0);
  }

 private:
  const bool enabled_;
  const int64_t start_ns_;
};

int HopRank(const std::string& name) {
  if (name.find('.') != std::string::npos) return 0;  // benchmark spans
  if (name == "produce" || name == "process") return 1;
  if (name == "append" || name == "fetch") return 2;
  return 3;  // replicate
}

std::string HopOf(const Span& span) {
  if (span.name == "produce" && span.detail.rfind("__changelog", 0) == 0) {
    return "changelog";
  }
  return span.name;
}

/// Self time per hop: a span's duration minus the union of the same-trace
/// spans nested inside it. Returns hop -> {sum of self us, spans}.
std::map<std::string, std::pair<double, int64_t>> SelfTimes(
    std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.trace_id != b.trace_id ? a.trace_id < b.trace_id
                                    : a.start_us < b.start_us;
  });
  std::map<std::string, std::pair<double, int64_t>> out;
  auto contains = [](const Span& outer, const Span& inner) {
    if (inner.start_us < outer.start_us || inner.end_us > outer.end_us) {
      return false;
    }
    const int64_t outer_len = outer.end_us - outer.start_us;
    const int64_t inner_len = inner.end_us - inner.start_us;
    return inner_len < outer_len || HopRank(inner.name) > HopRank(outer.name);
  };
  for (size_t begin = 0; begin < spans.size();) {
    size_t end = begin;
    while (end < spans.size() && spans[end].trace_id == spans[begin].trace_id) {
      ++end;
    }
    for (size_t i = begin; i < end; ++i) {
      std::vector<std::pair<int64_t, int64_t>> nested;
      for (size_t j = begin; j < end; ++j) {
        if (j != i && contains(spans[i], spans[j])) {
          nested.emplace_back(spans[j].start_us, spans[j].end_us);
        }
      }
      std::sort(nested.begin(), nested.end());
      int64_t covered = 0;
      int64_t cursor = spans[i].start_us;
      for (const auto& [s, e] : nested) {
        const int64_t from = std::max(s, cursor);
        if (e > from) {
          covered += e - from;
          cursor = e;
        }
      }
      auto& hop = out[HopOf(spans[i])];
      hop.first +=
          static_cast<double>(spans[i].end_us - spans[i].start_us - covered);
      ++hop.second;
    }
    begin = end;
  }
  return out;
}

// ---- Per-layer counters read from outside the program ----

/// Per-broker counters that are not in the process-wide registry; the
/// window reports their deltas.
struct BrokerCounters {
  int64_t isr_shrinks = 0;
  int64_t duplicates_dropped = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t evictions = 0;
  int64_t forced_evictions = 0;
  int64_t read_ops = 0;
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  int64_t syncs = 0;
};

BrokerCounters ReadBrokerCounters(messaging::Cluster* cluster) {
  BrokerCounters sum;
  for (int id = 0; id < kBrokers; ++id) {
    messaging::Broker* broker = cluster->broker(id);
    storage::MemDisk* disk = cluster->disk(id);
    sum.isr_shrinks += broker->metrics()->GetCounter("isr.shrinks")->value();
    sum.duplicates_dropped +=
        broker->metrics()->GetCounter("produce.duplicates_dropped")->value();
    sum.cache_hits += broker->page_cache()->hits();
    sum.cache_misses += broker->page_cache()->misses();
    sum.evictions += broker->page_cache()->evictions();
    sum.forced_evictions += broker->page_cache()->forced_evictions();
    sum.read_ops += disk->read_ops();
    sum.bytes_read += disk->bytes_read();
    sum.bytes_written += disk->bytes_written();
    sum.syncs += disk->sync_ops();
  }
  return sum;
}

/// Sum of registry counters "<prefix>*<suffix>" (e.g. one per log: the
/// liquid.log.<topic>-<p>.* names carry no broker id, so each sums over the
/// replicas of that partition).
int64_t SumCounters(const std::string& prefix, const std::string& suffix) {
  int64_t sum = 0;
  for (const auto& [name, value] :
       MetricsRegistry::Default()->CounterValues()) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      sum += value;
    }
  }
  return sum;
}

HistogramStats BrokerHistogram(const std::string& metric) {
  Histogram merged;
  for (int id = 0; id < kBrokers; ++id) {
    merged.Merge(*MetricsRegistry::Default()->GetHistogram(
        "liquid.broker." + std::to_string(id) + "." + metric));
  }
  return merged.Stats();
}

/// Everything a workload measured in its window, in one shape so every
/// workload reports every metric.
struct Window {
  int64_t start_ns = 0;
  double seconds = 0;
  bool traced = false;
  /// The workload's headline latency samples, stamped with their start (or
  /// scheduled) time, and its throughput per slice or per job round.
  std::vector<Timed> headline;
  std::vector<double> rates;

  int64_t acked_records = 0;
  int64_t acked_payload_bytes = 0;
  std::vector<int64_t> send_ns;
  std::vector<int64_t> late_ns;

  std::vector<int64_t> poll_ns;
  int64_t empty_polls = 0;
  int64_t polled_records = 0;
  std::array<double, 4> stage_sum_ns{};  // queue, produce, visibility, poll
  int64_t staged_records = 0;

  std::vector<int64_t> rewind_poll_ns;
  int64_t rewind_passes = 0;
  int64_t rewind_bytes = 0;
  int64_t rewind_gaps = 0;

  std::vector<int64_t> run_once_ns;
  int64_t job_records = 0;
  std::vector<int64_t> commit_ns;
  std::vector<std::string> job_names;
  int64_t changelog_records = 0;
  double restore_ms = 0;
  int64_t kv_bytes_written = 0;
  int64_t kv_syncs = 0;
};

/// Starts a measurement window: zeroes the process-wide registry (pointers
/// stay valid) and the span ring, and snapshots the per-broker counters.
BrokerCounters BeginWindow(messaging::Cluster* cluster) {
  MetricsRegistry::Default()->ResetAllForTest();
  TraceCollector::Default()->Clear();
  return ReadBrokerCounters(cluster);
}

void ReportEndToEnd(const std::vector<double>& setups, Window* w,
                    Report* report) {
  std::vector<double> sorted = setups;
  std::sort(sorted.begin(), sorted.end());
  report->Set("setup_s", sorted[sorted.size() / 2], "s");
  report->Set("records_per_sec", Median(w->rates), "rec/s");
  report->Set("latency_p50_us",
              Median(SliceQuantiles(w->headline, w->start_ns, 0.50, -1)) / 1000,
              "us");
  report->Set("latency_p90_us",
              Median(SliceQuantiles(w->headline, w->start_ns, 0.90, -1)) / 1000,
              "us");
}

void ReportLayers(messaging::Cluster* cluster, const BrokerCounters& before,
                  Window* w, Report* report) {
  const BrokerCounters after = ReadBrokerCounters(cluster);
  MetricsRegistry* registry = MetricsRegistry::Default();

  // messaging.producer
  report->Set("producer.send_batch_us", Mean(w->send_ns) / 1000, "us");
  report->Set("producer.send_batch_p99_us", Quantile(&w->send_ns, 0.99) / 1000,
              "us");
  report->Set("producer.retries",
              registry->GetCounter("liquid.producer.retries_total")->value(),
              "count");

  // messaging.broker
  const HistogramStats produce = BrokerHistogram("produce_us");
  const HistogramStats lock_wait = BrokerHistogram("produce_lock_wait_us");
  const HistogramStats fetch = BrokerHistogram("fetch_us");
  report->Set("broker.produce_us", produce.mean, "us");
  report->Set("broker.produce_lock_wait_us", lock_wait.mean, "us");
  report->Set("broker.produce_lock_wait_p99_us", lock_wait.p99, "us");
  report->Set("broker.fetch_us", fetch.mean, "us");
  report->Set("broker.fetch_p99_us", fetch.p99, "us");
  report->Set("broker.isr_shrinks", after.isr_shrinks - before.isr_shrinks,
              "count");
  report->Set("broker.replicated_records",
              SumCounters("liquid.broker.", ".replicated_records"), "count");
  report->Set("broker.duplicates_dropped",
              after.duplicates_dropped - before.duplicates_dropped, "count");

  // storage.log (summed over replicas; see README.md)
  const double zero_copy = SumCounters("liquid.log.", ".fetch_zero_copy_bytes");
  const double copied = SumCounters("liquid.log.", ".fetch_copied_bytes");
  report->Set("log.batches_per_sync",
              Ratio(SumCounters("liquid.log.", ".group_commit_batches"),
                    SumCounters("liquid.log.", ".group_commit_syncs")),
              "ratio");
  report->Set(
      "log.append_locks_per_batch",
      Ratio(SumCounters("liquid.log.", ".producer_append_mu_acquisitions"),
            static_cast<double>(produce.count)),
      "ratio");
  report->Set("log.zero_copy_fraction", Ratio(zero_copy, zero_copy + copied),
              "ratio");

  // storage.page_cache
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  report->Set("page_cache.hit_ratio", Ratio(hits, hits + misses), "ratio");
  report->Set("page_cache.evictions", after.evictions - before.evictions,
              "count");
  report->Set("page_cache.forced_evictions",
              after.forced_evictions - before.forced_evictions, "count");

  // storage.disk (modelled costs; counts are exact)
  const double base_records =
      static_cast<double>(w->acked_records + w->job_records);
  report->Set("disk.syncs_per_krec",
              Ratio(static_cast<double>(after.syncs - before.syncs) * 1000,
                    base_records),
              "count");
  report->Set("disk.write_amplification",
              Ratio(static_cast<double>(after.bytes_written -
                                        before.bytes_written),
                    static_cast<double>(w->acked_payload_bytes)),
              "ratio");
  report->Set("disk.read_ops", after.read_ops - before.read_ops, "count");
  report->Set("disk.read_mb",
              static_cast<double>(after.bytes_read - before.bytes_read) / 1e6,
              "MB");

  // messaging.consumer
  report->Set("consumer.poll_us", Mean(w->poll_ns) / 1000, "us");
  report->Set("consumer.poll_p99_us", Quantile(&w->poll_ns, 0.99) / 1000, "us");
  report->Set("consumer.empty_poll_fraction",
              Ratio(static_cast<double>(w->empty_polls),
                    static_cast<double>(w->poll_ns.size())),
              "ratio");
  report->Set("consumer.records_per_poll",
              Ratio(static_cast<double>(w->polled_records),
                    static_cast<double>(w->poll_ns.size()) -
                        static_cast<double>(w->empty_polls)),
              "count");
  report->Set("rewind.poll_us", Mean(w->rewind_poll_ns) / 1000, "us");
  report->Set("rewind.passes", w->rewind_passes, "count");
  report->Set("rewind.fetch_gaps", w->rewind_gaps, "count");
  report->Set("rewind.mb_per_sec",
              Ratio(static_cast<double>(w->rewind_bytes) / 1e6, w->seconds),
              "MB/s");

  // processing.job
  Histogram process;
  for (const std::string& name : w->job_names) {
    process.Merge(
        *registry->GetHistogram("liquid.job." + name + ".process_us"));
  }
  report->Set("job.run_once_us", Mean(w->run_once_ns) / 1000, "us");
  report->Set("job.records_per_run_once",
              Ratio(static_cast<double>(w->job_records),
                    static_cast<double>(w->run_once_ns.size())),
              "count");
  report->Set("job.process_us", process.Stats().mean, "us");
  report->Set("job.commit_us", Mean(w->commit_ns) / 1000, "us");
  report->Set("job.commits", static_cast<double>(w->commit_ns.size()), "count");
  report->Set("job.changelog_records_per_update",
              Ratio(static_cast<double>(w->changelog_records),
                    static_cast<double>(w->job_records)),
              "ratio");
  report->Set("job.restore_ms", w->restore_ms, "ms");

  // kv / messaging.offset_manager
  report->Set("kv.bytes_written_per_update",
              Ratio(static_cast<double>(w->kv_bytes_written),
                    static_cast<double>(w->job_records)),
              "B/update");
  report->Set("kv.syncs", w->kv_syncs, "count");
  report->Set("offsets.commits",
              registry->GetCounter("liquid.offsets.commits")->value(), "count");

  // The benchmark's own validity checks and the tail breakdown.
  report->Set("loadgen.late_p99_us", Quantile(&w->late_ns, 0.99) / 1000, "us");
  report->Set("loadgen.late_max_us",
              w->late_ns.empty() ? 0.0
                                 : static_cast<double>(*std::max_element(
                                       w->late_ns.begin(), w->late_ns.end())) /
                                       1000,
              "us");
  std::vector<int64_t> headline;
  headline.reserve(w->headline.size());
  for (const auto& sample : w->headline) headline.push_back(sample.second);
  report->Set("client.mean_us", Mean(headline) / 1000, "us");
  report->Set("client.p99_us", Quantile(&headline, 0.99) / 1000, "us");
  const char* const stages[] = {"queue", "produce", "visibility", "poll"};
  for (int s = 0; s < 4; ++s) {
    report->Set(std::string("stage.") + stages[s] + "_us",
                Ratio(w->stage_sum_ns[s],
                      static_cast<double>(w->staged_records)) / 1000,
                "us");
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report->Set("process.peak_rss_mb",
              static_cast<double>(usage.ru_maxrss) / 1024, "MB");

  // Traced run only: span self times and the tracing overhead.
  TraceCollector* tracer = TraceCollector::Default();
  const std::vector<Span> spans = tracer->Snapshot();
  report->Set("trace.spans", static_cast<double>(spans.size()), "count");
  report->Set("trace.spans_dropped", tracer->dropped(), "count");
  // Even slices of a traced run are traced (TraceSlices), odd ones are not.
  const double traced_p50 =
      Median(SliceQuantiles(w->headline, w->start_ns, 0.5, 0));
  const double untraced_p50 =
      Median(SliceQuantiles(w->headline, w->start_ns, 0.5, 1));
  report->Set("trace.overhead_pct",
              w->traced && untraced_p50 > 0 && traced_p50 > 0
                  ? (traced_p50 / untraced_p50 - 1) * 100
                  : 0.0,
              "%");
  const auto self = SelfTimes(spans);
  for (const char* hop :
       {"produce", "append", "replicate", "fetch", "process", "changelog",
        "client.send_batch", "client.poll", "rewind.poll", "job.run_once",
        "job.commit"}) {
    auto it = self.find(hop);
    report->Set(std::string("span.") + hop + ".self_us",
                it == self.end() ? 0.0
                                 : it->second.first /
                                       static_cast<double>(it->second.second),
                "us");
  }
}

/// Waits out the window on the calling thread, applying trace slices and
/// calling `tick` about every 10 ms.
void WaitWindow(int64_t until_ns, TraceSlices* slices,
                const std::function<void()>& tick = {}) {
  while (NowNs() < until_ns) {
    slices->Tick();
    if (tick) tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

/// Runs `set_up` `count` times, each on a fresh stack, and returns their
/// durations; the last stack stays up for the measurement.
std::vector<double> TimeSetups(int count,
                               const std::function<void()>& tear_down,
                               const std::function<void()>& set_up) {
  std::vector<double> seconds;
  for (int i = 0; i < count; ++i) {
    tear_down();
    const int64_t t0 = NowNs();
    set_up();
    seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return seconds;
}

/// Preloads each partition from its own producer thread, so partition p's
/// offsets follow the order of batches[p].
void Preload(core::Liquid* liquid, const std::string& topic,
             const std::vector<std::vector<std::vector<Record>>>& batches) {
  RunThreads(kPartitions, [&](int p) {
    auto producer = NewProducer(liquid);
    for (const auto& batch : batches[p]) {
      std::vector<Record> copy = batch;
      StampTraces(&copy);
      LIQUID_CHECK_OK(producer->SendBatch({topic, p}, std::move(copy)));
    }
  });
}

// ---- Workload: ingest ----

void RunIngest(const Options& options, const Sizes& sizes, Report* report) {
  constexpr int kThreads = 3;
  constexpr int kBatch = 100;
  constexpr int kPool = 64;
  constexpr int kReadBackEvery = 16;
  constexpr size_t kMaxReadBacks = 300;
  // Retention keeps the run's memory flat; read-back samples come from the
  // retained tail.
  constexpr int64_t kRetentionBytes = 16 << 20;
  const std::string topic = "ingest";

  // Each generator thread cycles through its own pool of generated batches.
  std::vector<std::vector<std::vector<Record>>> pools;
  for (int t = 0; t < kThreads; ++t) {
    pools.push_back(GenerateBatches(Mix(options.seed, t), kPool * kBatch,
                                    kBatch, 100'000, 100));
  }
  std::vector<std::vector<int64_t>> pool_payload(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (const auto& batch : pools[t]) {
      int64_t bytes = 0;
      for (const Record& r : batch) {
        bytes += static_cast<int64_t>(r.key.size() + r.value.size());
      }
      pool_payload[t].push_back(bytes);
    }
  }

  std::unique_ptr<core::Liquid> liquid;
  std::vector<std::unique_ptr<messaging::Producer>> producers;
  std::array<std::atomic<int64_t>, kPartitions> acked{};
  struct Sent {
    int partition;
    int64_t t0;
    int64_t t1;
    Result<messaging::ProduceResponse> resp;
  };
  // Sends batch i of thread t. Partitions rotate, so each sees every thread.
  auto send = [&](int t, int64_t i) {
    const int p = static_cast<int>((t + i) % kPartitions);
    std::vector<Record> batch = pools[t][i % kPool];
    const std::vector<TracedRecord> traced = StampTraces(&batch);
    const int64_t t0 = NowNs();
    auto resp = producers[t]->SendBatch({topic, p}, std::move(batch));
    const int64_t t1 = NowNs();
    if (resp.ok()) {
      acked[p] += kBatch;
      RecordClientSpans(traced, t0, t1, "client.send_batch",
                        topic + "-" + std::to_string(p));
    }
    return Sent{p, t0, t1, std::move(resp)};
  };

  const std::vector<double> setups = TimeSetups(
      sizes.setups,
      [&] {
        producers.clear();
        liquid.reset();
        for (auto& a : acked) a = 0;
      },
      [&] {
        liquid = StartStack();
        CreateFeed(liquid.get(), topic, kRetentionBytes);
        for (int t = 0; t < kThreads; ++t) {
          producers.push_back(NewProducer(liquid.get()));
        }
        // Warm-up through the same path before anything is timed.
        RunThreads(kThreads, [&](int t) {
          for (int64_t i = 0; i < sizes.ingest_warmup_batches; ++i) {
            LIQUID_CHECK_OK(send(t, i).resp);
          }
        });
      });
  messaging::Cluster* cluster = liquid->cluster();

  struct ReadBack {
    int partition;
    int64_t base;
    int thread;
    int slot;
  };
  struct ThreadResult {
    std::vector<Timed> acks;  // (send time, ack latency)
    int64_t payload_bytes = 0;
    std::vector<ReadBack> samples;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::string first_error;
  };
  std::vector<ThreadResult> results(kThreads);
  std::atomic<bool> stop{false};

  const BrokerCounters before = BeginWindow(cluster);
  const int64_t start = NowNs();
  TraceSlices slices(options.trace, start);
  slices.Tick();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ThreadResult& r = results[t];
      for (int64_t i = sizes.ingest_warmup_batches; !stop.load(); ++i) {
        const Sent s = send(t, i);
        ++r.attempted;
        if (!s.resp.ok()) {
          if (r.failed++ == 0) r.first_error = s.resp.status().ToString();
          continue;
        }
        r.acks.emplace_back(s.t0, s.t1 - s.t0);
        r.payload_bytes += pool_payload[t][i % kPool];
        if (i % kReadBackEvery == 0 && s.resp->base_offset >= 0) {
          r.samples.push_back(ReadBack{s.partition, s.resp->base_offset, t,
                                       static_cast<int>(i % kPool)});
        }
      }
    });
  }
  int64_t next_maintenance = start;
  WaitWindow(start + static_cast<int64_t>(options.seconds * 1e9), &slices, [&] {
    if (NowNs() >= next_maintenance) {
      cluster->RunLogMaintenance();
      next_maintenance += 500'000'000;
    }
  });
  stop = true;
  for (auto& thread : threads) thread.join();
  TraceCollector::Default()->SetSampleRate(0);

  Window w;
  w.start_ns = start;
  w.seconds = options.seconds;
  w.traced = options.trace;
  std::vector<Timed> completions;
  std::vector<ReadBack> samples;
  for (const ThreadResult& r : results) {
    report->attempted += r.attempted;
    report->failed += r.failed;
    if (r.failed > 0) {
      std::fprintf(stderr, "ingest: %lld failed SendBatch, first: %s\n",
                   static_cast<long long>(r.failed), r.first_error.c_str());
    }
    w.headline.insert(w.headline.end(), r.acks.begin(), r.acks.end());
    for (const auto& [t0, latency] : r.acks) {
      w.send_ns.push_back(latency);
      completions.emplace_back(t0 + latency, kBatch);
    }
    w.acked_payload_bytes += r.payload_bytes;
    samples.insert(samples.end(), r.samples.begin(), r.samples.end());
  }
  w.acked_records = static_cast<int64_t>(w.send_ns.size()) * kBatch;
  w.rates = SliceRates(completions, start, options.seconds);
  ReportEndToEnd(setups, &w, report);
  ReportLayers(cluster, before, &w, report);

  // Verdict 1: every partition's high watermark covers what was acked.
  std::array<int64_t, kPartitions> log_start{};
  for (int p = 0; p < kPartitions; ++p) {
    const auto [first, hw] = Bounds(cluster, {topic, p});
    log_start[p] = first;
    if (hw < acked[p]) {
      report->Violation("ingest: partition " + std::to_string(p) + " HW " +
                        std::to_string(hw) + " < acked " +
                        std::to_string(acked[p].load()));
    }
  }
  // Verdict 2: sampled acked batches read back byte-equal at their returned
  // base offsets (the newest samples still inside retention).
  std::sort(samples.begin(), samples.end(),
            [](const ReadBack& a, const ReadBack& b) {
              return a.base > b.base;
            });
  auto reader = liquid->NewConsumer("verify", "verify-0", true);
  LIQUID_CHECK_OK(reader->Subscribe({topic}));
  std::array<size_t, kPartitions> checked{};
  for (const ReadBack& s : samples) {
    if (s.base < log_start[s.partition] ||
        checked[s.partition] >= kMaxReadBacks / kPartitions) {
      continue;
    }
    ++checked[s.partition];
    for (int q = 0; q < kPartitions; ++q) {
      LIQUID_CHECK_OK(
          reader->Seek({topic, q}, q == s.partition ? s.base : kParked));
    }
    std::vector<messaging::ConsumerRecord> got;
    while (got.size() < static_cast<size_t>(kBatch)) {
      auto polled = reader->Poll(kBatch - got.size());
      if (!polled.ok() || polled->empty()) break;
      for (auto& r : *polled) got.push_back(std::move(r));
    }
    const std::vector<Record>& sent = pools[s.thread][s.slot];
    bool equal = got.size() == sent.size();
    for (size_t i = 0; equal && i < got.size(); ++i) {
      equal = got[i].tp.partition == s.partition &&
              got[i].record.offset == s.base + static_cast<int64_t>(i) &&
              got[i].record.key == sent[i].key &&
              got[i].record.value == sent[i].value;
    }
    if (!equal) {
      report->Violation("ingest: batch acked at " + topic + "-" +
                        std::to_string(s.partition) + "@" +
                        std::to_string(s.base) + " does not read back equal");
    }
  }
  for (int p = 0; p < kPartitions; ++p) {
    if (checked[p] == 0) {
      report->Violation("ingest: no acked batch of partition " +
                        std::to_string(p) + " was read back");
    }
  }
  reader.reset();
  producers.clear();
}

// ---- Workloads: tail and tail_rewind ----

/// One scheduled batch of the open-loop tail producer.
struct SentBatch {
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t ack_ns = 0;
  int partition = 0;
  int records = 0;
  bool acked = false;
};

/// One record handed to the tail reader.
struct Delivery {
  int32_t batch;
  int32_t index;
  int32_t partition;
  int64_t offset;
  int64_t poll_start_ns;
  int64_t deliver_ns;
};

// The first bytes of a tail record's value: batch id, index, due time.
constexpr size_t kStampBytes = 16;

void StampValue(std::string* value, int32_t batch, int32_t index, int64_t due) {
  std::memcpy(value->data(), &batch, 4);
  std::memcpy(value->data() + 4, &index, 4);
  std::memcpy(value->data() + 8, &due, 8);
}

/// The delivery verdict: every acked record delivered exactly once, records
/// of failed batches at most once, nothing unknown, and each partition's
/// deliveries in offset and send order.
void CheckDelivery(const std::vector<SentBatch>& sent,
                   const std::vector<Delivery>& delivered, Report* report) {
  std::vector<std::vector<uint8_t>> seen(sent.size());
  for (size_t k = 0; k < sent.size(); ++k) seen[k].assign(sent[k].records, 0);
  std::array<int64_t, kPartitions> last_offset;
  std::array<int64_t, kPartitions> last_order;
  last_offset.fill(-1);
  last_order.fill(-1);
  for (const Delivery& d : delivered) {
    if (d.batch < 0 || d.batch >= static_cast<int64_t>(sent.size()) ||
        d.index < 0 || d.index >= sent[d.batch].records ||
        d.partition != sent[d.batch].partition) {
      report->Violation("tail: unknown record delivered at partition " +
                        std::to_string(d.partition) + " offset " +
                        std::to_string(d.offset));
      continue;
    }
    if (++seen[d.batch][d.index] > 1) {
      report->Violation("tail: record " + std::to_string(d.batch) + "/" +
                        std::to_string(d.index) + " delivered twice");
    }
    const int64_t order = d.batch * 1024 + d.index;
    if (d.offset <= last_offset[d.partition] ||
        order <= last_order[d.partition]) {
      report->Violation("tail: partition " + std::to_string(d.partition) +
                        " delivered out of order at offset " +
                        std::to_string(d.offset));
    }
    last_offset[d.partition] = d.offset;
    last_order[d.partition] = order;
  }
  int64_t acked = 0;
  int64_t delivered_acked = 0;
  for (size_t k = 0; k < sent.size(); ++k) {
    if (!sent[k].acked) continue;
    for (int j = 0; j < sent[k].records; ++j) {
      ++acked;
      if (seen[k][j] > 0) ++delivered_acked;
    }
  }
  if (delivered_acked != acked) {
    report->Violation("tail: " + std::to_string(acked - delivered_acked) +
                      " of " + std::to_string(acked) +
                      " acked records never delivered");
  }
}

void RunTail(const Options& options, const Sizes& sizes, bool rewind,
             Report* report) {
  constexpr int kBackloadBatch = 100;
  constexpr int kBatch = 10;
  constexpr int64_t kPeriodNs = 5'000'000;  // 10-record batches at 2,000 rec/s
  constexpr int64_t kSpinNs = 200'000;
  constexpr size_t kTailPoll = 1000;
  constexpr size_t kRewindPoll = 8192;
  constexpr int64_t kDrainNs = 5'000'000'000;
  const std::string topic = "tail";

  // Backlog: partition p gets its own generated records; the reference fold
  // is what every rewind pass must reproduce.
  std::vector<std::vector<std::vector<Record>>> backlog;
  std::array<uint64_t, kPartitions> reference;
  std::array<int64_t, kPartitions> backlog_records{};
  for (int p = 0; p < kPartitions; ++p) {
    backlog.push_back(GenerateBatches(Mix(options.seed, 100 + p),
                                      sizes.tail_backlog_records / kPartitions,
                                      kBackloadBatch, 100'000, 100));
    reference[p] = kFoldSeed;
    for (const auto& batch : backlog[p]) {
      for (const Record& r : batch) reference[p] = Fold(reference[p], r);
      backlog_records[p] += static_cast<int64_t>(batch.size());
    }
  }
  const int64_t window_ns = static_cast<int64_t>(options.seconds * 1e9);
  const int64_t warmup_ns = static_cast<int64_t>(sizes.tail_warmup_s * 1e9);
  const int64_t total_batches = (warmup_ns + window_ns) / kPeriodNs;
  std::vector<std::vector<Record>> live =
      GenerateBatches(Mix(options.seed, 200),
                      static_cast<int>(total_batches) * kBatch, kBatch,
                      100'000, 100);

  std::unique_ptr<core::Liquid> liquid;
  std::unique_ptr<messaging::Producer> producer;
  std::unique_ptr<messaging::Consumer> tail;
  std::unique_ptr<messaging::Consumer> rewinder;
  const std::vector<double> setups = TimeSetups(
      sizes.setups,
      [&] {
        rewinder.reset();
        tail.reset();
        producer.reset();
        liquid.reset();
      },
      [&] {
        liquid = StartStack();
        CreateFeed(liquid.get(), topic);
        Preload(liquid.get(), topic, backlog);
        producer = NewProducer(liquid.get());
        tail = liquid->NewConsumer("tail", "tail-0", /*from_earliest=*/false);
        LIQUID_CHECK_OK(tail->Subscribe({topic}));
        rewinder = liquid->NewConsumer("rewind", "rewind-0", true);
        LIQUID_CHECK_OK(rewinder->Subscribe({topic}));
      });
  messaging::Cluster* cluster = liquid->cluster();
  for (int p = 0; p < kPartitions; ++p) {
    const int64_t hw = Bounds(cluster, {topic, p}).second;
    if (hw != backlog_records[p]) {
      report->Violation("tail: backlog of partition " + std::to_string(p) +
                        " ends at " + std::to_string(hw) + ", expected " +
                        std::to_string(backlog_records[p]));
    }
  }

  std::vector<SentBatch> sent(total_batches);
  std::vector<Delivery> deliveries;
  deliveries.reserve(static_cast<size_t>(total_batches) * kBatch + 1024);
  std::atomic<int64_t> acked_records{0};
  std::atomic<int64_t> produce_done_ns{0};
  std::atomic<bool> stop_rewind{false};
  int64_t send_failures = 0;
  std::string send_error;

  const BrokerCounters before = BeginWindow(cluster);
  const int64_t start = NowNs() + 1'000'000;
  const int64_t window_start = start + warmup_ns;
  const int64_t window_end = window_start + window_ns;
  TraceSlices slices(options.trace, window_start);
  slices.Tick();

  Window w;
  int64_t tail_poll_failures = 0;
  std::thread producer_thread([&] {
    for (int64_t k = 0; k < total_batches; ++k) {
      SentBatch& b = sent[k];
      b.due_ns = start + k * kPeriodNs;
      b.partition = static_cast<int>(k % kPartitions);
      std::vector<Record> batch = live[k];
      b.records = static_cast<int>(batch.size());
      for (int32_t j = 0; j < b.records; ++j) {
        StampValue(&batch[j].value, static_cast<int32_t>(k), j, b.due_ns);
      }
      // Sleep, then spin the last stretch: a timer wake-up alone lands ~0.1 ms
      // late, and lateness counts against the system.
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(b.due_ns - kSpinNs)));
      while (NowNs() < b.due_ns) {
      }
      const std::vector<TracedRecord> traced = StampTraces(&batch);
      b.send_ns = NowNs();
      auto resp = producer->SendBatch({topic, b.partition}, std::move(batch));
      b.ack_ns = NowNs();
      b.acked = resp.ok();
      if (b.acked) {
        acked_records += b.records;
        RecordClientSpans(traced, b.send_ns, b.ack_ns, "client.send_batch",
                          topic + "-" + std::to_string(b.partition));
      } else if (send_failures++ == 0) {
        send_error = resp.status().ToString();
      }
    }
    produce_done_ns = NowNs();
  });

  std::thread tail_thread([&] {
    int64_t delivered = 0;
    for (;;) {
      const int64_t done = produce_done_ns.load();
      if (done > 0 && (delivered >= acked_records.load() ||
                       NowNs() > done + kDrainNs)) {
        break;
      }
      const int64_t t0 = NowNs();
      auto polled = tail->Poll(kTailPoll);
      const int64_t t1 = NowNs();
      const bool in_window = t0 >= window_start && t0 < window_end;
      if (!polled.ok()) {
        ++tail_poll_failures;
        continue;
      }
      if (in_window) w.poll_ns.push_back(t1 - t0);
      if (polled->empty()) {
        if (in_window) ++w.empty_polls;
        // Stands in for a fetch long-poll: a reader with nothing to read
        // backs off briefly instead of spinning on the partition locks.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      if (in_window) w.polled_records += static_cast<int64_t>(polled->size());
      std::vector<TracedRecord> traced;
      for (const messaging::ConsumerRecord& cr : *polled) {
        Delivery d{-1, -1, cr.tp.partition, cr.record.offset, t0, t1};
        if (cr.record.value.size() >= kStampBytes) {
          std::memcpy(&d.batch, cr.record.value.data(), 4);
          std::memcpy(&d.index, cr.record.value.data() + 4, 4);
        }
        deliveries.push_back(d);
        ++delivered;
        if (cr.record.traced()) {
          traced.push_back({cr.record.trace_id, cr.record.span_id});
        }
      }
      RecordClientSpans(traced, t0, t1, "client.poll", topic);
    }
  });

  int64_t rewind_failures = 0;
  int64_t bad_passes = 0;
  const int64_t backlog_total =
      backlog_records[0] + backlog_records[1] + backlog_records[2];
  std::thread rewind_thread;
  if (rewind) {
    rewind_thread = std::thread([&] {
      while (!stop_rewind.load()) {
        const int64_t pass_start = NowNs();
        std::array<uint64_t, kPartitions> fold;
        std::array<int64_t, kPartitions> count{};
        fold.fill(kFoldSeed);
        int remaining = kPartitions;
        for (int p = 0; p < kPartitions; ++p) {
          LIQUID_CHECK_OK(rewinder->Seek({topic, p}, 0));
        }
        while (remaining > 0 && !stop_rewind.load()) {
          const int64_t t0 = NowNs();
          auto polled = rewinder->Poll(kRewindPoll);
          const int64_t t1 = NowNs();
          if (!polled.ok()) {
            ++rewind_failures;
            continue;
          }
          const bool in_window = t1 >= window_start && t1 < window_end;
          if (in_window) w.rewind_poll_ns.push_back(t1 - t0);
          std::vector<TracedRecord> traced;
          std::array<bool, kPartitions> gap{};
          for (const messaging::ConsumerRecord& cr : *polled) {
            const int p = cr.tp.partition;
            if (count[p] >= backlog_records[p] || gap[p]) continue;
            if (cr.record.offset != count[p]) {
              // The fetch skipped offsets (README.md, "Known defect"): count
              // it and read again from the first offset not yet seen.
              gap[p] = true;
              if (in_window) ++w.rewind_gaps;
              continue;
            }
            fold[p] = Fold(fold[p], cr.record);
            if (in_window) {
              w.rewind_bytes += static_cast<int64_t>(cr.record.key.size() +
                                                     cr.record.value.size());
            }
            if (cr.record.traced()) {
              traced.push_back({cr.record.trace_id, cr.record.span_id});
            }
            if (++count[p] == backlog_records[p]) {
              --remaining;
              LIQUID_CHECK_OK(rewinder->Seek({topic, p}, kParked));
            }
          }
          for (int p = 0; p < kPartitions; ++p) {
            if (gap[p]) LIQUID_CHECK_OK(rewinder->Seek({topic, p}, count[p]));
          }
          RecordClientSpans(traced, t0, t1, "rewind.poll", topic);
        }
        if (remaining > 0) break;  // stopped mid-pass
        const int64_t pass_end = NowNs();
        ++w.rewind_passes;
        if (fold != reference) ++bad_passes;
        if (pass_start >= window_start && pass_end <= window_end) {
          w.rates.push_back(static_cast<double>(backlog_total) * 1e9 /
                            static_cast<double>(pass_end - pass_start));
        }
      }
    });
  }

  WaitWindow(window_end, &slices);
  producer_thread.join();
  TraceCollector::Default()->SetSampleRate(0);
  tail_thread.join();
  stop_rewind = true;
  if (rewind_thread.joinable()) rewind_thread.join();

  w.start_ns = window_start;
  w.seconds = static_cast<double>(window_ns) / 1e9;
  w.traced = options.trace;
  if (send_failures > 0) {
    std::fprintf(stderr, "tail: %lld failed SendBatch, first: %s\n",
                 static_cast<long long>(send_failures), send_error.c_str());
  }
  report->attempted += total_batches + static_cast<int64_t>(w.poll_ns.size()) +
                       w.rewind_passes + bad_passes;
  report->failed += send_failures + tail_poll_failures + rewind_failures;
  if (bad_passes > 0) {
    report->Violation(
        "tail_rewind: " + std::to_string(bad_passes) +
        " rewind pass(es) did not reproduce the backlog checksum");
  }
  if (rewind && w.rewind_passes == 0) {
    report->Violation("tail_rewind: no rewind pass completed");
  }

  if (options.negative_control && deliveries.size() > 2) {
    // The checker must catch one lost and one duplicated record.
    deliveries.push_back(deliveries[1]);
    deliveries.erase(deliveries.begin());
  }
  CheckDelivery(sent, deliveries, report);

  for (int64_t k = 0; k < total_batches; ++k) {
    const SentBatch& b = sent[k];
    if (b.due_ns < window_start || !b.acked) continue;
    w.late_ns.push_back(b.send_ns - b.due_ns);
    w.send_ns.push_back(b.ack_ns - b.send_ns);
    w.acked_records += b.records;
    for (const Record& r : live[k]) {
      w.acked_payload_bytes +=
          static_cast<int64_t>(r.key.size() + r.value.size());
    }
  }
  int64_t last_delivery = window_start;
  for (const Delivery& d : deliveries) {
    if (d.batch < 0 || d.batch >= total_batches) continue;
    const SentBatch& b = sent[d.batch];
    if (b.due_ns < window_start) continue;
    last_delivery = std::max(last_delivery, d.deliver_ns);
    // Contiguous stages: queue (due -> send), produce (send -> ack, or the
    // delivery if it came first), visibility (-> start of the delivering
    // poll), poll (-> its return). They sum to the record's latency.
    const int64_t produced = std::min(b.ack_ns, d.deliver_ns);
    const int64_t polled = std::clamp(d.poll_start_ns, produced, d.deliver_ns);
    w.stage_sum_ns[0] += static_cast<double>(b.send_ns - b.due_ns);
    w.stage_sum_ns[1] += static_cast<double>(produced - b.send_ns);
    w.stage_sum_ns[2] += static_cast<double>(polled - produced);
    w.stage_sum_ns[3] += static_cast<double>(d.deliver_ns - polled);
    ++w.staged_records;
    w.headline.emplace_back(b.due_ns, d.deliver_ns - b.due_ns);
  }
  if (!rewind) {
    // Delivered rate over the span that actually delivered the window's
    // records: an open loop holds it at 2,000 rec/s unless the reader falls
    // behind, so per-slice counts would read the same on every run.
    w.rates = {Ratio(static_cast<double>(w.staged_records),
                     static_cast<double>(last_delivery - window_start) / 1e9)};
  }
  ReportEndToEnd(setups, &w, report);
  ReportLayers(cluster, before, &w, report);
  rewinder.reset();
  tail.reset();
  producer.reset();
}

// ---- Workload: job ----

/// KeyedCounterTask plus a note of the traced inputs it saw, so the
/// benchmark can put its own spans around RunOnce and Commit.
class ObservedCounterTask : public processing::StreamTask {
 public:
  explicit ObservedCounterTask(std::vector<TracedRecord>* traced)
      : inner_("counts"), traced_(traced) {}

  Status Init(processing::TaskContext* context) override {
    return inner_.Init(context);
  }

  Status Process(const messaging::ConsumerRecord& envelope,
                 processing::MessageCollector* collector,
                 processing::TaskCoordinator* coordinator) override {
    if (envelope.record.traced()) {
      traced_->push_back({envelope.record.trace_id, envelope.record.span_id});
    }
    return inner_.Process(envelope, collector, coordinator);
  }

 private:
  processing::KeyedCounterTask inner_;
  std::vector<TracedRecord>* traced_;
};

using Counts = std::map<std::string, int64_t>;

void CheckStores(processing::Job* job, const std::vector<Counts>& reference,
                 const std::string& what, Report* report) {
  for (int p = 0; p < kPartitions; ++p) {
    processing::KeyValueStore* store = job->GetStore(p, "counts");
    Counts got;
    if (store == nullptr ||
        !store
             ->ForEach([&](const Slice& key, const Slice& value) {
               got[key.ToString()] =
                   std::strtoll(value.ToString().c_str(), nullptr, 10);
             })
             .ok() ||
        got != reference[p]) {
      report->Violation("job: " + what + " store of partition " +
                        std::to_string(p) +
                        " differs from the reference fold of the input");
    }
  }
}

void RunJob(const Options& options, const Sizes& sizes, Report* report) {
  constexpr int kBatch = 100;
  constexpr int64_t kCommitEveryNs = 100'000'000;
  constexpr int64_t kStallNs = 5'000'000'000;
  constexpr int kRestores = 3;
  const std::string topic = "job-input";

  std::vector<std::vector<std::vector<Record>>> input;
  std::vector<Counts> reference(kPartitions);
  int64_t input_records = 0;
  int64_t input_payload = 0;
  for (int p = 0; p < kPartitions; ++p) {
    input.push_back(GenerateBatches(Mix(options.seed, 300 + p),
                                    sizes.job_input_records / kPartitions,
                                    kBatch, 20'000, 64));
    for (const auto& batch : input[p]) {
      for (const Record& r : batch) {
        ++reference[p][r.key];
        ++input_records;
        input_payload += static_cast<int64_t>(r.key.size() + r.value.size());
      }
    }
  }

  std::unique_ptr<core::Liquid> liquid;
  const std::vector<double> setups = TimeSetups(
      sizes.setups, [&] { liquid.reset(); },
      [&] {
        liquid = StartStack();
        CreateFeed(liquid.get(), topic);
        Preload(liquid.get(), topic, input);
      });
  messaging::Cluster* cluster = liquid->cluster();

  std::vector<TracedRecord> processed_traced;
  auto create_job = [&](const std::string& name, storage::Disk* state) {
    processing::JobConfig config;
    config.name = name;
    config.inputs = {topic};
    config.stores = {
        {"counts", processing::StoreConfig::Kind::kPersistent, true}};
    config.commit_interval_ms = int64_t{1} << 40;  // the benchmark commits
    config.exactly_once = true;
    auto job = processing::Job::Create(
        cluster, liquid->offsets(), liquid->groups(), state, config,
        [&] {
          return std::make_unique<ObservedCounterTask>(&processed_traced);
        },
        "0", liquid->transactions());
    LIQUID_CHECK_OK(job);
    return std::move(job).value();
  };

  Window w;
  const BrokerCounters before = BeginWindow(cluster);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(options.seconds * 1e9);
  TraceSlices slices(options.trace, start);
  int64_t loop_ns = 0;
  // Rounds: a fresh job (own name, consumer group, changelog and store)
  // catches up on the whole input, until the window is over.
  while (w.job_names.empty() || NowNs() < deadline) {
    const std::string name = "count-" + std::to_string(w.job_names.size());
    w.job_names.push_back(name);
    storage::MemDisk state;
    auto job = create_job(name, &state);
    std::vector<TracedRecord> uncommitted;
    auto commit = [&] {
      const int64_t t0 = NowNs();
      const Status st = job->Commit();
      const int64_t t1 = NowNs();
      ++report->attempted;
      if (!st.ok()) {
        ++report->failed;
        report->Violation("job: commit failed: " + st.ToString());
      }
      w.commit_ns.push_back(t1 - t0);
      RecordClientSpans(uncommitted, t0, t1, "job.commit", name);
      uncommitted.clear();
      return t1;
    };
    const int64_t round_start = NowNs();
    int64_t processed = 0;
    int64_t last_commit = round_start;
    int64_t last_progress = round_start;
    while (processed < input_records) {
      slices.Tick();
      processed_traced.clear();
      const int64_t t0 = NowNs();
      auto n = job->RunOnce();
      const int64_t t1 = NowNs();
      ++report->attempted;
      if (!n.ok()) {
        ++report->failed;
        report->Violation("job: RunOnce failed: " + n.status().ToString());
        break;
      }
      w.run_once_ns.push_back(t1 - t0);
      w.headline.emplace_back(t0, t1 - t0);
      processed += *n;
      RecordClientSpans(processed_traced, t0, t1, "job.run_once", name);
      uncommitted.insert(uncommitted.end(), processed_traced.begin(),
                         processed_traced.end());
      if (*n > 0) last_progress = t1;
      if (t1 - last_progress > kStallNs) {
        report->Violation("job: no progress for 5 s");
        break;
      }
      if (t1 - last_commit >= kCommitEveryNs) last_commit = commit();
    }
    commit();
    const int64_t round_ns = NowNs() - round_start;
    loop_ns += round_ns;
    w.rates.push_back(static_cast<double>(processed) * 1e9 /
                      static_cast<double>(round_ns));
    w.job_records += processed;
    if (processed != input_records) {
      report->Violation("job: processed " + std::to_string(processed) + " of " +
                        std::to_string(input_records) + " input records");
    }
    CheckStores(job.get(), reference, "live", report);
    for (int p = 0; p < kPartitions; ++p) {
      w.changelog_records +=
          Bounds(cluster,
                 {processing::Job::ChangelogTopic(name, "counts"), p})
              .second;
    }
    LIQUID_CHECK_OK(job->Stop());
    w.kv_bytes_written += state.bytes_written();
    w.kv_syncs += state.sync_ops();
  }
  TraceCollector::Default()->SetSampleRate(0);
  w.start_ns = start;
  w.seconds = static_cast<double>(loop_ns) / 1e9;
  w.traced = options.trace;
  w.acked_payload_bytes =
      input_payload * static_cast<int64_t>(w.job_names.size());

  // Restore the last round's state from its changelog onto a fresh disk, as
  // a rescheduled container would.
  std::vector<int64_t> restore_ns;
  for (int i = 0; i < kRestores; ++i) {
    storage::MemDisk fresh;
    auto job = create_job(w.job_names.back(), &fresh);
    const int64_t t0 = NowNs();
    auto n = job->RunOnce();  // restores every assigned partition's store
    restore_ns.push_back(NowNs() - t0);
    ++report->attempted;
    if (!n.ok() || *n != 0) {
      ++report->failed;
      report->Violation("job: restore run failed or found unprocessed input");
    }
    CheckStores(job.get(), reference, "restored", report);
    LIQUID_CHECK_OK(job->Stop());
  }
  w.restore_ms = Quantile(&restore_ns, 0.5) / 1e6;
  ReportEndToEnd(setups, &w, report);
  ReportLayers(cluster, before, &w, report);
}

// ---- Driver ----

int RunWorkload(const Options& options) {
  const Sizes sizes = SizesFor(options.small);
  Logger::SetLevel(LogLevel::kError);
  // Large enough that a traced run never overwrites a span.
  TraceCollector::Default()->SetCapacity(size_t{1} << 21);
  TraceCollector::Default()->SetSampleRate(options.trace ? kTraceSampleRate
                                                         : 0.0);
  Report report;
  if (options.workload == "ingest") {
    RunIngest(options, sizes, &report);
  } else if (options.workload == "tail") {
    RunTail(options, sizes, /*rewind=*/false, &report);
  } else if (options.workload == "tail_rewind") {
    RunTail(options, sizes, /*rewind=*/true, &report);
  } else if (options.workload == "job") {
    RunJob(options, sizes, &report);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    return 2;
  }
  report.Print(options.workload);
  if (!options.json_path.empty() &&
      !report.WriteJson(options.json_path, options)) {
    std::fprintf(stderr, "cannot write %s\n", options.json_path.c_str());
    return 2;
  }
  return report.correct() ? 0 : 1;
}

/// Runs each workload in a child process of this binary.
int RunEach(const Options& options) {
  int worst = 0;
  for (const char* workload : kWorkloads) {
    std::vector<std::string> args = {
        "bench_e2e", std::string("--workload=") + workload,
        "--seed=" + std::to_string(options.seed)};
    if (options.smoke) {
      args.push_back("--seconds=1.5");
      args.push_back("--small");
      args.push_back("--trace");
    } else {
      char seconds[32];
      std::snprintf(seconds, sizeof(seconds), "--seconds=%g", options.seconds);
      args.push_back(seconds);
    }
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0) {
      std::perror("posix_spawn");
      return 2;
    }
    int status = 0;
    waitpid(pid, &status, 0);
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 2;
    std::printf("workload %s exited %d\n", workload, code);
    worst = std::max(worst, code);
  }
  return worst;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workload=ingest|tail|tail_rewind|job] [--seed=N] "
               "[--seconds=S] [--trace] [--json=PATH] [--smoke] "
               "[--negative-control]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      options.workload = v;
    } else if (const char* v = value("--seed=")) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      options.seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--json=")) {
      options.json_path = v;
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--small") {
      options.small = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--negative-control") {
      options.negative_control = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!(options.seconds > 0 && options.seconds <= 120)) return Usage(argv[0]);
  if (options.negative_control) {
    options.workload = "tail";
    options.small = true;
    options.seconds = 1;
    const int code = RunWorkload(options);
    std::printf("negative control: the checker %s the tampered deliveries\n",
                code == 1 ? "rejected" : "DID NOT reject");
    return code;
  }
  if (options.smoke || options.workload.empty()) return RunEach(options);
  return RunWorkload(options);
}

}  // namespace
}  // namespace liquid::bench_e2e

int main(int argc, char** argv) { return liquid::bench_e2e::Main(argc, argv); }
