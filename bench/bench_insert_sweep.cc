// Experiment E16: "How fast can we insert?" — a single-broker insert-rate
// sweep in the style of Hesse, Matthies & Uflacker (arXiv:2003.06452), who
// ask the same question of Kafka/Pulsar/RabbitMQ. One axis varies at a time
// from a fixed baseline point (acks=1, sync=none, 100-record batches of
// 100-byte values, 1 partition), so each curve isolates one effect:
//
//   - ack_x_sync:   ack level (0/1/all) x sync_mode (none/group) with 4
//                   concurrent producers. The headline: group commit
//                   coalesces the producers' fsyncs into one per window, so
//                   acks=all on sync=group recovers most of sync=none's
//                   throughput (DESIGN.md §6c).
//   - batch_records: records per produce request. Throughput rises steeply
//                   then flattens once per-request overhead is amortized —
//                   the curve shape Hesse et al. report for Kafka.
//   - value_bytes:  record size. records/s falls as records grow while MB/s
//                   rises toward the sequential-write ceiling.
//   - partitions:   4 producers spread over P partitions of one broker —
//                   the intra-broker parallelism axis (§3.1 topic sharding).
//   - producers:    producer count on one contended partition (1/2/4/8),
//                   plus a disjoint 8-thread/8-partition point (DESIGN.md
//                   §5a). Besides throughput, the contention counters:
//                   append_locks_per_krec (the append pipeline takes its
//                   mutex 3 times per batch) and lock_wait_us (the broker's
//                   produce_lock_wait_us sum).
//
// The simulated disk charges a fixed fsync cost (DiskLatencyModel::sync_us),
// the term group commit amortizes; `fsyncs` in the output is the measured
// Disk::Sync call count, so the amortization is directly visible.
//
// --json[=path] emits BENCH_insert_sweep.json for CI trend tracking
// (scripts/bench_compare.py). --quick runs a 4-point smoke (baseline,
// acks=all/none, acks=all/group, 4 producers on one partition) used by
// scripts/check.sh and CI.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/random.h"
#include "messaging/broker.h"
#include "messaging/cluster.h"
#include "messaging/metadata.h"
#include "storage/log.h"
#include "storage/record.h"

namespace liquid::messaging {
namespace {

using bench::Fmt;
using bench::Stopwatch;
using bench::Table;

const char* AckName(AckMode acks) {
  switch (acks) {
    case AckMode::kNone:
      return "0";
    case AckMode::kLeader:
      return "1";
    case AckMode::kAll:
      return "all";
  }
  return "?";
}

const char* SyncName(storage::SyncMode mode) {
  switch (mode) {
    case storage::SyncMode::kNone:
      return "none";
    case storage::SyncMode::kGroup:
      return "group";
  }
  return "?";
}

/// One point of the sweep: everything held at the baseline except the axis
/// under study.
struct PointSpec {
  std::string axis;
  AckMode acks = AckMode::kLeader;
  storage::SyncMode sync = storage::SyncMode::kNone;
  int threads = 1;
  int partitions = 1;
  int batch_records = 100;
  size_t value_bytes = 100;
};

struct SweepPoint {
  PointSpec spec;
  std::string name;
  int64_t records = 0;
  int64_t wall_us = 0;
  int64_t fsyncs = 0;
  double records_per_sec = 0;
  double mb_per_sec = 0;
  /// Contention evidence (see the producers axis in the file comment).
  int64_t lock_wait_us = 0;
  double append_locks_per_krec = 0;
};

std::string PointName(const PointSpec& s) {
  if (s.axis == "ack_x_sync") {
    return "ack_x_sync/acks=" + std::string(AckName(s.acks)) +
           "/sync=" + SyncName(s.sync);
  }
  if (s.axis == "batch_records") {
    return "batch_records/b" + std::to_string(s.batch_records);
  }
  if (s.axis == "value_bytes") {
    return "value_bytes/v" + std::to_string(s.value_bytes);
  }
  if (s.axis == "producers") {
    return "producers/t" + std::to_string(s.threads) + "/p" +
           std::to_string(s.partitions);
  }
  return "partitions/p" + std::to_string(s.partitions);
}

/// Sums a per-partition log counter ("liquid.log.bench-<p>.<name>") over the
/// point's partitions. Registry counters accumulate across points, so points
/// report deltas against a before-snapshot.
int64_t SumLogCounter(const PointSpec& spec, const std::string& name) {
  int64_t sum = 0;
  for (int p = 0; p < spec.partitions; ++p) {
    sum += MetricsRegistry::Default()
               ->GetCounter("liquid.log.bench-" + std::to_string(p) + "." + name)
               ->value();
  }
  return sum;
}

SweepPoint RunPoint(const PointSpec& spec, int64_t target_records) {
  SystemClock clock;
  ClusterConfig config;
  config.num_brokers = 1;
  // Cheap writes, expensive fsync: the regime where sync_mode matters. The
  // fsync cost is scaled like DiskLatencyModel::ScaledHdd (8 ms / 20) so the
  // cost of a sync window is visible without making the sweep take minutes.
  config.disk_latency.write_seek_us = 5;
  config.disk_latency.sync_us = 400;
  auto cluster = std::make_unique<Cluster>(config, &clock);
  LIQUID_CHECK_OK(cluster->Start());
  TopicConfig topic;
  topic.partitions = spec.partitions;
  topic.replication_factor = 1;
  topic.log.sync_mode = spec.sync;
  LIQUID_CHECK_OK(cluster->CreateTopic("bench", topic));
  Broker* broker = cluster->broker(0);
  storage::MemDisk* disk = cluster->disk(0);

  Histogram* lock_wait =
      MetricsRegistry::Default()->GetHistogram("liquid.broker.0.produce_lock_wait_us");
  const int64_t lock_wait_before = lock_wait->Stats().sum;
  const int64_t locks_before =
      SumLogCounter(spec, "producer_append_mu_acquisitions");

  const int batches_per_thread = static_cast<int>(std::max<int64_t>(
      1, target_records / (static_cast<int64_t>(spec.threads) *
                           spec.batch_records)));

  // Pre-build per-thread batches so the timed region measures the broker,
  // not record construction.
  std::vector<std::vector<storage::Record>> batches;
  for (int t = 0; t < spec.threads; ++t) {
    Random rng(42 + t);
    std::vector<storage::Record> batch;
    batch.reserve(spec.batch_records);
    for (int i = 0; i < spec.batch_records; ++i) {
      batch.push_back(storage::Record::KeyValue(
          "key" + std::to_string(rng.Uniform(1000)),
          rng.Bytes(spec.value_bytes)));
    }
    batches.push_back(std::move(batch));
  }

  const int64_t fsyncs_before = disk->sync_ops();
  std::atomic<int64_t> acked{0};
  Stopwatch timer;
  std::vector<std::thread> workers;
  workers.reserve(spec.threads);
  for (int t = 0; t < spec.threads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < batches_per_thread; ++i) {
        const TopicPartition tp{"bench", (t + i) % spec.partitions};
        std::vector<storage::Record> batch = batches[t];  // Fresh offsets.
        auto resp = broker->Produce(tp, std::move(batch), spec.acks);
        LIQUID_CHECK_OK(resp.status());
        acked.fetch_add(spec.batch_records, std::memory_order_relaxed);
      }
    });
  }
  for (auto& worker : workers) worker.join();

  SweepPoint point;
  point.spec = spec;
  point.name = PointName(spec);
  point.records = acked.load();
  point.wall_us = timer.ElapsedUs();
  point.fsyncs = disk->sync_ops() - fsyncs_before;
  const double wall_us = static_cast<double>(point.wall_us > 0 ? point.wall_us : 1);
  point.records_per_sec = static_cast<double>(point.records) * 1e6 / wall_us;
  point.mb_per_sec = static_cast<double>(point.records) *
                     static_cast<double>(spec.value_bytes) / wall_us;
  point.lock_wait_us = lock_wait->Stats().sum - lock_wait_before;
  const double records = static_cast<double>(std::max<int64_t>(1, point.records));
  point.append_locks_per_krec =
      static_cast<double>(SumLogCounter(spec, "producer_append_mu_acquisitions") -
                          locks_before) *
      1000.0 / records;
  return point;
}

std::vector<PointSpec> BuildSweep(bool quick) {
  std::vector<PointSpec> specs;
  if (quick) {
    // The 4-point smoke: baseline, the none/group durability pair at
    // acks=all, and 4 producers on one contended partition. CI asserts only
    // that these run and emit.
    PointSpec base;
    base.axis = "ack_x_sync";
    base.threads = 4;
    specs.push_back(base);
    base.acks = AckMode::kAll;
    specs.push_back(base);
    base.sync = storage::SyncMode::kGroup;
    specs.push_back(base);
    PointSpec contended;
    contended.axis = "producers";
    contended.threads = 4;
    specs.push_back(contended);
    return specs;
  }
  for (storage::SyncMode sync :
       {storage::SyncMode::kNone, storage::SyncMode::kGroup}) {
    for (AckMode acks : {AckMode::kNone, AckMode::kLeader, AckMode::kAll}) {
      PointSpec s;
      s.axis = "ack_x_sync";
      s.acks = acks;
      s.sync = sync;
      s.threads = 4;
      specs.push_back(s);
    }
  }
  for (int b : {1, 10, 50, 100, 500, 1000}) {
    PointSpec s;
    s.axis = "batch_records";
    s.batch_records = b;
    specs.push_back(s);
  }
  for (size_t v : {16, 128, 1024, 4096, 8192}) {
    PointSpec s;
    s.axis = "value_bytes";
    s.value_bytes = v;
    specs.push_back(s);
  }
  for (int p : {1, 2, 4, 8}) {
    PointSpec s;
    s.axis = "partitions";
    s.partitions = p;
    s.threads = 4;
    specs.push_back(s);
  }
  // Producers axis: producer-count scaling on ONE contended partition, plus
  // a disjoint 8-thread/8-partition point (per-partition locks shard the
  // contention away).
  for (int t : {1, 2, 4, 8}) {
    PointSpec s;
    s.axis = "producers";
    s.threads = t;
    specs.push_back(s);
  }
  PointSpec disjoint;
  disjoint.axis = "producers";
  disjoint.threads = 8;
  disjoint.partitions = 8;
  specs.push_back(disjoint);
  return specs;
}

void Run(const char* json_path, bool quick) {
  const std::vector<PointSpec> specs = BuildSweep(quick);
  std::vector<SweepPoint> points;
  Table table({"axis", "acks", "sync", "threads", "parts", "batch",
               "value_b", "records", "wall_us", "records_per_sec",
               "mb_per_sec", "fsyncs", "lock_wait_us", "locks_per_krec"});
  for (const PointSpec& spec : specs) {
    // Bound the bytes written at large record sizes so the value axis does
    // not dominate the sweep's wall time and memory.
    int64_t target = quick ? 2'000 : 20'000;
    if (spec.value_bytes > 128) {
      target = std::max<int64_t>(
          2'000, static_cast<int64_t>((8u << 20) / spec.value_bytes));
    }
    SweepPoint p = RunPoint(spec, target);
    points.push_back(p);
    table.AddRow({p.spec.axis, AckName(p.spec.acks), SyncName(p.spec.sync),
                  std::to_string(p.spec.threads),
                  std::to_string(p.spec.partitions),
                  std::to_string(p.spec.batch_records),
                  std::to_string(p.spec.value_bytes),
                  std::to_string(p.records), std::to_string(p.wall_us),
                  Fmt(p.records_per_sec, 0), Fmt(p.mb_per_sec, 1),
                  std::to_string(p.fsyncs), std::to_string(p.lock_wait_us),
                  Fmt(p.append_locks_per_krec, 2)});
  }
  table.Print(
      "E16 insert sweep: single-broker produce rate, one axis at a time from "
      "the baseline (acks=1, sync=none, 100x100B batches, 1 partition)");

  if (json_path != nullptr) {
    std::ofstream out(json_path, std::ios::trunc);
    out << "{\n  \"benchmark\": \"insert_sweep\",\n"
        << "  \"baseline\": \"acks=1 sync=none batch=100 value=100 p=1\",\n"
        << "  \"sync_us\": 400,\n  \"results\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
      const SweepPoint& p = points[i];
      out << "    {\"name\": \"" << p.name << "\", \"axis\": \"" << p.spec.axis
          << "\", \"acks\": \"" << AckName(p.spec.acks) << "\", \"sync\": \""
          << SyncName(p.spec.sync)
          << "\", \"threads\": " << p.spec.threads
          << ", \"partitions\": " << p.spec.partitions
          << ", \"batch_records\": " << p.spec.batch_records
          << ", \"value_bytes\": " << p.spec.value_bytes
          << ", \"records\": " << p.records << ", \"wall_us\": " << p.wall_us
          << ", \"records_per_sec\": " << Fmt(p.records_per_sec, 0)
          << ", \"mb_per_sec\": " << Fmt(p.mb_per_sec, 2)
          << ", \"fsyncs\": " << p.fsyncs
          << ", \"lock_wait_us\": " << p.lock_wait_us
          << ", \"append_locks_per_krec\": " << Fmt(p.append_locks_per_krec, 2)
          << "}"
          << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    if (!out) {
      std::fprintf(stderr, "warning: could not write %s\n", json_path);
    } else {
      std::printf("wrote %s\n", json_path);
    }
  }
}

}  // namespace
}  // namespace liquid::messaging

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = "BENCH_insert_sweep.json";
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json[=path]] [--quick]\n", argv[0]);
      return 2;
    }
  }
  liquid::messaging::Run(json_path, quick);
  return 0;
}
