// Experiment E7 (§4.3): the replication side of the performance/durability
// trade-off. Throughput by ack level and replication factor, and data loss
// under leader failure for each level.
//
// Paper shape: acks=0 > acks=1 > acks=all in throughput; only acks=all (with
// replication) survives a leader crash without losing acknowledged records.
//
// The single-node (fsync) side of the same trade-off lives in E16
// (bench_insert_sweep): LogConfig::sync_mode none/group, where group commit
// coalesces concurrent producers' fsyncs (DESIGN.md §6c). The
// E7b no-acked-loss invariant extends there via
// tests/messaging/group_commit_produce_test.cc.

#include <memory>

#include "bench_util.h"
#include "common/clock.h"
#include "messaging/broker.h"
#include "messaging/cluster.h"
#include "messaging/producer.h"

namespace liquid::messaging {
namespace {

using bench::Fmt;
using bench::Stopwatch;
using bench::Table;

constexpr int kRecords = 20'000;

const char* AckName(AckMode acks) {
  switch (acks) {
    case AckMode::kNone:
      return "acks=0";
    case AckMode::kLeader:
      return "acks=1";
    case AckMode::kAll:
      return "acks=all";
  }
  return "?";
}

/// Produce throughput for a given ack mode and replication factor.
double MeasureThroughput(AckMode acks, int rf) {
  SystemClock clock;
  ClusterConfig config;
  config.num_brokers = 3;
  Cluster cluster(config, &clock);
  LIQUID_CHECK_OK(cluster.Start());
  TopicConfig topic;
  topic.partitions = 1;
  topic.replication_factor = rf;
  LIQUID_CHECK_OK(cluster.CreateTopic("t", topic));

  const TopicPartition tp{"t", 0};
  auto leader = cluster.LeaderFor(tp);
  std::vector<storage::Record> batch;
  for (int i = 0; i < 100; ++i) {
    batch.push_back(storage::Record::KeyValue("k", std::string(100, 'v')));
  }
  Stopwatch timer;
  for (int sent = 0; sent < kRecords; sent += 100) {
    for (auto& r : batch) r.offset = -1;
    LIQUID_CHECK_OK((*leader)->Produce(tp, batch, acks));
  }
  const double seconds = static_cast<double>(timer.ElapsedUs()) / 1e6;
  return static_cast<double>(kRecords) / seconds;
}

/// Acknowledged-record loss when the leader dies immediately after a burst.
int64_t MeasureLossOnFailover(AckMode acks, int rf) {
  SystemClock clock;
  ClusterConfig config;
  config.num_brokers = 3;
  Cluster cluster(config, &clock);
  LIQUID_CHECK_OK(cluster.Start());
  TopicConfig topic;
  topic.partitions = 1;
  topic.replication_factor = rf;
  LIQUID_CHECK_OK(cluster.CreateTopic("t", topic));
  const TopicPartition tp{"t", 0};

  int64_t acked = 0;
  auto leader = cluster.LeaderFor(tp);
  for (int i = 0; i < 1000; ++i) {
    std::vector<storage::Record> one{storage::Record::KeyValue("k", "v")};
    auto resp = (*leader)->Produce(tp, one, acks);
    if (resp.ok()) ++acked;
  }
  // Crash the leader before any pull-replication happens.
  LIQUID_CHECK_OK(cluster.StopBroker(cluster.GetPartitionState(tp)->leader));
  cluster.ReplicationTick();
  cluster.ReplicationTick();

  auto survivor = cluster.LeaderFor(tp);
  if (!survivor.ok()) return acked;  // Everything lost (partition offline).
  int64_t survived = 0;
  int64_t cursor = 0;
  while (true) {
    auto fetch = (*survivor)->Fetch(tp, cursor, 1 << 20, -1);
    if (!fetch.ok() || fetch->batches.empty()) break;
    std::vector<storage::Record> records;
    LIQUID_CHECK_OK(fetch->DecodeRecords(&records));
    survived += static_cast<int64_t>(records.size());
    cursor = fetch->next_fetch_offset;
  }
  return acked - survived;
}

void Run() {
  Table throughput({"ack_mode", "rf=1", "rf=2", "rf=3", "(records/s)"});
  for (AckMode acks : {AckMode::kNone, AckMode::kLeader, AckMode::kAll}) {
    std::vector<std::string> row{AckName(acks)};
    for (int rf : {1, 2, 3}) {
      row.push_back(Fmt(MeasureThroughput(acks, rf) / 1000.0, 1) + "k/s");
    }
    row.push_back("");
    throughput.AddRow(row);
  }
  throughput.Print("E7a: produce throughput by ack level x replication factor");

  Table loss({"ack_mode", "rf", "acked_records_lost_on_leader_crash"});
  for (int rf : {1, 3}) {
    for (AckMode acks : {AckMode::kLeader, AckMode::kAll}) {
      loss.AddRow({AckName(acks), std::to_string(rf),
                   std::to_string(MeasureLossOnFailover(acks, rf))});
    }
  }
  loss.Print(
      "E7b: durability — acknowledged records lost when the leader crashes "
      "before pull replication (1000 acked)");
}

}  // namespace
}  // namespace liquid::messaging

int main() {
  liquid::messaging::Run();
  return 0;
}
