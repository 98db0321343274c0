// Experiment E8 (§4.3): high availability under broker failure. Measures the
// unavailability window (time from leader crash until the partition accepts
// produces again), committed-data preservation, and ISR convergence.
//
// Paper shape: the messaging layer "can tolerate up to N-1 failures with N
// brokers in the set of ISRs"; failover is fast (controller re-election from
// the ISR) and loses no committed data.

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

void RunFailoverTimeline() {
  Table table({"trial", "failover_us", "records_before", "records_after_crash",
               "committed_lost", "new_leader_from_isr"});

  for (int trial = 0; trial < 5; ++trial) {
    SystemClock clock;
    ClusterConfig config;
    config.num_brokers = 5;
    Cluster cluster(config, &clock);
    LIQUID_CHECK_OK(cluster.Start());
    TopicConfig topic;
    topic.partitions = 1;
    topic.replication_factor = 3;
    LIQUID_CHECK_OK(cluster.CreateTopic("t", topic));
    const TopicPartition tp{"t", 0};

    ProducerConfig producer_config;
    producer_config.acks = AckMode::kAll;
    producer_config.batch_max_records = 1;
    Producer producer(&cluster, producer_config);
    for (int i = 0; i < 500; ++i) {
      LIQUID_CHECK_OK(producer.Send("t", storage::Record::KeyValue("k", "v")));
    }
    LIQUID_CHECK_OK(producer.Flush());

    auto before = cluster.GetPartitionState(tp);
    Stopwatch timer;
    LIQUID_CHECK_OK(cluster.StopBroker(before->leader));
    // Time until a produce succeeds against the new leader.
    int64_t failover_us = -1;
    for (int attempt = 0; attempt < 1000; ++attempt) {
      auto leader = cluster.LeaderFor(tp);
      if (leader.ok()) {
        std::vector<storage::Record> one{storage::Record::KeyValue("k", "post")};
        if ((*leader)->Produce(tp, one, AckMode::kAll).ok()) {
          failover_us = timer.ElapsedUs();
          break;
        }
      }
    }
    cluster.ReplicationTick();
    cluster.ReplicationTick();

    auto after = cluster.GetPartitionState(tp);
    const bool from_isr =
        std::find(before->isr.begin(), before->isr.end(), after->leader) !=
        before->isr.end();
    int64_t survived = 0;
    auto leader = cluster.LeaderFor(tp);
    int64_t cursor = 0;
    while (leader.ok()) {
      auto fetch = (*leader)->Fetch(tp, cursor, 1 << 20, -1);
      if (!fetch.ok() || fetch->batches.empty()) break;
      std::vector<storage::Record> records;
      LIQUID_CHECK_OK(fetch->DecodeRecords(&records));
      survived += static_cast<int64_t>(records.size());
      cursor = fetch->next_fetch_offset;
    }
    table.AddRow({std::to_string(trial), std::to_string(failover_us), "500",
                  std::to_string(survived),
                  std::to_string(500 + 1 - survived),  // +1 post-crash record.
                  from_isr ? "yes" : "no"});
  }
  table.Print(
      "E8a: leader-failure timeline (rf=3, acks=all; failover = first "
      "successful produce after crash)");
}

void RunSequentialFailures() {
  // N-1 sequential failures: the last ISR member still serves all data.
  SystemClock clock;
  ClusterConfig config;
  config.num_brokers = 3;
  Cluster cluster(config, &clock);
  LIQUID_CHECK_OK(cluster.Start());
  TopicConfig topic;
  topic.partitions = 1;
  topic.replication_factor = 3;
  LIQUID_CHECK_OK(cluster.CreateTopic("t", topic));
  const TopicPartition tp{"t", 0};

  Table table({"alive_replicas", "produce_ok", "committed_readable"});
  auto produce_and_count = [&]() -> std::pair<bool, int64_t> {
    auto leader = cluster.LeaderFor(tp);
    bool ok = false;
    if (leader.ok()) {
      std::vector<storage::Record> one{storage::Record::KeyValue("k", "v")};
      ok = (*leader)->Produce(tp, one, AckMode::kAll).ok();
    }
    leader = cluster.LeaderFor(tp);
    if (!leader.ok()) return {ok, -1};
    int64_t count = 0, cursor = 0;
    while (true) {
      auto fetch = (*leader)->Fetch(tp, cursor, 1 << 20, -1);
      if (!fetch.ok() || fetch->batches.empty()) break;
      std::vector<storage::Record> records;
      LIQUID_CHECK_OK(fetch->DecodeRecords(&records));
      count += static_cast<int64_t>(records.size());
      cursor = fetch->next_fetch_offset;
    }
    return {ok, count};
  };

  auto replicas = cluster.GetPartitionState(tp)->replicas;
  auto [ok3, count3] = produce_and_count();
  table.AddRow({"3", ok3 ? "yes" : "no", std::to_string(count3)});
  LIQUID_CHECK_OK(cluster.StopBroker(replicas[0]));
  auto [ok2, count2] = produce_and_count();
  table.AddRow({"2", ok2 ? "yes" : "no", std::to_string(count2)});
  LIQUID_CHECK_OK(cluster.StopBroker(replicas[1]));
  auto [ok1, count1] = produce_and_count();
  table.AddRow({"1", ok1 ? "yes" : "no", std::to_string(count1)});
  table.Print(
      "E8b: N-1 sequential broker failures (rf=3): availability and committed "
      "data");
}

}  // namespace
}  // namespace liquid::messaging

int main() {
  liquid::messaging::RunFailoverTimeline();
  liquid::messaging::RunSequentialFailures();
  return 0;
}
