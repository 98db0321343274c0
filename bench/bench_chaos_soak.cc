// Chaos soak harness (DESIGN.md §7): drives the workload generators against
// a 3-broker sync_mode=group cluster while a seeded fault schedule injects
// fsync failures, replication faults, produce latency spikes and election
// losses, and the driver power-cycles partition leaders mid-produce and, now
// and then, a partition's whole replica set (followers restart first, so a
// once-follower may win the election). Throughout, it checks the delivery
// invariants the paper promises (§4.3):
//
//   * every acknowledged record is fetchable after recovery,
//   * per-key order is preserved (one producer, hash partitioning),
//   * the idempotent producer never creates duplicates across retries,
//   * consumer groups resume from committed offsets and catch back up,
//   * below the leader's high watermark, every replica holds the leader's
//     frames byte for byte.
//
// Exit status is the verdict: 0 when every invariant held, 1 otherwise —
// the check.sh chaos-smoke leg runs `--quick` and also asserts that
// `--broken-acks` (acknowledge before durable: acks=leader on a non-synced
// log, crashed mid-soak) makes the harness FAIL, proving the invariant
// checking actually bites.
//
// --json[=path] emits BENCH_chaos_soak.json with the recovery metrics
// (leader-failover time, time to the first acked record after a restart).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/fault.h"
#include "common/status.h"
#include "messaging/broker.h"
#include "messaging/cluster.h"
#include "messaging/consumer.h"
#include "messaging/group_coordinator.h"
#include "messaging/offset_manager.h"
#include "messaging/producer.h"
#include "storage/disk.h"
#include "storage/log.h"
#include "storage/record.h"
#include "storage/record_batch.h"
#include "workload/generators.h"

namespace liquid::messaging {
namespace {

using bench::Fmt;
using bench::Stopwatch;
using bench::Table;

constexpr int kPartitions = 2;
constexpr int kRecordsPerBatch = 6;

// The seeded chaos schedule: scripting gates keep it deterministic for a
// given seed (the probability RNG is reseeded by FaultRegistry::Load).
constexpr const char* kScheduleText =
    "seed = 42\n"
    "fault.broker.produce.before_append.action = delay(200us)\n"
    "fault.broker.produce.before_append.probability = 0.05\n"
    "fault.log.sync.before.action = fail(IOError)\n"
    "fault.log.sync.before.after = 200\n"
    "fault.log.sync.before.every = 97\n"
    "fault.log.sync.before.count = 6\n"
    "fault.broker.replicate.before_append.action = fail(Unavailable)\n"
    "fault.broker.replicate.before_append.probability = 0.02\n"
    "fault.coord.election.acquire.action = fail(Unavailable)\n"
    "fault.coord.election.acquire.count = 2\n"
    "fault.broker.produce.before_ack.action = crash\n"
    "fault.broker.produce.before_ack.every = 300\n"
    "fault.broker.produce.before_ack.count = 2\n";

uint64_t HashKey(const std::string& key) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Values are "<per-key-seq>|<generator payload>"; -1 if unparseable.
int64_t SeqOf(const std::string& value) {
  const size_t bar = value.find('|');
  if (bar == 0 || bar == std::string::npos) return -1;
  return std::strtoll(value.substr(0, bar).c_str(), nullptr, 10);
}

struct SoakOptions {
  int rounds = 400;
  // Rounds between scheduled leader kills; halfway between two of them the
  // whole replica set of one partition is power-cycled instead.
  int kill_every = 60;
  int down_rounds = 6;     // Rounds a killed broker stays down.
  bool broken_acks = false;
  bool verbose = false;
  bool no_schedule = false;
  const char* json_path = nullptr;
};

struct SoakReport {
  int64_t acked_records = 0;
  int64_t acked_recovered = 0;
  int64_t lost_acked = 0;
  int64_t duplicate_records = 0;
  int64_t order_violations = 0;
  int64_t consumer_redeliveries = 0;
  int64_t acked_not_consumed = 0;
  // Offsets below min(replica log end, leader HW) where a replica's frame
  // is missing or differs from the leader's.
  int64_t replica_divergence = 0;
  int64_t kills = 0;
  int64_t isr_cycles = 0;  // Whole-replica-set power-cycles.
  int64_t send_giveups = 0;
  double leader_failover_ms = 0;       // Mean over kills.
  double first_ack_after_restart_ms = 0;  // Mean over restarts.
  bool consumers_caught_up = false;
  bool ok = false;
};

class ChaosSoak {
 public:
  explicit ChaosSoak(const SoakOptions& options)
      : options_(options), generator_(workload::RumEventGenerator::Options{}) {}

  SoakReport Run() {
    ClusterConfig cluster_config;
    cluster_config.num_brokers = 3;
    Cluster cluster(cluster_config, &clock_);
    LIQUID_CHECK_OK(cluster.Start());

    TopicConfig topic;
    topic.partitions = kPartitions;
    topic.replication_factor = 3;
    topic.min_insync_replicas = 2;
    // The harness's central wager: acks must imply durability on every
    // replica they count. The broken mode acknowledges on the leader's
    // in-memory append (no fsync), which the crash-restart churn below must
    // expose as lost acked records.
    topic.log.sync_mode = options_.broken_acks ? storage::SyncMode::kNone
                                               : storage::SyncMode::kGroup;
    LIQUID_CHECK_OK(cluster.CreateTopic("t", topic));

    ProducerConfig producer_config;
    producer_config.acks =
        options_.broken_acks ? AckMode::kLeader : AckMode::kAll;
    producer_config.idempotent = true;
    Producer producer(&cluster, producer_config);

    storage::MemDisk offsets_disk;
    auto offsets = OffsetManager::Open(&offsets_disk, "offsets/", &clock_);
    LIQUID_CHECK_OK(offsets.status());
    GroupCoordinator coordinator(&cluster);
    ConsumerConfig consumer_config;
    consumer_config.group = "soak";
    Consumer consumer(&cluster, offsets->get(), &coordinator, "c1",
                      consumer_config);
    LIQUID_CHECK_OK(consumer.Subscribe({"t"}));

    if (!options_.no_schedule) {
      auto schedule = FaultSchedule::Parse(kScheduleText);
      LIQUID_CHECK_OK(schedule.status());
      FaultRegistry::Default()->Load(*schedule);
    }

    // down_broker < 0: all brokers alive. restart_round: when to revive it.
    int down_broker = -1;
    int restart_round = -1;
    bool awaiting_first_ack = false;  // After a kill...
    Stopwatch failover_timer;         // ...measures until the next ack.
    bool awaiting_restart_ack = false;
    Stopwatch restart_timer;
    std::vector<int64_t> failover_us;
    std::vector<int64_t> restart_ack_us;

    for (int round = 0; round < options_.rounds; ++round) {
      // 1. Produce one batch per partition (plus anything still pending from
      // rounds where the cluster was unavailable). A failed batch is retried
      // verbatim later: the producer's sequence only advances on ack, so the
      // broker's (pid, seq) dedup is what keeps re-sends duplicate-free.
      for (int p = 0; p < kPartitions; ++p) {
        if (pending_[p].empty()) pending_[p].push_back(MakeBatch(p));
        std::deque<std::vector<storage::Record>>& queue = pending_[p];
        while (!queue.empty()) {
          const TopicPartition tp{"t", p};
          auto resp = producer.SendBatch(tp, queue.front());
          if (!resp.ok()) {
            ++send_failures_;
            if (options_.verbose) {
              auto st = cluster.GetPartitionState(tp);
              std::fprintf(stderr, "round %d p%d: %s (leader=%d epoch=%d)\n",
                           round, p, resp.status().ToString().c_str(),
                           st.ok() ? st->leader : -99,
                           st.ok() ? st->leader_epoch : -99);
            }
            break;  // Keep the batch pending; retry next round.
          }
          NoteAcked(queue.front());
          queue.pop_front();
          if (awaiting_first_ack) {
            failover_us.push_back(failover_timer.ElapsedUs());
            awaiting_first_ack = false;
          }
          if (awaiting_restart_ack) {
            restart_ack_us.push_back(restart_timer.ElapsedUs());
            awaiting_restart_ack = false;
          }
        }
      }

      // 2. Consume and check order/duplicates on the delivered stream.
      auto polled = consumer.Poll(64);
      if (polled.ok()) {
        for (const ConsumerRecord& cr : *polled) CheckConsumed(cr);
      }
      if (round % 5 == 4) LIQUID_IGNORE_ERROR(consumer.Commit());

      // 3. Chaos: crash requests from the schedule plus scheduled churn.
      const bool crash_requested =
          !FaultRegistry::Default()->DrainCrashRequests().empty();
      const bool scheduled_kill =
          options_.kill_every > 0 && round % options_.kill_every == 10;
      // Halfway between two leader kills, one partition's whole replica set
      // loses power. For the three rounds before, its followers fail every
      // fsync: acks=all may count a follower only once its copy is durable,
      // so they must leave the ISR rather than carry acked records that the
      // power loss then erases when a once-follower wins the election.
      const int phase =
          options_.kill_every > 0 ? round % options_.kill_every : -1;
      const int cycle_phase = options_.kill_every / 2 + 10;
      const TopicPartition cycle_tp{
          "t", static_cast<int>(report_.isr_cycles) % kPartitions};
      if (phase == cycle_phase - 3 && down_broker < 0) {
        auto state = cluster.GetPartitionState(cycle_tp);
        if (state.ok()) {
          for (int id : state->replicas) {
            if (id == state->leader) continue;
            cluster.disk(id)->SetSyncFaultHook([](const std::string&) {
              return Status::IOError("soak: follower fsync fault");
            });
            syncless_.push_back(id);
          }
        }
      }
      if (phase == cycle_phase && down_broker >= 0) {
        ClearSyncFaults(&cluster);  // A leader kill got in first: skip.
      }
      if (phase == cycle_phase && down_broker < 0) {
        // Followers restart first; only what each replica fsynced survives.
        auto state = cluster.GetPartitionState(cycle_tp);
        LIQUID_CHECK_OK(state.status());
        std::vector<int> order = state->replicas;
        std::stable_partition(order.begin(), order.end(),
                              [&](int id) { return id != state->leader; });
        for (int id : order) {
          LIQUID_CHECK_OK(cluster.StopBroker(id));
          cluster.disk(id)->SimulateCrash();
        }
        ClearSyncFaults(&cluster);
        for (int id : order) LIQUID_CHECK_OK(cluster.RestartBroker(id));
        ++report_.isr_cycles;
        awaiting_restart_ack = true;
        restart_timer.Reset();
      } else if (down_broker < 0 && (crash_requested || scheduled_kill)) {
        const TopicPartition tp{"t", static_cast<int>(report_.kills) %
                                         kPartitions};
        auto state = cluster.GetPartitionState(tp);
        if (state.ok() && state->leader >= 0) {
          down_broker = state->leader;
          LIQUID_CHECK_OK(cluster.StopBroker(down_broker));
          // Power loss, not graceful shutdown: unsynced writes are gone.
          cluster.disk(down_broker)->SimulateCrash();
          restart_round = round + options_.down_rounds;
          ++report_.kills;
          awaiting_first_ack = true;
          failover_timer.Reset();
        }
      } else if (down_broker >= 0 && round >= restart_round) {
        LIQUID_CHECK_OK(cluster.RestartBroker(down_broker));
        down_broker = -1;
        awaiting_restart_ack = true;
        restart_timer.Reset();
      }

      cluster.ReplicationTick();
      if (round % 16 == 15) cluster.ReplicationTick();
    }

    // Final recovery: disarm chaos, revive everything, let replication and
    // the consumer group catch up, then audit the logs.
    FaultRegistry::Default()->Clear();
    ClearSyncFaults(&cluster);
    if (down_broker >= 0) LIQUID_CHECK_OK(cluster.RestartBroker(down_broker));
    for (int i = 0; i < 8; ++i) cluster.ReplicationTick();
    DrainRemainingPending(&producer);
    for (int i = 0; i < 8; ++i) cluster.ReplicationTick();

    AuditLogs(&cluster);
    CatchUpConsumer(&cluster, &consumer, offsets->get());

    // At-least-once end-to-end: once the group is caught up, every acked
    // record must have been delivered at least once. Redeliveries are legal
    // (and counted); a hole is not.
    for (const auto& [key, seqs] : acked_) {
      auto it = consumed_.find(key);
      for (int64_t seq : seqs) {
        if (it == consumed_.end() || it->second.count(seq) == 0) {
          ++report_.acked_not_consumed;
        }
      }
    }

    report_.send_giveups = send_failures_;
    report_.leader_failover_ms = MeanMs(failover_us);
    report_.first_ack_after_restart_ms = MeanMs(restart_ack_us);
    report_.ok = report_.acked_records > 0 && report_.lost_acked == 0 &&
                 report_.duplicate_records == 0 &&
                 report_.order_violations == 0 &&
                 report_.acked_not_consumed == 0 &&
                 report_.replica_divergence == 0 && report_.consumers_caught_up;
    return report_;
  }

 private:
  void ClearSyncFaults(Cluster* cluster) {
    for (int id : syncless_) cluster->disk(id)->SetSyncFaultHook(nullptr);
    syncless_.clear();
  }

  std::vector<storage::Record> MakeBatch(int partition) {
    std::vector<storage::Record> batch;
    while (batch.size() < kRecordsPerBatch) {
      storage::Record record = generator_.Next(clock_.NowMs());
      if (static_cast<int>(HashKey(record.key) % kPartitions) != partition) {
        continue;  // Driver-side hash routing, fixed per key.
      }
      const int64_t seq = next_seq_[record.key]++;
      record.value = std::to_string(seq) + "|" + record.value;
      batch.push_back(std::move(record));
    }
    return batch;
  }

  void NoteAcked(const std::vector<storage::Record>& batch) {
    for (const storage::Record& record : batch) {
      acked_[record.key].push_back(SeqOf(record.value));
      ++report_.acked_records;
    }
  }

  void CheckConsumed(const ConsumerRecord& cr) {
    const int64_t seq = SeqOf(cr.record.value);
    if (seq < 0) return;
    if (!consumed_[cr.record.key].insert(seq).second) {
      // A group rebalance (leader churn expires sessions) rewinds the member
      // to its last committed offset, so re-delivery of the tail since that
      // commit is legal at-least-once behaviour (DESIGN.md §8) — counted,
      // reported, but not a failure. Log-level duplicates (idempotence) are
      // what AuditLogs gates on.
      ++report_.consumer_redeliveries;
      return;
    }
    auto [it, fresh] = consumed_high_.try_emplace(cr.record.key, seq);
    if (!fresh) {
      if (seq < it->second) ++report_.order_violations;
      it->second = std::max(it->second, seq);
    }
  }

  // Full scan of both partitions: per-key order, duplicates, acked ⊆
  // fetched ("unacknowledged, not absent" is fine — the reverse is not),
  // and every replica against the leader.
  void AuditLogs(Cluster* cluster) {
    std::map<std::string, std::vector<int64_t>> fetched;
    for (int p = 0; p < kPartitions; ++p) {
      const TopicPartition tp{"t", p};
      auto leader = cluster->LeaderFor(tp);
      if (!leader.ok()) continue;
      AuditReplicas(cluster, tp, *leader);
      int64_t cursor = 0;
      while (true) {
        auto fetch = (*leader)->Fetch(tp, cursor, 1 << 20, -1);
        if (!fetch.ok() || fetch->batches.empty()) break;
        std::vector<storage::Record> records;
        LIQUID_CHECK_OK(fetch->DecodeRecords(&records));
        for (const storage::Record& record : records) {
          fetched[record.key].push_back(SeqOf(record.value));
        }
        cursor = fetch->next_fetch_offset;
      }
    }
    for (const auto& [key, seqs] : fetched) {
      std::set<int64_t> seen;
      int64_t high = -1;
      for (int64_t seq : seqs) {
        if (!seen.insert(seq).second) {
          ++report_.duplicate_records;
          if (options_.verbose) {
            std::fprintf(stderr, "log dup: %s seq=%lld\n", key.c_str(),
                         static_cast<long long>(seq));
          }
        } else if (seq < high) {
          ++report_.order_violations;
        }
        high = std::max(high, seq);
      }
    }
    for (const auto& [key, seqs] : acked_) {
      auto it = fetched.find(key);
      for (int64_t seq : seqs) {
        const bool present =
            it != fetched.end() &&
            std::find(it->second.begin(), it->second.end(), seq) !=
                it->second.end();
        if (present) {
          ++report_.acked_recovered;
        } else {
          ++report_.lost_acked;
        }
      }
    }
  }

  // Below min(its log end, the leader's high watermark) a replica must hold
  // exactly the leader's frames: followers land the leader's bytes verbatim,
  // and KIP-101 truncation removes any suffix a deposed leader left behind.
  void AuditReplicas(Cluster* cluster, const TopicPartition& tp,
                     Broker* leader) {
    auto state = cluster->GetPartitionState(tp);
    auto hw = leader->HighWatermark(tp);
    if (!state.ok() || !hw.ok()) return;
    const std::map<int64_t, std::string> expected =
        FramesBelow(cluster, leader->id(), tp, *hw);
    for (int id : state->replicas) {
      if (id == leader->id()) continue;
      auto end = cluster->broker(id)->LogEndOffset(tp);
      if (!end.ok()) continue;
      const int64_t bound = std::min(*end, *hw);
      const std::map<int64_t, std::string> held =
          FramesBelow(cluster, id, tp, bound);
      for (const auto& [offset, bytes] : expected) {
        if (offset >= bound) break;
        auto it = held.find(offset);
        if (it == held.end() || it->second != bytes) {
          ++report_.replica_divergence;
          if (options_.verbose) {
            std::fprintf(stderr, "replica %d diverges on %s at offset %lld\n",
                         id, tp.ToString().c_str(),
                         static_cast<long long>(offset));
          }
        }
      }
      for (const auto& [offset, bytes] : held) {
        if (expected.count(offset) == 0) ++report_.replica_divergence;
      }
    }
  }

  // The frames of broker `id`'s copy of `tp` below `bound`, offset -> bytes.
  // A follower serves no fetches, so the copy is read off the broker's disk
  // (its log lives under "<topic>-<partition>/"); nothing writes to it once
  // final recovery has run.
  std::map<int64_t, std::string> FramesBelow(Cluster* cluster, int id,
                                             const TopicPartition& tp,
                                             int64_t bound) {
    std::map<int64_t, std::string> frames;
    auto log = storage::Log::Open(cluster->disk(id), /*cache=*/nullptr,
                                  tp.ToString() + "/", storage::LogConfig{},
                                  &clock_);
    LIQUID_CHECK_OK(log.status());
    int64_t cursor = (*log)->start_offset();
    storage::EncodedBatch batch;
    while (cursor < bound) {
      LIQUID_CHECK_OK((*log)->ReadEncoded(cursor, 1 << 20, &batch));
      if (batch.empty()) break;
      for (const storage::BatchFrame& frame : batch.frames()) {
        if (frame.offset >= bound) break;
        frames.emplace(frame.offset,
                       std::string(batch.buffer()->data() + frame.pos,
                                   frame.len));
      }
      cursor = batch.last_offset() + 1;
    }
    return frames;
  }

  // The group must resume from its committed offsets and drain to the end of
  // both partitions.
  void CatchUpConsumer(Cluster* cluster, Consumer* consumer,
                       OffsetManager* offsets) {
    for (int i = 0; i < 200; ++i) {
      auto polled = consumer->Poll(64);
      if (!polled.ok()) break;
      for (const ConsumerRecord& cr : *polled) CheckConsumed(cr);
      if (polled->empty()) break;
    }
    LIQUID_IGNORE_ERROR(consumer->Commit());
    bool caught_up = true;
    for (int p = 0; p < kPartitions; ++p) {
      const TopicPartition tp{"t", p};
      auto leader = cluster->LeaderFor(tp);
      auto committed = offsets->Fetch("soak", tp);
      if (!leader.ok() || !committed.ok()) {
        caught_up = false;
        continue;
      }
      auto bounds = (*leader)->OffsetBounds(tp);
      if (!bounds.ok() || committed->offset < bounds->second) {
        caught_up = false;
      }
    }
    report_.consumers_caught_up = caught_up;
  }

  void DrainRemainingPending(Producer* producer) {
    for (int attempt = 0; attempt < 20; ++attempt) {
      bool all_empty = true;
      for (int p = 0; p < kPartitions; ++p) {
        std::deque<std::vector<storage::Record>>& queue = pending_[p];
        while (!queue.empty()) {
          auto resp = producer->SendBatch(TopicPartition{"t", p}, queue.front());
          if (!resp.ok()) {
            all_empty = false;
            break;
          }
          NoteAcked(queue.front());
          queue.pop_front();
        }
      }
      if (all_empty) return;
    }
  }

  static double MeanMs(const std::vector<int64_t>& samples_us) {
    if (samples_us.empty()) return 0;
    int64_t total = 0;
    for (int64_t v : samples_us) total += v;
    return static_cast<double>(total) / static_cast<double>(samples_us.size()) /
           1000.0;
  }

  const SoakOptions options_;
  SystemClock clock_;
  workload::RumEventGenerator generator_;
  std::map<std::string, int64_t> next_seq_;
  std::map<int, std::deque<std::vector<storage::Record>>> pending_;
  std::map<std::string, std::vector<int64_t>> acked_;
  std::map<std::string, std::set<int64_t>> consumed_;
  std::map<std::string, int64_t> consumed_high_;
  int64_t send_failures_ = 0;
  std::vector<int> syncless_;  // Brokers whose disk currently fails fsync.
  SoakReport report_;
};

int Run(const SoakOptions& options) {
  SoakReport report = ChaosSoak(options).Run();

  Table table({"metric", "value"});
  table.AddRow({"acked_records", std::to_string(report.acked_records)});
  table.AddRow({"acked_recovered", std::to_string(report.acked_recovered)});
  table.AddRow({"lost_acked", std::to_string(report.lost_acked)});
  table.AddRow({"duplicate_records", std::to_string(report.duplicate_records)});
  table.AddRow({"order_violations", std::to_string(report.order_violations)});
  table.AddRow(
      {"consumer_redeliveries", std::to_string(report.consumer_redeliveries)});
  table.AddRow({"acked_not_consumed", std::to_string(report.acked_not_consumed)});
  table.AddRow({"replica_divergence", std::to_string(report.replica_divergence)});
  table.AddRow({"kills", std::to_string(report.kills)});
  table.AddRow({"isr_cycles", std::to_string(report.isr_cycles)});
  table.AddRow({"send_giveups", std::to_string(report.send_giveups)});
  table.AddRow({"leader_failover_ms", Fmt(report.leader_failover_ms, 2)});
  table.AddRow(
      {"first_ack_after_restart_ms", Fmt(report.first_ack_after_restart_ms, 2)});
  table.AddRow({"consumers_caught_up", report.consumers_caught_up ? "yes" : "no"});
  table.AddRow({"verdict", report.ok ? "PASS" : "FAIL"});
  table.Print("chaos soak (3 brokers, rf=3, min_insync=2, sync=group, "
              "idempotent producer, seeded fault schedule + leader and "
              "whole-replica-set power-cycles)");

  if (options.json_path != nullptr) {
    std::ofstream out(options.json_path, std::ios::trunc);
    out << "{\n  \"benchmark\": \"chaos_soak\",\n"
        << "  \"rounds\": " << options.rounds << ",\n  \"results\": [\n"
        << "    {\"name\": \"soak\""
        << ", \"acked_records\": " << report.acked_records
        << ", \"acked_recovered\": " << report.acked_recovered
        << ", \"lost_acked\": " << report.lost_acked
        << ", \"duplicate_records\": " << report.duplicate_records
        << ", \"order_violations\": " << report.order_violations
        << ", \"consumer_redeliveries\": " << report.consumer_redeliveries
        << ", \"acked_not_consumed\": " << report.acked_not_consumed
        << ", \"replica_divergence\": " << report.replica_divergence
        << ", \"kills\": " << report.kills
        << ", \"isr_cycles\": " << report.isr_cycles
        << ", \"leader_failover_ms\": " << Fmt(report.leader_failover_ms, 3)
        << ", \"first_ack_after_restart_ms\": "
        << Fmt(report.first_ack_after_restart_ms, 3) << "}\n  ]\n}\n";
    if (!out) {
      std::fprintf(stderr, "warning: could not write %s\n", options.json_path);
    } else {
      std::printf("wrote %s\n", options.json_path);
    }
  }
  return report.ok ? 0 : 1;
}

}  // namespace
}  // namespace liquid::messaging

int main(int argc, char** argv) {
  liquid::messaging::SoakOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      options.rounds = 80;
      options.kill_every = 30;
      options.down_rounds = 4;
    } else if (std::strcmp(argv[i], "--broken-acks") == 0) {
      options.broken_acks = true;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      options.verbose = true;
    } else if (std::strcmp(argv[i], "--no-schedule") == 0) {
      options.no_schedule = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      options.json_path = "BENCH_chaos_soak.json";
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      options.json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--broken-acks] [--json[=path]]\n",
                   argv[0]);
      return 2;
    }
  }
  return liquid::messaging::Run(options);
}
