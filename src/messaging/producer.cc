#include "messaging/producer.h"

#include <atomic>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "messaging/broker.h"
#include "messaging/cluster.h"

namespace liquid::messaging {

namespace {

std::atomic<int64_t> g_next_producer_id{1};

uint64_t HashKey(const std::string& key) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

Producer::Producer(Cluster* cluster, ProducerConfig config)
    : cluster_(cluster),
      config_(config),
      records_counter_(
          MetricsRegistry::Default()->GetCounter("liquid.producer.records")),
      throttle_waits_counter_(MetricsRegistry::Default()->GetCounter(
          "liquid.producer.throttle_waits")),
      producer_id_(config.idempotent || !config.transactional_id.empty()
                       ? g_next_producer_id.fetch_add(1)
                       : storage::kNoProducerId) {}

Result<int> Producer::PartitionFor(const std::string& topic,
                                   const storage::Record& record) {
  LIQUID_ASSIGN_OR_RETURN(TopicConfig config, cluster_->GetTopicConfig(topic));
  const int n = config.partitions;
  if (custom_partitioner_) return custom_partitioner_(record, n);
  if (config_.partitioner == PartitionerType::kHashByKey && record.has_key &&
      !record.key.empty()) {
    return static_cast<int>(HashKey(record.key) % static_cast<uint64_t>(n));
  }
  return static_cast<int>(round_robin_[topic]++ % static_cast<uint64_t>(n));
}

Status Producer::Send(const std::string& topic, storage::Record record) {
  // Sampling decision happens exactly once per record, here at the system
  // boundary. Records that already carry a context (a job re-publishing an
  // input's context downstream) are never re-stamped, so one trace id covers
  // the whole derivation chain.
  TraceCollector* tracer = TraceCollector::Default();
  if (!record.traced() && tracer->ShouldSample()) {
    record.trace_id = tracer->NewTraceId();
    record.span_id = tracer->NewSpanId();
    record.ingest_us = cluster_->clock()->NowUs();
  }
  std::vector<storage::Record> to_send;
  TopicPartition tp;
  {
    MutexLock lock(&mu_);
    auto partition = PartitionFor(topic, record);
    if (!partition.ok()) return partition.status();
    tp = TopicPartition{topic, *partition};
    auto& batch = batches_[tp];
    // swap() below hands the capacity to to_send, so re-reserve per fill
    // cycle: one allocation per batch_max_records sends instead of log2(n)
    // regrowths per cycle.
    if (batch.capacity() < config_.batch_max_records) {
      batch.reserve(config_.batch_max_records);
    }
    batch.push_back(std::move(record));
    if (batch.size() < config_.batch_max_records) return Status::OK();
    to_send.swap(batch);
  }
  return SendBatch(tp, std::move(to_send)).status();
}

Status Producer::Flush() {
  std::map<TopicPartition, std::vector<storage::Record>> pending;
  {
    MutexLock lock(&mu_);
    pending.swap(batches_);
  }
  for (auto& [tp, records] : pending) {
    if (records.empty()) continue;
    LIQUID_RETURN_NOT_OK(SendBatch(tp, std::move(records)).status());
  }
  return Status::OK();
}

Status Producer::InitTransactions(TransactionCoordinator* coordinator) {
  if (config_.transactional_id.empty()) {
    return Status::InvalidArgument("no transactional_id configured");
  }
  LIQUID_ASSIGN_OR_RETURN(int64_t pid,
                          coordinator->InitProducer(config_.transactional_id));
  MutexLock lock(&mu_);
  txn_coordinator_ = coordinator;
  producer_id_ = pid;
  next_sequence_.clear();
  return Status::OK();
}

Status Producer::BeginTransaction() {
  TransactionCoordinator* coordinator = nullptr;
  {
    MutexLock lock(&mu_);
    if (txn_coordinator_ == nullptr) {
      return Status::FailedPrecondition("InitTransactions not called");
    }
    if (in_transaction_) {
      return Status::FailedPrecondition("transaction already open");
    }
    coordinator = txn_coordinator_;
  }
  LIQUID_RETURN_NOT_OK(coordinator->Begin(config_.transactional_id));
  MutexLock lock(&mu_);
  in_transaction_ = true;
  return Status::OK();
}

Status Producer::CommitTransaction() {
  TransactionCoordinator* coordinator = nullptr;
  {
    MutexLock lock(&mu_);
    if (!in_transaction_) return Status::FailedPrecondition("no transaction");
    coordinator = txn_coordinator_;
  }
  LIQUID_RETURN_NOT_OK(Flush());
  Status st = coordinator->End(config_.transactional_id, /*commit=*/true);
  MutexLock lock(&mu_);
  in_transaction_ = false;
  return st;
}

Status Producer::AbortTransaction() {
  TransactionCoordinator* coordinator = nullptr;
  {
    MutexLock lock(&mu_);
    if (!in_transaction_) return Status::FailedPrecondition("no transaction");
    coordinator = txn_coordinator_;
  }
  LIQUID_RETURN_NOT_OK(Flush());  // Records land, then get abort-marked.
  Status st = coordinator->End(config_.transactional_id, /*commit=*/false);
  MutexLock lock(&mu_);
  in_transaction_ = false;
  return st;
}

Result<ProduceResponse> Producer::SendBatch(
    const TopicPartition& tp, std::vector<storage::Record> records) {
  if (records.empty()) return Status::InvalidArgument("empty batch");
  const bool sequenced =
      config_.idempotent || !config_.transactional_id.empty();
  int32_t first_sequence = -1;
  int64_t producer_id = storage::kNoProducerId;
  TransactionCoordinator* txn = nullptr;
  {
    MutexLock lock(&mu_);
    if (in_transaction_) txn = txn_coordinator_;
    producer_id = producer_id_;
    if (sequenced) {
      auto it = next_sequence_.find(tp);
      first_sequence = it == next_sequence_.end() ? 0 : it->second;
    }
  }
  if (txn != nullptr) {
    // Register the partition with the coordinator before the first write,
    // outside mu_ (section 5a): the coordinator pointer was snapshotted and
    // registration is idempotent, so a racing Commit/Abort sees either a
    // registered partition with no data or the full write — same as before.
    Status st = txn->AddPartition(config_.transactional_id, tp);
    if (!st.ok()) return st;
  }

  TraceCollector* tracer = TraceCollector::Default();
  const bool tracing = tracer->enabled();
  const int64_t send_start_us = tracing ? cluster_->clock()->NowUs() : 0;

  // Unified retry discipline (DESIGN.md §7). The jitter seed mixes the
  // partition and batch identity so concurrent producers desynchronize
  // without a global RNG; the backoff sleeps live inside RetryState, off
  // every broker thread (client-side backoff convention, §4.5).
  RetryState retry(config_.retry, cluster_->clock(), Deadline::Infinite(),
                   HashKey(tp.topic) + static_cast<uint64_t>(tp.partition) * 31 +
                       static_cast<uint64_t>(first_sequence + 1),
                   &retry_metrics_);
  for (;;) {
    // Resolve the leader through the cache; on a retriable failure the entry
    // was erased below, so this re-resolve is the metadata refresh that keeps
    // a retry from re-sending to a dead leader.
    Broker* leader = nullptr;
    Status last_error;
    {
      MutexLock lock(&mu_);
      auto it = leader_ids_.find(tp);
      if (it != leader_ids_.end()) leader = cluster_->broker(it->second);
    }
    if (leader == nullptr) {
      auto resolved = cluster_->LeaderFor(tp);
      if (resolved.ok()) {
        leader = *resolved;
        const int leader_id = leader->id();  // Snapshot before taking mu_.
        MutexLock lock(&mu_);
        leader_ids_[tp] = leader_id;
      } else {
        last_error = resolved.status();
        if (!retry.ShouldRetry(last_error)) return last_error;
        MutexLock lock(&mu_);
        ++send_retries_;
        if (retry.needs_metadata_refresh()) leader_ids_.erase(tp);
        continue;
      }
    }
    auto resp = leader->Produce(tp, records, config_.acks, producer_id,
                                first_sequence, config_.client_id);
    if (resp.ok()) {
      records_counter_->Increment(static_cast<int64_t>(records.size()));
      if (tracing) {
        // One "produce" span per traced record: producer hand-off to the
        // partition leader, parented on the record's current span so the
        // whole journey chains into one trace tree.
        const int64_t now_us = cluster_->clock()->NowUs();
        for (const storage::Record& record : records) {
          if (!record.traced()) continue;
          tracer->Record(Span{record.trace_id, tracer->NewSpanId(),
                              record.span_id, send_start_us, now_us, "produce",
                              tp.ToString()});
        }
      }
      {
        MutexLock lock(&mu_);
        records_sent_ += static_cast<int64_t>(records.size());
        if (sequenced) {
          next_sequence_[tp] =
              first_sequence + static_cast<int32_t>(records.size());
        }
      }
      // Quota enforcement is client-side (§4.5): the broker reports the
      // throttle in the response instead of sleeping on its request thread,
      // and the producer backs off here before its next send.
      if (resp->throttle_ms > 0) {
        throttle_waits_counter_->Increment();
        // liquid-lint: allow(hot-block): client-side quota contract (section 4.5): the producer serves its own throttle verdict.
        cluster_->clock()->SleepMs(resp->throttle_ms);
      }
      return resp;
    }
    last_error = resp.status();
    // Retriable verdicts (RetryPolicy::IsRetriable) back off on the
    // producer's thread — the broker never sleeps, same convention as quota
    // throttling. Non-retriable codes and an exhausted budget both land here.
    if (!retry.ShouldRetry(last_error)) return last_error;
    {
      MutexLock lock(&mu_);
      ++send_retries_;
      // NotLeader/Unavailable: drop the cached leader so the next attempt
      // re-reads cluster metadata (satellite: no re-send to a dead leader).
      if (retry.needs_metadata_refresh()) leader_ids_.erase(tp);
    }
  }
}

int64_t Producer::records_sent() const {
  MutexLock lock(&mu_);
  return records_sent_;
}

int64_t Producer::send_retries() const {
  MutexLock lock(&mu_);
  return send_retries_;
}

}  // namespace liquid::messaging
