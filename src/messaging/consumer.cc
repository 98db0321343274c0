#include "messaging/consumer.h"

#include <algorithm>

#include "common/logging.h"
#include "messaging/broker.h"
#include "messaging/cluster.h"

namespace liquid::messaging {

Consumer::Consumer(Cluster* cluster, OffsetManager* offsets,
                   GroupCoordinator* coordinator, std::string member_id,
                   ConsumerConfig config)
    : cluster_(cluster),
      offsets_(offsets),
      coordinator_(coordinator),
      member_id_(std::move(member_id)),
      config_(std::move(config)) {
  MetricsRegistry* global = MetricsRegistry::Default();
  const std::string prefix = "liquid.consumer." + config_.group + ".";
  records_counter_ = global->GetCounter(prefix + "records");
  fetched_records_counter_ = global->GetCounter(prefix + "fetched_records");
  lag_gauge_ = global->GetGauge(prefix + "lag");
  e2e_latency_us_ = global->GetHistogram(prefix + "e2e_latency_us");
  retry_metrics_ = RetryMetrics::Create(prefix);
}

// A destructor cannot propagate the final auto-commit's Status; users who
// care about the last commit must call Close() explicitly and check it.
Consumer::~Consumer() { LIQUID_IGNORE_ERROR(Close()); }

Status Consumer::Subscribe(const std::vector<std::string>& topics) {
  MutexLock lock(&mu_);
  topics_ = topics;
  auto generation = coordinator_->JoinGroup(config_.group, member_id_, topics);
  if (!generation.ok()) return generation.status();
  return RefreshAssignmentLocked();
}

Status Consumer::RefreshAssignmentLocked() {
  const int64_t current = coordinator_->Generation(config_.group);
  if (current == generation_) return Status::OK();
  LIQUID_ASSIGN_OR_RETURN(GroupAssignment assignment,
                          coordinator_->GetAssignment(config_.group, member_id_));
  generation_ = assignment.generation;
  assignment_ = std::move(assignment.partitions);
  poll_cursor_ = 0;
  // Positions of kept partitions already name the next undelivered record,
  // so dropping their buffers costs a re-fetch, never a skip.
  buffers_.clear();

  std::map<TopicPartition, int64_t> fresh;
  for (const TopicPartition& tp : assignment_) {
    auto kept = positions_.find(tp);
    if (kept != positions_.end()) {
      fresh[tp] = kept->second;  // Still ours: keep the position.
      continue;
    }
    auto committed = offsets_->Fetch(config_.group, tp);
    if (committed.ok()) {
      fresh[tp] = committed->offset;
      continue;
    }
    // No committed offset: start from the earliest or the latest data.
    auto leader = cluster_->LeaderFor(tp);
    if (leader.ok()) {
      auto bounds = (*leader)->OffsetBounds(tp);
      if (bounds.ok()) {
        fresh[tp] = config_.start_from_earliest ? bounds->first : bounds->second;
        continue;
      }
    }
    fresh[tp] = 0;
  }
  positions_ = std::move(fresh);
  return Status::OK();
}

bool Consumer::FetchLocked(const TopicPartition& tp, FetchBuffer* buffer) {
  const int64_t position = positions_[tp];
  // Unified retry discipline (DESIGN.md §7): a transiently failing
  // partition (leader mid-election, injected Unavailable) gets a short
  // jittered backoff and a fresh LeaderFor — the metadata refresh — instead
  // of silently losing its turn. An exhausted budget defers the partition
  // to the next Poll rather than failing the whole call.
  RetryState retry(config_.retry, cluster_->clock(), Deadline::Infinite(),
                   static_cast<uint64_t>(position + 1) * 1099511628211ull +
                       static_cast<uint64_t>(tp.partition),
                   &retry_metrics_);
  Result<FetchResponse> resp = Status::Unavailable("no fetch attempt");
  do {
    auto leader = cluster_->LeaderFor(tp);
    if (leader.ok()) {
      resp = (*leader)->Fetch(tp, position, config_.fetch_max_bytes, -1,
                              config_.client_id, config_.read_committed);
    } else {
      resp = leader.status();
    }
  } while (!resp.ok() && retry.ShouldRetry(resp.status()));
  if (!resp.ok()) return false;
  // Same client-side quota contract as the producer: the broker never
  // sleeps; an over-quota consumer serves its own throttle verdict here.
  // liquid-lint: allow(snapshot-then-call): mu_ is the consumer's API lock and the poll is the throttle point; Close/Commit waiting out an in-flight poll is the documented contract.
  // liquid-lint: allow(hot-block): client-side quota contract (section 4.5): the broker never sleeps; an over-quota consumer serves its own throttle verdict here.
  if (resp->throttle_ms > 0) cluster_->clock()->SleepMs(resp->throttle_ms);
  // Client-side decode into the drained buffer's vector, which keeps its
  // capacity from fetch to fetch: control markers and aborted records are
  // dropped here, not by the broker. Frames were CRC-checked when the log
  // parsed them, so a failure here leaves the position alone for the next
  // Poll.
  buffer->records.clear();
  buffer->next = 0;
  if (!resp->DecodeRecords(&buffer->records).ok()) {
    buffer->records.clear();
    return false;
  }
  fetched_records_counter_->Increment(
      static_cast<int64_t>(buffer->records.size()));
  buffer->next_fetch_offset = resp->next_fetch_offset;
  buffer->high_watermark = resp->high_watermark;
  return true;
}

Result<std::vector<ConsumerRecord>> Consumer::Poll(size_t max_records) {
  MutexLock lock(&mu_);
  if (closed_) return Status::FailedPrecondition("consumer closed");
  coordinator_->Heartbeat(config_.group, member_id_);  // Polling = liveness.
  LIQUID_RETURN_NOT_OK(RefreshAssignmentLocked());
  std::vector<ConsumerRecord> out;
  if (assignment_.empty()) return out;
  // Callers pass modest budgets, but cap the upfront reservation anyway so a
  // huge max_records cannot turn into a huge speculative allocation.
  out.reserve(std::min<size_t>(max_records, 1024));

  for (size_t visited = 0;
       visited < assignment_.size() && out.size() < max_records; ++visited) {
    const TopicPartition& tp =
        assignment_[(poll_cursor_ + visited) % assignment_.size()];
    FetchBuffer& buffer = buffers_[tp];
    int64_t& position = positions_[tp];
    // Serve what an earlier poll left buffered; fetch only once it drains,
    // and at most once per partition per poll.
    const bool had_buffered = !buffer.drained();
    bool fetched = false;
    while (out.size() < max_records) {
      if (buffer.drained()) {
        if (fetched || !FetchLocked(tp, &buffer)) break;
        fetched = true;
      }
      for (; !buffer.drained() && out.size() < max_records; ++buffer.next) {
        storage::Record& record = buffer.records[buffer.next];
        position = record.offset + 1;
        out.push_back(ConsumerRecord{tp, std::move(record)});
      }
      // Past the filtered tail (control markers, aborted data) only once
      // everything before it was delivered.
      if (buffer.drained()) {
        position = std::max(position, buffer.next_fetch_offset);
      }
    }
    if (!had_buffered && !fetched) continue;  // The fetch failed.
    // Live lag for this partition: committed data not yet delivered, as of
    // the buffered fetch's high watermark. A dead (non-polling) member stops
    // updating these; the lag monitor derives its view from committed
    // offsets instead (see lag_monitor.h).
    const int64_t lag =
        std::max<int64_t>(0, buffer.high_watermark - position);
    partition_lag_[tp] = lag;
    auto gauge = partition_lag_gauges_.find(tp);
    if (gauge == partition_lag_gauges_.end()) {
      // liquid-lint: allow(metric-hot-lookup): per-partition gauge names depend on the dynamic assignment; the lookup runs once per newly assigned partition and is cached in partition_lag_gauges_.
      gauge = partition_lag_gauges_
                  .emplace(tp, MetricsRegistry::Default()->GetGauge(
                                   "liquid.consumer." + config_.group +
                                   ".lag." + tp.ToString()))
                  .first;
    }
    gauge->second->Set(lag);
  }
  poll_cursor_ = (poll_cursor_ + 1) % std::max<size_t>(assignment_.size(), 1);
  int64_t total_lag = 0;
  for (const auto& [tp, lag] : partition_lag_) total_lag += lag;
  lag_gauge_->Set(total_lag);
  if (!out.empty()) {
    records_counter_->Increment(static_cast<int64_t>(out.size()));
    const int64_t now_us = cluster_->clock()->NowUs();
    for (const ConsumerRecord& cr : out) {
      // End-to-end latency is measured against the producer's ingest stamp,
      // so it covers the full path: produce -> append -> (replicate) -> fetch.
      if (cr.record.traced() && cr.record.ingest_us > 0) {
        e2e_latency_us_->Record(now_us - cr.record.ingest_us);
      }
    }
  }
  return out;
}

Status Consumer::Commit() {
  return CommitWithAnnotations({});
}

Status Consumer::CommitWithAnnotations(
    const std::map<std::string, std::string>& annotations) {
  MutexLock lock(&mu_);
  for (const TopicPartition& tp : assignment_) {
    OffsetCommit commit;
    commit.offset = positions_[tp];
    commit.annotations = annotations;
    LIQUID_RETURN_NOT_OK(offsets_->Commit(config_.group, tp, std::move(commit)));
  }
  return Status::OK();
}

Status Consumer::Seek(const TopicPartition& tp, int64_t offset) {
  MutexLock lock(&mu_);
  if (std::find(assignment_.begin(), assignment_.end(), tp) ==
      assignment_.end()) {
    return Status::InvalidArgument("partition not assigned: " + tp.ToString());
  }
  positions_[tp] = offset;
  buffers_.erase(tp);
  return Status::OK();
}

Status Consumer::SeekToTimestamp(int64_t ts_ms) {
  MutexLock lock(&mu_);
  buffers_.clear();
  for (const TopicPartition& tp : assignment_) {
    auto leader = cluster_->LeaderFor(tp);
    if (!leader.ok()) return leader.status();
    auto offset = (*leader)->OffsetForTimestamp(tp, ts_ms);
    if (offset.ok()) {
      positions_[tp] = *offset;
    } else if (offset.status().IsNotFound()) {
      // All data is older: position at the end.
      auto bounds = (*leader)->OffsetBounds(tp);
      if (bounds.ok()) positions_[tp] = bounds->second;
    } else {
      return offset.status();
    }
  }
  return Status::OK();
}

Result<int64_t> Consumer::Position(const TopicPartition& tp) const {
  MutexLock lock(&mu_);
  auto it = positions_.find(tp);
  if (it == positions_.end()) {
    return Status::NotFound("no position for " + tp.ToString());
  }
  return it->second;
}

std::map<TopicPartition, int64_t> Consumer::Positions() const {
  MutexLock lock(&mu_);
  return positions_;
}

Status Consumer::CloseWithoutCommit() {
  MutexLock lock(&mu_);
  if (closed_) return Status::OK();
  closed_ = true;
  buffers_.clear();
  return coordinator_->LeaveGroup(config_.group, member_id_);
}

std::vector<TopicPartition> Consumer::Assignment() const {
  MutexLock lock(&mu_);
  return assignment_;
}

Status Consumer::Close() {
  MutexLock lock(&mu_);
  if (closed_) return Status::OK();
  closed_ = true;
  buffers_.clear();
  return coordinator_->LeaveGroup(config_.group, member_id_);
}

}  // namespace liquid::messaging
