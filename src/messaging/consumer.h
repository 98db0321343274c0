#ifndef LIQUID_MESSAGING_CONSUMER_H_
#define LIQUID_MESSAGING_CONSUMER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "messaging/group_coordinator.h"
#include "messaging/metadata.h"
#include "messaging/offset_manager.h"
#include "storage/record.h"

namespace liquid::messaging {

class Cluster;

/// A record delivered to a consumer, tagged with its origin partition.
struct ConsumerRecord {
  TopicPartition tp;
  storage::Record record;
};

/// Consumer tuning knobs; the group name also scopes committed offsets and
/// the `liquid.consumer.<group>.*` metrics.
struct ConsumerConfig {
  std::string group = "default";
  /// Bytes one fetch of one partition may read. It also bounds the fetch
  /// buffer: a partition keeps at most one fetch's undelivered records.
  size_t fetch_max_bytes = 1 << 20;
  /// Where to start on a partition with no committed offset.
  bool start_from_earliest = true;
  /// Client id charged against broker-side byte-rate quotas (§4.5); empty
  /// means unquoted.
  std::string client_id;
  /// Hide transactional data until its transaction commits (exactly-once
  /// reads); aborted data and control markers are never delivered.
  bool read_committed = false;
  /// Unified retry discipline (DESIGN.md §7) for transient fetch failures
  /// inside one Poll: leader re-resolve plus short jittered backoff. Kept
  /// small — an exhausted budget just defers the partition to the next poll.
  RetryPolicy retry{.max_attempts = 3, .max_backoff_ms = 4};
};

/// Subscribing client of the messaging layer (§3.1). Pull-based: Poll()
/// fetches from the leaders of the partitions assigned to this member by the
/// group coordinator, tracking per-partition positions; Commit() checkpoints
/// positions (optionally with metadata annotations) in the offset manager.
class Consumer {
 public:
  Consumer(Cluster* cluster, OffsetManager* offsets,
           GroupCoordinator* coordinator, std::string member_id,
           ConsumerConfig config);
  ~Consumer();

  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;

  /// Joins the group, subscribing to `topics`; triggers a rebalance.
  Status Subscribe(const std::vector<std::string>& topics);

  /// Delivers up to max_records across assigned partitions (round-robin).
  /// A partition is served first from its fetch buffer: the decoded records
  /// of its last fetch that an earlier poll did not deliver. Only a drained
  /// partition is fetched again, at most once per poll and up to
  /// fetch_max_bytes; what this poll cannot deliver stays buffered.
  /// Position(), Positions() and Commit() therefore name the next
  /// undelivered offset, not the end of the fetch. Returns an empty vector
  /// when no new committed data exists.
  LIQUID_HOT_PATH
  Result<std::vector<ConsumerRecord>> Poll(size_t max_records);

  /// Checkpoints current positions for all assigned partitions.
  Status Commit();

  /// Checkpoints with metadata annotations (e.g. {"version","v2"}) — §4.2.
  Status CommitWithAnnotations(
      const std::map<std::string, std::string>& annotations);

  /// Moves the position of `tp` (must be assigned) and drops its buffer.
  Status Seek(const TopicPartition& tp, int64_t offset);

  /// Rewinds every assigned partition to the first record at/after ts_ms
  /// (metadata-based access, §3.1), dropping every buffer.
  Status SeekToTimestamp(int64_t ts_ms);

  /// Current position of `tp`: the next offset to deliver.
  Result<int64_t> Position(const TopicPartition& tp) const;

  /// Snapshot of all positions (for transactional offset commits).
  std::map<TopicPartition, int64_t> Positions() const;

  /// Leaves the group WITHOUT committing (crash simulation / transactional
  /// jobs that commit offsets through the transaction coordinator).
  Status CloseWithoutCommit();

  std::vector<TopicPartition> Assignment() const;

  /// Leaves the group (triggers a rebalance for surviving members).
  Status Close();

  const std::string& member_id() const { return member_id_; }

 private:
  /// The records of a partition's last fetch that no poll has delivered
  /// yet. `records` is the vector FetchResponse::DecodeRecords filled
  /// (visible records only); `records[next..]` are undelivered. The
  /// position moves to `next_fetch_offset`, past any trailing control
  /// markers or aborted data, only once the buffer drains.
  struct FetchBuffer {
    std::vector<storage::Record> records;
    size_t next = 0;
    int64_t next_fetch_offset = 0;
    int64_t high_watermark = 0;

    bool drained() const { return next == records.size(); }
  };

  /// Re-fetches the assignment if the group generation moved; initializes
  /// positions of newly assigned partitions from committed offsets and
  /// drops every buffer.
  Status RefreshAssignmentLocked() REQUIRES(mu_);

  /// Refills the drained `buffer` of `tp` with one fetch at its position.
  /// False when the fetch or its decode failed (the position is unchanged).
  bool FetchLocked(const TopicPartition& tp, FetchBuffer* buffer)
      REQUIRES(mu_);

  Cluster* cluster_;
  OffsetManager* offsets_;
  GroupCoordinator* coordinator_;
  const std::string member_id_;
  const ConsumerConfig config_;

  // Cached handles into MetricsRegistry::Default()
  // ("liquid.consumer.<group>.*"), resolved once in the constructor; the
  // registry never erases entries so the pointers stay valid.
  Counter* records_counter_ = nullptr;
  // Records decoded from fetches; against records_counter_ (delivered) it
  // measures fetch waste.
  Counter* fetched_records_counter_ = nullptr;
  Gauge* lag_gauge_ = nullptr;
  Histogram* e2e_latency_us_ = nullptr;
  RetryMetrics retry_metrics_{};

  mutable Mutex mu_;
  // Live per-partition lag gauges ("...lag.<topic>-<p>") plus the last
  // observed lag values, so the group-total gauge can be recomputed as the
  // sum over everything this member has seen.
  std::map<TopicPartition, Gauge*> partition_lag_gauges_ GUARDED_BY(mu_);
  std::map<TopicPartition, int64_t> partition_lag_ GUARDED_BY(mu_);
  std::vector<std::string> topics_ GUARDED_BY(mu_);
  int64_t generation_ GUARDED_BY(mu_) = -1;
  std::vector<TopicPartition> assignment_ GUARDED_BY(mu_);
  std::map<TopicPartition, int64_t> positions_ GUARDED_BY(mu_);
  // One entry per assigned partition polled since the last drop (seek,
  // assignment change, close).
  std::map<TopicPartition, FetchBuffer> buffers_ GUARDED_BY(mu_);
  // Round-robin over assigned partitions.
  size_t poll_cursor_ GUARDED_BY(mu_) = 0;
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace liquid::messaging

#endif  // LIQUID_MESSAGING_CONSUMER_H_
