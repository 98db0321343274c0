#ifndef LIQUID_STORAGE_LOG_H_
#define LIQUID_STORAGE_LOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/disk.h"
#include "storage/log_segment.h"
#include "storage/page_cache.h"
#include "storage/record.h"
#include "storage/record_batch.h"

namespace liquid::storage {

/// When appended bytes are fsynced to stable storage (DESIGN.md §6c).
enum class SyncMode {
  /// Never fsync from the append path; flush-behind only (the page cache /
  /// OS decide). Fastest, and the pre-sync_mode behaviour — a crash loses
  /// the unflushed tail. This is Kafka's production default.
  kNone,
  /// Group commit: a per-log committer thread issues one fsync covering all
  /// batches committed during the previous sync window; callers that need
  /// durability block in AwaitDurable until their offsets are covered
  /// instead of paying one fsync per batch. No append path ever fsyncs.
  kGroup,
};

/// Per-log (i.e. per topic-partition) configuration, mirroring Kafka's
/// segment / retention / compaction knobs the paper discusses in §4.1.
struct LogConfig {
  /// Roll to a new segment once the active one reaches this size.
  size_t segment_bytes = 1 << 20;
  /// Sparse-index granularity inside each segment.
  size_t index_interval_bytes = 4096;
  /// Delete whole segments older than this (<= 0: keep forever).
  int64_t retention_ms = -1;
  /// Delete oldest segments while the log exceeds this size (<= 0: unbounded).
  int64_t retention_bytes = -1;
  /// Keyed topics (changelogs) may be compacted: only the latest record per
  /// key is retained in cleaned segments.
  bool compaction_enabled = false;
  /// During compaction, drop tombstones too (they have already served their
  /// delete-propagation purpose once every consumer saw them).
  bool compaction_drops_tombstones = false;
  /// Durability of the append path; see SyncMode.
  SyncMode sync_mode = SyncMode::kNone;
};

/// Outcome of one compaction pass, reported for the E4 bench.
struct CompactionStats {
  int64_t records_before = 0;
  int64_t records_after = 0;
  uint64_t bytes_before = 0;
  uint64_t bytes_after = 0;
  int segments_cleaned = 0;
};

/// An append-only, segmented, offset-addressed commit log — the storage
/// behind one topic-partition (§3.1 "each topic is realized as a distributed
/// commit log, in which each partition is append-only and keeps an ordered,
/// immutable sequence of messages with a unique identifier called an offset").
///
/// Thread-safe. Appends go through a reserve → encode → ordered-commit
/// pipeline: offsets are reserved under a short-held mutex, record encoding
/// (the CPU-heavy part — CRCs cover the offset field, so encoding can only
/// happen after reservation) runs with no lock held, and writers then commit
/// in reservation order under the exclusive lock. Concurrent appenders thus
/// overlap their encoding work instead of serializing on it. Truncation,
/// retention and compaction drain the pipeline first, then wait for pinned
/// readers and an in-flight sync; reads snapshot under the shared lock and
/// copy cold bytes with none held (ReadEncoded), and the group-commit
/// committer fsyncs with none held (SyncDirtySegments).
/// This pipeline is the only producer path; followers land the leader's
/// bytes verbatim through AppendEncoded.
class Log {
 public:
  /// Opens the log stored under `name_prefix` (e.g. "events-0/"), recovering
  /// existing segments. `cache` may be null.
  static Result<std::unique_ptr<Log>> Open(Disk* disk, PageCache* cache,
                                           const std::string& name_prefix,
                                           const LogConfig& config, Clock* clock);

  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;

  /// Stops and joins the group-commit committer thread, syncing any batches
  /// still in flight (best effort; errors are dropped — a closing log has no
  /// one left to acknowledge to).
  ~Log();

  /// Appends records in place, assigning consecutive offsets (and the current
  /// time to records whose timestamp is 0) so the caller sees the assignment,
  /// and returns the records' one-time wire encoding as a shared immutable
  /// buffer (the encode-once hot path: the caller forwards the same bytes to
  /// followers and replica fetches without re-encoding). This is the log's
  /// one producer append. It never fsyncs — callers that need a durable
  /// acknowledgment call AwaitDurable.
  LIQUID_HOT_PATH
  Result<EncodedBatch> AppendBatch(std::vector<Record>* records);

  /// All offsets below this have been fsynced. Only the kGroup committer
  /// advances it (it stays 0 under kNone); a truncation that rewrites the
  /// tail lowers it to the first rewritten offset.
  int64_t durable_offset() const;

  /// Blocks until offsets below `end_offset` are durable or a sync attempt
  /// covering them failed; returns that sync's error in the latter case (the
  /// batch is then unacknowledged, not absent). If the covering window had
  /// already failed before the call, the call asks the committer for one
  /// fresh attempt and reports its outcome, so a resend recovers once the
  /// fault clears; each call causes at most one attempt. Fails at once when
  /// the log does not reach `end_offset` (e.g. truncated meanwhile).
  /// Decoupled from AppendBatch so callers like Broker::Produce can release
  /// their own per-partition lock first — the whole point of group commit is
  /// that other producers keep filling the sync window while this caller
  /// waits. Only meaningful under SyncMode::kGroup (kNone has no committer:
  /// the call would block until the log closes).
  Status AwaitDurable(int64_t end_offset) EXCLUDES(append_mu_);

  /// Appends a pre-encoded batch carrying offsets (encode-once replication
  /// path: the leader's bytes land on the follower's disk verbatim, preserving
  /// offsets and gaps). Never fsyncs: under kGroup it wakes the committer,
  /// and a leader that counts this copy toward an ack waits for it in
  /// AwaitDurable.
  Status AppendEncoded(const EncodedBatch& batch);

  /// Reads the encoded frames of records with offset >= `offset`, gathering
  /// up to `max_bytes`, at least one record when any exists, as a shared
  /// buffer: a pinned cache page when the bytes are resident (zero-copy, at
  /// most one page per call), else one copied gather. This is the log's one
  /// read path; callers that want more loop on the next offset (or use
  /// ReadEncodedRange), and decode with EncodedBatch::DecodeAll. The
  /// zero-copy path runs under the shared log lock. The copying gather
  /// only snapshots its segments' spans under it and pins the log; it
  /// scans the segment files with no log lock held, so a cold read never
  /// delays an append. Truncate, ApplyRetention and Compact wait for the
  /// pin before they drop or rewrite a segment. The result is the log as
  /// of the snapshot. Requests below start_offset() are clamped forward to
  /// it (retention may have deleted the prefix); requests at or past
  /// end_offset() return empty. A frame that fails its CRC is Corruption.
  LIQUID_HOT_PATH
  Status ReadEncoded(int64_t offset, size_t max_bytes, EncodedBatch* out) const;

  /// The budgeted gather every multi-batch reader runs (Broker::Fetch
  /// among them): appends to `out` the frames of records in
  /// [offset, bound), one ReadEncoded step per batch, until `max_bytes` are
  /// gathered (only the first record may exceed the budget). Each step
  /// takes the shared log lock on its own, so writers interleave between
  /// steps; the offsets returned are contiguous but for compaction gaps.
  /// Returns the offset to read next: one past the last gathered frame, or
  /// `offset` when nothing was gathered.
  Result<int64_t> ReadEncodedRange(int64_t offset, int64_t bound,
                                   size_t max_bytes,
                                   std::vector<EncodedBatch>* out) const;

  /// First offset with a timestamp >= ts_ms (metadata-based rewind, §3.1).
  Result<int64_t> OffsetForTimestamp(int64_t ts_ms) const;

  /// Oldest available offset (advances when retention deletes segments).
  int64_t start_offset() const;
  /// One past the newest offset.
  int64_t end_offset() const;

  uint64_t size_bytes() const;
  int segment_count() const;

  /// Deletes all records with offset >= offset (follower reconciliation after
  /// leader change). Like ApplyRetention and Compact, waits for copying
  /// reads in flight before it drops or rewrites a segment.
  Status Truncate(int64_t offset);

  /// Applies time/size retention using the injected clock; returns the number
  /// of deleted segments.
  Result<int> ApplyRetention();

  /// Runs one compaction pass over all closed segments (§4.1 "log
  /// compaction"). No-op unless config.compaction_enabled.
  Result<CompactionStats> Compact();

  const LogConfig& config() const { return config_; }

 private:
  Log(Disk* disk, PageCache* cache, std::string name_prefix, LogConfig config,
      Clock* clock);

  Status OpenExisting();
  Status RollLocked(int64_t base_offset) REQUIRES(mu_);
  LogSegment* ActiveLocked() REQUIRES(mu_) { return segments_.back().get(); }
  Status AppendBatchLocked(const EncodedBatch& batch) REQUIRES(mu_);

  /// Blocks until no append reservation is outstanding. Mutators
  /// (truncation, retention, compaction, follower appends) hold append_mu_
  /// through their whole mutation so no new reservation can slip in, then
  /// resync the pipeline counters to next_offset_ when they moved it.
  void DrainAppendsLocked() REQUIRES(append_mu_);

  /// The bytes below `offset` stay durable; the rest were (or are about to
  /// be) replaced by unsynced ones. Lowers durable_offset_ and the failed
  /// window to `offset`, discards a sync window in flight, and wakes the
  /// committer and the durability waiters. Truncate and Compact call it.
  void RestartDurabilityAtLocked(int64_t offset) REQUIRES(append_mu_);

  /// Holds a read pin from construction (under mu_, so no mutator is
  /// running) to destruction, across a copying read's unlocked file scan
  /// or the committer's unlocked fsyncs.
  class ReadPin {
   public:
    explicit ReadPin(const Log* log) REQUIRES_SHARED(log->mu_);
    ~ReadPin();
    ReadPin(const ReadPin&) = delete;
    ReadPin& operator=(const ReadPin&) = delete;

   private:
    const Log* const log_;
  };

  /// Blocks until no ReadPin is held. Called by every mutator that drops or
  /// rewrites a segment, holding mu_ exclusive so no read can pin anew;
  /// bounded by one read step or one committer sync. Records the wait in
  /// read_pin_wait_us only when there was one.
  void AwaitReadPinsLocked() REQUIRES(mu_);

  /// Flushes every dirty segment up to the end it had when snapshotted
  /// under the shared log lock. The fsyncs run with no log lock held, under
  /// a ReadPin, so appends and reads proceed while the sync runs; the pin
  /// is released before returning. Called only by the committer, holding
  /// no lock.
  Status SyncDirtySegments() const EXCLUDES(mu_, append_mu_);

  /// Group-commit committer: waits for committed-but-not-durable batches,
  /// syncs them with one fsync per window, publishes durable_offset_.
  void CommitterLoop();

  Disk* const disk_;
  PageCache* const cache_;
  const std::string name_prefix_;
  const LogConfig config_;
  Clock* const clock_;

  /// Guards log structure: one writer (committing appends, truncation,
  /// retention, compaction) or many readers. Acquired after append_mu_ when
  /// both are held.
  mutable SharedMutex mu_;
  std::vector<std::unique_ptr<LogSegment>> segments_ GUARDED_BY(mu_);
  int64_t next_offset_ GUARDED_BY(mu_) = 0;
  int64_t start_offset_ GUARDED_BY(mu_) = 0;

  /// Counts copying reads scanning segment files, and committer syncs
  /// flushing them, with no log lock held (ReadPin). Below mu_: a pin is
  /// taken under mu_ shared and awaited under mu_ exclusive, and nothing is
  /// acquired while it is held.
  mutable Mutex pin_mu_;
  mutable CondVar pin_cv_{&pin_mu_};
  mutable int64_t read_pins_ GUARDED_BY(pin_mu_) = 0;

  /// Guards the append pipeline's reservation window. Held only for counter
  /// updates (never across encoding or I/O), so reservation is cheap even
  /// under heavy producer concurrency. All group-commit bookkeeping lives
  /// under this same mutex — the committer thread introduces no new lock
  /// level (DESIGN.md §5a: it snapshots under append_mu_, fsyncs under a
  /// ReadPin with no lock held, republishes under append_mu_).
  mutable Mutex append_mu_;
  CondVar append_cv_{&append_mu_};
  /// Next offset to hand to a reserving appender.
  int64_t reserved_offset_ GUARDED_BY(append_mu_) = 0;
  /// All appends below this offset have committed (in reservation order).
  int64_t committed_offset_ GUARDED_BY(append_mu_) = 0;

  /// Group-commit state (meaningful for kGroup). All offsets below
  /// durable_offset_ are fsynced.
  int64_t durable_offset_ GUARDED_BY(append_mu_) = 0;
  /// A failed group sync attempt covered offsets below sync_failed_upto_;
  /// last_sync_error_ holds why. Waiters in that range fail their ack; the
  /// committer retries once new batches commit past the failed window, or
  /// once an AwaitDurable call asks for a retry (sync_retry_requested_).
  int64_t sync_failed_upto_ GUARDED_BY(append_mu_) = 0;
  Status last_sync_error_ GUARDED_BY(append_mu_);
  bool sync_retry_requested_ GUARDED_BY(append_mu_) = false;
  /// Completed sync attempts, so a waiter can tell a fresh outcome from the
  /// one it found on arrival.
  int64_t sync_attempts_ GUARDED_BY(append_mu_) = 0;
  /// Bumped by Truncate; a sync window that straddles one is discarded, as
  /// the bytes it covered may have been replaced.
  int64_t truncations_ GUARDED_BY(append_mu_) = 0;
  bool committer_stop_ GUARDED_BY(append_mu_) = false;
  /// Wakes the committer when committed_offset_ advances (kGroup).
  CondVar committer_cv_{&append_mu_};
  /// Wakes AwaitDurable waiters when durable_offset_ / sync_failed_upto_
  /// move.
  CondVar durable_cv_{&append_mu_};
  /// Started by Open when config.sync_mode == kGroup, joined by ~Log.
  // liquid-lint: allow(guarded-by): written once in Open before the Log is published to any other thread and joined in the destructor after the stop handshake; never accessed concurrently.
  std::thread committer_;

  /// Hot-path metric handles, resolved once at construction
  /// (OBSERVABILITY.md: hot paths never do registry name lookups).
  Counter* fetch_zero_copy_bytes_;
  Counter* fetch_copied_bytes_;
  Counter* group_commit_batches_;
  Counter* group_commit_syncs_;
  Counter* group_commit_sync_failures_;
  Counter* producer_append_mu_acquisitions_;
  Histogram* group_commit_sync_us_;
  Histogram* read_pin_wait_us_;
};

}  // namespace liquid::storage

#endif  // LIQUID_STORAGE_LOG_H_
