#ifndef LIQUID_MESSAGING_OFFSET_MANAGER_H_
#define LIQUID_MESSAGING_OFFSET_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "messaging/metadata.h"
#include "storage/disk.h"
#include "storage/log.h"

namespace liquid::messaging {

/// A checkpoint of consumption progress, optionally annotated with arbitrary
/// metadata (§4.2: "a map of offsets to the metadata, such as the software
/// version that consumed a given offset, or the timestamp at which data was
/// read").
struct OffsetCommit {
  int64_t offset = -1;
  int64_t committed_at_ms = 0;
  std::map<std::string, std::string> annotations;
};

/// One (group, partition) entry of SnapshotCommits(): the latest *unlabeled*
/// commit, in structured form. Labeled checkpoints are excluded — they mark
/// historical points, not current consumption progress, so including them
/// would make lag look perpetually huge.
struct GroupCommit {
  std::string group;
  TopicPartition tp;
  OffsetCommit commit;
};

/// The highly-available, logically centralized offset manager (§3.1, §4.2).
///
/// Commits are persisted to an internal *compacted* commit log (exactly how
/// Kafka's __consumer_offsets topic works) and cached in memory; on restart
/// the cache is rebuilt by replaying the log. Labeled commits provide the
/// annotation-based rewind the paper describes: a job can checkpoint "where
/// algorithm v2 started" and later re-read from that point.
class OffsetManager {
 public:
  static Result<std::unique_ptr<OffsetManager>> Open(storage::Disk* disk,
                                                     const std::string& prefix,
                                                     Clock* clock);

  OffsetManager(const OffsetManager&) = delete;
  OffsetManager& operator=(const OffsetManager&) = delete;

  /// Saves the latest commit for (group, tp).
  Status Commit(const std::string& group, const TopicPartition& tp,
                OffsetCommit commit);

  /// Latest commit for (group, tp); NotFound if never committed.
  Result<OffsetCommit> Fetch(const std::string& group,
                             const TopicPartition& tp) const;

  /// Saves a named checkpoint that is NOT overwritten by later Commit()s —
  /// e.g. label = "algo-v2" marking where a new pipeline version started.
  Status CommitLabeled(const std::string& group, const TopicPartition& tp,
                       const std::string& label, OffsetCommit commit);

  Result<OffsetCommit> FetchLabeled(const std::string& group,
                                    const TopicPartition& tp,
                                    const std::string& label) const;

  /// Latest unlabeled commit of every (group, partition) ever committed or
  /// recovered. This is the observability surface the lag monitor builds on:
  /// because it reflects *committed* progress (not live consumer positions),
  /// lag derived from it keeps growing when a consumer dies — exactly the
  /// signal an operator needs (see lag_monitor.h).
  std::vector<GroupCommit> SnapshotCommits() const EXCLUDES(mu_);

  /// Compacts the backing log (it is keyed, so only the newest commit per
  /// (group, tp[, label]) survives).
  Result<storage::CompactionStats> CompactBackingLog();

  uint64_t backing_log_bytes() const { return log_->size_bytes(); }
  int64_t commits_total() const;

 private:
  OffsetManager(std::unique_ptr<storage::Log> log, Clock* clock);

  Status Recover() EXCLUDES(mu_);
  /// Appends the commit record; held under mu_ so the backing-log append and
  /// the cache update of one commit are atomic with respect to readers.
  Status Persist(const std::string& key, const OffsetCommit& commit)
      REQUIRES(mu_);
  static std::string CacheKey(const std::string& group, const TopicPartition& tp,
                              const std::string& label);
  /// Inverse of CacheKey for unlabeled keys; returns false for labeled ones
  /// (used by Recover to rebuild the structured latest_ map).
  static bool ParseCacheKey(const std::string& key, std::string* group,
                            TopicPartition* tp);
  /// Mirrors an unlabeled commit into latest_ and the commit metrics.
  void NoteCommitLocked(const std::string& group, const TopicPartition& tp,
                        const OffsetCommit& commit) REQUIRES(mu_);

  std::unique_ptr<storage::Log> log_;
  Clock* const clock_;
  /// Commit appends retry transient backing-log verdicts (injected
  /// Unavailable or ResourceExhausted) with the unified backoff; real
  /// I/O errors still fail fast (DESIGN.md §7). Offset commits are small
  /// and rare relative to produces, so the bounded in-lock retry is cheaper
  /// than surfacing every transient hiccup to all consumers of the group.
  const RetryPolicy retry_policy_{.max_attempts = 4, .max_backoff_ms = 8};
  const RetryMetrics retry_metrics_ = RetryMetrics::Create("liquid.offsets.");

  mutable Mutex mu_;
  std::map<std::string, OffsetCommit> cache_ GUARDED_BY(mu_);
  /// Structured mirror of the *unlabeled* entries of cache_, keyed by
  /// (group, partition); maintained by Commit and rebuilt by Recover. Kept
  /// separate so SnapshotCommits never parses flat cache keys.
  std::map<std::pair<std::string, TopicPartition>, OffsetCommit> latest_
      GUARDED_BY(mu_);
  int64_t commits_total_ GUARDED_BY(mu_) = 0;
};

}  // namespace liquid::messaging

#endif  // LIQUID_MESSAGING_OFFSET_MANAGER_H_
