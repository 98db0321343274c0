#ifndef LIQUID_COMMON_RETRY_H_
#define LIQUID_COMMON_RETRY_H_

#include <cstdint>
#include <string>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/status.h"

namespace liquid {

/// Absolute time budget for one logical operation (e.g. "this produce must
/// complete within 5 s, retries included"). Deadlines are checked by
/// RetryState before every backoff, so an operation never sleeps past its
/// budget. Copyable value type.
class Deadline {
 public:
  /// No budget: expired() is always false.
  static Deadline Infinite() { return Deadline(nullptr, 0); }

  /// Expires `ms` from now on `clock` (which must outlive the deadline).
  static Deadline AfterMs(const Clock* clock, int64_t ms) {
    return Deadline(clock, clock->NowMs() + ms);
  }

  bool expired() const {
    return clock_ != nullptr && clock_->NowMs() >= deadline_ms_;
  }

  /// Milliseconds left (0 when expired); INT64_MAX for Infinite().
  int64_t remaining_ms() const;

  bool infinite() const { return clock_ == nullptr; }

 private:
  Deadline(const Clock* clock, int64_t deadline_ms)
      : clock_(clock), deadline_ms_(deadline_ms) {}

  const Clock* clock_;
  int64_t deadline_ms_;
};

/// The unified client-side retry discipline: capped exponential backoff with
/// jitter plus the retriable-status classification every client shares.
///
/// Classification: Unavailable (leader election in flight, ISR below
/// min.insync), NotLeader (stale leadership metadata) and ResourceExhausted
/// (backpressure) are transient — retry, refreshing metadata first for the
/// leadership-related ones. Everything else
/// (InvalidArgument, Corruption, IOError, ...) fails fast: retrying cannot
/// fix it and only hides the bug.
struct RetryPolicy {
  /// Total tries including the first attempt; 1 disables retries.
  int max_attempts = 6;
  /// First backoff; successive backoffs multiply by `multiplier` up to
  /// `max_backoff_ms`.
  int64_t initial_backoff_ms = 1;
  int64_t max_backoff_ms = 64;
  double multiplier = 2.0;
  /// Fraction of the backoff randomized away (0.25 = sleep in
  /// [0.75x, 1.0x]). Decorrelates clients that fail in lockstep.
  double jitter = 0.25;

  /// True for the transient statuses worth retrying.
  static bool IsRetriable(const Status& status) {
    return status.IsUnavailable() || status.IsNotLeader() ||
           status.IsResourceExhausted();
  }

  /// True when the status implies cached leadership/cluster metadata may be
  /// stale and must be refreshed before the next attempt (re-sending to a
  /// dead or demoted leader cannot succeed).
  static bool NeedsMetadataRefresh(const Status& status) {
    return status.IsNotLeader() || status.IsUnavailable();
  }
};

/// Cached metric handles for one component instance's retry loops, resolved
/// once at construction time so retry paths never take the registry lock.
/// `prefix` is the instance's metric prefix incl. trailing dot, e.g.
/// "liquid.producer." or "liquid.consumer.<group>.".
struct RetryMetrics {
  Counter* retries_total = nullptr;
  Counter* giveups_total = nullptr;
  Histogram* retry_backoff_us = nullptr;

  static RetryMetrics Create(const std::string& prefix);
};

/// Per-operation retry state machine. Construct one per logical operation;
/// it is single-threaded by design (each operation retries on its own
/// calling thread), so it carries no lock — shared retry surfaces are the
/// caller's cached RetryMetrics counters, which are internally synchronized.
///
/// Usage:
///   RetryState retry(policy, clock, deadline, seed, &metrics);
///   for (;;) {
///     Status st = TryOnce();
///     if (st.ok() || !retry.ShouldRetry(st)) return st;
///     if (retry.needs_metadata_refresh()) RefreshMetadata();
///   }
///
/// ShouldRetry() sleeps the backoff on the calling thread — clients back
/// off client-side, brokers never sleep on a request thread (§4.5
/// convention).
class RetryState {
 public:
  RetryState(const RetryPolicy& policy, Clock* clock, Deadline deadline,
             uint64_t jitter_seed, const RetryMetrics* metrics = nullptr);

  /// Classifies `status`: returns false for OK, non-retriable statuses, and
  /// retriable ones with no attempts or deadline budget left (counting a
  /// giveup). Otherwise sleeps the capped jittered backoff and returns true.
  bool ShouldRetry(const Status& status);

  /// Retries performed so far (0 after construction).
  int retries() const { return retries_; }

  /// Total time slept in backoffs.
  int64_t total_backoff_us() const { return total_backoff_us_; }

  /// True when the last retriable status calls for a metadata refresh
  /// before the next attempt (see RetryPolicy::NeedsMetadataRefresh).
  bool needs_metadata_refresh() const { return needs_refresh_; }

  /// True when ShouldRetry returned false for a retriable status (budget
  /// exhausted) rather than a non-retriable one.
  bool gave_up() const { return gave_up_; }

 private:
  const RetryPolicy policy_;
  Clock* const clock_;
  const Deadline deadline_;
  Random rng_;
  const RetryMetrics* metrics_;
  int retries_ = 0;
  int64_t total_backoff_us_ = 0;
  bool needs_refresh_ = false;
  bool gave_up_ = false;
};

}  // namespace liquid

#endif  // LIQUID_COMMON_RETRY_H_
