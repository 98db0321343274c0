#ifndef LIQUID_MESSAGING_BROKER_H_
#define LIQUID_MESSAGING_BROKER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "coord/coordination_service.h"
#include "coord/leader_election.h"
#include "messaging/metadata.h"
#include "messaging/quota.h"
#include "storage/disk.h"
#include "storage/log.h"
#include "storage/page_cache.h"
#include "storage/record_batch.h"

namespace liquid::messaging {

class Cluster;
class Controller;

/// Broker tuning knobs.
struct BrokerConfig {
  storage::PageCacheConfig page_cache;
  /// Default cap on fetch response payloads.
  size_t fetch_max_bytes = 1 << 20;
};

/// One node of the messaging layer (§3.1): hosts partitions of topics as
/// replicated append-only logs, answers produce/fetch requests, replicates as
/// leader or follower, and participates in controller election.
///
/// "RPCs" are direct method calls routed through the Cluster; the protocol
/// semantics (leader checks, epochs, high-watermark, ISR membership) are the
/// real ones.
///
/// Locking is sharded by partition (see DESIGN.md §messaging): a broker-level
/// shared_mutex (map_mu_) guards only replica-map membership, liveness and
/// controller state; every Replica owns a Mutex guarding its log and
/// replication state. Hot-path requests take map_mu_ shared (concurrent with
/// each other) and then exactly one replica lock, so producers on different
/// partitions never contend. No broker lock is ever held across a
/// coordination-service or broker-to-broker call.
class Broker {
 public:
  Broker(int id, Cluster* cluster, storage::Disk* disk, Clock* clock,
         BrokerConfig config);
  ~Broker();

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  int id() const { return id_; }

  /// Registers in the coordination service and contends for the controller
  /// role.
  Status Start();

  /// Simulates a crash: the coordination session expires (triggering
  /// controller failover handling) and all requests fail with Unavailable.
  void Stop();

  bool alive() const;

  // ---- Controller/admin-facing ----

  /// Makes this broker the leader of `tp` with the given state.
  Status BecomeLeader(const TopicPartition& tp, const PartitionState& state,
                      const TopicConfig& config);

  /// Makes this broker a follower of `tp`; truncates the local log to its
  /// high-watermark (uncommitted records may be discarded — the acks=1
  /// durability trade-off of §4.3).
  Status BecomeFollower(const TopicPartition& tp, const PartitionState& state,
                        const TopicConfig& config);

  /// Stops hosting `tp` (partition reassignment / decommission); optionally
  /// deletes its on-disk log and high-watermark checkpoint.
  Status StopReplica(const TopicPartition& tp, bool delete_data);

  // ---- Client-facing ----

  /// Appends `records` to the partition (leader only). For AckMode::kAll the
  /// call synchronously replicates to all ISR followers and fails with
  /// Unavailable if fewer than min_insync_replicas are in sync.
  /// `producer_id`/`first_sequence` enable idempotent deduplication;
  /// a non-empty `client_id` is charged against its byte-rate quota and the
  /// response carries the throttle delay the caller must observe before its
  /// next request (§4.5 multi-tenancy) — the broker itself never sleeps.
  LIQUID_HOT_PATH
  Result<ProduceResponse> Produce(const TopicPartition& tp,
                                  std::vector<storage::Record> records,
                                  AckMode acks,
                                  int64_t producer_id = storage::kNoProducerId,
                                  int32_t first_sequence = -1,
                                  const std::string& client_id = "");

  /// Reads encoded frames starting at `offset`, up to `max_bytes` (at least
  /// one record when any is visible). Replica fetches (`replica_id >= 0`)
  /// see the full log and advance the leader's view of the follower
  /// (possibly expanding the ISR and the high-watermark); the follower
  /// appends the frames verbatim. Consumers see committed data only (below
  /// the high-watermark); `read_committed` also stops at the last stable
  /// offset and returns the aborted ranges the client drops with
  /// FetchResponse::DecodeRecords — the exactly-once extension the paper
  /// calls an "ongoing effort" (§4.3). The replica lock is held only to
  /// snapshot the bounds; the log is read after it is released (DESIGN.md
  /// §5a), so producers never wait behind a cold read.
  LIQUID_HOT_PATH
  Result<FetchResponse> Fetch(const TopicPartition& tp, int64_t offset,
                              size_t max_bytes, int replica_id = -1,
                              const std::string& client_id = "",
                              bool read_committed = false);

  // ---- Transactions (leader-side partition state) ----

  /// Marks the start of `pid`'s transaction on this partition: data appended
  /// by `pid` from the current log end until the marker is transactional.
  Status BeginPartitionTxn(const TopicPartition& tp, int64_t pid);

  /// Appends the commit/abort control marker for `pid` and resolves its
  /// transactional range (aborted ranges are filtered from read_committed
  /// fetches).
  Status WriteTxnMarker(const TopicPartition& tp, int64_t pid, bool committed);

  /// Last stable offset: committed data below every ongoing transaction.
  Result<int64_t> LastStableOffset(const TopicPartition& tp);

  /// KIP-101 reconciliation query (leader side): for the requester's last
  /// known epoch, returns {largest local epoch <= requested, that epoch's end
  /// offset}. A new follower truncates to this boundary, which removes any
  /// divergent suffix it accepted from a deposed leader — even one below the
  /// new leader's log end, where a plain min(LEO, LEO) cannot see it.
  Result<std::pair<int, int64_t>> EndOffsetForEpoch(const TopicPartition& tp,
                                                    int epoch);

  /// First offset with timestamp >= ts_ms (metadata-based rewind, §3.1).
  Result<int64_t> OffsetForTimestamp(const TopicPartition& tp, int64_t ts_ms);

  /// {log start offset, high watermark} visible to consumers.
  Result<std::pair<int64_t, int64_t>> OffsetBounds(const TopicPartition& tp);

  // ---- Replication ----

  /// Push path: the leader forwards the exact bytes it just appended
  /// (synchronous acks=all replication and transaction markers), and they
  /// land through AppendFromLeaderLocked, the one follower append path.
  /// Pushes are unordered: one that starts past the local log end (an
  /// earlier batch has not landed yet) fills the gap through
  /// PullFromLeader, with no broker lock held, and tries to land again
  /// after each pull, until it lands or a pull makes no progress (counted
  /// in replicate_gap_fills). Fails with FailedPrecondition when
  /// `leader_epoch` is not the epoch this follower was told about, and
  /// with OutOfRange when the leader cannot fill the gap.
  Status AppendEncodedAsFollower(const TopicPartition& tp,
                                 const storage::EncodedBatch& batch,
                                 int leader_epoch, int64_t leader_hw);

  /// Blocks until this broker's copy of `tp` is durable below `end_offset`
  /// (Log::AwaitDurable; returns at once under sync_mode=none, where acks
  /// promise replication, not disk). A leader calls it on itself and on each
  /// follower it counts toward an acks=all acknowledgment.
  Status AwaitReplicaDurable(const TopicPartition& tp, int64_t end_offset);

  /// Pull path: every follower partition runs PullFromLeader once
  /// (catch-up for acks<all and for restarted brokers). A partition whose
  /// leader answers NotLeader or Unavailable refreshes its leadership from
  /// the coordination service.
  Status ReplicateFromLeaders();

  // ---- Maintenance ----

  /// Applies retention and compaction to every hosted log (§4.1).
  Status RunLogMaintenance();

  Result<storage::CompactionStats> CompactPartition(const TopicPartition& tp);

  // ---- Introspection ----

  Result<int64_t> LogEndOffset(const TopicPartition& tp);
  Result<int64_t> HighWatermark(const TopicPartition& tp);
  std::vector<TopicPartition> HostedPartitions() const;
  bool HostsPartition(const TopicPartition& tp) const;
  bool IsLeaderFor(const TopicPartition& tp) const;
  bool IsController() const;

  storage::PageCache* page_cache() { return page_cache_.get(); }
  MetricsRegistry* metrics() { return &metrics_; }
  QuotaManager* quotas() { return &quotas_; }
  storage::Disk* disk() { return disk_; }

 private:
  /// One hosted partition. Each replica owns its lock: requests for
  /// different partitions of the same broker proceed fully in parallel.
  /// Non-movable (the Mutex pins it); replicas_ is a node-based map, so
  /// entries are constructed in place and never relocate.
  struct Replica {
    /// Guards everything below. Acquired after map_mu_ (held shared) and
    /// before any Log-internal lock; never held across coordination-service
    /// or broker-to-broker calls (snapshot-then-call rule).
    mutable Mutex mu;

    TopicConfig config GUARDED_BY(mu);
    std::unique_ptr<storage::Log> log GUARDED_BY(mu);
    bool is_leader GUARDED_BY(mu) = false;
    int leader GUARDED_BY(mu) = -1;
    int leader_epoch GUARDED_BY(mu) = -1;
    // Set while BecomeFollower reconciles this follower's log with the new
    // leader's (KIP-101), which it does with no lock held; leader bytes are
    // refused until the truncation is done.
    bool reconciling GUARDED_BY(mu) = false;
    int64_t high_watermark GUARDED_BY(mu) = 0;
    std::vector<int> isr GUARDED_BY(mu);
    // Leader-side view of follower log-end offsets.
    std::map<int, int64_t> follower_leo GUARDED_BY(mu);
    // Idempotent-producer dedup: last sequence accepted per producer id.
    std::unordered_map<int64_t, int32_t> producer_last_seq GUARDED_BY(mu);
    // Transactions: pid -> first offset of the ongoing transaction, and the
    // aborted ones still in the log (leader state, rebuilt from the log when
    // a replica becomes leader).
    std::map<int64_t, int64_t> ongoing_txns GUARDED_BY(mu);
    std::vector<AbortedTxn> aborted_ranges GUARDED_BY(mu);
    // Leader-epoch cache (KIP-101): (epoch, start offset of that epoch),
    // ascending; rebuilt from the log's records when the log opens.
    std::vector<std::pair<int, int64_t>> epoch_cache GUARDED_BY(mu);
    // Cached handle for "liquid.broker.<id>.partition.<tp>.append_records"
    // in the process-wide registry, resolved once when the log opens.
    Counter* append_records GUARDED_BY(mu) = nullptr;
  };

  /// min(first offset over ongoing transactions, high watermark).
  static int64_t LastStableOffsetLocked(const Replica& replica)
      REQUIRES(replica.mu);

  /// Replica lookup under the membership lock (shared suffices: the map is
  /// not mutated and per-replica state is behind the replica's own lock).
  /// Callers hold map_mu_ for the whole per-replica operation, which is what
  /// keeps the Replica* alive (StopReplica needs map_mu_ exclusive to erase).
  Result<Replica*> FindReplicaShared(const TopicPartition& tp)
      REQUIRES_SHARED(map_mu_);

  Status EnsureLogLocked(const TopicPartition& tp, Replica* replica)
      REQUIRES(replica->mu);
  /// Recomputes the leader HW = min(LEO over ISR members with known LEO).
  void AdvanceHighWatermarkLocked(const TopicPartition& tp, Replica* replica)
      REQUIRES(replica->mu);
  /// Removes `follower` from the ISR; returns true if the ISR changed (the
  /// caller publishes the new ISR via PublishIsr AFTER unlocking — publishing
  /// talks to the coordination service, whose watches re-enter the broker).
  bool ShrinkIsrLocked(const TopicPartition& tp, Replica* replica, int follower)
      REQUIRES(replica->mu);
  /// Adds a caught-up follower to the ISR; returns true if it changed (same
  /// publish-after-unlock contract as ShrinkIsrLocked).
  bool MaybeExpandIsrLocked(const TopicPartition& tp, Replica* replica,
                            int follower) REQUIRES(replica->mu);
  /// The KIP-101 half of BecomeFollower: walks this follower's epoch cache
  /// against the new leader's, truncating as it goes, with no lock held.
  Status ReconcileWithLeader(const TopicPartition& tp,
                             const PartitionState& state);
  /// The one follower append path: lands leader bytes sent under
  /// `leader_epoch` on this follower. `batches` are the leader's log from
  /// offset `from` on, so the leader holds nothing in [from, first frame);
  /// a push passes its batch's base offset. In order:
  ///  - refuses any epoch but the replica's (FailedPrecondition). Only a
  ///    leadership command moves that epoch, so a new leader's bytes
  ///    cannot land before BecomeFollower has seen the epoch change (and
  ///    so run KIP-101 reconciliation), and a pull response from a leader
  ///    deposed meanwhile cannot land after it;
  ///  - refuses any bytes while that reconciliation runs (Unavailable):
  ///    sliced against a divergent suffix it is about to truncate, they
  ///    would count toward the leader's HW and then be lost. A refused push
  ///    drops the follower from the ISR, and it rejoins through the pull;
  ///  - drops frames already stored (a metadata slice, never a copy);
  ///  - refuses bytes read from past the local log end (OutOfRange): the
  ///    follower would skip leader records. A gap the leader itself has
  ///    (retention moved its log start past the local end, or compaction
  ///    removed offsets) is taken as it is;
  ///  - appends the rest verbatim, notes their epochs, counts them and
  ///    gives each traced record a "replicate" span;
  ///  - raises the high watermark to min(`leader_hw`, local end) and
  ///    checkpoints it.
  Status AppendFromLeaderLocked(const TopicPartition& tp, Replica* replica,
                                int leader_epoch, int64_t from,
                                std::span<const storage::EncodedBatch> batches,
                                int64_t leader_hw) REQUIRES(replica->mu);
  /// Publishes `isr` for `tp` to the coordination service. Must be called
  /// with NO broker lock held: the coord write fires watches that re-enter
  /// brokers on this thread (controller election, leadership changes).
  void PublishIsr(const TopicPartition& tp, const std::vector<int>& isr);
  /// Pulls once for follower partition `tp`: under `replica->mu` it
  /// snapshots the local log end, the leader and the leader epoch; it
  /// fetches from the leader with no broker lock held; it lands the
  /// response through AppendFromLeaderLocked under the snapshotted epoch,
  /// so a response from a leader deposed meanwhile is refused. Returns how
  /// far the local log end moved, or the fetch's error.
  Result<int64_t> PullFromLeader(const TopicPartition& tp);
  /// Pushes the leader's `batch` to each of `targets` with no broker lock
  /// held. Returns the followers whose push failed.
  std::vector<int> PushToFollowers(const TopicPartition& tp,
                                   const storage::EncodedBatch& batch,
                                   int epoch, int64_t leader_hw,
                                   const std::vector<int>& targets);
  /// The one acks=all durability wait (DESIGN.md §6c), shared by fresh
  /// produces, duplicate resends and transaction markers. Waits until
  /// offsets below `end_offset` are durable on this leader; then, if the
  /// batch was just `pushed` to `followers` (a duplicate pushes nothing),
  /// lets the followers it reached (all but the failed pushes in `failed`)
  /// count toward the high watermark; then waits until the batch is durable
  /// on each of them. No broker lock is held across a wait or a follower
  /// call. A follower whose push or sync failed leaves the ISR. Returns the
  /// leader's own sync error, NotLeader, or Unavailable when the ISR fell
  /// below min.insync.replicas.
  Status AwaitIsrDurable(const TopicPartition& tp, int epoch,
                         int64_t end_offset, bool pushed,
                         const std::vector<int>& followers,
                         std::vector<int> failed);
  /// If leadership `epoch` still holds: counts `end_offset` toward the high
  /// watermark for every follower in `followers` but not in `failed`, drops
  /// the `failed` ones from the ISR (publishing it after unlocking), and
  /// fails with Unavailable when the ISR is below min.insync.replicas.
  Status SettleIsr(const TopicPartition& tp, int epoch, int64_t end_offset,
                   const std::vector<int>& followers,
                   const std::vector<int>& failed);
  /// Rebuilds the leader's producer state from the log: the idempotent
  /// dedup map (producer_last_seq), the open transactions (ongoing_txns)
  /// and the aborted ones (aborted_ranges). Called when a replica becomes
  /// leader — a restarted broker or a promoted follower — so mid-stream
  /// producers are deduplicated instead of rejected as out-of-order
  /// (DESIGN.md §7: the chaos soak found exactly this gap), and
  /// read_committed consumers keep seeing neither aborted nor open
  /// transactional data. A pid's first transactional record after its
  /// previous marker opens a range, an abort marker closes it as aborted,
  /// and a range with no marker yet stays open and bounds the LSO.
  Status RebuildProducerStateLocked(Replica* replica) REQUIRES(replica->mu);

  Status LoadHighWatermarkLocked(const TopicPartition& tp, Replica* replica)
      REQUIRES(replica->mu);
  void StoreHighWatermarkLocked(const TopicPartition& tp, Replica* replica)
      REQUIRES(replica->mu);
  /// Rebuilds the epoch cache from the leader epochs stamped on the log's
  /// records (called when the log opens).
  Status LoadEpochCacheLocked(Replica* replica) REQUIRES(replica->mu);
  /// Records that `epoch` starts at `start_offset` (no-op if already known).
  void NoteEpochLocked(Replica* replica, int epoch, int64_t start_offset)
      REQUIRES(replica->mu);
  /// Drops cache entries at/after `offset` after a truncation.
  void TrimEpochCacheLocked(Replica* replica, int64_t offset)
      REQUIRES(replica->mu);
  /// The epoch of the last record in the local log (-1 if empty).
  static int LastLocalEpochLocked(const Replica& replica) REQUIRES(replica.mu);

  const int id_;
  Cluster* cluster_;
  storage::Disk* const disk_;
  Clock* const clock_;
  const BrokerConfig config_;

  const std::unique_ptr<storage::PageCache> page_cache_;
  MetricsRegistry metrics_;
  QuotaManager quotas_;

  // Cached handles into MetricsRegistry::Default() ("liquid.broker.<id>.*")
  // and this broker's own registry, resolved once in the constructor so the
  // produce/fetch hot paths never re-do a name lookup (the registry lookup
  // takes a global lock — a cross-partition serialization point the sharded
  // hot path must not touch). Registries never erase entries, so the
  // pointers remain valid for the process lifetime.
  Counter* produce_records_ = nullptr;
  Counter* produce_bytes_ = nullptr;
  Counter* fetch_records_ = nullptr;
  Counter* replicated_records_ = nullptr;
  /// Pushes that found a gap and fell back to PullFromLeader
  /// ("liquid.broker.<id>.replicate_gap_fills").
  Counter* replicate_gap_fills_ = nullptr;
  Histogram* produce_us_ = nullptr;
  Histogram* fetch_us_ = nullptr;
  /// Time spent acquiring the replica lock in Produce — the direct
  /// observable of broker lock contention ("liquid.broker.<id>.
  /// produce_lock_wait_us", see OBSERVABILITY.md).
  Histogram* produce_lock_wait_us_ = nullptr;
  // Per-broker registry counters (kept for test/introspection compatibility).
  Counter* broker_produce_records_ = nullptr;
  Counter* broker_fetch_records_ = nullptr;
  Counter* quota_produce_throttles_ = nullptr;
  Counter* quota_fetch_throttles_ = nullptr;
  Counter* produce_duplicates_dropped_ = nullptr;
  // ISR churn counters, cached so ShrinkIsrLocked (reachable from the produce
  // hot path via acks=all failure handling) never takes the registry lock.
  Counter* isr_shrinks_ = nullptr;
  Counter* isr_expands_ = nullptr;

  /// Membership lock: guards which replicas exist plus broker liveness and
  /// controller/election state. Request paths hold it SHARED for the whole
  /// per-replica operation (pinning the Replica) and acquire the replica's
  /// own lock under it; only Start/Stop, Become*, and StopReplica take it
  /// exclusive. Lock order: map_mu_ -> Replica::mu -> Log internals.
  mutable SharedMutex map_mu_;
  bool alive_ GUARDED_BY(map_mu_) = false;
  int64_t session_id_ GUARDED_BY(map_mu_) = 0;
  // node-based: Replica is non-movable and pointers stay stable while
  // map_mu_ is held (shared or exclusive).
  std::map<TopicPartition, Replica> replicas_ GUARDED_BY(map_mu_);
  std::unique_ptr<coord::LeaderElection> election_ GUARDED_BY(map_mu_);
  // shared_ptr: the election callback starts the controller outside map_mu_
  // (election walks the whole cluster) while Stop() may reset this member.
  std::shared_ptr<Controller> controller_ GUARDED_BY(map_mu_);
};

}  // namespace liquid::messaging

#endif  // LIQUID_MESSAGING_BROKER_H_
