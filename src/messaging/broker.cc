#include "messaging/broker.h"

#include <algorithm>
#include <optional>

#include "common/coding.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/trace.h"
#include "messaging/cluster.h"
#include "messaging/controller.h"

namespace liquid::messaging {

namespace {

std::string LogPrefix(const TopicPartition& tp) { return tp.ToString() + "/"; }

std::string HwCheckpointName(const TopicPartition& tp) {
  return tp.ToString() + ".hw";
}

bool Contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

Broker::Broker(int id, Cluster* cluster, storage::Disk* disk, Clock* clock,
               BrokerConfig config)
    : id_(id),
      cluster_(cluster),
      disk_(disk),
      clock_(clock),
      config_(config),
      page_cache_(std::make_unique<storage::PageCache>(
          config_.page_cache, clock,
          "liquid.broker." + std::to_string(id) + ".page_cache.")),
      quotas_(clock) {
  // Hot-path handles into the process-wide registry, resolved once here:
  // registry entries are never erased, so the pointers stay valid and the
  // produce/fetch paths skip the name lookup entirely.
  MetricsRegistry* global = MetricsRegistry::Default();
  const std::string prefix = "liquid.broker." + std::to_string(id_) + ".";
  produce_records_ = global->GetCounter(prefix + "produce_records");
  produce_bytes_ = global->GetCounter(prefix + "produce_bytes");
  fetch_records_ = global->GetCounter(prefix + "fetch_records");
  replicated_records_ = global->GetCounter(prefix + "replicated_records");
  replicate_gap_fills_ = global->GetCounter(prefix + "replicate_gap_fills");
  produce_us_ = global->GetHistogram(prefix + "produce_us");
  fetch_us_ = global->GetHistogram(prefix + "fetch_us");
  produce_lock_wait_us_ = global->GetHistogram(prefix + "produce_lock_wait_us");
  broker_produce_records_ = metrics_.GetCounter("produce.records");
  broker_fetch_records_ = metrics_.GetCounter("fetch.records");
  quota_produce_throttles_ = metrics_.GetCounter("quota.produce_throttles");
  quota_fetch_throttles_ = metrics_.GetCounter("quota.fetch_throttles");
  produce_duplicates_dropped_ =
      metrics_.GetCounter("produce.duplicates_dropped");
  isr_shrinks_ = metrics_.GetCounter("isr.shrinks");
  isr_expands_ = metrics_.GetCounter("isr.expands");
}

Broker::~Broker() = default;

Status Broker::Start() {
  // Chaos surface: a broker that cannot reach the coordination service at
  // startup (restart churn under coordinator flakiness).
  LIQUID_FAULT_POINT("broker.start.session");
  // Session creation talks to the coordination service, so it must not run
  // under map_mu_ (section 5a): create the session first, publish it under
  // the lock, and release it again on the already-started path.
  const int64_t session = cluster_->coord()->CreateSession();
  bool already_started = false;
  {
    WriterMutexLock lock(&map_mu_);
    if (alive_) {
      already_started = true;
    } else {
      alive_ = true;
      session_id_ = session;
    }
  }
  if (already_started) {
    cluster_->coord()->CloseSession(session);
    return Status::FailedPrecondition("broker already started");
  }
  auto created = cluster_->coord()->Create(session, paths::Broker(id_),
                                           std::to_string(id_),
                                           coord::NodeKind::kEphemeral);
  if (!created.ok()) return created.status();

  // Contend for the controller role; the winner handles broker failures.
  // Contending may elect synchronously, and election walks the whole cluster,
  // so it cannot run under map_mu_ — the callback takes the lock itself.
  auto election = std::make_unique<coord::LeaderElection>(
      cluster_->coord(), paths::Controller(), std::to_string(id_), session);
  election->Contend([this] {
    std::shared_ptr<Controller> controller;
    {
      WriterMutexLock lock(&map_mu_);
      if (!alive_) return;
      controller_ = std::make_shared<Controller>(cluster_, this);
      controller = controller_;
    }
    // Outside map_mu_: Start() elects leaders across every broker. The local
    // shared_ptr keeps the controller alive if Stop() resets the member.
    Status st = controller->Start();
    if (!st.ok()) {
      LIQUID_LOG_ERROR << "controller start failed on broker " << id_ << ": "
                       << st.ToString();
    }
  });
  {
    WriterMutexLock lock(&map_mu_);
    // If Stop() raced in, dropping `election` here resigns immediately.
    if (alive_) election_ = std::move(election);
  }
  return Status::OK();
}

void Broker::Stop() {
  int64_t session;
  {
    WriterMutexLock lock(&map_mu_);
    if (!alive_) return;
    alive_ = false;
    session = session_id_;
    controller_.reset();
    election_.reset();
  }
  // Outside the lock: expiry fires watches (controller failover, election).
  cluster_->coord()->ExpireSession(session);
}

bool Broker::alive() const {
  ReaderMutexLock lock(&map_mu_);
  return alive_;
}

bool Broker::IsController() const {
  ReaderMutexLock lock(&map_mu_);
  return controller_ != nullptr;
}

Result<Broker::Replica*> Broker::FindReplicaShared(const TopicPartition& tp) {
  if (!alive_) return Status::Unavailable("broker down: " + std::to_string(id_));
  auto it = replicas_.find(tp);
  if (it == replicas_.end()) {
    return Status::NotFound("replica not hosted: " + tp.ToString());
  }
  return &it->second;
}

Status Broker::EnsureLogLocked(const TopicPartition& tp, Replica* replica) {
  if (replica->log != nullptr) return Status::OK();
  auto log = storage::Log::Open(disk_, page_cache_.get(), LogPrefix(tp),
                                replica->config.log, clock_);
  if (!log.ok()) return log.status();
  replica->log = std::move(log).value();
  replica->append_records = MetricsRegistry::Default()->GetCounter(
      "liquid.broker." + std::to_string(id_) + ".partition." + tp.ToString() +
      ".append_records");
  LIQUID_RETURN_NOT_OK(LoadHighWatermarkLocked(tp, replica));
  return LoadEpochCacheLocked(replica);
}

Status Broker::LoadHighWatermarkLocked(const TopicPartition& tp,
                                       Replica* replica) {
  const std::string name = HwCheckpointName(tp);
  if (!disk_->Exists(name)) {
    replica->high_watermark = replica->log->start_offset();
    return Status::OK();
  }
  auto file = disk_->OpenOrCreate(name);
  if (!file.ok()) return file.status();
  std::string bytes;
  LIQUID_RETURN_NOT_OK((*file)->ReadAt(0, 8, &bytes));
  if (bytes.size() == 8) {
    replica->high_watermark =
        static_cast<int64_t>(DecodeFixed64(bytes.data()));
    replica->high_watermark =
        std::min(replica->high_watermark, replica->log->end_offset());
  }
  return Status::OK();
}

void Broker::StoreHighWatermarkLocked(const TopicPartition& tp,
                                      Replica* replica) {
  auto write = [&]() -> Status {
    auto file = disk_->OpenOrCreate(HwCheckpointName(tp));
    if (!file.ok()) return file.status();
    std::string bytes;
    PutFixed64(&bytes, static_cast<uint64_t>(replica->high_watermark));
    LIQUID_RETURN_NOT_OK((*file)->Truncate(0));
    return (*file)->Append(bytes);
  };
  // Checkpoint stores are write-behind recovery hints: a failed store never
  // affects in-memory correctness, and every store rewrites the full value,
  // so the next successful one self-heals. Worst case a restart recovers
  // from an older HW and re-fetches. Hence: log, don't fail the caller.
  if (const Status st = write(); !st.ok()) {
    LIQUID_LOG_WARN << "broker " << id_ << ": hw checkpoint store failed for "
                    << tp.ToString() << ": " << st.ToString();
  }
}

Status Broker::LoadEpochCacheLocked(Replica* replica) {
  // Derived from the log, not from a checkpoint file: every frame carries
  // the epoch of the leader that appended it, so after a power loss the
  // cache describes exactly the records that survived, and KIP-101
  // reconciliation still finds a restarted replica's divergent suffix.
  replica->epoch_cache.clear();
  int64_t cursor = replica->log->start_offset();
  const int64_t end = replica->log->end_offset();
  storage::EncodedBatch batch;
  while (cursor < end) {
    LIQUID_RETURN_NOT_OK(replica->log->ReadEncoded(cursor, 1 << 20, &batch));
    if (batch.empty()) break;
    for (const auto& frame : batch.frames()) {
      NoteEpochLocked(replica, frame.leader_epoch, frame.offset);
    }
    cursor = batch.last_offset() + 1;
  }
  return Status::OK();
}

void Broker::NoteEpochLocked(Replica* replica, int epoch,
                             int64_t start_offset) {
  if (epoch < 0) return;
  if (!replica->epoch_cache.empty() &&
      replica->epoch_cache.back().first >= epoch) {
    return;
  }
  // liquid-lint: allow(hot-alloc): grows only on a leader-epoch bump (rare control-plane event), never per record.
  replica->epoch_cache.emplace_back(epoch, start_offset);
}

void Broker::TrimEpochCacheLocked(Replica* replica, int64_t offset) {
  while (!replica->epoch_cache.empty() &&
         replica->epoch_cache.back().second >= offset) {
    replica->epoch_cache.pop_back();
  }
}

int Broker::LastLocalEpochLocked(const Replica& replica) {
  if (replica.epoch_cache.empty()) return -1;
  return replica.epoch_cache.back().first;
}

Result<std::pair<int, int64_t>> Broker::EndOffsetForEpoch(
    const TopicPartition& tp, int epoch) {
  ReaderMutexLock map_lock(&map_mu_);
  LIQUID_ASSIGN_OR_RETURN(Replica * replica, FindReplicaShared(tp));
  MutexLock lock(&replica->mu);
  if (!replica->is_leader) return Status::NotLeader("epoch query on follower");
  const auto& cache = replica->epoch_cache;
  // Largest local epoch <= requested; its end is the next entry's start (or
  // our log end if it is the newest epoch).
  for (size_t i = cache.size(); i > 0; --i) {
    if (cache[i - 1].first <= epoch) {
      const int64_t end = i < cache.size() ? cache[i].second
                                           : replica->log->end_offset();
      return std::make_pair(cache[i - 1].first, end);
    }
  }
  // We have no epoch at or below the requested one: diverged from offset 0
  // (or from our first epoch's start).
  return std::make_pair(-1, cache.empty() ? replica->log->end_offset()
                                          : cache.front().second);
}

Status Broker::RebuildProducerStateLocked(Replica* replica) {
  replica->producer_last_seq.clear();
  replica->ongoing_txns.clear();
  replica->aborted_ranges.clear();
  int64_t cursor = replica->log->start_offset();
  const int64_t end = replica->log->end_offset();
  storage::EncodedBatch batch;
  std::vector<storage::Record> records;
  while (cursor < end) {
    LIQUID_RETURN_NOT_OK(replica->log->ReadEncoded(cursor, 1 << 20, &batch));
    if (batch.empty()) break;
    records.clear();
    LIQUID_RETURN_NOT_OK(batch.DecodeAll(&records));
    for (const storage::Record& record : records) {
      const int64_t pid = record.producer_id;
      if (pid == storage::kNoProducerId) continue;
      if (record.is_control) {
        // A marker resolves its pid's open transaction (markers carry a
        // producer id but no sequence).
        auto open = replica->ongoing_txns.find(pid);
        if (open == replica->ongoing_txns.end()) continue;
        if (record.value == "abort") {
          replica->aborted_ranges.push_back(
              AbortedTxn{pid, open->second, record.offset});
        }
        replica->ongoing_txns.erase(open);
        continue;
      }
      if (record.transactional) {
        replica->ongoing_txns.emplace(pid, record.offset);
      }
      if (record.sequence < 0) continue;
      auto [it, inserted] =
          replica->producer_last_seq.try_emplace(pid, record.sequence);
      if (!inserted) it->second = std::max(it->second, record.sequence);
    }
    cursor = batch.last_offset() + 1;
  }
  return Status::OK();
}

Status Broker::BecomeLeader(const TopicPartition& tp, const PartitionState& state,
                            const TopicConfig& config) {
  WriterMutexLock map_lock(&map_mu_);
  if (!alive_) return Status::Unavailable("broker down");
  Replica& replica = replicas_[tp];
  MutexLock lock(&replica.mu);
  replica.config = config;
  LIQUID_RETURN_NOT_OK(EnsureLogLocked(tp, &replica));
  if (state.leader_epoch < replica.leader_epoch) {
    return Status::FailedPrecondition("stale leader epoch");
  }
  const bool incumbent = replica.is_leader;
  replica.is_leader = true;
  replica.leader = id_;
  replica.leader_epoch = state.leader_epoch;
  replica.reconciling = false;  // A leader takes no leader bytes.
  replica.isr = state.isr;
  replica.follower_leo.clear();
  // Idempotence and isolation across failover: the dedup map and the
  // transaction ranges are leader memory, but the sequences, transactional
  // records and markers themselves are in the log (stamped before encoding,
  // so followers replicate them too). A new leader — a restarted broker
  // recovering from disk, or a follower just promoted, whose memory may be
  // stale from an earlier term — must rebuild them, or every mid-stream
  // idempotent producer is fenced with "out-of-order producer sequence" and
  // read_committed consumers see aborted data. An incumbent leader keeps
  // its in-memory state, which already matches its log.
  if (!incumbent) {
    LIQUID_RETURN_NOT_OK(RebuildProducerStateLocked(&replica));
  }
  NoteEpochLocked(&replica, state.leader_epoch, replica.log->end_offset());
  // If the ISR collapsed to this broker alone, everything local is committed
  // (it was in the ISR for every acknowledged write).
  AdvanceHighWatermarkLocked(tp, &replica);
  LIQUID_LOG_DEBUG << "broker " << id_ << " leads " << tp.ToString()
                   << " epoch " << state.leader_epoch;
  return Status::OK();
}

Status Broker::BecomeFollower(const TopicPartition& tp,
                              const PartitionState& state,
                              const TopicConfig& config) {
  {
    WriterMutexLock map_lock(&map_mu_);
    if (!alive_) return Status::Unavailable("broker down");
    Replica& replica = replicas_[tp];
    MutexLock lock(&replica.mu);
    replica.config = config;
    LIQUID_RETURN_NOT_OK(EnsureLogLocked(tp, &replica));
    if (state.leader_epoch < replica.leader_epoch) {
      return Status::FailedPrecondition("stale leader epoch");
    }
    const bool epoch_changed = state.leader_epoch != replica.leader_epoch;
    replica.is_leader = false;
    replica.leader = state.leader;
    replica.leader_epoch = state.leader_epoch;
    replica.isr = state.isr;
    replica.follower_leo.clear();
    if (!epoch_changed) return Status::OK();
    replica.reconciling = true;
  }
  const Status reconciled = ReconcileWithLeader(tp, state);
  // Every path out of the reconciliation ends it, unless a newer leadership
  // command has taken the replica over (BecomeLeader clears the flag, and a
  // newer BecomeFollower owns it).
  ReaderMutexLock map_lock(&map_mu_);
  auto found = FindReplicaShared(tp);
  if (found.ok()) {
    Replica* replica = *found;
    MutexLock lock(&replica->mu);
    if (!replica->is_leader && replica->leader_epoch == state.leader_epoch) {
      replica->reconciling = false;
    }
  }
  return reconciled;
}

Status Broker::ReconcileWithLeader(const TopicPartition& tp,
                                   const PartitionState& state) {
  // KIP-101 reconciliation: walk our epoch cache against the new leader's
  // until we find the divergence point, truncating as we go. A plain
  // min(our LEO, leader LEO) cannot see a divergent suffix that lies BELOW
  // the leader's log end (e.g. an uncommitted record we appended while we
  // briefly led an older epoch).
  //
  // Leader queries happen with no lock held: the leader may concurrently push
  // to this broker (or lead one partition while following another), so broker
  // locks must never nest across broker-to-broker calls. Each locked scope
  // below re-validates that this leadership command is still current and
  // bails out quietly when superseded.
  Broker* leader = state.leader >= 0 && state.leader != id_
                       ? cluster_->broker(state.leader)
                       : nullptr;
  constexpr int64_t kTruncateToHw = -1;
  auto truncate_to = [&](int64_t offset) -> Status {
    ReaderMutexLock map_lock(&map_mu_);
    auto found = FindReplicaShared(tp);
    if (!found.ok()) return Status::OK();  // Replica dropped meanwhile.
    Replica* replica = *found;
    MutexLock lock(&replica->mu);
    if (replica->is_leader || replica->leader_epoch != state.leader_epoch) {
      return Status::OK();  // Superseded by a newer leadership command.
    }
    if (offset == kTruncateToHw) offset = replica->high_watermark;
    offset = std::min(offset, replica->log->end_offset());
    if (replica->log->end_offset() > offset) {
      LIQUID_RETURN_NOT_OK(replica->log->Truncate(offset));
      TrimEpochCacheLocked(replica, offset);
      if (replica->high_watermark > offset) {
        replica->high_watermark = offset;
        StoreHighWatermarkLocked(tp, replica);
      }
    }
    return Status::OK();
  };
  auto local_epoch = [&]() -> int {
    ReaderMutexLock map_lock(&map_mu_);
    auto found = FindReplicaShared(tp);
    if (!found.ok()) return -1;
    Replica* replica = *found;
    MutexLock lock(&replica->mu);
    if (replica->is_leader || replica->leader_epoch != state.leader_epoch) {
      return -1;
    }
    return LastLocalEpochLocked(*replica);
  };

  if (leader == nullptr || !leader->alive()) {
    // Leader unreachable: conservative fallback — everything at/above our own
    // HW may be divergent; it will be re-fetched once a leader is reachable.
    return truncate_to(kTruncateToHw);
  }
  // Chaos surface: a follower that is slow to reconcile while the new
  // leader already pushes to it.
  LIQUID_FAULT_POINT("broker.become_follower.before_epoch_query");
  for (int round = 0; round < 64; ++round) {
    const int my_epoch = local_epoch();
    if (my_epoch < 0) break;  // Empty log (or pre-epoch data): nothing to do.
    auto answer = leader->EndOffsetForEpoch(tp, my_epoch);
    if (!answer.ok()) {
      return truncate_to(kTruncateToHw);  // Fallback as above.
    }
    const auto [leader_epoch_found, end_offset] = *answer;
    LIQUID_RETURN_NOT_OK(truncate_to(end_offset));
    if (leader_epoch_found == my_epoch) break;  // Aligned.
    if (local_epoch() == my_epoch) {
      // No progress (our whole last epoch lies below the boundary): the
      // remaining prefix is consistent with the leader's history.
      break;
    }
  }
  return Status::OK();
}

Status Broker::StopReplica(const TopicPartition& tp, bool delete_data) {
  {
    // Exclusive membership lock: once acquired, no request holds the replica
    // (request paths pin it with a shared hold for their whole operation),
    // so erasing — and destroying its Mutex — is safe.
    WriterMutexLock map_lock(&map_mu_);
    auto it = replicas_.find(tp);
    if (it == replicas_.end()) {
      return Status::NotFound("replica not hosted: " + tp.ToString());
    }
    replicas_.erase(it);
  }
  if (!delete_data) return Status::OK();
  // Disk cleanup needs no broker state — run it after unlocking so slow I/O
  // never stalls the whole broker.
  // Propagate the first cleanup failure so callers know on-disk data may
  // be orphaned; the replica itself is already dropped either way.
  Status cleanup = Status::OK();
  auto names = disk_->List(LogPrefix(tp));
  if (names.ok()) {
    for (const auto& name : *names) {
      if (Status st = disk_->Remove(name); !st.ok() && cleanup.ok()) {
        cleanup = std::move(st);
      }
    }
  }
  if (disk_->Exists(HwCheckpointName(tp))) {
    if (Status st = disk_->Remove(HwCheckpointName(tp));
        !st.ok() && cleanup.ok()) {
      cleanup = std::move(st);
    }
  }
  return cleanup;
}

void Broker::AdvanceHighWatermarkLocked(const TopicPartition& tp,
                                        Replica* replica) {
  if (!replica->is_leader) return;
  int64_t min_leo = replica->log->end_offset();
  for (int member : replica->isr) {
    if (member == id_) continue;
    auto it = replica->follower_leo.find(member);
    // Unknown follower progress cannot advance the HW.
    const int64_t leo =
        it == replica->follower_leo.end() ? replica->high_watermark : it->second;
    min_leo = std::min(min_leo, leo);
  }
  if (min_leo > replica->high_watermark) {
    replica->high_watermark = min_leo;
    StoreHighWatermarkLocked(tp, replica);
  }
}

void Broker::PublishIsr(const TopicPartition& tp, const std::vector<int>& isr) {
  auto state_result = cluster_->coord()->Get(paths::PartitionStatePath(tp));
  if (!state_result.ok()) return;
  auto state = PartitionState::Parse(*state_result);
  if (!state.ok()) return;
  state->isr = isr;
  // The ISR in the coordination service is advisory (re-published on every
  // change and re-derived by the controller on election); log and move on.
  if (Status st =
          cluster_->coord()->Set(paths::PartitionStatePath(tp), state->Serialize());
      !st.ok()) {
    LIQUID_LOG_WARN << "broker " << id_ << ": ISR publish failed for "
                    << tp.ToString() << ": " << st.ToString();
  }
}

bool Broker::ShrinkIsrLocked(const TopicPartition& tp, Replica* replica,
                             int follower) {
  auto it = std::find(replica->isr.begin(), replica->isr.end(), follower);
  if (it == replica->isr.end()) return false;
  replica->isr.erase(it);
  isr_shrinks_->Increment();
  LIQUID_LOG_DEBUG << "broker " << id_ << " shrinks ISR of " << tp.ToString()
                   << " removing " << follower;
  AdvanceHighWatermarkLocked(tp, replica);
  return true;
}

bool Broker::MaybeExpandIsrLocked(const TopicPartition& tp, Replica* replica,
                                  int follower) {
  if (Contains(replica->isr, follower)) return false;
  auto it = replica->follower_leo.find(follower);
  if (it == replica->follower_leo.end()) return false;
  if (it->second < replica->log->end_offset()) return false;
  replica->isr.push_back(follower);
  std::sort(replica->isr.begin(), replica->isr.end());
  isr_expands_->Increment();
  LIQUID_LOG_DEBUG << "broker " << id_ << " expands ISR of " << tp.ToString()
                   << " adding " << follower;
  return true;
}

Result<ProduceResponse> Broker::Produce(const TopicPartition& tp,
                                        std::vector<storage::Record> records,
                                        AckMode acks, int64_t producer_id,
                                        int32_t first_sequence,
                                        const std::string& client_id) {
  if (records.empty()) return Status::InvalidArgument("empty produce");
  const int64_t t0 = clock_->NowUs();
  // Shared success-path bookkeeping: broker-level counters/latency plus one
  // "append" span per traced record (leader log append hop). Runs before the
  // response is returned on both the acks!=all and acks=all paths.
  auto observe_append = [&](const std::vector<storage::Record>& appended) {
    int64_t bytes = 0;
    for (const auto& record : appended) {
      bytes += static_cast<int64_t>(record.EncodedSize());
    }
    produce_records_->Increment(static_cast<int64_t>(appended.size()));
    produce_bytes_->Increment(bytes);
    const int64_t now_us = clock_->NowUs();
    produce_us_->Record(now_us - t0);
    TraceCollector* tracer = TraceCollector::Default();
    if (!tracer->enabled()) return;
    for (const auto& record : appended) {
      if (!record.traced()) continue;
      tracer->Record(Span{record.trace_id, tracer->NewSpanId(), record.span_id,
                          t0, now_us, "append", tp.ToString()});
    }
  };
  LIQUID_RETURN_NOT_OK(
      cluster_->acls()->Check(client_id, tp.topic, AclOperation::kWrite));
  // Chaos surface (DESIGN.md §7): reject/delay the produce before any
  // partition state is touched — models a request lost or stuck on arrival.
  LIQUID_FAULT_POINT("broker.produce.before_append");
  int64_t throttle_ms = 0;
  if (!client_id.empty()) {
    int64_t payload = 0;
    for (const auto& record : records) {
      payload += static_cast<int64_t>(record.EncodedSize());
    }
    throttle_ms = quotas_.Charge(client_id, payload);
    if (throttle_ms > 0) {
      // Kafka-style client throttling: the verdict rides back in the
      // response and the PRODUCER backs off (see Producer::SendBatch). The
      // broker thread stays available instead of sleeping on behalf of one
      // tenant — essential now that partitions are served concurrently.
      quota_produce_throttles_->Increment();
    }
  }
  std::vector<int> push_targets;
  int epoch = 0;
  int64_t base = -1;
  int64_t leo = 0;
  int64_t leader_hw = 0;
  bool duplicate = false;
  storage::EncodedBatch batch;
  {
    ReaderMutexLock map_lock(&map_mu_);
    LIQUID_ASSIGN_OR_RETURN(Replica * replica, FindReplicaShared(tp));
    const int64_t lock_t0 = clock_->NowUs();
    MutexLock lock(&replica->mu);
    produce_lock_wait_us_->Record(clock_->NowUs() - lock_t0);
    if (!replica->is_leader) {
      return Status::NotLeader("broker " + std::to_string(id_) +
                               " is not leader of " + tp.ToString());
    }
    if (acks == AckMode::kAll &&
        static_cast<int>(replica->isr.size()) <
            replica->config.min_insync_replicas) {
      return Status::Unavailable("ISR below min.insync.replicas for " +
                                 tp.ToString());
    }
    bool advanced_seq = false;
    int32_t prev_seq = -1;
    if (producer_id != storage::kNoProducerId && first_sequence >= 0) {
      auto it = replica->producer_last_seq.find(producer_id);
      const int32_t last = it == replica->producer_last_seq.end() ? -1 : it->second;
      if (first_sequence <= last) {
        // Duplicate batch (retry after a lost or failed ack): deduplicate.
        produce_duplicates_dropped_->Increment();
        duplicate = true;
      } else if (first_sequence != last + 1) {
        return Status::InvalidArgument("out-of-order producer sequence");
      } else {
        replica->producer_last_seq[producer_id] =
            first_sequence + static_cast<int32_t>(records.size()) - 1;
        advanced_seq = true;
        prev_seq = last;
        // Stamped so a future leader can rebuild this partition's
        // transaction ranges from the log (RebuildProducerStateLocked).
        const bool transactional = replica->ongoing_txns.count(producer_id) > 0;
        int32_t seq = first_sequence;
        for (auto& record : records) {
          record.producer_id = producer_id;
          record.sequence = seq++;
          record.transactional = transactional;
        }
      }
    }
    if (duplicate) {
      // The original may be in the log but not yet durable (its sync failed,
      // so it was never acked): an acks=all duplicate waits, below, for
      // everything up to the current log end.
      leo = replica->log->end_offset();
    } else {
      for (auto& record : records) record.leader_epoch = replica->leader_epoch;
      // Encode-once: the batch buffer produced here is the exact bytes on
      // our disk, and the same buffer is forwarded to followers below.
      auto batch_result = replica->log->AppendBatch(&records);
      if (!batch_result.ok()) {
        // AppendBatch fails only before the batch lands, so roll the dedup
        // window back: the producer retries with the same sequence, which
        // must not be dropped as a duplicate.
        if (advanced_seq) {
          if (prev_seq < 0) {
            replica->producer_last_seq.erase(producer_id);
          } else {
            replica->producer_last_seq[producer_id] = prev_seq;
          }
        }
        return batch_result.status();
      }
      batch = std::move(batch_result).value();
      base = batch.base_offset();
      leo = batch.last_offset() + 1;
      broker_produce_records_->Increment(static_cast<int64_t>(records.size()));
      replica->append_records->Increment(static_cast<int64_t>(records.size()));
    }
    if (acks != AckMode::kAll) {
      ProduceResponse resp;
      resp.base_offset = base;
      resp.log_end_offset = leo;
      resp.throttle_ms = throttle_ms;
      if (duplicate) return resp;
      AdvanceHighWatermarkLocked(tp, replica);
      // Chaos surface: the batch is appended but the acknowledgment is lost
      // or delayed — the retry/idempotence path must absorb the resend.
      LIQUID_FAULT_POINT("broker.produce.before_ack");
      observe_append(records);
      return resp;
    }
    epoch = replica->leader_epoch;
    leader_hw = replica->high_watermark;
    push_targets.reserve(replica->isr.size());
    for (int member : replica->isr) {
      if (member != id_) push_targets.push_back(member);
    }
  }

  // acks=all: synchronously replicate to ISR followers (their pull loop,
  // executed inline) without holding any lock (avoids lock cycles). The
  // follower receives the leader's encoded bytes, not re-encoded Records.
  // A duplicate has nothing new to push.
  std::vector<int> failed;
  if (!duplicate) {
    failed = PushToFollowers(tp, batch, epoch, leader_hw, push_targets);
  }
  LIQUID_RETURN_NOT_OK(AwaitIsrDurable(tp, epoch, leo, /*pushed=*/!duplicate,
                                       push_targets, std::move(failed)));
  ProduceResponse resp;
  resp.base_offset = base;
  resp.log_end_offset = leo;
  resp.throttle_ms = throttle_ms;
  if (duplicate) return resp;
  // Chaos surface: appended AND replicated, but the acknowledgment is lost —
  // the strongest duplicate-generation point for idempotence tests.
  LIQUID_FAULT_POINT("broker.produce.before_ack");
  observe_append(records);
  return resp;
}

std::vector<int> Broker::PushToFollowers(const TopicPartition& tp,
                                         const storage::EncodedBatch& batch,
                                         int epoch, int64_t leader_hw,
                                         const std::vector<int>& targets) {
  std::vector<int> failed;
  failed.reserve(targets.size());
  for (int member : targets) {
    Broker* follower = cluster_->broker(member);
    const Status st = follower == nullptr
                          ? Status::Unavailable("no such broker")
                          : follower->AppendEncodedAsFollower(tp, batch, epoch,
                                                              leader_hw);
    if (!st.ok()) failed.push_back(member);
  }
  return failed;
}

Status Broker::AwaitReplicaDurable(const TopicPartition& tp,
                                   int64_t end_offset) {
  // The shared membership hold keeps the Replica (and its log) alive across
  // the wait, since erasing one needs map_mu_ exclusive; the replica lock is
  // NOT held, so producers to this partition keep filling the sync window
  // being waited on (DESIGN.md §6c contract 3).
  ReaderMutexLock map_lock(&map_mu_);
  LIQUID_ASSIGN_OR_RETURN(Replica * replica, FindReplicaShared(tp));
  storage::Log* log = nullptr;
  {
    MutexLock lock(&replica->mu);
    log = replica->log.get();
  }
  if (log->config().sync_mode != storage::SyncMode::kGroup) {
    return Status::OK();  // kNone: acks promise replication, not disk.
  }
  return log->AwaitDurable(end_offset);
}

Status Broker::AwaitIsrDurable(const TopicPartition& tp, int epoch,
                               int64_t end_offset, bool pushed,
                               const std::vector<int>& followers,
                               std::vector<int> failed) {
  // No broker lock is held across these waits or the follower calls.
  LIQUID_RETURN_NOT_OK(AwaitReplicaDurable(tp, end_offset));
  if (pushed) {
    // The high watermark tracks replication, as on the pull path (Fetch):
    // with the leader's copy durable, the followers the push reached make
    // the batch visible now. Only the acknowledgment waits for their fsyncs.
    LIQUID_RETURN_NOT_OK(SettleIsr(tp, epoch, end_offset, followers, failed));
  }
  // Every follower's committer is already syncing (the push woke it), so
  // waiting on them in turn costs about the slowest window, not their sum.
  const size_t pushes_failed = failed.size();
  failed.reserve(followers.size());
  for (int member : followers) {
    if (Contains(failed, member)) continue;
    Broker* follower = cluster_->broker(member);
    if (follower == nullptr ||
        !follower->AwaitReplicaDurable(tp, end_offset).ok()) {
      failed.push_back(member);
    }
  }
  if (failed.size() == pushes_failed) return Status::OK();
  return SettleIsr(tp, epoch, end_offset, followers, failed);
}

Status Broker::SettleIsr(const TopicPartition& tp, int epoch,
                         int64_t end_offset, const std::vector<int>& followers,
                         const std::vector<int>& failed) {
  std::optional<std::vector<int>> publish_isr;
  const Status result = [&]() -> Status {
    ReaderMutexLock map_lock(&map_mu_);
    LIQUID_ASSIGN_OR_RETURN(Replica * replica, FindReplicaShared(tp));
    MutexLock lock(&replica->mu);
    if (!replica->is_leader || replica->leader_epoch != epoch) {
      return Status::NotLeader("leadership lost during replication");
    }
    for (int member : followers) {
      if (Contains(failed, member)) continue;
      int64_t& known = replica->follower_leo[member];
      known = std::max(known, end_offset);
    }
    bool shrank = false;
    for (int member : failed) {
      shrank = ShrinkIsrLocked(tp, replica, member) || shrank;
    }
    if (shrank) publish_isr = replica->isr;
    if (static_cast<int>(replica->isr.size()) <
        replica->config.min_insync_replicas) {
      return Status::Unavailable("ISR shrank below min.insync.replicas");
    }
    AdvanceHighWatermarkLocked(tp, replica);
    return Status::OK();
  }();
  // ISR changes reach the coordination service only after every broker lock
  // is released: the coord write fires watches that re-enter brokers on this
  // same thread.
  if (publish_isr.has_value()) PublishIsr(tp, *publish_isr);
  return result;
}

Status Broker::AppendEncodedAsFollower(const TopicPartition& tp,
                                       const storage::EncodedBatch& batch,
                                       int leader_epoch, int64_t leader_hw) {
  // Chaos surface: a follower that drops/delays leader pushes — the leader
  // reacts by shrinking the ISR, which is exactly what the soak verifies.
  LIQUID_FAULT_POINT("broker.replicate.before_append");
  const auto land = [&]() -> Status {
    ReaderMutexLock map_lock(&map_mu_);
    LIQUID_ASSIGN_OR_RETURN(Replica * replica, FindReplicaShared(tp));
    MutexLock lock(&replica->mu);
    return AppendFromLeaderLocked(tp, replica, leader_epoch,
                                  batch.base_offset(), {&batch, 1}, leader_hw);
  };
  Status landed = land();
  if (!landed.IsOutOfRange()) return landed;
  // An earlier batch has not landed yet: its push is still in flight, or
  // this follower missed it. The leader, which holds the batch, fills the
  // gap; the locks are released first (no broker lock is held across a
  // broker-to-broker call).
  replicate_gap_fills_->Increment();
  while (true) {
    LIQUID_ASSIGN_OR_RETURN(const int64_t moved, PullFromLeader(tp));
    // A concurrent landing may have closed the gap before the pull took its
    // snapshot, so the push is retried after every pull, even one that
    // moved nothing; only then does a pull without progress end the fill.
    landed = land();
    if (!landed.IsOutOfRange() || moved <= 0) return landed;
  }
}

Status Broker::AppendFromLeaderLocked(
    const TopicPartition& tp, Replica* replica, int leader_epoch, int64_t from,
    std::span<const storage::EncodedBatch> batches, int64_t leader_hw) {
  if (leader_epoch != replica->leader_epoch) {
    return Status::FailedPrecondition("leader bytes from another epoch");
  }
  if (replica->reconciling) {
    return Status::Unavailable("follower reconciling with the new leader");
  }
  for (const storage::EncodedBatch& batch : batches) {
    const int64_t local_end = replica->log->end_offset();
    // Drop frames we already store (a push raced a pull, or a resend) — a
    // frame-metadata slice of the shared buffer, not a copy.
    storage::EncodedBatch fresh = batch;
    fresh.SliceFrom(local_end);
    if (fresh.empty()) continue;
    if (from > local_end) {
      // We lack leader records below `from`: a push overtook an earlier one,
      // or we were out of the ISR. A push fills the gap by pulling.
      return Status::OutOfRange("follower behind leader bytes");
    }
    const int64_t t0 = clock_->NowUs();
    LIQUID_RETURN_NOT_OK(replica->log->AppendEncoded(fresh));
    for (const auto& frame : fresh.frames()) {
      NoteEpochLocked(replica, frame.leader_epoch, frame.offset);
    }
    replicated_records_->Increment(static_cast<int64_t>(fresh.record_count()));
    replica->append_records->Increment(
        static_cast<int64_t>(fresh.record_count()));
    TraceCollector* tracer = TraceCollector::Default();
    if (!tracer->enabled()) continue;
    // Only traced frames are decoded (to read their trace context); the
    // untraced common case touches no payload bytes at all.
    const int64_t now_us = clock_->NowUs();
    for (size_t i = 0; i < fresh.frames().size(); ++i) {
      if (!fresh.frames()[i].traced) continue;
      auto record = fresh.DecodeFrame(i);
      if (!record.ok()) continue;
      // liquid-lint: allow(hot-alloc): span annotation built only for sampled traced frames with tracing enabled; the untraced common case skips this block.
      tracer->Record(Span{record->trace_id, tracer->NewSpanId(),
                          record->span_id, t0, now_us, "replicate",
                          tp.ToString() + " follower=" + std::to_string(id_)});
    }
  }
  const int64_t new_hw =
      std::min<int64_t>(leader_hw, replica->log->end_offset());
  if (new_hw > replica->high_watermark) {
    replica->high_watermark = new_hw;
    StoreHighWatermarkLocked(tp, replica);
  }
  return Status::OK();
}

int64_t Broker::LastStableOffsetLocked(const Replica& replica) {
  int64_t lso = replica.high_watermark;
  for (const auto& [pid, first] : replica.ongoing_txns) {
    lso = std::min(lso, first);
  }
  return lso;
}

Status Broker::BeginPartitionTxn(const TopicPartition& tp, int64_t pid) {
  ReaderMutexLock map_lock(&map_mu_);
  LIQUID_ASSIGN_OR_RETURN(Replica * replica, FindReplicaShared(tp));
  MutexLock lock(&replica->mu);
  if (!replica->is_leader) return Status::NotLeader("txn begin on follower");
  replica->ongoing_txns.emplace(pid, replica->log->end_offset());
  return Status::OK();
}

Status Broker::WriteTxnMarker(const TopicPartition& tp, int64_t pid,
                              bool committed) {
  storage::EncodedBatch marker;
  std::vector<int> targets;
  int epoch = 0;
  int64_t leo = 0;
  int64_t hw = 0;
  {
    ReaderMutexLock map_lock(&map_mu_);
    LIQUID_ASSIGN_OR_RETURN(Replica * replica, FindReplicaShared(tp));
    MutexLock lock(&replica->mu);
    if (!replica->is_leader) return Status::NotLeader("txn marker on follower");
    auto it = replica->ongoing_txns.find(pid);
    if (it == replica->ongoing_txns.end()) {
      return Status::NotFound("no ongoing txn for pid " + std::to_string(pid));
    }
    std::vector<storage::Record> records{
        storage::Record::ControlMarker(pid, committed)};
    records[0].leader_epoch = replica->leader_epoch;
    // Encode-once, as on the produce path: followers land these exact bytes.
    LIQUID_ASSIGN_OR_RETURN(marker, replica->log->AppendBatch(&records));
    if (!committed) {
      replica->aborted_ranges.push_back(
          AbortedTxn{pid, it->second, marker.base_offset()});
    }
    replica->ongoing_txns.erase(it);
    leo = marker.last_offset() + 1;
    for (int member : replica->isr) {
      if (member != id_) targets.push_back(member);
    }
    epoch = replica->leader_epoch;
    hw = replica->high_watermark;
  }
  // Synchronously replicate the marker to the ISR and await its durability,
  // like any acks=all write — without holding any lock: a follower of this
  // partition may simultaneously lead another partition and push to us, and
  // broker locks must never be held across broker-to-broker calls.
  std::vector<int> failed = PushToFollowers(tp, marker, epoch, hw, targets);
  return AwaitIsrDurable(tp, epoch, leo, /*pushed=*/true, targets,
                         std::move(failed));
}

Result<int64_t> Broker::LastStableOffset(const TopicPartition& tp) {
  ReaderMutexLock map_lock(&map_mu_);
  LIQUID_ASSIGN_OR_RETURN(Replica * replica, FindReplicaShared(tp));
  MutexLock lock(&replica->mu);
  return LastStableOffsetLocked(*replica);
}

Result<FetchResponse> Broker::Fetch(const TopicPartition& tp, int64_t offset,
                                    size_t max_bytes, int replica_id,
                                    const std::string& client_id,
                                    bool read_committed) {
  const int64_t t0 = clock_->NowUs();
  LIQUID_RETURN_NOT_OK(
      cluster_->acls()->Check(client_id, tp.topic, AclOperation::kRead));
  // Chaos surface: fail/delay the fetch before any partition state is read.
  LIQUID_FAULT_POINT("broker.fetch.before_read");
  int64_t throttle_ms = 0;
  if (!client_id.empty()) {
    throttle_ms = quotas_.Charge(client_id, static_cast<int64_t>(max_bytes));
    if (throttle_ms > 0) {
      // Client-side throttle contract (see Produce): verdict in the
      // response, enforcement in the consumer.
      quota_fetch_throttles_->Increment();
    }
  }
  std::optional<std::vector<int>> publish_isr;
  auto result = [&]() -> Result<FetchResponse> {
    // The shared membership hold keeps the Replica and its log alive for the
    // whole fetch (erasing one needs map_mu_ exclusive), as in
    // AwaitReplicaDurable.
    ReaderMutexLock map_lock(&map_mu_);
    LIQUID_ASSIGN_OR_RETURN(Replica * replica, FindReplicaShared(tp));
    FetchResponse resp;
    resp.throttle_ms = throttle_ms;
    const storage::Log* log = nullptr;
    int64_t bound = 0;
    {
      // Under the replica lock: bookkeeping and a snapshot of the bounds,
      // never a log read (DESIGN.md §5a).
      MutexLock lock(&replica->mu);
      if (!replica->is_leader) {
        return Status::NotLeader("broker " + std::to_string(id_) +
                                 " is not leader of " + tp.ToString());
      }
      if (replica_id >= 0) {
        // A replica fetch at `offset` proves the follower has [.., offset).
        replica->follower_leo[replica_id] = offset;
        AdvanceHighWatermarkLocked(tp, replica);
        if (offset >= replica->log->end_offset() &&
            MaybeExpandIsrLocked(tp, replica, replica_id)) {
          publish_isr = replica->isr;
        }
      }
      log = replica->log.get();
      resp.high_watermark = replica->high_watermark;
      resp.log_start_offset = log->start_offset();
      resp.log_end_offset = log->end_offset();
      // Replicas see the whole log. Consumers see committed data only, and
      // read_committed ones stop at the LSO and get the aborted ranges they
      // must drop — copied only when some overlap [offset, bound).
      if (replica_id >= 0) {
        bound = resp.log_end_offset;
      } else if (!read_committed) {
        bound = resp.high_watermark;
      } else {
        bound = LastStableOffsetLocked(*replica);
        const auto overlaps = [offset, bound](const AbortedTxn& txn) {
          return txn.last_offset > offset && txn.first_offset < bound;
        };
        const size_t overlapping = static_cast<size_t>(
            std::count_if(replica->aborted_ranges.begin(),
                          replica->aborted_ranges.end(), overlaps));
        if (overlapping > 0) {
          resp.aborted.reserve(overlapping);
          for (const AbortedTxn& txn : replica->aborted_ranges) {
            if (overlaps(txn)) resp.aborted.push_back(txn);
          }
        }
      }
    }
    // Off the replica lock: each ReadEncoded step of the gather holds only
    // the log's own shared lock, so a cold read never stalls this
    // partition's producers. Truncation, retention and compaction may run
    // between steps; each step sees a consistent log, and nothing at or past
    // `bound` is returned.
    LIQUID_ASSIGN_OR_RETURN(
        resp.next_fetch_offset,
        log->ReadEncodedRange(std::max(offset, resp.log_start_offset), bound,
                              max_bytes, &resp.batches));
    if (replica_id >= 0) return resp;

    // Count, and give one "fetch" span to, each record the consumer will
    // see; the consumer (or job) parents its own span on the record's
    // span_id afterwards, so the span_id field stays the record's last
    // producer-side hop. Only traced frames are decoded.
    const int64_t now_us = clock_->NowUs();
    TraceCollector* tracer = TraceCollector::Default();
    const bool tracing = tracer->enabled();
    int64_t visible = 0;
    for (const storage::EncodedBatch& batch : resp.batches) {
      for (size_t i = 0; i < batch.frames().size(); ++i) {
        const storage::BatchFrame& frame = batch.frames()[i];
        if (!resp.Visible(frame)) continue;
        ++visible;
        if (!tracing || !frame.traced) continue;
        auto record = batch.DecodeFrame(i);
        if (!record.ok()) continue;
        tracer->Record(Span{record->trace_id, tracer->NewSpanId(),
                            record->span_id, t0, now_us, "fetch",
                            tp.ToString()});
      }
    }
    broker_fetch_records_->Increment(visible);
    fetch_records_->Increment(visible);
    fetch_us_->Record(now_us - t0);
    return resp;
  }();
  // Publish after every broker lock is released (coord watches re-enter).
  if (publish_isr.has_value()) PublishIsr(tp, *publish_isr);
  return result;
}

Result<int64_t> Broker::OffsetForTimestamp(const TopicPartition& tp,
                                           int64_t ts_ms) {
  ReaderMutexLock map_lock(&map_mu_);
  LIQUID_ASSIGN_OR_RETURN(Replica * replica, FindReplicaShared(tp));
  const storage::Log* log = nullptr;
  {
    MutexLock lock(&replica->mu);
    log = replica->log.get();
  }
  // The segment walk runs off the replica lock, as fetches do (DESIGN.md
  // §5a); map_mu_ shared keeps the log alive.
  return log->OffsetForTimestamp(ts_ms);
}

Result<std::pair<int64_t, int64_t>> Broker::OffsetBounds(
    const TopicPartition& tp) {
  ReaderMutexLock map_lock(&map_mu_);
  LIQUID_ASSIGN_OR_RETURN(Replica * replica, FindReplicaShared(tp));
  MutexLock lock(&replica->mu);
  return std::make_pair(replica->log->start_offset(), replica->high_watermark);
}

Result<int64_t> Broker::PullFromLeader(const TopicPartition& tp) {
  int64_t from = 0;
  int leader_id = -1;
  int leader_epoch = -1;
  {
    ReaderMutexLock map_lock(&map_mu_);
    auto found = FindReplicaShared(tp);
    if (!found.ok()) return 0;  // Stopped meanwhile: nothing to pull.
    Replica* replica = *found;
    MutexLock lock(&replica->mu);
    if (replica->is_leader || replica->leader < 0) return 0;
    from = replica->log->end_offset();
    leader_id = replica->leader;
    leader_epoch = replica->leader_epoch;
  }
  Broker* leader = cluster_->broker(leader_id);
  if (leader == nullptr) return 0;
  LIQUID_ASSIGN_OR_RETURN(
      FetchResponse resp,
      leader->Fetch(tp, from, config_.fetch_max_bytes, id_));
  ReaderMutexLock map_lock(&map_mu_);
  auto found = FindReplicaShared(tp);
  if (!found.ok()) return 0;
  Replica* replica = *found;
  MutexLock lock(&replica->mu);
  // A refused landing (the leader was deposed meanwhile, or the local log
  // moved) or a failed append moves nothing; the next pull retries it.
  LIQUID_IGNORE_ERROR(AppendFromLeaderLocked(tp, replica, leader_epoch, from,
                                             resp.batches,
                                             resp.high_watermark));
  return replica->log->end_offset() - from;
}

Status Broker::ReplicateFromLeaders() {
  std::vector<TopicPartition> followed;
  {
    ReaderMutexLock map_lock(&map_mu_);
    if (!alive_) return Status::Unavailable("broker down");
    for (auto& [tp, replica] : replicas_) {
      MutexLock lock(&replica.mu);
      if (!replica.is_leader && replica.leader >= 0) followed.push_back(tp);
    }
  }
  for (const TopicPartition& tp : followed) {
    auto pulled = PullFromLeader(tp);
    if (pulled.ok() || !(pulled.status().IsNotLeader() ||
                         pulled.status().IsUnavailable())) {
      continue;
    }
    // Stale view; refresh from the coordination service.
    auto data = cluster_->coord()->Get(paths::PartitionStatePath(tp));
    if (!data.ok()) continue;
    auto state = PartitionState::Parse(*data);
    if (!state.ok() || state->leader < 0 || state->leader == id_) continue;
    auto config = cluster_->GetTopicConfig(tp.topic);
    if (!config.ok()) continue;
    if (Status st = BecomeFollower(tp, *state, *config); !st.ok()) {
      // Retried on the next replication tick with a fresh metadata read.
      LIQUID_LOG_WARN << "broker " << id_ << ": become-follower failed for "
                      << tp.ToString() << ": " << st.ToString();
    }
  }
  return Status::OK();
}

Status Broker::RunLogMaintenance() {
  std::vector<TopicPartition> hosted = HostedPartitions();
  for (const auto& tp : hosted) {
    ReaderMutexLock map_lock(&map_mu_);
    auto replica_result = FindReplicaShared(tp);
    if (!replica_result.ok()) continue;
    Replica* replica = *replica_result;
    MutexLock lock(&replica->mu);
    auto deleted = replica->log->ApplyRetention();
    if (!deleted.ok()) return deleted.status();
    // Aborted ranges whose marker retention deleted hide nothing any more.
    const int64_t start = replica->log->start_offset();
    std::erase_if(replica->aborted_ranges, [start](const AbortedTxn& txn) {
      return txn.last_offset <= start;
    });
    if (replica->config.log.compaction_enabled) {
      auto stats = replica->log->Compact();
      if (!stats.ok()) return stats.status();
    }
  }
  return Status::OK();
}

Result<storage::CompactionStats> Broker::CompactPartition(
    const TopicPartition& tp) {
  ReaderMutexLock map_lock(&map_mu_);
  LIQUID_ASSIGN_OR_RETURN(Replica * replica, FindReplicaShared(tp));
  MutexLock lock(&replica->mu);
  return replica->log->Compact();
}

Result<int64_t> Broker::LogEndOffset(const TopicPartition& tp) {
  ReaderMutexLock map_lock(&map_mu_);
  LIQUID_ASSIGN_OR_RETURN(Replica * replica, FindReplicaShared(tp));
  MutexLock lock(&replica->mu);
  return replica->log->end_offset();
}

Result<int64_t> Broker::HighWatermark(const TopicPartition& tp) {
  ReaderMutexLock map_lock(&map_mu_);
  LIQUID_ASSIGN_OR_RETURN(Replica * replica, FindReplicaShared(tp));
  MutexLock lock(&replica->mu);
  return replica->high_watermark;
}

std::vector<TopicPartition> Broker::HostedPartitions() const {
  ReaderMutexLock lock(&map_mu_);
  std::vector<TopicPartition> out;
  for (const auto& [tp, replica] : replicas_) out.push_back(tp);
  return out;
}

bool Broker::HostsPartition(const TopicPartition& tp) const {
  ReaderMutexLock lock(&map_mu_);
  return replicas_.count(tp) > 0;
}

bool Broker::IsLeaderFor(const TopicPartition& tp) const {
  ReaderMutexLock lock(&map_mu_);
  auto it = replicas_.find(tp);
  if (it == replicas_.end()) return false;
  MutexLock replica_lock(&it->second.mu);
  return it->second.is_leader;
}

}  // namespace liquid::messaging
