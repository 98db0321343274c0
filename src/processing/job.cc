#include "processing/job.h"

#include <algorithm>

#include "common/logging.h"
#include "messaging/broker.h"

namespace liquid::processing {

using messaging::ConsumerRecord;
using messaging::TopicPartition;

/// Routes task output to the messaging layer through the job's producer.
class Job::CollectorImpl : public MessageCollector {
 public:
  explicit CollectorImpl(Job* job) : job_(job) {}

  Status Send(const std::string& topic, storage::Record record) override {
    job_->sent_counter_->Increment();
    job_->StampTrace(&record);
    return job_->producer_->Send(topic, std::move(record));
  }

 private:
  Job* job_;
};

class Job::CoordinatorImpl : public TaskCoordinator {
 public:
  void RequestCommit() override { commit_requested = true; }
  void RequestShutdown() override { shutdown_requested = true; }

  bool commit_requested = false;
  bool shutdown_requested = false;
};

class Job::ContextImpl : public TaskContext {
 public:
  ContextImpl(Job* job, int partition) : job_(job), partition_(partition) {}

  KeyValueStore* GetStore(const std::string& name) override {
    return GetStoreUnderJobLock(name);
  }

  int partition() const override { return partition_; }

  MetricsRegistry* metrics() override { return &job_->metrics_; }

 private:
  // Tasks only run from RunOnce, which holds the job lock across Process();
  // the analysis cannot see that across the virtual call boundary.
  KeyValueStore* GetStoreUnderJobLock(const std::string& name)
      NO_THREAD_SAFETY_ANALYSIS {
    auto it = job_->tasks_.find(partition_);
    if (it == job_->tasks_.end()) return nullptr;
    auto sit = it->second.stores.find(name);
    return sit == it->second.stores.end() ? nullptr : sit->second.get();
  }

  Job* job_;
  int partition_;
};

Job::Job(messaging::Cluster* cluster, messaging::OffsetManager* offsets,
         messaging::GroupCoordinator* coordinator, storage::Disk* state_disk,
         JobConfig config, TaskFactory factory, std::string instance_id,
         messaging::TransactionCoordinator* txn_coordinator)
    : cluster_(cluster),
      offsets_(offsets),
      coordinator_(coordinator),
      state_disk_(state_disk),
      config_(std::move(config)),
      factory_(std::move(factory)),
      instance_id_(std::move(instance_id)),
      txn_coordinator_(txn_coordinator) {
  MetricsRegistry* global = MetricsRegistry::Default();
  const std::string prefix = "liquid.job." + config_.name + ".";
  processed_counter_ = global->GetCounter(prefix + "processed");
  process_us_ = global->GetHistogram(prefix + "process_us");
  e2e_latency_us_ = global->GetHistogram(prefix + "e2e_latency_us");
  commit_dirty_keys_ = global->GetHistogram(prefix + "commit_dirty_keys");
  // Per-job-registry twins (kept for test/introspection compatibility).
  sent_counter_ = metrics_.GetCounter("job." + config_.name + ".sent");
  job_processed_counter_ =
      metrics_.GetCounter("job." + config_.name + ".processed");
}

Job::~Job() {
  // Joins the run thread first; no-op when already stopped. A destructor
  // cannot propagate the final commit's Status — callers who need it must
  // Stop() explicitly and check.
  LIQUID_IGNORE_ERROR(Stop());
}

std::string Job::ChangelogTopic(const std::string& job, const std::string& store) {
  return "__changelog." + job + "." + store;
}

Result<std::unique_ptr<Job>> Job::Create(
    messaging::Cluster* cluster, messaging::OffsetManager* offsets,
    messaging::GroupCoordinator* coordinator, storage::Disk* state_disk,
    JobConfig config, TaskFactory factory, const std::string& instance_id,
    messaging::TransactionCoordinator* txn_coordinator) {
  if (config.name.empty() || config.inputs.empty()) {
    return Status::InvalidArgument("job needs a name and at least one input");
  }
  if (config.exactly_once && txn_coordinator == nullptr) {
    return Status::InvalidArgument(
        "exactly_once requires a TransactionCoordinator");
  }
  if (config.exactly_once && !config.restore_from_changelog) {
    // The stores apply a transaction's state only after it commits; a crash
    // in between leaves that state in the changelog alone.
    return Status::InvalidArgument(
        "exactly_once requires restore_from_changelog");
  }
  std::unique_ptr<Job> job(new Job(cluster, offsets, coordinator, state_disk,
                                   std::move(config), std::move(factory),
                                   instance_id, txn_coordinator));
  LIQUID_RETURN_NOT_OK(job->Init());
  return job;
}

Status Job::Init() {
  LIQUID_RETURN_NOT_OK(EnsureChangelogTopics());

  messaging::ProducerConfig producer_config;
  producer_config.acks = messaging::AckMode::kAll;
  if (config_.exactly_once) {
    producer_config.transactional_id =
        "job." + config_.name + "#" + instance_id_;
  }
  producer_ = std::make_unique<messaging::Producer>(cluster_, producer_config);
  if (config_.exactly_once) {
    LIQUID_RETURN_NOT_OK(producer_->InitTransactions(txn_coordinator_));
  }
  collector_ = std::make_unique<CollectorImpl>(this);
  coordinator_impl_ = std::make_unique<CoordinatorImpl>();

  messaging::ConsumerConfig consumer_config;
  consumer_config.group = "job." + config_.name;
  consumer_config.start_from_earliest = config_.start_from_earliest;
  consumer_ = std::make_unique<messaging::Consumer>(
      cluster_, offsets_, coordinator_, config_.name + "#" + instance_id_,
      consumer_config);
  LIQUID_RETURN_NOT_OK(consumer_->Subscribe(config_.inputs));

  last_commit_ms_ = cluster_->clock()->NowMs();
  last_window_ms_ = last_commit_ms_;
  return Status::OK();
}

Status Job::EnsureChangelogTopics() {
  if (config_.stores.empty()) return Status::OK();
  int max_partitions = 1;
  for (const std::string& input : config_.inputs) {
    auto topic_config = cluster_->GetTopicConfig(input);
    if (topic_config.ok()) {
      max_partitions = std::max(max_partitions, topic_config->partitions);
    }
  }
  for (const StoreConfig& store : config_.stores) {
    if (!store.changelog) continue;
    messaging::TopicConfig changelog_config;
    changelog_config.partitions = max_partitions;
    changelog_config.replication_factor = config_.changelog_replication;
    changelog_config.log.compaction_enabled = true;
    // Small segments: the compactor can only clean closed segments, and
    // changelogs benefit from frequent cleaning (§4.1).
    changelog_config.log.segment_bytes = 256 * 1024;
    Status st =
        cluster_->CreateTopic(ChangelogTopic(config_.name, store.name),
                              changelog_config);
    if (!st.ok() && !st.IsAlreadyExists()) return st;
  }
  return Status::OK();
}

Status Job::RestoreStore(int partition, const StoreConfig& store_config,
                         ChangelogStore* store) {
  const TopicPartition changelog_tp{
      ChangelogTopic(config_.name, store_config.name), partition};
  int64_t cursor = -1;
  int64_t restored = 0;
  std::vector<storage::Record> records;
  while (true) {
    auto leader = cluster_->LeaderFor(changelog_tp);
    if (!leader.ok()) return leader.status();
    if (cursor < 0) {
      auto bounds = (*leader)->OffsetBounds(changelog_tp);
      if (!bounds.ok()) return bounds.status();
      cursor = bounds->first;
    }
    // read_committed: an exactly-once job's changelog entries must not be
    // restored unless their transaction committed.
    auto resp = (*leader)->Fetch(changelog_tp, cursor, 1 << 20, -1, "",
                                 /*read_committed=*/true);
    if (!resp.ok()) return resp.status();
    // An empty fetch means the LSO is reached; a fetch holding only markers
    // or aborted entries decodes to nothing but still moves the cursor.
    if (resp->batches.empty()) break;
    records.clear();
    LIQUID_RETURN_NOT_OK(resp->DecodeRecords(&records));
    for (const storage::Record& record : records) {
      LIQUID_RETURN_NOT_OK(store->ApplyChangelogRecord(record));
      ++restored;
    }
    cursor = resp->next_fetch_offset;
  }
  metrics_.GetCounter("job." + config_.name + ".restored_records")
      ->Increment(restored);
  return Status::OK();
}

Status Job::EnsureTask(int partition) {
  if (tasks_.count(partition)) return Status::OK();
  TaskState state;
  state.task = factory_();
  state.context = std::make_unique<ContextImpl>(this, partition);

  for (const StoreConfig& store_config : config_.stores) {
    std::unique_ptr<BatchStore> inner;
    if (store_config.kind == StoreConfig::Kind::kInMemory) {
      inner = std::make_unique<InMemoryStore>();
    } else {
      const std::string prefix = config_.name + "/" + store_config.name + "/" +
                                 std::to_string(partition) + "/";
      auto persistent =
          PersistentStore::Open(state_disk_, prefix, kv::KvOptions{});
      if (!persistent.ok()) return persistent.status();
      inner = std::move(persistent).value();
    }
    if (!store_config.changelog) {
      state.stores[store_config.name] = std::move(inner);
      continue;
    }
    // Store mutations run inside Process(), i.e. with mu_ held; the REQUIRES
    // is checked on the lambda body, and the call site is reached only
    // through the type-erased TraceSource. A changelog record carries the
    // trace context of the input that last updated its key, so restores and
    // audits can tie a store mutation back to the message that caused it.
    auto trace = [this]() REQUIRES(mu_) -> TraceContext {
      return current_trace_;
    };
    auto changelog_store =
        std::make_unique<ChangelogStore>(std::move(inner), trace);
    if (config_.restore_from_changelog) {
      LIQUID_RETURN_NOT_OK(
          RestoreStore(partition, store_config, changelog_store.get()));
    }
    state.changelogs.emplace_back(
        TopicPartition{ChangelogTopic(config_.name, store_config.name),
                       partition},
        changelog_store.get());
    state.stores[store_config.name] = std::move(changelog_store);
  }

  auto [it, inserted] = tasks_.emplace(partition, std::move(state));
  LIQUID_RETURN_NOT_OK(it->second.task->Init(it->second.context.get()));
  return Status::OK();
}

Result<int> Job::RunOnce() {
  MutexLock lock(&mu_);
  if (stopped_) return Status::FailedPrecondition("job stopped");

  // liquid-lint: allow(snapshot-then-call): mu_ serializes the run loop against Commit/Stop/Kill; the poll is the loop body, not a side call.
  auto records = consumer_->Poll(config_.poll_max_records);
  if (!records.ok()) return records.status();

  // Tasks (and their state restore) are set up eagerly for every assigned
  // partition: a restarted job must rebuild its stores from the changelog
  // even before any new input arrives (§3.2).
  for (const TopicPartition& tp : consumer_->Assignment()) {
    LIQUID_RETURN_NOT_OK(EnsureTask(tp.partition));
  }

  if (config_.exactly_once && !records->empty() && !txn_open_) {
    // liquid-lint: allow(snapshot-then-call): the transaction must open before the first Process() of this round; txn_open_ and the open transaction change together under mu_.
    LIQUID_RETURN_NOT_OK(producer_->BeginTransaction());
    txn_open_ = true;
  }

  TraceCollector* tracer = TraceCollector::Default();
  const bool tracing = tracer->enabled();
  int processed = 0;
  for (const ConsumerRecord& envelope : *records) {
    LIQUID_RETURN_NOT_OK(EnsureTask(envelope.tp.partition));
    TaskState& state = tasks_[envelope.tp.partition];
    const storage::Record& in = envelope.record;
    // Pre-allocate the "process" span id before calling the task: outputs
    // stamped by StampTrace then parent onto the span that produced them.
    current_trace_ = (tracing && in.traced())
                         ? TraceContext{in.trace_id, tracer->NewSpanId(),
                                        in.ingest_us}
                         : TraceContext{};
    const int64_t t0 = cluster_->clock()->NowUs();
    LIQUID_RETURN_NOT_OK(state.task->Process(envelope, collector_.get(),
                                             coordinator_impl_.get()));
    const int64_t t1 = cluster_->clock()->NowUs();
    process_us_->Record(t1 - t0);
    if (current_trace_.active()) {
      tracer->Record(Span{in.trace_id, current_trace_.span_id, in.span_id, t0,
                          t1, "process", config_.name});
      if (in.ingest_us > 0) e2e_latency_us_->Record(t1 - in.ingest_us);
    }
    ++processed;
  }
  current_trace_ = TraceContext{};  // Window/commit output: untraced.
  job_processed_counter_->Increment(processed);
  processed_counter_->Increment(processed);
  if (processed > 0) {
    // Make task output visible promptly so downstream jobs (decoupled through
    // the messaging layer) can pick it up; flushing more often than the
    // commit interval is always safe for at-least-once.
    // liquid-lint: allow(snapshot-then-call): flushing inside the serialized run loop keeps output visibility ordered before the offsets a later commit publishes.
    LIQUID_RETURN_NOT_OK(producer_->Flush());
  }

  const int64_t now = cluster_->clock()->NowMs();
  if (config_.window_interval_ms > 0 &&
      now - last_window_ms_ >= config_.window_interval_ms) {
    last_window_ms_ = now;
    for (auto& [partition, state] : tasks_) {
      LIQUID_RETURN_NOT_OK(
          state.task->Window(collector_.get(), coordinator_impl_.get()));
    }
  }
  if (coordinator_impl_->commit_requested ||
      now - last_commit_ms_ >= config_.commit_interval_ms) {
    coordinator_impl_->commit_requested = false;
    last_commit_ms_ = now;
    LIQUID_RETURN_NOT_OK(CommitLocked());
  }
  if (coordinator_impl_->shutdown_requested) {
    stopped_ = true;
    // liquid-lint: allow(snapshot-then-call): stopped_ and the closed consumer must change together, or a racing RunOnce could poll a closed consumer.
    LIQUID_RETURN_NOT_OK(consumer_->Close());
  }
  return processed;
}

Result<int64_t> Job::RunUntilIdle(int idle_rounds) {
  int64_t total = 0;
  int idle = 0;
  while (idle < idle_rounds) {
    auto processed = RunOnce();
    if (!processed.ok()) {
      if (processed.status().IsFailedPrecondition()) break;  // Shut down.
      return processed.status();
    }
    total += *processed;
    idle = *processed == 0 ? idle + 1 : 0;
  }
  bool stopped;
  {
    MutexLock lock(&mu_);
    stopped = stopped_;
  }
  if (!stopped) LIQUID_RETURN_NOT_OK(Commit());
  return total;
}

void Job::StampTrace(storage::Record* record) {
  // Records that already carry a context (a task forwarding its input
  // verbatim) keep it; otherwise the output inherits the current input's
  // trace so the trace id spans the whole derivation chain.
  if (record->traced() || !current_trace_.active()) return;
  record->trace_id = current_trace_.trace_id;
  record->span_id = current_trace_.span_id;
  record->ingest_us = current_trace_.ingest_us;
}

bool Job::HasDirtyState() const {
  for (const auto& [partition, state] : tasks_) {
    for (const auto& [tp, store] : state.changelogs) {
      if (store->dirty_keys() > 0) return true;
    }
  }
  return false;
}

Status Job::PublishDirtyState() {
  for (auto& [partition, state] : tasks_) {
    for (auto& [tp, store] : state.changelogs) {
      std::vector<storage::Record> records = store->DirtyRecords();
      if (records.empty()) continue;
      // liquid-lint: allow(snapshot-then-call): the changelog records ride in the commit's transaction; publishing them is part of the atomic commit under mu_.
      LIQUID_RETURN_NOT_OK(
          producer_->SendBatch(tp, std::move(records)).status());
    }
  }
  return Status::OK();
}

Status Job::ApplyDirtyState() {
  int64_t applied = 0;
  for (auto& [partition, state] : tasks_) {
    for (auto& [tp, store] : state.changelogs) {
      LIQUID_ASSIGN_OR_RETURN(const size_t keys, store->ApplyDirty());
      applied += static_cast<int64_t>(keys);
    }
  }
  if (applied > 0) commit_dirty_keys_->Record(applied);
  return Status::OK();
}

Status Job::CommitLocked() {
  if (config_.exactly_once) {
    if (!txn_open_) {
      if (!HasDirtyState()) return Status::OK();  // Nothing to commit.
      // A Window() call changed state in a round that processed no input.
      // liquid-lint: allow(snapshot-then-call): the transaction must be open before its changelog records are sent; txn_open_ and the open transaction change together under mu_.
      LIQUID_RETURN_NOT_OK(producer_->BeginTransaction());
      txn_open_ = true;
    }
    LIQUID_RETURN_NOT_OK(PublishDirtyState());
    // liquid-lint: allow(snapshot-then-call): outputs, changelogs, offsets and the commit marker must land as one atomic unit (exactly-once); mu_ is what makes the unit atomic.
    LIQUID_RETURN_NOT_OK(producer_->Flush());
    // Input offsets ride inside the transaction: outputs, changelog updates
    // and checkpoints become visible atomically (exactly-once).
    const std::string group = "job." + config_.name;
    const std::string txn_id = "job." + config_.name + "#" + instance_id_;
    for (const auto& [tp, position] : consumer_->Positions()) {
      messaging::OffsetCommit commit;
      commit.offset = position;
      commit.annotations = config_.checkpoint_annotations;
      // liquid-lint: allow(snapshot-then-call): offsets ride inside the same transaction (see above); registering them is part of the atomic commit.
      LIQUID_RETURN_NOT_OK(
          txn_coordinator_->AddOffsets(txn_id, group, tp, std::move(commit)));
    }
    // liquid-lint: allow(snapshot-then-call): txn_open_ and the committed transaction change together under mu_ -- releasing between them would let a racing RunOnce reuse a closed transaction.
    LIQUID_RETURN_NOT_OK(producer_->CommitTransaction());
    txn_open_ = false;
    // Only committed state reaches the stores. A crash before this apply
    // loses nothing: the restore replays the committed changelog.
    return ApplyDirtyState();
  }
  LIQUID_RETURN_NOT_OK(PublishDirtyState());
  // liquid-lint: allow(snapshot-then-call): at-least-once commit = flush-then-commit with no interleaved processing; mu_ provides exactly that window.
  LIQUID_RETURN_NOT_OK(producer_->Flush());
  // Apply before the checkpoint: a crash in between only replays inputs.
  LIQUID_RETURN_NOT_OK(ApplyDirtyState());
  // liquid-lint: allow(snapshot-then-call): same atomic flush-then-commit window as the flush above.
  return consumer_->CommitWithAnnotations(config_.checkpoint_annotations);
}

Status Job::Commit() {
  MutexLock lock(&mu_);
  return CommitLocked();
}

Status Job::Stop() {
  StopThread();
  MutexLock lock(&mu_);
  if (stopped_) return Status::OK();
  stopped_ = true;
  // Always close the consumer, even when the final commit fails — but
  // report the commit failure first: lost offsets outrank a close error.
  const Status commit = CommitLocked();
  // liquid-lint: allow(snapshot-then-call): final commit and close must complete before stopped_ becomes observable outside mu_, or a racing Commit() would touch a closed consumer.
  const Status close = consumer_->Close();
  LIQUID_RETURN_NOT_OK(commit);
  return close;
}

Status Job::Kill() {
  StopThread();
  MutexLock lock(&mu_);
  if (stopped_) return Status::OK();
  stopped_ = true;
  // No flush, no checkpoint: whatever transaction is open stays dangling and
  // will be aborted when the next incarnation fences this one.
  // liquid-lint: allow(snapshot-then-call): same stop contract as Stop() -- the close happens inside the window that flips stopped_.
  return consumer_->CloseWithoutCommit();
}

Status Job::StartThread(int poll_sleep_ms) {
  if (thread_running_.exchange(true)) {
    return Status::FailedPrecondition("job thread already running");
  }
  run_thread_ = std::thread([this, poll_sleep_ms] {
    while (thread_running_.load()) {
      auto processed = RunOnce();
      if (!processed.ok()) break;
      if (*processed == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(poll_sleep_ms));
      }
    }
  });
  return Status::OK();
}

void Job::StopThread() {
  if (!thread_running_.exchange(false)) return;
  if (run_thread_.joinable()) run_thread_.join();
}

KeyValueStore* Job::GetStore(int partition, const std::string& store_name) {
  MutexLock lock(&mu_);
  auto it = tasks_.find(partition);
  if (it == tasks_.end()) return nullptr;
  auto sit = it->second.stores.find(store_name);
  return sit == it->second.stores.end() ? nullptr : sit->second.get();
}

std::vector<TopicPartition> Job::AssignedPartitions() const {
  return consumer_->Assignment();
}

}  // namespace liquid::processing
