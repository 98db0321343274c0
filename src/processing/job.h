#ifndef LIQUID_PROCESSING_JOB_H_
#define LIQUID_PROCESSING_JOB_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/trace.h"
#include "kv/kv_store.h"
#include "messaging/cluster.h"
#include "messaging/consumer.h"
#include "messaging/group_coordinator.h"
#include "messaging/offset_manager.h"
#include "messaging/producer.h"
#include "messaging/transaction.h"
#include "processing/state_store.h"
#include "processing/task.h"

namespace liquid::processing {

/// Declares one state store of a job.
struct StoreConfig {
  enum class Kind { kInMemory, kPersistent };

  std::string name;
  Kind kind = Kind::kInMemory;
  /// Mirror mutations to a compacted changelog feed for failure recovery.
  bool changelog = true;
};

/// Configuration of an ETL-like job (§3.2).
struct JobConfig {
  std::string name;
  /// Input feeds; the job is parallelized into one task per input partition.
  std::vector<std::string> inputs;
  std::vector<StoreConfig> stores;
  /// Start from the earliest offset when no checkpoint exists.
  bool start_from_earliest = true;
  /// Restore store contents from the changelog when a task (re)starts.
  /// Required by exactly_once: a crash between a transaction's commit and
  /// the store's apply leaves the last round in the changelog alone.
  bool restore_from_changelog = true;
  /// Offsets are checkpointed (and outputs flushed) at least this often.
  int64_t commit_interval_ms = 1000;
  /// StreamTask::Window cadence; <= 0 disables windowing.
  int64_t window_interval_ms = -1;
  size_t poll_max_records = 512;
  /// Annotations attached to every offset checkpoint (e.g. {"version","v2"}).
  std::map<std::string, std::string> checkpoint_annotations;
  int changelog_replication = 1;
  /// Exactly-once read-process-write: outputs, changelog updates and input
  /// offsets commit atomically through the transaction coordinator; on a
  /// crash the open transaction is aborted, so read_committed consumers of
  /// the output feeds never observe duplicates (§4.3 extension). Requires a
  /// TransactionCoordinator at Create time.
  bool exactly_once = false;
};

/// A running instance ("container") of a processing-layer job. Multiple
/// instances with the same JobConfig.name share the consumer group, so the
/// input partitions — and therefore the tasks — are split between them.
///
/// Drive it with RunOnce()/RunUntilIdle() for deterministic execution, or
/// Start()/Stop() for a background thread.
class Job {
 public:
  /// `state_disk` is the container-local disk holding persistent stores; give
  /// a fresh disk to simulate the job being rescheduled on a new machine (its
  /// state then comes back via the changelog).
  static Result<std::unique_ptr<Job>> Create(
      messaging::Cluster* cluster, messaging::OffsetManager* offsets,
      messaging::GroupCoordinator* coordinator, storage::Disk* state_disk,
      JobConfig config, TaskFactory factory, const std::string& instance_id = "0",
      messaging::TransactionCoordinator* txn_coordinator = nullptr);

  ~Job();

  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  /// One poll-process cycle; returns the number of records processed.
  Result<int> RunOnce() EXCLUDES(mu_);

  /// Runs until `idle_rounds` consecutive cycles process nothing, then
  /// commits. Returns total records processed.
  Result<int64_t> RunUntilIdle(int idle_rounds = 2);

  /// Publishes one changelog record per dirty store key, flushes outputs,
  /// applies the dirty keys to the stores and checkpoints input offsets with
  /// the configured annotations (at-least-once order, §4.3). Under
  /// exactly_once the changelog records and offsets ride in the transaction,
  /// and the stores are applied only after it commits.
  Status Commit() EXCLUDES(mu_);

  /// Commits and leaves the consumer group.
  Status Stop() EXCLUDES(mu_);

  /// SIGKILL semantics for failure-injection tests: leaves the group without
  /// committing anything; an open transaction is left dangling (the next
  /// incarnation's InitTransactions fences and aborts it).
  Status Kill() EXCLUDES(mu_);

  /// Background execution.
  Status StartThread(int poll_sleep_ms = 1);
  void StopThread();

  /// The store of the task owning `partition`; null when absent. Tasks are
  /// keyed by partition id (shared across all input topics).
  KeyValueStore* GetStore(int partition, const std::string& store_name)
      EXCLUDES(mu_);
  KeyValueStore* GetStore(const messaging::TopicPartition& partition,
                          const std::string& store_name) {
    return GetStore(partition.partition, store_name);
  }

  std::vector<messaging::TopicPartition> AssignedPartitions() const;

  MetricsRegistry* metrics() { return &metrics_; }
  const JobConfig& config() const { return config_; }
  messaging::Producer* producer() { return producer_.get(); }

  /// Changelog feed name for a store of this job.
  static std::string ChangelogTopic(const std::string& job,
                                    const std::string& store);

 private:
  class CollectorImpl;
  class CoordinatorImpl;
  class ContextImpl;

  struct TaskState {
    std::unique_ptr<StreamTask> task;
    std::map<std::string, std::unique_ptr<KeyValueStore>> stores;
    /// The changelogged stores among `stores`, with their changelog
    /// partitions.
    std::vector<std::pair<messaging::TopicPartition, ChangelogStore*>>
        changelogs;
    std::unique_ptr<ContextImpl> context;
  };

  Job(messaging::Cluster* cluster, messaging::OffsetManager* offsets,
      messaging::GroupCoordinator* coordinator, storage::Disk* state_disk,
      JobConfig config, TaskFactory factory, std::string instance_id,
      messaging::TransactionCoordinator* txn_coordinator);

  Status Init();
  /// Flush + checkpoint, transactional or plain.
  Status CommitLocked() REQUIRES(mu_);
  Status EnsureChangelogTopics();
  Status EnsureTask(int partition) REQUIRES(mu_);
  Status RestoreStore(int partition, const StoreConfig& store_config,
                      ChangelogStore* store);
  bool HasDirtyState() const REQUIRES(mu_);
  /// Sends one changelog record per dirty key of every changelogged store.
  Status PublishDirtyState() REQUIRES(mu_);
  /// Applies every changelogged store's dirty set to its inner store.
  Status ApplyDirtyState() REQUIRES(mu_);
  /// Stamps a task's output record with the trace context of the input
  /// record currently being processed, so the one trace id follows the
  /// derivation chain downstream (changelog records get theirs from the
  /// store's dirty set). Called only with mu_ held — from the collector
  /// reached through RunOnce's Process() call — but the analysis cannot see
  /// that across the virtual boundary.
  void StampTrace(storage::Record* record) NO_THREAD_SAFETY_ANALYSIS;

  messaging::Cluster* cluster_;
  messaging::OffsetManager* offsets_;
  messaging::GroupCoordinator* coordinator_;
  storage::Disk* const state_disk_;
  const JobConfig config_;
  const TaskFactory factory_;
  const std::string instance_id_;
  messaging::TransactionCoordinator* txn_coordinator_;

  std::unique_ptr<messaging::Consumer> consumer_;
  std::unique_ptr<messaging::Producer> producer_;
  // liquid-lint: allow(guarded-by): set once in Init() before any thread touches the job; only dereferenced afterwards.
  std::unique_ptr<CollectorImpl> collector_;
  // liquid-lint: allow(guarded-by): same Init()-once contract as collector_.
  std::unique_ptr<CoordinatorImpl> coordinator_impl_;

  // Cached handles into MetricsRegistry::Default() ("liquid.job.<name>.*")
  // and the job's own registry ("job.<name>.*"), resolved once at
  // construction; registry entries are never erased.
  Counter* processed_counter_ = nullptr;
  Histogram* process_us_ = nullptr;
  Histogram* e2e_latency_us_ = nullptr;
  Histogram* commit_dirty_keys_ = nullptr;
  Counter* sent_counter_ = nullptr;
  Counter* job_processed_counter_ = nullptr;

  mutable Mutex mu_;
  /// Trace context of the input record currently inside Process(); the
  /// per-record "process" span is pre-allocated into span_id so everything
  /// the task emits parents onto it. Inactive outside the processing loop.
  TraceContext current_trace_ GUARDED_BY(mu_);
  std::map<int, TaskState> tasks_ GUARDED_BY(mu_);  // Keyed by partition id.
  int64_t last_commit_ms_ GUARDED_BY(mu_) = 0;
  int64_t last_window_ms_ GUARDED_BY(mu_) = 0;
  bool stopped_ GUARDED_BY(mu_) = false;
  bool txn_open_ GUARDED_BY(mu_) = false;

  MetricsRegistry metrics_;

  // liquid-lint: allow(guarded-by): written only by StartThread/StopThread, which serialize through the thread_running_ exchange.
  std::thread run_thread_;
  std::atomic<bool> thread_running_{false};
};

}  // namespace liquid::processing

#endif  // LIQUID_PROCESSING_JOB_H_
