#ifndef LIQUID_PROCESSING_STATE_STORE_H_
#define LIQUID_PROCESSING_STATE_STORE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "common/trace.h"
#include "kv/kv_store.h"
#include "messaging/metadata.h"
#include "processing/task.h"
#include "storage/disk.h"

namespace liquid::processing {

/// A store that applies a set of mutations under one lock hold: the inner
/// store of a ChangelogStore, which applies its dirty set at commit.
class BatchStore : public KeyValueStore {
 public:
  /// Applies `batch` in order.
  virtual Status Write(kv::WriteBatch batch) = 0;
};

/// Volatile in-memory store: fastest, state lost on task failure unless a
/// changelog is attached.
class InMemoryStore : public BatchStore {
 public:
  InMemoryStore() = default;

  Status Write(kv::WriteBatch batch) override;
  Status Put(const Slice& key, const Slice& value) override;
  Status Delete(const Slice& key) override;
  Result<std::string> Get(const Slice& key) override;
  Status ForEach(
      const std::function<void(const Slice&, const Slice&)>& fn) override;
  Status ForEachInRange(
      const Slice& begin, const Slice& end,
      const std::function<void(const Slice&, const Slice&)>& fn) override;
  Result<int64_t> Count() override;

 private:
  Mutex mu_;
  std::map<std::string, std::string> map_ GUARDED_BY(mu_);
};

/// Durable store over the from-scratch LSM engine — the paper's "state
/// off-heap by using RocksDB" (§4.4).
class PersistentStore : public BatchStore {
 public:
  static Result<std::unique_ptr<PersistentStore>> Open(
      storage::Disk* disk, const std::string& prefix,
      const kv::KvOptions& options);

  /// One `KvStore::Write`: one lock hold and one WAL append.
  Status Write(kv::WriteBatch batch) override;
  Status Put(const Slice& key, const Slice& value) override;
  Status Delete(const Slice& key) override;
  Result<std::string> Get(const Slice& key) override;
  Status ForEach(
      const std::function<void(const Slice&, const Slice&)>& fn) override;
  Status ForEachInRange(
      const Slice& begin, const Slice& end,
      const std::function<void(const Slice&, const Slice&)>& fn) override;
  Result<int64_t> Count() override;

  kv::KvStore* kv() { return kv_.get(); }

 private:
  explicit PersistentStore(std::unique_ptr<kv::KvStore> kv);

  std::unique_ptr<kv::KvStore> kv_;
};

/// Write-back decorator that publishes a store's updates to a compacted
/// changelog feed (§3.2: "the processing layer publish[es] state updates to
/// a changelog ... after failure, state is reconstructed from the
/// changelog"). As Samza's CachedStore does over its LoggedStore, it keeps
/// every key mutated since the last commit in a dirty set: the latest value
/// or a tombstone, with the trace context of that update. Put and Delete
/// touch only that set. The job's commit publishes one changelog record per
/// dirty key (`DirtyRecords`) and then applies the set to the inner store as
/// one batch (`ApplyDirty`). Reads merge the dirty set over the inner store
/// and never write it through.
///
/// Thread-safe. The task's mutations and the commit both run under the
/// job's lock, so the set cannot change between the two commit steps.
class ChangelogStore : public KeyValueStore {
 public:
  /// The trace context of the input record being processed; a dirty entry
  /// keeps the one of its latest update.
  using TraceSource = std::function<TraceContext()>;

  explicit ChangelogStore(std::unique_ptr<BatchStore> inner,
                          TraceSource trace = nullptr);

  Status Put(const Slice& key, const Slice& value) override;
  Status Delete(const Slice& key) override;
  Result<std::string> Get(const Slice& key) override;
  Status ForEach(
      const std::function<void(const Slice&, const Slice&)>& fn) override;
  Status ForEachInRange(
      const Slice& begin, const Slice& end,
      const std::function<void(const Slice&, const Slice&)>& fn) override;
  Result<int64_t> Count() override;

  /// Applies one changelog record to the inner store during restore; it
  /// dirties nothing, so nothing is published again.
  Status ApplyChangelogRecord(const storage::Record& record);

  /// One changelog record per dirty key, in key order: its latest value or
  /// a tombstone, stamped with the trace context of that update.
  std::vector<storage::Record> DirtyRecords() const EXCLUDES(mu_);

  /// Applies the dirty set to the inner store as one batch and clears it.
  /// Returns the number of keys applied; on an error the set is kept.
  Result<size_t> ApplyDirty() EXCLUDES(mu_);

  /// Keys mutated since the last apply.
  size_t dirty_keys() const EXCLUDES(mu_);

 private:
  using Visitor = std::function<void(const Slice&, const Slice&)>;

  struct DirtyEntry {
    std::string value;
    bool tombstone = false;
    TraceContext trace;
  };
  using DirtyMap = std::map<std::string, DirtyEntry, std::less<>>;

  /// Overwrites `key`'s dirty entry.
  void MarkDirty(const Slice& key, const Slice& value, bool tombstone)
      EXCLUDES(mu_);
  /// Visits the dirty entries in [it, stop) merged over what `scan` visits
  /// of the inner store (the same key range), in key order; a dirty entry
  /// shadows the inner one and a dirty tombstone hides it. The caller holds
  /// mu_ across the call, which keeps the iterators and the merge valid.
  static Status Merge(DirtyMap::const_iterator it,
                      DirtyMap::const_iterator stop,
                      const std::function<Status(const Visitor&)>& scan,
                      const Visitor& fn);

  const std::unique_ptr<BatchStore> inner_;
  const TraceSource trace_;

  mutable Mutex mu_;
  DirtyMap dirty_ GUARDED_BY(mu_);
};

}  // namespace liquid::processing

#endif  // LIQUID_PROCESSING_STATE_STORE_H_
