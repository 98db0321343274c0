#ifndef LIQUID_KV_KV_STORE_H_
#define LIQUID_KV_KV_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "kv/sstable.h"
#include "kv/wal.h"
#include "storage/disk.h"

namespace liquid::kv {

/// Tuning options of the LSM store.
struct KvOptions {
  size_t memtable_bytes = 4 << 20;
  size_t block_size = 4096;
  int bloom_bits_per_key = 10;
  /// Flushing the memtable creates an L0 table; once this many L0 tables
  /// exist they are merged (with L1) into a fresh L1 run.
  int l0_compaction_trigger = 4;
  /// Compaction splits its output into tables of roughly this size.
  size_t max_table_bytes = 8 << 20;
};

/// An ordered set of mutations that `KvStore::Write` applies under one lock
/// hold with one WAL append (LevelDB's `WriteBatch`). A later mutation of a
/// key in the same batch wins.
class WriteBatch {
 public:
  void Put(const Slice& key, const Slice& value);
  void Delete(const Slice& key);
  void Reserve(size_t mutations) { entries_.reserve(mutations); }

  /// The mutations in the order they were added.
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  friend class KvStore;

  std::vector<Entry> entries_;
};

/// Persistent log-structured key-value store — the from-scratch stand-in for
/// RocksDB that backs stateful processing tasks (§4.4: "the processing layer
/// allocates the state off-heap by using RocksDB").
///
/// Two-level LSM: WAL + memtable -> L0 (overlapping tables, newest first) ->
/// L1 (one sorted, non-overlapping run). Thread-safe.
class KvStore {
 public:
  /// Opens the store rooted at `name_prefix` (e.g. "job1/store/"), recovering
  /// the manifest, tables and WAL.
  static Result<std::unique_ptr<KvStore>> Open(storage::Disk* disk,
                                               const std::string& name_prefix,
                                               const KvOptions& options);

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  /// The one write path: assigns the batch consecutive sequence numbers,
  /// appends it to the WAL in one write, then applies it to the memtable.
  Status Write(WriteBatch batch);

  /// One-entry batches.
  Status Put(const Slice& key, const Slice& value);
  Status Delete(const Slice& key);

  /// NotFound when absent or deleted.
  Result<std::string> Get(const Slice& key) const;

  /// Forces the memtable to an L0 table (empty memtable is a no-op).
  Status Flush();

  /// Merges all L0 tables and the L1 run into a fresh L1 run, dropping
  /// tombstones and shadowed versions.
  Status CompactAll();

  /// Visits all live (non-deleted) keys in key order with a merged view of
  /// memtable + tables.
  Status ForEach(
      const std::function<void(const Slice& key, const Slice& value)>& fn) const;

  /// Visits live keys in [begin, end) in key order (empty end = unbounded).
  Status ForEachInRange(
      const Slice& begin, const Slice& end,
      const std::function<void(const Slice& key, const Slice& value)>& fn) const;

  /// Number of live keys (full scan; for tests and state-restore accounting).
  Result<int64_t> CountLiveKeys() const;

  size_t memtable_size_bytes() const;
  int l0_table_count() const;
  int l1_table_count() const;
  Result<uint64_t> ApproximateSizeBytes() const;

 private:
  KvStore(storage::Disk* disk, std::string name_prefix, KvOptions options);

  Status Recover();
  Status WriteManifestLocked();
  Status WriteLocked(std::vector<Entry> entries);
  Status FlushLocked();
  Status CompactAllLocked();
  std::string TableName(uint64_t number) const;

  /// Collects the merged view (newest version per key, including tombstones)
  /// into `out`, sorted by key. Requires mu_ held.
  Status MergedEntriesLocked(std::vector<Entry>* out) const;

  storage::Disk* disk_;
  const std::string name_prefix_;
  const KvOptions options_;

  mutable std::mutex mu_;
  std::map<std::string, Entry> memtable_;  // Latest entry per key.
  size_t memtable_bytes_ = 0;
  std::unique_ptr<WriteAheadLog> wal_;
  std::vector<std::unique_ptr<SSTable>> l0_;  // Newest first.
  std::vector<std::unique_ptr<SSTable>> l1_;  // Key-ordered, non-overlapping.
  uint64_t next_table_number_ = 1;
  uint64_t last_sequence_ = 0;
};

}  // namespace liquid::kv

#endif  // LIQUID_KV_KV_STORE_H_
