#include "kv/kv_store.h"

#include <algorithm>
#include <cstdio>

#include "common/coding.h"

namespace liquid::kv {

namespace {
constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestTmpName[] = "MANIFEST.tmp";
constexpr char kWalName[] = "WAL";
}  // namespace

KvStore::KvStore(storage::Disk* disk, std::string name_prefix, KvOptions options)
    : disk_(disk), name_prefix_(std::move(name_prefix)), options_(options) {}

Result<std::unique_ptr<KvStore>> KvStore::Open(storage::Disk* disk,
                                               const std::string& name_prefix,
                                               const KvOptions& options) {
  std::unique_ptr<KvStore> store(new KvStore(disk, name_prefix, options));
  LIQUID_RETURN_NOT_OK(store->Recover());
  return store;
}

std::string KvStore::TableName(uint64_t number) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "t%012llu.sst",
                static_cast<unsigned long long>(number));
  return name_prefix_ + buf;
}

Status KvStore::Recover() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string manifest_path = name_prefix_ + kManifestName;
  if (disk_->Exists(manifest_path)) {
    auto file = disk_->OpenOrCreate(manifest_path);
    if (!file.ok()) return file.status();
    std::string bytes;
    LIQUID_RETURN_NOT_OK((*file)->ReadAt(0, (*file)->Size(), &bytes));
    Slice cursor(bytes);
    uint64_t n0 = 0, n1 = 0;
    LIQUID_RETURN_NOT_OK(GetFixed64(&cursor, &next_table_number_));
    LIQUID_RETURN_NOT_OK(GetFixed64(&cursor, &last_sequence_));
    LIQUID_RETURN_NOT_OK(GetVarint64(&cursor, &n0));
    for (uint64_t i = 0; i < n0; ++i) {
      uint64_t number = 0;
      LIQUID_RETURN_NOT_OK(GetFixed64(&cursor, &number));
      auto table = SSTable::Open(disk_, TableName(number));
      if (!table.ok()) return table.status();
      l0_.push_back(std::move(table).value());
    }
    LIQUID_RETURN_NOT_OK(GetVarint64(&cursor, &n1));
    for (uint64_t i = 0; i < n1; ++i) {
      uint64_t number = 0;
      LIQUID_RETURN_NOT_OK(GetFixed64(&cursor, &number));
      auto table = SSTable::Open(disk_, TableName(number));
      if (!table.ok()) return table.status();
      l1_.push_back(std::move(table).value());
    }
  }
  auto wal = WriteAheadLog::Open(disk_, name_prefix_ + kWalName);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(wal).value();
  LIQUID_RETURN_NOT_OK(wal_->Replay([this](const Entry& entry) {
    last_sequence_ = std::max(last_sequence_, entry.sequence);
    memtable_bytes_ += entry.key.size() + entry.value.size();
    memtable_[entry.key] = entry;
  }));
  return Status::OK();
}

Status KvStore::WriteManifestLocked() {
  std::string bytes;
  PutFixed64(&bytes, next_table_number_);
  PutFixed64(&bytes, last_sequence_);
  PutVarint64(&bytes, l0_.size());
  for (const auto& table : l0_) {
    // Recover the number from the stored name: prefix + "t<num>.sst".
    const std::string& name = table->name();
    const std::string digits =
        name.substr(name_prefix_.size() + 1, name.size() - name_prefix_.size() - 5);
    PutFixed64(&bytes, std::strtoull(digits.c_str(), nullptr, 10));
  }
  PutVarint64(&bytes, l1_.size());
  for (const auto& table : l1_) {
    const std::string& name = table->name();
    const std::string digits =
        name.substr(name_prefix_.size() + 1, name.size() - name_prefix_.size() - 5);
    PutFixed64(&bytes, std::strtoull(digits.c_str(), nullptr, 10));
  }
  const std::string tmp_path = name_prefix_ + kManifestTmpName;
  if (disk_->Exists(tmp_path)) LIQUID_RETURN_NOT_OK(disk_->Remove(tmp_path));
  auto file = disk_->OpenOrCreate(tmp_path);
  if (!file.ok()) return file.status();
  LIQUID_RETURN_NOT_OK((*file)->Append(bytes));
  // liquid-lint: allow(snapshot-then-call): the manifest must be durable before the store lock is released -- unlocking first would let readers observe a table set a crash could not recover.
  LIQUID_RETURN_NOT_OK((*file)->Sync());
  return disk_->Rename(tmp_path, name_prefix_ + kManifestName);
}

void WriteBatch::Put(const Slice& key, const Slice& value) {
  Entry& entry = entries_.emplace_back();
  entry.key = key.ToString();
  entry.value = value.ToString();
  entry.type = EntryType::kPut;
}

void WriteBatch::Delete(const Slice& key) {
  Entry& entry = entries_.emplace_back();
  entry.key = key.ToString();
  entry.type = EntryType::kDelete;
}

Status KvStore::WriteLocked(std::vector<Entry> entries) {
  if (entries.empty()) return Status::OK();
  for (Entry& entry : entries) entry.sequence = ++last_sequence_;
  LIQUID_RETURN_NOT_OK(wal_->AppendBatch(entries));
  // A batch in key order (a state store's dirty set) inserts each entry
  // right before the hint, in amortized constant time.
  auto hint = memtable_.end();
  for (Entry& entry : entries) {
    memtable_bytes_ += entry.key.size() + entry.value.size();
    hint = std::next(
        memtable_.insert_or_assign(hint, entry.key, std::move(entry)));
  }
  if (memtable_bytes_ >= options_.memtable_bytes) {
    LIQUID_RETURN_NOT_OK(FlushLocked());
    if (static_cast<int>(l0_.size()) >= options_.l0_compaction_trigger) {
      LIQUID_RETURN_NOT_OK(CompactAllLocked());
    }
  }
  return Status::OK();
}

Status KvStore::Write(WriteBatch batch) {
  std::lock_guard<std::mutex> lock(mu_);
  return WriteLocked(std::move(batch.entries_));
}

Status KvStore::Put(const Slice& key, const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(std::move(batch));
}

Status KvStore::Delete(const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(std::move(batch));
}

Result<std::string> KvStore::Get(const Slice& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto mit = memtable_.find(key.ToString());
  if (mit != memtable_.end()) {
    if (mit->second.type == EntryType::kDelete) {
      return Status::NotFound("deleted");
    }
    return mit->second.value;
  }
  for (const auto& table : l0_) {
    auto entry = table->Get(key);
    if (entry.ok()) {
      if (entry->type == EntryType::kDelete) return Status::NotFound("deleted");
      return std::move(entry->value);
    }
    if (!entry.status().IsNotFound()) return entry.status();
  }
  // L1 is non-overlapping: binary search by key range.
  size_t lo = 0, hi = l1_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (Slice(l1_[mid]->max_key()).Compare(key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < l1_.size() && Slice(l1_[lo]->min_key()).Compare(key) <= 0) {
    auto entry = l1_[lo]->Get(key);
    if (entry.ok()) {
      if (entry->type == EntryType::kDelete) return Status::NotFound("deleted");
      return std::move(entry->value);
    }
    if (!entry.status().IsNotFound()) return entry.status();
  }
  return Status::NotFound("no such key");
}

Status KvStore::FlushLocked() {
  if (memtable_.empty()) return Status::OK();
  std::vector<Entry> entries;
  entries.reserve(memtable_.size());
  for (auto& [key, entry] : memtable_) entries.push_back(entry);

  const uint64_t number = next_table_number_++;
  SSTable::Options table_options{options_.block_size, options_.bloom_bits_per_key};
  LIQUID_RETURN_NOT_OK(
      SSTable::Write(disk_, TableName(number), entries, table_options));
  auto table = SSTable::Open(disk_, TableName(number));
  if (!table.ok()) return table.status();
  l0_.insert(l0_.begin(), std::move(table).value());  // Newest first.

  LIQUID_RETURN_NOT_OK(WriteManifestLocked());
  memtable_.clear();
  memtable_bytes_ = 0;
  return wal_->Reset();
}

Status KvStore::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushLocked();
}

Status KvStore::MergedEntriesLocked(std::vector<Entry>* out) const {
  // Priority: memtable > L0[0] > L0[1] > ... > L1. Since sequences are global
  // and monotonic, the max sequence per key is equivalent.
  std::map<std::string, Entry> merged;
  auto absorb = [&merged](const Entry& entry) {
    auto it = merged.find(entry.key);
    if (it == merged.end() || it->second.sequence < entry.sequence) {
      merged[entry.key] = entry;
    }
  };
  for (const auto& table : l1_) {
    for (auto it = table->NewIterator(); it.Valid(); it.Next()) {
      absorb(it.entry());
    }
  }
  for (auto tit = l0_.rbegin(); tit != l0_.rend(); ++tit) {
    for (auto it = (*tit)->NewIterator(); it.Valid(); it.Next()) {
      absorb(it.entry());
    }
  }
  for (const auto& [key, entry] : memtable_) absorb(entry);
  out->reserve(merged.size());
  for (auto& [key, entry] : merged) out->push_back(std::move(entry));
  return Status::OK();
}

Status KvStore::CompactAllLocked() {
  std::vector<Entry> merged;
  {
    // Exclude the memtable from compaction: it still lives in the WAL.
    std::map<std::string, Entry> saved;
    saved.swap(memtable_);
    Status st = MergedEntriesLocked(&merged);
    saved.swap(memtable_);
    LIQUID_RETURN_NOT_OK(st);
  }

  std::vector<std::string> old_tables;
  for (const auto& table : l0_) old_tables.push_back(table->name());
  for (const auto& table : l1_) old_tables.push_back(table->name());

  std::vector<std::unique_ptr<SSTable>> new_l1;
  SSTable::Options table_options{options_.block_size, options_.bloom_bits_per_key};
  std::vector<Entry> chunk;
  size_t chunk_bytes = 0;
  auto flush_chunk = [&]() -> Status {
    if (chunk.empty()) return Status::OK();
    const uint64_t number = next_table_number_++;
    LIQUID_RETURN_NOT_OK(
        SSTable::Write(disk_, TableName(number), chunk, table_options));
    auto table = SSTable::Open(disk_, TableName(number));
    if (!table.ok()) return table.status();
    new_l1.push_back(std::move(table).value());
    chunk.clear();
    chunk_bytes = 0;
    return Status::OK();
  };
  for (Entry& entry : merged) {
    if (entry.type == EntryType::kDelete) continue;  // Bottom level: drop.
    chunk_bytes += entry.key.size() + entry.value.size();
    chunk.push_back(std::move(entry));
    if (chunk_bytes >= options_.max_table_bytes) {
      LIQUID_RETURN_NOT_OK(flush_chunk());
    }
  }
  LIQUID_RETURN_NOT_OK(flush_chunk());

  l0_.clear();
  l1_ = std::move(new_l1);
  LIQUID_RETURN_NOT_OK(WriteManifestLocked());
  for (const auto& name : old_tables) {
    LIQUID_RETURN_NOT_OK(disk_->Remove(name));
  }
  return Status::OK();
}

Status KvStore::CompactAll() {
  std::lock_guard<std::mutex> lock(mu_);
  return CompactAllLocked();
}

Status KvStore::ForEach(
    const std::function<void(const Slice&, const Slice&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> merged;
  LIQUID_RETURN_NOT_OK(MergedEntriesLocked(&merged));
  for (const Entry& entry : merged) {
    if (entry.type == EntryType::kDelete) continue;
    fn(entry.key, entry.value);
  }
  return Status::OK();
}

Status KvStore::ForEachInRange(
    const Slice& begin, const Slice& end,
    const std::function<void(const Slice&, const Slice&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> merged;
  LIQUID_RETURN_NOT_OK(MergedEntriesLocked(&merged));
  for (const Entry& entry : merged) {
    if (entry.type == EntryType::kDelete) continue;
    if (Slice(entry.key).Compare(begin) < 0) continue;
    if (!end.empty() && Slice(entry.key).Compare(end) >= 0) break;
    fn(entry.key, entry.value);
  }
  return Status::OK();
}

Result<int64_t> KvStore::CountLiveKeys() const {
  int64_t count = 0;
  LIQUID_RETURN_NOT_OK(ForEach([&count](const Slice&, const Slice&) { ++count; }));
  return count;
}

size_t KvStore::memtable_size_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return memtable_bytes_;
}

int KvStore::l0_table_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(l0_.size());
}

int KvStore::l1_table_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(l1_.size());
}

Result<uint64_t> KvStore::ApproximateSizeBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = memtable_bytes_;
  LIQUID_ASSIGN_OR_RETURN(uint64_t disk_bytes, disk_->TotalBytes(name_prefix_));
  return total + disk_bytes;
}

}  // namespace liquid::kv
