#include "processing/state_store.h"

namespace liquid::processing {

Status InMemoryStore::Write(kv::WriteBatch batch) {
  MutexLock lock(&mu_);
  for (const kv::Entry& entry : batch.entries()) {
    if (entry.type == kv::EntryType::kDelete) {
      map_.erase(entry.key);
    } else {
      map_[entry.key] = entry.value;
    }
  }
  return Status::OK();
}

Status InMemoryStore::Put(const Slice& key, const Slice& value) {
  MutexLock lock(&mu_);
  map_[key.ToString()] = value.ToString();
  return Status::OK();
}

Status InMemoryStore::Delete(const Slice& key) {
  MutexLock lock(&mu_);
  map_.erase(key.ToString());
  return Status::OK();
}

Result<std::string> InMemoryStore::Get(const Slice& key) {
  MutexLock lock(&mu_);
  auto it = map_.find(key.ToString());
  if (it == map_.end()) return Status::NotFound("no such key");
  return it->second;
}

Status InMemoryStore::ForEach(
    const std::function<void(const Slice&, const Slice&)>& fn) {
  MutexLock lock(&mu_);
  for (const auto& [key, value] : map_) fn(key, value);
  return Status::OK();
}

Status InMemoryStore::ForEachInRange(
    const Slice& begin, const Slice& end,
    const std::function<void(const Slice&, const Slice&)>& fn) {
  if (!end.empty() && end.Compare(begin) <= 0) return Status::OK();
  MutexLock lock(&mu_);
  auto it = map_.lower_bound(begin.ToString());
  const auto stop = end.empty() ? map_.end() : map_.lower_bound(end.ToString());
  for (; it != stop; ++it) fn(it->first, it->second);
  return Status::OK();
}

Result<int64_t> InMemoryStore::Count() {
  MutexLock lock(&mu_);
  return static_cast<int64_t>(map_.size());
}

PersistentStore::PersistentStore(std::unique_ptr<kv::KvStore> kv)
    : kv_(std::move(kv)) {}

Result<std::unique_ptr<PersistentStore>> PersistentStore::Open(
    storage::Disk* disk, const std::string& prefix,
    const kv::KvOptions& options) {
  auto kv = kv::KvStore::Open(disk, prefix, options);
  if (!kv.ok()) return kv.status();
  return std::unique_ptr<PersistentStore>(
      new PersistentStore(std::move(kv).value()));
}

Status PersistentStore::Write(kv::WriteBatch batch) {
  return kv_->Write(std::move(batch));
}

Status PersistentStore::Put(const Slice& key, const Slice& value) {
  return kv_->Put(key, value);
}

Status PersistentStore::Delete(const Slice& key) { return kv_->Delete(key); }

Result<std::string> PersistentStore::Get(const Slice& key) {
  return kv_->Get(key);
}

Status PersistentStore::ForEach(
    const std::function<void(const Slice&, const Slice&)>& fn) {
  return kv_->ForEach(fn);
}

Status PersistentStore::ForEachInRange(
    const Slice& begin, const Slice& end,
    const std::function<void(const Slice&, const Slice&)>& fn) {
  return kv_->ForEachInRange(begin, end, fn);
}

Result<int64_t> PersistentStore::Count() { return kv_->CountLiveKeys(); }

ChangelogStore::ChangelogStore(std::unique_ptr<BatchStore> inner,
                               TraceSource trace)
    : inner_(std::move(inner)), trace_(std::move(trace)) {}

void ChangelogStore::MarkDirty(const Slice& key, const Slice& value,
                               bool tombstone) {
  const TraceContext trace = trace_ ? trace_() : TraceContext{};
  MutexLock lock(&mu_);
  auto it = dirty_.lower_bound(key.ToStringView());
  if (it == dirty_.end() || it->first != key.ToStringView()) {
    it = dirty_.emplace_hint(it, key.ToString(), DirtyEntry{});
  }
  it->second.value.assign(value.data(), value.size());
  it->second.tombstone = tombstone;
  it->second.trace = trace;
}

Status ChangelogStore::Put(const Slice& key, const Slice& value) {
  MarkDirty(key, value, /*tombstone=*/false);
  return Status::OK();
}

Status ChangelogStore::Delete(const Slice& key) {
  MarkDirty(key, Slice(), /*tombstone=*/true);
  return Status::OK();
}

Result<std::string> ChangelogStore::Get(const Slice& key) {
  MutexLock lock(&mu_);
  auto it = dirty_.find(key.ToStringView());
  if (it == dirty_.end()) return inner_->Get(key);
  if (it->second.tombstone) return Status::NotFound("deleted");
  return it->second.value;
}

Status ChangelogStore::Merge(DirtyMap::const_iterator it,
                             DirtyMap::const_iterator stop,
                             const std::function<Status(const Visitor&)>& scan,
                             const Visitor& fn) {
  // Visits the dirty entries below `bound` (all of them when null).
  auto visit_dirty_below = [&](const Slice* bound) {
    for (; it != stop; ++it) {
      if (bound != nullptr && Slice(it->first).Compare(*bound) >= 0) return;
      if (!it->second.tombstone) fn(it->first, it->second.value);
    }
  };
  LIQUID_RETURN_NOT_OK(scan([&](const Slice& key, const Slice& value) {
    visit_dirty_below(&key);
    if (it != stop && Slice(it->first).Compare(key) == 0) {
      if (!it->second.tombstone) fn(it->first, it->second.value);
      ++it;
      return;
    }
    fn(key, value);
  }));
  visit_dirty_below(nullptr);
  return Status::OK();
}

Status ChangelogStore::ForEach(const Visitor& fn) {
  MutexLock lock(&mu_);
  return Merge(dirty_.begin(), dirty_.end(),
               [this](const Visitor& merge) { return inner_->ForEach(merge); },
               fn);
}

Status ChangelogStore::ForEachInRange(const Slice& begin, const Slice& end,
                                      const Visitor& fn) {
  if (!end.empty() && end.Compare(begin) <= 0) return Status::OK();
  MutexLock lock(&mu_);
  return Merge(dirty_.lower_bound(begin.ToStringView()),
               end.empty() ? dirty_.end()
                           : dirty_.lower_bound(end.ToStringView()),
               [&](const Visitor& merge) {
                 return inner_->ForEachInRange(begin, end, merge);
               },
               fn);
}

Result<int64_t> ChangelogStore::Count() {
  MutexLock lock(&mu_);
  LIQUID_ASSIGN_OR_RETURN(int64_t count, inner_->Count());
  for (const auto& [key, entry] : dirty_) {
    auto stored = inner_->Get(key);
    if (!stored.ok() && !stored.status().IsNotFound()) return stored.status();
    if (entry.tombstone && stored.ok()) --count;
    if (!entry.tombstone && !stored.ok()) ++count;
  }
  return count;
}

Status ChangelogStore::ApplyChangelogRecord(const storage::Record& record) {
  if (record.is_tombstone) return inner_->Delete(record.key);
  return inner_->Put(record.key, record.value);
}

std::vector<storage::Record> ChangelogStore::DirtyRecords() const {
  MutexLock lock(&mu_);
  std::vector<storage::Record> records;
  records.reserve(dirty_.size());
  for (const auto& [key, entry] : dirty_) {
    storage::Record& record = records.emplace_back(
        entry.tombstone ? storage::Record::Tombstone(key)
                        : storage::Record::KeyValue(key, entry.value));
    record.trace_id = entry.trace.trace_id;
    record.span_id = entry.trace.span_id;
    record.ingest_us = entry.trace.ingest_us;
  }
  return records;
}

Result<size_t> ChangelogStore::ApplyDirty() {
  MutexLock lock(&mu_);
  if (dirty_.empty()) return size_t{0};
  kv::WriteBatch batch;
  batch.Reserve(dirty_.size());
  for (const auto& [key, entry] : dirty_) {
    if (entry.tombstone) {
      batch.Delete(key);
    } else {
      batch.Put(key, entry.value);
    }
  }
  LIQUID_RETURN_NOT_OK(inner_->Write(std::move(batch)));
  const size_t applied = dirty_.size();
  dirty_.clear();
  return applied;
}

size_t ChangelogStore::dirty_keys() const {
  MutexLock lock(&mu_);
  return dirty_.size();
}

}  // namespace liquid::processing
