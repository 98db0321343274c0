#include "messaging/offset_manager.h"

#include <cerrno>
#include <cstdlib>

#include "common/coding.h"
#include "common/fault.h"
#include "common/metrics.h"

namespace liquid::messaging {

namespace {

std::string EncodeCommit(const OffsetCommit& commit) {
  std::string out;
  PutFixed64(&out, static_cast<uint64_t>(commit.offset));
  PutFixed64(&out, static_cast<uint64_t>(commit.committed_at_ms));
  PutVarint32(&out, static_cast<uint32_t>(commit.annotations.size()));
  for (const auto& [key, value] : commit.annotations) {
    PutLengthPrefixed(&out, key);
    PutLengthPrefixed(&out, value);
  }
  return out;
}

Result<OffsetCommit> DecodeCommit(const std::string& data) {
  Slice cursor(data);
  OffsetCommit commit;
  uint64_t offset = 0, at = 0;
  uint32_t count = 0;
  LIQUID_RETURN_NOT_OK(GetFixed64(&cursor, &offset));
  LIQUID_RETURN_NOT_OK(GetFixed64(&cursor, &at));
  LIQUID_RETURN_NOT_OK(GetVarint32(&cursor, &count));
  commit.offset = static_cast<int64_t>(offset);
  commit.committed_at_ms = static_cast<int64_t>(at);
  for (uint32_t i = 0; i < count; ++i) {
    Slice key, value;
    LIQUID_RETURN_NOT_OK(GetLengthPrefixed(&cursor, &key));
    LIQUID_RETURN_NOT_OK(GetLengthPrefixed(&cursor, &value));
    commit.annotations[key.ToString()] = value.ToString();
  }
  return commit;
}

}  // namespace

OffsetManager::OffsetManager(std::unique_ptr<storage::Log> log, Clock* clock)
    : log_(std::move(log)), clock_(clock) {}

Result<std::unique_ptr<OffsetManager>> OffsetManager::Open(
    storage::Disk* disk, const std::string& prefix, Clock* clock) {
  storage::LogConfig config;
  config.compaction_enabled = true;
  config.segment_bytes = 256 * 1024;
  auto log = storage::Log::Open(disk, nullptr, prefix, config, clock);
  if (!log.ok()) return log.status();
  std::unique_ptr<OffsetManager> manager(
      new OffsetManager(std::move(log).value(), clock));
  LIQUID_RETURN_NOT_OK(manager->Recover());
  return manager;
}

Status OffsetManager::Recover() {
  MutexLock lock(&mu_);
  int64_t cursor = log_->start_offset();
  storage::EncodedBatch batch;
  std::vector<storage::Record> chunk;
  while (cursor < log_->end_offset()) {
    LIQUID_RETURN_NOT_OK(log_->ReadEncoded(cursor, 1 << 20, &batch));
    if (batch.empty()) break;
    chunk.clear();
    LIQUID_RETURN_NOT_OK(batch.DecodeAll(&chunk));
    for (const auto& record : chunk) {
      auto commit = DecodeCommit(record.value);
      if (!commit.ok()) continue;
      std::string group;
      TopicPartition tp;
      if (ParseCacheKey(record.key, &group, &tp)) {
        latest_[{group, tp}] = *commit;
      }
      cache_[record.key] = std::move(commit).value();
    }
    cursor = batch.last_offset() + 1;
  }
  return Status::OK();
}

std::string OffsetManager::CacheKey(const std::string& group,
                                    const TopicPartition& tp,
                                    const std::string& label) {
  // liquid-lint: allow(hot-alloc): builds the cache key whose lookup lets Fetch skip a full coordinator-log scan -- the allocation pays for the scan it avoids.
  std::string key = group + "\x01" + tp.topic + "\x01" +
                    std::to_string(tp.partition);
  if (!label.empty()) key += "\x01" + label;
  return key;
}

bool OffsetManager::ParseCacheKey(const std::string& key, std::string* group,
                                  TopicPartition* tp) {
  const size_t first = key.find('\x01');
  if (first == std::string::npos) return false;
  const size_t second = key.find('\x01', first + 1);
  if (second == std::string::npos) return false;
  if (key.find('\x01', second + 1) != std::string::npos) {
    return false;  // Three separators: a labeled checkpoint.
  }
  *group = key.substr(0, first);
  tp->topic = key.substr(first + 1, second - first - 1);
  errno = 0;
  char* end = nullptr;
  const long partition = std::strtol(key.c_str() + second + 1, &end, 10);
  if (errno != 0 || end == key.c_str() + second + 1 || *end != '\0') {
    return false;
  }
  tp->partition = static_cast<int>(partition);
  return true;
}

void OffsetManager::NoteCommitLocked(const std::string& group,
                                     const TopicPartition& tp,
                                     const OffsetCommit& commit) {
  latest_[{group, tp}] = commit;
  MetricsRegistry* global = MetricsRegistry::Default();
  global->GetCounter("liquid.offsets.commits")->Increment();
  global->GetGauge("liquid.offsets." + group + ".last_commit_ms")
      ->Set(commit.committed_at_ms);
}

std::vector<GroupCommit> OffsetManager::SnapshotCommits() const {
  MutexLock lock(&mu_);
  std::vector<GroupCommit> out;
  out.reserve(latest_.size());
  for (const auto& [key, commit] : latest_) {
    out.push_back(GroupCommit{key.first, key.second, commit});
  }
  return out;
}

Status OffsetManager::Persist(const std::string& key,
                              const OffsetCommit& commit) {
  std::vector<storage::Record> batch;
  batch.push_back(storage::Record::KeyValue(key, EncodeCommit(commit)));
  // Unified retry discipline (DESIGN.md §7): transient append verdicts
  // (injected Unavailable or ResourceExhausted) back off and retry;
  // IOError/Corruption fail fast so a sick disk is reported, not papered
  // over. Commits are rare and the manager is
  // logically centralized, so sleeping briefly under mu_ here only delays
  // other offset traffic of the same coordinator — never a broker data path.
  RetryState retry(retry_policy_, clock_, Deadline::Infinite(),
                   static_cast<uint64_t>(commits_total_) + 1, &retry_metrics_);
  for (;;) {
    Status append = [&]() -> Status {
      // Chaos surface (DESIGN.md §7): the offset-commit append — lets the
      // soak prove consumers resume from the last *durable* checkpoint.
      LIQUID_FAULT_POINT("offsets.commit.before_append");
      return log_->AppendBatch(&batch).status();
    }();
    if (append.ok() || !retry.ShouldRetry(append)) return append;
  }
}

Status OffsetManager::Commit(const std::string& group, const TopicPartition& tp,
                             OffsetCommit commit) {
  if (commit.committed_at_ms == 0) commit.committed_at_ms = clock_->NowMs();
  const std::string key = CacheKey(group, tp, "");
  MutexLock lock(&mu_);
  LIQUID_RETURN_NOT_OK(Persist(key, commit));
  NoteCommitLocked(group, tp, commit);
  cache_[key] = std::move(commit);
  ++commits_total_;
  return Status::OK();
}

Result<OffsetCommit> OffsetManager::Fetch(const std::string& group,
                                          const TopicPartition& tp) const {
  MutexLock lock(&mu_);
  auto it = cache_.find(CacheKey(group, tp, ""));
  if (it == cache_.end()) {
    return Status::NotFound("no committed offset for " + group + "/" +
                            tp.ToString());
  }
  return it->second;
}

Status OffsetManager::CommitLabeled(const std::string& group,
                                    const TopicPartition& tp,
                                    const std::string& label,
                                    OffsetCommit commit) {
  if (label.empty()) return Status::InvalidArgument("empty label");
  if (commit.committed_at_ms == 0) commit.committed_at_ms = clock_->NowMs();
  const std::string key = CacheKey(group, tp, label);
  MutexLock lock(&mu_);
  LIQUID_RETURN_NOT_OK(Persist(key, commit));
  cache_[key] = std::move(commit);
  ++commits_total_;
  return Status::OK();
}

Result<OffsetCommit> OffsetManager::FetchLabeled(const std::string& group,
                                                 const TopicPartition& tp,
                                                 const std::string& label) const {
  MutexLock lock(&mu_);
  auto it = cache_.find(CacheKey(group, tp, label));
  if (it == cache_.end()) {
    return Status::NotFound("no labeled commit '" + label + "'");
  }
  return it->second;
}

Result<storage::CompactionStats> OffsetManager::CompactBackingLog() {
  return log_->Compact();
}

int64_t OffsetManager::commits_total() const {
  MutexLock lock(&mu_);
  return commits_total_;
}

}  // namespace liquid::messaging
