#include "storage/log.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <optional>
#include <unordered_map>

#include "common/fault.h"

namespace liquid::storage {

namespace {

// The whole of `segment`, file bytes [0, size_bytes), as one batch; the
// scan CRC-verifies every frame.
Status ReadWholeSegment(const LogSegment& segment, EncodedBatch* out) {
  std::string bytes;
  std::vector<BatchFrame> frames;
  LIQUID_RETURN_NOT_OK(
      segment.ReadEncoded(segment.SpanFrom(segment.base_offset()),
                          segment.size_bytes(), &bytes, &frames));
  *out = EncodedBatch::FromParts(
      std::make_shared<const std::string>(std::move(bytes)), std::move(frames));
  return Status::OK();
}

}  // namespace

Log::Log(Disk* disk, PageCache* cache, std::string name_prefix, LogConfig config,
         Clock* clock)
    : disk_(disk),
      cache_(cache),
      name_prefix_(std::move(name_prefix)),
      config_(config),
      clock_(clock) {
  // Hot-path metric handles, resolved once: registry entries are never
  // erased, so the fetch/append paths skip the name lookup entirely.
  std::string instance = name_prefix_;
  while (!instance.empty() && instance.back() == '/') instance.pop_back();
  MetricsRegistry* global = MetricsRegistry::Default();
  const std::string prefix = "liquid.log." + instance + ".";
  fetch_zero_copy_bytes_ = global->GetCounter(prefix + "fetch_zero_copy_bytes");
  fetch_copied_bytes_ = global->GetCounter(prefix + "fetch_copied_bytes");
  group_commit_batches_ = global->GetCounter(prefix + "group_commit_batches");
  group_commit_syncs_ = global->GetCounter(prefix + "group_commit_syncs");
  group_commit_sync_failures_ =
      global->GetCounter(prefix + "group_commit_sync_failures");
  producer_append_mu_acquisitions_ =
      global->GetCounter(prefix + "producer_append_mu_acquisitions");
  group_commit_sync_us_ =
      global->GetHistogram(prefix + "group_commit_sync_us");
  read_pin_wait_us_ = global->GetHistogram(prefix + "read_pin_wait_us");
}

Log::ReadPin::ReadPin(const Log* log) : log_(log) {
  MutexLock lock(&log_->pin_mu_);
  ++log_->read_pins_;
}

Log::ReadPin::~ReadPin() {
  MutexLock lock(&log_->pin_mu_);
  if (--log_->read_pins_ == 0) log_->pin_cv_.SignalAll();
}

void Log::AwaitReadPinsLocked() {
  std::chrono::steady_clock::time_point start;
  {
    MutexLock lock(&pin_mu_);
    if (read_pins_ == 0) return;
    start = std::chrono::steady_clock::now();
    pin_cv_.Wait([this]() REQUIRES(pin_mu_) { return read_pins_ == 0; });
  }
  read_pin_wait_us_->Record(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

void Log::RestartDurabilityAtLocked(int64_t offset) {
  ++truncations_;
  durable_offset_ = std::min(durable_offset_, offset);
  sync_failed_upto_ = std::min(sync_failed_upto_, offset);
  durable_cv_.SignalAll();
  committer_cv_.Signal();
}

Log::~Log() {
  {
    MutexLock lock(&append_mu_);
    committer_stop_ = true;
    committer_cv_.Signal();
    durable_cv_.SignalAll();
  }
  if (committer_.joinable()) committer_.join();
}

Result<std::unique_ptr<Log>> Log::Open(Disk* disk, PageCache* cache,
                                       const std::string& name_prefix,
                                       const LogConfig& config, Clock* clock) {
  std::unique_ptr<Log> log(new Log(disk, cache, name_prefix, config, clock));
  LIQUID_RETURN_NOT_OK(log->OpenExisting());
  if (config.sync_mode == SyncMode::kGroup) {
    // Only group mode pays for a committer thread; metadata-scale logs
    // (kNone, the default) start nothing.
    log->committer_ = std::thread([raw = log.get()] { raw->CommitterLoop(); });
  }
  return log;
}

Status Log::OpenExisting() {
  LIQUID_ASSIGN_OR_RETURN(std::vector<std::string> names,
                          disk_->List(name_prefix_));
  std::vector<int64_t> base_offsets;
  for (const auto& name : names) {
    if (name.size() < name_prefix_.size() + 4 ||
        name.compare(name.size() - 4, 4, ".log") != 0) {
      continue;
    }
    const std::string digits =
        name.substr(name_prefix_.size(), name.size() - name_prefix_.size() - 4);
    base_offsets.push_back(std::strtoll(digits.c_str(), nullptr, 10));
  }
  std::sort(base_offsets.begin(), base_offsets.end());

  MutexLock pipeline_lock(&append_mu_);
  WriterMutexLock lock(&mu_);
  LogSegment::Config seg_config{config_.index_interval_bytes};
  for (int64_t base : base_offsets) {
    auto segment =
        LogSegment::Open(disk_, cache_, name_prefix_, base, seg_config);
    if (!segment.ok()) return segment.status();
    segments_.push_back(std::move(segment).value());
  }
  if (segments_.empty()) {
    auto segment = LogSegment::Open(disk_, cache_, name_prefix_, 0, seg_config);
    if (!segment.ok()) return segment.status();
    segments_.push_back(std::move(segment).value());
  }
  start_offset_ = segments_.front()->base_offset();
  next_offset_ = segments_.back()->next_offset();
  reserved_offset_ = next_offset_;
  committed_offset_ = next_offset_;
  // Recovery defines the log's contents: whatever survived on disk is by
  // definition the durable state, so the bookkeeping restarts at the
  // recovered end (acknowledgments were only ever given for synced bytes).
  durable_offset_ = next_offset_;
  return Status::OK();
}

Status Log::RollLocked(int64_t base_offset) {
  LogSegment::Config seg_config{config_.index_interval_bytes};
  auto segment =
      LogSegment::Open(disk_, cache_, name_prefix_, base_offset, seg_config);
  if (!segment.ok()) return segment.status();
  // liquid-lint: allow(hot-alloc): segment roll runs once per segment_bytes of appends; amortized to ~zero per record.
  segments_.push_back(std::move(segment).value());
  return Status::OK();
}

Status Log::AppendBatchLocked(const EncodedBatch& batch) {
  // Large batches are split at segment boundaries so that a single huge
  // append (e.g. a changelog flush) still produces closed segments that
  // retention and compaction can work on. Each chunk is a cheap view into
  // the shared buffer, never a re-encode.
  const std::vector<BatchFrame>& frames = batch.frames();
  size_t i = 0;
  while (i < frames.size()) {
    if (ActiveLocked()->size_bytes() >= config_.segment_bytes) {
      LIQUID_RETURN_NOT_OK(RollLocked(frames[i].offset));
    }
    uint64_t bytes = ActiveLocked()->size_bytes();
    size_t j = i;
    while (j < frames.size()) {
      if (j > i && bytes + frames[j].len > config_.segment_bytes) break;
      bytes += frames[j].len;
      ++j;
    }
    const EncodedBatch chunk = EncodedBatch::FromParts(
        batch.buffer(),
        std::vector<BatchFrame>(frames.begin() + i, frames.begin() + j));
    LIQUID_RETURN_NOT_OK(ActiveLocked()->AppendEncoded(chunk));
    i = j;
  }
  return Status::OK();
}

void Log::DrainAppendsLocked() {
  append_cv_.Wait([this]() REQUIRES(append_mu_) {
    return committed_offset_ == reserved_offset_;
  });
}

Status Log::SyncDirtySegments() const {
  // Chaos surface (DESIGN.md §7): a failing or stalling fsync. The committer
  // folds the injected error into sync_failed_upto_, which fails the acks
  // waiting on that window.
  LIQUID_FAULT_POINT("log.sync.before");
  // Snapshot each dirty segment with its committed end, and pin the log so
  // no segment is dropped or rewritten under the sync; then fsync with no
  // log lock held, so appends keep committing through the window. Bytes
  // appended past a snapshot stay dirty for the next window. The pin is
  // released on return, before the committer takes append_mu_: Truncate
  // and Compact wait for pins holding it.
  std::vector<std::pair<LogSegment*, uint64_t>> dirty;
  std::optional<ReadPin> pin;
  {
    ReaderMutexLock lock(&mu_);
    for (const auto& segment : segments_) {
      if (segment->dirty()) {
        dirty.emplace_back(segment.get(), segment->size_bytes());
      }
    }
    if (dirty.empty()) return Status::OK();
    pin.emplace(this);
  }
  for (const auto& [segment, target] : dirty) {
    LIQUID_RETURN_NOT_OK(segment->Flush(target));
  }
  return Status::OK();
}

void Log::CommitterLoop() {
  while (true) {
    int64_t target = 0;
    int64_t truncations = 0;
    bool stopping = false;
    {
      MutexLock lock(&append_mu_);
      committer_cv_.Wait([this]() REQUIRES(append_mu_) {
        // A failed window is retried only when new batches commit past it or
        // an AwaitDurable call asks for one attempt (retrying an fsync that
        // just failed in a tight loop helps nobody); its waiters were
        // already failed via sync_failed_upto_.
        return committer_stop_ ||
               (committed_offset_ > durable_offset_ &&
                (committed_offset_ > sync_failed_upto_ ||
                 sync_retry_requested_));
      });
      stopping = committer_stop_;
      if (committed_offset_ <= durable_offset_) {
        if (stopping) return;
        continue;  // Woken after a failed window with nothing new to sync.
      }
      target = committed_offset_;
      truncations = truncations_;
    }
    // One fsync covers every batch committed during the previous window
    // (snapshot-then-call: no log lock held across the sync).
    const auto sync_start = std::chrono::steady_clock::now();
    const Status st = SyncDirtySegments();
    group_commit_sync_us_->Record(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - sync_start)
            .count());
    {
      MutexLock lock(&append_mu_);
      if (truncations != truncations_) {
        // A truncation replaced bytes inside [durable, target) mid-window:
        // this outcome proves nothing about them. Sync again.
        if (stopping) return;
        continue;
      }
      ++sync_attempts_;
      sync_retry_requested_ = false;
      if (st.ok()) {
        if (durable_offset_ < target) durable_offset_ = target;
        if (sync_failed_upto_ <= target) {
          sync_failed_upto_ = 0;
          last_sync_error_ = Status::OK();
        }
        group_commit_syncs_->Increment();
      } else {
        if (sync_failed_upto_ < target) sync_failed_upto_ = target;
        last_sync_error_ = st;
        group_commit_sync_failures_->Increment();
      }
      durable_cv_.SignalAll();
      if (stopping) return;
    }
  }
}

Status Log::AwaitDurable(int64_t end_offset) {
  MutexLock lock(&append_mu_);
  const int64_t attempts_seen = sync_attempts_;
  if (durable_offset_ < end_offset && sync_failed_upto_ >= end_offset) {
    // The covering window failed before this call: ask for one fresh
    // attempt instead of replaying the stale error, so a resend of the same
    // batch can succeed once the fault clears.
    sync_retry_requested_ = true;
    committer_cv_.Signal();
  }
  // liquid-lint: allow(hot-block): the durability wait IS the product semantic of acks=all under sync_mode=group — the caller asked to block until its offsets are fsynced, bounded by one committer sync window (DESIGN.md section 6c).
  durable_cv_.Wait([this, end_offset, attempts_seen]() REQUIRES(append_mu_) {
    return durable_offset_ >= end_offset || committed_offset_ < end_offset ||
           (sync_attempts_ != attempts_seen &&
            sync_failed_upto_ >= end_offset) ||
           committer_stop_;
  });
  if (durable_offset_ >= end_offset) return Status::OK();
  if (committed_offset_ < end_offset) {
    return Status::OutOfRange("offsets past the log end cannot become durable");
  }
  if (committer_stop_) {
    return Status::Aborted("log closing before the batch became durable");
  }
  return last_sync_error_;
}

int64_t Log::durable_offset() const {
  MutexLock lock(&append_mu_);
  return durable_offset_;
}

Result<EncodedBatch> Log::AppendBatch(std::vector<Record>* records) {
  if (records->empty()) return Status::InvalidArgument("empty append");
  // Chaos surface: reject/delay the append before any offset is reserved.
  LIQUID_FAULT_POINT("log.append.before");

  // Phase 1: reserve the offset range (short critical section).
  int64_t base;
  {
    MutexLock lock(&append_mu_);
    producer_append_mu_acquisitions_->Increment();
    base = reserved_offset_;
    reserved_offset_ += static_cast<int64_t>(records->size());
  }

  // Phase 2: stamp and encode with no lock held. This is where the CPU time
  // goes (CRC32C over every payload byte), and concurrent appenders overlap
  // here freely.
  const int64_t now = clock_->NowMs();
  int64_t offset = base;
  for (Record& record : *records) {
    record.offset = offset++;
    if (record.timestamp_ms == 0) record.timestamp_ms = now;
  }
  const EncodedBatch batch = EncodedBatch::Encode(*records);

  // Phase 3: wait for our turn, so bytes land on disk in offset order.
  {
    MutexLock lock(&append_mu_);
    producer_append_mu_acquisitions_->Increment();
    // liquid-lint: allow(hot-block): bounded turn-ordering wait of the append pipeline: predecessors commit already-encoded bytes without doing I/O under this lock (see section 5a).
    append_cv_.Wait([this, base]() REQUIRES(append_mu_) {
      return committed_offset_ == base;
    });
  }

  // Phase 4: write under the exclusive log lock.
  Status write_status;
  {
    WriterMutexLock lock(&mu_);
    write_status = AppendBatchLocked(batch);
    if (write_status.ok()) next_offset_ = batch.last_offset() + 1;
  }

  // Phase 5: commit and wake successors. Committed advances even on a write
  // error — otherwise every queued appender behind us would deadlock; the
  // failed range simply becomes an offset gap (gaps are legal in this log).
  // Durability is the committer's job: callers that need a durable
  // acknowledgment wait in AwaitDurable for its next window.
  {
    MutexLock lock(&append_mu_);
    producer_append_mu_acquisitions_->Increment();
    committed_offset_ = base + static_cast<int64_t>(records->size());
    append_cv_.SignalAll();
    if (config_.sync_mode == SyncMode::kGroup && write_status.ok()) {
      group_commit_batches_->Increment();
      committer_cv_.Signal();
    }
  }
  LIQUID_RETURN_NOT_OK(write_status);
  return batch;
}

Status Log::AppendEncoded(const EncodedBatch& batch) {
  if (batch.empty()) return Status::OK();
  const int64_t end = batch.last_offset() + 1;
  MutexLock pipeline_lock(&append_mu_);
  DrainAppendsLocked();
  {
    WriterMutexLock lock(&mu_);
    if (batch.base_offset() < next_offset_) {
      return Status::InvalidArgument("offsets overlap existing log");
    }
    LIQUID_RETURN_NOT_OK(AppendBatchLocked(batch));
    next_offset_ = end;
  }
  reserved_offset_ = end;
  committed_offset_ = end;
  if (config_.sync_mode == SyncMode::kGroup) {
    // Follower batches count toward the coalescing factor like producer
    // batches: the committer counts every follower fsync in
    // group_commit_syncs. The leader counts this copy toward acks=all only
    // after awaiting its durability (Broker::AwaitIsrDurable).
    group_commit_batches_->Increment();
    committer_cv_.Signal();
  }
  return Status::OK();
}

Status Log::ReadEncoded(int64_t offset, size_t max_bytes,
                        EncodedBatch* out) const {
  // Chaos surface: a slow or failing read (cold disk), before the shared
  // log lock is taken, so an armed delay stalls only this reader.
  LIQUID_FAULT_POINT("log.read.before");
  *out = EncodedBatch();
  // The copying gather's segments, snapshotted under the lock.
  std::vector<std::pair<const LogSegment*, LogSegment::ReadSpan>> spans;
  std::optional<ReadPin> pin;
  {
    ReaderMutexLock lock(&mu_);
    offset = std::max(offset, start_offset_);
    if (offset >= next_offset_) return Status::OK();
    // Find the segment containing `offset`: greatest base_offset <= offset.
    auto it = std::upper_bound(segments_.begin(), segments_.end(), offset,
                               [](int64_t target, const auto& seg) {
                                 return target < seg->base_offset();
                               });
    if (it != segments_.begin()) --it;
    // Zero-copy fast path: when the requested bytes are resident in the
    // page cache, the response frames reference the pinned page buffer
    // directly — no gather copy. Partial responses are legal (callers loop
    // on the next offset), so one pinned page's worth per call is enough.
    Result<EncodedBatch> pinned = (*it)->ReadEncodedPinned(offset, max_bytes);
    LIQUID_RETURN_NOT_OK(pinned.status());
    if (!pinned->empty()) {
      fetch_zero_copy_bytes_->Increment(
          static_cast<int64_t>(pinned->size_bytes()));
      *out = std::move(pinned).value();
      return Status::OK();
    }
    // The segment holding `offset`, then the ones after it until their
    // bytes alone could fill the budget: the gather below stops at
    // max_bytes, and a segment yields at most its span. Usually one
    // segment, two when the read crosses a roll.
    spans.reserve(2);
    spans.emplace_back(it->get(), (*it)->SpanFrom(offset));
    for (uint64_t reach = 0; ++it != segments_.end() && reach < max_bytes;) {
      const LogSegment::ReadSpan span = (*it)->SpanFrom(offset);
      reach += span.end - span.pos;
      spans.emplace_back(it->get(), span);
    }
    pin.emplace(this);
  }
  // Chaos surface: a stall in the unlocked stretch, after the pin and
  // before the file scan, so an armed delay holds up only this reader and
  // the mutators that wait for its pin.
  LIQUID_FAULT_POINT("log.read.copy");
  std::string bytes;
  std::vector<BatchFrame> frames;
  for (const auto& [segment, span] : spans) {
    if (bytes.size() >= max_bytes) break;
    const size_t before = frames.size();
    LIQUID_RETURN_NOT_OK(segment->ReadEncoded(span, max_bytes - bytes.size(),
                                              &bytes, &frames));
    // Move on only when this segment contributed nothing (compaction can
    // leave one empty of qualifying records) or was read to its end. A read
    // that stopped on the byte budget mid-segment ends the reply here: the
    // next segment would add a record past the unread rest of this one.
    if (frames.size() > before && frames.back().offset + 1 < span.next_offset) {
      break;
    }
  }
  pin.reset();
  fetch_copied_bytes_->Increment(static_cast<int64_t>(bytes.size()));
  // liquid-lint: allow(hot-alloc): one shared immutable buffer per fetch is the encode-once zero-copy contract (DESIGN.md); move of the gathered bytes, not a copy.
  *out = EncodedBatch::FromParts(
      std::make_shared<const std::string>(std::move(bytes)), std::move(frames));
  return Status::OK();
}

Result<int64_t> Log::ReadEncodedRange(int64_t offset, int64_t bound,
                                      size_t max_bytes,
                                      std::vector<EncodedBatch>* out) const {
  // A gather is usually one copied batch, or a few pinned pages.
  out->reserve(out->size() + 4);
  size_t gathered = 0;
  while (offset < bound && gathered < max_bytes) {
    EncodedBatch batch;
    LIQUID_RETURN_NOT_OK(ReadEncoded(offset, max_bytes - gathered, &batch));
    // Only the first record may exceed the budget.
    if (batch.empty() ||
        (gathered > 0 && batch.size_bytes() > max_bytes - gathered)) {
      break;
    }
    batch.TrimToOffset(bound);
    if (batch.empty()) break;
    gathered += batch.size_bytes();
    offset = batch.last_offset() + 1;
    out->push_back(std::move(batch));
  }
  return offset;
}

Result<int64_t> Log::OffsetForTimestamp(int64_t ts_ms) const {
  ReaderMutexLock lock(&mu_);
  for (const auto& segment : segments_) {
    if (segment->empty()) continue;
    if (segment->max_timestamp_ms() < ts_ms) continue;
    auto result = segment->OffsetForTimestamp(ts_ms);
    if (result.ok()) return result;
    if (!result.status().IsNotFound()) return result.status();
  }
  return Status::NotFound("no record at or after timestamp");
}

int64_t Log::start_offset() const {
  ReaderMutexLock lock(&mu_);
  return start_offset_;
}

int64_t Log::end_offset() const {
  ReaderMutexLock lock(&mu_);
  return next_offset_;
}

uint64_t Log::size_bytes() const {
  ReaderMutexLock lock(&mu_);
  uint64_t total = 0;
  for (const auto& segment : segments_) total += segment->size_bytes();
  return total;
}

int Log::segment_count() const {
  ReaderMutexLock lock(&mu_);
  return static_cast<int>(segments_.size());
}

Status Log::Truncate(int64_t offset) {
  MutexLock pipeline_lock(&append_mu_);
  DrainAppendsLocked();
  WriterMutexLock lock(&mu_);
  const auto resync = [this]() REQUIRES(append_mu_, mu_) {
    reserved_offset_ = next_offset_;
    committed_offset_ = next_offset_;
  };
  if (offset >= next_offset_) return Status::OK();
  // The survivors of a partially truncated segment are rewritten unsynced, so
  // durability now ends at that segment's base (or at `offset`); waiters past
  // the new end wake and fail, and the committer syncs the rewrite.
  int64_t rewritten_from = offset;
  for (const auto& segment : segments_) {
    if (segment->base_offset() < offset && segment->next_offset() > offset) {
      rewritten_from = segment->base_offset();
    }
  }
  RestartDurabilityAtLocked(rewritten_from);
  AwaitReadPinsLocked();
  if (offset <= start_offset_) {
    // Everything goes: drop all segments and restart at `offset`.
    for (auto& segment : segments_) LIQUID_RETURN_NOT_OK(segment->Drop());
    segments_.clear();
    next_offset_ = offset;
    start_offset_ = offset;
    resync();
    LIQUID_RETURN_NOT_OK(RollLocked(offset));
    return Status::OK();
  }
  // Drop whole segments with base >= offset.
  while (!segments_.empty() && segments_.back()->base_offset() >= offset) {
    LIQUID_RETURN_NOT_OK(segments_.back()->Drop());
    segments_.pop_back();
  }
  // Partially truncate the now-last segment: its surviving frames go back
  // verbatim into a fresh segment at the same base.
  if (!segments_.empty() && segments_.back()->next_offset() > offset) {
    LogSegment* last = segments_.back().get();
    EncodedBatch survivors;
    LIQUID_RETURN_NOT_OK(ReadWholeSegment(*last, &survivors));
    survivors.TrimToOffset(offset);
    const int64_t base = last->base_offset();
    LIQUID_RETURN_NOT_OK(last->Drop());
    segments_.pop_back();
    LogSegment::Config seg_config{config_.index_interval_bytes};
    auto segment = LogSegment::Open(disk_, cache_, name_prefix_, base, seg_config);
    if (!segment.ok()) return segment.status();
    LIQUID_RETURN_NOT_OK((*segment)->AppendEncoded(survivors));
    segments_.push_back(std::move(segment).value());
  }
  if (segments_.empty()) {
    next_offset_ = offset;
    start_offset_ = std::min(start_offset_, offset);
    resync();
    LIQUID_RETURN_NOT_OK(RollLocked(offset));
  }
  next_offset_ = offset;
  resync();
  return Status::OK();
}

Result<int> Log::ApplyRetention() {
  MutexLock pipeline_lock(&append_mu_);
  DrainAppendsLocked();
  WriterMutexLock lock(&mu_);
  const int64_t now = clock_->NowMs();
  int deleted = 0;
  // Never delete the active (last) segment.
  while (segments_.size() > 1) {
    LogSegment* oldest = segments_.front().get();
    bool expired = false;
    if (config_.retention_ms > 0 && !oldest->empty() &&
        now - oldest->max_timestamp_ms() > config_.retention_ms) {
      expired = true;
    }
    if (!expired && config_.retention_bytes > 0) {
      uint64_t total = 0;
      for (const auto& segment : segments_) total += segment->size_bytes();
      if (total > static_cast<uint64_t>(config_.retention_bytes)) expired = true;
    }
    if (!expired) break;
    AwaitReadPinsLocked();
    LIQUID_RETURN_NOT_OK(oldest->Drop());
    segments_.erase(segments_.begin());
    start_offset_ = segments_.front()->base_offset();
    ++deleted;
  }
  return deleted;
}

Result<CompactionStats> Log::Compact() {
  MutexLock pipeline_lock(&append_mu_);
  DrainAppendsLocked();
  WriterMutexLock lock(&mu_);
  CompactionStats stats;
  if (!config_.compaction_enabled || segments_.size() < 2) return stats;

  // Phase 1: build the key -> newest offset map across the WHOLE log (the
  // active segment contributes newest offsets but is never rewritten).
  std::unordered_map<std::string, int64_t> latest;
  EncodedBatch batch;
  std::vector<Record> records;
  for (const auto& segment : segments_) {
    records.clear();
    LIQUID_RETURN_NOT_OK(ReadWholeSegment(*segment, &batch));
    LIQUID_RETURN_NOT_OK(batch.DecodeAll(&records));
    for (const Record& record : records) {
      if (record.has_key) latest[record.key] = record.offset;
    }
  }

  // Phase 2: rewrite every closed segment keeping only live records.
  const size_t closed = segments_.size() - 1;
  std::vector<Record> survivors;
  for (size_t i = 0; i < closed; ++i) {
    LogSegment* segment = segments_[i].get();
    stats.bytes_before += segment->size_bytes();
    records.clear();
    LIQUID_RETURN_NOT_OK(ReadWholeSegment(*segment, &batch));
    LIQUID_RETURN_NOT_OK(batch.DecodeAll(&records));
    for (Record& record : records) {
      ++stats.records_before;
      bool keep = true;
      if (record.has_key) {
        keep = latest[record.key] == record.offset;
        if (keep && record.is_tombstone && config_.compaction_drops_tombstones) {
          keep = false;
        }
      }
      if (keep) survivors.push_back(std::move(record));
    }
    ++stats.segments_cleaned;
  }

  // Phase 3: swap in cleaned segments. (Kafka swaps atomically via .cleaned /
  // .swap files; with the simulated disk we rebuild in place, which is safe
  // because the disk outlives us and the active segment is untouched.) The
  // cleaned segment is a fresh, unsynced file, so durability restarts at
  // its base, as after a Truncate: acks already given stay covered once the
  // committer syncs it, and new waiters wait for that sync.
  const int64_t first_base = segments_.front()->base_offset();
  RestartDurabilityAtLocked(first_base);
  AwaitReadPinsLocked();
  for (size_t i = 0; i < closed; ++i) {
    LIQUID_RETURN_NOT_OK(segments_[i]->Drop());
  }
  segments_.erase(segments_.begin(), segments_.begin() + closed);

  LogSegment::Config seg_config{config_.index_interval_bytes};
  auto cleaned =
      LogSegment::Open(disk_, cache_, name_prefix_, first_base, seg_config);
  if (!cleaned.ok()) return cleaned.status();
  // Survivors are encoded once; EncodeRecord is deterministic, so the
  // cleaned bytes equal the original frames of the kept records.
  LIQUID_RETURN_NOT_OK(
      (*cleaned)->AppendEncoded(EncodedBatch::Encode(survivors)));
  stats.records_after = static_cast<int64_t>(survivors.size());
  stats.bytes_after = (*cleaned)->size_bytes();
  segments_.insert(segments_.begin(), std::move(cleaned).value());
  start_offset_ = segments_.front()->base_offset();
  return stats;
}

}  // namespace liquid::storage
