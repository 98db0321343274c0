#include "storage/log_segment.h"

#include <algorithm>
#include <cstdio>

#include "common/coding.h"

namespace liquid::storage {

namespace {

std::string SegmentFileName(const std::string& prefix, int64_t base_offset) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020lld", static_cast<long long>(base_offset));
  return prefix + buf + ".log";
}

// Reads in chunks of this size while scanning forward from an index position.
constexpr size_t kScanChunkBytes = 128 * 1024;

// A record frame is never smaller than its fixed header fields (see
// DecodeRecord's minimum-length check); bounds frame-count reservations.
constexpr size_t kMinFrameBytes = 4 + 4 + 8 + 8 + 8 + 4 + 4 + 1 + 2;

// The one parser of the segment file format: length prefix, then the
// CRC-verified header, into a BatchFrame positioned at 0 in `window`.
// Returns OutOfRange when `window` holds only a prefix of the frame; then
// frame->len is the whole frame's size (0 when even the length prefix is
// cut). Corruption when the frame is malformed or fails its CRC.
Status ParseFrame(Slice window, BatchFrame* frame) {
  frame->len = 0;
  if (window.size() < 4) return Status::OutOfRange("frame length cut");
  frame->len = 4 + static_cast<size_t>(DecodeFixed32(window.data()));
  if (window.size() < frame->len) return Status::OutOfRange("frame cut");
  RecordFrameHeader header;
  LIQUID_RETURN_NOT_OK(DecodeRecordHeader(window, &header, /*verify_crc=*/true));
  frame->offset = header.offset;
  frame->timestamp_ms = header.timestamp_ms;
  frame->leader_epoch = header.leader_epoch;
  frame->producer_id = header.producer_id;
  frame->traced = header.traced;
  frame->is_control = header.is_control;
  frame->pos = 0;
  return Status::OK();
}

}  // namespace

LogSegment::LogSegment(Disk* disk, std::unique_ptr<File> file,
                       std::string file_name, int64_t base_offset,
                       const Config& config)
    : disk_(disk),
      file_(std::move(file)),
      file_name_(std::move(file_name)),
      base_offset_(base_offset),
      config_(config),
      next_offset_(base_offset) {}

Result<std::unique_ptr<LogSegment>> LogSegment::Open(
    Disk* disk, PageCache* cache, const std::string& name_prefix,
    int64_t base_offset, const Config& config) {
  const std::string name = SegmentFileName(name_prefix, base_offset);
  auto file_result = disk->OpenOrCreate(name);
  if (!file_result.ok()) return file_result.status();
  std::unique_ptr<File> file = std::move(file_result).value();
  CachedFile* cached = nullptr;
  if (cache != nullptr) {
    // liquid-lint: allow(hot-alloc): one-time segment open on the amortized roll path (once per segment_bytes of appends).
    auto wrapped = std::make_unique<CachedFile>(std::move(file), cache);
    cached = wrapped.get();
    file = std::move(wrapped);
  }
  // liquid-lint: allow(hot-alloc): one-time segment open on the amortized roll path.
  std::unique_ptr<LogSegment> segment(
      new LogSegment(disk, std::move(file), name, base_offset, config));
  segment->cached_file_ = cached;
  LIQUID_RETURN_NOT_OK(segment->Recover());
  return segment;
}

template <typename Visit>
Status LogSegment::ScanFrames(uint64_t pos, uint64_t end, Visit&& visit) const {
  std::string buffer;
  uint64_t buffer_base = pos;  // File position of buffer[0].
  while (pos < end) {
    const uint64_t at = pos - buffer_base;
    const Slice window =
        at < buffer.size()
            ? Slice(buffer.data() + at,
                    static_cast<size_t>(std::min<uint64_t>(buffer.size() - at,
                                                           end - pos)))
            : Slice();
    BatchFrame frame;
    const Status parsed = ParseFrame(window, &frame);
    if (parsed.IsOutOfRange()) {
      // The frame runs past the buffered bytes: refill from its start.
      const size_t need = std::max<size_t>(frame.len, 4);
      if (pos + need > end) {
        return Status::Corruption("segment frame truncated");
      }
      LIQUID_RETURN_NOT_OK(
          file_->ReadAt(pos, std::max(kScanChunkBytes, need), &buffer));
      buffer_base = pos;
      if (buffer.size() < need) {
        return Status::Corruption("segment frame truncated");
      }
      continue;
    }
    LIQUID_RETURN_NOT_OK(parsed);
    frame.pos = pos;
    if (!visit(frame, Slice(window.data(), frame.len))) break;
    pos += frame.len;
  }
  return Status::OK();
}

Status LogSegment::Recover() {
  const uint64_t file_size = file_->Size();
  uint64_t good_end = 0;
  const Status scan = ScanFrames(
      0, file_size, [this, &good_end](const BatchFrame& frame, Slice) {
        MaybeIndex(frame.offset, frame.pos, frame.timestamp_ms, frame.len);
        next_offset_ = frame.offset + 1;
        max_timestamp_ms_ = std::max(max_timestamp_ms_, frame.timestamp_ms);
        good_end = frame.pos + frame.len;
        return true;
      });
  // A torn or corrupt frame ends the segment: truncate it off.
  if (!scan.ok() && !scan.IsCorruption()) return scan;
  end_pos_ = good_end;
  if (good_end < file_size) {
    LIQUID_RETURN_NOT_OK(file_->Truncate(good_end));
  }
  return Status::OK();
}

void LogSegment::MaybeIndex(int64_t offset, uint64_t position,
                            int64_t timestamp_ms, size_t record_bytes) {
  if (index_.empty() || bytes_since_index_ >= config_.index_interval_bytes) {
    index_.push_back(IndexEntry{offset, position});
    if (time_index_.empty() || timestamp_ms > time_index_.back().timestamp_ms) {
      time_index_.push_back(TimeIndexEntry{timestamp_ms, offset});
    }
    bytes_since_index_ = 0;
  }
  bytes_since_index_ += record_bytes;
}

Status LogSegment::AppendEncoded(const EncodedBatch& batch) {
  if (batch.empty()) return Status::OK();
  const Slice bytes = batch.bytes();
  const size_t base_pos = batch.frames().front().pos;
  uint64_t pos = end_pos_;
  for (const BatchFrame& frame : batch.frames()) {
    if (frame.offset < next_offset_) {
      return Status::InvalidArgument("non-monotonic offset in segment append");
    }
    MaybeIndex(frame.offset, pos + (frame.pos - base_pos), frame.timestamp_ms,
               frame.len);
    next_offset_ = frame.offset + 1;
    max_timestamp_ms_ = std::max(max_timestamp_ms_, frame.timestamp_ms);
  }
  LIQUID_RETURN_NOT_OK(file_->Append(bytes));
  end_pos_ = pos + bytes.size();
  return Status::OK();
}

Status LogSegment::Flush(uint64_t target) {
  LIQUID_RETURN_NOT_OK(file_->Sync());
  // One flusher (the log's committer) whose targets only grow: the
  // watermark is monotonic without a CAS. end_pos_ is not read here;
  // appends move it concurrently.
  // order: release pairs with dirty()'s acquire (see the header).
  synced_pos_.store(target, std::memory_order_release);
  return Status::OK();
}

Result<EncodedBatch> LogSegment::ReadEncodedPinned(int64_t from_offset,
                                                   size_t max_bytes) const {
  EncodedBatch none;
  if (cached_file_ == nullptr || from_offset >= next_offset_) return none;
  uint64_t pos = LookupPosition(from_offset);
  const PageCache::PinnedPage pin = cached_file_->Pin(pos);
  if (!pin) return none;
  // The span servable from this pin: the pinned page clamped to committed
  // segment bytes (the cached tail page can run ahead of end_pos_ only in
  // recovery scenarios; never serve past the committed end).
  const uint64_t page_end =
      std::min<uint64_t>(pin.file_offset + pin.bytes->size(), end_pos_);
  std::vector<BatchFrame> frames;
  frames.reserve(
      static_cast<size_t>(page_end > pos ? page_end - pos : 0) / kMinFrameBytes +
      1);
  size_t gathered = 0;
  while (pos < page_end) {
    const size_t in_page = static_cast<size_t>(pos - pin.file_offset);
    BatchFrame frame;
    const Status parsed = ParseFrame(
        Slice(pin.bytes->data() + in_page, static_cast<size_t>(page_end - pos)),
        &frame);
    if (parsed.IsOutOfRange()) break;  // The frame crosses the page edge.
    LIQUID_RETURN_NOT_OK(parsed);
    pos += frame.len;
    if (frame.offset < from_offset) continue;
    if (gathered > 0 && gathered + frame.len > max_bytes) break;
    frame.pos = in_page;
    frames.push_back(frame);
    gathered += frame.len;
    if (gathered >= max_bytes) break;
  }
  // No complete qualifying record inside the pinned page: let the caller
  // fall back to the copying path (which guarantees at least one record).
  if (frames.empty()) return none;
  return EncodedBatch::FromParts(pin.bytes, std::move(frames));
}

LogSegment::ReadSpan LogSegment::SpanFrom(int64_t from_offset) const {
  return ReadSpan{from_offset, LookupPosition(from_offset), end_pos_,
                  next_offset_};
}

Status LogSegment::ReadEncoded(const ReadSpan& span, size_t max_bytes,
                               std::string* buf,
                               std::vector<BatchFrame>* frames) const {
  if (span.from_offset >= span.next_offset) return Status::OK();
  // The gather stops once max_bytes accumulate (or the span ends), so both
  // outputs can be reserved up front instead of regrowing per frame.
  const size_t bound =
      static_cast<size_t>(std::min<uint64_t>(max_bytes, span.end - span.pos));
  buf->reserve(buf->size() + bound);
  frames->reserve(frames->size() + bound / kMinFrameBytes + 1);
  size_t gathered = 0;
  return ScanFrames(span.pos, span.end, [&](BatchFrame frame, Slice bytes) {
    if (frame.offset < span.from_offset) return true;
    if (gathered > 0 && gathered + frame.len > max_bytes) return false;
    frame.pos = buf->size();
    buf->append(bytes.data(), bytes.size());
    frames->push_back(frame);
    gathered += frame.len;
    return gathered < max_bytes;
  });
}

uint64_t LogSegment::LookupPosition(int64_t target_offset) const {
  if (index_.empty()) return 0;
  // Greatest entry with entry.offset <= target_offset.
  auto it = std::upper_bound(
      index_.begin(), index_.end(), target_offset,
      [](int64_t target, const IndexEntry& e) { return target < e.offset; });
  if (it == index_.begin()) return 0;
  --it;
  return it->position;
}

Result<int64_t> LogSegment::OffsetForTimestamp(int64_t ts_ms) const {
  // The sparse time index narrows the scan; frame headers give precision.
  int64_t start = base_offset_;
  auto it = std::upper_bound(time_index_.begin(), time_index_.end(), ts_ms,
                             [](int64_t target, const TimeIndexEntry& e) {
                               return target < e.timestamp_ms;
                             });
  if (it != time_index_.begin()) {
    --it;
    start = it->offset;
  }
  int64_t found = -1;
  LIQUID_RETURN_NOT_OK(ScanFrames(
      LookupPosition(start), end_pos_, [&](const BatchFrame& frame, Slice) {
        if (frame.offset >= start && frame.timestamp_ms >= ts_ms) {
          found = frame.offset;
        }
        return found < 0;
      }));
  if (found < 0) return Status::NotFound("no record at or after timestamp");
  return found;
}

Status LogSegment::Drop() {
  file_.reset();
  return disk_->Remove(file_name_);
}

}  // namespace liquid::storage
