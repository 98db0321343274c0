#include "storage/record_batch.h"

#include <utility>

namespace liquid::storage {

EncodedBatch EncodedBatch::Encode(const std::vector<Record>& records) {
  // liquid-lint: allow(hot-alloc): one shared buffer per batch is the encode-once design; reserved to the exact encoded size just below.
  auto buffer = std::make_shared<std::string>();
  size_t total = 0;
  for (const Record& record : records) total += record.EncodedSize();
  buffer->reserve(total);

  std::vector<BatchFrame> frames;
  frames.reserve(records.size());
  for (const Record& record : records) {
    BatchFrame frame;
    frame.offset = record.offset;
    frame.timestamp_ms = record.timestamp_ms;
    frame.leader_epoch = record.leader_epoch;
    frame.producer_id = record.producer_id;
    frame.traced = record.traced();
    frame.is_control = record.is_control;
    frame.pos = buffer->size();
    EncodeRecord(record, buffer.get());
    frame.len = buffer->size() - frame.pos;
    frames.push_back(frame);
  }

  EncodedBatch batch;
  batch.buffer_ = std::move(buffer);
  batch.frames_ = std::move(frames);
  return batch;
}

EncodedBatch EncodedBatch::FromParts(std::shared_ptr<const std::string> buffer,
                                     std::vector<BatchFrame> frames) {
  EncodedBatch batch;
  batch.buffer_ = std::move(buffer);
  batch.frames_ = std::move(frames);
  return batch;
}

size_t EncodedBatch::size_bytes() const {
  if (frames_.empty()) return 0;
  return frames_.back().pos + frames_.back().len - frames_.front().pos;
}

Slice EncodedBatch::bytes() const {
  if (frames_.empty() || buffer_ == nullptr) return Slice();
  return Slice(buffer_->data() + frames_.front().pos, size_bytes());
}

Status EncodedBatch::DecodeAll(std::vector<Record>* out) const {
  out->reserve(out->size() + frames_.size());
  Slice input = bytes();
  while (!input.empty()) {
    Record record;
    LIQUID_RETURN_NOT_OK(DecodeRecord(&input, &record, /*verify_crc=*/false));
    out->push_back(std::move(record));
  }
  return Status::OK();
}

Result<Record> EncodedBatch::DecodeFrame(size_t i) const {
  if (i >= frames_.size()) return Status::OutOfRange("frame index");
  Slice input(buffer_->data() + frames_[i].pos, frames_[i].len);
  Record record;
  LIQUID_RETURN_NOT_OK(DecodeRecord(&input, &record, /*verify_crc=*/false));
  return record;
}

void EncodedBatch::TrimToOffset(int64_t bound) {
  while (!frames_.empty() && frames_.back().offset >= bound) {
    frames_.pop_back();
  }
}

void EncodedBatch::SliceFrom(int64_t offset) {
  size_t keep = 0;
  while (keep < frames_.size() && frames_[keep].offset < offset) ++keep;
  if (keep > 0) frames_.erase(frames_.begin(), frames_.begin() + keep);
}

}  // namespace liquid::storage
