#ifndef LIQUID_STORAGE_RECORD_BATCH_H_
#define LIQUID_STORAGE_RECORD_BATCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/record.h"

namespace liquid::storage {

/// Framing of one record inside an EncodedBatch buffer: where its bytes live
/// plus the header fields hot paths need (offset clamping, epoch caching,
/// trace sampling) without decoding the payload.
struct BatchFrame {
  int64_t offset = -1;
  int64_t timestamp_ms = 0;
  int32_t leader_epoch = -1;
  int64_t producer_id = kNoProducerId;
  bool traced = false;
  bool is_control = false;
  /// Byte position of the frame inside the batch buffer.
  size_t pos = 0;
  /// Frame length in bytes, including the length prefix.
  size_t len = 0;
};

/// A batch of records encoded once into a shared immutable buffer.
///
/// This is the currency of the broker's encode-once hot path: the leader
/// encodes a produce batch exactly once, appends the same bytes to its own
/// log, forwards them to followers, and serves them to replica fetches —
/// no per-hop re-encode or Record-vector deep copy. Copying an EncodedBatch
/// copies a shared_ptr and a frame vector, never the payload bytes.
///
/// Frames always describe a contiguous span of the buffer, so trimming to a
/// visibility bound (drop trailing frames) and slicing past already-stored
/// offsets (drop leading frames) are O(frames) metadata operations that leave
/// the buffer untouched.
class EncodedBatch {
 public:
  EncodedBatch() = default;

  /// Encodes `records` (offsets/timestamps already assigned) into a fresh
  /// shared buffer.
  static EncodedBatch Encode(const std::vector<Record>& records);

  /// Wraps already-encoded bytes whose framing was parsed elsewhere (e.g.
  /// Log::ReadEncoded). Frames must describe a contiguous ascending span of
  /// `buffer`, and every frame's CRC must already have been checked: the
  /// segment scan that parses frames out of a file verifies each one, and
  /// batches built by Encode are checksummed by construction. That
  /// invariant is what lets DecodeAll and DecodeFrame skip a second check.
  static EncodedBatch FromParts(std::shared_ptr<const std::string> buffer,
                                std::vector<BatchFrame> frames);

  bool empty() const { return frames_.empty(); }
  size_t record_count() const { return frames_.size(); }

  /// Offset of the first record; -1 when empty.
  int64_t base_offset() const {
    return frames_.empty() ? -1 : frames_.front().offset;
  }
  /// Offset of the last record; -1 when empty.
  int64_t last_offset() const {
    return frames_.empty() ? -1 : frames_.back().offset;
  }

  /// Encoded size of the frame span in bytes.
  size_t size_bytes() const;

  /// The contiguous encoded bytes covering exactly the current frames.
  Slice bytes() const;

  const std::vector<BatchFrame>& frames() const { return frames_; }
  const std::shared_ptr<const std::string>& buffer() const { return buffer_; }

  /// Decodes every frame into `out` (appending): the edge where the log's
  /// encoded bytes become Records (consumer poll, state-rebuild scans).
  /// Does not re-check CRCs (see FromParts).
  Status DecodeAll(std::vector<Record>* out) const;

  /// Decodes the i-th frame only (e.g. to re-emit a traced record's span
  /// without materializing the rest of the batch). No CRC re-check either.
  Result<Record> DecodeFrame(size_t i) const;

  /// Drops trailing frames with offset >= bound (visibility clamp: high
  /// watermark or LSO). The buffer is untouched.
  void TrimToOffset(int64_t bound);

  /// Drops leading frames with offset < offset (follower already has them).
  void SliceFrom(int64_t offset);

 private:
  std::shared_ptr<const std::string> buffer_;
  std::vector<BatchFrame> frames_;
};

}  // namespace liquid::storage

#endif  // LIQUID_STORAGE_RECORD_BATCH_H_
