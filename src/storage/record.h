#ifndef LIQUID_STORAGE_RECORD_H_
#define LIQUID_STORAGE_RECORD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace liquid::storage {

/// Producer identity for idempotent publishing (the "exactly-once effort"
/// the paper mentions in §4.3). kNoProducerId means plain at-least-once.
constexpr int64_t kNoProducerId = -1;

/// A message in the commit log (§3.1 "data is divided into messages").
///
/// Records are keyed (possibly with an absent key), carry a timestamp used
/// for metadata-based access and retention, and may be tombstones (value
/// absent), which log compaction uses to delete keys.
struct Record {
  int64_t offset = -1;  // Assigned by the log on append.
  int64_t timestamp_ms = 0;
  std::string key;
  std::string value;
  bool has_key = true;
  bool is_tombstone = false;
  /// Control records are protocol-internal (transaction commit/abort
  /// markers); they occupy offsets but are never delivered to applications.
  bool is_control = false;

  // Idempotent-producer metadata (optional extension).
  int64_t producer_id = kNoProducerId;
  int32_t sequence = -1;
  /// Written inside a transaction of `producer_id`: the partition leader
  /// stamps it, and a new leader rebuilds its open and aborted transaction
  /// ranges from these records and the control markers.
  bool transactional = false;
  /// Epoch of the leader that appended this record (KIP-101-style log
  /// reconciliation); -1 before a leader stamps it.
  int32_t leader_epoch = -1;

  // Trace context (observability extension; see common/trace.h and
  // OBSERVABILITY.md). Stamped by the producer when the record is sampled
  // and propagated unchanged through replication, the processing layer and
  // changelogs. trace_id == 0 means untraced: the wire encoding then omits
  // the trace block entirely, so untraced records cost no extra bytes.
  uint64_t trace_id = 0;
  /// Span that last touched the record (the parent of the next hop's span).
  uint64_t span_id = 0;
  /// Microseconds when the record first entered the system (producer clock);
  /// end-to-end latency gauges are derived from it.
  int64_t ingest_us = 0;

  bool traced() const { return trace_id != 0; }

  static Record KeyValue(std::string k, std::string v, int64_t ts_ms = 0) {
    Record r;
    r.key = std::move(k);
    r.value = std::move(v);
    r.timestamp_ms = ts_ms;
    return r;
  }

  static Record ValueOnly(std::string v, int64_t ts_ms = 0) {
    Record r;
    r.has_key = false;
    r.value = std::move(v);
    r.timestamp_ms = ts_ms;
    return r;
  }

  static Record Tombstone(std::string k, int64_t ts_ms = 0) {
    Record r;
    r.key = std::move(k);
    r.is_tombstone = true;
    r.timestamp_ms = ts_ms;
    return r;
  }

  /// Transaction end marker for `pid` ("commit" or "abort" in the value).
  static Record ControlMarker(int64_t pid, bool committed) {
    Record r;
    r.has_key = false;
    r.is_control = true;
    r.producer_id = pid;
    r.value = committed ? "commit" : "abort";
    return r;
  }

  /// On-disk size of this record including framing.
  size_t EncodedSize() const;
};

/// Appends the wire encoding of `record` to *dst. Layout:
///   fixed32 length          (bytes after this field)
///   fixed32 crc             (masked CRC32C of everything after this field)
///   fixed64 offset
///   fixed64 timestamp_ms
///   fixed64 producer_id
///   fixed32 sequence
///   fixed32 leader_epoch
///   byte    attributes      (bit0 tombstone, bit1 has_key, bit2 control,
///                            bit3 traced, bit4 transactional)
///   [fixed64 trace_id, fixed64 span_id, fixed64 ingest_us — only when the
///    traced bit is set]
///   varint  key_len,  key bytes
///   varint  value_len, value bytes
void EncodeRecord(const Record& record, std::string* dst);

/// Decodes one record from the front of `input`, advancing past it.
/// Returns Corruption on truncation, or on a CRC mismatch when `verify_crc`
/// is set; OutOfRange if `input` is empty. Pass verify_crc=false only for
/// bytes whose CRC was already checked (see EncodedBatch::FromParts).
Status DecodeRecord(Slice* input, Record* record, bool verify_crc);

/// Framing metadata of one encoded record, parsed without materializing the
/// key/value strings. This is what the shared-buffer (encode-once) paths
/// carry per record: enough to index, split at segment boundaries, clamp to
/// visibility bounds and stamp replication epochs, with the payload bytes
/// staying in the shared immutable buffer.
struct RecordFrameHeader {
  int64_t offset = -1;
  int64_t timestamp_ms = 0;
  int32_t leader_epoch = -1;
  int64_t producer_id = kNoProducerId;
  bool is_control = false;
  bool traced = false;
  /// Total frame size in bytes, including the length prefix.
  size_t encoded_size = 0;
};

/// Parses the framing header of the record at the front of `input` without
/// copying key/value bytes. When `verify_crc` is set the whole frame is
/// checksummed (same Corruption contract as DecodeRecord).
Status DecodeRecordHeader(Slice input, RecordFrameHeader* header,
                          bool verify_crc);

}  // namespace liquid::storage

#endif  // LIQUID_STORAGE_RECORD_H_
