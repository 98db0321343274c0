#include "storage/record.h"

#include "common/coding.h"
#include "common/crc32c.h"

namespace liquid::storage {

namespace {
constexpr uint8_t kAttrTombstone = 1u << 0;
constexpr uint8_t kAttrHasKey = 1u << 1;
constexpr uint8_t kAttrControl = 1u << 2;
constexpr uint8_t kAttrTraced = 1u << 3;
constexpr uint8_t kAttrTransactional = 1u << 4;
// length + crc + offset + timestamp + producer_id + sequence + leader_epoch
// + attributes
constexpr size_t kHeaderFixedBytes = 4 + 4 + 8 + 8 + 8 + 4 + 4 + 1;
// trace_id + span_id + ingest_us, present only when kAttrTraced is set.
constexpr size_t kTraceBlockBytes = 8 + 8 + 8;

// Framing checks shared by both decoders: the length prefix must cover the
// fixed fields and fit in `input`, and (when asked) the CRC must match. On
// success *body is the CRC-covered span and *length the prefix value.
Status CheckFrame(Slice input, bool verify_crc, uint32_t* length, Slice* body) {
  if (input.empty()) return Status::OutOfRange("no more records");
  if (input.size() < 8) return Status::Corruption("record header truncated");
  LIQUID_RETURN_NOT_OK(GetFixed32(&input, length));
  if (*length < 4 + 8 + 8 + 8 + 4 + 4 + 1 + 2) {
    return Status::Corruption("record length too small");
  }
  if (input.size() < *length) return Status::Corruption("record body truncated");
  uint32_t masked_crc = 0;
  LIQUID_RETURN_NOT_OK(GetFixed32(&input, &masked_crc));
  *body = Slice(input.data(), *length - 4);
  if (verify_crc &&
      crc32c::Unmask(masked_crc) != crc32c::Value(body->data(), body->size())) {
    return Status::Corruption("record crc mismatch");
  }
  return Status::OK();
}

}  // namespace

size_t Record::EncodedSize() const {
  return kHeaderFixedBytes + (traced() ? kTraceBlockBytes : 0) +
         VarintLength(key.size()) + key.size() + VarintLength(value.size()) +
         value.size();
}

void EncodeRecord(const Record& record, std::string* dst) {
  std::string body;
  body.reserve(record.EncodedSize() - 8);
  PutFixed64(&body, static_cast<uint64_t>(record.offset));
  PutFixed64(&body, static_cast<uint64_t>(record.timestamp_ms));
  PutFixed64(&body, static_cast<uint64_t>(record.producer_id));
  PutFixed32(&body, static_cast<uint32_t>(record.sequence));
  PutFixed32(&body, static_cast<uint32_t>(record.leader_epoch));
  uint8_t attrs = 0;
  if (record.is_tombstone) attrs |= kAttrTombstone;
  if (record.has_key) attrs |= kAttrHasKey;
  if (record.is_control) attrs |= kAttrControl;
  if (record.traced()) attrs |= kAttrTraced;
  if (record.transactional) attrs |= kAttrTransactional;
  body.push_back(static_cast<char>(attrs));
  if (record.traced()) {
    PutFixed64(&body, record.trace_id);
    PutFixed64(&body, record.span_id);
    PutFixed64(&body, static_cast<uint64_t>(record.ingest_us));
  }
  PutLengthPrefixed(&body, record.key);
  PutLengthPrefixed(&body, record.value);

  const uint32_t crc = crc32c::Mask(crc32c::Value(body.data(), body.size()));
  PutFixed32(dst, static_cast<uint32_t>(body.size()) + 4);  // +4 for the crc
  PutFixed32(dst, crc);
  // liquid-lint: allow(hot-alloc): copies the reserved body into the batch buffer EncodedBatch::Encode pre-reserved to the exact total size.
  dst->append(body);
}

Status DecodeRecord(Slice* input, Record* record, bool verify_crc) {
  uint32_t length = 0;
  Slice cursor;
  LIQUID_RETURN_NOT_OK(CheckFrame(*input, verify_crc, &length, &cursor));
  uint64_t offset = 0, timestamp = 0, producer_id = 0;
  uint32_t sequence = 0, leader_epoch = 0;
  LIQUID_RETURN_NOT_OK(GetFixed64(&cursor, &offset));
  LIQUID_RETURN_NOT_OK(GetFixed64(&cursor, &timestamp));
  LIQUID_RETURN_NOT_OK(GetFixed64(&cursor, &producer_id));
  LIQUID_RETURN_NOT_OK(GetFixed32(&cursor, &sequence));
  LIQUID_RETURN_NOT_OK(GetFixed32(&cursor, &leader_epoch));
  if (cursor.empty()) return Status::Corruption("record attributes missing");
  const uint8_t attrs = static_cast<uint8_t>(cursor[0]);
  cursor.RemovePrefix(1);
  uint64_t trace_id = 0, span_id = 0, ingest_us = 0;
  if ((attrs & kAttrTraced) != 0) {
    LIQUID_RETURN_NOT_OK(GetFixed64(&cursor, &trace_id));
    LIQUID_RETURN_NOT_OK(GetFixed64(&cursor, &span_id));
    LIQUID_RETURN_NOT_OK(GetFixed64(&cursor, &ingest_us));
  }
  Slice key, value;
  LIQUID_RETURN_NOT_OK(GetLengthPrefixed(&cursor, &key));
  LIQUID_RETURN_NOT_OK(GetLengthPrefixed(&cursor, &value));

  record->offset = static_cast<int64_t>(offset);
  record->timestamp_ms = static_cast<int64_t>(timestamp);
  record->producer_id = static_cast<int64_t>(producer_id);
  record->sequence = static_cast<int32_t>(sequence);
  record->leader_epoch = static_cast<int32_t>(leader_epoch);
  record->is_tombstone = (attrs & kAttrTombstone) != 0;
  record->has_key = (attrs & kAttrHasKey) != 0;
  record->is_control = (attrs & kAttrControl) != 0;
  record->transactional = (attrs & kAttrTransactional) != 0;
  record->trace_id = trace_id;
  record->span_id = span_id;
  record->ingest_us = static_cast<int64_t>(ingest_us);
  record->key = key.ToString();
  record->value = value.ToString();

  input->RemovePrefix(4 + length);
  return Status::OK();
}

Status DecodeRecordHeader(Slice input, RecordFrameHeader* header,
                          bool verify_crc) {
  uint32_t length = 0;
  Slice cursor;
  LIQUID_RETURN_NOT_OK(CheckFrame(input, verify_crc, &length, &cursor));
  uint64_t offset = 0, timestamp = 0, producer_id = 0;
  uint32_t sequence = 0, leader_epoch = 0;
  LIQUID_RETURN_NOT_OK(GetFixed64(&cursor, &offset));
  LIQUID_RETURN_NOT_OK(GetFixed64(&cursor, &timestamp));
  LIQUID_RETURN_NOT_OK(GetFixed64(&cursor, &producer_id));
  LIQUID_RETURN_NOT_OK(GetFixed32(&cursor, &sequence));
  LIQUID_RETURN_NOT_OK(GetFixed32(&cursor, &leader_epoch));
  if (cursor.empty()) return Status::Corruption("record attributes missing");
  const uint8_t attrs = static_cast<uint8_t>(cursor[0]);
  header->offset = static_cast<int64_t>(offset);
  header->timestamp_ms = static_cast<int64_t>(timestamp);
  header->leader_epoch = static_cast<int32_t>(leader_epoch);
  header->producer_id = static_cast<int64_t>(producer_id);
  header->is_control = (attrs & kAttrControl) != 0;
  header->traced = (attrs & kAttrTraced) != 0;
  header->encoded_size = 4 + static_cast<size_t>(length);
  return Status::OK();
}

}  // namespace liquid::storage
