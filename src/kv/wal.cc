#include "kv/wal.h"

#include <algorithm>

#include "common/coding.h"
#include "common/crc32c.h"

namespace liquid::kv {

WriteAheadLog::WriteAheadLog(storage::Disk* disk,
                             std::unique_ptr<storage::File> file,
                             std::string name)
    : disk_(disk), file_(std::move(file)), name_(std::move(name)) {}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    storage::Disk* disk, const std::string& name) {
  auto file = disk->OpenOrCreate(name);
  if (!file.ok()) return file.status();
  return std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(disk, std::move(file).value(), name));
}

Status WriteAheadLog::AppendBatch(std::span<const Entry> entries) {
  // Payload: fixed64 sequence, type byte, two varint32-prefixed strings.
  constexpr size_t kMaxPayloadOverhead = 8 + 1 + 5 + 5;
  constexpr size_t kFrameHeader = 8;  // fixed32 masked CRC, fixed32 length.
  size_t total = 0;
  size_t largest = 0;
  for (const Entry& entry : entries) {
    const size_t bound =
        kMaxPayloadOverhead + entry.key.size() + entry.value.size();
    total += kFrameHeader + bound;
    largest = std::max(largest, bound);
  }
  std::string framed;
  framed.reserve(total);
  std::string payload;
  payload.reserve(largest);
  for (const Entry& entry : entries) {
    payload.clear();
    PutFixed64(&payload, entry.sequence);
    payload.push_back(static_cast<char>(entry.type));
    PutLengthPrefixed(&payload, entry.key);
    PutLengthPrefixed(&payload, entry.value);
    PutFixed32(&framed,
               crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
    PutFixed32(&framed, static_cast<uint32_t>(payload.size()));
    framed.append(payload);
  }
  return file_->Append(framed);
}

Status WriteAheadLog::Replay(const std::function<void(const Entry&)>& fn) const {
  const uint64_t size = file_->Size();
  if (size == 0) return Status::OK();
  std::string bytes;
  LIQUID_RETURN_NOT_OK(file_->ReadAt(0, size, &bytes));
  Slice cursor(bytes);
  while (cursor.size() >= 8) {
    const uint32_t masked_crc = DecodeFixed32(cursor.data());
    const uint32_t length = DecodeFixed32(cursor.data() + 4);
    if (cursor.size() < 8 + static_cast<size_t>(length)) break;  // Torn tail.
    const Slice payload(cursor.data() + 8, length);
    // A complete frame that fails its CRC is not a torn write — something
    // altered bytes we already acknowledged. Surface it.
    if (crc32c::Unmask(masked_crc) !=
        crc32c::Value(payload.data(), payload.size())) {
      return Status::Corruption("wal frame crc mismatch: " + name_);
    }
    Slice body = payload;
    Entry entry;
    uint64_t sequence = 0;
    if (!GetFixed64(&body, &sequence).ok() || body.empty()) {
      return Status::Corruption("wal frame body truncated: " + name_);
    }
    entry.sequence = sequence;
    // An out-of-range type byte is corruption the CRC did not catch (e.g. a
    // bug writing the frame); never materialize an invalid enum value.
    const uint8_t type_byte = static_cast<uint8_t>(body[0]);
    if (type_byte > static_cast<uint8_t>(EntryType::kDelete)) {
      return Status::Corruption("wal entry type invalid: " + name_);
    }
    entry.type = static_cast<EntryType>(type_byte);
    body.RemovePrefix(1);
    Slice key, value;
    if (!GetLengthPrefixed(&body, &key).ok() ||
        !GetLengthPrefixed(&body, &value).ok()) {
      return Status::Corruption("wal entry fields truncated: " + name_);
    }
    entry.key = key.ToString();
    entry.value = value.ToString();
    fn(entry);
    cursor.RemovePrefix(8 + length);
  }
  // Whatever remains is a torn final frame — the expected crash artifact.
  return Status::OK();
}

Status WriteAheadLog::Reset() { return file_->Truncate(0); }

}  // namespace liquid::kv
