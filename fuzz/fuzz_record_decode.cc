/// Fuzz target: commit-log record decode (storage/record.cc).
///
/// The record frame is the log's untrusted input: segment bytes read back from
/// disk pass the same length and CRC checks before any record decodes. Any
/// input must either decode or return a Status — never crash, never read out
/// of bounds. Records that do decode must round-trip through EncodeRecord.

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/slice.h"
#include "storage/record.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  liquid::Slice input(reinterpret_cast<const char*>(data), size);
  liquid::storage::Record record;
  while (true) {
    const liquid::Status st =
        liquid::storage::DecodeRecord(&input, &record, /*verify_crc=*/true);
    if (!st.ok()) break;
    // Round-trip invariant: a frame the decoder accepted re-encodes to a
    // frame that decodes back to the same logical record.
    std::string encoded;
    liquid::storage::EncodeRecord(record, &encoded);
    liquid::Slice again(encoded);
    liquid::storage::Record copy;
    // Trace fields round-trip too. A frame with the traced attribute bit set
    // but trace_id == 0 decodes to a logically untraced record, which
    // re-encodes WITHOUT the trace block — that is still the same logical
    // record, so comparing the decoded fields (not the bytes) is correct.
    if (!liquid::storage::DecodeRecord(&again, &copy, /*verify_crc=*/true)
             .ok() ||
        copy.offset != record.offset || copy.key != record.key ||
        copy.value != record.value || copy.is_tombstone != record.is_tombstone ||
        copy.has_key != record.has_key || copy.is_control != record.is_control ||
        copy.trace_id != record.trace_id ||
        (record.traced() && (copy.span_id != record.span_id ||
                             copy.ingest_us != record.ingest_us))) {
      __builtin_trap();
    }
  }
  return 0;
}
