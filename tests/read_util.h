#ifndef LIQUID_TESTS_READ_UTIL_H_
#define LIQUID_TESTS_READ_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.h"
#include "messaging/metadata.h"
#include "storage/log.h"
#include "storage/record.h"
#include "storage/record_batch.h"

namespace liquid {

/// Decodes `log`'s records from `offset` on into `out` (appending): the
/// budgeted gather Broker::Fetch runs (Log::ReadEncodedRange, up to the log
/// end), each batch decoded with EncodedBatch::DecodeAll.
inline Status ReadRecords(const storage::Log& log, int64_t offset,
                          size_t max_bytes, std::vector<storage::Record>* out) {
  std::vector<storage::EncodedBatch> batches;
  LIQUID_RETURN_NOT_OK(
      log.ReadEncodedRange(offset, std::numeric_limits<int64_t>::max(),
                           max_bytes, &batches)
          .status());
  for (const storage::EncodedBatch& batch : batches) {
    LIQUID_RETURN_NOT_OK(batch.DecodeAll(out));
  }
  return Status::OK();
}

/// The records a consumer application sees in `resp`
/// (FetchResponse::DecodeRecords); a decode error fails the test.
inline std::vector<storage::Record> Decoded(
    const messaging::FetchResponse& resp) {
  std::vector<storage::Record> records;
  const Status st = resp.DecodeRecords(&records);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return records;
}

}  // namespace liquid

#endif  // LIQUID_TESTS_READ_UTIL_H_
