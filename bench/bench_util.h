#ifndef LIQUID_BENCH_BENCH_UTIL_H_
#define LIQUID_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/log.h"
#include "storage/record.h"

namespace liquid::bench {

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

/// Wall-clock stopwatch (microseconds).
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  int64_t ElapsedUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  void Reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Fixed-width table printer for experiment reports.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print(const std::string& title) const {
    std::printf("\n=== %s ===\n", title.c_str());
    std::vector<size_t> widths(headers_.size());
    for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        if (row[i].size() > widths[i]) widths[i] = row[i].size();
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      for (size_t i = 0; i < row.size(); ++i) {
        std::printf("%-*s  ", static_cast<int>(widths[i]), row[i].c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double value, int decimals = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

}  // namespace liquid::bench

#endif  // LIQUID_BENCH_BENCH_UTIL_H_
