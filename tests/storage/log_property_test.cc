#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "common/clock.h"
#include "common/random.h"
#include "storage/disk.h"
#include "storage/log.h"

#include "read_util.h"

namespace liquid::storage {
namespace {

/// Randomized model test of the commit log: arbitrary interleavings of
/// appends, truncations, retention passes, compactions and reopens must
/// preserve:
///   L1. offsets are unique and strictly increasing in every read;
///   L2. the materialized view (latest record per key) survives compaction;
///   L3. unkeyed records in the retained range are never dropped by
///       compaction;
///   L4. reopening from disk reproduces exactly the same readable content;
///   L5. start_offset <= every served offset < end_offset.
class LogPropertyTest : public ::testing::TestWithParam<uint64_t> {};

std::vector<Record> ReadAll(Log* log) {
  std::vector<Record> out;
  int64_t cursor = log->start_offset();
  while (cursor < log->end_offset()) {
    std::vector<Record> chunk;
    EXPECT_TRUE(ReadRecords(*log, cursor, 1 << 20, &chunk).ok());
    if (chunk.empty()) break;
    out.insert(out.end(), chunk.begin(), chunk.end());
    cursor = chunk.back().offset + 1;
  }
  return out;
}

TEST_P(LogPropertyTest, ModelInvariantsHoldUnderRandomOps) {
  MemDisk disk;
  SimulatedClock clock(1000);
  LogConfig config;
  config.segment_bytes = 2048;
  config.compaction_enabled = true;
  config.retention_ms = 1'000'000;

  auto log_result = Log::Open(&disk, nullptr, "p/", config, &clock);
  ASSERT_TRUE(log_result.ok());
  std::unique_ptr<Log> log = std::move(log_result).value();

  Random rng(GetParam());
  // Reference: latest (offset, value, tombstone) per key.
  std::map<std::string, std::pair<int64_t, std::string>> latest_per_key;
  std::map<int64_t, std::string> unkeyed;  // offset -> value.

  for (int step = 0; step < 300; ++step) {
    const double dice = rng.NextDouble();
    if (dice < 0.60) {
      // Append a small batch (mixed keyed/unkeyed).
      std::vector<Record> batch;
      const int n = 1 + static_cast<int>(rng.Uniform(8));
      for (int i = 0; i < n; ++i) {
        if (rng.Bernoulli(0.8)) {
          batch.push_back(
              Record::KeyValue("key" + std::to_string(rng.Uniform(20)),
                               rng.Bytes(24)));
        } else {
          batch.push_back(Record::ValueOnly(rng.Bytes(24)));
        }
      }
      auto base = log->AppendBatch(&batch);
      ASSERT_TRUE(base.ok());
      for (const Record& record : batch) {
        if (record.has_key) {
          latest_per_key[record.key] = {record.offset, record.value};
        } else {
          unkeyed[record.offset] = record.value;
        }
      }
      clock.AdvanceMs(10);
    } else if (dice < 0.75) {
      auto stats = log->Compact();
      ASSERT_TRUE(stats.ok());
    } else if (dice < 0.85) {
      // Truncate the tail.
      const int64_t end = log->end_offset();
      if (end == 0) continue;
      const int64_t to = static_cast<int64_t>(
          rng.Uniform(static_cast<uint64_t>(end) + 1));
      ASSERT_TRUE(log->Truncate(to).ok());
      // Update the model: everything >= `to` is gone.
      for (auto it = latest_per_key.begin(); it != latest_per_key.end();) {
        if (it->second.first >= to) {
          it = latest_per_key.erase(it);
        } else {
          ++it;
        }
      }
      for (auto it = unkeyed.begin(); it != unkeyed.end();) {
        if (it->first >= to) it = unkeyed.erase(it);
        else ++it;
      }
    } else {
      // Reopen from disk (crash + restart).
      log.reset();
      auto reopened = Log::Open(&disk, nullptr, "p/", config, &clock);
      ASSERT_TRUE(reopened.ok());
      log = std::move(reopened).value();
    }

    if (step % 37 != 0) continue;  // Full validation periodically.
    const auto all = ReadAll(log.get());
    // L1, L5.
    for (size_t i = 0; i < all.size(); ++i) {
      if (i > 0) {
        ASSERT_GT(all[i].offset, all[i - 1].offset);
      }
      ASSERT_GE(all[i].offset, log->start_offset());
      ASSERT_LT(all[i].offset, log->end_offset());
    }
    // L2: latest value per key matches the model.
    std::map<std::string, std::pair<int64_t, std::string>> seen;
    std::map<int64_t, std::string> seen_unkeyed;
    for (const Record& record : all) {
      if (record.has_key) {
        seen[record.key] = {record.offset, record.value};
      } else {
        seen_unkeyed[record.offset] = record.value;
      }
    }
    for (const auto& [key, expected] : latest_per_key) {
      auto it = seen.find(key);
      ASSERT_TRUE(it != seen.end()) << "lost key " << key;
      EXPECT_EQ(it->second.first, expected.first) << key;
      EXPECT_EQ(it->second.second, expected.second) << key;
    }
    // L3: every unkeyed record still present.
    for (const auto& [offset, value] : unkeyed) {
      auto it = seen_unkeyed.find(offset);
      ASSERT_TRUE(it != seen_unkeyed.end()) << "lost unkeyed @" << offset;
      EXPECT_EQ(it->second, value);
    }
  }

  // L4: final reopen reproduces identical content.
  const auto before = ReadAll(log.get());
  log.reset();
  auto reopened = Log::Open(&disk, nullptr, "p/", config, &clock);
  ASSERT_TRUE(reopened.ok());
  const auto after = ReadAll(reopened->get());
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].offset, after[i].offset);
    EXPECT_EQ(before[i].key, after[i].key);
    EXPECT_EQ(before[i].value, after[i].value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogPropertyTest,
                         ::testing::Values(3ull, 17ull, 99ull, 2024ull,
                                           777777ull, 123456789ull));

}  // namespace
}  // namespace liquid::storage
