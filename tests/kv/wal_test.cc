#include "kv/wal.h"

#include <gtest/gtest.h>

#include <vector>

#include "storage/disk.h"

#include "test_util.h"

namespace liquid::kv {
namespace {

Entry MakeEntry(const std::string& key, const std::string& value, uint64_t seq,
                EntryType type = EntryType::kPut) {
  Entry e;
  e.key = key;
  e.value = value;
  e.sequence = seq;
  e.type = type;
  return e;
}

class WalTest : public ::testing::Test {
 protected:
  storage::MemDisk disk_;
};

TEST_F(WalTest, AppendAndReplayInOrder) {
  auto wal = WriteAheadLog::Open(&disk_, "WAL");
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        (*wal)->Append(MakeEntry("k" + std::to_string(i), "v", i + 1)).ok());
  }
  std::vector<Entry> replayed;
  ASSERT_TRUE((*wal)->Replay([&](const Entry& e) { replayed.push_back(e); }).ok());
  ASSERT_EQ(replayed.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(replayed[i].key, "k" + std::to_string(i));
    EXPECT_EQ(replayed[i].sequence, static_cast<uint64_t>(i + 1));
  }
}

TEST_F(WalTest, AppendBatchWritesTheSameFramesInOneWrite) {
  // A batch is the frames of its entries, byte for byte, so replay and
  // torn-tail handling need nothing new.
  const std::vector<Entry> entries{MakeEntry("a", "1", 1),
                                   MakeEntry("b", "", 2, EntryType::kDelete),
                                   MakeEntry("c", "3", 3)};
  auto singles = WriteAheadLog::Open(&disk_, "WAL-singles");
  for (const Entry& entry : entries) LIQUID_ASSERT_OK((*singles)->Append(entry));
  auto batched = WriteAheadLog::Open(&disk_, "WAL-batched");
  const int64_t written_before = disk_.bytes_written();
  LIQUID_ASSERT_OK((*batched)->AppendBatch(entries));
  EXPECT_EQ(disk_.bytes_written() - written_before,
            static_cast<int64_t>((*batched)->size_bytes()));

  auto bytes = [&](const std::string& name) {
    auto file = disk_.OpenOrCreate(name);
    std::string out;
    EXPECT_TRUE((*file)->ReadAt(0, (*file)->Size(), &out).ok());
    return out;
  };
  EXPECT_EQ(bytes("WAL-batched"), bytes("WAL-singles"));
  std::vector<Entry> replayed;
  LIQUID_ASSERT_OK(
      (*batched)->Replay([&](const Entry& e) { replayed.push_back(e); }));
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(replayed[1].key, "b");
  EXPECT_EQ(replayed[1].type, EntryType::kDelete);
  EXPECT_EQ(replayed[2].sequence, 3u);
}

TEST_F(WalTest, ReplayAfterReopen) {
  {
    auto wal = WriteAheadLog::Open(&disk_, "WAL");
    LIQUID_ASSERT_OK((*wal)->Append(MakeEntry("persist", "value", 1)));
  }
  auto wal = WriteAheadLog::Open(&disk_, "WAL");
  int count = 0;
  LIQUID_ASSERT_OK((*wal)->Replay([&](const Entry& e) {
    EXPECT_EQ(e.key, "persist");
    ++count;
  }));
  EXPECT_EQ(count, 1);
}

TEST_F(WalTest, DeletesReplayWithType) {
  auto wal = WriteAheadLog::Open(&disk_, "WAL");
  LIQUID_ASSERT_OK((*wal)->Append(MakeEntry("k", "v", 1)));
  LIQUID_ASSERT_OK((*wal)->Append(MakeEntry("k", "", 2, EntryType::kDelete)));
  std::vector<Entry> replayed;
  LIQUID_ASSERT_OK((*wal)->Replay([&](const Entry& e) { replayed.push_back(e); }));
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].type, EntryType::kPut);
  EXPECT_EQ(replayed[1].type, EntryType::kDelete);
}

TEST_F(WalTest, TornTailIgnored) {
  auto wal = WriteAheadLog::Open(&disk_, "WAL");
  LIQUID_ASSERT_OK((*wal)->Append(MakeEntry("good", "v", 1)));
  LIQUID_ASSERT_OK((*wal)->Append(MakeEntry("alsogood", "v", 2)));
  // Simulate a crash mid-write: chop bytes off the end.
  auto file = disk_.OpenOrCreate("WAL");
  LIQUID_ASSERT_OK((*file)->Truncate((*file)->Size() - 4));

  auto reopened = WriteAheadLog::Open(&disk_, "WAL");
  std::vector<Entry> replayed;
  ASSERT_TRUE(
      (*reopened)->Replay([&](const Entry& e) { replayed.push_back(e); }).ok());
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].key, "good");
}

TEST_F(WalTest, BitFlippedCompleteFrameIsCorruption) {
  auto wal = WriteAheadLog::Open(&disk_, "WAL");
  LIQUID_ASSERT_OK((*wal)->Append(MakeEntry("first", "v", 1)));
  const uint64_t intact = (*wal)->size_bytes();
  LIQUID_ASSERT_OK((*wal)->Append(MakeEntry("second", "v", 2)));
  // Flip a byte inside the second record's payload. Unlike a torn tail, the
  // frame is complete, so this is bit rot on acknowledged data — replay must
  // report it instead of silently dropping the write.
  auto file = disk_.OpenOrCreate("WAL");
  std::string bytes;
  LIQUID_ASSERT_OK((*file)->ReadAt(0, (*file)->Size(), &bytes));
  bytes[intact + 10] ^= 0x40;
  LIQUID_ASSERT_OK((*file)->Truncate(0));
  LIQUID_ASSERT_OK((*file)->Append(bytes));

  int count = 0;
  const Status replay = (*wal)->Replay([&](const Entry&) { ++count; });
  EXPECT_TRUE(replay.IsCorruption()) << replay.ToString();
  EXPECT_EQ(count, 1);  // The intact prefix was still delivered.
}

TEST_F(WalTest, TruncatedTailReplaysIntactPrefixCleanly) {
  auto wal = WriteAheadLog::Open(&disk_, "WAL");
  LIQUID_ASSERT_OK((*wal)->Append(MakeEntry("acked", "v", 1)));
  LIQUID_ASSERT_OK((*wal)->Append(MakeEntry("torn", "v", 2)));
  // Chop a single byte: the final frame is incomplete, which is exactly what
  // a crash mid-Append leaves behind. That must NOT read as corruption.
  auto file = disk_.OpenOrCreate("WAL");
  LIQUID_ASSERT_OK((*file)->Truncate((*file)->Size() - 1));

  std::vector<Entry> replayed;
  LIQUID_ASSERT_OK(
      (*wal)->Replay([&](const Entry& e) { replayed.push_back(e); }));
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].key, "acked");
}

TEST_F(WalTest, ResetEmptiesLog) {
  auto wal = WriteAheadLog::Open(&disk_, "WAL");
  LIQUID_ASSERT_OK((*wal)->Append(MakeEntry("k", "v", 1)));
  EXPECT_GT((*wal)->size_bytes(), 0u);
  ASSERT_TRUE((*wal)->Reset().ok());
  EXPECT_EQ((*wal)->size_bytes(), 0u);
  int count = 0;
  LIQUID_ASSERT_OK((*wal)->Replay([&](const Entry&) { ++count; }));
  EXPECT_EQ(count, 0);
}

TEST_F(WalTest, EmptyValuesAndKeys) {
  auto wal = WriteAheadLog::Open(&disk_, "WAL");
  LIQUID_ASSERT_OK((*wal)->Append(MakeEntry("", "", 1)));
  int count = 0;
  LIQUID_ASSERT_OK((*wal)->Replay([&](const Entry& e) {
    EXPECT_TRUE(e.key.empty());
    EXPECT_TRUE(e.value.empty());
    ++count;
  }));
  EXPECT_EQ(count, 1);
}

}  // namespace
}  // namespace liquid::kv
