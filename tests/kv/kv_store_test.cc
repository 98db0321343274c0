#include "kv/kv_store.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "common/random.h"
#include "storage/disk.h"

#include "test_util.h"

namespace liquid::kv {
namespace {

class KvStoreTest : public ::testing::Test {
 protected:
  std::unique_ptr<KvStore> OpenStore(KvOptions options = SmallOptions()) {
    auto store = KvStore::Open(&disk_, "db/", options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return std::move(store).value();
  }

  static KvOptions SmallOptions() {
    KvOptions options;
    options.memtable_bytes = 1024;  // Flush often to exercise the LSM.
    options.l0_compaction_trigger = 3;
    options.block_size = 256;
    return options;
  }

  storage::MemDisk disk_;
};

TEST_F(KvStoreTest, PutGetDelete) {
  auto store = OpenStore();
  ASSERT_TRUE(store->Put("k", "v").ok());
  EXPECT_EQ(*store->Get("k"), "v");
  ASSERT_TRUE(store->Delete("k").ok());
  EXPECT_TRUE(store->Get("k").status().IsNotFound());
}

TEST_F(KvStoreTest, OverwriteKeepsLatest) {
  auto store = OpenStore();
  LIQUID_ASSERT_OK(store->Put("k", "v1"));
  LIQUID_ASSERT_OK(store->Put("k", "v2"));
  LIQUID_ASSERT_OK(store->Put("k", "v3"));
  EXPECT_EQ(*store->Get("k"), "v3");
}

TEST_F(KvStoreTest, GetMissingIsNotFound) {
  auto store = OpenStore();
  EXPECT_TRUE(store->Get("never").status().IsNotFound());
}

TEST_F(KvStoreTest, SurvivesFlushAndLookupFromTables) {
  auto store = OpenStore();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store->Put("key" + std::to_string(i), "val" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_EQ(store->memtable_size_bytes(), 0u);
  EXPECT_GT(store->l0_table_count() + store->l1_table_count(), 0);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(*store->Get("key" + std::to_string(i)), "val" + std::to_string(i));
  }
}

TEST_F(KvStoreTest, DeleteShadowsOlderTableVersion) {
  auto store = OpenStore();
  LIQUID_ASSERT_OK(store->Put("k", "old"));
  LIQUID_ASSERT_OK(store->Flush());  // "old" now in a table.
  LIQUID_ASSERT_OK(store->Delete("k"));
  EXPECT_TRUE(store->Get("k").status().IsNotFound());
  LIQUID_ASSERT_OK(store->Flush());  // Tombstone now in a newer table.
  EXPECT_TRUE(store->Get("k").status().IsNotFound());
}

TEST_F(KvStoreTest, NewerTableShadowsOlder) {
  auto store = OpenStore();
  LIQUID_ASSERT_OK(store->Put("k", "v1"));
  LIQUID_ASSERT_OK(store->Flush());
  LIQUID_ASSERT_OK(store->Put("k", "v2"));
  LIQUID_ASSERT_OK(store->Flush());
  EXPECT_EQ(store->l0_table_count(), 2);
  EXPECT_EQ(*store->Get("k"), "v2");
}

TEST_F(KvStoreTest, CompactionMergesAndDropsTombstones) {
  auto store = OpenStore();
  for (int i = 0; i < 100; ++i) {
    LIQUID_ASSERT_OK(store->Put("k" + std::to_string(i), "v"));
  }
  LIQUID_ASSERT_OK(store->Flush());
  for (int i = 0; i < 50; ++i) {
    LIQUID_ASSERT_OK(store->Delete("k" + std::to_string(i)));
  }
  LIQUID_ASSERT_OK(store->Flush());
  ASSERT_TRUE(store->CompactAll().ok());
  EXPECT_EQ(store->l0_table_count(), 0);
  EXPECT_GE(store->l1_table_count(), 1);
  EXPECT_EQ(*store->CountLiveKeys(), 50);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(store->Get("k" + std::to_string(i)).status().IsNotFound());
  }
  for (int i = 50; i < 100; ++i) {
    EXPECT_TRUE(store->Get("k" + std::to_string(i)).ok());
  }
}

TEST_F(KvStoreTest, AutomaticFlushAndCompactionUnderLoad) {
  auto store = OpenStore();
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        store->Put("key" + std::to_string(i % 300), std::string(32, 'x')).ok());
  }
  // The trigger keeps L0 bounded.
  EXPECT_LE(store->l0_table_count(), SmallOptions().l0_compaction_trigger);
  for (int i = 0; i < 300; ++i) {
    EXPECT_TRUE(store->Get("key" + std::to_string(i)).ok()) << i;
  }
}

TEST_F(KvStoreTest, RecoveryFromWalAfterCrash) {
  {
    auto store = OpenStore();
    LIQUID_ASSERT_OK(store->Put("durable", "yes"));
    LIQUID_ASSERT_OK(store->Put("also", "this"));
    // No flush: data only in WAL + memtable. "Crash" = drop the object.
  }
  auto reopened = OpenStore();
  EXPECT_EQ(*reopened->Get("durable"), "yes");
  EXPECT_EQ(*reopened->Get("also"), "this");
}

TEST_F(KvStoreTest, WriteBatchAppliesInOrderAndRecoversFromWal) {
  {
    auto store = OpenStore();
    LIQUID_ASSERT_OK(store->Put("old", "gone-soon"));
    WriteBatch batch;
    batch.Put("a", "1");
    batch.Put("b", "2");
    batch.Delete("a");
    batch.Put("b", "22");  // The later mutation of a key wins.
    batch.Delete("old");
    batch.Put("c", "3");
    EXPECT_EQ(batch.entries().size(), 6u);
    LIQUID_ASSERT_OK(store->Write(std::move(batch)));
    EXPECT_TRUE(store->Get("a").status().IsNotFound());
    EXPECT_EQ(*store->Get("b"), "22");
    EXPECT_TRUE(store->Get("old").status().IsNotFound());
    LIQUID_ASSERT_OK(store->Write(WriteBatch{}));  // Empty: a no-op.
  }
  auto reopened = OpenStore();
  EXPECT_TRUE(reopened->Get("a").status().IsNotFound());
  EXPECT_EQ(*reopened->Get("b"), "22");
  EXPECT_EQ(*reopened->Get("c"), "3");
  EXPECT_TRUE(reopened->Get("old").status().IsNotFound());
  EXPECT_EQ(*reopened->CountLiveKeys(), 2);
}

TEST_F(KvStoreTest, WriteBatchLargerThanTheMemtableFlushes) {
  auto store = OpenStore();  // 1 KiB memtable.
  WriteBatch batch;
  for (int i = 0; i < 200; ++i) {
    batch.Put("key" + std::to_string(i), "value" + std::to_string(i));
  }
  LIQUID_ASSERT_OK(store->Write(std::move(batch)));
  EXPECT_GE(store->l0_table_count() + store->l1_table_count(), 1);
  EXPECT_EQ(*store->CountLiveKeys(), 200);
  EXPECT_EQ(*store->Get("key150"), "value150");
}

TEST_F(KvStoreTest, RecoveryFromManifestAndTables) {
  {
    auto store = OpenStore();
    for (int i = 0; i < 500; ++i) {
      LIQUID_ASSERT_OK(store->Put("key" + std::to_string(i), "v" + std::to_string(i)));
    }
    LIQUID_ASSERT_OK(store->Flush());
    LIQUID_ASSERT_OK(store->CompactAll());
    LIQUID_ASSERT_OK(store->Put("in-wal", "tail"));
  }
  auto reopened = OpenStore();
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(*reopened->Get("key" + std::to_string(i)), "v" + std::to_string(i));
  }
  EXPECT_EQ(*reopened->Get("in-wal"), "tail");
}

TEST_F(KvStoreTest, DeleteSurvivesRecovery) {
  {
    auto store = OpenStore();
    LIQUID_ASSERT_OK(store->Put("k", "v"));
    LIQUID_ASSERT_OK(store->Flush());
    LIQUID_ASSERT_OK(store->Delete("k"));
  }
  auto reopened = OpenStore();
  EXPECT_TRUE(reopened->Get("k").status().IsNotFound());
}

TEST_F(KvStoreTest, ForEachVisitsLiveKeysInOrder) {
  auto store = OpenStore();
  LIQUID_ASSERT_OK(store->Put("c", "3"));
  LIQUID_ASSERT_OK(store->Put("a", "1"));
  LIQUID_ASSERT_OK(store->Put("b", "2"));
  LIQUID_ASSERT_OK(store->Put("d", "4"));
  LIQUID_ASSERT_OK(store->Delete("b"));
  LIQUID_ASSERT_OK(store->Flush());
  LIQUID_ASSERT_OK(store->Put("e", "5"));  // Mixed: tables + memtable.
  std::vector<std::string> keys;
  ASSERT_TRUE(store
                  ->ForEach([&](const Slice& key, const Slice&) {
                    keys.push_back(key.ToString());
                  })
                  .ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "c", "d", "e"}));
}

TEST_F(KvStoreTest, RandomizedAgainstReferenceMap) {
  auto store = OpenStore();
  std::map<std::string, std::string> reference;
  Random rng(2024);
  for (int op = 0; op < 3000; ++op) {
    const std::string key = "k" + std::to_string(rng.Uniform(200));
    if (rng.Bernoulli(0.25)) {
      LIQUID_ASSERT_OK(store->Delete(key));
      reference.erase(key);
    } else {
      const std::string value = rng.Bytes(16);
      LIQUID_ASSERT_OK(store->Put(key, value));
      reference[key] = value;
    }
    if (rng.Bernoulli(0.01)) LIQUID_ASSERT_OK(store->Flush());
    if (rng.Bernoulli(0.005)) LIQUID_ASSERT_OK(store->CompactAll());
  }
  for (const auto& [key, value] : reference) {
    auto got = store->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value);
  }
  EXPECT_EQ(*store->CountLiveKeys(), static_cast<int64_t>(reference.size()));
}

TEST_F(KvStoreTest, RandomizedSurvivesReopen) {
  std::map<std::string, std::string> reference;
  {
    auto store = OpenStore();
    Random rng(99);
    for (int op = 0; op < 1500; ++op) {
      const std::string key = "k" + std::to_string(rng.Uniform(100));
      if (rng.Bernoulli(0.2)) {
        LIQUID_ASSERT_OK(store->Delete(key));
        reference.erase(key);
      } else {
        const std::string value = rng.Bytes(8);
        LIQUID_ASSERT_OK(store->Put(key, value));
        reference[key] = value;
      }
    }
  }
  auto reopened = OpenStore();
  for (const auto& [key, value] : reference) {
    auto got = reopened->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value);
  }
}

TEST_F(KvStoreTest, RangeScanAcrossLevels) {
  auto store = OpenStore();
  // Spread keys over L1, L0 and the memtable.
  for (int i = 0; i < 30; ++i) {
    LIQUID_ASSERT_OK(store->Put("key" + std::string(1, static_cast<char>('a' + i % 26)), "v"));
  }
  LIQUID_ASSERT_OK(store->Flush());
  LIQUID_ASSERT_OK(store->CompactAll());  // -> L1
  LIQUID_ASSERT_OK(store->Put("keyb", "updated"));  // memtable shadows L1
  LIQUID_ASSERT_OK(store->Delete("keyc"));
  LIQUID_ASSERT_OK(store->Flush());  // -> L0

  std::vector<std::string> keys;
  std::map<std::string, std::string> values;
  ASSERT_TRUE(store
                  ->ForEachInRange("keya", "keye",
                                   [&](const Slice& key, const Slice& value) {
                                     keys.push_back(key.ToString());
                                     values[key.ToString()] = value.ToString();
                                   })
                  .ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"keya", "keyb", "keyd"}));
  EXPECT_EQ(values["keyb"], "updated");  // Newest version wins.
}

TEST_F(KvStoreTest, ApproximateSizeGrows) {
  auto store = OpenStore();
  auto empty = store->ApproximateSizeBytes();
  for (int i = 0; i < 100; ++i) {
    LIQUID_ASSERT_OK(store->Put("k" + std::to_string(i), std::string(32, 'x')));
  }
  auto full = store->ApproximateSizeBytes();
  EXPECT_GT(*full, *empty);
}

}  // namespace
}  // namespace liquid::kv
