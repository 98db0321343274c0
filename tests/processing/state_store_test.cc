#include "processing/state_store.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "storage/disk.h"

#include "test_util.h"

namespace liquid::processing {
namespace {

/// Drives a ChangelogStore the way a job's commits do: after every
/// `apply_every`-th mutation the dirty set is applied to the inner store
/// (never when 0). The contract tests then see keys that are dirty only,
/// applied only, or a mix of both.
class CommittingStore : public KeyValueStore {
 public:
  CommittingStore(std::unique_ptr<BatchStore> inner, int apply_every)
      : store_(std::move(inner)), apply_every_(apply_every) {}

  Status Put(const Slice& key, const Slice& value) override {
    LIQUID_RETURN_NOT_OK(store_.Put(key, value));
    return AfterMutation();
  }
  Status Delete(const Slice& key) override {
    LIQUID_RETURN_NOT_OK(store_.Delete(key));
    return AfterMutation();
  }
  Result<std::string> Get(const Slice& key) override { return store_.Get(key); }
  Status ForEach(
      const std::function<void(const Slice&, const Slice&)>& fn) override {
    return store_.ForEach(fn);
  }
  Status ForEachInRange(
      const Slice& begin, const Slice& end,
      const std::function<void(const Slice&, const Slice&)>& fn) override {
    return store_.ForEachInRange(begin, end, fn);
  }
  Result<int64_t> Count() override { return store_.Count(); }

 private:
  Status AfterMutation() {
    if (apply_every_ == 0 || ++mutations_ % apply_every_ != 0) {
      return Status::OK();
    }
    return store_.ApplyDirty().status();
  }

  ChangelogStore store_;
  const int apply_every_;
  int mutations_ = 0;
};

/// Every store kind must satisfy the same contract. The write-back kinds
/// put a ChangelogStore over a persistent store and differ in when its
/// dirty keys are applied.
enum class StoreKind {
  kInMemory,
  kPersistent,
  kWriteBackDirty,    // never applied
  kWriteBackApplied,  // applied after every mutation
  kWriteBackMixed,    // applied after every second mutation
};

class StoreContractTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  void SetUp() override {
    if (GetParam() == StoreKind::kInMemory) {
      store_ = std::make_unique<InMemoryStore>();
      return;
    }
    auto opened = PersistentStore::Open(&disk_, "s/", kv::KvOptions{});
    ASSERT_TRUE(opened.ok());
    std::unique_ptr<PersistentStore> persistent = std::move(opened).value();
    switch (GetParam()) {
      case StoreKind::kWriteBackDirty:
        store_ = std::make_unique<CommittingStore>(std::move(persistent), 0);
        break;
      case StoreKind::kWriteBackApplied:
        store_ = std::make_unique<CommittingStore>(std::move(persistent), 1);
        break;
      case StoreKind::kWriteBackMixed:
        store_ = std::make_unique<CommittingStore>(std::move(persistent), 2);
        break;
      default:
        store_ = std::move(persistent);
    }
  }

  storage::MemDisk disk_;
  std::unique_ptr<KeyValueStore> store_;
};

TEST_P(StoreContractTest, PutGetDelete) {
  ASSERT_TRUE(store_->Put("k", "v").ok());
  EXPECT_EQ(*store_->Get("k"), "v");
  ASSERT_TRUE(store_->Delete("k").ok());
  EXPECT_TRUE(store_->Get("k").status().IsNotFound());
}

TEST_P(StoreContractTest, OverwriteKeepsLatest) {
  LIQUID_ASSERT_OK(store_->Put("k", "v1"));
  LIQUID_ASSERT_OK(store_->Put("k", "v2"));
  EXPECT_EQ(*store_->Get("k"), "v2");
  EXPECT_EQ(*store_->Count(), 1);
}

TEST_P(StoreContractTest, ForEachVisitsAllInKeyOrder) {
  LIQUID_ASSERT_OK(store_->Put("b", "2"));
  LIQUID_ASSERT_OK(store_->Put("a", "1"));
  LIQUID_ASSERT_OK(store_->Put("c", "3"));
  std::vector<std::string> keys;
  ASSERT_TRUE(store_
                  ->ForEach([&](const Slice& key, const Slice&) {
                    keys.push_back(key.ToString());
                  })
                  .ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
}

TEST_P(StoreContractTest, RangeScanHonoursBounds) {
  for (const char* key : {"a", "b", "c", "d", "e"}) {
    LIQUID_ASSERT_OK(store_->Put(key, key));
  }
  std::vector<std::string> seen;
  ASSERT_TRUE(store_
                  ->ForEachInRange("b", "d",
                                   [&](const Slice& key, const Slice&) {
                                     seen.push_back(key.ToString());
                                   })
                  .ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"b", "c"}));  // [b, d).
}

TEST_P(StoreContractTest, RangeScanEmptyEndIsUnbounded) {
  for (const char* key : {"a", "b", "c"}) {
    LIQUID_ASSERT_OK(store_->Put(key, key));
  }
  std::vector<std::string> seen;
  ASSERT_TRUE(store_
                  ->ForEachInRange("b", "",
                                   [&](const Slice& key, const Slice&) {
                                     seen.push_back(key.ToString());
                                   })
                  .ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"b", "c"}));
}

TEST_P(StoreContractTest, RangeScanWithEndNotAfterBeginIsEmpty) {
  for (const char* key : {"a", "b", "c", "d"}) {
    LIQUID_ASSERT_OK(store_->Put(key, key));
  }
  int seen = 0;
  auto count = [&](const Slice&, const Slice&) { ++seen; };
  LIQUID_ASSERT_OK(store_->ForEachInRange("c", "b", count));
  LIQUID_ASSERT_OK(store_->ForEachInRange("b", "b", count));
  EXPECT_EQ(seen, 0);
}

TEST_P(StoreContractTest, RangeScanSkipsDeleted) {
  LIQUID_ASSERT_OK(store_->Put("a", "1"));
  LIQUID_ASSERT_OK(store_->Put("b", "2"));
  LIQUID_ASSERT_OK(store_->Delete("a"));
  std::vector<std::string> seen;
  ASSERT_TRUE(store_
                  ->ForEachInRange("", "",
                                   [&](const Slice& key, const Slice&) {
                                     seen.push_back(key.ToString());
                                   })
                  .ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"b"}));
}

TEST_P(StoreContractTest, DeleteMissingIsOk) {
  EXPECT_TRUE(store_->Delete("ghost").ok());
}

TEST_P(StoreContractTest, CountTracksLiveKeys) {
  EXPECT_EQ(*store_->Count(), 0);
  for (int i = 0; i < 10; ++i) {
    LIQUID_ASSERT_OK(store_->Put("k" + std::to_string(i), "v"));
  }
  EXPECT_EQ(*store_->Count(), 10);
  LIQUID_ASSERT_OK(store_->Delete("k3"));
  EXPECT_EQ(*store_->Count(), 9);
}

INSTANTIATE_TEST_SUITE_P(AllStores, StoreContractTest,
                         ::testing::Values(StoreKind::kInMemory,
                                           StoreKind::kPersistent,
                                           StoreKind::kWriteBackDirty,
                                           StoreKind::kWriteBackApplied,
                                           StoreKind::kWriteBackMixed),
                         [](const auto& info) {
                           switch (info.param) {
                             case StoreKind::kInMemory:
                               return "InMemory";
                             case StoreKind::kPersistent:
                               return "Persistent";
                             case StoreKind::kWriteBackDirty:
                               return "WriteBackDirty";
                             case StoreKind::kWriteBackApplied:
                               return "WriteBackApplied";
                             case StoreKind::kWriteBackMixed:
                               return "WriteBackMixed";
                           }
                           return "Unknown";
                         });

TEST(PersistentStoreTest, SurvivesReopen) {
  storage::MemDisk disk;
  {
    auto store = PersistentStore::Open(&disk, "s/", kv::KvOptions{});
    LIQUID_ASSERT_OK((*store)->Put("durable", "yes"));
  }
  auto reopened = PersistentStore::Open(&disk, "s/", kv::KvOptions{});
  EXPECT_EQ(*(*reopened)->Get("durable"), "yes");
}

/// The keys and values of `records`, tombstones as "<deleted>".
std::vector<std::pair<std::string, std::string>> KeyValues(
    const std::vector<storage::Record>& records) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& record : records) {
    out.emplace_back(record.key,
                     record.is_tombstone ? "<deleted>" : record.value);
  }
  return out;
}

/// Everything `store` visits, in order.
std::vector<std::pair<std::string, std::string>> Contents(
    KeyValueStore* store) {
  std::vector<std::pair<std::string, std::string>> out;
  LIQUID_EXPECT_OK(store->ForEach([&](const Slice& key, const Slice& value) {
    out.emplace_back(key.ToString(), value.ToString());
  }));
  return out;
}

TEST(ChangelogStoreTest, MutationsEmitChangelogRecords) {
  // Mutations since the last commit yield one record per key, its latest
  // value or a tombstone, in key order.
  ChangelogStore store(std::make_unique<InMemoryStore>());
  LIQUID_ASSERT_OK(store.Put("k2", "v2"));
  LIQUID_ASSERT_OK(store.Put("k1", "v1"));
  LIQUID_ASSERT_OK(store.Put("k2", "v2b"));
  LIQUID_ASSERT_OK(store.Delete("k1"));
  LIQUID_ASSERT_OK(store.Put("k3", "v3"));
  const std::vector<storage::Record> records = store.DirtyRecords();
  EXPECT_EQ(KeyValues(records),
            (std::vector<std::pair<std::string, std::string>>{
                {"k1", "<deleted>"}, {"k2", "v2b"}, {"k3", "v3"}}));
  EXPECT_TRUE(records[0].is_tombstone);
  EXPECT_EQ(store.dirty_keys(), 3u);

  // A commit applies the set and clears it; the next one starts afresh.
  auto applied = store.ApplyDirty();
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 3u);
  EXPECT_TRUE(store.DirtyRecords().empty());
  LIQUID_ASSERT_OK(store.Put("k2", "v2c"));
  EXPECT_EQ(KeyValues(store.DirtyRecords()),
            (std::vector<std::pair<std::string, std::string>>{{"k2", "v2c"}}));
}

TEST(ChangelogStoreTest, ReadsDoNotEmit) {
  // Reads see the dirty set but neither dirty a key nor write it through.
  auto owned = std::make_unique<InMemoryStore>();
  InMemoryStore* inner = owned.get();
  ChangelogStore store(std::move(owned));
  LIQUID_ASSERT_OK(store.Put("k", "v"));
  EXPECT_EQ(*store.Get("k"), "v");
  EXPECT_TRUE(store.Get("absent").status().IsNotFound());
  EXPECT_EQ(*store.Count(), 1);
  LIQUID_ASSERT_OK(store.ForEach([](const Slice&, const Slice&) {}));
  LIQUID_ASSERT_OK(
      store.ForEachInRange("a", "z", [](const Slice&, const Slice&) {}));
  EXPECT_EQ(store.DirtyRecords().size(), 1u);
  EXPECT_TRUE(inner->Get("k").status().IsNotFound());
  EXPECT_EQ(*inner->Count(), 0);
}

TEST(ChangelogStoreTest, ApplyChangelogRecordRestoresWithoutEmitting) {
  auto owned = std::make_unique<InMemoryStore>();
  InMemoryStore* inner = owned.get();
  ChangelogStore store(std::move(owned));
  LIQUID_ASSERT_OK(
      store.ApplyChangelogRecord(storage::Record::KeyValue("k", "v")));
  EXPECT_EQ(*store.Get("k"), "v");
  EXPECT_EQ(*inner->Get("k"), "v");  // Restored straight into the store.
  EXPECT_TRUE(store.DirtyRecords().empty());
  ASSERT_TRUE(store.ApplyChangelogRecord(storage::Record::Tombstone("k")).ok());
  EXPECT_TRUE(store.Get("k").status().IsNotFound());
  EXPECT_TRUE(store.DirtyRecords().empty());
  EXPECT_EQ(store.dirty_keys(), 0u);
}

TEST(ChangelogStoreTest, ReplayingFullChangelogRebuildsState) {
  // The §3.2 recovery path in miniature: capture the records three commits
  // publish, replay them into a fresh store, require identical contents.
  std::vector<storage::Record> changelog;
  ChangelogStore original(std::make_unique<InMemoryStore>());
  auto commit = [&] {
    for (auto& record : original.DirtyRecords()) {
      changelog.push_back(std::move(record));
    }
    ASSERT_TRUE(original.ApplyDirty().ok());
  };
  LIQUID_ASSERT_OK(original.Put("a", "1"));
  LIQUID_ASSERT_OK(original.Put("b", "2"));
  LIQUID_ASSERT_OK(original.Put("a", "updated"));
  commit();
  LIQUID_ASSERT_OK(original.Delete("b"));
  LIQUID_ASSERT_OK(original.Put("c", "3"));
  commit();
  LIQUID_ASSERT_OK(original.Put("d", "4"));
  LIQUID_ASSERT_OK(original.Delete("d"));
  LIQUID_ASSERT_OK(original.Put("c", "33"));
  commit();
  // One record per key and commit: {a, b}, {b, c}, {c, d}.
  EXPECT_EQ(changelog.size(), 6u);

  ChangelogStore restored(std::make_unique<InMemoryStore>());
  for (const auto& record : changelog) {
    ASSERT_TRUE(restored.ApplyChangelogRecord(record).ok());
  }
  EXPECT_EQ(*restored.Get("a"), "updated");
  EXPECT_TRUE(restored.Get("b").status().IsNotFound());
  EXPECT_EQ(*restored.Get("c"), "33");
  EXPECT_TRUE(restored.Get("d").status().IsNotFound());
  EXPECT_EQ(Contents(&restored), Contents(&original));
  EXPECT_EQ(*restored.Count(), *original.Count());
}

TEST(ChangelogStoreTest, DirtyRecordsCarryTheLatestUpdatesTraceContext) {
  TraceContext current{7, 70, 700};
  ChangelogStore store(std::make_unique<InMemoryStore>(),
                       [&] { return current; });
  LIQUID_ASSERT_OK(store.Put("k", "v1"));
  current = TraceContext{8, 80, 800};
  LIQUID_ASSERT_OK(store.Put("k", "v2"));
  current = TraceContext{};
  LIQUID_ASSERT_OK(store.Delete("gone"));
  const std::vector<storage::Record> records = store.DirtyRecords();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].key, "gone");
  EXPECT_FALSE(records[0].traced());
  EXPECT_EQ(records[1].key, "k");
  EXPECT_EQ(records[1].trace_id, 8u);
  EXPECT_EQ(records[1].span_id, 80u);
  EXPECT_EQ(records[1].ingest_us, 800);
}

/// A ChangelogStore over a persistent store, with keys both applied and
/// dirty: reads must merge the two.
class WriteBackStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto persistent = PersistentStore::Open(&disk_, "s/", kv::KvOptions{});
    ASSERT_TRUE(persistent.ok());
    inner_ = persistent->get();
    store_ = std::make_unique<ChangelogStore>(std::move(persistent).value());
  }

  void Apply() { ASSERT_TRUE(store_->ApplyDirty().ok()); }

  storage::MemDisk disk_;
  PersistentStore* inner_ = nullptr;
  std::unique_ptr<ChangelogStore> store_;
};

TEST_F(WriteBackStoreTest, TombstoneOverAnAppliedKeyHidesIt) {
  LIQUID_ASSERT_OK(store_->Put("a", "1"));
  LIQUID_ASSERT_OK(store_->Put("b", "2"));
  Apply();
  LIQUID_ASSERT_OK(store_->Delete("a"));
  EXPECT_TRUE(store_->Get("a").status().IsNotFound());
  EXPECT_EQ(*inner_->Get("a"), "1");  // Not written through.
  EXPECT_EQ(Contents(store_.get()),
            (std::vector<std::pair<std::string, std::string>>{{"b", "2"}}));
  EXPECT_EQ(*store_->Count(), 1);
  Apply();
  EXPECT_TRUE(inner_->Get("a").status().IsNotFound());
  EXPECT_EQ(*store_->Count(), 1);
}

TEST_F(WriteBackStoreTest, RangeScanInterleavesDirtyAndAppliedKeys) {
  for (const char* key : {"a", "c", "e", "g"}) {
    LIQUID_ASSERT_OK(store_->Put(key, key));
  }
  Apply();
  LIQUID_ASSERT_OK(store_->Put("b", "B"));
  LIQUID_ASSERT_OK(store_->Put("c", "C"));  // Shadows the applied "c".
  LIQUID_ASSERT_OK(store_->Put("d", "D"));
  LIQUID_ASSERT_OK(store_->Delete("e"));
  LIQUID_ASSERT_OK(store_->Put("f", "F"));
  std::vector<std::pair<std::string, std::string>> seen;
  LIQUID_ASSERT_OK(store_->ForEachInRange(
      "b", "g", [&](const Slice& key, const Slice& value) {
        seen.emplace_back(key.ToString(), value.ToString());
      }));
  EXPECT_EQ(seen, (std::vector<std::pair<std::string, std::string>>{
                      {"b", "B"}, {"c", "C"}, {"d", "D"}, {"f", "F"}}));
  EXPECT_EQ(Contents(store_.get()),
            (std::vector<std::pair<std::string, std::string>>{
                {"a", "a"}, {"b", "B"}, {"c", "C"}, {"d", "D"}, {"f", "F"},
                {"g", "g"}}));
  // Applying changes nothing a reader sees.
  const auto before = Contents(store_.get());
  Apply();
  EXPECT_EQ(Contents(store_.get()), before);
  EXPECT_EQ(Contents(inner_), before);
}

TEST_F(WriteBackStoreTest, CountSpansDirtyAndAppliedKeys) {
  LIQUID_ASSERT_OK(store_->Put("a", "1"));
  LIQUID_ASSERT_OK(store_->Put("b", "2"));
  Apply();
  LIQUID_ASSERT_OK(store_->Put("a", "11"));  // Applied key, overwritten.
  LIQUID_ASSERT_OK(store_->Delete("b"));     // Applied key, deleted.
  LIQUID_ASSERT_OK(store_->Put("c", "3"));   // Dirty only.
  LIQUID_ASSERT_OK(store_->Delete("ghost"));  // Deleted, never stored.
  LIQUID_ASSERT_OK(store_->Put("d", "4"));
  LIQUID_ASSERT_OK(store_->Delete("d"));  // Dirty, then deleted.
  EXPECT_EQ(*store_->Count(), 2);  // a, c.
  EXPECT_EQ(*inner_->Count(), 2);  // a, b.
  Apply();
  EXPECT_EQ(*store_->Count(), 2);
  EXPECT_EQ(*inner_->Count(), 2);  // a, c.
}

TEST_F(WriteBackStoreTest, OnlyAppliedKeysSurviveAReopen) {
  for (int i = 0; i < 50; ++i) {
    LIQUID_ASSERT_OK(
        store_->Put("k" + std::to_string(i % 10), std::to_string(i)));
  }
  Apply();
  LIQUID_ASSERT_OK(store_->Put("dirty", "lost"));
  store_.reset();  // A crash drops the dirty set; the kv WAL keeps the rest.
  auto reopened = PersistentStore::Open(&disk_, "s/", kv::KvOptions{});
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*(*reopened)->Count(), 10);
  EXPECT_EQ(*(*reopened)->Get("k3"), "43");
  EXPECT_TRUE((*reopened)->Get("dirty").status().IsNotFound());
}

}  // namespace
}  // namespace liquid::processing
