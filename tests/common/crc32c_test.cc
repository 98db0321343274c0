#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <random>
#include <string>

namespace liquid {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // Standard CRC32C test vector: "123456789" -> 0xe3069283.
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xe3069283u);
  // All-zero 32 bytes -> 0x8a9136aa (iSCSI test vector).
  std::string zeros(32, '\0');
  EXPECT_EQ(crc32c::Value(zeros.data(), zeros.size()), 0x8a9136aau);
}

TEST(Crc32cTest, EmptyInput) {
  EXPECT_EQ(crc32c::Value("", 0), 0u);
}

TEST(Crc32cTest, DifferentInputsDiffer) {
  EXPECT_NE(crc32c::Value("hello", 5), crc32c::Value("hellp", 5));
  EXPECT_NE(crc32c::Value("hello", 5), crc32c::Value("hell", 4));
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = crc32c::Value(data.data(), data.size());
  for (size_t split : {size_t{0}, size_t{1}, size_t{10}, data.size()}) {
    const uint32_t part1 = crc32c::Value(data.data(), split);
    const uint32_t combined =
        crc32c::Extend(part1, data.data() + split, data.size() - split);
    EXPECT_EQ(combined, whole) << "split=" << split;
  }
}

TEST(Crc32cTest, MaskUnmaskRoundTrip) {
  for (uint32_t crc : {0u, 1u, 0xdeadbeefu, 0xffffffffu, 0xe3069283u}) {
    EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
    EXPECT_NE(crc32c::Mask(crc), crc);  // Masking actually changes the value.
  }
}

TEST(Crc32cTest, SensitiveToEveryByte) {
  std::string data(64, 'a');
  const uint32_t base = crc32c::Value(data.data(), data.size());
  for (size_t i = 0; i < data.size(); i += 7) {
    std::string mutated = data;
    mutated[i] = 'b';
    EXPECT_NE(crc32c::Value(mutated.data(), mutated.size()), base)
        << "flip at " << i;
  }
}

TEST(Crc32cTest, HardwareDispatchWhereverTheCpuHasSse42) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) {
    // A dispatch that silently fell back to the table would pass every
    // value test below and still cost the table loop on every record.
    EXPECT_TRUE(crc32c::IsHardwareAccelerated());
  }
#endif
  EXPECT_EQ(crc32c::IsHardwareAccelerated(),
            crc32c::internal::HardwareExtend() != nullptr);
}

TEST(Crc32cTest, TableMatchesKnownVectors) {
  EXPECT_EQ(crc32c::internal::ExtendTable(0, "123456789", 9), 0xe3069283u);
  std::string zeros(32, '\0');
  EXPECT_EQ(crc32c::internal::ExtendTable(0, zeros.data(), zeros.size()),
            0x8a9136aau);
}

// The hardware path against the table: random lengths 0..4 KiB at every
// start alignment 0..7, whole and split into two Extend calls.
TEST(Crc32cTest, HardwareMatchesTableOverLengthsAlignmentsAndSplits) {
  const crc32c::internal::ExtendFn hardware =
      crc32c::internal::HardwareExtend();
  if (hardware == nullptr) GTEST_SKIP() << "no CRC32C instruction here";
  std::mt19937_64 rng(0x5eed);
  std::string buffer(4096 + 8, '\0');
  for (char& c : buffer) c = static_cast<char>(rng());
  std::uniform_int_distribution<size_t> length_of(0, 4096);
  for (int round = 0; round < 400; ++round) {
    // Every length 0..64 first (all tail shapes), then random ones.
    const size_t n = round <= 64 ? static_cast<size_t>(round) : length_of(rng);
    for (size_t align = 0; align < 8; ++align) {
      const char* data = buffer.data() + align;
      const uint32_t seed = round % 2 == 0 ? 0u : static_cast<uint32_t>(rng());
      const uint32_t want = crc32c::internal::ExtendTable(seed, data, n);
      ASSERT_EQ(hardware(seed, data, n), want)
          << "n=" << n << " align=" << align << " seed=" << seed;
      const size_t split = n == 0 ? 0 : static_cast<size_t>(rng() % (n + 1));
      const uint32_t head = hardware(seed, data, split);
      ASSERT_EQ(hardware(head, data + split, n - split), want)
          << "n=" << n << " align=" << align << " split=" << split;
      ASSERT_EQ(crc32c::Extend(seed, data, n), want);
    }
  }
}

}  // namespace
}  // namespace liquid
