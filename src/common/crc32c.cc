#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace liquid::crc32c {

namespace {

// Table-driven CRC32C (Castagnoli polynomial 0x82f63b78, reflected).
constexpr uint32_t kPoly = 0x82f63b78u;

std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = MakeTable();
  return table;
}

#if defined(__x86_64__)
// The SSE4.2 `crc32` instruction computes the same reflected Castagnoli
// CRC: eight bytes per instruction, then one byte at a time for the tail.
// Only this function is compiled for SSE4.2, so the binary still runs on
// CPUs without it; Choose() calls it only where the CPU reports SSE4.2.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data,
                                                       size_t n) {
  uint64_t crc = init_crc ^ 0xffffffffu;
  while (n >= 8) {
    uint64_t word = 0;
    std::memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
    data += 8;
    n -= 8;
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; --n, ++data) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(*data));
  }
  return crc32 ^ 0xffffffffu;
}
#endif

using internal::ExtendFn;

ExtendFn Choose() {
#if defined(__x86_64__)
  // Extend may run during static initialisation, before the runtime has
  // filled in the CPU model __builtin_cpu_supports reads.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return &ExtendSse42;
#endif
  return &internal::ExtendTable;
}

// Chosen on first use; a function-local static is initialised exactly once,
// thread-safely, even when the first use is another static's constructor.
ExtendFn Chosen() {
  static const ExtendFn chosen = Choose();
  return chosen;
}

}  // namespace

namespace internal {

uint32_t ExtendTable(uint32_t init_crc, const char* data, size_t n) {
  const auto& table = Table();
  uint32_t crc = init_crc ^ 0xffffffffu;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

ExtendFn HardwareExtend() {
  const ExtendFn chosen = Chosen();
  return chosen == &ExtendTable ? nullptr : chosen;
}

}  // namespace internal

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  return Chosen()(init_crc, data, n);
}

bool IsHardwareAccelerated() { return internal::HardwareExtend() != nullptr; }

}  // namespace liquid::crc32c
