#ifndef LIQUID_COMMON_CRC32C_H_
#define LIQUID_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace liquid::crc32c {

/// Extends `init_crc` with the CRC32C (Castagnoli) of data[0, n). Uses the
/// CPU's CRC32C instruction where there is one (SSE4.2 on x86-64), chosen
/// once on first use, and a bytewise table loop elsewhere.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// Whether Extend runs on the CPU's CRC32C instruction rather than the
/// table loop.
bool IsHardwareAccelerated();

namespace internal {

/// Signature shared by the CRC32C implementations.
using ExtendFn = uint32_t (*)(uint32_t init_crc, const char* data, size_t n);

/// For tests only: the bytewise table implementation, the fallback Extend
/// uses where the CPU has no CRC32C instruction.
uint32_t ExtendTable(uint32_t init_crc, const char* data, size_t n);

/// For tests only: the hardware implementation Extend dispatches to, or
/// nullptr when this build or CPU has none.
ExtendFn HardwareExtend();

}  // namespace internal

/// CRC32C of data[0, n).
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

/// Masked CRC, per the LevelDB/Kafka convention: storing the CRC of data that
/// itself contains CRCs can produce pathological collisions, so stored CRCs
/// are rotated and offset.
inline uint32_t Mask(uint32_t crc) {
  constexpr uint32_t kMaskDelta = 0xa282ead8u;
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

/// Inverse of Mask().
inline uint32_t Unmask(uint32_t masked) {
  constexpr uint32_t kMaskDelta = 0xa282ead8u;
  uint32_t rot = masked - kMaskDelta;
  return (rot << 15) | (rot >> 17);
}

}  // namespace liquid::crc32c

#endif  // LIQUID_COMMON_CRC32C_H_
