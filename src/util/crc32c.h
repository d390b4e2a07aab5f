#ifndef MMDB_UTIL_CRC32C_H_
#define MMDB_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mmdb {
namespace crc32c {

// CRC-32C (Castagnoli), three implementations with bit-identical results:
//
//  * Extend — the production entry point. On first use it resolves, once,
//    to the fastest kernel the host supports: on x86-64 with SSE4.2 (checked
//    at run time with __builtin_cpu_supports, so the build needs no
//    -msse4.2) the `crc32` instruction kernel, which folds 8 bytes per
//    instruction and, for inputs of at least 3 KiB (a 32 KiB backup
//    segment, a log scan), runs three independent lanes over consecutive
//    1 KiB blocks spliced with a "feed 1024 zero bytes" table — about 10x
//    slice-by-8 on segments and 3-4x on ~150-byte WAL frames. Everywhere
//    else it runs ExtendPortable.
//  * ExtendPortable — slice-by-8 table C++, no intrinsics: the fallback,
//    tested and benchmarked on every host.
//  * ExtendBytewise — the classic byte-at-a-time table loop: the reference
//    both kernels are verified against (util_test) and benchmarked beside
//    (micro_engine); not for production call sites.
//
// Each returns the CRC of data[0..n-1], continuing from `init_crc` (the CRC
// of a preceding byte stretch, or 0 to start fresh).
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);
uint32_t ExtendBytewise(uint32_t init_crc, const char* data, size_t n);

// The kernel Extend dispatches to: "sse4.2" or "portable".
const char* KernelName();

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }
inline uint32_t Value(std::string_view s) { return Extend(0, s.data(), s.size()); }

// Masking (as in LevelDB): storing the CRC of data that itself embeds CRCs
// is error-prone; the mask permutes the value so nested CRCs stay distinct.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}

inline uint32_t Unmask(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace crc32c
}  // namespace mmdb

#endif  // MMDB_UTIL_CRC32C_H_
