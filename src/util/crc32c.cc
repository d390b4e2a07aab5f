#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace mmdb {
namespace crc32c {
namespace {

// CRC-32C polynomial, reflected.
constexpr uint32_t kPoly = 0x82f63b78u;

// Slice-by-8 (Intel's "slicing-by-8" technique, pure table C++ — no
// intrinsics): table[0] is the classic byte-at-a-time table; table[k][b]
// is the CRC contribution of byte b seen k positions earlier in the
// 8-byte block, so one loop iteration folds 8 input bytes with 8 table
// lookups and two 32-bit loads instead of 8 dependent byte steps.
struct Tables {
  std::array<std::array<uint32_t, 256>, 8> t;
};

Tables MakeTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables.t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = tables.t[0][i];
    for (int k = 1; k < 8; ++k) {
      crc = tables.t[0][crc & 0xff] ^ (crc >> 8);
      tables.t[k][i] = crc;
    }
  }
  return tables;
}

const Tables& SlicedTables() {
  static const Tables tables = MakeTables();
  return tables;
}

inline uint32_t LoadLE32(const char* p) {
  // Byte-shift assembly keeps the kernel endian-independent; compilers
  // collapse it to a single load on little-endian targets.
  const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

#if defined(__x86_64__)

// Bytes each of the three interleaved lanes folds per round.
constexpr size_t kLaneBytes = 1024;

// The CRC register update with a zero input byte is linear over GF(2), so
// "feed kLaneBytes zero bytes" is a 32x32 bit matrix. shift[k][b] is that
// operator applied to byte b placed at bit 8k of the register; XORing the
// four lookups applies it to a whole register.
struct ShiftTable {
  std::array<std::array<uint32_t, 256>, 4> t;
};

ShiftTable MakeShiftTable() {
  const auto& t0 = SlicedTables().t[0];
  // The operator on each of the 32 basis registers, then every byte value
  // as the XOR of its set bits' images.
  std::array<uint32_t, 32> basis{};
  for (int bit = 0; bit < 32; ++bit) {
    uint32_t crc = 1u << bit;
    for (size_t i = 0; i < kLaneBytes; ++i) crc = t0[crc & 0xff] ^ (crc >> 8);
    basis[bit] = crc;
  }
  ShiftTable shift{};
  for (int k = 0; k < 4; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      uint32_t v = 0;
      for (int bit = 0; bit < 8; ++bit) {
        if ((b >> bit) & 1) v ^= basis[8 * k + bit];
      }
      shift.t[k][b] = v;
    }
  }
  return shift;
}

inline uint32_t Shift(const ShiftTable& s, uint32_t crc) {
  return s.t[0][crc & 0xff] ^ s.t[1][(crc >> 8) & 0xff] ^
         s.t[2][(crc >> 16) & 0xff] ^ s.t[3][crc >> 24];
}

__attribute__((target("sse4.2"))) inline uint64_t Fold8(uint64_t crc,
                                                        const char* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));  // unaligned-safe load
  return _mm_crc32_u64(crc, word);
}

// The SSE4.2 `crc32` instruction computes exactly this polynomial. It has a
// 3-cycle latency but issues once per cycle, so one dependent chain leaves
// two thirds of the unit idle: long inputs run three independent lanes over
// consecutive kLaneBytes blocks and splice them with the zero-feed operator
// (crc(a||b) = Shift(crc(a)) ^ crc_from_zero(b) on the raw register).
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data,
                                                       size_t n) {
  uint64_t crc = init_crc ^ 0xffffffffu;
  while (n >= 3 * kLaneBytes) {
    static const ShiftTable shift = MakeShiftTable();
    uint64_t a = crc;
    uint64_t b = 0;
    uint64_t c = 0;
    for (size_t i = 0; i < kLaneBytes; i += 8) {
      a = Fold8(a, data + i);
      b = Fold8(b, data + kLaneBytes + i);
      c = Fold8(c, data + 2 * kLaneBytes + i);
    }
    const uint32_t ab =
        Shift(shift, static_cast<uint32_t>(a)) ^ static_cast<uint32_t>(b);
    crc = Shift(shift, ab) ^ static_cast<uint32_t>(c);
    data += 3 * kLaneBytes;
    n -= 3 * kLaneBytes;
  }
  for (; n >= 8; data += 8, n -= 8) crc = Fold8(crc, data);
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++data, --n) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(*data));
  }
  return crc32 ^ 0xffffffffu;
}

#endif  // defined(__x86_64__)

struct Kernel {
  uint32_t (*extend)(uint32_t, const char*, size_t);
  const char* name;
};

Kernel ResolveKernel() {
#if defined(__x86_64__)
  // The cpu-feature data is filled in by a libgcc constructor; a static
  // initializer elsewhere may reach Extend before that has run.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return {ExtendSse42, "sse4.2"};
#endif
  return {ExtendPortable, "portable"};
}

const Kernel& ActiveKernel() {
  static const Kernel kernel = ResolveKernel();
  return kernel;
}

}  // namespace

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  return ActiveKernel().extend(init_crc, data, n);
}

const char* KernelName() { return ActiveKernel().name; }

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  const Tables& tables = SlicedTables();
  const auto& t = tables.t;
  uint32_t crc = init_crc ^ 0xffffffffu;
  // Below ~16 bytes the setup outweighs the slicing win; the byte loop at
  // the bottom handles short inputs and the tail alike.
  while (n >= 8) {
    uint32_t lo = LoadLE32(data) ^ crc;
    uint32_t hi = LoadLE32(data + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
          t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^ t[3][hi & 0xff] ^
          t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    data += 8;
    n -= 8;
  }
  for (size_t i = 0; i < n; ++i) {
    crc = t[0][(crc ^ static_cast<unsigned char>(data[i])) & 0xff] ^
          (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

uint32_t ExtendBytewise(uint32_t init_crc, const char* data, size_t n) {
  const auto& table = SlicedTables().t[0];
  uint32_t crc = init_crc ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ static_cast<unsigned char>(data[i])) & 0xff] ^
          (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace crc32c
}  // namespace mmdb
