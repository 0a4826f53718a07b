#include "storage/log_format.h"

#include <array>
#include <cstring>

namespace saql {

namespace {

constexpr uint32_t kCrc32cPoly = 0x82F63B78u;  // Castagnoli, reflected

/// Slicing-by-8 tables: table[0] is the classic byte table, table[k]
/// advances a byte through k additional zero bytes.
std::array<std::array<uint32_t, 256>, 8> MakeCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (kCrc32cPoly ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = tables[0][i];
    for (size_t t = 1; t < 8; ++t) {
      c = tables[0][c & 0xFFu] ^ (c >> 8);
      tables[t][i] = c;
    }
  }
  return tables;
}

uint32_t Crc32cSoftware(const void* data, size_t size) {
  static const auto tables = MakeCrcTables();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  while (size >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, sizeof(chunk));
    chunk ^= crc;
    crc = tables[7][chunk & 0xFFu] ^ tables[6][(chunk >> 8) & 0xFFu] ^
          tables[5][(chunk >> 16) & 0xFFu] ^
          tables[4][(chunk >> 24) & 0xFFu] ^
          tables[3][(chunk >> 32) & 0xFFu] ^
          tables[2][(chunk >> 40) & 0xFFu] ^
          tables[1][(chunk >> 48) & 0xFFu] ^ tables[0][chunk >> 56];
    p += 8;
    size -= 8;
  }
  while (size-- > 0) {
    crc = tables[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

#if defined(__x86_64__)  // crc32di is 64-bit only; i386 takes the tables

__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(const void* data,
                                                          size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t crc = 0xFFFFFFFFu;
  while (size >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, sizeof(chunk));
    crc = __builtin_ia32_crc32di(crc, chunk);
    p += 8;
    size -= 8;
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  while (size-- > 0) {
    crc32 = __builtin_ia32_crc32qi(crc32, *p++);
  }
  return crc32 ^ 0xFFFFFFFFu;
}

bool HaveSse42() { return __builtin_cpu_supports("sse4.2"); }

#else

uint32_t Crc32cHardware(const void* data, size_t size) {
  return Crc32cSoftware(data, size);
}

bool HaveSse42() { return false; }

#endif

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  static const bool hw = HaveSse42();
  return hw ? Crc32cHardware(data, size) : Crc32cSoftware(data, size);
}

}  // namespace saql
