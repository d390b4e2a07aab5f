#include "storage/database.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#include "util/crc32c.h"

namespace mmdb {

Database::Database(const DatabaseParams& params)
    : params_(params),
      record_bytes_(params.record_bytes()),
      segment_bytes_(params.segment_bytes()),
      size_bytes_(params.db_words * kWordBytes),
      bytes_(static_cast<char*>(std::calloc(size_bytes_ == 0 ? 1 : size_bytes_,
                                            1))) {
  if (bytes_ == nullptr) throw std::bad_alloc();
  // Advise the whole pages inside the allocation. Advice only: where
  // transparent huge pages are off this is a no-op (and its failure
  // changes nothing).
  const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  const uintptr_t begin =
      (reinterpret_cast<uintptr_t>(bytes_) + page - 1) & ~(page - 1);
  const uintptr_t end =
      (reinterpret_cast<uintptr_t>(bytes_) + size_bytes_) & ~(page - 1);
  if (end > begin) {
    (void)madvise(reinterpret_cast<void*>(begin), end - begin,
                  MADV_HUGEPAGE);
  }
  // Fault every page in now, as the zero-filled vector this replaces did,
  // so no first-touch fault lands inside a transaction or a recovery load.
  // (calloc leaves a fresh mapping untouched: the kernel zeroes it.)
  for (size_t off = 0; off < size_bytes_; off += page) {
    static_cast<volatile char*>(bytes_)[off] = 0;
  }
}

Database::~Database() { std::free(bytes_); }

std::string_view Database::ReadRecord(RecordId record) const {
  assert(record < num_records());
  return std::string_view(bytes_ + record * record_bytes_, record_bytes_);
}

void Database::WriteRecord(RecordId record, std::string_view data) {
  assert(record < num_records());
  assert(data.size() == record_bytes_);
  std::memcpy(bytes_ + record * record_bytes_, data.data(), record_bytes_);
}

std::string_view Database::ReadSegment(SegmentId segment) const {
  assert(segment < num_segments());
  return std::string_view(bytes_ + segment * segment_bytes_, segment_bytes_);
}

void Database::WriteSegment(SegmentId segment, std::string_view data) {
  assert(segment < num_segments());
  assert(data.size() == segment_bytes_);
  std::memcpy(bytes_ + segment * segment_bytes_, data.data(), segment_bytes_);
}

void Database::Clear() { std::memset(bytes_, 0, size_bytes_); }

uint32_t Database::Checksum() const {
  return crc32c::Value(bytes_, size_bytes_);
}

}  // namespace mmdb
