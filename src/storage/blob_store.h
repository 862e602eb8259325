// BlobStore: Tectonic stand-in (paper §2.1).
//
// The paper's results only observe the filesystem through bytes read,
// bytes stored, and IOPS (Table 3, Fig 10 fill time, Fig 7 storage
// efficiency), so the stand-in is an in-memory object store with exact
// accounting on every access. Range reads model positioned reads of
// stripe streams.
//
// Thread safety: every member is internally synchronized, so parallel
// land and reader workers may hit one store concurrently. The spans
// returned by Get/ReadRange point into the stored object — they stay
// valid only while no concurrent Put replaces that object (the pipeline
// lands a table fully before any reader opens it).
#pragma once

#include <cstddef>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace recd::storage {

struct IoStats {
  std::size_t bytes_written = 0;
  std::size_t bytes_read = 0;
  std::size_t read_ops = 0;
  std::size_t write_ops = 0;
};

class BlobStore {
 public:
  BlobStore() = default;
  /// Movable for fixture setup; moving while other threads access
  /// either store is undefined, like any container.
  BlobStore(BlobStore&& other) noexcept;
  BlobStore& operator=(BlobStore&& other) noexcept;

  /// Stores (replaces) an object.
  void Put(const std::string& name, std::vector<std::byte> data);

  /// Whole-object read. Throws std::out_of_range for unknown names.
  [[nodiscard]] std::span<const std::byte> Get(const std::string& name);

  /// Positioned read of [offset, offset+length). Throws std::out_of_range
  /// on unknown names or out-of-bounds ranges.
  [[nodiscard]] std::span<const std::byte> ReadRange(const std::string& name,
                                                     std::size_t offset,
                                                     std::size_t length);

  [[nodiscard]] bool Exists(const std::string& name) const;
  [[nodiscard]] std::size_t ObjectSize(const std::string& name) const;

  /// Total stored bytes across all objects (storage-footprint metric).
  [[nodiscard]] std::size_t TotalStoredBytes() const;

  /// Snapshot of the accounting counters (by value: the counters mutate
  /// under the store's lock on every access).
  [[nodiscard]] IoStats stats() const;
  void ResetStats();

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::vector<std::byte>> objects_;
  IoStats stats_;
};

}  // namespace recd::storage
