#include "storage/blob_store.h"

#include <stdexcept>

namespace recd::storage {

BlobStore::BlobStore(BlobStore&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mutex_);
  objects_ = std::move(other.objects_);
  stats_ = other.stats_;
  other.stats_ = {};
}

BlobStore& BlobStore::operator=(BlobStore&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lock(mutex_, other.mutex_);
  objects_ = std::move(other.objects_);
  stats_ = other.stats_;
  other.stats_ = {};
  return *this;
}

void BlobStore::Put(const std::string& name, std::vector<std::byte> data) {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.bytes_written += data.size();
  stats_.write_ops += 1;
  objects_[name] = std::move(data);
}

std::span<const std::byte> BlobStore::Get(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = objects_.find(name);
  if (it == objects_.end()) {
    throw std::out_of_range("BlobStore: unknown object " + name);
  }
  stats_.bytes_read += it->second.size();
  stats_.read_ops += 1;
  return it->second;
}

std::span<const std::byte> BlobStore::ReadRange(const std::string& name,
                                                std::size_t offset,
                                                std::size_t length) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = objects_.find(name);
  if (it == objects_.end()) {
    throw std::out_of_range("BlobStore: unknown object " + name);
  }
  if (offset + length > it->second.size()) {
    throw std::out_of_range("BlobStore: range read past end of " + name);
  }
  stats_.bytes_read += length;
  stats_.read_ops += 1;
  return std::span<const std::byte>(it->second).subspan(offset, length);
}

bool BlobStore::Exists(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return objects_.contains(name);
}

std::size_t BlobStore::ObjectSize(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = objects_.find(name);
  if (it == objects_.end()) {
    throw std::out_of_range("BlobStore: unknown object " + name);
  }
  return it->second.size();
}

std::size_t BlobStore::TotalStoredBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& [name, data] : objects_) total += data.size();
  return total;
}

IoStats BlobStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void BlobStore::ResetStats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = {};
}

}  // namespace recd::storage
