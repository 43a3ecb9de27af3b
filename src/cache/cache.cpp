#include "cache/cache.hpp"

namespace skp {

SlotCache::SlotCache(std::size_t catalog_size, std::size_t capacity)
    : capacity_(capacity), present_(catalog_size, 0), pos_(catalog_size, 0) {
  SKP_REQUIRE(catalog_size > 0, "catalog_size must be positive");
  SKP_REQUIRE(capacity >= 1, "capacity must be >= 1");
  contents_.reserve(capacity);
  bits_.assign((catalog_size + 63) / 64, 0);
}

void SlotCache::clear() {
  contents_.clear();
  present_.assign(present_.size(), 0);
  bits_.assign(bits_.size(), 0);
  fingerprint_ = 0;
}

}  // namespace skp
