#include "mccp/key_store.h"

#include "mccp/timing.h"

namespace mccp::top {

void KeyMemory::provision(KeyId id, Bytes session_key) {
  if (session_key.size() != 16 && session_key.size() != 24 && session_key.size() != 32)
    throw std::invalid_argument("KeyMemory: session keys must be 16/24/32 bytes");
  keys_[id] = Entry{std::move(session_key), next_generation_++};
}

void KeyMemory::erase(KeyId id) { keys_.erase(id); }

const Bytes* KeyMemory::lookup(KeyId id) const {
  auto it = keys_.find(id);
  return it == keys_.end() ? nullptr : &it->second.key;
}

std::uint64_t KeyMemory::generation(KeyId id) const {
  auto it = keys_.find(id);
  return it == keys_.end() ? 0 : it->second.generation;
}

bool KeyScheduler::request_load(core::CryptoCore* core, KeyId id) {
  const Bytes* key = memory_->lookup(id);
  if (key == nullptr) return false;
  if (cache_enabled_ && core_has_key(core, id)) {
    ++skipped_;
    return true;
  }
  cached_.erase(core);  // cache line invalid until the new load lands
  auto size = static_cast<crypto::AesKeySize>(key->size());
  queue_.push_back({core, id, key_expansion_cycles(size)});
  return true;
}

bool KeyScheduler::core_has_key(const core::CryptoCore* core, KeyId id) const {
  auto it = cached_.find(core);
  return it != cached_.end() && it->second.first == id &&
         it->second.second == memory_->generation(id) && core->has_keys();
}

void KeyScheduler::tick_load() {
  if (!current_) {
    current_ = queue_.front();
    queue_.pop_front();
  }
  if (--current_->remaining <= 0) {
    const Bytes* key = memory_->lookup(current_->id);
    if (key != nullptr) {
      current_->core->load_round_keys(crypto::aes_expand_key(*key));
      cached_[current_->core] = {current_->id, memory_->generation(current_->id)};
      ++loads_;
    }
    current_.reset();
  }
}

}  // namespace mccp::top
