// Hardware FIFO model.
//
// Each Cryptographic Core has two 512 x 32-bit FIFOs (paper SIV.A), i.e.
// 2 KB of packet data each — "sufficient for most communication protocols".
// The model is a bounded queue with occupancy statistics and a secure-clear
// operation (the output FIFO is re-initialised when authentication fails,
// SIV.C).
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace mccp::sim {

/// A fixed-capacity ring buffer: the storage is allocated once, and push
/// and pop only move an index, as the hardware's read/write pointers do.
template <typename T>
class Fifo {
 public:
  explicit Fifo(std::size_t capacity) : buf_(capacity), capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= capacity_; }

  /// True if the value was accepted (hardware write strobe honoured).
  bool try_push(const T& v) {
    if (full()) return false;
    std::size_t tail = head_ + size_;
    if (tail >= capacity_) tail -= capacity_;
    buf_[tail] = v;
    if (++size_ > high_watermark_) high_watermark_ = size_;
    ++total_pushed_;
    return true;
  }

  /// Push that treats overflow as a modelling error.
  void push(const T& v) {
    if (!try_push(v)) throw std::overflow_error("Fifo overflow");
  }

  bool try_pop(T& out) {
    if (empty()) return false;
    out = buf_[head_];
    if (++head_ == capacity_) head_ = 0;
    --size_;
    return true;
  }

  T pop() {
    T v;
    if (!try_pop(v)) throw std::underflow_error("Fifo underflow");
    return v;
  }

  const T& front() const { return buf_[head_]; }

  /// Secure re-initialisation: drop all content (used on authentication
  /// failure so unauthenticated plaintext can never be read out).
  void clear() { head_ = size_ = 0; }

  std::size_t high_watermark() const { return high_watermark_; }
  std::size_t total_pushed() const { return total_pushed_; }

 private:
  std::vector<T> buf_;
  std::size_t capacity_;
  std::size_t head_ = 0;  // index of the oldest entry
  std::size_t size_ = 0;
  std::size_t high_watermark_ = 0;
  std::size_t total_pushed_ = 0;
};

/// The paper's core FIFO geometry: 512 entries x 32 bits = 2048 bytes.
inline constexpr std::size_t kCoreFifoDepth = 512;

}  // namespace mccp::sim
