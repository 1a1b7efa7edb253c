#include "mccp/crossbar.h"

#include <bit>
#include <stdexcept>

namespace mccp::top {

namespace {

/// The set bits of `mask` (lanes 0..n-1) in round-robin order from
/// `start`, the order of the index scan (start + k) % n. `visit` returns
/// true to stop at a lane.
template <class Visit>
void for_each_from(std::uint64_t mask, std::size_t start, std::size_t n, Visit&& visit) {
  std::uint64_t rotated = mask >> start;
  if (start != 0) {
    rotated |= mask << (n - start);  // lanes below start wrap to the top
    if (n < 64) rotated &= (std::uint64_t{1} << n) - 1;
  }
  for (; rotated != 0; rotated &= rotated - 1) {
    std::size_t i = start + static_cast<std::size_t>(std::countr_zero(rotated));
    if (i >= n) i -= n;
    if (visit(i)) return;
  }
}

}  // namespace

CrossBar::CrossBar(std::vector<core::CryptoCore*> cores) : cores_(std::move(cores)) {
  if (cores_.size() > 64) throw std::invalid_argument("CrossBar: at most 64 core lanes");
  lanes_.resize(cores_.size());
}

std::size_t CrossBar::checked(std::size_t core_idx) const {
  if (core_idx >= lanes_.size()) throw std::out_of_range("CrossBar: no such core lane");
  return core_idx;
}

void CrossBar::close(std::size_t core_idx) {
  Lane& l = lanes_[checked(core_idx)];
  write_granted_ &= ~bit(core_idx);
  write_ready_ &= ~bit(core_idx);
  read_granted_ &= ~bit(core_idx);
  l.inbox.clear();
  l.inbox_head = 0;
  outbox_words_ -= l.outbox.size();
  l.outbox.clear();
}

void CrossBar::push_words(std::size_t core_idx, const std::vector<std::uint32_t>& words) {
  if (!write_granted(core_idx))
    throw std::logic_error("CrossBar: push to a core without a write grant");
  Lane& lane = lanes_[core_idx];
  lane.inbox.insert(lane.inbox.end(), words.begin(), words.end());
  if (lane.inbox.size() > lane.inbox_head) write_ready_ |= bit(core_idx);
}

std::vector<std::uint32_t> CrossBar::take_output(std::size_t core_idx) {
  std::vector<std::uint32_t> out;
  take_output_into(core_idx, out);
  return out;
}

bool CrossBar::take_output_into(std::size_t core_idx, std::vector<std::uint32_t>& out) {
  Lane& lane = lanes_.at(core_idx);
  if (lane.outbox.empty()) return false;
  out.insert(out.end(), lane.outbox.begin(), lane.outbox.end());
  outbox_words_ -= lane.outbox.size();
  lane.outbox.clear();
  return true;
}

bool CrossBar::quiet() const {
  if (outbox_words_ != 0) return false;
  for (std::uint64_t m = write_ready_; m != 0; m &= m - 1)
    if (!cores_[std::countr_zero(m)]->in_fifo().full()) return false;
  for (std::uint64_t m = read_granted_; m != 0; m &= m - 1)
    if (!cores_[std::countr_zero(m)]->out_fifo().empty()) return false;
  return true;
}

void CrossBar::tick() {
  const std::size_t n = lanes_.size();
  // One word into one core per cycle (write port).
  for_each_from(write_ready_, write_rr_, n, [&](std::size_t i) {
    auto& fifo = cores_[i]->in_fifo();
    if (fifo.full()) return false;
    Lane& lane = lanes_[i];
    fifo.push(lane.inbox[lane.inbox_head]);
    if (++lane.inbox_head == lane.inbox.size()) {
      lane.inbox.clear();
      lane.inbox_head = 0;
      write_ready_ &= ~bit(i);
    }
    ++words_in_;
    write_rr_ = i + 1 == n ? 0 : i + 1;
    return true;
  });
  // One word out of one core per cycle (read port).
  for_each_from(read_granted_, read_rr_, n, [&](std::size_t i) {
    auto& fifo = cores_[i]->out_fifo();
    if (fifo.empty()) return false;
    lanes_[i].outbox.push_back(fifo.pop());
    ++outbox_words_;
    ++words_out_;
    read_rr_ = i + 1 == n ? 0 : i + 1;
    return true;
  });
}

}  // namespace mccp::top
