// FIFO queue on a growable ring buffer.
//
// std::deque frees a storage block each time its front crosses one and
// allocates another each time its back does, so a queue that only ever
// holds a few entries still allocates every few hundred bytes of
// traffic. Fifo keeps its slots: once it has grown to the deepest the
// queue gets, pushing and popping allocate nothing. Popped slots are
// not destroyed either — emplace_slot() hands a reused slot back with
// whatever buffers it owned, so a producer can overwrite it in place
// and keep their capacity.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "vfpga/common/contract.hpp"

namespace vfpga {

template <typename T>
class Fifo {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] T& front() {
    VFPGA_EXPECTS(size_ > 0);
    return slots_[head_];
  }
  [[nodiscard]] const T& front() const {
    VFPGA_EXPECTS(size_ > 0);
    return slots_[head_];
  }
  /// The i-th entry from the front.
  [[nodiscard]] const T& operator[](std::size_t i) const {
    VFPGA_EXPECTS(i < size_);
    return slots_[(head_ + i) % slots_.size()];
  }

  /// Front-to-back iteration (snapshots serialize queues in order).
  class const_iterator {
   public:
    const_iterator(const Fifo* fifo, std::size_t index)
        : fifo_(fifo), index_(index) {}
    const T& operator*() const { return (*fifo_)[index_]; }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    const Fifo* fifo_;
    std::size_t index_;
  };
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size_}; }

  void push_back(T value) { emplace_slot() = std::move(value); }
  void push_front(T value) {
    grow_if_full();
    head_ = (head_ + slots_.size() - 1) % slots_.size();
    ++size_;
    slots_[head_] = std::move(value);
  }
  /// Append a slot and return it for the caller to overwrite. The slot
  /// may hold a previously popped value (its buffers included).
  [[nodiscard]] T& emplace_slot() {
    grow_if_full();
    T& slot = slots_[(head_ + size_) % slots_.size()];
    ++size_;
    return slot;
  }
  void pop_front() {
    VFPGA_EXPECTS(size_ > 0);
    head_ = (head_ + 1) % slots_.size();
    --size_;
  }
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  void grow_if_full() {
    if (size_ < slots_.size()) {
      return;
    }
    // Unroll the ring into a fresh vector twice the size.
    std::vector<T> grown(slots_.empty() ? 4 : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(slots_[(head_ + i) % slots_.size()]);
    }
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace vfpga
