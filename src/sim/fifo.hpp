// FIFO queue that allocates nothing until its first push.
//
// A 4096-node cluster keeps several queues per node and per connection —
// the gm::Port event mailbox, the NIC's receive tokens and parked RMA ops,
// the two reliable-send lists of every connection — and almost all of them
// stay empty for the whole run (the paper's barrier path never queues
// anything). libstdc++'s std::deque allocates a map and a first block even
// when empty, about 600 B per queue; this ring buffer is a null pointer
// and three counters (24 B) until something is pushed, then grows by
// doubling from four slots. Iteration runs front to back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace nicbar::sim {

template <typename T>
class Fifo {
 public:
  Fifo() = default;
  Fifo(Fifo&& other) noexcept
      : buf_(std::exchange(other.buf_, nullptr)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)),
        cap_(std::exchange(other.cap_, 0)) {}
  Fifo& operator=(Fifo&& other) noexcept {
    if (this != &other) {
      release();
      buf_ = std::exchange(other.buf_, nullptr);
      head_ = std::exchange(other.head_, 0);
      size_ = std::exchange(other.size_, 0);
      cap_ = std::exchange(other.cap_, 0);
    }
    return *this;
  }
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;
  ~Fifo() { release(); }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// The oldest element; the queue must not be empty.
  [[nodiscard]] T& front() { return buf_[head_]; }
  /// The i-th oldest element; `i` must be below size().
  [[nodiscard]] T& operator[](std::size_t i) { return buf_[(head_ + i) & (cap_ - 1)]; }

  void push_back(T value) {
    if (size_ == cap_) grow();
    std::construct_at(buf_ + ((head_ + size_) & (cap_ - 1)), std::move(value));
    ++size_;
  }
  /// Destroys the oldest element; the queue must not be empty.
  void pop_front() {
    std::destroy_at(buf_ + head_);
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }
  /// Empties the queue; the storage is kept for the next push.
  void clear() {
    while (size_ != 0) pop_front();
  }

  class iterator {
   public:
    iterator(Fifo* fifo, std::size_t i) : fifo_(fifo), i_(i) {}
    T& operator*() const { return (*fifo_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const iterator& other) const { return i_ != other.i_; }

   private:
    Fifo* fifo_;
    std::size_t i_;
  };
  [[nodiscard]] iterator begin() { return {this, 0}; }
  [[nodiscard]] iterator end() { return {this, size_}; }

 private:
  void grow() {
    const std::uint32_t cap = cap_ == 0 ? 4 : 2 * cap_;
    T* buf = std::allocator<T>{}.allocate(cap);
    for (std::uint32_t i = 0; i < size_; ++i) {
      T& from = (*this)[i];
      std::construct_at(buf + i, std::move(from));
      std::destroy_at(&from);
    }
    if (buf_ != nullptr) std::allocator<T>{}.deallocate(buf_, cap_);
    buf_ = buf;
    head_ = 0;
    cap_ = cap;
  }

  void release() {
    clear();
    if (buf_ != nullptr) std::allocator<T>{}.deallocate(buf_, cap_);
    buf_ = nullptr;
    cap_ = 0;
  }

  T* buf_ = nullptr;       // cap_ slots, the live ones starting at head_
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = 0;  // zero or a power of two
};

}  // namespace nicbar::sim
