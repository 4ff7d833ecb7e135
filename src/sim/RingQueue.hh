/**
 * @file
 * FIFO on a power-of-two ring of slots. It takes no storage until
 * the first push and then only doubles, never shrinking, so a queue
 * that is never used costs nothing and one in steady use stops
 * allocating once it has reached its deepest backlog (a std::deque
 * allocates at construction and keeps allocating and freeing blocks
 * as its contents roll through them).
 */

#ifndef SAN_SIM_RING_QUEUE_HH
#define SAN_SIM_RING_QUEUE_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace san::sim {

/** FIFO of default-constructible, movable @p T. */
template <typename T>
class RingQueue
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    void
    push(T &&value)
    {
        if (size_ == slots_.size())
            grow();
        slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
        ++size_;
    }

    /** Remove and return the oldest element. */
    T
    pop()
    {
        T value = std::move(slots_[head_]);
        head_ = (head_ + 1) & (slots_.size() - 1);
        --size_;
        return value;
    }

  private:
    static constexpr std::size_t firstSlots = 8;

    void
    grow()
    {
        std::vector<T> bigger(slots_.empty() ? firstSlots
                                             : 2 * slots_.size());
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
        slots_ = std::move(bigger);
        head_ = 0;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace san::sim

#endif // SAN_SIM_RING_QUEUE_HH
