/**
 * @file
 * Counting replacements for the global allocation functions, so a
 * test can assert how much a code path allocates. Include from
 * exactly one source file of a test binary: it defines the
 * replacements, which then count every allocation in that binary.
 */

#ifndef SAN_TESTS_COUNTING_NEW_HH
#define SAN_TESTS_COUNTING_NEW_HH

#include <cstdint>
#include <cstdlib>
#include <new>

namespace san::test {

/** Calls to the replaceable global allocation functions below. */
inline std::uint64_t allocations = 0;
/** Bytes those calls asked for. */
inline std::uint64_t allocatedBytes = 0;

inline void *
countedAlloc(std::size_t n)
{
    ++allocations;
    allocatedBytes += n;
    return std::malloc(n ? n : 1);
}

} // namespace san::test

// Every form without an alignment argument is replaced, so that each
// such allocation and its release go through the same malloc/free
// pair.
void *
operator new(std::size_t n)
{
    if (void *p = san::test::countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return san::test::countedAlloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return san::test::countedAlloc(n);
}

// The deletes stay out of line: inlined into a new-expression's
// cleanup path, free() on memory from operator new would trip GCC's
// -Wmismatched-new-delete, although these replacements pair them.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

#endif // SAN_TESTS_COUNTING_NEW_HH
