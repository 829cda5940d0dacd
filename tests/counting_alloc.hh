/**
 * @file
 * Counting global allocator for allocation-freedom tests: replaces every
 * form of global operator new/delete with a malloc/free pair and counts
 * each allocation. Include it in exactly one translation unit of a test
 * binary (each tests/test_*.cc is its own binary); the tests assert the
 * delta of allocCount() across a steady-state region is zero. Atomic
 * because some tests run worker threads in the same process.
 */

#ifndef SYNCRON_TESTS_COUNTING_ALLOC_HH
#define SYNCRON_TESTS_COUNTING_ALLOC_HH

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

// GCC cannot see that this operator new (malloc) pairs with this
// operator delete (free) and warns at every inlined call site.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<std::uint64_t> gAllocCount{0};

/** Global allocations so far in this process. */
std::uint64_t
allocCount()
{
    return gAllocCount.load(std::memory_order_relaxed);
}
} // namespace

void *
operator new(std::size_t n)
{
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

// The nothrow forms must be replaced too (std::get_temporary_buffer
// allocates through them but deallocates through sized delete): a
// partial replacement set mixes this malloc/free pool with the
// library's, which AddressSanitizer rejects as alloc-dealloc-mismatch.
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

#endif // SYNCRON_TESTS_COUNTING_ALLOC_HH
