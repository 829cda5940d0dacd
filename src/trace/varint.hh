/**
 * @file
 * The container integer encodings — LEB128 varints and the zigzag
 * mapping for signed deltas — shared by the `SYNCTRC` trace and the
 * `SYNCDUR` persisted image. Both containers are written through one
 * buffered VarintWriter; every reader decodes through a VarintCursor
 * over an in-memory byte range (a buffered stream or an mmap'd file),
 * see trace/codec.hh.
 */

#ifndef SYNCRON_TRACE_VARINT_HH
#define SYNCRON_TRACE_VARINT_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>

#include "common/log.hh"

namespace syncron::trace {

/**
 * Buffered LEB128 encoder over an ostream: the one writer of both
 * containers. Bytes collect in a bounded buffer that spans many
 * records and reach the stream in one write() each time it fills, so
 * the stream is called once per kBufferBytes, not once per byte or per
 * varint, and a large trace never needs a whole-file copy in memory.
 * Call flush() before checking or closing the stream: bytes still
 * buffered when the writer dies are dropped.
 */
class VarintWriter
{
  public:
    static constexpr std::size_t kBufferBytes = std::size_t{1} << 16;
    /** Longest LEB128 encoding of a 64-bit value. */
    static constexpr std::size_t kMaxVarintBytes = 10;

    explicit VarintWriter(std::ostream &os)
        : os_(os), buf_(new char[kBufferBytes]), cur_(buf_.get()),
          end_(buf_.get() + kBufferBytes)
    {}

    VarintWriter(const VarintWriter &) = delete;
    VarintWriter &operator=(const VarintWriter &) = delete;

    /** Appends @p v as a LEB128 varint. */
    void
    varint(std::uint64_t v)
    {
        if (static_cast<std::size_t>(end_ - cur_) < kMaxVarintBytes)
            flush();
        char *p = cur_; // a local: char stores may alias the members
        while (v >= 0x80) {
            *p++ = static_cast<char>((v & 0x7f) | 0x80);
            v >>= 7;
        }
        *p++ = static_cast<char>(v);
        cur_ = p;
    }

    /** Appends @p n raw bytes (a container magic). */
    void
    bytes(const char *data, std::size_t n)
    {
        SYNCRON_ASSERT(n <= kBufferBytes, "raw run of " << n
                                              << " bytes exceeds the "
                                                 "encoder buffer");
        if (static_cast<std::size_t>(end_ - cur_) < n)
            flush();
        std::memcpy(cur_, data, n);
        cur_ += n;
    }

    /** Hands every buffered byte to the stream. */
    void
    flush()
    {
        os_.write(buf_.get(), cur_ - buf_.get());
        cur_ = buf_.get();
    }

  private:
    std::ostream &os_;
    std::unique_ptr<char[]> buf_;
    char *cur_;
    char *end_;
};

/**
 * Maps a signed delta onto the varint-friendly zigzag encoding (the
 * inverse, with overflow checks, is RecordDecoder's issue-tick step).
 */
inline std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1)
           ^ static_cast<std::uint64_t>(v >> 63);
}

/**
 * Bounds-checked varint cursor over a borrowed byte range — the
 * allocation-free read primitive under every container reader. Every
 * read is range-checked against the end of the buffer; @p what names
 * the container ("trace", "persisted image") in each fatal so a corrupt
 * file produces a self-describing error.
 */
class VarintCursor
{
  public:
    VarintCursor(const unsigned char *begin, const unsigned char *end,
                 const char *what)
        : cur_(begin), end_(end), what_(what)
    {
    }

    /** Bytes not yet consumed. */
    std::size_t remaining() const
    {
        return static_cast<std::size_t>(end_ - cur_);
    }

    bool atEnd() const { return cur_ == end_; }

    /** Container name used in diagnostics. */
    const char *what() const { return what_; }

    /** Reads one varint; fatal() when the buffer ends inside it. */
    std::uint64_t
    get()
    {
        std::uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            if (cur_ == end_)
                SYNCRON_FATAL(what_ << " truncated inside a varint");
            const unsigned char byte = *cur_++;
            v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if ((byte & 0x80) == 0)
                return v;
        }
        SYNCRON_FATAL(what_ << " varint longer than 64 bits (corrupt)");
    }

    /**
     * Consumes the @p n bytes at @p prefix (a container magic) when the
     * buffer starts with them; returns false, consuming nothing, when it
     * does not.
     */
    bool
    skipPrefix(const char *prefix, std::size_t n)
    {
        if (remaining() < n || std::memcmp(cur_, prefix, n) != 0)
            return false;
        cur_ += n;
        return true;
    }

  private:
    const unsigned char *cur_;
    const unsigned char *end_;
    const char *what_;
};

} // namespace syncron::trace

#endif // SYNCRON_TRACE_VARINT_HH
