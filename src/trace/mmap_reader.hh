/**
 * @file
 * Zero-copy trace reading: the `SYNCTRC` container mapped into the
 * address space and decoded in place — the one trace-file reader.
 *
 * Multi-gigabyte corpora must not be materialized on the heap before
 * the first simulated tick (one vector push per record is allocator
 * traffic a corpus replay would spend its time in). MappedTraceReader
 * mmap()s the file read-only, decodes the header and primitive table
 * once at open, and then hands out records through a RecordCursor that
 * does nothing but bounds-checked arithmetic over the mapping: no
 * per-record allocation, no copy of the record stream, and the file's
 * pages are faulted in lazily as the cursor walks them.
 *
 * Both steps run the shared codec (trace/codec.hh), the same one that
 * decodes the trace embedded in a `SYNCDUR` image, so the two
 * containers accept and reject the same record streams with the same
 * diagnostics. An empty or unmappable file fails at open.
 */

#ifndef SYNCRON_TRACE_MMAP_READER_HH
#define SYNCRON_TRACE_MMAP_READER_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/codec.hh"
#include "trace/format.hh"
#include "trace/varint.hh"

namespace syncron::trace {

/** mmap-backed `SYNCTRC` reader; records decode in place, zero-copy. */
class MappedTraceReader
{
  public:
    /**
     * Opens and maps @p path, then validates magic, version, machine
     * shape, and the complete primitive table. fatal()s on IO errors,
     * empty or short files, and every header-level format violation.
     * Record-level validation happens as the cursor walks (so a
     * multi-GB file never needs a full up-front pass); validateAll()
     * forces it eagerly.
     */
    explicit MappedTraceReader(const std::string &path);

    MappedTraceReader(const MappedTraceReader &) = delete;
    MappedTraceReader &operator=(const MappedTraceReader &) = delete;

    // -- Header (validated at open)
    std::uint32_t numUnits() const { return shape_.numUnits; }
    std::uint32_t clientCoresPerUnit() const
    {
        return shape_.clientCoresPerUnit;
    }
    std::uint32_t numClientCores() const { return shape_.numClientCores(); }
    const std::vector<TracePrimitive> &primitives() const
    {
        return shape_.primitives;
    }
    /** Record count from the header (the cursor must yield exactly
     *  this many before hitting the mapping's end). */
    std::uint64_t recordCount() const { return recordCount_; }
    /** Mapped file size in bytes. */
    std::size_t fileBytes() const { return map_.bytes; }
    const std::string &path() const { return path_; }

    /**
     * Allocation-free forward iteration over the record stream. The
     * cursor borrows the reader (which must outlive it); next() is
     * RecordDecoder::next() over the mapping, inline and allocation-free,
     * and fatal()s on any record-level format violation at the exact
     * offending record index.
     */
    class RecordCursor
    {
      public:
        /**
         * Decodes the next record into @p out. Returns false once all
         * recordCount() records have been yielded — at which point the
         * cursor has also verified that the mapping holds no trailing
         * bytes. fatal()s on truncation and malformed records.
         */
        bool next(TraceRecord &out) { return decoder_.next(cursor_, out); }

        /** Records yielded so far. */
        std::uint64_t index() const { return decoder_.index(); }

      private:
        friend class MappedTraceReader;
        explicit RecordCursor(const MappedTraceReader &reader)
            : cursor_(reader.recordsBegin_, reader.map_.end(), "trace"),
              decoder_(reader.shape_, reader.recordCount_)
        {
        }

        VarintCursor cursor_;
        RecordDecoder decoder_;
    };

    /** A fresh cursor positioned at the first record. */
    RecordCursor records() const;

    /**
     * Walks every record once, discarding them — forces the full
     * record-level validation pass (corpus validation uses this).
     * @return the per-OpKind operation counts of the stream
     */
    std::array<std::uint64_t, kNumSyncOpKinds> validateAll() const;

    /**
     * Copies the mapped trace into an owning Trace — the bridge to
     * consumers of the in-memory API (Replayer, analyzers).
     */
    Trace materialize() const;

  private:
    /**
     * The read-only mapping of the whole file. A member, so it is
     * unmapped even when the constructor rejects the header and throws.
     */
    struct Mapping
    {
        const unsigned char *data = nullptr;
        std::size_t bytes = 0;

        Mapping() = default;
        Mapping(const Mapping &) = delete;
        Mapping &operator=(const Mapping &) = delete;
        ~Mapping();

        const unsigned char *end() const { return data + bytes; }
    };

    std::string path_;
    Mapping map_;
    const unsigned char *recordsBegin_ = nullptr; ///< first record byte

    Trace shape_; ///< header + primitive table; records stay empty
    std::uint64_t recordCount_ = 0;
};

} // namespace syncron::trace

#endif // SYNCRON_TRACE_MMAP_READER_HH
