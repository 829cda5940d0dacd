#include "trace/mmap_reader.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/log.hh"

namespace syncron::trace {

namespace {

/**
 * RAII file descriptor so every fatal() path between open and mmap
 * still closes the fd (fatal throws, it does not exit).
 */
struct ScopedFd
{
    int fd = -1;
    ~ScopedFd()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

} // namespace

MappedTraceReader::MappedTraceReader(const std::string &path)
    : path_(path)
{
    ScopedFd f;
    f.fd = ::open(path.c_str(), O_RDONLY);
    if (f.fd < 0)
        SYNCRON_FATAL("cannot open trace file '" << path << "': "
                                                 << std::strerror(errno));
    struct stat st{};
    if (::fstat(f.fd, &st) != 0)
        SYNCRON_FATAL("cannot stat trace file '" << path << "': "
                                                 << std::strerror(errno));
    if (st.st_size == 0) {
        // mmap(len = 0) is EINVAL; reject explicitly so an empty file
        // reads as a format error, not a system error.
        SYNCRON_FATAL("not a SynCron trace (empty file '" << path
                                                          << "')");
    }
    const std::size_t bytes = static_cast<std::size_t>(st.st_size);
    void *map = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, f.fd, 0);
    if (map == MAP_FAILED)
        SYNCRON_FATAL("cannot mmap trace file '" << path << "': "
                                                 << std::strerror(errno));
    map_.data = static_cast<const unsigned char *>(map);
    map_.bytes = bytes;

    // -- Header + primitive table (eager)
    VarintCursor cur(map_.data, map_.end(), "trace");
    recordCount_ = decodeTraceHeader(cur, shape_);
    recordsBegin_ = map_.end() - cur.remaining();
}

MappedTraceReader::Mapping::~Mapping()
{
    if (data != nullptr)
        ::munmap(const_cast<unsigned char *>(data), bytes);
}

MappedTraceReader::RecordCursor
MappedTraceReader::records() const
{
    return RecordCursor(*this);
}

std::array<std::uint64_t, kNumSyncOpKinds>
MappedTraceReader::validateAll() const
{
    std::array<std::uint64_t, kNumSyncOpKinds> counts{};
    RecordCursor cur = records();
    TraceRecord rec;
    while (cur.next(rec))
        ++counts[static_cast<unsigned>(rec.kind)];
    return counts;
}

Trace
MappedTraceReader::materialize() const
{
    Trace t = shape_;
    VarintCursor cur(recordsBegin_, map_.end(), "trace");
    decodeRecords(cur, recordCount_, t);
    return t;
}

} // namespace syncron::trace
