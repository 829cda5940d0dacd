/**
 * @file
 * ScratchFile: an in-memory file (a memfd, opened by its
 * /proc/self/fd path) that tests hand to trace::MappedTraceReader,
 * rewritten in place for each input.
 */

#ifndef SYNCRON_TESTS_SCRATCH_FILE_HH
#define SYNCRON_TESTS_SCRATCH_FILE_HH

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <string>

namespace syncron::trace {

class ScratchFile
{
  public:
    ScratchFile() : fd_(::memfd_create("syncron_scratch", 0))
    {
        EXPECT_GE(fd_, 0) << "memfd_create failed";
        path_ = "/proc/self/fd/" + std::to_string(fd_);
    }
    ~ScratchFile() { ::close(fd_); }

    ScratchFile(const ScratchFile &) = delete;
    ScratchFile &operator=(const ScratchFile &) = delete;

    /** Replaces the contents with @p bytes; returns the path. */
    const std::string &
    write(const std::string &bytes) const
    {
        const auto n = static_cast<ssize_t>(bytes.size());
        EXPECT_EQ(::ftruncate(fd_, 0), 0);
        EXPECT_EQ(::pwrite(fd_, bytes.data(), bytes.size(), 0), n);
        return path_;
    }

  private:
    int fd_;
    std::string path_;
};

} // namespace syncron::trace

#endif // SYNCRON_TESTS_SCRATCH_FILE_HH
