/**
 * @file
 * Trace corpora: a directory of `SYNCTRC` files treated as one dataset.
 *
 * A corpus is how "scenario diversity" becomes data you accumulate
 * rather than code you write: every capture (--trace-out) and every
 * generated scenario lands as one more `.trc` file in a directory, and
 * the corpus abstraction gives all consumers the same view of it —
 * deterministic enumeration (sorted by file name, so replay order never
 * depends on readdir order) and per-file validation through the zero-copy
 * MappedTraceReader. bench_trace_replay --trace-in=<dir> replays a
 * corpus and tools/analyze_trace analyzes one, both through the same
 * enumeration.
 */

#ifndef SYNCRON_TRACE_CORPUS_HH
#define SYNCRON_TRACE_CORPUS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace syncron::trace {

/** One enumerated corpus member. */
struct CorpusFile
{
    std::string path;       ///< full path, directory-prefixed
    std::string name;       ///< file name within the corpus directory
    std::uint64_t bytes = 0; ///< file size
};

/** Validation outcome of one corpus member (validate()). */
struct CorpusFileStatus
{
    CorpusFile file;
    bool ok = false;
    std::uint64_t records = 0;  ///< record count when ok
    std::string error;          ///< rejection reason when !ok
    /** Per-OpKind operation counts when ok (from the validation walk). */
    std::array<std::uint64_t, kNumSyncOpKinds> opCounts{};
};

/**
 * An enumerated trace corpus directory. Enumeration is eager and
 * deterministic; file contents are only touched by validate() /
 * consumers, so opening a corpus of thousands of traces is cheap.
 */
class Corpus
{
  public:
    /**
     * Enumerates every `*.trc` file directly under @p dir, sorted by
     * name. fatal()s when @p dir is not a readable directory or holds
     * no trace files.
     */
    static Corpus open(const std::string &dir);

    /** True when @p path names a directory (corpus vs single file). */
    static bool isDirectory(const std::string &path);

    const std::string &dir() const { return dir_; }
    const std::vector<CorpusFile> &files() const { return files_; }
    std::size_t size() const { return files_.size(); }
    std::uint64_t totalBytes() const;

    /**
     * Runs the full MappedTraceReader validation pass over every file
     * (header, primitive table, and a complete record walk), catching
     * rejections instead of propagating them so one corrupt member
     * yields a per-file diagnostic rather than aborting the sweep.
     */
    std::vector<CorpusFileStatus> validate() const;

  private:
    std::string dir_;
    std::vector<CorpusFile> files_;
};

} // namespace syncron::trace

#endif // SYNCRON_TRACE_CORPUS_HH
