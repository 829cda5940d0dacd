#include "durability/image.hh"

#include <istream>
#include <iterator>
#include <ostream>
#include <string>

#include "common/log.hh"
#include "trace/codec.hh"
#include "trace/varint.hh"

namespace syncron::durability {

using trace::putVarint;

void
writeImage(std::ostream &os, const PersistedImage &img)
{
    os.write(kImageMagic, sizeof(kImageMagic));
    putVarint(os, kImageVersion);

    putVarint(os, static_cast<std::uint64_t>(img.mode));
    putVarint(os, img.epochOps);
    putVarint(os, img.crashTick);
    SYNCRON_ASSERT(img.appended >= img.durable(),
                   "image appended count " << img.appended
                                           << " below durable count "
                                           << img.durable());
    putVarint(os, img.appended);

    // fatal()s on stream errors, the header's included.
    trace::TraceWriter(os).write(img.log);
}

PersistedImage
readImage(std::istream &is)
{
    const std::string bytes{std::istreambuf_iterator<char>(is),
                            std::istreambuf_iterator<char>()};
    const auto *begin = reinterpret_cast<const unsigned char *>(bytes.data());
    trace::VarintCursor cur(begin, begin + bytes.size(), "persisted image");
    if (!cur.skipPrefix(kImageMagic, sizeof(kImageMagic)))
        SYNCRON_FATAL("not a SynCron persisted image (bad magic)");

    const std::uint64_t version = cur.get();
    if (version == 1) {
        SYNCRON_FATAL("persisted-image version 1 is no longer readable "
                      "(its records predate the embedded SYNCTRC "
                      "layout)");
    }
    if (version != kImageVersion) {
        SYNCRON_FATAL("unsupported persisted-image version "
                      << version << " (this build reads version "
                      << kImageVersion << ")");
    }

    PersistedImage img;
    img.mode = trace::getEnum(cur, PersistMode::Epoch, "persist mode");
    img.epochOps = trace::getU32(cur, "epoch size");
    img.crashTick = cur.get();
    img.appended = cur.get();

    const std::uint64_t count = trace::decodeTraceHeader(cur, img.log);
    if (img.appended < count)
        SYNCRON_FATAL("image appended count " << img.appended
                                              << " below durable count "
                                              << count);
    trace::decodeRecords(cur, count, img.log);
    return img;
}

} // namespace syncron::durability
