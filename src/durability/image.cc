#include "durability/image.hh"

#include <istream>
#include <iterator>
#include <ostream>
#include <string>

#include "common/log.hh"
#include "trace/codec.hh"
#include "trace/varint.hh"

namespace syncron::durability {

void
writeImage(std::ostream &os, const PersistedImage &img)
{
    SYNCRON_ASSERT(img.appended >= img.durable(),
                   "image appended count " << img.appended
                                           << " below durable count "
                                           << img.durable());
    trace::VarintWriter out(os);
    out.bytes(kImageMagic, sizeof(kImageMagic));
    out.varint(kImageVersion);
    out.varint(static_cast<std::uint64_t>(img.mode));
    out.varint(img.epochOps);
    out.varint(img.crashTick);
    out.varint(img.appended);
    trace::encodeTrace(out, img.log);
    out.flush();
    if (!os)
        SYNCRON_FATAL("stream error while writing persisted image");
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
