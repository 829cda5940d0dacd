#include "durability/image.hh"

#include <algorithm>
#include <fstream>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>

#include "common/log.hh"
#include "trace/codec.hh"
#include "trace/varint.hh"

namespace syncron::durability {

using trace::putVarint;
using trace::VarintCursor;

void
writeImage(std::ostream &os, const PersistedImage &img)
{
    os.write(kImageMagic, sizeof(kImageMagic));
    putVarint(os, kImageVersion);

    putVarint(os, img.numUnits);
    putVarint(os, img.clientCoresPerUnit);
    putVarint(os, static_cast<std::uint64_t>(img.mode));
    putVarint(os, img.epochOps);
    putVarint(os, img.crashTick);
    SYNCRON_ASSERT(img.appended >= img.records.size(),
                   "image appended count " << img.appended
                                           << " below durable count "
                                           << img.records.size());
    putVarint(os, img.appended);

    trace::encodePrimitives(os, img.primitives);

    putVarint(os, img.records.size());
    for (const trace::TraceRecord &r : img.records) {
        if (r.assocPrim != 0 && r.kind != sync::OpKind::CondWait)
            SYNCRON_FATAL("image record carries an associated primitive "
                          "but is not a cond_wait");
        putVarint(os, r.issued);
        SYNCRON_ASSERT(r.completed >= r.issued,
                       "image record completes before it issues");
        putVarint(os, r.completed - r.issued);
        putVarint(os, r.core);
        putVarint(os, static_cast<std::uint64_t>(r.kind));
        putVarint(os, r.prim);
        putVarint(os, r.assocPrim);
    }

    if (!os)
        SYNCRON_FATAL("stream error while writing persisted image");
}

PersistedImage
readImage(std::istream &is)
{
    const std::string bytes{std::istreambuf_iterator<char>(is),
                            std::istreambuf_iterator<char>()};
    const auto *begin = reinterpret_cast<const unsigned char *>(bytes.data());
    VarintCursor cur(begin, begin + bytes.size(), "persisted image");
    if (!cur.skipPrefix(kImageMagic, sizeof(kImageMagic)))
        SYNCRON_FATAL("not a SynCron persisted image (bad magic)");

    const std::uint64_t version = cur.get();
    if (version != kImageVersion) {
        SYNCRON_FATAL("unsupported persisted-image version "
                      << version << " (this build reads version "
                      << kImageVersion << ")");
    }

    PersistedImage img;
    img.numUnits = trace::getU32(cur, "unit count");
    img.clientCoresPerUnit = trace::getU32(cur, "cores-per-unit");
    img.mode = trace::getEnum(cur, PersistMode::Epoch, "persist mode");
    img.epochOps = trace::getU32(cur, "epoch size");
    img.crashTick = cur.get();
    img.appended = cur.get();

    const std::uint64_t cores =
        std::uint64_t{img.numUnits} * img.clientCoresPerUnit;

    trace::decodePrimitives(cur, img.numUnits, img.primitives);

    // SYNCDUR records keep their own layout (absolute issue ticks, the
    // associated primitive always present); unifying it with SYNCTRC's
    // would need a version bump.
    const std::uint64_t numRecords = cur.get();
    if (img.appended < numRecords)
        SYNCRON_FATAL("image appended count " << img.appended
                                              << " below durable count "
                                              << numRecords);
    img.records.reserve(
        static_cast<std::size_t>(std::min(numRecords, trace::kReserveCap)));
    for (std::uint64_t i = 0; i < numRecords; ++i) {
        trace::TraceRecord r;
        r.issued = cur.get();
        const std::uint64_t latency = cur.get();
        if (latency > std::numeric_limits<Tick>::max() - r.issued) {
            SYNCRON_FATAL("image record " << i << " latency " << latency
                                          << " overflows its completion "
                                             "tick");
        }
        r.completed = r.issued + latency;
        r.core = trace::getU32(cur, "core");
        if (r.core >= cores) {
            SYNCRON_FATAL("image record " << i << " issued by core "
                                          << r.core << " of a "
                                          << cores << "-core machine");
        }
        r.kind = trace::getEnum(cur, sync::OpKind::CondBroadcast, "OpKind");
        r.prim = trace::getU32(cur, "primitive id");
        if (r.prim >= img.primitives.size()) {
            SYNCRON_FATAL("image record " << i
                                          << " references primitive "
                                          << r.prim
                                          << " past the table");
        }
        r.assocPrim = trace::getU32(cur, "associated lock");
        if (r.kind == sync::OpKind::CondWait) {
            if (r.assocPrim >= img.primitives.size()) {
                SYNCRON_FATAL("image cond_wait record "
                              << i << " with dangling associated lock "
                              << r.assocPrim);
            }
        } else if (r.assocPrim != 0) {
            SYNCRON_FATAL("image record " << i
                                          << " carries an associated "
                                             "primitive but is not a "
                                             "cond_wait");
        }
        img.records.push_back(r);
    }

    if (!cur.atEnd())
        SYNCRON_FATAL("trailing bytes after the last image record");
    return img;
}

void
writeImageFile(const std::string &path, const PersistedImage &img)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        SYNCRON_FATAL("cannot write persisted image '" << path << "'");
    writeImage(os, img);
    // A full disk surfaces at the final flush, not in writeImage().
    os.close();
    if (!os)
        SYNCRON_FATAL("cannot finish writing persisted image '" << path
                                                                << "'");
}

PersistedImage
readImageFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        SYNCRON_FATAL("cannot read persisted image '" << path << "'");
    return readImage(is);
}

} // namespace syncron::durability
