#include "system/config.hh"

#include "common/log.hh"
#include "sim/event_queue.hh"

namespace syncron {

namespace {

/** Most units a machine may have. Every unit id must fit the event
 *  key's source-unit field (sim/event_queue.hh), which orders same-tick
 *  cross-unit deliveries. */
constexpr unsigned kMaxUnits = 16;
static_assert(kMaxUnits <= sim::EventQueue::kMaxDeliverySources,
              "unit ids must fit the delivery key's source-unit field");

} // namespace

const char *
schemeName(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Ideal: return "Ideal";
      case Scheme::Central: return "Central";
      case Scheme::Hier: return "Hier";
      case Scheme::SynCron: return "SynCron";
      case Scheme::SynCronFlat: return "SynCron-flat";
      case Scheme::SynCronCentralOvrfl: return "SynCron_CentralOvrfl";
      case Scheme::SynCronDistribOvrfl: return "SynCron_DistribOvrfl";
    }
    return "?";
}

bool
schemeFromName(std::string_view name, Scheme &out)
{
    for (Scheme s : {Scheme::Ideal, Scheme::Central, Scheme::Hier,
                     Scheme::SynCron, Scheme::SynCronFlat,
                     Scheme::SynCronCentralOvrfl,
                     Scheme::SynCronDistribOvrfl}) {
        if (name == schemeName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

void
SystemConfig::validate() const
{
    if (numUnits < 1 || numUnits > kMaxUnits)
        SYNCRON_FATAL("numUnits must be in [1, " << kMaxUnits << "], got "
                                                 << numUnits);
    if (coresPerUnit < 1 || coresPerUnit > 64)
        SYNCRON_FATAL("coresPerUnit must be in [1, 64], got "
                      << coresPerUnit);
    if (clientCoresPerUnit < 1 || clientCoresPerUnit > coresPerUnit)
        SYNCRON_FATAL("clientCoresPerUnit must be in [1, coresPerUnit]");
    if (stEntries < 1)
        SYNCRON_FATAL("stEntries must be >= 1");
    if (indexingCounters < 1)
        SYNCRON_FATAL("indexingCounters must be >= 1");
    if (persistEpochOps < 1)
        SYNCRON_FATAL("persistEpochOps must be >= 1");
    if (pm.writeTicks < 1)
        SYNCRON_FATAL("pm.writeTicks must be >= 1");
    if (simShards < 1)
        SYNCRON_FATAL("simShards must be >= 1");
    if (simShards > 1) {
        // These subsystems assume one event stream / one teardown
        // order; the harness surfaces the same constraints as
        // --sim-shards usage errors.
        if (!tracePath.empty())
            SYNCRON_FATAL("trace capture requires simShards == 1");
        if (crashAtTick != 0)
            SYNCRON_FATAL("crash injection requires simShards == 1");
        if (persistMode != durability::PersistMode::Off)
            SYNCRON_FATAL("durability requires simShards == 1");
    }
}

SystemConfig
SystemConfig::make(Scheme scheme, unsigned numUnits,
                   unsigned clientCoresPerUnit)
{
    SystemConfig cfg;
    cfg.scheme = scheme;
    cfg.numUnits = numUnits;
    cfg.clientCoresPerUnit = clientCoresPerUnit;
    cfg.validate();
    return cfg;
}

} // namespace syncron
