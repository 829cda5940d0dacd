#include "durability/manager.hh"

#include "common/log.hh"
#include "system/machine.hh"

namespace syncron::durability {

DurabilityManager::DurabilityManager(Machine &machine)
    : machine_(machine),
      mode_(machine.config().persistMode),
      epochOps_(machine.config().persistEpochOps),
      capture_(machine.config())
{
    SYNCRON_ASSERT(mode_ != PersistMode::Off,
                   "DurabilityManager built with durability off");
}

void
DurabilityManager::onComplete(CoreId core, const sync::SyncRequest &req,
                              Tick issued, Tick completed)
{
    capture_.onComplete(core, req, issued, completed);
    ++appended_;
    if (mode_ == PersistMode::Eager) {
        durable_ = appended_;
        chargePmWrite(machine_.stats(), kWalRecordBits);
        return;
    }
    if (++staged_ >= epochOps_)
        flushStaged();
}

void
DurabilityManager::onDestroy(Addr addr)
{
    capture_.onDestroy(addr);
}

void
DurabilityManager::flushStaged()
{
    if (staged_ == 0)
        return;
    ++machine_.stats().pmFlushes;
    chargePmWrite(machine_.stats(), staged_ * kWalRecordBits);
    durable_ = appended_;
    staged_ = 0;
}

PersistedImage
DurabilityManager::snapshot() const
{
    const trace::Trace &wal = capture_.trace();
    SYNCRON_ASSERT(durable_ <= wal.records.size(),
                   "durable count " << durable_
                                    << " past the WAL's "
                                    << wal.records.size()
                                    << " records");
    PersistedImage img;
    img.mode = mode_;
    img.epochOps = epochOps_;
    img.crashTick = crashTick_;
    img.appended = appended_;
    // Primitive metadata is tiny and persisted eagerly at mint in
    // every mode, so the whole table survives; only record durability
    // depends on the mode.
    img.log = wal;
    img.log.records.resize(static_cast<std::size_t>(durable_));
    return img;
}

} // namespace syncron::durability
