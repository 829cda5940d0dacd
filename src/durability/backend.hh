/**
 * @file
 * PersistingBackend: the write-ahead PM latency on the request path.
 *
 * A decorator over any registered sync backend (SynCron, Central, …),
 * installed by NdpSystem in PersistMode::Eager only. Acquire-type
 * operations are held for PmParams::writeTicks — the modeled time for
 * the intent record to reach the PM durability domain — before being
 * admitted to the inner backend. Release-type operations are forwarded
 * immediately: req_async semantics commit at issue (SyncApi asserts
 * the gate opened synchronously), and their WAL append is charged on
 * the completion path by DurabilityManager.
 *
 * Epoch mode installs no decorator: staging is volatile and free; the
 * cost moves to the batched flush (and to the data lost at a crash).
 */

#ifndef SYNCRON_DURABILITY_BACKEND_HH
#define SYNCRON_DURABILITY_BACKEND_HH

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "sync/backend.hh"

namespace syncron {
class Machine;
} // namespace syncron

namespace syncron::durability {

/** Eager-persist request decorator; see the file comment. */
class PersistingBackend final : public sync::SyncBackend
{
  public:
    PersistingBackend(std::unique_ptr<sync::SyncBackend> inner,
                      Machine &machine);

    void request(core::Core &requester, const sync::SyncRequest &req,
                 sim::Gate *gate) override;

    // requestBatch() deliberately inherits the per-op loop: in eager
    // mode every member carries its own write-ahead persist, so there
    // is no shared message to coalesce around.

    bool idleVar(Addr var) const override;
    void releaseVar(Addr var) override;
    const char *name() const override { return inner_->name(); }

  private:
    std::unique_ptr<sync::SyncBackend> inner_;
    Machine &machine_;
    /** Per-variable count of requests inside their persist delay. */
    std::unordered_map<Addr, std::uint32_t> pending_;
};

} // namespace syncron::durability

#endif // SYNCRON_DURABILITY_BACKEND_HH
