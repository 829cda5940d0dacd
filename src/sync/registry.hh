/**
 * @file
 * String-keyed registry of synchronization backends.
 *
 * Each backend's translation unit self-registers a factory under the
 * scheme name it reports (SYNCRON_REGISTER_BACKEND at namespace scope),
 * and NdpSystem instantiates backends purely by name — no central switch
 * over a Scheme enum, so out-of-tree backends plug in by linking one
 * object file, and harnesses/CLIs/configs can select schemes from
 * strings.
 *
 * Note for embedders: the core must be linked as a whole (the build uses
 * a CMake OBJECT library) so the self-registration objects are not
 * dead-stripped as unreferenced static-library members.
 */

#ifndef SYNCRON_SYNC_REGISTRY_HH
#define SYNCRON_SYNC_REGISTRY_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace syncron {
class Machine;
} // namespace syncron

namespace syncron::sync {

class SyncBackend;

/** Global name -> factory table for synchronization backends. */
class BackendRegistry
{
  public:
    using Factory =
        std::function<std::unique_ptr<SyncBackend>(Machine &)>;

    /** The process-wide registry (initialized on first use). */
    static BackendRegistry &instance();

    /**
     * Registers @p factory under @p name; duplicate names are fatal.
     * @p shardable declares the backend safe for sharded simulation
     * (SystemConfig::simShards > 1): its agents reach other units only
     * through Machine's keyed deliveries (postMessage()). Backends that
     * touch foreign units synchronously (Ideal's zero-latency grants,
     * the MiSAR overflow ablations) stay non-shardable and collapse
     * sharded runs to one shard.
     */
    void add(std::string name, Factory factory, bool shardable = false);

    /** True when a backend is registered under @p name. */
    bool contains(std::string_view name) const;

    /** True when @p name is registered and declared shard-safe. */
    bool shardable(std::string_view name) const;

    /**
     * Instantiates the backend registered under @p name on @p machine.
     * @return nullptr when no such backend exists
     */
    std::unique_ptr<SyncBackend> tryCreate(std::string_view name,
                                           Machine &machine) const;

    /** Like tryCreate(), but unknown names are fatal (lists options). */
    std::unique_ptr<SyncBackend> create(std::string_view name,
                                        Machine &machine) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

    /** Registered names joined as "a, b, c" (for error messages). */
    std::string knownNames() const;

  private:
    BackendRegistry() = default;

    struct Entry
    {
        Factory factory;
        bool shardable = false;
    };

    std::map<std::string, Entry, std::less<>> factories_;
};

/** Registers a backend factory at static-initialization time. */
struct BackendRegistration
{
    BackendRegistration(const char *name, BackendRegistry::Factory factory,
                        bool shardable = false);
};

} // namespace syncron::sync

#define SYNCRON_REGISTRY_CONCAT_INNER(a, b) a##b
#define SYNCRON_REGISTRY_CONCAT(a, b) SYNCRON_REGISTRY_CONCAT_INNER(a, b)

/**
 * Self-registers a backend under @p name. Place one per backend at
 * namespace scope in the backend's .cc file:
 *
 *   SYNCRON_REGISTER_BACKEND("Ideal", [](Machine &m) {
 *       return std::make_unique<IdealBackend>(m);
 *   });
 */
#define SYNCRON_REGISTER_BACKEND(name, ...)                                 \
    static const ::syncron::sync::BackendRegistration                       \
        SYNCRON_REGISTRY_CONCAT(syncronBackendRegistration_, __COUNTER__){  \
            name, __VA_ARGS__}

/**
 * Like SYNCRON_REGISTER_BACKEND, but declares the backend safe for
 * sharded simulation (see BackendRegistry::add): its agents never touch
 * a foreign unit's queue, gates, or devices synchronously — all
 * cross-unit work goes through Machine::postMessage()/
 * memoryAccessAsync().
 */
#define SYNCRON_REGISTER_BACKEND_SHARDABLE(name, ...)                       \
    static const ::syncron::sync::BackendRegistration                       \
        SYNCRON_REGISTRY_CONCAT(syncronBackendRegistration_, __COUNTER__){  \
            name, __VA_ARGS__, /*shardable=*/true}

#endif // SYNCRON_SYNC_REGISTRY_HH
