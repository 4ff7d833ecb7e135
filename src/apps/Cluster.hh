/**
 * @file
 * Single-switch cluster builder used by most benchmarks: N hosts and
 * M storage nodes around one (active-capable) switch.
 */

#ifndef SAN_APPS_CLUSTER_HH
#define SAN_APPS_CLUSTER_HH

#include <functional>
#include <memory>
#include <vector>

#include "active/ActiveSwitch.hh"
#include "apps/RunConfig.hh"
#include "host/Host.hh"
#include "io/StorageNode.hh"
#include "net/Fabric.hh"
#include "obs/Fingerprint.hh"
#include "sim/Simulation.hh"

namespace san::apps {

/** Cluster shape and component parameters. */
struct ClusterParams {
    unsigned hosts = 1;
    unsigned storageNodes = 1;
    unsigned switchPorts = 16;
    /**
     * Worker threads for the run. 1 (the default) runs the cluster
     * as one shard, bit-identical to every golden. >1 shards the
     * cluster one-component-per-shard (switch, each HCA, each TCA)
     * under the conservative PDES kernel; fingerprints are then
     * stable across thread counts but differ from the one-shard
     * stream (see DESIGN.md §14).
     */
    unsigned threads = 1;
    /** The run's instruments (trace, metrics, faults, telemetry);
     *  all off by default. */
    sim::RunContext run{};
    active::ActiveConfig active{};
    mem::MemorySystemParams hostMem = mem::hostMemoryParams();
    host::OsCostParams os{};
    io::StorageParams storage{};
    net::LinkParams link{};
    net::AdapterParams adapter{};
};

/**
 * One simulated system. The switch is always an ActiveSwitch; in the
 * normal modes no handlers are registered and no active messages are
 * sent, so it behaves exactly like a conventional switch.
 */
class Cluster
{
  public:
    explicit Cluster(const ClusterParams &params = {});

    sim::Simulation &sim() { return sim_; }
    net::Fabric &fabric() { return fabric_; }
    active::ActiveSwitch &sw() { return *sw_; }
    host::Host &host(unsigned i = 0) { return *hosts_.at(i); }
    io::StorageNode &storage(unsigned i = 0) { return *storage_.at(i); }
    unsigned hostCount() const
    {
        return static_cast<unsigned>(hosts_.size());
    }
    unsigned storageCount() const
    {
        return static_cast<unsigned>(storage_.size());
    }

    /**
     * The run fingerprint (see obs::RunFingerprint): collect() folds
     * the per-shard event streams and then the end-of-run stat values
     * into it, and reports it in RunStats.
     */
    obs::RunFingerprint &fingerprint() { return fingerprint_; }

    /**
     * Spawn a task pinned to host @p i's shard. The per-figure run
     * functions start their host loops through this so the task's
     * events land on the host's logical process.
     */
    void spawnOnHost(unsigned i, sim::Task task);

    /** Run to completion and collect the paper's metrics. */
    RunStats collect(Mode mode);

  private:
    ClusterParams params_;
    sim::Simulation sim_;
    obs::RunFingerprint fingerprint_;
    obs::ShardedFingerprint shardedFp_;
    net::Fabric fabric_;
    active::ActiveSwitch *sw_ = nullptr;
    std::vector<std::unique_ptr<host::Host>> hosts_;
    std::vector<std::unique_ptr<io::StorageNode>> storage_;
};

/**
 * Hook called at the end of every Cluster::collect(), while the
 * cluster and its components are still alive. The bench driver and
 * the golden-stats tests use it to export machine-readable stats
 * from runs whose Cluster is otherwise an implementation detail of
 * the per-app run functions. Empty (default) means disabled.
 */
using ClusterObserver = std::function<void(Cluster &, Mode)>;
ClusterObserver &clusterObserver();

} // namespace san::apps

#endif // SAN_APPS_CLUSTER_HH
