/**
 * @file
 * Collective reduction (paper §5, Table 2, Figures 15 & 16).
 *
 * All p compute nodes combine equal-length vectors with an
 * associative operation (addition here). Two variants:
 *  - Reduce-to-one: node 0 ends with the full result vector y.
 *  - Distributed Reduce: node i ends with segment y_i of the result.
 *
 * Normal implementation: binomial (minimum spanning tree) reduce in
 * ceil(log2 p) rounds of point-to-point messages; Distributed Reduce
 * appends a binomial scatter. Cost per round is alpha + lambda in
 * the paper's model.
 *
 * Active implementation: every node fires its vector at its leaf
 * switch simultaneously; each switch reduces its children's vectors
 * in its data buffers and forwards one partial up the tree; the root
 * emits the result — latency alpha + gamma + ceil(log_{N/2} p) *
 * delta, beating the software lower bound because the switch touches
 * message data with almost no per-message overhead.
 *
 * Topology: 16-port switches with 8 hosts per leaf switch (half the
 * ports), switch tree of arity 8 above them, as in the paper.
 */

#ifndef SAN_APPS_REDUCTION_HH
#define SAN_APPS_REDUCTION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "active/ActiveSwitch.hh"
#include "apps/RunConfig.hh"
#include "sim/RunContext.hh"
#include "sim/Types.hh"

namespace san::apps {

enum class ReduceKind { ToOne, Distributed, ToAll };

/** Workload and cost parameters for collective reduction. */
struct ReductionParams {
    unsigned nodes = 8;             //!< p (results shown to 128)
    unsigned vectorBytes = 512;     //!< per-node vector
    unsigned elementBytes = 4;      //!< int32 elements
    unsigned switchPorts = 16;
    unsigned hostsPerLeaf = 8;      //!< half the ports, as in paper
    std::uint64_t seed = 31;
    /**
     * Worker threads. 1 = one shard. >1 shards the system per-switch
     * (hosts follow their leaf) under the conservative PDES kernel;
     * results and checksums are identical, fingerprints are stable
     * across thread counts (DESIGN.md §14).
     */
    unsigned threads = 1;
    /** The run's instruments (faults, telemetry, trace); all off by
     *  default. */
    sim::RunContext run{};

    /** @{ Cost model. */
    /**
     * Switch-side combine: the embedded CPU reads both operands
     * straight from data buffers through its dedicated ports
     * (load-add-accumulate per element; no cache, no copies).
     */
    std::uint64_t addInstrPerElement = 1;
    std::uint64_t handlerCodeBytes = 512;
    /**
     * Host-side messaging software (user-level protocol layer: build
     * descriptor, ring doorbell, poll completion, reorder/copy).
     * Charged per send / per receive on hosts in both modes — this
     * is the alpha of the paper's latency model, which the switch
     * data path avoids between tree levels.
     */
    std::uint64_t sendProtocolInstr = 12000;
    std::uint64_t recvProtocolInstr = 16000;
    /** @} */

    /** Switch hardware overrides (ablation studies). */
    active::ActiveConfig switchConfig{};
};

/** Outcome of one reduction run. */
struct ReductionRun {
    sim::Tick latency = 0;
    bool correct = false;      //!< result equals sequential reference
    std::string checksum;      //!< first/last elements of the result
    /** Event-stream digest: the deterministic per-shard merge,
     *  which for one shard is that shard's RunFingerprint. */
    std::uint64_t fingerprint = 0;
    std::uint64_t events = 0;  //!< events executed
};

/** Run one reduction. @p active selects switch-based reduction. */
ReductionRun runReduction(bool active, ReduceKind kind,
                          const ReductionParams &params = {});

/** Sequential reference: elementwise sum of all node vectors. */
std::vector<std::int32_t> reduceReference(const ReductionParams &params);

/** The deterministic input vector of one node. */
std::vector<std::int32_t> nodeVector(const ReductionParams &params,
                                     unsigned node);

} // namespace san::apps

#endif // SAN_APPS_REDUCTION_HH
