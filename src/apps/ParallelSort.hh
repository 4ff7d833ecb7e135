/**
 * @file
 * Parallel sort, distribution phase (paper §5).
 *
 * One-pass parallel sort over uniformly distributed keys
 * (Datamation-style 100-byte records with 10-byte keys): each of the
 * p participating hosts reads 1/p of the data and redistributes
 * records to their range owners; the local sort that follows is
 * identical in all configurations and is not simulated (as in the
 * paper).
 *
 * Normal modes: every host receives its file from disk, classifies
 * each record, and ships (p-1)/p of them to peers — per-node traffic
 * is its file in, (p-1)/p out, (p-1)/p in.
 *
 * Active modes: the switch handler classifies records as the disk
 * streams flow through it and forwards each record only to its
 * owner: per-node traffic drops to 1/p of the total data in and
 * nothing out — the paper's p/(3p-2) ratio (40% at p = 4).
 */

#ifndef SAN_APPS_PARALLEL_SORT_HH
#define SAN_APPS_PARALLEL_SORT_HH

#include <cstdint>

#include "apps/Cluster.hh"
#include "apps/RunConfig.hh"

namespace san::apps {

/** Workload and cost parameters for the sort distribution phase. */
struct SortParams {
    std::uint64_t totalBytes = 16ull * 1024 * 1024; //!< Table 1: 16M
    unsigned nodes = 4;
    unsigned recordBytes = 100; //!< Datamation format
    unsigned keyBytes = 10;
    std::uint64_t blockBytes = 64 * 1024;
    std::uint64_t seed = 4242;

    /** @{ Cost model. */
    std::uint64_t classifyInstrPerRecord = 30; //!< key -> range bin
    std::uint64_t gatherInstrPerRecord = 25;   //!< copy into out-buf
    std::uint64_t chunkOverheadInstr = 40;
    std::uint64_t handlerCodeBytes = 2048;
    /** @} */

    /** The system to run on; nodes sets its host and storage counts,
     *  on a 16-port switch. */
    ClusterParams cluster{};
};

/** Destination node of a record (uniform key distribution). */
unsigned sortDestination(const SortParams &p, std::uint64_t record);

/** Run the distribution phase. checksum = records per node list. */
RunStats runParallelSort(Mode mode, const SortParams &params = {});

} // namespace san::apps

#endif // SAN_APPS_PARALLEL_SORT_HH
