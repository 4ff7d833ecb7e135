/**
 * @file
 * HashJoin with bit-vector filter (paper §5).
 *
 * Join of R (16 MB, fits in memory) with S (128 MB), 128-byte
 * records, following DeWitt & Gerber's bit-vector optimization:
 * while R is scanned, each tuple's join attribute is hashed into a
 * 128 KB bit-vector; while S is scanned, tuples whose bit is clear
 * are discarded before the (expensive) hash-table probe. The
 * bit-vector reduction factor is 0.24.
 *
 * Normal modes: the host builds both the bit-vector and R's hash
 * table, then scans S doing filter + probe — with the scaled caches
 * (8 KB L1D / 64 KB L2) both structures miss constantly.
 *
 * Active modes: the switch builds/keeps the bit-vector as R streams
 * through to the host, then filters S inside its data buffers; only
 * the surviving 24% reach the host for the real probe.
 */

#ifndef SAN_APPS_HASH_JOIN_HH
#define SAN_APPS_HASH_JOIN_HH

#include <cstdint>

#include "apps/Cluster.hh"
#include "apps/RunConfig.hh"

namespace san::apps {

/** Workload and cost parameters for HashJoin. */
struct HashJoinParams {
    std::uint64_t rBytes = 16ull * 1024 * 1024;   //!< relation R
    std::uint64_t sBytes = 128ull * 1024 * 1024;  //!< relation S
    unsigned recordBytes = 128;
    std::uint64_t bitVectorBytes = 128 * 1024;
    double reductionFactor = 0.24;  //!< S survival probability
    std::uint64_t blockBytes = 64 * 1024;
    std::uint64_t seed = 777;

    /** @{ Cost model. */
    std::uint64_t hashInstrPerRecord = 40;     //!< hash join attribute
    std::uint64_t buildInstrPerRecord = 80;    //!< hash-table insert
    std::uint64_t probeInstrPerMatch = 120;    //!< bucket walk+compare
    std::uint64_t filterInstrPerRecord = 12;   //!< bit test + branch
    std::uint64_t chunkOverheadInstr = 40;
    std::uint64_t handlerCodeBytes = 2048;
    /** @} */

    /** The system to run on; hostMem is always the scaled host
     *  caches (mem::scaledHostMemoryParams). */
    ClusterParams cluster{};
};

/** Run HashJoin in one mode. checksum = surviving S records. */
RunStats runHashJoin(Mode mode, const HashJoinParams &params = {});

} // namespace san::apps

#endif // SAN_APPS_HASH_JOIN_HH
