/**
 * @file
 * MD5 (paper §5 + "Multiple Switch Processors"): digest a 256 KB
 * input.
 *
 * MD5's block chaining prevents parallelism, so with one switch CPU
 * the active split *loses*: the embedded core runs at a quarter of
 * the host's clock and ends up doing all the work. The paper then
 * reformulates MD5 into K independent chains (block I belongs to
 * chain I mod K), digests each chain on its own switch CPU, and
 * digests the concatenated K digests on the host — recovering a
 * speedup with 2 and 4 switch CPUs (Figure 17).
 *
 * The semantic checksum uses the real MD5 implementation in
 * apps/Md5.hh over a deterministic pseudo-random input.
 */

#ifndef SAN_APPS_MD5_APP_HH
#define SAN_APPS_MD5_APP_HH

#include <cstdint>

#include "apps/Cluster.hh"
#include "apps/RunConfig.hh"

namespace san::apps {

/** Workload and cost parameters for the MD5 benchmark. */
struct Md5Params {
    std::uint64_t fileBytes = 256 * 1024; //!< paper: 256 KB
    std::uint64_t blockBytes = 16 * 1024; //!< I/O request size
    unsigned switchCpus = 1;              //!< 1, 2 or 4
    std::uint64_t seed = 99;

    /** @{ Cost model. */
    std::uint64_t digestInstrPerByte = 20; //!< rounds per 64 B block
    std::uint64_t finalizeInstr = 3000;    //!< padding + final block
    std::uint64_t chunkOverheadInstr = 40;
    std::uint64_t handlerCodeBytes = 4096; //!< fills the 4 KB I$
    /** @} */

    /** The system to run on; its switch has switchCpus embedded CPUs
     *  in the active modes and one otherwise. */
    ClusterParams cluster{};
};

/** Run MD5 in one mode. checksum = interleaved digest (hex). */
RunStats runMd5(Mode mode, const Md5Params &params = {});

} // namespace san::apps

#endif // SAN_APPS_MD5_APP_HH
