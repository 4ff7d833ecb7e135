/**
 * @file
 * Tar -cf (paper §5): archive a set of input files.
 *
 * Split: the host parses options and generates a 512-byte header per
 * input file; the data path writes headers + file contents to the
 * output archive on a remote node. In the active modes the switch
 * handler initiates the disk reads itself (the only benchmark that
 * does) and streams the archive directly to the remote node — the
 * host sees nothing but its own headers, and nearly all its normal-
 * mode busy time (per-request OS overhead, interrupts) disappears.
 */

#ifndef SAN_APPS_TAR_HH
#define SAN_APPS_TAR_HH

#include <cstdint>

#include "apps/Cluster.hh"
#include "apps/RunConfig.hh"

namespace san::apps {

/** Workload and cost parameters for Tar. */
struct TarParams {
    std::uint64_t totalBytes = 4ull * 1024 * 1024; //!< paper: 4 MB
    std::uint64_t fileBytes = 64 * 1024;           //!< 64 input files
    std::uint64_t headerBytes = 512;               //!< tar header

    /** @{ Cost model. */
    std::uint64_t headerGenInstr = 2500; //!< stat + format header
    std::uint64_t optionParseInstr = 5000;
    std::uint64_t forwardInstrPerChunk = 30; //!< handler redirect
    std::uint64_t handlerCodeBytes = 1536;
    /** @} */

    /** The system to run on; it always has two hosts. */
    ClusterParams cluster{};
};

/** Run Tar in one mode. checksum = archive bytes at remote node. */
RunStats runTar(Mode mode, const TarParams &params = {});

} // namespace san::apps

#endif // SAN_APPS_TAR_HH
