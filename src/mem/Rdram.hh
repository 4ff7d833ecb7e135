/**
 * @file
 * RDRAM timing model: open-page banks plus channel bandwidth.
 *
 * Parameters follow the paper: 1.6 GB/s peak, 100 ns page-hit
 * latency, 122 ns page-miss latency, for both host and switch memory
 * systems.
 */

#ifndef SAN_MEM_RDRAM_HH
#define SAN_MEM_RDRAM_HH

#include <cstdint>
#include <vector>

#include "mem/Cache.hh"
#include "sim/Types.hh"

namespace san::mem {

/** RDRAM device/channel parameters. */
struct RdramParams {
    double bandwidthBytesPerSec = 1.6e9;
    sim::Tick pageHitLatency = sim::ns(100);
    sim::Tick pageMissLatency = sim::ns(122);
    unsigned banks = 32;
    unsigned pageBytes = 2048;
};

/** Result of one DRAM access. */
struct DramAccess {
    sim::Tick start;     //!< when the channel accepted the request
    sim::Tick complete;  //!< when the last byte arrived
    bool pageHit;
};

/**
 * One RDRAM channel with per-bank open pages and a serial data bus.
 *
 * The model is queue-free: callers pass the current time and receive
 * the completion time; channel occupancy is tracked so back-to-back
 * accesses serialize at peak bandwidth.
 */
class Rdram
{
  public:
    /** @throws std::invalid_argument unless pageBytes and banks are
     * powers of two. */
    explicit Rdram(const RdramParams &params = {})
        : params_(params),
          psPerByte_(sim::bytesPerSec(params.bandwidthBytesPerSec)),
          pageShift_(log2Exact(params.pageBytes, "rdram", "pageBytes")),
          bankMask_((1u << log2Exact(params.banks, "rdram", "banks")) - 1)
    {}

    /** Access @p bytes at @p addr starting no earlier than @p now. */
    DramAccess
    access(Addr addr, unsigned bytes, sim::Tick now)
    {
        const std::uint64_t page = addr >> pageShift_;
        const unsigned bank = page & bankMask_;
        if (openPage_.empty())
            openPage_.assign(params_.banks, noPage);
        const bool hit = openPage_[bank] == page;
        openPage_[bank] = page;
        hit ? ++pageHits_ : ++pageMisses_;

        const sim::Tick start = std::max(now, channelFree_);
        const sim::Tick lat =
            hit ? params_.pageHitLatency : params_.pageMissLatency;
        const sim::Tick xfer = sim::transferTime(bytes, psPerByte_);
        channelFree_ = start + xfer;
        bytesTransferred_ += bytes;
        return DramAccess{start, start + lat + xfer, hit};
    }

    const RdramParams &params() const { return params_; }
    std::uint64_t pageHits() const { return pageHits_; }
    std::uint64_t pageMisses() const { return pageMisses_; }
    std::uint64_t bytesTransferred() const { return bytesTransferred_; }

  private:
    static constexpr std::uint64_t noPage = ~std::uint64_t(0);

    RdramParams params_;
    sim::PsPerByte psPerByte_;
    unsigned pageShift_;
    unsigned bankMask_;
    /** Open page per bank, taken on the first access. */
    std::vector<std::uint64_t> openPage_;
    sim::Tick channelFree_ = 0;
    std::uint64_t pageHits_ = 0, pageMisses_ = 0;
    std::uint64_t bytesTransferred_ = 0;
};

} // namespace san::mem

#endif // SAN_MEM_RDRAM_HH
