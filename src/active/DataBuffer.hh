/**
 * @file
 * On-chip data buffers: the central staging area of the active
 * switch.
 *
 * The paper's switch has 16 independently-managed 512 B buffers (one
 * MTU each) with cache-line-granularity valid bits. Incoming data
 * streams into a buffer as it arrives off the wire; a handler
 * touching a line that is not yet valid stalls until it is. Because
 * arrival timing is known when the packet header is seen (virtual
 * cut-through), valid times are computed analytically per line.
 */

#ifndef SAN_ACTIVE_DATA_BUFFER_HH
#define SAN_ACTIVE_DATA_BUFFER_HH

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/Metrics.hh"
#include "sim/Types.hh"

namespace san::active {

/** Geometry of the buffer pool (paper defaults). */
struct DataBufferParams {
    unsigned count = 16;     //!< number of buffers
    unsigned bytes = 512;    //!< one network MTU each
    unsigned lineBytes = 32; //!< valid-bit granularity (D$ line)
};

/**
 * The pool of data buffers plus the data buffer administrator (DBA)
 * responsible for allocation and release.
 */
class DataBufferPool
{
  public:
    explicit DataBufferPool(const DataBufferParams &params = {})
        : params_(params), buffers_(params.count)
    {
        freeList_.reserve(params.count);
        for (unsigned i = 0; i < params.count; ++i)
            freeList_.push_back(params.count - 1 - i);
    }

    const DataBufferParams &params() const { return params_; }

    /** Grab a free buffer, if any. */
    std::optional<unsigned>
    allocate()
    {
        if (freeList_.empty()) {
            ++allocationFailures_;
            return std::nullopt;
        }
        const unsigned id = freeList_.back();
        freeList_.pop_back();
        buffers_[id].inUse = true;
        ++allocations_;
        inUse_ = params_.count - static_cast<unsigned>(freeList_.size());
        peakInUse_ = std::max(peakInUse_, inUse_);
        return id;
    }

    /**
     * Record an incoming fill: @p bytes streaming into buffer @p id
     * starting at @p first_byte, at @p ps_per_byte wire rate. Line i
     * becomes valid when its last byte is in.
     */
    void
    fill(unsigned id, sim::Tick first_byte, std::uint32_t bytes,
         sim::PsPerByte ps_per_byte)
    {
        assert(id < params_.count && buffers_[id].inUse);
        assert(bytes <= params_.bytes);
        Buffer &b = buffers_[id];
        b.validBytes = bytes;
        b.lineValidAt.assign(
            (bytes + params_.lineBytes - 1) / params_.lineBytes, 0);
        for (std::size_t i = 0; i < b.lineValidAt.size(); ++i) {
            const std::uint32_t line_end = std::min<std::uint32_t>(
                static_cast<std::uint32_t>((i + 1) * params_.lineBytes),
                bytes);
            b.lineValidAt[i] =
                first_byte + sim::transferTime(line_end, ps_per_byte);
        }
    }

    /** Mark a locally-composed buffer fully valid immediately. */
    void
    fillLocal(unsigned id, std::uint32_t bytes, sim::Tick now)
    {
        assert(id < params_.count && buffers_[id].inUse);
        Buffer &b = buffers_[id];
        b.validBytes = bytes;
        b.lineValidAt.assign(
            (bytes + params_.lineBytes - 1) / params_.lineBytes, now);
    }

    /**
     * When does the byte range [offset, offset+len) become valid?
     * Accessing it before then stalls the switch CPU.
     */
    sim::Tick
    validAt(unsigned id, std::uint32_t offset, std::uint32_t len) const
    {
        assert(id < params_.count && buffers_[id].inUse);
        const Buffer &b = buffers_[id];
        if (len == 0)
            return 0;
        assert(offset + len <= b.validBytes && "read past filled data");
        const std::size_t last_line =
            (offset + len - 1) / params_.lineBytes;
        return b.lineValidAt[last_line];
    }

    /** Release a buffer back to the DBA free list. */
    void
    release(unsigned id)
    {
        assert(id < params_.count && buffers_[id].inUse);
        buffers_[id] = Buffer{};
        freeList_.push_back(id);
        ++releases_;
        inUse_ = params_.count - static_cast<unsigned>(freeList_.size());
    }

    unsigned freeCount() const
    {
        return static_cast<unsigned>(freeList_.size());
    }
    unsigned inUse() const { return inUse_; }
    unsigned peakInUse() const { return peakInUse_; }
    std::uint64_t allocations() const { return allocations_; }
    std::uint64_t releases() const { return releases_; }
    std::uint64_t allocationFailures() const { return allocationFailures_; }

    /**
     * Register the pool's occupancy timeline under @p prefix: live
     * buffers (gauge) plus allocations and allocation failures per
     * interval — the buffer-pressure view of the paper's §5 stalls.
     */
    void
    registerMetrics(obs::MetricsRegistry &m,
                    const std::string &prefix) const
    {
        m.add(prefix + ".inUse", obs::GaugeKind::Gauge,
              [this] { return static_cast<double>(inUse_); });
        m.add(prefix + ".allocations", obs::GaugeKind::Rate,
              [this] { return static_cast<double>(allocations_); });
        m.add(prefix + ".allocationFailures", obs::GaugeKind::Rate, [this] {
            return static_cast<double>(allocationFailures_);
        });
    }

  private:
    struct Buffer {
        bool inUse = false;
        std::uint32_t validBytes = 0;
        std::vector<sim::Tick> lineValidAt;
    };

    DataBufferParams params_;
    std::vector<Buffer> buffers_;
    std::vector<unsigned> freeList_;
    unsigned inUse_ = 0;
    unsigned peakInUse_ = 0;
    std::uint64_t allocations_ = 0;
    std::uint64_t releases_ = 0;
    std::uint64_t allocationFailures_ = 0;
};

} // namespace san::active

#endif // SAN_ACTIVE_DATA_BUFFER_HH
