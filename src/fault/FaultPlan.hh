/**
 * @file
 * Deterministic fault-injection plans.
 *
 * A FaultPlan is the single description of every fault a run may
 * suffer: rate-driven faults ("--fault-spec KIND:RATE[:SEED]") and
 * scheduled one-shot faults ("--fault-at TICK:KIND:TARGET").
 * Components obtain a FaultSite per (kind, component-name) pair; each
 * site draws from its own xoshiro256** stream seeded from the plan
 * seed, the fault kind and an FNV-1a hash of the site name, so
 *
 *  - fault schedules are reproducible: the same plan produces the
 *    same injections, event for event;
 *  - fault randomness is independent of workload randomness: adding
 *    or removing a fault kind never perturbs another site's stream;
 *  - determinism survives topology growth: a site's stream depends
 *    only on its own name, not on construction order.
 *
 * A run receives its plan through sim::RunContext::faults, which also
 * arms the recovery protocol (end-to-end checksums, ACK/NACK
 * retransmit, handler failover, I/O retries; see fault/Reliable.hh).
 * Without a plan (the default) every hook is a null-pointer check and
 * runs are byte-identical to a build without this subsystem.
 */

#ifndef SAN_FAULT_FAULT_PLAN_HH
#define SAN_FAULT_FAULT_PLAN_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/Random.hh"
#include "sim/Types.hh"

namespace san::fault {

/** Everything that can go wrong. */
enum class FaultKind {
    None = 0,     //!< no injection; arms the recovery protocol only
    LinkBitError, //!< per-bit corruption on a link (CRC fail on arrival)
    CreditLoss,   //!< a returned link credit is lost in flight
    HandlerCrash, //!< a switch-CPU handler crashes at invocation
    DiskSpike,    //!< one chunk read suffers a long media retry
    DiskTimeout,  //!< one chunk read times out and must be re-issued
    BackendDown,  //!< a load-balancer backend leaves the pool
    BackendUp,    //!< a load-balancer backend (re)joins the pool
};

inline constexpr unsigned faultKindCount = 8;

/** Canonical spelling used by flags, logs and stats. */
const char *faultKindName(FaultKind kind);

/** Parse a kind name; std::nullopt if unknown. */
std::optional<FaultKind> faultKindFromName(const std::string &name);

/** One rate-driven fault class ("--fault-spec"). */
struct FaultSpec {
    FaultKind kind = FaultKind::None;
    /** Interpretation is per-kind: bit-error rate for LinkBitError,
     * per-event probability for the others. */
    double rate = 0.0;
    /** Per-spec seed override (the optional :SEED suffix). */
    std::uint64_t seed = 0;
    bool seeded = false;
};

/** One scheduled fault ("--fault-at TICK:KIND:TARGET"). */
struct FaultEvent {
    sim::Tick at = 0;        //!< earliest tick the fault may fire
    FaultKind kind = FaultKind::None;
    std::string target;      //!< component name / handler id
    /**
     * Accessed through std::atomic_ref in sharded runs: only the
     * shard owning @c target ever *writes* it (a fault fires at the
     * component it names), but other shards' eventDue scans *read*
     * it while deciding whether their kind is still pending. Relaxed
     * is enough — a stale false only costs a redundant rescan, never
     * a different result.
     */
    bool consumed = false;
};

/** Recovery-protocol tuning knobs (defaults fit the paper fabric). */
struct RecoveryParams {
    unsigned sendWindow = 64;           //!< unacked packets per flow
    sim::Tick rtoInitial = sim::us(500); //!< first retransmit timeout
    sim::Tick rtoMax = sim::ms(8);      //!< backoff cap
    unsigned maxRetries = 16;           //!< per-flow timeout cap
    unsigned maxFailovers = 3;          //!< handler relaunch attempts
    sim::Tick failoverLatency = sim::us(50); //!< watchdog + relaunch
    sim::Tick creditSyncDelay = sim::us(20); //!< lost-credit resync
    sim::Tick diskSpikeDelay = sim::ms(30);  //!< media retry penalty
    sim::Tick diskTimeout = sim::ms(25);     //!< request timeout
    unsigned diskMaxRetries = 4;        //!< re-issues before error
};

class FaultPlan;

/**
 * One component's injection point for one fault kind. Owned by the
 * plan; components hold raw pointers (the plan must outlive them).
 */
class FaultSite
{
  public:
    /** Bernoulli draw at the site's configured rate. */
    bool fire() { return fire(rate_); }

    /**
     * Bernoulli draw at an explicit probability (per-packet
     * corruption probability derived from a bit-error rate, for
     * example). Always consumes exactly one stream value, so the
     * schedule is independent of the probability argument.
     */
    bool fire(double probability);

    FaultKind kind() const { return kind_; }
    double rate() const { return rate_; }
    const std::string &name() const { return name_; }
    /** Faults this site has injected. */
    std::uint64_t injected() const { return injected_; }

  private:
    friend class FaultPlan;

    FaultSite(FaultPlan &plan, FaultKind kind, std::string name,
              double rate, std::uint64_t seed)
        : plan_(plan), kind_(kind), name_(std::move(name)), rate_(rate),
          rng_(seed)
    {}

    FaultPlan &plan_;
    FaultKind kind_;
    std::string name_;
    double rate_;
    sim::Random rng_;
    std::uint64_t injected_ = 0;
};

/** The complete fault schedule of one run. */
class FaultPlan
{
  public:
    explicit FaultPlan(std::uint64_t base_seed = defaultSeed)
        : baseSeed_(base_seed)
    {}

    FaultPlan(const FaultPlan &) = delete;
    FaultPlan &operator=(const FaultPlan &) = delete;

    static constexpr std::uint64_t defaultSeed = 0x5eedfa017ull;

    /**
     * Parse "KIND:RATE[:SEED]" (e.g. "link-ber:1e-6",
     * "handler-crash:0.5:42"). On failure returns std::nullopt and
     * stores a message in @p error.
     */
    static std::optional<FaultSpec> parseSpec(const std::string &text,
                                              std::string *error);

    /**
     * Parse "TICK:KIND:TARGET" (tick in picoseconds; e.g.
     * "0:handler-crash:1", "5000000:link-ber:host0.hca->switch0").
     */
    static std::optional<FaultEvent> parseAt(const std::string &text,
                                             std::string *error);

    void addSpec(const FaultSpec &spec);
    void addEvent(FaultEvent event);

    /** The configured rate for @p kind, or nullopt if absent. */
    std::optional<double> rateOf(FaultKind kind) const;

    /**
     * The injection site for (@p kind, @p name). Returns nullptr when
     * the plan has no spec of that kind — the component then only
     * checks one-shot events. Sites are created on first request and
     * live as long as the plan.
     */
    FaultSite *site(FaultKind kind, const std::string &name);

    /** True if any "--fault-at" event of @p kind is still pending. */
    bool
    eventPending(FaultKind kind) const
    {
        return (pendingKinds_.load(std::memory_order_relaxed) &
                kindBit(kind)) != 0;
    }

    /**
     * Consume the first unconsumed event of (@p kind, @p target)
     * whose tick has been reached. Counts as an injection.
     */
    bool eventDue(FaultKind kind, const std::string &target,
                  sim::Tick now);

    /** Total faults injected (sites + consumed events). */
    std::uint64_t
    injected() const
    {
        return injected_.load(std::memory_order_relaxed);
    }
    /** Faults injected of one kind. */
    std::uint64_t
    injectedOf(FaultKind kind) const
    {
        return injectedByKind_[static_cast<unsigned>(kind)].load(
            std::memory_order_relaxed);
    }

    RecoveryParams &recovery() { return recovery_; }
    const RecoveryParams &recovery() const { return recovery_; }

    /** One line per spec/event, for logs and reports. */
    std::string describe() const;

  private:
    friend class FaultSite;

    static std::uint64_t
    kindBit(FaultKind kind)
    {
        return 1ull << static_cast<unsigned>(kind);
    }

    void
    countInjection(FaultKind kind)
    {
        injected_.fetch_add(1, std::memory_order_relaxed);
        injectedByKind_[static_cast<unsigned>(kind)].fetch_add(
            1, std::memory_order_relaxed);
    }

    std::uint64_t siteSeed(FaultKind kind, const std::string &name) const;

    std::uint64_t baseSeed_;
    RecoveryParams recovery_{};
    std::vector<FaultSpec> specs_;
    std::vector<FaultEvent> events_;
    // Shard-shared state. Each counter is a commutative tally and
    // each event's consumed flag is written only by the shard owning
    // its target, so relaxed atomics keep sharded runs both race-free
    // and deterministic (DESIGN.md §14).
    std::atomic<std::uint64_t> pendingKinds_{0};
    std::map<std::pair<unsigned, std::string>,
             std::unique_ptr<FaultSite>>
        sites_;
    std::atomic<std::uint64_t> injected_{0};
    std::atomic<std::uint64_t> injectedByKind_[faultKindCount]{};
};

} // namespace san::fault

#endif // SAN_FAULT_FAULT_PLAN_HH
