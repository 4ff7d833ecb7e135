/**
 * @file
 * Deterministic fault-injection plans.
 *
 * A FaultPlan is the single description of every fault a run may
 * suffer: rate-driven faults ("--fault-spec KIND:RATE[:SEED]") and
 * scheduled one-shot faults ("--fault-at TICK:KIND:TARGET").
 * Components obtain a FaultSite per (kind, component-name) pair and
 * ask only it whether a fault hits them. Each site draws from its own
 * xoshiro256** stream seeded from the plan seed, the fault kind and
 * an FNV-1a hash of the site name, and holds its own copy of every
 * one-shot event of its kind, so
 *
 *  - fault schedules are reproducible: the same plan produces the
 *    same injections, event for event;
 *  - fault randomness is independent of workload randomness: adding
 *    or removing a fault kind never perturbs another site's stream;
 *  - determinism survives topology growth: a site's stream depends
 *    only on its own name, not on construction order;
 *  - no fault state is shared: a site belongs to one component, and
 *    so to one shard of a sharded run.
 *
 * A run receives its plan through sim::RunContext::faults, which also
 * arms the recovery protocol (end-to-end checksums, ACK/NACK
 * retransmit, handler failover, I/O retries; see fault/Reliable.hh).
 * Without a plan (the default) every hook is a null-pointer check and
 * runs are byte-identical to a build without this subsystem.
 */

#ifndef SAN_FAULT_FAULT_PLAN_HH
#define SAN_FAULT_FAULT_PLAN_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
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
    /** Component name (links, storage nodes), handler id (crashes)
     * or backend index (backend-down/up). */
    std::string target;
};

/** @{ Recovery-protocol constants (they fit the paper fabric). */
inline constexpr unsigned sendWindow = 64;    //!< unacked packets per flow
inline constexpr unsigned maxRetries = 16;    //!< per-flow timeout cap
inline constexpr unsigned maxFailovers = 3;   //!< handler relaunches
inline constexpr unsigned diskMaxRetries = 4; //!< re-issues before error
inline constexpr sim::Tick rtoInitial = sim::us(500);     //!< first RTO
inline constexpr sim::Tick rtoMax = sim::ms(8);           //!< RTO cap
inline constexpr sim::Tick failoverLatency = sim::us(50); //!< watchdog
inline constexpr sim::Tick creditSyncDelay = sim::us(20); //!< credit resync
inline constexpr sim::Tick diskSpikeDelay = sim::ms(30);  //!< media retry
inline constexpr sim::Tick diskTimeout = sim::ms(25);     //!< request timeout
/** @} */

/**
 * One component's injection point for one fault kind, and the one
 * place the component asks whether a fault hits it. The site holds
 * the kind's rate stream and its own copy of every one-shot event of
 * the kind, so it shares no state with any other site. Owned by the
 * plan; components hold raw pointers (the plan must outlive them).
 */
class FaultSite
{
  public:
    /** Does a fault hit @p target at @p now? See the overload. */
    bool
    hits(sim::Tick now, std::string_view target)
    {
        return hits(now, target, rate_);
    }

    /**
     * Does a fault hit @p target at @p now? If the plan has a spec of
     * this kind, first draws the rate stream at @p probability (the
     * per-packet corruption probability derived from a bit-error
     * rate, for example); the draw always consumes exactly one stream
     * value, so the schedule is independent of the probability. If
     * that draw misses, consumes the first of the site's one-shot
     * events whose target is @p target and whose tick @p now has
     * reached.
     */
    bool hits(sim::Tick now, std::string_view target,
              double probability);

    FaultKind kind() const { return kind_; }
    /** The spec's rate, 0 if the plan has no spec of this kind. */
    double rate() const { return rate_; }
    const std::string &name() const { return name_; }
    /** Faults this site has injected. */
    std::uint64_t injected() const { return injected_; }

  private:
    friend class FaultPlan;

    FaultSite(FaultKind kind, std::string name,
              std::optional<double> rate, std::uint64_t seed,
              std::vector<FaultEvent> events)
        : kind_(kind), name_(std::move(name)), hasSpec_(rate.has_value()),
          rate_(rate.value_or(0.0)), rng_(seed),
          events_(std::move(events))
    {}

    FaultKind kind_;
    std::string name_;
    bool hasSpec_; //!< the plan has a spec of this kind
    double rate_;
    sim::Random rng_;
    /** One-shot events of this kind not yet fired here, in
     * command-line order. */
    std::vector<FaultEvent> events_;
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
     * stores a message in @p error. The backend kinds take no rate:
     * the balancer acts on one-shot events only.
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

    /**
     * The injection site for (@p kind, @p name). Returns nullptr when
     * the plan has neither a spec nor an event of that kind. Sites
     * are created on first request, with a copy of every event of
     * the kind, and live as long as the plan. Components request
     * theirs while the run is being built.
     */
    FaultSite *site(FaultKind kind, const std::string &name);

    /** Total faults injected, summed over the sites. */
    std::uint64_t injected() const;
    /** Faults of one kind injected, summed over that kind's sites. */
    std::uint64_t injectedOf(FaultKind kind) const;

    /** One line per spec/event, for logs and reports. */
    std::string describe() const;

  private:
    /** The configured rate for @p kind, or nullopt if absent. */
    std::optional<double> rateOf(FaultKind kind) const;
    std::uint64_t siteSeed(FaultKind kind, const std::string &name) const;

    std::uint64_t baseSeed_;
    std::vector<FaultSpec> specs_;
    std::vector<FaultEvent> events_;
    std::map<std::pair<unsigned, std::string>,
             std::unique_ptr<FaultSite>>
        sites_;
};

} // namespace san::fault

#endif // SAN_FAULT_FAULT_PLAN_HH
