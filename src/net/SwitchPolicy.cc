#include "net/SwitchPolicy.hh"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>
#include <string>
#include <utility>

#include "net/Switch.hh"
#include "sim/Simulation.hh"

namespace san::net {

namespace {

constexpr sim::Tick kNever = std::numeric_limits<sim::Tick>::max();

} // namespace

// ---------------------------------------------------------------------
// Names and spec parsing
// ---------------------------------------------------------------------

const char *
policyKindName(SwitchPolicyKind kind)
{
    switch (kind) {
    case SwitchPolicyKind::CentralOutput:
        return "central";
    case SwitchPolicyKind::Voq:
        return "voq";
    case SwitchPolicyKind::Crosspoint:
        return "crosspoint";
    }
    return "?";
}

const char *
serviceOrderName(ServiceOrder order)
{
    switch (order) {
    case ServiceOrder::Fifo:
        return "fifo";
    case ServiceOrder::OldestFirst:
        return "oldest";
    case ServiceOrder::LongestFirst:
        return "longest";
    }
    return "?";
}

std::optional<SwitchPolicyConfig>
parsePolicySpec(std::string_view spec)
{
    SwitchPolicyConfig cfg;
    std::string_view kind = spec;
    std::string_view order;
    if (const auto colon = spec.find(':'); colon != std::string_view::npos) {
        kind = spec.substr(0, colon);
        order = spec.substr(colon + 1);
        // "voq:" names no order: an error, not the bare kind.
        if (order.empty())
            return std::nullopt;
    }
    if (kind == "central") {
        cfg.kind = SwitchPolicyKind::CentralOutput;
    } else if (kind == "fifo") {
        // The classic finite shared-memory FIFO output queue.
        cfg.kind = SwitchPolicyKind::CentralOutput;
        cfg.sharedCapacityCells = 64;
    } else if (kind == "voq") {
        cfg.kind = SwitchPolicyKind::Voq;
    } else if (kind == "crosspoint" || kind == "xpoint") {
        cfg.kind = SwitchPolicyKind::Crosspoint;
    } else {
        return std::nullopt;
    }
    if (!order.empty()) {
        // The central queue serves each output in arrival order, so
        // an order it cannot honour is an error, not a no-op.
        if (cfg.kind == SwitchPolicyKind::CentralOutput)
            return std::nullopt;
        if (order == "fifo")
            cfg.order = ServiceOrder::Fifo;
        else if (order == "oldest")
            cfg.order = ServiceOrder::OldestFirst;
        else if (order == "longest")
            cfg.order = ServiceOrder::LongestFirst;
        else
            return std::nullopt;
    }
    return cfg;
}

// ---------------------------------------------------------------------
// QueueingPolicy base: accessors into the owning switch
// ---------------------------------------------------------------------

QueueingPolicy::QueueingPolicy(Switch &sw)
    : sw_(sw), fwdBytesFrom_(sw.params().ports + 1)
{}

unsigned
QueueingPolicy::portCount() const
{
    return sw_.params().ports;
}

unsigned
QueueingPolicy::inputCount() const
{
    return sw_.params().ports + 1;
}

sim::Simulation &
QueueingPolicy::simulation() const
{
    return sw_.sim();
}

void
QueueingPolicy::creditReturn(unsigned in_port)
{
    if (in_port >= portCount())
        return; // local injection: no link credit was charged
    Link *in = sw_.inLink(in_port);
    assert(in != nullptr && "credit return on unwired port");
    in->returnCredit();
}

void
QueueingPolicy::forward(unsigned in_port, unsigned out_port, Packet &&pkt)
{
    Link *out = sw_.outLink(out_port);
    assert(out != nullptr && "routing to unwired port");
    ++counters_.forwarded;
    fwdBytesFrom_[in_port] += pkt.wireBytes();
    if (pkt.telemetry) {
        // The single egress choke point for every policy: the hop
        // closes here. Passthrough ingress never stamped an
        // admission, which noteEgress resolves to the ingress tick
        // (zero policy wait), matching the pre-policy switch.
        const sim::Tick now = simulation().now();
        pkt.telemetry->noteEgress(now);
        if (auto *tr = simulation().tracer()) {
            // Zero-duration anchor slice so the lineage arrow has a
            // slice to bind to on the switch's track.
            tr->span(sw_.name(), "forward", now, now);
            tr->flowStep(sw_.name(), "lineage", pkt.telemetry->uid,
                         now);
        }
    }
    out->send(std::move(pkt));
}

sim::Tick
QueueingPolicy::serialization(unsigned out_port, const Packet &pkt) const
{
    Link *out = sw_.outLink(out_port);
    assert(out != nullptr);
    return out->serialization(pkt);
}

bool
QueueingPolicy::outputReady(unsigned out_port) const
{
    Link *out = sw_.outLink(out_port);
    return out != nullptr && out->credits() > 0 && out->queued() == 0;
}

void
QueueingPolicy::observeOutputCredits(std::function<void()> fn)
{
    creditObserver_ = std::move(fn);
    for (unsigned p = 0; p < portCount(); ++p)
        if (Link *out = sw_.outLink(p))
            out->setCreditObserver(creditObserver_);
}

void
QueueingPolicy::portAttached(unsigned port)
{
    if (!creditObserver_)
        return;
    if (Link *out = sw_.outLink(port))
        out->setCreditObserver(creditObserver_);
}

std::uint64_t
QueueingPolicy::forwardedBytesFrom(unsigned in_port) const
{
    return fwdBytesFrom_.at(in_port);
}

void
QueueingPolicy::registerMetrics(obs::MetricsRegistry &m,
                                const std::string &prefix) const
{
    m.add(prefix + ".occupancy", obs::GaugeKind::Gauge,
          [this] { return static_cast<double>(occupancy()); });
    m.add(prefix + ".staged", obs::GaugeKind::Gauge,
          [this] { return static_cast<double>(stagedCells()); });
    m.add(prefix + ".forwarded", obs::GaugeKind::Rate,
          [this] { return static_cast<double>(counters_.forwarded); });
    m.add(prefix + ".grants", obs::GaugeKind::Rate,
          [this] { return static_cast<double>(counters_.grants); });
    m.add(prefix + ".holBlocked", obs::GaugeKind::Rate,
          [this] { return static_cast<double>(counters_.holBlocked); });
    m.add(prefix + ".arbRounds", obs::GaugeKind::Rate,
          [this] { return static_cast<double>(counters_.arbRounds); });
    registerDetailMetrics(m);
}

namespace {

// ---------------------------------------------------------------------
// Central output queue (the paper's Switch-3)
// ---------------------------------------------------------------------

/**
 * Unbounded shared memory: a pure passthrough onto the output link,
 * byte-identical to the pre-policy switch (the link's internal queue
 * *is* the paper's idealized central output queue). It holds no
 * cells, so it owns no queues: the default switch pays nothing for
 * the policy layer beyond its forward counters.
 */
class CentralPassthroughPolicy final : public QueueingPolicy
{
  public:
    explicit CentralPassthroughPolicy(Switch &sw) : QueueingPolicy(sw) {}

    const char *name() const override { return "central"; }

    bool isPassthrough() const override { return true; }

    void
    ingress(unsigned in, unsigned out, Arrival &&arrival) override
    {
        // Legacy order exactly: credit first, then forward.
        creditReturn(in);
        forward(in, out, std::move(arrival.pkt));
    }

    std::size_t occupancy() const override { return 0; }
};

// ---------------------------------------------------------------------
// The buffered-policy core
// ---------------------------------------------------------------------

/**
 * What every buffered policy shares: per-input staging that holds a
 * cell's link credit until the cell fits its buffer, admission (the
 * credit-return point, counters and the telemetry admit stamp), and
 * the occupancy the gauges read. Each policy adds where an admitted
 * cell goes and when an output is served.
 */
class BufferedPolicy : public QueueingPolicy
{
  public:
    void
    ingress(unsigned in, unsigned out, Arrival &&arrival) override
    {
        Cell c{std::move(arrival.pkt), simulation().now(), in, out};
        // A cell may only bypass staging when its input has nothing
        // staged: admitting around staged cells would reorder the
        // input's wire stream (and with it some flow).
        if (staged_[in].empty() && hasRoom(c)) {
            admit(std::move(c));
        } else {
            ++counters_.holBlocked;
            staged_[in].push_back(std::move(c));
        }
    }

    std::size_t occupancy() const override { return occ_; }

    std::size_t
    stagedCells() const override
    {
        std::size_t n = 0;
        for (const auto &q : staged_)
            n += q.size();
        return n;
    }

  protected:
    explicit BufferedPolicy(Switch &sw)
        : QueueingPolicy(sw), staged_(inputCount())
    {
        observeOutputCredits([this] { kick(); });
    }

    /** Cell @p c would fit the buffer it is routed to right now. */
    virtual bool hasRoom(const Cell &c) const = 0;

    /** File just-admitted cell @p c into its buffer. */
    virtual void place(Cell &&c) = 0;

    /** Move buffered cells toward their outputs where possible. */
    virtual void serveOutputs() = 0;

    /** Wake the outputs unless nothing is buffered (the credit
     * observer: a returned credit may unblock a stalled output). */
    void
    kick()
    {
        if (occ_ != 0)
            serveOutputs();
    }

    /** Admit input @p in's head staged cell if it fits; true if it
     * did. Never past the head: that would reorder the input's
     * wire stream. */
    bool
    admitHead(unsigned in)
    {
        if (staged_[in].empty() || !hasRoom(staged_[in].front()))
            return false;
        Cell c = std::move(staged_[in].front());
        staged_[in].pop_front();
        admit(std::move(c));
        return true;
    }

    /** Admit input @p in's staged cells in wire order while they fit. */
    void
    admitStaged(unsigned in)
    {
        while (admitHead(in)) {
        }
    }

    std::vector<std::deque<Cell>> staged_; //!< per input, credit held
    std::uint64_t occ_ = 0;                //!< cells in the buffers

  private:
    void
    admit(Cell &&c)
    {
        ++counters_.admitted;
        ++occ_;
        counters_.peakOccupancy =
            std::max<std::uint64_t>(counters_.peakOccupancy, occ_);
        creditReturn(c.in);
        if (c.pkt.telemetry)
            c.pkt.telemetry->noteAdmitted(simulation().now());
        place(std::move(c));
    }
};

/**
 * Bounded shared memory: per-output FIFOs drawing from one shared
 * cell pool; when the pool is full, arriving cells stay in per-input
 * staging with their credit withheld, so one hot output starves every
 * input behind it — classic HOL blocking, kept on purpose as the
 * baseline the other policies beat.
 */
class CentralOutputPolicy final : public BufferedPolicy
{
  public:
    CentralOutputPolicy(Switch &sw, const SwitchPolicyConfig &cfg)
        : BufferedPolicy(sw), cap_(cfg.sharedCapacityCells),
          fifo_(portCount()), busy_(portCount(), false)
    {
        assert(cap_ != 0 && "unbounded central memory is the passthrough");
    }

    const char *name() const override { return "central-bounded"; }

  private:
    bool hasRoom(const Cell &) const override { return occ_ < cap_; }

    void
    place(Cell &&c) override
    {
        const unsigned out = c.out;
        fifo_[out].push_back(std::move(c));
        serve(out);
    }

    void
    serveOutputs() override
    {
        for (unsigned out = 0; out < portCount(); ++out)
            serve(out);
    }

    void
    serve(unsigned out)
    {
        if (busy_[out] || fifo_[out].empty() || !outputReady(out))
            return;
        busy_[out] = true;
        Cell c = std::move(fifo_[out].front());
        fifo_[out].pop_front();
        ++counters_.grants;
        const sim::Tick ser = serialization(out, c.pkt);
        forward(c.in, out, std::move(c.pkt));
        // The shared-memory slot frees when the cell has fully left
        // the switch, one serialization time later.
        simulation().events().after(ser, [this, out] {
            busy_[out] = false;
            --occ_;
            admitRoundRobin();
            serve(out);
        });
    }

    /** Round-robin the freed shared slots over the staged inputs. */
    void
    admitRoundRobin()
    {
        const unsigned n = inputCount();
        for (unsigned scanned = 0; occ_ < cap_ && scanned < n;
             rr_ = (rr_ + 1) % n)
            scanned = admitHead(rr_) ? 0 : scanned + 1;
    }

    const unsigned cap_; //!< shared-memory cells
    std::vector<std::deque<Cell>> fifo_; //!< per output
    std::vector<char> busy_;             //!< per-output server busy
    unsigned rr_ = 0; //!< staged-admission round-robin pointer
};

/**
 * The buffered crossbars' shared structure: one FIFO per (input,
 * output) pair, so a cell only ever waits behind cells of its own
 * pair, and the service order that picks which input an output
 * takes next.
 */
class MatrixPolicy : public BufferedPolicy
{
  public:
    const char *name() const override { return name_.c_str(); }

  protected:
    /** @p kind names the policy; @p fifo_label its Fifo order. */
    MatrixPolicy(Switch &sw, unsigned cap, ServiceOrder order,
                 const char *kind, const char *fifo_label)
        : BufferedPolicy(sw), cap_(std::max(1u, cap)), order_(order),
          queues_(inputCount() * portCount()),
          name_(std::string(kind) + "-" +
                (order == ServiceOrder::Fifo ? fifo_label
                                             : serviceOrderName(order)))
    {}

    std::deque<Cell> &
    queue(unsigned in, unsigned out)
    {
        return queues_[in * portCount() + out];
    }

    const std::deque<Cell> &
    queue(unsigned in, unsigned out) const
    {
        return queues_[in * portCount() + out];
    }

    bool
    hasRoom(const Cell &c) const override
    {
        return queue(c.in, c.out).size() < cap_;
    }

    /**
     * The input output @p out serves next: among the inputs with
     * cells for @p out that @p eligible accepts, scanned round-robin
     * from @p start, the first under Fifo, else the one with the
     * oldest head cell or the longest queue (ties to the earliest
     * scanned). -1 if there is none.
     */
    template <typename Eligible>
    int
    pickInput(unsigned out, unsigned start, Eligible eligible) const
    {
        const unsigned V = inputCount();
        int best = -1;
        for (unsigned k = 0; k < V; ++k) {
            const unsigned i = (start + k) % V;
            if (queue(i, out).empty() || !eligible(i))
                continue;
            if (order_ == ServiceOrder::Fifo)
                return static_cast<int>(i);
            if (best < 0) {
                best = static_cast<int>(i);
                continue;
            }
            const auto &bq = queue(static_cast<unsigned>(best), out);
            const auto &iq = queue(i, out);
            if (order_ == ServiceOrder::OldestFirst
                    ? iq.front().enqueuedAt < bq.front().enqueuedAt
                    : iq.size() > bq.size())
                best = static_cast<int>(i);
        }
        return best;
    }

  private:
    const unsigned cap_; //!< cells per (input, output) queue
    const ServiceOrder order_;
    std::vector<std::deque<Cell>> queues_; //!< (input x output) FIFOs
    const std::string name_;
};

// ---------------------------------------------------------------------
// Virtual output queues + iSLIP
// ---------------------------------------------------------------------

/**
 * One FIFO per (input, output) pair removes HOL blocking entirely: a
 * hot output's backlog piles up in its own VOQs while every other
 * VOQ keeps flowing. Cells are matched to outputs by iSLIP: each
 * free output grants one requesting input (by the configured service
 * order), each input accepts one grant round-robin, iterated until
 * no new matches form. Pointers advance only on first-iteration
 * accepts — the desynchronization that makes round-robin iSLIP
 * starvation-free (a persistent requester is served within one
 * pointer revolution; maxGrantWaitRounds() exposes the observed
 * bound).
 */
class VoqIslipPolicy final : public MatrixPolicy
{
  public:
    VoqIslipPolicy(Switch &sw, const SwitchPolicyConfig &cfg)
        : MatrixPolicy(sw, cfg.voqCapacityCells, cfg.order, "voq",
                       "islip"),
          grantPtr_(portCount(), 0), acceptPtr_(inputCount(), 0),
          inBusyUntil_(inputCount(), 0), outBusyUntil_(portCount(), 0),
          waitRounds_(inputCount(), 0)
    {}

    void
    ingress(unsigned in, unsigned out, Arrival &&arrival) override
    {
        MatrixPolicy::ingress(in, out, std::move(arrival));
        kick();
    }

    std::uint64_t maxGrantWaitRounds() const override { return maxWait_; }

    void
    registerDetailMetrics(obs::MetricsRegistry &m) const override
    {
        // One gauge per input: cells buffered across that input's
        // VOQs (staged cells included — they are that input's
        // backlog too). Shows which ingress a hotspot piles onto.
        for (unsigned i = 0; i < inputCount(); ++i)
            m.add(sw_.name() + ".voq.in" + std::to_string(i),
                  obs::GaugeKind::Gauge, [this, i] {
                      std::size_t n = staged_[i].size();
                      for (unsigned o = 0; o < portCount(); ++o)
                          n += queue(i, o).size();
                      return static_cast<double>(n);
                  });
    }

  private:
    void
    place(Cell &&c) override
    {
        const unsigned in = c.in, out = c.out;
        queue(in, out).push_back(std::move(c));
    }

    /** Schedule an arbitration pass this tick unless one is already
     * due now or earlier. postNow keeps same-tick arrivals coalesced
     * into a single pass. */
    void serveOutputs() override { scheduleArbAt(simulation().now()); }

    void
    scheduleArbAt(sim::Tick t)
    {
        if (t >= arbAt_)
            return; // an earlier or equal pass is already scheduled
        arbAt_ = t;
        const sim::Tick now = simulation().now();
        if (t <= now)
            simulation().events().postNow([this] { arbitrate(); });
        else
            simulation().events().schedule(t, [this] { arbitrate(); });
    }

    bool
    inFree(unsigned i, sim::Tick now) const
    {
        return inBusyUntil_[i] <= now;
    }

    bool
    outFree(unsigned o, sim::Tick now) const
    {
        return outBusyUntil_[o] <= now && outputReady(o);
    }

    bool
    hasAnyCell(unsigned i) const
    {
        for (unsigned o = 0; o < portCount(); ++o)
            if (!queue(i, o).empty())
                return true;
        return false;
    }

    void
    arbitrate()
    {
        arbAt_ = kNever;
        const sim::Tick now = simulation().now();
        const unsigned V = inputCount(), P = portCount();

        bool anyRequest = false;
        for (unsigned i = 0; i < V && !anyRequest; ++i)
            if (inFree(i, now))
                for (unsigned o = 0; o < P; ++o)
                    if (outFree(o, now) && !queue(i, o).empty()) {
                        anyRequest = true;
                        break;
                    }
        if (anyRequest) {
            ++counters_.arbRounds;
            match(now);
        }
        rescheduleIfPending(now);
    }

    void
    match(sim::Tick now)
    {
        const unsigned V = inputCount(), P = portCount();
        std::vector<int> inMatch(V, -1), outMatch(P, -1);
        bool firstIter = true;
        for (;;) {
            // Grant: every free unmatched output offers one free
            // unmatched input, by the service order.
            std::vector<int> grantTo(P, -1);
            for (unsigned o = 0; o < P; ++o) {
                if (outMatch[o] >= 0 || !outFree(o, now))
                    continue;
                grantTo[o] = pickInput(o, grantPtr_[o], [&](unsigned i) {
                    return inMatch[i] < 0 && inFree(i, now);
                });
            }
            // Accept: every free unmatched input takes one grant,
            // round-robin from its accept pointer.
            bool matchedAny = false;
            for (unsigned i = 0; i < V; ++i) {
                if (inMatch[i] >= 0 || !inFree(i, now))
                    continue;
                int got = -1;
                for (unsigned k = 0; k < P; ++k) {
                    const unsigned o = (acceptPtr_[i] + k) % P;
                    if (grantTo[o] == static_cast<int>(i)) {
                        got = static_cast<int>(o);
                        break;
                    }
                }
                if (got < 0)
                    continue;
                inMatch[i] = got;
                outMatch[static_cast<unsigned>(got)] =
                    static_cast<int>(i);
                matchedAny = true;
                if (firstIter) {
                    // iSLIP: pointers move only on first-iteration
                    // accepts — the desynchronization rule.
                    grantPtr_[static_cast<unsigned>(got)] = (i + 1) % V;
                    acceptPtr_[i] =
                        (static_cast<unsigned>(got) + 1) % P;
                }
            }
            if (!matchedAny)
                break;
            firstIter = false;
        }

        // Starvation accounting over the pre-dispatch state.
        for (unsigned i = 0; i < V; ++i) {
            if (!inFree(i, now) || !hasAnyCell(i))
                continue;
            if (inMatch[i] >= 0) {
                maxWait_ = std::max(maxWait_, waitRounds_[i]);
                waitRounds_[i] = 0;
            } else {
                ++waitRounds_[i];
            }
        }

        for (unsigned i = 0; i < V; ++i)
            if (inMatch[i] >= 0)
                serve(i, static_cast<unsigned>(inMatch[i]), now);
    }

    void
    serve(unsigned i, unsigned o, sim::Tick now)
    {
        Cell c = std::move(queue(i, o).front());
        queue(i, o).pop_front();
        --occ_;
        ++counters_.grants;
        const sim::Tick ser = serialization(o, c.pkt);
        inBusyUntil_[i] = now + ser;
        outBusyUntil_[o] = now + ser;
        forward(c.in, o, std::move(c.pkt));
        admitStaged(i);
    }

    void
    rescheduleIfPending(sim::Tick now)
    {
        if (occ_ == 0)
            return;
        // Next chance anything changes on our own clock: the
        // earliest in-flight transmission completing. (A blocked
        // downstream link wakes us through the credit observer
        // instead.)
        sim::Tick next = kNever;
        for (const sim::Tick t : inBusyUntil_)
            if (t > now)
                next = std::min(next, t);
        for (const sim::Tick t : outBusyUntil_)
            if (t > now)
                next = std::min(next, t);
        if (next != kNever)
            scheduleArbAt(next);
    }

    std::vector<unsigned> grantPtr_;  //!< per-output iSLIP ptr
    std::vector<unsigned> acceptPtr_; //!< per-input iSLIP ptr
    std::vector<sim::Tick> inBusyUntil_;
    std::vector<sim::Tick> outBusyUntil_;
    std::vector<std::uint64_t> waitRounds_;
    std::uint64_t maxWait_ = 0;
    sim::Tick arbAt_ = kNever; //!< earliest scheduled arbitration
};

// ---------------------------------------------------------------------
// Crosspoint-buffered crossbar (CICQ)
// ---------------------------------------------------------------------

/**
 * A small dedicated buffer at every (input, output) crosspoint
 * decouples inputs from outputs without a centralized arbiter: an
 * arriving cell drops into its crosspoint if there is room, and each
 * output independently serves its column by the configured
 * discipline. Buffering is O(N^2) in ports — the hardware cost that
 * historically kept CICQ switches small.
 */
class CrosspointPolicy final : public MatrixPolicy
{
  public:
    CrosspointPolicy(Switch &sw, const SwitchPolicyConfig &cfg)
        : MatrixPolicy(sw, cfg.crosspointCapacityCells, cfg.order,
                       "xpoint", "rr"),
          busy_(portCount(), false), rrPtr_(portCount(), 0)
    {}

    void
    registerDetailMetrics(obs::MetricsRegistry &m) const override
    {
        // One gauge per output: cells across that output's column of
        // crosspoint buffers. Shows which egress a hotspot drains
        // through.
        for (unsigned o = 0; o < portCount(); ++o)
            m.add(sw_.name() + ".xpoint.out" + std::to_string(o),
                  obs::GaugeKind::Gauge, [this, o] {
                      std::size_t n = 0;
                      for (unsigned i = 0; i < inputCount(); ++i)
                          n += queue(i, o).size();
                      return static_cast<double>(n);
                  });
    }

  private:
    void
    place(Cell &&c) override
    {
        const unsigned in = c.in, out = c.out;
        queue(in, out).push_back(std::move(c));
        serve(out);
    }

    void
    serveOutputs() override
    {
        for (unsigned out = 0; out < portCount(); ++out)
            serve(out);
    }

    /** Output @p out picks the next crosspoint in its column. */
    void
    serve(unsigned out)
    {
        if (busy_[out] || !outputReady(out))
            return;
        const int pick =
            pickInput(out, rrPtr_[out], [](unsigned) { return true; });
        if (pick < 0)
            return;
        const auto in = static_cast<unsigned>(pick);
        rrPtr_[out] = (in + 1) % inputCount();
        Cell c = std::move(queue(in, out).front());
        queue(in, out).pop_front();
        --occ_;
        ++counters_.grants;
        ++counters_.arbRounds;
        busy_[out] = true;
        const sim::Tick ser = serialization(out, c.pkt);
        forward(c.in, out, std::move(c.pkt));
        simulation().events().after(ser, [this, out, in] {
            busy_[out] = false;
            admitStaged(in);
            serve(out);
        });
    }

    std::vector<char> busy_;      //!< per-output server busy
    std::vector<unsigned> rrPtr_; //!< per-output round-robin ptr
};

} // namespace

std::unique_ptr<QueueingPolicy>
makeQueueingPolicy(Switch &sw, const SwitchPolicyConfig &cfg)
{
    switch (cfg.kind) {
    case SwitchPolicyKind::Voq:
        return std::make_unique<VoqIslipPolicy>(sw, cfg);
    case SwitchPolicyKind::Crosspoint:
        return std::make_unique<CrosspointPolicy>(sw, cfg);
    case SwitchPolicyKind::CentralOutput:
        break;
    }
    if (cfg.sharedCapacityCells == 0)
        return std::make_unique<CentralPassthroughPolicy>(sw);
    return std::make_unique<CentralOutputPolicy>(sw, cfg);
}

} // namespace san::net
