#include "fault/FaultPlan.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace san::fault {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::None: return "none";
      case FaultKind::LinkBitError: return "link-ber";
      case FaultKind::CreditLoss: return "credit-loss";
      case FaultKind::HandlerCrash: return "handler-crash";
      case FaultKind::DiskSpike: return "disk-spike";
      case FaultKind::DiskTimeout: return "disk-timeout";
      case FaultKind::BackendDown: return "backend-down";
      case FaultKind::BackendUp: return "backend-up";
    }
    return "?";
}

std::optional<FaultKind>
faultKindFromName(const std::string &name)
{
    for (unsigned i = 0; i < faultKindCount; ++i) {
        const auto kind = static_cast<FaultKind>(i);
        if (name == faultKindName(kind))
            return kind;
    }
    return std::nullopt;
}

bool
FaultSite::hits(sim::Tick now, std::string_view target,
                double probability)
{
    // One draw per call regardless of probability: the stream
    // position depends only on how often the site is consulted.
    bool hit = hasSpec_ && rng_.real() < probability;
    if (!hit) {
        const auto due = std::find_if(
            events_.begin(), events_.end(), [&](const FaultEvent &ev) {
                return now >= ev.at && ev.target == target;
            });
        hit = due != events_.end();
        if (hit)
            events_.erase(due);
    }
    injected_ += hit;
    return hit;
}

namespace {

/** Split on ':' into at most @p max_parts pieces (last keeps ':'). */
std::vector<std::string>
splitColon(const std::string &text, std::size_t max_parts)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (parts.size() + 1 < max_parts) {
        const std::size_t colon = text.find(':', start);
        if (colon == std::string::npos)
            break;
        parts.push_back(text.substr(start, colon - start));
        start = colon + 1;
    }
    parts.push_back(text.substr(start));
    return parts;
}

bool
parseDouble(const std::string &text, double *out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text.c_str(), &end);
    if (errno != 0 || end != text.c_str() + text.size())
        return false;
    *out = v;
    return true;
}

bool
parseU64(const std::string &text, std::uint64_t *out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    if (errno != 0 || end != text.c_str() + text.size())
        return false;
    *out = v;
    return true;
}

} // namespace

std::optional<FaultSpec>
FaultPlan::parseSpec(const std::string &text, std::string *error)
{
    const auto parts = splitColon(text, 3);
    FaultSpec spec;
    const auto kind = faultKindFromName(parts[0]);
    if (!kind) {
        if (error)
            *error = "unknown fault kind '" + parts[0] +
                     "' (expected one of none, link-ber, credit-loss, "
                     "handler-crash, disk-spike, disk-timeout, "
                     "backend-down, backend-up)";
        return std::nullopt;
    }
    spec.kind = *kind;
    if (spec.kind == FaultKind::BackendDown ||
        spec.kind == FaultKind::BackendUp) {
        if (error)
            *error = "fault kind '" + parts[0] +
                     "' takes no rate; schedule it with --fault-at "
                     "TICK:" + parts[0] + ":BACKEND";
        return std::nullopt;
    }
    if (spec.kind != FaultKind::None) {
        if (parts.size() < 2 || !parseDouble(parts[1], &spec.rate) ||
            spec.rate < 0.0 || spec.rate > 1.0) {
            if (error)
                *error = "fault spec '" + text +
                         "' needs KIND:RATE with RATE in [0, 1]";
            return std::nullopt;
        }
    }
    if (parts.size() == 3) {
        if (!parseU64(parts[2], &spec.seed)) {
            if (error)
                *error = "fault spec '" + text + "' has a bad seed";
            return std::nullopt;
        }
        spec.seeded = true;
    }
    return spec;
}

std::optional<FaultEvent>
FaultPlan::parseAt(const std::string &text, std::string *error)
{
    const auto parts = splitColon(text, 3);
    if (parts.size() != 3) {
        if (error)
            *error = "fault event '" + text +
                     "' must be TICK:KIND:TARGET";
        return std::nullopt;
    }
    FaultEvent ev;
    if (!parseU64(parts[0], &ev.at)) {
        if (error)
            *error = "fault event '" + text +
                     "' has a bad tick (integer picoseconds)";
        return std::nullopt;
    }
    const auto kind = faultKindFromName(parts[1]);
    if (!kind || *kind == FaultKind::None) {
        if (error)
            *error = "fault event '" + text + "' has unknown kind '" +
                     parts[1] + "'";
        return std::nullopt;
    }
    ev.kind = *kind;
    ev.target = parts[2];
    if (ev.target.empty()) {
        if (error)
            *error = "fault event '" + text + "' has an empty target";
        return std::nullopt;
    }
    return ev;
}

void
FaultPlan::addSpec(const FaultSpec &spec)
{
    specs_.push_back(spec);
}

void
FaultPlan::addEvent(FaultEvent event)
{
    events_.push_back(std::move(event));
}

std::optional<double>
FaultPlan::rateOf(FaultKind kind) const
{
    for (const FaultSpec &spec : specs_)
        if (spec.kind == kind)
            return spec.rate;
    return std::nullopt;
}

std::uint64_t
FaultPlan::siteSeed(FaultKind kind, const std::string &name) const
{
    std::uint64_t seed = baseSeed_;
    for (const FaultSpec &spec : specs_)
        if (spec.kind == kind && spec.seeded)
            seed = spec.seed;
    // Mix in the kind and the site name so every site draws from an
    // independent stream even under one shared seed.
    return seed ^ (sim::goldenGamma *
                   (static_cast<std::uint64_t>(kind) + 1)) ^
           sim::fnv1a(name);
}

FaultSite *
FaultPlan::site(FaultKind kind, const std::string &name)
{
    const auto key = std::make_pair(static_cast<unsigned>(kind), name);
    if (auto it = sites_.find(key); it != sites_.end())
        return it->second.get();
    std::vector<FaultEvent> events;
    for (const FaultEvent &ev : events_)
        if (ev.kind == kind)
            events.push_back(ev);
    const std::optional<double> rate = rateOf(kind);
    if (!rate && events.empty())
        return nullptr;
    auto site = std::unique_ptr<FaultSite>(new FaultSite(
        kind, name, rate, siteSeed(kind, name), std::move(events)));
    return sites_.emplace(key, std::move(site)).first->second.get();
}

std::uint64_t
FaultPlan::injected() const
{
    std::uint64_t n = 0;
    for (const auto &entry : sites_)
        n += entry.second->injected();
    return n;
}

std::uint64_t
FaultPlan::injectedOf(FaultKind kind) const
{
    std::uint64_t n = 0;
    for (const auto &entry : sites_)
        if (entry.second->kind() == kind)
            n += entry.second->injected();
    return n;
}

std::string
FaultPlan::describe() const
{
    std::ostringstream oss;
    for (const FaultSpec &spec : specs_) {
        oss << "spec " << faultKindName(spec.kind) << " rate "
            << spec.rate;
        if (spec.seeded)
            oss << " seed " << spec.seed;
        oss << '\n';
    }
    for (const FaultEvent &ev : events_)
        oss << "at " << ev.at << " " << faultKindName(ev.kind) << " -> "
            << ev.target << '\n';
    return oss.str();
}

} // namespace san::fault
