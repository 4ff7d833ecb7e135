#include "obs/Trace.hh"

#include <charconv>
#include <ostream>

namespace san::obs {

namespace {

/** ps -> trace microseconds, in shortest round-trip decimal form. */
void
writeMicros(std::ostream &os, sim::Tick t)
{
    char buf[40];
    auto res = std::to_chars(buf, buf + sizeof(buf),
                             static_cast<double>(t) / 1e6);
    os.write(buf, res.ptr - buf);
}

} // namespace

ChromeTracer::ChromeTracer(std::ostream &os) : os_(os)
{
    os_ << "[";
}

ChromeTracer::~ChromeTracer()
{
    finish();
}

void
ChromeTracer::finish()
{
    if (finished_)
        return;
    finished_ = true;
    os_ << "\n]\n";
    os_.flush();
}

void
ChromeTracer::beginProcess(const std::string &name)
{
    ++pid_;
    nextTid_ = 1;
    metadata("process_name", pid_, 0, name);
}

int
ChromeTracer::tidFor(const std::string &track)
{
    if (pid_ == 0)
        beginProcess("run");
    const auto key = std::make_pair(pid_, track);
    auto it = tids_.find(key);
    if (it != tids_.end())
        return it->second;
    const int tid = nextTid_++;
    tids_.emplace(key, tid);
    metadata("thread_name", pid_, tid, track);
    return tid;
}

void
ChromeTracer::metadata(const char *name, int pid, int tid,
                       const std::string &value)
{
    close();
    os_ << "{\"name\":\"" << name << "\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"tid\":" << tid << ",\"args\":{\"name\":\"";
    for (const char c : value) {
        if (c == '"' || c == '\\')
            os_ << '\\';
        os_ << c;
    }
    os_ << "\"}}";
}

void
ChromeTracer::close()
{
    if (!first_)
        os_ << ",";
    os_ << "\n";
    first_ = false;
}

// Flow events ("s"/"t"/"f") bind to the slice enclosing them on
// their track, so callers emit them inside (or as zero-duration
// anchors alongside) an "X" span at the same timestamp. The "f"
// event carries bp:"e" — bind to the enclosing slice — which is
// what Perfetto needs to draw the terminating arrow head.

void
ChromeTracer::emit(const std::string &track, const sim::TraceEvent &e)
{
    using sim::TracePhase;
    static constexpr char phases[] = {'X', 'i', 'b', 'e',
                                      'C', 's', 't', 'f'};
    const int tid = tidFor(track);
    close();
    os_ << "{\"name\":\"" << e.name << "\",\"cat\":\"sim\",\"ph\":\""
        << phases[static_cast<unsigned>(e.phase)]
        << "\",\"pid\":" << pid_ << ",\"tid\":" << tid << ",\"ts\":";
    writeMicros(os_, e.at);
    switch (e.phase) {
      case TracePhase::Span:
        os_ << ",\"dur\":";
        writeMicros(os_, e.end - e.at);
        break;
      case TracePhase::Instant:
        os_ << ",\"s\":\"t\"";
        break;
      case TracePhase::Counter: {
        os_ << ",\"args\":{\"value\":";
        char buf[40];
        auto res = std::to_chars(buf, buf + sizeof(buf), e.value);
        os_.write(buf, res.ptr - buf);
        os_ << "}";
        break;
      }
      case TracePhase::FlowEnd:
        os_ << ",\"bp\":\"e\",\"id\":" << e.id;
        break;
      default: // async and the other flow points
        os_ << ",\"id\":" << e.id;
    }
    os_ << "}";
}

} // namespace san::obs
