/**
 * @file
 * Chrome trace_event exporter.
 *
 * Implements sim::Tracer by writing the Trace Event Format's "JSON
 * array" flavour, loadable in chrome://tracing and Perfetto. Each
 * named track becomes a (pid, tid) pair: processes group runs (one
 * per benchmark mode, via beginProcess()), threads are component
 * tracks registered lazily on first use, with process_name /
 * thread_name metadata events so the viewer shows real names.
 *
 * Spans map to complete ("X") events, instants to "i", async
 * begin/end to nestable "b"/"e" pairs, counters to "C" and flow
 * begin/step/end to "s"/"t"/"f". Timestamps convert from the
 * simulator's picosecond ticks to the format's microseconds.
 */

#ifndef SAN_OBS_TRACE_HH
#define SAN_OBS_TRACE_HH

#include <map>
#include <string>

#include "sim/Tracer.hh"
#include "sim/Types.hh"

namespace san::obs {

/** sim::Tracer writing Chrome trace_event JSON to a stream. */
class ChromeTracer : public sim::Tracer
{
  public:
    /** Starts the JSON array on @p os. Call finish() before reading
     * the output; the destructor finishes if you forget. */
    explicit ChromeTracer(std::ostream &os);
    ~ChromeTracer() override;

    /**
     * Start a new trace process (e.g. one benchmark mode). Track
     * names registered afterwards belong to it. Without an explicit
     * call, everything lands in an implicit process "run".
     */
    void beginProcess(const std::string &name);

    /** Close the JSON array. Idempotent. */
    void finish();

    void emit(const std::string &track,
              const sim::TraceEvent &event) override;

  private:
    int tidFor(const std::string &track);
    void metadata(const char *name, int pid, int tid,
                  const std::string &value);
    void close();

    std::ostream &os_;
    bool first_ = true;
    bool finished_ = false;
    int pid_ = 0;
    int nextTid_ = 1;
    /** (pid, track name) -> tid. */
    std::map<std::pair<int, std::string>, int> tids_;
};

} // namespace san::obs

#endif // SAN_OBS_TRACE_HH
