/**
 * @file
 * Warnings from simulator components.
 *
 * A warning is one stderr line, "[warn] t=<tick>ps <component>:
 * <message>", stamped with the simulated tick. There is no log level
 * to set: components warn only about events a run's reader should
 * see (a dropped packet, a crashed handler, an aborted flow).
 */

#ifndef SAN_SIM_LOG_HH
#define SAN_SIM_LOG_HH

#include <iostream>
#include <sstream>
#include <string>

#include "sim/Types.hh"

namespace san::sim {

/** Print one warning built from stream-insertable @p parts. */
template <typename... Parts>
void
warn(const std::string &component, Tick tick, const Parts &...parts)
{
    std::ostringstream line;
    line << "[warn] t=" << tick << "ps " << component << ": ";
    (line << ... << parts) << '\n';
    std::cerr << line.str();
}

} // namespace san::sim

#endif // SAN_SIM_LOG_HH
