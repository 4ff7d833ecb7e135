/**
 * @file
 * Component-level statistics dump: caches, TLBs, DRAM, switch,
 * buffers, ATBs, disks and adapters of a cluster, as JSON. Benches
 * write it under --stats-json; it also serves as the simulator's
 * debugging x-ray.
 */

#ifndef SAN_HARNESS_STATS_REPORT_HH
#define SAN_HARNESS_STATS_REPORT_HH

#include "apps/Cluster.hh"
#include "obs/Json.hh"

namespace san::harness {

/**
 * Emit one collected cluster's stats as a JSON object value on
 * @p json: caches, TLBs, RDRAM, switch, ATBs, buffers, disks and
 * adapters, read from the components; and, from the run's record
 * (Cluster::stats()), the simulated end time, the run fingerprint,
 * the handler profiles, and the fault, telemetry and lb objects
 * when the run had those instruments. Byte-stable output, compared
 * against golden files by tests/golden_stats_test.
 */
void dumpClusterStatsJson(obs::JsonWriter &json, apps::Cluster &cluster);

} // namespace san::harness

#endif // SAN_HARNESS_STATS_REPORT_HH
