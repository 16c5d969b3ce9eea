/**
 * @file
 * Content-addressed result cache for the campaign engine.
 *
 * A finished job is stored as a single-workload run-report JSON
 * document (lumibench/run_report.hh) — the same schema external
 * tooling already consumes — under a filename derived from
 * everything that determines the result:
 *
 *   <job id>-<configFingerprint>-p<param hash>.report.json
 *
 * where the param hash covers the render parameters (resolution,
 * samples, depth/ray knobs, seed), scene detail, DRAM bandwidth
 * scale and the timeline interval. Two cache entries with the same
 * name simulated the same point; anything that could change a byte
 * of the result changes the name.
 *
 * Loading rehydrates a WorkloadResult without simulating. The
 * stat-registry dump is re-extracted from the report *byte-
 * identically* (the parser keeps source ranges), and the typed
 * counter structs are restored through the same stat_bindings
 * registrations the dump used — the name->field mapping cannot
 * drift from the forward path.
 *
 * Only clean, untraced, unbudget-aborted results are cached: traced
 * runs bypass the cache (the event trace is not serialized into
 * reports), and timeouts/failures never write entries.
 */

#ifndef LUMI_CAMPAIGN_CACHE_HH
#define LUMI_CAMPAIGN_CACHE_HH

#include <string>

#include "campaign/campaign.hh"

namespace lumi
{
namespace campaign
{

/** Cache filename (no directory) for @p job. */
std::string cacheKey(const Job &job);

/** True when @p job is eligible for caching (untraced). */
bool cacheable(const Job &job);

/**
 * Load the cached result for @p job from @p path into @p out.
 * Returns false — a plain miss, never an error — when the file is
 * absent, unparseable, lacks a metricSchema() key, or was produced
 * by a different simulation point (validated against the report's
 * config fingerprint, render params and workload id, defending
 * against hash collisions and stale-format files).
 */
bool readCachedResult(const std::string &path, const Job &job,
                      WorkloadResult &out);

/**
 * Store @p result for @p job at @p path (atomic via rename so a
 * concurrent reader never sees a torn file). False on I/O failure.
 */
bool writeCachedResult(const std::string &path, const Job &job,
                       const WorkloadResult &result);

} // namespace campaign
} // namespace lumi

#endif // LUMI_CAMPAIGN_CACHE_HH
