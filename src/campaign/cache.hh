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
 * scale, the timeline interval and the interval-stats period. Two
 * cache entries with the same name simulated the same point;
 * anything that could change a byte of the result changes the name.
 *
 * Loading checks that the report's header describes the job (config
 * fingerprint and every recorded option), then decodes the entry
 * with decodeRunReportEntry() instead of simulating. The
 * RenderParams fields maxDepth, aoRays, aoRadiusScale,
 * shadowRaysPerLight and seed are not in reports: only the file name
 * covers them.
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
 * by a different simulation point: its config fingerprint, a
 * recorded option (ReportOptions) or its workload id differs from
 * the job's, as after a hash collision or a format change.
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
