/**
 * @file
 * Minimal embedded HTTP endpoint over a report directory: the
 * "serve" half of the query layer (lumibench/query.hh), in the
 * spirit of Daisen/Vis4Mesh trace servers.
 *
 * The server answers GET requests with JSON produced by the query
 * layer's encoders, so a /stat, /series or /breakdown body is the
 * document `lumibench query --json` prints. Its one piece of state
 * is a ReportStore (lumibench/query.hh) shared by all requests: per
 * *.json file, keyed on (size, mtime in ns, inode), the file's
 * ReportRef and the byte ranges of each entry's stats, metrics and
 * interval_stats members -- no parsed JSON and no report text. Each
 * request re-lists the directory and stats every file, re-indexing
 * new or changed files and dropping deleted ones, so a
 * still-running campaign is visible live; then it re-reads only the
 * reports with a matching entry and parses only the member its
 * route needs. /report serves only files the store indexes as run
 * reports. Routing is factored into
 * handle(), a pure function of the request target, so tests exercise
 * every route without opening sockets; bind()/serve() add a
 * deliberately small HTTP/1.0-style loop on top (one request per
 * connection, GET only).
 *
 * Routes:
 *   /healthz                     {"status":"ok","reports":N}
 *   /version                     report schema + fingerprint scheme
 *   /index                       index of reports (ReportRef fields)
 *   /stats?workload=...          stat names of first matching entry
 *   /stat?name=S&workload=...    scalar rows (ReportStore::stat)
 *   /series?name=S&workload=...  interval time series
 *                                (ReportStore::series)
 *   /breakdown?workload=...      cycle-account rows
 *                                (ReportStore::breakdown)
 *   /view                        embedded HTML stacked-area view of
 *                                the profile.sm.* series
 *   /report?file=F               raw report JSON, verbatim (400 for
 *                                a path or control character, 404
 *                                unless F is a run report)
 * Filter terms (workload/config/scene/fingerprint/width/height/spp/
 * detail/interval) apply to /stats, /stat, /series and /breakdown.
 * Every response, errors included, carries an explicit Content-Type
 * and Connection: close header.
 */

#ifndef LUMI_LUMIBENCH_SERVE_HH
#define LUMI_LUMIBENCH_SERVE_HH

#include <atomic>
#include <string>

#include "check/thread_annotations.hh"
#include "lumibench/query.hh"

namespace lumi
{
namespace query
{

/** HTTP endpoint over one report directory. */
class ReportServer
{
  public:
    /** A routed response, before HTTP framing. */
    struct Response
    {
        int status = 200;
        std::string contentType = "application/json";
        std::string body;
    };

    explicit ReportServer(std::string dir) : store_(std::move(dir)) {}
    ~ReportServer();

    ReportServer(const ReportServer &) = delete;
    ReportServer &operator=(const ReportServer &) = delete;

    /**
     * Route one request target (path + optional query string, e.g.
     * "/stat?name=gpu.cycles"). Unknown paths return 404, bad
     * parameters 400; every body is JSON. Safe to call from several
     * threads: store access is serialized on the mutex.
     */
    Response handle(const std::string &target) const
        LUMI_EXCLUDES(mutex_);

    /**
     * Bind a listening IPv4 socket on 127.0.0.1:@p port (0 picks an
     * ephemeral port). False + stderr warning on failure.
     */
    bool bind(int port) LUMI_EXCLUDES(mutex_);

    /** Bound port (valid after bind() succeeded). */
    int
    port() const LUMI_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return port_;
    }

    /**
     * Accept loop: serve until @p max_requests requests have been
     * answered (0 = until requestStop()). Returns the number of
     * requests served, or -1 if bind() had not succeeded.
     */
    int serve(int max_requests) LUMI_EXCLUDES(mutex_);

    /**
     * Ask a serve() loop running on another thread to exit: sets the
     * stop flag and shuts the listening socket down so a blocked
     * accept() returns. serve() unwinds at the next loop check;
     * in-flight responses finish first.
     */
    void requestStop() LUMI_EXCLUDES(mutex_);

  private:
    /** Guards the socket lifecycle (bind/teardown vs. observers)
     *  and the report store. */
    mutable Mutex mutex_;
    mutable ReportStore store_ LUMI_GUARDED_BY(mutex_);
    int fd_ LUMI_GUARDED_BY(mutex_) = -1;
    int port_ LUMI_GUARDED_BY(mutex_) = 0;
    /** Lock-free so serve() polls it without touching mutex_. */
    std::atomic<bool> stop_{false};
};

} // namespace query
} // namespace lumi

#endif // LUMI_LUMIBENCH_SERVE_HH
