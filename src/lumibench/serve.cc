#include "lumibench/serve.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "lumibench/run_report.hh"
#include "trace/json.hh"

namespace lumi
{
namespace query
{

namespace
{

/** Decode %XX and '+' in a URL query component. */
std::string
urlDecode(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (size_t i = 0; i < text.size(); i++) {
        char c = text[i];
        if (c == '+') {
            out += ' ';
        } else if (c == '%' && i + 2 < text.size()) {
            auto hex = [](char h) -> int {
                if (h >= '0' && h <= '9')
                    return h - '0';
                if (h >= 'a' && h <= 'f')
                    return h - 'a' + 10;
                if (h >= 'A' && h <= 'F')
                    return h - 'A' + 10;
                return -1;
            };
            int hi = hex(text[i + 1]);
            int lo = hex(text[i + 2]);
            if (hi >= 0 && lo >= 0) {
                out += static_cast<char>(hi * 16 + lo);
                i += 2;
            } else {
                out += c;
            }
        } else {
            out += c;
        }
    }
    return out;
}

using Params = std::vector<std::pair<std::string, std::string>>;

/** Split "k1=v1&k2=v2" into decoded pairs. */
Params
parseQuery(const std::string &query)
{
    Params params;
    size_t pos = 0;
    while (pos <= query.size()) {
        size_t amp = query.find('&', pos);
        if (amp == std::string::npos)
            amp = query.size();
        std::string term = query.substr(pos, amp - pos);
        if (!term.empty()) {
            size_t eq = term.find('=');
            if (eq != std::string::npos) {
                params.emplace_back(
                    urlDecode(term.substr(0, eq)),
                    urlDecode(term.substr(eq + 1)));
            }
        }
        pos = amp + 1;
    }
    return params;
}

std::string
paramValue(const Params &params, const std::string &key)
{
    for (const auto &[k, v] : params) {
        if (k == key)
            return v;
    }
    return "";
}

/**
 * Build a filter from the non-reserved params; false when a term
 * uses an unknown key (routed to a 400).
 */
bool
buildFilter(const Params &params, QueryFilter &filter)
{
    for (const auto &[key, value] : params) {
        if (key == "name" || key == "file")
            continue;
        if (!filter.add(key + "=" + value))
            return false;
    }
    return true;
}

ReportServer::Response
errorResponse(int status, const std::string &message)
{
    JsonWriter json;
    json.beginObject();
    json.key("error");
    json.value(message);
    json.endObject();
    return {status, "application/json", json.str()};
}

/**
 * The embedded stacked-area view: fetches the profile.sm.* interval
 * series through /series (passing the page's query string through as
 * filters) and draws the per-interval bucket shares. Self-contained
 * HTML so the server stays dependency- and filesystem-free.
 */
std::string
breakdownViewHtml()
{
    return R"html(<!doctype html>
<html><head><meta charset="utf-8"><title>lumibench breakdown</title>
<style>
body{font:13px monospace;margin:16px;background:#111;color:#ddd}
canvas{background:#181818;border:1px solid #333}
.sw{display:inline-block;width:10px;height:10px;margin:0 4px 0 10px}
#msg{color:#f88}
</style></head><body>
<h3>where did the cycles go (profile.sm.*)</h3>
<div id="legend"></div>
<canvas id="c" width="960" height="320"></canvas>
<div id="msg"></div>
<script>
const BUCKETS=["issued","mem_pending","rt_wait","sync",
               "no_ready_warp","empty","drain"];
const COLORS=["#4c9","#c84","#48c","#a6c","#c44","#555","#888"];
const qs=location.search.replace(/^\?/,"");
async function series(name){
  const url="/series?name="+encodeURIComponent(name)+
            (qs?"&"+qs:"");
  const rows=await (await fetch(url)).json();
  return rows.length?rows[0]:null;
}
async function main(){
  const legend=document.getElementById("legend");
  BUCKETS.forEach((b,i)=>{legend.innerHTML+=
    '<span class="sw" style="background:'+COLORS[i]+'"></span>'+b;});
  const got=await Promise.all(
    BUCKETS.map(b=>series("profile.sm."+b)));
  if(got.some(g=>!g)){
    document.getElementById("msg").textContent=
      "no profile.* interval series matched - run with "+
      "--interval-stats N and a profiling-enabled build";
    return;
  }
  const n=got[0].deltas.length;
  const ctx=document.getElementById("c").getContext("2d");
  const W=960,H=320;
  for(let x=0;x<n;x++){
    let total=0;
    for(const g of got)total+=g.deltas[x];
    if(total<=0)continue;
    let y=H;
    const x0=Math.floor(x*W/n),x1=Math.ceil((x+1)*W/n);
    got.forEach((g,i)=>{
      const h=g.deltas[x]/total*H;
      ctx.fillStyle=COLORS[i];
      ctx.fillRect(x0,y-h,x1-x0,h);
      y-=h;
    });
  }
}
main();
</script></body></html>
)html";
}

} // namespace

ReportServer::~ReportServer()
{
    MutexLock lock(mutex_);
    if (fd_ >= 0)
        ::close(fd_);
}

void
ReportServer::requestStop()
{
    stop_.store(true, std::memory_order_release);
    // Shut the listening socket down (keep the fd: serve() may still
    // be blocked on it) so accept() returns and the loop observes
    // the flag.
    MutexLock lock(mutex_);
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

ReportServer::Response
ReportServer::handle(const std::string &target) const
{
    size_t qmark = target.find('?');
    // Percent-decode the path component so a client that encodes the
    // route (e.g. "/%68ealthz") still hits it; params decode inside
    // parseQuery, after splitting on the raw '&'/'=' separators.
    std::string path = urlDecode(target.substr(0, qmark));
    Params params = qmark == std::string::npos
                        ? Params{}
                        : parseQuery(target.substr(qmark + 1));

    if (path == "/healthz") {
        MutexLock lock(mutex_);
        ReportIndex index = store_.index();
        JsonWriter json;
        json.beginObject();
        json.key("status");
        json.value("ok");
        json.key("reports");
        json.value(static_cast<uint64_t>(index.reports.size()));
        json.endObject();
        return {200, "application/json", json.str()};
    }

    if (path == "/version") {
        // Schema + fingerprint-scheme handshake so dashboards can
        // detect mixed-version cache directories before comparing
        // fingerprints across files.
        JsonWriter json;
        json.beginObject();
        json.key("schema");
        json.value(kRunReportSchema);
        json.key("fingerprint_scheme");
        json.value(kConfigFingerprintScheme);
        json.endObject();
        return {200, "application/json", json.str()};
    }

    if (path == "/index") {
        MutexLock lock(mutex_);
        JsonWriter json;
        json.write(store_.index().reports);
        return {200, "application/json", json.str()};
    }

    if (path == "/stats") {
        QueryFilter filter;
        if (!buildFilter(params, filter))
            return errorResponse(400, "unknown filter key");
        MutexLock lock(mutex_);
        JsonWriter json;
        json.beginArray();
        for (const std::string &name : store_.statNames(filter))
            json.value(name);
        json.endArray();
        return {200, "application/json", json.str()};
    }

    if (path == "/stat" || path == "/series") {
        std::string name = paramValue(params, "name");
        if (name.empty())
            return errorResponse(400, "missing name parameter");
        QueryFilter filter;
        if (!buildFilter(params, filter))
            return errorResponse(400, "unknown filter key");
        MutexLock lock(mutex_);
        return {200, "application/json",
                path == "/stat"
                    ? statRowsJson(store_.stat(name, filter))
                    : seriesJson(store_.series(name, filter))};
    }

    if (path == "/breakdown") {
        QueryFilter filter;
        if (!buildFilter(params, filter))
            return errorResponse(400, "unknown filter key");
        MutexLock lock(mutex_);
        return {200, "application/json",
                breakdownJson(store_.breakdown(filter))};
    }

    if (path == "/view")
        return {200, "text/html", breakdownViewHtml()};

    if (path == "/report") {
        std::string file = paramValue(params, "file");
        // A bare file name only: no traversal out of the directory,
        // and no NUL or other control byte (a decoded %00 would cut
        // the path short).
        auto control = [](char c) {
            return static_cast<unsigned char>(c) < 0x20 || c == 0x7f;
        };
        if (file.empty() ||
            file.find('/') != std::string::npos ||
            file.find('\\') != std::string::npos ||
            file.find("..") != std::string::npos ||
            std::any_of(file.begin(), file.end(), control))
            return errorResponse(400, "bad file parameter");
        // Only a file the store indexes as a run report is served.
        MutexLock lock(mutex_);
        std::string body;
        if (!store_.readReport(file, body))
            return errorResponse(404, "no such report");
        return {200, "application/json", std::move(body)};
    }

    return errorResponse(404, "no such route");
}

bool
ReportServer::bind(int port)
{
    MutexLock lock(mutex_);
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        std::perror("lumi: socket");
        return false;
    }
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::bind(fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd_, 16) != 0) {
        std::perror("lumi: bind");
        ::close(fd_);
        fd_ = -1;
        return false;
    }

    socklen_t len = sizeof(addr);
    if (::getsockname(fd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) == 0)
        port_ = ntohs(addr.sin_port);
    else
        port_ = port;
    return true;
}

int
ReportServer::serve(int max_requests)
{
    // Snapshot the fd once: bind() happens-before serve(), and
    // teardown keeps the fd alive (requestStop() only shuts it
    // down), so accept() never races a close().
    int fd;
    {
        MutexLock lock(mutex_);
        fd = fd_;
    }
    if (fd < 0)
        return -1;
    int served = 0;
    while (max_requests == 0 || served < max_requests) {
        if (stop_.load(std::memory_order_acquire))
            break;
        int client = ::accept(fd, nullptr, nullptr);
        if (client < 0) {
            if (stop_.load(std::memory_order_acquire))
                break;
            continue;
        }

        // Read until the end of the request head (or a sane cap);
        // only the request line matters to the router.
        std::string request;
        char buf[4096];
        while (request.find("\r\n\r\n") == std::string::npos &&
               request.size() < (1u << 16)) {
            ssize_t got = ::recv(client, buf, sizeof(buf), 0);
            if (got <= 0)
                break;
            request.append(buf, static_cast<size_t>(got));
        }

        Response response;
        size_t sp1 = request.find(' ');
        size_t sp2 = sp1 == std::string::npos
                         ? std::string::npos
                         : request.find(' ', sp1 + 1);
        if (sp2 == std::string::npos ||
            request.compare(0, 4, "GET ") != 0) {
            response = errorResponse(400, "bad request");
        } else {
            response = handle(
                request.substr(sp1 + 1, sp2 - sp1 - 1));
        }

        const char *reason = response.status == 200   ? "OK"
                             : response.status == 400 ? "Bad Request"
                                                      : "Not Found";
        char head[256];
        int head_len = std::snprintf(
            head, sizeof(head),
            "HTTP/1.0 %d %s\r\n"
            "Content-Type: %s\r\n"
            "Content-Length: %zu\r\n"
            "Connection: close\r\n\r\n",
            response.status, reason, response.contentType.c_str(),
            response.body.size());
        // MSG_NOSIGNAL: a client that hangs up mid-response must not
        // SIGPIPE the whole simulator.
        ::send(client, head, static_cast<size_t>(head_len),
               MSG_NOSIGNAL);
        ::send(client, response.body.data(), response.body.size(),
               MSG_NOSIGNAL);
        ::close(client);
        served++;
    }
    return served;
}

} // namespace query
} // namespace lumi
