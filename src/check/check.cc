#include "check/check.hh"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "check/thread_annotations.hh"
#include "trace/stat_registry.hh"

namespace lumi
{

namespace
{

/** Violations echoed to stderr per subsystem in count mode. */
constexpr uint64_t maxPrintedPerSubsys = 8;

struct CheckState
{
    /**
     * The mode is read on the (passing-check-free) slow path and by
     * tests without the lock; it is an atomic, not a guarded field,
     * because setMode() happens-before the threads whose checks it
     * governs and a torn read must still be impossible.
     */
    std::atomic<CheckMode> mode{CheckMode::FailFast};
    /**
     * Serializes the violation slow path: campaign workers simulate
     * concurrently, and count-mode violations on two jobs at once
     * must not corrupt the shared counters. The hot path (passing
     * checks) never takes the lock.
     */
    Mutex mutex;
    uint64_t violations[numCheckSubsystems]
        LUMI_GUARDED_BY(mutex) = {};
    uint64_t total LUMI_GUARDED_BY(mutex) = 0;
    uint64_t printed[numCheckSubsystems]
        LUMI_GUARDED_BY(mutex) = {};
    std::string lastMessage LUMI_GUARDED_BY(mutex);
};

CheckState &
state()
{
    static CheckState s;
    // Triage escape hatch: LUMI_CHECK_MODE=count turns a run that
    // would abort into one that reports violation counts. A
    // checks-only observer mode, never a timing input.
    static bool init = [] {
        const char *mode =
            std::getenv("LUMI_CHECK_MODE"); // lint:allow(nondeterminism)
        if (mode && std::strcmp(mode, "count") == 0)
            s.mode = CheckMode::Count;
        return true;
    }();
    (void)init;
    return s;
}

} // namespace

const char *
checkSubsysName(CheckSubsys subsys)
{
    switch (subsys) {
      case CheckSubsys::Simt: return "simt";
      case CheckSubsys::Sched: return "sched";
      case CheckSubsys::Cache: return "cache";
      case CheckSubsys::Dram: return "dram";
      case CheckSubsys::Rt: return "rt";
      case CheckSubsys::Mem: return "mem";
      case CheckSubsys::Profile: return "profile";
      default: return "unknown";
    }
}

namespace checks
{

void
setMode(CheckMode mode)
{
    state().mode.store(mode, std::memory_order_relaxed);
}

CheckMode
mode()
{
    return state().mode.load(std::memory_order_relaxed);
}

void
reset()
{
    CheckState &s = state();
    MutexLock lock(s.mutex);
    for (int i = 0; i < numCheckSubsystems; i++) {
        s.violations[i] = 0;
        s.printed[i] = 0;
    }
    s.total = 0;
    s.lastMessage.clear();
}

uint64_t
violations(CheckSubsys subsys)
{
    CheckState &s = state();
    MutexLock lock(s.mutex);
    return s.violations[static_cast<int>(subsys)];
}

uint64_t
total()
{
    CheckState &s = state();
    MutexLock lock(s.mutex);
    return s.total;
}

std::string
lastMessage()
{
    CheckState &s = state();
    MutexLock lock(s.mutex);
    return s.lastMessage;
}

ScopedCountMode::ScopedCountMode() : saved_(mode())
{
    setMode(CheckMode::Count);
    reset();
}

ScopedCountMode::~ScopedCountMode()
{
    setMode(saved_);
    reset();
}

} // namespace checks

void
checkFailed(CheckSubsys subsys, const char *file, int line,
            const char *fmt, ...)
{
    CheckState &s = state();
    MutexLock lock(s.mutex);
    int index = static_cast<int>(subsys);
    s.violations[index]++;
    s.total++;

    char message[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(message, sizeof(message), fmt, args);
    va_end(args);
    s.lastMessage = message;

    bool fail_fast =
        s.mode.load(std::memory_order_relaxed) ==
        CheckMode::FailFast;
    if (fail_fast || s.printed[index] < maxPrintedPerSubsys) {
        s.printed[index]++;
        std::fprintf(stderr,
                     "lumi: invariant violated [%s] at %s:%d: %s\n",
                     checkSubsysName(subsys), file, line, message);
        if (!fail_fast && s.printed[index] == maxPrintedPerSubsys) {
            std::fprintf(stderr,
                         "lumi: [%s] further violations counted "
                         "but not printed\n",
                         checkSubsysName(subsys));
        }
    }
    if (fail_fast) {
        std::fprintf(stderr,
                     "lumi: aborting (LUMI_CHECK_MODE=count to "
                     "continue and count)\n");
        std::abort();
    }
}

void
registerCheckStats(StatRegistry &registry)
{
    // Registration stores the counters' addresses; the registry
    // dereferences them only in post-run, single-threaded dumps, so
    // the lock is needed just for the registration itself.
    CheckState &s = state();
    MutexLock lock(s.mutex);
    for (int i = 0; i < numCheckSubsystems; i++) {
        registry.addCounter(
            std::string("check.violations.") +
                checkSubsysName(static_cast<CheckSubsys>(i)),
            &s.violations[i],
            "model invariant violations (count mode)");
    }
    registry.addCounter("check.violations.total", &s.total,
                        "model invariant violations, all subsystems");
}

} // namespace lumi
