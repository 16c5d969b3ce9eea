/**
 * @file
 * The full memory hierarchy: per-SM L1 data caches, the shared L2,
 * and DRAM, with the RT-versus-shader and per-DataKind breakdowns
 * the characterization figures are built from (Figs. 11-13).
 *
 * The hierarchy is a clocked transaction model. A requester offers a
 * MemRequest to issueRead()/issueWrite(); the memory system either
 * rejects it (L1 port busy, L1 MSHR file full -- the requester holds
 * the access and replays later) or accepts it, reserving the timing
 * chain through the levels at issue time:
 *
 *   L1 port -> L1 lookup -> [miss: L1 MSHR alloc -> icnt request
 *   flit -> L2 lookup -> [miss: L2 MSHR alloc (queueing when full)
 *   -> DRAM] -> icnt fill flits -> L1 fill]
 *
 * Every MSHR allocation schedules an explicit fill completion; fills
 * propagate back up at their ready cycle and free their entries
 * (drainTo()), which is what bounds the in-flight window. With every
 * resource unlimited (the default config) no request is ever
 * rejected or delayed, and the model reproduces the original
 * probe-at-issue latency oracle cycle for cycle.
 */

#ifndef LUMI_GPU_MEM_SYSTEM_HH
#define LUMI_GPU_MEM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "gpu/address_space.hh"
#include "gpu/cache.hh"
#include "gpu/config.hh"
#include "gpu/dram.hh"
#include "gpu/flat_map.hh"
#include "gpu/mem_request.hh"

namespace lumi
{

class Tracer;

/** Access counters split by requester (RT unit vs shader core). */
struct RequesterStats
{
    uint64_t reads = 0;
    uint64_t hits = 0;
    uint64_t pendingHits = 0;
    uint64_t misses = 0;
    uint64_t coldMisses = 0;
    uint64_t writes = 0;
};

/** The L1s, L2 and DRAM bundled behind one issue interface. */
class MemSystem
{
  public:
    MemSystem(const GpuConfig &config, const AddressSpace &space,
              Tracer *tracer = nullptr);

    /**
     * Offer a read access. On acceptance the full timing chain is
     * reserved and readyCycle is the cycle the data reaches the
     * requester; on rejection no cache state or counter changed and
     * the caller must replay on a later cycle.
     */
    MemIssue issueRead(const MemRequest &req);

    /**
     * Offer a write access; non-blocking for the requester once
     * accepted (readyCycle is the next cycle). Subject to the same
     * L1 port bound as reads.
     */
    MemIssue issueWrite(const MemRequest &req);

    /**
     * Retire in-flight fills that complete at or before @p cycle.
     * Inline no-completion fast path: every issue probes this, and
     * almost all probes find nothing due.
     */
    void
    drainTo(uint64_t cycle)
    {
        if (!completions_.empty() &&
            completions_.top().ready <= cycle)
            drainDue(cycle);
    }

    /** Retire every in-flight fill (end of run). */
    void drainAll();

    /**
     * Earliest future cycle at which an in-flight fill completes and
     * can unblock a stalled requester. With unlimited resources no
     * requester ever blocks on a fill, so this reports no events and
     * the GPU event loop's stops stay identical to the oracle model.
     */
    uint64_t nextEventCycle(uint64_t now) const;

    const Cache &l1(int sm) const { return *l1s_[sm]; }
    const Cache &l2() const { return *l2_; }
    const AddressSpace &space() const { return space_; }
    Dram &dram() { return *dram_; }
    const Dram &dram() const { return *dram_; }

    /** L1 counters for RT-unit requests (aggregated over SMs). */
    const RequesterStats &l1Rt() const { return l1Rt_; }
    /** L1 counters for shader-core requests. */
    const RequesterStats &l1Shader() const { return l1Shader_; }
    /** Per-SM L1 requester counters (the aggregate's summands). */
    const RequesterStats &l1Rt(int sm) const { return l1RtSm_[sm]; }
    const RequesterStats &
    l1Shader(int sm) const
    {
        return l1ShaderSm_[sm];
    }
    /** L2 counters split the same way. */
    const RequesterStats &l2Rt() const { return l2Rt_; }
    const RequesterStats &l2Shader() const { return l2Shader_; }

    /** Per-DataKind L1 read/miss counts (index by DataKind). */
    const uint64_t *kindReads() const { return kindReads_; }
    const uint64_t *kindMisses() const { return kindMisses_; }

    /** Contention counters of the request/port model. */
    const MemSystemStats &memStats() const { return memStats_; }

    /** Live in-flight fills (MSHR entries across both levels). */
    int inflight() const { return liveTotal_; }

  private:
    /** Address -> L1 line index; shift when the line size is a
     *  power of two (the hot case), divide otherwise. */
    uint64_t lineIndex(uint64_t addr) const;

    /** Out-of-line drain loop behind drainTo's fast path. */
    void drainDue(uint64_t cycle);

    /** An in-flight fill completing at @p ready. */
    struct Completion
    {
        uint64_t ready = 0;
        uint64_t lineAddr = 0;
        uint64_t issueCycle = 0;
        int level = 0; ///< 0 = an SM's L1, 1 = the shared L2
        int sm = 0;
        bool rt = false;

        bool
        operator>(const Completion &o) const
        {
            // Total order so the drain sequence (and the trace
            // events it emits) is deterministic.
            if (ready != o.ready)
                return ready > o.ready;
            if (level != o.level)
                return level > o.level;
            if (sm != o.sm)
                return sm > o.sm;
            return lineAddr > o.lineAddr;
        }
    };

    /** One line-granular accepted read; returns its ready cycle. */
    uint64_t readLine(int sm, uint64_t cycle, uint64_t line_addr,
                      bool rt, DataKind kind);
    /** One line-granular accepted write. */
    void writeLine(int sm, uint64_t cycle, uint64_t line_addr);

    /**
     * Reserve @p flits on the SM<->L2 link no earlier than
     * @p cycle; returns the cycle the last flit has crossed.
     * Unlimited bandwidth returns @p cycle unchanged.
     */
    uint64_t icntTransfer(uint64_t cycle, uint32_t flits);

    /**
     * Earliest cycle >= @p at with a free L2 MSHR entry; accounts
     * the queueing delay. Unlimited entries return @p at.
     */
    uint64_t l2AllocAt(uint64_t at);

    /** Port admission for @p slots line segments of SM @p sm. */
    bool reservePort(int sm, uint64_t cycle, uint32_t slots);

    /** Advance the occupancy histogram to @p cycle. */
    void occupancyAdvance(uint64_t cycle);

    void allocMshr(int level, int sm, uint64_t line_addr,
                   uint64_t cycle, uint64_t ready, bool rt);
    void processCompletion(const Completion &completion);

    const GpuConfig &config_;
    const AddressSpace &space_;
    Tracer *tracer_ = nullptr;
    std::vector<std::unique_ptr<Cache>> l1s_;
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<Dram> dram_;

    RequesterStats l1Rt_;
    RequesterStats l1Shader_;
    RequesterStats l2Rt_;
    RequesterStats l2Shader_;
    std::vector<RequesterStats> l1RtSm_;
    std::vector<RequesterStats> l1ShaderSm_;
    uint64_t kindReads_[numDataKinds] = {};
    uint64_t kindMisses_[numDataKinds] = {};
    MemSystemStats memStats_;

    /** Lines ever filled, for compulsory-miss classification. */
    FlatSet touchedLines_;

    // --- In-flight request state ---
    /** Pending fill completions, earliest first. */
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<Completion>>
        completions_;
    /** Live L1 MSHR entries per SM: line -> outstanding fills. */
    std::vector<FlatMap<uint32_t>> l1Mshrs_;
    std::vector<int> l1Live_;
    /** True while an oversized access (more missing lines than the
     *  whole L1 MSHR file) allocates into an empty file. */
    bool oversizedAdmit_ = false;
    /** Live L2 MSHR entries: line -> outstanding fills. */
    FlatMap<uint32_t> l2Mshrs_;
    /** fillReady of every live L2 entry, sorted (future-time
     *  occupancy). Kept only under a finite L2 MSHR file
     *  (l2MshrEntries != 0); l2AllocAt reads it by binary search. */
    std::vector<uint64_t> l2FillTimes_;
    int l2Live_ = 0;
    int liveTotal_ = 0;

    // --- L1 port state (per SM, valid for portCycle_[sm]) ---
    std::vector<uint64_t> portCycle_;
    std::vector<uint32_t> portUsed_;
    /** log2(l1LineBytes) when it is a power of two, else -1. */
    int l1LineShift_ = -1;
    uint64_t lastPortConflictCycle_ = UINT64_MAX;

    /** Next free SM<->L2 link slot, in flit-slot units
     *  (cycle * icntFlitsPerCycle). */
    uint64_t icntFreeSlot_ = 0;

    /** Time up to which the occupancy histogram is accumulated. */
    uint64_t occupancyMark_ = 0;
};

} // namespace lumi

#endif // LUMI_GPU_MEM_SYSTEM_HH
