/**
 * @file
 * The central event queue of the GPU cycle loop.
 *
 * Each timing component (SIMT core, RT unit, the memory system)
 * *registers* the earliest future cycle at which it has work; the
 * loop pops the components due at the current landing cycle and
 * cycles only those, instead of polling every component's
 * nextEventCycle() every iteration. The queue is an indexed binary
 * min-heap over a fixed component set: update() re-keys a component
 * in O(log n) and popDue() hands back the due set in ascending
 * component order (the loop's deterministic SM order).
 *
 * Exactness contract: a component's registered cycle must be exactly
 * its nextEventCycle() as of the last cycle that could have changed
 * its state. The loop therefore re-registers every component it
 * cycled, every component a cycled component may have poked across
 * an SM pair (core <-> RT unit), and the memory system every
 * iteration. Under that contract the heap minimum equals the old
 * all-component min-scan cycle for cycle, which is what keeps the
 * landing-cycle set -- and with it every timeline/interval sample --
 * byte-identical (see DESIGN.md, "Event scheduler").
 */

#ifndef LUMI_GPU_EVENT_QUEUE_HH
#define LUMI_GPU_EVENT_QUEUE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "check/check.hh"

namespace lumi
{

/** Indexed min-heap of (next-interesting cycle, component). */
class EventQueue
{
  public:
    explicit EventQueue(int components);

    int components() const { return static_cast<int>(pos_.size()); }

    /** (Re-)register @p comp's next-interesting cycle. UINT64_MAX
     *  parks the component (nothing scheduled). Inline: the loop
     *  re-keys a handful of components every landing cycle. */
    void
    update(int comp, uint64_t cycle)
    {
        LUMI_CHECK(Sched,
                   comp >= 0 && comp < static_cast<int>(pos_.size()),
                   "event queue update for unknown component %d",
                   comp);
        size_t i = pos_[comp];
        uint64_t old = heap_[i].cycle;
        heap_[i].cycle = cycle;
        if (cycle < old)
            siftUp(i);
        else if (cycle > old)
            siftDown(i);
    }

    /** Earliest registered cycle across all components. */
    uint64_t minCycle() const { return heap_[0].cycle; }

    /**
     * Collect every component registered at or before @p bound into
     * @p out (ascending component id) and park them; each must
     * re-register after it is cycled. The internal heap layout among
     * same-cycle entries is NOT timing-visible: the due set is
     * sorted by component id before it is returned.
     */
    void
    popDue(uint64_t bound, std::vector<int> &out)
    {
        out.clear();
        while (heap_[0].cycle <= bound) {
            out.push_back(heap_[0].comp);
            heap_[0].cycle = UINT64_MAX;
            siftDown(0);
        }
        // Due components run in ascending id order: the loop cycles
        // SMs (then RT units) in SM order, and shared memory-system
        // state (ports, the interconnect) makes that order
        // timing-visible.
        std::sort(out.begin(), out.end());
    }

  private:
    struct Entry
    {
        uint64_t cycle;
        int comp;
    };

    void
    place(size_t i, Entry entry)
    {
        heap_[i] = entry;
        pos_[entry.comp] = i;
    }

    void
    siftUp(size_t i)
    {
        Entry entry = heap_[i];
        while (i > 0) {
            size_t parent = (i - 1) / 2;
            if (heap_[parent].cycle <= entry.cycle)
                break;
            place(i, heap_[parent]);
            i = parent;
        }
        place(i, entry);
    }

    void
    siftDown(size_t i)
    {
        Entry entry = heap_[i];
        size_t count = heap_.size();
        for (;;) {
            size_t child = 2 * i + 1;
            if (child >= count)
                break;
            if (child + 1 < count &&
                heap_[child + 1].cycle < heap_[child].cycle) {
                child++;
            }
            if (heap_[child].cycle >= entry.cycle)
                break;
            place(i, heap_[child]);
            i = child;
        }
        place(i, entry);
    }

    std::vector<Entry> heap_;
    /** comp -> index into heap_. */
    std::vector<size_t> pos_;
};

} // namespace lumi

#endif // LUMI_GPU_EVENT_QUEUE_HH
