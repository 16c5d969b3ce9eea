// Fixture for the hot-path-container rule: node-based std
// containers declared in src/gpu cycle-path code. The last member
// shows the sanctioned escape hatch for deliberate cold-path uses.

#include <cstdint>
#include <list>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

struct MshrFile
{
    std::map<uint64_t, int> pending;        // expect(hot-path-container)
    std::unordered_map<uint64_t, int> tags; // expect(hot-path-container)
    std::list<int> retryQueue;              // expect(hot-path-container)
    std::multiset<uint64_t> fillTimes;      // expect(hot-path-container)
    std::set<uint64_t> lines;               // expect(hot-path-container)
    std::unordered_set<uint64_t> seen;      // expect(hot-path-container)
    // Cold path (dump-time only), deliberately allowlisted:
    std::map<int, int> debugIndex; // lint:allow(hot-path-container)
};
