// Fixture: nondeterminism rule -- an environment knob in the timing
// model makes cycle counts depend on more than a job's inputs.
#include <cstdlib>

static bool knobs() {
    return std::getenv("LUMI_KNOB") ||  // expect(nondeterminism)
           secure_getenv("LUMI_KNOB");  // expect(nondeterminism)
}
