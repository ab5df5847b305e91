// Determinism checks: every banned pattern the regex lint used to miss
// or could only approximate — aliases, qualified uses, iteration vs
// lookup — plus the headers the core must not even include. Each
// offending line declares its expected diagnostic.

#include <chrono>     // CNICHECK-EXPECT: banned-include
#include <ctime>      // CNICHECK-EXPECT: banned-include
#include <map>
#include <random>     // CNICHECK-EXPECT: banned-include
#include <sys/time.h> // CNICHECK-EXPECT: banned-include
#include <time.h>     // CNICHECK-EXPECT: banned-include
#include <unordered_map>
#include <unordered_set>

namespace cni_fix
{

using WallClock = std::chrono::high_resolution_clock; // CNICHECK-EXPECT: wall-clock
using Rng = std::random_device;                       // CNICHECK-EXPECT: entropy
using Index = std::unordered_map<int, long>;

long long
hostTimeLeaks()
{
    auto t0 = std::chrono::steady_clock::now(); // CNICHECK-EXPECT: wall-clock
    auto t1 = WallClock::now();                 // CNICHECK-EXPECT: wall-clock
    long t2 = time(nullptr);                    // CNICHECK-EXPECT: wall-clock
    return t0 + t1 + t2;
}

int
entropyLeaks()
{
    Rng rng;        // CNICHECK-EXPECT: entropy
    int r = rand(); // CNICHECK-EXPECT: entropy
    return int(rng()) + r;
}

int
unorderedIteration(Index &idx)
{
    int n = 0;
    for (auto &e : idx) // CNICHECK-EXPECT: unordered-iteration
        n += int(e.second);
    auto it = idx.begin(); // CNICHECK-EXPECT: unordered-iteration
    (void)it;
    return n;
}

struct Obj
{
    int v;
};

std::map<Obj *, int> keyedByPointer;       // CNICHECK-EXPECT: pointer-key
std::unordered_set<int *> hashedByPointer; // CNICHECK-EXPECT: pointer-key

} // namespace cni_fix
