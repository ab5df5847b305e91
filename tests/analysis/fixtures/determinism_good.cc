// Determinism checks, negative space: keyed lookups, ordered iteration,
// members that merely share a name with a banned function, banned names
// inside comments/strings, allowed headers (a project header whose name
// merely contains a banned one, a commented-out banned include). None
// of these may produce a diagnostic.

#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/random.hpp"
// #include <random>

namespace cni_fix
{

int
lookupsAreFine(std::unordered_map<int, int> &m, int k)
{
    if (m.count(k) != 0u)
        return m[k];
    return 0;
}

long
orderedIterationIsFine(const std::map<int, long> &m)
{
    long sum = 0;
    for (const auto &kv : m)
        sum += kv.second;
    return sum;
}

int
vectorIterationIsFine(const std::vector<int> &v)
{
    int n = 0;
    for (int x : v)
        n += x;
    return n;
}

struct Stats
{
    // Members that shadow banned free-function names: calls through an
    // object are simulated time, not host time.
    long clock() const { return 0; }
    long time(long t) const { return t; }
};

long
membersNamedLikeClocksAreFine(const Stats &s)
{
    // rand() in a comment is fine, as is the string literal below.
    const char *label = "std::chrono::steady_clock";
    (void)label;
    return s.clock() + s.time(4);
}

std::map<int, int *> pointerValuesAreFine;
std::map<std::pair<int, int>, int> pairKeysAreFine;

} // namespace cni_fix
