#include "apps/apps.hpp"

#include "sim/logging.hpp"

namespace cni
{

const std::vector<std::string> &
macrobenchmarkNames()
{
    static const std::vector<std::string> names = {
        "spsolve", "gauss", "em3d", "moldyn", "appbt",
    };
    return names;
}

AppResult
runMacrobenchmark(const std::string &name, const MachineSpec &spec,
                  std::uint64_t seed, const MeasureOpts &opts)
{
    Machine sys(spec);
    AppResult r;
    if (name == "spsolve") {
        SpsolveParams p;
        if (seed)
            p.seed = seed;
        r = runSpsolve(sys, p, opts);
    } else if (name == "gauss") {
        r = runGauss(sys, {}, opts);
    } else if (name == "em3d") {
        Em3dParams p;
        if (seed)
            p.seed = seed;
        r = runEm3d(sys, p, opts);
    } else if (name == "moldyn") {
        r = runMoldyn(sys, {}, opts);
    } else if (name == "appbt") {
        r = runAppbt(sys, {}, opts);
    } else {
        cni_fatal("unknown macrobenchmark '%s'", name.c_str());
    }
    addRunReport(name + " " + spec.label(), sys, opts);
    return r;
}

} // namespace cni
