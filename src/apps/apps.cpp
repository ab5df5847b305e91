#include "apps/apps.hpp"

#include "sim/logging.hpp"
#include "sim/report.hpp"

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
                  std::uint64_t seed)
{
    Machine sys(spec);
    auto finish = [&](AppResult r) {
        ReportSink &sink = report::global();
        if (sink.enabled())
            sink.add(name + " " + spec.label(), sys.report());
        return r;
    };
    if (name == "spsolve") {
        SpsolveParams p;
        if (seed)
            p.seed = seed;
        return finish(runSpsolve(sys, p));
    }
    if (name == "gauss")
        return finish(runGauss(sys));
    if (name == "em3d") {
        Em3dParams p;
        if (seed)
            p.seed = seed;
        return finish(runEm3d(sys, p));
    }
    if (name == "moldyn")
        return finish(runMoldyn(sys));
    if (name == "appbt")
        return finish(runAppbt(sys));
    cni_fatal("unknown macrobenchmark '%s'", name.c_str());
}

} // namespace cni
