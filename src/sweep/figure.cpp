#include "sweep/figure.hpp"

#include <cstring>
#include <fstream>

#include "sim/logging.hpp"
#include "sim/report.hpp"

namespace cni::sweep
{

namespace
{

/** Remove `flag PATH` from argv, returning PATH ("" when absent). */
std::string
stripPathFlag(int *argc, char **argv, const char *flag)
{
    for (int i = 1; i < *argc; ++i) {
        if (std::strcmp(argv[i], flag) != 0)
            continue;
        if (i + 1 >= *argc)
            cni_fatal("%s needs a path argument", flag);
        const std::string path = argv[i + 1];
        for (int j = i; j + 2 < *argc; ++j)
            argv[j] = argv[j + 2];
        *argc -= 2;
        return path;
    }
    return "";
}

/** Write `content` to `path`; fatal when the file cannot be opened. */
void
writeFileOrDie(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    if (!out)
        cni_fatal("cannot write %s", path.c_str());
    out << content;
}

bool
matches(const SweepPoint &p, const ParamList &at)
{
    for (const auto &[k, v] : at) {
        if (paramOr(p.params, k, "") != v)
            return false;
    }
    return true;
}

} // namespace

Figure::Figure(int argc, char **argv, const char *usage)
    : specPath_(stripPathFlag(&argc, argv, "--spec")),
      pointsPath_(stripPathFlag(&argc, argv, "--points"))
{
    const std::string u =
        std::string("[--spec PATH] [--points PATH]\n       ") + usage;
    opts_ = cli::parse(argc, argv, u.c_str());
}

void
Figure::run(const SweepSpec &spec, const ParamList &probe)
{
    points_ = spec.expand();
    std::string why;
    for (const SweepPoint &p : points_) {
        if (spec.allowInvalid && !matches(p, probe))
            continue;
        if (!validatePoint(p, &why))
            cni_fatal("invalid flags: %s", why.c_str());
        if (spec.allowInvalid)
            break;
    }

    if (!specPath_.empty())
        writeFileOrDie(specPath_, spec.toJson() + "\n");
    std::string ndjson;
    results_.reserve(points_.size());
    for (const SweepPoint &p : points_) {
        results_.push_back(runPoint(p, spec.timeoutTicks));
        ndjson += results_.back().doc;
        ndjson += '\n';
    }
    if (!pointsPath_.empty())
        writeFileOrDie(pointsPath_, ndjson);

    for (const PointResult &r : results_) {
        if (r.status == "timeout") {
            cni_fatal("point %s (%s) did not finish within %llu ticks",
                      r.key.c_str(), r.label.c_str(),
                      static_cast<unsigned long long>(spec.timeoutTicks));
        }
    }
}

const PointResult *
Figure::find(const ParamList &at) const
{
    for (std::size_t i = 0; i < points_.size(); ++i) {
        if (matches(points_[i], at))
            return &results_[i];
    }
    return nullptr;
}

double
Figure::metric(const ParamList &at, std::string_view name, double def) const
{
    const PointResult *r = find(at);
    return r && r->status == "ok" ? r->metric(name, def) : def;
}

void
Figure::listReports() const
{
    for (const PointResult &r : results_) {
        if (!r.machineJson.empty())
            report::global().add(r.reportLabel, r.machineJson);
    }
}

} // namespace cni::sweep
