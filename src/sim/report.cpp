#include "sim/report.hpp"

#include <utility>

#include "sim/json.hpp"

namespace cni
{

void
ReportSink::enable(bool on)
{
    CniLockGuard lock(mu_);
    enabled_ = on;
}

bool
ReportSink::enabled() const
{
    CniLockGuard lock(mu_);
    return enabled_;
}

void
ReportSink::add(const std::string &label, const std::string &json)
{
    CniLockGuard lock(mu_);
    if (!enabled_)
        return;
    runs_.push_back(Run{label, json});
}

std::size_t
ReportSink::count() const
{
    CniLockGuard lock(mu_);
    return runs_.size();
}

void
ReportSink::clear()
{
    CniLockGuard lock(mu_);
    runs_.clear();
}

std::vector<ReportSink::Run>
ReportSink::take()
{
    CniLockGuard lock(mu_);
    std::vector<Run> out;
    out.swap(runs_);
    return out;
}

std::string
ReportSink::drain(const std::string &binaryName)
{
    const std::vector<Run> runs = take();
    JsonWriter w;
    w.beginObject();
    w.key("binary").value(binaryName);
    w.key("runs").beginArray();
    for (const Run &r : runs) {
        w.beginObject();
        w.key("label").value(r.label);
        w.key("report").raw(r.json);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

namespace report
{

ReportSink &
global()
{
    static ReportSink *sink = new ReportSink();
    return *sink;
}

} // namespace report

} // namespace cni
