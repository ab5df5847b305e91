/**
 * @file
 * Lightweight statistics package (counters, scalar samples, distributions).
 *
 * Every simulated component owns a StatSet; the Machine aggregates them for
 * end-of-run reporting. Names are hierarchical by convention
 * ("node0.membus.occupancy_cycles").
 */

#ifndef CNI_SIM_STATS_HPP
#define CNI_SIM_STATS_HPP

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace cni
{

/** A running scalar statistic with count/sum/min/max. */
class Scalar
{
  public:
    void
    sample(double v)
    {
        if (count_ == 0) {
            min_ = max_ = v;
        } else {
            min_ = std::min(min_, v);
            max_ = std::max(max_, v);
        }
        sum_ += v;
        ++count_;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return min_; }
    double max() const { return max_; }

    void
    reset()
    {
        count_ = 0;
        sum_ = min_ = max_ = 0.0;
    }

    /** Fold another scalar's samples into this one (exact aggregates). */
    void
    merge(const Scalar &other)
    {
        if (other.count_ == 0)
            return;
        if (count_ == 0) {
            *this = other;
            return;
        }
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
        sum_ += other.sum_;
        count_ += other.count_;
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * A named set of counters and scalar statistics. Lookup creates on demand,
 * so instrumentation points never need registration boilerplate.
 */
class StatSet
{
  public:
    explicit StatSet(std::string name = "") : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    /**
     * Pre-bound counter handle for hot instrumentation points.
     *
     * incr(key) builds a std::string temporary and walks a string-keyed
     * map on every call — a heap allocation plus several string compares
     * per simulated event on the busiest paths. A Counter is constructed
     * once (component constructor) and bumps a cached map-slot pointer
     * thereafter.
     *
     * Binding is lazy, on the first incr: a never-touched counter must
     * not appear in reports (lookup-created zero entries would change
     * report bytes). Map nodes are address-stable, so the cached pointer
     * stays valid for the StatSet's lifetime; StatSet::reset() is the
     * one operation that invalidates handles (no simulation uses it —
     * it exists for external tooling).
     *
     * The key is not copied — components build dozens of handles per
     * node, so construction must cost no string — and must outlive the
     * handle: pass a string literal.
     */
    class Counter
    {
      public:
        Counter() = default;
        Counter(StatSet &set, const char *key) : set_(&set), key_(key) {}

        void
        incr(std::uint64_t v = 1)
        {
            if (slot_ == nullptr)
                slot_ = &set_->counters_[key_];
            *slot_ += v;
        }

      private:
        StatSet *set_ = nullptr;
        const char *key_ = nullptr;
        std::uint64_t *slot_ = nullptr;
    };

    /** Pre-bound scalar handle; same contract as Counter. */
    class ScalarHandle
    {
      public:
        ScalarHandle() = default;
        ScalarHandle(StatSet &set, const char *key) : set_(&set), key_(key)
        {
        }

        void
        sample(double v)
        {
            if (slot_ == nullptr)
                slot_ = &set_->scalars_[key_];
            slot_->sample(v);
        }

      private:
        StatSet *set_ = nullptr;
        const char *key_ = nullptr;
        Scalar *slot_ = nullptr;
    };

    /** Add `v` (default 1) to the named counter. */
    void incr(const std::string &key, std::uint64_t v = 1)
    {
        counters_[key] += v;
    }

    /** Read a counter (0 if never touched). */
    std::uint64_t
    counter(const std::string &key) const
    {
        auto it = counters_.find(key);
        return it == counters_.end() ? 0 : it->second;
    }

    /** Record a scalar sample (latency, size, ...). */
    void sample(const std::string &key, double v) { scalars_[key].sample(v); }

    /** Access a scalar statistic (default-constructed if never sampled). */
    const Scalar &
    scalar(const std::string &key) const
    {
        static const Scalar empty;
        auto it = scalars_.find(key);
        return it == scalars_.end() ? empty : it->second;
    }

    const std::map<std::string, std::uint64_t> &counters() const
    {
        return counters_;
    }

    const std::map<std::string, Scalar> &scalars() const { return scalars_; }

    void
    reset()
    {
        counters_.clear();
        scalars_.clear();
    }

    /** Merge another set's counters/scalars into this one. */
    void merge(const StatSet &other);

    /** Human-readable dump, one line per statistic. */
    void dump(std::ostream &os) const;

  private:
    std::string name_;
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, Scalar> scalars_;
};

} // namespace cni

#endif // CNI_SIM_STATS_HPP
