/**
 * @file
 * A model family's table: model names mapped to a traits record and a
 * factory.
 *
 * NI devices (NiRegistry), interconnect models (NetRegistry) and
 * coherence backends (CoherenceRegistry) are each one fixed table,
 * built from its rows inside the family's instance() and never changed
 * after that, so machines on any number of host threads look models up
 * without locks. The traits record is what the machine builder consults
 * for up-front validation; an unknown name is fatal, listing the
 * family's names. Adding a model means adding its class and one row in
 * its family's instance().
 */

#ifndef CNI_SIM_REGISTRY_HPP
#define CNI_SIM_REGISTRY_HPP

#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/logging.hpp"

namespace cni
{

template <typename ProductT, typename TraitsT, typename... MakeArgs>
class Registry
{
  public:
    using Product = ProductT;
    using Traits = TraitsT;
    using Factory = std::unique_ptr<Product> (*)(MakeArgs...);

    /** One model of the family. */
    struct Row
    {
        const char *name;
        Traits traits;
        Factory make;
    };

    bool known(const std::string &name) const
    {
        return rows_.count(name) != 0;
    }

    /** Traits for `name`, or nullptr when unknown. */
    const Traits *
    traits(const std::string &name) const
    {
        auto it = rows_.find(name);
        return it == rows_.end() ? nullptr : &it->second.traits;
    }

    /**
     * Construct a product. Fatal (with the list of the family's names)
     * on an unknown name — an unknown model is a configuration error.
     */
    std::unique_ptr<Product>
    make(const std::string &name, MakeArgs... args) const
    {
        auto it = rows_.find(name);
        if (it == rows_.end()) {
            cni_fatal("unknown %s '%s' (%s: %s)", what_, name.c_str(),
                      plural_, namesCsv().c_str());
        }
        return it->second.make(std::forward<MakeArgs>(args)...);
    }

    /** The family's names, sorted. */
    std::vector<std::string>
    names() const
    {
        std::vector<std::string> out;
        out.reserve(rows_.size());
        for (const auto &[name, row] : rows_)
            out.push_back(name);
        return out;
    }

    /** Comma-separated names, for error messages. */
    std::string
    namesCsv() const
    {
        std::string csv;
        for (const auto &[name, row] : rows_) {
            if (!csv.empty())
                csv += ", ";
            csv += name;
        }
        return csv;
    }

  protected:
    /**
     * @param what   what one row is, for error messages ("NI model")
     * @param plural the set those messages list the alternatives under
     *               ("registered models")
     * @param rows   the family, one row per model
     */
    Registry(const char *what, const char *plural,
             std::initializer_list<Row> rows)
        : what_(what), plural_(plural)
    {
        for (const Row &r : rows) {
            cni_assert(r.make != nullptr);
            const bool fresh = rows_.emplace(r.name, r).second;
            cni_assert(fresh);
        }
    }

  private:
    const char *what_;
    const char *plural_;
    std::map<std::string, Row> rows_;
};

} // namespace cni

#endif // CNI_SIM_REGISTRY_HPP
