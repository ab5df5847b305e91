/**
 * @file
 * The machine-parameter table: the one vocabulary of MachineBuilder
 * knobs that the command line, SweepSpec parameters, cnid jobs and
 * cnimc share. Each row is both a flag (`--name value`) and a sweep
 * parameter (`name=value`), and both spellings go through the same
 * row's apply(), so a flag-driven run and a sweep point are the same
 * run by construction.
 *
 * A row checks syntax only: a strict, whole-string parse into the
 * builder setter's own type ("-1" is not a Tick, "2x" is not an int).
 * Ranges and combinations live in MachineSpec::valid(). `--help` text
 * comes from the rows too, so adding a row is the whole job of adding
 * a machine flag.
 */

#ifndef CNI_CORE_MACHINE_PARAMS_HPP
#define CNI_CORE_MACHINE_PARAMS_HPP

#include <charconv>
#include <span>
#include <string>
#include <string_view>

#include "core/machine.hpp"

namespace cni
{

/** Which slice of the machine a parameter configures. */
enum class ParamScope
{
    Node,      //!< size, NI, placement: the axes fixed-grid benches own
    Fabric,    //!< interconnect and simulation kernel
    Coherence, //!< coherence backend and its geometry (all cnimc reads)
};

struct MachineParam
{
    const char *name; //!< flag `--name`, sweep parameter `name`
    const char *arg;  //!< value placeholder; nullptr: takes no value
    const char *help;
    ParamScope scope;
    /** Parse `value` and set it on `b`; false + the wanted syntax. */
    bool (*set)(MachineBuilder &b, const std::string &value,
                const char **want);

    /** set(), with a structured error naming the parameter. */
    bool apply(MachineBuilder &b, const std::string &value,
               std::string *why) const;

    /** One aligned `--help` line for this row. */
    std::string usage() const;
};

/** Every row, in flag order. */
std::span<const MachineParam> machineParams();

/** The row called `name`, or nullptr. */
const MachineParam *findMachineParam(std::string_view name);

/** Strict decimal parse of all of `text` (no sign on unsigned types). */
template <class T>
bool
parseNumber(std::string_view text, T *out)
{
    const char *end = text.data() + text.size();
    const auto [at, ec] = std::from_chars(text.data(), end, *out);
    return ec == std::errc() && at == end;
}

} // namespace cni

#endif // CNI_CORE_MACHINE_PARAMS_HPP
