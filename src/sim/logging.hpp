/**
 * @file
 * gem5-style status and error reporting.
 *
 * panic()  - an internal invariant of the simulator was violated (a bug in
 *            this library); aborts so a debugger or core dump can inspect it.
 * fatal()  - the simulation cannot continue because of a user error (bad
 *            configuration, invalid arguments); exits with status 1. The
 *            message names the input at fault, not a source location.
 * warn()   - something is modelled approximately; simulation continues.
 * inform() - purely informational status output.
 */

#ifndef CNI_SIM_LOGGING_HPP
#define CNI_SIM_LOGGING_HPP

#include <cstdarg>
#include <string>

namespace cni
{

[[noreturn]] void panicImpl(const char *file, int line, const char *fmt, ...);
[[noreturn]] void fatalImpl(const char *fmt, ...);
void warnImpl(const char *fmt, ...);
void informImpl(const char *fmt, ...);

/** Enable/disable inform() output (benchmarks silence it). */
void setVerbose(bool verbose);
bool verbose();

} // namespace cni

#define cni_panic(...) ::cni::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define cni_fatal(...) ::cni::fatalImpl(__VA_ARGS__)
#define cni_warn(...) ::cni::warnImpl(__VA_ARGS__)
#define cni_inform(...) ::cni::informImpl(__VA_ARGS__)

/** Simulator-internal assertion: panics (never compiled out). */
#define cni_assert(cond, ...)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::cni::panicImpl(__FILE__, __LINE__,                            \
                             "assertion failed: %s", #cond);                \
        }                                                                   \
    } while (0)

#endif // CNI_SIM_LOGGING_HPP
