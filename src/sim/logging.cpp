#include "sim/logging.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace cni
{

namespace
{
// Atomic: concurrent Machine runs (sweep daemon workers) read it while
// another thread may flip it; a plain bool would be a benign-looking
// data race that TSan rightly rejects.
std::atomic<bool> verboseFlag{true};

void
vreport(const char *tag, const char *fmt, va_list ap)
{
    std::fprintf(stderr, "%s: ", tag);
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
}
} // namespace

void
setVerbose(bool verbose)
{
    verboseFlag = verbose;
}

bool
verbose()
{
    return verboseFlag;
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    std::fprintf(stderr, "panic: %s:%d: ", file, line);
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "\n");
    std::abort();
}

void
fatalImpl(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
warnImpl(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("warn", fmt, ap);
    va_end(ap);
}

void
informImpl(const char *fmt, ...)
{
    if (!verboseFlag)
        return;
    va_list ap;
    va_start(ap, fmt);
    vreport("info", fmt, ap);
    va_end(ap);
}

} // namespace cni
