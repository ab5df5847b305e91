/**
 * @file
 * The paper's software contribution running on real hardware: an SPSC
 * cachable queue (lazy pointers + message valid bits + sense reverse)
 * between two std::threads, with a throughput measurement and the
 * lazy-pointer statistic.
 *
 *   $ ./cq_threads [items] [capacity]
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "core/cq.hpp"
#include "sim/cli.hpp"
#include "sim/json.hpp"

using namespace cni;

int
main(int argc, char **argv)
{
    const cli::Options opts =
        cli::parse(argc, argv, "[items] [capacity]");
    const std::uint64_t items =
        !opts.positional.empty()
            ? std::strtoull(opts.positional[0].c_str(), nullptr, 10)
            : 2'000'000;
    const std::size_t capacity =
        opts.positional.size() > 1
            ? std::strtoull(opts.positional[1].c_str(), nullptr, 10)
            : 1024;

    cq::SpscCachableQueue<std::uint64_t> queue(capacity);
    std::printf("SPSC cachable queue: %llu items through %zu slots\n",
                static_cast<unsigned long long>(items), queue.capacity());

    const auto start = std::chrono::steady_clock::now();

    std::thread producer([&] {
        for (std::uint64_t i = 0; i < items;) {
            if (queue.tryEnqueue(i))
                ++i;
            else
                std::this_thread::yield();
        }
    });

    std::uint64_t sum = 0;
    for (std::uint64_t expected = 0; expected < items;) {
        std::uint64_t v;
        if (queue.tryDequeue(v)) {
            if (v != expected) {
                std::fprintf(stderr, "order violation: %llu != %llu\n",
                             static_cast<unsigned long long>(v),
                             static_cast<unsigned long long>(expected));
                return 1;
            }
            sum += v;
            ++expected;
        } else {
            std::this_thread::yield();
        }
    }
    producer.join();

    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    std::printf("checksum %llu (expected %llu)\n",
                static_cast<unsigned long long>(sum),
                static_cast<unsigned long long>(items * (items - 1) / 2));
    std::printf("throughput: %.1f M items/s\n", items / secs / 1e6);
    std::printf("lazy pointers: %llu shared-head reads total "
                "(%.2f per pass of %zu slots)\n",
                static_cast<unsigned long long>(queue.shadowRefreshes()),
                double(queue.shadowRefreshes()) /
                    (double(items) / queue.capacity()),
                queue.capacity());

    // Host benchmark: no simulated machine, so report its own numbers.
    JsonWriter w;
    w.beginObject();
    w.key("items").value(items);
    w.key("capacity").value(std::uint64_t(queue.capacity()));
    w.key("throughput_items_per_sec").value(items / secs);
    w.key("shadow_refreshes").value(queue.shadowRefreshes());
    w.endObject();
    opts.emitReports({{"cq_threads", w.str()}});
    return 0;
}
