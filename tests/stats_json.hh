/**
 * @file
 * Helpers over a run's statsJson dump, shared by the tests that
 * compare armed and unarmed runs or reconcile an observer's totals
 * with the simulation's own counters.
 */

#ifndef TESTS_STATS_JSON_HH
#define TESTS_STATS_JSON_HH

#include <cstdint>
#include <cstdlib>
#include <string>

namespace gpummu {

/** Sum every counter in a statsJson dump whose name ends with
 *  @p suffix (e.g. ".ptw.walks" across cores). */
inline std::uint64_t
sumCountersEndingWith(const std::string &json, const std::string &suffix)
{
    const std::string needle = suffix + "\":";
    std::uint64_t sum = 0;
    for (std::string::size_type pos = json.find(needle);
         pos != std::string::npos;
         pos = json.find(needle, pos + needle.size())) {
        sum += std::strtoull(json.c_str() + pos + needle.size(),
                             nullptr, 10);
    }
    return sum;
}

/**
 * Strip the "trace.*" counters an armed TraceSink registers (its own
 * health stats) so the rest of the dump can be compared byte-for-byte
 * against an unarmed run. Counter names sort the trace.* block last
 * among counters, so a simple per-entry erase suffices.
 */
inline std::string
withoutTraceStats(std::string json)
{
    for (std::string::size_type pos;
         (pos = json.find("\"trace.")) != std::string::npos;) {
        auto end = json.find_first_of(",}", json.find(':', pos));
        // Eat the preceding comma (trace.* never sorts first).
        json.erase(json[pos - 1] == ',' ? pos - 1 : pos, end - pos + 1);
    }
    return json;
}

} // namespace gpummu

#endif // TESTS_STATS_JSON_HH
