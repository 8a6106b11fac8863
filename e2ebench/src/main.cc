/**
 * @file
 * e2ebench — the end-to-end benchmark binary. run.py builds it and
 * calls it once per measured run:
 *
 *   e2ebench --workload table8_batched|service_mixed
 *            --seed N --seconds S --trace 0|1
 *            --work-dir DIR --warm-traces DIR [--trace-out FILE]
 *            [--inject digest|job]
 *   e2ebench --prepare-traces DIR
 *
 * Human-readable lines come first; the last line of standard output is
 * one JSON object {"correct", "attempted", "failed", "metrics"} with
 * the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
 * The exit status is nonzero when any operation or check failed.
 */

#include <cstdlib>
#include <exception>
#include <iostream>
#include <set>
#include <string>
#include <thread>

#include "common.hh"
#include "svc/build_info.hh"
#include "svc/json.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

extern char **environ;

namespace e2e {

int
prepareTraces(const std::string &dir)
{
    freshDir(dir);
    Experiment experiment({}, traceConfigAt(dir));
    const std::vector<std::string> names = table4Benchmarks();
    std::vector<double> seconds(names.size(), 0.0);
    parallelFor(names.size(), benchThreads(), [&](std::size_t i) {
        const auto t0 = Clock::now();
        experiment.trace(names[i]);
        seconds[i] = secondsSince(t0);
    });
    // Digest drift is reported, not fatal here: the workloads' own
    // checks fail the runs that depend on it.
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::uint64_t digest = traceFileDigest(dir, names[i]);
        std::cout << "trace " << names[i] << " " << seconds[i] << " s "
                  << hex64(digest)
                  << (digest == pinnedTraceDigest(names[i]) ? ""
                                                            : " UNPINNED")
                  << "\n";
    }
    return 0;
}

} // namespace e2e

namespace {

using namespace e2e;

/**
 * Clear every COOLCMP_* variable, then pin the ones the engine reads
 * for sizing and logging, so the caller's environment cannot change
 * what runs (batch width, reduced-order solver, fault plans, cache
 * bounds, run reports, live endpoints...).
 */
void
hermeticEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        const std::string entry = *e;
        if (entry.rfind("COOLCMP_", 0) == 0)
            names.push_back(entry.substr(0, entry.find('=')));
    }
    for (const std::string &name : names)
        unsetenv(name.c_str());
    setenv("COOLCMP_THREADS", std::to_string(benchThreads()).c_str(), 1);
    setenv("COOLCMP_BATCH", "8", 1);
    setenv("COOLCMP_LOG", "warn", 1);
}

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " --workload NAME --seed N --seconds S --trace 0|1\n"
                 "       --work-dir DIR --warm-traces DIR "
                 "[--trace-out FILE] [--inject digest|job]\n"
              << "       " << argv0 << " --prepare-traces DIR\n";
    std::exit(2);
}

svc::JsonValue
metricsJson(const std::vector<std::pair<std::string, Metric>> &metrics)
{
    svc::JsonValue out = svc::JsonValue::object();
    for (const auto &[name, m] : metrics) {
        svc::JsonValue entry = svc::JsonValue::object();
        entry.set("value", m.value);
        entry.set("unit", m.unit);
        out.set(name, std::move(entry));
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    hermeticEnvironment();
    setDefaultLogLevel(LogLevel::Warn);

    Options opt;
    std::string prepareDir;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(argv[0]);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                opt.workload = value;
                haveWorkload = true;
            } else if (arg == "--seed") {
                opt.seed = std::stoull(value);
                haveSeed = true;
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(value);
                haveSeconds = true;
            } else if (arg == "--trace") {
                if (value != "0" && value != "1")
                    usage(argv[0]);
                opt.traced = value == "1";
                haveTrace = true;
            } else if (arg == "--work-dir") {
                opt.workDir = value;
            } else if (arg == "--warm-traces") {
                opt.warmTraces = value;
            } else if (arg == "--trace-out") {
                opt.traceOut = value;
            } else if (arg == "--inject") {
                opt.inject = value;
            } else if (arg == "--prepare-traces") {
                prepareDir = value;
            } else {
                usage(argv[0]);
            }
        } catch (const std::exception &) {
            usage(argv[0]);
        }
    }
    if (!prepareDir.empty())
        return prepareTraces(prepareDir);

    const std::set<std::string> workloads = {"table8_batched",
                                             "service_mixed"};
    // An injected failed job is a supervised sweep job whose deadline
    // cannot be met; only table8_batched runs one.
    const bool injectOk = opt.inject.empty() || opt.inject == "digest" ||
        (opt.inject == "job" && opt.workload == "table8_batched");
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace ||
        !workloads.count(opt.workload) || opt.workDir.empty() ||
        opt.warmTraces.empty() || !(opt.seconds > 0.0) || !injectOk)
        usage(argv[0]);

    // Attribution: numbers from different hosts or builds are never
    // comparable, so every result carries where it came from.
    const svc::BuildInfo build = svc::buildInfo();
    svc::JsonValue host = svc::JsonValue::object();
    host.set("num_cpus", std::thread::hardware_concurrency());
    host.set("bench_threads", benchThreads());
    host.set("compiler", build.compiler);
    host.set("simd", build.simd);
    host.set("build_type", E2E_BUILD_TYPE);
    host.set("version", build.version);
    host.set("workload", opt.workload);
    host.set("seed", opt.seed);
    host.set("seconds", opt.seconds);
    host.set("trace", opt.traced);
    std::cout << "host " << svc::jsonToString(host) << std::endl;

    freshDir(opt.workDir);
    Result result;
    try {
        if (opt.workload == "table8_batched")
            runTable8(opt, result);
        else
            runService(opt, result);
    } catch (const std::exception &e) {
        result.check(false, std::string("workload threw: ") + e.what());
    }

    const auto &metrics = opt.traced ? result.perLayer : result.endToEnd;
    std::set<std::string> seen;
    for (const std::string &note : result.notes)
        if (seen.insert(note).second)
            std::cout << note << "\n";
    for (const auto &[name, m] : metrics)
        std::cout << "metric " << name << " " << m.value << " " << m.unit
                  << "\n";
    const double errorRate = result.attempted
        ? static_cast<double>(result.failed) /
            static_cast<double>(result.attempted)
        : 1.0;
    std::cout << "error_rate " << errorRate << " ratio (" << result.failed
              << " failed of " << result.attempted << " attempted)\n";

    const bool ok = result.correct && result.failed == 0 &&
        result.attempted > 0 && !metrics.empty();
    svc::JsonValue out = svc::JsonValue::object();
    out.set("correct", ok);
    out.set("attempted", result.attempted);
    out.set("failed", result.failed);
    out.set("metrics", metricsJson(metrics));
    std::cout << svc::jsonToString(out) << std::endl;
    return ok ? 0 : 1;
}
