#include "common.hh"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>

#include "core/sweep_journal.hh"
#include "core/taxonomy.hh"
#include "obs/export.hh"
#include "uarch/ooo_core.hh"
#include "util/thread_pool.hh"
#include "workload/benchmark_profile.hh"
#include "workload/workloads.hh"

namespace e2e {

namespace fs = std::filesystem;

std::size_t
benchThreads()
{
    const std::size_t n = std::thread::hardware_concurrency();
    return std::clamp<std::size_t>(n, 1, 4);
}

SpanRecorder::Scope::Scope(SpanRecorder &recorder, std::string name,
                           std::uint64_t parent)
    : recorder_(recorder.enabled_ ? &recorder : nullptr)
{
    if (!recorder_)
        return;
    span_.traceLo = 1;
    span_.spanId = recorder.nextId_.fetch_add(1);
    span_.parentId = parent;
    span_.name = std::move(name);
    span_.startUs = obs::SpanCollector::nowUs();
}

SpanRecorder::Scope::~Scope()
{
    if (!recorder_)
        return;
    span_.durUs = obs::SpanCollector::nowUs() - span_.startUs;
    recorder_->spans_.record(std::move(span_));
}

namespace {

using Interval = std::pair<double, double>;

/** Total length of the union of intervals. */
double
unionLength(std::vector<Interval> v)
{
    std::sort(v.begin(), v.end());
    double total = 0.0;
    double lo = 0.0, hi = 0.0;
    bool open = false;
    for (const Interval &iv : v) {
        if (!open || iv.first > hi) {
            if (open)
                total += hi - lo;
            lo = iv.first;
            hi = iv.second;
            open = true;
        } else {
            hi = std::max(hi, iv.second);
        }
    }
    if (open)
        total += hi - lo;
    return total;
}

/** Intervals of `spans` clipped to [lo, hi], empty ones dropped. */
std::vector<Interval>
clipped(const std::vector<const obs::Span *> &spans, double lo, double hi)
{
    std::vector<Interval> out;
    for (const obs::Span *s : spans) {
        const double a = std::max(lo, s->startUs);
        const double b = std::min(hi, s->startUs + s->durUs);
        if (b > a)
            out.push_back({a, b});
    }
    return out;
}

} // namespace

std::map<std::string, SpanTotals>
spanTotals(const std::vector<obs::Span> &spans)
{
    std::map<std::uint64_t, std::vector<const obs::Span *>> children;
    for (const obs::Span &s : spans)
        if (s.parentId != 0)
            children[s.parentId].push_back(&s);
    std::map<std::string, SpanTotals> out;
    for (const obs::Span &s : spans) {
        double covered = 0.0;
        if (auto it = children.find(s.spanId); it != children.end())
            covered = unionLength(
                clipped(it->second, s.startUs, s.startUs + s.durUs));
        SpanTotals &t = out[s.name];
        t.count += 1;
        t.totalS += s.durUs * 1e-6;
        t.selfS += std::max(0.0, s.durUs - covered) * 1e-6;
    }
    return out;
}

void
Result::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        correct = false;
        std::cerr << "e2ebench: check failed: " << what << "\n";
    }
}

void
Result::operations(std::uint64_t n, std::uint64_t bad,
                   const std::string &what)
{
    attempted += n;
    failed += bad;
    if (bad) {
        correct = false;
        std::cerr << "e2ebench: " << bad << " of " << n << " " << what
                  << " failed\n";
    }
}

namespace {

/** Entries of each probe thread's walk cycle: 256 KiB, L2-resident. */
constexpr std::size_t kWalkEntries = std::size_t{1} << 16;

/** One probe thread's fixed work; returns a value the compiler must
 *  keep. The parts are sized to take about equal time. */
double
probeKernel(const std::vector<std::uint32_t> &cycle, std::uint64_t seed)
{
    // Dense mat-vec power iteration on a row-stochastic 64x64 matrix
    // (floating point, vectorizable, stays bounded).
    constexpr std::size_t n = 64;
    std::vector<double> a(n * n), x(n, 1.0), y(n);
    std::uint64_t lcg = seed;
    for (std::size_t i = 0; i < n; ++i) {
        double row = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
            a[i * n + j] = 1.0 + static_cast<double>(lcg >> 54);
            row += a[i * n + j];
        }
        for (std::size_t j = 0; j < n; ++j)
            a[i * n + j] /= row;
    }
    for (int r = 0; r < 12000; ++r) {
        for (std::size_t i = 0; i < n; ++i) {
            double s = 0.0;
            for (std::size_t j = 0; j < n; ++j)
                s += a[i * n + j] * x[j];
            y[i] = s;
        }
        x.swap(y);
    }
    // Dependent loads around a single cycle (latency-bound).
    std::uint32_t at = static_cast<std::uint32_t>(seed % cycle.size());
    for (int r = 0; r < 6'000'000; ++r)
        at = cycle[at];
    // Data-dependent branches on a xorshift stream.
    std::uint64_t v = seed | 1, acc = 0;
    for (int r = 0; r < 6'000'000; ++r) {
        v ^= v << 13;
        v ^= v >> 7;
        v ^= v << 17;
        if (v & 1)
            acc += v >> 3;
        else
            acc ^= v << 1;
    }
    return x[0] + static_cast<double>(at) + static_cast<double>(acc & 0xff);
}

/** Per-thread walk cycles (Sattolo's algorithm: one cycle through
 *  every entry), built once outside any timing. */
const std::vector<std::vector<std::uint32_t>> &
probeCycles()
{
    static const std::vector<std::vector<std::uint32_t>> cycles = [] {
        std::vector<std::vector<std::uint32_t>> out(benchThreads());
        SeedRng rng(12345);
        for (std::vector<std::uint32_t> &c : out) {
            c.resize(kWalkEntries);
            for (std::size_t i = 0; i < c.size(); ++i)
                c[i] = static_cast<std::uint32_t>(i);
            for (std::size_t i = c.size() - 1; i > 0; --i)
                std::swap(c[i], c[rng.below(i)]);
        }
        return out;
    }();
    return cycles;
}

volatile double probeSink = 0.0;

} // namespace

HostSpeed::HostSpeed(std::size_t threads)
    : threads_(std::clamp<std::size_t>(threads, 1, benchThreads()))
{
}

void
HostSpeed::sample()
{
    const auto &cycles = probeCycles();
    std::vector<double> out(threads_, 0.0), took(threads_, 0.0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < threads_; ++t)
        threads.emplace_back([&, t] {
            const auto t0 = Clock::now();
            out[t] = probeKernel(cycles[t], 1 + t);
            took[t] = secondsSince(t0);
        });
    for (std::thread &t : threads)
        t.join();
    // Each thread's time is one sample: the slowest of the threads
    // would track the host's short bursts of contention, not its speed.
    samples_.insert(samples_.end(), took.begin(), took.end());
    for (double v : out)
        probeSink = probeSink + v;
}

double
HostSpeed::probeS() const
{
    return median(samples_);
}

double
HostSpeed::scale() const
{
    const double probe = probeS();
    return probe > 0.0 ? kReferenceProbeS / probe : 1.0;
}

void
emitEndToEnd(const std::vector<double> &setups,
             const std::vector<double> &walls, double jobsPerRound,
             const std::vector<double> &peaks, const HostSpeed &speed,
             Result &result)
{
    auto list = [](const char *name, const std::vector<double> &v) {
        std::ostringstream line;
        line << name;
        for (double x : v)
            line << " " << x;
        return line.str();
    };
    result.note(list("round_wall_s", walls));
    result.note(list("round_peak_rss_mb", peaks));
    const double setupS = median(setups);
    const double wallS = median(walls);
    const double jobsPerS = wallS > 0.0 ? jobsPerRound / wallS : 0.0;
    const double scale = speed.scale();
    std::ostringstream raw;
    raw << "host_probe_s " << speed.probeS() << " median of "
        << speed.samples().size() << " thread samples; raw setup_s "
        << setupS << " wall_s " << wallS << " jobs_per_s " << jobsPerS;
    result.note(raw.str());
    result.e2e("setup_s", setupS * scale, "s");
    result.e2e("wall_s", wallS * scale, "s");
    result.e2e("jobs_per_s", jobsPerS / scale, "1/s");
    result.e2e("peak_rss_mb", median(peaks), "MiB");
}

void
emitLayers(const LayerStats &s, Result &r)
{
    r.layer("uarch.ooo_cycles_per_s",
            s.oooSeconds > 0.0 ? s.oooCycles / s.oooSeconds : 0.0,
            "cycles/s");
    r.layer("uarch.ooo_cycles", s.oooCycles, "count");
    r.layer("power.trace_build_s", s.traceBuildS, "s");
    r.layer("power.trace_builds", s.traceBuilds, "count");
    r.layer("power.trace_load_s", s.traceLoadS, "s");
    r.layer("power.trace_loads", s.traceLoads, "count");
    r.layer("core.make_simulator_s", s.makeSimS, "s");
    r.layer("core.make_simulator_calls", s.makeSimCalls, "count");
    r.layer("core.gather_powers_s", s.gatherPowersS, "s");
    r.layer("thermal.step_thermal_s", s.stepThermalS, "s");
    r.layer("core.finish_step_s", s.finishStepS, "s");
    r.layer("core.finish_run_s", s.finishRunS, "s");
    r.layer("core.host_us_per_step",
            s.dtmSteps > 0.0 ? s.busyS * 1e6 / s.dtmSteps : 0.0, "us");
    r.layer("core.dtm_steps", s.dtmSteps, "count");
    r.layer("core.batch_pack_s", s.batchPackS, "s");
    r.layer("core.batch_gemm_s", s.batchGemmS, "s");
    r.layer("core.queue_wait_s", s.queueWaitS, "s");
    r.layer("core.result_save_s", s.resultSaveS, "s");
    r.layer("core.result_saves", s.resultSaves, "count");
    r.layer("core.journal_record_s", s.journalRecordS, "s");
    r.layer("core.journal_records", s.journalRecords, "count");
    r.layer("core.journal_bytes_written", s.journalBytes, "B");
    r.layer("svc.submit_ms", s.submitMs, "ms");
    r.layer("svc.result_fetch_ms", s.resultFetchMs, "ms");
    r.layer("svc.polls_per_job", s.pollsPerJob, "count");
    r.layer("svc.queue_wait_ms", s.queueWaitMs, "ms");
    r.layer("svc.run_ms", s.runMs, "ms");
    r.layer("svc.result_decode_ms", s.resultDecodeMs, "ms");
    r.layer("svc.cache_hit_ratio", s.cacheHitRatio, "ratio");
    r.layer("svc.results", s.svcJobs, "count");
    r.layer("svc.hit_latency_p50_ms", s.hitLatencyP50Ms, "ms");
    r.layer("svc.miss_latency_p50_ms", s.missLatencyP50Ms, "ms");
    r.layer("svc.job_latency_p50_ms", s.jobLatencyP50Ms, "ms");
    r.layer("svc.job_latency_p95_ms", s.jobLatencyP95Ms, "ms");
    r.layer("obs.trace_overhead_pct", s.traceOverheadPct, "%");
    r.layer("obs.spans", s.spans, "count");
}

std::vector<double>
runRounds(double seconds, std::size_t minRounds,
          const std::function<void(std::size_t)> &round, HostSpeed &speed)
{
    const auto start = Clock::now();
    std::vector<double> took, peaks;
    for (std::size_t k = 0;; ++k) {
        speed.sample();
        // Start each round from a trimmed heap, so its peak counts what
        // the round holds, not what earlier rounds left in the
        // allocator's free lists.
        malloc_trim(0);
        resetPeakRss();
        const auto t0 = Clock::now();
        round(k);
        took.push_back(secondsSince(t0));
        peaks.push_back(peakRssMb());
        if (k + 1 >= minRounds &&
            secondsSince(start) + median(took) > seconds) {
            speed.sample();
            return peaks;
        }
    }
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kib = 0.0;
            status >> kib;
            return kib / 1024.0;
        }
        status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    return 0.0;
}

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t hash)
{
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
freshDir(const std::string &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
}

void
copyDir(const std::string &from, const std::string &to)
{
    freshDir(to);
    for (const fs::directory_entry &e : fs::directory_iterator(from))
        if (e.is_regular_file())
            fs::copy_file(e.path(), fs::path(to) / e.path().filename());
}

std::map<std::string, double>
registryValues(const obs::Registry &reg)
{
    std::map<std::string, double> out;
    for (const auto &[name, v] : reg.counterValues())
        out[name] = static_cast<double>(v);
    for (const auto &[name, v] : reg.gaugeValues())
        out[name] = v;
    return out;
}

double
delta(const std::map<std::string, double> &before,
      const std::map<std::string, double> &after, const std::string &name)
{
    auto value = [&](const std::map<std::string, double> &m) {
        auto it = m.find(name);
        return it == m.end() ? 0.0 : it->second;
    };
    return value(after) - value(before);
}

std::vector<RunJob>
table8Jobs()
{
    std::vector<RunJob> jobs;
    for (const Workload &w : table4Workloads())
        for (const PolicyConfig &p : allPolicies())
            jobs.push_back({w, p, {}});
    return jobs;
}

std::vector<std::pair<std::size_t, RunJob>>
shuffledTable8Jobs(SeedRng &rng)
{
    const std::vector<RunJob> jobs = table8Jobs();
    std::vector<std::pair<std::size_t, RunJob>> out;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        out.push_back({i, jobs[i]});
    rng.shuffle(out);
    return out;
}

std::uint64_t
sweepDigest(const std::vector<RunMetrics> &canonical)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const RunMetrics &m : canonical) {
        std::ostringstream body;
        writeRunMetricsBody(body, m);
        hash = fnv1a(body.str(), hash);
    }
    return hash;
}

double
checkTable8(const std::vector<RunMetrics> &canonical, bool corrupt,
            Result &result)
{
    const std::size_t nw = table4Workloads().size();
    const std::vector<PolicyConfig> &policies = allPolicies();
    const std::size_t np = policies.size();
    result.check(canonical.size() == nw * np, "sweep returned 144 results");
    if (canonical.size() != nw * np)
        return 0.0;

    const std::uint64_t digest = sweepDigest(canonical);
    const std::uint64_t expected = kTable8Digest ^ (corrupt ? 1u : 0u);
    result.check(digest == expected,
                 "Table-8 body digest " + hex64(digest) + " != pinned " +
                     hex64(expected));

    std::uint64_t emergencies = 0;
    double hottest = 0.0;
    for (const RunMetrics &m : canonical) {
        emergencies += m.emergencies;
        hottest = std::max(hottest, m.peakTemp);
    }
    result.check(emergencies == 0,
                 std::to_string(emergencies) + " emergency samples");
    result.check(hottest < 84.2,
                 "hottest sample " + std::to_string(hottest) + " C");

    auto runsOf = [&](const PolicyConfig &policy) {
        std::vector<RunMetrics> runs;
        for (std::size_t p = 0; p < np; ++p)
            if (policies[p] == policy)
                for (std::size_t w = 0; w < nw; ++w)
                    runs.push_back(canonical[w * np + p]);
        return runs;
    };
    const std::vector<RunMetrics> baseline = runsOf(baselinePolicy());
    const double distDvfs = Experiment::relativeThroughput(
        runsOf({ThrottleMechanism::Dvfs, ControlScope::Distributed,
                MigrationKind::None}),
        baseline);
    result.check(distDvfs >= 2.4 && distDvfs <= 2.65,
                 "dist-DVFS / dist-stop-go = " + std::to_string(distDvfs));

    // The paper's Table 8, keyed by policy slug.
    const std::map<std::string, double> paper = {
        {"global-stopgo", 0.62},        {"global-dvfs", 2.1},
        {"dist-stopgo", 1.0},           {"dist-dvfs", 2.5},
        {"global-stopgo-counter", 1.2}, {"global-dvfs-counter", 2.2},
        {"dist-stopgo-counter", 2.0},   {"dist-dvfs-counter", 2.6},
        {"global-stopgo-sensor", 1.2},  {"global-dvfs-sensor", 2.1},
        {"dist-stopgo-sensor", 2.1},    {"dist-dvfs-sensor", 2.6},
    };
    double absErr = 0.0;
    std::size_t cells = 0;
    for (const PolicyConfig &policy : policies) {
        if (policy == baselinePolicy())
            continue;
        const double rel =
            Experiment::relativeThroughput(runsOf(policy), baseline);
        absErr += std::abs(rel - paper.at(policy.slug()));
        ++cells;
    }
    const double mae = absErr / static_cast<double>(cells);
    std::ostringstream line;
    line << "table8_mae " << mae << " ratio (11 cells vs the paper); "
         << "dist-DVFS/dist-stop-go " << distDvfs << "; hottest "
         << hottest << " C; emergencies " << emergencies
         << "; digest " << hex64(digest);
    result.note(line.str());
    return mae;
}

std::uint64_t
pinnedTraceDigest(const std::string &benchmark)
{
    // FNV-1a 64 of the trace-cache file bytes (PowerTrace::save) under
    // the default TraceBuilderConfig.
    static const std::map<std::string, std::uint64_t> pinned = {
        {"ammp", 0xcc30e956842477b0ULL},
        {"applu", 0x9c0083491113e4e0ULL},
        {"art", 0x99132706eebd6b7bULL},
        {"bzip2", 0xd7751cf8f85db16cULL},
        {"crafty", 0x6e4a9f105d8306e5ULL},
        {"eon", 0x17c660ebce7629f0ULL},
        {"facerec", 0xb6a67a1c8c099213ULL},
        {"fma3d", 0x0769500b76c5ef97ULL},
        {"gcc", 0x42f5487691240fb2ULL},
        {"gzip", 0x61841ee6eb4f22afULL},
        {"lucas", 0xbd26146aa0772b36ULL},
        {"mcf", 0xfe682c5677a09defULL},
        {"mesa", 0x29b7c8aa29d28c99ULL},
        {"mgrid", 0x2d95a1b648f3e7a3ULL},
        {"parser", 0x56433cb3f35fb9b9ULL},
        {"perlbmk", 0x314f3bc4d78ae39cULL},
        {"sixtrack", 0x7625cb269c55b361ULL},
        {"swim", 0xd9caa0c36278299bULL},
        {"twolf", 0x476efef6ab76f9adULL},
        {"vpr", 0x155b23ff1997fc59ULL},
    };
    auto it = pinned.find(benchmark);
    return it == pinned.end() ? 0 : it->second;
}

std::uint64_t
traceFileDigest(const std::string &dir, const std::string &benchmark)
{
    const std::string prefix = benchmark + "-";
    for (const fs::directory_entry &e : fs::directory_iterator(dir)) {
        const std::string file = e.path().filename().string();
        if (file.rfind(prefix, 0) != 0 || e.path().extension() != ".trace")
            continue;
        std::ifstream in(e.path(), std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        return fnv1a(bytes.str());
    }
    return 0;
}

void
probeMakeSimulator(Experiment &experiment, const std::vector<RunJob> &jobs,
                   SpanRecorder &spans, std::uint64_t parent,
                   LayerStats &layers)
{
    for (const RunJob &job : jobs) {
        std::unique_ptr<DtmSimulator> sim;
        const auto t0 = Clock::now();
        {
            SpanRecorder::Scope span(spans, "core.make_simulator", parent);
            sim = experiment.makeSimulator(job.workload, job.policy);
        }
        layers.makeSimS += secondsSince(t0);
        layers.makeSimCalls += 1;
    }
}

void
probeResultSaves(const std::vector<RunJob> &jobs,
                 const std::vector<RunMetrics> &results,
                 std::uint64_t configKey, const std::string &dir,
                 SpanRecorder &spans, std::uint64_t parent,
                 LayerStats &layers)
{
    freshDir(dir);
    const std::uint64_t bound = resultCacheMaxBytes();
    for (std::size_t i = 0; i < jobs.size() && i < results.size(); ++i) {
        const std::string path = dir + "/" + jobs[i].workload.name + "-" +
            jobs[i].policy.slug() + "-" + configKeyHex(configKey) +
            ".metrics";
        const auto t0 = Clock::now();
        {
            SpanRecorder::Scope span(spans, "core.result_save", parent);
            saveRunMetrics(path, results[i], configKey);
            enforceResultCacheBound(dir, bound);
        }
        layers.resultSaveS += secondsSince(t0);
        layers.resultSaves += 1;
    }
    fs::remove_all(dir);
}

void
probeOooCore(const std::vector<std::string> &names, SpanRecorder &spans,
             std::uint64_t parent, LayerStats &layers, Result &result)
{
    constexpr std::uint64_t kCycles = 1'000'000;
    const CoreConfig core = traceConfigAt({}).core;
    for (const std::string &name : names) {
        const BenchmarkProfile &profile = findProfile(name);
        OooCore ooo(core, profile.phases.front().params, profile.seed());
        ActivityCounts counts;
        const auto t0 = Clock::now();
        {
            SpanRecorder::Scope span(spans, "uarch.ooo_run", parent);
            ooo.run(kCycles, counts);
        }
        layers.oooSeconds += secondsSince(t0);
        layers.oooCycles += static_cast<double>(kCycles);
        result.check(ooo.totalCycles() == kCycles,
                     "OooCore probe ran " + name);
    }
}

void
probeTraceBuild(const std::string &name, const std::string &dir,
                SpanRecorder &spans, std::uint64_t parent,
                LayerStats &layers, Result &result)
{
    freshDir(dir);
    const TraceBuilder builder(traceConfigAt(dir));
    const auto t0 = Clock::now();
    {
        SpanRecorder::Scope span(spans, "power.trace_build", parent);
        builder.build(findProfile(name));
    }
    layers.traceBuildS += secondsSince(t0);
    layers.traceBuilds += 1;
    result.check(traceFileDigest(dir, name) == pinnedTraceDigest(name),
                 "probe trace of " + name + " matches its pinned digest");
    fs::remove_all(dir);
}

void
loadTraces(Experiment &experiment, const std::vector<std::string> &names,
           SpanRecorder &spans, std::uint64_t parent, LayerStats &layers)
{
    std::vector<double> seconds(names.size(), 0.0);
    parallelFor(names.size(), benchThreads(), [&](std::size_t i) {
        const auto t0 = Clock::now();
        SpanRecorder::Scope span(spans, "power.trace_load", parent);
        experiment.trace(names[i]);
        seconds[i] = secondsSince(t0);
    });
    for (double s : seconds)
        layers.traceLoadS += s;
    layers.traceLoads += static_cast<double>(names.size());
}

double
overheadPct(const std::vector<double> &untraced,
            const std::vector<double> &traced)
{
    const double base = median(untraced);
    if (base <= 0.0 || traced.empty())
        return 0.0;
    return (median(traced) - base) / base * 100.0;
}

std::vector<std::string>
table4Benchmarks()
{
    std::vector<std::string> out;
    for (const Workload &w : table4Workloads())
        for (const std::string &b : w.benchmarks)
            if (std::find(out.begin(), out.end(), b) == out.end())
                out.push_back(b);
    std::sort(out.begin(), out.end());
    return out;
}

TraceBuilderConfig
traceConfigAt(const std::string &cacheDir)
{
    TraceBuilderConfig config;
    config.cacheDir = cacheDir;
    return config;
}

void
finishTrace(const Options &opt, const SpanRecorder &spans,
            std::vector<obs::ProcessSpans> extraTracks, Result &result)
{
    const std::vector<obs::Span> all = spans.spans();
    std::vector<obs::ProcessSpans> tracks{{"e2ebench", all}};
    for (obs::ProcessSpans &t : extraTracks)
        tracks.push_back(std::move(t));
    if (!opt.traceOut.empty())
        result.check(obs::writeChromeTraceSpans(opt.traceOut, tracks),
                     "write Chrome trace " + opt.traceOut);
    for (const auto &[name, t] : spanTotals(all)) {
        std::ostringstream line;
        line << "self_time " << name << " count " << t.count << " total_s "
             << t.totalS << " self_s " << t.selfS;
        result.note(line.str());
    }
}

} // namespace e2e
