/**
 * @file
 * service_mixed: an in-process coolcmpd (svc::SweepServiceDaemon) on
 * loopback with 2 sweep workers, warm traces and an empty result
 * directory, driven by two closed-loop clients over persistent
 * connections (submit -> poll -> fetch, like tools/loadgen).
 *
 * The job sequence holds each Table-8 (workload, policy) pair once as a
 * fresh single-job sweep, plus repeats of earlier jobs of the same
 * client (28% of all jobs), shuffled by the seed: cache reads beside
 * compute-and-write, with p50 and p95 inside the cache-miss mode.
 */

#include <chrono>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "core/taxonomy.hh"
#include "svc/codec.hh"
#include "svc/daemon.hh"
#include "svc/http.hh"
#include "svc/json.hh"
#include "workload/workloads.hh"

namespace e2e {

namespace {

constexpr std::size_t kClients = 2;
constexpr std::size_t kWorkers = 2;
/** Repeats among the 144 + 56 = 200 jobs: 10 samples lie beyond p95. */
constexpr std::size_t kRepeats = 56;
/** Jobs re-run in-process and compared body-for-body. */
constexpr std::size_t kDirectSample = 8;
constexpr int kSetups = 5;
constexpr double kPollBudgetS = 120.0;

struct Item
{
    std::size_t job; ///< canonical Table-8 index
    bool repeat;
};

/** What one client saw of one job. */
struct Sample
{
    std::size_t job = 0;
    bool repeat = false;
    bool ok = false;
    bool fromCache = false;
    std::uint64_t refused = 0; ///< 429 answers before admission
    int polls = 0;
    double latencyMs = 0.0; ///< submit -> terminal state
    double submitMs = 0.0;
    double fetchMs = 0.0;
    double decodeMs = 0.0;
    double waitMs = 0.0; ///< daemon-reported queue wait
    double runMs = 0.0;  ///< daemon-reported run time
    std::string body;    ///< the v4 metrics body
    RunMetrics metrics;
};

double
msSince(Clock::time_point t0)
{
    return secondsSince(t0) * 1e3;
}

/** Per-client closed-loop sequences: the shuffled fresh jobs dealt
 *  round-robin, then each repeat placed after its original. */
std::vector<std::vector<Item>>
buildSequences(SeedRng &rng, std::size_t njobs)
{
    std::vector<std::size_t> order(njobs);
    for (std::size_t i = 0; i < njobs; ++i)
        order[i] = i;
    rng.shuffle(order);
    std::vector<std::vector<Item>> seqs(kClients);
    for (std::size_t i = 0; i < njobs; ++i)
        seqs[i % kClients].push_back({order[i], false});
    for (std::size_t r = 0; r < kRepeats; ++r) {
        std::vector<Item> &seq = seqs[r % kClients];
        std::size_t pos = 0;
        do {
            pos = rng.below(seq.size());
        } while (seq[pos].repeat);
        const std::size_t at = pos + 1 + rng.below(seq.size() - pos);
        seq.insert(seq.begin() + static_cast<std::ptrdiff_t>(at),
                   Item{seq[pos].job, true});
    }
    return seqs;
}

std::string
sweepBody(const std::string &client, RunRequest request)
{
    svc::WireSweep wire;
    wire.client = client;
    wire.request = std::move(request);
    return svc::jsonToString(svc::sweepRequestToJson(wire));
}

/** Warm-up sweep: custom mixes covering every Table-4 benchmark, so a
 *  worker loads all warm traces; custom names cache apart from the
 *  timed Table-4 jobs. */
std::string
warmupBody(const std::string &client)
{
    const std::vector<std::string> names = table4Benchmarks();
    RunRequest request;
    for (std::size_t i = 0; i < names.size(); i += 4) {
        Workload mix{"warmup", {}};
        for (std::size_t j = i; j < i + 4 && j < names.size(); ++j)
            mix.benchmarks.push_back(names[j]);
        request.add(mix, baselinePolicy());
    }
    return sweepBody(client, request.threads(kWorkers));
}

/** submit -> poll -> fetch -> decode of one sweep. */
void
driveJob(svc::HttpClient &http, const std::string &body, Sample &s,
         SpanRecorder &rec, std::uint64_t parent)
{
    SpanRecorder::Scope job(rec, "svc.job", parent);
    auto fail = [&](const std::string &what) {
        std::cerr << "e2ebench: service job " << s.job << ": " << what
                  << "\n";
    };
    const auto t0 = Clock::now();
    svc::HttpResponse response;
    std::string id;
    for (;;) {
        const auto a = Clock::now();
        bool sent = false;
        {
            SpanRecorder::Scope span(rec, "svc.submit", job.id());
            sent = http.request("POST", "/v1/sweeps", body, response);
        }
        s.submitMs += msSince(a);
        if (!sent)
            return fail("transport failure on submit");
        if (response.status == 429) {
            ++s.refused;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            continue;
        }
        svc::JsonValue parsed;
        if (response.status != 202 ||
            !svc::parseJson(response.body, parsed).empty() ||
            !parsed.find("job"))
            return fail("submit answered HTTP " +
                        std::to_string(response.status) + " " +
                        response.body);
        id = parsed.find("job")->asString();
        break;
    }

    const std::string path = "/v1/jobs/" + id;
    for (;;) {
        if (secondsSince(t0) > kPollBudgetS)
            return fail("poll budget exhausted");
        bool sent = false;
        {
            SpanRecorder::Scope span(rec, "svc.poll", job.id());
            sent = http.request("GET", path, {}, response);
        }
        ++s.polls;
        svc::JsonValue parsed;
        if (!sent || response.status != 200 ||
            !svc::parseJson(response.body, parsed).empty() ||
            !parsed.find("state"))
            return fail("bad status answer");
        const std::string &state = parsed.find("state")->asString();
        if (state == "failed")
            return fail("job failed");
        if (state == "done") {
            if (const svc::JsonValue *w = parsed.find("wait_s"))
                s.waitMs = w->asDouble() * 1e3;
            if (const svc::JsonValue *r = parsed.find("run_s"))
                s.runMs = r->asDouble() * 1e3;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    s.latencyMs = msSince(t0);

    const auto f0 = Clock::now();
    bool fetched = false;
    {
        SpanRecorder::Scope span(rec, "svc.result_fetch", job.id());
        fetched = http.request("GET", path + "/result", {}, response);
    }
    s.fetchMs = msSince(f0);
    if (!fetched || response.status != 200)
        return fail("cannot fetch result");

    const auto d0 = Clock::now();
    {
        SpanRecorder::Scope span(rec, "svc.result_decode", job.id());
        svc::JsonValue parsed;
        const svc::JsonValue *results = nullptr;
        if (svc::parseJson(response.body, parsed).empty())
            results = parsed.find("results");
        if (!results || results->items().empty())
            return fail("unparseable result");
        // Every result must decode; the first is the one a single-job
        // sweep is about.
        for (const svc::JsonValue &entry : results->items()) {
            const svc::JsonValue *metrics = entry.find("metrics_v4");
            RunMetrics decoded;
            if (!metrics ||
                !svc::runMetricsFromBody(metrics->asString(), decoded))
                return fail("undecodable metrics body");
            if (s.body.empty()) {
                s.body = metrics->asString();
                s.metrics = decoded;
                if (const svc::JsonValue *c = entry.find("from_cache"))
                    s.fromCache = c->asBool();
            }
        }
    }
    s.decodeMs = msSince(d0);
    s.ok = true;
}

/** One daemon lifetime: setup (start + warm-up) and, when asked, the
 *  timed closed-loop sequence. */
struct Pass
{
    double setupS = 0.0;
    double wallS = 0.0;
    std::vector<Sample> samples;
    std::vector<obs::Span> daemonSpans;
    bool started = false;
    bool warmedUp = true;
    bool traced = false;
};

Pass
runPass(const Options &opt, const std::string &traceDir, int index,
        const std::vector<std::vector<Item>> *sequences,
        const std::vector<std::vector<std::string>> &bodies,
        SpanRecorder &rec)
{
    Pass pass;
    const std::string resultDir =
        opt.workDir + "/svc-results-" + std::to_string(index);
    freshDir(resultDir);

    const auto t0 = Clock::now();
    std::unique_ptr<svc::SweepServiceDaemon> daemon;
    std::vector<std::unique_ptr<svc::HttpClient>> clients;
    {
        SpanRecorder::Scope setup(rec, "bench.setup", 0);
        svc::SweepServiceDaemon::Options options;
        options.workers = kWorkers;
        options.httpThreads = kClients;
        options.resultDir = resultDir;
        daemon = std::make_unique<svc::SweepServiceDaemon>(
            options, DtmConfig{}, traceConfigAt(traceDir));
        pass.started = daemon->start();
        if (!pass.started)
            return pass;
        for (std::size_t c = 0; c < kClients; ++c)
            clients.push_back(std::make_unique<svc::HttpClient>(
                "127.0.0.1", daemon->port()));
        // Concurrent warm-up sweeps, one per client, so both workers
        // load every warm trace before the timed sequence.
        std::vector<Sample> warm(kClients);
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < kClients; ++c)
            threads.emplace_back([&, c] {
                SpanRecorder off(false);
                driveJob(*clients[c],
                         warmupBody("tenant-" + std::to_string(c)),
                         warm[c], off, 0);
            });
        for (std::thread &t : threads)
            t.join();
        for (const Sample &w : warm)
            pass.warmedUp = pass.warmedUp && w.ok;
    }
    pass.setupS = secondsSince(t0);

    if (sequences) {
        std::vector<std::vector<Sample>> perClient(kClients);
        const auto w0 = Clock::now();
        {
            SpanRecorder::Scope timed(rec, "bench.timed", 0);
            std::vector<std::thread> threads;
            for (std::size_t c = 0; c < kClients; ++c)
                threads.emplace_back([&, c] {
                    for (const Item &item : (*sequences)[c]) {
                        Sample s;
                        s.job = item.job;
                        s.repeat = item.repeat;
                        driveJob(*clients[c], bodies[c][item.job], s, rec,
                                 timed.id());
                        perClient[c].push_back(std::move(s));
                    }
                });
            for (std::thread &t : threads)
                t.join();
        }
        pass.wallS = secondsSince(w0);
        for (auto &samples : perClient)
            for (Sample &s : samples)
                pass.samples.push_back(std::move(s));
    }
    pass.daemonSpans = daemon->spanCollector().snapshot();
    clients.clear();
    daemon->stop();
    std::filesystem::remove_all(resultDir);
    return pass;
}

/** Correctness of one timed pass; returns the fresh results in
 *  canonical order. */
std::vector<RunMetrics>
checkPass(const Options &opt, const Pass &pass, Result &result)
{
    const std::vector<RunJob> jobs = table8Jobs();
    std::uint64_t bad = 0;
    for (const Sample &s : pass.samples)
        bad += (s.ok ? 0 : 1) + s.refused;
    result.operations(pass.samples.size(), bad, "service jobs");

    std::vector<RunMetrics> canonical(jobs.size());
    std::vector<const Sample *> fresh(jobs.size(), nullptr);
    for (const Sample &s : pass.samples)
        if (s.ok && !s.repeat) {
            canonical[s.job] = s.metrics;
            fresh[s.job] = &s;
        }
    bool bodiesRoundTrip = true;
    for (const Sample &s : pass.samples)
        if (s.ok)
            bodiesRoundTrip = bodiesRoundTrip &&
                s.body == svc::runMetricsToBody(s.metrics);
    result.check(bodiesRoundTrip, "wire bodies decode bit-exactly");
    bool repeatsEqual = true;
    for (const Sample &s : pass.samples)
        if (s.ok && s.repeat)
            repeatsEqual = repeatsEqual && fresh[s.job] &&
                fresh[s.job]->body == s.body;
    result.check(repeatsEqual, "repeated jobs return identical bodies");
    checkTable8(canonical, opt.inject == "digest", result);
    return canonical;
}

} // namespace

void
runService(const Options &opt, Result &result)
{
    SeedRng rng(opt.seed);
    const std::vector<RunJob> jobs = table8Jobs();
    const auto sequences = buildSequences(rng, jobs.size());
    std::vector<std::vector<std::string>> bodies(kClients);
    for (std::size_t c = 0; c < kClients; ++c)
        for (const RunJob &job : jobs)
            bodies[c].push_back(sweepBody(
                "tenant-" + std::to_string(c),
                RunRequest().add(job.workload, job.policy).threads(1)));

    const std::string traceDir = opt.workDir + "/traces";
    copyDir(opt.warmTraces, traceDir);

    SpanRecorder spans(opt.traced);
    SpanRecorder untracedSpans(false);
    std::vector<double> setups, walls, tracedWalls;
    std::vector<Pass> timedPasses;
    int index = 0;

    auto record = [&](Pass pass, bool timed) {
        result.check(pass.started, "daemon started");
        result.check(pass.warmedUp, "warm-up sweeps completed");
        setups.push_back(pass.setupS);
        if (timed)
            timedPasses.push_back(std::move(pass));
    };
    HostSpeed speed(kWorkers);
    if (!opt.traced)
        for (int i = 1; i < kSetups; ++i) {
            speed.sample();
            record(runPass(opt, traceDir, index++, nullptr, bodies,
                           untracedSpans),
                   false);
        }
    const std::vector<double> peaks = runRounds(
        opt.seconds, opt.traced ? 2 : 1,
        [&](std::size_t k) {
            const bool traced = opt.traced && k % 2 == 1;
            Pass pass = runPass(opt, traceDir, index++, &sequences, bodies,
                                traced ? spans : untracedSpans);
            pass.traced = traced;
            record(std::move(pass), true);
            (traced ? tracedWalls : walls)
                .push_back(timedPasses.back().wallS);
        },
        speed);

    std::vector<RunMetrics> canonical;
    for (const Pass &pass : timedPasses)
        canonical = checkPass(opt, pass, result);

    // Direct in-process runs of a seed-chosen sample of jobs must match
    // the service's bodies byte for byte.
    Experiment direct({}, traceConfigAt(traceDir));
    direct.setRunReportPath({});
    std::vector<std::size_t> sample(jobs.size());
    for (std::size_t i = 0; i < sample.size(); ++i)
        sample[i] = i;
    rng.shuffle(sample);
    sample.resize(kDirectSample);
    RunRequest directRequest;
    for (std::size_t i : sample)
        directRequest.add(jobs[i].workload, jobs[i].policy);
    const std::vector<RunMetrics> directResults =
        direct.run(directRequest.threads(benchThreads()));
    for (std::size_t k = 0; k < sample.size(); ++k)
        result.check(svc::runMetricsToBody(directResults[k]) ==
                         svc::runMetricsToBody(canonical[sample[k]]),
                     "service result of job " +
                         std::to_string(sample[k]) +
                         " equals the direct in-process run");

    // The newest pass of the kind this run reports (traced or not).
    const Pass *reported = &timedPasses.back();
    for (const Pass &pass : timedPasses)
        if (pass.traced == opt.traced)
            reported = &pass;
    const Pass &last = *reported;
    std::vector<double> latency, hit, miss, submit, fetch, decode, wait,
        run;
    double polls = 0.0, hits = 0.0;
    for (const Sample &s : last.samples) {
        if (!s.ok)
            continue;
        latency.push_back(s.latencyMs);
        (s.fromCache ? hit : miss).push_back(s.latencyMs);
        submit.push_back(s.submitMs);
        fetch.push_back(s.fetchMs);
        decode.push_back(s.decodeMs);
        wait.push_back(s.waitMs);
        run.push_back(s.runMs);
        polls += s.polls;
        hits += s.fromCache ? 1.0 : 0.0;
    }
    const double n = static_cast<double>(latency.size());
    std::ostringstream line;
    line << "job_latency_p50_ms " << median(latency)
         << " job_latency_p95_ms " << percentile(latency, 0.95)
         << " over " << latency.size() << " jobs (" << hits
         << " cache hits)";
    result.note(line.str());

    if (!opt.traced) {
        emitEndToEnd(setups, walls, n, peaks, speed, result);
        return;
    }

    LayerStats layers;
    layers.svcJobs = n;
    layers.submitMs = median(submit);
    layers.resultFetchMs = median(fetch);
    layers.pollsPerJob = n > 0.0 ? polls / n : 0.0;
    layers.queueWaitMs = median(wait);
    layers.runMs = median(run);
    layers.resultDecodeMs = median(decode);
    layers.cacheHitRatio = n > 0.0 ? hits / n : 0.0;
    layers.hitLatencyP50Ms = median(hit);
    layers.missLatencyP50Ms = median(miss);
    layers.jobLatencyP50Ms = median(latency);
    layers.jobLatencyP95Ms = percentile(latency, 0.95);
    {
        // The engine layers behind the daemon, probed in-process: warm
        // trace loads, per-job simulator setup, result-cache writes.
        SpanRecorder::Scope probe(spans, "bench.probe", 0);
        Experiment engine({}, traceConfigAt(traceDir));
        loadTraces(engine, table4Benchmarks(), spans, probe.id(), layers);
        probeMakeSimulator(engine, jobs, spans, probe.id(), layers);
        probeResultSaves(jobs, canonical, engine.configKey(),
                         opt.workDir + "/probe-results", spans,
                         probe.id(), layers);
    }
    const std::vector<obs::Span> all = spans.spans();
    layers.traceOverheadPct = overheadPct(walls, tracedWalls);
    layers.spans = static_cast<double>(all.size());
    emitLayers(layers, result);
    finishTrace(opt, spans, {{"coolcmpd", last.daemonSpans}}, result);
}

} // namespace e2e
