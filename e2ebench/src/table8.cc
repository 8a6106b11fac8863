/**
 * @file
 * table8_batched: the paper's 144-run Table-8 sweep through
 * Experiment::run on the default batched path, with warm traces and an
 * empty result-cache directory per round, so every run computes and
 * writes its cache entry. Simulator setup, gather_powers, the batched
 * GEMM, finish_step and result-cache writes do the work; trace
 * generation does none.
 *
 * Every round checks one pinned digest over the 144 v4 metrics bodies.
 * The traced run also sends the same jobs once through the supervised
 * sequential path (.journal(...) plus a .timeout(...) that never fires)
 * and checks the same digest, so the two dispatch paths stay
 * bit-identical.
 */

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "core/sweep_journal.hh"
#include "core/taxonomy.hh"
#include "workload/workloads.hh"

namespace e2e {

namespace {

/** Per-job deadline of the supervised sweep: far beyond any run. */
constexpr double kGenerousTimeoutS = 600.0;

/** Setups per untraced run, so setup_s is a median. */
constexpr int kSetups = 7;

std::size_t
countFiles(const std::string &dir, const std::string &extension)
{
    std::size_t n = 0;
    std::error_code ec;
    for (std::filesystem::directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec))
        if (it->path().extension() == extension)
            ++n;
    return n;
}

} // namespace

void
runTable8(const Options &opt, Result &result)
{
    namespace fs = std::filesystem;
    SeedRng rng(opt.seed);
    const std::size_t threads = benchThreads();
    const auto jobs = shuffledTable8Jobs(rng);
    std::vector<RunJob> seedOrder;
    for (const auto &[index, job] : jobs)
        seedOrder.push_back(job);

    SpanRecorder spans(opt.traced);
    SpanRecorder untracedSpans(false);
    LayerStats layers;
    obs::Registry registry;

    const std::string traceDir = opt.workDir + "/traces";
    copyDir(opt.warmTraces, traceDir);

    // Setup: build the Experiment, load every warm trace from disk and
    // warm up (thread pool, discretization, allocator) with a short
    // sweep whose results nothing keeps.
    std::vector<double> setups;
    auto setup = [&](bool traced) {
        const auto t0 = Clock::now();
        SpanRecorder &rec = traced ? spans : untracedSpans;
        SpanRecorder::Scope span(rec, "bench.setup", 0);
        DtmConfig config;
        config.registry = traced ? &registry : nullptr;
        auto experiment =
            std::make_unique<Experiment>(config, traceConfigAt(traceDir));
        experiment->setRunReportPath({});
        LayerStats loads;
        loadTraces(*experiment, table4Benchmarks(), rec, span.id(), loads);
        if (traced) {
            layers.traceLoadS += loads.traceLoadS;
            layers.traceLoads += loads.traceLoads;
        }
        RunRequest warm;
        for (std::size_t i = 0; i < threads; ++i)
            warm.add(table4Workloads()[i], baselinePolicy());
        experiment->run(warm.threads(threads));
        setups.push_back(secondsSince(t0));
        return experiment;
    };

    HostSpeed speed(threads);
    std::unique_ptr<Experiment> plain;
    std::unique_ptr<Experiment> traced;
    if (opt.traced) {
        plain = setup(false);
        traced = setup(true);
    } else {
        for (int i = 0; i < kSetups; ++i) {
            speed.sample();
            plain = setup(false);
        }
    }

    std::vector<double> walls, tracedWalls;
    std::vector<RunMetrics> canonical(jobs.size());
    std::map<std::string, double> before, after;

    auto round = [&](std::size_t k, bool tracedRound) {
        Experiment &experiment = tracedRound ? *traced : *plain;
        SpanRecorder &rec = tracedRound ? spans : untracedSpans;
        const std::string resultDir =
            opt.workDir + "/results-" + std::to_string(k);
        freshDir(resultDir);
        RunRequest request(seedOrder);
        request.threads(threads).cacheResults(resultDir);

        if (tracedRound)
            before = registryValues(registry);
        const auto t0 = Clock::now();
        std::vector<RunMetrics> out;
        {
            SpanRecorder::Scope timed(rec, "bench.timed", 0);
            SpanRecorder::Scope sweep(rec, "core.sweep", timed.id());
            out = experiment.run(request);
        }
        (tracedRound ? tracedWalls : walls).push_back(secondsSince(t0));
        if (tracedRound)
            after = registryValues(registry);

        const obs::RunReport &report = experiment.lastRunReport();
        result.operations(jobs.size(), report.failedJobs, "sweep jobs");
        result.check(report.cachedJobs == 0 && report.resumedJobs == 0,
                     "fresh sweep served nothing from a cache");
        result.check(countFiles(resultDir, ".metrics") == jobs.size(),
                     "result cache holds every job");
        for (std::size_t i = 0; i < jobs.size() && i < out.size(); ++i)
            canonical[jobs[i].first] = out[i];
        checkTable8(canonical, opt.inject == "digest", result);
        fs::remove_all(resultDir);
    };

    const std::vector<double> peaks = runRounds(
        opt.seconds, opt.traced ? 2 : 1,
        [&](std::size_t k) { round(k, opt.traced && k % 2 == 1); }, speed);

    if (opt.inject == "job") {
        // One extra supervised job whose deadline cannot be met: the
        // engine abandons it and reports it failed.
        RunRequest doomed;
        doomed.add(table4Workloads()[0], baselinePolicy()).timeout(1e-9);
        plain->run(doomed);
        result.operations(1, plain->lastRunReport().failedJobs,
                          "injected jobs");
    }

    if (!opt.traced) {
        emitEndToEnd(setups, walls, static_cast<double>(jobs.size()), peaks,
                     speed, result);
        return;
    }

    // The simulator's own phase profile (the registry attached to the
    // traced Experiment), as deltas around the traced round. In the
    // batched path BatchRunner books the shared GEMM as step_thermal.
    auto phase = [&](const char *name, const char *what) {
        return delta(before, after,
                     std::string("phase.") + name + "." + what);
    };
    layers.gatherPowersS = phase("gather_powers", "seconds");
    layers.stepThermalS = phase("step_thermal", "seconds");
    layers.finishStepS = phase("finish_step", "seconds");
    layers.finishRunS = phase("finish_run", "seconds");
    layers.dtmSteps = phase("gather_powers", "calls");
    layers.busyS = delta(before, after, "runmany.busy_seconds");
    layers.batchPackS = phase("batch_pack", "seconds");
    layers.queueWaitS = phase("queue_wait", "seconds");
    if (phase("batch_pack", "calls") > 0)
        layers.batchGemmS = layers.stepThermalS;

    {
        SpanRecorder::Scope probe(spans, "bench.probe", 0);
        probeMakeSimulator(*traced, seedOrder, spans, probe.id(), layers);
        std::vector<RunMetrics> seedResults;
        for (const auto &[index, job] : jobs)
            seedResults.push_back(canonical[index]);
        probeResultSaves(seedOrder, seedResults, traced->configKey(),
                         opt.workDir + "/probe-results", spans, probe.id(),
                         layers);
        // The layers no gated workload keeps busy (see README.md):
        // OooCore on the first workload's profiles, one cold build of the
        // cheapest Table-4 benchmark, and the journal, one
        // SweepJournal::record (a full atomic rewrite) per completed job
        // in completion order. The timed sweep builds no trace.
        probeOooCore(table4Workloads()[0].benchmarks, spans, probe.id(),
                     layers, result);
        probeTraceBuild("mcf", opt.workDir + "/probe-traces", spans,
                        probe.id(), layers, result);
        const std::string path = opt.workDir + "/probe.journal";
        SweepJournal journal(path, configKeyHex(traced->configKey()),
                             jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const auto t0 = Clock::now();
            {
                SpanRecorder::Scope span(spans, "core.journal_record",
                                         probe.id());
                journal.record(jobs[i].first, seedResults[i]);
            }
            layers.journalRecordS += secondsSince(t0);
            layers.journalRecords += 1;
            layers.journalBytes += static_cast<double>(fs::file_size(path));
        }
        fs::remove(path);

        // The supervised sequential path must give the batched path's
        // bytes: the same pinned digest over the 144 bodies.
        const std::string journalPath = opt.workDir + "/sweep.journal";
        std::vector<RunMetrics> supervised;
        {
            SpanRecorder::Scope span(spans, "core.supervised_sweep",
                                     probe.id());
            supervised = plain->run(RunRequest(seedOrder)
                                        .threads(threads)
                                        .journal(journalPath)
                                        .timeout(kGenerousTimeoutS));
        }
        const obs::RunReport &report = plain->lastRunReport();
        result.operations(jobs.size(), report.failedJobs,
                          "supervised sweep jobs");
        SweepJournal check(journalPath, configKeyHex(plain->configKey()),
                           jobs.size());
        result.check(check.load() && check.completedCount() == jobs.size(),
                     "journal holds every job");
        std::vector<RunMetrics> supervisedCanonical(jobs.size());
        for (std::size_t i = 0; i < jobs.size() && i < supervised.size();
             ++i)
            supervisedCanonical[jobs[i].first] = supervised[i];
        checkTable8(supervisedCanonical, opt.inject == "digest", result);
        fs::remove(journalPath);
    }
    const std::vector<obs::Span> all = spans.spans();
    layers.traceOverheadPct = overheadPct(walls, tracedWalls);
    layers.spans = static_cast<double>(all.size());
    emitLayers(layers, result);
    finishTrace(opt, spans, {}, result);
}

} // namespace e2e
