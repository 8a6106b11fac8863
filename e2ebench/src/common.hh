/**
 * @file
 * Shared pieces of the end-to-end benchmark: options, the result
 * record every workload fills, wall-clock spans on the repository's
 * one span model (obs::Span / obs::SpanCollector), self-time
 * accounting, and the pinned behaviour digests the correctness checks
 * compare against.
 */

#ifndef COOLCMP_E2EBENCH_COMMON_HH
#define COOLCMP_E2EBENCH_COMMON_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "obs/export.hh"
#include "obs/registry.hh"
#include "obs/trace_context.hh"

namespace e2e {

using namespace coolcmp;
using Clock = std::chrono::steady_clock;

/** Host worker threads: nproc, capped at the 4 the workloads are
 *  sized for. */
std::size_t benchThreads();

/** Seconds since `t0` on the steady clock. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** What one invocation was asked to do. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    std::string workDir;    ///< fresh per-run scratch (caches, journals)
    std::string warmTraces; ///< pre-generated trace cache to copy from
    std::string traceOut;   ///< Chrome trace path for traced runs
    std::string inject;     ///< "", "digest" or "job" (negative tests)
};

/** Deterministic generator for everything the seed picks. */
class SeedRng
{
  public:
    explicit SeedRng(std::uint64_t seed) : gen_(seed) {}

    /** Uniform index in [0, n). */
    std::size_t below(std::size_t n) { return gen_() % n; }

    /** Fisher-Yates with this generator (std::shuffle's algorithm is
     *  unspecified, so it could differ between standard libraries). */
    template <typename T>
    void shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::mt19937_64 gen_;
};

/**
 * Wall-clock spans recorded from the benchmark's own code around calls
 * into each layer. Disabled recorders never read the clock. Span ids
 * are dense per recorder; parents are passed explicitly because the
 * workloads open children on worker threads.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    /** RAII span: opened on construction, recorded on destruction. */
    class Scope
    {
      public:
        Scope(SpanRecorder &recorder, std::string name,
              std::uint64_t parent);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** This span's id (0 when the recorder is disabled). */
        std::uint64_t id() const { return span_.spanId; }

      private:
        SpanRecorder *recorder_;
        obs::Span span_;
    };

    std::vector<obs::Span> spans() const { return spans_.snapshot(); }

  private:
    bool enabled_;
    std::atomic<std::uint64_t> nextId_{1};
    obs::SpanCollector spans_{std::size_t{1} << 20};
};

/** Per-name totals over a span set. */
struct SpanTotals
{
    std::size_t count = 0;
    double totalS = 0.0; ///< summed durations
    double selfS = 0.0;  ///< summed durations minus child coverage
};

/**
 * Self time of every span: its duration minus the union of its
 * children's intervals clipped to it (children on parallel threads
 * overlap, so they are merged, not summed). Aggregated by name.
 */
std::map<std::string, SpanTotals>
spanTotals(const std::vector<obs::Span> &spans);

/** One metric as printed: value plus unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Everything one invocation reports. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;

    std::vector<std::pair<std::string, Metric>> endToEnd;
    std::vector<std::pair<std::string, Metric>> perLayer;

    /** Informational lines (accuracy, latency detail, self times). */
    std::vector<std::string> notes;

    /** Count one checked operation; a failed one marks the run
     *  incorrect and explains itself on stderr. */
    void check(bool ok, const std::string &what);

    /** Count `n` operations of which `bad` failed (jobs, requests). */
    void operations(std::uint64_t n, std::uint64_t bad,
                    const std::string &what);

    void e2e(const std::string &name, double value,
             const std::string &unit)
    {
        endToEnd.push_back({name, {value, unit}});
    }
    void layer(const std::string &name, double value,
               const std::string &unit)
    {
        perLayer.push_back({name, {value, unit}});
    }
    void note(const std::string &line) { notes.push_back(line); }
};

/**
 * Host-speed probe: a fixed kernel owned by the benchmark (a dense
 * mat-vec, a dependent walk over an L2-sized cycle and a branchy
 * integer loop) run on as many threads at once as the workload keeps
 * busy. Its time moves with the host's speed and with nothing in
 * CoolCMP.
 */
class HostSpeed
{
  public:
    /** `threads`: the workload's compute threads, at most
     *  benchThreads(). */
    explicit HostSpeed(std::size_t threads);

    /** Run the kernel once on each thread and record each thread's
     *  time as one sample. */
    void sample();

    /** Median over the samples, s; 0 without samples. */
    double probeS() const;

    /** Factor from this host's seconds to reference-host seconds:
     *  kReferenceProbeS / probeS(). */
    double scale() const;

    const std::vector<double> &samples() const { return samples_; }

  private:
    std::size_t threads_;
    std::vector<double> samples_;
};

/** Probe time on the reference host, s: about its median on the
 *  4-vCPU host the benchmark was defined on (see README.md), so scaled
 *  figures read close to that host's seconds. */
inline constexpr double kReferenceProbeS = 0.14;

/**
 * The end-to-end metrics; the same four names on every workload: the
 * median setup, the median round wall time, `jobsPerRound` over that
 * median, and the median of the rounds' peak RSS (runRounds). Times
 * and rates are scaled to the reference host by `speed`; the raw host
 * figures are printed beside them as notes.
 */
void emitEndToEnd(const std::vector<double> &setups,
                  const std::vector<double> &walls, double jobsPerRound,
                  const std::vector<double> &peaks, const HostSpeed &speed,
                  Result &result);

/**
 * The per-layer metrics of a traced run. Every workload reports the
 * full set; a layer that does no work on a workload reports 0, which
 * is the "idle" half of each layer's heavy/idle prediction.
 */
struct LayerStats
{
    double oooCycles = 0.0;      ///< OooCore::run probe cycles
    double oooSeconds = 0.0;     ///< ... and their host seconds
    double traceBuilds = 0.0;    ///< cold TraceBuilder::build calls
    double traceBuildS = 0.0;
    double traceLoads = 0.0;     ///< warm trace loads from disk
    double traceLoadS = 0.0;
    double makeSimCalls = 0.0;
    double makeSimS = 0.0;
    double gatherPowersS = 0.0;  ///< DtmSimulator phase self times
    double stepThermalS = 0.0;
    double finishStepS = 0.0;
    double finishRunS = 0.0;
    double dtmSteps = 0.0;
    double busyS = 0.0;          ///< summed sweep-worker busy time
    double batchPackS = 0.0;     ///< BatchRunner phases
    double batchGemmS = 0.0;
    double queueWaitS = 0.0;
    double resultSaves = 0.0;
    double resultSaveS = 0.0;
    double journalRecords = 0.0;
    double journalRecordS = 0.0;
    double journalBytes = 0.0;
    double svcJobs = 0.0;        ///< service results fetched
    double submitMs = 0.0;       ///< medians of client round trips
    double resultFetchMs = 0.0;
    double pollsPerJob = 0.0;
    double queueWaitMs = 0.0;
    double runMs = 0.0;
    double resultDecodeMs = 0.0;
    double cacheHitRatio = 0.0;
    double hitLatencyP50Ms = 0.0;
    double missLatencyP50Ms = 0.0;
    double jobLatencyP50Ms = 0.0;
    double jobLatencyP95Ms = 0.0;
    double traceOverheadPct = 0.0;
    double spans = 0.0;
};

void emitLayers(const LayerStats &s, Result &result);

/**
 * Repeat `round(k)` for about `seconds`: always at least `minRounds`,
 * then another only while it is expected to end within `seconds`
 * (elapsed time plus the median round so far), so a run's length is
 * predictable. `speed` is sampled before every round and after the
 * last, so the probes cover the same stretch of time as the rounds.
 * Returns each round's peak RSS, MiB.
 */
std::vector<double> runRounds(double seconds, std::size_t minRounds,
                              const std::function<void(std::size_t)> &round,
                              HostSpeed &speed);

/** Median (mean of the middle pair for even sizes); 0 when empty. */
double median(std::vector<double> v);

/** Nearest-rank percentile, q in (0, 1]; 0 when empty. */
double percentile(std::vector<double> v, double q);

/** Reset this process's peak RSS to its current RSS (Linux
 *  /proc/self/clear_refs). */
void resetPeakRss();

/** Peak resident set size of this process since the last
 *  resetPeakRss() (VmHWM), MiB. */
double peakRssMb();

/** FNV-1a 64 over bytes, continuing from `hash`. */
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);

std::string hex64(std::uint64_t v);

/** Empty (recreate) a directory. */
void freshDir(const std::string &dir);

/** Copy every regular file of `from` into `to` (created fresh). */
void copyDir(const std::string &from, const std::string &to);

/** Registry counter/gauge values by name, for before/after deltas. */
std::map<std::string, double> registryValues(const obs::Registry &reg);

/** after[name] - before[name] (absent = 0). */
double delta(const std::map<std::string, double> &before,
             const std::map<std::string, double> &after,
             const std::string &name);

// --- The Table-8 sweep: 12 Table-4 workloads x 12 policy cells. ---

/** All 144 jobs in canonical order (workload-major, then Table 2
 *  policy order). */
std::vector<RunJob> table8Jobs();

/** The same jobs in seed order, each tagged with its canonical index
 *  so results can be put back in canonical order. */
std::vector<std::pair<std::size_t, RunJob>>
shuffledTable8Jobs(SeedRng &rng);

/** Digest over the v4 writeRunMetricsBody bodies of results given in
 *  canonical order. */
std::uint64_t sweepDigest(const std::vector<RunMetrics> &canonical);

/**
 * The sweep checks shared by every workload that runs the 144 jobs:
 * the pinned body digest (flipped by `corrupt`, for the negative
 * test) and the paper's headline claims (0 emergencies, hottest sample
 * below the threshold, dist-DVFS / dist-stop-go in [2.4, 2.65]).
 * Returns the Table-8 MAE of the 11 non-baseline cells.
 */
double checkTable8(const std::vector<RunMetrics> &canonical,
                   bool corrupt, Result &result);

/** Pinned digest of the 144 v4 bodies (default DtmConfig). */
inline constexpr std::uint64_t kTable8Digest = 0x17450f97414ebb1eULL;

/** Pinned digest of a benchmark's default-config trace file bytes;
 *  0 when the benchmark is not pinned. */
std::uint64_t pinnedTraceDigest(const std::string &benchmark);

/** Digest of the cached trace file of `benchmark` under `dir`; 0 when
 *  no such file exists. */
std::uint64_t traceFileDigest(const std::string &dir,
                              const std::string &benchmark);

/**
 * Probe the per-job setup layer: time Experiment::makeSimulator for
 * every job, one span each under `parent`.
 */
void probeMakeSimulator(Experiment &experiment,
                        const std::vector<RunJob> &jobs,
                        SpanRecorder &spans, std::uint64_t parent,
                        LayerStats &layers);

/**
 * Probe the result-cache write layer: saveRunMetrics plus
 * enforceResultCacheBound for every result, as a sweep's completion
 * path does, into an empty directory under `dir`.
 */
void probeResultSaves(const std::vector<RunJob> &jobs,
                      const std::vector<RunMetrics> &results,
                      std::uint64_t configKey, const std::string &dir,
                      SpanRecorder &spans, std::uint64_t parent,
                      LayerStats &layers);

/** Probe the uarch layer: OooCore::run over a fixed cycle count per
 *  named profile, in the machine configuration trace builds use. */
void probeOooCore(const std::vector<std::string> &names,
                  SpanRecorder &spans, std::uint64_t parent,
                  LayerStats &layers, Result &result);

/** Probe cold trace generation: TraceBuilder::build of one benchmark
 *  into the empty directory `dir` (default config otherwise). */
void probeTraceBuild(const std::string &name, const std::string &dir,
                     SpanRecorder &spans, std::uint64_t parent,
                     LayerStats &layers, Result &result);

/** Load the named warm traces into `experiment` on `threads`
 *  workers, one "power.trace_load" span each under `parent`. */
void loadTraces(Experiment &experiment,
                const std::vector<std::string> &names,
                SpanRecorder &spans, std::uint64_t parent,
                LayerStats &layers);

/** (traced - untraced) / untraced, in percent; 0 without both. */
double overheadPct(const std::vector<double> &untraced,
                   const std::vector<double> &traced);

/** All benchmarks used by the Table 4 workloads. */
std::vector<std::string> table4Benchmarks();

/** Trace-builder config of every workload: the default one, with the
 *  on-disk cache redirected to `cacheDir`. */
TraceBuilderConfig traceConfigAt(const std::string &cacheDir);

// --- Workloads. ---

void runTable8(const Options &opt, Result &result);
void runService(const Options &opt, Result &result);

/** Generate the warm trace cache every warm workload copies from. */
int prepareTraces(const std::string &dir);

/** Write the recorder's spans (plus extra tracks) as a Chrome trace
 *  and add the self-time notes. */
void finishTrace(const Options &opt, const SpanRecorder &spans,
                 std::vector<obs::ProcessSpans> extraTracks,
                 Result &result);

} // namespace e2e

#endif // COOLCMP_E2EBENCH_COMMON_HH
