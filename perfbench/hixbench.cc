/**
 * @file
 * The repository benchmark's measuring process (driven by run.py).
 *
 * One process runs one workload: an untimed cold pass (its end marks
 * set-up), then warm passes back to back until --seconds have passed,
 * then, with --trace 1, a few traced passes through the layer_trace.h
 * decorators. Every pass is checked: the simulated trace digest,
 * makespan and (svc_open_hix) p50/p95 latency ticks must equal the
 * cold pass's, every workload run must verify against its CPU
 * reference, and traced passes must reproduce the untraced values
 * exactly. The last stdout line is one JSON object of raw results;
 * run.py reduces it to the benchmark's metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "layer_trace.h"
#include "svc/service.h"
#include "workloads/runner.h"

using namespace hix;
using namespace hix::perfbench;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 24149;
    double seconds = 10;
    bool trace = false;
    /** Stop after the cold pass (run.py samples set-up this way). */
    bool setupOnly = false;
    /** Smoke-test size: 4 sessions per pass. */
    bool tiny = false;
    /** Where traced passes write their spans. */
    std::string spansPath;
};

/** Traced passes per --trace 1 run; per-layer values are medians. */
constexpr int kTracedPasses = 3;

const std::vector<std::string> kBatchApps = {"PF", "SRAD", "NW", "BP"};

/** Simulated results of one pass: what every pass must reproduce. */
struct Observed
{
    std::vector<std::uint64_t> digests;
    std::vector<Tick> makespans;
    Tick p50 = 0;
    Tick p95 = 0;

    bool
    operator==(const Observed &o) const
    {
        return digests == o.digests && makespans == o.makespans &&
               p50 == o.p50 && p95 == o.p95;
    }
};

/** One pass: status, simulated results, and the library's own
 *  per-run host figures (summed over the pass's runs). */
struct Pass
{
    Status status;
    int sessions = 0;
    Observed observed;
    double recordMs = 0;
    double scheduleMs = 0;
    double bootMs = 0;
    /** Recording-worker time available: record wall x pool width. */
    double workerMs = 0;
    std::uint64_t residentPages = 0;
    std::uint64_t ops = 0;
    std::uint64_t ctxSwitches = 0;
    std::uint64_t cryptoCpuBytes = 0;
    std::uint64_t cryptoGpuBytes = 0;
    std::map<sim::OpKind, Tick> kindBusy;
    double computeBusy = 0;
    double computeCapacity = 0;
    int admitQueueMax = 0;
    int queueDepthMax = 0;
    /** Replays scheduled to a different makespan than recorded. */
    int replayMismatches = 0;
    /** Widest recording pool any run of the pass used. */
    int recordWorkers = 0;
};

/** The recording pool width the runner picks for @p sessions:
 *  min(sessions, hardware threads). */
int
recordPoolWidth(int sessions)
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return static_cast<int>(std::min<unsigned>(sessions, hw));
}

/** Fold one runner outcome into @p pass; with @p log, also replay
 *  its kept trace through the scheduler and time it. */
void
addOutcome(Pass &pass, const workloads::RunOutcome &run,
           const os::MachineConfig &machine, int sessions, SpanLog *log,
           int parent)
{
    const sim::Trace &trace = *run.trace;
    int span = log ? log->open("sim.digest", parent) : -1;
    pass.observed.digests.push_back(sim::traceDigest(trace));
    if (log)
        log->close(span);
    pass.observed.makespans.push_back(run.ticks);
    if (log) {
        span = log->open("sim.schedule_replay", parent);
        const auto replay = sim::schedule(trace, run.schedulerConfig);
        log->close(span);
        if (replay.makespan != run.ticks)
            ++pass.replayMismatches;
    }
    pass.recordMs += run.hostRecordMs;
    pass.scheduleMs += run.hostScheduleMs;
    pass.bootMs += run.hostBootMs;
    const int workers = recordPoolWidth(sessions);
    pass.recordWorkers = std::max(pass.recordWorkers, workers);
    pass.workerMs += run.hostRecordMs * workers;
    pass.residentPages += run.residentPages;
    pass.ops += trace.size();
    pass.ctxSwitches += run.gpuCtxSwitches;
    pass.cryptoCpuBytes += trace.totalBytes(sim::OpKind::CryptoCpu);
    pass.cryptoGpuBytes += trace.totalBytes(sim::OpKind::CryptoGpu);
    for (const auto &[kind, busy] : run.schedule.kindBusy)
        pass.kindBusy[kind] += busy;
    for (const auto &[res, usage] : run.schedule.usage)
        if (res.unit == sim::ResUnit::GpuCompute)
            pass.computeBusy += static_cast<double>(usage.busy);
    pass.computeCapacity +=
        static_cast<double>(std::max(1u, machine.timing.gpuConcurrentContexts)) *
        std::max(1, machine.gpuCount) * static_cast<double>(run.ticks);
}

// ----- svc_open_hix ------------------------------------------------

svc::ServiceConfig
serviceConfig(const Options &opt)
{
    svc::ServiceConfig cfg;
    cfg.devices = 4;
    cfg.policy = svc::Policy::LeastLoaded;
    cfg.useHix = true;
    cfg.seed = opt.seed;
    // bench_service's stream size: 50 sessions beyond the p95 rank,
    // and seed-to-seed swings in the app mix stay small.
    cfg.sessions = opt.tiny ? 4 : 1000;
    cfg.meanInterarrivalTicks = 4'000'000;
    cfg.tableCap = 64;
    cfg.appMix = {"NN", "LUD", "BFS"};
    cfg.userPopulation = 64;
    cfg.run.forkSessions = true;
    cfg.run.keepTrace = true;
    return cfg;
}

/** Untraced: the public runService() entry point, as a user calls it. */
Pass
servicePass(const Options &opt)
{
    const svc::ServiceConfig cfg = serviceConfig(opt);
    Pass pass;
    pass.sessions = cfg.sessions;
    auto out = svc::runService(cfg);
    if (!out.isOk()) {
        pass.status = out.status();
        return pass;
    }
    os::MachineConfig machine = cfg.run.machine;
    machine.gpuCount = cfg.devices;
    addOutcome(pass, out->pool.run, machine, cfg.sessions, nullptr, -1);
    pass.observed.p50 = out->p50;
    pass.observed.p95 = out->p95;
    return pass;
}

/**
 * Traced: runService() builds its workload factories itself, so this
 * pass runs the same public stages in the same order — solo probes,
 * planService, runSessionPool, percentileTick — with decorated
 * session factories and the tracing shard hook.
 */
Pass
tracedServicePass(const Options &opt, SpanLog &log, int root)
{
    const svc::ServiceConfig cfg = serviceConfig(opt);
    Pass pass;
    pass.sessions = cfg.sessions;

    int span = log.open("svc.probe", root);
    std::vector<Tick> demand;
    for (const auto &app : cfg.appMix) {
        workloads::RunConfig probe = cfg.run;
        probe.factory = [app] { return workloads::makeRodinia(app); };
        probe.users = 1;
        probe.useHix = cfg.useHix;
        probe.machine.gpuCount = 1;
        probe.forkSessions = false;
        probe.streaming = false;
        probe.keepTrace = false;
        auto solo = workloads::runWorkload(probe);
        if (!solo.isOk()) {
            pass.status = solo.status();
            return pass;
        }
        demand.push_back(solo->ticks);
    }
    log.close(span);

    span = log.open("svc.plan", root);
    auto plan = svc::planService(cfg, demand);
    log.close(span);
    if (!plan.isOk()) {
        pass.status = plan.status();
        return pass;
    }

    const int poolSpan = log.open("workloads.pool", root);
    std::vector<workloads::PoolSession> sessions;
    for (const svc::SessionPlan &s : plan->sessions) {
        workloads::PoolSession ps;
        ps.device = s.device;
        ps.admitTick = s.admit;
        ps.appId = s.appIndex;
        const std::string app = cfg.appMix[s.appIndex];
        ps.factory = timedFactory(
            [app] { return workloads::makeRodinia(app); }, log, poolSpan);
        sessions.push_back(std::move(ps));
    }
    workloads::RunConfig rc = cfg.run;
    rc.useHix = cfg.useHix;
    rc.machine.gpuCount = cfg.devices;
    rc.factory = [app = cfg.appMix.front()] {
        return workloads::makeRodinia(app);
    };
    rc.shardHook = traceShardHook();
    auto pool = workloads::runSessionPool(rc, sessions);
    log.close(poolSpan);
    if (!pool.isOk()) {
        pass.status = pool.status();
        return pass;
    }

    span = log.open("svc.percentiles", root);
    std::vector<Tick> latency;
    for (std::size_t i = 0; i < plan->sessions.size(); ++i)
        latency.push_back(pool->sessionFinish[i] -
                          plan->sessions[i].arrival);
    pass.observed.p50 = svc::percentileTick(latency, 50);
    pass.observed.p95 = svc::percentileTick(latency, 95);
    log.close(span);

    addOutcome(pass, pool->run, rc.machine, cfg.sessions, &log, root);
    pass.admitQueueMax = plan->admitQueueDepthMax;
    for (int depth : plan->queueDepthMax)
        pass.queueDepthMax = std::max(pass.queueDepthMax, depth);
    return pass;
}

// ----- batch_hix_bulk / batch_gdev_bulk -----------------------------

/** A closed batch per app, cold-booted; traced when @p log is set. */
Pass
batchPass(const Options &opt, bool useHix, SpanLog *log, int root)
{
    const int users = opt.tiny ? 1 : 4;
    Pass pass;
    for (const auto &app : kBatchApps) {
        workloads::RunConfig rc;
        rc.factory = [app] { return workloads::makeRodinia(app); };
        rc.users = users;
        rc.useHix = useHix;
        rc.keepTrace = true;
        int span = -1;
        if (log) {
            span = log->open("workloads.batch", root);
            rc.factory = timedFactory(rc.factory, *log, span);
            rc.shardHook = traceShardHook();
        }
        auto out = workloads::runWorkload(rc);
        if (log)
            log->close(span);
        pass.sessions += users;
        if (!out.isOk()) {
            pass.status = out.status();
            continue;  // the remaining apps still count as attempted
        }
        addOutcome(pass, *out, rc.machine, users, log, root);
    }
    return pass;
}

Pass
runPass(const Options &opt, SpanLog *log, int root)
{
    if (opt.workload == "svc_open_hix")
        return log ? tracedServicePass(opt, *log, root)
                   : servicePass(opt);
    return batchPass(opt, opt.workload == "batch_hix_bulk", log, root);
}

// ----- reporting -----------------------------------------------------

struct Layer
{
    std::string name;
    const char *unit;
    double value;
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

constexpr double kMB = 1e6;

std::vector<Layer>
layerMetrics(const Pass &pass, const SpanLog &log, double tracedMs,
             double untracedMs)
{
    Tick makespan = 0;
    for (Tick t : pass.observed.makespans)
        makespan += t;
    const MachineCounters &c = log.counters();
    const double tlbLookups =
        static_cast<double>(c.tlbHits) + static_cast<double>(c.tlbMisses);
    std::vector<Layer> m = {
        {"workloads.self_ms", "ms", log.selfMs("workloads.run")},
        {"hix.launch_ms", "ms", log.totalMs("hix.launch")},
        {"hix.launch_calls", "count",
         static_cast<double>(log.count("hix.launch"))},
        {"hix.htod_ms", "ms", log.totalMs("hix.htod")},
        {"hix.htod_mb", "MB", log.totalBytes("hix.htod") / kMB},
        {"hix.dtoh_ms", "ms", log.totalMs("hix.dtoh")},
        {"hix.dtoh_mb", "MB", log.totalBytes("hix.dtoh") / kMB},
        {"hix.alloc_ms", "ms", log.totalMs("hix.alloc")},
        {"hix.free_ms", "ms", log.totalMs("hix.free")},
        {"hix.load_ms", "ms", log.totalMs("hix.load")},
        {"hix.connect_ms", "ms", log.totalMs("hix.connect")},
        {"os.boot_ms", "ms", pass.bootMs},
        {"os.resident_pages_per_session", "pages",
         static_cast<double>(pass.residentPages) / pass.sessions},
        {"sim.record_ms", "ms", pass.recordMs},
        {"sim.schedule_ms", "ms", pass.scheduleMs},
        {"sim.schedule_replay_ms", "ms",
         log.totalMs("sim.schedule_replay")},
        {"sim.ops", "count", static_cast<double>(pass.ops)},
        {"sim.ctx_switches", "count",
         static_cast<double>(pass.ctxSwitches)},
        {"sim.makespan_ms", "sim_ms", ticksToMs(makespan)},
        {"sim.latency_p50_ms", "sim_ms", ticksToMs(pass.observed.p50)},
        {"sim.latency_p95_ms", "sim_ms", ticksToMs(pass.observed.p95)},
        {"gpu.compute_util", "ratio",
         pass.computeCapacity > 0 ? pass.computeBusy / pass.computeCapacity
                                  : 0},
        {"svc.plan_ms", "ms", log.totalMs("svc.plan")},
        {"svc.probe_ms", "ms", log.totalMs("svc.probe")},
        {"svc.admit_queue_max", "count",
         static_cast<double>(pass.admitQueueMax)},
        {"svc.queue_depth_max", "count",
         static_cast<double>(pass.queueDepthMax)},
        {"gpu.kernels", "count", static_cast<double>(c.kernels)},
        {"gpu.crypto_kernels", "count",
         static_cast<double>(c.cryptoKernels)},
        {"gpu.scrubbed_mb", "MB", c.scrubbedBytes / kMB},
        {"gpu.mac_failures", "count", static_cast<double>(c.macFailures)},
        {"pcie.tlp_reads", "count", static_cast<double>(c.tlpReads)},
        {"pcie.tlp_writes", "count", static_cast<double>(c.tlpWrites)},
        {"pcie.lockdown_drops", "count",
         static_cast<double>(c.lockdownDrops)},
        {"mem.tlb_hit_ratio", "ratio",
         tlbLookups > 0 ? c.tlbHits / tlbLookups : 0},
        {"mem.iotlb_hits", "count", static_cast<double>(c.iotlbHits)},
        {"crypto.cpu_mb", "MB", pass.cryptoCpuBytes / kMB},
        {"crypto.gpu_mb", "MB", pass.cryptoGpuBytes / kMB},
        {"host.tracing_overhead", "ratio", tracedMs / untracedMs - 1},
        {"unattributed_ms", "ms",
         pass.workerMs - pass.bootMs - log.totalMs("session")},
    };
    for (std::size_t k = 0; k < sim::OpKindCount; ++k) {
        const auto kind = static_cast<sim::OpKind>(k);
        auto it = pass.kindBusy.find(kind);
        m.push_back({std::string("sim.busy_ms.") + sim::opKindName(kind),
                     "sim_ms",
                     ticksToMs(it == pass.kindBusy.end() ? 0 : it->second)});
    }
    return m;
}

std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        out += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
    }
    return out + "\"";
}

std::string
observedJson(const Observed &o)
{
    std::ostringstream s;
    s << "{\"digests\":[";
    for (std::size_t i = 0; i < o.digests.size(); ++i)
        s << (i ? "," : "") << '"' << hex(o.digests[i]) << '"';
    s << "],\"makespan_ticks\":[";
    for (std::size_t i = 0; i < o.makespans.size(); ++i)
        s << (i ? "," : "") << o.makespans[i];
    s << "],\"p50_ticks\":" << o.p50 << ",\"p95_ticks\":" << o.p95 << "}";
    return s.str();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / kMB;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (arg == "--setup-only") {
            opt.setupOnly = true;
        } else if (arg == "--tiny") {
            opt.tiny = true;
        } else if (arg == "--workload" && (v = value())) {
            opt.workload = v;
        } else if (arg == "--seed" && (v = value())) {
            opt.seed = std::strtoull(v, nullptr, 0);
        } else if (arg == "--seconds" && (v = value())) {
            opt.seconds = std::strtod(v, nullptr);
        } else if (arg == "--trace" && (v = value())) {
            opt.trace = std::string(v) == "1";
        } else if (arg == "--spans" && (v = value())) {
            opt.spansPath = v;
        } else {
            std::fprintf(stderr, "unknown or incomplete argument: %s\n",
                         arg.c_str());
            return false;
        }
    }
    return opt.workload == "svc_open_hix" ||
           opt.workload == "batch_hix_bulk" ||
           opt.workload == "batch_gdev_bulk";
}

}  // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: hixbench --workload "
                     "svc_open_hix|batch_hix_bulk|batch_gdev_bulk "
                     "[--seed N] [--seconds S] [--trace 0|1] "
                     "[--setup-only] [--tiny] [--spans PATH]\n");
        return 2;
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string error;
    // A pass that fails any check fails all its sessions.
    auto check = [&](const Pass &pass, const Observed &expected,
                     const char *sessionError = nullptr) {
        attempted += pass.sessions;
        std::string why;
        if (!pass.status.isOk())
            why = pass.status.message();
        else if (!(pass.observed == expected) || pass.replayMismatches > 0)
            why = "simulated results differ from the cold pass";
        else if (sessionError)
            why = sessionError;
        else
            return;
        failed += pass.sessions;
        if (error.empty())
            error = why;
    };

    // Cold pass: the first pass a one-shot user pays for; its end is
    // the end of set-up, and its results are what later passes match.
    const Pass cold = runPass(opt, nullptr, -1);
    const double setupEnd =
        std::chrono::duration<double>(Clock::now().time_since_epoch())
            .count();
    check(cold, cold.observed);

    std::vector<double> passMs;
    double cpuUtil = 0;
    if (!opt.setupOnly && cold.status.isOk()) {
        const double cpu0 = cpuSeconds();
        const double wall0 = nowMs();
        do {
            const double start = nowMs();
            const Pass warm = runPass(opt, nullptr, -1);
            passMs.push_back(nowMs() - start);
            check(warm, cold.observed);
        } while (nowMs() - wall0 < opt.seconds * 1000.0);
        const unsigned hw =
            std::max(1u, std::thread::hardware_concurrency());
        cpuUtil = (cpuSeconds() - cpu0) /
                  ((nowMs() - wall0) / 1000.0 * hw);
    }
    const double rssMb = peakRssMb();

    std::vector<std::vector<Layer>> traced;
    std::vector<double> tracedMs;
    Observed tracedObserved;
    if (opt.trace && !passMs.empty()) {
        for (int k = 0; k < kTracedPasses; ++k) {
            SpanLog log;
            const double start = nowMs();
            const int root = log.open("pass");
            const Pass pass = runPass(opt, &log, root);
            log.close(root);
            tracedMs.push_back(nowMs() - start);
            tracedObserved = pass.observed;
            // Every traced session reports its own Workload::run
            // status; the runner must have run each exactly once.
            check(pass, cold.observed,
                  log.failedSessions() > 0 ||
                          log.sessions() != pass.sessions
                      ? "traced sessions failed or went missing"
                      : nullptr);
            traced.push_back(layerMetrics(pass, log, tracedMs.back(),
                                          median(passMs)));
            if (k + 1 == kTracedPasses && !opt.spansPath.empty()) {
                std::ofstream out(opt.spansPath);
                log.writeChromeJson(out);
            }
        }
    }

    std::ostringstream out;
    out << std::setprecision(17);
    out << "{\"workload\":" << jsonString(opt.workload)
        << ",\"seed\":" << opt.seed
        << ",\"sessions_per_pass\":" << cold.sessions
        << ",\"setup_end_s\":" << setupEnd
        << ",\"attempted\":" << attempted << ",\"failed\":" << failed
        << ",\"error\":" << jsonString(error)
        << ",\"observed\":" << observedJson(cold.observed)
        << ",\"traced_observed\":" << observedJson(tracedObserved)
        << ",\"pass_ms\":[";
    for (std::size_t i = 0; i < passMs.size(); ++i)
        out << (i ? "," : "") << passMs[i];
    out << "],\"traced_pass_ms\":[";
    for (std::size_t i = 0; i < tracedMs.size(); ++i)
        out << (i ? "," : "") << tracedMs[i];
    out << "],\"peak_rss_mb\":" << rssMb
        << ",\"host_cpu_util\":" << cpuUtil << ",\"layers\":{";
    if (!traced.empty()) {
        for (std::size_t j = 0; j < traced[0].size(); ++j) {
            std::vector<double> values;
            for (const auto &pass : traced)
                values.push_back(pass[j].value);
            out << (j ? "," : "") << '"' << traced[0][j].name
                << "\":{\"value\":" << median(values) << ",\"unit\":\""
                << traced[0][j].unit << "\"}";
        }
        out << ",\"host.cpu_util\":{\"value\":" << cpuUtil
            << ",\"unit\":\"ratio\"}";
    }
    out << "},\"header\":{\"nproc\":"
        << std::max(1u, std::thread::hardware_concurrency())
        << ",\"compiler\":"
#if defined(__clang__)
        << jsonString(std::string("clang ") + __clang_version__)
#elif defined(__GNUC__)
        << jsonString(std::string("gcc ") + __VERSION__)
#else
        << "\"unknown\""
#endif
        << ",\"build_type\":" << jsonString(HIX_PERFBENCH_BUILD_TYPE)
        << ",\"record_workers\":" << cold.recordWorkers
        << "}}";
    std::printf("%s\n", out.str().c_str());
    return failed == 0 ? 0 : 1;
}
