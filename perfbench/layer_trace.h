/**
 * @file
 * Per-layer host tracing from outside the library.
 *
 * Everything here wraps public interfaces only: TimedWorkload
 * decorates a workloads::Workload, hands the workload a TimedApi that
 * decorates the GpuApi it receives, and reads the session's machine
 * through RunConfig::shardHook. Nothing in src/ knows it is traced,
 * so the simulated trace, digest and ticks of a traced pass are
 * exactly those of an untraced one (the benchmark checks it).
 *
 * Spans follow one rule: a span has a name, start, end, parent span
 * and the session index of the session it belongs to (-1 for spans of
 * the pass itself). Sessions buffer their spans privately on their
 * recording thread and hand them to the SpanLog once, when their run
 * ends, so tracing takes no lock per GpuApi call.
 */

#ifndef HIX_PERFBENCH_LAYER_TRACE_H_
#define HIX_PERFBENCH_LAYER_TRACE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "os/machine.h"
#include "workloads/workload.h"

namespace hix::perfbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds since the process-wide trace epoch. */
double nowMs();

/** One timed interval at a layer boundary. */
struct Span
{
    /** Static layer name, e.g. "hix.htod". */
    const char *name = "";
    /** Session index (shard-hook user), or -1 for pass-level spans. */
    int session = -1;
    /** Index of the parent span in its log, or -1 for a root. */
    int parent = -1;
    double startMs = 0;
    double endMs = 0;
    /** Payload bytes for copy spans, else 0. */
    std::uint64_t bytes = 0;

    double durationMs() const { return endMs - startMs; }
};

/** Modelled-hardware counters of one machine, summed over its GPUs. */
struct MachineCounters
{
    std::uint64_t kernels = 0;
    std::uint64_t cryptoKernels = 0;
    std::uint64_t scrubbedBytes = 0;
    std::uint64_t macFailures = 0;
    std::uint64_t tlpReads = 0;
    std::uint64_t tlpWrites = 0;
    std::uint64_t lockdownDrops = 0;
    std::uint64_t tlbHits = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t iotlbHits = 0;

    static MachineCounters read(os::Machine &machine);
    MachineCounters operator-(const MachineCounters &before) const;
    MachineCounters &operator+=(const MachineCounters &other);
};

/**
 * All spans and counters of one traced pass. Thread-safe: recording
 * threads add whole sessions; the pass's own thread opens and closes
 * pass-level spans.
 */
class SpanLog
{
  public:
    /** Open a pass-level span; returns its index. */
    int open(const char *name, int parent = -1);
    /** Close the pass-level span @p id now. */
    void close(int id);

    /**
     * Append one session's spans, whose parent fields index into
     * @p spans (-1 = the session root, re-parented to @p parent).
     */
    void addSession(std::vector<Span> spans, int parent,
                    const MachineCounters &delta, bool ok);

    const std::vector<Span> &spans() const { return spans_; }
    const MachineCounters &counters() const { return counters_; }
    int sessions() const { return sessions_; }
    int failedSessions() const { return failed_; }

    /** Summed duration of every span called @p name. */
    double totalMs(const std::string &name) const;
    /** Summed payload bytes of every span called @p name. */
    std::uint64_t totalBytes(const std::string &name) const;
    /** Number of spans called @p name. */
    std::uint64_t count(const std::string &name) const;
    /** Summed self time of spans called @p name: duration minus the
     *  time their direct children cover. */
    double selfMs(const std::string &name) const;

    /** Chrome trace-event JSON (chrome://tracing, Perfetto): one
     *  track per session, pass-level spans on track -1. */
    void writeChromeJson(std::ostream &out) const;

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    MachineCounters counters_;
    int sessions_ = 0;
    int failed_ = 0;
};

/**
 * The RunConfig::shardHook of a traced pass: stamps the session's
 * setup end and reads its machine's counters on the recording thread,
 * just before the recorded window opens, for the TimedWorkload that
 * this thread runs next.
 */
std::function<void(int, os::Machine &)> traceShardHook();

/**
 * Factory that wraps every instance @p inner makes in a
 * TimedWorkload reporting to @p log under the pass-level span
 * @p parent. The log must outlive the run the factory feeds.
 */
std::function<std::unique_ptr<workloads::Workload>()>
timedFactory(std::function<std::unique_ptr<workloads::Workload>()> inner,
             SpanLog &log, int parent);

}  // namespace hix::perfbench

#endif  // HIX_PERFBENCH_LAYER_TRACE_H_
