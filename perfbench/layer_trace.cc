#include "layer_trace.h"

#include <iomanip>
#include <utility>

namespace hix::perfbench
{

namespace
{

const Clock::time_point kEpoch = Clock::now();

/** What traceShardHook() saw for the session this thread runs next. */
struct HookStamp
{
    bool armed = false;
    int session = -1;
    double atMs = 0;
    os::Machine *machine = nullptr;
    MachineCounters before;
};

thread_local HookStamp tlHook;

/** GpuApi decorator: one span per call, parented to the run span. */
class TimedApi : public workloads::GpuApi
{
    // Defined first: the overrides below deduce its return type.
    template <typename Call>
    auto
    timed(const char *name, std::uint64_t bytes, Call &&call)
    {
        const double start = nowMs();
        auto result = call();
        spans_.push_back(
            Span{name, session_, parent_, start, nowMs(), bytes});
        return result;
    }

  public:
    TimedApi(workloads::GpuApi &inner, std::vector<Span> &spans,
             int session, int parent)
        : inner_(inner), spans_(spans), session_(session),
          parent_(parent)
    {
    }

    Result<Addr>
    memAlloc(std::uint64_t size) override
    {
        return timed("hix.alloc", 0, [&] { return inner_.memAlloc(size); });
    }
    Status
    memFree(Addr va) override
    {
        return timed("hix.free", 0, [&] { return inner_.memFree(va); });
    }
    Status
    memcpyHtoD(Addr dst, const Bytes &data) override
    {
        return timed("hix.htod", data.size(),
                     [&] { return inner_.memcpyHtoD(dst, data); });
    }
    Result<Bytes>
    memcpyDtoH(Addr src, std::uint64_t len) override
    {
        return timed("hix.dtoh", len,
                     [&] { return inner_.memcpyDtoH(src, len); });
    }
    Result<gpu::KernelId>
    loadModule(const std::string &name) override
    {
        return timed("hix.load", 0,
                     [&] { return inner_.loadModule(name); });
    }
    Status
    launchKernel(gpu::KernelId kernel,
                 const gpu::KernelArgs &args) override
    {
        return timed("hix.launch", 0,
                     [&] { return inner_.launchKernel(kernel, args); });
    }

  private:
    workloads::GpuApi &inner_;
    std::vector<Span> &spans_;
    int session_;
    int parent_;
};

/** Workload decorator: times run() and the GpuApi calls inside it. */
class TimedWorkload : public workloads::Workload
{
  public:
    TimedWorkload(std::unique_ptr<workloads::Workload> inner,
                  SpanLog &log, int parent)
        : Workload(inner->name()), inner_(std::move(inner)), log_(log),
          parent_(parent)
    {
    }

    std::uint64_t timingScale() const override
    {
        return inner_->timingScale();
    }
    workloads::TransferSpec nominalTransfers() const override
    {
        return inner_->nominalTransfers();
    }
    void registerKernels(gpu::GpuDevice &device) override
    {
        inner_->registerKernels(device);
    }

    Status
    run(workloads::GpuApi &api) override
    {
        // The runner calls the shard hook on this thread, then
        // connects the runtime, then runs this session's workload.
        HookStamp hook = std::exchange(tlHook, HookStamp{});
        if (!hook.armed)
            return errInternal("traced workload ran without shard hook");
        const double runStart = nowMs();
        // Local span indices: 0 session, 1 connect, 2 run.
        std::vector<Span> spans;
        spans.push_back(Span{"session", hook.session, -1, hook.atMs, 0, 0});
        spans.push_back(
            Span{"hix.connect", hook.session, 0, hook.atMs, runStart, 0});
        spans.push_back(
            Span{"workloads.run", hook.session, 0, runStart, 0, 0});
        Status status;
        {
            TimedApi timed(api, spans, hook.session, 2);
            status = inner_->run(timed);
        }
        const double end = nowMs();
        spans[0].endMs = end;
        spans[2].endMs = end;
        log_.addSession(std::move(spans), parent_,
                        MachineCounters::read(*hook.machine) -
                            hook.before,
                        status.isOk());
        return status;
    }

  private:
    std::unique_ptr<workloads::Workload> inner_;
    SpanLog &log_;
    int parent_;
};

}  // namespace

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     kEpoch)
        .count();
}

MachineCounters
MachineCounters::read(os::Machine &machine)
{
    MachineCounters c;
    for (int g = 0; g < machine.gpuCount(); ++g) {
        const auto &s = machine.gpuAt(g).stats();
        c.kernels += s.kernels;
        c.cryptoKernels += s.cryptoKernels;
        c.scrubbedBytes += s.scrubbedBytes;
        c.macFailures += s.macFailures;
    }
    const auto &rc = machine.rootComplex().stats();
    c.tlpReads = rc.memReads;
    c.tlpWrites = rc.memWrites;
    c.lockdownDrops = rc.lockdownDrops;
    c.tlbHits = machine.mmu().tlbHits();
    c.tlbMisses = machine.mmu().tlbMisses();
    c.iotlbHits = machine.iommu().iotlbHits();
    return c;
}

MachineCounters
MachineCounters::operator-(const MachineCounters &b) const
{
    MachineCounters d;
    d.kernels = kernels - b.kernels;
    d.cryptoKernels = cryptoKernels - b.cryptoKernels;
    d.scrubbedBytes = scrubbedBytes - b.scrubbedBytes;
    d.macFailures = macFailures - b.macFailures;
    d.tlpReads = tlpReads - b.tlpReads;
    d.tlpWrites = tlpWrites - b.tlpWrites;
    d.lockdownDrops = lockdownDrops - b.lockdownDrops;
    d.tlbHits = tlbHits - b.tlbHits;
    d.tlbMisses = tlbMisses - b.tlbMisses;
    d.iotlbHits = iotlbHits - b.iotlbHits;
    return d;
}

MachineCounters &
MachineCounters::operator+=(const MachineCounters &o)
{
    kernels += o.kernels;
    cryptoKernels += o.cryptoKernels;
    scrubbedBytes += o.scrubbedBytes;
    macFailures += o.macFailures;
    tlpReads += o.tlpReads;
    tlpWrites += o.tlpWrites;
    lockdownDrops += o.lockdownDrops;
    tlbHits += o.tlbHits;
    tlbMisses += o.tlbMisses;
    iotlbHits += o.iotlbHits;
    return *this;
}

int
SpanLog::open(const char *name, int parent)
{
    const double start = nowMs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, -1, parent, start, start, 0});
    return static_cast<int>(spans_.size() - 1);
}

void
SpanLog::close(int id)
{
    const double end = nowMs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].endMs = end;
}

void
SpanLog::addSession(std::vector<Span> spans, int parent,
                    const MachineCounters &delta, bool ok)
{
    std::lock_guard<std::mutex> lock(mu_);
    const int base = static_cast<int>(spans_.size());
    for (Span &s : spans) {
        s.parent = s.parent < 0 ? parent : base + s.parent;
        spans_.push_back(s);
    }
    counters_ += delta;
    ++sessions_;
    if (!ok)
        ++failed_;
}

double
SpanLog::totalMs(const std::string &name) const
{
    double total = 0;
    for (const Span &s : spans_)
        if (name == s.name)
            total += s.durationMs();
    return total;
}

std::uint64_t
SpanLog::totalBytes(const std::string &name) const
{
    std::uint64_t total = 0;
    for (const Span &s : spans_)
        if (name == s.name)
            total += s.bytes;
    return total;
}

std::uint64_t
SpanLog::count(const std::string &name) const
{
    std::uint64_t n = 0;
    for (const Span &s : spans_)
        if (name == s.name)
            ++n;
    return n;
}

double
SpanLog::selfMs(const std::string &name) const
{
    // Children of one span run one after another on its thread, so
    // the time they cover is the sum of their durations.
    std::vector<double> covered(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            covered[s.parent] += s.durationMs();
    double self = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (name == spans_[i].name)
            self += spans_[i].durationMs() - covered[i];
    return self;
}

void
SpanLog::writeChromeJson(std::ostream &out) const
{
    out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.session
            << ",\"ts\":" << s.startMs * 1000.0
            << ",\"dur\":" << s.durationMs() * 1000.0
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
            << ",\"bytes\":" << s.bytes << "}}";
    }
    out << "\n]}\n";
}

std::function<void(int, os::Machine &)>
traceShardHook()
{
    return [](int user, os::Machine &machine) {
        tlHook = HookStamp{true, user, nowMs(), &machine,
                           MachineCounters::read(machine)};
    };
}

std::function<std::unique_ptr<workloads::Workload>()>
timedFactory(std::function<std::unique_ptr<workloads::Workload>()> inner,
             SpanLog &log, int parent)
{
    return [inner = std::move(inner), &log, parent] {
        return std::unique_ptr<workloads::Workload>(
            new TimedWorkload(inner(), log, parent));
    };
}

}  // namespace hix::perfbench
