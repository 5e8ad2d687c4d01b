/**
 * @file
 * Span recording for the benchmark's traced runs.
 *
 * The benchmark records a span around each call it makes into a
 * layer's public functions. While tracing is on it also enables the
 * program's own trace buffer (obs::Trace), whose spans mark layer
 * calls made inside the program (store, simulate and retrieve inside
 * ArchivalPipeline::roundTrip, for instance); finish() merges both
 * on one clock. Spans recorded on the main thread, the benchmark's
 * and the program's alike, nest strictly, and each one's parent is
 * the innermost span that contains it. A span recorded on a worker
 * thread names its parent explicitly.
 *
 * A span's self time is its duration minus the part of its interval
 * that its children cover.
 */

#ifndef E2EBENCH_SPANS_HH
#define E2EBENCH_SPANS_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "reconstruct/reconstructor.hh"

namespace e2e
{

/** Process CPU time and involuntary context switches, from
 *  getrusage(RUSAGE_SELF). */
struct HostSample
{
    double cpu_s = 0.0;
    long nivcsw = 0;

    static HostSample now();
};

struct Span
{
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    /// Index of the parent span, -1 for a root.
    int64_t parent = -1;
    bool main_thread = true;
    /// Recorded by the program's trace buffer, not the benchmark.
    bool program = false;
    /// Host usage over the span; set for the benchmark's own
    /// main-thread spans only.
    bool has_host = false;
    HostSample host;
    /// Filled by finish().
    uint64_t self_ns = 0;

    double seconds() const { return (end_ns - start_ns) * 1e-9; }
};

class Tracer
{
  public:
    bool enabled() const { return enabled_; }

    /** Start recording, and turn on the program's trace buffer. */
    void enable();
    /** Stop recording; the program's spans of the period are kept. */
    void disable();

    /** Nanoseconds on the shared trace clock. */
    uint64_t now() const;

    /** Open a main-thread span; returns its index, or -1 when off. */
    int64_t begin(const char *name);
    void end(int64_t id);

    /** The innermost open main-thread span, or -1. */
    int64_t current() const;

    /**
     * Record a finished span: from the main thread it nests by
     * containment, from any other thread it hangs under @p parent.
     * Thread-safe.
     */
    void record(const char *name, uint64_t start_ns, uint64_t end_ns,
                int64_t parent);

    /**
     * Resolve every parent and compute self times. Call once, after
     * the last disable().
     */
    void finish();

    const std::vector<Span> &spans() const { return spans_; }

    /** Write the spans as JSON; false on I/O failure. */
    bool writeJson(const std::string &path) const;

  private:
    bool enabled_ = false;
    std::thread::id main_id_;
    uint32_t program_main_tid_ = 0;
    uint64_t base_ns_ = 0;
    std::vector<int64_t> stack_;
    mutable std::mutex mutex_; ///< guards spans_ against record()
    std::vector<Span> spans_;
    /// Explicit parents of worker-thread spans, resolved by finish().
    std::vector<int64_t> explicit_parent_;
};

/** RAII main-thread span; does nothing when @p tracer is null. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name)
        : tracer_(tracer), id_(tracer ? tracer->begin(name) : -1)
    {}
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    int64_t id_;
};

/**
 * A Reconstructor that records a span around every call into the
 * wrapped one, on whichever thread the caller runs it. Estimates are
 * the wrapped algorithm's, unchanged.
 */
class TracedReconstructor : public dnasim::Reconstructor
{
  public:
    TracedReconstructor(const dnasim::Reconstructor &inner,
                        const char *span_name, Tracer &tracer)
        : inner_(inner), span_name_(span_name), tracer_(tracer)
    {}

    /** Parent of the spans recorded on worker threads. */
    void setParent(int64_t parent) { parent_ = parent; }

    dnasim::Strand reconstruct(const std::vector<dnasim::Strand> &copies,
                               size_t design_len,
                               dnasim::Rng &rng) const override;

    std::string name() const override { return inner_.name(); }

  private:
    const dnasim::Reconstructor &inner_;
    const char *span_name_;
    Tracer &tracer_;
    int64_t parent_ = -1;
};

} // namespace e2e

#endif // E2EBENCH_SPANS_HH
