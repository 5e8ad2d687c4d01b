#include "spans.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

#include "obs/trace.hh"

namespace e2e
{

namespace
{

constexpr const char *kMarker = "e2ebench.main_thread";

uint64_t
steadyNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
writeJsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20)
            os << ' ';
        else
            os << c;
    }
    os << '"';
}

} // anonymous namespace

HostSample
HostSample::now()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    HostSample s;
    s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec +
                                  ru.ru_stime.tv_usec) *
                  1e-6;
    s.nivcsw = ru.ru_nivcsw;
    return s;
}

void
Tracer::enable()
{
    auto &trace = dnasim::obs::Trace::global();
    trace.enable();
    if (!program_main_tid_) {
        // The program numbers its threads itself; learn the main
        // thread's number from one span recorded here.
        main_id_ = std::this_thread::get_id();
        { dnasim::obs::ScopedTrace marker(kMarker, "bench"); }
        program_main_tid_ = trace.completeSpans().back().tid;
    }
    // Each enable() restarts the program's clock; shift this period
    // onto the steady clock so periods never overlap.
    base_ns_ = steadyNs() - trace.nowNs();
    enabled_ = true;
}

void
Tracer::disable()
{
    auto &trace = dnasim::obs::Trace::global();
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &ps : trace.completeSpans()) {
        if (ps.name == kMarker)
            continue;
        Span s;
        s.name = ps.name;
        s.start_ns = ps.ts_ns + base_ns_;
        s.end_ns = s.start_ns + ps.dur_ns;
        s.main_thread = ps.tid == program_main_tid_;
        s.program = true;
        spans_.push_back(std::move(s));
        explicit_parent_.push_back(-1);
    }
    trace.disable();
    enabled_ = false;
}

uint64_t
Tracer::now() const
{
    return dnasim::obs::Trace::global().nowNs() + base_ns_;
}

int64_t
Tracer::begin(const char *name)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.has_host = true;
    s.host = HostSample::now();
    s.start_ns = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
    explicit_parent_.push_back(-1);
    const auto id = static_cast<int64_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
}

void
Tracer::end(int64_t id)
{
    if (id < 0)
        return;
    const uint64_t end_ns = now();
    const HostSample host = HostSample::now();
    std::lock_guard<std::mutex> lock(mutex_);
    Span &s = spans_[static_cast<size_t>(id)];
    s.end_ns = end_ns;
    s.host.cpu_s = host.cpu_s - s.host.cpu_s;
    s.host.nivcsw = host.nivcsw - s.host.nivcsw;
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

int64_t
Tracer::current() const
{
    return stack_.empty() ? -1 : stack_.back();
}

void
Tracer::record(const char *name, uint64_t start_ns, uint64_t end_ns,
               int64_t parent)
{
    Span s;
    s.name = name;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.main_thread = std::this_thread::get_id() == main_id_;
    const int64_t explicit_parent = s.main_thread ? -1 : parent;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
    explicit_parent_.push_back(explicit_parent);
}

void
Tracer::finish()
{
    std::lock_guard<std::mutex> lock(mutex_);
    const size_t n = spans_.size();

    // Main-thread spans nest strictly: sweep them in start order
    // (outer first on ties, the benchmark's span outside the
    // program's) and take the innermost open span as the parent.
    std::vector<size_t> main;
    for (size_t i = 0; i < n; ++i)
        if (spans_[i].main_thread)
            main.push_back(i);
    std::sort(main.begin(), main.end(), [&](size_t a, size_t b) {
        const Span &x = spans_[a];
        const Span &y = spans_[b];
        if (x.start_ns != y.start_ns)
            return x.start_ns < y.start_ns;
        if (x.end_ns != y.end_ns)
            return x.end_ns > y.end_ns;
        return !x.program && y.program;
    });
    std::vector<size_t> open;
    for (size_t i : main) {
        while (!open.empty() &&
               spans_[open.back()].end_ns < spans_[i].end_ns)
            open.pop_back();
        spans_[i].parent =
            open.empty() ? -1 : static_cast<int64_t>(open.back());
        open.push_back(i);
    }

    // Other threads: the named parent, else the innermost main-thread
    // span whose interval holds the span.
    for (size_t i = 0; i < n; ++i) {
        Span &s = spans_[i];
        if (s.main_thread)
            continue;
        s.parent = explicit_parent_[i];
        if (s.parent >= 0)
            continue;
        uint64_t best_start = 0;
        for (size_t j : main) {
            const Span &m = spans_[j];
            if (m.start_ns <= s.start_ns && s.end_ns <= m.end_ns &&
                m.start_ns >= best_start) {
                best_start = m.start_ns;
                s.parent = static_cast<int64_t>(j);
            }
        }
    }

    // Self time: duration minus the union of the children's
    // intervals, clipped to the span.
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(n);
    for (size_t i = 0; i < n; ++i)
        if (spans_[i].parent >= 0)
            kids[static_cast<size_t>(spans_[i].parent)].emplace_back(
                spans_[i].start_ns, spans_[i].end_ns);
    for (size_t i = 0; i < n; ++i) {
        Span &s = spans_[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        uint64_t covered = 0;
        uint64_t reach = s.start_ns;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, reach);
            hi = std::min(hi, s.end_ns);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        s.self_ns = s.end_ns - s.start_ns - covered;
    }
}

bool
Tracer::writeJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\"spans\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": ";
        writeJsonString(os, s.name);
        os << ", \"start_ns\": " << s.start_ns
           << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
           << ", \"self_ns\": " << s.self_ns << ", \"main_thread\": "
           << (s.main_thread ? "true" : "false") << ", \"program\": "
           << (s.program ? "true" : "false") << "}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os.flush());
}

dnasim::Strand
TracedReconstructor::reconstruct(const std::vector<dnasim::Strand> &copies,
                                 size_t design_len, dnasim::Rng &rng) const
{
    const uint64_t start = tracer_.now();
    dnasim::Strand estimate = inner_.reconstruct(copies, design_len, rng);
    tracer_.record(span_name_, start, tracer_.now(), parent_);
    return estimate;
}

} // namespace e2e
