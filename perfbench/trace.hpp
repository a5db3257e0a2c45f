/**
 * @file
 * In-memory span recorder for the benchmark's traced runs, written out
 * as Chrome trace-event JSON (loads in Perfetto and chrome://tracing).
 *
 * Spans are recorded by the benchmark around its calls into the library
 * (never inside it). Every span carries a name, start, end, its own id,
 * its parent's id (0 for a root) and the id of the request it belongs
 * to, so one request's spans share `req`. Recording is a vector append;
 * nothing is written until writeChromeJson() at exit.
 */

#ifndef MVQ_PERFBENCH_TRACE_HPP
#define MVQ_PERFBENCH_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

/** Nanoseconds on the steady clock since the first call in the process. */
inline std::int64_t
nowNs()
{
    using clk = std::chrono::steady_clock;
    static const clk::time_point epoch = clk::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(clk::now()
                                                                - epoch)
        .count();
}

struct Span
{
    const char *name;  //!< must outlive the Tracer (literal or spec name)
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t id;
    std::int64_t parent; //!< 0 = root
    std::int64_t req;    //!< request id shared by the request's spans
    int tid;             //!< display lane (one per benchmark thread)
};

/** Single-writer span store; callers serialize access. */
class Tracer
{
  public:
    /** Record a finished span and return its id (for children). */
    std::int64_t
    add(const char *name, std::int64_t start_ns, std::int64_t end_ns,
        std::int64_t parent, std::int64_t req, int tid = 0)
    {
        const std::int64_t id = static_cast<std::int64_t>(spans_.size()) + 1;
        spans_.push_back({name, start_ns, end_ns, id, parent, req, tid});
        return id;
    }

    /** Close a span opened with a provisional end. */
    void
    setEnd(std::int64_t id, std::int64_t end_ns)
    {
        spans_[static_cast<std::size_t>(id - 1)].end_ns = end_ns;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as a complete ("X") trace event. */
    bool
    writeChromeJson(const std::string &path,
                    const std::vector<std::string> &lane_names) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
        bool first = true;
        for (std::size_t t = 0; t < lane_names.size(); ++t) {
            out << (first ? "" : ",\n")
                << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                   "\"tid\":"
                << t << ",\"args\":{\"name\":\"" << lane_names[t] << "\"}}";
            first = false;
        }
        char buf[320];
        for (const Span &s : spans_) {
            std::snprintf(buf, sizeof(buf),
                          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                          "\"span\":%lld,\"parent\":%lld,\"req\":%lld}}",
                          first ? "" : ",\n", s.name, s.tid,
                          static_cast<double>(s.start_ns) / 1e3,
                          static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                          static_cast<long long>(s.id),
                          static_cast<long long>(s.parent),
                          static_cast<long long>(s.req));
            out << buf;
            first = false;
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // MVQ_PERFBENCH_TRACE_HPP
