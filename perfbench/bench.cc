#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sys/resource.h>
#include <unistd.h>

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
tail(std::vector<double> v, int &pct)
{
    pct = 100;
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    if (n < 11)
        return v.back();
    // Largest whole percentile p whose nearest-rank index ceil(p*n/100)-1
    // leaves at least ten samples above it.
    for (int p = 99; p >= 1; --p) {
        std::size_t rank = static_cast<std::size_t>(
            std::ceil(static_cast<double>(p) * static_cast<double>(n) / 100.0));
        if (rank >= 1 && n - rank >= 10) {
            pct = p;
            return v[rank - 1];
        }
    }
    pct = 0;
    return v.front();
}

int
SpanLog::open(const char *name)
{
    Span s;
    s.name = name;
    s.parent = stack.empty() ? -1 : stack.back();
    s.op = op;
    s.start = nowNs();
    log.push_back(std::move(s));
    int id = static_cast<int>(log.size()) - 1;
    stack.push_back(id);
    return id;
}

void
SpanLog::close(int id)
{
    log[static_cast<std::size_t>(id)].end = nowNs();
    if (!stack.empty() && stack.back() == id)
        stack.pop_back();
}

std::vector<double>
SpanLog::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : log)
        if (s.name == name)
            out.push_back(static_cast<double>(s.end - s.start));
    return out;
}

double
SpanLog::total(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &s : log)
        if (s.name == name)
            sum += static_cast<double>(s.end - s.start);
    return sum;
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        return false;
    std::int64_t t0 = log.empty() ? 0 : log.front().start;
    os << "[\n";
    for (std::size_t i = 0; i < log.size(); ++i) {
        const Span &s = log[i];
        os << "  {\"id\": " << i << ", \"name\": \"" << s.name
           << "\", \"start_ns\": " << (s.start - t0)
           << ", \"end_ns\": " << (s.end - t0) << ", \"parent\": "
           << s.parent << ", \"op\": " << s.op << "}"
           << (i + 1 < log.size() ? ",\n" : "\n");
    }
    os << "]\n";
    return static_cast<bool>(os);
}

void
Digest::word(std::uint64_t w)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (w >> (8 * i)) & 0xffu;
        h *= 1099511628211ull;
    }
}

std::string
Digest::hex() const
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KB
}

double
currentRssKb()
{
    std::ifstream is("/proc/self/statm");
    long pages_total = 0;
    long pages_resident = 0;
    is >> pages_total >> pages_resident;
    return static_cast<double>(pages_resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

std::uint64_t
dirBytes(const std::string &dir)
{
    std::uint64_t sum = 0;
    std::error_code ec;
    for (const auto &e : std::filesystem::directory_iterator(dir, ec))
        if (e.is_regular_file(ec))
            sum += e.file_size(ec);
    return sum;
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (first_failures.size() < 8)
        first_failures.push_back(what);
}

std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return z == 0 ? 1 : z;
}

std::string
fmt(double v, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
    return buf;
}

} // namespace perfbench
