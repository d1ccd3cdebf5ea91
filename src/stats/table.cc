#include "stats/table.hh"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ostream>

#include "util/check.hh"

namespace chopin
{

TextTable::TextTable(std::vector<std::string> header) : head(std::move(header))
{
    CHOPIN_CHECK(!head.empty());
}

void
TextTable::addRow(std::vector<std::string> row)
{
    seq.assertHeld("TextTable::addRow");
    CHOPIN_CHECK(row.size() == head.size(), "row width ", row.size(),
                 " != header width ", head.size());
    body.push_back(std::move(row));
}

void
TextTable::print(std::ostream &os) const
{
    seq.assertHeld("TextTable::print");
    std::vector<std::size_t> width(head.size());
    for (std::size_t c = 0; c < head.size(); ++c)
        width[c] = head[c].size();
    for (const auto &row : body)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << row[c];
            if (c + 1 < row.size())
                os << std::string(width[c] - row[c].size() + 2, ' ');
        }
        os << "\n";
    };

    emit(head);
    std::size_t total = 0;
    for (std::size_t c = 0; c < width.size(); ++c)
        total += width[c] + (c + 1 < width.size() ? 2 : 0);
    os << std::string(total, '-') << "\n";
    for (const auto &row : body)
        emit(row);
}

void
TextTable::printCsv(std::ostream &os) const
{
    seq.assertHeld("TextTable::printCsv");
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << row[c];
            if (c + 1 < row.size())
                os << ",";
        }
        os << "\n";
    };
    emit(head);
    for (const auto &row : body)
        emit(row);
}

std::string
formatDouble(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

std::string
formatMb(std::uint64_t bytes)
{
    return formatDouble(static_cast<double>(bytes) / (1024.0 * 1024.0), 2);
}

} // namespace chopin
