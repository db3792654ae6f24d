#include "stats/table.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace pstat::stats
{

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header))
{
}

void
TextTable::addRow(std::vector<std::string> row)
{
    assert(row.size() == header_.size());
    rows_.push_back(std::move(row));
}

std::string
TextTable::render() const
{
    std::vector<size_t> width(header_.size());
    for (size_t c = 0; c < header_.size(); ++c)
        width[c] = header_[c].size();
    for (const auto &row : rows_) {
        for (size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());
    }

    auto emit_row = [&](const std::vector<std::string> &row,
                        std::string &out) {
        for (size_t c = 0; c < row.size(); ++c) {
            out += row[c];
            if (c + 1 < row.size())
                out += std::string(width[c] - row[c].size() + 2, ' ');
        }
        out += '\n';
    };

    std::string out;
    emit_row(header_, out);
    size_t total = 0;
    for (size_t c = 0; c < width.size(); ++c)
        total += width[c] + (c + 1 < width.size() ? 2 : 0);
    out += std::string(total, '-');
    out += '\n';
    for (const auto &row : rows_)
        emit_row(row, out);
    return out;
}

void
TextTable::print() const
{
    std::fputs(render().c_str(), stdout);
}

std::string
formatDouble(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

std::string
formatSci(double value, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*e", digits - 1, value);
    return buf;
}

std::string
formatInt(long long value)
{
    char digits[32];
    std::snprintf(digits, sizeof(digits), "%lld",
                  value < 0 ? -value : value);
    std::string out = value < 0 ? "-" : "";
    const size_t n = std::strlen(digits);
    for (size_t i = 0; i < n; ++i) {
        out += digits[i];
        const size_t remaining = n - 1 - i;
        if (remaining > 0 && remaining % 3 == 0)
            out += ',';
    }
    return out;
}

std::string
formatPercent(double fraction, int decimals)
{
    return formatDouble(fraction * 100.0, decimals) + "%";
}

void
printBanner(const std::string &title)
{
    std::string bar(title.size() + 4, '=');
    std::printf("%s\n= %s =\n%s\n", bar.c_str(), title.c_str(),
                bar.c_str());
}

} // namespace pstat::stats
