/**
 * @file
 * Plain-text table emission for the benchmark harnesses.
 *
 * Every bench binary prints rows in the same layout as the paper's
 * table or figure series so results can be compared side by side.
 */

#ifndef PSTAT_STATS_TABLE_HH
#define PSTAT_STATS_TABLE_HH

#include <string>
#include <vector>

namespace pstat::stats
{

/**
 * Fixed-column text table. Collects rows of strings, then prints with
 * per-column alignment. Numeric cells should be pre-formatted by the
 * caller (formatDouble / formatSci helpers below).
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    /** Append one row; must match the header arity. */
    void addRow(std::vector<std::string> row);

    /** Render to a string with aligned columns. */
    std::string render() const;

    /** Print to stdout. */
    void print() const;

    size_t rows() const { return rows_.size(); }

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format with fixed decimals, e.g. formatDouble(0.123456, 3) = 0.123. */
std::string formatDouble(double value, int decimals);

/** Scientific notation with given significant digits. */
std::string formatSci(double value, int digits);

/** Integer with thousands separators, e.g. 273,525. */
std::string formatInt(long long value);

/** Percentage string, e.g. formatPercent(0.6216) = "62.16%". */
std::string formatPercent(double fraction, int decimals = 2);

/** Print a section banner used by the bench binaries. */
void printBanner(const std::string &title);

} // namespace pstat::stats

#endif // PSTAT_STATS_TABLE_HH
