/**
 * @file
 * Minimal fixed-width table renderer used by the bench binaries to
 * print paper-style result rows (one table/series per figure).
 */

#ifndef CTG_BASE_TABLE_HH
#define CTG_BASE_TABLE_HH

#include <string>
#include <vector>

namespace ctg
{

/**
 * Accumulates rows of string cells and renders them with aligned
 * columns, a header rule, and an optional title banner.
 */
class Table
{
  public:
    explicit Table(std::string title = "");

    /** Set the header row. */
    void header(std::vector<std::string> cells);

    /** Append a data row. */
    void row(std::vector<std::string> cells);

    /** Render to a string. */
    std::string render() const;

    /** Render to stdout. */
    void print() const;

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Shorthand for formatting doubles into table cells. */
std::string cell(double v, int decimals = 2);
std::string cell(std::uint64_t v);

} // namespace ctg

#endif // CTG_BASE_TABLE_HH
