#include "base/table.hh"

#include <cstdio>
#include <sstream>

namespace ctg
{

Table::Table(std::string title)
    : title_(std::move(title))
{}

void
Table::header(std::vector<std::string> cells)
{
    header_ = std::move(cells);
}

void
Table::row(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

std::string
Table::render() const
{
    std::vector<std::size_t> widths;
    auto grow = [&widths](const std::vector<std::string> &cells) {
        if (widths.size() < cells.size())
            widths.resize(cells.size(), 0);
        for (std::size_t i = 0; i < cells.size(); ++i)
            widths[i] = std::max(widths[i], cells[i].size());
    };
    grow(header_);
    for (const auto &r : rows_)
        grow(r);

    std::ostringstream out;
    if (!title_.empty())
        out << "== " << title_ << " ==\n";
    auto emit = [&out, &widths](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            out << cells[i];
            if (i + 1 < cells.size()) {
                out << std::string(widths[i] - cells[i].size() + 2, ' ');
            }
        }
        out << '\n';
    };
    if (!header_.empty()) {
        emit(header_);
        std::size_t rule = 0;
        for (std::size_t w : widths)
            rule += w + 2;
        out << std::string(rule > 2 ? rule - 2 : rule, '-') << '\n';
    }
    for (const auto &r : rows_)
        emit(r);
    return out.str();
}

void
Table::print() const
{
    std::fputs(render().c_str(), stdout);
}

std::string
cell(double v, int decimals)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

std::string
cell(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace ctg
