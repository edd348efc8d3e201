#include "util/table.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace streamcalc::util {

Table::Table(std::vector<std::string> headers, std::vector<Align> alignments)
    : headers_(std::move(headers)), alignments_(std::move(alignments)) {
  require(!headers_.empty(), "Table requires at least one column");
  if (alignments_.empty()) {
    alignments_.assign(headers_.size(), Align::kLeft);
  }
  require(alignments_.size() == headers_.size(),
          "Table alignment count must match header count");
}

void Table::add_row(std::vector<std::string> cells) {
  require(cells.size() == headers_.size(),
          "Table row arity must match header arity");
  rows_.push_back(Row{std::move(cells), /*separator=*/false});
}

void Table::add_separator() { rows_.push_back(Row{{}, /*separator=*/true}); }

std::string Table::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const Row& row : rows_) {
    if (row.separator) continue;
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      widths[c] = std::max(widths[c], row.cells[c].size());
    }
  }

  auto emit_cells = [&](std::ostringstream& os,
                        const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const std::string& text = cells[c];
      const std::size_t pad = widths[c] - text.size();
      os << ' ';
      if (alignments_[c] == Align::kRight) os << std::string(pad, ' ');
      os << text;
      if (alignments_[c] == Align::kLeft) os << std::string(pad, ' ');
      os << " |";
    }
    os << '\n';
  };
  auto emit_separator = [&](std::ostringstream& os) {
    os << '|';
    for (std::size_t c = 0; c < widths.size(); ++c) {
      os << std::string(widths[c] + 2, '-') << '|';
    }
    os << '\n';
  };

  std::ostringstream os;
  emit_cells(os, headers_);
  emit_separator(os);
  for (const Row& row : rows_) {
    if (row.separator) {
      emit_separator(os);
    } else {
      emit_cells(os, row.cells);
    }
  }
  return os.str();
}

}  // namespace streamcalc::util
