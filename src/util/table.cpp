#include "util/table.hpp"

#include <algorithm>

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
  std::string out;
  append_to(out);
  return out;
}

void Table::append_to(std::string& out) const {
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
  // Every line is "|" + " cell |" per column + "\n".
  std::size_t line = 2;
  for (const std::size_t w : widths) line += w + 3;
  out.reserve(out.size() + line * (rows_.size() + 2));

  auto emit_cells = [&](const std::vector<std::string>& cells) {
    out += '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const std::string& text = cells[c];
      const std::size_t pad = widths[c] - text.size();
      out += ' ';
      if (alignments_[c] == Align::kRight) out.append(pad, ' ');
      out += text;
      if (alignments_[c] == Align::kLeft) out.append(pad, ' ');
      out += " |";
    }
    out += '\n';
  };
  auto emit_separator = [&] {
    out += '|';
    for (const std::size_t w : widths) {
      out.append(w + 2, '-');
      out += '|';
    }
    out += '\n';
  };

  emit_cells(headers_);
  emit_separator();
  for (const Row& row : rows_) {
    if (row.separator) {
      emit_separator();
    } else {
      emit_cells(row.cells);
    }
  }
}

}  // namespace streamcalc::util
