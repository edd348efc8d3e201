// Minimal ASCII table renderer used by the benchmark harnesses to print the
// paper's tables in an aligned, diff-friendly form.
#pragma once

#include <string>
#include <vector>

namespace streamcalc::util {

/// Column alignment inside a rendered table.
enum class Align { kLeft, kRight };

/// A simple text table: set headers, append rows, render.
///
/// Rendering style matches the paper's tables:
///
///   | Source                       | Value     |
///   |------------------------------|-----------|
///   | Network calculus upper bound | 704 MiB/s |
class Table {
 public:
  explicit Table(std::vector<std::string> headers,
                 std::vector<Align> alignments = {});

  /// Appends one row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Appends a horizontal separator row.
  void add_separator();

  std::string render() const;
  /// render(), appended to `out`.
  void append_to(std::string& out) const;
  std::size_t row_count() const { return rows_.size(); }

 private:
  struct Row {
    std::vector<std::string> cells;
    bool separator = false;
  };
  std::vector<std::string> headers_;
  std::vector<Align> alignments_;
  std::vector<Row> rows_;
};

}  // namespace streamcalc::util
