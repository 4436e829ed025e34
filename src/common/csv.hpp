#pragma once
// CSV emission for experiment results. Every bench writes its series/rows
// both to stdout (human-readable) and to a CSV file so figures can be
// regenerated with any plotting tool.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace pdsl {

/// One CSV line built cell by cell, for rows whose arity is only known at
/// run time; each cell is formatted with operator<<.
class CsvRow {
 public:
  template <typename T>
  CsvRow& operator<<(const T& cell) {
    if (cells_++ > 0) oss_ << ',';
    oss_ << cell;
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return cells_; }
  [[nodiscard]] std::string str() const { return oss_.str(); }

 private:
  std::ostringstream oss_;
  std::size_t cells_ = 0;
};

/// Append-only CSV writer with a fixed header. Throws std::runtime_error if
/// the file cannot be opened or a row has the wrong arity.
class CsvWriter {
 public:
  CsvWriter(const std::string& path, std::vector<std::string> columns);

  /// Write one row; each cell is formatted with operator<<.
  template <typename... Cells>
  void row(Cells&&... cells) {
    CsvRow r;
    (r << ... << cells);
    write(r);
  }

  /// Write one runtime-arity row.
  void write(const CsvRow& row);

  void flush();
  [[nodiscard]] std::size_t rows_written() const { return rows_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::ofstream out_;
  std::string path_;
  std::size_t columns_ = 0;
  std::size_t rows_ = 0;
};

/// Parse a CSV line into cells (no quoting support; our writers never quote).
std::vector<std::string> split_csv_line(const std::string& line);

/// Read an entire CSV file (including header) produced by CsvWriter.
std::vector<std::vector<std::string>> read_csv(const std::string& path);

}  // namespace pdsl
