#include "common/csv.hpp"

#include <stdexcept>

namespace pdsl {

CsvWriter::CsvWriter(const std::string& path, std::vector<std::string> columns)
    : out_(path), path_(path), columns_(columns.size()) {
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
  if (columns.empty()) throw std::invalid_argument("CsvWriter: no columns");
  std::string header;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i) header += ',';
    header += columns[i];
  }
  out_ << header << '\n';
}

void CsvWriter::write(const CsvRow& row) {
  if (row.size() != columns_) {
    throw std::invalid_argument("CsvWriter: row with " + std::to_string(row.size()) +
                                " cells, expected " + std::to_string(columns_));
  }
  out_ << row.str() << '\n';
  ++rows_;
}

void CsvWriter::flush() { out_.flush(); }

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cur;
  for (char c : line) {
    if (c == ',') {
      cells.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  cells.push_back(cur);
  return cells;
}

std::vector<std::vector<std::string>> read_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_csv: cannot open " + path);
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    rows.push_back(split_csv_line(line));
  }
  return rows;
}

}  // namespace pdsl
