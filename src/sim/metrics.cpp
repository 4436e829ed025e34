#include "sim/metrics.hpp"

#include <sstream>
#include <stdexcept>

#include "common/vec_math.hpp"

namespace pdsl::sim {

double consensus_distance(const std::vector<std::vector<float>>& models) {
  if (models.empty()) return 0.0;
  const auto avg = average_model(models);
  double acc = 0.0;
  for (const auto& m : models) acc += l2_distance(m, avg);
  return acc / static_cast<double>(models.size());
}

std::vector<float> average_model(const std::vector<std::vector<float>>& models) {
  if (models.empty()) throw std::invalid_argument("average_model: no models");
  std::vector<const std::vector<float>*> ptrs;
  ptrs.reserve(models.size());
  for (const auto& m : models) ptrs.push_back(&m);
  return mean_of(ptrs);
}

double consensus_distance(const fleet::LazyMatrix& models) {
  if (models.empty()) return 0.0;
  const auto avg = average_model(models);
  double acc = 0.0;
  for (std::size_t i = 0; i < models.size(); ++i) acc += l2_distance(models[i], avg);
  return acc / static_cast<double>(models.size());
}

std::vector<float> average_model(const fleet::LazyMatrix& models) {
  if (models.empty()) throw std::invalid_argument("average_model: no models");
  std::vector<const std::vector<float>*> ptrs;
  ptrs.reserve(models.size());
  for (std::size_t i = 0; i < models.size(); ++i) ptrs.push_back(&models[i]);
  return mean_of(ptrs);
}

std::string deterministic_mismatch(const std::vector<RoundMetrics>& a,
                                   const std::vector<RoundMetrics>& b) {
  if (a.size() != b.size()) {
    return "length " + std::to_string(a.size()) + " vs " + std::to_string(b.size());
  }
  std::ostringstream diff;
  diff.precision(17);
  for (std::size_t r = 0; r < a.size(); ++r) {
    for (const RoundColumn& col : kRoundColumns) {
      if (col.is_volatile) continue;
      col.visit(
          [&](const auto& x, const auto& y) {
            if (x != y && diff.tellp() == 0) {
              diff << "round " << a[r].round << ' ' << col.name << ": " << x << " vs " << y;
            }
          },
          a[r], b[r]);
    }
  }
  return diff.str();
}

json::Object round_json(const RoundMetrics& m, bool volatile_columns) {
  json::Object o;
  if (volatile_columns) o["round"] = m.round;
  for (const RoundColumn& col : kRoundColumns) {
    if (col.is_volatile != volatile_columns) continue;
    col.visit([&](const auto& v) { o[col.name] = v; }, m);
  }
  return o;
}

void write_metrics_csv(const std::string& path, const std::string& run_label,
                       const std::vector<RoundMetrics>& series) {
  std::vector<std::string> header{"run"};
  for (const RoundColumn& col : kRoundColumns) header.emplace_back(col.name);
  CsvWriter csv(path, std::move(header));
  for (const auto& m : series) {
    CsvRow row;
    row << run_label;
    for (const RoundColumn& col : kRoundColumns) {
      col.visit([&](const auto& v) { row << v; }, m);
    }
    csv.write(row);
  }
  csv.flush();
}

}  // namespace pdsl::sim
