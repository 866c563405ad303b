// Shared helpers for the per-table/figure benchmark harnesses.
#pragma once

#include <charconv>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/datasets.hpp"
#include "obs/json.hpp"
#include "sim/perf_model.hpp"
#include "simd/dispatch.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace hcc::bench {

/// DatasetShape (k = 128, the paper's setting) from a catalogue spec.
inline sim::DatasetShape shape_of(const data::DatasetSpec& spec,
                                  std::uint32_t k = 128) {
  return sim::DatasetShape{spec.name, spec.m, spec.n, spec.nnz, k};
}

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n==================================================================\n"
            << title << "\n(" << paper_ref << ")\n"
            << "==================================================================\n";
}

/// Machine-readable benchmark output behind the shared `--json-out=<path>`
/// flag: every bench binary keeps printing its stdout table and, when the
/// flag is given, also persists the same rows as one JSON document — the
/// BENCH_*.json perf trajectory CI archives.  Document shape:
///
///   {"bench": "<name>",
///    "meta": {"schema": 4, "schedule": "...", "tile_kb": N, "pin": 0|1,
///             "codec": "...", "host_cpus": N, "isa": "...",
///             "key": value, ...},
///    "sections": {"<section>": [{"col": value, ...}, ...], ...}}
///
/// Schema history: v1 had no schema marker; v2 stamps "schema" plus the
/// locality configuration every run carries — the schedule policy, its tile
/// budget and whether threads were pinned — parsed from the same argv the
/// bench itself reads, so two BENCH_*.json files are comparable at a glance
/// even for benches that predate the scheduler; v3 adds the wire "codec"
/// (the --codec flag: fp32/fp16/int8/2bit, default fp16); v4 stamps the
/// host every run measures on: its CPU count ("host_cpus") and the
/// dispatched SIMD kernel set ("isa").
///
/// Cells that parse fully as decimal numbers are emitted as JSON numbers
/// (so "0.368" stays a number while "18.3x" stays a string).
class JsonReport {
 public:
  /// Bumped when the document shape or standard meta set changes.
  static constexpr int kSchemaVersion = 4;

  /// Reads `--json-out` from argv; disabled (no file written) when absent.
  JsonReport(int argc, const char* const* argv, std::string bench_name)
      : bench_(std::move(bench_name)) {
    const util::Cli cli(argc, argv);
    path_ = cli.get("json-out", std::string());
    meta("schema", static_cast<double>(kSchemaVersion));
    meta("schedule", cli.get("schedule", std::string("asis")));
    meta("tile_kb",
         static_cast<double>(cli.get("tile-kb", std::int64_t{2048})));
    meta("pin", cli.get("pin", false) ? 1.0 : 0.0);
    meta("codec", cli.get("codec", std::string("fp16")));
    meta("host_cpus",
         static_cast<double>(std::thread::hardware_concurrency()));
    meta("isa", simd::kernels().name);
  }

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  ~JsonReport() { write(); }

  bool enabled() const noexcept { return !path_.empty(); }

  /// Top-level metadata (host, ISA, scale factors, ...).
  void meta(const std::string& key, const std::string& value) {
    meta_.emplace_back(key, quote(value));
  }
  void meta(const std::string& key, double value) {
    meta_.emplace_back(key, number(value));
  }

  /// Records a rendered stdout table under `section` (sections with the
  /// same name accumulate rows).
  void add_table(const std::string& section, const util::Table& table) {
    if (!enabled()) return;
    for (const auto& cells : table.row_cells()) {
      std::vector<std::pair<std::string, std::string>> row;
      for (std::size_t c = 0;
           c < cells.size() && c < table.header().size(); ++c) {
        row.emplace_back(table.header()[c], encode_cell(cells[c]));
      }
      rows_of(section).push_back(std::move(row));
    }
  }

  /// Records one free-form row; values pass through quote()/number().
  void add_row(const std::string& section,
               std::vector<std::pair<std::string, std::string>> encoded) {
    if (!enabled()) return;
    rows_of(section).push_back(std::move(encoded));
  }

  /// Value encoders for add_row.
  static std::string number(double v) {
    std::ostringstream os;
    os.precision(12);
    os << v;
    return os.str();
  }
  static std::string quote(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    out += obs::json_escape(s);
    out += '"';
    return out;
  }

  /// Writes the document; a no-op when disabled or already written.
  bool write() {
    if (!enabled() || written_) return false;
    written_ = true;
    std::ofstream out(path_);
    if (!out) {
      std::cerr << "json-out: cannot open " << path_ << "\n";
      return false;
    }
    out << "{\"bench\":\"" << obs::json_escape(bench_) << "\",\"meta\":{";
    for (std::size_t i = 0; i < meta_.size(); ++i) {
      if (i > 0) out << ",";
      out << "\"" << obs::json_escape(meta_[i].first)
          << "\":" << meta_[i].second;
    }
    out << "},\"sections\":{";
    for (std::size_t s = 0; s < sections_.size(); ++s) {
      if (s > 0) out << ",";
      out << "\"" << obs::json_escape(sections_[s].first) << "\":[";
      const auto& rows = sections_[s].second;
      for (std::size_t r = 0; r < rows.size(); ++r) {
        if (r > 0) out << ",";
        out << "{";
        for (std::size_t c = 0; c < rows[r].size(); ++c) {
          if (c > 0) out << ",";
          out << "\"" << obs::json_escape(rows[r][c].first)
              << "\":" << rows[r][c].second;
        }
        out << "}";
      }
      out << "]";
    }
    out << "}}\n";
    std::cout << "\njson-out: wrote " << path_ << "\n";
    return true;
  }

 private:
  using Row = std::vector<std::pair<std::string, std::string>>;

  std::vector<Row>& rows_of(const std::string& section) {
    for (auto& [name, rows] : sections_) {
      if (name == section) return rows;
    }
    sections_.emplace_back(section, std::vector<Row>{});
    return sections_.back().second;
  }

  /// Numbers stay numbers; everything else is quoted.
  static std::string encode_cell(const std::string& cell) {
    if (!cell.empty() &&
        cell.find_first_not_of("0123456789+-.eE") == std::string::npos) {
      double v = 0.0;
      const auto [ptr, ec] =
          std::from_chars(cell.data(), cell.data() + cell.size(), v);
      if (ec == std::errc() && ptr == cell.data() + cell.size()) return cell;
    }
    return quote(cell);
  }

  std::string bench_;
  std::string path_;
  bool written_ = false;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::pair<std::string, std::vector<Row>>> sections_;
};

}  // namespace hcc::bench
