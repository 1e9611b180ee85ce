// Tiny key=value option parser for the command-line tools.
//
// Accepts `key=value` tokens on the command line plus `--config FILE` where
// FILE holds one `key=value` per line ('#' comments allowed). Later values
// override earlier ones, and command-line tokens override the file.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace pmsb::experiments {

class Options {
 public:
  Options() = default;

  /// Parses argv tokens; throws std::invalid_argument on malformed input.
  static Options from_args(int argc, const char* const* argv);

  /// Parses a config file (one key=value per line, '#' comments).
  static Options from_file(const std::string& path);

  void set(const std::string& key, const std::string& value) { values_[key] = value; }
  void erase(const std::string& key) { values_.erase(key); }
  void merge_from(const Options& other);  ///< other's values win

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) > 0;
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = {}) const;
  /// The numeric getters throw std::invalid_argument naming the key when
  /// the value is not a number, has trailing junk, or is out of range.
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  /// get_int for a value that cannot be negative (a count, size, rate, id,
  /// seed or duration): also throws std::invalid_argument naming the key
  /// when the value is below `min` or above `max`, the most its destination
  /// holds.
  [[nodiscard]] std::uint64_t get_uint(
      const std::string& key, std::uint64_t fallback, std::uint64_t min = 0,
      std::uint64_t max = std::numeric_limits<std::int64_t>::max()) const;
  /// A finite real number in [min, max]: also throws std::invalid_argument
  /// naming the key when the value is NaN or infinite, below `min` or above
  /// `max`. No key takes a negative value, so `min` defaults to 0.
  [[nodiscard]] double get_double(
      const std::string& key, double fallback, double min = 0.0,
      double max = std::numeric_limits<double>::max()) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;
  /// Comma-separated list of doubles ("1,2.5,4"); every non-empty entry is
  /// checked as get_double checks a value.
  [[nodiscard]] std::vector<double> get_double_list(
      const std::string& key, double min = 0.0,
      double max = std::numeric_limits<double>::max()) const;
  /// Comma-separated list of unsigned integers; every non-empty entry is
  /// checked as get_uint checks a value.
  [[nodiscard]] std::vector<std::uint64_t> get_uint_list(const std::string& key,
                                                         std::uint64_t min,
                                                         std::uint64_t max) const;

  [[nodiscard]] const std::map<std::string, std::string>& values() const {
    return values_;
  }

  /// Throws std::invalid_argument naming the first key not in `allowed`,
  /// with a "did you mean" suggestion when a near-miss exists (within 3
  /// edits, or a quarter of the key's length if that is more). Tools call
  /// this after parsing so a typo (`trace_flow=3`) fails loudly instead of
  /// being silently ignored.
  void validate_keys(const std::vector<std::string>& allowed) const;

  /// The entry of `candidates` closest to `key` by edit distance, or ""
  /// when nothing is within `max_distance` edits.
  [[nodiscard]] static std::string closest_key(
      const std::string& key, const std::vector<std::string>& candidates,
      std::size_t max_distance = 3);

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace pmsb::experiments
