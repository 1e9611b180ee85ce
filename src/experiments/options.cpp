#include "experiments/options.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace pmsb::experiments {

namespace {
std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

/// Parses all of `text` with `parse` (std::stoll / std::stod). A value
/// that is not a number, carries trailing junk, or is out of range throws
/// std::invalid_argument naming `key`.
template <typename Parse>
auto parse_number(const std::string& key, const std::string& text, const char* what,
                  Parse parse) {
  std::size_t pos = 0;
  try {
    const auto v = parse(text, &pos);
    if (pos == text.size()) return v;
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("Options: '" + key + "' is out of range: '" + text + "'");
  } catch (const std::invalid_argument&) {
    // Not a number at all: reported below like trailing junk.
  }
  throw std::invalid_argument("Options: '" + key + "' is not " + what + ": '" + text +
                              "'");
}

std::int64_t parse_int(const std::string& key, const std::string& text) {
  return parse_number(key, text, "an integer",
                      [](const std::string& t, std::size_t* pos) { return std::stoll(t, pos); });
}

double parse_double(const std::string& key, const std::string& text) {
  return parse_number(key, text, "a number",
                      [](const std::string& t, std::size_t* pos) { return std::stod(t, pos); });
}

void parse_line(Options& opts, const std::string& raw, const std::string& where) {
  std::string line = raw;
  if (const auto hash = line.find('#'); hash != std::string::npos) {
    line = line.substr(0, hash);
  }
  line = trim(line);
  if (line.empty()) return;
  const auto eq = line.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::invalid_argument("Options: malformed '" + raw + "' in " + where);
  }
  opts.set(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
}
}  // namespace

Options Options::from_args(int argc, const char* const* argv) {
  Options file_opts;
  Options cli_opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--config") {
      if (i + 1 >= argc) throw std::invalid_argument("--config needs a path");
      file_opts.merge_from(from_file(argv[++i]));
      continue;
    }
    parse_line(cli_opts, arg, "argv");
  }
  file_opts.merge_from(cli_opts);  // command line wins
  return file_opts;
}

Options Options::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("Options: cannot open " + path);
  Options opts;
  std::string line;
  while (std::getline(in, line)) parse_line(opts, line, path);
  return opts;
}

void Options::merge_from(const Options& other) {
  for (const auto& [k, v] : other.values_) values_[k] = v;
}

std::string Options::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Options::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_int(key, it->second);
}

std::uint64_t Options::get_uint(const std::string& key, std::uint64_t fallback,
                                std::uint64_t min) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::int64_t v = parse_int(key, it->second);
  if (v < 0 || static_cast<std::uint64_t>(v) < min) {
    throw std::invalid_argument("Options: " + key + "=" + it->second +
                                " is below its minimum, " + std::to_string(min));
  }
  return static_cast<std::uint64_t>(v);
}

double Options::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_double(key, it->second);
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::string v = it->second;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::invalid_argument("Options: '" + key + "' is not a boolean");
}

namespace {
std::size_t edit_distance(const std::string& a, const std::string& b) {
  // Classic two-row Levenshtein; option keys are short so O(|a|*|b|) is fine.
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}
}  // namespace

std::string Options::closest_key(const std::string& key,
                                 const std::vector<std::string>& candidates,
                                 std::size_t max_distance) {
  std::string best;
  std::size_t best_dist = max_distance + 1;
  for (const auto& c : candidates) {
    const std::size_t d = edit_distance(key, c);
    if (d < best_dist) {
      best_dist = d;
      best = c;
    }
  }
  return best;
}

void Options::validate_keys(const std::vector<std::string>& allowed) const {
  for (const auto& [key, value] : values_) {
    if (std::find(allowed.begin(), allowed.end(), key) != allowed.end()) continue;
    std::string msg = "unknown option '" + key + "'";
    // Long keys earn a quarter of their length in edits, so a long key
    // that gained or lost a word still finds its match.
    const std::string suggestion =
        closest_key(key, allowed, std::max<std::size_t>(3, key.size() / 4));
    if (!suggestion.empty()) msg += " (did you mean '" + suggestion + "'?)";
    msg += "; run with --help for the key list";
    throw std::invalid_argument(msg);
  }
}

std::vector<double> Options::get_double_list(const std::string& key) const {
  std::vector<double> out;
  const auto it = values_.find(key);
  if (it == values_.end()) return out;
  std::stringstream ss(it->second);
  std::string cell;
  while (std::getline(ss, cell, ',')) {
    if (!trim(cell).empty()) out.push_back(parse_double(key, trim(cell)));
  }
  return out;
}

}  // namespace pmsb::experiments
