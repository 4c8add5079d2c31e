#include "syndog/util/config.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "syndog/util/strings.hpp"

namespace syndog::util {

std::optional<std::string> env_var(std::string_view name) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- read before any thread starts
  const char* value = std::getenv(std::string(name).c_str());
  if (value == nullptr) return std::nullopt;
  return std::string(value);
}

namespace {
[[noreturn]] void bad_value(std::string_view key, std::string_view value,
                            const char* kind) {
  throw std::invalid_argument("config key '" + std::string(key) +
                              "': cannot parse '" + std::string(value) +
                              "' as " + kind);
}
}  // namespace

Config Config::from_text(std::string_view text) {
  Config cfg;
  for (const std::string& raw : split(text, '\n')) {
    std::string_view line = trim(raw);
    if (const std::size_t hash = line.find('#');
        hash != std::string_view::npos) {
      line = trim(line.substr(0, hash));
    }
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw std::invalid_argument("config: malformed line '" +
                                  std::string(line) + "'");
    }
    cfg.set(std::string(trim(line.substr(0, eq))),
            std::string(trim(line.substr(eq + 1))));
  }
  return cfg;
}

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw std::invalid_argument("config: expected key=value, got '" +
                                  std::string(arg) + "'");
    }
    cfg.set(std::string(trim(arg.substr(0, eq))),
            std::string(trim(arg.substr(eq + 1))));
  }
  return cfg;
}

void Config::set(std::string key, std::string value) {
  entries_[std::move(key)] = std::move(value);
}

void Config::merge(const Config& overrides) {
  for (const auto& [key, value] : overrides.entries_) {
    entries_[key] = value;
  }
}

bool Config::contains(std::string_view key) const {
  return entries_.find(key) != entries_.end();
}

std::optional<std::string> Config::get(std::string_view key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(std::string_view key,
                               std::string fallback) const {
  if (auto v = get(key)) return *v;
  return fallback;
}

std::int64_t Config::get_int(std::string_view key,
                             std::int64_t fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  std::int64_t out = 0;
  if (!parse_whole(*v, out)) bad_value(key, *v, "integer");
  return out;
}

double Config::get_double(std::string_view key, double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  double out = 0.0;
  if (!parse_whole(*v, out)) bad_value(key, *v, "double");
  return out;
}

bool Config::get_bool(std::string_view key, bool fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  if (iequals(*v, "true") || *v == "1" || iequals(*v, "yes")) return true;
  if (iequals(*v, "false") || *v == "0" || iequals(*v, "no")) return false;
  bad_value(key, *v, "bool");
}

void Config::require_known_keys(
    std::initializer_list<std::string_view> known) const {
  for (const auto& [key, value] : entries_) {
    if (std::find(known.begin(), known.end(), key) != known.end()) continue;
    std::string list;
    for (const std::string_view k : known) {
      list += list.empty() ? "" : ", ";
      list += k;
    }
    throw std::invalid_argument("config: unknown key '" + key +
                                "' (expected one of: " + list + ")");
  }
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [key, value] : entries_) out.push_back(key);
  return out;
}

}  // namespace syndog::util
