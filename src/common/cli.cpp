#include "common/cli.hpp"

#include <charconv>
#include <stdexcept>

namespace obx::cli {

Args Args::parse(int argc, const char* const* argv,
                 const std::set<std::string>& bool_flags,
                 const std::set<std::string>& known_options) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      args.positional_.push_back(std::move(token));
      continue;
    }
    std::string key = token.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
      has_value = true;
    }
    if (key.empty()) throw UsageError("empty option name");
    if (!known_options.empty() && known_options.count(key) == 0 &&
        bool_flags.count(key) == 0) {
      throw UsageError("unknown option --" + key);
    }
    if (bool_flags.count(key) > 0) {
      if (has_value) throw UsageError("flag --" + key + " takes no value");
      args.options_[key] = "true";
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) throw UsageError("option --" + key + " needs a value");
      value = argv[++i];
    }
    args.options_[key] = std::move(value);
  }
  return args;
}

std::string Args::get(const std::string& key, const std::string& fallback) const {
  const auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t Args::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  std::int64_t out = 0;
  const auto& s = it->second;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec == std::errc::result_out_of_range) {
    throw UsageError("option --" + key + " is out of range: " + s);
  }
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    throw UsageError("option --" + key + " is not an integer: " + s);
  }
  return out;
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  const auto& s = it->second;
  std::size_t consumed = 0;  // stays 0 when stod finds no number
  double v = 0;
  try {
    v = std::stod(s, &consumed);
  } catch (const std::invalid_argument&) {
    // Reported below, with every other value that is not all number.
  } catch (const std::out_of_range&) {
    throw UsageError("option --" + key + " is out of range: " + s);
  }
  if (consumed == 0 || consumed != s.size()) {
    throw UsageError("option --" + key + " is not a number: " + s);
  }
  return v;
}

HostPort Args::get_host_port(const std::string& key,
                             const std::string& fallback) const {
  const std::string text = get(key, fallback);
  const std::size_t colon = text.rfind(':');
  const std::string digits = colon == std::string::npos ? "" : text.substr(colon + 1);
  const bool well_formed = !digits.empty() && digits.size() <= 5 &&
                           digits.find_first_not_of("0123456789") == std::string::npos;
  unsigned port = 0;
  if (well_formed) std::from_chars(digits.data(), digits.data() + digits.size(), port);
  if (!well_formed || port > 65535) {
    throw UsageError("--" + key + " expects HOST:PORT with PORT in 0-65535, got: " +
                     text);
  }
  return HostPort{text.substr(0, colon), static_cast<std::uint16_t>(port)};
}

}  // namespace obx::cli
