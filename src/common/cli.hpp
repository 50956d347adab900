// Minimal command-line parsing for the obx tools.
//
// Supports `--key value`, `--key=value`, boolean `--flag`, and positional
// arguments.  Unknown options are errors; values are validated on access.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace obx::cli {

/// A command line the tool cannot run: an unknown option, a missing value,
/// a malformed or out-of-range number, a malformed HOST:PORT.  Tools print
/// what() and their usage, and exit 2.
class UsageError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

struct HostPort {
  std::string host;  ///< may be empty: the socket layer's default host
  std::uint16_t port = 0;
};

class Args {
 public:
  /// Parses argv[1..); `bool_flags` names the options that take no value.
  /// Throws UsageError on malformed input, or on an option outside
  /// `bool_flags` and `known_options` when `known_options` is non-empty.
  static Args parse(int argc, const char* const* argv,
                    const std::set<std::string>& bool_flags = {},
                    const std::set<std::string>& known_options = {});

  bool has(const std::string& key) const { return options_.count(key) > 0; }

  std::string get(const std::string& key, const std::string& fallback) const;
  /// The option as a number, or `fallback` when absent.  Throws UsageError
  /// when the value is not a number or does not fit the type.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  /// `--key HOST:PORT`, strictly: PORT is decimal digits in [0, 65535] and
  /// HOST is everything before the last ':'.  Throws UsageError otherwise.
  HostPort get_host_port(const std::string& key, const std::string& fallback) const;
  bool get_bool(const std::string& key) const { return has(key); }

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace obx::cli
