// The command-line argument parser behind obx_cli.
#include <gtest/gtest.h>

#include "common/cli.hpp"

namespace {

using obx::cli::Args;

Args parse(std::initializer_list<const char*> argv,
           const std::set<std::string>& flags = {},
           const std::set<std::string>& known = {}) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), argv.begin(), argv.end());
  return Args::parse(static_cast<int>(v.size()), v.data(), flags, known);
}

TEST(Cli, PositionalAndOptions) {
  const Args args = parse({"run", "fft", "--n", "64", "--p=128"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "run");
  EXPECT_EQ(args.positional()[1], "fft");
  EXPECT_EQ(args.get_int("n", 0), 64);
  EXPECT_EQ(args.get_int("p", 0), 128);
}

TEST(Cli, Defaults) {
  const Args args = parse({"run"});
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(args.get_bool("missing"));
}

TEST(Cli, BooleanFlags) {
  const Args args = parse({"--overlap", "--n", "4"}, {"overlap"});
  EXPECT_TRUE(args.get_bool("overlap"));
  EXPECT_EQ(args.get_int("n", 0), 4);
  EXPECT_THROW(parse({"--overlap=yes"}, {"overlap"}), std::logic_error);
}

TEST(Cli, EqualsSyntax) {
  const Args args = parse({"--model=dmm", "--ratio=2.5"});
  EXPECT_EQ(args.get("model", ""), "dmm");
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0), 2.5);
}

TEST(Cli, Validation) {
  EXPECT_THROW(parse({"--n"}), std::logic_error);                       // missing value
  EXPECT_THROW(parse({"--n", "abc"}).get_int("n", 0), std::logic_error);
  EXPECT_THROW(parse({"--x", "1y"}).get_double("x", 0), std::logic_error);
  EXPECT_THROW(parse({"--bogus", "1"}, {}, {"n"}), std::logic_error);   // unknown
  EXPECT_NO_THROW(parse({"--n", "1"}, {}, {"n"}));
}

TEST(Cli, MalformedCommandLinesAreUsageErrors) {
  using obx::cli::UsageError;
  EXPECT_THROW(parse({"--n"}), UsageError);
  EXPECT_THROW(parse({"--overlap=yes"}, {"overlap"}), UsageError);
  EXPECT_THROW(parse({"--=1"}), UsageError);
  try {
    parse({"--x"}, {}, {"n"});
    ADD_FAILURE() << "unknown option accepted";
  } catch (const UsageError& e) {
    EXPECT_STREQ(e.what(), "unknown option --x");
  }
  // --help is an option like any other: a tool that lists it as a flag
  // gets it, and one that does not reports it as unknown.
  EXPECT_TRUE(parse({"serve", "--help"}, {"help"}, {"n"}).get_bool("help"));
  EXPECT_THROW(parse({"--help"}, {}, {"n"}), UsageError);
}

TEST(Cli, HostPortIsStrict) {
  const auto host_port = [](const char* text) {
    return parse({"--listen", text}).get_host_port("listen", "");
  };
  const obx::cli::HostPort full = host_port("10.0.0.7:9090");
  EXPECT_EQ(full.host, "10.0.0.7");
  EXPECT_EQ(full.port, 9090);
  EXPECT_EQ(host_port("localhost:65535").port, 65535);
  const obx::cli::HostPort bare = host_port(":0");
  EXPECT_EQ(bare.host, "");
  EXPECT_EQ(bare.port, 0);
  EXPECT_EQ(parse({}).get_host_port("listen", "127.0.0.1:0").host, "127.0.0.1");

  // Out of range used to wrap (:70000 became port 4464); garbage used to
  // escape as std::stoi's exception.
  for (const char* bad : {":70000", ":65536", ":99999", ":abc", ":80x", ": 80",
                          ":+80", ":-1", ":0x50", ":000080", "127.0.0.1",
                          "127.0.0.1:", ""}) {
    EXPECT_THROW(host_port(bad), obx::cli::UsageError) << "'" << bad << "'";
  }
  try {
    host_port(":70000");
  } catch (const obx::cli::UsageError& e) {
    EXPECT_STREQ(e.what(), "--listen expects HOST:PORT with PORT in 0-65535, got: :70000");
  }
}

// A malformed or out-of-range number is a usage error (the tools print the
// message and their usage, and exit 2), never a failed internal check or a
// stray std::out_of_range.
TEST(Cli, BadNumbersAreUsageErrors) {
  using obx::cli::UsageError;
  for (const char* bad : {"abc", "12x", "", "1.5", "99999999999999999999"}) {
    EXPECT_THROW(parse({"--n", bad}).get_int("n", 0), UsageError) << "'" << bad << "'";
  }
  for (const char* bad : {"abc", "1y", "", "1e999", "-1e999"}) {
    EXPECT_THROW(parse({"--rate", bad}).get_double("rate", 0), UsageError)
        << "'" << bad << "'";
  }
  try {
    parse({"run", "fft", "--n", "abc"}).get_int("n", 64);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_STREQ(e.what(), "option --n is not an integer: abc");
  }
  try {
    parse({"serve-bench", "--rate", "1e999"}).get_double("rate", 40000);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_STREQ(e.what(), "option --rate is out of range: 1e999");
  }
}

TEST(Cli, NegativeNumbers) {
  const Args args = parse({"--n", "-5", "--x", "-2.5"});
  EXPECT_EQ(args.get_int("n", 0), -5);
  EXPECT_DOUBLE_EQ(args.get_double("x", 0), -2.5);
}

}  // namespace
