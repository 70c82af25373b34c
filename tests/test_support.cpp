#include <gtest/gtest.h>

#include <cmath>

#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"
#include "support/strings.hpp"

namespace {

using support::Code;
using support::Result;
using support::Status;

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), Code::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = support::invalid_argument("bad thing");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), Code::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.to_string(), "INVALID_ARGUMENT: bad thing");
}

TEST(Status, AllConstructorsProduceDistinctCodes) {
  EXPECT_EQ(support::not_found("x").code(), Code::kNotFound);
  EXPECT_EQ(support::already_exists("x").code(), Code::kAlreadyExists);
  EXPECT_EQ(support::failed_precondition("x").code(),
            Code::kFailedPrecondition);
  EXPECT_EQ(support::out_of_range("x").code(), Code::kOutOfRange);
  EXPECT_EQ(support::unimplemented("x").code(), Code::kUnimplemented);
  EXPECT_EQ(support::internal_error("x").code(), Code::kInternal);
  EXPECT_EQ(support::io_error("x").code(), Code::kIo);
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(Result, HoldsStatus) {
  Result<int> r(support::not_found("gone"));
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Code::kNotFound);
}

TEST(Result, TakeMovesValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = std::move(r).take();
  EXPECT_EQ(v, "hello");
}

TEST(Result, MacroPropagatesError) {
  auto inner = []() -> Result<int> {
    return support::invalid_argument("inner");
  };
  auto outer = [&]() -> Status {
    SUP_ASSIGN_OR_RETURN(int v, inner());
    (void)v;
    return Status::ok();
  };
  EXPECT_EQ(outer().code(), Code::kInvalidArgument);
}

TEST(Strings, Trim) {
  EXPECT_EQ(support::trim("  abc \n"), "abc");
  EXPECT_EQ(support::trim(""), "");
  EXPECT_EQ(support::trim("   "), "");
  EXPECT_EQ(support::trim("x"), "x");
}

TEST(Strings, Split) {
  auto parts = support::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(support::split("", ',').size(), 1u);
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(support::starts_with("pos=1,2", "pos="));
  EXPECT_FALSE(support::starts_with("po", "pos="));
  EXPECT_TRUE(support::ends_with("file.xml", ".xml"));
  EXPECT_FALSE(support::ends_with(".xml", "file.xml"));
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(support::parse_int("42").value(), 42);
  EXPECT_EQ(support::parse_int(" -7 ").value(), -7);
  EXPECT_FALSE(support::parse_int("").is_ok());
  EXPECT_FALSE(support::parse_int("12x").is_ok());
  EXPECT_FALSE(support::parse_int("4.5").is_ok());
  EXPECT_FALSE(support::parse_int("999999999999999999999999").is_ok());

  // parse_int_in: inclusive bounds, and a parse error stays one.
  EXPECT_EQ(support::parse_int_in("1", 1, 64).value(), 1);
  EXPECT_EQ(support::parse_int_in("64", 1, 64).value(), 64);
  auto low = support::parse_int_in("0", 1, 64);
  ASSERT_FALSE(low.is_ok());
  EXPECT_EQ(low.status().message(), "0 is outside [1, 64]");
  EXPECT_FALSE(support::parse_int_in("65", 1, 64).is_ok());
  EXPECT_FALSE(support::parse_int_in("abc", 1, 64).is_ok());
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(support::parse_double("2.5").value(), 2.5);
  EXPECT_FALSE(support::parse_double("abc").is_ok());
}

TEST(Strings, IsIdentifier) {
  EXPECT_TRUE(support::is_identifier("abc_1"));
  EXPECT_TRUE(support::is_identifier("_x"));
  EXPECT_TRUE(support::is_identifier("a.b-c"));
  EXPECT_FALSE(support::is_identifier(""));
  EXPECT_FALSE(support::is_identifier("1abc"));
  EXPECT_FALSE(support::is_identifier("a b"));
}

TEST(Strings, Format) {
  EXPECT_EQ(support::format("x=%d y=%s", 3, "hi"), "x=3 y=hi");
  EXPECT_EQ(support::format("%s", ""), "");
}

TEST(Rng, Deterministic) {
  support::SplitMix64 a(123);
  support::SplitMix64 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  support::SplitMix64 a(1);
  support::SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

class RngRangeTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(RngRangeTest, NextRangeStaysInBounds) {
  support::SplitMix64 rng(static_cast<uint64_t>(GetParam()) + 7);
  int64_t lo = -GetParam();
  int64_t hi = GetParam();
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.next_range(lo, hi);
    EXPECT_GE(v, lo);
    EXPECT_LE(v, hi);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranges, RngRangeTest,
                         ::testing::Values(1, 3, 10, 255, 1000));

TEST(Rng, DoubleInUnitInterval) {
  support::SplitMix64 rng(99);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// --- support::json ----------------------------------------------------------

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(support::json::parse("null").value().is_null());
  EXPECT_TRUE(support::json::parse("true").value().boolean());
  EXPECT_FALSE(support::json::parse("false").value().boolean());
  EXPECT_DOUBLE_EQ(support::json::parse("-12.5e2").value().number(),
                   -1250.0);
  EXPECT_EQ(support::json::parse("42").value().number_int(), 42);
  EXPECT_EQ(support::json::parse("\"hi\"").value().str(), "hi");
}

TEST(Json, ParsesNestedStructures) {
  auto parsed = support::json::parse(
      R"({"a": [1, 2, {"b": "x"}], "c": {"d": null}, "e": false})");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const support::json::Value& root = parsed.value();
  ASSERT_TRUE(root.is_object());
  const support::json::Value* a = root.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array().size(), 3u);
  EXPECT_EQ(a->array()[0].number_int(), 1);
  EXPECT_EQ(a->array()[2].string_or("b", ""), "x");
  ASSERT_NE(root.find("c"), nullptr);
  EXPECT_TRUE(root.find("c")->find("d")->is_null());
  EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(Json, DecodesStringEscapes) {
  auto parsed =
      support::json::parse(R"("a\"b\\c\nd\teAé")");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().str(), "a\"b\\c\nd\teA\xC3\xA9");
}

TEST(Json, PreservesObjectOrderAndDuplicates) {
  auto parsed = support::json::parse(R"({"z": 1, "a": 2})");
  ASSERT_TRUE(parsed.is_ok());
  const auto& members = parsed.value().object();
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(support::json::parse("").is_ok());
  EXPECT_FALSE(support::json::parse("{").is_ok());
  EXPECT_FALSE(support::json::parse("[1,]").is_ok());
  EXPECT_FALSE(support::json::parse("{\"a\" 1}").is_ok());
  EXPECT_FALSE(support::json::parse("nul").is_ok());
  EXPECT_FALSE(support::json::parse("1 2").is_ok());
  EXPECT_FALSE(support::json::parse("\"unterminated").is_ok());
  EXPECT_FALSE(support::json::parse("\"bad\\q\"").is_ok());
  // Errors carry a byte offset.
  EXPECT_NE(support::json::parse("[1,]").status().message().find("byte"),
            std::string::npos);
}

TEST(Json, NumberOrAndStringOrFallbacks) {
  auto parsed = support::json::parse(R"({"n": 3, "s": "v"})");
  ASSERT_TRUE(parsed.is_ok());
  const support::json::Value& root = parsed.value();
  EXPECT_DOUBLE_EQ(root.number_or("n", -1), 3);
  EXPECT_DOUBLE_EQ(root.number_or("s", -1), -1);  // wrong type
  EXPECT_EQ(root.string_or("s", "d"), "v");
  EXPECT_EQ(root.string_or("n", "d"), "d");  // wrong type
  EXPECT_EQ(root.string_or("missing", "d"), "d");
}

TEST(Json, ParsesExponentFormNumbers) {
  EXPECT_DOUBLE_EQ(support::json::parse("6.02e23").value().number(),
                   6.02e23);
  EXPECT_DOUBLE_EQ(support::json::parse("1E+3").value().number(), 1000.0);
  EXPECT_DOUBLE_EQ(support::json::parse("-2.5e-2").value().number(),
                   -0.025);
  EXPECT_DOUBLE_EQ(support::json::parse("5e0").value().number(), 5.0);
  // Huge magnitudes saturate rather than reject (JSON has no range
  // limit).
  auto huge = support::json::parse("1e999");
  ASSERT_TRUE(huge.is_ok());
  EXPECT_TRUE(std::isinf(huge.value().number()));
  auto neg_huge = support::json::parse("-1e999");
  ASSERT_TRUE(neg_huge.is_ok());
  EXPECT_TRUE(std::isinf(neg_huge.value().number()));
  EXPECT_LT(neg_huge.value().number(), 0);
  // Exponent without digits is still malformed.
  EXPECT_FALSE(support::json::parse("1e").is_ok());
  EXPECT_FALSE(support::json::parse("1e+").is_ok());
}

TEST(Json, CombinesSurrogatePairsIntoUtf8) {
  // U+1D11E (musical G clef) = 𝄞: one 4-byte UTF-8 sequence,
  // not two 3-byte CESU-8 halves.
  auto parsed = support::json::parse(R"("𝄞")");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().str(), "\xF0\x9D\x84\x9E");
  // An emoji the trace-name corpus actually contains.
  auto emoji = support::json::parse(R"("😀")");
  ASSERT_TRUE(emoji.is_ok());
  EXPECT_EQ(emoji.value().str(), "\xF0\x9F\x98\x80");
  // A high surrogate not followed by a low one passes through as-is
  // (lenient), and the follower is decoded on its own.
  auto unpaired = support::json::parse(R"("\uD834x")");
  ASSERT_TRUE(unpaired.is_ok());
  EXPECT_EQ(unpaired.value().str(), "\xED\xA0\xB4x");
  // "\u" follower that is not a low surrogate: the parser rewinds and
  // decodes it as its own escape.
  auto not_low = support::json::parse(R"("\uD834\u0041")");
  ASSERT_TRUE(not_low.is_ok());
  EXPECT_EQ(not_low.value().str(), "\xED\xA0\xB4\x41");
  // Truncated escapes still reject.
  EXPECT_FALSE(support::json::parse(R"("\uD834\u12")").is_ok());
}

TEST(Json, AcceptsDeeplyNestedArrays) {
  // 512 levels: rejected by the old depth cap of 200, comfortably
  // within real stack limits.
  std::string deep;
  for (int i = 0; i < 512; ++i) deep += '[';
  deep += '1';
  for (int i = 0; i < 512; ++i) deep += ']';
  auto parsed = support::json::parse(deep);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const support::json::Value* v = &parsed.value();
  for (int i = 0; i < 512; ++i) {
    ASSERT_TRUE(v->is_array());
    ASSERT_EQ(v->array().size(), 1u);
    v = &v->array()[0];
  }
  EXPECT_EQ(v->number_int(), 1);
  // The (raised) recursion cap still exists.
  std::string too_deep;
  for (int i = 0; i < 2000; ++i) too_deep += '[';
  EXPECT_FALSE(support::json::parse(too_deep).is_ok());
}

}  // namespace
