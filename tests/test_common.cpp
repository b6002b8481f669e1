// Unit tests for the df_common utility library.
#include <gtest/gtest.h>

#include <vector>

#include "dfdbg/common/ids.hpp"
#include "dfdbg/common/json.hpp"
#include "dfdbg/common/prng.hpp"
#include "dfdbg/common/ring_buffer.hpp"
#include "dfdbg/common/status.hpp"
#include "dfdbg/common/strings.hpp"

namespace dfdbg {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(static_cast<bool>(s));
  EXPECT_EQ(s.message(), "");
}

TEST(Status, ErrorCarriesMessage) {
  Status s = Status::error("boom");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "boom");
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(Result, HoldsError) {
  Result<int> r = Status::error("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "nope");
}

TEST(Ids, InvalidByDefault) {
  struct Tag {};
  Id<Tag> id;
  EXPECT_FALSE(id.valid());
  Id<Tag> a(3), b(3), c(4);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
}

TEST(RingBuffer, FifoOrder) {
  RingBuffer<int> rb(4);
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(rb.push(i));
  EXPECT_EQ(rb.size(), 4u);
  EXPECT_EQ(rb.front(), 0);
  EXPECT_EQ(rb.back(), 3);
}

TEST(RingBuffer, EvictsOldest) {
  RingBuffer<int> rb(3);
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_TRUE(rb.push(4));
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.front(), 2);
  EXPECT_EQ(rb.back(), 4);
  EXPECT_EQ(rb.total_pushed(), 4u);
}

TEST(RingBuffer, AtIndexesFromOldest) {
  RingBuffer<int> rb(3);
  for (int i = 0; i < 5; ++i) rb.push(i);
  EXPECT_EQ(rb.at(0), 2);
  EXPECT_EQ(rb.at(1), 3);
  EXPECT_EQ(rb.at(2), 4);
}

TEST(RingBuffer, CapacityBeforeAnyPush) {
  RingBuffer<int> rb(1u << 17);
  EXPECT_EQ(rb.capacity(), 1u << 17);
  EXPECT_EQ(rb.size(), 0u);
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(rb.total_pushed(), 0u);
}

/// Counts its live instances; has no default constructor.
struct Tracked {
  int* live;
  int v;
  Tracked(int* l, int x) : live(l), v(x) { ++*live; }
  Tracked(const Tracked& o) : live(o.live), v(o.v) { ++*live; }
  Tracked& operator=(const Tracked&) = default;
  ~Tracked() { --*live; }
};

/// No slot is constructed until an element is pushed into it: a ring needs
/// neither a default constructor nor value-initialised storage.
TEST(RingBuffer, SlotsAreOnlyConstructedByPushes) {
  int live = 0;
  {
    RingBuffer<Tracked> rb(1000);
    EXPECT_EQ(live, 0);
    rb.push(Tracked(&live, 7));
    EXPECT_EQ(live, 1);
    EXPECT_EQ(rb.front().v, 7);
  }
  EXPECT_EQ(live, 0);
}

TEST(RingBuffer, WrapsAndEvictsInPushOrder) {
  RingBuffer<int> rb(4);
  std::vector<bool> evicted;
  for (int i = 0; i < 11; ++i) evicted.push_back(rb.push(i));
  EXPECT_EQ(evicted, (std::vector<bool>{false, false, false, false, true, true, true, true, true,
                                        true, true}));
  ASSERT_EQ(rb.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(rb.at(i), 7 + static_cast<int>(i));
  EXPECT_EQ(rb.front(), 7);
  EXPECT_EQ(rb.back(), 10);
  EXPECT_EQ(rb.total_pushed(), 11u);
}

TEST(RingBuffer, ClearAfterWrapThenRefill) {
  RingBuffer<int> rb(3);
  for (int i = 0; i < 5; ++i) rb.push(i);  // wrapped: holds 2, 3, 4
  rb.clear();
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(rb.capacity(), 3u);
  EXPECT_EQ(rb.total_pushed(), 5u);  // a lifetime count; clear() keeps it
  EXPECT_FALSE(rb.push(10));
  EXPECT_FALSE(rb.push(11));
  ASSERT_EQ(rb.size(), 2u);
  EXPECT_EQ(rb.front(), 10);
  EXPECT_EQ(rb.back(), 11);
  EXPECT_FALSE(rb.push(12));
  EXPECT_TRUE(rb.push(13));  // full again: evicts 10, the oldest since clear()
  ASSERT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.at(0), 11);
  EXPECT_EQ(rb.at(1), 12);
  EXPECT_EQ(rb.at(2), 13);
}

TEST(Strings, Split) {
  auto v = split("a,b,,c", ',');
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], "a");
  EXPECT_EQ(v[2], "");
}

TEST(Strings, SplitWs) {
  auto v = split_ws("  foo   bar\tbaz ");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[1], "bar");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n"), "");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(ends_with("foobar", "bar"));
  EXPECT_FALSE(ends_with("ar", "bar"));
}

TEST(Strings, Strformat) {
  EXPECT_EQ(strformat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strformat("%s", ""), "");
}

TEST(Strings, MangleFilterWork) {
  // The paper's example: filter `ipf` work method -> IpfFilter_work_function.
  EXPECT_EQ(mangle_filter_work("ipf"), "IpfFilter_work_function");
  EXPECT_EQ(mangle_filter_work("my_filter"), "MyFilterFilter_work_function");
}

TEST(Strings, MangleControllerWork) {
  // The paper's example: pred module controller ->
  // _component_PredModule_anon_0_work.
  EXPECT_EQ(mangle_controller_work("pred", 0), "_component_PredModule_anon_0_work");
  EXPECT_EQ(mangle_controller_work("front", 1), "_component_FrontModule_anon_1_work");
}

TEST(Prng, Deterministic) {
  Prng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Prng, RangeBounds) {
  Prng p(1);
  for (int i = 0; i < 1000; ++i) {
    auto v = p.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Prng, DoubleInUnitInterval) {
  Prng p(9);
  for (int i = 0; i < 1000; ++i) {
    double d = p.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// --- the shared JSON layer ---------------------------------------------------

TEST(Json, QuoteEscapesControlAndSpecials) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_quote("x\n\t\r"), "\"x\\n\\t\\r\"");
  EXPECT_EQ(json_quote(std::string_view("\x01", 1)), "\"\\u0001\"");
}

TEST(Json, WriterPlacesCommasAndColons) {
  JsonWriter w;
  w.begin_object();
  w.kv("a", 1).kv("b", "two");
  w.key("c").begin_array().value(true).null().value(3.5).end_array();
  w.key("d").begin_object().end_object();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":"two","c":[true,null,3.5],"d":{}})");
}

TEST(Json, ParseScalarsAndContainers) {
  auto v = JsonValue::parse(R"({"n":-7,"big":18446744073709551615,"f":0.25,)"
                            R"("s":"hi","t":true,"z":null,"arr":[1,2,3]})");
  ASSERT_TRUE(v.ok()) << v.status().message();
  EXPECT_EQ(v->find("n")->as_i64(), -7);
  // u64 survives without a double round-trip (the provenance uid case).
  EXPECT_EQ(v->find("big")->as_u64(), 18446744073709551615ull);
  EXPECT_EQ(v->find("f")->as_double(), 0.25);
  EXPECT_EQ(v->str_or("s"), "hi");
  EXPECT_TRUE(v->bool_or("t"));
  EXPECT_TRUE(v->find("z")->is_null());
  ASSERT_EQ(v->find("arr")->size(), 3u);
  EXPECT_EQ(v->find("arr")->at(1).as_u64(), 2u);
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(Json, ParseStringEscapes) {
  auto v = JsonValue::parse(R"(["a\"b","\u0041\u00e9","\ud83d\ude00","\n\t"])");
  ASSERT_TRUE(v.ok()) << v.status().message();
  EXPECT_EQ(v->at(0).as_string(), "a\"b");
  EXPECT_EQ(v->at(1).as_string(), "A\xc3\xa9");
  EXPECT_EQ(v->at(2).as_string(), "\xf0\x9f\x98\x80");  // surrogate pair
  EXPECT_EQ(v->at(3).as_string(), "\n\t");
}

TEST(Json, ParseErrorsAreTyped) {
  for (const char* bad : {"", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated"}) {
    auto v = JsonValue::parse(bad);
    ASSERT_FALSE(v.ok()) << "accepted: " << bad;
    EXPECT_EQ(v.status().code(), ErrCode::kParseError) << bad;
    EXPECT_NE(v.status().message().find("json:"), std::string::npos) << bad;
  }
}

TEST(Json, ParseRejectsRunawayNesting) {
  std::string deep(100, '[');
  auto v = JsonValue::parse(deep);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), ErrCode::kParseError);
}

TEST(Json, DumpRoundTripsThroughWriter) {
  const char* doc = R"({"a":[1,-2,true,null],"b":{"c":"x\ny"},"d":0.5})";
  auto v = JsonValue::parse(doc);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->dump(), doc);
  auto again = JsonValue::parse(v->dump());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->dump(), doc);
}

TEST(Status, ErrorCodesAreStableStrings) {
  EXPECT_STREQ(to_string(ErrCode::kOk), "ok");
  EXPECT_STREQ(to_string(ErrCode::kInvalidArgument), "invalid-argument");
  EXPECT_STREQ(to_string(ErrCode::kNotFound), "not-found");
  EXPECT_STREQ(to_string(ErrCode::kFailedPrecondition), "failed-precondition");
  EXPECT_STREQ(to_string(ErrCode::kOutOfRange), "out-of-range");
  EXPECT_STREQ(to_string(ErrCode::kParseError), "parse-error");
  // Untyped errors stay kUnknown: old call sites keep compiling and map to
  // JSON-RPC internal-error on the wire.
  EXPECT_EQ(Status::error("legacy").code(), ErrCode::kUnknown);
  EXPECT_EQ(Status::error(ErrCode::kNotFound, "x").code(), ErrCode::kNotFound);
}

}  // namespace
}  // namespace dfdbg
