// The observability layer: span/begin-end/instant recording into
// per-thread buffers, drop accounting at capacity, the metrics registry
// and snapshot deltas, latency-budget parsing and enforcement, the Chrome
// trace-event exporter (checked with a real JSON parser), and — the part
// the whole layer exists to guarantee — that tracing a multi-threaded
// compile_many batch changes nothing about its results while every span
// it records stays well-nested per thread.
//
// Every test here also runs in the SILC_OBS=OFF build (scripts/ci.sh
// builds and tests both): the tracer must then refuse to enable and
// record nothing, while metrics, budgets, and the exporter — plain code,
// not gated — keep working. Tests branch on obs::kEnabled instead of
// skipping so the no-op path is asserted, not ignored.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/compiler.hpp"
#include "design_sources.hpp"
#include "obs/obs.hpp"

namespace silc::obs {
namespace {

// ----------------------------------------------------------------- tracer --

TEST(Tracer, SpansRecordCompleteEventsThatNest) {
  Tracer& t = Tracer::global();
  t.enable();
  if (!kEnabled) {
    // Compiled out: enable() must refuse and spans must record nothing.
    EXPECT_FALSE(t.enabled());
    { SILC_OBS_SPAN("outer", "test"); }
    EXPECT_EQ(t.total_events(), 0u);
    return;
  }
  EXPECT_TRUE(t.enabled());
  {
    Span outer("outer", "test");
    { Span inner("inner", "test"); }
  }
  t.disable();
  EXPECT_FALSE(t.enabled());
  EXPECT_EQ(t.total_events(), 2u);

  const std::vector<Tracer::ThreadEvents> threads = t.drain();
  ASSERT_EQ(threads.size(), 1u);
  const std::vector<Event>& ev = threads[0].events;
  ASSERT_EQ(ev.size(), 2u);
  // Complete events land at destruction time: inner ends first.
  EXPECT_STREQ(ev[0].name, "inner");
  EXPECT_STREQ(ev[1].name, "outer");
  for (const Event& e : ev) {
    EXPECT_EQ(e.type, Event::Type::Complete);
    EXPECT_STREQ(e.cat, "test");
  }
  // inner's interval sits inside outer's.
  EXPECT_LE(ev[1].ts_ns, ev[0].ts_ns);
  EXPECT_LE(ev[0].ts_ns + ev[0].dur_ns, ev[1].ts_ns + ev[1].dur_ns);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer& t = Tracer::global();
  t.enable();
  t.instant("while-enabled", "test");
  t.disable();
  const std::uint64_t before = t.total_events();
  EXPECT_EQ(before, kEnabled ? 1u : 0u);
  {
    SILC_OBS_SPAN("dark", "test");
    SILC_OBS_INSTANT("dark.instant", "test");
    t.begin("dark.work", "test");
    t.end("dark.work", "test");
    t.counter("dark.gauge", "test", 42.0);
  }
  EXPECT_EQ(t.total_events(), before);
  EXPECT_EQ(t.dropped_events(), 0u);
}

TEST(Tracer, BeginEndLandOnTheCallingThread) {
  if (!kEnabled) return;  // recording asserted impossible above
  Tracer& t = Tracer::global();
  t.enable();
  t.begin("main.work", "test");
  t.instant("main.mid", "test");
  t.end("main.work", "test");
  std::thread worker([&t] {
    t.begin("worker.work", "test");
    t.end("worker.work", "test");
  });
  worker.join();
  t.disable();

  const std::vector<Tracer::ThreadEvents> threads = t.drain();
  ASSERT_EQ(threads.size(), 2u);  // main + the worker, separate buffers
  for (const Tracer::ThreadEvents& te : threads) {
    // Each buffer holds its own thread's matched begin/end pair only.
    std::vector<std::string> stack;
    for (const Event& e : te.events) {
      if (e.type == Event::Type::Begin) {
        stack.emplace_back(e.name);
      } else if (e.type == Event::Type::End) {
        ASSERT_FALSE(stack.empty()) << "end without begin on tid " << te.tid;
        EXPECT_EQ(stack.back(), e.name) << "tid " << te.tid;
        stack.pop_back();
      }
    }
    EXPECT_TRUE(stack.empty()) << "unclosed begin on tid " << te.tid;
  }
  // Timestamps are monotone within a buffer (single writer, steady clock).
  for (const Tracer::ThreadEvents& te : threads) {
    for (std::size_t i = 1; i < te.events.size(); ++i) {
      EXPECT_GE(te.events[i].ts_ns, te.events[i - 1].ts_ns);
    }
  }
}

TEST(Tracer, DropsAreCountedAndThePrefixIsPreserved) {
  if (!kEnabled) return;
  Tracer& t = Tracer::global();
  t.enable(/*max_events_per_thread=*/4);
  for (int i = 0; i < 10; ++i) {
    t.instant("i" + std::to_string(i), "test");
  }
  t.disable();
  EXPECT_EQ(t.total_events(), 4u);
  EXPECT_EQ(t.dropped_events(), 6u);

  const std::vector<Tracer::ThreadEvents> threads = t.drain();
  ASSERT_EQ(threads.size(), 1u);
  ASSERT_EQ(threads[0].events.size(), 4u);
  EXPECT_EQ(threads[0].dropped, 6u);
  // Drop-newest keeps the oldest prefix intact.
  for (int i = 0; i < 4; ++i) {
    EXPECT_STREQ(threads[0].events[static_cast<std::size_t>(i)].name,
                 ("i" + std::to_string(i)).c_str());
  }

  // Re-enabling starts a fresh capture: buffers and drop counts clear.
  t.enable();
  t.disable();
  EXPECT_EQ(t.total_events(), 0u);
  EXPECT_EQ(t.dropped_events(), 0u);
}

TEST(Tracer, OverlongNamesAreTruncatedNotOverrun) {
  if (!kEnabled) return;
  const std::string longname(3 * Event::kNameCap, 'x');
  Tracer& t = Tracer::global();
  t.enable();
  { Span s(longname, "test"); }
  t.disable();
  const std::vector<Tracer::ThreadEvents> threads = t.drain();
  ASSERT_EQ(threads.size(), 1u);
  ASSERT_EQ(threads[0].events.size(), 1u);
  const Event& e = threads[0].events[0];
  EXPECT_EQ(std::strlen(e.name), Event::kNameCap);
  EXPECT_EQ(std::string_view(e.name), longname.substr(0, Event::kNameCap));
}

// ---------------------------------------------------------------- metrics --

TEST(Metrics, CountersAccumulateAndSnapshotSorted) {
  Metrics& m = Metrics::global();
  std::atomic<long long>& a = m.counter("obstest.a");
  const long long a0 = a.load();
  a.fetch_add(3);
  m.add("obstest.b", 5);
  m.add("obstest.b", 2);
  // Same name resolves to the same counter, not a new registration.
  EXPECT_EQ(&m.counter("obstest.a"), &a);
  EXPECT_EQ(a.load(), a0 + 3);

  const std::vector<MetricSample> snap = m.snapshot();
  EXPECT_TRUE(std::is_sorted(
      snap.begin(), snap.end(),
      [](const MetricSample& x, const MetricSample& y) {
        return x.name < y.name;
      }));
  const auto find = [&](std::string_view name) -> long long {
    for (const MetricSample& s : snap) {
      if (s.name == name) return s.value;
    }
    ADD_FAILURE() << name << " missing from snapshot";
    return -1;
  };
  EXPECT_EQ(find("obstest.a"), a0 + 3);
  EXPECT_EQ(find("obstest.b"), 7);
}

TEST(Metrics, DeltaKeepsOnlyWhatChanged) {
  const std::vector<MetricSample> before = {{"a", 1}, {"b", 2}, {"d", 9}};
  const std::vector<MetricSample> after = {{"a", 1}, {"b", 5}, {"c", 3}};
  const std::vector<MetricSample> d = delta(before, after);
  // "a" unchanged -> dropped; "c" born after `before` -> counts from zero;
  // "d" absent from `after` (no registry ever forgets, but delta is pure
  // data) -> simply not reported.
  const std::vector<MetricSample> want = {{"b", 3}, {"c", 3}};
  EXPECT_EQ(d, want);
}

// ---------------------------------------------------------------- budgets --

TEST(Budgets, ParsesMarginCommentsAndStages) {
  std::string err;
  const auto table = parse_budgets(
      "# smoke-mode budgets\n"
      "margin 2\n"
      "\n"
      "parse  0.5   # trailing comment\n"
      "drc    12.0\n",
      &err);
  ASSERT_TRUE(table.has_value()) << err;
  EXPECT_DOUBLE_EQ(table->margin, 2.0);
  ASSERT_EQ(table->budgets.size(), 2u);
  ASSERT_NE(table->find("parse"), nullptr);
  EXPECT_DOUBLE_EQ(table->find("parse")->ms_per_run, 0.5);
  ASSERT_NE(table->find("drc"), nullptr);
  EXPECT_DOUBLE_EQ(table->find("drc")->ms_per_run, 12.0);
  EXPECT_EQ(table->find("extract"), nullptr);
}

TEST(Budgets, RejectsMalformedTablesWithAnError) {
  const char* bad[] = {
      "parse\n",                 // missing number
      "parse abc\n",             // non-numeric
      "parse 1 extra\n",         // trailing token
      "parse -1\n",              // negative budget
      "parse 1\nparse 2\n",      // duplicate stage
      "margin 0\nparse 1\n",     // margin must be positive
  };
  for (const char* text : bad) {
    std::string err;
    EXPECT_FALSE(parse_budgets(text, &err).has_value()) << text;
    EXPECT_FALSE(err.empty()) << text;
  }
  std::string err;
  EXPECT_FALSE(load_budgets("/nonexistent/budgets.txt", &err).has_value());
  EXPECT_NE(err.find("cannot open"), std::string::npos);
}

TEST(Budgets, EmptyTablesAndFilesFailLoudly) {
  // A budget table with no stage budgets would silently pass every stage —
  // a truncated or blank file must disarm CI loudly, not quietly.
  const char* empty_ish[] = {
      "",
      "# only comments\n",
      "margin 2\n",  // a margin but nothing to apply it to
  };
  for (const char* text : empty_ish) {
    std::string err;
    EXPECT_FALSE(parse_budgets(text, &err).has_value()) << '"' << text << '"';
    EXPECT_FALSE(err.empty()) << '"' << text << '"';
  }

  const std::string path = testing::TempDir() + "/silc_empty_budgets.txt";
  { std::ofstream out(path); }  // create empty
  std::string err;
  EXPECT_FALSE(load_budgets(path, &err).has_value());
  EXPECT_NE(err.find("empty or unreadable"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(Budgets, CheckFlagsOverAndUnbudgetedStages) {
  BudgetTable table;
  table.margin = 1.5;
  table.budgets = {{"a", 10.0}, {"b", 1.0}, {"unprofiled", 5.0}};
  const std::vector<std::pair<std::string, double>> profile = {
      {"a", 14.0},  // under 10 * 1.5
      {"b", 2.0},   // over 1 * 1.5
      {"c", 0.01},  // not in the table at all
  };
  const std::vector<BudgetVerdict> v = check_budgets(table, profile);
  ASSERT_EQ(v.size(), 3u);  // budgeted-but-unprofiled stages are ignored

  EXPECT_EQ(v[0].stage, "a");
  EXPECT_DOUBLE_EQ(v[0].limit_ms, 15.0);
  EXPECT_TRUE(v[0].ok());

  EXPECT_EQ(v[1].stage, "b");
  EXPECT_DOUBLE_EQ(v[1].limit_ms, 1.5);
  EXPECT_TRUE(v[1].over);
  EXPECT_FALSE(v[1].ok());

  EXPECT_EQ(v[2].stage, "c");
  EXPECT_TRUE(v[2].unbudgeted);
  EXPECT_FALSE(v[2].ok());

  EXPECT_FALSE(budgets_ok(v));
  const std::string report = budget_report(v);
  EXPECT_NE(report.find("OVER BUDGET"), std::string::npos);
  EXPECT_NE(report.find("NO BUDGET"), std::string::npos);
  EXPECT_NE(report.find("ok"), std::string::npos);

  // An all-green profile is ok.
  EXPECT_TRUE(budgets_ok(check_budgets(table, {{"a", 1.0}, {"b", 1.0}})));
}

// ----------------------------------------------------------------- export --

// Minimal recursive-descent JSON syntax checker: enough to prove the
// exporter emits well-formed JSON (string escaping included) without
// taking a JSON-library dependency.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  bool value() {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    if (!eat('{')) return false;
    skip_ws();
    if (eat('}')) return true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!eat(':')) return false;
      if (!value()) return false;
      skip_ws();
      if (eat(',')) continue;
      return eat('}');
    }
  }
  bool array() {
    if (!eat('[')) return false;
    skip_ws();
    if (eat(']')) return true;
    while (true) {
      if (!value()) return false;
      skip_ws();
      if (eat(',')) continue;
      return eat(']');
    }
  }
  bool string() {
    if (!eat('"')) return false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_++];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= s_.size() ||
                std::isxdigit(static_cast<unsigned char>(s_[pos_])) == 0) {
              return false;
            }
            ++pos_;
          }
        } else if (std::strchr("\"\\/bfnrt", e) == nullptr) {
          return false;
        }
      }
    }
    return false;  // unterminated
  }
  bool number() {
    const std::size_t start = pos_;
    eat('-');
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

TEST(TraceExport, TheCheckerItselfTellsGoodJsonFromBad) {
  EXPECT_TRUE(JsonChecker(R"({"a":[1,-2.5,"x\n\"y\""],"b":{}})").valid());
  EXPECT_TRUE(JsonChecker("{\"traceEvents\":[]}\n").valid());
  EXPECT_FALSE(JsonChecker(R"({"a":1,})").valid());
  EXPECT_FALSE(JsonChecker(R"({"a" 1})").valid());
  EXPECT_FALSE(JsonChecker("{\"a\":\"unterminated}").valid());
  EXPECT_FALSE(JsonChecker("{\"a\":\"raw\ncontrol\"}").valid());
  EXPECT_FALSE(JsonChecker("[1,2]]").valid());
}

TEST(TraceExport, ChromeTraceJsonIsWellFormedWithEveryEventKind) {
  Tracer& t = Tracer::global();
  t.enable();
  if (kEnabled) {
    { SILC_OBS_SPAN("span \"quoted\" \\slashed\\", "test"); }
    t.begin("phase", "test");
    t.instant("tick\nnewline", "test");
    t.counter("gauge", "test", 2.5);
    t.end("phase", "test");
  }
  t.disable();
  Metrics::global().add("obstest.export", 1);

  const std::string json = chrome_trace_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // The metrics snapshot rides along whatever the build.
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"obstest.export\""), std::string::npos);
  if (kEnabled) {
    for (const char* ph : {"\"ph\":\"X\"", "\"ph\":\"B\"", "\"ph\":\"E\"",
                           "\"ph\":\"i\"", "\"ph\":\"C\"", "\"ph\":\"M\""}) {
      EXPECT_NE(json.find(ph), std::string::npos) << ph;
    }
  } else {
    EXPECT_EQ(json.find("\"ph\":\"X\""), std::string::npos);
  }
}

TEST(TraceExport, WriteChromeTraceProducesAReadableFile) {
  const std::string path = ::testing::TempDir() + "silc_obs_trace.json";
  Tracer& t = Tracer::global();
  t.enable();
  { SILC_OBS_SPAN("file.span", "test"); }
  t.disable();
  ASSERT_TRUE(write_chrome_trace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_TRUE(JsonChecker(text.str()).valid());
  EXPECT_FALSE(write_chrome_trace("/nonexistent-dir/trace.json"));
  std::remove(path.c_str());
}

// ------------------------------------------------- tracing a real batch --

std::vector<core::BatchJob> traced_batch() {
  core::CompileOptions fast;
  fast.verify_cycles = 8;
  std::vector<core::BatchJob> jobs;
  core::CompileOptions g = fast;
  g.name = "gray2";
  jobs.push_back({core::Flow::Behavioral, silc_fixtures::kGray2Source, g});
  core::CompileOptions c = fast;
  c.name = "counter2";
  jobs.push_back(
      {core::Flow::Behavioral, silc_fixtures::counter_source(2), c});
  jobs.push_back({core::Flow::Structural, silc_fixtures::kInvChainSource,
                  core::CompileOptions{.name = "chain"}});
  return jobs;
}

/// Every Complete event on one thread, checked for proper nesting: sort
/// by (start asc, end desc) and sweep with a stack — any interval that
/// overlaps the enclosing open span without being contained by it fails.
void expect_spans_well_nested(const std::vector<Event>& events,
                              std::uint32_t tid) {
  struct Interval {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::string name;
  };
  std::vector<Interval> iv;
  for (const Event& e : events) {
    if (e.type == Event::Type::Complete) {
      iv.push_back({e.ts_ns, e.ts_ns + e.dur_ns, e.name});
    }
  }
  std::stable_sort(iv.begin(), iv.end(),
                   [](const Interval& a, const Interval& b) {
                     if (a.begin != b.begin) return a.begin < b.begin;
                     return a.end > b.end;
                   });
  std::vector<const Interval*> open;
  for (const Interval& i : iv) {
    while (!open.empty() && open.back()->end <= i.begin) open.pop_back();
    if (!open.empty()) {
      EXPECT_LE(i.end, open.back()->end)
          << "span '" << i.name << "' on tid " << tid << " overlaps '"
          << open.back()->name << "' without nesting inside it";
    }
    open.push_back(&i);
  }
}

TEST(Tracing, BatchResultsAreIdenticalTracedOrNotAndAcrossThreadCounts) {
  const std::vector<core::BatchJob> jobs = traced_batch();

  // Baseline: the same batch with the tracer off.
  const core::BatchResult untraced = core::compile_many(jobs, 1);
  ASSERT_EQ(untraced.results.size(), jobs.size());
  EXPECT_EQ(untraced.ok_count(), jobs.size());

  Tracer& t = Tracer::global();
  t.enable(1u << 16);
  const core::BatchResult one = core::compile_many(jobs, 1);
  const core::BatchResult four = core::compile_many(jobs, 4);
  t.disable();

  ASSERT_EQ(one.results.size(), jobs.size());
  ASSERT_EQ(four.results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // Tracing must be an observer: bit-identical output with it on, at
    // any worker count.
    EXPECT_TRUE(untraced.results[i].same_outcome(one.results[i])) << i;
    EXPECT_TRUE(one.results[i].same_outcome(four.results[i])) << i;
    EXPECT_EQ(one.results[i].cif, four.results[i].cif) << i;
    EXPECT_EQ(untraced.results[i].cif, one.results[i].cif) << i;
  }

  if (!kEnabled) {
    EXPECT_EQ(t.total_events(), 0u);
    return;
  }

  EXPECT_GT(t.total_events(), 0u);
  EXPECT_EQ(t.dropped_events(), 0u);

  const std::vector<Tracer::ThreadEvents> threads = t.drain();
  ASSERT_FALSE(threads.empty());
  std::size_t spans = 0;
  std::size_t stage_spans = 0;
  for (const Tracer::ThreadEvents& te : threads) {
    expect_spans_well_nested(te.events, te.tid);
    // Begin/end (if any instrumentation uses the explicit form) must be
    // matched, LIFO, per thread.
    std::vector<std::string> open;
    for (const Event& e : te.events) {
      if (e.type == Event::Type::Complete) {
        ++spans;
        if (std::string_view(e.cat) == "stage") ++stage_spans;
      } else if (e.type == Event::Type::Begin) {
        open.emplace_back(e.name);
      } else if (e.type == Event::Type::End) {
        ASSERT_FALSE(open.empty()) << "tid " << te.tid;
        EXPECT_EQ(open.back(), e.name) << "tid " << te.tid;
        open.pop_back();
      }
    }
    EXPECT_TRUE(open.empty()) << "unclosed begin on tid " << te.tid;
  }
  // Both traced batches ran every pipeline stage under a "stage" span:
  // 9 behavioral + 9 behavioral + 4 structural, twice.
  EXPECT_GE(spans, stage_spans);
  EXPECT_EQ(stage_spans, 2u * (9u + 9u + 4u));

  // And the full capture still exports as valid JSON.
  EXPECT_TRUE(JsonChecker(chrome_trace_json()).valid());
}

}  // namespace
}  // namespace silc::obs
