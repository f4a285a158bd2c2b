// The persistent compile store (src/store/store.hpp) and the three cache
// layers it backs — what PR 9's warm-compile story must prove:
//
//   * container round-trip: records written by one Store instance are read
//     back byte-identical by another; a missing file is a silent cold
//     start; truncation, bit flips, format skew, and schema skew each
//     clear the store with one load_error() line and a store.poisoned
//     count — never a throw, never a half-parsed store;
//   * key invalidation by construction: a schema-version bump, an edited
//     technology signature, a changed source text, and a changed
//     output-affecting option all produce keys that MISS; identical
//     inputs across two Store instances (a file round-trip) HIT;
//   * cache serialization equality: VerdictCache verdicts and NetlistCache
//     partial netlists (proto-transistor candidate sets included) survive
//     save_to → file → load_from with every re-extraction an all-hits
//     replay producing equal netlists;
//   * whole-result memoization: a compile served from the store is
//     same_outcome-identical to the compile that produced it, and
//     compile_many's second run over a warm cache_dir is all store hits;
//   * concurrent writers: two compiles saving one cache_dir at once each
//     commit a whole file (entries may be lost, never torn);
//   * chaos: injected faults and corruption at store.load / store.save
//     degrade to cold compiles with unchanged artifacts — never a wrong
//     answer, never a missing one.
//
// Fault-dependent tests skip under -DSILC_FAULT=OFF; counter assertions
// gate on obs::kEnabled.
#include <gtest/gtest.h>
#include <unistd.h>

#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/compiler.hpp"
#include "core/result_cache.hpp"
#include "design_sources.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "fault/fault.hpp"
#include "layout/layout.hpp"
#include "obs/obs.hpp"
#include "store/store.hpp"

namespace silc {
namespace {

using core::BatchJob;
using core::BatchResult;
using core::CompileOptions;
using core::CompileResult;
using core::Flow;
using core::ResultCache;
using core::Severity;
using fault::Injector;
using fault::Kind;
using fault::Schedule;
using layout::Cell;
using layout::Library;
using tech::Layer;

struct DisarmOnExit {
  ~DisarmOnExit() { Injector::global().disarm(); }
};

/// A scratch directory removed on scope exit, one per test.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const char* tag) {
    path = std::filesystem::temp_directory_path() /
           (std::string("silc_store_test_") + tag + "_" +
            std::to_string(static_cast<unsigned long>(::getpid())));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  [[nodiscard]] std::string file(const char* name) const {
    return (path / name).string();
  }
};

CompileOptions quick(const std::string& name) {
  CompileOptions o;
  o.name = name;
  o.verify_cycles = 4;
  o.deadline_ms = 30000;
  return o;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

long long counter_value(const std::vector<obs::MetricSample>& samples,
                        const std::string& name) {
  for (const obs::MetricSample& s : samples) {
    if (s.name == name) return s.value;
  }
  return 0;
}

// ------------------------------------------------------ container basics --

TEST(Store, RoundTripAcrossInstances) {
  const TempDir dir("roundtrip");
  const std::string path = dir.file("silc.store");

  store::Store a;
  a.put("drc", "key1", "payload1");
  a.put("drc", "key2", std::string("\x00\x01\xff", 3));  // binary-safe
  a.put("extract", "key1", "other stream, same key");
  ASSERT_TRUE(a.save(path)) << a.save_error();
  EXPECT_GT(a.file_bytes(), 0u);

  store::Store b;
  EXPECT_TRUE(b.load(path)) << b.load_error();
  EXPECT_TRUE(b.loaded());
  EXPECT_TRUE(b.load_error().empty());
  ASSERT_EQ(b.records(), 3u);
  ASSERT_NE(b.get("drc", "key1"), nullptr);
  EXPECT_EQ(*b.get("drc", "key1"), "payload1");
  ASSERT_NE(b.get("drc", "key2"), nullptr);
  EXPECT_EQ(*b.get("drc", "key2"), std::string("\x00\x01\xff", 3));
  ASSERT_NE(b.get("extract", "key1"), nullptr);
  EXPECT_EQ(*b.get("extract", "key1"), "other stream, same key");
  EXPECT_EQ(b.get("result", "key1"), nullptr);

  // Deterministic serialization: same content, same bytes.
  const std::string first = slurp(path);
  store::Store c;
  c.put("extract", "key1", "other stream, same key");
  c.put("drc", "key2", std::string("\x00\x01\xff", 3));
  c.put("drc", "key1", "payload1");
  ASSERT_TRUE(c.save(dir.file("again.store")));
  EXPECT_EQ(first, slurp(dir.file("again.store")))
      << "insertion order leaked into the serialized bytes";
}

TEST(Store, MissingFileIsASilentColdStart) {
  const TempDir dir("missing");
  store::Store s;
  EXPECT_FALSE(s.load(dir.file("nonexistent.store")));
  EXPECT_FALSE(s.loaded());
  EXPECT_TRUE(s.load_error().empty()) << s.load_error();
  EXPECT_EQ(s.records(), 0u);
}

TEST(Store, SchemaSkewColdStarts) {
  const TempDir dir("schema");
  const std::string path = dir.file("silc.store");
  store::Store old_schema(store::kSchemaVersion + 1);
  old_schema.put("drc", "k", "v");
  ASSERT_TRUE(old_schema.save(path));

  store::Store s;  // current schema
  EXPECT_FALSE(s.load(path));
  EXPECT_FALSE(s.loaded());
  EXPECT_NE(s.load_error().find("schema version"), std::string::npos)
      << s.load_error();
  EXPECT_EQ(s.records(), 0u);
}

TEST(Store, CorruptionColdStartsNeverThrows) {
  const TempDir dir("corrupt");
  const std::string path = dir.file("silc.store");
  store::Store a;
  a.put("drc", "some key material", "some payload material");
  a.put("extract", "second key", "second payload");
  ASSERT_TRUE(a.save(path));
  const std::string good = slurp(path);
  ASSERT_GT(good.size(), 24u);

  struct Case {
    const char* what;
    std::string bytes;
    const char* error_needle;
  };
  std::string flipped = good;
  flipped[good.size() - 3] = static_cast<char>(flipped[good.size() - 3] ^ 0x40);
  std::string bad_magic = good;
  bad_magic[0] = 'X';
  std::string bad_format = good;
  bad_format[8] = static_cast<char>(bad_format[8] ^ 0x7f);
  const Case cases[] = {
      {"truncated mid-record", good.substr(0, good.size() - 7),
       "truncated record"},
      {"truncated header", good.substr(0, 10), "truncated header"},
      {"bit flip in a payload", flipped, "checksum mismatch"},
      {"bad magic", bad_magic, "bad magic"},
      {"format skew", bad_format, "format version"},
      {"trailing garbage", good + "zzz", "trailing bytes"},
      {"empty file", std::string(), "empty file"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    spit(path, c.bytes);
    store::Store s;
    const auto before = obs::Metrics::global().snapshot();
    EXPECT_NO_THROW(EXPECT_FALSE(s.load(path)));
    const auto after = obs::Metrics::global().snapshot();
    EXPECT_FALSE(s.loaded());
    EXPECT_EQ(s.records(), 0u) << "cold start must clear every record";
    EXPECT_NE(s.load_error().find(c.error_needle), std::string::npos)
        << "got: " << s.load_error();
    if (obs::kEnabled) {
      EXPECT_EQ(counter_value(obs::delta(before, after), "store.poisoned"), 1)
          << c.what;
    }
  }
}

TEST(Store, SaveIsAtomicTmpPlusRename) {
  const TempDir dir("atomic");
  const std::string path = dir.file("silc.store");
  // Only the store itself is left in the directory: no tmp file survives
  // a save, successful or failed.
  const auto only_the_store = [&] {
    std::vector<std::string> names;
    for (const auto& e : std::filesystem::directory_iterator(dir.path)) {
      names.push_back(e.path().filename().string());
    }
    return names == std::vector<std::string>{"silc.store"};
  };
  store::Store a;
  a.put("drc", "k", "v1");
  ASSERT_TRUE(a.save(path));
  EXPECT_TRUE(only_the_store())
      << "tmp file must not survive a successful save";

  // Saving over an existing file replaces it wholesale.
  store::Store b;
  b.put("drc", "k", "v2");
  ASSERT_TRUE(b.save(path));
  store::Store c;
  ASSERT_TRUE(c.load(path));
  ASSERT_NE(c.get("drc", "k"), nullptr);
  EXPECT_EQ(*c.get("drc", "k"), "v2");

  // A save to an unwritable path fails with save_error, old file intact.
  store::Store d;
  d.put("drc", "k", "v3");
  EXPECT_FALSE(d.save(dir.file("no_such_dir/silc.store")));
  EXPECT_FALSE(d.save_error().empty());
  EXPECT_TRUE(only_the_store());
}

TEST(Store, WriterReaderRoundTripAndBoundsChecks) {
  store::Writer w;
  w.u8(7);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.i32(-42);
  w.i64(-9000000000LL);
  w.str("hello");
  w.point({-3, 4});
  w.rect({-1, -2, 3, 4});
  const std::string bytes = w.take();

  store::Reader r(bytes);
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -9000000000LL);
  EXPECT_EQ(r.str(), "hello");
  const geom::Point p = r.point();
  EXPECT_EQ(p.x, -3);
  EXPECT_EQ(p.y, 4);
  const geom::Rect rc = r.rect();
  EXPECT_EQ(rc.x0, -1);
  EXPECT_EQ(rc.y1, 4);
  EXPECT_TRUE(r.done());

  // Over-read degrades to zeros, never UB; done() reports the failure.
  store::Reader over(bytes);
  over.u64();
  while (over.ok() && over.remaining() > 0) over.u8();
  EXPECT_EQ(over.u32(), 0u);
  EXPECT_FALSE(over.ok());
  EXPECT_FALSE(over.done());

  // A string length larger than the remaining bytes is rejected.
  store::Writer lw;
  lw.u32(1000000);  // claims a megabyte that is not there
  const std::string lied_bytes = lw.take().append("abc", 3);
  store::Reader lied(lied_bytes);  // Reader keeps a reference: no temporary
  EXPECT_EQ(lied.str(), "");
  EXPECT_FALSE(lied.ok());
}

// ------------------------------------------------- cache layer round-trips --

TEST(StoreCaches, VerdictCacheRoundTripsThroughAFile) {
  const TempDir dir("drc_cache");
  const std::string path = dir.file("silc.store");

  drc::VerdictCache a;
  const drc::VerdictCache::Key clean{11, 22, 33, {0, 0, 40, 40}};
  const drc::VerdictCache::Key dirty{11, 23, 5, {-8, -8, 96, 64}};
  a.store(clean, {});
  a.store(dirty, {{"metal.width", {0, 0, 2, 2}, "too narrow", {1, 1}},
                  {"poly.space", {5, 5, 9, 9}, "", {7, 7}}});

  store::Store out;
  a.save_to(out);
  EXPECT_EQ(out.records(), 2u);
  ASSERT_TRUE(out.save(path));

  store::Store in;
  ASSERT_TRUE(in.load(path));
  drc::VerdictCache b;
  b.load_from(in);
  EXPECT_EQ(b.size(), 2u);

  const auto clean_hit = b.find(clean);
  ASSERT_NE(clean_hit, nullptr);
  EXPECT_TRUE(clean_hit->empty());
  const auto dirty_hit = b.find(dirty);
  ASSERT_NE(dirty_hit, nullptr);
  ASSERT_EQ(dirty_hit->size(), 2u);
  EXPECT_EQ((*dirty_hit)[0].rule, "metal.width");
  EXPECT_EQ((*dirty_hit)[0].where, (geom::Rect{0, 0, 2, 2}));
  EXPECT_EQ((*dirty_hit)[0].detail, "too narrow");
  EXPECT_EQ((*dirty_hit)[1].rule, "poly.space");
  EXPECT_EQ(b.poisoned(), 0u) << "re-inserted entries must re-checksum clean";

  // A different tech signature is a different key: no cross-signature hit.
  EXPECT_EQ(b.find({12, 22, 33, {0, 0, 40, 40}}), nullptr);
}

TEST(StoreCaches, NetlistCacheRoundTripReplaysAllHits) {
  const TempDir dir("extract_cache");
  const std::string path = dir.file("silc.store");

  // A cell with a real transistor (poly crossing diff), a metal label, and
  // enough going on that the partial netlist has pieces, a device with
  // candidate sets, and labels — the fields the payload must round-trip.
  Library lib("store-extract");
  Cell& inv = lib.create("inv");
  inv.add_rect(Layer::Diff, {0, -8, 4, 12});
  inv.add_rect(Layer::Poly, {-6, 0, 10, 4});
  inv.add_rect(Layer::Contact, {0, 8, 4, 12});
  inv.add_rect(Layer::Metal, {-2, 7, 6, 13});
  inv.add_label("out", Layer::Metal, {2, 10});
  Cell& top = lib.create("top");
  top.add_instance(inv, {geom::Orient::R0, {0, 0}});
  top.add_instance(inv, {geom::Orient::R0, {40, 0}});

  extract::NetlistCache a;
  const extract::Netlist cold = extract::extract_hier(top, tech::nmos(), &a);
  ASSERT_GT(a.size(), 0u);
  ASSERT_GE(cold.transistors.size(), 2u);

  store::Store out;
  a.save_to(out);
  EXPECT_EQ(out.records(), a.size());
  ASSERT_TRUE(out.save(path));

  store::Store in;
  ASSERT_TRUE(in.load(path));
  extract::NetlistCache b;
  b.load_from(in);
  EXPECT_EQ(b.size(), a.size());

  // The re-extraction must be a pure replay: every cell a hit, zero
  // misses, zero poisonings, and the canonical netlist equal to cold.
  const extract::Netlist warm = extract::extract_hier(top, tech::nmos(), &b);
  EXPECT_EQ(b.misses(), 0u) << "file round-trip lost or skewed an entry";
  EXPECT_GT(b.hits(), 0u);
  EXPECT_EQ(b.poisoned(), 0u);
  EXPECT_TRUE(warm == cold) << "cached partial netlists skewed the result:\n"
                            << to_text(warm) << "\nvs\n" << to_text(cold);
  EXPECT_EQ(to_text(warm), to_text(cold));
}

TEST(StoreCaches, ResultCacheServesWhatItStored) {
  Library lib;
  const CompileResult r = core::compile(
      lib, Flow::Behavioral, silc_fixtures::kGray2Source, quick("gray2"));
  ASSERT_TRUE(ResultCache::eligible(r)) << r.diag_text();

  ResultCache cache;
  CompileResult out;
  EXPECT_FALSE(cache.find(1, &out));
  cache.store(1, r);
  EXPECT_TRUE(cache.contains(1));
  ASSERT_TRUE(cache.find(1, &out));
  EXPECT_TRUE(out.from_cache);
  EXPECT_EQ(out.chip, nullptr);
  EXPECT_TRUE(out.timings.empty());
  EXPECT_TRUE(out.same_outcome(r)) << out.diag_text();
  EXPECT_EQ(out.cif, r.cif);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  // A result carrying a warning is shaped by its run: never memoized.
  CompileResult warned = r;
  warned.diags.push_back({Severity::Warning, "extract", "stray label"});
  EXPECT_FALSE(ResultCache::eligible(warned));
  cache.store(2, warned);
  EXPECT_FALSE(cache.contains(2));
  EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------- invalidation --

TEST(StoreInvalidation, FingerprintMissesOnEveryInputEdit) {
  const CompileOptions base_opt = quick("gray2");
  const std::uint64_t base = ResultCache::fingerprint(
      Flow::Behavioral, silc_fixtures::kGray2Source, base_opt, 100, 200);

  // Same inputs, same fingerprint — across "instances" trivially, since
  // the fingerprint is a pure function.
  EXPECT_EQ(ResultCache::fingerprint(Flow::Behavioral,
                                     silc_fixtures::kGray2Source, base_opt,
                                     100, 200),
            base);

  // Changed source text must miss.
  EXPECT_NE(ResultCache::fingerprint(Flow::Behavioral,
                                     silc_fixtures::kTrafficSource, base_opt,
                                     100, 200),
            base);
  // Edited technology signatures must miss.
  EXPECT_NE(ResultCache::fingerprint(Flow::Behavioral,
                                     silc_fixtures::kGray2Source, base_opt,
                                     101, 200),
            base);
  EXPECT_NE(ResultCache::fingerprint(Flow::Behavioral,
                                     silc_fixtures::kGray2Source, base_opt,
                                     100, 201),
            base);
  // A different flow must miss.
  EXPECT_NE(ResultCache::fingerprint(Flow::Structural,
                                     silc_fixtures::kGray2Source, base_opt,
                                     100, 200),
            base);
  // Output-affecting options must miss.
  CompileOptions skipped = base_opt;
  skipped.skip.push_back("drc");
  EXPECT_NE(ResultCache::fingerprint(Flow::Behavioral,
                                     silc_fixtures::kGray2Source, skipped,
                                     100, 200),
            base);
  CompileOptions cycles = base_opt;
  cycles.verify_cycles += 1;
  EXPECT_NE(ResultCache::fingerprint(Flow::Behavioral,
                                     silc_fixtures::kGray2Source, cycles,
                                     100, 200),
            base);

  // Determinism-neutral options must NOT change the key: deadlines,
  // cache wiring, cache_dir.
  CompileOptions neutral = base_opt;
  neutral.deadline_ms = 12345;
  neutral.cache_dir = "/somewhere/else";
  EXPECT_EQ(ResultCache::fingerprint(Flow::Behavioral,
                                     silc_fixtures::kGray2Source, neutral,
                                     100, 200),
            base);
}

TEST(StoreInvalidation, SchemaBumpInvalidatesTheWholeFile) {
  const TempDir dir("schema_bump");
  const std::string path = dir.file("silc.store");

  // Written under schema N, read under schema N+1 (the Store(schema) test
  // hook stands in for a real kSchemaVersion bump): cold start, and the
  // caches loaded from it are empty.
  store::Store writer;
  drc::VerdictCache a;
  a.store({1, 2, 3, {0, 0, 8, 8}}, {});
  a.save_to(writer);
  ASSERT_TRUE(writer.save(path));

  store::Store reader(store::kSchemaVersion + 1);
  EXPECT_FALSE(reader.load(path));
  EXPECT_NE(reader.load_error().find("schema version"), std::string::npos);
  drc::VerdictCache b;
  b.load_from(reader);
  EXPECT_EQ(b.size(), 0u);
}

// ------------------------------------------------ whole-result memoization --

TEST(StoreResults, StandaloneCompileWarmsFromCacheDir) {
  const TempDir dir("standalone");
  CompileOptions o = quick("gray2");
  o.cache_dir = dir.path.string();

  Library cold_lib("cold");
  const CompileResult cold =
      core::compile(cold_lib, Flow::Behavioral, silc_fixtures::kGray2Source, o);
  ASSERT_TRUE(cold.ok()) << cold.diag_text();
  EXPECT_FALSE(cold.from_cache);
  ASSERT_TRUE(std::filesystem::exists(dir.file("silc.store")))
      << "compile() with cache_dir must persist the store";

  // Reference compile with no cache anywhere near it.
  Library ref_lib("ref");
  const CompileResult ref = core::compile(
      ref_lib, Flow::Behavioral, silc_fixtures::kGray2Source, quick("gray2"));
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(cold.same_outcome(ref)) << "cache_dir changed a cold compile";

  Library warm_lib("warm");
  const CompileResult warm =
      core::compile(warm_lib, Flow::Behavioral, silc_fixtures::kGray2Source, o);
  EXPECT_TRUE(warm.from_cache) << warm.diag_text();
  EXPECT_TRUE(warm.ok()) << warm.diag_text();
  EXPECT_TRUE(warm.same_outcome(ref))
      << "a store-served result drifted from the compile that produced it";
  EXPECT_EQ(warm.cif, ref.cif);
  EXPECT_EQ(warm.transistors, ref.transistors);
  EXPECT_EQ(warm.rect_count, ref.rect_count);
}

TEST(StoreResults, CompileManySecondRunIsAllStoreHits) {
  const TempDir dir("batch");
  std::vector<BatchJob> jobs;
  jobs.push_back({Flow::Behavioral, silc_fixtures::counter_source(3),
                  quick("counter3")});
  jobs.push_back(
      {Flow::Behavioral, silc_fixtures::kGray2Source, quick("gray2")});
  jobs.push_back(
      {Flow::Behavioral, silc_fixtures::kTrafficSource, quick("traffic")});
  jobs.push_back(
      {Flow::Structural, silc_fixtures::kInvChainSource, quick("chain")});
  const BatchResult ref = core::compile_many(jobs, 2);
  ASSERT_EQ(ref.ok_count(), jobs.size());

  // First batch names the cache_dir on one job only — the batch adopts it.
  std::vector<BatchJob> cached_jobs = jobs;
  cached_jobs[0].options.cache_dir = dir.path.string();
  const BatchResult first = core::compile_many(cached_jobs, 2);
  ASSERT_EQ(first.ok_count(), jobs.size());
  EXPECT_EQ(first.store.hits, 0u);
  EXPECT_EQ(first.store.misses, jobs.size());
  EXPECT_GT(first.store.file_bytes, 0u);
  EXPECT_TRUE(first.store_diags.empty())
      << first.store_diags.front().message;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(first.results[i].same_outcome(ref.results[i]))
        << "job " << i << " drifted under cache_dir\n"
        << first.results[i].diag_text();
    EXPECT_FALSE(first.results[i].from_cache);
  }

  // Second batch, fresh process simulated by a fresh compile_many call:
  // every job must be served from the store, byte-identical.
  const BatchResult second = core::compile_many(cached_jobs, 2);
  ASSERT_EQ(second.ok_count(), jobs.size());
  EXPECT_EQ(second.store.hits, jobs.size());
  EXPECT_EQ(second.store.misses, 0u);
  EXPECT_GT(second.store.loaded_records, 0u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(second.results[i].from_cache) << "job " << i;
    EXPECT_TRUE(second.results[i].same_outcome(ref.results[i]))
        << "warm job " << i << " drifted\n"
        << second.results[i].diag_text();
  }
}

TEST(StoreResults, ConcurrentCompilesShareOneCacheDirWithoutTearing) {
  // Two compiles saving one cache_dir at once, round after round. Each
  // save writes a temp file of its own and renames it whole, so the last
  // writer wins: entries may be lost, but no store file is ever torn, and
  // everything the store serves is the cache-less answer.
  const TempDir dir("concurrent");
  const std::vector<std::pair<std::string, std::string>> designs = {
      {"gray2", silc_fixtures::kGray2Source},
      {"counter3", silc_fixtures::counter_source(3)}};
  std::vector<CompileResult> ref;
  for (const auto& [name, source] : designs) {
    Library lib(name);
    ref.push_back(core::compile(lib, Flow::Behavioral, source, quick(name)));
    ASSERT_TRUE(ref.back().ok()) << ref.back().diag_text();
  }

  // A bulky foreign stream rides along in every save (compile() writes
  // back whatever streams it loaded), so each save's write lasts long
  // enough for the two writers to overlap.
  const std::string bulk(1 << 20, 'x');
  {
    store::Store seed;
    seed.put("bulk", "k", bulk);
    ASSERT_TRUE(seed.save(dir.file("silc.store"))) << seed.save_error();
  }

  constexpr int kRounds = 123;
  std::barrier start(2);
  std::vector<std::string> failures[2];
  const auto worker = [&](std::size_t t) {
    const auto& [name, source] = designs[t];
    CompileOptions o = quick(name);
    o.cache_dir = dir.path.string();
    for (int round = 0; round < kRounds; ++round) {
      start.arrive_and_wait();  // line the two load-compile-save cycles up
      // Sweep one thread's head start over +-1 ms across the rounds, so
      // some rounds line the two saves up whatever each compile costs.
      const int skew_us = (round % 41 - 20) * 50;
      if (skew_us != 0 && (skew_us > 0) == (t == 1)) {
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::microseconds(std::abs(skew_us));
        while (std::chrono::steady_clock::now() < until) {
        }
      }
      Library lib(name);
      const CompileResult r = core::compile(lib, Flow::Behavioral, source, o);
      const std::string at = name + " round " + std::to_string(round) + ": ";
      for (const core::Diag& d : r.diags) {
        if (d.stage == "store") failures[t].push_back(at + d.message);
      }
      if (!r.same_outcome(ref[t])) failures[t].push_back(at + "drifted");
    }
  };
  std::thread other(worker, 1);
  worker(0);
  other.join();
  for (const std::vector<std::string>& f : failures) {
    EXPECT_TRUE(f.empty()) << f.size() << " failures, first: " << f.front();
  }

  store::Store after;
  EXPECT_TRUE(after.load(dir.file("silc.store"))) << after.load_error();
  ASSERT_NE(after.get("bulk", "k"), nullptr);
  EXPECT_EQ(*after.get("bulk", "k"), bulk);
  for (std::size_t t = 0; t < designs.size(); ++t) {
    CompileOptions o = quick(designs[t].first);
    o.cache_dir = dir.path.string();
    Library lib(designs[t].first);
    const CompileResult r =
        core::compile(lib, Flow::Behavioral, designs[t].second, o);
    EXPECT_TRUE(r.same_outcome(ref[t])) << r.diag_text();
  }
  for (const auto& e : std::filesystem::directory_iterator(dir.path)) {
    EXPECT_EQ(e.path().filename().string(), "silc.store")
        << "a temp file survived its save";
  }
}

// ------------------------------------------------------------------ chaos --

TEST(StoreChaos, FaultsAtLoadAndSaveDegradeToColdCompiles) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with SILC_FAULT=OFF";
  const DisarmOnExit disarm;

  std::vector<BatchJob> jobs;
  jobs.push_back(
      {Flow::Behavioral, silc_fixtures::kGray2Source, quick("gray2")});
  jobs.push_back(
      {Flow::Structural, silc_fixtures::kInvChainSource, quick("chain")});
  const BatchResult ref = core::compile_many(jobs, 2);
  ASSERT_EQ(ref.ok_count(), jobs.size());

  struct Round {
    const char* what;
    const char* site;
    Kind kind;
    bool warm_first;  // seed the store before arming
  };
  const Round rounds[] = {
      {"load fault on a warm store", "store.load", Kind::Throw, true},
      {"load fault on a cold store", "store.load", Kind::Throw, false},
      {"save fault", "store.save", Kind::Throw, true},
      {"corrupted save detected next load", "store.save", Kind::Corrupt, true},
  };
  std::uint64_t seed = 0x570fe2026ULL;
  for (const Round& round : rounds) {
    SCOPED_TRACE(round.what);
    const TempDir dir(round.what);
    std::vector<BatchJob> cached_jobs = jobs;
    cached_jobs[0].options.cache_dir = dir.path.string();
    if (round.warm_first) {
      const BatchResult warmup = core::compile_many(cached_jobs, 2);
      ASSERT_EQ(warmup.ok_count(), jobs.size());
    }

    Schedule s;
    s.seed = ++seed;
    s.triggers.push_back({round.site, round.kind, 0, true, 0, ""});
    Injector::global().arm(s);
    const BatchResult chaos = core::compile_many(cached_jobs, 2);
    Injector::global().disarm();

    // The batch survives, every artifact matches the fault-free reference
    // (compiled cold if the store was unusable), and results are never
    // polluted by a store-layer diagnostic.
    ASSERT_EQ(chaos.results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_TRUE(chaos.results[i].same_outcome(ref.results[i]))
          << round.what << ": job " << i << " drifted\n"
          << chaos.results[i].diag_text();
    }
    if (round.kind == Kind::Throw) {
      // The injected fault surfaced as a store-layer warning, not silence.
      bool warned = false;
      for (const core::Diag& d : chaos.store_diags) {
        warned |= d.severity == Severity::Warning;
      }
      EXPECT_TRUE(warned) << round.what << ": degradation was silent";
    }

    if (round.kind == Kind::Corrupt) {
      // The corrupted bytes reached disk; the NEXT load must detect the
      // bad checksum, cold-start with a warning, and still compile clean.
      const BatchResult after = core::compile_many(cached_jobs, 2);
      ASSERT_EQ(after.results.size(), jobs.size());
      EXPECT_GE(after.store.poisoned, 1u)
          << "corrupted store was not detected";
      ASSERT_FALSE(after.store_diags.empty());
      EXPECT_NE(after.store_diags[0].message.find("cold start"),
                std::string::npos)
          << after.store_diags[0].message;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_TRUE(after.results[i].same_outcome(ref.results[i]))
            << round.what << ": post-corruption job " << i << " drifted";
      }
    }
  }
}

TEST(StoreChaos, TruncatedStoreFileColdStartsTheBatch) {
  const TempDir dir("truncate");
  std::vector<BatchJob> jobs;
  jobs.push_back(
      {Flow::Behavioral, silc_fixtures::kGray2Source, quick("gray2")});
  jobs[0].options.cache_dir = dir.path.string();
  const BatchResult warmup = core::compile_many(jobs, 1);
  ASSERT_EQ(warmup.ok_count(), 1u);

  const std::string path = dir.file("silc.store");
  const std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 8u);
  spit(path, bytes.substr(0, bytes.size() - 7));  // torn final record

  const BatchResult after = core::compile_many(jobs, 1);
  ASSERT_EQ(after.ok_count(), 1u);
  EXPECT_GE(after.store.poisoned, 1u);
  EXPECT_EQ(after.store.hits, 0u) << "a torn store must not serve hits";
  ASSERT_FALSE(after.store_diags.empty());
  EXPECT_NE(after.store_diags[0].message.find("cold start"), std::string::npos);
  EXPECT_TRUE(after.results[0].same_outcome(warmup.results[0]))
      << after.results[0].diag_text();
}

}  // namespace
}  // namespace silc
