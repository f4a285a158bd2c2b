#include "core/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "cif/cif.hpp"
#include "core/compiler.hpp"
#include "core/result_cache.hpp"
#include "fault/fault.hpp"
#include "store/store.hpp"

namespace silc::core {

// ------------------------------------------------------------ diagnostics --

const char* to_string(Severity s) {
  switch (s) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
    case Severity::Cancelled: return "cancelled";
  }
  return "?";
}

const char* to_string(Flow f) {
  return f == Flow::Behavioral ? "behavioral" : "structural";
}

std::string Diag::str() const {
  return std::string(to_string(severity)) + " [" + stage + "] " + message;
}

void DiagStream::note(const std::string& stage, std::string message) {
  diags_.push_back({Severity::Note, stage, std::move(message)});
}

void DiagStream::warning(const std::string& stage, std::string message) {
  diags_.push_back({Severity::Warning, stage, std::move(message)});
}

void DiagStream::error(const std::string& stage, std::string message) {
  diags_.push_back({Severity::Error, stage, std::move(message)});
}

void DiagStream::cancelled(const std::string& stage, std::string message) {
  diags_.push_back({Severity::Cancelled, stage, std::move(message)});
}

bool has_errors(const std::vector<Diag>& diags) {
  return std::any_of(diags.begin(), diags.end(), [](const Diag& d) {
    return d.severity == Severity::Error || d.severity == Severity::Cancelled;
  });
}

std::string render(const std::vector<Diag>& diags) {
  std::string out;
  for (const Diag& d : diags) {
    out += d.str();
    out += '\n';
  }
  return out;
}

bool DiagStream::has_errors() const { return core::has_errors(diags_); }

std::size_t DiagStream::count(Severity s) const {
  return static_cast<std::size_t>(
      std::count_if(diags_.begin(), diags_.end(),
                    [s](const Diag& d) { return d.severity == s; }));
}

std::string DiagStream::text() const { return render(diags_); }

std::string DiagStream::stage_text(const std::string& stage) const {
  std::string out;
  for (const Diag& d : diags_) {
    if (d.stage != stage) continue;
    if (!out.empty()) out += "; ";
    out += d.message;
  }
  return out;
}

// ------------------------------------------------------------ artifact DB --

const layout::Flattened& DesignDB::flattened() {
  if (!flat_) {
    flat_ = layout::flatten_with_labels(*chip);
    ++flatten_runs;
  }
  return *flat_;
}

const extract::Netlist& DesignDB::netlist() {
  if (!netlist_) {
    // No shared flatten: extract_hier flattens for its own solve. Any
    // failure there degrades to the flat engine — byte-identical canonical
    // netlist (the extract contract), alive. Cancellation is not a failure
    // and must propagate.
    try {
      netlist_ = extract::extract_hier(*chip, tech::nmos());
    } catch (const Cancelled&) {
      throw;
    } catch (const std::exception& e) {
      diags.warning("extract",
                    std::string("hierarchical extraction failed (") +
                        e.what() + "); falling back to flat extraction");
      netlist_ = extract::extract_flat(flattened());
    }
    ++extract_runs;
  }
  return *netlist_;
}

LibrarySnapshot DesignDB::snapshot() const {
  return core::snapshot(*lib, tech::nmos());
}

// --------------------------------------------------------------- pipeline --

Pipeline& Pipeline::stage(std::string name, StageFn fn) {
  stages_.push_back({std::move(name), std::move(fn)});
  return *this;
}

std::vector<std::string> Pipeline::stage_names() const {
  std::vector<std::string> names;
  names.reserve(stages_.size());
  for (const Stage& s : stages_) names.push_back(s.name);
  return names;
}

bool Pipeline::has_stage(const std::string& name) const {
  return std::any_of(stages_.begin(), stages_.end(),
                     [&](const Stage& s) { return s.name == name; });
}

bool Pipeline::run(DesignDB& db) const {
  const auto run_t0 = std::chrono::steady_clock::now();
  const CompileOptions& opt = db.options;

  // Effective cancellation token: the caller's kill switch, with the
  // per-run deadline (when armed) layered on top. Installed as this
  // thread's ambient token so the long loops deep in the engines can poll
  // it without parameter plumbing (see core/cancel.hpp).
  CancelToken deadline_token;
  const CancelToken* token = opt.cancel;
  if (opt.deadline_ms > 0) {
    deadline_token.set_deadline_after(opt.deadline_ms);
    deadline_token.set_parent(token);
    token = &deadline_token;
  }
  const CancelScope ambient(token);

  bool policy_ok = true;
  if (!opt.stop_after.empty() && !has_stage(opt.stop_after)) {
    db.diags.error("pipeline",
                   "stop_after names unknown stage '" + opt.stop_after + "'");
    policy_ok = false;
  }
  for (const std::string& s : opt.skip) {
    if (!has_stage(s)) {
      db.diags.error("pipeline", "skip names unknown stage '" + s + "'");
      policy_ok = false;
    }
  }

  bool failed = !policy_ok;
  bool stopped = false;
  for (const Stage& s : stages_) {
    StageTiming t{s.name, 0, false, false, false};
    const bool skipped =
        std::find(opt.skip.begin(), opt.skip.end(), s.name) != opt.skip.end();
    const bool is_stop = !opt.stop_after.empty() && s.name == opt.stop_after;
    if (!failed && !stopped && !skipped && token != nullptr &&
        token->cancelled()) {
      // Cut off at the stage boundary: one Cancelled diagnostic, every
      // remaining slot recorded with ran == false.
      db.diags.cancelled(s.name, std::string(token->reason()) +
                                     " before stage '" + s.name + "'");
      failed = true;
    }
    if (failed || stopped || skipped) {
      // A stage both skipped and named by stop_after still ends the run.
      stopped |= is_stop;
      t.skipped = skipped;
      db.timings.push_back(std::move(t));
      continue;
    }
    const std::size_t diags_before = db.diags.all().size();
    const auto t0 = std::chrono::steady_clock::now();
    bool ok = false;
    {
      SILC_OBS_SPAN(s.name, "stage");
      try {
        SILC_FAULT_POINT("pipeline.stage." + s.name);
        ok = s.fn(db);
      } catch (const Cancelled& c) {
        db.diags.cancelled(s.name, c.what());
      } catch (const std::exception& e) {
        db.diags.error(s.name, e.what());
      } catch (...) {
        db.diags.error(s.name, "unknown error (non-standard exception)");
      }
    }
    t.ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
               .count();
    t.ran = true;
    t.ok = ok;
    db.timings.push_back(std::move(t));
    if (!ok) {
      // A failing stage must explain itself; guarantee at least one error
      // (a cancellation explains itself too).
      bool explained = false;
      for (std::size_t i = diags_before; i < db.diags.all().size(); ++i) {
        const Severity sev = db.diags.all()[i].severity;
        explained |= sev == Severity::Error || sev == Severity::Cancelled;
      }
      if (!explained) db.diags.error(s.name, "stage failed");
      failed = true;
    }
    stopped |= is_stop;
  }
  db.pipeline_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - run_t0)
                       .count();
  return !failed;
}

// ---------------------------------------------------------- standard flows --

namespace {

/// Guard a missing prerequisite with a diagnostic instead of a crash.
bool require(DesignDB& db, const char* stage, bool present,
             const char* what) {
  if (!present) {
    db.diags.error(stage, std::string("missing prerequisite: ") + what);
  }
  return present;
}

bool stage_cif(DesignDB& db) {
  if (!require(db, "cif", db.chip != nullptr, "assembled chip")) return false;
  if (db.program && !db.program->cif.empty()) {
    // The program's own write_cif wins — it may name a different cell than
    // the returned top, so the note doesn't attribute it.
    db.cif = db.program->cif;
    db.diags.note("cif", std::to_string(db.cif->size()) +
                             " bytes of program-written manufacturing data");
  } else {
    db.cif = cif::write(*db.chip);
    db.diags.note("cif", std::to_string(db.cif->size()) +
                             " bytes of manufacturing data for cell '" +
                             db.chip->name() + "'");
  }
  return true;
}

bool stage_drc(DesignDB& db) {
  if (!require(db, "drc", db.chip != nullptr, "assembled chip")) return false;
  // Any failure inside check_hier (an injected fault on its miss path)
  // degrades to the flat engine — byte-identical violation set (the DRC
  // engine contract), alive. Cancellation is not a failure and must
  // propagate to the stage boundary.
  try {
    db.drc = drc::check_hier(*db.chip, tech::nmos());
  } catch (const Cancelled&) {
    throw;
  } catch (const std::exception& e) {
    db.diags.warning("drc", std::string("hierarchical DRC failed (") +
                                e.what() + "); falling back to flat");
    db.drc = drc::check_flat(db.flattened().shapes);
  }
  const auto& violations = db.drc->violations;
  const std::size_t show = std::min(violations.size(), drc::Result::kMaxReported);
  for (std::size_t i = 0; i < show; ++i) {
    db.diags.error("drc", violations[i].str());
  }
  if (violations.size() > show) {
    db.diags.error("drc", "... and " +
                              std::to_string(violations.size() - show) +
                              " more violations");
  }
  if (violations.empty()) {
    // flat_shape_count() == flattened().shapes.size(), without forcing the
    // flatten only a hier failure pays.
    db.diags.note("drc", "clean over " +
                             std::to_string(db.chip->flat_shape_count()) +
                             " rects");
  }
  return true;  // DRC findings are reported, not fatal to later checks
}

bool stage_extract(DesignDB& db) {
  if (!require(db, "extract", db.chip != nullptr, "assembled chip")) {
    return false;
  }
  const extract::Netlist& nl = db.netlist();
  for (const std::string& w : nl.warnings) db.diags.warning("extract", w);
  db.diags.note("extract", nl.summary());
  return true;
}

Pipeline make_behavioral() {
  Pipeline p;
  p.stage("parse", [](DesignDB& db) {
    db.design = rtl::parse(db.source);
    db.diags.note("parse", "parsed " + db.design->summary());
    return true;
  });
  p.stage("tabulate", [](DesignDB& db) {
    if (!require(db, "tabulate", db.design.has_value(), "parsed design")) {
      return false;
    }
    db.fsm = synth::tabulate(*db.design);
    db.diags.note("tabulate",
                  std::to_string(db.fsm->input_names.size()) + " -> " +
                      std::to_string(db.fsm->output_names.size()) +
                      " bit truth table, " +
                      std::to_string(db.fsm->state_bits) + " state bits");
    return true;
  });
  p.stage("assemble", [](DesignDB& db) {
    if (!require(db, "assemble", db.fsm.has_value(), "tabulated FSM")) {
      return false;
    }
    db.assembled =
        assemble::assemble_fsm_chip(*db.lib, *db.fsm, {.name = db.options.name});
    db.chip = db.assembled->chip;
    const assemble::FsmChipStats& st = db.assembled->stats;
    db.diags.note("assemble",
                  std::to_string(st.width) + " x " + std::to_string(st.height) +
                      " half-lambda die, " + std::to_string(st.pads) +
                      " pads, " + std::to_string(st.pla.num_terms) +
                      " PLA terms");
    return true;
  });
  p.stage("cif", stage_cif);
  p.stage("drc", stage_drc);
  p.stage("extract", stage_extract);
  p.stage("gate-check", [](DesignDB& db) {
    if (!require(db, "gate-check", db.design.has_value() && db.fsm.has_value(),
                 "design + FSM")) {
      return false;
    }
    // Behavioral-vs-gates as a proof: the tabulated FSM is the behavioral
    // simulator run over every state/input pair, so the compiled gates
    // checked against it on every minterm (a few bit-parallel passes)
    // decide every input sequence. A prover that throws fails the stage
    // at the boundary with a structured error diag.
    db.gate_check = sim::prove_gates(*db.design, *db.fsm);
    if (!db.gate_check->ok) {
      // The cheap check failed; the pipeline stops before the expensive
      // artwork run.
      db.diags.error("gate-check",
                     db.gate_check->detail + "; artwork check skipped");
      return false;
    }
    db.diags.note("gate-check", db.gate_check->detail);
    return true;
  });
  p.stage("pla-check", [](DesignDB& db) {
    if (!require(db, "pla-check",
                 db.design.has_value() && db.fsm.has_value() &&
                     db.assembled.has_value(),
                 "design + FSM + programmed personality")) {
      return false;
    }
    // Check the personality actually programmed into the NOR-NOR planes
    // against the tabulated spec, pre-artwork — the same discipline the
    // gate path gets, for the tabulate->PLA lowering — on every minterm of
    // the table. A prover that throws comes back as an error report and
    // fails the stage like a mismatch verdict.
    db.pla_check = sim::check_pla(*db.design, *db.fsm,
                                  db.assembled->personality,
                                  CompileOptions::pla_verify_cycles,
                                  /*lanes=*/0, /*seed=*/2u, /*sim=*/{},
                                  CompileOptions::pla_check_mode);
    if (!db.pla_check->ok) {
      db.diags.error("pla-check",
                     db.pla_check->detail + "; artwork check skipped");
      return false;
    }
    db.diags.note("pla-check", db.pla_check->detail);
    return true;
  });
  p.stage("artwork-check", [](DesignDB& db) {
    if (!require(db, "artwork-check",
                 db.design.has_value() && db.chip != nullptr,
                 "design + assembled chip")) {
      return false;
    }
    // Artwork: extracted transistors under the switch-level simulator,
    // reusing the netlist the extract stage already computed (extraction
    // warnings fail inside verify_chip_against_rtl with their own detail).
    std::string detail;
    db.artwork_ok = verify_chip_against_rtl(
        db.netlist(), *db.design, db.options.verify_cycles, 1u, detail);
    db.artwork_detail = detail;
    if (!db.artwork_ok) {
      db.diags.error("artwork-check", "artwork: " + detail);
      return false;
    }
    db.diags.note("artwork-check", "artwork: " + detail);
    return true;
  });
  return p;
}

Pipeline make_structural() {
  Pipeline p;
  p.stage("parse", [](DesignDB& db) {
    lang::Interpreter interp(*db.lib);
    db.program = interp.run(db.source);
    db.chip = db.program->cell();
    if (db.chip == nullptr) {
      // Fall back: a cell named by the options, if the program created one.
      db.chip = db.lib->find(db.options.name);
    }
    if (!db.program->output.empty()) {
      db.diags.note("parse", "program output: " + db.program->output);
    }
    if (db.chip == nullptr) {
      db.diags.error("parse", "program did not return a cell");
      return false;
    }
    db.diags.note("parse", "ran " + std::to_string(db.program->steps) +
                               " steps, top cell '" + db.chip->name() + "'");
    return true;
  });
  p.stage("cif", stage_cif);
  p.stage("drc", stage_drc);
  p.stage("extract", stage_extract);
  return p;
}

}  // namespace

Pipeline Pipeline::behavioral() { return make_behavioral(); }

Pipeline Pipeline::structural() { return make_structural(); }

// ---------------------------------------------------------------- results --

bool CompileResult::ok() const {
  // A cached result never carries a chip pointer (the original Library is
  // gone); from_cache stands in for it — only ok() results with a chip
  // are memoized (ResultCache::eligible), so the flag is equivalent.
  return (chip != nullptr || from_cache) && drc.ok() && !has_errors();
}

bool CompileResult::has_errors() const { return core::has_errors(diags); }

bool CompileResult::cancelled() const {
  return std::any_of(diags.begin(), diags.end(), [](const Diag& d) {
    return d.severity == Severity::Cancelled;
  });
}

std::string CompileResult::diag_text() const { return render(diags); }

bool CompileResult::same_outcome(const CompileResult& other) const {
  if (ok() != other.ok() || verified != other.verified || cif != other.cif ||
      transistors != other.transistors || rect_count != other.rect_count ||
      verify_detail != other.verify_detail ||
      diags.size() != other.diags.size()) {
    return false;
  }
  for (std::size_t i = 0; i < diags.size(); ++i) {
    if (diags[i].str() != other.diags[i].str()) return false;
  }
  return true;
}

CompileResult finish(DesignDB& db) {
  CompileResult r;
  r.chip = db.chip;
  if (db.cif) r.cif = *db.cif;
  if (db.drc) r.drc = *db.drc;
  if (db.assembled) r.stats = db.assembled->stats;
  if (db.chip != nullptr) r.rect_count = db.chip->flat_shape_count();
  if (db.has_netlist()) r.transistors = db.netlist().transistors.size();
  r.verified = db.artwork_ok;
  // The human-readable verification summary is the verification stages'
  // diagnostics, in stage order (structural programs report their own
  // output instead).
  for (const char* stage : {"gate-check", "pla-check", "artwork-check"}) {
    const std::string t = db.diags.stage_text(stage);
    if (t.empty()) continue;
    if (!r.verify_detail.empty()) r.verify_detail += "; ";
    r.verify_detail += t;
  }
  if (r.verify_detail.empty() && db.program) {
    r.verify_detail = db.program->output;
  }
  r.diags = db.diags.all();
  r.timings = db.timings;
  r.pipeline_ms = db.pipeline_ms;
  return r;
}

namespace {

/// One compile with the options as given: consult `cache` (when given),
/// run the pipeline on a miss, memoize eligible results.
CompileResult compile_wired(layout::Library& lib, Flow flow,
                            const std::string& source,
                            const CompileOptions& options, ResultCache* cache) {
#if SILC_OBS_ENABLED
  const std::vector<obs::MetricSample> before = obs::Metrics::global().snapshot();
#endif
  std::uint64_t fp = 0;
  if (cache != nullptr) {
    fp = ResultCache::fingerprint(flow, source, options);
    CompileResult cached;
    if (cache->find(fp, &cached)) {
#if SILC_OBS_ENABLED
      cached.metrics = obs::delta(before, obs::Metrics::global().snapshot());
#endif
      return cached;
    }
  }
  DesignDB db(lib, flow, source, options);
  const Pipeline p =
      flow == Flow::Behavioral ? Pipeline::behavioral() : Pipeline::structural();
  p.run(db);
  CompileResult r = finish(db);
#if SILC_OBS_ENABLED
  r.metrics = obs::delta(before, obs::Metrics::global().snapshot());
#endif
  if (cache != nullptr) cache->store(fp, r);
  return r;
}

}  // namespace

CompileResult compile(layout::Library& lib, Flow flow,
                      const std::string& source,
                      const CompileOptions& options) {
  if (options.cache_dir.empty()) {
    return compile_wired(lib, flow, source, options, nullptr);
  }
  // The persistent path: load the store, run through its result cache,
  // and save it back (with whatever other streams the file held) only
  // when the compile added a record; a hit leaves the file untouched.
  const std::string path = options.cache_dir + "/silc.store";
  store::Store persist;
  persist.load(path);
  ResultCache result_cache;
  result_cache.load_from(persist);
  const std::size_t loaded = result_cache.size();
  CompileResult r = compile_wired(lib, flow, source, options, &result_cache);
  // Store-layer notices ride as warnings on this result (warnings never
  // flip ok()); the batch path keeps them in BatchResult::store_diags
  // instead, where byte-identity across runs is CI-gated.
  if (!persist.load_error().empty()) {
    r.diags.push_back(
        {Severity::Warning, "store", persist.load_error() + " (cold start)"});
  }
  if (result_cache.size() == loaded) return r;
  result_cache.save_to(persist);
  if (!persist.save(path)) {
    r.diags.push_back({Severity::Warning, "store", persist.save_error()});
  }
  return r;
}

// ------------------------------------------------------------------ batch --

std::size_t BatchResult::ok_count() const {
  return static_cast<std::size_t>(
      std::count_if(results.begin(), results.end(),
                    [](const CompileResult& r) { return r.ok(); }));
}

std::string BatchResult::profile_text() const {
  std::ostringstream os;
  char line[128];
  std::snprintf(line, sizeof line, "%-14s %6s %12s %12s\n", "stage", "runs",
                "total ms", "ms/run");
  os << line;
  for (const StageProfile& s : profile) {
    std::snprintf(line, sizeof line, "%-14s %6d %12.2f %12.2f\n",
                  s.stage.c_str(), s.runs, s.total_ms,
                  s.runs > 0 ? s.total_ms / s.runs : 0.0);
    os << line;
  }
  return os.str();
}

BatchResult compile_many(const std::vector<BatchJob>& jobs, int threads) {
  BatchResult br;
  const std::size_t n = jobs.size();
  const unsigned hw = std::thread::hardware_concurrency();
  int want = threads > 0 ? threads : static_cast<int>(hw);
  if (want < 1) want = 1;
  // Never oversubscribe: extra workers beyond the core count are strictly
  // slower for this CPU-bound work (a 1-core box ran threads=2 slower
  // than threads=1), so the hardware clamp wins over the caller's ask —
  // and when it yields 1 the crew loop below starts no threads at all.
  if (hw >= 1) want = std::min(want, static_cast<int>(hw));
  br.threads = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(want), std::max<std::size_t>(n, 1)));
  br.results.resize(n);
  br.libraries.resize(n);

  // The batch's one cache tier: a ResultCache keyed by the compile's
  // fingerprint. The first job naming a cache_dir opens the persistent
  // store — loaded ONCE here before the crew starts, saved ONCE after it
  // joins (store::Store is not thread-safe by design). A corrupt or
  // version-skewed file degrades to a cold start, with the reason in
  // store_diags.
  std::string cache_dir;
  for (const BatchJob& j : jobs) {
    if (!j.options.cache_dir.empty()) {
      cache_dir = j.options.cache_dir;
      break;
    }
  }
  store::Store persist;
  ResultCache result_cache;
  std::size_t loaded = 0;  // result records the store file brought in
  if (!cache_dir.empty()) {
    const auto t_load = std::chrono::steady_clock::now();
    persist.load(cache_dir + "/silc.store");
    br.store.load_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t_load)
                           .count();
    if (!persist.load_error().empty()) {
      br.store.poisoned += 1;
      br.store_diags.push_back({Severity::Warning, "store",
                                persist.load_error() + " (cold start)"});
    }
    br.store.loaded_records = persist.records();
    result_cache.load_from(persist);
    loaded = result_cache.size();
  }

  // Dedupe: the first job of each fingerprint compiles in the first pass;
  // every repeat waits for the second, when its first has memoized (or
  // not). A repeat of an eligible result is then a plain cache hit, and
  // any other repeat compiles on its own without the cache — which the
  // second pass therefore only reads, so what serves each job does not
  // depend on the thread count.
  std::vector<std::uint64_t> fp(n);
  std::vector<std::size_t> firsts, repeats;
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t i = 0; i < n; ++i) {
    fp[i] = ResultCache::fingerprint(jobs[i].flow, jobs[i].source,
                                     jobs[i].options);
    (seen.insert(fp[i]).second ? firsts : repeats).push_back(i);
  }
  std::vector<bool> served(n, true);  // consult the cache (firsts always)

  // The crew: an atomic cursor hands out the next design; every job owns
  // a private Library so workers never touch shared mutable state, and
  // results land in index-parallel slots — identical output at any
  // thread count.
  //
  // Batch isolation: compile() never throws on malformed source, but the
  // machinery around it (allocation, an injected fault, a bug) can — and
  // an exception escaping a std::thread is std::terminate for the whole
  // batch. Every job body is therefore exception-contained on the worker:
  // a throw becomes one failed CompileResult with a structured diagnostic
  // while every other job's result stays bit-identical to a fault-free
  // run (tests/test_fault.cpp proves it under chaos schedules).
  const auto run_job = [&](std::size_t i) {
    const BatchJob& job = jobs[i];
    try {
      SILC_OBS_SPAN("job:" + job.options.name, "batch");
      const fault::ScopeGuard fault_scope("job:" + std::to_string(i));
      SILC_FAULT_POINT("batch.job");
      auto lib = std::make_unique<layout::Library>(job.options.name);
      CompileOptions opt = job.options;
      opt.cache_dir.clear();  // the batch owns the persistence cycle
      br.results[i] = compile_wired(*lib, job.flow, job.source, opt,
                                    served[i] ? &result_cache : nullptr);
      // A served result has no chip, so nothing lives in its library.
      if (!br.results[i].from_cache) br.libraries[i] = std::move(lib);
    } catch (const std::exception& e) {
      CompileResult failed;
      failed.diags.push_back({Severity::Error, "batch",
                              "job '" + job.options.name +
                                  "' failed outside stage boundaries: " +
                                  e.what()});
      br.results[i] = std::move(failed);
    } catch (...) {
      CompileResult failed;
      failed.diags.push_back({Severity::Error, "batch",
                              "job '" + job.options.name +
                                  "' failed outside stage boundaries "
                                  "(non-standard exception)"});
      br.results[i] = std::move(failed);
    }
    SILC_OBS_COUNT("batch.jobs", 1);
  };
  const auto run_pass = [&](const std::vector<std::size_t>& order) {
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
      for (;;) {
        const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
        if (k >= order.size()) return;
        run_job(order[k]);
      }
    };
    const int crew_size = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(br.threads), order.size()));
    std::vector<std::thread> crew;
    for (int t = 1; t < crew_size; ++t) crew.emplace_back(work);
    work();
    for (std::thread& t : crew) t.join();
  };

  SILC_OBS_SPAN("compile_many:" + std::to_string(n) + "jobs", "batch");
  const auto t0 = std::chrono::steady_clock::now();
  run_pass(firsts);
  for (const std::size_t i : repeats) served[i] = result_cache.contains(fp[i]);
  run_pass(repeats);
  br.wall_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  br.store.hits = result_cache.hits();
  br.store.misses = result_cache.misses();

  // Save once after the crew joins, and only when the batch memoized a
  // result the file lacked: everything the batch learned — the union of
  // what was loaded and what was computed — goes back in one atomic
  // rename. A fully served batch leaves the file untouched. A failed save
  // is a warning, never a failed batch.
  if (!cache_dir.empty() && result_cache.size() > loaded) {
    result_cache.save_to(persist);
    const auto t_save = std::chrono::steady_clock::now();
    if (!persist.save(cache_dir + "/silc.store")) {
      br.store_diags.push_back(
          {Severity::Warning, "store", persist.save_error()});
    }
    br.store.save_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t_save)
                           .count();
    br.store.file_bytes = persist.file_bytes();
  } else if (!cache_dir.empty()) {
    std::error_code ec;
    const std::uintmax_t on_disk =
        std::filesystem::file_size(cache_dir + "/silc.store", ec);
    br.store.file_bytes = ec ? 0 : on_disk;
  }

  // Aggregate the per-stage profile in deterministic (job, stage) order.
  for (const CompileResult& r : br.results) {
    for (const StageTiming& t : r.timings) {
      auto it = std::find_if(
          br.profile.begin(), br.profile.end(),
          [&](const StageProfile& s) { return s.stage == t.stage; });
      if (it == br.profile.end()) {
        br.profile.push_back({t.stage, 0, 0});
        it = std::prev(br.profile.end());
      }
      if (t.ran) {
        ++it->runs;
        it->total_ms += t.ms;
      }
    }
  }
  return br;
}

}  // namespace silc::core
