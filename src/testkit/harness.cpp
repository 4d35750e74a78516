#include "testkit/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "testkit/differential.h"
#include "testkit/forest_oracle.h"
#include "testkit/fuzz.h"
#include "testkit/invariants.h"
#include "testkit/landpool_oracle.h"
#include "testkit/sgd_oracle.h"
#include "testkit/simd.h"
#include "util/binary_io.h"

namespace diagnet::testkit {

std::uint64_t fnv1a64(const void* data, std::size_t n) {
  return util::fnv1a64(data, n);
}

std::uint64_t fnv1a64(const std::string& s) {
  return util::fnv1a64(s.data(), s.size());
}

void CaseContext::fail(const std::string& what) {
  errors.push_back(what + "  [repro: --seed " + std::to_string(seed) +
                   " --iters " + std::to_string(iter + 1) + ", iter " +
                   std::to_string(iter) + "]");
}

bool CaseContext::check(bool cond, const std::string& what) {
  ++checks;
  if (!cond) fail(what);
  return cond;
}

bool CaseContext::check_near(double got, double want, double tol,
                             const std::string& what) {
  ++checks;
  const double scale =
      std::max({std::abs(got), std::abs(want), 1.0});
  if (std::abs(got - want) <= tol * scale) return true;
  std::ostringstream os;
  os << what << ": got " << std::setprecision(17) << got << ", want " << want
     << " (tol " << tol << ")";
  fail(os.str());
  return false;
}

bool CaseContext::check_eq(std::size_t got, std::size_t want,
                           const std::string& what) {
  ++checks;
  if (got == want) return true;
  fail(what + ": got " + std::to_string(got) + ", want " +
       std::to_string(want));
  return false;
}

const std::vector<Suite>& all_suites() {
  static const std::vector<Suite> suites = {
      {"oracle.gemm", check_gemm_oracle},
      {"oracle.softmax", check_softmax_oracle},
      {"oracle.landpool", check_landpool_oracle},
      {"oracle.landpool_grad",
       [](CaseContext& ctx) {
         check_landpool_grad(ctx);
         check_landpool_grad(ctx);
       }},
      {"oracle.landpool_bits", check_landpool_bits},
      {"oracle.sgd_step", check_sgd_step},
      {"oracle.attention", check_attention_batch},
      {"oracle.kernel_tiers", check_kernel_tiers},
      {"oracle.forest_fit", check_forest_fit},
      {"oracle.forest_score", check_forest_score},
      {"invariant.permutation",
       [](CaseContext& ctx) {
         check_pooling_permutation(ctx);
         check_ranking_permutation(ctx);
       }},
      {"invariant.extensibility",
       [](CaseContext& ctx) {
         check_extensibility_dims(ctx);
         check_extensibility_masked_noop(ctx);
         check_extensibility_ranking(ctx);
       }},
      {"invariant.scoreweight", check_score_weighting},
      {"invariant.ensemble", check_ensemble_convexity},
      {"fuzz.binary_io", fuzz::check_binary_io_fuzz},
      {"fuzz.bundle", fuzz::check_bundle_fuzz},
      {"fuzz.campaign", fuzz::check_campaign_fuzz},
      {"fuzz.wire_framing", fuzz::check_wire_framing_fuzz},
  };
  return suites;
}

const Suite* find_suite(const std::string& name) {
  for (const Suite& suite : all_suites())
    if (suite.name == name) return &suite;
  return nullptr;
}

PropertyRunner::PropertyRunner(std::uint64_t seed, std::size_t iters)
    : seed_(seed), iters_(iters) {}

namespace {

constexpr std::size_t kMaxMessagesPerSuite = 8;

void run_one_iteration(const std::string& suite, const PropertyFn& fn,
                       std::uint64_t seed, std::uint64_t iter,
                       SuiteResult& result) {
  CaseContext ctx;
  ctx.rng = util::Rng(seed).fork(fnv1a64(suite)).fork(iter);
  ctx.seed = seed;
  ctx.iter = iter;
  try {
    fn(ctx);
  } catch (const std::exception& e) {
    ctx.fail(std::string("unexpected exception: ") + e.what());
  } catch (...) {
    ctx.fail("unexpected non-standard exception");
  }
  ++result.iterations;
  result.cases += ctx.cases;
  result.checks += ctx.checks;
  if (!ctx.ok()) {
    ++result.failed_iterations;
    for (const std::string& msg : ctx.errors) {
      if (result.messages.size() >= kMaxMessagesPerSuite) break;
      result.messages.push_back(msg);
    }
  }
}

}  // namespace

SuiteResult PropertyRunner::run(
    const std::string& suite, const PropertyFn& fn,
    const std::vector<std::uint64_t>& replay_iters) const {
  SuiteResult result;
  result.name = suite;
  // Known-bad iterations first (the ReplayTestGenerator idiom), then the
  // fresh sweep. An iteration replayed twice costs a little time and
  // nothing else — results are keyed by (seed, suite, iter) alone.
  for (std::uint64_t iter : replay_iters)
    run_one_iteration(suite, fn, seed_, iter, result);
  for (std::uint64_t iter = 0; iter < iters_; ++iter)
    run_one_iteration(suite, fn, seed_, iter, result);
  return result;
}

std::string describe(const SuiteResult& result) {
  std::ostringstream os;
  os << result.name << ": " << result.iterations << " iterations, "
     << result.cases << " cases, " << result.checks << " checks, "
     << result.failed_iterations << " failed";
  for (const std::string& msg : result.messages) os << "\n  " << msg;
  return os.str();
}

std::vector<CorpusEntry> load_corpus(const std::string& path) {
  std::vector<CorpusEntry> entries;
  std::ifstream is(path);
  if (!is) return entries;  // a missing corpus is an empty corpus
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    CorpusEntry entry;
    if (ls >> entry.suite >> entry.seed >> entry.iter)
      entries.push_back(std::move(entry));
  }
  return entries;
}

void append_corpus(const std::string& path,
                   const std::vector<CorpusEntry>& entries) {
  if (entries.empty()) return;
  std::ofstream os(path, std::ios::app);
  if (!os)
    throw std::runtime_error("selfcheck: cannot append corpus: " + path);
  for (const CorpusEntry& entry : entries)
    os << entry.suite << ' ' << entry.seed << ' ' << entry.iter << '\n';
}

SelfCheckReport run_selfcheck(const SelfCheckConfig& config,
                              std::ostream& out) {
  const std::vector<CorpusEntry> corpus =
      config.corpus_path.empty() ? std::vector<CorpusEntry>{}
                                 : load_corpus(config.corpus_path);

  SelfCheckReport report;
  std::vector<CorpusEntry> new_failures;
  const PropertyRunner runner(config.seed, config.iters);

  out << "selfcheck: seed " << config.seed << ", " << config.iters
      << " iterations per suite\n";
  out << std::left << std::setw(28) << "suite" << std::right << std::setw(8)
      << "iters" << std::setw(8) << "cases" << std::setw(10) << "checks"
      << "  result\n";

  for (const Suite& suite : all_suites()) {
    if (!config.filter.empty() &&
        suite.name.find(config.filter) == std::string::npos)
      continue;

    // Same-seed corpus entries replay inside the main runner; entries
    // recorded under another seed get a dedicated zero-sweep runner.
    std::vector<std::uint64_t> replay;
    SuiteResult result;
    result.name = suite.name;
    for (const CorpusEntry& entry : corpus) {
      if (entry.suite != suite.name) continue;
      if (entry.seed == config.seed) {
        replay.push_back(entry.iter);
      } else {
        const SuiteResult r =
            PropertyRunner(entry.seed, 0).run(suite.name, suite.fn,
                                              {entry.iter});
        result.iterations += r.iterations;
        result.cases += r.cases;
        result.checks += r.checks;
        result.failed_iterations += r.failed_iterations;
        for (const std::string& msg : r.messages)
          if (result.messages.size() < kMaxMessagesPerSuite)
            result.messages.push_back(msg);
      }
    }

    const SuiteResult fresh = runner.run(suite.name, suite.fn, replay);
    result.iterations += fresh.iterations;
    result.cases += fresh.cases;
    result.checks += fresh.checks;
    result.failed_iterations += fresh.failed_iterations;
    for (const std::string& msg : fresh.messages)
      if (result.messages.size() < kMaxMessagesPerSuite)
        result.messages.push_back(msg);

    out << std::left << std::setw(28) << result.name << std::right
        << std::setw(8) << result.iterations << std::setw(8) << result.cases
        << std::setw(10) << result.checks << "  "
        << (result.ok() ? "ok" : "FAIL") << '\n';
    for (const std::string& msg : result.messages) out << "    " << msg << '\n';

    if (!result.ok() && !config.corpus_path.empty()) {
      // Pin every failing fresh iteration under the current seed. The
      // message format carries the exact repro; the corpus carries the key.
      for (std::uint64_t iter = 0; iter < config.iters; ++iter) {
        SuiteResult probe;
        run_one_iteration(suite.name, suite.fn, config.seed, iter, probe);
        if (probe.failed_iterations > 0)
          new_failures.push_back({suite.name, config.seed, iter});
      }
    }

    report.suites.push_back(std::move(result));
  }

  if (!config.corpus_path.empty()) append_corpus(config.corpus_path,
                                                 new_failures);

  std::size_t failed_suites = 0;
  for (const SuiteResult& s : report.suites)
    if (!s.ok()) ++failed_suites;
  out << (report.ok() ? "selfcheck passed: " : "selfcheck FAILED: ")
      << report.suites.size() << " suites, " << failed_suites
      << " with failures (seed " << config.seed << ")\n";
  return report;
}

std::uint64_t env_seed(std::uint64_t fallback) {
  const char* raw = std::getenv("DIAGNET_PROPTEST_SEED");
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw, &end, 10);
  return (end != nullptr && *end == '\0') ? value : fallback;
}

std::size_t env_iters(std::size_t fallback) {
  const char* raw = std::getenv("DIAGNET_PROPTEST_ITERS");
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw, &end, 10);
  return (end != nullptr && *end == '\0' && value > 0)
             ? static_cast<std::size_t>(value)
             : fallback;
}

}  // namespace diagnet::testkit
