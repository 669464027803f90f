// Tests for the repo-invariant checker (tools/lint/lint.h): each rule must
// fire exactly once on a known-bad synthetic source, stay quiet on clean
// code, and the real src/ tree must be lint-clean (self-check).

#include "tools/lint/lint.h"

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace neuroprint::lint {
namespace {

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

int LineOfRule(const std::vector<Finding>& findings, const std::string& rule) {
  for (const Finding& f : findings) {
    if (f.rule == rule) return f.line;
  }
  return -1;
}

std::vector<Finding> LintOne(const std::string& path,
                             const std::string& contents) {
  return LintFile({path, contents}, DeclIndex{});
}

TEST(StripCommentsAndStringsTest, BlanksCommentsAndLiteralsKeepsLines) {
  const std::string in =
      "int a; // rand()\n"
      "/* abort()\n   printf() */ int b;\n"
      "const char* s = \"rand()\";\n";
  const std::string out = StripCommentsAndStrings(in);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_EQ(out.find("abort"), std::string::npos);
  EXPECT_EQ(out.find("printf"), std::string::npos);
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
}

TEST(StripCommentsAndStringsTest, HandlesEscapedQuotes) {
  const std::string out =
      StripCommentsAndStrings("const char* s = \"a\\\"rand()\"; int c;");
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_NE(out.find("int c;"), std::string::npos);
}

TEST(StripCommentsAndStringsTest, HandlesRawStrings) {
  // The old state machine treated `)` inside a raw string as end of code
  // context and leaked the tail; the lexer-backed version must blank the
  // whole literal and keep the code around it.
  const std::string out = StripCommentsAndStrings(
      "auto s = R\"x(abort(); \"inner\" )\" still raw )x\"; int live;\n");
  EXPECT_EQ(out.find("abort"), std::string::npos);
  EXPECT_EQ(out.find("still raw"), std::string::npos);
  EXPECT_NE(out.find("int live;"), std::string::npos);
}

TEST(StripCommentsAndStringsTest, KeepsNewlinesInsideRawStrings) {
  const std::string out =
      StripCommentsAndStrings("auto s = R\"(a\nb\nc)\";\nint live;\n");
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_NE(out.find("int live;"), std::string::npos);
}

TEST(IncludeGuardRule, FiresOnceOnWrongGuard) {
  const std::vector<Finding> findings = LintOne(
      "image/mask.h", "#ifndef WRONG_H_\n#define WRONG_H_\n#endif\n");
  ASSERT_EQ(CountRule(findings, "include-guard"), 1);
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("NEUROPRINT_IMAGE_MASK_H_"),
            std::string::npos);
}

TEST(IncludeGuardRule, FiresOnMissingGuard) {
  EXPECT_EQ(CountRule(LintOne("a/b.h", "int x;\n"), "include-guard"), 1);
}

TEST(IncludeGuardRule, FiresOnMissingDefine) {
  EXPECT_EQ(CountRule(LintOne("a/b.h", "#ifndef NEUROPRINT_A_B_H_\n#endif\n"),
                      "include-guard"),
            1);
}

TEST(IncludeGuardRule, AcceptsCorrectGuardAndIgnoresNonHeaders) {
  EXPECT_EQ(CountRule(LintOne("a/b.h",
                              "#ifndef NEUROPRINT_A_B_H_\n"
                              "#define NEUROPRINT_A_B_H_\n#endif\n"),
                      "include-guard"),
            0);
  EXPECT_EQ(CountRule(LintOne("a/b.cc", "int x;\n"), "include-guard"), 0);
}

TEST(NoRandRule, FiresOnceOnStrayRand) {
  const std::vector<Finding> findings =
      LintOne("core/knn.cc", "int f() { return rand(); }\n");
  EXPECT_EQ(CountRule(findings, "no-rand"), 1);
}

TEST(NoRandRule, ExemptsRandomModuleAndIgnoresLookalikes) {
  EXPECT_EQ(CountRule(LintOne("util/random.cc", "int f() { return rand(); }\n"),
                      "no-rand"),
            0);
  // srand token inside a longer identifier, member access, and no-call uses.
  EXPECT_EQ(CountRule(LintOne("core/knn.cc",
                              "int mysrand(int); int g() { return "
                              "mysrand(2) + obj.rand(); }\n"),
                      "no-rand"),
            0);
}

TEST(NoNakedStdioRule, FiresOncePerCall) {
  const std::vector<Finding> findings = LintOne(
      "core/attack.cc",
      "void f() { printf(\"x\"); }\nvoid g() { fprintf(stderr, \"y\"); }\n");
  EXPECT_EQ(CountRule(findings, "no-naked-stdio"), 2);
}

TEST(NoNakedStdioRule, ExemptsLoggingAndSnprintf) {
  EXPECT_EQ(CountRule(LintOne("util/logging.cc", "void f() { printf(\"\"); }\n"),
                      "no-naked-stdio"),
            0);
  EXPECT_EQ(CountRule(LintOne("util/csv_writer.cc",
                              "void f(char* b) { snprintf(b, 4, \"\"); }\n"),
                      "no-naked-stdio"),
            0);
}

TEST(NoAbortRule, FiresOnceOutsideCheckH) {
  EXPECT_EQ(CountRule(LintOne("linalg/qr.cc", "void f() { std::abort(); }\n"),
                      "no-abort"),
            1);
  EXPECT_EQ(CountRule(LintOne("util/check.h", "void f() { std::abort(); }\n"),
                      "no-abort"),
            0);
}

TEST(NoExitRule, FiresOnEveryExitFlavorOutsideCheckH) {
  const std::vector<Finding> findings = LintOne(
      "nifti/nifti_io.cc",
      "void f() { exit(1); }\n"
      "void g() { std::exit(1); }\n"
      "void h() { _Exit(2); }\n"
      "void i() { quick_exit(3); }\n"
      "void j() { _exit(4); }\n");
  EXPECT_EQ(CountRule(findings, "no-exit"), 5);
}

TEST(NoExitRule, ExemptsCheckHAndIgnoresLookalikes) {
  EXPECT_EQ(CountRule(LintOne("util/check.h", "void f() { exit(1); }\n"),
                      "no-exit"),
            0);
  // Longer identifiers, member calls, and non-call uses must not match.
  EXPECT_EQ(CountRule(LintOne("core/knn.cc",
                              "void on_exit_handler(); int atexit(void (*)());"
                              "\nvoid f() { obj.exit(); }\nint exit_code = 0;"
                              "\n"),
                      "no-exit"),
            0);
}

TEST(NoThrowRule, FiresOnThrowStatements) {
  const std::vector<Finding> findings = LintOne(
      "linalg/qr.cc",
      "void f() { throw std::runtime_error(\"x\"); }\n"
      "void g() { throw; }\n");
  EXPECT_EQ(CountRule(findings, "no-throw"), 2);
}

TEST(NoThrowRule, ExemptsCheckHRethrowAndComments) {
  EXPECT_EQ(CountRule(LintOne("util/check.h", "void f() { throw 1; }\n"),
                      "no-throw"),
            0);
  // rethrow_exception (thread pool's worker-exception forwarding),
  // identifiers containing `throw`, and comment/string mentions are clean.
  EXPECT_EQ(
      CountRule(LintOne("util/thread_pool.cc",
                        "void f(std::exception_ptr e) { "
                        "std::rethrow_exception(e); }\n"
                        "int throw_away = 0;\n"
                        "// a comment that says throw\n"
                        "const char* s = \"throw\";\n"),
                "no-throw"),
      0);
}

TEST(DcheckSideEffectRule, FiresOnMutatingArguments) {
  EXPECT_EQ(CountRule(LintOne("a.cc", "void f(int i) { NP_DCHECK(i++ < 3); }\n"),
                      "dcheck-side-effect"),
            1);
  EXPECT_EQ(
      CountRule(LintOne("a.cc", "void f(int i) { NP_DCHECK_EQ(i = 3, 3); }\n"),
                "dcheck-side-effect"),
      1);
  EXPECT_EQ(
      CountRule(LintOne("a.cc", "void f(int i) { NP_DCHECK(i *= 2); }\n"),
                "dcheck-side-effect"),
      1);
}

TEST(DcheckSideEffectRule, AcceptsComparisonsAndCheckMacros) {
  const std::string ok =
      "void f(int i, int n) {\n"
      "  NP_DCHECK(i <= n);\n"
      "  NP_DCHECK(i == 3);\n"
      "  NP_DCHECK_GE(n, 0);\n"
      "  NP_CHECK(i >= 0);\n"
      "}\n";
  EXPECT_EQ(CountRule(LintOne("a.cc", ok), "dcheck-side-effect"), 0);
}

TEST(NoUsingNamespaceRule, FiresInHeadersOnly) {
  EXPECT_EQ(CountRule(LintOne("a/b.h",
                              "#ifndef NEUROPRINT_A_B_H_\n"
                              "#define NEUROPRINT_A_B_H_\n"
                              "using namespace std;\n#endif\n"),
                      "no-using-namespace"),
            1);
  EXPECT_EQ(CountRule(LintOne("a/b.cc", "using namespace std;\n"),
                      "no-using-namespace"),
            0);
  // Plain using-declarations are fine.
  EXPECT_EQ(CountRule(LintOne("a/b.h",
                              "#ifndef NEUROPRINT_A_B_H_\n"
                              "#define NEUROPRINT_A_B_H_\n"
                              "using std::vector;\n#endif\n"),
                      "no-using-namespace"),
            0);
}

TEST(NoRawThreadRule, FiresOutsideThreadPool) {
  const std::vector<Finding> findings = LintOne(
      "core/attack.cc",
      "void f() { std::thread t([] {}); t.join(); }\n"
      "void g() { std::jthread t([] {}); }\n");
  EXPECT_EQ(CountRule(findings, "no-raw-thread"), 2);
}

TEST(NoRawThreadRule, ExemptsThreadPoolAndIgnoresLookalikes) {
  EXPECT_EQ(CountRule(LintOne("util/thread_pool.cc",
                              "void f() { std::thread t([] {}); t.join(); }\n"),
                      "no-raw-thread"),
            0);
  EXPECT_EQ(CountRule(LintOne("util/thread_pool.h",
                              "std::vector<std::thread> workers_;\n"),
                      "no-raw-thread"),
            0);
  // this_thread, thread_local, and unqualified identifiers must not match.
  EXPECT_EQ(CountRule(LintOne("core/knn.cc",
                              "void f() { std::this_thread::yield(); }\n"
                              "thread_local int tls = 0;\n"
                              "int thread = 3;\n"),
                      "no-raw-thread"),
            0);
}

TEST(SimdConfinementRule, FiresOnIntrinsicHeaderAndIntrinsics) {
  const std::vector<Finding> findings = LintOne(
      "linalg/stats.cc",
      "#include <immintrin.h>\n"
      "double Sum(const double* x) {\n"
      "  __m256d acc = _mm256_loadu_pd(x);\n"
      "  return acc[0];\n"
      "}\n");
  // One for the header, one for the type, one for the load intrinsic.
  EXPECT_EQ(CountRule(findings, "simd-confinement"), 3);
  EXPECT_EQ(CountRule(LintOne("core/matcher.cc",
                              "#include <arm_neon.h>\n"
                              "float64x2_t v = vld1q_f64(p);\n"),
                      "simd-confinement"),
            3);
}

TEST(SimdConfinementRule, ExemptsSimdDirAndIgnoresLookalikes) {
  EXPECT_EQ(CountRule(LintOne("linalg/simd/kernels_avx2.cc",
                              "#include <immintrin.h>\n"
                              "__m256d Zero() { return _mm256_setzero_pd(); }\n"),
                      "simd-confinement"),
            0);
  // Ordinary identifiers that merely resemble vendor prefixes must not
  // match: _max is not _mm*, vstack is not vst1*.
  EXPECT_EQ(CountRule(LintOne("core/knn.cc",
                              "int _max = 0;\n"
                              "int vstack = 1;\n"
                              "int mm256 = 2;\n"),
                      "simd-confinement"),
            0);
}

TEST(NoStaticLocalRule, FiresOnMutableFunctionLocal) {
  const std::vector<Finding> findings = LintOne(
      "core/tsne.cc",
      "int Counter() {\n"
      "  static int calls = 0;\n"
      "  return ++calls;\n"
      "}\n");
  ASSERT_EQ(CountRule(findings, "no-static-local"), 1);
  EXPECT_EQ(findings[0].line, 2);
}

TEST(NoStaticLocalRule, FiresInsideLambdaBodies) {
  EXPECT_EQ(CountRule(LintOne("core/knn.cc",
                              "void f() {\n"
                              "  auto fn = [] { static int hits = 0; ++hits; "
                              "};\n"
                              "  fn();\n"
                              "}\n"),
                      "no-static-local"),
            1);
}

TEST(NoStaticLocalRule, AcceptsImmutableAndNamespaceScopeStatics) {
  const std::string ok =
      "static int file_scope = 0;\n"  // namespace scope: not a local
      "namespace x {\n"
      "static double also_file_scope = 1.0;\n"
      "}  // namespace x\n"
      "class C {\n"
      "  static int member_;\n"  // static data member: not a local
      "};\n"
      "int f() {\n"
      "  static const int kTable = 3;\n"
      "  static constexpr double kPi = 3.14;\n"
      "  static thread_local int scratch = 0;\n"
      "  int x = static_cast<int>(kPi);\n"
      "  static_assert(sizeof(int) >= 2);\n"
      "  return kTable + x + scratch;\n"
      "}\n";
  EXPECT_EQ(CountRule(LintOne("core/attack.cc", ok), "no-static-local"), 0);
}

TEST(NoStaticLocalRule, ExemptsUtil) {
  EXPECT_EQ(CountRule(LintOne("util/logging.cc",
                              "int f() { static int level = 0; return "
                              "level; }\n"),
                      "no-static-local"),
            0);
}

// ---- status-flow family ----

// Shared header fixture: a class with Status/Result members plus free
// functions, so the decl index covers both call shapes.
const char kStatusHeader[] =
    "#ifndef NEUROPRINT_IO_SAVE_H_\n"
    "#define NEUROPRINT_IO_SAVE_H_\n"
    "namespace neuroprint {\n"
    "class Saver {\n"
    " public:\n"
    "  Status Fit(int x);\n"
    "  Result<int> Load(int x);\n"
    "};\n"
    "Status SaveThing(const std::string& path);\n"
    "Result<double> ReadThing(const std::string& path);\n"
    "}  // namespace neuroprint\n"
    "#endif  // NEUROPRINT_IO_SAVE_H_\n";

std::vector<Finding> LintWithHeader(const std::string& body) {
  return LintFiles({{"io/save.h", kStatusHeader}, {"io/use.cc", body}});
}

TEST(UnusedStatusRule, FiresOnceOnIgnoredResult) {
  const std::vector<Finding> findings = LintWithHeader(
      "#include \"io/save.h\"\n"
      "Status Caller() {\n"
      "  SaveThing(\"dropped\");\n"
      "  Status kept = SaveThing(\"kept\");\n"
      "  NP_RETURN_IF_ERROR(kept);\n"
      "  NP_RETURN_IF_ERROR(SaveThing(\"propagated\"));\n"
      "  return SaveThing(\"returned\");\n"
      "}\n");
  ASSERT_EQ(CountRule(findings, "unused-status"), 1);
  EXPECT_EQ(LineOfRule(findings, "unused-status"), 3);
}

TEST(UnusedStatusRule, FiresOnMemberCallDrop) {
  // The old line-based rule only matched free calls at statement start;
  // obj.Fit(x); was its canonical blind spot.
  const std::vector<Finding> findings = LintWithHeader(
      "#include \"io/save.h\"\n"
      "void Caller(Saver& obj, Saver* ptr) {\n"
      "  obj.Fit(1);\n"
      "  ptr->Fit(2);\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "unused-status"), 2);
}

TEST(UnusedStatusRule, FiresOnMultiLineDropAndControlFlowBody) {
  const std::vector<Finding> findings = LintWithHeader(
      "#include \"io/save.h\"\n"
      "void Caller(Saver& obj, bool flaky) {\n"
      "  SaveThing(\n"
      "      \"multi\"\n"
      "      \"line\");\n"
      "  if (flaky) obj.Fit(3);\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "unused-status"), 2);
  EXPECT_EQ(LineOfRule(findings, "unused-status"), 3);
}

TEST(UnusedStatusRule, QuietOnConsumedForms) {
  const std::vector<Finding> findings = LintWithHeader(
      "#include \"io/save.h\"\n"
      "Status Caller(Saver& obj) {\n"
      "  if (!obj.Fit(1).ok()) return obj.Fit(2);\n"
      "  Status s = obj.Fit(3);\n"
      "  (void)s.ok();\n"
      "  UnknownFunction(4);\n"  // not in the index: no finding
      "  return SaveThing(\"r\");\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "unused-status"), 0);
}

TEST(UnusedResultRule, FiresOnDroppedResult) {
  const std::vector<Finding> findings = LintWithHeader(
      "#include \"io/save.h\"\n"
      "void Caller(Saver& obj) {\n"
      "  ReadThing(\"dropped\");\n"
      "  obj.Load(1);\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "unused-result"), 2);
}

TEST(StatusNeverCheckedRule, FiresWhenVariableIsNeverRead) {
  const std::vector<Finding> findings = LintWithHeader(
      "#include \"io/save.h\"\n"
      "void Caller() {\n"
      "  Status s = SaveThing(\"a\");\n"
      "}\n");
  ASSERT_EQ(CountRule(findings, "status-never-checked"), 1);
  EXPECT_EQ(LineOfRule(findings, "status-never-checked"), 3);
}

TEST(StatusNeverCheckedRule, QuietWhenConsumedLaterOrAtClassScope) {
  const std::vector<Finding> findings = LintWithHeader(
      "#include \"io/save.h\"\n"
      "class Holder {\n"
      "  Status last_;\n"  // member declaration, not a local
      "};\n"
      "Status Caller() {\n"
      "  Status s = SaveThing(\"a\");\n"
      "  if (!s.ok()) return s;\n"
      "  Status merged;\n"
      "  merged.Update();\n"
      "  return merged;\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "status-never-checked"), 0);
}

TEST(DeclIndexTest, FindsStatusAndResultDeclarations) {
  const DeclIndex index = BuildDeclIndex(
      {{"x.h",
        "Status Alpha(int a);\n"
        "static Status Beta();\n"
        "[[nodiscard]] Status Gamma();\n"
        "Status Klass::Qualified(int x) { return Status::OK(); }\n"
        "void NotStatus();\n"
        "Result<int> Single();\n"
        "Result<std::vector<double>> Nested();\n"
        "Status local = Alpha(1);\n"}});
  EXPECT_TRUE(index.status_functions.count("Alpha"));
  EXPECT_TRUE(index.status_functions.count("Beta"));
  EXPECT_TRUE(index.status_functions.count("Gamma"));
  EXPECT_TRUE(index.status_functions.count("Qualified"));
  EXPECT_FALSE(index.status_functions.count("NotStatus"));
  EXPECT_FALSE(index.status_functions.count("local"));
  EXPECT_TRUE(index.result_functions.count("Single"));
  EXPECT_TRUE(index.result_functions.count("Nested"));
}

TEST(CollectStatusFunctionsTest, LegacyShimStillWorks) {
  const std::set<std::string> names =
      CollectStatusFunctions({{"x.h", "Status Alpha(int a);\n"}});
  EXPECT_TRUE(names.count("Alpha"));
}

// ---- determinism family ----

TEST(NondetWallclockRule, FiresOutsideSanctionedModules) {
  const std::vector<Finding> findings = LintOne(
      "core/attack.cc",
      "void f() { auto t = std::chrono::steady_clock::now(); (void)t; }\n"
      "long g() { return time(nullptr); }\n"
      "long h() { return std::time(nullptr); }\n");
  EXPECT_EQ(CountRule(findings, "nondet-wallclock"), 3);
}

TEST(NondetWallclockRule, ExemptsObservabilityModulesAndLookalikes) {
  for (const char* path :
       {"util/trace.cc", "util/metrics.cc", "util/fault.cc",
        "util/stopwatch.h"}) {
    EXPECT_EQ(CountRule(LintOne(path,
                                "void f() { auto t = "
                                "std::chrono::steady_clock::now(); (void)t; "
                                "}\n"),
                        "nondet-wallclock"),
              0)
        << path;
  }
  // Member calls named `time`, identifiers containing time, declarations.
  EXPECT_EQ(CountRule(LintOne("core/knn.cc",
                              "void f(Clock& c) { c.time(); }\n"
                              "int timestep = 3;\n"
                              "double exposure_time(int frames);\n"),
                      "nondet-wallclock"),
            0);
}

TEST(NondetUnorderedIterRule, FiresOnRangeForOverUnordered) {
  const std::vector<Finding> findings = LintOne(
      "core/attack.cc",
      "#include <unordered_map>\n"
      "void f(const std::unordered_map<int, int>& m) {\n"
      "  for (const auto& kv : m) { (void)kv; }\n"
      "}\n");
  ASSERT_EQ(CountRule(findings, "nondet-unordered-iter"), 1);
  EXPECT_EQ(LineOfRule(findings, "nondet-unordered-iter"), 3);
}

TEST(NondetUnorderedIterRule, QuietOnOrderedContainers) {
  EXPECT_EQ(CountRule(LintOne("core/attack.cc",
                              "void f(const std::map<int, int>& m,\n"
                              "       const std::vector<int>& v) {\n"
                              "  for (const auto& kv : m) { (void)kv; }\n"
                              "  for (int x : v) { (void)x; }\n"
                              "}\n"),
                      "nondet-unordered-iter"),
            0);
}

TEST(NondetFloatAccumRule, FiresOnCapturedFloatAccumulation) {
  const std::vector<Finding> findings = LintOne(
      "core/attack.cc",
      "void f(ThreadPool& pool) {\n"
      "  double total = 0.0;\n"
      "  ParallelFor(pool, 0, 8, 1, [&](std::size_t lo, std::size_t hi) {\n"
      "    total += static_cast<double>(hi - lo);\n"
      "  });\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "nondet-float-accum"), 1);
}

TEST(NondetFloatAccumRule, QuietOnBodyLocalAccumulatorAndLinalg) {
  // Per-chunk accumulators are the blessed pattern: deterministic because
  // each chunk owns its partial sum.
  const std::string body_local =
      "void f(ThreadPool& pool, std::vector<double>& out) {\n"
      "  ParallelFor(pool, 0, 8, 1, [&](std::size_t lo, std::size_t hi) {\n"
      "    double partial = 0.0;\n"
      "    for (std::size_t i = lo; i < hi; ++i) partial += 1.0;\n"
      "    out[lo] = partial;\n"
      "  });\n"
      "}\n";
  EXPECT_EQ(CountRule(LintOne("core/attack.cc", body_local),
                      "nondet-float-accum"),
            0);
  // Chained declarators (double s0 = 0, s1 = 0;) are all locals.
  const std::string chained =
      "void f(ThreadPool& pool, std::vector<double>& y) {\n"
      "  ParallelFor(pool, 0, 8, 1, [&](std::size_t lo, std::size_t hi) {\n"
      "    double s0 = 0.0, s1 = 0.0;\n"
      "    s1 += 2.0;\n"
      "    y[lo] = s0 + s1;\n"
      "  });\n"
      "}\n";
  EXPECT_EQ(CountRule(LintOne("core/attack.cc", chained),
                      "nondet-float-accum"),
            0);
}

// ---- parallel-race family ----

TEST(ParallelRaceRule, FiresOnByRefMutation) {
  const std::vector<Finding> findings = LintOne(
      "core/attack.cc",
      "void f(ThreadPool& pool, std::vector<double>& out) {\n"
      "  int count = 0;\n"
      "  ParallelFor(pool, 0, 8, 1, [&](std::size_t lo, std::size_t hi) {\n"
      "    ++count;\n"
      "    out.push_back(1.0);\n"
      "  });\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "parallel-race"), 2);
}

TEST(ParallelRaceRule, FiresOnExplicitRefCapture) {
  const std::vector<Finding> findings = LintOne(
      "core/attack.cc",
      "void f(ThreadPool& pool) {\n"
      "  int hits = 0;\n"
      "  ParallelReduce(pool, 0, 8, 1, [&hits](std::size_t i) {\n"
      "    hits += 1;\n"
      "  });\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "parallel-race"), 1);
}

TEST(ParallelRaceRule, QuietOnPerIndexWritesAndAtomics) {
  // The two canonical false-positive traps: per-index writes into a shared
  // buffer, and an atomic counter.
  const std::vector<Finding> findings = LintOne(
      "core/attack.cc",
      "void f(ThreadPool& pool, std::vector<double>& out) {\n"
      "  std::atomic<int> hits{0};\n"
      "  ParallelFor(pool, 0, 8, 1, [&](std::size_t lo, std::size_t hi) {\n"
      "    for (std::size_t i = lo; i < hi; ++i) {\n"
      "      out[i] = static_cast<double>(i);\n"
      "      hits += 1;\n"
      "    }\n"
      "  });\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "parallel-race"), 0);
}

TEST(ParallelRaceRule, QuietOnValueCapturesAndLocals) {
  const std::vector<Finding> findings = LintOne(
      "core/attack.cc",
      "void f(ThreadPool& pool, int seed) {\n"
      "  ParallelFor(pool, 0, 8, 1, [seed](std::size_t lo, std::size_t hi) {\n"
      "    int local = seed;\n"
      "    local += static_cast<int>(hi - lo);\n"
      "  });\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "parallel-race"), 0);
}

TEST(ParallelRaceRule, QuietOutsideParallelEntryPoints) {
  // Mutating a by-ref capture in an ordinary lambda is fine.
  const std::vector<Finding> findings = LintOne(
      "core/attack.cc",
      "void f(std::vector<double>& out) {\n"
      "  auto fill = [&](double v) { out.push_back(v); };\n"
      "  fill(1.0);\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "parallel-race"), 0);
}

// ---- suppressions ----

TEST(SuppressionTest, TrailingCommentSilencesItsLineOnly) {
  const std::vector<Finding> findings = LintWithHeader(
      "#include \"io/save.h\"\n"
      "void Caller(Saver& obj) {\n"
      "  obj.Fit(1);  // NP_LINT(unused-status)\n"
      "  obj.Fit(2);\n"
      "}\n");
  ASSERT_EQ(CountRule(findings, "unused-status"), 1);
  EXPECT_EQ(LineOfRule(findings, "unused-status"), 4);
  EXPECT_EQ(CountRule(findings, "unused-suppression"), 0);
}

TEST(SuppressionTest, CommentOnlyLineSilencesNextLine) {
  const std::vector<Finding> findings = LintWithHeader(
      "#include \"io/save.h\"\n"
      "void Caller(Saver& obj) {\n"
      "  // NP_LINT(unused-status)\n"
      "  obj.Fit(1);\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "unused-status"), 0);
  EXPECT_EQ(CountRule(findings, "unused-suppression"), 0);
}

TEST(SuppressionTest, UnusedSuppressionIsReported) {
  const std::vector<Finding> findings = LintWithHeader(
      "#include \"io/save.h\"\n"
      "void Caller(Saver& obj) {\n"
      "  obj.Fit(1);  // NP_LINT(no-rand)\n"
      "}\n");
  // The wrong rule id suppresses nothing: the original finding stays AND
  // the stale suppression is flagged.
  EXPECT_EQ(CountRule(findings, "unused-status"), 1);
  ASSERT_EQ(CountRule(findings, "unused-suppression"), 1);
  EXPECT_EQ(LineOfRule(findings, "unused-suppression"), 3);
}

TEST(SuppressionTest, UnknownRuleIdsDoNotRegister) {
  // A typo'd rule id is inert: no suppression, and no unused-suppression
  // churn either (the misspelling cannot match any finding).
  const std::vector<Finding> findings = LintWithHeader(
      "#include \"io/save.h\"\n"
      "void Caller(Saver& obj) {\n"
      "  obj.Fit(1);  // NP_LINT(unused-statu)\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "unused-status"), 1);
  EXPECT_EQ(CountRule(findings, "unused-suppression"), 0);
}

// ---- output formats ----

TEST(FormatFindingsTest, TextJsonAndGithub) {
  const std::vector<Finding> findings = {
      {"core/a.cc", 7, "no-rand", "message \"quoted\""}};
  const std::string text = FormatFindings(findings, "text", "src");
  EXPECT_EQ(text, "src/core/a.cc:7: [no-rand] message \"quoted\"\n");
  const std::string github = FormatFindings(findings, "github", "src");
  EXPECT_EQ(github,
            "::error file=src/core/a.cc,line=7,title=no-rand::message "
            "\"quoted\"\n");
  const std::string json = FormatFindings(findings, "json", "");
  EXPECT_NE(json.find("\"file\": \"core/a.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 7"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  const std::string empty = FormatFindings({}, "json", "");
  EXPECT_EQ(empty, "[]\n");
}

TEST(LintTreeTest, MissingRootIsAnIoError) {
  const std::vector<Finding> findings = LintTree("/nonexistent-neuroprint");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "io-error");
}

// Self-check: the real library tree must be clean. NEUROPRINT_SOURCE_DIR is
// injected by tests/CMakeLists.txt.
TEST(SelfCheck, SrcTreeIsLintClean) {
  const std::vector<Finding> findings =
      LintTree(std::string(NEUROPRINT_SOURCE_DIR) + "/src");
  for (const Finding& finding : findings) {
    ADD_FAILURE() << finding.ToString();
  }
  EXPECT_TRUE(findings.empty());
}

// The engine must pass its own rules (the CLI exposes this as
// `--self-check`; CI runs it on every push).
TEST(SelfCheck, LintEngineIsLintClean) {
  const std::vector<Finding> findings = LintTreeRelative(
      std::string(NEUROPRINT_SOURCE_DIR) + "/tools/lint",
      NEUROPRINT_SOURCE_DIR);
  for (const Finding& finding : findings) {
    ADD_FAILURE() << finding.ToString();
  }
  EXPECT_TRUE(findings.empty());
}

}  // namespace
}  // namespace neuroprint::lint
