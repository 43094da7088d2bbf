// Ramble-layer tests: variable expansion, application definitions
// (Figure 8), experiment matrix semantics (Figure 10), and the five-verb
// workspace lifecycle (Figure 5) end to end on a simulated system.
#include <gtest/gtest.h>

#include "src/ramble/application.hpp"
#include "src/ramble/expansion.hpp"
#include "src/ramble/experiment.hpp"
#include "src/ramble/workspace.hpp"
#include "src/support/error.hpp"
#include "src/support/fs_util.hpp"
#include "src/system/system.hpp"
#include "src/yaml/parser.hpp"

namespace ramble = benchpark::ramble;
namespace sys = benchpark::system;
using ramble::expand;
using ramble::VariableMap;

// ------------------------------------------------------------- expansion

TEST(Expansion, SimpleSubstitution) {
  VariableMap vars{{"n", "1024"}};
  EXPECT_EQ(expand("saxpy -n {n}", vars), "saxpy -n 1024");
}

TEST(Expansion, RecursiveVariables) {
  VariableMap vars{{"mpi_command", "srun -N {n_nodes} -n {n_ranks}"},
                   {"n_nodes", "2"},
                   {"n_ranks", "16"}};
  EXPECT_EQ(expand("{mpi_command} ./app", vars), "srun -N 2 -n 16 ./app");
}

TEST(Expansion, DerivedArithmeticVariable) {
  // Ramble's computed n_ranks = processes_per_node * n_nodes.
  VariableMap vars{{"n_ranks", "{processes_per_node}*{n_nodes}"},
                   {"processes_per_node", "8"},
                   {"n_nodes", "4"}};
  EXPECT_EQ(expand("-n {n_ranks}", vars), "-n 32");
  EXPECT_EQ(ramble::expand_int("{n_ranks}", vars), 32);
}

TEST(Expansion, InlineArithmetic) {
  EXPECT_EQ(expand("{4*9} cores", {}), "36 cores");
  EXPECT_EQ(ramble::evaluate_arithmetic("2 + 3 * 4"), 14);
  EXPECT_EQ(ramble::evaluate_arithmetic("(2 + 3) * 4"), 20);
  EXPECT_EQ(ramble::evaluate_arithmetic("100 / 8"), 12);
  EXPECT_EQ(ramble::evaluate_arithmetic("-3 + 5"), 2);
}

TEST(Expansion, UndefinedVariableThrows) {
  EXPECT_THROW(expand("{missing}", {}), benchpark::ExperimentError);
}

TEST(Expansion, CycleDetected) {
  VariableMap vars{{"a", "{b}"}, {"b", "{a}"}};
  EXPECT_THROW(expand("{a}", vars), benchpark::ExperimentError);
}

TEST(Expansion, ArithmeticErrors) {
  EXPECT_THROW(ramble::evaluate_arithmetic("2 +"), benchpark::ExperimentError);
  EXPECT_THROW(ramble::evaluate_arithmetic("4 / 0"), benchpark::ExperimentError);
  EXPECT_THROW(ramble::evaluate_arithmetic("(1"), benchpark::ExperimentError);
}

TEST(Expansion, UnbalancedBraceThrows) {
  EXPECT_THROW(expand("{oops", {{"oops", "x"}}), benchpark::ExperimentError);
}

TEST(Expansion, DateLikeValuesStayLiteral) {
  // "2023-01-01" looks arithmetic to the screening heuristic (digits plus
  // '-') but must not expand to 2021: zero-padded components mean it is a
  // date, and the value is kept verbatim.
  VariableMap vars{{"date", "2023-01-01"}, {"when", "{date}"}};
  EXPECT_EQ(expand("run-{date}", vars), "run-2023-01-01");
  EXPECT_EQ(expand("{when}", vars), "2023-01-01");
}

TEST(Expansion, GenuineArithmeticValuesStillEvaluate) {
  VariableMap vars{{"n", "10-1"}, {"padded", "007"}};
  EXPECT_EQ(expand("{n}", vars), "9");
  // A plain zero-padded number has no operators: not arithmetic, kept.
  EXPECT_EQ(expand("{padded}", vars), "007");
}

TEST(Expansion, NonEvaluableValueKeptNotCrashed) {
  // A value that merely *looks* arithmetic ("1 + ") stays literal; an
  // explicit inline expression with the same defect still throws.
  VariableMap vars{{"weird", "1 + "}};
  EXPECT_EQ(expand("{weird}", vars), "1 + ");
  EXPECT_THROW(expand("{1 + }", {}), benchpark::ExperimentError);
  EXPECT_THROW(expand("{8/0}", {}), benchpark::ExperimentError);
}

TEST(Expansion, DoubledBracesEscapeLiterals) {
  EXPECT_EQ(expand("{{n}}", {{"n", "1024"}}), "{n}");
  EXPECT_EQ(expand("json: {{\"n\": {n}}}", {{"n", "4"}}),
            "json: {\"n\": 4}");
  EXPECT_EQ(expand("a}}b{{c", {}), "a}b{c");
}

TEST(Expansion, NestedBracesInsideArithmetic) {
  // A brace body may itself contain placeholders: the inner expansion
  // happens first, then the arithmetic screen sees the resolved text.
  VariableMap vars{{"n", "8"}};
  EXPECT_EQ(expand("{ {n} * 2 }", vars), "16");
  EXPECT_EQ(expand("{({n}+1)*{n}}", vars), "72");
  // Non-arithmetic nested bodies work too: variable-name indirection.
  VariableMap indirect{{"suffix", "a"}, {"pa", "left"}, {"pb", "right"}};
  EXPECT_EQ(expand("{p{suffix}}", indirect), "left");
  indirect["suffix"] = "b";
  EXPECT_EQ(expand("{p{suffix}}", indirect), "right");
}

TEST(Expansion, UndefinedVariableErrorNamesVariableAndTemplate) {
  try {
    (void)expand("run -n {ghost}", {{"n", "4"}});
    FAIL() << "expected ExperimentError";
  } catch (const benchpark::ExperimentError& e) {
    EXPECT_STREQ(e.what(),
                 "undefined variable '{ghost}' while expanding "
                 "'run -n {ghost}'");
  }
}

TEST(Expansion, CompiledTemplateIntrospection) {
  ramble::CompiledTemplate tmpl("srun -n {n_ranks} ./{app} --size {n}");
  EXPECT_EQ(tmpl.source(), "srun -n {n_ranks} ./{app} --size {n}");
  EXPECT_EQ(tmpl.placeholder_count(), 3u);
  // literal, var, literal, var, literal, var.
  EXPECT_EQ(tmpl.segment_count(), 6u);
  std::string out;
  tmpl.expand_into(out, {{"n_ranks", "4"}, {"app", "saxpy"}, {"n", "9"}},
                   /*use_cache=*/false);
  EXPECT_EQ(out, "srun -n 4 ./saxpy --size 9");
}

// ----------------------------------------------------------- applications

TEST(Applications, Figure8SaxpyDefinition) {
  const auto& saxpy = ramble::ApplicationRegistry::instance().get("saxpy");
  const auto* exe = saxpy.find_executable("p");
  ASSERT_NE(exe, nullptr);
  EXPECT_EQ(exe->command_template, "saxpy -n {n}");
  EXPECT_TRUE(exe->use_mpi);
  const auto* wl = saxpy.find_workload("problem");
  ASSERT_NE(wl, nullptr);
  ASSERT_EQ(wl->variables.size(), 1u);
  EXPECT_EQ(wl->variables[0].name, "n");
  EXPECT_EQ(wl->variables[0].default_value, "1");
  EXPECT_EQ(wl->variables[0].description, "problem size");
  ASSERT_FALSE(saxpy.success_criteria_list().empty());
  EXPECT_EQ(saxpy.success_criteria_list()[0].match, "Kernel done");
}

TEST(Applications, RegistryHasPaperBenchmarks) {
  auto names = ramble::ApplicationRegistry::instance().names();
  for (const char* name : {"saxpy", "amg2023", "stream", "osu-bcast"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
  EXPECT_THROW((void)ramble::ApplicationRegistry::instance().get("hpl"),
               benchpark::ExperimentError);
}

TEST(Applications, WorkloadValidation) {
  ramble::ApplicationDefinition app("demo");
  app.executable("x", "x", false);
  EXPECT_THROW(app.workload("w", {"nonexistent"}),
               benchpark::ExperimentError);
  app.workload("w", {"x"});
  EXPECT_THROW(app.workload_variable("v", "1", "", {"other"}),
               benchpark::ExperimentError);
}

// -------------------------------------------------------------- experiments

namespace {

ramble::ExperimentTemplate figure10_template() {
  auto node = benchpark::yaml::parse(
      "variables:\n"
      "  processes_per_node: ['8', '4']\n"
      "  n_nodes: ['1', '2']\n"
      "  n_threads: ['2', '4']\n"
      "  n: ['512', '1024']\n"
      "matrices:\n"
      "- size_threads:\n"
      "  - n\n"
      "  - n_threads\n");
  return ramble::ExperimentTemplate::from_yaml(
      "saxpy_{n}_{n_nodes}_{n_ranks}_{n_threads}", node);
}

}  // namespace

TEST(Experiments, Figure10ExpandsToEightExperiments) {
  // Matrix n x n_threads = 4 combos; unconsumed vectors
  // processes_per_node/n_nodes zip into 2 pairs; 4 x 2 = 8.
  VariableMap base{{"n_ranks", "{processes_per_node}*{n_nodes}"}};
  auto experiments = expand_experiments(figure10_template(), base);
  ASSERT_EQ(experiments.size(), 8u);

  // Every experiment name is unique and fully expanded.
  std::set<std::string> names;
  for (const auto& e : experiments) {
    EXPECT_EQ(e.name.find('{'), std::string::npos) << e.name;
    names.insert(e.name);
  }
  EXPECT_EQ(names.size(), 8u);
  // Check one specific point: n=512, zip pair (ppn=8, nodes=1) -> ranks 8.
  EXPECT_TRUE(names.count("saxpy_512_1_8_2")) << *names.begin();
  // Zip pair (ppn=4, nodes=2) also yields 8 ranks.
  EXPECT_TRUE(names.count("saxpy_1024_2_8_4"));
}

TEST(Experiments, MatrixCrossesAllListedVariables) {
  auto node = benchpark::yaml::parse(
      "variables:\n"
      "  a: ['1', '2', '3']\n"
      "  b: ['x', 'y']\n"
      "matrices:\n"
      "- m:\n"
      "  - a\n"
      "  - b\n");
  auto tmpl = ramble::ExperimentTemplate::from_yaml("e_{a}_{b}", node);
  EXPECT_EQ(expand_experiments(tmpl).size(), 6u);
}

TEST(Experiments, UnconsumedVectorsZipStrictly) {
  auto node = benchpark::yaml::parse(
      "variables:\n"
      "  a: ['1', '2']\n"
      "  b: ['x', 'y', 'z']\n");
  auto tmpl = ramble::ExperimentTemplate::from_yaml("e_{a}_{b}", node);
  EXPECT_THROW(expand_experiments(tmpl), benchpark::ExperimentError);
}

TEST(Experiments, ScalarsBroadcast) {
  auto node = benchpark::yaml::parse(
      "variables:\n"
      "  n: ['1', '2']\n"
      "  batch_time: '120'\n");
  auto tmpl = ramble::ExperimentTemplate::from_yaml("e_{n}", node);
  auto experiments = expand_experiments(tmpl);
  ASSERT_EQ(experiments.size(), 2u);
  for (const auto& e : experiments) {
    EXPECT_EQ(e.variables.at("batch_time"), "120");
  }
}

TEST(Experiments, NoVectorsYieldsSingleExperiment) {
  auto node = benchpark::yaml::parse("variables:\n  n: '512'\n");
  auto tmpl = ramble::ExperimentTemplate::from_yaml("only_{n}", node);
  auto experiments = expand_experiments(tmpl);
  ASSERT_EQ(experiments.size(), 1u);
  EXPECT_EQ(experiments[0].name, "only_512");
}

TEST(Experiments, VariableInTwoMatricesThrows) {
  auto node = benchpark::yaml::parse(
      "variables:\n"
      "  a: ['1']\n"
      "matrices:\n"
      "- m1:\n"
      "  - a\n"
      "- m2:\n"
      "  - a\n");
  auto tmpl = ramble::ExperimentTemplate::from_yaml("e", node);
  EXPECT_THROW(expand_experiments(tmpl), benchpark::ExperimentError);
}

TEST(Experiments, MatrixOfUnknownVariableThrows) {
  auto node = benchpark::yaml::parse(
      "matrices:\n"
      "- m:\n"
      "  - ghost\n");
  auto tmpl = ramble::ExperimentTemplate::from_yaml("e", node);
  EXPECT_THROW(expand_experiments(tmpl), benchpark::ExperimentError);
}

TEST(Experiments, EscapedBracesSurviveInNameTemplates) {
  auto node = benchpark::yaml::parse("variables:\n  n: '512'\n");
  auto tmpl = ramble::ExperimentTemplate::from_yaml("e_{{n}}_{n}", node);
  auto experiments = expand_experiments(tmpl);
  ASSERT_EQ(experiments.size(), 1u);
  EXPECT_EQ(experiments[0].name, "e_{n}_512");
}

TEST(Experiments, DimensionOrderingIsDocumentedAndStable) {
  // Dimensions: matrices in declaration order, then the zipped
  // unconsumed vectors. Dimension 0 varies fastest (the odometer
  // increments its first wheel first).
  auto node = benchpark::yaml::parse(
      "variables:\n"
      "  a: ['1', '2']\n"
      "  b: ['x', 'y']\n"
      "  c: ['p', 'q']\n"
      "  d: ['s', 't']\n"
      "matrices:\n"
      "- m1:\n"
      "  - a\n"
      "- m2:\n"
      "  - b\n");
  auto tmpl = ramble::ExperimentTemplate::from_yaml("e_{a}{b}{c}{d}", node);
  auto experiments = expand_experiments(tmpl);
  std::vector<std::string> names;
  names.reserve(experiments.size());
  for (const auto& e : experiments) names.push_back(e.name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "e_1xps", "e_2xps", "e_1yps", "e_2yps",
                       "e_1xqt", "e_2xqt", "e_1yqt", "e_2yqt"}));
}

TEST(Experiments, ParallelExpansionMatchesSerial) {
  // 4 x 4 x 4 = 64 rows: exactly kParallelExpandThreshold, so the
  // threads=8 call takes the parallel path; ordering must not change.
  std::string yaml = "variables:\n";
  for (const char* v : {"a", "b", "c"}) {
    yaml += std::string("  ") + v + ": ['0', '1', '2', '3']\n";
  }
  yaml += "matrices:\n- m:\n  - a\n  - b\n  - c\n";
  auto tmpl = ramble::ExperimentTemplate::from_yaml(
      "e_{a}_{b}_{c}", benchpark::yaml::parse(yaml));
  auto serial = expand_experiments(tmpl, {}, /*threads=*/1);
  auto parallel = expand_experiments(tmpl, {}, /*threads=*/8);
  ASSERT_EQ(serial.size(), ramble::kParallelExpandThreshold);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].name, parallel[i].name) << i;
    EXPECT_EQ(serial[i].variables, parallel[i].variables) << i;
  }
}

// ---------------------------------------------------------------- workspace

namespace {

const char* kSaxpyRambleYaml =
    "ramble:\n"
    "  include:\n"
    "  - ./configs/packages.yaml\n"
    "  - ./configs/variables.yaml\n"
    "  applications:\n"
    "    saxpy:\n"
    "      workloads:\n"
    "        problem:\n"
    "          env_vars:\n"
    "            set:\n"
    "              OMP_NUM_THREADS: '{n_threads}'\n"
    "          variables:\n"
    "            n_ranks: '8'\n"
    "            batch_time: '120'\n"
    "          experiments:\n"
    "            saxpy_{n}_{n_nodes}_{n_ranks}_{n_threads}:\n"
    "              variables:\n"
    "                processes_per_node: ['8', '4']\n"
    "                n_nodes: ['1', '2']\n"
    "                n_threads: ['2', '4']\n"
    "                n: ['512', '1024']\n"
    "              matrices:\n"
    "              - size_threads:\n"
    "                - n\n"
    "                - n_threads\n"
    "  spack:\n"
    "    packages:\n"
    "      gcc1211:\n"
    "        spack_spec: gcc@12.1.1\n"
    "      default-mpi:\n"
    "        spack_spec: mvapich2@2.3.7\n"
    "      saxpy:\n"
    "        spack_spec: saxpy@1.0.0 +openmp\n"
    "        compiler: gcc1211\n"
    "    environments:\n"
    "      saxpy:\n"
    "        packages:\n"
    "        - default-mpi\n"
    "        - saxpy\n";

ramble::Workspace make_saxpy_workspace(
    const benchpark::support::TempDir& tmp) {
  auto system = sys::SystemRegistry::instance().get("cts1");
  auto ws = ramble::Workspace::create(tmp.path() / "workspace", system);
  ws.configure(benchpark::yaml::parse(kSaxpyRambleYaml));
  return ws;
}

}  // namespace

TEST(Workspace, CreateLaysOutDirectories) {
  benchpark::support::TempDir tmp;
  auto ws = make_saxpy_workspace(tmp);
  for (const char* sub : {"configs", "experiments", "software"}) {
    EXPECT_TRUE(std::filesystem::is_directory(ws.root() / sub)) << sub;
  }
  // Figure 1a: per-system config files in configs/.
  for (const char* f : {"variables.yaml", "packages.yaml", "compilers.yaml",
                        "execute_experiment.tpl", "ramble.yaml"}) {
    EXPECT_TRUE(std::filesystem::exists(ws.root() / "configs" / f)) << f;
  }
}

TEST(Workspace, SetupBuildsSoftwareAndExperiments) {
  benchpark::support::TempDir tmp;
  auto ws = make_saxpy_workspace(tmp);
  ws.setup();
  EXPECT_TRUE(ws.is_set_up());

  // Software: the saxpy environment was concretized and installed.
  const auto* environment = ws.environment_for("saxpy");
  ASSERT_NE(environment, nullptr);
  EXPECT_TRUE(environment->concretized());
  const auto* saxpy_spec = environment->concrete_for("saxpy");
  ASSERT_NE(saxpy_spec, nullptr);
  EXPECT_TRUE(saxpy_spec->variant_enabled("openmp"));
  EXPECT_EQ(saxpy_spec->compiler()->name, "gcc");
  // mvapich2 resolved via the cts1 external (Figure 4).
  ASSERT_NE(environment->concrete_for("mvapich2"), nullptr);
  EXPECT_TRUE(environment->concrete_for("mvapich2")->is_external());

  // The lockfile reproducibility artifact exists.
  EXPECT_TRUE(std::filesystem::exists(ws.root() / "software" /
                                      "saxpy.lock.yaml"));

  // Experiments: Figure 10 expansion -> 8 run dirs with rendered scripts.
  EXPECT_EQ(ws.prepared().size(), 8u);
  for (const auto& exp : ws.prepared()) {
    EXPECT_TRUE(std::filesystem::exists(exp.run_dir / "execute_experiment"))
        << exp.name;
  }
}

TEST(Workspace, RenderedScriptMatchesFigure13Shape) {
  benchpark::support::TempDir tmp;
  auto ws = make_saxpy_workspace(tmp);
  ws.setup();
  const auto& exp = ws.prepared().front();
  EXPECT_NE(exp.script.find("#!/bin/bash"), std::string::npos);
  EXPECT_NE(exp.script.find("#SBATCH -N "), std::string::npos);
  EXPECT_NE(exp.script.find("#SBATCH -n 8"), std::string::npos);
  EXPECT_NE(exp.script.find("#SBATCH -t 120:00"), std::string::npos);
  EXPECT_NE(exp.script.find("cd " + exp.run_dir.string()), std::string::npos);
  EXPECT_NE(exp.script.find("export OMP_NUM_THREADS="), std::string::npos);
  // The command line: srun launcher + the Figure 8 executable template.
  EXPECT_NE(exp.script.find("srun -N "), std::string::npos);
  EXPECT_NE(exp.script.find("saxpy -n "), std::string::npos);
  // Everything expanded.
  EXPECT_EQ(exp.script.find('{'), std::string::npos) << exp.script;
}

TEST(Workspace, RunExecutesAllExperiments) {
  benchpark::support::TempDir tmp;
  auto ws = make_saxpy_workspace(tmp);
  ws.setup();
  ws.run_all();
  EXPECT_TRUE(ws.has_run());
  for (const auto& exp : ws.prepared()) {
    auto out = ws.root() / "experiments" / exp.app / exp.workload /
               exp.name / (exp.name + ".out");
    ASSERT_TRUE(std::filesystem::exists(out)) << exp.name;
    auto text = benchpark::support::read_file(out);
    EXPECT_NE(text.find("Kernel done"), std::string::npos) << exp.name;
  }
}

TEST(Workspace, AnalyzeExtractsFoms) {
  benchpark::support::TempDir tmp;
  auto ws = make_saxpy_workspace(tmp);
  ws.setup();
  ws.run_all();
  auto report = ws.analyze();
  ASSERT_EQ(report.results.size(), 8u);
  EXPECT_EQ(report.num_success(), 8u);
  for (const auto& r : report.results) {
    EXPECT_TRUE(r.ran);
    ASSERT_NE(r.fom("elapsed"), nullptr) << r.name;
    EXPECT_TRUE(r.fom("elapsed")->numeric);
    EXPECT_GT(r.fom("elapsed")->value, 0);
    ASSERT_NE(r.fom("success"), nullptr);
    EXPECT_EQ(r.fom("success")->raw, "Kernel done");
  }
  auto table = report.to_table().render();
  EXPECT_NE(table.find("SUCCESS"), std::string::npos);
}

TEST(Workspace, LifecycleEnforced) {
  benchpark::support::TempDir tmp;
  auto system = sys::SystemRegistry::instance().get("cts1");
  auto ws = ramble::Workspace::create(tmp.path() / "ws", system);
  EXPECT_THROW(ws.setup(), benchpark::ExperimentError);  // not configured
  ws.configure(benchpark::yaml::parse(kSaxpyRambleYaml));
  EXPECT_THROW(ws.run_all(), benchpark::ExperimentError);  // not set up
}

TEST(Workspace, UnknownAliasInEnvironmentThrows) {
  benchpark::support::TempDir tmp;
  auto system = sys::SystemRegistry::instance().get("cts1");
  auto ws = ramble::Workspace::create(tmp.path() / "ws", system);
  ws.configure(benchpark::yaml::parse(
      "ramble:\n"
      "  applications:\n"
      "    saxpy:\n"
      "      workloads:\n"
      "        problem:\n"
      "          experiments:\n"
      "            e:\n"
      "              variables:\n"
      "                n: '512'\n"
      "  spack:\n"
      "    packages:\n"
      "      saxpy:\n"
      "        spack_spec: saxpy@1.0.0\n"
      "    environments:\n"
      "      saxpy:\n"
      "        packages:\n"
      "        - ghost-alias\n"));
  EXPECT_THROW(ws.setup(), benchpark::ExperimentError);
}

TEST(Workspace, ReusedWorkspaceIsReproducible) {
  benchpark::support::TempDir tmp;
  auto ws1 = make_saxpy_workspace(tmp);
  ws1.setup();
  ws1.run_all();
  auto report1 = ws1.analyze();

  benchpark::support::TempDir tmp2;
  auto ws2 = make_saxpy_workspace(tmp2);
  ws2.setup();
  ws2.run_all();
  auto report2 = ws2.analyze();

  // Simulated systems are deterministic: same FOMs bit-for-bit.
  ASSERT_EQ(report1.results.size(), report2.results.size());
  for (std::size_t i = 0; i < report1.results.size(); ++i) {
    ASSERT_NE(report1.results[i].fom("elapsed"), nullptr);
    ASSERT_NE(report2.results[i].fom("elapsed"), nullptr);
    EXPECT_DOUBLE_EQ(report1.results[i].fom("elapsed")->value,
                     report2.results[i].fom("elapsed")->value);
  }
}

TEST(Workspace, GpuExperimentOnAts2) {
  benchpark::support::TempDir tmp;
  auto system = sys::SystemRegistry::instance().get("ats2");
  auto ws = ramble::Workspace::create(tmp.path() / "ws", system);
  ws.configure(benchpark::yaml::parse(
      "ramble:\n"
      "  applications:\n"
      "    saxpy:\n"
      "      workloads:\n"
      "        problem:\n"
      "          variables:\n"
      "            n_ranks: '4'\n"
      "            processes_per_node: '4'\n"
      "          experiments:\n"
      "            saxpy_gpu_{n}:\n"
      "              variables:\n"
      "                n: '1048576'\n"
      "  spack:\n"
      "    packages:\n"
      "      saxpy:\n"
      "        spack_spec: saxpy@1.0.0 +cuda~openmp\n"
      "    environments:\n"
      "      saxpy:\n"
      "        packages:\n"
      "        - saxpy\n"));
  ws.setup();
  ASSERT_EQ(ws.prepared().size(), 1u);
  EXPECT_TRUE(ws.prepared()[0].use_gpu);
  // LSF system: jsrun launcher and #BSUB directives in the script.
  EXPECT_NE(ws.prepared()[0].script.find("jsrun"), std::string::npos);
  EXPECT_NE(ws.prepared()[0].script.find("#BSUB"), std::string::npos);
  ws.run_all();
  auto report = ws.analyze();
  EXPECT_EQ(report.num_success(), 1u);
}
