#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>

#include "test_models.hpp"
#include "xtsoc/xtuml/builder.hpp"
#include "xtsoc/codegen/cgen.hpp"
#include "xtsoc/codegen/vhdlgen.hpp"
#include "xtsoc/runtime/executor.hpp"

namespace xtsoc::codegen {
namespace {

using testing::MappedFixture;
using testing::make_pipeline_domain;
using xtuml::ScalarValue;

marks::MarkSet hw_consumer_marks() {
  marks::MarkSet m;
  m.mark_hardware("Consumer");
  m.set_class_mark("Consumer", marks::kMaxInstances,
                   ScalarValue(std::int64_t{8}));
  return m;
}

struct GenFixture {
  MappedFixture fx;
  Output c_out;
  Output vhdl_out;

  GenFixture() : fx(make_pipeline_domain(), hw_consumer_marks()) {
    DiagnosticSink sink;
    c_out = generate_c(*fx.system, sink);
    EXPECT_FALSE(sink.has_errors()) << sink.to_string();
    vhdl_out = generate_vhdl(*fx.system, sink);
    EXPECT_FALSE(sink.has_errors()) << sink.to_string();
  }
};

TEST(CGen, EmitsExpectedFiles) {
  GenFixture g;
  EXPECT_NE(g.c_out.find("sw/pipe_iface.h"), nullptr);
  EXPECT_NE(g.c_out.find("sw/pipe_model.h"), nullptr);
  EXPECT_NE(g.c_out.find("sw/pipe_model.c"), nullptr);
  EXPECT_NE(g.c_out.find("sw/pipe_main.c"), nullptr);
  EXPECT_GT(g.c_out.total_lines(), 100u);
}

TEST(CGen, SoftwareClassesOnly) {
  GenFixture g;
  const GeneratedFile* model = g.c_out.find("sw/pipe_model.h");
  ASSERT_NE(model, nullptr);
  // Producer (software) gets a pool; Consumer (hardware) must not.
  EXPECT_NE(model->content.find("producer_t"), std::string::npos);
  EXPECT_EQ(model->content.find("consumer_t g_consumer_pool"),
            std::string::npos);
  // But Consumer's class id exists (handles may reference it).
  EXPECT_NE(model->content.find("#define XT_CLS_CONSUMER"), std::string::npos);
}

TEST(CGen, ActionTranslated) {
  GenFixture g;
  const GeneratedFile* model = g.c_out.find("sw/pipe_model.c");
  ASSERT_NE(model, nullptr);
  // Producer.Sending action: self.sent = self.sent + 1; int arithmetic
  // goes through the wrapping helper.
  EXPECT_NE(model->content.find("producer_get(self)->sent = "
                                "xt_iadd(producer_get(self)->sent, 1);"),
            std::string::npos)
      << model->content;
  // Cross-boundary generate became a bus send helper call.
  EXPECT_NE(model->content.find("xt_bus_send_consumer_work("),
            std::string::npos);
  // Original OAL is embedded as a comment.
  EXPECT_NE(model->content.find("self.sent = self.sent + 1;"),
            std::string::npos);
}

TEST(CGen, BusRxDecodesToSoftwareEvents) {
  GenFixture g;
  const GeneratedFile* model = g.c_out.find("sw/pipe_model.c");
  ASSERT_NE(model, nullptr);
  EXPECT_NE(model->content.find("case MSG_PRODUCER_DONE_OPCODE:"),
            std::string::npos);
  EXPECT_NE(model->content.find("PRODUCER_EV_DONE"), std::string::npos);
}

TEST(VhdlGen, EmitsPackageAndEntities) {
  GenFixture g;
  EXPECT_NE(g.vhdl_out.find("hw/pipe_pkg.vhd"), nullptr);
  EXPECT_NE(g.vhdl_out.find("hw/consumer.vhd"), nullptr);
  EXPECT_EQ(g.vhdl_out.find("hw/producer.vhd"), nullptr);  // software class
}

TEST(VhdlGen, EntityStructure) {
  GenFixture g;
  const GeneratedFile* e = g.vhdl_out.find("hw/consumer.vhd");
  ASSERT_NE(e, nullptr);
  EXPECT_NE(e->content.find("entity consumer is"), std::string::npos);
  EXPECT_NE(e->content.find("architecture rtl of consumer is"),
            std::string::npos);
  EXPECT_NE(e->content.find("rising_edge(clk)"), std::string::npos);
  // Pool size from the maxInstances mark.
  EXPECT_NE(e->content.find("CONSUMER_POOL : natural := 8"),
            std::string::npos);
  // Attribute storage and action translation.
  EXPECT_NE(e->content.find("v_total"), std::string::npos);
  EXPECT_NE(e->content.find("tx_opcode <= to_unsigned(MSG_PRODUCER_DONE_OPCODE"),
            std::string::npos);
}

TEST(VhdlGen, BalancedConstructs) {
  GenFixture g;
  for (const auto& f : g.vhdl_out.files) {
    auto count = [&](const std::string& needle) {
      std::size_t n = 0, pos = 0;
      while ((pos = f.content.find(needle, pos)) != std::string::npos) {
        ++n;
        pos += needle.size();
      }
      return n;
    };
    EXPECT_EQ(count("case "), count("end case;")) << f.path;
    EXPECT_EQ(count("process("), count("end process;")) << f.path;
    EXPECT_EQ(count(" loop"), count("end loop;") * 2) << f.path;  // "x loop"+"end loop"
  }
}

// --- the paper's consistency guarantee, checked across backends -------------------

std::map<std::string, std::string> extract_c_constants(const std::string& h) {
  std::map<std::string, std::string> out;
  std::regex re(R"(#define (MSG_\w+) (\d+)u?)");
  for (std::sregex_iterator it(h.begin(), h.end(), re), end; it != end; ++it) {
    out[(*it)[1]] = (*it)[2];
  }
  return out;
}

std::map<std::string, std::string> extract_vhdl_constants(const std::string& v) {
  std::map<std::string, std::string> out;
  std::regex re(R"(constant (MSG_\w+) : natural := (\d+);)");
  for (std::sregex_iterator it(v.begin(), v.end(), re), end; it != end; ++it) {
    out[(*it)[1]] = (*it)[2];
  }
  return out;
}

TEST(CrossBackend, InterfaceConstantsIdentical) {
  GenFixture g;
  const GeneratedFile* ch = g.c_out.find("sw/pipe_iface.h");
  const GeneratedFile* vp = g.vhdl_out.find("hw/pipe_pkg.vhd");
  ASSERT_NE(ch, nullptr);
  ASSERT_NE(vp, nullptr);

  auto c_consts = extract_c_constants(ch->content);
  auto v_consts = extract_vhdl_constants(vp->content);
  ASSERT_FALSE(c_consts.empty());

  // Every opcode / offset / width constant in the C header must appear in
  // the VHDL package with the same value (VHDL also has MSG_MAX_BITS and
  // the C side has _BYTES, so compare the intersection by name).
  std::size_t compared = 0;
  for (const auto& [name, value] : c_consts) {
    auto it = v_consts.find(name);
    if (it == v_consts.end()) continue;
    EXPECT_EQ(it->second, value) << "constant " << name << " differs";
    ++compared;
  }
  EXPECT_GE(compared, 10u);  // opcodes + field offsets/widths of 2 messages
}

TEST(CrossBackend, DigestIdentical) {
  GenFixture g;
  const GeneratedFile* ch = g.c_out.find("sw/pipe_iface.h");
  const GeneratedFile* vp = g.vhdl_out.find("hw/pipe_pkg.vhd");
  std::regex re("XT_IFACE_DIGEST[^\"]*\"([0-9a-f]+)\"");
  std::smatch mc, mv;
  ASSERT_TRUE(std::regex_search(ch->content, mc, re));
  ASSERT_TRUE(std::regex_search(vp->content, mv, re));
  EXPECT_EQ(mc[1], mv[1]);
  EXPECT_EQ(mc[1], g.fx.system->interface().digest(*g.fx.domain));
}

TEST(CrossBackend, RepartitionSwapsFilesNotInterfaces) {
  // Flip the mark: Producer to hardware instead of Consumer. The generated
  // file SET changes, but each backend still agrees with the other.
  marks::MarkSet m;
  m.mark_hardware("Producer");
  MappedFixture fx(make_pipeline_domain(), std::move(m));
  DiagnosticSink sink;
  Output c = generate_c(*fx.system, sink);
  Output v = generate_vhdl(*fx.system, sink);
  ASSERT_FALSE(sink.has_errors()) << sink.to_string();
  EXPECT_NE(v.find("hw/producer.vhd"), nullptr);
  EXPECT_EQ(v.find("hw/consumer.vhd"), nullptr);
  auto cc = extract_c_constants(c.find("sw/pipe_iface.h")->content);
  auto vv = extract_vhdl_constants(v.find("hw/pipe_pkg.vhd")->content);
  for (const auto& [name, value] : cc) {
    auto it = vv.find(name);
    if (it != vv.end()) {
      EXPECT_EQ(it->second, value);
    }
  }
}

// --- the paper's "compilable text" claim, checked with a real C compiler -----------

TEST(CGen, GeneratedCCompiles) {
  GenFixture g;
  std::string dir = ::testing::TempDir() + "xtsoc_cgen";
  std::system(("mkdir -p " + dir).c_str());
  for (const auto& f : g.c_out.files) {
    std::string base = f.path.substr(f.path.find_last_of('/') + 1);
    std::ofstream(dir + "/" + base) << f.content;
  }
  std::string cmd = "cc -std=c99 -Wall -Werror -c " + dir + "/pipe_model.c " +
                    dir + "/pipe_main.c -o /dev/null 2>" + dir + "/cc.log";
  // -o with multiple inputs is invalid; compile separately.
  cmd = "cd " + dir + " && cc -std=c99 -Wall -Werror -c pipe_model.c 2>cc1.log"
        " && cc -std=c99 -Wall -Werror -c pipe_main.c 2>cc2.log";
  int rc = std::system(cmd.c_str());
  if (rc != 0) {
    std::ifstream log1(dir + "/cc1.log"), log2(dir + "/cc2.log");
    std::stringstream ss;
    ss << log1.rdbuf() << log2.rdbuf();
    FAIL() << "generated C failed to compile:\n" << ss.str();
  }
}

TEST(CGen, GeneratedCLinksWithMain) {
  GenFixture g;
  std::string dir = ::testing::TempDir() + "xtsoc_clink";
  std::system(("mkdir -p " + dir).c_str());
  for (const auto& f : g.c_out.files) {
    std::string base = f.path.substr(f.path.find_last_of('/') + 1);
    std::ofstream(dir + "/" + base) << f.content;
  }
  std::string cmd = "cd " + dir +
                    " && cc -std=c99 pipe_model.c pipe_main.c -o demo "
                    "2>link.log && ./demo";
  int rc = std::system(cmd.c_str());
  if (rc != 0) {
    std::ifstream log(dir + "/link.log");
    std::stringstream ss;
    ss << log.rdbuf();
    FAIL() << "generated C failed to link/run:\n" << ss.str();
  }
}

/// One software class whose action computes the int edge cases: INT64_MAX
/// + 1, INT64_MIN / d and INT64_MIN % d, with d an event parameter so the
/// C compiler cannot fold them, and 2^53 + 1 > 2^53, which a compare
/// through double gets wrong.
std::unique_ptr<xtuml::Domain> make_int_probe_domain() {
  using xtuml::DataType;
  xtuml::DomainBuilder b("Probe");
  b.cls("Probe", "PRB")
      .attr("a", DataType::kInt)
      .attr("q", DataType::kInt)
      .attr("m", DataType::kInt)
      .attr("gt", DataType::kBool)
      .event("go", {{"d", DataType::kInt}})
      .state("Idle")
      .state("Run",
             "big = 9223372036854775807;\n"
             "self.a = big + 1;\n"
             "self.q = (0 - big - 1) / param.d;\n"
             "self.m = (0 - big - 1) % param.d;\n"
             "self.gt = 9007199254740993 > 9007199254740992;")
      .transition("Idle", "go", "Run");
  return b.take();
}

TEST(CGen, GeneratedIntArithmeticMatchesTheWalker) {
  marks::MarkSet m;
  m.set_class_mark("Probe", marks::kMaxInstances, ScalarValue(std::int64_t{1}));
  MappedFixture fx(make_int_probe_domain(), m);
  runtime::Executor exec(*fx.compiled);
  const runtime::InstanceHandle h = exec.create("Probe");
  exec.inject(h, "go", {runtime::Value(std::int64_t{-1})});
  exec.run_all();
  std::string want;
  for (std::uint32_t attr = 0; attr < 3; ++attr) {
    if (attr > 0) want += ' ';
    want += std::to_string(
        runtime::as_int(exec.database().get_attr(h, AttributeId(attr))));
  }
  want += runtime::as_bool(exec.database().get_attr(h, AttributeId(3)))
              ? " true"
              : " false";
  EXPECT_EQ(want, "-9223372036854775808 -9223372036854775808 0 true");

  DiagnosticSink sink;
  const Output c = generate_c(*fx.system, sink);
  ASSERT_FALSE(sink.has_errors()) << sink.to_string();
  const std::string dir = ::testing::TempDir() + "xtsoc_cint";
  std::system(("mkdir -p " + dir).c_str());
  for (const auto& f : c.files) {
    std::ofstream(dir + "/" + f.path.substr(f.path.find_last_of('/') + 1))
        << f.content;
  }
  std::ofstream(dir + "/probe_run.c")
      << "#include <inttypes.h>\n"
         "#include <stdlib.h>\n"
         "#include \"probe_model.h\"\n"
         "int main(int argc, char** argv) {\n"
         "  xt_handle_t p = probe_create();\n"
         "  const char* overflow = argc > 2 ? argv[2] : \"\";\n"
         "  if (overflow[0] == 'c') probe_create();\n"
         "  xt_any_args_t args;\n"
         "  args.probe.e_go.d = argc > 1 ? strtoll(argv[1], 0, 10) : -1;\n"
         "  for (int i = 0; i <= (overflow[0] == 'q' ? XT_QUEUE_MAX : 0); ++i)\n"
         "    xt_send(XT_CLS_PROBE, PROBE_EV_GO, p, false, 0, &args);\n"
         "  xt_run();\n"
         "  printf(\"%\" PRId64 \" %\" PRId64 \" %\" PRId64 \" %s\\n\",\n"
         "         probe_get(p)->a, probe_get(p)->q, probe_get(p)->m,\n"
         "         probe_get(p)->gt ? \"true\" : \"false\");\n"
         "  return 0;\n"
         "}\n";
  // Signed overflow would be a UBSan error; keep the sanitizer where cc
  // has it.
  std::string flags = "-std=c99 -Wall -Werror";
  const std::string ubsan =
      " -fsanitize=undefined -fno-sanitize-recover=undefined";
  std::ofstream(dir + "/empty.c") << "int main(void) { return 0; }\n";
  if (std::system(("cd " + dir + " && cc" + ubsan +
                   " empty.c -o empty 2>/dev/null")
                      .c_str()) == 0) {
    flags += ubsan;
  }
  const std::string cd = "cd " + dir + " && ";
  if (std::system((cd + "cc " + flags +
                   " probe_model.c probe_run.c -o probe 2>cc.log")
                      .c_str()) != 0) {
    std::ifstream log(dir + "/cc.log");
    std::stringstream ss;
    ss << log.rdbuf();
    FAIL() << "generated C failed to compile:\n" << ss.str();
  }
  if (std::system((cd + "./probe > out.txt 2> err.txt").c_str()) != 0) {
    std::ifstream err(dir + "/err.txt");
    std::stringstream ss;
    ss << err.rdbuf();
    FAIL() << "probe failed:\n" << ss.str();
  }
  std::ifstream out(dir + "/out.txt");
  std::string got;
  std::getline(out, got);
  EXPECT_EQ(got, want);

  // Division by zero aborts with the walker's message, and a full pool or
  // signal queue aborts naming the class and the limit.
  auto run_fails_with = [&](const std::string& args,
                            const std::string& message) {
    SCOPED_TRACE(args);
    EXPECT_NE(std::system((cd + "./probe " + args + " > out.txt 2> err.txt")
                              .c_str()),
              0);
    std::ifstream err(dir + "/err.txt");
    std::stringstream msg;
    msg << err.rdbuf();
    EXPECT_NE(msg.str().find(message), std::string::npos) << msg.str();
  };
  run_fails_with("0", "integer division by zero");
  run_fails_with("-1 create",
                 "pool of 'Probe' is full (1 instances; raise the "
                 "maxInstances mark)");
  run_fails_with("-1 queue",
                 "signal queue is full (1024 signals; raise XT_QUEUE_MAX) "
                 "sending to 'Probe'");
}

TEST(CGen, PureSoftwareSystemHasEmptyBusSection) {
  MappedFixture fx(make_pipeline_domain(), marks::MarkSet{});
  DiagnosticSink sink;
  Output c = generate_c(*fx.system, sink);
  const GeneratedFile* model = c.find("sw/pipe_model.c");
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->content.find("xt_bus_send_"), std::string::npos);
  // Everything is software: both classes have pools.
  EXPECT_NE(model->content.find("g_consumer_pool"), std::string::npos);
  EXPECT_NE(model->content.find("g_producer_pool"), std::string::npos);
}

TEST(CrossBackend, RegenerationIsDeterministic) {
  // "Repeatable mappings": the same marked model generates byte-identical
  // text every time.
  GenFixture g;
  DiagnosticSink sink;
  Output c2 = generate_c(*g.fx.system, sink);
  Output v2 = generate_vhdl(*g.fx.system, sink);
  ASSERT_EQ(c2.files.size(), g.c_out.files.size());
  for (std::size_t i = 0; i < c2.files.size(); ++i) {
    EXPECT_EQ(c2.files[i].path, g.c_out.files[i].path);
    EXPECT_EQ(c2.files[i].content, g.c_out.files[i].content);
  }
  ASSERT_EQ(v2.files.size(), g.vhdl_out.files.size());
  for (std::size_t i = 0; i < v2.files.size(); ++i) {
    EXPECT_EQ(v2.files[i].content, g.vhdl_out.files[i].content);
  }
}

TEST(VhdlGen, TranslatesControlFlowAndSelects) {
  // A hardware class exercising while/if/select/log/create: the VHDL
  // translation must render each construct.
  xtuml::DomainBuilder b("Hw");
  b.cls("Unit")
      .attr("acc", xtuml::DataType::kInt)
      .event("crunch", {{"n", xtuml::DataType::kInt}})
      .state("Idle")
      .state("Busy",
             "k = 0;\n"
             "while (k < param.n)\n"
             "  k = k + 1;\n"
             "  if (k % 2 == 0)\n"
             "    self.acc = self.acc + k;\n"
             "  end if;\n"
             "end while;\n"
             "select many peers from instances of Unit where (selected.acc "
             "> 0);\n"
             "for each p in peers\n"
             "  p.acc = p.acc - 1;\n"
             "end for;\n"
             "log \"done\", self.acc;")
      .transition("Idle", "crunch", "Busy")
      .transition("Busy", "crunch", "Busy");
  // The classifier needs a software peer to force boundary synthesis paths.
  b.cls("Driver")
      .ref_attr("unit", "Unit")
      .event("go")
      .state("S0")
      .state("S1", "generate crunch(n: 4) to self.unit;")
      .transition("S0", "go", "S1");
  marks::MarkSet m;
  m.mark_hardware("Unit");
  MappedFixture fx(b.take(), std::move(m));
  DiagnosticSink sink;
  Output v = generate_vhdl(*fx.system, sink);
  ASSERT_FALSE(sink.has_errors()) << sink.to_string();
  const GeneratedFile* unit = v.find("hw/unit.vhd");
  ASSERT_NE(unit, nullptr);
  EXPECT_NE(unit->content.find("while "), std::string::npos);
  EXPECT_NE(unit->content.find("end loop;"), std::string::npos);
  EXPECT_NE(unit->content.find("end if;"), std::string::npos);
  EXPECT_NE(unit->content.find("for i in 0 to UNIT_POOL - 1 loop"),
            std::string::npos);
  EXPECT_NE(unit->content.find("report"), std::string::npos);
  EXPECT_NE(unit->content.find("to_integer(signed("), std::string::npos);
}

TEST(Output, LineAndByteCounts) {
  Output o;
  o.files.push_back({"a", "one\ntwo\n"});
  o.files.push_back({"b", "three"});
  EXPECT_EQ(o.total_lines(), 3u);
  EXPECT_EQ(o.total_bytes(), 13u);
  EXPECT_NE(o.find("a"), nullptr);
  EXPECT_EQ(o.find("zzz"), nullptr);
}

}  // namespace
}  // namespace xtsoc::codegen
