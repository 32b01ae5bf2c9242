#include <gtest/gtest.h>

#include "xtsoc/oal/compiled.hpp"
#include "xtsoc/runtime/database.hpp"
#include "xtsoc/runtime/executor.hpp"
#include "xtsoc/runtime/trace.hpp"
#include "xtsoc/runtime/value.hpp"
#include "xtsoc/snap/io.hpp"
#include "xtsoc/xtuml/builder.hpp"
#include "observe.hpp"

namespace xtsoc::runtime {
namespace {

using xtuml::DataType;
using xtuml::Domain;
using xtuml::DomainBuilder;
using xtuml::Multiplicity;
using xtuml::ScalarValue;

// --- values -------------------------------------------------------------------

TEST(Value, Defaults) {
  EXPECT_EQ(std::get<std::int64_t>(default_value(DataType::kInt)), 0);
  EXPECT_EQ(std::get<bool>(default_value(DataType::kBool)), false);
  EXPECT_TRUE(std::get<InstanceHandle>(default_value(DataType::kInstRef)).is_null());
}

TEST(Value, NumericCrossTypeEquality) {
  EXPECT_TRUE(value_equals(Value(std::int64_t{2}), Value(2.0)));
  EXPECT_FALSE(value_equals(Value(std::int64_t{2}), Value(2.5)));
  EXPECT_FALSE(value_equals(Value(std::int64_t{1}), Value(std::string("1"))));
}

TEST(Value, IntEqualityIsExact) {
  const Value big(std::int64_t{9007199254740993});  // 2^53 + 1
  EXPECT_FALSE(value_equals(big, Value(std::int64_t{9007199254740992})));
  EXPECT_TRUE(value_equals(big, Value(9007199254740992.0)));  // mixed: real
}

TEST(Value, AccessorsThrowOnWrongType) {
  EXPECT_THROW(as_bool(Value(std::int64_t{1})), std::runtime_error);
  EXPECT_THROW(as_int(Value(2.0)), std::runtime_error);
  EXPECT_THROW(as_handle(Value(true)), std::runtime_error);
  EXPECT_DOUBLE_EQ(as_real(Value(std::int64_t{3})), 3.0);
}

TEST(Value, ToString) {
  EXPECT_EQ(to_string(Value(true)), "true");
  EXPECT_EQ(to_string(Value(std::int64_t{-7})), "-7");
  EXPECT_EQ(to_string(Value(std::string("hi"))), "hi");
  InstanceSet set{InstanceHandle::null()};
  EXPECT_EQ(to_string(Value(set)), "{<null>}");
}

// --- database -----------------------------------------------------------------

Domain make_db_domain() {
  DomainBuilder b("D");
  b.cls("Dog", "DOG")
      .attr("age", DataType::kInt, ScalarValue(std::int64_t{1}))
      .attr("name", DataType::kString);
  b.cls("Owner", "OWN").attr("budget", DataType::kInt);
  b.assoc("R1", "Owner", "keeps", Multiplicity::kZeroOne, "Dog", "kept_by",
          Multiplicity::kZeroMany);
  b.assoc("R2", "Dog", "likes", Multiplicity::kZeroMany, "Dog", "liked_by",
          Multiplicity::kZeroMany);
  return std::move(*b.take());
}

TEST(Database, CreateSetsDefaults) {
  Domain d = make_db_domain();
  Database db(d);
  InstanceHandle h = db.create(d.find_class_id("Dog"));
  EXPECT_TRUE(db.is_alive(h));
  EXPECT_EQ(std::get<std::int64_t>(db.get_attr(h, AttributeId(0))), 1);
  EXPECT_EQ(std::get<std::string>(db.get_attr(h, AttributeId(1))), "");
}

TEST(Database, StaleHandleDetected) {
  Domain d = make_db_domain();
  Database db(d);
  InstanceHandle h = db.create(d.find_class_id("Dog"));
  db.destroy(h);
  EXPECT_FALSE(db.is_alive(h));
  EXPECT_THROW(db.get_attr(h, AttributeId(0)), ModelError);
  // Slot reuse bumps the generation, so the old handle stays dead.
  InstanceHandle h2 = db.create(d.find_class_id("Dog"));
  EXPECT_EQ(h2.index, h.index);
  EXPECT_NE(h2.generation, h.generation);
  EXPECT_FALSE(db.is_alive(h));
  EXPECT_TRUE(db.is_alive(h2));
}

TEST(Database, NullHandleThrows) {
  Domain d = make_db_domain();
  Database db(d);
  EXPECT_THROW(db.deref(InstanceHandle::null()), ModelError);
}

TEST(Database, AllOfInCreationOrder) {
  Domain d = make_db_domain();
  Database db(d);
  ClassId dog = d.find_class_id("Dog");
  auto h1 = db.create(dog);
  auto h2 = db.create(dog);
  auto h3 = db.create(dog);
  db.destroy(h2);
  InstanceSet all = db.all_of(dog);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], h1);
  EXPECT_EQ(all[1], h3);
  EXPECT_EQ(db.live_count(dog), 2u);
}

TEST(Database, LiveCountMatchesPoolScan) {
  // The counter create/destroy keep, against a scan of the slot pools
  // (all_of), after deletes and across a save/load round trip into a
  // database that held a different population.
  Domain d = make_db_domain();
  const ClassId dog = d.find_class_id("Dog");
  const ClassId owner = d.find_class_id("Owner");
  auto agrees = [&](const Database& db) {
    EXPECT_EQ(db.live_count(dog), db.all_of(dog).size());
    EXPECT_EQ(db.live_count(owner), db.all_of(owner).size());
    EXPECT_EQ(db.live_count(),
              db.all_of(dog).size() + db.all_of(owner).size());
  };
  Database db(d);
  agrees(db);
  auto d1 = db.create(dog);
  auto d2 = db.create(dog);
  db.create(dog);
  db.create(owner);
  db.destroy(d2);
  db.destroy(d1);
  db.create(dog);  // reuses a freed slot
  agrees(db);
  EXPECT_EQ(db.live_count(dog), 2u);
  EXPECT_EQ(db.live_count(), 3u);

  snap::Writer w;
  db.save_state(w);
  Database restored(d);
  for (int i = 0; i < 4; ++i) restored.create(owner);
  snap::Reader r(w.data());
  restored.load_state(r);
  agrees(restored);
  EXPECT_EQ(restored.live_count(dog), 2u);
  EXPECT_EQ(restored.live_count(owner), 1u);
  restored.destroy(restored.all_of(dog).front());
  restored.create(owner);
  agrees(restored);
  EXPECT_EQ(restored.live_count(), 3u);
}

TEST(SnapReject, ForgedDatabaseFreeSlot) {
  Domain d = make_db_domain();
  Database db(d);
  db.create(d.find_class_id("Dog"));
  db.destroy(db.create(d.find_class_id("Dog")));
  snap::Writer w;
  db.save_state(w);
  // Dog's free list holds slot 1. Its entry sits before Owner's empty free
  // list and the two empty link lists (three u64 counts and the link-list
  // count). The next create reuses the slot it names.
  const std::size_t at = w.size() - 4 - 4 * 8;
  ASSERT_EQ(w.data()[at], 1);
  for (const std::uint8_t forged : {0, 2}) {
    std::vector<std::uint8_t> bytes = w.data();
    bytes[at] = forged;
    Database restored(d);
    snap::Reader r(bytes);
    try {
      restored.load_state(r);
      FAIL() << "forged free slot " << int{forged} << " not rejected";
    } catch (const snap::SnapError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "database snapshot frees slot " + std::to_string(forged) +
                    " of class 0: not one of its 2 slots, live, or listed "
                    "twice"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Database, RelateAndSelect) {
  Domain d = make_db_domain();
  Database db(d);
  auto owner = db.create(d.find_class_id("Owner"));
  auto dog1 = db.create(d.find_class_id("Dog"));
  auto dog2 = db.create(d.find_class_id("Dog"));
  AssociationId r1 = d.find_association("R1")->id;

  db.relate(owner, dog1, r1);
  db.relate(dog2, owner, r1);  // reversed argument order is canonicalized

  InstanceSet dogs = db.related(owner, r1);
  ASSERT_EQ(dogs.size(), 2u);
  EXPECT_EQ(dogs[0], dog1);
  InstanceSet owners = db.related(dog1, r1);
  ASSERT_EQ(owners.size(), 1u);
  EXPECT_EQ(owners[0], owner);
  EXPECT_EQ(db.link_count(r1), 2u);
}

TEST(Database, MultiplicityEnforced) {
  Domain d = make_db_domain();
  Database db(d);
  auto o1 = db.create(d.find_class_id("Owner"));
  auto o2 = db.create(d.find_class_id("Owner"));
  auto dog = db.create(d.find_class_id("Dog"));
  AssociationId r1 = d.find_association("R1")->id;
  db.relate(o1, dog, r1);
  // A dog has at most one owner (owner end is 0..1).
  EXPECT_THROW(db.relate(o2, dog, r1), ModelError);
}

TEST(Database, DuplicateLinkRejected) {
  Domain d = make_db_domain();
  Database db(d);
  auto o = db.create(d.find_class_id("Owner"));
  auto dog = db.create(d.find_class_id("Dog"));
  AssociationId r1 = d.find_association("R1")->id;
  db.relate(o, dog, r1);
  EXPECT_THROW(db.relate(o, dog, r1), ModelError);
}

TEST(Database, UnrelateMissingLinkThrows) {
  Domain d = make_db_domain();
  Database db(d);
  auto o = db.create(d.find_class_id("Owner"));
  auto dog = db.create(d.find_class_id("Dog"));
  AssociationId r1 = d.find_association("R1")->id;
  EXPECT_THROW(db.unrelate(o, dog, r1), ModelError);
  db.relate(o, dog, r1);
  db.unrelate(dog, o, r1);  // either order
  EXPECT_EQ(db.link_count(r1), 0u);
}

TEST(Database, DestroyDropsLinks) {
  Domain d = make_db_domain();
  Database db(d);
  auto o = db.create(d.find_class_id("Owner"));
  auto dog = db.create(d.find_class_id("Dog"));
  AssociationId r1 = d.find_association("R1")->id;
  db.relate(o, dog, r1);
  db.destroy(dog);
  EXPECT_EQ(db.link_count(r1), 0u);
  EXPECT_TRUE(db.related(o, r1).empty());
}

TEST(Database, ReflexiveAssociation) {
  Domain d = make_db_domain();
  Database db(d);
  ClassId dog = d.find_class_id("Dog");
  auto d1 = db.create(dog);
  auto d2 = db.create(dog);
  AssociationId r2 = d.find_association("R2")->id;
  db.relate(d1, d2, r2);
  InstanceSet likes = db.related(d1, r2);
  ASSERT_EQ(likes.size(), 1u);
  EXPECT_EQ(likes[0], d2);
}

TEST(Database, RealAttrWidensIntWrite) {
  DomainBuilder b("D");
  b.cls("A").attr("w", DataType::kReal);
  Domain d = std::move(*b.take());
  Database db(d);
  auto h = db.create(d.find_class_id("A"));
  db.set_attr(h, AttributeId(0), Value(std::int64_t{3}));
  EXPECT_DOUBLE_EQ(std::get<double>(db.get_attr(h, AttributeId(0))), 3.0);
}

TEST(Database, SetAttrRejectsIllTypedValues) {
  DomainBuilder b("D");
  b.cls("A").attr("n", DataType::kInt).attr("s", DataType::kString);
  Domain d = std::move(*b.take());
  Database db(d);
  auto h = db.create(d.find_class_id("A"));
  try {
    db.set_attr(h, AttributeId(0), Value(10.5));
    ADD_FAILURE() << "a real was stored in an int attribute";
  } catch (const ModelError& e) {
    EXPECT_EQ(std::string(e.what()),
              "attribute 'A.n' is int, cannot hold real 10.5");
  }
  EXPECT_THROW(db.set_attr(h, AttributeId(1), Value(std::int64_t{1})),
               ModelError);
  EXPECT_THROW(db.set_attr(h, AttributeId(0), Value{}), ModelError);
  EXPECT_EQ(std::get<std::int64_t>(db.get_attr(h, AttributeId(0))), 0);
  db.set_attr(h, AttributeId(1), Value(std::string("ok")));
  EXPECT_EQ(std::get<std::string>(db.get_attr(h, AttributeId(1))), "ok");
}

// --- executor -----------------------------------------------------------------

/// Counter: a single self-looping state machine.
std::unique_ptr<Domain> make_counter_domain() {
  DomainBuilder b("CounterD");
  b.cls("Counter", "CNT")
      .attr("n", DataType::kInt)
      .event("bump")
      .event("reset")
      .state("Counting", "self.n = self.n + 1;")
      .state("Zeroed", "self.n = 0;")
      .transition("Counting", "bump", "Counting")
      .transition("Counting", "reset", "Zeroed")
      .transition("Zeroed", "bump", "Counting");
  return b.take();
}

struct Fixture {
  std::unique_ptr<Domain> domain;
  std::unique_ptr<oal::CompiledDomain> compiled;
  std::unique_ptr<Executor> exec;

  explicit Fixture(std::unique_ptr<Domain> d, ExecutorConfig cfg = {}) {
    domain = std::move(d);
    DiagnosticSink sink;
    compiled = oal::compile_domain(*domain, sink);
    if (!compiled) throw std::runtime_error(sink.to_string());
    exec = std::make_unique<Executor>(*compiled, cfg);
  }
};

TEST(Executor, DispatchRunsDestinationAction) {
  Fixture f(make_counter_domain());
  auto h = f.exec->create("Counter");
  f.exec->inject(h, "bump");
  f.exec->inject(h, "bump");
  EXPECT_EQ(f.exec->run_all(), 2u);
  EXPECT_EQ(std::get<std::int64_t>(
                f.exec->database().get_attr(h, AttributeId(0))),
            2);
}

TEST(Executor, CreationDoesNotRunInitialAction) {
  Fixture f(make_counter_domain());
  auto h = f.exec->create("Counter");
  EXPECT_EQ(std::get<std::int64_t>(
                f.exec->database().get_attr(h, AttributeId(0))),
            0);
  EXPECT_EQ(f.exec->dispatch_count(), 0u);
}

TEST(Executor, UnhandledEventIgnoredByDefault) {
  Fixture f(make_counter_domain());
  auto h = f.exec->create("Counter");
  f.exec->inject(h, "reset");  // Counting -> Zeroed
  f.exec->inject(h, "reset");  // no transition from Zeroed on reset
  f.exec->run_all();
  std::size_t ignored = 0;
  for (const auto& e : f.exec->trace().events()) {
    if (e.kind == TraceKind::kIgnored) ++ignored;
  }
  EXPECT_EQ(ignored, 1u);
}

TEST(Executor, CantHappenThrows) {
  auto d = make_counter_domain();
  d->cls(d->find_class_id("Counter")).fallback =
      xtuml::EventFallback::kCantHappen;
  Fixture f(std::move(d));
  auto h = f.exec->create("Counter");
  f.exec->inject(h, "reset");
  f.exec->inject(h, "reset");
  EXPECT_THROW(f.exec->run_all(), ModelError);
}

TEST(Executor, EventToDeletedInstanceDropped) {
  Fixture f(make_counter_domain());
  auto h = f.exec->create("Counter");
  f.exec->inject(h, "bump");
  f.exec->destroy(h);
  EXPECT_NO_THROW(f.exec->run_all());
  EXPECT_EQ(f.exec->dispatch_count(), 0u);
}

TEST(Executor, DelayedEventsFireInTimeOrder) {
  Fixture f(make_counter_domain());
  auto h = f.exec->create("Counter");
  f.exec->inject(h, "reset", {}, 10);
  f.exec->inject(h, "bump", {}, 5);
  EXPECT_TRUE(f.exec->idle());
  ASSERT_TRUE(f.exec->next_deadline().has_value());
  EXPECT_EQ(*f.exec->next_deadline(), 5u);
  f.exec->run_all();
  EXPECT_EQ(f.exec->now(), 10u);
  // bump at t=5 (n: 0->1), reset at t=10 (n->0)
  EXPECT_EQ(std::get<std::int64_t>(
                f.exec->database().get_attr(h, AttributeId(0))),
            0);
  EXPECT_EQ(f.exec->dispatch_count(), 2u);
}

TEST(Executor, AdvanceTimeReleasesTimers) {
  Fixture f(make_counter_domain());
  auto h = f.exec->create("Counter");
  f.exec->inject(h, "bump", {}, 7);
  f.exec->advance_time(6);
  EXPECT_FALSE(f.exec->step());
  f.exec->advance_time(1);
  EXPECT_TRUE(f.exec->step());
}

/// Ping-pong: two instances of Relay bouncing a token, decrementing ttl.
std::unique_ptr<Domain> make_pingpong_domain() {
  DomainBuilder b("PingPong");
  b.cls("Relay", "RLY")
      .attr("hits", DataType::kInt)
      .ref_attr("peer", "Relay")
      .event("token", {{"ttl", DataType::kInt}})
      .state("Waiting",
             "self.hits = self.hits + 1;\n"
             "if (param.ttl > 0)\n"
             "  generate token(ttl: param.ttl - 1) to self.peer;\n"
             "end if;")
      .transition("Waiting", "token", "Waiting");
  return b.take();
}

TEST(Executor, PingPongCauseAndEffect) {
  Fixture f(make_pingpong_domain());
  auto a = f.exec->create("Relay");
  auto p = f.exec->create("Relay");
  f.exec->database().set_attr(a, AttributeId(1), Value(p));
  f.exec->database().set_attr(p, AttributeId(1), Value(a));
  f.exec->inject(a, "token", {Value(std::int64_t{9})});
  EXPECT_EQ(f.exec->run_all(), 10u);
  EXPECT_EQ(std::get<std::int64_t>(f.exec->database().get_attr(a, AttributeId(0))), 5);
  EXPECT_EQ(std::get<std::int64_t>(f.exec->database().get_attr(p, AttributeId(0))), 5);
}

TEST(Executor, RunToCompletionNoInterleaving) {
  // An action that writes two attributes must complete before the next
  // event is processed: between two dispatches there is never a partial
  // write visible. We check via trace ordering: every dispatch's attr
  // writes appear before the next dispatch record.
  DomainBuilder b("RTC");
  b.cls("Pair")
      .attr("x", DataType::kInt)
      .attr("y", DataType::kInt)
      .event("set", {{"v", DataType::kInt}})
      .state("S", "self.x = param.v;\nself.y = param.v;")
      .transition("S", "set", "S");
  Fixture f(b.take());
  auto h = f.exec->create("Pair");
  f.exec->inject(h, "set", {Value(std::int64_t{1})});
  f.exec->inject(h, "set", {Value(std::int64_t{2})});
  f.exec->run_all();

  int dispatches_seen = 0;
  int writes_since_dispatch = 0;
  for (const auto& e : f.exec->trace().events()) {
    if (e.kind == TraceKind::kDispatch) {
      if (dispatches_seen > 0) {
        EXPECT_EQ(writes_since_dispatch, 2);
      }
      ++dispatches_seen;
      writes_since_dispatch = 0;
    } else if (e.kind == TraceKind::kAttrWrite) {
      ++writes_since_dispatch;
    }
  }
  EXPECT_EQ(dispatches_seen, 2);
  EXPECT_EQ(writes_since_dispatch, 2);
}

/// Model used by both queue-policy tests. On "go", the instance sends
/// itself "selfie". An external "other" is ALREADY queued behind "go". The
/// xtUML discipline dispatches the self-directed "selfie" before the older
/// external "other"; plain FIFO dispatches "other" first. The first event
/// to arrive in Running decides the next state.
std::unique_ptr<Domain> make_selfq_domain() {
  DomainBuilder b("SelfQ");
  b.cls("A")
      .attr("order", DataType::kString)
      .event("go")
      .event("selfie")
      .event("other")
      .state("S0")
      .state("Running", "generate selfie() to self;\n")
      .state("GotSelfie", "self.order = self.order + \"s\";")
      .state("GotOther", "self.order = self.order + \"o\";")
      .state("SinkS")
      .state("SinkO")
      .transition("S0", "go", "Running")
      .transition("Running", "selfie", "GotSelfie")
      .transition("Running", "other", "GotOther")
      .transition("GotSelfie", "other", "SinkS")
      .transition("GotOther", "selfie", "SinkO");
  return b.take();
}

TEST(Executor, SelfDirectedEventsOutrankExternal) {
  Fixture f(make_selfq_domain());
  auto h = f.exec->create("A");
  f.exec->inject(h, "go");
  f.exec->inject(h, "other");
  f.exec->run_all();
  EXPECT_EQ(std::get<std::string>(f.exec->database().get_attr(h, AttributeId(0))),
            "s");
  EXPECT_EQ(f.exec->database().current_state(h),
            f.domain->find_class("A")->find_state("SinkS")->id);
}

TEST(Executor, FifoPolicyAblationChangesOrder) {
  ExecutorConfig cfg;
  cfg.policy = QueuePolicy::kFifoOnly;
  Fixture f(make_selfq_domain(), cfg);
  auto h = f.exec->create("A");
  f.exec->inject(h, "go");
  f.exec->inject(h, "other");
  f.exec->run_all();
  // FIFO: "other" was enqueued before "selfie" was generated, so it wins.
  EXPECT_EQ(std::get<std::string>(f.exec->database().get_attr(h, AttributeId(0))),
            "o");
  EXPECT_EQ(f.exec->database().current_state(h),
            f.domain->find_class("A")->find_state("SinkO")->id);
}

TEST(Executor, FinalStateDeletesInstance) {
  DomainBuilder b("Fin");
  b.cls("Job")
      .event("finish")
      .state("Running")
      .final_state("Done")
      .transition("Running", "finish", "Done");
  Fixture f(b.take());
  auto h = f.exec->create("Job");
  f.exec->inject(h, "finish");
  f.exec->run_all();
  EXPECT_FALSE(f.exec->database().is_alive(h));
}

TEST(Executor, ActionCanDeleteSelf) {
  DomainBuilder b("Del");
  b.cls("Ephemeral")
      .event("die")
      .state("Alive")
      .state("Dying", "delete object instance self;")
      .transition("Alive", "die", "Dying");
  Fixture f(b.take());
  auto h = f.exec->create("Ephemeral");
  f.exec->inject(h, "die");
  EXPECT_NO_THROW(f.exec->run_all());
  EXPECT_FALSE(f.exec->database().is_alive(h));
}

TEST(Executor, CreateWithOverridesAttributes) {
  Fixture f(make_counter_domain());
  auto h = f.exec->create_with("Counter", {{"n", Value(std::int64_t{41})}});
  f.exec->inject(h, "bump");
  f.exec->run_all();
  EXPECT_EQ(std::get<std::int64_t>(f.exec->database().get_attr(h, AttributeId(0))),
            42);
}

TEST(Executor, CreateWithUnknownAttributeThrows) {
  Fixture f(make_counter_domain());
  EXPECT_THROW(f.exec->create_with("Counter", {{"zz", Value(std::int64_t{1})}}),
               ModelError);
  EXPECT_THROW(f.exec->create("Nope"), ModelError);
}

TEST(Executor, InjectUnknownEventThrows) {
  Fixture f(make_counter_domain());
  auto h = f.exec->create("Counter");
  EXPECT_THROW(f.exec->inject(h, "nope"), ModelError);
}

TEST(Executor, OpLimitGuardsRunawayLoops) {
  DomainBuilder b("Loop");
  b.cls("Spinner")
      .attr("x", DataType::kInt)
      .event("go")
      .state("S0")
      .state("Spin", "while (true)\n  self.x = self.x + 1;\nend while;")
      .transition("S0", "go", "Spin");
  ExecutorConfig cfg;
  cfg.max_ops_per_action = 10'000;
  Fixture f(b.take(), cfg);
  auto h = f.exec->create("Spinner");
  f.exec->inject(h, "go");
  EXPECT_THROW(f.exec->run_all(), ModelError);
}

TEST(Executor, TraceDisabledForThroughput) {
  ExecutorConfig cfg;
  cfg.trace_enabled = false;
  Fixture f(make_counter_domain(), cfg);
  auto h = f.exec->create("Counter");
  f.exec->inject(h, "bump");
  f.exec->run_all();
  EXPECT_EQ(f.exec->trace().size(), 0u);
}

TEST(Executor, DeterministicAcrossRuns) {
  auto run_once = [] {
    Fixture f(make_pingpong_domain());
    auto a = f.exec->create("Relay");
    auto p = f.exec->create("Relay");
    f.exec->database().set_attr(a, AttributeId(1), Value(p));
    f.exec->database().set_attr(p, AttributeId(1), Value(a));
    f.exec->inject(a, "token", {Value(std::int64_t{20})});
    f.exec->run_all();
    return f.exec->trace().to_string();
  };
  EXPECT_EQ(run_once(), run_once());
}

// Property sweep: ping-pong with varying ttl always does ttl+1 dispatches
// and splits hits evenly (odd ttl) per instance.
class PingPongSweep : public ::testing::TestWithParam<int> {};

TEST_P(PingPongSweep, DispatchCountMatchesTtl) {
  int ttl = GetParam();
  Fixture f(make_pingpong_domain());
  auto a = f.exec->create("Relay");
  auto p = f.exec->create("Relay");
  f.exec->database().set_attr(a, AttributeId(1), Value(p));
  f.exec->database().set_attr(p, AttributeId(1), Value(a));
  f.exec->inject(a, "token", {Value(std::int64_t{ttl})});
  EXPECT_EQ(f.exec->run_all(), static_cast<std::size_t>(ttl + 1));
  auto hits_a = std::get<std::int64_t>(f.exec->database().get_attr(a, AttributeId(0)));
  auto hits_p = std::get<std::int64_t>(f.exec->database().get_attr(p, AttributeId(0)));
  EXPECT_EQ(hits_a + hits_p, ttl + 1);
}

INSTANTIATE_TEST_SUITE_P(Ttl, PingPongSweep,
                         ::testing::Values(0, 1, 2, 3, 5, 10, 33, 100));

// --- trace --------------------------------------------------------------------

TEST(Trace, ProjectionFiltersBySubject) {
  Fixture f(make_counter_domain());
  auto h1 = f.exec->create("Counter");
  auto h2 = f.exec->create("Counter");
  f.exec->inject(h1, "bump");
  f.exec->inject(h2, "bump");
  f.exec->inject(h1, "bump");
  f.exec->run_all();
  auto p1 = f.exec->trace().projection(h1);
  auto p2 = f.exec->trace().projection(h2);
  auto count_kind = [](const std::vector<TraceEvent>& v, TraceKind k) {
    return std::count_if(v.begin(), v.end(),
                         [k](const TraceEvent& e) { return e.kind == k; });
  };
  EXPECT_EQ(count_kind(p1, TraceKind::kDispatch), 2);
  EXPECT_EQ(count_kind(p2, TraceKind::kDispatch), 1);
  auto subjects = f.exec->trace().subjects();
  EXPECT_EQ(subjects.size(), 2u);
}

TEST(Trace, LogStatementsRecorded) {
  DomainBuilder b("LogD");
  b.cls("A")
      .attr("x", DataType::kInt)
      .event("go")
      .state("S0")
      .state("S1", "log \"x =\", self.x + 1;")
      .transition("S0", "go", "S1");
  Fixture f(b.take());
  auto h = f.exec->create("A");
  f.exec->inject(h, "go");
  f.exec->run_all();
  bool found = false;
  for (const auto& e : f.exec->trace().events()) {
    if (e.kind == TraceKind::kLog && e.text == "x = 1") found = true;
  }
  EXPECT_TRUE(found);
}

// The database and trace checkpoint bytes holding every Value kind, freed
// slots and links, pinned by FNV-1a. A changed pin means the checkpoint
// layout changed: bump kSnapVersion and re-pin.
TEST(SnapGolden, DatabaseAndTraceValues) {
  DomainBuilder b("G");
  b.cls("A")
      .attr("flag", DataType::kBool)
      .attr("n", DataType::kInt)
      .attr("x", DataType::kReal)
      .attr("s", DataType::kString)
      .ref_attr("other", "A");
  b.assoc("R1", "A", "next", Multiplicity::kZeroMany, "A", "prev",
          Multiplicity::kZeroMany);
  Domain d = std::move(*b.take());
  const ClassId a = d.find_class_id("A");
  Database db(d);
  const InstanceHandle h0 = db.create(a);
  const InstanceHandle h1 = db.create(a);
  const InstanceHandle h2 = db.create(a);
  db.destroy(h1);
  db.set_attr(h0, AttributeId(0), Value(true));
  db.set_attr(h0, AttributeId(1), Value(std::int64_t{-42}));
  db.set_attr(h0, AttributeId(2), Value(2.5));
  db.set_attr(h0, AttributeId(3), Value(std::string("hello")));
  db.set_attr(h0, AttributeId(4), Value(h2));
  db.relate(h0, h2, d.find_association("R1")->id);

  Trace t;
  TraceEvent e;
  e.kind = TraceKind::kAttrWrite;
  e.tick = 7;
  e.subject = h0;
  e.peer = h2;
  e.attr = AttributeId(3);
  e.value = Value(std::string("hello"));
  e.args = {Value{}, Value(false), Value(std::int64_t{3}), Value(-0.25),
            Value(std::string("arg")), Value(h2), Value(InstanceSet{h0, h2})};
  e.text = "text";
  t.record(e);
  e.kind = TraceKind::kLog;
  e.value.reset();
  e.args.clear();
  t.record(e);

  snap::Writer w;
  db.save_state(w);
  t.save_state(w);
  const std::vector<std::uint8_t>& bytes = w.data();
  EXPECT_EQ(testing::fnv1a(std::string(bytes.begin(), bytes.end())), 0x9aed5a94b4321ae0ull);
}

TEST(Trace, HostileEventCountIsSnapError) {
  // A trace section that claims 2^40 events in a few bytes is refused
  // before anything is allocated for them.
  snap::Writer w;
  w.boolean(true);
  w.u64(std::uint64_t{1} << 40);
  w.u64(0);
  snap::Reader r(w.data());
  Trace t;
  EXPECT_THROW(t.load_state(r), snap::SnapError);
}

}  // namespace
}  // namespace xtsoc::runtime
