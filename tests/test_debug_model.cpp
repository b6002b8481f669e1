// Unit tests of the debugger's internal representation (GraphModel): graph
// registration, token mirroring, provenance chaining, pruning, resync and
// DOT rendering — all driven by synthetic events, no framework involved.
#include <gtest/gtest.h>

#include "dfdbg/debug/model.hpp"

namespace dfdbg::dbg {
namespace {

// Framework actor ids of the fixture's actors, as registered below.
constexpr std::uint32_t kPred = 0, kBh = 1, kRed = 2, kPipe = 3;

class ModelFixture : public ::testing::Test {
 protected:
  // A tiny bh -> red -> pipe chain (the §VI-D provenance example).
  void SetUp() override {
    m.on_register_actor(DActorKind::kModule, "pred", "pred", "", "", kPred);
    m.on_register_actor(DActorKind::kFilter, "bh", "front.bh", "c0p0", "front", kBh);
    m.on_register_actor(DActorKind::kFilter, "red", "pred.red", "c0p1", "pred", kRed);
    m.on_register_actor(DActorKind::kFilter, "pipe", "pred.pipe", "c1p0", "pred", kPipe);
    m.on_register_port("front.bh", "bh2red_out", false, "U32");
    m.on_register_port("pred.red", "bh_in", true, "U32");
    m.on_register_port("pred.red", "Red2PipeCbMB_out", false, "CbCrMB_t");
    m.on_register_port("pred.pipe", "Red2PipeCbMB_in", true, "CbCrMB_t");
    m.on_register_link(0, "bh::bh2red_out -> red::bh_in", "front.bh", "bh2red_out", "pred.red",
                       "bh_in", "U32", "L2");
    m.on_register_link(1, "red::Red2PipeCbMB_out -> pipe::Red2PipeCbMB_in", "pred.red",
                       "Red2PipeCbMB_out", "pred.pipe", "Red2PipeCbMB_in", "CbCrMB_t", "L1");
    m.on_graph_ready();
  }
  GraphModel m;
};

TEST_F(ModelFixture, GraphRegistered) {
  EXPECT_TRUE(m.ready());
  EXPECT_EQ(m.actors().size(), 4u);
  EXPECT_EQ(m.links().size(), 2u);
  const DActor* red = m.actor_by_name("red");
  ASSERT_NE(red, nullptr);
  EXPECT_EQ(red->path, "pred.red");
  EXPECT_EQ(red->in_conns.size(), 1u);
  EXPECT_EQ(red->out_conns.size(), 1u);
  EXPECT_EQ(m.actor_by_path("pred.pipe")->name, "pipe");
  EXPECT_EQ(m.actor_by_name("ghost"), nullptr);
}

TEST_F(ModelFixture, ConnectionAndLinkLookup) {
  const DConnection* c = m.connection_by_iface("pipe::Red2PipeCbMB_in");
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->is_input);
  EXPECT_EQ(c->type, "CbCrMB_t");
  const DLink* l = m.link_by_iface("pipe::Red2PipeCbMB_in");
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->src_actor, "red");
  EXPECT_EQ(l->dst_actor, "pipe");
  EXPECT_EQ(m.link_by_iface("pipe::nope"), nullptr);
}

TEST_F(ModelFixture, PushPopMirrorsTokens) {
  TokenId t = m.on_push(0, 0, pedf::Value::u32(127), kBh, 10);
  ASSERT_TRUE(t.valid());
  EXPECT_EQ(m.link(0)->queue.size(), 1u);
  EXPECT_EQ(m.link(0)->pushes, 1u);
  TokenId popped = m.on_pop(0, kRed, 20);
  EXPECT_EQ(popped, t);
  EXPECT_TRUE(m.token(t)->consumed);
  EXPECT_EQ(m.token(t)->popped_at, 20u);
  EXPECT_EQ(m.link(0)->queue.size(), 0u);
  EXPECT_EQ(m.actor_by_name("red")->last_token_in, t);
}

TEST_F(ModelFixture, SplitterProvenanceChains) {
  // bh -> red token, consumed; then red (a splitter) produces to pipe.
  TokenId t1 = m.on_push(0, 0, pedf::Value::u32(127), kBh, 1);
  m.on_pop(0, kRed, 2);
  m.set_behavior("red", ActorBehavior::kSplitter);
  TokenId t2 = m.on_push(1, 0, pedf::Value::u32(999), kRed, 3);
  ASSERT_TRUE(t2.valid());
  EXPECT_EQ(m.token(t2)->produced_from, t1);
  // The paper's `info last_token` walk: pipe consumed t2 <- t1.
  m.on_pop(1, kPipe, 4);
  auto path = m.token_path(m.actor_by_name("pipe")->last_token_in, 8);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0]->id, t2);
  EXPECT_EQ(path[1]->id, t1);
}

TEST_F(ModelFixture, UnknownBehaviorBreaksChain) {
  TokenId t1 = m.on_push(0, 0, pedf::Value::u32(1), kBh, 1);
  (void)t1;
  m.on_pop(0, kRed, 2);
  TokenId t2 = m.on_push(1, 0, pedf::Value::u32(2), kRed, 3);
  EXPECT_FALSE(m.token(t2)->produced_from.valid());  // not configured
}

TEST_F(ModelFixture, PipelineProvenanceIsOneToOne) {
  m.set_behavior("red", ActorBehavior::kPipeline);
  TokenId a = m.on_push(0, 0, pedf::Value::u32(1), kBh, 1);
  TokenId b = m.on_push(0, 1, pedf::Value::u32(2), kBh, 1);
  m.on_pop(0, kRed, 2);
  m.on_pop(0, kRed, 2);
  TokenId out1 = m.on_push(1, 0, pedf::Value::u32(10), kRed, 3);
  TokenId out2 = m.on_push(1, 1, pedf::Value::u32(20), kRed, 3);
  EXPECT_EQ(m.token(out1)->produced_from, a);
  EXPECT_EQ(m.token(out2)->produced_from, b);
}

TEST_F(ModelFixture, SplitterReusesLastConsumed) {
  m.set_behavior("red", ActorBehavior::kSplitter);
  TokenId a = m.on_push(0, 0, pedf::Value::u32(1), kBh, 1);
  m.on_pop(0, kRed, 2);
  TokenId out1 = m.on_push(1, 0, pedf::Value::u32(10), kRed, 3);
  TokenId out2 = m.on_push(1, 1, pedf::Value::u32(20), kRed, 3);
  // One consumed token fans out to every produced token.
  EXPECT_EQ(m.token(out1)->produced_from, a);
  EXPECT_EQ(m.token(out2)->produced_from, a);
}

TEST_F(ModelFixture, DescribeTokenTranscriptFormat) {
  TokenId t = m.on_push(0, 0, pedf::Value::u32(127), kBh, 1);
  EXPECT_EQ(m.describe_token(t), "bh -> red (U32) 127");
}

TEST_F(ModelFixture, SchedulingStatesTracked) {
  m.on_actor_start(kPipe);
  EXPECT_EQ(m.actor_by_name("pipe")->sched, SchedState::kScheduled);
  m.on_work_enter(kPipe, 1);
  EXPECT_EQ(m.actor_by_name("pipe")->sched, SchedState::kRunning);
  EXPECT_EQ(m.actor_by_name("pipe")->firings, 1u);
  m.on_work_exit(kPipe);
  EXPECT_EQ(m.actor_by_name("pipe")->sched, SchedState::kFinished);
  m.on_step_begin(kPred, 3);
  EXPECT_EQ(m.actor_by_name("pred")->step, 3u);
  m.on_step_end(kPred);
  EXPECT_EQ(m.actor_by_name("pipe")->sched, SchedState::kNotScheduled);
}

TEST_F(ModelFixture, FilterLineTracked) {
  m.on_filter_line(kPipe, 221);
  EXPECT_EQ(m.actor_by_name("pipe")->current_line, 221);
}

TEST_F(ModelFixture, RemoveAndReplaceMirrored) {
  m.on_push(1, 0, pedf::Value::u32(1), kRed, 1);
  TokenId b = m.on_push(1, 1, pedf::Value::u32(2), kRed, 1);
  m.on_remove(1, 0);
  EXPECT_EQ(m.link(1)->queue.size(), 1u);
  EXPECT_EQ(m.link(1)->queue.front(), b);
  m.on_replace(1, 0, pedf::Value::u32(42));
  EXPECT_EQ(m.token(b)->value.as_u64(), 42u);
}

TEST_F(ModelFixture, StaleModelPopReturnsInvalid) {
  // Hooks were off: the framework pushed unseen; now a pop arrives.
  TokenId t = m.on_pop(1, kPipe, 5);
  EXPECT_FALSE(t.valid());
  EXPECT_EQ(m.link(1)->pops, 1u);  // counter still advances
}

TEST_F(ModelFixture, ResyncRebuildsAnonymousTokens) {
  m.on_push(1, 0, pedf::Value::u32(1), kRed, 1);
  m.resync_link(1, 5);
  EXPECT_EQ(m.link(1)->queue.size(), 5u);
  // Anonymous tokens have no meaningful payload but keep occupancy honest.
  for (TokenId id : m.link(1)->queue) EXPECT_NE(m.token(id), nullptr);
}

TEST_F(ModelFixture, HistoryPruning) {
  m.set_token_history_limit(3);
  for (int i = 0; i < 10; ++i) {
    m.on_push(0, static_cast<std::uint64_t>(i), pedf::Value::u32(0), kBh, 1);
    m.on_pop(0, kRed, 2);
  }
  EXPECT_EQ(m.tokens_observed(), 10u);
  EXPECT_LE(m.token_count(), 3u);
}

TEST_F(ModelFixture, TokenMemoryAccounting) {
  EXPECT_EQ(m.token_memory_bytes(), 0u);
  m.on_push(0, 0, pedf::Value::u32(1), kBh, 1);
  EXPECT_GT(m.token_memory_bytes(), 0u);
}

TEST_F(ModelFixture, CompletionNamesIncludeActorsAndIfaces) {
  auto names = m.completion_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "pipe"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "pipe::Red2PipeCbMB_in"), names.end());
}

TEST_F(ModelFixture, DotWithTokenCounts) {
  m.on_push(1, 0, pedf::Value::u32(1), kRed, 1);
  m.on_push(1, 1, pedf::Value::u32(2), kRed, 1);
  std::string dot = m.to_dot(/*with_tokens=*/true);
  EXPECT_NE(dot.find("\"red\" -> \"pipe\""), std::string::npos);
  EXPECT_NE(dot.find("[2]"), std::string::npos);  // occupancy annotation
  std::string plain = m.to_dot(false);
  EXPECT_EQ(plain.find("[2]"), std::string::npos);
}

TEST_F(ModelFixture, InjectedTokensFlagged) {
  TokenId t = m.on_push(1, 0, pedf::Value::u32(1), GraphModel::kNoActor, 1,
                        /*injected=*/true);
  EXPECT_TRUE(m.token(t)->injected);
}

TEST(ModelNames, AmbiguousShortNamesNotResolvable) {
  GraphModel m;
  m.on_register_actor(DActorKind::kController, "controller", "a.controller", "", "a", 0);
  m.on_register_actor(DActorKind::kController, "controller", "b.controller", "", "b", 1);
  EXPECT_EQ(m.actor_by_name("controller"), nullptr);
  EXPECT_NE(m.actor_by_path("a.controller"), nullptr);
}

}  // namespace
}  // namespace dfdbg::dbg
