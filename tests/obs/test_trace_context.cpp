// Request-scoped trace context: span parenting, cross-thread
// propagation via TraceContextScope, and the TaskGroup round trip that
// must yield a single connected span tree (DESIGN.md section 14).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/json_check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"
#include "../temp_dir.hpp"

namespace hp::obs {
namespace {

struct TraceSandbox {
  TraceSandbox() {
    set_tracing_enabled(false);
    reset_tracing();
  }
  ~TraceSandbox() {
    set_tracing_enabled(false);
    set_slow_span_threshold_ns(0);
    reset_tracing();
  }
};

TraceSummary exported_summary() {
  std::ostringstream json;
  write_chrome_trace(json);
  return summarize_trace(json::parse(json.str()));
}

TEST(TraceContext, EmptyOutsideAnySpan) {
  TraceSandbox sandbox;
  set_tracing_enabled(true);
  EXPECT_FALSE(current_trace_context().valid());
}

TEST(TraceContext, RootSpanStartsTraceAndNestedSpansInherit) {
  TraceSandbox sandbox;
  set_tracing_enabled(true);
  TraceContext outer;
  TraceContext inner;
  {
    HP_TRACE_SPAN("ctx.outer");
    outer = current_trace_context();
    EXPECT_TRUE(outer.valid());
    {
      HP_TRACE_SPAN("ctx.inner");
      inner = current_trace_context();
    }
    // Closing the inner span restores the outer context.
    EXPECT_EQ(current_trace_context().span_id, outer.span_id);
  }
  EXPECT_FALSE(current_trace_context().valid());
  EXPECT_EQ(inner.trace_id, outer.trace_id);
  EXPECT_NE(inner.span_id, outer.span_id);

  const TraceSummary summary = exported_summary();
  EXPECT_TRUE(summary.parent_integrity);
  ASSERT_EQ(summary.trees.size(), 1u);
  EXPECT_EQ(summary.trees[0].spans, 2u);
  EXPECT_EQ(summary.trees[0].roots, 1u);
  EXPECT_TRUE(summary.all_single_rooted());
}

TEST(TraceContext, SiblingRootSpansStartSeparateTraces) {
  TraceSandbox sandbox;
  set_tracing_enabled(true);
  TraceContext first;
  TraceContext second;
  {
    HP_TRACE_SPAN("ctx.first");
    first = current_trace_context();
  }
  {
    HP_TRACE_SPAN("ctx.second");
    second = current_trace_context();
  }
  EXPECT_NE(first.trace_id, second.trace_id);
  const TraceSummary summary = exported_summary();
  EXPECT_EQ(summary.trees.size(), 2u);
  EXPECT_TRUE(summary.all_single_rooted());
}

TEST(TraceContext, ScopeCarriesContextAcrossRawThread) {
  TraceSandbox sandbox;
  set_tracing_enabled(true);
  {
    HP_TRACE_SPAN("ctx.root");
    const TraceContext root = current_trace_context();
    std::thread worker{[root] {
      EXPECT_FALSE(current_trace_context().valid());
      TraceContextScope scope{root};
      EXPECT_EQ(current_trace_context().trace_id, root.trace_id);
      HP_TRACE_SPAN("ctx.remote");
    }};
    worker.join();
  }
  const TraceSummary summary = exported_summary();
  EXPECT_TRUE(summary.parent_integrity);
  ASSERT_EQ(summary.trees.size(), 1u);
  EXPECT_EQ(summary.trees[0].spans, 2u);
  EXPECT_EQ(summary.trees[0].threads, 2u);
  EXPECT_TRUE(summary.all_single_rooted());
}

TEST(TraceContext, CaptureIsEmptyWhileDisabled) {
  TraceSandbox sandbox;
  const TaskLink link = capture_task_link();
  EXPECT_EQ(link.flow_id, 0u);
  EXPECT_FALSE(link.context.valid());
  // Adopting an empty link must stay a no-op while tracing is off.
  { TaskScope scope{link}; }
  EXPECT_EQ(trace_event_count(), 0u);
}

// The issue's acceptance test: spans spawned through a 4-lane TaskGroup
// land in the spawner's tree no matter which lane (or steal victim)
// executes them -- exported, re-parsed, and checked for one fully
// connected single-root tree.
TEST(TraceContext, TaskGroupFourLaneRoundTrip) {
  TraceSandbox sandbox;
  set_tracing_enabled(true);
  par::ThreadPool pool{4};
  constexpr int kTasks = 32;
  {
    HP_TRACE_SPAN("op.root");
    par::TaskGroup group{pool};
    for (int i = 0; i < kTasks; ++i) {
      group.run([i] {
        HP_TRACE_SPAN("op.work", static_cast<std::uint64_t>(i));
      });
    }
    group.wait();
  }

  const std::string path =
      hp::test::temp_dir() + "/trace_context_round_trip.json";
  write_chrome_trace_file(path);
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  const TraceSummary summary = summarize_trace(json::parse(text.str()));
  std::remove(path.c_str());

  EXPECT_TRUE(summary.parent_integrity);
  ASSERT_EQ(summary.trees.size(), 1u);
  const TraceTreeSummary& tree = summary.trees[0];
  // op.root + kTasks par.task envelopes + kTasks op.work spans.
  EXPECT_EQ(tree.spans, 1u + 2u * kTasks);
  EXPECT_EQ(tree.roots, 1u);
  EXPECT_TRUE(tree.connected);
  EXPECT_TRUE(summary.all_single_rooted());
  EXPECT_TRUE(summary.all_balanced());

  // Every spawn emitted a flow ('s') event and every adopted task a
  // binding ('f') event.
  std::size_t flows = 0;
  for (const TraceThreadSummary& thread : summary.threads) {
    flows += thread.flow_events;
  }
  EXPECT_EQ(flows, 2u * kTasks);
}

TEST(TraceContext, ParallelForChunksJoinTheAmbientTree) {
  TraceSandbox sandbox;
  set_tracing_enabled(true);
  par::ThreadPool pool{4};
  {
    HP_TRACE_SPAN("op.parent");
    std::vector<int> data(1 << 12, 1);
    par::parallel_for(
        index_t{0}, static_cast<index_t>(data.size()), /*grain=*/256,
        [&](index_t begin, index_t end, int) {
          HP_TRACE_SPAN("op.chunk");
          for (index_t i = begin; i < end; ++i) data[i] = 2;
        },
        pool);
  }
  const TraceSummary summary = exported_summary();
  EXPECT_TRUE(summary.parent_integrity);
  ASSERT_EQ(summary.trees.size(), 1u);
  EXPECT_TRUE(summary.all_single_rooted());
}

TEST(TraceContext, SlowSpanWatchdogCountsAndKeepsTrace) {
  TraceSandbox sandbox;
  set_tracing_enabled(true);
  const std::uint64_t before = counter("obs.slow_spans").value();
  set_slow_span_threshold_ns(1);  // everything is slow
  {
    HP_TRACE_SPAN("ctx.slow");
  }
  set_slow_span_threshold_ns(0);
  EXPECT_GT(counter("obs.slow_spans").value(), before);
  const TraceSummary summary = exported_summary();
  EXPECT_TRUE(summary.all_balanced());
}

}  // namespace
}  // namespace hp::obs
