"""Self-test fixtures for chopin-analyze.

A miniature chopin-like tree with one *injected* violation (and one
clean twin, and one suppressed twin) per pass. The self-test
materializes it into a tempdir, runs the full analysis, and checks
every expectation below — so a pass that silently stops firing (or
starts over-firing on the sanctioned patterns) fails the suite.

The fixture compiles as real C++ (each .cc is self-contained), so the
clang frontend can run the same expectations in CI; the generated
compile_commands.json in materialize() covers that path.
"""

from __future__ import annotations

import json
import pathlib

_STUBS_HH = """\
#pragma once
#include <atomic>
#include <cstdint>

#define CHOPIN_GUARDED_BY(x)
#define CHOPIN_REQUIRES(...)
#define CHOPIN_CHECK(cond, ...) ((void)(cond))
#define CHOPIN_ASSERT(cond, ...) ((void)(cond))
#define CHOPIN_DCHECK(cond, ...) ((void)(cond))

using Tick = std::uint64_t;

struct Mutex {};

struct SequentialCap {
  void assertHeld() const {}
};

struct ThreadPool {
  template <typename F>
  void parallelFor(unsigned n, F &&f) {
    for (unsigned i = 0; i < n; ++i) f(i);
  }
  template <typename F>
  void submit(F &&f) { f(); }
};

struct ScenarioRegion {
  explicit ScenarioRegion(ThreadPool &) {}
};

struct EventQueue {
  SequentialCap seq;
  Tick now_ = 0;
  Tick sample() const {
    seq.assertHeld();
    return now_;
  }
};

struct Net {
  void drain(Tick upTo) CHOPIN_REQUIRES(seq);
};

"""

_SEQ_REACH_CC = """\
#include "stubs.hh"

void Net::drain(Tick) {}

inline Tick peekNow(EventQueue &q) { return q.sample(); }

void badFanout(ThreadPool &pool, EventQueue &q, Tick *out) {
  pool.parallelFor(8, [&](unsigned i) {
    out[i] = peekNow(q);  // VIOLATION seq-reach: reaches assertHeld
  });
}

void badRequires(ThreadPool &pool, Net &net) {
  pool.parallelFor(2, [&](unsigned) {
    net.drain(0);  // VIOLATION seq-reach: CHOPIN_REQUIRES sink
  });
}

void goodScenarioFanout(ThreadPool &pool, EventQueue &q, Tick *out) {
  pool.parallelFor(4, [&, out](unsigned i) {
    ScenarioRegion region(pool);  // self-owned simulation: legal
    out[i] = q.sample();
  });
}

void suppressedFanout(ThreadPool &pool, EventQueue &q, Tick *out) {
  // chopin-analyze: allow(seq-reach, partition-escape)
  pool.parallelFor(2, [&](unsigned i) { out[i] = q.sample(); });
}

void goodPureFanout(ThreadPool &pool, Tick *out) {
  pool.parallelFor(8, [out](unsigned i) { out[i] = i * 2u; });
}

// Qualname ends with "Net::drain" but is unrelated to Net: the
// CHOPIN_REQUIRES on Net::drain must NOT propagate here ('::'-anchored
// suffix matching in ir.merge).
struct WideNet {
  void drain(Tick) {}
};

void goodWideNet(ThreadPool &pool, WideNet &wn) {
  pool.parallelFor(2, [&](unsigned) { wn.drain(0); });
}

void badStoredLambda(ThreadPool &pool, EventQueue &q, Tick *out) {
  auto task = [&](unsigned i) { out[i] = peekNow(q); };
  pool.parallelFor(2, task);  // VIOLATION seq-reach: stored worker lambda
}
"""

_LOCK_HH = """\
#pragma once
#include "stubs.hh"

class Registry {
 public:
  int lookup(int k) const;

 private:
  mutable Mutex m;
  int hits CHOPIN_GUARDED_BY(m) = 0;
  const int capacity = 64;
  std::atomic<int> misses{0};
  int version = 0;  // VIOLATION lock-coverage: unguarded mutable member
  // chopin-analyze: allow(lock-coverage)
  int scratch = 0;  // documented protocol: touched only by lookup()
};

class NoMutex {  // no Mutex member: out of scope for lock-coverage
  int anything = 0;
};
"""

_LOCK_CC = """\
#include "lock.hh"

int Registry::lookup(int k) const { return k; }
"""

_DET_FLOAT_CC = """\
#include "stubs.hh"

void accumulate(ThreadPool &pool, const float *vals, unsigned n,
                float *out) {
  double total = 0.0;
  pool.parallelFor(n, [&](unsigned i) {
    total += vals[i];  // VIOLATION det-float: completion-order merge
    out[i] += vals[i] * 2.0f;  // sanctioned: disjoint slot
    float local = 0.0f;
    local += vals[i];  // lambda-local: fine
    (void)local;
  });
  double tolerated = 0.0;
  pool.parallelFor(n, [&](unsigned i) {
    // chopin-analyze: allow(det-float)
    tolerated += vals[i];
  });
  (void)total;
  (void)tolerated;
}

void sequentialSum(const float *vals, unsigned n) {
  double total = 0.0;
  for (unsigned i = 0; i < n; ++i) total += vals[i];  // not in a worker
  (void)total;
}
"""

_TICK_NARROW_CC = """\
#include "stubs.hh"

unsigned badTruncate(Tick t) {
  unsigned lo = t;  // VIOLATION tick-narrow
  unsigned ok = static_cast<unsigned>(t);
  // chopin-analyze: allow(tick-narrow)
  unsigned tolerated = t;
  Tick widened = t + 1;
  (void)ok;
  (void)tolerated;
  (void)widened;
  return lo;
}

int badReturn(Tick t) {
  return t;  // VIOLATION tick-narrow: narrow return
}

Tick goodReturn(Tick t) { return t + 1; }
"""

_PARTITION_ESCAPE_HH = """\
#pragma once
#include "stubs.hh"

// Class in a header, method defined out-of-line in the .cc: capture
// types are unresolvable in the defining TU and must resolve against
// the merged cross-TU class model.
struct Compositor {
  ThreadPool &pool;
  EventQueue *clock = nullptr;
  Tick ticks[4] = {0, 0, 0, 0};
  void fanout();
};
"""

_PARTITION_ESCAPE_CC = """\
#include "partition_escape.hh"

struct Pipeline {
  EventQueue *queue = nullptr;
  Tick budget = 0;
};

void badWorkerRefCapture(ThreadPool &pool, EventQueue &q, Tick *out) {
  pool.parallelFor(2, [&](unsigned i) {
    out[i] = q.now_;  // VIOLATION partition-escape: q aliases the
                      // coordinator-owned queue
  });
}

void badWorkerPointerCapture(ThreadPool &pool, EventQueue *qp, Tick *out) {
  // VIOLATION partition-escape: a copied pointer still aliases
  pool.parallelFor(2, [qp, out](unsigned i) { out[i] = qp->now_; });
}

void goodWorkerValueCapture(ThreadPool &pool, Tick base, Tick *out) {
  pool.parallelFor(2, [base, out](unsigned i) { out[i] = base + i; });
}

void badAliasHop(ThreadPool &pool, Pipeline &pl, Tick *out) {
  pool.parallelFor(2, [&](unsigned i) {
    out[i] = pl.budget;  // VIOLATION partition-escape: Pipeline holds an
                         // EventQueue* (one aliasing hop)
  });
}

void suppressedWorkerCapture(ThreadPool &pool, EventQueue &q, Tick *out) {
  // single-frame setup: the pool quiesces before the queue advances
  // chopin-analyze: allow(partition-escape)
  pool.parallelFor(2, [&](unsigned i) { out[i] = q.now_; });
}

struct Renderer {
  ThreadPool &pool;
  EventQueue &clock;
  Tick frame = 0;

  void badThisCapture(Tick *out) {
    // VIOLATION partition-escape: `this` aliases the clock member
    pool.parallelFor(2, [this, out](unsigned i) {
      out[i] = clock.now_ + frame;
    });
  }

  void goodLocalCopy(Tick *out) {
    Tick f = frame;
    pool.parallelFor(2, [f, out](unsigned i) { out[i] = f; });
  }
};

void Compositor::fanout() {
  pool.parallelFor(2, [&](unsigned i) {
    ticks[i] = clock->now_;  // VIOLATION partition-escape: member pointer
                             // to the coordinator clock under [&]
  });
}

void badNestedWorker(ThreadPool &pool, EventQueue &q, Tick *out) {
  pool.parallelFor(2, [&, out](unsigned i) {
    auto probe = [&]() { return q.now_; };  // nested lambda inherits the
    out[i] = probe();                       // worker context
  });
}

void goodScenarioWorker(ThreadPool &pool, EventQueue &q, Tick *out) {
  pool.parallelFor(2, [&](unsigned i) {
    ScenarioRegion region(pool);  // self-owned nested simulation
    out[i] = q.now_;
  });
}
"""

_DET_TAINT_CC = """\
#include "stubs.hh"

#include <ctime>
#include <map>
#include <pthread.h>
#include <unordered_map>

inline Tick timestamp() { return 7; }

struct MetricsVisitor {
  void value(const char *, double) {}
  void field(const char *, const char *, double) {}
};

struct JsonWriter {
  void key(const char *) {}
  void value(const char *, double) {}
};

struct Tracer {
  void span(const char *, Tick, Tick) {}
  void record(Tick) {}
};

struct FrameStats {
  double draws = 0;
  double pixels = 0;
  double scratch = 0;
  void visitMetrics(MetricsVisitor &v) {
    v.value("draws", draws);
    v.value("pixels", pixels);
  }
};

void badUnorderedMetric(std::unordered_map<int, int> &m, FrameStats &st) {
  for (auto &kv : m)
    st.draws += kv.second;  // VIOLATION det-taint: iteration order leaks
                            // into an audited metric
}

void goodOrderedMetric(std::map<int, int> &m, FrameStats &st) {
  for (auto &kv : m)
    st.draws += kv.second;  // ordered container: stable across runs
}

void goodUnregisteredField(std::unordered_map<int, int> &m,
                           FrameStats &st) {
  for (auto &kv : m)
    st.scratch += kv.second;  // scratch is not visitMetrics-registered
}

void badThreadSpan(Tracer &tr) {
  Tick t = pthread_self();
  tr.span("worker", t, t);  // VIOLATION det-taint: thread id in a span
}

void badTimeJson(JsonWriter &w) {
  double t = static_cast<double>(time(nullptr));
  w.value("wall", t);  // VIOLATION det-taint: wall clock in the report
}

void goodKilledTaint(JsonWriter &w) {
  double t = static_cast<double>(time(nullptr));
  t = 0.0;  // strong update kills the taint
  w.value("calls", t);
}

void badPointerKey(FrameStats &st, int *p) {
  // VIOLATION det-taint: pointer value ordering an audited metric
  st.pixels += static_cast<double>(reinterpret_cast<std::uintptr_t>(p));
}

inline Tick hostStamp() { return timestamp(); }

void badHelperTime(Tracer &tr) {
  tr.record(hostStamp());  // VIOLATION det-taint: via hostStamp's return
}

inline void emitSpan(Tracer &tr, Tick t) { tr.span("x", t, t); }

void badParamSink(Tracer &tr) {
  emitSpan(tr, timestamp());  // VIOLATION det-taint: via emitSpan arg#1
}

void goodParamSink(Tracer &tr, Tick simNow) {
  emitSpan(tr, simNow);  // simulated time: deterministic
}

void suppressedTimeJson(JsonWriter &w) {
  // profiling sidecar, excluded from the determinism gate
  // chopin-analyze: allow(det-taint)
  w.value("wall", static_cast<double>(time(nullptr)));
}

Tick goodLocalTime() {
  Tick t0 = timestamp();
  Tick t1 = timestamp();
  return t1 - t0;  // stays out of every audited output
}
"""

_LEX_EDGE_CC = """\
#include "stubs.hh"

#if 0
unsigned deadTruncate(Tick t) {
  unsigned v = t;  // inside #if 0: must not fire
  return v;
}
#if 1
unsigned deadNested(Tick t) {
  unsigned v = t;  // nested #if stays dead
  return v;
}
#endif
#endif

#if 0
unsigned deadElseArm(Tick t) {
  unsigned v = t;
  return v;
}
#else
unsigned liveElseArm(Tick t) {
  unsigned v = t;  // VIOLATION: the #else arm is live
  return v;
}
#endif

unsigned rawStringLive(Tick t) {
  const char *note =
      R"raw(} ] ) { [&](unsigned) { // chopin-analyze: allow(tick-narrow))raw";
  unsigned v = t;  // VIOLATION: raw string above must not suppress or
  (void)note;      // derail this
  return v;
}

#define FIXTURE_BUMP(x) \\
  do { \\
    (x) = (x) + 1; \\
  } while (0)

unsigned contLive(Tick t) {
  FIXTURE_BUMP(t);
  unsigned v = t;  // VIOLATION: the continued #define is consumed whole
  return v;
}

void nestedLambdas(ThreadPool &pool, Tick *out) {
  pool.parallelFor(2, [out](unsigned i) {
    auto inner = [out, i](unsigned j) {
      auto innermost = [=]() { out[i] = i + j; };
      innermost();
    };
    inner(i);
  });
}

unsigned afterNested(Tick t) {
  unsigned v = t;  // VIOLATION: brace matching stayed in sync through the
  return v;        // nesting above
}
"""

_UNKNOWN_ALLOW_CC = """\
#include "stubs.hh"

unsigned retiredAllow(Tick t) {
  // chopin-analyze: allow(retired-pass)
  unsigned v = static_cast<unsigned>(t);  // VIOLATION unknown-allow
  return v;
}

unsigned mixedAllow(Tick t) {
  unsigned v = t;  // chopin-analyze: allow(tick-narrow, misspeled-pass)
  return v;        // VIOLATION unknown-allow above; tick-narrow silenced
}
"""

FIXTURE_FILES = {
    "src/stubs.hh": _STUBS_HH,
    "src/seq_reach.cc": _SEQ_REACH_CC,
    "src/lock.hh": _LOCK_HH,
    "src/lock.cc": _LOCK_CC,
    "src/det_float.cc": _DET_FLOAT_CC,
    "src/tick_narrow.cc": _TICK_NARROW_CC,
    "src/partition_escape.hh": _PARTITION_ESCAPE_HH,
    "src/partition_escape.cc": _PARTITION_ESCAPE_CC,
    "src/det_taint.cc": _DET_TAINT_CC,
    "src/lex_edge.cc": _LEX_EDGE_CC,
    "src/unknown_allow.cc": _UNKNOWN_ALLOW_CC,
}

# (rule, file, fragment-of-key-or-message, should_fire[, frontends])
# The optional 5th element restricts an expectation to the named
# frontends — e.g. lambdas stored in a variable before the pool call are
# only attached by the clang frontend's structural matching.
EXPECTATIONS = [
    ("seq-reach", "src/seq_reach.cc", "EventQueue::sample", True),
    ("seq-reach", "src/seq_reach.cc", "Net::drain", True),
    ("seq-reach", "src/seq_reach.cc", "goodScenarioFanout", False),
    ("seq-reach", "src/seq_reach.cc", "suppressedFanout", False),
    ("seq-reach", "src/seq_reach.cc", "goodPureFanout", False),
    ("seq-reach", "src/seq_reach.cc", "WideNet::drain", False),
    ("seq-reach", "src/seq_reach.cc", "badStoredLambda", True, ("clang",)),
    ("lock-coverage", "src/lock.hh", "Registry::version", True),
    ("lock-coverage", "src/lock.hh", "Registry::hits", False),
    ("lock-coverage", "src/lock.hh", "Registry::capacity", False),
    ("lock-coverage", "src/lock.hh", "Registry::misses", False),
    ("lock-coverage", "src/lock.hh", "Registry::scratch", False),
    ("lock-coverage", "src/lock.hh", "NoMutex", False),
    ("det-float", "src/det_float.cc", "total+=", True),
    ("det-float", "src/det_float.cc", "out[i]", False),
    ("det-float", "src/det_float.cc", "local", False),
    ("det-float", "src/det_float.cc", "tolerated", False),
    ("tick-narrow", "src/tick_narrow.cc", "initializes unsigned 'lo'",
     True),
    ("tick-narrow", "src/tick_narrow.cc", "returned as int", True),
    ("tick-narrow", "src/tick_narrow.cc", "tolerated", False),
    ("tick-narrow", "src/tick_narrow.cc", "widened", False),
    ("tick-narrow", "src/tick_narrow.cc", "goodReturn", False),
    # partition-escape: capture escape analysis.
    ("partition-escape", "src/partition_escape.cc",
     "badWorkerRefCapture:<worker>:q", True),
    ("partition-escape", "src/partition_escape.cc",
     "badWorkerRefCapture:<worker>:out", False),
    ("partition-escape", "src/partition_escape.cc",
     "badWorkerPointerCapture:<worker>:qp", True),
    ("partition-escape", "src/partition_escape.cc",
     "goodWorkerValueCapture", False),
    ("partition-escape", "src/partition_escape.cc", "<worker>:base",
     False),
    ("partition-escape", "src/partition_escape.cc", "badAliasHop", True),
    ("partition-escape", "src/partition_escape.cc", "via Pipeline::queue",
     True),
    ("partition-escape", "src/partition_escape.cc",
     "coordinator-owned (SequentialCap) state EventQueue", True),
    ("partition-escape", "src/partition_escape.cc",
     "suppressedWorkerCapture", False),
    ("partition-escape", "src/partition_escape.cc",
     "Renderer::badThisCapture:<worker>:this", True),
    ("partition-escape", "src/partition_escape.cc", "goodLocalCopy",
     False),
    ("partition-escape", "src/partition_escape.cc",
     "Compositor::fanout:<worker>:clock", True),
    ("partition-escape", "src/partition_escape.cc",
     "Compositor::fanout:<worker>:pool", False),
    ("partition-escape", "src/partition_escape.cc", "badNestedWorker",
     True),
    ("partition-escape", "src/partition_escape.cc", "goodScenarioWorker",
     False),
    # det-taint: nondeterminism sources into audited outputs.
    ("det-taint", "src/det_taint.cc", "badUnorderedMetric", True),
    ("det-taint", "src/det_taint.cc",
     "unordered-container iteration order", True),
    ("det-taint", "src/det_taint.cc", "FrameStats::draws", True),
    ("det-taint", "src/det_taint.cc", "goodOrderedMetric", False),
    ("det-taint", "src/det_taint.cc", "goodUnregisteredField", False),
    ("det-taint", "src/det_taint.cc", "FrameStats::scratch", False),
    ("det-taint", "src/det_taint.cc", "badThreadSpan", True),
    ("det-taint", "src/det_taint.cc", "thread identity", True),
    ("det-taint", "src/det_taint.cc", "badTimeJson", True),
    ("det-taint", "src/det_taint.cc", "JSON report writer (w.value)",
     True),
    ("det-taint", "src/det_taint.cc", "host wall-clock time", True),
    ("det-taint", "src/det_taint.cc", "goodKilledTaint", False),
    ("det-taint", "src/det_taint.cc", "badPointerKey", True),
    ("det-taint", "src/det_taint.cc", "pointer-valued ordering key",
     True),
    ("det-taint", "src/det_taint.cc", "FrameStats::pixels", True),
    ("det-taint", "src/det_taint.cc", "badHelperTime", True),
    ("det-taint", "src/det_taint.cc", "hostStamp", False),
    ("det-taint", "src/det_taint.cc", "badParamSink", True),
    ("det-taint", "src/det_taint.cc", "emitSpan", False),
    ("det-taint", "src/det_taint.cc", "goodParamSink", False),
    ("det-taint", "src/det_taint.cc", "suppressedTimeJson", False),
    ("det-taint", "src/det_taint.cc", "goodLocalTime", False),
    # Lexer edge cases: dead #if regions, raw strings, continuations,
    # nested lambda brace matching (regressions desync everything after).
    ("tick-narrow", "src/lex_edge.cc", "deadTruncate", False),
    ("tick-narrow", "src/lex_edge.cc", "deadNested", False),
    ("tick-narrow", "src/lex_edge.cc", "deadElseArm", False),
    ("tick-narrow", "src/lex_edge.cc", "liveElseArm", True),
    ("tick-narrow", "src/lex_edge.cc", "rawStringLive", True),
    ("tick-narrow", "src/lex_edge.cc", "contLive", True),
    ("tick-narrow", "src/lex_edge.cc", "afterNested", True),
    ("partition-escape", "src/lex_edge.cc", "nestedLambdas", False),
    # unknown-allow: suppressions naming passes that do not exist.
    ("unknown-allow", "src/unknown_allow.cc", "allow(retired-pass)", True),
    ("unknown-allow", "src/unknown_allow.cc", "allow(misspeled-pass)",
     True),
    ("unknown-allow", "src/unknown_allow.cc", "allow(tick-narrow)", False),
    ("tick-narrow", "src/unknown_allow.cc", "mixedAllow", False),
    ("unknown-allow", "src/seq_reach.cc", "allow(", False),
]


def materialize(dst: pathlib.Path) -> None:
    """Write the fixture tree (and a compile_commands.json for the clang
    frontend) under @p dst."""
    for rel, text in FIXTURE_FILES.items():
        p = dst / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)
    build = dst / "build"
    build.mkdir(exist_ok=True)
    entries = []
    for rel in FIXTURE_FILES:
        if not rel.endswith(".cc"):
            continue
        entries.append({
            "directory": str(dst),
            "file": str(dst / rel),
            "arguments": ["c++", "-std=c++17", f"-I{dst / 'src'}",
                          "-c", str(dst / rel), "-o", "/dev/null"],
        })
    (build / "compile_commands.json").write_text(json.dumps(entries))


def check(findings: list, frontend: str = "lite") -> list[str]:
    """Evaluate EXPECTATIONS against analyzer findings; returns a list of
    failure messages (empty on success)."""
    failures: list[str] = []
    for exp in EXPECTATIONS:
        rule, file, fragment, should_fire = exp[:4]
        if len(exp) > 4 and frontend not in exp[4]:
            continue
        hits = [f for f in findings
                if f.rule == rule and f.file == file and
                (fragment in f.key or fragment in f.message)]
        if should_fire and not hits:
            failures.append(
                f"expected {rule} finding matching '{fragment}' in "
                f"{file}, got none")
        elif not should_fire and hits:
            failures.append(
                f"unexpected {rule} finding matching '{fragment}' in "
                f"{file}: {hits[0].message}")
    return failures
