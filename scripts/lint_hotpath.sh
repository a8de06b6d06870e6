#!/usr/bin/env bash
# Hot-path allocation lint for src/sim/, src/runtime/, the scenario replay
# loop (src/workload/storm_source.*) and the per-packet pieces of src/core,
# src/pisa and src/net.
#
# The event kernel's per-event path must not allocate: no heap allocation
# (new/make_unique/make_shared/malloc), no std::function (type-erased heap
# closures — use sim::InlineCallback), no std::deque/std::list (per-node
# allocation — use sim::RingQueue), and no std::unordered_map/set (a heap
# node per insert — use a vector). These were removed from the hot path;
# this check keeps them out.
#
# Setup-time code (constructors that run once per simulation) may carry an
# explicit `// hotpath-ok: <reason>` annotation on the offending line.
# Comment text is stripped before matching, so prose mentioning a banned
# name does not trip the check. Placement new (`::new (buf)`) is allowed —
# it is how InlineCallback avoids the heap in the first place.
#
# One check covers all of src/: no getenv. The library's behaviour comes
# from options its callers set, never from the process environment (tools
# and benchmark harnesses may read theirs). No annotation exempts it.
set -u

cd "$(dirname "$0")/.."

# Whole modules whose per-event paths are hot, plus the workload engine's
# replay loop (scenario/replay/fuzzer setup code may allocate; the
# per-event StormSource lanes must not), plus the burst-mode kernel
# consumers in src/core: the merger's per-slot submit path and the timer
# block's per-wake expiry path both run once per event burst, and the
# optimizer's fused-dispatch plan is consulted on every TM event. Every
# packet hop runs the deparser and moves a pooled net::Packet, and every
# enq/deq event of an aggregated register queues a dirty index: a per-hop
# `new` or std::deque there would undo the one-buffer-per-packet path.
files=$(
  {
    find src/sim src/runtime -name '*.hpp' -o -name '*.cpp'
    ls src/workload/storm_source.hpp src/workload/storm_source.cpp
    ls src/core/event_merger.hpp src/core/event_merger.cpp \
       src/core/timer_block.hpp src/core/timer_block.cpp \
       src/core/dispatch_plan.hpp \
       src/core/aggregated_register.hpp src/core/aggregated_register.cpp
    ls src/pisa/deparser.hpp src/pisa/deparser.cpp
    ls src/net/packet.hpp src/net/packet.cpp
  } | sort
)
status=0

check() {
  local pattern="$1"
  local label="$2"
  local exempt="${3-hotpath-ok}"
  local hits
  hits=$(for f in $files; do
    awk -v pat="$pattern" -v f="$f" -v exempt="$exempt" '
      exempt != "" && index($0, exempt) { next }
      {
        line = $0
        sub(/\/\/.*/, "", line)
        if (line ~ pat) { printf "%s:%d: %s\n", f, NR, $0 }
      }
    ' "$f"
  done)
  if [ -n "$hits" ]; then
    echo "lint_hotpath: banned $scope: $label"
    echo "$hits"
    echo
    status=1
  fi
}

scope="on the hot path"
check 'std::function' \
  'std::function (type-erased heap closure; use sim::InlineCallback)'
check 'std::(deque|list)[[:space:]]*<' \
  'std::deque / std::list (per-node allocation; use sim::RingQueue)'
check 'std::unordered_(map|set|multimap|multiset)[[:space:]]*<' \
  'std::unordered_map / std::unordered_set (per-node allocation; use a vector)'
# `[^:alnum:_:]new` keeps placement `::new (` and identifiers like
# `new_value` out of scope.
check '(^|[^[:alnum:]_:])new[[:space:](]' \
  'operator new (heap allocation; pool or preallocate instead)'
check '(make_unique|make_shared|[^[:alnum:]_](m|c|re)alloc[[:space:]]*\()' \
  'heap allocation (make_unique/make_shared/malloc family)'

hot_count=$(echo "$files" | wc -l)

files=$(find src -name '*.hpp' -o -name '*.cpp' | sort)
scope="in src/"
check '(^|[^[:alnum:]_])(secure_)?getenv[[:space:]]*\(' \
  'getenv (environment-variable knob; take an option instead)' ''

if [ "$status" -eq 0 ]; then
  echo "lint_hotpath: OK ($hot_count hot-path files checked;" \
    "$(echo "$files" | wc -l) src/ files free of getenv)"
fi
exit "$status"
