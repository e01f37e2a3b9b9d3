#!/usr/bin/env bash
# Stress run of the differential suites: parallel sequential-equivalence,
# the decimal parser against its digit-at-a-time reference (test_uint256),
# the incremental vs from-scratch monitor differential with its per-poll
# report check (test_monitor), datalog incremental properties, the
# naive-oracle differential (random programs through the engine and the
# naive reference evaluator — same relations and derived counts at
# --jobs 1/2/4), the RPC fault/quorum
# net, the attack-pack cross-product (class x fault/quorum x jobs,
# plus the twin-differential generator properties), the exit-bridge
# accounting net (Merkle proof-mutation properties plus its own class
# x fault/quorum x jobs cross-product), and the fleet suite
# (bus dedup, breaker lifecycle, solo-vs-fleet isolation differential,
# --jobs determinism over random traffic), each at XCW_STRESS x their
# default qcheck case counts (default 10x) — plus the full-matrix fleet
# bench (4/8/16 bridges x clean/moderate/mixed fault plans via
# XCW_FLEET_FULL=1) and, via the @crash alias, the exhaustive
# durable-store crash sweep (XCW_CRASH_FULL=1: every WAL/snapshot write
# point of a 3-lane fleet, restarted stream asserted byte-identical to
# the uninterrupted run).
#
# Equivalent to `dune build @stress`; this wrapper exists so the knob is
# discoverable and overridable:
#
#   tools/stress.sh            # 10x case counts
#   XCW_STRESS=50 tools/stress.sh
#
# Deliberately not part of the default `dune runtest` — at 10x counts the
# differential properties take minutes, which is the point: they explore
# far more random programs, op scripts and fault plans than the tier-1
# gate can afford.
set -eu
cd "$(dirname "$0")/.."

export XCW_STRESS="${XCW_STRESS:-10}"
echo "stress: running differential suites at ${XCW_STRESS}x case counts"
exec dune build @stress
