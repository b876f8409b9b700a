GO ?= go

.PHONY: check race bench test build vet chaos totem-soak fuzz-smoke slo-smoke mp-smoke dr-smoke fd-smoke lf-smoke ftperf-smoke

## check: vet + build + full test suite (the tier-1 gate)
check: vet build test

## vet: go vet plus a gofmt gate (fails listing any unformatted file)
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: race-detect the concurrency-heavy layers — the executor queue
## the ring's protocol loop hands deliveries to, the CDR intern table every decoder shares, the ORB and the
## deterministic-execution context (whose objects replication builds per
## execution), totem, replication, the transport
## conformance suite on both backends (netsim and loopback UDP), a
## three-node deployment of StartNode stacks over loopback UDP (mproc), and
## the two stores every node shares (WAL and DR store) — then the
## fault notifier and suspicion machine, the Replication Manager, domain
## assembly and the SLO harness — then the GIOP and IIOP codecs and
## connections, object references, the interceptor chain, the naming
## service, the IDL compiler, the service layer, the ftsh console and the
## root facade. Each set runs after the one before: the
## CPU-heavy SLO harness sharing two cores with totem's lossy-network tests
## pushes those past their delivery deadlines.
race:
	$(GO) test -race ./internal/fifo ./internal/cdr ./internal/orb ./internal/nondet ./internal/totem ./internal/replication ./internal/netsim ./internal/transport/... ./internal/mproc ./internal/wal ./internal/drstore
	$(GO) test -race ./internal/fault ./internal/ftcorba ./internal/core ./internal/slo
	$(GO) test -race ./internal/giop ./internal/iiop ./internal/ior ./internal/interception ./internal/naming ./internal/idl ./internal/service ./internal/shell .

## chaos: the full seeded fault-injection sweep under the race detector —
## single-ring (7 seeds x 3 replication styles = 21 schedules) plus the
## sharded sweep (R=2, shard-partition episodes included) and the targeted
## coalescing/recovery fault tests
chaos:
	CHAOS_SEEDS=7 $(GO) test -race -count=1 ./internal/chaos

## totem-soak: repeat the totem tests that ride loss, token retransmission,
## parking, a lost install, the data-before-token receive order, the
## withdrawal of queued messages, ring formation, a crash, a partition and
## its remerge, EVS recovery across a partition, and the order in which the
## consumer gets views and deliveries 50 times — a one-in-twenty flake
## there hides behind the single run of the tier-1 gate — then 20 times the
## replication tests that ride real timers: the one that holds a servant
## for five token timeouts while another group on the ring must keep
## completing calls, and the state-transfer tests (a cold joiner gets every
## acknowledged write behind a slow snapshot, from the primary or, when it
## crashes first, from the backup's log; a join costs one checkpoint per
## style; a missed lineage is repaired; a refused snapshot is not fetched
## again at once)
totem-soak:
	$(GO) test -count=50 -run 'Coalesced|Lossy|Park|TwoLostHops|LostInstall|QueuedData|Withdraw|RingFormation|CrashReforms|PartitionBoth|EVSSamePrefix|StreamMixes' ./internal/totem
	$(GO) test -count=20 -run 'SlowServantDoesNotStallRing|ColdJoinerSyncsFromPrimary|ColdBackupAnswersFromLog|JoinOneCheckpoint|MissedLineageRepaired|RefusedAdoptionAsksNoMore' ./internal/replication

## fuzz-smoke: fuzz the replication wire decoder (every message kind,
## including a checkpoint's executed-key window) for 15 s; minimization is
## capped because shrinking inputs grown from the 12 KB window seed would
## otherwise take the whole budget. Then, for 10 s each: the storage
## decoders (segment open over arbitrary file bytes; a DR store directory
## whose group holds arbitrary meta, checkpoint and segment files), the
## totem wire decoder (every packet kind; copying, owned and reused-storage
## decodes must agree), the GIOP frame decoder (copying and zero-copy
## decodes must agree) and stream reader (fragment reassembly; allocation
## bounded by the stream, not by claimed sizes), the CDR value-sequence
## decoder, the object-reference decoder and the FT service-context
## decoders. Nine targets, 95 s.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeWire$$' -fuzztime 15s -fuzzminimizetime 2s ./internal/replication
	$(GO) test -run '^$$' -fuzz '^FuzzOpenSegment$$' -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzOpenDirStore$$' -fuzztime 10s ./internal/drstore
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePacket$$' -fuzztime 10s ./internal/totem
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime 10s ./internal/giop
	$(GO) test -run '^$$' -fuzz '^FuzzReadMessage$$' -fuzztime 10s ./internal/giop
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeValues$$' -fuzztime 10s ./internal/cdr
	$(GO) test -run '^$$' -fuzz '^FuzzIORUnmarshal$$' -fuzztime 10s ./internal/ior
	$(GO) test -run '^$$' -fuzz '^FuzzFTContexts$$' -fuzztime 10s ./internal/giop

## bench: run, at full scale, the experiments that check their own bounds
## (~1.5 min), and fail on the first miss: the SLO workload (calm and chaos
## p99, goodput against the offered rate), the multi-process loopback-UDP
## throughput cells (ops/s floors), disaster recovery (RPO and exactly-once
## at zero, RTO), fail detection (no false eviction, calm and storm
## detection latency, the storm/calm ratio) and leader-follower (leased-read
## p50 and p99, leader-crash blackout). Each bound is a constant beside the
## measurement it checks, in internal/bench.
bench:
	$(GO) run ./cmd/ftbench -e slo,e2mp,dr,fd,lf

## slo-smoke: seconds-long tail-latency sanity gate (two seeds); fails if
## the calm-phase p999 blows past the smoke profile's 500ms bound
slo-smoke:
	$(GO) run ./cmd/ftbench -e slo -smoke -seed 1
	$(GO) run ./cmd/ftbench -e slo -smoke -seed 2

## dr-smoke: seconds-long disaster-recovery smoke — kills the primary
## domain mid-load, promotes the warm standby, and fails on any lost
## acknowledged operation (RPO > 0) or exactly-once violation
dr-smoke:
	$(GO) run ./cmd/ftbench -e dr -smoke

## fd-smoke: seconds-long fail-detection smoke — one provisioning-storm
## cell with a real mid-storm crash; fails on any false eviction or an
## unconfirmed crash
fd-smoke:
	$(GO) run ./cmd/ftbench -e fd -smoke

## lf-smoke: seconds-long leader-follower smoke — the leased-read /
## direct-lane-write latency cell plus the leader-crash blackout
## measurement at smoke scale, so CI exercises the LF fast path, the order
## stream, and the mid-stream handover end-to-end without the full run
lf-smoke:
	$(GO) run ./cmd/ftbench -e lf -smoke

## mp-smoke: seconds-long multi-process deployment smoke — every e2mp cell
## spawns real replica-node child processes with ring traffic on loopback
## UDP, so CI exercises spawn/readiness/teardown and the UDP backend
## end-to-end without the full measurement run
mp-smoke:
	$(GO) run ./cmd/ftbench -e e2mp -smoke

## ftperf-smoke: build the repo benchmark from this checkout and run each
## of its two workloads for 3 s with per-layer tracing (~15 s after the
## build); fails on the benchmark's non-zero exit: an error in set-up or
## in a crash/heal cycle, or a correctness violation
ftperf-smoke:
	bash ftperf/run.sh --workload active3_busy --seed 1 --seconds 3 --trace 1
	bash ftperf/run.sh --workload warm3_failover --seed 1 --seconds 3 --trace 1
