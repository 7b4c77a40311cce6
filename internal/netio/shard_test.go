package netio

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdds/internal/core"
	"pdds/internal/telemetry"
)

// checkDrainedConservation asserts the accounting identity at a drained
// snapshot: nothing queued and every datagram in a terminal counter (the
// stricter form of forwarder_test.go's checkConservation).
func checkDrainedConservation(t *testing.T, st Stats) {
	t.Helper()
	if st.Queued != 0 {
		t.Fatalf("queued = %d after shutdown, want 0 (%+v)", st.Queued, st)
	}
	checkConservation(t, st, nil)
}

// Sharded end-to-end conservation: multiple source ports (flows) drive a
// sharded forwarder closed loop, including malformed datagrams; every
// datagram must be accounted exactly once at 1, 2, and 8 shards, shard
// counters must fold to the aggregate, and the drain must leave nothing
// queued.
func TestForwarderShardedConservation(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			defer sink.Close()
			go func() { // drain the sink so loopback buffers stay clear
				buf := make([]byte, 2048)
				for {
					if _, _, err := sink.ReadFromUDP(buf); err != nil {
						return
					}
				}
			}()

			fwd, err := Listen(Config{
				Listen:       "127.0.0.1:0",
				Forward:      sink.LocalAddr().String(),
				RateBps:      1 << 22, // 4 Mbps
				MaxPackets:   256,
				Shards:       shards,
				DrainTimeout: 5 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer fwd.Close()

			const flows, perFlow = 4, 400
			// Closed loop: the senders together stay at most window
			// datagrams ahead of what the forwarder has read, so the
			// kernel socket buffer never overflows however slowly the
			// (race-built) forwarder reads and Received is exact.
			const window = 64
			var sent atomic.Uint64
			stall := time.Now().Add(10 * time.Second)
			var wg sync.WaitGroup
			for fl := 0; fl < flows; fl++ {
				wg.Add(1)
				go func(fl int) {
					defer wg.Done()
					conn, err := net.Dial("udp", fwd.LocalAddr().String())
					if err != nil {
						t.Error(err)
						return
					}
					defer conn.Close()
					for i := 0; i < perFlow; i++ {
						for sent.Load() > fwd.Stats().Received+window {
							if time.Now().After(stall) {
								t.Errorf("flow %d: forwarder stopped reading: %+v", fl, fwd.Stats())
								return
							}
							time.Sleep(100 * time.Microsecond)
						}
						if i%100 == 99 { // a sprinkle of undecodable datagrams
							conn.Write([]byte{0xBA, 0xD0})
						} else {
							dg := Header{Class: uint8(i % 4), Seq: uint64(i), SentAt: time.Now()}.Encode(nil)
							conn.Write(append(dg, make([]byte, 80)...))
						}
						sent.Add(1)
					}
				}(fl)
			}
			wg.Wait()

			// Wait until everything sent has landed and the queue drained.
			deadline := time.Now().Add(10 * time.Second)
			for {
				st := fwd.Stats()
				if st.Received == flows*perFlow && st.Queued == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("timed out waiting for quiescence: %+v", st)
				}
				time.Sleep(5 * time.Millisecond)
			}
			st := fwd.Stats()
			checkDrainedConservation(t, st)
			if st.BadHeader != flows*perFlow/100 {
				t.Fatalf("bad headers = %d, want %d", st.BadHeader, flows*perFlow/100)
			}
			if st.Forwarded == 0 {
				t.Fatal("nothing forwarded")
			}

			ss := fwd.ShardStats()
			if len(ss) != shards {
				t.Fatalf("ShardStats has %d entries, want %d", len(ss), shards)
			}
			var shardSum uint64
			active := 0
			for i, s := range ss {
				shardSum += s.Received
				if s.Received > 0 {
					active++
					if s.Batches == 0 || s.MaxBatch < 1 {
						t.Errorf("shard %d: received %d but batches=%d maxBatch=%d",
							i, s.Received, s.Batches, s.MaxBatch)
					}
				}
				if s.Mode != "mmsg" && s.Mode != "datagram" {
					t.Errorf("shard %d: mode %q", i, s.Mode)
				}
			}
			if shardSum != st.Received {
				t.Fatalf("shard Received sum %d != aggregate %d", shardSum, st.Received)
			}
			if active == 0 {
				t.Fatal("no shard received anything")
			}
			t.Logf("shards=%d active=%d modes=%s", shards, active, ss[0].Mode)

			if err := fwd.Close(); err != nil {
				t.Fatal(err)
			}
			checkDrainedConservation(t, fwd.Stats())
		})
	}
}

// Mid-flight Close under sharded load: senders are still blasting when the
// forwarder shuts down with no drain; every admitted datagram must still
// land in a terminal counter.
func TestForwarderShardedMidFlightClose(t *testing.T) {
	for _, shards := range []int{2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			fwd, err := Listen(Config{
				Listen:     "127.0.0.1:0",
				Forward:    "127.0.0.1:9", // discard
				RateBps:    1 << 20,
				MaxPackets: 128,
				Shards:     shards,
				// DrainTimeout zero: drop the backlog at Close.
			})
			if err != nil {
				t.Fatal(err)
			}

			var stop atomic.Bool
			var wg sync.WaitGroup
			for fl := 0; fl < 4; fl++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					conn, err := net.Dial("udp", fwd.LocalAddr().String())
					if err != nil {
						return
					}
					defer conn.Close()
					dg := Header{Class: 1, SentAt: time.Now()}.Encode(nil)
					dg = append(dg, make([]byte, 100)...)
					for !stop.Load() {
						conn.Write(dg) // errors expected once closed
					}
				}()
			}
			time.Sleep(100 * time.Millisecond)
			if err := fwd.Close(); err != nil {
				t.Fatal(err)
			}
			stop.Store(true)
			wg.Wait()
			checkDrainedConservation(t, fwd.Stats())
		})
	}
}

// flowShard is the oracle's stand-in for the kernel's REUSEPORT hash: any
// deterministic flow→shard map works, the merge must not care.
func flowShard(flow, shards int) int {
	return int(uint32(flow)*2654435761) % shards
}

// newBareForwarder assembles the data-plane state — the pacer with its
// scheduler, the shards and their rings, the accounting tables — without
// sockets or goroutines, for oracle and alloc tests. The link serves one
// oracle packet per oracleSvcGap.
func newBareForwarder(t testing.TB, kind core.Kind, shards int, sdp []float64) *Forwarder {
	t.Helper()
	const rate = oracleSize / oracleSvcGap
	sched, err := core.New(kind, sdp, rate)
	if err != nil {
		t.Fatal(err)
	}
	f := &Forwarder{
		cfg:         Config{MaxPackets: 512}.withDefaults(),
		epoch:       time.Now(),
		telem:       telemetry.NewWithSDP(sdp),
		numClasses:  len(sdp),
		classQueued: make([]int, len(sdp)),
		shardStats:  make([]ShardStats, shards),
	}
	rings := make([]*spscRing, shards)
	for i := range rings {
		f.shards = append(f.shards, newIngressShard(f, i, &batchConn{}))
		rings[i] = f.shards[i].xmit
	}
	f.pace = newPacer(sched, rings, rate)
	return f
}

// oracleArrival is one packet of a recorded arrival trace.
type oracleArrival struct {
	at    float64 // arrival stamp (what the shard writes into Packet.Arrival)
	pub   float64 // when the shard publishes it on its ring (>= at)
	class int
	shard int
	id    uint64
	size  int64
}

func (a oracleArrival) packet() *core.Packet {
	return &core.Packet{ID: a.id, Class: a.class, Size: a.size, Arrival: a.at}
}

// oracleSize and oracleSvcGap make the oracle's service period slightly
// longer than the trace's mean inter-arrival time (1 ms), so a backlog
// builds and the disciplines' priorities actually compete.
const (
	oracleSize   = 100
	oracleSvcGap = 0.0015
)

// oracleTrace returns a seeded arrival trace with nondecreasing stamps.
// With quantized stamps whole groups share one stamp, as a receive batch's
// single time.Now() produces (10 ms quantum ≈ one batch).
func oracleTrace(shards int, quantized bool) []oracleArrival {
	rng := rand.New(rand.NewSource(7))
	trace := make([]oracleArrival, 4000)
	now := 0.0
	for i := range trace {
		now += rng.Float64() * 0.002
		at := now
		if quantized {
			at = math.Floor(now/0.010) * 0.010
		}
		trace[i] = oracleArrival{
			at:    at,
			pub:   at,
			class: rng.Intn(4),
			shard: flowShard(rng.Intn(64), shards),
			id:    uint64(i + 1),
			size:  oracleSize,
		}
	}
	return trace
}

// pacerDeparture is one packet the pacer served, with its service stamp.
type pacerDeparture struct {
	id uint64
	at float64
}

// drivePacer steps c as transmitLoop does, on a virtual clock. At each wake
// instant t it publishes every arrival of trace (sorted by pub) with
// pub <= t, then calls serve(t). After a departure the next wake is
// c.wake() plus late(), or t itself when the shell is already behind (the
// egress batch); when nothing is queued it is the next publication plus
// late(). It returns the departures in service order.
func drivePacer(c *pacer, trace []oracleArrival, publish func(a oracleArrival, t float64), late func() float64) []pacerDeparture {
	out := make([]pacerDeparture, 0, len(trace))
	ti, t := 0, 0.0
	for len(out) < len(trace) {
		for ; ti < len(trace) && trace[ti].pub <= t; ti++ {
			publish(trace[ti], t)
		}
		p := c.serve(t)
		if p == nil {
			t = trace[ti].pub + late()
			continue
		}
		out = append(out, pacerDeparture{p.ID, p.Start})
		if w := c.wake(); w > t {
			t = w + late()
		}
	}
	return out
}

// servedIDs is the ID sequence of a pacer's departures.
func servedIDs(ds []pacerDeparture) []uint64 {
	ids := make([]uint64, len(ds))
	for i, d := range ds {
		ids[i] = d.id
	}
	return ids
}

func onTime() float64 { return 0 }

// oracleDirect replays trace (sorted by pub) into a bare forwarder's
// scheduler fed directly, in trace order: the single-socket reference. It
// is served on the same exact wakes as oracleMerged but bypasses the rings
// and the pacer's merge, so it never runs the code under test.
func oracleDirect(t *testing.T, kind core.Kind, sdp []float64, trace []oracleArrival) []uint64 {
	t.Helper()
	f := newBareForwarder(t, kind, 1, sdp)
	return servedIDs(drivePacer(f.pace, trace, func(a oracleArrival, _ float64) {
		f.pace.sched.Enqueue(a.packet(), a.at)
	}, onTime))
}

// oracleMerged replays trace (sorted by pub) through the live path on exact
// wakes: each packet is pushed on its shard's real xmit ring, and the pacer
// merges the rings into the forwarder's one scheduler and serves. It
// returns the served IDs in order and the instant each packet surfaced.
func oracleMerged(t *testing.T, kind core.Kind, sdp []float64, shards int, trace []oracleArrival) (order []uint64, visible map[uint64]float64) {
	t.Helper()
	f := newBareForwarder(t, kind, shards, sdp)
	visible = make(map[uint64]float64, len(trace))
	publish := func(a oracleArrival, at float64) {
		if !f.shards[a.shard].xmit.Push(a.packet()) {
			t.Fatalf("shard %d ring full offering packet %d", a.shard, a.id)
		}
		visible[a.id] = at
	}
	return servedIDs(drivePacer(f.pace, trace, publish, onTime)), visible
}

// The ordering oracle (stamp-merge correctness, DESIGN.md §3h): replay a
// recorded arrival trace through real shard rings → the production pacer's
// merge → the one scheduler, for every discipline at 1, 2 and 8 shards,
// against the same discipline fed through one ring in trace order. Both
// are served at the same instants: work conservation makes them a
// function of the trace alone.
//
//   - distinct: with distinct arrival stamps the merge reconstructs the
//     trace order, so the served ID sequence must be EXACTLY the
//     reference's.
//   - batched: with batch-quantized stamps the merge orders an equal-stamp
//     group by shard index, so the served IDs must equal the reference fed
//     the trace stably sorted by (stamp, shard). For WTP the served
//     (stamp, class) sequence must also equal the UNSORTED reference's at
//     every position: WTP's selection reads only each class's head stamp,
//     so reordering a group moves IDs inside one (stamp, class) cell and
//     nothing else. FCFS and DRR cannot promise that — FCFS serves in
//     enqueue order and DRR's active list records which class became
//     backlogged first, so both see the cross-class order inside an
//     equal-stamp group.
//   - lagged: the last shard publishes every packet one service period
//     after stamping it (a shard still processing its receive batch), so
//     its packets surface one drain late and queue behind later-stamped
//     packets of their class. Every such same-class inversion — a served
//     before an older b — must be explained by visibility: b surfaced in a
//     later drain than a, and a was stamped before b was published, hence
//     stamp(a) < published(b) <= visible(b) — a packet is only ever
//     overtaken by arrivals inside its own stamp-to-publish lag, whatever
//     the drain period. The inversion count and the largest overtaking
//     margin stamp(a) − stamp(b) are logged.
func TestForwarderMergeOrderingOracle(t *testing.T) {
	sdp := []float64{1, 2, 4, 8}
	forKinds := func(t *testing.T, check func(t *testing.T, kind core.Kind)) {
		for _, kind := range core.Kinds() {
			t.Run(string(kind), func(t *testing.T) { check(t, kind) })
		}
	}
	requireSameIDs := func(t *testing.T, merged, ref []uint64) {
		t.Helper()
		for i := range ref {
			if merged[i] != ref[i] {
				t.Fatalf("service %d: merged served packet %d, reference served %d", i, merged[i], ref[i])
			}
		}
	}
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d/distinct", shards), func(t *testing.T) {
			trace := oracleTrace(shards, false)
			forKinds(t, func(t *testing.T, kind core.Kind) {
				merged, _ := oracleMerged(t, kind, sdp, shards, trace)
				requireSameIDs(t, merged, oracleDirect(t, kind, sdp, trace))
			})
		})

		t.Run(fmt.Sprintf("shards=%d/batched", shards), func(t *testing.T) {
			trace := oracleTrace(shards, true)
			sorted := append([]oracleArrival(nil), trace...)
			sort.SliceStable(sorted, func(i, j int) bool {
				if sorted[i].at != sorted[j].at {
					return sorted[i].at < sorted[j].at
				}
				return sorted[i].shard < sorted[j].shard
			})
			forKinds(t, func(t *testing.T, kind core.Kind) {
				merged, _ := oracleMerged(t, kind, sdp, shards, trace)
				requireSameIDs(t, merged, oracleDirect(t, kind, sdp, sorted))
				if kind != core.KindWTP {
					return
				}
				unsorted := oracleDirect(t, kind, sdp, trace)
				for i := range unsorted {
					m, r := trace[merged[i]-1], trace[unsorted[i]-1]
					if m.at != r.at || m.class != r.class {
						t.Fatalf("service %d: merged served (arr=%g class=%d), unsorted reference served (arr=%g class=%d)",
							i, m.at, m.class, r.at, r.class)
					}
				}
			})
		})

		t.Run(fmt.Sprintf("shards=%d/lagged", shards), func(t *testing.T) {
			trace := oracleTrace(shards, false)
			for i := range trace {
				if trace[i].shard == shards-1 {
					trace[i].pub += oracleSvcGap
				}
			}
			byPub := append([]oracleArrival(nil), trace...)
			sort.SliceStable(byPub, func(i, j int) bool { return byPub[i].pub < byPub[j].pub })
			forKinds(t, func(t *testing.T, kind core.Kind) {
				merged, visible := oracleMerged(t, kind, sdp, shards, byPub)
				perClass := make([][]oracleArrival, len(sdp))
				for _, id := range merged {
					a := trace[id-1]
					perClass[a.class] = append(perClass[a.class], a)
				}
				inversions, margin := 0, 0.0
				for _, served := range perClass {
					for i, a := range served {
						for _, b := range served[i+1:] {
							if b.at >= a.at {
								continue
							}
							inversions++
							margin = math.Max(margin, a.at-b.at)
							if !(visible[a.id] < visible[b.id] && a.at < b.pub) {
								t.Fatalf("packet %d (stamp %g, visible %g) overtook older packet %d (stamp %g, published %g, visible %g) outside its lag",
									a.id, a.at, visible[a.id], b.id, b.at, b.pub, visible[b.id])
							}
						}
					}
				}
				if shards > 1 && inversions == 0 {
					t.Fatal("lagged shard produced no inversions: the case exercises nothing")
				}
				t.Logf("shards=%d %s: %d same-class inversions over %d packets, largest overtaking margin %.3g s (publication lag %.3g s)",
					shards, kind, inversions, len(merged), margin, oracleSvcGap)
			})
		})
	}
}

// The zero-allocation gate for the trusted-header ingress path: once the
// packet and payload-buffer free rings are warm, processing a batch —
// decode, admission accounting, telemetry arrival, packet build, ring
// publication — must not allocate.
func TestIngressProcessBatchAllocs(t *testing.T) {
	f, sh, slots := newBareIngress(t, 8)
	drain := func() {
		for {
			p := sh.xmit.Pop()
			if p == nil {
				return
			}
			f.statMu.Lock()
			f.queued--
			f.classQueued[p.Class]--
			f.statMu.Unlock()
			f.recycle(p)
		}
	}
	nowT := time.Now()
	// Warm the free rings and telemetry.
	for i := 0; i < 4; i++ {
		sh.processBatch(slots, nowT)
		drain()
	}
	allocs := testing.AllocsPerRun(200, func() {
		sh.processBatch(slots, nowT)
		drain()
	})
	if allocs != 0 {
		t.Fatalf("trusted-header ingress path allocates %.1f times per batch, want 0", allocs)
	}
}

// newBareIngress builds a socketless shard plus a batch of decodable
// trusted-header slots for alloc and throughput measurement.
func newBareIngress(t testing.TB, batch int) (*Forwarder, *ingressShard, []recvSlot) {
	t.Helper()
	f := newBareForwarder(t, core.KindWTP, 1, []float64{1, 2, 4, 8})
	slots := make([]recvSlot, batch)
	for i := range slots {
		dg := Header{Class: uint8(i % 4), Seq: uint64(i), SentAt: time.Now()}.Encode(nil)
		slots[i].buf = append(dg, make([]byte, 100)...)
	}
	return f, f.shards[0], slots
}

func BenchmarkIngressProcessBatch(b *testing.B) {
	f, sh, slots := newBareIngress(b, defaultIOBatch)
	drain := func() {
		for {
			p := sh.xmit.Pop()
			if p == nil {
				return
			}
			f.statMu.Lock()
			f.queued--
			f.classQueued[p.Class]--
			f.statMu.Unlock()
			f.recycle(p)
		}
	}
	nowT := time.Now()
	sh.processBatch(slots, nowT)
	drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.processBatch(slots, nowT)
		drain()
	}
	b.ReportMetric(float64(b.N*len(slots))/b.Elapsed().Seconds(), "packets/sec")
}

// Multi-shard sockets join one REUSEPORT group: same port, N sockets.
func TestListenShardsGroup(t *testing.T) {
	conns, err := listenShards("127.0.0.1:0", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	if len(conns) != 4 {
		t.Fatalf("got %d sockets, want 4", len(conns))
	}
	port := conns[0].LocalAddr().(*net.UDPAddr).Port
	for i, c := range conns {
		if p := c.LocalAddr().(*net.UDPAddr).Port; p != port {
			t.Fatalf("socket %d bound port %d, want %d", i, p, port)
		}
	}
}

// Shards that cannot join a REUSEPORT group are refused, not folded onto
// one shared socket: a port held by a plain bind admits no group.
func TestListenShardsRefusesWithoutReusePort(t *testing.T) {
	held, err := listenShards("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer held[0].Close()
	conns, err := listenShards(held[0].LocalAddr().String(), 2)
	if err == nil {
		for _, c := range conns {
			c.Close()
		}
		t.Fatalf("bound %d sockets on a port without SO_REUSEPORT", len(conns))
	}
}
