package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"pathfinder/internal/core"
	"pathfinder/internal/prefetch"
	"pathfinder/internal/serve"
	"pathfinder/internal/sim"
	"pathfinder/internal/trace"
	"pathfinder/internal/workload"
)

const (
	// tick is the generator's schedule quantum. Go sleeps overshoot by
	// about a millisecond, so events are paced per tick, each tick's
	// events go out in one flush, and replies are timed from that flush.
	tick = time.Millisecond
	// maxLateP99 is how late the generator may run at its 99th percentile
	// before the run counts as failed: beyond it the schedule did not hold.
	// Host stalls alone have pushed it to about 18 ms.
	maxLateP99 = 50 * time.Millisecond
	// replyGrace is how long the reader waits for outstanding replies
	// after the last send.
	replyGrace = 5 * time.Second
)

// epoch is the time origin of every serving timestamp.
var epoch = time.Now()

func sinceEpoch() int64 { return int64(time.Since(epoch)) }

// serveEvent is one scheduled event.
type serveEvent struct {
	session uint64
	acc     trace.Access
}

// serveSchedule is the open-loop input: events in send order (IDs
// strictly increasing across the whole schedule) grouped into ticks.
type serveSchedule struct {
	events []serveEvent
	// tickEnd[k] is one past the last event of tick k, due k*tick after
	// the start.
	tickEnd []int
	// lightEnd is the index of the first event sent at the loaded rate.
	lightEnd int
	sessions int
}

// newSchedule builds the schedule: each session streams its own Table 5
// trace; each event picks a session at random; the light rate runs for
// lightShare of d, then the loaded rate for the rest.
func newSchedule(sz sizes, d time.Duration, seed int64) (*serveSchedule, error) {
	names := workload.Names()
	srcs := make([]trace.Source, sz.sessions)
	for s := range srcs {
		src, err := workload.NewSource(names[s%len(names)], -1, seed+int64(s))
		if err != nil {
			return nil, err
		}
		srcs[s] = src
	}
	lightTicks := int(float64(d/tick) * sz.lightShare)
	totalTicks := int(d / tick)
	sc := &serveSchedule{sessions: sz.sessions, tickEnd: make([]int, totalTicks)}
	rng := rand.New(rand.NewSource(seed))
	last := make([]uint64, sz.sessions)
	var id uint64
	for k := 0; k < totalTicks; k++ {
		rate, k0, base := sz.lightRate, 0, 0
		if k >= lightTicks {
			if k == lightTicks {
				sc.lightEnd = len(sc.events)
			}
			rate, k0, base = sz.loadedRate, lightTicks, sc.lightEnd
		}
		// Events due by the end of tick k at this phase's rate.
		target := base + int(int64(rate)*int64(k-k0+1)*int64(tick)/int64(time.Second))
		for len(sc.events) < target {
			s := rng.Intn(sz.sessions)
			var a trace.Access
			if err := srcs[s].Next(&a); err != nil {
				return nil, err
			}
			id += a.ID - last[s]
			last[s] = a.ID
			a.ID = id
			sc.events = append(sc.events, serveEvent{session: uint64(s + 1), acc: a})
		}
		sc.tickEnd[k] = len(sc.events)
	}
	if lightTicks >= totalTicks {
		sc.lightEnd = len(sc.events)
	}
	return sc, nil
}

// serveClient is one connection to the server, past the handshake.
type serveClient struct {
	conn net.Conn
	fr   *serve.FrameReader
}

// dialServe connects, sends the protocol magic and a ping, and waits for
// the pong.
func dialServe(addr string) (*serveClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	hello := appendFrame([]byte(serve.Magic), serve.AppendPingFrame(nil))
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		return nil, err
	}
	fr := serve.NewFrameReader(bufio.NewReaderSize(conn, 64<<10))
	if err := conn.SetReadDeadline(time.Now().Add(replyGrace)); err != nil {
		conn.Close()
		return nil, err
	}
	payload, err := fr.Next()
	var f serve.Frame
	if err == nil {
		err = serve.ParseFrame(payload, &f)
	}
	if err == nil && f.Kind != serve.FramePong {
		err = fmt.Errorf("handshake: got frame kind %d, want pong", f.Kind)
	}
	if err == nil {
		err = conn.SetReadDeadline(time.Time{})
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &serveClient{conn: conn, fr: fr}, nil
}

func appendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// serveBench is a schedule plus a live server and connection.
type serveBench struct {
	sc  *serveSchedule
	srv *serve.Server
	cl  *serveClient
}

func serveSetup(sz sizes, d time.Duration, seed int64, cfg serve.Config) (*serveBench, error) {
	sc, err := newSchedule(sz, d, seed)
	if err != nil {
		return nil, err
	}
	return startServe(sc, cfg)
}

func startServe(sc *serveSchedule, cfg serve.Config) (*serveBench, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	cl, err := dialServe(srv.Addr())
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &serveBench{sc: sc, srv: srv, cl: cl}, nil
}

// close hangs up and shuts the server down, waiting for its goroutines.
func (b *serveBench) close() error {
	b.cl.conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return b.srv.Shutdown(ctx)
}

// servePass is what the client saw in one pass over the schedule; times
// are nanoseconds since epoch.
type servePass struct {
	due, flush, recv []int64
	replies, rejects []uint8
	naddrs           []uint8
	addrs            [][2]uint64
	stray            int
	start, end       int64
	writeErr         error
	readErr          error
}

// run plays the schedule open-loop: the calling goroutine sends each
// tick's events in one flush without waiting for replies, and a reader
// goroutine timestamps every reply as it arrives.
func (b *serveBench) run() *servePass {
	ev := b.sc.events
	n := len(ev)
	p := &servePass{
		due: make([]int64, n), flush: make([]int64, n), recv: make([]int64, n),
		replies: make([]uint8, n), rejects: make([]uint8, n),
		naddrs: make([]uint8, n), addrs: make([][2]uint64, n),
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		p.readErr = b.read(p)
	}()

	tk := time.NewTicker(tick)
	defer tk.Stop()
	buf := make([]byte, 0, 64<<10)
	p.start = sinceEpoch()
	k, sent := 0, 0
	for k < len(b.sc.tickEnd) {
		now := sinceEpoch()
		first := sent
		for k < len(b.sc.tickEnd) && p.start+int64(k)*int64(tick) <= now {
			for due := p.start + int64(k)*int64(tick); sent < b.sc.tickEnd[k]; sent++ {
				p.due[sent] = due
				mark := len(buf)
				buf = append(buf, 0, 0, 0, 0)
				buf = serve.AppendEventFrame(buf, ev[sent].session, ev[sent].acc)
				binary.BigEndian.PutUint32(buf[mark:], uint32(len(buf)-mark-4))
			}
			k++
		}
		if sent > first {
			tf := sinceEpoch()
			for i := first; i < sent; i++ {
				p.flush[i] = tf
			}
			if _, err := b.cl.conn.Write(buf); err != nil {
				p.writeErr = err
				break
			}
			buf = buf[:0]
		}
		if k < len(b.sc.tickEnd) {
			<-tk.C
		}
	}
	if err := b.cl.conn.SetReadDeadline(time.Now().Add(replyGrace)); err != nil && p.writeErr == nil {
		p.writeErr = err
	}
	<-readerDone
	p.end = p.start
	for i := range p.recv {
		if p.recv[i] > p.end {
			p.end = p.recv[i]
		}
	}
	return p
}

// read consumes replies until every event has a predict or reject.
func (b *serveBench) read(p *servePass) error {
	ev := b.sc.events
	var f serve.Frame
	for done := 0; done < len(ev); {
		payload, err := b.cl.fr.Next()
		if err != nil {
			return err
		}
		now := sinceEpoch()
		if err := serve.ParseFrame(payload, &f); err != nil {
			return err
		}
		i := b.sc.index(f.ID)
		if i < 0 || ev[i].session != f.Session || (f.Kind != serve.FramePredict && f.Kind != serve.FrameReject) {
			p.stray++
			continue
		}
		if p.replies[i] == 0 && p.rejects[i] == 0 {
			done++
		}
		if f.Kind == serve.FrameReject {
			p.rejects[i]++
			continue
		}
		p.replies[i]++
		p.recv[i] = now
		p.naddrs[i] = uint8(len(f.Addrs))
		copy(p.addrs[i][:], f.Addrs)
	}
	return nil
}

// index finds the event with the given id, or -1.
func (sc *serveSchedule) index(id uint64) int {
	lo, hi := 0, len(sc.events)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if sc.events[m].acc.ID < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(sc.events) && sc.events[lo].acc.ID == id {
		return lo
	}
	return -1
}

// inProcess replays every session's events through its own
// DefaultSessionPrefetcher, exactly as the server's session worker drives
// it: budget 2, block-aligned.
func (sc *serveSchedule) inProcess() ([]uint8, [][2]uint64, error) {
	n := len(sc.events)
	naddrs, addrs := make([]uint8, n), make([][2]uint64, n)
	bySession := make([][]int, sc.sessions+1)
	for i, e := range sc.events {
		bySession[e.session] = append(bySession[e.session], i)
	}
	for sid, idxs := range bySession {
		if len(idxs) == 0 {
			continue
		}
		p, err := serve.DefaultSessionPrefetcher(uint64(sid))
		if err != nil {
			return nil, nil, err
		}
		for _, i := range idxs {
			a := p.Advise(sc.events[i].acc, prefetch.Budget)
			if len(a) > prefetch.Budget {
				a = a[:prefetch.Budget]
			}
			for j, x := range a {
				addrs[i][j] = x &^ (trace.BlockBytes - 1)
			}
			naddrs[i] = uint8(len(a))
		}
	}
	return naddrs, addrs, nil
}

// check counts the pass's failed events: shed, unanswered, answered more
// than once, or predicting other addresses than the in-process replay.
func (p *servePass) check(o *outcome, what string, wantN []uint8, want [][2]uint64) (shed int) {
	var unanswered, dup, wrong int
	for i := range p.replies {
		switch {
		case p.rejects[i] > 0:
			shed++
		case p.replies[i] == 0:
			unanswered++
		case p.replies[i] > 1:
			dup++
		case p.naddrs[i] != wantN[i] || p.addrs[i] != want[i]:
			wrong++
		default:
			continue
		}
		o.failed++
	}
	o.attempted += int64(len(p.replies))
	if shed+unanswered+dup+wrong+p.stray > 0 {
		o.fail("%s: %d shed, %d unanswered, %d answered twice, %d mispredicted, %d stray frames", what, shed, unanswered, dup, wrong, p.stray)
	}
	if p.writeErr != nil || p.readErr != nil {
		o.fail("%s: connection: write %v, read %v", what, p.writeErr, p.readErr)
	}
	if late := p.lateUs(0.99); late > float64(maxLateP99/time.Microsecond) {
		o.failed = o.attempted
		o.fail("%s: generator p99 lateness %.0f us exceeds %s; the schedule did not hold", what, late, maxLateP99)
	}
	return shed
}

// lateUs returns the q-quantile of how late the generator flushed each
// event after its due tick, in microseconds.
func (p *servePass) lateUs(q float64) float64 {
	late := make([]float64, len(p.due))
	for i := range p.due {
		late[i] = float64(p.flush[i]-p.due[i]) / 1e3
	}
	return quantile(late, q)
}

// replyUs returns reply latencies in microseconds, from the flush that
// carried each event to its predict frame, split at the phase boundary.
func (p *servePass) replyUs(lightEnd int) (light, loaded []float64) {
	for i := range p.recv {
		if p.replies[i] == 0 {
			continue
		}
		us := float64(p.recv[i]-p.flush[i]) / 1e3
		if i < lightEnd {
			light = append(light, us)
		} else {
			loaded = append(loaded, us)
		}
	}
	return light, loaded
}

// servedSim simulates the served predictions over the merged event
// stream on the scaled machine, with its no-prefetch baseline.
func servedSim(sc *serveSchedule, p *servePass) (base, res sim.Result, err error) {
	accs := make([]trace.Access, len(sc.events))
	var pfs []trace.Prefetch
	for i, e := range sc.events {
		accs[i] = e.acc
		for _, a := range p.addrs[i][:p.naddrs[i]] {
			pfs = append(pfs, trace.Prefetch{ID: e.acc.ID, Addr: a})
		}
	}
	cfg := sim.ScaledConfig()
	cfg.Warmup = len(accs) / 10
	if base, err = sim.Run(cfg, accs, nil); err != nil {
		return base, res, err
	}
	res, err = sim.Run(cfg, accs, pfs)
	return base, res, err
}

func runServeOpen(ctx context.Context, o options) *outcome {
	out := newOutcome()
	d := o.budget
	if o.traced {
		d /= 2 // an untraced and a traced pass share the budget
	}
	b, setupS, err := timeSetup(o.size.setupRepeat, func() (*serveBench, error) {
		return serveSetup(o.size, d, o.wseed, serve.Config{})
	}, func(b *serveBench) {
		_ = b.close() // a discarded set-up; the measured server's shutdown is checked
	})
	if err != nil {
		out.fail("setup: %v", err)
		return out
	}
	sc := b.sc
	out.printf("serve: %d sessions, %d events on one connection: %d/s for %d events, then %d/s; tick %s",
		sc.sessions, len(sc.events), o.size.lightRate, sc.lightEnd, o.size.loadedRate, tick)

	gc0 := readGoCounters()
	hs := startHeapSampler(time.Second)
	p := b.run()
	hs.close()
	if err := b.close(); err != nil {
		out.fail("shutdown: %v", err)
	}
	if o.traced {
		setGoDelta(out, gc0)
	}

	// Checks, after timing.
	wantN, want, err := sc.inProcess()
	if err != nil {
		out.fail("in-process replay: %v", err)
		return out
	}
	p.check(out, "pass", wantN, want)
	light, loaded := p.replyUs(sc.lightEnd)
	if o.traced {
		tracedServe(o, sc, p, wantN, want, out)
		return out
	}
	if base, res, err := servedSim(sc, p); err != nil {
		out.fail("simulating the served predictions: %v", err)
	} else if res.PrefIssued == 0 || base.LLCLoadMisses == 0 {
		out.fail("the served predictions issued no prefetch")
	} else {
		out.set("ipc_speedup", res.IPC/base.IPC)
		out.set("accuracy", res.Accuracy())
		out.set("coverage", res.Coverage(base.LLCLoadMisses))
	}
	out.set("setup_s", setupS)
	out.set("wall_s", float64(p.end-p.start)/1e9)
	out.set("p50_ms", quantile(light, 0.5)/1e3)
	// The loaded-rate median, not an upper percentile: on a shared host
	// the upper percentiles follow host stalls, 3-10x between runs.
	out.set("tail_ms", windowed(loaded, o.size.loadedRate, 0.5)/1e3)
	out.set("peak_heap_mb", median(hs.windows))
	out.printf("idle_reply_p50_us %.1f us over %d light-rate replies (p50_ms)", quantile(light, 0.5), len(light))
	out.printf("reply_p50_us %.1f us, reply_p90_us %.1f us, reply_p99_us %.1f us over %d loaded-rate replies; median of per-second p50s %.1f us (tail_ms)",
		quantile(loaded, 0.5), quantile(loaded, 0.9), quantile(loaded, 0.99), len(loaded), windowed(loaded, o.size.loadedRate, 0.5))
	out.printf("generator lateness p50 %.1f us, p99 %.1f us (limit %s); peak heap %.1f MB, median of per-second peaks %.1f MB (peak_heap_mb)",
		p.lateUs(0.5), p.lateUs(0.99), maxLateP99, hs.take(), median(hs.windows))
	return out
}

// tracedServe runs the traced pass: a fresh server whose sessions time
// every Advise, with telemetry on, over the same schedule.
func tracedServe(o options, sc *serveSchedule, plain *servePass, wantN []uint8, want [][2]uint64, out *outcome) {
	var mu sync.Mutex
	timers := map[uint64]*adviseTimer{}
	cfg := serve.Config{NewPrefetcher: func(sid uint64) (prefetch.Prefetcher, error) {
		p, err := serve.DefaultSessionPrefetcher(sid)
		if err != nil {
			return nil, err
		}
		pf, ok := p.(*core.Pathfinder)
		if !ok {
			return nil, errors.New("default session prefetcher is not PATHFINDER")
		}
		t := &adviseTimer{pf: pf, base: epoch}
		mu.Lock()
		timers[sid] = t
		mu.Unlock()
		return t, nil
	}}
	reg := telemetryOn()
	b, err := startServe(sc, cfg)
	if err != nil {
		telemetryOff()
		out.fail("traced server: %v", err)
		zeroMissing(out)
		return
	}
	p := b.run()
	if err := b.close(); err != nil {
		out.fail("traced shutdown: %v", err)
	}
	snap := reg.Snapshot()
	telemetryOff()
	shed := p.check(out, "traced pass", wantN, want)

	tr := &tracer{t0: epoch}
	adv := make([]adviseRec, len(sc.events))
	var as adviseStats
	var adviseUs []float64
	mu.Lock()
	for _, t := range timers {
		as.add(t)
		for _, r := range t.events {
			if i := sc.index(r.id); i >= 0 {
				adv[i] = r
			}
			adviseUs = append(adviseUs, float64(r.end-r.start)/1e3)
		}
	}
	mu.Unlock()
	var overheadUs []float64
	var overhead int64
	for i := range sc.events {
		if p.replies[i] == 0 {
			continue
		}
		reply := tr.add(span{name: "serve.reply", start: p.flush[i], end: p.recv[i], parent: -1, id: int64(sc.events[i].acc.ID)})
		a := adv[i]
		if a.end > 0 {
			tr.add(span{name: "core.advise", start: a.start, end: a.end, parent: reply, id: int64(sc.events[i].acc.ID)})
		}
		ov := p.recv[i] - p.flush[i] - (a.end - a.start)
		overhead += ov
		overheadUs = append(overheadUs, float64(ov)/1e3)
	}
	_, loaded := p.replyUs(sc.lightEnd)
	_, plainLoaded := plain.replyUs(sc.lightEnd)

	out.set("serve.reply_p50_us", quantile(loaded, 0.5))
	out.set("serve.advise_us_p50", quantile(adviseUs, 0.5))
	out.set("serve.advise_us_p99", quantile(adviseUs, 0.99))
	out.set("serve.overhead_us_p50", quantile(overheadUs, 0.5))
	out.set("serve.overhead_us_p99", quantile(overheadUs, 0.99))
	out.set("serve.self_ms", float64(overhead)/1e6)
	out.set("serve.frames", float64(snap.Counters["serve.frames"]))
	out.set("serve.events_accepted", float64(snap.Counters["serve.events_accepted"]))
	out.set("serve.shed", float64(snap.Counters["serve.shed"]))
	out.set("serve.queue_depth_peak", float64(snap.Gauges["serve.queue_depth_peak"]))
	out.set("serve.out_depth_peak", float64(snap.Gauges["serve.out_depth_peak"]))
	out.set("serve.gen_late_p99_us", p.lateUs(0.99))
	if int(snap.Counters["serve.events_accepted"]) != len(sc.events)-shed {
		out.fail("serve.events_accepted = %d, want %d", snap.Counters["serve.events_accepted"], len(sc.events)-shed)
	}
	as.report(out, reportSNN(out, snap))
	out.set("core.self_ms", float64(as.totalNs)/1e6)
	if _, res, err := servedSim(sc, p); err != nil {
		out.fail("simulating the served predictions: %v", err)
	} else {
		reportSimCounts(out, res)
	}
	wallDiff := (p.end - p.start) - (plain.end - plain.start)
	out.set("tracing.overhead_ms", float64(wallDiff)/1e6)
	zeroMissing(out)

	out.printf("untraced pass loaded reply p50 %.1f us, traced %.1f us (tracing adds %+.1f us); pass walls differ by %+.1f ms",
		quantile(plainLoaded, 0.5), quantile(loaded, 0.5), quantile(loaded, 0.5)-quantile(plainLoaded, 0.5), float64(wallDiff)/1e6)
	printSelf(out, tr.selfTimes(), nil)
	if path, err := tr.write(o.spansDir, fmt.Sprintf("serve-open-seed%d.csv", o.seed)); err != nil {
		out.fail("writing spans: %v", err)
	} else if path != "" {
		out.printf("spans: %d written to %s", len(tr.spans), path)
	}
}
