package serve

// Backpressure, admission-control and drain tests: every bounded queue is
// proven bounded, every reject code is provoked on purpose, and graceful
// drain is shown to flush each accepted event exactly once — including
// under internal/fault hang and latency injection.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pathfinder/internal/fault"
	"pathfinder/internal/prefetch"
	"pathfinder/internal/telemetry"
	"pathfinder/internal/trace"
	"pathfinder/internal/workload"
)

// hangInjector stalls every session worker for d on every event, pinning
// events "in flight" so admission limits become deterministic to provoke.
func hangInjector(d time.Duration) *fault.Seeded {
	return fault.NewSeeded(fault.Chaos{Seed: 1, Hang: 1, HangFor: d})
}

// latencyInjector adds a benign per-event delay.
func latencyInjector(d time.Duration) *fault.Seeded {
	return fault.NewSeeded(fault.Chaos{Seed: 1, Latency: 1, LatencyFor: d})
}

// newTestServer builds a server and registers cleanup.
func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

// withRegistry binds a fresh telemetry registry for the test's duration.
func withRegistry(t testing.TB) *telemetry.Registry {
	t.Helper()
	r := telemetry.NewRegistry()
	EnableTelemetry(r)
	t.Cleanup(func() { EnableTelemetry(nil) })
	return r
}

func acc(id uint64) trace.Access {
	return trace.Access{ID: id, PC: 0x1000 + id*4, Addr: 0x4000 + id*trace.BlockBytes}
}

func TestQueueFullShedsWithRetryHint(t *testing.T) {
	reg := withRegistry(t)
	srv := newTestServer(t, Config{
		NewPrefetcher: nextLineFactory,
		QueueDepth:    4,
		Fault:         hangInjector(30 * time.Second),
	})
	c := dialBinary(t, srv.Addr())
	defer c.close()

	// The worker hangs on the first event, so 4 more fill the queue
	// (pending counts the one being processed) and the 5th overflows.
	for id := uint64(1); id <= 6; id++ {
		if err := c.writeEvent(1, acc(id)); err != nil {
			t.Fatalf("write event %d: %v", id, err)
		}
	}
	for want := uint64(5); want <= 6; want++ {
		f := c.mustRead()
		if f.Kind != FrameReject || f.Code != RejectQueueFull {
			t.Fatalf("event %d: want queue-full reject, got kind %#x code %s", want, f.Kind, RejectCodeName(f.Code))
		}
		if f.ID != want {
			t.Fatalf("reject id %d, want %d", f.ID, want)
		}
		if f.RetryMillis == 0 {
			t.Fatalf("queue-full reject carries no retry hint")
		}
	}
	if got := reg.Snapshot().Counters["serve.shed_queue_full"]; got != 2 {
		t.Fatalf("shed_queue_full = %d, want 2", got)
	}

	// Force the drain: the 30s hangs must be interrupted by the shutdown
	// context, not waited out.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := srv.Shutdown(ctx)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain error = %v, want DeadlineExceeded", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("forced drain took %s; hung workers were not interrupted", took)
	}
}

func TestOverloadedWhenGlobalInFlightCapHit(t *testing.T) {
	reg := withRegistry(t)
	srv := newTestServer(t, Config{
		NewPrefetcher: nextLineFactory,
		QueueDepth:    8,
		MaxInFlight:   2,
		Fault:         hangInjector(30 * time.Second),
	})
	c := dialBinary(t, srv.Addr())
	defer c.close()

	// Two sessions pin one in-flight event each; the third event in either
	// session trips the global cap before its queue is anywhere near full.
	if err := c.writeEvent(1, acc(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.writeEvent(2, acc(1)); err != nil {
		t.Fatal(err)
	}
	// The cap check reads the atomic after both enqueues; give the workers
	// a beat to pick the events up (not required for correctness — the
	// inflight counter is incremented at acceptance — just determinism of
	// the queue-full-vs-overload distinction below).
	waitFor(t, time.Second, func() bool {
		return srv.inflight.Load() == 2
	})
	if err := c.writeEvent(1, acc(2)); err != nil {
		t.Fatal(err)
	}
	f := c.mustRead()
	if f.Kind != FrameReject || f.Code != RejectOverloaded || f.ID != 2 {
		t.Fatalf("want overloaded reject for id 2, got kind %#x code %s id %d", f.Kind, RejectCodeName(f.Code), f.ID)
	}
	if f.RetryMillis == 0 {
		t.Fatalf("overloaded reject carries no retry hint")
	}
	// The session is now wedged on id 2: a pipelined id 3 must not slip in.
	if err := c.writeEvent(1, acc(3)); err != nil {
		t.Fatal(err)
	}
	f = c.mustRead()
	if f.Kind != FrameReject || f.Code != RejectQueueFull || f.ID != 3 {
		t.Fatalf("wedged session accepted a later id: kind %#x code %s id %d", f.Kind, RejectCodeName(f.Code), f.ID)
	}
	if got := reg.Snapshot().Counters["serve.shed_overloaded"]; got != 1 {
		t.Fatalf("shed_overloaded = %d, want 1", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	srv.Shutdown(ctx)
}

func TestMaxSessionsRejectsWhenAllBusy(t *testing.T) {
	reg := withRegistry(t)
	srv := newTestServer(t, Config{
		NewPrefetcher: nextLineFactory,
		MaxSessions:   2,
		QueueDepth:    4,
		Fault:         hangInjector(30 * time.Second),
	})
	c := dialBinary(t, srv.Addr())
	defer c.close()

	// Two sessions, each with a hung in-flight event: nothing is idle, so
	// a third session cannot be admitted.
	if err := c.writeEvent(1, acc(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.writeEvent(2, acc(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return srv.inflight.Load() == 2 })
	if err := c.writeEvent(3, acc(1)); err != nil {
		t.Fatal(err)
	}
	f := c.mustRead()
	if f.Kind != FrameReject || f.Code != RejectMaxSessions || f.Session != 3 {
		t.Fatalf("want max-sessions reject for session 3, got kind %#x code %s session %d", f.Kind, RejectCodeName(f.Code), f.Session)
	}
	if got := reg.Snapshot().Counters["serve.shed_max_sessions"]; got != 1 {
		t.Fatalf("shed_max_sessions = %d, want 1", got)
	}
	if n := srv.SessionCount(); n != 2 {
		t.Fatalf("SessionCount = %d, want 2", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	srv.Shutdown(ctx)
}

// TestMaxSessionsIsExactWithDefaultConfig admits the default MaxSessions
// busy sessions, ids 1 to 1024, and refuses the next: the cap is the
// table's, whatever the ids.
func TestMaxSessionsIsExactWithDefaultConfig(t *testing.T) {
	reg := withRegistry(t)
	srv := newTestServer(t, Config{
		NewPrefetcher: nextLineFactory,
		Fault:         hangInjector(30 * time.Second),
	})
	limit := uint64(srv.cfg.MaxSessions)
	c := dialBinary(t, srv.Addr())
	defer c.close()

	// Every session's first event hangs in its worker, so none is idle.
	for sid := uint64(1); sid <= limit; sid++ {
		if err := c.writeEvent(sid, acc(1)); err != nil {
			t.Fatal(err)
		}
	}
	counters := func() (accepted, refused uint64) {
		snap := reg.Snapshot()
		return snap.Counters["serve.events_accepted"], snap.Counters["serve.shed_max_sessions"]
	}
	waitFor(t, 10*time.Second, func() bool {
		a, r := counters()
		return a+r == limit
	})
	if a, r := counters(); r != 0 {
		t.Fatalf("%d busy sessions admitted and %d refused; want all %d admitted", a, r, limit)
	}
	if err := c.writeEvent(limit+1, acc(1)); err != nil {
		t.Fatal(err)
	}
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if f := c.mustRead(); f.Kind != FrameReject || f.Code != RejectMaxSessions || f.Session != limit+1 {
		t.Fatalf("session %d past the cap: got kind %#x code %s session %d; want a max-sessions reject", limit+1, f.Kind, RejectCodeName(f.Code), f.Session)
	}
	if n := srv.SessionCount(); n != int(limit) {
		t.Fatalf("SessionCount = %d, want %d", n, limit)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	srv.Shutdown(ctx)
}

// TestLRUEvictionAdmitsNewSessionAndResetsWatermark fills a two-session
// table, touches its older session, and admits a third: the session left
// least recently used is evicted, returns fresh, and the touched one keeps
// rejecting its old id as stale.
func TestLRUEvictionAdmitsNewSessionAndResetsWatermark(t *testing.T) {
	reg := withRegistry(t)
	srv := newTestServer(t, Config{
		NewPrefetcher: nextLineFactory,
		MaxSessions:   2,
	})
	c := dialBinary(t, srv.Addr())
	defer c.close()

	send := func(sid, id uint64) Frame {
		t.Helper()
		if err := c.writeEvent(sid, acc(id)); err != nil {
			t.Fatal(err)
		}
		return c.mustRead()
	}
	// admit sends a new session's first event once every resident session
	// is quiescent, so eviction picks by recency alone. The workers
	// decrement pending just after handing over the reply, so wait for
	// that instead of assuming it landed before our next frame.
	admit := func(sid, id uint64) {
		t.Helper()
		waitFor(t, 2*time.Second, func() bool { return srv.inflight.Load() == 0 })
		if f := send(sid, id); f.Kind != FramePredict || f.Session != sid || f.ID != id {
			t.Fatalf("session %d admission: want predict for id %d, got kind %#x code %s", sid, id, f.Kind, RejectCodeName(f.Code))
		}
	}

	// Sessions 1 then 2 complete one event each, then session 1 sends
	// again: both are idle, and 2 is the least recently used.
	admit(1, 5)
	admit(2, 5)
	if f := send(1, 6); f.Kind != FramePredict || f.Session != 1 || f.ID != 6 {
		t.Fatalf("session 1: want predict for id 6, got %+v", f)
	}
	// Session 3 must evict session 2.
	admit(3, 1)
	if got := reg.Snapshot().Counters["serve.sessions_evicted"]; got != 1 {
		t.Fatalf("sessions_evicted = %d, want 1", got)
	}
	if n := srv.SessionCount(); n != 2 {
		t.Fatalf("SessionCount = %d, want 2", n)
	}
	// Session 1 was kept: it still rejects its old id.
	if f := send(1, 5); f.Kind != FrameReject || f.Session != 1 || f.Code != RejectStale {
		t.Fatalf("kept session 1 accepted a stale id: %+v", f)
	}
	// Session 2 returns: it starts fresh — the duplicate-detection
	// watermark is gone with the learned state, so its old id is accepted.
	admit(2, 5)
}

func TestStaleDuplicatesRejected(t *testing.T) {
	srv := newTestServer(t, Config{NewPrefetcher: nextLineFactory})
	c := dialBinary(t, srv.Addr())
	defer c.close()

	if err := c.writeEvent(1, acc(5)); err != nil {
		t.Fatal(err)
	}
	if f := c.mustRead(); f.Kind != FramePredict || f.ID != 5 {
		t.Fatalf("want predict for 5, got %+v", f)
	}
	for _, dup := range []uint64{3, 5} {
		if err := c.writeEvent(1, acc(dup)); err != nil {
			t.Fatal(err)
		}
		f := c.mustRead()
		if f.Kind != FrameReject || f.Code != RejectStale || f.ID != dup {
			t.Fatalf("duplicate id %d: want stale reject, got kind %#x code %s", dup, f.Kind, RejectCodeName(f.Code))
		}
	}
	// The stream continues normally after the duplicates.
	if err := c.writeEvent(1, acc(6)); err != nil {
		t.Fatal(err)
	}
	if f := c.mustRead(); f.Kind != FramePredict || f.ID != 6 {
		t.Fatalf("want predict for 6 after duplicates, got %+v", f)
	}
}

func TestGracefulDrainFlushesEveryAcceptedEventExactlyOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		inj  fault.Injector
	}{
		{"clean", nil},
		{"under latency injection", latencyInjector(500 * time.Microsecond)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := withRegistry(t)
			srv := newTestServer(t, Config{
				NewPrefetcher: nextLineFactory,
				QueueDepth:    64,
				Fault:         tc.inj,
			})
			c := dialBinary(t, srv.Addr())
			defer c.close()

			// Fire a burst and start the drain as soon as the first event
			// is accepted: whatever was accepted before the draining flag
			// landed must come back as exactly one prediction each; the
			// rest must be rejected, not buffered and not lost.
			const total = 300
			sent := make(chan struct{})
			go func() {
				defer close(sent)
				for id := uint64(1); id <= total; id++ {
					if err := c.writeEvent(1, acc(id)); err != nil {
						return
					}
				}
			}()
			waitFor(t, 10*time.Second, func() bool {
				return reg.Snapshot().Counters["serve.events_accepted"] >= 1
			})
			drained := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				drained <- srv.Shutdown(ctx)
			}()

			seen := make(map[uint64]int)
			var rejects, predicts uint64
			for {
				f, err := c.read()
				if err != nil {
					break // server closed the conn after the flush
				}
				switch f.Kind {
				case FramePredict:
					predicts++
					seen[f.ID]++
				case FrameReject:
					if f.Code != RejectQueueFull && f.Code != RejectDraining {
						t.Fatalf("unexpected reject %s", RejectCodeName(f.Code))
					}
					rejects++
				default:
					t.Fatalf("unexpected frame kind %#x", f.Kind)
				}
			}
			<-sent
			if err := <-drained; err != nil {
				t.Fatalf("graceful drain failed: %v", err)
			}
			for id, n := range seen {
				if n != 1 {
					t.Fatalf("event %d predicted %d times", id, n)
				}
			}
			accepted := reg.Snapshot().Counters["serve.events_accepted"]
			if predicts != accepted {
				t.Fatalf("drain lost replies: %d predictions for %d accepted events", predicts, accepted)
			}
			if predicts+rejects < 1 || predicts == 0 {
				t.Fatalf("degenerate run: %d predicts, %d rejects", predicts, rejects)
			}
			if dropped := reg.Snapshot().Counters["serve.replies_dropped"]; dropped != 0 {
				t.Fatalf("graceful drain dropped %d replies", dropped)
			}
		})
	}
}

func TestDrainingRejectsNewEventsAndConnections(t *testing.T) {
	reg := withRegistry(t)
	srv := newTestServer(t, Config{
		NewPrefetcher: nextLineFactory,
		Fault:         latencyInjector(300 * time.Millisecond),
	})
	addr := srv.Addr()
	c := dialBinary(t, addr)
	defer c.close()

	// One slow event keeps the drain open long enough to probe it. Wait
	// for its acceptance so the drain cannot race it into a reject.
	if err := c.writeEvent(1, acc(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool {
		return reg.Snapshot().Counters["serve.events_accepted"] == 1
	})
	drained := make(chan error, 1)
	go func() { drained <- srv.Close() }()
	waitFor(t, time.Second, func() bool { return srv.draining.Load() })

	// New events on the existing connection are rejected...
	if err := c.writeEvent(1, acc(2)); err != nil {
		t.Fatal(err)
	}
	var sawDraining, sawPredict bool
	for {
		f, err := c.read()
		if err != nil {
			break
		}
		switch {
		case f.Kind == FrameReject && f.Code == RejectDraining:
			sawDraining = true
		case f.Kind == FramePredict && f.ID == 1:
			sawPredict = true
		}
	}
	if !sawDraining {
		t.Fatalf("event sent while draining was not rejected with draining")
	}
	if !sawPredict {
		t.Fatalf("the event accepted before the drain lost its prediction")
	}
	// ... and new connections are turned away.
	if nc, err := net.Dial("tcp", addr); err == nil {
		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := nc.Read(make([]byte, 1)); err == nil {
			t.Fatalf("draining server kept a new connection open")
		}
		nc.Close()
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := reg.Snapshot().Counters["serve.shed_draining"]; got == 0 {
		t.Fatalf("shed_draining never incremented")
	}
}

func TestEvalJobMatchesDirectRunnerBitForBit(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluation job is a full simulation cell")
	}
	srv := newTestServer(t, Config{NewPrefetcher: nextLineFactory})
	c := dialBinary(t, srv.Addr())
	defer c.close()

	traceName := workload.Names()[0]
	req := EvalRequest{Req: 77, Trace: traceName, Prefetcher: "nextline", Loads: 4000, Seed: 3}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(c.nc, AppendEvalFrame(nil, body)); err != nil {
		t.Fatal(err)
	}
	c.nc.SetReadDeadline(time.Now().Add(2 * time.Minute))
	f := c.mustRead()
	if f.Kind != FrameEvalResult {
		t.Fatalf("want eval result, got kind %#x", f.Kind)
	}
	var resp EvalResponse
	if err := json.Unmarshal(f.Body, &resp); err != nil {
		t.Fatalf("bad eval response: %v", err)
	}
	if resp.Req != 77 || resp.Error != "" {
		t.Fatalf("eval failed: %+v", resp)
	}

	// The served result must be bit-identical to running the same job on a
	// runner directly: serving adds transport, never simulation noise.
	job, err := JobFor(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := srv.cfg.Runner.Eval(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Metrics != want.Metrics || resp.BaselineIPC != want.BaselineIPC || resp.Cycles != want.Cycles {
		t.Fatalf("served eval diverged from the direct runner:\n  served %+v ipc=%v cycles=%d\n  direct %+v ipc=%v cycles=%d",
			resp.Metrics, resp.BaselineIPC, resp.Cycles, want.Metrics, want.BaselineIPC, want.Cycles)
	}

	// An unknown prefetcher fails the job, not the connection.
	bad, _ := json.Marshal(EvalRequest{Req: 78, Trace: traceName, Prefetcher: "no-such"})
	if err := WriteFrame(c.nc, AppendEvalFrame(nil, bad)); err != nil {
		t.Fatal(err)
	}
	f = c.mustRead()
	var errResp EvalResponse
	if err := json.Unmarshal(f.Body, &errResp); err != nil || errResp.Req != 78 || errResp.Error == "" {
		t.Fatalf("want an error reply for req 78, got %+v (err %v)", errResp, err)
	}
}

// TestEvalBudgetCap pins the per-access budget an eval request may ask
// for at the protocol's per-event address cap: 256 is evaluated, 257 is
// refused, naming the field, by JobFor and through an eval frame.
func TestEvalBudgetCap(t *testing.T) {
	for _, budget := range []int{maxPredictAddrs, maxPredictAddrs + 1} {
		_, err := JobFor(EvalRequest{Trace: "cc-5", Prefetcher: "nextline", Budget: budget})
		if refuse := budget > maxPredictAddrs; refuse != (err != nil) || err != nil && !strings.Contains(err.Error(), "budget") {
			t.Errorf("JobFor(budget %d) = %v; want refused %v, naming the budget", budget, err, refuse)
		}
	}

	srv := newTestServer(t, Config{NewPrefetcher: nextLineFactory})
	c := dialBinary(t, srv.Addr())
	defer c.close()
	for _, budget := range []int{maxPredictAddrs, maxPredictAddrs + 1} {
		body, err := json.Marshal(EvalRequest{Req: uint64(budget), Trace: "cc-5", Prefetcher: "nextline", Loads: 2000, Seed: 3, Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(c.nc, AppendEvalFrame(nil, body)); err != nil {
			t.Fatal(err)
		}
		c.nc.SetReadDeadline(time.Now().Add(time.Minute))
		f := c.mustRead()
		var resp EvalResponse
		if err := json.Unmarshal(f.Body, &resp); err != nil || f.Kind != FrameEvalResult || resp.Req != uint64(budget) {
			t.Fatalf("budget %d: want its eval result, got kind %#x %+v (err %v)", budget, f.Kind, resp, err)
		}
		if refuse := budget > maxPredictAddrs; refuse != (resp.Error != "") || refuse && !strings.Contains(resp.Error, "budget") {
			t.Errorf("eval frame with budget %d: error %q; want refused %v, naming the budget", budget, resp.Error, refuse)
		}
	}
}

// TestSessionBudgetCap pins the session budget at the predict frame's
// address cap: a daemon at budget 256 starts and answers an event with
// 256 addresses its client reads, and budget 257 is refused before the
// daemon listens, naming the field.
func TestSessionBudgetCap(t *testing.T) {
	if _, err := New(Config{Budget: maxPredictAddrs + 1}); err == nil || !strings.Contains(err.Error(), "Budget") {
		t.Fatalf("New(Budget %d) = %v; want refused, naming the Budget", maxPredictAddrs+1, err)
	}
	srv := newTestServer(t, Config{
		NewPrefetcher: func(uint64) (prefetch.Prefetcher, error) { return &prefetch.NextLine{Degree: 2 * maxPredictAddrs}, nil },
		Budget:        maxPredictAddrs,
	})
	c := dialBinary(t, srv.Addr())
	defer c.close()
	if err := c.writeEvent(1, acc(1)); err != nil {
		t.Fatal(err)
	}
	c.nc.SetReadDeadline(time.Now().Add(time.Minute))
	if f := c.mustRead(); f.Kind != FramePredict || len(f.Addrs) != maxPredictAddrs {
		t.Fatalf("want a predict of %d addresses, got kind %#x with %d", maxPredictAddrs, f.Kind, len(f.Addrs))
	}
}

func TestBinaryProtocolViolationsCloseTheConnection(t *testing.T) {
	reg := withRegistry(t)
	srv := newTestServer(t, Config{NewPrefetcher: nextLineFactory})

	// assertClosed waits for the server to close nc and returns the bytes
	// it sent first (a best-effort reject, if it won the race).
	assertClosed := func(t *testing.T, nc net.Conn) []byte {
		t.Helper()
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		var got []byte
		buf := make([]byte, 512)
		for {
			n, err := nc.Read(buf)
			got = append(got, buf[:n]...)
			if err == nil {
				continue
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("connection stayed open after a protocol violation")
			}
			return got
		}
	}
	t.Run("bad magic", func(t *testing.T) {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.Write([]byte("NOPE"))
		assertClosed(t, nc)
	})
	t.Run("json opening", func(t *testing.T) {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.Write([]byte("{\"type\":\"ping\"}\n"))
		// Whatever arrives before the close is the bad-magic reject,
		// never a pong.
		fr := NewFrameReader(bytes.NewReader(assertClosed(t, nc)))
		for {
			payload, err := fr.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			var f Frame
			if err != nil || ParseFrame(payload, &f) != nil || f.Kind != FrameReject || f.Code != RejectBadRequest {
				t.Fatalf("a JSON opening drew kind %#x code %s (err %v); want only a bad-request reject", f.Kind, RejectCodeName(f.Code), err)
			}
		}
	})
	t.Run("corrupt frame", func(t *testing.T) {
		c := dialBinary(t, srv.Addr())
		defer c.close()
		if err := WriteFrame(c.nc, []byte{0xEE, 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		assertClosed(t, c.nc)
	})
	t.Run("server-side kind from client", func(t *testing.T) {
		c := dialBinary(t, srv.Addr())
		defer c.close()
		if err := WriteFrame(c.nc, AppendPredictFrame(nil, 1, 1, nil)); err != nil {
			t.Fatal(err)
		}
		assertClosed(t, c.nc)
	})
	t.Run("oversize length prefix", func(t *testing.T) {
		c := dialBinary(t, srv.Addr())
		defer c.close()
		c.nc.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
		assertClosed(t, c.nc)
	})
	if got := reg.Snapshot().Counters["serve.frame_errors"]; got < 4 {
		t.Fatalf("frame_errors = %d, want >= 4", got)
	}
}

// TestSlowClientBackpressureBoundedMemory is the bounded-by-construction
// proof: a deliberately slow client is fed a large event stream and the
// server must shed — visibly, via the reject protocol and the shed
// counters — rather than buffer. Resident queue memory is pinned by the
// queue-depth gauges and the heap high-water mark.
func TestSlowClientBackpressureBoundedMemory(t *testing.T) {
	total := uint64(1_000_000)
	if testing.Short() {
		total = 150_000
	}
	reg := withRegistry(t)
	srv := newTestServer(t, Config{
		NewPrefetcher: nextLineFactory,
		QueueDepth:    64,
		OutboundDepth: 64,
	})
	c := dialBinary(t, srv.Addr())
	defer c.close()

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	// Writer: the full firehose, no flow control, no retries — every event
	// gets exactly one response (predict or reject), nothing is buffered
	// beyond the fixed queues.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		bw := bufio.NewWriterSize(c.nc, 1<<16)
		var payload []byte
		for id := uint64(1); id <= total; id++ {
			payload = AppendEventFrame(payload[:0], 1, acc(id))
			if err := WriteFrame(bw, payload); err != nil {
				t.Errorf("write event %d: %v", id, err)
				return
			}
		}
		if err := bw.Flush(); err != nil {
			t.Errorf("flush: %v", err)
		}
	}()

	// Reader: deliberately slow — sleep every few thousand replies so the
	// outbound queue and TCP window, not the reader, pace the server.
	var predicts, rejects, peakHeap uint64
	var ms runtime.MemStats
	for n := uint64(0); n < total; n++ {
		c.nc.SetReadDeadline(time.Now().Add(30 * time.Second))
		f, err := c.read()
		if err != nil {
			t.Fatalf("read reply %d: %v", n, err)
		}
		switch f.Kind {
		case FramePredict:
			predicts++
		case FrameReject:
			if f.Code != RejectQueueFull {
				t.Fatalf("unexpected reject %s", RejectCodeName(f.Code))
			}
			rejects++
		default:
			t.Fatalf("unexpected frame kind %#x", f.Kind)
		}
		if n%8192 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
		if n%65536 == 0 {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peakHeap {
				peakHeap = ms.HeapAlloc
			}
		}
	}
	wg.Wait()

	if predicts+rejects != total {
		t.Fatalf("%d predicts + %d rejects != %d events", predicts, rejects, total)
	}
	snap := reg.Snapshot()
	accepted := snap.Counters["serve.events_accepted"]
	shed := snap.Counters["serve.shed"]
	if accepted != predicts || shed != rejects {
		t.Fatalf("telemetry disagrees with the wire: accepted %d vs %d predicts, shed %d vs %d rejects",
			accepted, predicts, shed, rejects)
	}
	if rejects == 0 {
		t.Fatalf("a slow client never saw backpressure over %d events", total)
	}
	if peak := snap.Gauges["serve.queue_depth_peak"]; peak > 64 {
		t.Fatalf("session queue grew to %d, past its 64 cap", peak)
	}
	// send records len(out)+1 before enqueueing, so the observable peak is
	// cap+1 even though at most cap replies are ever resident.
	if peak := snap.Gauges["serve.out_depth_peak"]; peak > 65 {
		t.Fatalf("outbound queue grew to %d, past its 64 cap", peak)
	}
	const heapCap = 64 << 20
	if grew := int64(peakHeap) - int64(base.HeapAlloc); grew > heapCap {
		t.Fatalf("heap grew %d bytes while shedding; queues are not bounding memory", grew)
	}
	t.Logf("%d events: %d accepted, %d shed, heap peak +%d KiB",
		total, accepted, shed, (int64(peakHeap)-int64(base.HeapAlloc))/1024)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within %s", d)
		}
		time.Sleep(500 * time.Microsecond)
	}
}
