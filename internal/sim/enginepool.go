package sim

import "sync"

// enginePool keeps the idle Engines of each machine configuration on a
// free list. The key is the Config with Warmup zeroed: warmup is the one
// field that does not shape the machine, so engines are shared across jobs
// that differ only in warmup (setWarmup rebinds it per acquisition).
// Config is all-scalar and therefore a valid map key.
//
// Unlike a sync.Pool, a free list never drops an engine — not on a garbage
// collection, and not when the acquiring goroutine runs on another P than
// the releasing one — so a configuration's machine is built once per
// engine in simultaneous use, never again. A list therefore holds at most
// the peak number of its configuration's engines that were in use at once.
var enginePool = struct {
	mu    sync.Mutex
	lists map[Config]*engineList
}{lists: make(map[Config]*engineList)}

// engineList is one configuration's idle engines, most recently released
// last.
type engineList struct{ idle []*Engine }

// AcquireEngine returns an Engine for cfg from the package-level pool,
// together with a release function that must be called exactly once when
// the run is over — typically deferred, so a panicking run still returns
// its engine. A released engine may be dirty; that is safe, because an
// Engine re-initializes all state at the start of each run, never at the
// end.
//
// It is the one way to obtain an Engine. After the first run of a
// configuration the whole cache/DRAM/pipeline arena is reused instead of
// reallocated, which is what makes repeated one-shot calls such as Run
// cheap. The most recently released engine is handed out first.
func AcquireEngine(cfg Config) (*Engine, func()) {
	key := cfg
	key.Warmup = 0
	enginePool.mu.Lock()
	l := enginePool.lists[key]
	if l == nil {
		l = &engineList{}
		enginePool.lists[key] = l
	}
	var eng *Engine
	if n := len(l.idle); n > 0 {
		eng = l.idle[n-1]
		l.idle[n-1] = nil
		l.idle = l.idle[:n-1]
	}
	enginePool.mu.Unlock()
	if eng == nil {
		eng = newEngine(key)
	}
	eng.setWarmup(cfg.Warmup)
	return eng, func() {
		enginePool.mu.Lock()
		l.idle = append(l.idle, eng)
		enginePool.mu.Unlock()
	}
}
