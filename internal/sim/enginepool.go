package sim

import "sync"

// enginePools maps a machine configuration to a sync.Pool of Engines built
// for it. The key is the Config with Warmup zeroed: warmup is the one field
// that does not shape the machine, so engines are shared across jobs that
// differ only in warmup (setWarmup rebinds it per acquisition). Config is
// all-scalar and therefore a valid map key.
var enginePools sync.Map

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
// cheap.
func AcquireEngine(cfg Config) (*Engine, func()) {
	key := cfg
	key.Warmup = 0
	v, ok := enginePools.Load(key)
	if !ok {
		v, _ = enginePools.LoadOrStore(key, &sync.Pool{
			New: func() any { return newEngine(key) },
		})
	}
	pool := v.(*sync.Pool)
	eng := pool.Get().(*Engine)
	eng.setWarmup(cfg.Warmup)
	return eng, func() { pool.Put(eng) }
}
