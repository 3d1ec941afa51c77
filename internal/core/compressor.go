package core

import "runtime"

// Compressor runs repeated CAMEO compressions under one fixed option set,
// pooling the engine between runs: the reconstruction buffers, neighbour
// pointers, removal flags, heap arrays, per-thread evaluation scratch, and
// (with Threads >= 2) the persistent eval workers all survive from block to
// block instead of being reallocated per call. The tsdb/codec layer drives
// one Compressor per worker slot, so steady-state block compression stays
// off the allocator.
//
// A Compressor is not safe for concurrent use; pool instances (sync.Pool)
// for concurrent block streams. Close releases the eval workers — for
// engines with Threads >= 2 a finalizer backstops Close, so instances
// dropped by a pool cannot leak goroutines.
type Compressor struct {
	opt Options
	eng *engine
}

// NewCompressor validates the options and returns a reusable compressor.
func NewCompressor(opt Options) (*Compressor, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	c := &Compressor{opt: opt}
	if opt.Threads >= 2 {
		runtime.SetFinalizer(c, (*Compressor).Close)
	}
	return c, nil
}

// Compress is Compress for the configured options, reusing the pooled
// engine. Results are independent of engine reuse: a fresh engine and a
// recycled one produce bit-identical retained points.
func (c *Compressor) Compress(xs []float64) (*Result, error) {
	if err := checkFinite(xs); err != nil {
		return nil, err
	}
	if c.eng == nil {
		c.eng = &engine{}
	}
	return c.eng.compress(xs, c.opt), nil
}

// Close stops the engine's eval workers. The Compressor may be reused
// afterwards (the next Compress re-arms it), but Close must be called — or
// the instance left to the GC, which finalizes it — once it is no longer
// needed, when Threads >= 2.
func (c *Compressor) Close() {
	if c.eng != nil {
		c.eng.close()
		c.eng = nil
	}
}
