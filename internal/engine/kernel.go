package engine

import "sync"

// Kernel is a reusable fork-join worker group for intra-analysis
// parallelism: parts fixed partitions, parts-1 parked worker goroutines, and
// a Run barrier that executes one task over every partition and returns when
// all are done. It is the backends' shared execution primitive for the
// blocked interference passes (sched.Options.Parallelism).
//
// Determinism contract: the kernel never decides *what* a partition
// computes — callers derive partition boundaries from PartitionRange, which
// depends only on the problem size and the partition count, never on
// GOMAXPROCS, goroutine scheduling, or timing. The kernel only provides the
// barrier, so any two runs (and the sequential path) see identical
// partition contents in identical per-partition order.
//
// Lifecycle: workers are spawned lazily on the first Run that needs them
// and then park between runs on their start channels, so the steady state
// of a warm analyzer costs parts-1 channel sends and parts-1 receipts per
// Run and zero heap allocations (pinned by the engine's alloc guards).
// Close releases the workers; a closed kernel may Run again (it respawns).
// A Kernel is not safe for concurrent Run calls; it is owned by exactly one
// analyzer, like the rest of the analyzer's scratch state.
type Kernel struct {
	parts int
	task  func(part int)

	start   []chan struct{} // one per worker; start[p] fires partition p
	done    chan struct{}   // counted join: one receipt per worker per Run
	quit    chan struct{}   // closed by Close; workers exit
	wg      sync.WaitGroup
	running bool // workers currently spawned
}

// NewKernel builds a kernel with the given partition count (minimum 1). No
// goroutines are spawned until the first parallel Run.
func NewKernel(parts int) *Kernel {
	if parts < 1 {
		parts = 1
	}
	k := &Kernel{parts: parts}
	if parts > 1 {
		k.start = make([]chan struct{}, parts)
		for p := 1; p < parts; p++ {
			k.start[p] = make(chan struct{}, 1)
		}
		k.done = make(chan struct{}, parts-1)
		k.quit = make(chan struct{})
	}
	return k
}

// SetTask installs the per-partition task executed by Run. Install once at
// analyzer construction (the method-value closure is the kernel's single
// steady-state allocation); the task reads its inputs through the state it
// is bound to, so it needs no per-Run arguments.
func (k *Kernel) SetTask(fn func(part int)) { k.task = fn }

// spawn starts the parked workers. Cold path: runs once per lifecycle.
func (k *Kernel) spawn() {
	k.wg.Add(k.parts - 1)
	for p := 1; p < k.parts; p++ {
		//mialint:ignore hotpathalloc -- workers spawn once per kernel lifecycle, not per Run; steady state reuses the parked goroutines
		go func(p int) {
			defer k.wg.Done()
			for {
				select {
				case <-k.quit:
					return
				case <-k.start[p]:
					k.task(p)
					k.done <- struct{}{}
				}
			}
		}(p)
	}
	k.running = true
}

// Run executes the task over every partition and returns when all are done:
// workers 1..parts-1 run their partitions concurrently while the calling
// goroutine runs partition 0, then the counted join closes the barrier.
// With one partition it degenerates to a plain call.
//
//mia:hotpath steady state is channel signaling only; workers spawn once
func (k *Kernel) Run() {
	if k.parts <= 1 {
		k.task(0)
		return
	}
	if !k.running {
		k.spawn()
	}
	for p := 1; p < k.parts; p++ {
		k.start[p] <- struct{}{}
	}
	k.task(0)
	for p := 1; p < k.parts; p++ {
		<-k.done
	}
}

// Close stops and joins the parked workers. Idempotent; a closed kernel
// respawns on its next parallel Run. Analyzers owning a kernel expose Close
// themselves (reachable through engine.CloseWarm), so pool evictions and
// shutdowns do not strand parked goroutines.
func (k *Kernel) Close() {
	if !k.running {
		return
	}
	close(k.quit)
	k.wg.Wait()
	k.quit = make(chan struct{})
	k.running = false
}

// PartitionRange returns the half-open index range [lo, hi) of partition
// part when n items are split across parts partitions: fixed, contiguous,
// balanced boundaries derived from nothing but (n, parts, part). Sizes
// differ by at most one, with the remainder going to the lowest-numbered
// partitions. Empty ranges (lo == hi) are valid and occur when parts > n.
//
//mia:hotpath
func PartitionRange(n, parts, part int) (lo, hi int) {
	q, r := n/parts, n%parts
	lo = part * q
	if part < r {
		lo += part
	} else {
		lo += r
	}
	hi = lo + q
	if part < r {
		hi++
	}
	return lo, hi
}

// CloseWarm releases any resources a warm analyzer holds beyond garbage-
// collected memory — today, the parked worker goroutines of a parallel
// kernel. Backends without such resources simply do not implement Close and
// CloseWarm is a no-op, so serving layers can call it unconditionally on
// every evicted or retired analyzer.
func CloseWarm(w Warm) {
	if c, ok := w.(interface{ Close() }); ok {
		c.Close()
	}
}
