package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// Edit names where one core's order changed since the analyzer's committed
// baseline: From is the first position where core Core's order may differ
// from the committed one. One Edit may stand for several swaps on the same
// core (callers collapse them to the smallest position); the warm analyzer
// compares the overlay itself to find the last differing position.
type Edit struct {
	Core model.CoreID
	From int
}

// Backend is one analysis algorithm operating on compiled images. A
// backend must be stateless and safe for concurrent use: all per-run
// state lives either on the stack of Analyze or inside the Warm instances
// it creates.
type Backend interface {
	// Analyze runs one cold analysis of the image's baseline orders,
	// returning sched.ErrCanceled once ctx is done.
	Analyze(ctx context.Context, img *Image) (*sched.Result, error)
	// NewWarm creates a reusable analyzer bound to the image, owning a
	// private Orders overlay and whatever incremental state the backend
	// keeps between runs. Warm instances are not safe for concurrent
	// use; create one per goroutine and share the Image.
	NewWarm(img *Image) Warm
}

// Warm is a reusable analyzer over one image. Backends without true
// warm-start support still implement it — every run is simply cold over
// the current Orders and Warm() stays false — so consumers can treat all
// backends uniformly.
type Warm interface {
	// Orders returns the analyzer's mutable order overlay. Callers
	// permute it (Swap) and then re-analyze.
	Orders() *Orders
	// Analyze runs a full analysis of the current orders and commits it
	// as the warm baseline where the backend supports one.
	Analyze(ctx context.Context) (*sched.Result, error)
	// AnalyzeCold runs a full analysis of the current orders without
	// touching the warm baseline — the oracle path for differential
	// comparisons against Reschedule.
	AnalyzeCold(ctx context.Context) (*sched.Result, error)
	// Reschedule re-analyzes after the given adjacent-swap edits were
	// applied to Orders since the committed baseline. Backends with warm
	// state replay from the latest safe checkpoint; others rerun cold.
	// Results are bit-identical to a cold analysis of the same orders.
	Reschedule(ctx context.Context, edits ...Edit) (*sched.Result, error)
	// Warm reports whether a committed baseline exists, i.e. whether
	// the next Reschedule can replay instead of starting cold.
	Warm() bool
}

// CloseWarm does nothing: a Warm holds no resources beyond garbage-collected
// memory. It is kept only because the benchmark module still calls it.
func CloseWarm(Warm) {}

// Canonical backend names. Backends self-register from their package
// init, so importing an algorithm package (even blank) makes its name
// resolvable here.
const (
	Incremental = "incremental" // the paper's O(n²) time-cursor algorithm
	Fixpoint    = "fixpoint"    // the O(n⁴) per-window fixed-point baseline
	RTA         = "rta"         // window-free compositional upper bound
)

var (
	regMu    sync.Mutex
	registry = map[string]Backend{}
)

// Register makes a backend resolvable by name. It panics on duplicate or
// empty registrations — both are wiring bugs, caught at init.
func Register(name string, b Backend) {
	if name == "" || b == nil {
		panic("engine: Register with empty name or nil backend")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("engine: duplicate backend registration: " + name)
	}
	registry[name] = b
}

// New resolves a registered backend into an Engine façade.
func New(name string) (*Engine, error) {
	regMu.Lock()
	b, ok := registry[name]
	regMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown backend %q (registered: %s)", name, strings.Join(Backends(), ", "))
	}
	return &Engine{name: name, b: b}, nil
}

// MustNew is New for statically-known backend names; it panics when the
// backend package was not linked in.
func MustNew(name string) *Engine {
	e, err := New(name)
	if err != nil {
		panic(err)
	}
	return e
}

// Backends returns the registered backend names, sorted.
func Backends() []string {
	regMu.Lock()
	defer regMu.Unlock()
	names := make([]string, 0, len(registry))
	//mialint:ignore determinism -- iteration order cannot be observed: names are sorted before being returned
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Engine is the façade consumers hold: a named, resolved backend.
type Engine struct {
	name string
	b    Backend
}

// Name returns the backend name the engine was resolved from.
func (e *Engine) Name() string { return e.name }

// Analyze runs one cold analysis of the image's baseline orders.
func (e *Engine) Analyze(ctx context.Context, img *Image) (*sched.Result, error) {
	return e.b.Analyze(ctx, img)
}

// NewWarm creates a reusable single-goroutine analyzer over img.
func (e *Engine) NewWarm(img *Image) Warm { return e.b.NewWarm(img) }
