package engine

import "github.com/mia-rt/mia/internal/model"

// Orders is the mutable overlay of an immutable Image: one private copy of
// the per-core execution orders, backed by a single flat allocation. Every
// analyzer that permutes orders (search evaluators, warm reschedulers)
// owns its own Orders; the Image underneath is never written. An Orders
// value is not safe for concurrent use — it belongs to exactly one
// analyzer, like the backend state it feeds.
type Orders struct {
	img  *Image
	flat []model.TaskID
	view [][]model.TaskID // per-core windows into flat
}

// NewOrders returns a fresh mutable copy of the image's baseline per-core
// execution orders.
func (img *Image) NewOrders() *Orders {
	flat := make([]model.TaskID, len(img.OrderIDs))
	copy(flat, img.OrderIDs)
	view := make([][]model.TaskID, img.Cores)
	for k := 0; k < img.Cores; k++ {
		view[k] = flat[img.OrderStart[k]:img.OrderStart[k+1]:img.OrderStart[k+1]]
	}
	return &Orders{img: img, flat: flat, view: view}
}

// Order returns core k's current execution order. The slice aliases the
// overlay's backing array: it reflects later Swap/Set calls and must not
// be mutated directly.
//
//mia:hotpath
func (o *Orders) Order(k model.CoreID) []model.TaskID { return o.view[k] }

// Swap exchanges the tasks at positions pos and pos+1 of core k's order —
// the adjacent-swap move the warm-start reschedulers replay. Swap is its
// own inverse.
//
//mia:hotpath
func (o *Orders) Swap(k model.CoreID, pos int) {
	ord := o.view[k]
	ord[pos], ord[pos+1] = ord[pos+1], ord[pos]
}

// SetOrder overwrites core k's order with a copy of order — the bulk
// counterpart of Swap for consumers that load whole candidate permutations
// (the Pareto search's per-worker genome loading). The length must match
// the compiled per-core order length: task migration requires a recompile.
//
//mia:hotpath
func (o *Orders) SetOrder(k model.CoreID, order []model.TaskID) {
	if len(order) != len(o.view[k]) {
		panic("engine: Orders.SetOrder: per-core order length changed since Compile (task migration requires a recompile)")
	}
	copy(o.view[k], order)
}

// Reset restores the image's baseline orders.
func (o *Orders) Reset() { copy(o.flat, o.img.OrderIDs) }
