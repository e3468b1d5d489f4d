package dagtrace

// Budget is a token bucket over decoder-resident op bytes, shared by the
// frame windows of streams replaying concurrently (the full-scale grid
// runs one StreamTrace per cell). Every byte a window holds — cached
// frames and leased strand scripts alike — is charged here as well as
// against the window's own budget, so N concurrent cells share one
// memory high-water mark instead of multiplying it: once the bucket is
// over its total, every window sheds frames down to its one-frame
// minimum until the pressure clears.
//
// The grid sizes windows before any stream opens, splitting the total
// evenly between concurrent cells, so their frame budgets fit in the
// bucket together and only leases can push it over.
//
// Charges never block. A window must always be able to load the frame
// its current strand needs and lease that strand's script, or replay
// deadlocks; instead of making acquisition blocking (and proving N
// windows can't starve each other), the bucket permits overdraft and
// relies on eviction pressure: the worst-case resident total is
// total + Σ per-stream (one frame + in-flight leases), which the grid
// peak-memory acceptance test pins. Charging and crediting ride on the
// window's existing lease/evict pairs — the same acquire/release paths
// the leaseleak analyzer checks — and Close credits a window's whole
// residue, so a balanced bucket (Used()==0 after the grid drains) is a
// runtime proof that no window leaked tokens.
//
// All methods are safe for concurrent use. Budget state is host-side
// accounting only: it decides which frames stay cached, never which
// bytes a fetch returns, so simulated results are invariant under the
// budget total, grid concurrency and eviction interleaving.

import "sync"

// Budget is the shared token bucket. The zero value is unusable; a nil
// *Budget disables shared accounting (windows then honor only their own
// budgets).
type Budget struct {
	mu    sync.Mutex
	total int64
	used  int64
	peak  int64
}

// NewBudget returns a bucket of the given size in bytes; total <= 0
// selects DefaultWindowBytes.
func NewBudget(total int64) *Budget {
	if total <= 0 {
		total = DefaultWindowBytes
	}
	return &Budget{total: total}
}

// charge takes n tokens, overdrafting if the bucket is empty (callers
// relieve the pressure by evicting; see window.frame).
func (b *Budget) charge(n int64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.used += n
	if b.used > b.peak {
		b.peak = b.used
	}
	b.mu.Unlock()
}

// credit returns n tokens.
func (b *Budget) credit(n int64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.used -= n
	b.mu.Unlock()
}

// over reports whether the bucket is overdrawn — the signal for every
// window sharing it to evict down to its minimum.
func (b *Budget) over() bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used > b.total
}

// Total returns the bucket size in bytes.
func (b *Budget) Total() int64 {
	if b == nil {
		return 0
	}
	return b.total
}

// Used returns the currently charged bytes. After every stream sharing
// the bucket has been Closed this must be zero — the runtime half of the
// lease-release discipline (the static half is the leaseleak analyzer).
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// PeakBytes returns the high-water mark of charged bytes across every
// window sharing the bucket — the grid-wide analogue of a single
// stream's PeakResidentBytes.
func (b *Budget) PeakBytes() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peak
}
