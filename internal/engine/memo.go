package engine

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
)

// Memo is a process-wide get-or-build table of pure values, the module's
// one memo. Each value must be a pure function of its key, and keys must
// be values (ints, strings, structs of values), never a per-run pointer,
// for a memo never evicts. Then whichever trial, worker or job builds a
// key first, every caller reads the same value, so a memo cannot reach
// output.
//
// A lookup of a built key is one atomic load of an immutable map: no
// lock, no shared write, no allocation. A miss builds under the memo's
// mutex and publishes a copied map, so each key is built once. A build
// that panics leaves its key unbuilt and the memo usable. A build must
// not call Get on its own memo, whose mutex it holds.
//
// The zero Memo is ready to use; NewMemo also registers it for
// MemoSizes.
type Memo[K comparable, V any] struct {
	mu    sync.Mutex
	built atomic.Pointer[map[K]V]
}

// memos maps each registered memo's name to its built-key count.
var memos struct {
	mu    sync.Mutex
	sizes map[string]func() int
}

// NewMemo returns an empty memo registered under name, which must be
// unique in the process.
func NewMemo[K comparable, V any](name string) *Memo[K, V] {
	m := new(Memo[K, V])
	memos.mu.Lock()
	defer memos.mu.Unlock()
	if _, dup := memos.sizes[name]; dup {
		panic(fmt.Sprintf("engine: memo %q registered twice", name))
	}
	if memos.sizes == nil {
		memos.sizes = map[string]func() int{}
	}
	memos.sizes[name] = m.size
	return m
}

// MemoSizes returns each registered memo's built-key count by name.
func MemoSizes() map[string]int {
	memos.mu.Lock()
	defer memos.mu.Unlock()
	out := make(map[string]int, len(memos.sizes))
	for name, size := range memos.sizes {
		out[name] = size()
	}
	return out
}

// Get returns key's value, calling build(key) only on the key's first
// lookup.
func (m *Memo[K, V]) Get(key K, build func(K) V) V {
	if v, ok := m.lookup(key); ok {
		return v
	}
	return m.miss(key, build)
}

func (m *Memo[K, V]) lookup(key K) (V, bool) {
	if built := m.built.Load(); built != nil {
		v, ok := (*built)[key]
		return v, ok
	}
	var zero V
	return zero, false
}

// miss builds key's value under the mutex. It looks again first: another
// goroutine may have built the key while this one waited.
func (m *Memo[K, V]) miss(key K, build func(K) V) V {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.lookup(key); ok {
		return v
	}
	v := build(key)
	next := map[K]V{key: v}
	if built := m.built.Load(); built != nil {
		maps.Copy(next, *built)
	}
	m.built.Store(&next)
	return v
}

func (m *Memo[K, V]) size() int {
	if built := m.built.Load(); built != nil {
		return len(*built)
	}
	return 0
}
