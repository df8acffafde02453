package store

import (
	"fmt"
	"sort"
)

// Key identifies a state object. Following §4.3, a key is namespaced by the
// logical vertex ID ("when two logical vertices use the same key to store
// their state, vertex ID prevents any conflicts"), an object ID within the
// vertex, and a sub-key for the unit of state (a flow hash, a host address,
// or 0 for a singleton object). Instance ownership (the "instance ID"
// component of the paper's key) is kept as store-side metadata so that
// handover only rewrites metadata, never moves bytes.
type Key struct {
	Vertex uint16
	Obj    uint16
	Sub    uint64
}

func (k Key) String() string {
	return fmt.Sprintf("v%d/o%d/%x", k.Vertex, k.Obj, k.Sub)
}

// Less orders keys (vertex, obj, sub) for the sorted-keys iteration idiom:
// protocol paths that walk a map of keys and emit messages sort first so
// the DES message schedule never depends on map iteration order.
func (k Key) Less(o Key) bool {
	if k.Vertex != o.Vertex {
		return k.Vertex < o.Vertex
	}
	if k.Obj != o.Obj {
		return k.Obj < o.Obj
	}
	return k.Sub < o.Sub
}

// sortedKeys returns m's keys in Less order: the sorted-keys idiom that
// keeps map iteration order out of encodings and replay order.
func sortedKeys[V any](m map[Key]V) []Key {
	keys := make([]Key, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	return keys
}

// Scope is the granularity at which a state object is keyed: the set of
// packet header fields used to key into it (§4.1). Ordered from most to
// least fine-grained for partitioning purposes.
type Scope uint8

// Scopes, finest to coarsest.
const (
	ScopeFlow   Scope = iota // 5-tuple
	ScopeSrcIP               // per-host (source)
	ScopeDstIP               // per-host (destination)
	ScopeGlobal              // one object for the whole vertex
)

func (s Scope) String() string {
	switch s {
	case ScopeFlow:
		return "flow"
	case ScopeSrcIP:
		return "srcip"
	case ScopeDstIP:
		return "dstip"
	case ScopeGlobal:
		return "global"
	default:
		return "?"
	}
}

// Finer reports whether s partitions traffic more finely than o.
func (s Scope) Finer(o Scope) bool { return s < o }

// AccessPattern drives the Table 1 caching strategy decision.
type AccessPattern uint8

// Access patterns from Table 1/Table 4.
const (
	// WriteMostly: written on most packets, read rarely. Non-blocking
	// offloaded ops, no caching.
	WriteMostly AccessPattern = iota
	// ReadHeavy: written rarely, read often. Cached everywhere with
	// store-driven callbacks on update.
	ReadHeavy
	// WriteReadOften: both frequent. Cached only while the traffic split
	// grants exclusive access; otherwise blocking offloaded ops.
	WriteReadOften
)

func (a AccessPattern) String() string {
	switch a {
	case WriteMostly:
		return "write-mostly"
	case ReadHeavy:
		return "read-heavy"
	case WriteReadOften:
		return "write/read-often"
	default:
		return "?"
	}
}

// ObjDecl declares a state object of an NF vertex: its identity, scope and
// access pattern (Table 4 rows).
type ObjDecl struct {
	ID      uint16
	Name    string
	Scope   Scope
	Pattern AccessPattern
}

// Strategy is the Table 1 state-management decision for an object.
type Strategy uint8

// Strategies (Table 1 columns).
const (
	// StratNonBlocking: offload ops, don't wait, no caching.
	StratNonBlocking Strategy = iota
	// StratCachePerFlow: cache at the owner with periodic non-blocking flush.
	StratCachePerFlow
	// StratCacheCallback: read from cache, write through store, callback fan-out.
	StratCacheCallback
	// StratSplitAware: cache iff the traffic split gives exclusive access.
	StratSplitAware
)

func (s Strategy) String() string {
	switch s {
	case StratNonBlocking:
		return "non-blocking"
	case StratCachePerFlow:
		return "cache-per-flow"
	case StratCacheCallback:
		return "cache-callback"
	case StratSplitAware:
		return "split-aware"
	default:
		return "?"
	}
}

// StrategyFor implements the Table 1 decision matrix.
func StrategyFor(d ObjDecl) Strategy {
	if d.Pattern == WriteMostly {
		// "Any scope; write mostly, read rarely" -> non-blocking, no caching.
		return StratNonBlocking
	}
	if d.Scope == ScopeFlow {
		// "Per-flow; any" -> caching with periodic non-blocking flush.
		return StratCachePerFlow
	}
	if d.Pattern == ReadHeavy {
		// "Cross-flow; write rarely" -> caching with callbacks.
		return StratCacheCallback
	}
	// "Cross-flow; write/read often" -> depends on the traffic split.
	return StratSplitAware
}
