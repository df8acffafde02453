// Package sub is the failing fixture for an NF under the handle layer:
// the exemption is internal/nf itself, not its subpackages, so an NF
// reaches state through handles like any other package.
package sub

import "chc/internal/store"

func bad(k store.Key) store.Request {
	return store.Request{Op: 1, Key: k} // want `raw store\.Request literal`
}
