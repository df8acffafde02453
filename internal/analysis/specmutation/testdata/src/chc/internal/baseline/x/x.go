// Package x is the failing fixture for a comparison baseline: baselines
// get no exemption from the Request rule.
package x

import "chc/internal/store"

func bad() *store.Request {
	return &store.Request{Op: 2} // want `raw store\.Request literal`
}
