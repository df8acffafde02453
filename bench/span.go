package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval recorded by the harness around a call into
// the program. Parent is the span open when this one began (-1 at top).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is the untraced pass. Only one goroutine records
// at a time: the harness goroutine, or a probe proc while the harness is
// blocked waiting for it.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int32
	// fine gates the per-burst spans (inject, root_echo). The closed loop
	// flips it every slice, so the same phase yields pps with and without
	// span recording.
	fine bool
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16), fine: true}
}

// begin opens a span and returns its id (-1 when not recording).
func (r *recorder) begin(name string) int32 {
	if r == nil {
		return -1
	}
	id := int32(len(r.spans))
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(r.t0))})
	r.open = append(r.open, id)
	return id
}

// beginFine opens a per-burst span when fine recording is on.
func (r *recorder) beginFine(name string) int32 {
	if r == nil || !r.fine {
		return -1
	}
	return r.begin(name)
}

// end closes the span begin returned. Spans close in LIFO order.
func (r *recorder) end(id int32) {
	if id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

// setFine switches per-burst recording.
func (r *recorder) setFine(on bool) {
	if r != nil {
		r.fine = on
	}
}

// spanTotals is the per-name roll-up: self time is a span's duration
// minus the part its child spans cover.
type spanTotals struct {
	Name    string
	Count   int
	TotalNs int64
	SelfNs  int64
}

func (r *recorder) totals() []spanTotals {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*spanTotals{}
	for i, s := range r.spans {
		t := byName[s.Name]
		if t == nil {
			t = &spanTotals{Name: s.Name}
			byName[s.Name] = t
		}
		t.Count++
		t.TotalNs += s.End - s.Start
		t.SelfNs += s.End - s.Start - child[i]
	}
	out := make([]spanTotals, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (r *recorder) printTotals(w io.Writer) {
	fmt.Fprintf(w, "  %-34s %9s %14s %14s\n", "span", "count", "total_ms", "self_ms")
	for _, t := range r.totals() {
		fmt.Fprintf(w, "  %-34s %9d %14.3f %14.3f\n", t.Name, t.Count,
			float64(t.TotalNs)/1e6, float64(t.SelfNs)/1e6)
	}
}

// write dumps every span as one JSON document.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{r.spans}); err != nil {
		f.Close()
		return fmt.Errorf("spans: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: close %s: %w", path, err)
	}
	return nil
}
