// Package ckptproc mirrors the store checkpointer proc: a periodic loop
// that must pace itself (and stamp checkpoints) on the transport's
// virtual clock. Wall-clock pacing in the checkpoint loop would make the
// truncation horizon depend on host timing and break the golden parity
// pin on CheckpointEvery=0.
package ckptproc

import "time"

// proc is the transport.Proc shape the checkpointer runs on: Sleep
// advances virtual time, Now reads it.
type proc interface {
	Sleep(d time.Duration)
	Now() time.Duration
}

// badCheckpointer paces checkpoints on the wall clock — the bug class
// this analyzer exists for.
func badCheckpointer(interval time.Duration, snapshot func() []byte, commit func([]byte, time.Duration)) {
	for {
		time.Sleep(interval) // want `wall-clock time\.Sleep`
		data := snapshot()
		commit(data, time.Duration(time.Now().UnixNano())) // want `wall-clock time\.Now`
	}
}

// goodCheckpointer is the shipping shape: the proc's virtual clock paces
// the loop and stamps the committed checkpoint.
func goodCheckpointer(p proc, interval time.Duration, snapshot func() []byte, commit func([]byte, time.Duration)) {
	for {
		p.Sleep(interval)
		commit(snapshot(), p.Now())
	}
}
