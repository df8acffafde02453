package experiments

import (
	"fmt"
	"time"

	"chc/internal/runtime"
	"chc/internal/store"
)

// This file measures the recovery-time objective of §5.4's durable
// checkpoints: with periodic checkpoints and WAL truncation, store
// recovery re-executes only the ops since the truncation horizon, so
// recovery time stays flat as history grows; without checkpoints the full
// WAL replays and recovery grows linearly with history (Fig 14's
// mechanism, isolated).

// rtoResult is one crash-and-recover measurement.
type rtoResult struct {
	took   time.Duration
	reexec int
	// conserved is the post-recovery Fig 6 check: every packet injected
	// was deleted, the root log drained, and the sink saw no duplicate
	// deliveries — the recovered store tier did not unbalance the
	// XOR/delete protocol.
	conserved bool
}

// rtoRun deploys a NAT chain, feeds it histMult rounds of fresh flows (the
// history a full-WAL recovery would re-execute), quiesces, crashes the
// store tier and recovers it, then proves the recovered tier still
// conserves packets under new traffic.
func rtoRun(o Opts, histMult int, interval time.Duration) rtoResult {
	cfg := latencyConfig(o.Seed)
	cfg.CheckpointEvery = interval
	c := nfCases()[0] // NAT: per-flow mappings + shared port pool
	ch := singleNFChain(cfg, c, modelCase{"EO+C+NA", runtime.BackendCHC, store.ModeEOCNA}, 3)
	for i := 0; i < histMult; i++ {
		// Fresh flows each round: new NAT mappings mean new shared-state
		// ops, so the WAL genuinely grows with history.
		tr := background(Opts{Seed: o.Seed + int64(i), Flows: o.Flows}, 750)
		tr.Pace(4_000_000_000)
		ch.RunTrace(tr, 2*time.Millisecond)
	}
	for i := 0; i < 20000 && ch.Root.LogSize() > 0; i++ {
		ch.RunFor(time.Millisecond)
	}
	took, reexec := ch.RecoverStore(runtime.DefaultStoreRecoveryConfig())

	tr2 := background(Opts{Seed: o.Seed + 1000, Flows: o.Flows / 2}, 750)
	tr2.Pace(4_000_000_000)
	ch.RunTrace(tr2, 2*time.Millisecond)
	for i := 0; i < 20000 && ch.Root.LogSize() > 0; i++ {
		ch.RunFor(time.Millisecond)
	}
	conserved := ch.Root.Injected == ch.Root.Deleted &&
		ch.Root.LogSize() == 0 && ch.Sink.Duplicates == 0
	return rtoResult{took: took, reexec: reexec, conserved: conserved}
}

// rtoInterval is the checkpoint interval the rto experiment uses: a few
// checkpoints per traffic round, so the truncation horizon tracks the
// workload closely.
const rtoInterval = 2 * time.Millisecond

// rtoFlowCap bounds the per-round flow count: the experiment replays up to
// 10 rounds of history twice (with and without checkpoints), so Full-scale
// flow counts would multiply into minutes of DES time without changing the
// flat-vs-linear shape being measured.
const rtoFlowCap = 240

// Rto reproduces the §5.4 recovery-time objective: as history grows ~10×,
// checkpointed recovery time and re-executed op count stay flat (the WAL
// is truncated at each checkpoint horizon), while the no-checkpoint
// control replays its entire history.
func Rto(o Opts) *Table {
	if o.Flows > rtoFlowCap {
		o.Flows = rtoFlowCap
	}
	t := &Table{
		ID:     "rto",
		Title:  "Store recovery vs history: checkpoint+tail against full replay",
		Header: []string{"history", "full-replay", "reexec", "ckpt=" + rtoInterval.String(), "reexec"},
	}
	for _, mult := range []int{1, 10} {
		full := rtoRun(o, mult, 0)
		ck := rtoRun(o, mult, rtoInterval)
		t.AddRow(fmt.Sprintf("%dx", mult),
			ms(full.took), fmt.Sprintf("%d", full.reexec),
			ms(ck.took), fmt.Sprintf("%d", ck.reexec))
	}
	t.Note("checkpointed recovery replays only the WAL tail past the truncation " +
		"horizon, so its cost is set by the checkpoint interval, not by history; " +
		"full replay grows linearly with history")
	return t
}
