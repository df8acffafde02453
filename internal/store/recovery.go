package store

import "sort"

// This file implements datastore-instance failure recovery (§5.4, Fig 7):
//
//   - Per-flow state is re-read from the NF instances' caches, which are
//     authoritative (each per-flow object has exactly one writer).
//   - Every other key is rebuilt from the last checkpoint, which holds
//     every key of the shard, plus re-execution of client-side write-ahead
//     logs. If any client read shared state after the checkpoint,
//     re-execution must start from the TS vector of the most recent read
//     so the recovered value is consistent with what instances observed;
//     the paper's reverse-log traversal selects that TS. Per-flow keys no
//     surviving cache holds (ModeEO caches nothing) take this path too:
//     truncation dropped their WAL entries behind the checkpoint, so the
//     checkpoint must hold them.

// TSCandidate is a potential recovery starting point for one shared key:
// either the checkpoint (Val = checkpointed value) or a logged read
// (Val = value returned by the read, TS = vector attached by the store).
type TSCandidate struct {
	TS  map[uint16]uint64
	Val Value
	// Pos, when non-nil, gives the candidate's exact per-instance WAL
	// positions (checkpoint candidates carry it; logged reads only have
	// clock vectors). Replay resumes from these positions instead of
	// searching for the TS clock, which is ambiguous when one packet's ops
	// occupy several WAL positions.
	Pos map[uint16]uint64
}

// tsContains reports whether clock c appears among ts's per-instance clocks.
func tsContains(ts map[uint16]uint64, c uint64) bool {
	for _, v := range ts {
		if v == c {
			return true
		}
	}
	return false
}

// SelectTS implements the paper's TS-selection algorithm: given each
// instance's clock-ordered update log (clocks only) and the candidate TS
// vectors, find the TS of the most recent read. Walk each instance's log in
// reverse to the latest clock present in any surviving candidate, then
// discard candidates lacking that clock; the survivor corresponds to the
// most recent read. Returns the index into cands, or -1 if none survive.
func SelectTS(instLogs map[uint16][]uint64, cands []TSCandidate) int {
	if len(cands) == 0 {
		return -1
	}
	surviving := make([]int, 0, len(cands))
	for i := range cands {
		surviving = append(surviving, i)
	}
	// Deterministic instance order.
	insts := make([]uint16, 0, len(instLogs))
	for i := range instLogs {
		insts = append(insts, i)
	}
	sort.Slice(insts, func(a, b int) bool { return insts[a] < insts[b] })

	for _, inst := range insts {
		log := instLogs[inst]
		// Latest update in this instance's log whose clock appears in a
		// surviving candidate.
		var found uint64
		ok := false
		for j := len(log) - 1; j >= 0; j-- {
			for _, ci := range surviving {
				if tsContains(cands[ci].TS, log[j]) {
					found, ok = log[j], true
					break
				}
			}
			if ok {
				break
			}
		}
		if !ok {
			continue // this instance's ops predate every candidate
		}
		next := surviving[:0]
		for _, ci := range surviving {
			if tsContains(cands[ci].TS, found) {
				next = append(next, ci)
			}
		}
		surviving = next
		if len(surviving) == 1 {
			break
		}
	}
	if len(surviving) == 0 {
		return -1
	}
	// If several candidates survive they are mutually consistent; prefer the
	// one with the largest clock sum (most advanced view) for determinism.
	best, bestSum := surviving[0], uint64(0)
	for _, ci := range surviving {
		var sum uint64
		for _, c := range cands[ci].TS {
			sum += c
		}
		if sum >= bestSum {
			best, bestSum = ci, sum
		}
	}
	return best
}

// ClientState is a recovery view of one NF instance's client library for
// one shard (Client.RecoveryState).
type ClientState struct {
	Instance uint16
	WAL      []WalOp
	ReadLog  []ReadRecord
	PerFlow  map[Key]Value
	// Dropped is how many of this instance's WAL entries for the failed
	// shard were already truncated by checkpoints: checkpoint position
	// vectors are absolute counts, and Dropped maps them onto the
	// retained WAL.
	Dropped uint64
}

// RecoverInput bundles everything the recovery manager gathered.
type RecoverInput struct {
	Checkpoint *Snapshot // last stable checkpoint (may be nil)
	Clients    []ClientState
}

// RecoverEngine rebuilds a failed store instance's engine (§5.4). It
// returns the new engine and the number of re-executed WAL operations
// (which dominates recovery time, Fig 14).
func RecoverEngine(in RecoverInput) (*Engine, int) {
	e := NewEngine(16)
	if in.Checkpoint != nil {
		e.Restore(in.Checkpoint)
	}

	// 1) Per-flow state straight from NF caches (Theorem B.5.1). Cache-held
	// keys are authoritative: their values override the checkpoint's, and
	// their WAL entries are flush echoes of cache state, so step 2 must
	// not roll them back. Per-flow keys no surviving cache holds are
	// recovered as shared ones are, from the checkpoint plus WAL replay.
	cacheOwned := make(map[Key]bool)
	for _, cl := range in.Clients {
		for k, v := range cl.PerFlow {
			e.Apply(&Request{Op: OpSet, Key: k, Arg: v})
			e.Apply(&Request{Op: OpAssociate, Key: k, Instance: cl.Instance})
			cacheOwned[k] = true
		}
	}

	// 2) Shared state. A TS clock is a POSITION MARKER in the instance's
	// issue-ordered WAL (the order the store executed that instance's
	// updates), not a numeric high-water mark: cache flushes can deliver
	// older clocks after newer ones. Re-execution therefore resumes from
	// the WAL position of the selected TS clock.
	fullWAL := make(map[uint16][]WalOp)
	clockLogs := make(map[uint16][]uint64)
	dropped := make(map[uint16]uint64)
	keySet := make(map[Key]bool)
	for _, cl := range in.Clients {
		dropped[cl.Instance] = cl.Dropped
		for _, w := range cl.WAL {
			// The full stream still feeds the position logs (TS clocks are
			// positions in the issue-ordered WAL); only the per-key
			// re-initialization below skips cache-owned keys.
			fullWAL[cl.Instance] = append(fullWAL[cl.Instance], w)
			clockLogs[cl.Instance] = append(clockLogs[cl.Instance], w.Clock)
			if !cacheOwned[w.Req.Key] {
				keySet[w.Req.Key] = true
			}
		}
	}
	readsByKey := make(map[Key][]ReadRecord)
	for _, cl := range in.Clients {
		for _, r := range cl.ReadLog {
			readsByKey[r.Key] = append(readsByKey[r.Key], r)
		}
	}

	// cutoff returns the last WAL index covered by the TS clock for inst
	// (-1 when nothing is covered: ts==0 or the clock was truncated away —
	// everything retained is after it).
	cutoff := func(inst uint16, ts uint64) int {
		if ts == 0 {
			return -1
		}
		wal := fullWAL[inst]
		for i := len(wal) - 1; i >= 0; i-- {
			if wal[i].Clock == ts {
				return i
			}
		}
		return -1
	}
	// posCutoff is the exact variant for candidates carrying a position
	// vector (checkpoints): the candidate covers the first pos[inst] of the
	// instance's WAL entries, counted from the client's birth; subtracting
	// the already-truncated prefix indexes the retained slice.
	posCutoff := func(inst uint16, pos map[uint16]uint64) int {
		from := int(int64(pos[inst])-int64(dropped[inst])) - 1
		if wal := fullWAL[inst]; from >= len(wal) {
			from = len(wal) - 1
		}
		if from < -1 {
			from = -1
		}
		return from
	}

	reexec := 0
	// Deterministic instance order for the per-key WAL walk below: ranging
	// over fullWAL directly would let map iteration order pick the relative
	// order of equal-clock ops from different instances.
	insts := make([]uint16, 0, len(fullWAL))
	for inst := range fullWAL {
		insts = append(insts, inst)
	}
	sort.Slice(insts, func(a, b int) bool { return insts[a] < insts[b] })

	for _, k := range sortedKeys(keySet) {
		// Candidates: checkpoint TS (value from checkpoint) plus every read
		// of this key (Case 2 of §5.4). The checkpoint is always present so
		// stale reads can never win the selection.
		var cands []TSCandidate
		if in.Checkpoint != nil {
			v := in.Checkpoint.Entries[k]
			cands = append(cands, TSCandidate{TS: in.Checkpoint.TS, Val: v, Pos: in.Checkpoint.Pos})
		} else {
			cands = append(cands, TSCandidate{TS: map[uint16]uint64{}, Val: Value{}})
		}
		for _, r := range readsByKey[k] {
			cands = append(cands, TSCandidate{TS: r.TS, Val: r.Val})
		}
		sel := SelectTS(clockLogs, cands)
		if sel < 0 {
			sel = 0
		}
		start := cands[sel]
		// Initialize from the selected source and roll the WALs forward
		// from each instance's cutoff position.
		if start.Val.IsNil() {
			e.Apply(&Request{Op: OpDelete, Key: k})
		} else {
			e.Apply(&Request{Op: OpSet, Key: k, Arg: start.Val})
		}
		type pendingOp struct {
			op   WalOp
			inst uint16
			idx  int
		}
		var pendingOps []pendingOp
		for _, inst := range insts {
			wal := fullWAL[inst]
			var from int
			if len(start.Pos) > 0 {
				from = posCutoff(inst, start.Pos)
			} else {
				from = cutoff(inst, start.TS[inst])
			}
			for i := from + 1; i < len(wal); i++ {
				if wal[i].Req.Key == k {
					pendingOps = append(pendingOps, pendingOp{wal[i], inst, i})
				}
			}
		}
		// "The store applies updates in the background, and this update
		// order is unknown to NF instances" — any serialization is a
		// plausible pre-failure order (Theorem B.5.2); replay in a TOTAL
		// order for determinism: clock, then instance, then WAL position
		// (clock alone would tie-break equal clocks from different
		// instances on map iteration order).
		sort.Slice(pendingOps, func(a, b int) bool {
			pa, pb := pendingOps[a], pendingOps[b]
			if pa.op.Clock != pb.op.Clock {
				return pa.op.Clock < pb.op.Clock
			}
			if pa.inst != pb.inst {
				return pa.inst < pb.inst
			}
			return pa.idx < pb.idx
		})
		for _, w := range pendingOps {
			req := w.op.Req
			e.Apply(&req)
			reexec++
		}
	}
	return e, reexec
}
