package store

import (
	"bytes"
	"crypto/sha512"
	"errors"
	"fmt"
	"math/big"
	"sync"

	"chc/internal/transport"
)

// This file implements durable, content-addressed checkpoints (§5.4 "the
// store periodically checkpoints shared state"): a canonical (sorted-key)
// binary encoding of an engine Snapshot, a c4-style content ID over that
// encoding, and the Stable area a crashed store instance recovers from.
// Identity IS the integrity check: a checkpoint whose stored bytes no
// longer hash to its ID (bit rot, torn write) is rejected on load and
// recovery falls back to the previous stable checkpoint.

// snapshotMagic versions the snapshot encoding. CHCK2 is built from the
// wire codec's Key and Value encodings (wire.go, DESIGN.md §12).
const snapshotMagic = "CHCK2"

// defaultCheckpointRetain is how many committed checkpoints a shard keeps:
// the newest plus one fallback for a torn or corrupt newest.
const defaultCheckpointRetain = 2

// Least encoded sizes of a Key and of a Value (every field zero or empty),
// which bound the decoder's element counts.
const (
	keyWireSize   = 2 + 2 + 8
	valueWireSize = 1 + 8 + 8 + 4 + 4 + 4
)

// EncodeSnapshot serializes a snapshot into its canonical form with the wire
// codec's Key and Value encodings: entries and owners sorted by key, the TS
// and Pos vectors by instance, map values by field name. Equal snapshots
// encode to equal bytes regardless of map iteration order, so the encoding
// is a stable content-address input.
func EncodeSnapshot(s *Snapshot) []byte {
	var e transport.WireEnc
	keys := sortedKeys(s.Entries)
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		encKey(&e, k)
		encValue(&e, s.Entries[k])
	}
	keys = sortedKeys(s.Owners)
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		encKey(&e, k)
		e.U16(s.Owners[k])
	}
	e.MapU16U64(s.TS)
	e.MapU16U64(s.Pos)
	return append([]byte(snapshotMagic), e.Bytes()...)
}

// DecodeSnapshot parses a canonical snapshot encoding. Every count is
// bounded by the bytes left, so a corrupt one fails instead of allocating.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		return nil, errors.New("store: not a snapshot encoding (bad magic)")
	}
	d := transport.NewWireDec(data[len(snapshotMagic):])
	s := &Snapshot{Entries: make(map[Key]Value), Owners: make(map[Key]uint16)}
	for n := d.Len(keyWireSize + valueWireSize); n > 0; n-- {
		k := decKey(d)
		s.Entries[k] = decValue(d)
	}
	for n := d.Len(keyWireSize + 2); n > 0; n-- {
		k := decKey(d)
		s.Owners[k] = d.U16()
	}
	s.TS = d.MapU16U64()
	s.Pos = d.MapU16U64()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("store: snapshot: %w", err)
	}
	if d.Rest() != 0 {
		return nil, fmt.Errorf("store: %d trailing bytes after snapshot", d.Rest())
	}
	return s, nil
}

// --- Content-addressed identity ----------------------------------------------

// b58Alphabet is the Bitcoin base58 alphabet the c4 ID scheme uses (no
// 0/O/I/l, so IDs survive transcription).
const b58Alphabet = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"

// c4IDLen is the fixed length of a c4 ID: "c4" plus 88 base58 digits
// (enough for any SHA-512 digest), zero-padded with '1'.
const c4IDLen = 90

// Identify computes the c4-style content ID of an encoded snapshot: the
// SHA-512 digest rendered as a fixed-width, '1'-padded base58 string with a
// "c4" prefix. Two byte strings share an ID iff they are equal, so the ID
// doubles as the load-time integrity check.
func Identify(data []byte) string {
	sum := sha512.Sum512(data)
	x := new(big.Int).SetBytes(sum[:])
	radix := big.NewInt(58)
	mod := new(big.Int)
	digits := make([]byte, 0, c4IDLen-2)
	for x.Sign() > 0 {
		x.DivMod(x, radix, mod)
		digits = append(digits, b58Alphabet[mod.Int64()])
	}
	for len(digits) < c4IDLen-2 {
		digits = append(digits, '1')
	}
	// digits are least-significant first; reverse into place.
	for i, j := 0, len(digits)-1; i < j; i, j = i+1, j-1 {
		digits[i], digits[j] = digits[j], digits[i]
	}
	return "c4" + string(digits)
}

// --- Stable checkpoint area --------------------------------------------------

// StoredCheckpoint is one durable snapshot: its content ID, the canonical
// encoding it addresses, when it was taken, and whether the write committed
// (a begin with no commit is a torn write — the process died mid-flush —
// and is never loaded).
type StoredCheckpoint struct {
	ID        string
	Data      []byte
	At        transport.Time
	Committed bool
	// TS and Pos are the covering TS/position vectors of the snapshot
	// (decoded metadata, kept alongside so the truncation horizon can be
	// computed without re-decoding Data).
	TS  map[uint16]uint64
	Pos map[uint16]uint64
}

// Verify recomputes the content ID over the stored bytes: false means the
// checkpoint is torn (never committed) or corrupt (bytes no longer hash to
// the ID it was committed under).
func (ck *StoredCheckpoint) Verify() bool {
	return ck.Committed && Identify(ck.Data) == ck.ID
}

// Stable is the durable part of a store instance that survives a crash of
// the serving process (the paper checkpoints to stable storage / a replica;
// a crashed instance's in-memory state is lost but its checkpoints are
// recoverable). It holds the retained checkpoints oldest-to-newest, guarded
// for the live substrate where the checkpointer proc and a recovery run
// concurrently.
type Stable struct {
	mu    sync.Mutex
	ckpts []*StoredCheckpoint
	// taken counts checkpoints ever committed; rejected counts committed
	// checkpoints that later failed content-hash verification at load.
	taken    uint64
	rejected uint64
}

// begin appends an in-progress (uncommitted) checkpoint: the durable write
// has started but not yet completed. A crash before commit leaves the entry
// torn, and LatestVerified skips it.
func (st *Stable) begin(ck *StoredCheckpoint) {
	st.mu.Lock()
	st.ckpts = append(st.ckpts, ck)
	st.mu.Unlock()
}

// commit marks a begun checkpoint durable and prunes the area to the last
// defaultCheckpointRetain committed checkpoints (torn leftovers from older
// incarnations are dropped too — a newer committed checkpoint always
// supersedes them).
func (st *Stable) commit(ck *StoredCheckpoint) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ck.Committed = true
	st.taken++
	kept := make([]*StoredCheckpoint, 0, defaultCheckpointRetain)
	for i := len(st.ckpts) - 1; i >= 0 && len(kept) < defaultCheckpointRetain; i-- {
		if st.ckpts[i].Committed {
			kept = append(kept, st.ckpts[i])
		}
	}
	for i, j := 0, len(kept)-1; i < j; i, j = i+1, j-1 {
		kept[i], kept[j] = kept[j], kept[i]
	}
	st.ckpts = kept
}

// truncationHorizon returns the OLDEST retained committed checkpoint —
// the safe WAL-truncation horizon. Truncating behind the newest checkpoint
// would make retention pointless: if the newest snapshot is later found
// torn or corrupt, recovery falls back to an older one and needs the WAL
// to still cover the gap between the two.
func (st *Stable) truncationHorizon() *StoredCheckpoint {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, ck := range st.ckpts {
		if ck.Committed {
			return ck
		}
	}
	return nil
}

// Checkpoints returns the retained checkpoints, oldest to newest (tests and
// diagnostics; the entries are the live structs, so fault-injection tests
// can corrupt Data in place).
func (st *Stable) Checkpoints() []*StoredCheckpoint {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]*StoredCheckpoint(nil), st.ckpts...)
}

// LatestVerified walks the retained checkpoints newest-first and returns
// the first that verifies and decodes, with how many entries were skipped
// on the way (torn writes and corrupt checkpoints). Returns (nil, nil, n)
// when no checkpoint survives — recovery then replays the full WAL.
func (st *Stable) LatestVerified() (*Snapshot, *StoredCheckpoint, int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	skipped := 0
	for i := len(st.ckpts) - 1; i >= 0; i-- {
		ck := st.ckpts[i]
		if !ck.Verify() {
			skipped++
			if ck.Committed {
				st.rejected++
			}
			continue
		}
		snap, err := DecodeSnapshot(ck.Data)
		if err != nil {
			skipped++
			st.rejected++
			continue
		}
		return snap, ck, skipped
	}
	return nil, nil, skipped
}

// CheckpointStats is the externally visible state of a shard's checkpoint
// area (admin status, chcd -json).
type CheckpointStats struct {
	Taken    uint64         `json:"taken"`
	Retained int            `json:"retained"`
	Torn     int            `json:"torn,omitempty"`
	Rejected uint64         `json:"rejected,omitempty"`
	LastID   string         `json:"last_id,omitempty"`
	LastAt   transport.Time `json:"last_at_ns,omitempty"`
}

// Stats snapshots the checkpoint area's counters.
func (st *Stable) Stats() CheckpointStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	cs := CheckpointStats{Taken: st.taken, Rejected: st.rejected}
	for _, ck := range st.ckpts {
		if ck.Committed {
			cs.Retained++
			cs.LastID = ck.ID
			cs.LastAt = ck.At
		} else {
			cs.Torn++
		}
	}
	return cs
}
