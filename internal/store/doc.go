// Package store implements the CHC datastore tier: the sharded key-value
// engine executing offloaded operations (Table 2), the simulated shard
// servers, the per-NF-instance client library, and the §5.4 failure
// recovery machinery.
//
//   - Engine is a real concurrent data structure (the §7.1 datastore
//     benchmark drives it with goroutines on wall-clock time); it executes
//     the paper's offloaded operations, duplicate-suppresses by inducing
//     packet clock (Fig 5b), tracks per-instance TS position markers, and
//     emits commit signals for the root's Fig 6 XOR/delete check.
//   - Server wraps one Engine behind a transport endpoint (DES or live
//     substrate alike): one shard of the datastore tier, with
//     checkpointing, callback/ownership registries and at-most-once
//     async-op execution.
//   - PartitionMap assigns every Key to a shard by rendezvous hashing;
//     Client routes each operation to its key's shard and keeps one
//     write-ahead log per shard, which drives single-shard crash recovery
//     (Client.RecoveryState, RecoverEngine).
//   - Client also implements the Table 1 caching strategies, the one
//     outbound list every async op leaves through (merging of increments
//     under the +NA model, one message per shard per flush, retransmission
//     of un-ACK'd updates), and the Fig 4 ownership-handover handshakes.
package store
