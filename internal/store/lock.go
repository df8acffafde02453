package store

import (
	"chc/internal/transport"
)

// Server-side locking exists ONLY for the naive baseline the paper compares
// operation offloading against (§7.1): acquire a lock with the read, update
// locally at the NF, write back and release. CHC itself never locks — the
// store serializes offloaded operations.

// LockGetReq acquires the key's lock and returns its value; if the lock is
// held, the reply is deferred until release (lock waiting).
type LockGetReq struct {
	Key      Key
	Instance uint16
}

// SetUnlockReq writes the key and releases its lock, granting the next
// waiter if any.
type SetUnlockReq struct {
	Key      Key
	Val      Value
	Instance uint16
	Clock    uint64
}

type lockState struct {
	held    bool
	holder  uint16
	waiters []transport.Call
}

// lockTable is lazily attached to a Server.
type lockTable struct {
	locks map[Key]*lockState
}

func (s *Server) lockStateFor(k Key) *lockState {
	if s.locks == nil {
		s.locks = &lockTable{locks: make(map[Key]*lockState)}
	}
	ls, ok := s.locks.locks[k]
	if !ok {
		ls = &lockState{}
		s.locks.locks[k] = ls
	}
	return ls
}

// handleLockGet grants the lock (replying with the value) or queues.
func (s *Server) handleLockGet(p transport.Proc, cm transport.Call, req LockGetReq) {
	p.Sleep(s.cfg.OpService)
	ls := s.lockStateFor(req.Key)
	if ls.held {
		ls.waiters = append(ls.waiters, cm)
		return
	}
	ls.held = true
	ls.holder = req.Instance
	rep := s.engine.Apply(&Request{Op: OpGet, Key: req.Key, Instance: req.Instance})
	cm.Reply(s.replySlab.New(rep), 16+rep.Val.wireSize())
}

// handleSetUnlock writes, releases, and grants the next waiter.
func (s *Server) handleSetUnlock(p transport.Proc, cm transport.Call, req SetUnlockReq) {
	p.Sleep(s.cfg.OpService)
	rep := s.engine.Apply(&Request{Op: OpSet, Key: req.Key, Arg: req.Val, Instance: req.Instance, Clock: req.Clock})
	s.sendCommits()
	ls := s.lockStateFor(req.Key)
	ls.held = false
	ls.holder = 0
	cm.Reply(s.replySlab.New(rep), 16)
	if len(ls.waiters) > 0 {
		next := ls.waiters[0]
		ls.waiters = ls.waiters[1:]
		nreq := next.Body().(LockGetReq)
		ls.held = true
		ls.holder = nreq.Instance
		nrep := s.engine.Apply(&Request{Op: OpGet, Key: nreq.Key, Instance: nreq.Instance})
		next.Reply(s.replySlab.New(nrep), 16+nrep.Val.wireSize())
	}
}

// LockGet is the client side of the naive RMW: one RTT (plus lock wait)
// returning the current value with the lock held.
func (c *Client) LockGet(p transport.Proc, key Key) (Value, bool) {
	c.mu.Lock()
	c.BlockingOps++
	to := c.shardFor(key)
	c.mu.Unlock()
	res, ok := c.net.Call(p, c.cfg.Endpoint, to, LockGetReq{Key: key, Instance: c.cfg.Instance}, 24, c.cfg.RPCTimeout)
	if !ok {
		return Value{}, false
	}
	return res.(*Reply).Val, true
}

// SetUnlock writes back and releases: the second RTT of the naive RMW.
func (c *Client) SetUnlock(p transport.Proc, key Key, v Value, clock uint64) bool {
	c.mu.Lock()
	c.BlockingOps++
	to := c.shardFor(key)
	c.mu.Unlock()
	_, ok := c.net.Call(p, c.cfg.Endpoint, to,
		SetUnlockReq{Key: key, Val: v, Instance: c.cfg.Instance, Clock: clock}, 24+v.wireSize(), c.cfg.RPCTimeout)
	return ok
}
