package dist

import (
	"fmt"
	"sync/atomic"
)

// This file implements the message transport: every message is a fixed
// number of int64 words (Algorithm.MessageWords), exchanged through two
// process-wide word columns (one per round parity) indexed by the
// engine's port tables. A round performs no per-message allocation and
// no pointer chasing beyond two flat arrays.
//
// Layout. Every active vertex v owns the contiguous slot range
// [base[v], base[v]+deg(v)) of the columnar port space, one slot per
// visible port, deg summed over the label/active-filtered subgraph. A
// round-parity column holds W = MessageWords() int64 words per slot plus
// one sent flag per slot. Sending writes the node's own slots; delivery
// reads the neighbor's slot for the previous parity through the
// precomputed inSlots table.

// WordInbox is a node's inbox: a by-value view of the previous round's
// word column restricted to the node's visible ports. Port p of the
// inbox is the node's visible port p.
//
// The inbox is seven machine words, so the StepWords interface call
// passes it in registers: the sent flags and the per-port slots are
// inline (Has touches nothing else), while the column's width and words
// sit behind a pointer to the simulation's descriptor for that round
// parity (one per run and parity, never one per node or chunk).
type WordInbox struct {
	col   *inboxCol // previous parity's word column
	sent  []uint8   // previous parity's sent flags, one per slot
	slots []int32   // per-port slot of the sending neighbor
}

// inboxCol describes one round parity's word column for the inboxes that
// read it: W words per slot.
type inboxCol struct {
	width int
	words []int64
}

// Ports returns the number of visible ports (the node's degree).
func (in WordInbox) Ports() int { return len(in.slots) }

// Has reports whether the neighbor on port p sent a message last round.
func (in WordInbox) Has(p int) bool {
	return in.sent[in.slots[p]] != 0
}

// Word returns the first word of port p's message. Meaningful only when
// Has(p); the value is unspecified otherwise.
func (in WordInbox) Word(p int) int64 {
	c := in.col
	return c.words[int(in.slots[p])*c.width]
}

// Words returns the full W-word message on port p as a view into the
// engine's column. The slice is valid only during the current StepWords
// call and must not be retained or written.
func (in WordInbox) Words(p int) []int64 {
	c := in.col
	s := int(in.slots[p]) * c.width
	return c.words[s : s+c.width : s+c.width]
}

// SendWords marks the given visible port as sending this round and
// returns its W-word outbox slot, zeroed at the first mark of the round;
// the caller fills in the words. Subsequent calls in the same round
// return the same slot (the last write wins). SendWords and SendWord are
// never inlined, so their cold panic formatting stays out of every
// vertex program's step.
//
//distvet:noalloc
//go:noinline
func (n *Node) SendWords(port int) []int64 {
	if port < 0 || port >= len(n.ports) {
		panic(fmt.Sprintf("dist: node id=%d sends on port %d of %d", n.id, port, len(n.ports)))
	}
	s := port * n.width
	out := n.wout[s : s+n.width : s+n.width]
	if n.wmark[port] == 0 {
		n.wmark[port] = 1
		n.sent++
		for i := range out {
			out[i] = 0
		}
	}
	return out
}

// SendWord sends the one-word message w on the given visible port. The
// algorithm's width must be 1 (use SendWords for wider messages).
//
//distvet:noalloc
//go:noinline
func (n *Node) SendWord(port int, w int64) {
	if n.width != 1 {
		panic(fmt.Sprintf("dist: node id=%d uses SendWord with %d-word messages", n.id, n.width))
	}
	if port < 0 || port >= len(n.ports) {
		panic(fmt.Sprintf("dist: node id=%d sends on port %d of %d", n.id, port, len(n.ports)))
	}
	if n.wmark[port] == 0 {
		n.wmark[port] = 1
		n.sent++
	}
	n.wout[port] = w
}

// SendAllWord sends the one-word message w on every visible port.
//
//distvet:noalloc
func (n *Node) SendAllWord(w int64) {
	for p := range n.ports {
		n.SendWord(p, w)
	}
}

// flushHaltClears zeroes the sent flags of nodes that halted in the
// previous round, in both parities. It runs between rounds, after the
// halting sends have been delivered: a halted node no longer steps, so
// nothing else clears the stale flags its final rounds left behind.
//
//distvet:noalloc
func (s *simulation) flushHaltClears() {
	for _, v := range s.clearQ {
		b := s.topo.base[v]
		deg := len(s.nodes[v].ports)
		clear(s.wsent[0][b : b+deg])
		clear(s.wsent[1][b : b+deg])
	}
	s.clearQ = s.clearQ[:0]
}

// Sleep scheduling. A node that calls Sleep in round r is skipped from
// round r+1 on until a round that delivers it a message. Senders stamp
// the receiver's wake column, so a sleeper steps in round r exactly
// when some neighbor sent to it in round r-1, whatever order the round's
// steps run in: whether a node steps is the same at every worker count.
// Stamping starts at the round boundary after the run's first Sleep, so
// runs in which no node sleeps never stamp, and a node that fell asleep
// before then steps once more (an unstamped message may be waiting for
// it).
//
// A stamp is 2d+b: d is the latest delivery round of a message sent to
// the node and b is 1 when round d-1 delivered one too. Senders of
// round r stamp d = r+1 while a sleeper checks for delivery round r, so
// b keeps the answer after a sender of the same round has moved d on.

// Sleep states (simulation.sleep). A skipped node clears its own sent
// flags in its first two skipped rounds - the rounds in which a step
// would have cleared them - and is then clean in both parities.
const (
	awake      = iota // steps every round
	asleep            // fell asleep last round
	asleepOnce        // skipped one round
	sleepClean        // skipped two rounds or more: no flags left
)

// startStamping turns on wake stamping at a round boundary, over a
// zeroed wake column: no round of this run is stamped yet.
func (s *simulation) startStamping() {
	s.rs.wake = grown(s.rs.wake, len(s.nodes))
	s.wake = s.rs.wake
	clear(s.wake)
}

// stampWake stamps delivery round d on every receiver the sender marked
// this round. Concurrent senders to one receiver race only on the
// compare-and-swap; the first one moves the stamp, the rest find it
// done.
//
//distvet:noalloc
func stampWake(wake []atomic.Int32, ports []int, marks []uint8, d int32) {
	for p, m := range marks {
		if m == 0 {
			continue
		}
		w := &wake[ports[p]]
		for {
			old := w.Load()
			last := old >> 1
			stamp := d << 1
			if last == d-1 {
				stamp |= 1
			}
			if last >= d || w.CompareAndSwap(old, stamp) {
				break
			}
		}
	}
}

// woken reports whether sleeping node v has a message in round r, that
// is, whether round r is the stamp's delivery round or, once a sender of
// round r has stamped r+1, the one before it.
func (s *simulation) woken(v, r int) bool {
	w := s.wake[v].Load()
	switch int(w >> 1) {
	case r:
		return true
	case r + 1:
		return w&1 != 0
	}
	return false
}

// skipSleeper clears the sent flags a skipped node left in this round's
// parity (cur), as its step would have.
func (s *simulation) skipSleeper(v int, cur []uint8) {
	b := s.topo.base[v]
	clear(cur[b : b+len(s.topo.ports[v])])
}
