package port

// MsgQueue is an in-order message queue with selective take: the mailbox
// representation shared by every execution backend (the sim kernel's procs,
// the real-time runtime's stash of deferred messages). Messages keep their
// delivery order; TakeMatch removes the earliest message satisfying a
// predicate and leaves the rest untouched. The zero value is an empty queue.
//
// Popped slots are compacted lazily (a head index plus an occasional copy),
// so steady-state receive loops allocate nothing.
type MsgQueue struct {
	items []Msg
	head  int
}

// Len returns the number of queued messages.
func (q *MsgQueue) Len() int { return len(q.items) - q.head }

// Push appends m behind every queued message.
func (q *MsgQueue) Push(m Msg) { q.items = append(q.items, m) }

// Pop removes and returns the earliest message. It panics on an empty
// queue; callers check Len first.
func (q *MsgQueue) Pop() Msg {
	m := q.items[q.head]
	q.items[q.head] = Msg{} // drop payload reference
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	} else if q.head > 64 && q.head*2 > len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return m
}

// TakeMatch removes and returns the earliest message satisfying pred,
// preserving the order of the rest. pred must be a pure function of the
// message: it may be re-evaluated over the same queued message any number
// of times.
func (q *MsgQueue) TakeMatch(pred func(Msg) bool) (Msg, bool) {
	for i := q.head; i < len(q.items); i++ {
		if pred(q.items[i]) {
			return q.takeAt(i), true
		}
	}
	return Msg{}, false
}

// takeAt removes and returns the message at index i (>= head), preserving
// the order of the remaining messages.
func (q *MsgQueue) takeAt(i int) Msg {
	if i == q.head {
		return q.Pop()
	}
	m := q.items[i]
	copy(q.items[i:], q.items[i+1:])
	q.items[len(q.items)-1] = Msg{} // drop payload reference
	q.items = q.items[:len(q.items)-1]
	return m
}
