package core

import (
	"errors"
	"reflect"

	"repro/internal/trace"
)

// Error-based transactional control flow. The word-level Run/RunKind
// contract retries every abort until the body commits; Atomic extends it so
// the application can participate in the decision:
//
//   - returning nil commits (retrying conflict aborts as usual);
//   - returning ErrRetry (or wrapping it) aborts the attempt, releases its
//     locks, applies the contention manager's backoff, and retries;
//   - returning any other error — or calling Tx.Abort — withdraws the
//     transaction: its locks are released, nothing is persisted, the error
//     comes back from Atomic, and the transaction is NOT retried. These
//     user aborts are counted in Stats.UserAborts, not Stats.Aborts.
//
// OnCommit/OnAbort register deferred side effects on the current attempt,
// which is how a transaction composes with §2's "no side effects inside
// transactions" rule without going full Irrevocable: the body stays
// re-executable, and the effect runs exactly once, after the outcome is
// known.

// ErrRetry, returned from an Atomic body (possibly wrapped), aborts the
// attempt and retries it after the contention manager's backoff — the
// explicit-retry idiom for "the state I need isn't there yet".
var ErrRetry = errors.New("core: retry transaction")

// ErrAborted is the error Atomic returns for a Tx.Abort(nil).
var ErrAborted = errors.New("core: transaction aborted")

// userAbortSignal unwinds a Tx.Abort out of the transaction body; the
// attempt recover arm turns it into an error return. It never escapes the
// package.
type userAbortSignal struct{ err error }

// Abort withdraws the transaction with the given error: the attempt's locks
// are released, nothing is persisted, and the enclosing Atomic returns err
// without retrying (Abort(ErrRetry) instead behaves exactly like returning
// ErrRetry). A nil err is replaced by ErrAborted. Abort does not return;
// inside Run/RunKind — which have no way to surface the error — it panics.
func (tx *Tx) Abort(err error) {
	if err == nil {
		err = ErrAborted
	}
	panic(userAbortSignal{err: err})
}

// OnCommit defers f until this attempt commits. Hooks run on the worker
// after the commit completed and every lock was released, in registration
// order, exactly once per committed transaction — an attempt that aborts
// discards its hooks with the rest of its buffers, so re-execution cannot
// double-fire them. f must not touch the Tx (the transaction is over); it
// may perform arbitrary side effects, like an Irrevocable body.
func (tx *Tx) OnCommit(f func()) { tx.onCommit = append(tx.onCommit, f) }

// OnAbort defers f until this attempt aborts, whatever the reason: a
// conflict, an ErrRetry, or a user abort. Hooks run after the attempt's
// locks are released, in registration order. A retried transaction runs its
// OnAbort hooks once per aborted attempt (each re-execution registers
// fresh ones); a committed attempt never runs them.
func (tx *Tx) OnAbort(f func()) { tx.onAbort = append(tx.onAbort, f) }

// runHooks fires the given hook list in registration order.
func (tx *Tx) runHooks(hooks []func()) {
	for _, f := range hooks {
		f()
	}
}

// finishUserAbort tears an attempt down on behalf of the application through
// the ordinary abort path. ErrRetry (possibly wrapped) backs off and retries
// like a conflict; any other error withdraws the transaction, which is
// handed back to the caller instead of the retry loop.
func (rt *Runtime) finishUserAbort(tx *Tx, err error) (attemptOutcome, error) {
	retry := errors.Is(err, ErrRetry)
	rt.abortCleanup(tx, abortSignal{reason: trace.ReasonUser, withdrawn: !retry})
	if retry {
		return attemptAborted, nil
	}
	return attemptUserAborted, err
}

// Atomic executes fn as a Normal transaction under the error-based control
// flow described above: nil commits, ErrRetry backs off and retries, any
// other error (or Tx.Abort) withdraws the transaction and is returned.
func (rt *Runtime) Atomic(fn func(*Tx) error) error { return rt.AtomicKind(Normal, fn) }

// AtomicKind is Atomic for an explicit transaction kind (elastic models,
// ReadOnly).
func (rt *Runtime) AtomicKind(kind TxKind, fn func(*Tx) error) error {
	_, err := rt.runLoop(kind, reflect.ValueOf(fn).Pointer(), fn)
	return err
}

// AtomicReadOnly executes fn as a declared ReadOnly transaction (see
// RunReadOnly) under Atomic's error contract.
func (rt *Runtime) AtomicReadOnly(fn func(*Tx) error) error {
	return rt.AtomicKind(ReadOnly, fn)
}

// RunReadOnly executes fn as a declared ReadOnly transaction, retrying
// until commit, and returns the attempt count exactly like Run. Reads take
// visible read locks as usual; writes panic. The attempt path allocates no
// write set and the commit path skips the lock-acquisition machinery and
// bookkeeping entirely — the transaction serializes at its last read and
// only pays the release burst.
func (rt *Runtime) RunReadOnly(fn func(*Tx)) int { return rt.RunKind(ReadOnly, fn) }
