package trace

import (
	"bufio"
	"fmt"
	"io"
)

// WriteText renders the trace as a plain-text timeline, one event per line
// in time order, suitable for test assertions and terminal reading. Unlike
// WriteChrome it includes every recorded event, KRead included.
func WriteText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if t.Dropped > 0 {
		fmt.Fprintf(bw, "# %d events dropped (ring wrap)\n", t.Dropped)
	}
	for i := range t.Events {
		e := &t.Events[i]
		label := t.Labels[e.Actor]
		if label == "" {
			label = fmt.Sprintf("actor%d", e.Actor)
		}
		fmt.Fprintf(bw, "[%12dns] %-10s ", int64(e.At), label)
		switch e.Kind {
		case KAttemptStart:
			fmt.Fprintf(bw, "tx=%d attempt #%d", e.TxID, e.A)
		case KCommit:
			fmt.Fprintf(bw, "tx=%d COMMIT attempts=%d", e.TxID, e.A)
		case KAbort:
			fmt.Fprintf(bw, "tx=%d ABORT reason=%s", e.TxID, Reason(e.A))
			if k := kindName(e.B); k != "" {
				fmt.Fprintf(bw, " kind=%s", k)
			}
		case KRead:
			fmt.Fprintf(bw, "tx=%d read key=%d held=%s", e.TxID, e.A, Hold(e.C))
		case KDoomedRead:
			fmt.Fprintf(bw, "tx=%d doomed read key=%d", e.TxID, e.A)
		case KLockReq:
			fmt.Fprintf(bw, "tx=%d lock-req flow=%d/%d key=%d keys=%d",
				e.TxID, e.A>>40, e.A&(1<<40-1), e.B, e.C)
		case KLockGrant:
			fmt.Fprintf(bw, "tx=%d grant flow=%d/%d keys=%d",
				e.TxID, e.A>>40, e.A&(1<<40-1), e.B)
		case KLockNack:
			fmt.Fprintf(bw, "tx=%d nack flow=%d/%d", e.TxID, e.A>>40, e.A&(1<<40-1))
			if k := kindName(e.B + 1); k != "" {
				fmt.Fprintf(bw, " kind=%s", k)
			}
			if core, tx, ok := WinnerParts(e.C); ok {
				fmt.Fprintf(bw, " winner core=%d tx=%d", core, tx)
			}
		case KLockStale:
			fmt.Fprintf(bw, "tx=%d stale-nack flow=%d/%d epoch=%d",
				e.TxID, e.A>>40, e.A&(1<<40-1), e.B)
			if e.C > 0 {
				fmt.Fprintf(bw, " owner=%d", e.C-1)
			}
		case KRevoke:
			victim, by, stale := RevokeParts(e.A)
			fmt.Fprintf(bw, "revoke victim core=%d tx=%d key=%d by core=%d tx=%d", victim, e.B, e.C, by, e.TxID)
			if stale {
				fmt.Fprint(bw, " (finished)")
			}
		case KPhaseBegin:
			fmt.Fprintf(bw, "tx=%d phase %s {", e.TxID, Phase(e.A))
		case KPhaseEnd:
			fmt.Fprintf(bw, "tx=%d phase %s }", e.TxID, Phase(e.A))
		case KClockTick:
			fmt.Fprintf(bw, "tx=%d clock tick wv=%d", e.TxID, e.A)
		case KWireSend:
			fmt.Fprintf(bw, "wire send dst=%d bytes=%d", e.A, e.B)
		case KFreeze:
			fmt.Fprintf(bw, "freeze stripe=%d %d->%d", e.A, e.B, e.C)
		case KHandoff:
			fmt.Fprintf(bw, "handoff stripe=%d %d->%d", e.A, e.B, e.C)
		default:
			fmt.Fprintf(bw, "%s tx=%d a=%d b=%d c=%d", e.Kind, e.TxID, e.A, e.B, e.C)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}
