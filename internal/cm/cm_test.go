package cm

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/port"
)

func TestPolicyStringAndParse(t *testing.T) {
	for _, p := range Policies {
		got, err := Parse(p.String())
		if err != nil || got != p {
			t.Errorf("Parse(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := Parse("bogus"); err == nil {
		t.Error("Parse(bogus) succeeded")
	}
	if Policy(200).String() == "" {
		t.Error("unknown policy String is empty")
	}
}

func TestStarvationFreeFlags(t *testing.T) {
	free := map[Policy]bool{NoCM: false, BackoffRetry: false, OffsetGreedy: false, Wholly: true, FairCM: true}
	for p, want := range free {
		if p.StarvationFree() != want {
			t.Errorf("%v.StarvationFree() = %v, want %v", p, p.StarvationFree(), want)
		}
	}
}

func TestKindString(t *testing.T) {
	if RAW.String() != "RAW" || WAW.String() != "WAW" || WAR.String() != "WAR" {
		t.Fatal("Kind.String mismatch")
	}
}

func TestBeatsIsStrictTotalOrder(t *testing.T) {
	// Property 1 rule (b): priorities with core tie-break totally order
	// distinct transactions.
	if err := quick.Check(func(p1, p2 int64, c1, c2 uint8) bool {
		a := Meta{Core: int(c1), Prio: p1}
		b := Meta{Core: int(c2), Prio: p2}
		if a.Prio == b.Prio && a.Core == b.Core {
			return true // same identity: skip
		}
		// Exactly one of a<b, b<a (antisymmetry + totality).
		return a.Beats(b) != b.Beats(a)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBeatsTransitive(t *testing.T) {
	if err := quick.Check(func(p [3]int8, c [3]uint8) bool {
		m := make([]Meta, 3)
		for i := range m {
			m[i] = Meta{Core: int(c[i]), Prio: int64(p[i])}
		}
		if m[0].Beats(m[1]) && m[1].Beats(m[2]) {
			return m[0].Beats(m[2])
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBeatsIrreflexive(t *testing.T) {
	m := Meta{Core: 3, Prio: 17}
	if m.Beats(m) {
		t.Fatal("Meta beats itself")
	}
}

func TestResolveAlwaysAbortsRequesterForSimplePolicies(t *testing.T) {
	req := Meta{Core: 0, Prio: -100} // best possible priority
	enemies := []Meta{{Core: 1, Prio: 100}}
	for _, p := range []Policy{NoCM, BackoffRetry} {
		if d := p.Resolve(req, enemies, RAW); d != AbortRequester {
			t.Errorf("%v.Resolve = %v, want abort-requester", p, d)
		}
	}
}

func TestResolvePriorityPolicies(t *testing.T) {
	for _, p := range []Policy{OffsetGreedy, Wholly, FairCM} {
		// Requester beats the single enemy.
		d := p.Resolve(Meta{Core: 0, Prio: 1}, []Meta{{Core: 1, Prio: 2}}, WAW)
		if d != AbortEnemies {
			t.Errorf("%v: higher-priority requester should win", p)
		}
		// Requester must beat ALL enemies (WAR with a reader set).
		d = p.Resolve(Meta{Core: 0, Prio: 1},
			[]Meta{{Core: 1, Prio: 2}, {Core: 2, Prio: 0}}, WAR)
		if d != AbortRequester {
			t.Errorf("%v: requester losing to one of several enemies should abort", p)
		}
		// Tie on priority: lower core wins.
		d = p.Resolve(Meta{Core: 0, Prio: 5}, []Meta{{Core: 1, Prio: 5}}, RAW)
		if d != AbortEnemies {
			t.Errorf("%v: tie should break by core ID", p)
		}
		d = p.Resolve(Meta{Core: 7, Prio: 5}, []Meta{{Core: 1, Prio: 5}}, RAW)
		if d != AbortRequester {
			t.Errorf("%v: tie with lower-core enemy should abort requester", p)
		}
	}
}

// TestResolveWinnerNamesTheDecidingEnemy: a priority verdict against the
// requester names the first enemy it does not beat; no verdict that a
// priority did not decide names one.
func TestResolveWinnerNamesTheDecidingEnemy(t *testing.T) {
	req := Meta{Core: 3, Prio: 5}
	enemies := []Meta{{Core: 1, Prio: 9}, {Core: 2, Prio: 4}, {Core: 0, Prio: 1}}
	for _, p := range Policies {
		d, w := p.ResolveWinner(req, enemies, WAR)
		want := 1
		if !p.StarvationFree() && p != OffsetGreedy {
			want = -1
		}
		if d != AbortRequester || w != want {
			t.Errorf("%v: ResolveWinner = %v, %d; want abort-requester, %d", p, d, w, want)
		}
		if d, w := p.ResolveWinner(Meta{Core: 0, Prio: 0}, enemies[:1], WAR); w != -1 || (want >= 0) != (d == AbortEnemies) {
			t.Errorf("%v: a requester beating every enemy: ResolveWinner = %v, %d", p, d, w)
		}
	}
}

func TestDecisionString(t *testing.T) {
	if AbortRequester.String() != "abort-requester" || AbortEnemies.String() != "abort-enemies" {
		t.Fatal("Decision.String mismatch")
	}
}

func TestOffsetGreedyArrivalPrio(t *testing.T) {
	// A transaction that started at t=100 sends a request at t=400 with
	// offset 300. Arriving at t=450 (50ns flight), the DTM estimates start
	// = 450-300 = 150: the flight time inflates the estimate, which is the
	// documented inconsistency of Offset-Greedy.
	m := Meta{Offset: 300}
	OffsetGreedy.ArrivalPrio(&m, 450)
	if m.Prio != 150 {
		t.Fatalf("estimated start = %d, want 150", m.Prio)
	}
	// Other policies leave the piggybacked priority untouched.
	m2 := Meta{Prio: 9, Offset: 300}
	FairCM.ArrivalPrio(&m2, 450)
	if m2.Prio != 9 {
		t.Fatalf("FairCM touched Prio: %d", m2.Prio)
	}
}

func TestOffsetGreedyInconsistentViews(t *testing.T) {
	// Two DTM nodes receive requests from two transactions with different
	// flight delays; their estimated orders disagree — the rule (b)
	// violation the paper describes in §4.3.
	txA := Meta{Core: 0, Offset: 100} // started at 0, sends at 100
	txB := Meta{Core: 1, Offset: 95}  // started at 10, sends at 105

	a1, b1 := txA, txB
	OffsetGreedy.ArrivalPrio(&a1, 101) // 1ns flight: est A = 1
	OffsetGreedy.ArrivalPrio(&b1, 125) // 20ns flight: est B = 30
	a2, b2 := txA, txB
	OffsetGreedy.ArrivalPrio(&a2, 140) // 40ns flight: est A = 40
	OffsetGreedy.ArrivalPrio(&b2, 106) // 1ns flight: est B = 11

	node1AFirst := a1.Beats(b1)
	node2AFirst := a2.Beats(b2)
	if node1AFirst == node2AFirst {
		t.Fatal("expected the two nodes to disagree on ordering")
	}
}

func TestLocalWhollyPriorityIsCommitCount(t *testing.T) {
	rng := port.NewRand(1)
	l := NewLocal(Wholly, 3, &rng)
	l.StartLifespan(0)
	m := l.RequestMeta(1, 10)
	if m.Prio != 0 || m.Core != 3 || m.TxID != 1 {
		t.Fatalf("meta = %+v", m)
	}
	l.OnCommit(100)
	l.StartLifespan(100)
	if m := l.RequestMeta(2, 110); m.Prio != 1 {
		t.Fatalf("after one commit Prio = %d, want 1", m.Prio)
	}
	if l.Commits() != 1 {
		t.Fatalf("Commits = %d", l.Commits())
	}
}

func TestLocalFairCMUsesEffectiveTimeOnly(t *testing.T) {
	rng := port.NewRand(1)
	l := NewLocal(FairCM, 2, &rng)
	// Lifespan: start 0, abort at 50, restart at 60, commit at 100.
	// Only the successful attempt (60..100) counts.
	l.StartLifespan(0)
	l.OnAbort()
	l.StartAttempt(60)
	l.OnCommit(100)
	if l.EffectiveTime() != 40 {
		t.Fatalf("effective time = %v, want 40", l.EffectiveTime())
	}
	l.StartLifespan(100)
	if m := l.RequestMeta(5, 120); m.Prio != 40 {
		t.Fatalf("Prio = %d, want 40", m.Prio)
	}
}

func TestLocalFairCMEffTimeStrictlyIncreases(t *testing.T) {
	rng := port.NewRand(1)
	l := NewLocal(FairCM, 0, &rng)
	l.StartLifespan(5)
	l.StartAttempt(5)
	l.OnCommit(5) // zero-duration attempt must still increase effTime
	if l.EffectiveTime() == 0 {
		t.Fatal("effective time did not strictly increase (rule (c) violated)")
	}
}

func TestLocalPriorityFixedDuringLifespan(t *testing.T) {
	rng := port.NewRand(1)
	l := NewLocal(Wholly, 0, &rng)
	l.StartLifespan(0)
	p1 := l.RequestMeta(1, 10).Prio
	l.OnAbort() // abort does not change the lifespan priority (rule (a))
	l.StartAttempt(20)
	p2 := l.RequestMeta(2, 30).Prio
	if p1 != p2 {
		t.Fatalf("priority changed mid-lifespan: %d -> %d", p1, p2)
	}
}

func TestBackoffGrowsAndResets(t *testing.T) {
	rng := port.NewRand(7)
	l := NewLocal(BackoffRetry, 0, &rng)
	l.StartLifespan(0)
	// The random wait is bounded by BackoffBase << attempts; verify the
	// bound grows and stays under BackoffMax.
	maxSeen := time.Duration(0)
	for i := 0; i < 20; i++ {
		d := l.OnAbort()
		if d < 0 {
			t.Fatalf("negative backoff %v", d)
		}
		if d >= BackoffMax {
			t.Fatalf("backoff %v exceeds cap %v", d, BackoffMax)
		}
		if d > maxSeen {
			maxSeen = d
		}
	}
	if maxSeen <= BackoffBase {
		t.Fatalf("backoff never grew beyond the base bound (max seen %v)", maxSeen)
	}
	l.OnCommit(1000)
	if l.Attempts() != 0 {
		t.Fatal("attempts not reset on commit")
	}
}

func TestNonBackoffPoliciesRestartImmediately(t *testing.T) {
	rng := port.NewRand(1)
	for _, p := range []Policy{NoCM, OffsetGreedy, Wholly, FairCM} {
		l := NewLocal(p, 0, &rng)
		l.StartLifespan(0)
		if d := l.OnAbort(); d != 0 {
			t.Errorf("%v backoff = %v, want 0", p, d)
		}
	}
}

func TestRuleCPriorityStrictlyDropsAfterCommit(t *testing.T) {
	// Property 1 rule (c) for both starvation-free CMs under random commit
	// schedules.
	if err := quick.Check(func(seed uint64, spans []uint16) bool {
		if len(spans) == 0 {
			return true
		}
		rng := port.NewRand(seed)
		for _, p := range []Policy{Wholly, FairCM} {
			l := NewLocal(p, 1, &rng)
			now := port.Time(0)
			last := int64(-1)
			for _, s := range spans {
				l.StartLifespan(now)
				m := l.RequestMeta(1, now)
				if last >= 0 && m.Prio <= last {
					return false // must be strictly worse (larger)
				}
				last = m.Prio
				now += port.Time(s)
				l.OnCommit(now)
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
