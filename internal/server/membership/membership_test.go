package membership

import (
	"fmt"
	"testing"

	"arbd/internal/wire"
)

func members(n int) []Member {
	ms := make([]Member, 0, n)
	for i := 0; i < n; i++ {
		ms = append(ms, Member{ID: uint64(i + 1), Addr: fmt.Sprintf("10.0.0.%d:7700", i+1)})
	}
	return ms
}

// TestRingMembersReturnsCopy pins the aliasing fix: the slice Members()
// returns must not be the ring's own storage. Before the fix a caller
// could overwrite live membership (and therefore routing) by mutating the
// returned slice.
func TestRingMembersReturnsCopy(t *testing.T) {
	r, err := NewRing(members(3))
	if err != nil {
		t.Fatal(err)
	}
	got := r.Members()
	got[0] = Member{ID: 999, Addr: "evil"}
	got = got[:1]
	_ = got
	again := r.Members()
	if len(again) != 3 {
		t.Fatalf("membership length changed to %d after caller truncated the returned slice", len(again))
	}
	if again[0].ID != 1 || again[0].Addr != "10.0.0.1:7700" {
		t.Fatalf("membership mutated through the returned slice: %+v", again[0])
	}
	// Placement must be unaffected too.
	if !r.Contains(1) || r.Contains(999) {
		t.Fatal("ring contents changed through a Members() caller")
	}
}

// TestRingRemapMinimality is the property the whole migration design leans
// on: adding or removing one of N members remaps about 1/N of sessions,
// and never remaps a session whose owner survived the change.
func TestRingRemapMinimality(t *testing.T) {
	const sessions = 16384
	for _, n := range []int{2, 3, 4, 8, 16} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			base, err := NewRing(members(n))
			if err != nil {
				t.Fatal(err)
			}

			// Add one member: every remapped session must move TO the new
			// member (nobody else gained anything), and the remap fraction
			// must be ≈ 1/(n+1).
			added := Member{ID: uint64(n + 100), Addr: "new"}
			grown, err := NewRing(append(base.Members(), added))
			if err != nil {
				t.Fatal(err)
			}
			moved := 0
			for id := uint64(1); id <= sessions; id++ {
				before, after := base.Pick(id), grown.Pick(id)
				if before.ID == after.ID {
					continue
				}
				moved++
				if after.ID != added.ID {
					t.Fatalf("session %d moved %d→%d on join though both owners survived", id, before.ID, after.ID)
				}
			}
			expect := sessions / (n + 1)
			if moved < expect/2 || moved > expect*2 {
				t.Fatalf("join remapped %d of %d sessions, want ≈%d (1/%d)", moved, sessions, expect, n+1)
			}

			// Remove one member: only that member's sessions move, and the
			// remap fraction is its ownership share ≈ 1/n.
			if n < 2 {
				return
			}
			victim := base.Members()[n-1]
			var kept []Member
			for _, m := range base.Members() {
				if m.ID != victim.ID {
					kept = append(kept, m)
				}
			}
			shrunk, err := NewRing(kept)
			if err != nil {
				t.Fatal(err)
			}
			moved = 0
			for id := uint64(1); id <= sessions; id++ {
				before, after := base.Pick(id), shrunk.Pick(id)
				if before.ID != after.ID {
					moved++
					if before.ID != victim.ID {
						t.Fatalf("session %d moved %d→%d on leave though its owner survived", id, before.ID, after.ID)
					}
				}
			}
			expect = sessions / n
			if moved < expect/2 || moved > expect*2 {
				t.Fatalf("leave remapped %d of %d sessions, want ≈%d (1/%d)", moved, sessions, expect, n)
			}
		})
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := NewRing([]Member{{ID: 1}, {ID: 1}}); err == nil {
		t.Fatal("duplicate member IDs accepted")
	}
}

// TestRingDeterministicAcrossOrder checks placement ignores config order:
// two routers listing the same members differently must agree, or session
// affinity breaks the moment a second router joins.
func TestRingDeterministicAcrossOrder(t *testing.T) {
	a, err := NewRing([]Member{{ID: 1}, {ID: 2}, {ID: 3}, {ID: 4}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]Member{{ID: 3}, {ID: 1}, {ID: 4}, {ID: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 1000; id++ {
		if a.Pick(id).ID != b.Pick(id).ID {
			t.Fatalf("session %d: order-dependent placement (%d vs %d)", id, a.Pick(id).ID, b.Pick(id).ID)
		}
	}
}

// TestRingBalance checks sequential session IDs spread over members rather
// than marching through them in lockstep.
func TestRingBalance(t *testing.T) {
	const n = 4
	const sessions = 8192
	r, err := NewRing(members(n))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint64]int{}
	for id := uint64(1); id <= sessions; id++ {
		counts[r.Pick(id).ID]++
	}
	want := sessions / n
	for id, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("member %d owns %d of %d sessions (want ≈%d)", id, c, sessions, want)
		}
	}
}

func TestDirectoryEpochsAndMutations(t *testing.T) {
	d, err := NewDirectory(members(2))
	if err != nil {
		t.Fatal(err)
	}
	if v := d.View(); v.Epoch != 1 || v.Ring().Len() != 2 {
		t.Fatalf("initial view epoch=%d len=%d", v.Epoch, v.Ring().Len())
	}
	v, err := d.Join(Member{ID: 3, Addr: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Epoch != 2 || !v.Ring().Contains(3) {
		t.Fatalf("join view epoch=%d members=%v", v.Epoch, v.Members())
	}
	if _, err := d.Join(Member{ID: 3, Addr: "dup"}); err == nil {
		t.Fatal("duplicate join accepted")
	}
	if _, err := d.Leave(99); err == nil {
		t.Fatal("leave of unknown member accepted")
	}
	v, err = d.Leave(1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Epoch != 3 || v.Ring().Contains(1) {
		t.Fatalf("leave view epoch=%d members=%v", v.Epoch, v.Members())
	}
	if _, err = d.Leave(2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Leave(3); err == nil {
		t.Fatal("last member allowed to leave")
	}
	if got := d.View().Epoch; got != 4 {
		t.Fatalf("epoch after 3 mutations = %d, want 4", got)
	}
}

// TestDirectoryWatchCoalesces checks the watch contract: the current view
// arrives immediately, and a slow watcher skips intermediate epochs but
// always ends on the latest.
func TestDirectoryWatchCoalesces(t *testing.T) {
	d, err := NewDirectory(members(1))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := d.Watch()
	defer cancel()
	if v := <-ch; v.Epoch != 1 {
		t.Fatalf("first watched view epoch=%d, want 1 (current view delivered immediately)", v.Epoch)
	}
	// Without draining, push several epochs; the watcher must see the last.
	for i := 2; i <= 5; i++ {
		if _, err := d.Join(Member{ID: uint64(i), Addr: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	v := <-ch
	for {
		select {
		case nv, ok := <-ch:
			if !ok {
				t.Fatal("watch channel closed early")
			}
			if nv.Epoch < v.Epoch {
				t.Fatalf("watch went backwards: %d after %d", nv.Epoch, v.Epoch)
			}
			v = nv
			continue
		default:
		}
		break
	}
	if v.Epoch != 5 {
		t.Fatalf("latest watched epoch=%d, want 5", v.Epoch)
	}
	cancel()
	if _, ok := <-ch; ok {
		t.Fatal("watch channel not closed by cancel")
	}
	cancel() // idempotent
}

func TestMemberAndViewCodecsRoundTrip(t *testing.T) {
	var buf wire.Buffer
	m := Member{ID: 42, Addr: "127.0.0.1:7702"}
	EncodeMemberInto(&buf, m)
	got, err := DecodeMember(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("member round-trip = %+v, want %+v", got, m)
	}
	if _, err := DecodeMember(buf.Bytes()[:1]); err == nil {
		t.Fatal("truncated member accepted")
	}

	d, err := NewDirectory(members(3))
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.Join(Member{ID: 9, Addr: "far:1"})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	EncodeViewInto(&buf, v)
	dv, err := DecodeView(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if dv.Epoch != v.Epoch || len(dv.Members) != 4 {
		t.Fatalf("view round-trip epoch=%d members=%d", dv.Epoch, len(dv.Members))
	}
	for i, m := range v.Members() {
		if dv.Members[i] != m {
			t.Fatalf("member %d round-trip = %+v, want %+v", i, dv.Members[i], m)
		}
	}
	if _, err := DecodeView(buf.Bytes()[:2]); err == nil {
		t.Fatal("truncated view accepted")
	}
}
