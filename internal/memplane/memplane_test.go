package memplane

import (
	"testing"

	"fasttts/internal/hw"
	"fasttts/internal/model"
)

func newTestPlane(capacityTokens int64) *Plane {
	bpt := model.Qwen25Math1_5B.KVBytesPerToken()
	return New(Config{CapacityBytes: capacityTokens * bpt}, hw.RTX4090, model.Qwen25Math1_5B)
}

func TestAdmitMissThenHit(t *testing.T) {
	p := newTestPlane(10000)
	s1, pen1 := p.Admit("gsm8k/1", 200)
	if pen1 <= 0 {
		t.Fatalf("cold admit penalty = %v, want > 0", pen1)
	}
	p.Finish(s1)
	s2, pen2 := p.Admit("gsm8k/1", 200)
	if pen2 != 0 {
		t.Fatalf("warm admit penalty = %v, want 0 (full prefix hit)", pen2)
	}
	p.Finish(s2)
	st := p.Stats()
	if st.HitTokens != 200 || st.MissTokens != 200 {
		t.Errorf("hit/miss = %d/%d, want 200/200", st.HitTokens, st.MissTokens)
	}
	if st.ReprefillSeconds != pen1 {
		t.Errorf("ReprefillSeconds = %v, want %v", st.ReprefillSeconds, pen1)
	}
}

func TestDistinctKeysNeverShare(t *testing.T) {
	p := newTestPlane(10000)
	s1, _ := p.Admit("gsm8k/1", 100)
	s2, pen := p.Admit("gsm8k/2", 100)
	if pen <= 0 {
		t.Error("distinct key admitted with zero penalty (prefix aliasing)")
	}
	if got := p.Stats().HitTokens; got != 0 {
		t.Errorf("HitTokens = %d across distinct keys, want 0", got)
	}
	p.Finish(s1)
	p.Finish(s2)
}

func TestEvictionUnderPressure(t *testing.T) {
	p := newTestPlane(250)
	for i, key := range []string{"a/0", "b/0", "c/0"} {
		s, _ := p.Admit(key, 100)
		p.Finish(s)
		_ = i
	}
	st := p.Stats()
	if st.EvictedTokens == 0 {
		t.Error("no eviction despite 300 tokens through a 250-token cache")
	}
	if st.UsedTokens > st.CapacityTokens {
		t.Errorf("used %d > capacity %d", st.UsedTokens, st.CapacityTokens)
	}
	// The oldest prefix must be gone, the newest resident.
	if got := p.ResidentPromptTokens("a/0", 100); got != 0 {
		t.Errorf("LRU prefix still resident: %d tokens", got)
	}
	if got := p.ResidentPromptTokens("c/0", 100); got != 100 {
		t.Errorf("MRU prefix resident = %d, want 100", got)
	}
}

func TestDecodeGrowShrinkDrop(t *testing.T) {
	p := newTestPlane(10000)
	s, _ := p.Admit("gsm8k/1", 100)
	base := p.Stats().UsedTokens
	p.SyncDecode(s, 50)
	if got := p.Stats().UsedTokens; got != base+50 {
		t.Fatalf("used = %d after grow, want %d", got, base+50)
	}
	p.SyncDecode(s, 80)
	if got := p.Stats().UsedTokens; got != base+80 {
		t.Fatalf("used = %d after second grow, want %d", got, base+80)
	}
	p.SyncDecode(s, 30) // narrow: suffix becomes evictable garbage, dropped
	if got := p.Stats().UsedTokens; got != base+30 {
		t.Fatalf("used = %d after shrink, want %d", got, base+30)
	}
	p.SyncDecode(s, 60) // regrow after shrink must stay consistent
	if got := p.Stats().UsedTokens; got != base+60 {
		t.Fatalf("used = %d after regrow, want %d", got, base+60)
	}
	p.Finish(s)
	// Decode garbage evicted, prompt stays resident for reuse.
	if got := p.Stats().UsedTokens; got != base {
		t.Errorf("used = %d after finish, want %d (prompt only)", got, base)
	}
	if got := p.ResidentPromptTokens("gsm8k/1", 100); got != 100 {
		t.Errorf("prompt resident = %d after finish, want 100", got)
	}
}

func TestDecodePrivacy(t *testing.T) {
	// Two sessions on the same prompt must not share decode state.
	p := newTestPlane(10000)
	a, _ := p.Admit("gsm8k/1", 50)
	b, _ := p.Admit("gsm8k/1", 50)
	p.SyncDecode(a, 40)
	p.SyncDecode(b, 40)
	if got := p.Stats().UsedTokens; got != 50+80 {
		t.Errorf("used = %d, want 130 (shared prompt + 2 private chains)", got)
	}
	p.Finish(a)
	p.Finish(b)
}

func TestUncachablePromptRunsUnresident(t *testing.T) {
	p := newTestPlane(100)
	s, pen := p.Admit("big/0", 500) // exceeds capacity outright
	if pen <= 0 {
		t.Error("uncachable prompt should still be charged a full re-prefill")
	}
	if p.Stats().MissTokens != 500 {
		t.Errorf("MissTokens = %d, want 500", p.Stats().MissTokens)
	}
	if got := p.ResidentPromptTokens("big/0", 500); got != 0 {
		t.Errorf("uncachable prompt reads resident: %d", got)
	}
	p.SyncDecode(s, 10) // decode chain without a prompt root still works
	if got := p.Stats().UsedTokens; got != 10 {
		t.Errorf("used = %d, want 10", got)
	}
	p.Finish(s)
	if got := p.Stats().UsedTokens; got != 0 {
		t.Errorf("used = %d after finish, want 0", got)
	}
}

func TestFinishIdempotentAndOccupancy(t *testing.T) {
	p := newTestPlane(1000)
	s, _ := p.Admit("k/0", 500)
	if f := p.OccupiedFraction(); f != 0.5 {
		t.Errorf("OccupiedFraction = %v, want 0.5", f)
	}
	p.Finish(s)
	p.Finish(s)
	p.SyncDecode(s, 100) // no-op on finished session
	if got := p.Stats().UsedTokens; got != 500 {
		t.Errorf("used = %d, want 500", got)
	}
}

func TestReprefillCostScalesWithMiss(t *testing.T) {
	p := newTestPlane(100000)
	_, penSmall := p.Admit("a/0", 100)
	_, penLarge := p.Admit("b/0", 2000)
	if penLarge <= penSmall {
		t.Errorf("penalty not increasing in miss size: %v <= %v", penLarge, penSmall)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() Stats {
		p := newTestPlane(300)
		keys := []string{"a/0", "b/0", "a/0", "c/0", "b/0", "a/0"}
		var live []*Session
		for i, k := range keys {
			s, _ := p.Admit(k, 80)
			p.SyncDecode(s, 20+i)
			live = append(live, s)
			if i%2 == 1 {
				p.Finish(live[i-1])
			}
		}
		for _, s := range live {
			p.Finish(s)
		}
		return p.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("replay diverged: %+v vs %+v", a, b)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero value", Config{}, true},
		{"enabled", Config{CapacityBytes: 1 << 20}, true},
		{"negative capacity", Config{CapacityBytes: -1}, false},
		{"negative bytes per token", Config{CapacityBytes: 1, BytesPerToken: -2}, false},
		{"negative block", Config{CapacityBytes: 1, BlockTokens: -1}, false},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// The cache-aware router probes every device on every routed arrival; the
// probe is one run handed to a read-only lookup and allocates nothing.
func TestResidentPromptTokensAllocatesNothing(t *testing.T) {
	p := newTestPlane(10000)
	s, _ := p.Admit("fewshot/1", 4800)
	p.SyncDecode(s, 512)
	var got int
	if allocs := testing.AllocsPerRun(100, func() { got = p.ResidentPromptTokens("fewshot/1", 4800) }); allocs != 0 {
		t.Errorf("ResidentPromptTokens: %v allocs per call, want 0", allocs)
	}
	if got != 4800 {
		t.Errorf("ResidentPromptTokens = %d, want 4800", got)
	}
}
