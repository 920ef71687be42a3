// Package memplane is the per-device KV-cache memory plane: it gives a
// serving device a finite KV budget (sized from its hw.GPU tier), charges
// every admitted request for its prompt prefix plus its live per-beam
// decode state, evicts under pressure with LRU, and converts prompt-prefix
// cache misses into deterministic re-prefill latency through the roofline
// model — so a prefix hit and a prefix miss have genuinely different
// costs, which is what makes prefix-aware routing a real trade-off rather
// than a free heuristic (EdgeReasoning, arXiv 2511.01866; paper §4.2).
//
// Memory model. Each device owns one kvcache.Cache (the radix-tree prefix
// cache) whose entries cost the generator's KV footprint per token,
// 2·Layers·KVHeads·HeadDim·2 bytes (K and V vectors, FP16). The plane's
// capacity is the device's KV budget: usable VRAM minus
// generator+verifier weights minus the workspace reservation
// (core.Config.KVBudget), or an explicit byte override.
//
// Determinism contract. The plane is driven only from its device's
// goroutine-confined core.Loop at virtual-time order points (admission,
// slice boundaries, completion), and every cache operation is a pure
// function of the operation sequence — token identities derive from
// prefix keys and per-device admission ordinals, never from map iteration,
// wall clocks, or randomness. A zero-capacity plane is never constructed
// (the loop carries a nil plane), so the disabled configuration is
// bit-identical to builds without the plane. Cross-device reads (the
// router probes below) happen only when the fleet routes an arrival,
// after it has stepped every device due by that instant.
//
// Session storage. A Session holds its cache handles by value — the
// prompt's, and two slots for the decode chain's, so a shrink can acquire
// the shorter path while the old handle still pins it — and its storage
// is the caller's: AdmitInto refills a zero or finished Session in place.
// A serving loop keeps one per recycled request session, so admission,
// decode growth and shrink, and finish on a warm plane allocate nothing.
package memplane

import (
	"fmt"

	"fasttts/internal/hw"
	"fasttts/internal/kvcache"
	"fasttts/internal/model"
)

// Config sizes one device's memory plane. The zero value disables the
// plane entirely (today's no-memory-model behavior).
type Config struct {
	// CapacityBytes is the KV budget the plane manages; <= 0 disables the
	// plane.
	CapacityBytes int64
}

// Enabled reports whether this configuration instantiates a plane.
func (c Config) Enabled() bool { return c.CapacityBytes > 0 }

// Validate fail-fasts on nonsensical inputs. The zero value is valid.
func (c Config) Validate() error {
	if c.CapacityBytes < 0 {
		return fmt.Errorf("memplane: negative capacity %d bytes", c.CapacityBytes)
	}
	return nil
}

// Token-identity layout. Prompt streams are numbered in first-use order
// per device; prompt token j of stream s is s<<16 | j, so requests with
// equal prefix keys share cache paths and distinct keys never collide
// (prompts are clamped to 64Ki tokens, far above any modeled workload).
// Decode tokens are private per admitted session: ordinal o's token j is
// 1<<31 | (o mod 8Ki)<<18 | j. Ordinals wrap after 8192 live admissions
// per device; a wrap could only alias against long-dropped garbage and is
// deterministic either way. Both clamps keep j below its field, so a
// prompt is the single kvcache.Run {s<<16, n}, a session's decode chain
// the single run {1<<31 | (o mod 8Ki)<<18, n}, and no token array is ever
// built: admission, growth, shrink and the router's residency probe each
// hand the cache one or two runs.
const (
	promptTokenBits = 16
	decodeTokenBits = 18
	decodeStreamTag = 1 << 31
	decodeStreamCap = 1 << 13
)

// Stats is the plane's cumulative telemetry. Hit/miss counters are
// prompt-level (admission-time prefix residency); evictions cover all
// cache content, decode state included.
type Stats struct {
	// CapacityTokens and UsedTokens snapshot occupancy at read time.
	CapacityTokens, UsedTokens int64
	// HitTokens / MissTokens count prompt-prefix tokens found / not found
	// resident at admission. Misses are the tokens whose re-prefill the
	// plane charged.
	HitTokens, MissTokens int64
	// EvictedTokens counts tokens LRU-evicted under capacity pressure
	// (explicit decode-garbage drops included).
	EvictedTokens int64
	// ReprefillSeconds is the total re-prefill latency charged for prompt
	// misses, in device-nominal seconds.
	ReprefillSeconds float64
}

// Session is one admitted request's memory footprint: a pinned prompt
// prefix plus a private decode chain that grows and shrinks with the
// solver's live beam state. It holds its cache handles in place, so its
// storage is the caller's: Admit allocates one, AdmitInto refills one the
// caller keeps across admissions (a zero or finished Session). The cache
// links live handles by address, so a Session must not be copied while
// admitted.
type Session struct {
	prompt    kvcache.Seq // live when hasPrompt
	promptRun kvcache.Run
	// dec[cur] is the decode chain's handle, live when hasDec. A shrink
	// acquires the shorter path into the other slot while the old handle
	// still pins it, then drops the old one.
	dec               [2]kvcache.Seq
	cur               int
	hasPrompt, hasDec bool
	decLen            int // currently resident decode tokens
	ordinal           uint64
	finished          bool
}

// Plane is one device's KV memory plane. Only the device's loop mutates
// it; the router probe (ResidentPromptTokens) is read-only and called
// only when the fleet routes.
type Plane struct {
	cache   *kvcache.Cache
	gpu     hw.GPU
	gen     model.Config
	streams map[string]uint32 // prefix key -> prompt stream id
	nextStr uint32
	nextOrd uint64

	hitTokens, missTokens int64
	reprefill             float64
}

// New builds a plane over cfg. The caller must ensure cfg.Enabled(); the
// generator architecture supplies the per-token byte cost and the
// re-prefill roofline inputs.
func New(cfg Config, gpu hw.GPU, gen model.Config) *Plane {
	return &Plane{
		cache:   kvcache.New(cfg.CapacityBytes, gen.KVBytesPerToken()),
		gpu:     gpu,
		gen:     gen,
		streams: map[string]uint32{},
	}
}

// promptRun is the first n (clamped) tokens of prompt stream id.
func promptRun(id uint32, n int) kvcache.Run {
	return kvcache.Run{First: kvcache.Token(id) << promptTokenBits, N: min(n, 1<<promptTokenBits)}
}

// Admit charges an arriving request's prompt prefix against the cache and
// returns its session plus the re-prefill penalty, in device-nominal
// seconds, for the prompt tokens that were not resident. A prompt the
// cache cannot hold at all (pinned-full or over capacity) is served
// uncached: the full prompt is charged as a miss and the session carries
// no resident prefix.
func (p *Plane) Admit(key string, promptTokens int) (*Session, float64) {
	s := new(Session)
	return s, p.AdmitInto(s, key, promptTokens)
}

// AdmitInto is Admit with the session's storage supplied by the caller: s
// must be a zero or finished Session, and is re-initialised in place, so
// an admission on a warm plane allocates nothing. It panics if s still
// holds cache handles (admitted and not finished).
func (p *Plane) AdmitInto(s *Session, key string, promptTokens int) float64 {
	if s.hasPrompt || s.hasDec {
		panic("memplane: AdmitInto on a session that was not finished")
	}
	*s = Session{ordinal: p.nextOrd}
	p.nextOrd++
	if promptTokens <= 0 {
		return 0
	}
	id, ok := p.streams[key]
	if !ok {
		id = p.nextStr
		p.nextStr++
		p.streams[key] = id
	}
	s.promptRun = promptRun(id, promptTokens)
	hit, miss, err := p.cache.AcquireInto(&s.prompt, []kvcache.Run{s.promptRun})
	if err != nil {
		// ErrTooLarge / ErrPinned: run without residency.
		hit, miss = 0, promptTokens
	} else {
		s.hasPrompt = true
	}
	p.hitTokens += int64(hit)
	p.missTokens += int64(miss)
	pen := p.reprefillCost(miss, promptTokens)
	p.reprefill += pen
	return pen
}

// reprefillCost is the roofline latency of prefilling miss tokens whose
// attention spans a contextLen-token prompt — the concrete cost a prefix
// hit avoids (paper §4.2: recomputation is what Dynamic Prefix-Aware
// Scheduling minimizes).
func (p *Plane) reprefillCost(miss, contextLen int) float64 {
	if miss <= 0 {
		return 0
	}
	return p.gpu.Roofline(p.gen.PrefillFLOPs(miss, contextLen), p.gen.PrefillBytes(miss))
}

// decodeRun returns the session's private decode tokens from through
// to-1.
func (s *Session) decodeRun(from, to int) kvcache.Run {
	ord := kvcache.Token(s.ordinal % decodeStreamCap)
	return kvcache.Run{First: decodeStreamTag | ord<<decodeTokenBits | kvcache.Token(from), N: to - from}
}

// SyncDecode reconciles the session's resident decode footprint with the
// solver's live KV usage beyond the prompt (per-beam decode state, which
// widens and narrows with the search). Growth that the cache cannot hold
// (pinned-full) is skipped — modeled as offloaded state with no resident
// footprint; shrink releases the abandoned suffix for LRU eviction.
func (p *Plane) SyncDecode(s *Session, want int) {
	if s.finished {
		return
	}
	if lim := 1 << decodeTokenBits; want > lim {
		want = lim
	}
	if want < 0 {
		want = 0
	}
	switch {
	case want > s.decLen:
		add := []kvcache.Run{s.decodeRun(s.decLen, want)}
		dec := &s.dec[s.cur]
		if !s.hasDec {
			if s.hasPrompt {
				if err := p.cache.ForkInto(dec, &s.prompt); err != nil {
					return
				}
				if _, _, err := p.cache.Extend(dec, add); err != nil {
					p.cache.Drop(dec)
					return // pinned-full or over capacity: stay unresident
				}
			} else if _, _, err := p.cache.AcquireInto(dec, add); err != nil {
				return // pinned-full or over capacity: stay unresident
			}
			s.hasDec = true
		} else if _, _, err := p.cache.Extend(dec, add); err != nil {
			return // growth skipped, footprint stays at decLen
		}
		s.decLen = want
	case want < s.decLen:
		old := &s.dec[s.cur]
		s.cur ^= 1
		s.hasDec = false
		if want > 0 {
			path := []kvcache.Run{s.promptRun, s.decodeRun(0, want)}
			if !s.hasPrompt {
				path = path[1:]
			}
			// The shorter path is fully resident (still pinned by old), so
			// this acquire inserts nothing and cannot fail.
			if _, _, err := p.cache.AcquireInto(&s.dec[s.cur], path); err == nil {
				s.hasDec = true
			}
		}
		p.cache.Drop(old) // evicts the abandoned, now-unshared suffix
		s.decLen = want
	}
}

// Finish ends a session: its decode chain is garbage (dropped and
// evicted), while its prompt prefix is released but stays resident for
// future admissions to hit until LRU pressure reclaims it. A finished
// session's storage may be admitted again with AdmitInto.
func (p *Plane) Finish(s *Session) {
	if s == nil || s.finished {
		return
	}
	s.finished = true
	if s.hasDec {
		p.cache.Drop(&s.dec[s.cur])
		s.hasDec = false
	}
	if s.hasPrompt {
		p.cache.Release(&s.prompt)
		s.hasPrompt = false
	}
}

// ResidentPromptTokens reports how many leading prompt tokens of the
// given prefix key are resident on this device — the cache-aware router's
// affinity signal. A key this device has never admitted reads as zero.
func (p *Plane) ResidentPromptTokens(key string, promptTokens int) int {
	if promptTokens <= 0 {
		return 0
	}
	id, ok := p.streams[key]
	if !ok {
		return 0
	}
	return p.cache.LongestCachedPrefix([]kvcache.Run{promptRun(id, promptTokens)})
}

// Stats snapshots the plane's telemetry.
func (p *Plane) Stats() Stats {
	cs := p.cache.Stats()
	return Stats{
		CapacityTokens:   p.cache.CapacityTokens(),
		UsedTokens:       p.cache.UsedTokens(),
		HitTokens:        p.hitTokens,
		MissTokens:       p.missTokens,
		EvictedTokens:    cs.EvictedTokens,
		ReprefillSeconds: p.reprefill,
	}
}
